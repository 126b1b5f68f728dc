"""One cold set-up in a fresh interpreter; prints its timings as one JSON line.

Usage: python3 perfbench/probe.py '{"topics": {"5": "path.csv"}}'

The parent times the whole probe from spawn to this line (``setup_s``);
the breakdown below says which layer the time went to.  The interpreter
exits right after printing.
"""

import json
import sys
from time import perf_counter

if __name__ == "__main__":
    t0 = perf_counter()
    import mixwass
    import mixwass.io

    import_s = perf_counter() - t0
    import ops

    spec = json.loads(sys.argv[1])
    _, times = ops.setup(mixwass, {int(K): p for K, p in spec["topics"].items()})
    print(json.dumps({"import_s": import_s, **times}), flush=True)
