"""Compare two run records of the same workload and seed for exact repeats.

Usage: python3 perfbench/compare.py .bench_out/A.json .bench_out/B.json

The output digests (rounded CI bounds, or the report fingerprint for
``null-table``, over the repeat window) must match, also between a traced
and an untraced run.  When both records are traced, the exact-repeat
counters must match as well.  Any difference is flagged as
nondeterminism and the exit code is 1.  Counters are counts, never
speed-ups.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

EXACT_REPEAT = (
    "estimators.mle_weights.iterations_p50",
    "estimators.mle_weights.unconverged",
    "transport.kr_dual_value.calls",
    "transport.vertices.count_max",
    "numlin.pinv.calls",
)


def compare(a: dict, b: dict) -> list[str]:
    """Differences between two records; an empty list means they repeat."""
    pa, pb = a["provenance"], b["provenance"]
    if (pa["workload"], pa["seed"]) != (pb["workload"], pb["seed"]):
        return [f"different inputs: {pa['workload']}/{pa['seed']} vs {pb['workload']}/{pb['seed']}"]
    flags = []
    if a["digest_ops"] == b["digest_ops"] and a["digest"] != b["digest"]:
        flags.append(f"nondeterminism: output digest {a['digest']} != {b['digest']}")
    for name in EXACT_REPEAT:
        if name in a["metrics"] and name in b["metrics"]:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va != vb:
                flags.append(f"nondeterminism: {name} {va} != {vb}")
    return flags


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    flags = compare(a, b)
    for f in flags:
        print(f)
    if not flags:
        print(f"repeat: digest {a['digest']} over {a['digest_ops']} ops")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
