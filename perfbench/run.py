"""Seeded, closed-loop benchmark of mixwass: one client, one op at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pair-ci --seed 1 --seconds 45 --trace 0

The next op starts only after the previous one completes.  Inputs come
from the benchmark's own generator (``inputs.py``) and reach the program
through its public API and its CSV readers.  Each op's outputs are checked
outside the timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` first runs the ops untraced, then replays the same ops with
span tracing on, reports the per-layer metrics and the tracing overhead,
and fails any op whose traced result differs from its untraced one.
Times in the result line are scaled to a reference machine speed measured
between ops (``calib.py``); the record keeps the unscaled values too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(provenance, all six end-to-end metrics, digest, counters, per-kind
breakdown) goes to ``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import calib  # imports no numpy, so main() can still set the BLAS threads first

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# Cold set-ups per run; setup_s is their median.
SETUP_RUNS = 5
# Calibration chunks before, between and after the set-up probes, and
# after each op one chunk per CAL_EVERY_S of its time (at least one).
SETUP_CAL_CHUNKS = 10
CAL_EVERY_S = 0.1
# One BLAS thread: results repeat bit for bit and a shared machine adds
# less noise.  Set before numpy is first imported, here and in the probes.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 150
LOAD_NOTE = "closed loop, one client: the next op starts when the previous one completes"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None, help="run exactly this many ops instead of --seconds")
    ap.add_argument("--tiny", action="store_true", help="small M and B, for the self-test")
    return ap.parse_args(argv)


def tail(ms: list[float], level: float) -> tuple[float, int]:
    """Op time at the ``level`` percentile (nearest rank) and the ops beyond it."""
    xs = sorted(ms)
    rank = max(math.ceil(len(xs) * level / 100.0), 1)
    return xs[rank - 1], len(xs) - rank


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "mixwass").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def provenance(args, n_ops: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    return {
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_lib,
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": n_ops,
        "load": LOAD_NOTE,
        "machine": platform.machine(),
    }


def run_probe(topic_paths: dict[int, Path]) -> dict:
    """Time one cold set-up: spawn a fresh interpreter, wait for its line."""
    spec = json.dumps({"topics": {str(K): str(p) for K, p in topic_paths.items()}})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"), spec], stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line.strip():
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return {"setup_s": setup_s, **json.loads(line)}


class OpLog:
    """Per-op results of one pass over the ops."""

    def __init__(self):
        self.ms: list[float] = []
        self.kinds: list[str] = []
        self.pairs: list[int] = []
        self.failed: list[str | None] = []
        self.digests: list[list] = []
        self.kept: list = []  # what the run-level checks need
        self.checks_run: dict[str, int] = {}
        self.known_defect_ops: dict[str, int] = {}  # failures of ``wl.known_defects`` checks
        self.cal: list[float] = []  # calibration chunk seconds, run after the ops

    def __len__(self):
        return len(self.ms)

    def cal_ms(self) -> list[float]:
        return [c * 1e3 for c in self.cal]

    def pairs_per_s(self) -> float:
        return sum(self.pairs) / (sum(self.ms) / 1e3)

    def scaled_pairs_per_s(self) -> float:
        return self.pairs_per_s() / calib.factor(self.cal)


def run_ops(wl, mw, fixtures, items, seed, budget_s, n_ops, sizes, workdir, tracer=None) -> OpLog:
    """Run ops in a closed loop.

    With ``n_ops`` set, exactly that many ops run.  Otherwise ops run until
    ``budget_s`` has passed, ending on a cycle boundary and after at least
    the repeat window.  ``items`` is extended with new inputs as needed, so
    a second pass can replay the same ops.
    """
    log = OpLog()
    t_start = perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i % wl.cycle == 0 and i >= wl.window and perf_counter() - t_start >= budget_s:
            break
        if i == len(items):
            items.append(wl.make_item(seed, i, fixtures, workdir))
        item = items[i]
        error = None
        out = None
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        t0 = perf_counter()
        try:
            out = wl.run(mw, fixtures, item, sizes)
        except mw.MixwassError as exc:
            error = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if out is not None:
            for name, ok in wl.check(mw, fixtures, item, out, sizes).items():
                log.checks_run[name] = log.checks_run.get(name, 0) + 1
                if name in wl.known_defects:
                    log.known_defect_ops[name] = log.known_defect_ops.get(name, 0) + (not ok)
                elif not ok and error is None:
                    error = f"check failed: {name}"
        log.cal += [calib.chunk() for _ in range(max(1, int(dt / CAL_EVERY_S)))]
        log.ms.append(dt * 1e3)
        log.kinds.append(item.kind)
        log.failed.append(error)
        log.pairs.append(wl.pairs(out) if error is None else 0)
        log.digests.append([item.kind, *wl.digest(out)] if out is not None else [item.kind, error])
        if out is not None:
            log.kept.append(wl.keep(out))
        i += 1
    return log


def digest_of(rows: list[list]) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()[:16]


def end_to_end(log: OpLog, probes: list[dict], setup_cal: list[float], tail_level: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics with their times scaled by ``calib``, the unscaled
    values, and the tail level with the op count."""
    tail_ms, beyond = tail(log.ms, tail_level)
    raw = {
        "pairs_per_s": (log.pairs_per_s(), "1/s"),
        "op_p50_ms": (median(log.ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (sum(e is not None for e in log.failed) / len(log), "ratio"),
    }
    op_f, setup_f = calib.factor(log.cal), calib.factor(setup_cal)
    scale = {"pairs_per_s": 1.0 / op_f, "op_p50_ms": op_f, "op_tail_ms": op_f, "setup_s": setup_f}
    metrics = {k: (v * scale.get(k, 1.0), u) for k, (v, u) in raw.items()}
    info = {
        "op_tail_percentile": tail_level,
        "op_tail_ops_beyond": beyond,
        "op_count": len(log),
        "calibration": {
            "ref_ms": calib.REF_MS,
            "op_chunk_ms_median": median(log.cal) * 1e3,
            "setup_chunk_ms_median": median(setup_cal) * 1e3,
            "op_chunk_ms": log.cal_ms(),
            "setup_chunk_ms": [c * 1e3 for c in setup_cal],
        },
    }
    return metrics, raw, info


def by_kind(log: OpLog) -> dict:
    out = {}
    for kind in sorted(set(log.kinds)):
        ms = [m for m, k in zip(log.ms, log.kinds) if k == kind]
        out[kind] = {"ops": len(ms), "op_p50_ms": median(ms)}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mixwass" / "__init__.py").is_file():
        print(f"mixwass sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import inputs
    import ops

    if args.workload not in ops.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(ops.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = ops.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sizes = ops.Sizes(M=400, B=400) if args.tiny else ops.Sizes()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        topic_paths = {}
        for K in wl.Ks:
            topic_paths[K] = workdir / f"topics_K{K}.csv"
            inputs.write_topics(topic_paths[K], inputs.topics(args.seed, K))
        setup_cal, probes = [], []
        for _ in range(SETUP_RUNS):
            setup_cal += [calib.chunk() for _ in range(SETUP_CAL_CHUNKS)]
            probes.append(run_probe(topic_paths))
        setup_cal += [calib.chunk() for _ in range(SETUP_CAL_CHUNKS)]

        import mixwass
        import mixwass.io

        fixtures, _ = ops.setup(mixwass, topic_paths)
        items: list = []
        record: dict = {}
        if args.trace:
            import tracer as tracing

            # Untraced pass on half the budget, then the same ops traced.
            plain = run_ops(wl, mixwass, fixtures, items, args.seed, args.seconds / 2, args.ops, sizes, workdir)
            tr = tracing.Tracer()
            tr.install(warm_polytopes=[fx.poly for fx in fixtures.values()])
            try:
                log = run_ops(wl, mixwass, fixtures, items, args.seed, 0.0, len(plain), sizes, workdir, tr)
            finally:
                tr.uninstall()
            for i, (a, b) in enumerate(zip(plain.digests, log.digests)):
                if a != b and log.failed[i] is None:
                    log.failed[i] = "traced result differs from untraced result"
                    log.pairs[i] = 0
            rate_plain, rate_traced = plain.scaled_pairs_per_s(), log.scaled_pairs_per_s()
            layers = tracing.layer_metrics(tr.spans, len(log), min(wl.window, len(log)))
            layers.update(
                {
                    "mixwass.import_s": median(p["import_s"] for p in probes),
                    "io.load_topics.busy_s": median(p["load_topics_s"] for p in probes),
                    "transport.vertices.setup_s": median(p["vertices_s"] for p in probes),
                    "trace.pairs_per_s_untraced": rate_plain,
                    "trace.pairs_per_s_traced": rate_traced,
                    "trace.overhead_pairs_per_s": rate_plain - rate_traced,
                }
            )
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
            record["untraced_digest"] = digest_of(plain.digests[: wl.window])
            record["spans"] = len(tr.spans)
            fits = [s.note for s in tr.spans if s.name == "estimators.mle_weights" and s.note]
            record["mle_fits_traced_pass"] = {
                "fits": len(fits),
                "unconverged": sum(not n["converged"] for n in fits),
                "kkt_gap_max": max((n["kkt_gap"] for n in fits), default=0.0),
            }
            record["span_table"] = tracing.span_table(tr.spans, dict(enumerate(log.kinds)))
        else:
            log = run_ops(wl, mixwass, fixtures, items, args.seed, args.seconds, args.ops, sizes, workdir)
            e2e, raw, info = end_to_end(log, probes, setup_cal, wl.tail_level)
            metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
            record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
            record["end_to_end_unscaled"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
            record["op_ms"] = log.ms
            record.update(info)

        run_checks = wl.run_checks(log.kept)
        checks_run = dict(log.checks_run)
        for name in run_checks:
            checks_run[name] = checks_run.get(name, 0) + 1
        n_failed = sum(e is not None for e in log.failed)
        correct = n_failed == 0 and all(run_checks.values())
        record.update(
            {
                "provenance": provenance(args, len(log)),
                "digest": digest_of(log.digests[: wl.window]),
                "digest_ops": min(wl.window, len(log)),
                "checks_run": checks_run,
                "run_checks": run_checks,
                "failures": [{"op": i, "kind": k, "cause": e} for i, (k, e) in enumerate(zip(log.kinds, log.failed)) if e],
                "known_defects": {
                    name: {"ops_failing": log.known_defect_ops.get(name, 0), "cause": cause}
                    for name, cause in wl.known_defects.items()
                },
                "by_kind": by_kind(log),
                "setup_probes": probes,
                "metrics": metrics,
            }
        )
        if args.workload == "null-table":
            record["pooled_coverage"] = ops.pooled_coverage(log.kept)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record: {out_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": bool(correct), "attempted": len(log), "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
