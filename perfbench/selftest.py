"""Tiny-size self-test of the benchmark.

Usage (from the root of a checkout): python3 perfbench/selftest.py

For every workload in ``ops.WORKLOADS``, including ``resample`` and
``pair-ci-wide``, which ``BENCHMARK.json`` does not gate, it runs one op
with small M and B, untraced and traced, and checks:
  - the last stdout line has exactly the keys correct/attempted/failed/metrics,
    and its metrics are the end-to-end (untraced) or per-layer (traced)
    names and units of BENCHMARK.json;
  - the run record holds all six end-to-end metrics, the provenance fields
    and the op-tail percentile with its op count;
  - every output check of the workload ran;
  - traced and untraced output digests match.
Finally it checks that the benchmark exits non-zero without a result when
the program's sources are absent.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import ops  # noqa: E402

SEED = 7
E2E = ("pairs_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb", "fail_ratio")
PROVENANCE = ("commit", "nproc", "python", "numpy", "scipy", "blas", "blas_threads", "seed", "ops", "load")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--ops", "1", "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(workload: str, spec: dict) -> list[str]:
    errors = []
    records = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = run(workload, trace)
        if res.returncode != 0:
            return [f"trace {trace}: exit code {res.returncode}: {res.stderr.strip()[-500:]}"]
        line = json.loads(res.stdout.strip().splitlines()[-1])
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"trace {trace}: result keys {sorted(line)}")
        if not (isinstance(line["attempted"], int) and line["attempted"] >= 1 and isinstance(line["failed"], int)):
            errors.append(f"trace {trace}: attempted/failed not whole numbers")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if got != want:
            errors.append(f"trace {trace}: metric names or units differ from BENCHMARK.json {section}")
        if not all(isinstance(v["value"], (int, float)) for v in line["metrics"].values()):
            errors.append(f"trace {trace}: non-numeric metric value")
        record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
        records[trace] = record
        missing = [c for c in ops.WORKLOADS[workload].checks if record["checks_run"].get(c, 0) < 1]
        if missing:
            errors.append(f"trace {trace}: output checks that did not run: {missing}")
        missing = [k for k in PROVENANCE if k not in record["provenance"]]
        if missing:
            errors.append(f"trace {trace}: provenance lacks {missing}")
        if not line["correct"]:
            print(f"  note: {workload} trace {trace} reported failures: {record['failures']}")
    e2e = records[0]["end_to_end"]
    if set(e2e) != set(E2E) or "op_tail_percentile" not in records[0] or "op_count" not in records[0]:
        errors.append(f"record end-to-end metrics {sorted(e2e)}")
    if records[1]["untraced_digest"] != records[1]["digest"]:
        errors.append("traced pass digest differs from the untraced pass of the same run")
    errors += compare.compare(records[0], records[1])
    return errors


def check_without_program() -> list[str]:
    """In a directory holding only BENCHMARK.json and perfbench/, fail fast."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        res = run("pair-ci", 0, cwd=bare)
    work.rmdir()
    if res.returncode == 0 or res.stdout.strip():
        return [f"bare directory: exit code {res.returncode}, stdout {res.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name in [*ops.WORKLOADS, "no-program"]:
        errors = check_without_program() if name == "no-program" else check_workload(name, spec)
        print(f"{'PASS' if not errors else 'FAIL'} {name}", flush=True)
        for e in errors:
            print(f"  {e}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
