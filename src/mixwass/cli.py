"""Command-line interface.

Commands: ``estimate``, ``distance``, ``ci``, ``simulate-table`` (with the
experiment kinds ``null-ci``, ``alt-ci``, ``mle-vs-wls``, ``ks-convergence``,
``normality``) and ``selftest``.  Flags override values from an optional
JSON/TOML config file.  Exit codes: 0 success, 1 usage, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, build_hash
from .errors import InvalidParam, MixwassError, NumericalError, ParseError, ValidationError
from .estimators import debias, mle_weights, sigma_hat, sigma_ls, wls_weights
from .inference import (
    confidence_interval,
    derivative_bootstrap,
    distance_estimate,
    limit_sampler,
    m_out_of_n_bootstrap,
    theorem_delta,
)
from .io import RunManifest, load_counts, load_topics, save_limit_samples, save_report
from .simulate import (
    SimConfig,
    run_ci_experiment,
    run_convergence_experiment,
    run_mle_vs_wls_experiment,
    run_normality_experiment,
)
from .transport import DualPolytope, cost_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise InvalidParam(f"config file {path} does not exist")
    if p.suffix.lower() == ".toml":
        import tomllib

        loads, malformed = tomllib.loads, tomllib.TOMLDecodeError
    else:
        loads, malformed = json.loads, json.JSONDecodeError
    try:
        return loads(p.read_text())
    except malformed as exc:
        raise ParseError(f"config file {path}: {exc}") from None


def _resolve(args, key: str, file_cfg: dict, default):
    """Flag value if given, else config-file value, else the default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in file_cfg:
        return file_cfg[key]
    return default


def _seed_or_random(value) -> int:
    if value is not None:
        return int(value)
    return int(np.random.SeedSequence().generate_state(1, dtype=np.uint64)[0])


def _parse_delta(text):
    if text is None or text == "none":
        return None if text == "none" else 0.0
    if text == "rate":
        return "rate"
    return float(text)


def _load_inputs(args, cfg):
    """Topics and documents of ``estimate``, ``distance`` and ``ci``.

    The topics are read first and fix p: every counts file is read against
    it.  Returns (A, documents, topics path, counts paths).
    """
    topics_path = _resolve(args, "topics", cfg, None)
    spec = _resolve(args, "counts", cfg, None)
    if not topics_path or not spec:
        raise InvalidParam("--counts and --topics are required")
    A = load_topics(topics_path)
    paths = [s for s in str(spec).split(",") if s]
    docs = []
    for path in paths:
        loaded = load_counts(path, p=A.p)
        if not loaded:
            raise InvalidParam(f"{path} contains no documents")
        docs.extend(loaded)
    return A, docs, topics_path, paths


def _pair_inputs(args, cfg):
    """Topics, document pair, metric and polytope of ``distance`` and ``ci``.

    Returns (A, doc_i, doc_j, metric, poly, input files for the manifest).
    """
    A, docs, topics_path, paths = _load_inputs(args, cfg)
    doc_i = int(_resolve(args, "doc_i", cfg, 0))
    doc_j = int(_resolve(args, "doc_j", cfg, 1 if len(docs) > 1 else 0))
    if not (0 <= doc_i < len(docs) and 0 <= doc_j < len(docs)):
        raise InvalidParam(f"document indices {doc_i},{doc_j} out of range (have {len(docs)})")
    metric = _resolve(args, "metric", cfg, "tv")
    inputs = {"topics": topics_path, **{p: p for p in paths}}
    return A, docs[doc_i], docs[doc_j], metric, DualPolytope(cost_matrix(A, metric)), inputs


def _estimate(doc, A, method: str, with_cov: bool = False):
    """Fit one document by ``method`` (mle, debias or wls).

    Returns (MLE, estimate, covariance): the MLE is None for wls, and the
    plug-in covariance of the estimate is computed only with ``with_cov``
    (None for mle).
    """
    X = doc.frequencies
    if method == "wls":
        est = wls_weights(X, A)
        return None, est, sigma_ls(est, X, A) if with_cov else None
    mle = mle_weights(X, A)
    if method == "mle":
        return mle, mle, None
    return mle, debias(mle, X, A), sigma_hat(mle, A) if with_cov else None


def _workers_default() -> int:
    env = os.environ.get("MIXWASS_THREADS")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def build_parser() -> _Parser:
    parser = _Parser(prog="mixwass", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mixwass {__version__} ({build_hash()})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON or TOML config file; flags override it")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", help="output JSON report path")

    sp = sub.add_parser("estimate", help="estimate mixture weights for documents")
    add_common(sp)
    sp.add_argument("--counts", help="counts CSV (long or dense form)")
    sp.add_argument("--topics", help="topics CSV (p rows x K columns)")
    sp.add_argument("--method", choices=["mle", "debias", "wls"])

    sp = sub.add_parser("distance", help="distance estimate between two documents")
    add_common(sp)
    sp.add_argument("--counts", help="one or two counts CSVs, comma separated")
    sp.add_argument("--topics")
    sp.add_argument("--doc-i", dest="doc_i", type=int)
    sp.add_argument("--doc-j", dest="doc_j", type=int)
    sp.add_argument("--metric", choices=["tv", "l2"])
    sp.add_argument("--estimator", choices=["debias", "mle", "wls"])

    sp = sub.add_parser("ci", help="confidence interval for the distance")
    add_common(sp)
    sp.add_argument("--counts")
    sp.add_argument("--topics")
    sp.add_argument("--doc-i", dest="doc_i", type=int)
    sp.add_argument("--doc-j", dest="doc_j", type=int)
    sp.add_argument("--metric", choices=["tv", "l2"])
    sp.add_argument("--level", type=float)
    sp.add_argument("--method", choices=["plugin", "deriv-bs", "m-of-n"])
    sp.add_argument("--M", type=int)
    sp.add_argument("--B", type=int)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--delta", help="slab width: a float, 'none', or 'rate'")
    sp.add_argument("--samples-out", dest="samples_out", help="CSV dump of the limit samples")

    sp = sub.add_parser("simulate-table", help="regenerate a simulation table")
    sp.add_argument(
        "kind",
        choices=["null-ci", "alt-ci", "mle-vs-wls", "ks-convergence", "normality"],
    )
    add_common(sp)
    for flag, typ in [
        ("--K", int),
        ("--p", int),
        ("--N", int),
        ("--Nj", int),
        ("--tau", int),
        ("--reps", int),
        ("--outer", int),
        ("--M", int),
        ("--B", int),
        ("--gamma", float),
        ("--level", float),
        ("--workers", int),
        ("--a-noise", float),
    ]:
        sp.add_argument(flag, type=typ, dest=flag.lstrip("-").replace("-", "_"))
    sp.add_argument("--delta", help="slab width: a float, 'none', or 'rate'")
    sp.add_argument("--metric", choices=["tv", "l2"])
    sp.add_argument("--methods", help="comma list from plugin,deriv_bs,m_of_n")
    sp.add_argument("--quick", action="store_true", default=None)

    sp = sub.add_parser("selftest", help="run the property suites")
    sp.add_argument("--quick", action="store_true", default=None)

    return parser


_TABLE_DEFAULTS = {
    "null-ci": dict(K=5, p=500, N=1000, tau=0, n_reps=200, M=1000, B=1000, design="null", methods=("plugin",)),
    "alt-ci": dict(K=5, p=500, N=1000, tau=0, n_reps=200, n_outer=10, M=500, B=500, design="alternative", methods=("plugin", "deriv_bs", "m_of_n")),
    "mle-vs-wls": dict(K=5, p=500, N=500, tau=0, n_reps=200, n_outer=10, M=10000),
    "ks-convergence": dict(K=10, p=300, N=1000, tau=0, n_reps=2000, M=2000),
    "normality": dict(K=5, p=1000, N=500, tau=3, n_reps=500, estimators=("mle_debiased", "wls")),
}

_TABLE_RUNNERS = {
    "null-ci": run_ci_experiment,
    "alt-ci": run_ci_experiment,
    "mle-vs-wls": run_mle_vs_wls_experiment,
    "ks-convergence": run_convergence_experiment,
    "normality": run_normality_experiment,
}


def _cmd_estimate(args) -> int:
    cfg = _load_config_file(args.config)
    A, docs, topics_path, paths = _load_inputs(args, cfg)
    method = _resolve(args, "method", cfg, "debias")
    seed = _seed_or_random(_resolve(args, "seed", cfg, 0))
    results = []
    for idx, doc in enumerate(docs):
        _, est, cov = _estimate(doc, A, method, with_cov=True)
        results.append(
            {
                "doc": idx,
                "N": doc.N,
                "alpha": est.alpha.tolist(),
                "method": est.method.value,
                "iterations": est.iterations,
                "converged": est.converged,
                "sigma": cov.sigma.tolist() if cov else None,
            }
        )
    report = {"command": "estimate", "method": method, "estimates": results, "seed": seed}
    inputs = {"topics": topics_path, **{("counts" if len(paths) == 1 else p): p for p in paths}}
    manifest = RunManifest.create("estimate", {"method": method}, seed, inputs)
    _emit(report, manifest, _resolve(args, "out", cfg, None))
    return EXIT_OK


def _cmd_distance(args) -> int:
    cfg = _load_config_file(args.config)
    A, doc_i, doc_j, metric, poly, inputs = _pair_inputs(args, cfg)
    estimator = _resolve(args, "estimator", cfg, "debias")
    seed = _seed_or_random(_resolve(args, "seed", cfg, 0))
    _, est_i, _ = _estimate(doc_i, A, estimator)
    _, est_j, _ = _estimate(doc_j, A, estimator)
    w = distance_estimate(est_i, est_j, poly)
    report = {
        "command": "distance",
        "metric": metric,
        "estimator": estimator,
        "W_tilde": w,
        "N_i": doc_i.N,
        "N_j": doc_j.N,
        "alpha_i": est_i.alpha.tolist(),
        "alpha_j": est_j.alpha.tolist(),
        "seed": seed,
    }
    manifest = RunManifest.create("distance", {"metric": metric, "estimator": estimator}, seed, inputs)
    _emit(report, manifest, _resolve(args, "out", cfg, None))
    return EXIT_OK


def _cmd_ci(args) -> int:
    cfg = _load_config_file(args.config)
    A, doc_i, doc_j, metric, poly, inputs = _pair_inputs(args, cfg)
    level = float(_resolve(args, "level", cfg, 0.05))
    method = _resolve(args, "method", cfg, "plugin")
    M = int(_resolve(args, "M", cfg, 1000))
    B = int(_resolve(args, "B", cfg, 1000))
    gamma = float(_resolve(args, "gamma", cfg, 0.5))
    delta = _parse_delta(_resolve(args, "delta", cfg, None))
    seed = _seed_or_random(_resolve(args, "seed", cfg, None))

    if delta == "rate":
        delta = theorem_delta(min(doc_i.N, doc_j.N), A.p)
    if method == "plugin":
        ah_i, at_i, _ = _estimate(doc_i, A, "debias")
        ah_j, at_j, _ = _estimate(doc_j, A, "debias")
        samples = limit_sampler(ah_i, ah_j, A, poly, delta=delta, M=M, seed=seed)
        W = distance_estimate(at_i, at_j, poly)
    else:
        # Both bootstraps fit the pair themselves and report the estimate.
        if method == "deriv-bs":
            samples = derivative_bootstrap(doc_i, doc_j, A, poly, delta=delta, B=B, seed=seed)
        else:
            samples = m_out_of_n_bootstrap(doc_i, doc_j, A, poly, gamma=gamma, B=B, seed=seed)
        W = samples.meta["W_tilde"]
    ci = confidence_interval(W, samples, level, doc_i.N, doc_j.N)
    samples_out = _resolve(args, "samples_out", cfg, None)
    if samples_out:
        save_limit_samples(samples, samples_out)
    report = {
        "command": "ci",
        "method": method,
        "metric": metric,
        "level": level,
        "point": ci.point,
        "lower": ci.lower,
        "upper": ci.upper,
        "scale": ci.scale,
        "N_i": doc_i.N,
        "N_j": doc_j.N,
        "M": samples.M,
        "delta": samples.delta,
        "seed": seed,
        "samples_path": str(samples_out) if samples_out else None,
    }
    manifest = RunManifest.create(
        "ci",
        {"method": method, "metric": metric, "level": level, "M": M, "B": B, "gamma": gamma, "delta": str(delta)},
        seed,
        inputs,
    )
    _emit(report, manifest, _resolve(args, "out", cfg, None))
    return EXIT_OK


def _cmd_simulate_table(args) -> int:
    cfg = _load_config_file(args.config)
    base = dict(_TABLE_DEFAULTS[args.kind])
    overrides = {
        "K": args.K,
        "p": args.p,
        "N": args.N,
        "N_j": args.Nj,
        "tau": args.tau,
        "n_reps": args.reps,
        "n_outer": args.outer,
        "M": args.M,
        "B": args.B,
        "gamma": args.gamma,
        "level": args.level,
        "workers": args.workers,
        "a_noise": args.a_noise,
        "metric": args.metric,
    }
    for key, val in overrides.items():
        if val is not None:
            base[key] = val
        elif key in cfg:
            base[key] = cfg[key]
    if args.methods:
        base["methods"] = tuple(args.methods.split(","))
    if args.delta is not None or "delta" in cfg:
        base["delta"] = _parse_delta(args.delta if args.delta is not None else cfg["delta"])
    base["seed"] = _seed_or_random(_resolve(args, "seed", cfg, None))
    base["quick"] = bool(args.quick or cfg.get("quick", False))
    if "workers" not in base or not base.get("workers"):
        base["workers"] = _workers_default()
    config = SimConfig(**base)
    report = _TABLE_RUNNERS[args.kind](config)
    manifest = RunManifest.create(f"simulate-table {args.kind}", config.to_dict(), config.seed)
    out = _resolve(args, "out", cfg, None)
    _emit(report, manifest, out)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selfcheck import run_selftest

    t0 = time.time()
    results = run_selftest(quick=bool(args.quick))
    n_fail = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail}")
        n_fail += 0 if ok else 1
    print(f"{len(results) - n_fail}/{len(results)} properties passed ({time.time() - t0:.1f}s)")
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


def _emit(report: dict, manifest: RunManifest, out: str | None) -> None:
    if out:
        save_report(report, out, manifest)
        print(f"report written to {out}")
    else:
        doc = {"manifest": dataclasses.asdict(manifest), "report": report}
        print(json.dumps(doc, indent=2, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "distance":
            return _cmd_distance(args)
        if args.command == "ci":
            return _cmd_ci(args)
        if args.command == "simulate-table":
            return _cmd_simulate_table(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        parser.error(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MixwassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
