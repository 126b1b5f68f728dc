"""Command-line interface.

Commands: ``estimate``, ``distance``, ``ci``, ``simulate-table`` (with the
experiment kinds ``null-ci``, ``alt-ci``, ``mle-vs-wls``, ``ks-convergence``,
``normality``) and ``selftest``.

Each option is declared once, in ``build_parser``, with its type, choices
and default, and every source of a value goes through that declaration.
A flag overrides the JSON/TOML ``--config`` file, whose keys are the
options' dest names (the ``SimConfig`` field names for ``simulate-table``),
and the file overrides ``MIXWASS_THREADS``, the lowest-precedence source of
``workers``.  A ``null`` in the file means "not set"; an unknown key or an
ill-typed value is a validation error naming the file and the key.  Range
checks belong to the library calls.  Exit codes: 0 success, 1 usage, 2
validation error, 3 numerical failure.
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
from .errors import InvalidParam, MixwassError, NumericalError, ParseError, ValidationError, check_seed
from .estimators import Method, _covariances
from .inference import _CHUNK, METHODS, _fit_pairs, _fit_rows, confidence_interval, theorem_delta
from .io import RunManifest, load_counts, load_topics, report_json, save_limit_samples, save_report
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


def comma_list(text: str) -> tuple[str, ...]:
    """The non-empty items of a comma-separated list; there must be one."""
    items = tuple(s for s in text.split(",") if s)
    if not items:
        raise ValueError(text)
    return items


def slab_width(text: str) -> float | str | None:
    """A ``--delta`` value: a float, 'none' (the unrestricted polytope) or 'rate'."""
    if text == "none":
        return None
    return "rate" if text == "rate" else float(text)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    if Path(path).suffix.lower() == ".toml":
        import tomllib

        loads = tomllib.loads
    else:
        loads = json.loads
    try:
        table = loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"config file {path}: {exc}") from None
    if not isinstance(table, dict):
        raise ParseError(f"config file {path}: expected a table of option values, not {type(table).__name__}")
    return table


def _typed(action: argparse.Action, value, where: str):
    """A config-file or environment ``value`` through its option's type and choices.

    A switch takes a boolean, an option without a type a string, and a typed
    option a string or a number, which it reads as its flag would.  Only a
    ``comma_list`` option takes an array, of strings.  ``where`` names the
    source in the error.
    """
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise InvalidParam(f"{where}: expected true or false, not {value!r}")
    if action.type is comma_list and isinstance(value, list) and all(isinstance(v, str) for v in value):
        value = ",".join(value)
    if isinstance(value, bool) or not isinstance(value, (str, int, float) if action.type else str):
        raise InvalidParam(f"{where}: expected {'a string or a number' if action.type else 'a string'}, not {value!r}")
    try:
        value = action.type(str(value)) if action.type else value
    except ValueError:
        raise InvalidParam(f"{where}: invalid {action.type.__name__} value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise InvalidParam(f"{where}: {value!r} is not one of {', '.join(action.choices)}")
    return value


def _settings(command: argparse.ArgumentParser, argv: list[str], config: str | None) -> argparse.Namespace:
    """A command's options from ``argv`` over the lower-precedence sources.

    Each option takes its flag, else its key in the ``config`` file, else
    (for ``workers``) ``MIXWASS_THREADS``, else its declared default.
    """
    options = {a.dest: a for a in command._actions if a.option_strings and a.dest not in ("help", "config")}
    given = {}
    threads = os.environ.get("MIXWASS_THREADS")
    if threads and "workers" in options:
        given["workers"] = _typed(options["workers"], threads, "MIXWASS_THREADS")
    for key, value in _load_config_file(config).items():
        if key not in options:
            raise InvalidParam(f"config file {config}: unknown key {key!r} (keys: {', '.join(sorted(options))})")
        if value is not None:
            given[key] = _typed(options[key], value, f"config file {config}: key {key!r}")
    # argparse sets a default only where the namespace holds no value yet.
    return command.parse_args(argv, namespace=argparse.Namespace(**given))


def _random_seed() -> int:
    return int(np.random.SeedSequence().generate_state(1, dtype=np.uint64)[0])


def _load_inputs(args):
    """Topics and documents of ``estimate``, ``distance`` and ``ci``.

    The topics are read first and fix p: every counts file is read against
    it.  Returns (A, documents).
    """
    if not args.counts or not args.topics:
        raise InvalidParam("--counts and --topics are required")
    A = load_topics(args.topics)
    docs = []
    for path in args.counts:
        loaded = load_counts(path, p=A.p)
        if not loaded:
            raise InvalidParam(f"{path} contains no documents")
        docs.extend(loaded)
    return A, docs


def _pair_inputs(args):
    """Topics, document pair and polytope of ``distance`` and ``ci``.

    Returns (A, doc_i, doc_j, poly, input files for the manifest).
    """
    A, docs = _load_inputs(args)
    doc_i = args.doc_i
    doc_j = args.doc_j if args.doc_j is not None else (1 if len(docs) > 1 else 0)
    if not (0 <= doc_i < len(docs) and 0 <= doc_j < len(docs)):
        raise InvalidParam(f"document indices {doc_i},{doc_j} out of range (have {len(docs)})")
    inputs = {"topics": args.topics, **{p: p for p in args.counts}}
    return A, docs[doc_i], docs[doc_j], DualPolytope(cost_matrix(A, args.metric)), inputs


def _certificates(pairs) -> dict:
    """Whether each document's MLE in a one-pair ``FittedPairs`` is certified, i then j; null for wls, which fits none."""
    values = {"converged": pairs.converged, "kkt_gap": pairs.kkt_gap}
    return {f"{k}_{side}": None if pairs.kkt_gap is None else v[0, c].item() for k, v in values.items() for c, side in enumerate("ij")}


# The CLI's spelling of each estimator.
_ESTIMATORS = {"mle": Method.MLE, "debias": Method.DEBIASED, "wls": Method.WLS}
# The CLI's spelling of each interval method.
_CI_METHODS = {name.replace("_", "-"): name for name in METHODS}

# Each kind's runner and the settings in which it differs from SimConfig's defaults.
_TABLES = {
    "null-ci": (run_ci_experiment, {}),
    "alt-ci": (run_ci_experiment, dict(M=500, B=500, design="alternative", methods=("plugin", "deriv_bs", "m_of_n"))),
    "mle-vs-wls": (run_mle_vs_wls_experiment, dict(N=500, M=10000)),
    "ks-convergence": (run_convergence_experiment, dict(K=10, p=300, n_reps=2000, M=2000)),
    "normality": (run_normality_experiment, dict(p=1000, N=500, tau=3, n_reps=500, estimators=("mle_debiased", "wls"))),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="mixwass", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mixwass {__version__} ({build_hash()})")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    # The options of more than one command; a dest is a config-file key.
    shared = {
        "--config": dict(help="JSON or TOML file of option values keyed by dest; flags override it"),
        "--seed": dict(type=int),
        "--out": dict(help="output JSON report path"),
        "--counts": dict(type=comma_list, help="counts CSVs (long or dense form), comma separated"),
        "--topics": dict(help="topics CSV (p rows x K columns)"),
        "--doc-i": dict(dest="doc_i", type=int),
        "--doc-j": dict(dest="doc_j", type=int, help="default: 1 with two or more documents, else 0"),
        "--metric": dict(choices=["tv", "l2"]),
        "--level": dict(type=float),
        "--M": dict(type=int),
        "--B": dict(type=int),
        "--gamma": dict(type=float),
        "--delta": dict(type=slab_width, help="slab width: a float, 'none', or 'rate'"),
        "--quick": dict(action="store_true"),
    }

    def command(name, run, help, flags, argument_default=None, **defaults):
        sp = sub.add_parser(name, help=help, argument_default=argument_default)
        for flag in flags:
            sp.add_argument(flag, **shared[flag])
        sp.set_defaults(run=run, **defaults)
        return sp

    inputs = ["--config", "--seed", "--out", "--counts", "--topics"]
    pair = [*inputs, "--doc-i", "--doc-j", "--metric"]
    limit = ["--level", "--M", "--B", "--gamma", "--delta"]

    sp = command("estimate", _cmd_estimate, "estimate mixture weights for documents", inputs, seed=0, method="debias")
    sp.add_argument("--method", choices=["mle", "debias", "wls"])

    sp = command("distance", _cmd_distance, "distance estimate between two documents", pair, seed=0, doc_i=0, metric="tv", estimator="debias")
    sp.add_argument("--estimator", choices=["debias", "mle", "wls"])

    sp = command("ci", _cmd_ci, "confidence interval for the distance", [*pair, *limit], doc_i=0, metric="tv", method="plugin")
    sp.set_defaults(level=0.05, M=1000, B=1000, gamma=0.5, delta=0.0)
    sp.add_argument("--method", choices=list(_CI_METHODS))
    sp.add_argument("--samples-out", dest="samples_out", help="CSV dump of the limit samples")

    # A setting left unset stays out of the namespace: the kind's defaults fill it.
    flags = ["--config", "--seed", "--out", "--metric", *limit, "--quick"]
    sp = command("simulate-table", _cmd_simulate_table, "regenerate a simulation table", flags, argument_default=argparse.SUPPRESS, config=None, out=None)
    sp.add_argument("kind", choices=_TABLES)
    for flag, dest, typ in [
        ("--K", "K", int),
        ("--p", "p", int),
        ("--N", "N", int),
        ("--Nj", "N_j", int),
        ("--tau", "tau", int),
        ("--reps", "n_reps", int),
        ("--outer", "n_outer", int),
        ("--workers", "workers", int),
        ("--a-noise", "a_noise", float),
    ]:
        sp.add_argument(flag, dest=dest, type=typ)
    sp.add_argument("--methods", type=comma_list, help="comma list from plugin,deriv_bs,m_of_n")

    command("selftest", _cmd_selftest, "run the property suites", ["--quick"])
    return parser


def _cmd_estimate(args) -> int:
    A, docs = _load_inputs(args)
    results = []
    # The file is fitted a batch at a time, so only a batch's frequencies are held.
    for s in range(0, len(docs), _CHUNK):
        X = np.stack([doc.frequencies for doc in docs[s : s + _CHUNK]])
        fits = _fit_rows(X, A, _ESTIMATORS[args.method])
        sigma = _covariances(fits, X, A)
        for b in range(len(X)):
            est = fits.estimate(b)  # alpha, method, iterations, converged and kkt_gap
            fields = {**dataclasses.asdict(est), "alpha": est.alpha.tolist(), "method": est.method.value}
            results.append({"doc": s + b, "N": docs[s + b].N, **fields, "sigma": sigma[b].tolist() if sigma is not None else None})
    report = {"command": "estimate", "method": args.method, "estimates": results, "seed": args.seed}
    inputs = {"topics": args.topics, **{("counts" if len(args.counts) == 1 else p): p for p in args.counts}}
    manifest = RunManifest.create("estimate", {"method": args.method}, args.seed, inputs)
    _emit(report, manifest, args.out)
    return EXIT_OK


def _cmd_distance(args) -> int:
    A, doc_i, doc_j, poly, inputs = _pair_inputs(args)
    pairs = _fit_pairs(doc_i.frequencies[None, :], doc_j.frequencies[None, :], doc_i.N, doc_j.N, A, poly, _ESTIMATORS[args.estimator])
    report = {
        "command": "distance",
        "metric": args.metric,
        "estimator": args.estimator,
        "W_tilde": float(pairs.W[0]),
        "N_i": doc_i.N,
        "N_j": doc_j.N,
        "alpha_i": pairs.est_i[0].tolist(),
        "alpha_j": pairs.est_j[0].tolist(),
        "seed": args.seed,
        **_certificates(pairs),
    }
    manifest = RunManifest.create("distance", {"metric": args.metric, "estimator": args.estimator}, args.seed, inputs)
    _emit(report, manifest, args.out)
    return EXIT_OK


def _cmd_ci(args) -> int:
    A, doc_i, doc_j, poly, inputs = _pair_inputs(args)
    seed = args.seed if args.seed is not None else _random_seed()
    check_seed(seed)
    delta = theorem_delta(min(doc_i.N, doc_j.N), A.p) if args.delta == "rate" else args.delta
    method = METHODS[_CI_METHODS[args.method]]
    settings = method.settings(args.level, M=args.M, B=args.B, gamma=args.gamma, delta=delta)
    # Every method's interval is centred on this fit's debiased distance.
    pairs = _fit_pairs(doc_i.frequencies[None, :], doc_j.frequencies[None, :], doc_i.N, doc_j.N, A, poly)
    samples = method.sampler(pairs, A, poly, [seed], settings)[0]
    ci = confidence_interval(float(pairs.W[0]), samples, args.level, doc_i.N, doc_j.N)
    if args.samples_out:
        save_limit_samples(samples, args.samples_out)
    report = {
        "command": "ci",
        "method": args.method,
        "metric": args.metric,
        "level": args.level,
        "point": ci.point,
        "lower": ci.lower,
        "upper": ci.upper,
        "scale": ci.scale,
        "N_i": doc_i.N,
        "N_j": doc_j.N,
        "M": samples.M,
        "delta": samples.delta,
        "seed": seed,
        "samples_path": args.samples_out or None,
        **_certificates(pairs),
    }
    # The manifest hashes only the settings that the chosen method reads.
    manifest = RunManifest.create("ci", {**{k: getattr(args, k) for k in ("method", "metric", "level")}, **settings}, seed, inputs)
    _emit(report, manifest, args.out)
    return EXIT_OK


def _cmd_simulate_table(args) -> int:
    runner, defaults = _TABLES[args.kind]
    fields = {f.name for f in dataclasses.fields(SimConfig)}
    given = {k: v for k, v in vars(args).items() if k in fields}
    given.setdefault("seed", _random_seed())
    config = SimConfig(**{**defaults, **given})
    report = runner(config)
    manifest = RunManifest.create(f"simulate-table {args.kind}", config.to_dict(), config.seed)
    _emit(report, manifest, args.out)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selfcheck import run_selftest

    t0 = time.time()
    results = run_selftest(quick=args.quick)
    n_fail = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail}")
        n_fail += 0 if ok else 1
    print(f"{len(results) - n_fail}/{len(results)} properties passed ({time.time() - t0:.1f}s)")
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


def _emit(report, manifest: RunManifest, out: str | None) -> None:
    if out:
        save_report(report, out, manifest)
        print(f"report written to {out}")
    else:
        print(report_json(report, manifest), end="")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        command = parser.commands[args.command]
        return args.run(_settings(command, argv[argv.index(args.command) + 1 :], getattr(args, "config", None)))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MixwassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
