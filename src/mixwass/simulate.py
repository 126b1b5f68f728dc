"""Synthetic data generation and experiment drivers.

Data are generated exactly as in the simulation protocol the package
reproduces: topics with i.i.d. Unif(0,1) entries normalized per column,
dense weights uniform on the simplex (Dirichlet(1,...,1)), sparse weights
with a uniformly chosen support and Unif(0,1) entries, and multinomial
documents.  The drivers regenerate the reference tables at desk scale:
coverage/length of confidence intervals at the null and the alternative,
normality of the debiased estimator, speed of convergence to the limit
law, and the debiased-MLE versus WLS comparison.

Every random quantity is drawn from a numpy PCG64 generator seeded by a
(seed, stream, index...) tuple, so replicates are independent of chunking
and worker count, and a report is a deterministic function of its config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam, check_choice, check_count, check_instance, check_real, check_seed, check_unit
from .estimators import CountVector, Method, _sigma_batch, sigma_hat, sigma_ls
from .inference import (
    _CHUNK,
    METHODS,
    LimitSampleSet,
    _by_row,
    _fit_pairs,
    _fit_rows,
    _limit_draws,
    _pair_estimates,
    confidence_interval,
    effective_root_n,
    ks_distance,
    ks_two_sample_pvalue,
    limit_sampler,
    theorem_delta,
)
from .transport import (
    _METRICS,
    DualPolytope,
    ProbVec,
    TopicMatrix,
    _as_topics,
    _values,
    cost_matrix,
    wasserstein_primal,
)

RNG_FAMILY = "numpy PCG64 via SeedSequence streams"

EST_MLE_DEBIASED = "mle_debiased"
EST_WLS = "wls"
ESTIMATORS = (EST_MLE_DEBIASED, EST_WLS)

# Stream ids for SeedSequence-derived generators.
_S_TOPICS, _S_WEIGHTS, _S_DOCS, _S_MC, _S_BOOT, _S_LAW, _S_NOISE = range(7)
# Each interval method's stream; a replicate's seed appends (outer, rep).
_METHOD_STREAMS = {"plugin": (_S_MC,), "deriv_bs": (_S_BOOT, 1), "m_of_n": (_S_BOOT, 2)}


@dataclass(frozen=True)
class SimConfig:
    """Settings of one simulation experiment."""

    K: int = 5
    p: int = 500
    N: int = 1000
    N_j: int | None = None
    tau: int = 0
    n_reps: int = 200
    n_outer: int = 10
    M: int = 1000
    B: int = 1000
    gamma: float = 0.5
    delta: float | str | None = 0.0
    metric: str = "tv"
    seed: int = 0
    design: str = "null"
    methods: tuple[str, ...] = ("plugin",)
    estimators: tuple[str, ...] = (EST_MLE_DEBIASED,)
    level: float = 0.05
    quick: bool = False
    workers: int = 1
    a_noise: float = 0.0

    def __post_init__(self):
        for name in ("p", "N", "n_reps", "n_outer", "M", "B", "workers"):
            check_count(getattr(self, name), name)
        if self.N_j is not None:
            check_count(self.N_j, "N_j")
        check_count(self.K, "K", 1, self.p)
        check_count(self.seed, "seed", 0, math.inf)  # the first word of every stream's entropy
        check_count(self.tau, "tau", 0, self.K)  # 0 is dense
        check_unit(self.gamma, "gamma")
        check_unit(self.level, "level")
        check_choice(self.design, "design", ("null", "alternative"))
        for name, names in (("methods", METHODS), ("estimators", ESTIMATORS)):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)) or not values:  # a bare string would be read by letter
                raise InvalidParam(f"{name} must be a non-empty tuple of names from {tuple(names)}, not {values!r}")
            for value in values:
                check_choice(value, name, names)
            if len(set(values)) < len(values):
                raise InvalidParam(f"{name} repeats a name: {values!r}")
        if not (self.delta is None or isinstance(self.delta, str) and self.delta == "rate"):
            check_real(self.delta, "delta")
        check_real(self.a_noise, "a_noise")
        check_choice(self.metric, "metric", _METRICS)

    def size_j(self) -> int:
        return self.N_j if self.N_j is not None else self.N

    def resolve_delta(self) -> float | None:
        if self.delta == "rate":
            return theorem_delta(min(self.N, self.size_j()), self.p)
        return self.delta

    def scaled(self) -> "SimConfig":
        """Desk-scale shrink when the quick flag is set."""
        if not self.quick:
            return self
        return dataclasses.replace(
            self,
            n_reps=min(self.n_reps, 100),
            M=min(self.M, 500),
            B=min(self.B, 500),
        )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["methods"] = list(self.methods)
        d["estimators"] = list(self.estimators)
        return d


@dataclass
class ExperimentReport:
    """Aggregated results of one driver run.

    Everything except ``wall_clock_s`` and ``created_utc`` is a
    deterministic function of the config; ``fingerprint`` hashes exactly
    that deterministic payload.  The ``workers`` knob only schedules the
    computation, so it is excluded from the fingerprint as well.
    """

    kind: str
    config: dict
    seed: int
    summary: dict
    records: list
    failures: int = 0
    invalid: bool = False
    rng_family: str = RNG_FAMILY
    wall_clock_s: float = 0.0
    created_utc: str = ""

    def payload(self) -> dict:
        config = {k: v for k, v in self.config.items() if k != "workers"}
        return {
            "kind": self.kind,
            "config": config,
            "seed": self.seed,
            "rng_family": self.rng_family,
            "summary": self.summary,
            "records": self.records,
            "failures": self.failures,
            "invalid": self.invalid,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(_jsonable(self.payload()), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_dict(self) -> dict:
        d = _jsonable(self.payload())
        d["wall_clock_s"] = self.wall_clock_s
        d["created_utc"] = self.created_utc
        d["fingerprint"] = self.fingerprint()
        return d


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


def _seed_int(*parts: int) -> int:
    """Collapse a stream address into a single 64-bit seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# Generators


def gen_topic_matrix(p: int, K: int, seed) -> TopicMatrix:
    """Topics with i.i.d. Unif(0,1) entries, each column normalized."""
    check_count(p, "p")
    check_count(K, "K", 1, p)
    M = check_seed(seed).uniform(size=(p, K))
    return TopicMatrix(M / M.sum(axis=0, keepdims=True))


def gen_weights(K: int, tau: int, seed) -> ProbVec:
    """Dense weights uniform on the simplex, or sparse with |supp| = tau."""
    check_count(K, "K")
    check_count(tau, "tau", 0, K)  # 0 is dense
    rng = check_seed(seed)
    if tau == 0:
        return ProbVec(rng.dirichlet(np.ones(K)))
    alpha = np.zeros(K)
    support = rng.choice(K, size=tau, replace=False)
    entries = rng.uniform(size=tau)
    alpha[support] = entries / entries.sum()
    return ProbVec(alpha)


def gen_document(r, N: int, seed) -> CountVector:
    """One multinomial document of N words from word distribution r, a
    ProbVec or non-negative weights with a positive sum, normalized here."""
    check_count(N, "N")
    rv = _values(r, "r")
    if rv.min() < 0 or not rv.sum() > 0:
        raise InvalidParam("r must have non-negative entries and a positive sum")
    return CountVector(check_seed(seed).multinomial(N, rv / rv.sum()))


def perturb_topics(A, noise: float, seed) -> TopicMatrix:
    """Multiplicative entrywise perturbation, columns renormalized.

    Exercises the estimated-topics code paths (cost, covariances) without
    implementing a topic estimator.
    """
    A = _as_topics(A, "A")
    check_real(noise, "noise")
    rng = check_seed(seed)
    if noise == 0:
        return A
    M = A.matrix * (1.0 + noise * (2.0 * rng.uniform(size=A.matrix.shape) - 1.0))
    M = np.clip(M, 1e-300, None)
    return TopicMatrix(M / M.sum(axis=0, keepdims=True))


# ---------------------------------------------------------------------------
# Shared driver machinery


def _pmap(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _chunks(n: int) -> list[np.ndarray]:
    return [np.arange(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]


def _setup(config: SimConfig):
    """Topics, estimation topics (possibly noisy), true cost, and the polytopes
    of the estimated and true costs (one object when ``a_noise`` is 0)."""
    A = gen_topic_matrix(config.p, config.K, [config.seed, _S_TOPICS])
    A_hat = perturb_topics(A, config.a_noise, [config.seed, _S_NOISE])
    cost_true = cost_matrix(A, config.metric)
    true_poly = DualPolytope(cost_true)
    poly = DualPolytope(cost_matrix(A_hat, config.metric)) if config.a_noise else true_poly
    poly.vertices()  # warm the cache before handing to workers
    return A, A_hat, cost_true, poly, true_poly


def _draw_pairs(config: SimConfig, outer: int, reps: np.ndarray, r_i, r_j, N_j: int):
    """Word counts (B, p) of each side of the replicates' document pairs.

    Replicate ``rep`` draws its i then its j document from its own stream
    (seed, docs, outer, rep), so a draw does not depend on the chunking.
    """
    counts = np.empty((2, reps.size, config.p), dtype=np.int64)
    for b, rep in enumerate(reps):
        rng = np.random.default_rng([config.seed, _S_DOCS, outer, int(rep)])
        counts[0, b] = rng.multinomial(config.N, r_i)
        counts[1, b] = rng.multinomial(N_j, r_j)
    return counts[0], counts[1]


def _finish(report: ExperimentReport, t0: float) -> ExperimentReport:
    report.wall_clock_s = time.time() - t0
    report.created_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return report


# ---------------------------------------------------------------------------
# Confidence-interval experiment (null and alternative designs)


def _ci_chunk_worker(payload) -> list[dict]:
    (config, A_hat, poly, outer, reps, r_i, r_j, true_W, facet_delta) = payload
    N_i, N_j = config.N, config.size_j()
    pairs, errors = _pair_estimates(*_draw_pairs(config, outer, reps, r_i, r_j, N_j), N_i, N_j, A_hat, poly)
    records = [
        {"outer": int(outer), "rep": int(rep), "true_W": float(true_W), "W_tilde": float(W), "methods": {}, "error": e}
        for rep, W, e in zip(reps, pairs.W, errors)
    ]
    settings = dict(M=config.M, B=config.B, gamma=config.gamma, delta=facet_delta)
    # One stage per method, in order; a replicate that a method fails skips the later ones.
    for name in config.methods:
        method = METHODS[name]
        live = [c for c, rec in enumerate(records) if rec["error"] is None]
        seeds = {c: _seed_int(config.seed, *_METHOD_STREAMS[name], outer, int(reps[c])) for c in live}

        def stage(rows):
            return method.sampler(pairs.take(rows), A_hat, poly, [seeds[c] for c in rows], settings)

        for c, samples in zip(live, _by_row(stage, live) if live else []):
            if isinstance(samples, str):
                records[c]["error"] = samples
            else:
                ci = confidence_interval(float(pairs.W[c]), samples, config.level, N_i, N_j)
                covered = bool(ci.lower <= true_W <= ci.upper)
                records[c]["methods"][name] = {"lower": ci.lower, "upper": ci.upper, "length": ci.width, "covered": covered}
    return records


def run_ci_experiment(config: SimConfig) -> ExperimentReport:
    """Coverage and length of distance confidence intervals.

    Null design: one dense mixture, pairs of documents from the same r.
    Alternative design: ``n_outer`` weight pairs, ``n_reps`` document pairs
    each; results are averaged over the outer pairs.  Topics are treated as
    known (optionally perturbed by ``a_noise``).  At the null the plug-in
    and derivative bootstrap sample the unrestricted polytope (the
    restriction set degenerates to the full polytope there); at the
    alternative both use the facet slab of width ``delta``.
    """
    t0 = time.time()
    config = check_instance(config, "config", SimConfig).scaled()
    facet_delta = None if config.design == "null" else config.resolve_delta()
    for name in config.methods:  # a size too small for the level is refused before any fit
        METHODS[name].settings(config.level, M=config.M, B=config.B, gamma=config.gamma, delta=facet_delta)
    A, A_hat, cost_true, poly, _ = _setup(config)

    if config.design == "null":
        r = A.matrix @ gen_weights(config.K, config.tau, [config.seed, _S_WEIGHTS]).values
        designs = [(r, r, 0.0)]
    else:
        designs = []
        for outer in range(config.n_outer):
            a_i, a_j = (gen_weights(config.K, config.tau, [config.seed, _S_WEIGHTS, outer, s]).values for s in (0, 1))
            designs.append((A.matrix @ a_i, A.matrix @ a_j, wasserstein_primal(a_i, a_j, cost_true)[0]))
    tasks = [
        (config, A_hat, poly, outer, reps, r_i, r_j, true_W, facet_delta)
        for outer, (r_i, r_j, true_W) in enumerate(designs)
        for reps in _chunks(config.n_reps)
    ]
    records = [rec for out in _pmap(_ci_chunk_worker, tasks, config.workers) for rec in out]
    ok = [r for r in records if r["error"] is None]
    failures = len(records) - len(ok)
    summary = {}
    for method in config.methods:
        lengths = np.array([r["methods"][method]["length"] for r in ok])
        covered = np.array([r["methods"][method]["covered"] for r in ok])
        summary[method] = {
            "coverage": float(covered.mean()) if ok else float("nan"),
            "mean_length": float(lengths.mean()) if ok else float("nan"),
            "se_length": float(lengths.std(ddof=1) / math.sqrt(len(ok))) if len(ok) > 1 else 0.0,
            "n": len(ok),
        }
    report = ExperimentReport(
        kind=f"ci-{config.design}",
        config=config.to_dict(),
        seed=config.seed,
        summary=summary,
        records=records,
        failures=failures,
        invalid=failures > 0.01 * max(len(records), 1),
    )
    return _finish(report, t0)


# ---------------------------------------------------------------------------
# Normality of the weight estimators


def run_normality_experiment(config: SimConfig) -> ExperimentReport:
    """Standardized weight-estimate draws and per-coordinate KS tests.

    Standardization uses the true per-coordinate asymptotic variance
    (available because A is known in simulation): for coordinate k the draw
    is sqrt(N / Sigma_kk)(alpha_k_est - alpha_k).  The debiased estimator is
    expected to pass normality on active coordinates; the simplex-restricted
    MLE at a zero coordinate is the documented negative control.
    """
    from scipy import stats as sstats  # only caller; keeps it out of `import mixwass`

    t0 = time.time()
    config = check_instance(config, "config", SimConfig).scaled()
    A, A_hat, _, _, _ = _setup(config)
    alpha = gen_weights(config.K, config.tau, [config.seed, _S_WEIGHTS]).values
    r = A.matrix @ alpha
    sigma = sigma_hat(alpha, A).sigma

    X = _draw_pairs(config, 0, np.arange(config.n_reps), r, r, config.N)[0] / config.N  # the i documents
    fits = _fit_rows(X, A_hat)

    draws = {"mle": fits.mle, "debiased": fits.est}
    sigmas = {"mle": sigma, "debiased": sigma}
    if EST_WLS in config.estimators:
        draws["wls"] = _fit_rows(X, A_hat, Method.WLS).est
        sigmas["wls"] = sigma_ls(alpha, r, A_hat).sigma

    records = []
    root_n = math.sqrt(config.N)
    for name, est in draws.items():
        sd = np.sqrt(np.clip(np.diag(sigmas[name]), 0.0, None))
        for k in range(config.K):
            if sd[k] <= 0:
                continue
            z = root_n * (est[:, k] - alpha[k]) / sd[k]
            stat, pval = sstats.kstest(z, "norm")
            records.append(
                {
                    "estimator": name,
                    "coord": k,
                    "active": bool(alpha[k] > 0),
                    "alpha_true": float(alpha[k]),
                    "ks_stat": float(stat),
                    "p_value": float(pval),
                    "draws": z.tolist(),
                }
            )
    summary = {
        "n_reps": config.n_reps,
        "ks": {
            name: {
                str(rec["coord"]): {"ks_stat": rec["ks_stat"], "p_value": rec["p_value"], "active": rec["active"]}
                for rec in records
                if rec["estimator"] == name
            }
            for name in draws
        },
    }
    report = ExperimentReport(
        kind="normality",
        config=config.to_dict(),
        seed=config.seed,
        summary=summary,
        records=records,
    )
    return _finish(report, t0)


# ---------------------------------------------------------------------------
# Speed of convergence to the limit law


def _conv_chunk_worker(payload) -> np.ndarray:
    """Debiased distances of the chunk's pairs; NaN where a pair failed."""
    (config, A_hat, poly, reps, r) = payload
    N = config.N
    return _pair_estimates(*_draw_pairs(config, 0, reps, r, r, N), N, N, A_hat, poly)[0].W


def run_convergence_experiment(config: SimConfig) -> ExperimentReport:
    """Two-sample KS between root-N distance draws and the simulated limit.

    Null case: both documents share one dense mixture.  The limit law is
    simulated with the true covariance and the true polytope; ``n_reps``
    distance draws are compared against ``M`` limit draws.
    """
    t0 = time.time()
    config = check_instance(config, "config", SimConfig).scaled()
    A, A_hat, _, poly, true_poly = _setup(config)
    alpha = gen_weights(config.K, config.tau, [config.seed, _S_WEIGHTS]).values
    r = A.matrix @ alpha

    tasks = [(config, A_hat, poly, reps, r) for reps in _chunks(config.n_reps)]
    W = np.concatenate(_pmap(_conv_chunk_worker, tasks, config.workers))
    failures = int(np.isnan(W).sum())
    stat_draws = effective_root_n(config.N, config.N) * W[~np.isnan(W)]

    limit_draws = limit_sampler(alpha, alpha, A, true_poly, delta=None, M=config.M, seed=[config.seed, _S_LAW]).samples

    d = ks_distance(stat_draws, limit_draws)
    pval = ks_two_sample_pvalue(stat_draws, limit_draws)
    summary = {
        "ks_distance": d,
        "ks_pvalue": pval,
        "n_stat": int(stat_draws.size),
        "n_limit": int(limit_draws.size),
    }
    report = ExperimentReport(
        kind="ks-convergence",
        config=config.to_dict(),
        seed=config.seed,
        summary=summary,
        records=[{"stat_draws": stat_draws.tolist(), "limit_draws": limit_draws.tolist()}],
        failures=failures,
        invalid=failures > 0.01 * config.n_reps,
    )
    return _finish(report, t0)


# ---------------------------------------------------------------------------
# Debiased MLE vs weighted least squares


def _mle_ls_chunk_worker(payload) -> list[dict]:
    (config, A_hat, poly, outer, reps, r, quantiles) = payload
    N = config.N
    pairs, errors = _pair_estimates(*_draw_pairs(config, outer, reps, r, r, N), N, N, A_hat, poly)
    W_ls = _fit_pairs(pairs.X_i, pairs.X_j, N, N, A_hat, poly, Method.WLS).W
    root_n = math.sqrt(N)
    out = []
    for c, rep in enumerate(reps):
        rec = {"outer": int(outer), "rep": int(rep)}
        if errors[c] is not None:
            # The pair is compared on both estimators or on neither.
            rec["error"] = errors[c]
            out.append(rec)
            continue
        for name, w in (("mle_debiased", pairs.W[c]), ("wls", W_ls[c])):
            q_lo, q_hi = quantiles[name]
            rec[name] = {
                "W": float(w),
                "covered": bool(w - q_hi / root_n <= 0.0 <= w - q_lo / root_n),
                "length": float((q_hi - q_lo) / root_n),
            }
        out.append(rec)
    return out


def run_mle_vs_wls_experiment(config: SimConfig) -> ExperimentReport:
    """Paired CI comparison of the debiased MLE and WLS distance estimates.

    Null design, limit laws treated as known (true covariances, true
    polytope); quantiles come from ``M`` common-random-number draws per
    law so the paired length difference is estimated with low noise.
    """
    t0 = time.time()
    config = check_instance(config, "config", SimConfig).scaled()
    A, A_hat, _, poly, true_poly = _setup(config)
    tasks, per_outer = [], []
    root_n = math.sqrt(config.N)
    for outer in range(config.n_outer):
        alpha = gen_weights(config.K, config.tau, [config.seed, _S_WEIGHTS, outer]).values
        r = A.matrix @ alpha
        # Both laws draw the same normals from the outer pair's seed.
        sig = np.stack([_sigma_batch(alpha[None, :], A)[0], sigma_ls(alpha, r, A).sigma])
        law_seed = [config.seed, _S_LAW, outer]
        draws = _limit_draws(sig, sig, [true_poly] * 2, [law_seed] * 2, config.M)
        quantiles = {}
        for name, d in zip(("mle_debiased", "wls"), draws):
            samp = LimitSampleSet(d, delta=None, seed=config.seed, zero_feasible=True)
            quantiles[name] = (samp.quantile(config.level / 2), samp.quantile(1 - config.level / 2))
        length = {name: (q_hi - q_lo) / root_n for name, (q_lo, q_hi) in quantiles.items()}
        per_outer.append({"outer": outer, "length_mle": length["mle_debiased"], "length_wls": length["wls"]})
        tasks += [(config, A_hat, poly, outer, reps, r, quantiles) for reps in _chunks(config.n_reps)]

    records = [rec for out in _pmap(_mle_ls_chunk_worker, tasks, config.workers) for rec in out]
    ok = [r for r in records if "error" not in r]
    diffs = np.array([o["length_wls"] - o["length_mle"] for o in per_outer])
    summary = {}
    for name in ("mle_debiased", "wls"):
        covered = np.array([r[name]["covered"] for r in ok])
        lengths = np.array([r[name]["length"] for r in ok])
        summary[name] = {
            "coverage": float(covered.mean()) if ok else float("nan"),
            "mean_length": float(lengths.mean()) if ok else float("nan"),
            "n": len(ok),
        }
    summary["paired_length_diff"] = {
        "mean": float(diffs.mean()),
        "se": float(diffs.std(ddof=1) / math.sqrt(diffs.size)) if diffs.size > 1 else 0.0,
        "per_outer": per_outer,
    }
    report = ExperimentReport(
        kind="mle-vs-wls",
        config=config.to_dict(),
        seed=config.seed,
        summary=summary,
        records=records,
        failures=len(records) - len(ok),
        invalid=len(records) - len(ok) > 0.01 * len(records),
    )
    return _finish(report, t0)
