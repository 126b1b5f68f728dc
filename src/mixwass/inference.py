"""Distance estimation and fully data-driven inference.

The distance estimate is the support function of the estimated dual
polytope at the difference of debiased weight estimates.  Its limiting
distribution sup_{f} f^T Z (Z Gaussian with the summed plug-in
covariances, f ranging over a data-driven restriction of the polytope) is
estimated by Monte Carlo; quantiles of the sample set yield confidence
intervals.  Two bootstrap baselines (m-out-of-N and derivative-based) are
provided for comparison.

A batch is a C-order stack of rows, the layout ``support_batch`` reads.
Documents are fitted in one place, ``_fit_rows``, in runs of ``_CHUNK``
rows, and pairs in one place, ``_fit_pairs``: B pairs (observed, or a
bootstrap replicate's resamples) as 2B rows, the i sides first, give
``FittedPairs``, the estimates by any method and their distances.  Each
interval method is written once, for a batch of observed pairs, which it
never refits, in the ``METHODS`` table with the settings it reads:
``plugin`` (M, delta) samples the plug-in limit law, ``deriv_bs`` (B,
delta) and ``m_of_n`` (B, gamma) are the bootstraps, which share one
resampling kernel.  The plug-in law of a batch is one ``_plugin_limits``
call, whose ``_limit_draws`` draws (M, K) rows orthogonal to 1.
The plug-in and derivative laws take their polytope from
``restricted_polytope`` and their values from ``support_batch``; whether
f = 0 is feasible, and the floor at 0 that follows, are the polytope's.
``limit_sampler``, ``derivative_bootstrap`` and ``m_out_of_n_bootstrap``
are batches of one, and a pair gets the same bits in any batch.

Scaling convention: with document sizes N_i, N_j the statistic
sqrt(2 N_i N_j / (N_i + N_j)) * (West - W) converges to the limit law
sampled here (covariance Sigma_i + Sigma_j); at N_i = N_j = N the factor
is exactly sqrt(N).  Confidence intervals therefore divide the sample
quantiles by that effective root-N.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import InvalidParam, MixwassError, check_count, check_instance, check_real, check_seed, check_unit, check_vector
from .estimators import CountVector, Method, _fit_batch, _Fits, _sigma_batch
from .transport import DualPolytope, TopicMatrix, _as_polytope, _as_topics, _values, restricted_polytope, support_batch


def _half_harmonic(N_i: float, N_j: float) -> float:
    """N_i N_j / (N_i + N_j) of sizes >= 1.  Where the product or the sum
    overflows it is a / (1 + a / b) with a <= b, whose terms cannot, and
    not 1 / (1/N_i + 1/N_j), whose reciprocals of sizes near the float
    range are subnormal: at N_i = N_j = 1.8e308 its double overflows."""
    h = N_i * N_j / (N_i + N_j)
    if math.isfinite(h):
        return h
    a, b = sorted((N_i, N_j))
    return a / (1.0 + a / b)


def effective_root_n(N_i: int, N_j: int) -> float:
    """sqrt(2 N_i N_j / (N_i + N_j)); equals sqrt(N) when N_i = N_j = N."""
    N_i, N_j = check_real(N_i, "N_i", 1), check_real(N_j, "N_j", 1)  # floats: a float32 size does not compute in float32
    return math.sqrt(2.0 * _half_harmonic(N_i, N_j))  # doubling is exact: the bits of 2 N_i N_j / (N_i + N_j)


def theorem_delta(N: int, p: int, n: int | None = None) -> float:
    """Theorem-rate slab width sqrt(log L / N) (+ sqrt(p log L / (n N)))."""
    N, p = check_real(N, "N", 1), check_real(p, "p", 1)
    if n is not None:
        n = check_real(n, "n")
    L = max(N, p, n or 0, 2)
    d = math.sqrt(math.log(L) / N)
    if n is not None and n > 0:
        d += math.sqrt(p) * math.sqrt(math.log(L) / N) / math.sqrt(n)  # no product that overflows before the result
    return d


class LimitSampleSet:
    """Monte Carlo draws approximating the root-N limit law of the distance.

    ``delta`` is the slab width used for the polytope restriction, or None
    when the unrestricted polytope was sampled (the null-case procedure).
    ``zero_feasible`` records whether f = 0 was feasible, in which case all
    samples are non-negative.
    """

    __slots__ = ("samples", "M", "delta", "seed", "zero_feasible", "meta", "_sorted")

    def __init__(self, samples, delta, seed, zero_feasible: bool = False, meta: dict | None = None):
        self.samples = s = check_vector(samples, "samples")
        self.M = s.size
        self.delta = None if delta is None else check_real(delta, "delta")
        self.seed = seed
        self.zero_feasible = bool(zero_feasible)
        self.meta = dict(meta or {})
        self._sorted = np.sort(s)

    def quantile(self, gamma: float) -> float:
        """Order statistic at index ceil(M * gamma) (right-continuous inverse)."""
        check_unit(gamma, "gamma")
        idx = min(max(int(math.ceil(self.M * gamma)), 1), self.M)
        return float(self._sorted[idx - 1])


@dataclass(frozen=True)
class ConfidenceInterval:
    """Two-sided confidence interval for the Wasserstein distance.

    ``scale`` stores sqrt(N_i N_j / (N_i + N_j)); the bounds divide the
    sample quantiles by sqrt(2) * scale, the effective root-N that matches
    the equal-size sqrt(N) convention of the limit theorem.
    """

    lower: float
    upper: float
    level: float
    point: float
    scale: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def distance_estimate(alpha_i, alpha_j, cost) -> float:
    """Support-function distance estimate sup_f f^T (alpha_i - alpha_j).

    Inputs may be the debiased (possibly negative-entry) estimates; the LP
    value is returned as-is.
    """
    poly = _as_polytope(cost, "cost")
    ai = _values(alpha_i, "alpha_i", poly.K)
    aj = _values(alpha_j, "alpha_j", poly.K)
    return float(support_batch(poly, (ai - aj)[None, :])[0])


def _limit_draws(sigma_i, sigma_j, polys, seeds, M: int) -> np.ndarray:
    """Draws of sup_f f^T Z with Z ~ N(0, sigma_i[b] + sigma_j[b]) for B laws.

    ``sigma_i`` and ``sigma_j`` are (B, K, K) stacks.  Law b takes the PSD
    square root of its summed covariance, in one stacked call, with each row
    centred: the rows of G @ root, for (M, K) standard normals G from
    ``default_rng(seeds[b])``, are orthogonal to 1, where their values over
    ``polys[b]`` do not depend on the coordinate anchored at 0.  Each law's
    draws are their own ``support_batch`` call, so only one law's draws are
    held at a time: one call over a whole chunk measured slower.  Returns
    the (B, M) draws; a law gets the same bits in any batch.
    """
    root = numlin.psd_sqrt(sigma_i + sigma_j)
    root -= root.mean(axis=2, keepdims=True)
    out = np.empty((len(root), M))
    for b, (poly, seed) in enumerate(zip(polys, seeds)):
        out[b] = support_batch(poly, np.random.default_rng(seed).standard_normal((M, root.shape[2])) @ root[b])
    return out


def _sample_set(samples, poly: DualPolytope, delta, seed, **meta) -> LimitSampleSet:
    """The sample set of draws over ``poly``, restricted by ``delta``: f = 0
    feasibility and w_hat (None without a slab) are the polytope's."""
    w_hat = None if poly.slab is None else poly.slab[1]
    return LimitSampleSet(samples, delta=delta, seed=seed, zero_feasible=poly.zero_feasible, meta={"w_hat": w_hat, **meta})


def _plugin_limits(alphas_i, alphas_j, A_hat: TopicMatrix, base: DualPolytope, delta, M: int, seeds) -> list[LimitSampleSet]:
    """Plug-in limit laws of B document pairs (see ``limit_sampler``).

    ``alphas_i`` and ``alphas_j`` are (B, K) batches of simplex estimates
    and ``seeds`` holds one seed per pair.  An error in any pair fails the
    batch.
    """
    polys = [restricted_polytope(base, ai, aj, delta) for ai, aj in zip(alphas_i, alphas_j)]
    sigmas = _sigma_batch(np.concatenate((alphas_i, alphas_j)), A_hat)  # both sides in one call
    draws = _limit_draws(sigmas[: len(polys)], sigmas[len(polys) :], polys, seeds, M)
    return [_sample_set(d, poly, delta, seed) for d, poly, seed in zip(draws, polys, seeds)]


def limit_sampler(
    alpha_i,
    alpha_j,
    A_hat,
    cost,
    delta: float | None = 0.0,
    M: int = 1000,
    seed: int = 0,
) -> LimitSampleSet:
    """Monte Carlo draws of sup_f f^T Z over the restricted dual polytope.

    ``alpha_i`` and ``alpha_j`` are the simplex (MLE) estimates: they enter
    both the plug-in covariances and the facet target.  Z is drawn from
    N(0, Sigma_i + Sigma_j) through the PSD square root of the clipped sum.
    ``delta`` >= 0 restricts the polytope to the slab around the estimated
    optimal facet; ``delta=None`` samples the unrestricted polytope, the
    procedure for testing at the null.  This is ``_plugin_limits`` on a
    batch of one.
    """
    check_count(M, "M")
    check_seed(seed)
    poly = _as_polytope(cost, "cost")
    ai = _values(alpha_i, "alpha_i", poly.K)[None, :]
    aj = _values(alpha_j, "alpha_j", poly.K)[None, :]
    return _plugin_limits(ai, aj, _as_topics(A_hat, "A_hat"), poly, delta, M, [seed])[0]


def _check_level(level: float, size: int, name: str = "M") -> None:
    """Refuse a ``level`` outside (0, 1), or one whose tail quantiles ``size`` draws cannot estimate."""
    check_unit(level, "level")
    if size < 20.0 / level:
        raise InvalidParam(f"need {name} >= {20.0 / level:.0f} samples for level {level}")


def confidence_interval(W_tilde: float, limits: LimitSampleSet, level: float, N_i: int, N_j: int) -> ConfidenceInterval:
    """Two-sided interval [W - q_{1-t/2}/s_N, W - q_{t/2}/s_N].

    ``level`` is the significance t (0.05 gives a 95% interval) and must
    satisfy M >= 20/t so the tail quantiles are estimable.
    """
    check_real(W_tilde, "W_tilde", -math.inf)
    divisor = effective_root_n(N_i, N_j)  # refuses sizes below 1 before s divides by their sum
    _check_level(level, check_instance(limits, "limits", LimitSampleSet).M)
    s = math.sqrt(_half_harmonic(float(N_i), float(N_j)))
    q_hi = limits.quantile(1.0 - level / 2.0)
    q_lo = limits.quantile(level / 2.0)
    return ConfidenceInterval(
        lower=W_tilde - q_hi / divisor,
        upper=W_tilde - q_lo / divisor,
        level=level,
        point=W_tilde,
        scale=s,
    )


# Rows per fit batch, which bounds the kernels' memory at _CHUNK x p, and
# pairs per driver chunk, so that no batch depends on the worker count.
_CHUNK = 32


def _fit_rows(X: np.ndarray, A: TopicMatrix, method: Method = Method.DEBIASED) -> _Fits:
    """Fits of the (n, p) frequency rows X by ``method``, ``_fit_batch`` on each
    run of ``_CHUNK`` rows: the one fit of documents, of a corpus and of pairs."""
    parts = [_fit_batch(X[s : s + _CHUNK], A, method) for s in range(0, len(X), _CHUNK)]
    return _Fits(method, *(None if f[0] is None else np.concatenate(f) for f in list(zip(*parts))[1:]))


@dataclass(frozen=True)
class FittedPairs:
    """B fitted document pairs, a row each: (B, p) word frequencies and the
    sides' sizes, (B, K) MLEs and estimates by the fit's method, (B,)
    distances, (B, 2) certificates and KKT gaps of the MLEs, i side then j
    side; None where WLS fits no MLE or no polytope was given."""

    X_i: np.ndarray
    X_j: np.ndarray
    N_i: int
    N_j: int
    mle_i: np.ndarray | None
    mle_j: np.ndarray | None
    est_i: np.ndarray
    est_j: np.ndarray
    W: np.ndarray | None
    converged: np.ndarray
    kkt_gap: np.ndarray | None

    def take(self, cols) -> FittedPairs:
        return dataclasses.replace(self, **{k: v[cols] for k, v in vars(self).items() if isinstance(v, np.ndarray)})


def _fit_pairs(X_i: np.ndarray, X_j: np.ndarray, N_i: int, N_j: int, A: TopicMatrix, poly: DualPolytope | None, method: Method = Method.DEBIASED) -> FittedPairs:
    """B document pairs of (B, p) frequencies a side, fitted by ``_fit_rows``
    as 2B rows, the i sides first, and measured over ``poly`` if given."""
    B = len(X_i)
    fits = _fit_rows(np.concatenate((X_i, X_j)), A, method)
    (mle_i, mle_j), (est_i, est_j) = ((None, None) if v is None else (v[:B], v[B:]) for v in (fits.mle, fits.est))
    W = None if poly is None else support_batch(poly, est_i - est_j)
    converged, gap = (None if v is None else np.column_stack((v[:B], v[B:])) for v in (fits.converged, fits.kkt_gap))
    return FittedPairs(X_i, X_j, N_i, N_j, mle_i, mle_j, est_i, est_j, W, converged, gap)


def _by_row(stage, rows: list[int]) -> list:
    """``stage(rows)``: one output per row, computed as one batch.  A
    ``MixwassError`` in a batch of several rows redoes them one at a time,
    so only a failing row is lost; its entry is the "Type: message" string."""
    try:
        return stage(rows)
    except MixwassError as exc:
        if len(rows) == 1:
            return [f"{type(exc).__name__}: {exc}"]
    return [out for r in rows for out in _by_row(stage, [r])]


def _pair_estimates(counts_i, counts_j, N_i: int, N_j: int, A_hat, poly: DualPolytope):
    """``FittedPairs`` of (B, p) word counts, and errors.  Only a failing pair
    is lost (see ``_by_row``): its fits, distance and KKT gaps are NaN, it
    is not certified, and its entry of the error list names the error."""
    X_i, X_j = counts_i / N_i, counts_j / N_j

    def stage(rows):  # each pair's fields from mle_i on
        pairs = _fit_pairs(X_i[rows], X_j[rows], N_i, N_j, A_hat, poly)
        return list(zip(*(getattr(pairs, f.name) for f in dataclasses.fields(pairs)[4:])))

    fits = _by_row(stage, list(range(len(X_i))))
    errors = [f if isinstance(f, str) else None for f in fits]
    lost = (np.full(poly.K, np.nan),) * 4 + (np.nan, np.zeros(2, dtype=bool), np.full(2, np.nan))
    fields = (np.array(v) for v in zip(*(lost if e else f for f, e in zip(fits, errors))))
    return FittedPairs(X_i, X_j, N_i, N_j, *fields), errors


def _plugin_samples(pairs: FittedPairs, A, poly, seeds, settings) -> list[LimitSampleSet]:
    return _plugin_limits(pairs.mle_i, pairs.mle_j, A, poly, settings["delta"], settings["M"], seeds)


def _resampled_pairs(pairs: FittedPairs, c: int, sizes, A, poly, B: int, seed) -> FittedPairs:
    """``_fit_pairs`` of B multinomial resamples of each side of pair ``c``,
    of ``sizes`` words, over ``poly``; the i side's are drawn first."""
    rng = np.random.default_rng(seed)
    X_b = [rng.multinomial(m, X[c], size=B) / m for m, X in zip(sizes, (pairs.X_i, pairs.X_j))]
    return _fit_pairs(*X_b, *sizes, A, poly)


def _derivative_samples(pairs: FittedPairs, A, base, seeds, settings) -> list[LimitSampleSet]:
    """Derivative bootstrap of each pair (see ``derivative_bootstrap``)."""
    delta, scale, out = settings["delta"], effective_root_n(pairs.N_i, pairs.N_j), []
    for c, seed in enumerate(seeds):
        poly = restricted_polytope(base, pairs.mle_i[c], pairs.mle_j[c], delta)
        # The resamples' own distances are not needed; beyond K = 10 each is an LP.
        boot = _resampled_pairs(pairs, c, (pairs.N_i, pairs.N_j), A, None, settings["B"], seed)
        directions = scale * ((boot.est_i - boot.est_j) - (pairs.est_i[c] - pairs.est_j[c]))
        unconverged = int(np.count_nonzero(~boot.converged))
        out.append(_sample_set(support_batch(poly, directions), poly, delta, seed, W_tilde=float(pairs.W[c]), unconverged=unconverged))
    return out


def _m_of_n_samples(pairs: FittedPairs, A, poly, seeds, settings) -> list[LimitSampleSet]:
    """m-out-of-N bootstrap of each pair (see ``m_out_of_n_bootstrap``)."""
    gamma, out = settings["gamma"], []
    m_i, m_j = (math.ceil(N**gamma) for N in (pairs.N_i, pairs.N_j))
    for c, seed in enumerate(seeds):
        boot = _resampled_pairs(pairs, c, (m_i, m_j), A, poly, settings["B"], seed)
        samples = effective_root_n(m_i, m_j) * (boot.W - pairs.W[c])
        meta = {"m_i": m_i, "m_j": m_j, "gamma": gamma, "W_tilde": float(pairs.W[c]), "unconverged": int(np.count_nonzero(~boot.converged))}
        out.append(LimitSampleSet(samples, delta=None, seed=seed, zero_feasible=False, meta=meta))
    return out


@dataclass(frozen=True)
class IntervalMethod:
    """``sampler(pairs, A, poly, seeds, settings)`` gives one ``LimitSampleSet``
    per pair of a ``FittedPairs`` batch, reading the Monte Carlo ``size`` and
    one other ``setting``, and an error in any pair fails the call."""

    sampler: Callable[..., list[LimitSampleSet]]
    size: str
    setting: str

    def settings(self, level: float | None = None, **values) -> dict:
        """The settings it reads, from ``values``; with a ``level``, the size meets ``confidence_interval``'s rule.

        A ``delta`` is None (the unrestricted polytope) or a finite real >= 0,
        so a bad setting is refused before any fit.
        """
        size = values[self.size]
        check_count(size, self.size)
        if level is not None:
            _check_level(level, size, self.size)
        if self.setting == "gamma":
            check_unit(values["gamma"], "gamma")
        if self.setting == "delta" and values["delta"] is not None:
            check_real(values["delta"], "delta")
        return {self.size: size, self.setting: values[self.setting]}


METHODS = {
    "plugin": IntervalMethod(_plugin_samples, "M", "delta"),
    "deriv_bs": IntervalMethod(_derivative_samples, "B", "delta"),
    "m_of_n": IntervalMethod(_m_of_n_samples, "B", "gamma"),
}


def _observed_pair_samples(name: str, X_i: CountVector, X_j: CountVector, A_hat, cost, seed, **values) -> LimitSampleSet:
    """Method ``name`` on one observed pair, fitted as ``ci`` fits it."""
    settings = METHODS[name].settings(**values)
    check_seed(seed)
    X_i, X_j = check_instance(X_i, "X_i", CountVector), check_instance(X_j, "X_j", CountVector)
    A_hat, poly = _as_topics(A_hat, "A_hat"), _as_polytope(cost, "cost")
    pairs = _fit_pairs(X_i.frequencies[None, :], X_j.frequencies[None, :], X_i.N, X_j.N, A_hat, poly)
    return METHODS[name].sampler(pairs, A_hat, poly, [seed], settings)[0]


def m_out_of_n_bootstrap(
    X_i: CountVector,
    X_j: CountVector,
    A_hat,
    cost,
    gamma: float = 0.5,
    B: int = 1000,
    seed: int = 0,
) -> LimitSampleSet:
    """m-out-of-N bootstrap sample set of sqrt(m)(W_b - W).

    Each replicate resamples m_l = ceil(N_l^gamma) words from the observed
    frequencies of document l, reruns the MLE + debias + distance pipeline,
    and emits the centered, sqrt(m)-scaled distance.  ``meta["unconverged"]``
    counts the resample MLE fits without a KKT certificate.
    """
    return _observed_pair_samples("m_of_n", X_i, X_j, A_hat, cost, seed, B=B, gamma=gamma)


def derivative_bootstrap(
    X_i: CountVector,
    X_j: CountVector,
    A_hat,
    cost,
    delta: float | None = 0.0,
    B: int = 1000,
    seed: int = 0,
) -> LimitSampleSet:
    """Derivative-based bootstrap: plug centered resample directions into
    the support function of the restricted polytope.

    Full-size multinomial resamples give debiased estimates per replicate;
    the direction sqrt(N_eff)(alpha_b_i - alpha_b_j - alpha_i + alpha_j) is
    evaluated on the same data-driven polytope as the plug-in sampler.
    ``meta["unconverged"]`` counts the resample MLE fits without a KKT
    certificate.
    """
    return _observed_pair_samples("deriv_bs", X_i, X_j, A_hat, cost, seed, B=B, delta=delta)


def ks_distance(samples_a, samples_b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_a(t) - F_b(t)|."""
    a = np.sort(check_vector(samples_a, "samples_a"))
    b = np.sort(check_vector(samples_b, "samples_b"))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_two_sample_pvalue(samples_a, samples_b) -> float:
    """Asymptotic p-value of the two-sample KS test."""
    from scipy.special import kolmogorov
    d = ks_distance(samples_a, samples_b)
    n_a, n_b = np.size(samples_a), np.size(samples_b)
    en = math.sqrt(n_a * n_b / (n_a + n_b))
    return float(min(max(kolmogorov(en * d), 0.0), 1.0))
