"""Distance estimation and fully data-driven inference.

The distance estimate is the support function of the estimated dual
polytope at the difference of debiased weight estimates.  Its limiting
distribution sup_{f} f^T Z (Z Gaussian with the summed plug-in
covariances, f ranging over a data-driven restriction of the polytope) is
estimated by Monte Carlo; quantiles of the sample set yield confidence
intervals.  Two bootstrap baselines (m-out-of-N and derivative-based) are
provided for comparison.

The plug-in limit law is written once, for a batch of document pairs:
``_plugin_limits`` restricts each pair's polytope and stacks its plug-in
covariances, and ``_limit_draws`` sums them, takes their PSD roots in one
stacked call, draws each law's Gaussians from its own seed and evaluates
the draws over the law's polytope.  ``limit_sampler`` is a batch of one,
the simulation drivers pass whole chunks of replicates, and a law gives
the same bits in any batch.

Scaling convention: with document sizes N_i, N_j the statistic
sqrt(2 N_i N_j / (N_i + N_j)) * (West - W) converges to the limit law
sampled here (covariance Sigma_i + Sigma_j); at N_i = N_j = N the factor
is exactly sqrt(N).  Confidence intervals therefore divide the sample
quantiles by that effective root-N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from . import numlin
from .errors import InvalidParam
from .estimators import (
    CountVector,
    WeightEstimate,
    _fit_debiased,
    _sigma_batch,
    debias,
    mle_weights,
)
from .transport import (
    DualPolytope,
    TopicMatrix,
    _topics_array,
    facet_slack,
    restricted_polytope,
    support_batch,
)


def effective_root_n(N_i: int, N_j: int) -> float:
    """sqrt(2 N_i N_j / (N_i + N_j)); equals sqrt(N) when N_i = N_j = N."""
    if N_i < 1 or N_j < 1:
        raise InvalidParam("document sizes must be >= 1")
    return math.sqrt(2.0 * N_i * N_j / (N_i + N_j))


def theorem_delta(N: int, p: int, n: int | None = None) -> float:
    """Theorem-rate slab width sqrt(log L / N) (+ sqrt(p log L / (n N)))."""
    L = max(N, p, n or 0, 2)
    d = math.sqrt(math.log(L) / N)
    if n is not None and n > 0:
        d += math.sqrt(p * math.log(L) / (n * N))
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
        s = np.asarray(samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise InvalidParam("sample set must be a nonempty 1-d array")
        self.samples = s
        self.M = s.size
        self.delta = delta
        self.seed = seed
        self.zero_feasible = bool(zero_feasible)
        self.meta = dict(meta or {})
        self._sorted = np.sort(s)

    @property
    def sorted(self) -> np.ndarray:
        return self._sorted

    def quantile(self, gamma: float) -> float:
        """Order statistic at index ceil(M * gamma) (right-continuous inverse)."""
        if not 0.0 < gamma < 1.0:
            raise InvalidParam("quantile level must be in (0, 1)")
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


def _weights(x) -> np.ndarray:
    if isinstance(x, WeightEstimate):
        return x.alpha
    return np.asarray(x, dtype=float)


def _as_polytope(cost) -> DualPolytope:
    return cost if isinstance(cost, DualPolytope) else DualPolytope(cost)


def distance_estimate(alpha_i, alpha_j, cost) -> float:
    """Support-function distance estimate sup_f f^T (alpha_i - alpha_j).

    Inputs may be the debiased (possibly negative-entry) estimates; the LP
    value is returned as-is.
    """
    ai = _weights(alpha_i)
    aj = _weights(alpha_j)
    if ai.size != aj.size:
        raise InvalidParam("weight estimates must have equal dimension")
    poly = _as_polytope(cost)
    return float(support_batch(poly, (ai - aj)[None, :])[0])


def _restrict(
    base: DualPolytope, ai: np.ndarray, aj: np.ndarray, delta: float | None
) -> tuple[DualPolytope, float | None, bool]:
    """Polytope to sample for slab width ``delta``, with w_hat and zero feasibility.

    ``delta=None`` keeps the unrestricted polytope, where f = 0 is feasible.
    Otherwise the polytope is cut to the slab of width ``delta`` around the
    optimal facet at ai - aj, whose dual value is w_hat.
    """
    if delta is None:
        return base, None, True
    poly = restricted_polytope(base, ai, aj, delta)
    w_hat = poly.slab[1]
    return poly, w_hat, abs(w_hat) <= delta + facet_slack(w_hat)


def _limit_draws(sigma_i, sigma_j, polys, seeds, M: int, clamp) -> np.ndarray:
    """Draws of sup_f f^T Z with Z ~ N(0, sigma_i[b] + sigma_j[b]) for B laws.

    ``sigma_i`` and ``sigma_j`` are (B, K, K) stacks.  Law b takes the PSD
    square root of its summed covariance, draws its (K, M) standard normals
    from ``default_rng(seeds[b])`` and evaluates them over ``polys[b]``.
    The roots are one stacked call.  Each law's draws are their own
    ``support_batch`` call, so only one law's draws are held at a time: one
    call over a whole chunk measured slower, and over a one-vertex face the
    product is matrix-vector, whose bits depend on the rows' layout.  Laws
    with ``clamp[b]`` set have f = 0 feasible, so their draws are clamped
    at 0 against LP-level noise.  Returns the (B, M) draws; a law gets the
    same bits in any batch.
    """
    root = numlin.psd_sqrt(sigma_i + sigma_j)
    K = root.shape[-1]
    out = np.empty((len(root), M))
    for b, (poly, seed) in enumerate(zip(polys, seeds)):
        Z = root[b] @ np.random.default_rng(seed).standard_normal(size=(K, M))
        out[b] = support_batch(poly, Z.T)
    clamp = np.asarray(clamp, dtype=bool)
    out[clamp] = np.maximum(out[clamp], 0.0)
    return out


def _plugin_limits(alphas_i, alphas_j, A_hat, base: DualPolytope, delta, M: int, seeds) -> list[LimitSampleSet]:
    """Plug-in limit laws of B document pairs (see ``limit_sampler``).

    ``alphas_i`` and ``alphas_j`` are (K, B) batches of simplex estimates
    and ``seeds`` holds one seed per pair.  An error in any pair fails the
    batch.
    """
    A = _topics_array(A_hat)
    polys, w_hats, zero_feasible = zip(*(_restrict(base, ai, aj, delta) for ai, aj in zip(alphas_i.T, alphas_j.T)))
    draws = _limit_draws(_sigma_batch(alphas_i, A), _sigma_batch(alphas_j, A), polys, seeds, M, zero_feasible)
    return [
        LimitSampleSet(d, delta=delta, seed=seed, zero_feasible=z, meta={"w_hat": w})
        for d, seed, z, w in zip(draws, seeds, zero_feasible, w_hats)
    ]


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
    if M < 1:
        raise InvalidParam("M must be >= 1")
    ai = _weights(alpha_i)
    aj = _weights(alpha_j)
    return _plugin_limits(ai[:, None], aj[:, None], A_hat, _as_polytope(cost), delta, M, [seed])[0]


def confidence_interval(W_tilde: float, limits: LimitSampleSet, level: float, N_i: int, N_j: int) -> ConfidenceInterval:
    """Two-sided interval [W - q_{1-t/2}/s_N, W - q_{t/2}/s_N].

    ``level`` is the significance t (0.05 gives a 95% interval) and must
    satisfy M >= 20/t so the tail quantiles are estimable.
    """
    if not 0.0 < level < 1.0:
        raise InvalidParam("level must be in (0, 1)")
    if limits.M < 20.0 / level:
        raise InvalidParam(f"need M >= {20.0 / level:.0f} samples for level {level}")
    s = math.sqrt(N_i * N_j / (N_i + N_j))
    divisor = effective_root_n(N_i, N_j)
    q_hi = limits.quantile(1.0 - level / 2.0)
    q_lo = limits.quantile(level / 2.0)
    return ConfidenceInterval(
        lower=W_tilde - q_hi / divisor,
        upper=W_tilde - q_lo / divisor,
        level=level,
        point=W_tilde,
        scale=s,
    )


def _point_estimates(X_i: CountVector, X_j: CountVector, A) -> tuple[WeightEstimate, WeightEstimate, WeightEstimate, WeightEstimate]:
    ah_i = mle_weights(X_i.frequencies, A)
    ah_j = mle_weights(X_j.frequencies, A)
    return ah_i, ah_j, debias(ah_i, X_i.frequencies, A), debias(ah_j, X_j.frequencies, A)


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
    and emits the centered, sqrt(m)-scaled distance.
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidParam("gamma must be in (0, 1)")
    if B < 1:
        raise InvalidParam("B must be >= 1")
    poly = _as_polytope(cost)
    Am = A_hat.matrix if isinstance(A_hat, TopicMatrix) else np.asarray(A_hat, dtype=float)
    ah_i, ah_j, at_i, at_j = _point_estimates(X_i, X_j, Am)
    W = distance_estimate(at_i, at_j, poly)
    m_i = int(math.ceil(X_i.N**gamma))
    m_j = int(math.ceil(X_j.N**gamma))
    scale = effective_root_n(m_i, m_j)

    rng = np.random.default_rng(seed)
    XBi = rng.multinomial(m_i, X_i.frequencies, size=B).T / m_i
    XBj = rng.multinomial(m_j, X_j.frequencies, size=B).T / m_j
    _, at_bi = _fit_debiased(XBi, Am)
    _, at_bj = _fit_debiased(XBj, Am)
    W_b = support_batch(poly, (at_bi - at_bj).T)
    samples = scale * (W_b - W)
    meta = {"m_i": m_i, "m_j": m_j, "gamma": gamma, "W_tilde": W}
    return LimitSampleSet(samples, delta=None, seed=seed, zero_feasible=False, meta=meta)


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
    """
    if B < 1:
        raise InvalidParam("B must be >= 1")
    base = _as_polytope(cost)
    Am = A_hat.matrix if isinstance(A_hat, TopicMatrix) else np.asarray(A_hat, dtype=float)
    ah_i, ah_j, at_i, at_j = _point_estimates(X_i, X_j, Am)
    scale = effective_root_n(X_i.N, X_j.N)
    poly, w_hat, zero_feasible = _restrict(base, ah_i.alpha, ah_j.alpha, delta)

    rng = np.random.default_rng(seed)
    XBi = rng.multinomial(X_i.N, X_i.frequencies, size=B).T / X_i.N
    XBj = rng.multinomial(X_j.N, X_j.frequencies, size=B).T / X_j.N
    _, at_bi = _fit_debiased(XBi, Am)
    _, at_bj = _fit_debiased(XBj, Am)
    directions = scale * ((at_bi - at_bj) - (at_i.alpha - at_j.alpha)[:, None])
    samples = support_batch(poly, directions.T)
    if zero_feasible:
        samples = np.maximum(samples, 0.0)
    meta = {"w_hat": w_hat, "W_tilde": distance_estimate(at_i, at_j, base)}
    return LimitSampleSet(samples, delta=delta, seed=seed, zero_feasible=zero_feasible, meta=meta)


def ks_distance(samples_a, samples_b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_a(t) - F_b(t)|."""
    a = np.sort(np.asarray(samples_a, dtype=float))
    b = np.sort(np.asarray(samples_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise InvalidParam("KS distance requires nonempty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_two_sample_pvalue(samples_a, samples_b) -> float:
    """Asymptotic p-value of the two-sample KS test."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    d = ks_distance(a, b)
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    return float(min(max(kolmogorov(en * d), 0.0), 1.0))
