"""The door contract: every public callable of ``mixwass``, each parameter's
domain, and one rule over the values the domains draw.

A domain is a pair of Hypothesis strategies: values the parameter accepts,
and hostile ones it must refuse (bools, NaN, +-inf, negatives, zero, empty
or misshapen arrays, wrong dtypes, strings, integers past int64).  Strided
and F-order views are valid values and are drawn with them.  The rule:

* a call with valid values returns a result that keeps the callable's
  promises (finite values, the promised shapes, simplex membership where
  promised, ``converged`` agreeing with ``kkt_gap``), or raises a
  ``MixwassError``;
* a call with one hostile value raises a ``MixwassError`` whose message
  names that parameter.

Any other exception, a result of a hostile call, or a broken promise fails.

Valid sizes stay small (M, B <= 64, p <= 40), and a hostile size is one the
door refuses before it allocates anything (2**64, -1, 1.5, True), never a
large size that is valid.  ``mixwass.io.load_counts`` is not exported by
``mixwass`` and is not in the table: it reads a file, and its required
``p`` is checked by ``check_count`` like every size here.  A parameter
that takes a package object draws the fixture objects as valid values,
and as hostile ones the arrays and wrong objects it must refuse: topics
draw the hostile topic arrays, a cost the hostile cost tables, a table
off the triangle inequality and wrong types; a polytope, a config, a
document or a sample set draws arrays, dicts, other package objects and
None.  Only the flag ``quick`` and a sample set's record
of its seed are drawn valid only (``test_only_records_and_flags_are_drawn_valid_only``).
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mixwass
from mixwass import (
    ConfidenceInterval,
    CostMatrix,
    CountVector,
    CovEstimate,
    DimError,
    DualPolytope,
    ExperimentReport,
    InvalidCost,
    InvalidParam,
    InvalidSimplex,
    LimitSampleSet,
    Method,
    MixwassError,
    ProbVec,
    SimConfig,
    SymMatrixResult,
    TopicMatrix,
    WeightEstimate,
    confidence_interval,
    cost_matrix,
    debias,
    derivative_bootstrap,
    distance_estimate,
    effective_root_n,
    gen_document,
    gen_topic_matrix,
    gen_weights,
    kr_dual_value,
    ks_distance,
    ks_two_sample_pvalue,
    limit_sampler,
    m_out_of_n_bootstrap,
    mle_weights,
    perturb_topics,
    pinv,
    psd_sqrt,
    restricted_polytope,
    run_ci_experiment,
    run_convergence_experiment,
    run_mle_vs_wls_experiment,
    run_normality_experiment,
    sigma_hat,
    sigma_ls,
    support_batch,
    sym_eig,
    theorem_delta,
    tv_distance,
    wasserstein_primal,
    wls_weights,
)
from mixwass.estimators import TOL_KKT

# --- fixtures: the valid package objects the rows share -------------------------

K, P = 3, 12
A = gen_topic_matrix(P, K, 1)
COST = cost_matrix(A)
POLY = DualPolytope(COST)
ALPHA = np.array([0.5, 0.3, 0.2])
DOC_I = gen_document(A.matrix @ ALPHA, 40, 2)
DOC_J = gen_document(A.matrix @ np.array([0.1, 0.2, 0.7]), 40, 3)
X = DOC_I.frequencies
LIMITS = LimitSampleSet(np.linspace(0.0, 1.0, 400), delta=None, seed=0, zero_feasible=True)
CONFIG = SimConfig(K=2, p=6, N=30, n_reps=2, n_outer=1, M=40, B=40, level=0.5, seed=3)

# --- domains --------------------------------------------------------------------


class Domain(NamedTuple):
    """A domain's strategy, as the values a parameter accepts and the hostile
    ones it must refuse (None: the parameter is drawn valid only)."""

    valid: st.SearchStrategy
    hostile: st.SearchStrategy | None = None


def given_objects(*values) -> Domain:
    return Domain(st.sampled_from(values))


def _values(*values) -> st.SearchStrategy:
    return st.sampled_from(values)


BOOLS = (True, False, np.True_)
NOT_NUMBERS = ("", "x", "1", None, (1.0,), 1j)
NON_FINITE = (math.nan, math.inf, -math.inf, np.float32("nan"))


def count(lo: int, hi: int, cap: float = 2**63 - 1, floor: int | None = None) -> Domain:
    """Integers in [lo, hi] drawn valid; the door takes [floor (by default lo), cap]."""
    ints = st.integers(lo, hi)
    floor = lo if floor is None else floor
    past = (st.integers(min_value=2**63),) if cap == 2**63 - 1 else (() if cap == math.inf else (st.integers(cap + 1, cap + 50),))
    return Domain(
        st.one_of(ints, st.integers(lo, min(hi, 2**63 - 1)).map(np.int64)),
        st.one_of(
            _values(*BOOLS, *NOT_NUMBERS, *NON_FINITE, 1.5, float(lo + 1), np.float64(lo + 1), floor - 1, -(2**64)),
            st.integers(max_value=floor - 1),
            st.floats(),
            *past,
        ),
    )


def real(lo: float, hi: float) -> Domain:
    """Finite reals in [lo, hi] drawn valid, of any numeric type."""
    floats = st.floats(lo, hi)
    return Domain(
        st.one_of(floats, floats.map(np.float32).filter(lambda v: lo <= v <= hi), st.integers(math.ceil(lo), int(hi))),
        st.one_of(
            _values(*BOOLS, *NOT_NUMBERS, *NON_FINITE, np.array([1.0]), lo - 0.5, np.float32(lo - 1), np.int64(lo - 1)),
            st.floats(max_value=lo, exclude_max=True),
        ),
    )


def optional(domain: Domain, *extra) -> Domain:
    return Domain(st.one_of(_values(None, *extra), domain.valid), domain.hostile.filter(lambda v: v is not None))


UNIT = Domain(
    st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(0.01, 0.99).map(np.float32)),
    st.one_of(_values(*BOOLS, *NOT_NUMBERS, *NON_FINITE, 0, 1, 0.0, 1.0, -0.5, 1.5), st.floats().filter(lambda v: not 0.0 < v < 1.0)),
)
SEED = Domain(
    st.one_of(st.integers(0, 2**64), st.integers(0, 2**32).map(np.int64), st.lists(st.integers(0, 2**32), min_size=1, max_size=3)),
    _values(*BOOLS, -1, -(2**70), 1.5, np.float64(2.0), "x", "", [-1], [1.5], [None]),
)


def _array_hostiles(n: int) -> list:
    """Arrays that no vector parameter of length n takes."""
    good = np.full(n, 1.0 / n)
    out = [
        np.append(good[:-1], np.nan),
        np.append(good[:-1], np.inf),
        good[None, :],
        np.float64(0.5),
        np.array([]),
        np.full(n, "a"),
        np.ones(n, dtype=bool),
        np.array([2**70] * n, dtype=object),
        None,
        "x",
        [[1.0], [1.0, 2.0]],
    ]
    return out + [np.full(n + 1, 1.0 / (n + 1))] + ([np.full(n - 1, 1.0 / (n - 1))] if n > 1 else [])


def _layouts(v: np.ndarray) -> st.SearchStrategy:
    """The same values as a C array, a strided view, an F-order copy and a list."""
    return _values(v, np.repeat(v, 2, axis=0)[::2], np.asfortranarray(v), v.tolist())


def _weights(n: int) -> st.SearchStrategy:
    raw = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    return st.one_of(raw.map(lambda w: np.array(w) / sum(w)), st.integers(0, n - 1).map(lambda k: np.eye(n)[k]))


def vector(n: int, entries: st.SearchStrategy | None = None, *hostile) -> Domain:
    """Finite 1-d float arrays of length n (by default weights on the simplex)."""
    if entries is None:
        values = _weights(n)
    else:
        values = st.lists(entries, min_size=n, max_size=n).map(np.array)
    return Domain(values.flatmap(_layouts), _values(*_array_hostiles(n), *hostile))


WEIGHTS = vector(K)
# Vectors of any length: a length is hostile only against another parameter.
PROB = Domain(
    st.integers(1, 5).flatmap(_weights).flatmap(_layouts),
    _values(*_array_hostiles(K)[:-2], -ALPHA, 2.0 * ALPHA),
)
SAMPLES = Domain(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50).map(np.array).flatmap(_layouts),
    _values(*_array_hostiles(3)[:-2], np.zeros((4, 2))),
)


def _frequencies(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 60))
    return rng.multinomial(N, A.matrix @ rng.dirichlet(np.ones(K))) / N


FREQ = Domain(
    st.integers(0, 2**32).map(_frequencies).flatmap(_layouts),
    _values(*_array_hostiles(P), np.append(X[:-1], X[-1] - 0.5), 2.0 * X, np.zeros(P)),
)


def _counts(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    c = rng.integers(0, 5, size=int(rng.integers(1, 20)))
    c[0] += 1
    return (c, c.astype(float), c.astype(np.uint8), c.astype(np.int32))[seed % 4]


COUNTS = Domain(
    st.integers(0, 2**32).map(_counts).flatmap(_layouts),
    _values(
        np.array([True, False]),
        np.array([2, -1]),
        np.array([1.5, 1.0]),
        np.array([1.0, np.nan]),
        np.array([np.inf]),
        np.array([], dtype=np.int64),
        np.zeros(3, dtype=np.int64),
        np.ones((2, 2), dtype=np.int64),
        np.array([2**70], dtype=object),
        np.array(["1", "2"]),
        None,
        "x",
    ),
)


def _topics(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    M = rng.uniform(size=(int(rng.integers(1, 13)), int(rng.integers(1, 5))))
    return M / M.sum(axis=0)


_BAD_TOPICS = A.matrix.copy()
_BAD_TOPICS[0, 0] = np.nan
_NEGATIVE_TOPICS = A.matrix.copy()
_NEGATIVE_TOPICS[0, 0] = -0.1
TOPICS = Domain(
    st.integers(0, 2**32).map(_topics).flatmap(_layouts),
    _values(_BAD_TOPICS, _NEGATIVE_TOPICS, 2.0 * A.matrix, A.matrix[:, 0], A.matrix[None], np.zeros((0, K)), np.zeros((P, 0)), np.full((2, 2), "a"), A.matrix > 0, None),
)


def _metric_table(seed: int) -> np.ndarray:
    return cost_matrix(_topics(seed), "l2" if seed % 2 else "tv").entries


_TABLE_HOSTILES = [COST.entries + 0.0 for _ in range(4)]
_TABLE_HOSTILES[0][0, 1] = np.nan
_TABLE_HOSTILES[1][0, 1] += 0.5  # asymmetric
_TABLE_HOSTILES[2][0, 0] = 0.5  # nonzero diagonal
_TABLE_HOSTILES[3] *= -1.0
TABLE = Domain(
    st.integers(0, 2**32).map(_metric_table).flatmap(_layouts),
    _values(*_TABLE_HOSTILES, COST.entries[:, :2], COST.entries[0], np.zeros((0, 0)), np.full((2, 2), "a"), np.eye(2, dtype=bool), None),
)


def _symmetric(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 6)), 6))
    S = G[:, :, : G.shape[1]] @ G[:, :, : G.shape[1]].transpose(0, 2, 1) - (seed % 3 == 0)
    return S[0] if seed % 2 else S


_ASYMMETRIC = np.eye(3)
_ASYMMETRIC[0, 1] = 1.0
SYMMETRIC = Domain(
    st.integers(0, 2**32).map(_symmetric).flatmap(_layouts),
    _values(np.full((2, 2), np.nan), _ASYMMETRIC, np.ones((2, 3)), np.ones(3), np.ones((1, 1, 1, 1)), np.full((2, 2), "a"), np.eye(2, dtype=bool), None, "x"),
)

DIRECTIONS = Domain(
    st.one_of(
        st.lists(st.floats(-10.0, 10.0), min_size=K, max_size=K).map(np.array),
        st.integers(1, 20).flatmap(lambda n: st.lists(st.floats(-10.0, 10.0), min_size=n * K, max_size=n * K).map(lambda v: np.reshape(v, (n, K)))),
    ).flatmap(_layouts),
    _values(np.full((2, K), np.nan), np.ones((2, K + 1)), np.ones((2, 2, K)), np.full((2, K), "a"), np.ones((2, K), dtype=bool), None),
)

METRIC = Domain(_values("tv", "l2", COST.entries), _values("foo", "", "TV", None, 5, True, (1.0,)))
DELTA = optional(real(0.0, 2.0))
DOC_SIZE = real(1.0, 1e6)

# Package objects: the fixture objects valid, arrays and wrong objects hostile.
TOPIC_ARGS = Domain(st.one_of(_values(A), _layouts(A.matrix)), TOPICS.hostile)
_NOT_METRIC = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])  # 3 > 1 + 1
COSTS = Domain(st.one_of(_values(COST, POLY), _layouts(COST.entries)), st.one_of(TABLE.hostile, _values(_NOT_METRIC, "x", 1.0, A, {})))
POLYTOPES = Domain(_values(POLY), _values(COST, COST.entries, None))
DOCS_I, DOCS_J = (Domain(_values(doc), _values(doc.counts, doc.frequencies, None)) for doc in (DOC_I, DOC_J))
LIMIT_SETS = Domain(_values(LIMITS), _values(LIMITS.samples, np.ones(1000), None))
CONFIGS = Domain(_values(CONFIG), _values({"K": 3}, CONFIG.to_dict(), None))
METHOD_VALUES = Domain(_values("mle", "debiased", "wls", Method.WLS), _values("x", "", "MLE", None, 1, True))


def _choices(names) -> Domain:
    return Domain(
        st.lists(_values(*names), min_size=1, max_size=len(names), unique=True).map(tuple),
        _values(("nope",), (names[0], "x"), (None,), (1,), (True,), names[0], (), (names[0], names[0])),
    )


# --- promises -------------------------------------------------------------------


def _finite(*arrays) -> bool:
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


def _simplex(v, tol: float = 1e-8) -> bool:
    v = np.asarray(v, dtype=float)
    return v.ndim == 1 and _finite(v) and v.min() >= 0.0 and abs(v.sum() - 1.0) <= tol


def _weight_estimate(est, simplex: bool) -> bool:
    return est.alpha.shape == (K,) and _finite(est.alpha) and (not simplex or _simplex(est.alpha))


def _mle(est, kwargs) -> bool:
    return _weight_estimate(est, True) and est.converged == (est.kkt_gap <= TOL_KKT) and 0 <= est.iterations <= kwargs["max_iter"]


def _covariance(cov, kwargs) -> bool:
    S = cov.sigma
    return S.shape == (K, K) and _finite(S) and np.array_equal(S, S.T) and 0 <= cov.rank <= K


def _cost(C, kwargs) -> bool:
    E = C.entries
    return E.ndim == 2 and E.shape[0] == E.shape[1] and _finite(E) and np.array_equal(E, E.T) and E.min() >= 0.0 and not np.diag(E).any()


def _topic_matrix(T, kwargs) -> bool:
    M = T.matrix
    return M.ndim == 2 and all(_simplex(col) for col in M.T)


def _sample_set(size: str):
    def promise(s, kwargs) -> bool:
        return s.samples.shape == (kwargs[size],) and _finite(s.samples) and (not s.zero_feasible or s.samples.min() >= 0.0)

    return promise


def _same_shape(out, kwargs) -> bool:
    return out.shape == np.shape(kwargs["M"]) and _finite(out)


def _report(rep, kwargs) -> bool:
    return isinstance(rep, ExperimentReport) and len(rep.fingerprint()) == 64


# --- the table --------------------------------------------------------------------


class Row(NamedTuple):
    """A public callable, its parameters' domains and valid defaults, and its promise.

    ``labels`` gives the words a message names a parameter by where they
    are not its name (the one argument of a constructor); ``examples`` is
    the number of Hypothesis draws for the valid call and for each hostile parameter.
    """

    fn: Callable
    domains: dict[str, Domain]
    defaults: dict
    promise: Callable[[object, dict], bool]
    labels: dict[str, str] = {}
    examples: int = 40

    def label(self, name: str) -> str:
        return self.labels.get(name, name)


_RUN = (dict(config=CONFIGS), dict(config=CONFIG), _report, {}, 4)
ROWS: dict[str, Row] = {
    # transport
    "ProbVec": Row(ProbVec, dict(values=PROB), dict(values=ALPHA), lambda r, kw: _simplex(r.values), dict(values="probability vector")),
    "TopicMatrix": Row(TopicMatrix, dict(matrix=TOPICS), dict(matrix=A.matrix), _topic_matrix, dict(matrix="topic matrix")),
    "CostMatrix": Row(CostMatrix, dict(entries=TABLE), dict(entries=COST.entries), _cost, dict(entries="cost table")),
    "cost_matrix": Row(cost_matrix, dict(A=TOPIC_ARGS, metric=METRIC), dict(A=A, metric="tv"), lambda C, kw: _cost(C, kw) and C.K == K),
    "DualPolytope": Row(
        DualPolytope,
        dict(cost=Domain(_values(COST, cost_matrix(A, "l2")), st.one_of(TABLE.valid, TABLE.hostile, _values(POLY, "x")))),
        dict(cost=COST),
        lambda poly, kw: poly.K >= 1,
    ),
    "DualPolytope.contains": Row(POLY.contains, dict(f=vector(K, st.floats(-10.0, 10.0)), tol=real(0.0, 1.0)), dict(f=np.zeros(K), tol=1e-9), lambda r, kw: isinstance(r, bool)),
    "kr_dual_value": Row(
        kr_dual_value,
        dict(u=vector(K, st.floats(-10.0, 10.0)), polytope=POLYTOPES),
        dict(u=ALPHA, polytope=POLY),
        lambda r, kw: _finite(r[0], r[1]) and r[1].shape == (K,) and r[1][0] == 0.0,
    ),
    "restricted_polytope": Row(
        restricted_polytope,
        dict(base=POLYTOPES, alpha_hat=WEIGHTS, beta_hat=WEIGHTS, delta=DELTA),
        dict(base=POLY, alpha_hat=ALPHA, beta_hat=ALPHA[::-1], delta=0.0),
        lambda poly, kw: poly.K == K,
    ),
    "support_batch": Row(
        support_batch,
        dict(polytope=POLYTOPES, directions=DIRECTIONS),
        dict(polytope=POLY, directions=np.eye(K)),
        lambda out, kw: out.shape == (np.size(kw["directions"]) // K,) and _finite(out) and out.min() >= 0.0,
    ),
    "tv_distance": Row(tv_distance, dict(u=Domain(WEIGHTS.valid, _values(*_array_hostiles(K)[:-2])), v=WEIGHTS), dict(u=ALPHA, v=ALPHA[::-1]), lambda d, kw: 0.0 <= d <= 1.0 + 1e-12),
    "wasserstein_primal": Row(
        wasserstein_primal,
        dict(alpha=WEIGHTS, beta=WEIGHTS, cost=COSTS),
        dict(alpha=ALPHA, beta=ALPHA[::-1], cost=COST),
        lambda r, kw: _finite(r[0], r[1]) and r[0] >= 0.0 and r[1].shape == (K, K) and r[1].min() >= 0.0,
    ),
    # numlin
    "sym_eig": Row(
        sym_eig,
        dict(M=Domain(SYMMETRIC.valid.filter(lambda M: np.ndim(M) == 2), SYMMETRIC.hostile)),
        dict(M=np.eye(K)),
        lambda r, kw: _finite(r.eigenvalues, r.eigenvectors) and r.eigenvectors.shape == np.shape(kw["M"]),
    ),
    "pinv": Row(pinv, dict(M=SYMMETRIC), dict(M=np.eye(K)), _same_shape),
    "psd_sqrt": Row(psd_sqrt, dict(M=SYMMETRIC), dict(M=np.eye(K)), _same_shape),
    # estimators
    "CountVector": Row(
        CountVector,
        dict(counts=COUNTS),
        dict(counts=DOC_I.counts),
        lambda d, kw: d.counts.dtype.kind in "iu" and d.counts.ndim == 1 and d.N == int(d.counts.sum(dtype=object)) >= 1,
    ),
    "Method": Row(Method, dict(value=METHOD_VALUES), dict(value="mle"), lambda m, kw: isinstance(m, Method), dict(value="Method value")),
    "mle_weights": Row(mle_weights, dict(X=FREQ, A=TOPIC_ARGS, max_iter=count(0, 64)), dict(X=X, A=A, max_iter=100), _mle),
    "debias": Row(
        debias,
        dict(alpha_hat=WEIGHTS, X=FREQ, A_hat=TOPIC_ARGS),
        dict(alpha_hat=ALPHA, X=X, A_hat=A),
        lambda est, kw: _weight_estimate(est, False) and est.method is Method.DEBIASED,
    ),
    "wls_weights": Row(wls_weights, dict(X=FREQ, A_hat=TOPIC_ARGS), dict(X=X, A_hat=A), lambda est, kw: _weight_estimate(est, False) and abs(est.alpha.sum() - 1.0) <= 1e-6),
    "sigma_hat": Row(sigma_hat, dict(alpha=WEIGHTS, A_hat=TOPIC_ARGS), dict(alpha=ALPHA, A_hat=A), _covariance),
    "sigma_ls": Row(
        sigma_ls,
        dict(alpha=WEIGHTS, X_or_r=vector(P, st.floats(0.0, 1.0)), A_hat=TOPIC_ARGS),
        dict(alpha=ALPHA, X_or_r=X, A_hat=A),
        _covariance,
    ),
    # inference
    "LimitSampleSet": Row(
        LimitSampleSet,
        dict(samples=SAMPLES, delta=DELTA, seed=given_objects(0)),
        dict(samples=np.arange(5.0), delta=None, seed=0),
        lambda s, kw: s.M == np.size(kw["samples"]) and _finite(s.samples),
    ),
    "LimitSampleSet.quantile": Row(LIMITS.quantile, dict(gamma=UNIT), dict(gamma=0.5), lambda q, kw: 0.0 <= q <= 1.0),
    "confidence_interval": Row(
        confidence_interval,
        dict(W_tilde=Domain(st.floats(-1e3, 1e3), _values(*BOOLS, *NOT_NUMBERS, *NON_FINITE)), limits=LIMIT_SETS, level=UNIT, N_i=DOC_SIZE, N_j=DOC_SIZE),
        dict(W_tilde=0.3, limits=LIMITS, level=0.05, N_i=40, N_j=40),
        lambda ci, kw: _finite(ci.lower, ci.upper, ci.scale) and ci.lower <= ci.upper,
    ),
    "distance_estimate": Row(
        distance_estimate,
        dict(alpha_i=WEIGHTS, alpha_j=WEIGHTS, cost=COSTS),
        dict(alpha_i=ALPHA, alpha_j=ALPHA[::-1], cost=POLY),
        lambda d, kw: math.isfinite(d) and d >= 0.0,
    ),
    "effective_root_n": Row(effective_root_n, dict(N_i=DOC_SIZE, N_j=DOC_SIZE), dict(N_i=10, N_j=30), lambda s, kw: math.isfinite(s) and s >= 1.0),
    "theorem_delta": Row(
        theorem_delta,
        dict(N=DOC_SIZE, p=DOC_SIZE, n=optional(real(0.0, 1e6))),
        dict(N=100, p=P, n=None),
        lambda d, kw: math.isfinite(d) and d > 0.0,
    ),
    "ks_distance": Row(ks_distance, dict(samples_a=SAMPLES, samples_b=SAMPLES), dict(samples_a=[0.0, 1.0], samples_b=[0.5]), lambda d, kw: 0.0 <= d <= 1.0),
    "ks_two_sample_pvalue": Row(
        ks_two_sample_pvalue, dict(samples_a=SAMPLES, samples_b=SAMPLES), dict(samples_a=[0.0, 1.0], samples_b=[0.5]), lambda p, kw: 0.0 <= p <= 1.0
    ),
    "limit_sampler": Row(
        limit_sampler,
        dict(alpha_i=WEIGHTS, alpha_j=WEIGHTS, A_hat=TOPIC_ARGS, cost=COSTS, delta=DELTA, M=count(1, 64), seed=SEED),
        dict(alpha_i=ALPHA, alpha_j=ALPHA[::-1], A_hat=A, cost=POLY, delta=0.0, M=20, seed=0),
        _sample_set("M"),
        examples=30,
    ),
    "m_out_of_n_bootstrap": Row(
        m_out_of_n_bootstrap,
        dict(X_i=DOCS_I, X_j=DOCS_J, A_hat=TOPIC_ARGS, cost=COSTS, gamma=UNIT, B=count(1, 16), seed=SEED),
        dict(X_i=DOC_I, X_j=DOC_J, A_hat=A, cost=POLY, gamma=0.5, B=8, seed=0),
        _sample_set("B"),
        examples=20,
    ),
    "derivative_bootstrap": Row(
        derivative_bootstrap,
        dict(X_i=DOCS_I, X_j=DOCS_J, A_hat=TOPIC_ARGS, cost=COSTS, delta=DELTA, B=count(1, 16), seed=SEED),
        dict(X_i=DOC_I, X_j=DOC_J, A_hat=A, cost=POLY, delta=0.0, B=8, seed=0),
        _sample_set("B"),
        examples=20,
    ),
    # simulate
    "SimConfig": Row(
        SimConfig,
        dict(
            K=count(1, 8),
            p=count(8, 40, floor=1),
            N=count(1, 64),
            N_j=optional(count(1, 64)),
            tau=count(0, 1, 8),
            n_reps=count(1, 64),
            n_outer=count(1, 64),
            M=count(1, 64),
            B=count(1, 64),
            gamma=UNIT,
            delta=optional(real(0.0, 2.0), "rate"),
            metric=Domain(_values("tv", "l2"), METRIC.hostile),
            seed=count(0, 2**64, math.inf),
            design=Domain(_values("null", "alternative"), _values("both", "", None, 1, True)),
            methods=_choices(("plugin", "deriv_bs", "m_of_n")),
            estimators=_choices(("mle_debiased", "wls")),
            level=UNIT,
            quick=given_objects(False, True),
            workers=count(1, 4),
            a_noise=real(0.0, 1.0),
        ),
        {},
        lambda config, kw: isinstance(config, SimConfig),
    ),
    "gen_topic_matrix": Row(
        gen_topic_matrix,
        dict(p=count(8, 40, floor=1), K=count(1, 8, 40), seed=SEED),
        dict(p=P, K=K, seed=0),
        lambda T, kw: _topic_matrix(T, kw) and T.matrix.shape == (kw["p"], kw["K"]),
    ),
    "gen_weights": Row(
        gen_weights,
        dict(K=count(2, 8, floor=1), tau=count(0, 2, 8), seed=SEED),
        dict(K=K, tau=0, seed=0),
        lambda w, kw: _simplex(w.values) and w.values.shape == (kw["K"],) and (kw["tau"] == 0 or np.count_nonzero(w.values) <= kw["tau"]),
    ),
    "gen_document": Row(
        gen_document,
        dict(r=Domain(vector(P, st.floats(0.0, 1.0).filter(lambda v: v > 0.0)).valid, _values(*_array_hostiles(P)[:-2], -X, np.zeros(P))), N=count(1, 64), seed=SEED),
        dict(r=A.matrix @ ALPHA, N=40, seed=0),
        lambda d, kw: d.N == kw["N"] and d.counts.shape == (P,),
    ),
    "perturb_topics": Row(
        perturb_topics,
        dict(A=TOPIC_ARGS, noise=real(0.0, 1.0), seed=SEED),
        dict(A=A, noise=0.1, seed=0),
        lambda T, kw: _topic_matrix(T, kw) and T.matrix.shape == (P, K),
    ),
    "run_ci_experiment": Row(run_ci_experiment, *_RUN),
    "run_convergence_experiment": Row(run_convergence_experiment, *_RUN),
    "run_mle_vs_wls_experiment": Row(run_mle_vs_wls_experiment, *_RUN),
    "run_normality_experiment": Row(run_normality_experiment, *_RUN),
    "build_hash": Row(mixwass.build_hash, {}, {}, lambda h, kw: isinstance(h, str) and len(h) == 12, examples=1),
}
# The SimConfig row's defaults are the config's own.
ROWS["SimConfig"] = ROWS["SimConfig"]._replace(defaults={name: getattr(SimConfig(), name) for name in ROWS["SimConfig"].domains})

# Result records hold what the functions above return and check nothing; they are not doors.
RECORDS = {ConfidenceInterval, CovEstimate, ExperimentReport, SymMatrixResult, WeightEstimate}


# --- the rule ---------------------------------------------------------------------


def _hold(name: str, kwargs: dict, hostile: str | None, error: type = MixwassError, match: str | None = None) -> None:
    """Call row ``name`` and hold it to the rule; ``hostile`` names the hostile parameter, if any."""
    row = ROWS[name]
    try:
        result = row.fn(**kwargs)
    except MixwassError as exc:
        if hostile is not None:
            assert isinstance(exc, error), f"{name}({hostile}={kwargs[hostile]!r}) raised {type(exc).__name__}, not {error.__name__}"
            assert row.label(hostile) in str(exc), f"{name}({hostile}={kwargs[hostile]!r}) raised {exc!r}, which does not name {hostile}"
            if match is not None:
                with pytest.raises(error, match=match):
                    raise exc
        return
    assert hostile is None, f"{name} accepted the hostile {hostile}={kwargs[hostile]!r}"
    assert row.promise(result, kwargs), f"{name}({kwargs!r}) broke its promise: {result!r}"


def test_every_public_callable_has_a_row():
    # A new public name cannot bypass the door: it needs a row, or to be a record or an error type.
    public = {
        name
        for name, value in vars(mixwass).items()
        if not name.startswith("_") and callable(value) and getattr(value, "__module__", "").startswith("mixwass")
    }
    errors = {name for name in public if isinstance(getattr(mixwass, name), type) and issubclass(getattr(mixwass, name), MixwassError)}
    records = {name for name in public if getattr(mixwass, name) in RECORDS}
    assert public - errors - records == {name for name in ROWS if "." not in name}


def test_only_records_and_flags_are_drawn_valid_only():
    # A package-object parameter drawn from valid objects alone would leave its door untested.
    # ``quick`` takes any truth value, and a sample set keeps its seed as a record of its caller's stream.
    valid_only = {f"{name}.{p}" for name, row in ROWS.items() for p, d in row.domains.items() if d.hostile is None}
    assert valid_only == {"LimitSampleSet.seed", "SimConfig.quick"}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_row_keeps_its_promise_at_its_defaults(name):
    # The table names real parameters, and a call with its defaults is valid.
    row = ROWS[name]
    assert set(row.defaults) == set(row.domains) <= set(inspect.signature(row.fn).parameters)
    result = row.fn(**row.defaults)
    assert row.promise(result, row.defaults), f"{name} broke its promise at its defaults: {result!r}"


@pytest.mark.parametrize("name", sorted(ROWS))
def test_door_contract(name):
    # The valid call and each hostile parameter in turn get the row's draws:
    # one shared draw of the target left some parameters never drawn hostile.
    row = ROWS[name]
    targets = [None] + [p for p, d in row.domains.items() if d.hostile is not None]
    for target in targets if row.domains else []:

        @settings(max_examples=row.examples, derandomize=True, deadline=None, suppress_health_check=list(HealthCheck))
        @given(st.data())
        def hold(data):
            kwargs = {p: data.draw(domain.hostile if p == target else domain.valid, label=p) for p, domain in row.domains.items()}
            _hold(name, kwargs, target)

        hold()


# Seed cases: each failed at the parent of the shared checkers, with an
# untyped error, a silent NaN, a wrong result or a misnamed refusal.  The
# last group holds the cases of the refusal tests folded into the table.
SEED_CASES = [
    ("SimConfig", dict(delta=np.int64(-1)), "delta", InvalidParam, None),
    ("SimConfig", dict(delta=np.float32(-1)), "delta", InvalidParam, None),
    ("SimConfig", dict(gamma="x"), "gamma", InvalidParam, None),
    ("SimConfig", dict(level="x"), "level", InvalidParam, None),
    ("m_out_of_n_bootstrap", dict(gamma="x"), "gamma", InvalidParam, None),
    ("LimitSampleSet.quantile", dict(gamma="x"), "gamma", InvalidParam, None),
    ("theorem_delta", dict(N="a", p=10), "N", InvalidParam, None),
    ("effective_root_n", dict(N_i="a", N_j=10), "N_i", InvalidParam, None),
    ("gen_weights", dict(seed=-1), "seed", InvalidParam, None),
    ("gen_topic_matrix", dict(seed=-1), "seed", InvalidParam, None),
    ("gen_document", dict(seed=-1), "seed", InvalidParam, None),
    ("perturb_topics", dict(seed=-1), "seed", InvalidParam, None),
    ("gen_document", dict(r=np.full(P, np.nan)), "r", InvalidParam, None),
    ("gen_document", dict(r=-A.matrix @ ALPHA), "r", InvalidParam, None),
    ("limit_sampler", dict(M=2**70), "M", InvalidParam, None),
    ("sigma_hat", dict(alpha=np.full(K + 1, 1.0 / (K + 1))), "alpha", DimError, None),
    ("debias", dict(alpha_hat=np.full(K + 1, 1.0 / (K + 1))), "alpha_hat", DimError, None),
    ("wasserstein_primal", dict(alpha=np.array([np.nan, 0.5, 0.5])), "alpha", InvalidParam, None),
    ("ks_distance", dict(samples_a=np.ones((2, 2))), "samples_a", InvalidParam, None),
    ("sigma_ls", dict(X_or_r=X[:-1]), "X_or_r", DimError, None),
    ("CountVector", dict(counts=np.array([2**70], dtype=object)), "counts", InvalidParam, None),
    ("confidence_interval", dict(W_tilde=math.nan), "W_tilde", InvalidParam, None),
    ("tv_distance", dict(u=np.array([np.nan, 0.5, 0.5])), "u", InvalidParam, None),
    ("CountVector", dict(counts=np.array([True, False])), "counts", InvalidParam, None),
    ("debias", dict(alpha_hat=np.array([np.nan, 0.5, 0.5])), "alpha_hat", InvalidParam, None),
    ("sigma_hat", dict(alpha=np.array([np.nan, 0.5, 0.5])), "alpha", InvalidParam, None),
    # Folded: test_generators_refuse_a_bool_size_by_name (each raised numpy's untyped TypeError).
    ("gen_weights", dict(K=3, tau=True, seed=1), "tau", InvalidParam, "^tau must be"),
    ("gen_weights", dict(K=True, tau=0, seed=1), "K", InvalidParam, "^K must be an integer"),
    ("gen_topic_matrix", dict(p=40, K=True, seed=1), "K", InvalidParam, "^K must be an integer"),
    ("gen_topic_matrix", dict(p=40.5, K=3, seed=1), "p", InvalidParam, "^p must be an integer"),
    # Folded: test_a_bool_size_is_refused_by_name (theorem_delta(True, 30) returned 1.84 and
    # effective_root_n(True, True) 1.0).
    ("theorem_delta", dict(N=True, p=30), "N", InvalidParam, "^N must be a real number"),
    ("theorem_delta", dict(N=30, p=True), "p", InvalidParam, "^p must be a real number"),
    ("theorem_delta", dict(N=30, p=30, n=True), "n", InvalidParam, "^n must be a real number"),
    ("effective_root_n", dict(N_i=True, N_j=True), "N_i", InvalidParam, "^N_i must be a real number"),
    ("effective_root_n", dict(N_i=5, N_j=np.False_), "N_j", InvalidParam, "^N_j must be a real number"),
    # Package objects at their doors: each raised an untyped AttributeError, AxisError, IndexError or
    # ValueError, returned a NaN or an uncertified fit, or stored a bad value.  A raw metric table and a
    # polytope are valid costs of wasserstein_primal, which read neither.
    ("mle_weights", dict(A=_BAD_TOPICS), "A", InvalidSimplex, "^A: topic matrix has non-finite entries"),
    ("mle_weights", dict(A=A.matrix[:, 0]), "A", InvalidParam, "^A: topic matrix must be 2-d"),
    ("mle_weights", dict(A=np.full((P, K), "a")), "A", InvalidParam, "^A: topic matrix must be an array of real numbers"),
    ("mle_weights", dict(A=None), "A", InvalidParam, "^A: topic matrix must be an array of real numbers"),
    ("mle_weights", dict(A=2.0 * A.matrix), "A", InvalidSimplex, r"^A: topic matrix column \d sums to 2\.0"),
    ("wls_weights", dict(A_hat=A.matrix[:, 0]), "A_hat", InvalidParam, "^A_hat: topic matrix must be 2-d"),
    ("sigma_ls", dict(A_hat=None), "A_hat", InvalidParam, "^A_hat: topic matrix must be an array"),
    ("limit_sampler", dict(A_hat="x"), "A_hat", InvalidParam, "^A_hat: topic matrix must be an array"),
    ("cost_matrix", dict(A="x"), "A", InvalidParam, "^A: topic matrix must be an array"),
    ("wasserstein_primal", dict(cost=COST.entries), None, None, None),
    ("wasserstein_primal", dict(cost=POLY), None, None, None),
    ("wasserstein_primal", dict(cost=_NOT_METRIC), "cost", InvalidCost, "^cost: cost table violates the triangle inequality"),
    ("kr_dual_value", dict(polytope=COST), "polytope", InvalidParam, "^polytope must be a DualPolytope, not CostMatrix"),
    ("support_batch", dict(polytope=COST), "polytope", InvalidParam, "^polytope must be a DualPolytope, not CostMatrix"),
    ("restricted_polytope", dict(base=COST), "base", InvalidParam, "^base must be a DualPolytope, not CostMatrix"),
    ("run_ci_experiment", dict(config={"K": 3}), "config", InvalidParam, "^config must be a SimConfig, not dict"),
    ("run_convergence_experiment", dict(config={"K": 3}), "config", InvalidParam, "^config must be a SimConfig"),
    ("run_mle_vs_wls_experiment", dict(config={"K": 3}), "config", InvalidParam, "^config must be a SimConfig"),
    ("run_normality_experiment", dict(config={"K": 3}), "config", InvalidParam, "^config must be a SimConfig"),
    ("m_out_of_n_bootstrap", dict(X_i=DOC_I.counts), "X_i", InvalidParam, "^X_i must be a CountVector, not ndarray"),
    ("derivative_bootstrap", dict(X_j=DOC_J.counts), "X_j", InvalidParam, "^X_j must be a CountVector, not ndarray"),
    ("confidence_interval", dict(limits=np.ones(1000)), "limits", InvalidParam, "^limits must be a LimitSampleSet, not ndarray"),
    ("LimitSampleSet", dict(delta=-1.0), "delta", InvalidParam, "^delta must be finite and >= 0"),
    ("LimitSampleSet", dict(delta=True), "delta", InvalidParam, "^delta must be a real number"),
    # Found by drawing every hostile parameter of a row: a subnormal n overflowed p log L / (n N) to
    # inf, and so does a p near the float range, whose width is finite.
    ("theorem_delta", dict(N=1.0, p=6.0, n=5.461797373542294e-308), None, None, None),
    ("theorem_delta", dict(N=1.0, p=1e308, n=1.0), None, None, None),
    # DualPolytope.contains read f with np.asarray: a string raised numpy's untyped ValueError and a
    # NaN returned False.  An inf count raised a numpy RuntimeWarning before its refusal as a non-integer.
    ("DualPolytope.contains", dict(f="x"), "f", InvalidParam, "^f must be an array of real numbers"),
    ("DualPolytope.contains", dict(f=[0.0, math.nan, 0.0]), "f", InvalidParam, "^f must be finite"),
    ("CountVector", dict(counts=np.array([1.0, math.inf])), "counts", InvalidParam, "^counts must be finite"),
    # A float count past int64 raised numpy's cast RuntimeWarning, then was refused as negative.
    ("CountVector", dict(counts=np.array([1e300])), "counts", InvalidParam, "^counts must lie within int64"),
    ("CountVector", dict(counts=np.array([2.0**63])), "counts", InvalidParam, "^counts must lie within int64"),
    ("CountVector", dict(counts=np.array([1e19, 1.0])), "counts", InvalidParam, "^counts must lie within int64"),
    # A bare string was read letter by letter, an empty tuple ran no method, and a repeated one ran twice.
    ("SimConfig", dict(methods="plugin"), "methods", InvalidParam, "^methods must be a non-empty tuple"),
    ("SimConfig", dict(estimators=()), "estimators", InvalidParam, "^estimators must be a non-empty tuple"),
    ("SimConfig", dict(methods=("plugin", "plugin")), "methods", InvalidParam, "^methods repeats a name"),
]


@pytest.mark.parametrize("case", range(len(SEED_CASES)), ids=[f"{c[0]}-{c[2]}-{i}" for i, c in enumerate(SEED_CASES)])
def test_seed_case(case):
    name, values, hostile, error, match = SEED_CASES[case]
    _hold(name, {**ROWS[name].defaults, **values}, hostile, error, match)


def test_valid_sizes_keep_their_values():
    # The positive half of the folded bool-size test.
    assert effective_root_n(1, 1) == 1.0 and theorem_delta(30, 30, n=0) == theorem_delta(30, 30)
