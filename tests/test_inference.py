import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixwass import (
    CostMatrix,
    CountVector,
    DualPolytope,
    LimitSampleSet,
    TopicMatrix,
    confidence_interval,
    cost_matrix,
    derivative_bootstrap,
    distance_estimate,
    effective_root_n,
    gen_topic_matrix,
    ks_distance,
    ks_two_sample_pvalue,
    limit_sampler,
    m_out_of_n_bootstrap,
    mle_weights,
    restricted_polytope,
    sigma_hat,
    theorem_delta,
    wasserstein_primal,
)
from mixwass import estimators, inference, transport
from mixwass.inference import METHODS, _fit_pairs, _limit_draws, _plugin_limits
from mixwass.selfcheck import check_limit_batch_matches_single
from mixwass.errors import InvalidCost, InvalidParam
from mixwass.estimators import _sigma_batch
from mixwass.numlin import psd_sqrt


def small_instance(seed=0, K=4, p=40, N=400):
    rng = np.random.default_rng(seed)
    A = gen_topic_matrix(p, K, seed)
    cost = cost_matrix(A, "tv")
    alpha = rng.dirichlet(np.ones(K))
    r = A.matrix @ alpha
    X_i = CountVector(rng.multinomial(N, r))
    X_j = CountVector(rng.multinomial(N, r))
    return A, cost, alpha, X_i, X_j


# --- distance_estimate --------------------------------------------------------


def test_distance_zero_direction():
    A, cost, alpha, X_i, _ = small_instance()
    est = mle_weights(X_i.frequencies, A)
    assert distance_estimate(est, est, cost) == pytest.approx(0.0, abs=1e-12)


def test_distance_matches_primal_on_simplex_inputs():
    rng = np.random.default_rng(1)
    A = gen_topic_matrix(30, 3, 1)
    cost = cost_matrix(A, "tv")
    a = rng.dirichlet(np.ones(3))
    b = rng.dirichlet(np.ones(3))
    primal, _ = wasserstein_primal(a, b, cost)
    assert distance_estimate(a, b, cost) == pytest.approx(primal, abs=1e-8)


def test_distance_dirac_pair():
    A = gen_topic_matrix(20, 3, 2)
    cost = cost_matrix(A, "tv")
    e0, e2 = np.eye(3)[0], np.eye(3)[2]
    assert distance_estimate(e0, e2, cost) == pytest.approx(cost.entries[0, 2], abs=1e-9)


def test_raw_cost_table_is_refused_off_a_metric():
    # Its dual value would be the shortest-path cost 2.0; the primal is 5.0.
    with pytest.raises(InvalidCost):
        distance_estimate([1, 0, 0], [0, 0, 1], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])


# --- limit_sampler --------------------------------------------------------------


def test_sampler_degenerate_covariance_gives_zeros():
    # K = 1: the plug-in covariance is identically zero, so every draw is 0.
    A = TopicMatrix(np.array([[0.5], [0.3], [0.2]]))
    alpha = np.array([1.0])
    cost = cost_matrix(A, "tv")
    s = limit_sampler(alpha, alpha, A, cost, delta=None, M=50, seed=1)
    assert np.abs(s.samples).max() <= 1e-12


def test_sampler_wide_slab_matches_unrestricted_stream():
    A, cost, alpha, X_i, X_j = small_instance(seed=3)
    est_i = mle_weights(X_i.frequencies, A)
    est_j = mle_weights(X_j.frequencies, A)
    wide = limit_sampler(est_i, est_j, A, cost, delta=cost.max_entry() + 1.0, M=150, seed=9)
    plain = limit_sampler(est_i, est_j, A, cost, delta=None, M=150, seed=9)
    assert np.abs(wide.samples - plain.samples).max() <= 1e-12
    assert wide.zero_feasible and plain.zero_feasible


def test_sampler_k2_closed_form_reduction():
    # K = 2: the limit draw is sup_{|f_2| <= c} f_2 Z_2 = c |Z_2|, and Z_2
    # is reconstructible from the seeded stream: (M, K) normals times the
    # root with its rows centred.  Cross-check the sample set against an
    # independent c*|N(0, sigma)| simulation by KS.
    rng = np.random.default_rng(4)
    K, p, N = 2, 30, 500
    A = gen_topic_matrix(p, K, 4)
    cost = cost_matrix(A, "tv")
    c = cost.entries[0, 1]
    alpha = rng.dirichlet(np.ones(K))
    X = CountVector(rng.multinomial(N, A.matrix @ alpha))
    est = mle_weights(X.frequencies, A)
    M = 4000
    s = limit_sampler(est, est, A, cost, delta=None, M=M, seed=11)
    cov = 2.0 * sigma_hat(est, A).sigma
    root = psd_sqrt(cov)
    Z = np.random.default_rng(11).standard_normal(size=(M, K)) @ (root - root.mean(axis=1, keepdims=True))
    assert np.abs(s.samples - c * np.abs(Z[:, 1])).max() <= 1e-9
    sigma2 = np.sqrt(cov[1, 1])
    ref = c * np.abs(np.random.default_rng(12).normal(0, sigma2, size=M))
    assert ks_two_sample_pvalue(s.samples, ref) > 0.01


def test_sampler_reproducible_bitwise():
    A, cost, alpha, X_i, X_j = small_instance(seed=5)
    est_i = mle_weights(X_i.frequencies, A)
    est_j = mle_weights(X_j.frequencies, A)
    s1 = limit_sampler(est_i, est_j, A, cost, delta=0.0, M=100, seed=21)
    s2 = limit_sampler(est_i, est_j, A, cost, delta=0.0, M=100, seed=21)
    assert np.array_equal(s1.samples, s2.samples)


def test_sampler_nonneg_when_zero_feasible():
    A, cost, alpha, X_i, X_j = small_instance(seed=6)
    est_i = mle_weights(X_i.frequencies, A)
    est_j = mle_weights(X_j.frequencies, A)
    s = limit_sampler(est_i, est_j, A, cost, delta=None, M=300, seed=2)
    assert s.samples.min() >= 0.0


def test_sampler_validates_params():
    A, cost, alpha, X_i, X_j = small_instance(seed=7)
    est = mle_weights(X_i.frequencies, A)
    with pytest.raises(InvalidParam):
        limit_sampler(est, est, A, cost, delta=-0.1, M=10, seed=0)
    with pytest.raises(InvalidParam):
        limit_sampler(est, est, A, cost, delta=None, M=0, seed=0)


@pytest.mark.parametrize("K", [3, 5])
@pytest.mark.parametrize("delta", [None, 0.0, 0.05])
def test_batched_limit_law_equals_per_pair_limit_sampler(K, delta):
    # One batch of pairs gives each pair the bits of its own limit_sampler call.
    rng = np.random.default_rng(K)
    A = gen_topic_matrix(60, K, K)
    poly = DualPolytope(cost_matrix(A, "tv"))
    B, N = 6, 300
    alpha = rng.dirichlet(np.ones(K), size=2)
    ests = [np.stack([mle_weights(rng.multinomial(N, A.matrix @ a) / N, A).alpha for _ in range(B)]) for a in alpha]
    seeds = [int(s) for s in rng.integers(0, 2**31, size=B)]
    laws = _plugin_limits(ests[0], ests[1], A, poly, delta, 200, seeds)
    for b, law in enumerate(laws):
        one = limit_sampler(ests[0][b], ests[1][b], A, poly, delta=delta, M=200, seed=seeds[b])
        assert np.array_equal(law.samples, one.samples)
        assert (law.zero_feasible, law.meta, law.seed, law.delta) == (one.zero_feasible, one.meta, one.seed, one.delta)
    # Both sides' covariances come from one _sigma_batch call over the 2B
    # rows; the draws equal those from one call per side.
    polys = [restricted_polytope(poly, ai, aj, delta) for ai, aj in zip(ests[0], ests[1])]
    per_side = _limit_draws(_sigma_batch(ests[0], A), _sigma_batch(ests[1], A), polys, seeds, 200)
    assert np.array_equal(np.stack([law.samples for law in laws]), per_side)


@pytest.mark.parametrize("M", [1, 2, 300])
def test_limit_draws_batch_equals_batches_of_one(M):
    rng = np.random.default_rng(8)
    K = 4
    A = gen_topic_matrix(40, K, 8)
    base = DualPolytope(cost_matrix(A, "tv"))
    G = rng.normal(size=(5, K, K))
    sig = G @ G.transpose(0, 2, 1)
    polys = [base, base, restricted_polytope(base, *rng.dirichlet(np.ones(K), size=2), 0.0), base, base]
    seeds = [3, [1, 2], 3, 4, 5]
    draws = _limit_draws(sig, sig[::-1], polys, seeds, M)
    assert draws.shape == (5, M)
    for b in range(5):
        one = _limit_draws(sig[[b]], sig[::-1][[b]], [polys[b]], [seeds[b]], M)
        assert np.array_equal(draws[b], one[0])


def test_every_internal_support_call_passes_c_order_rows(monkeypatch):
    # The plug-in sampler, both bootstraps, the pair fit and the slab target
    # of restricted_polytope hand support_batch C-order (n, K) rows, the
    # layout it reads without a copy.
    calls = []
    real = transport.support_batch

    def checked(poly, directions):
        calls.append(directions.ndim == 2 and directions.flags.c_contiguous)
        return real(poly, directions)

    monkeypatch.setattr(inference, "support_batch", checked)
    monkeypatch.setattr(transport, "support_batch", checked)
    A, cost, alpha, X_i, X_j = small_instance(seed=3, K=5)
    poly = DualPolytope(cost)
    est_i, est_j = (mle_weights(X.frequencies, A).alpha for X in (X_i, X_j))
    X = np.stack([X_i.frequencies, X_j.frequencies])
    runs = {
        "plugin": lambda: limit_sampler(est_i, est_j, A, poly, delta=0.0, M=50, seed=1),
        "deriv_bs": lambda: derivative_bootstrap(X_i, X_j, A, poly, delta=0.0, B=20, seed=1),
        "m_of_n": lambda: m_out_of_n_bootstrap(X_i, X_j, A, poly, B=20, seed=1),
        "fit_pairs": lambda: _fit_pairs(X, X[::-1].copy(), X_i.N, X_j.N, A, poly),
        "restricted_polytope": lambda: restricted_polytope(poly, est_i, est_j, 0.0),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls and all(calls), name


@pytest.mark.parametrize("K", [3, 5, 8])
def test_limit_draws_are_orthogonal_to_one_and_free_of_the_anchor(monkeypatch, K):
    # The plug-in law lives on the plane orthogonal to 1, where sup_f f^T z
    # does not depend on which coordinate the polytope fixes at 0.  Every
    # draw of a batch meets |1^T z| <= 1e-12 ||z||, and with the topics
    # permuted so that another one is the anchor, the same draws give the
    # same values to within the rounding of the polytope's vertices.
    rng = np.random.default_rng(80 + K)
    A = gen_topic_matrix(12 * K, K, 80 + K)
    base = DualPolytope(cost_matrix(A, "tv"))
    sig = _sigma_batch(rng.dirichlet(np.ones(K), size=8), A)
    draws = []
    real = inference.support_batch

    def kept(poly, Z):
        draws.append(Z)
        return real(poly, Z)

    monkeypatch.setattr(inference, "support_batch", kept)
    values = _limit_draws(sig[:4], sig[4:], [base] * 4, [1, 2, 3, 4], 500)
    assert len(draws) == 4
    for Z in draws:
        assert np.all(np.abs(Z.sum(axis=1)) <= 1e-12 * np.linalg.norm(Z, axis=1))
    for anchor in range(1, K):
        perm = np.roll(np.arange(K), -anchor)  # topic `anchor` comes first
        moved = DualPolytope(CostMatrix(base.cost.entries[np.ix_(perm, perm)]))
        for Z, v in zip(draws, values):
            got = real(moved, Z[:, perm])
            assert np.all(np.abs(got - v) <= 1e-9 * np.maximum(1.0, np.abs(Z).sum(axis=1))), anchor


@pytest.mark.parametrize("K", [3, 5])
@pytest.mark.parametrize("delta", [None, 0.0, 0.05])
def test_every_interval_method_over_a_chunk_equals_its_public_function(K, delta):
    # plugin, deriv_bs and m_of_n through the table, over 8 fitted pairs,
    # give each pair the bits of its own single-pair public call.
    name, ok, detail = check_limit_batch_matches_single(seed=K, K=K, deltas=(delta,))
    assert ok, detail


def test_negative_seed_is_invalid_param():
    A, cost, alpha, X_i, X_j = small_instance(seed=16)
    est = mle_weights(X_i.frequencies, A)
    with pytest.raises(InvalidParam, match="seed"):
        limit_sampler(est, est, A, cost, delta=None, M=10, seed=-1)
    with pytest.raises(InvalidParam, match="seed"):
        derivative_bootstrap(X_i, X_j, A, cost, B=5, seed=-1)
    with pytest.raises(InvalidParam, match="seed"):
        m_out_of_n_bootstrap(X_i, X_j, A, cost, B=5, seed=-1)


# --- confidence_interval ---------------------------------------------------------


def test_ci_constant_samples_zero_width():
    samples = LimitSampleSet(np.full(500, 2.0), delta=None, seed=0, zero_feasible=True)
    ci = confidence_interval(0.4, samples, 0.05, 800, 800)
    assert ci.width == pytest.approx(0.0, abs=1e-15)
    assert ci.lower == pytest.approx(0.4 - 2.0 / np.sqrt(800), abs=1e-12)
    assert ci.scale == pytest.approx(np.sqrt(800 * 800 / 1600.0))


def test_ci_equal_sizes_match_root_n():
    # At N_i = N_j = N the quantile divisor is exactly sqrt(N).
    assert effective_root_n(1000, 1000) == pytest.approx(np.sqrt(1000.0))
    samples = LimitSampleSet(np.linspace(0, 1, 1000), delta=None, seed=0, zero_feasible=True)
    ci = confidence_interval(0.5, samples, 0.1, 1000, 1000)
    q_hi = samples.quantile(0.95)
    assert ci.lower == pytest.approx(0.5 - q_hi / np.sqrt(1000.0), abs=1e-12)


def test_ci_validation():
    samples = LimitSampleSet(np.arange(100, dtype=float), delta=None, seed=0)
    with pytest.raises(InvalidParam):
        confidence_interval(0.1, samples, 1.5, 100, 100)
    with pytest.raises(InvalidParam):
        # 100 samples cannot estimate 0.025/0.975 quantiles (needs >= 400).
        confidence_interval(0.1, samples, 0.05, 100, 100)


@pytest.mark.parametrize("N_i,N_j", [(0, 0), (-1, 1), (0, 10)])
def test_ci_refuses_document_sizes_below_one(N_i, N_j):
    # The scale used to be computed first: (0, 0) and (-1, 1) divided by zero.
    samples = LimitSampleSet(np.linspace(0, 1, 1000), delta=None, seed=0)
    with pytest.raises(InvalidParam, match="^N_i must be finite and >= 1"):
        confidence_interval(0.1, samples, 0.05, N_i, N_j)


@pytest.mark.parametrize("N", [0, -5])
def test_theorem_delta_refuses_document_sizes_below_one(N):
    # It used to raise ZeroDivisionError at N = 0 and a math-domain ValueError at N = -5.
    with pytest.raises(InvalidParam, match="^N must be finite and >= 1"):
        theorem_delta(N, 10)
    with pytest.raises(InvalidParam):
        theorem_delta(N, 10, n=50)
    assert theorem_delta(100, 10) == pytest.approx(np.sqrt(np.log(100) / 100))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_document_sizes_are_refused(bad):
    # N < 1 let NaN through: the sizes gave NaN, or theorem_delta ignored p.
    samples = LimitSampleSet(np.linspace(0, 1, 1000), delta=None, seed=0)
    for call in (
        lambda: effective_root_n(bad, 5),
        lambda: effective_root_n(5, bad),
        lambda: theorem_delta(bad, 10),
        lambda: theorem_delta(100, bad),
        lambda: theorem_delta(100, 10, n=bad),
        lambda: confidence_interval(0.1, samples, 0.2, bad, 5),
    ):
        with pytest.raises(InvalidParam, match="finite"):
            call()
    assert confidence_interval(0.1, samples, 0.2, 300, 500).scale == np.sqrt(300 * 500 / 800)


@pytest.mark.parametrize("N_i,N_j,h", [(1e308, 1e308, 5e307), (1, 1e308, 1.0), (1e200, 1e200, 5e199)])
def test_sizes_near_the_float_range_give_a_finite_scale(N_i, N_j, h):
    # 2 N_i N_j overflowed before its division: (1e308, 1e308) gave NaN and the others inf.
    samples = LimitSampleSet(np.linspace(0, 1, 1000), delta=None, seed=0)
    assert effective_root_n(N_i, N_j) == pytest.approx(np.sqrt(2.0 * h), rel=1e-15)
    ci = confidence_interval(0.1, samples, 0.2, N_i, N_j)
    assert ci.scale == pytest.approx(np.sqrt(h), rel=1e-15) and np.isfinite([ci.lower, ci.upper]).all()
    # Doubling is exact, so sizes whose product is finite keep the old bits.
    assert effective_root_n(300, 500) == np.sqrt(2.0 * 300 * 500 / 800)


def test_non_integer_monte_carlo_sizes_are_refused():
    A, cost, alpha, X_i, X_j = small_instance(seed=17)
    est = mle_weights(X_i.frequencies, A)
    with pytest.raises(InvalidParam, match="integer"):
        limit_sampler(est, est, A, cost, delta=None, M=2.5)
    with pytest.raises(InvalidParam, match="integer"):
        derivative_bootstrap(X_i, X_j, A, cost, B=2.5)
    with pytest.raises(InvalidParam, match="integer"):
        METHODS["m_of_n"].settings(B=10.0, gamma=0.5)
    # A bool is not a count: M=True used to crash with an untyped TypeError.
    with pytest.raises(InvalidParam, match="M must be an integer, not True"):
        limit_sampler(est, est, A, cost, delta=None, M=True)
    with pytest.raises(InvalidParam, match="B must be an integer, not False"):
        METHODS["m_of_n"].settings(B=False, gamma=0.5)
    assert limit_sampler(est, est, A, cost, delta=None, M=np.int64(3)).M == 3


def test_non_finite_samples_are_refused():
    with pytest.raises(InvalidParam, match="non-finite"):
        LimitSampleSet([1.0, float("nan")], None, 0)
    with pytest.raises(InvalidParam, match="finite"):
        ks_distance([1.0, float("nan")], [0.5])
    with pytest.raises(InvalidParam, match="finite"):
        ks_two_sample_pvalue([0.5], [1.0, float("inf")])


def test_ci_nested_levels():
    rng = np.random.default_rng(8)
    samples = LimitSampleSet(rng.exponential(size=2000), delta=None, seed=0, zero_feasible=True)
    outer = confidence_interval(0.3, samples, 0.05, 500, 500)
    inner = confidence_interval(0.3, samples, 0.5, 500, 500)
    assert outer.lower <= inner.lower <= inner.upper <= outer.upper


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 999))
def test_quantile_order_statistic_convention(idx):
    # q_gamma is the ceil(M*gamma)-th order statistic, 1-indexed.
    M = 1000
    samples = LimitSampleSet(np.arange(M, dtype=float), delta=None, seed=0)
    gamma = idx / M
    expected = np.ceil(M * gamma) - 1
    assert samples.quantile(gamma) == expected


def test_quantile_monotone_in_gamma():
    rng = np.random.default_rng(9)
    samples = LimitSampleSet(rng.normal(size=777), delta=None, seed=0)
    qs = [samples.quantile(g) for g in np.linspace(0.01, 0.99, 57)]
    assert np.all(np.diff(qs) >= 0)


# --- bootstraps ------------------------------------------------------------------


def test_m_of_n_single_replicate_deterministic():
    A, cost, alpha, X_i, X_j = small_instance(seed=10)
    s1 = m_out_of_n_bootstrap(X_i, X_j, A, cost, gamma=0.5, B=1, seed=33)
    s2 = m_out_of_n_bootstrap(X_i, X_j, A, cost, gamma=0.5, B=1, seed=33)
    assert s1.M == 1
    assert np.array_equal(s1.samples, s2.samples)
    assert s1.meta["m_i"] == int(np.ceil(X_i.N**0.5))


def test_both_bootstraps_count_their_uncertified_resample_fits(monkeypatch):
    A, cost, alpha, X_i, X_j = small_instance(seed=10)
    runs = {
        "deriv_bs": lambda: derivative_bootstrap(X_i, X_j, A, cost, delta=0.0, B=20, seed=1),
        "m_of_n": lambda: m_out_of_n_bootstrap(X_i, X_j, A, cost, B=20, seed=1),
    }
    assert all(run().meta["unconverged"] == 0 for run in runs.values())
    # Each fit batch gets its first row's certificate taken away: the pair's
    # own batch, and the resamples' 40 rows in two batches of 32 and 8.
    real = estimators._em_batch

    def one_uncertified(X, A, max_iter):
        out, iterations, converged, gaps = real(X, A, max_iter)
        converged[0] = False
        return out, iterations, converged, gaps

    monkeypatch.setattr(estimators, "_em_batch", one_uncertified)
    assert all(run().meta["unconverged"] == 2 for run in runs.values())


def test_m_of_n_validates_gamma():
    A, cost, alpha, X_i, X_j = small_instance(seed=11)
    with pytest.raises(InvalidParam):
        m_out_of_n_bootstrap(X_i, X_j, A, cost, gamma=1.0, B=5, seed=0)


def test_derivative_bootstrap_zero_direction_gives_zero():
    # With delta=None the polytope contains 0 and the sample of a zero
    # direction is exactly 0; identical resample streams give tiny values.
    A, cost, alpha, X_i, X_j = small_instance(seed=12)
    s = derivative_bootstrap(X_i, X_i, A, cost, delta=None, B=8, seed=5)
    # same document twice: directions are differences of i.i.d. refits
    assert s.samples.min() >= 0.0
    assert s.zero_feasible


def test_derivative_bootstrap_wide_slab_matches_unrestricted():
    A, cost, alpha, X_i, X_j = small_instance(seed=13)
    wide = derivative_bootstrap(X_i, X_j, A, cost, delta=cost.max_entry() + 1.0, B=20, seed=6)
    plain = derivative_bootstrap(X_i, X_j, A, cost, delta=None, B=20, seed=6)
    assert np.abs(wide.samples - plain.samples).max() <= 1e-12


def test_bootstrap_reuses_polytope_cache():
    A, cost, alpha, X_i, X_j = small_instance(seed=14)
    poly = DualPolytope(cost)
    s1 = m_out_of_n_bootstrap(X_i, X_j, A, poly, gamma=0.5, B=10, seed=1)
    s2 = m_out_of_n_bootstrap(X_i, X_j, A, cost, gamma=0.5, B=10, seed=1)
    assert np.allclose(s1.samples, s2.samples, atol=1e-12)


def test_delta0_restrictions_read_the_base_vertex_cache(monkeypatch):
    # An optimal face is a filter of its base polytope's vertex set: once
    # the base is enumerated, no delta=0 restriction enumerates again.
    A, cost, alpha, X_i, X_j = small_instance(seed=15, K=5)
    calls = []
    enumerate_vertices = transport._enumerate_vertices

    def counted(A_ub, b_ub):
        calls.append(A_ub.shape)
        return enumerate_vertices(A_ub, b_ub)

    monkeypatch.setattr(transport, "_enumerate_vertices", counted)
    base = DualPolytope(cost)
    base.vertices()
    assert len(calls) == 1
    est_i = mle_weights(X_i.frequencies, A)
    est_j = mle_weights(X_j.frequencies, A)
    limit_sampler(est_i, est_j, A, base, delta=0.0, M=50, seed=1)
    derivative_bootstrap(X_i, X_j, A, base, delta=0.0, B=10, seed=2)
    restricted_polytope(base, est_i.alpha, est_j.alpha, 0.0).vertices()
    assert len(calls) == 1


# --- KS --------------------------------------------------------------------------


def test_ks_identical_samples():
    x = np.arange(50, dtype=float)
    assert ks_distance(x, x) == 0.0
    assert ks_two_sample_pvalue(x, x) == 1.0


def test_ks_disjoint_supports():
    assert ks_distance([1.0, 2.0], [5.0, 6.0]) == 1.0


def test_ks_same_distribution_scale():
    rng = np.random.default_rng(15)
    a = rng.normal(size=10_000)
    b = rng.normal(size=10_000)
    d = ks_distance(a, b)
    assert d < 0.03  # O(1/sqrt(n)) scale for 10k vs 10k
    assert ks_two_sample_pvalue(a, b) > 0.01


def test_ks_detects_shift():
    rng = np.random.default_rng(16)
    a = rng.normal(size=5000)
    b = rng.normal(0.3, 1.0, size=5000)
    assert ks_two_sample_pvalue(a, b) < 1e-6


def test_ks_matches_scipy():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(17)
    a = rng.normal(size=257)
    b = rng.exponential(size=311)
    d = ks_distance(a, b)
    ref = ks_2samp(a, b, method="asymp")
    assert d == pytest.approx(ref.statistic, abs=1e-12)


def test_ks_empty_input():
    with pytest.raises(InvalidParam):
        ks_distance([], [1.0])


@pytest.mark.parametrize("name", ["plugin", "deriv_bs"])
def test_interval_settings_refuse_a_bad_slab_width(name):
    method = METHODS[name]
    values = dict(M=400, B=400, gamma=0.5)
    for delta in (float("nan"), float("inf"), -0.1):
        with pytest.raises(InvalidParam, match="delta must be finite and >= 0"):
            method.settings(0.05, **values, delta=delta)
    assert method.settings(0.05, **values, delta=None)["delta"] is None
    assert method.settings(0.05, **values, delta=0.0)["delta"] == 0.0
    # m-of-n reads no delta, so it does not check one.
    assert "delta" not in METHODS["m_of_n"].settings(0.05, **values, delta=float("nan"))


@pytest.mark.parametrize("delta", [True, False, np.True_])
def test_a_bool_slab_width_is_refused_by_name(delta):
    # A bool used to pass as a width: delta=True sampled the slab of width 1.0.
    A = gen_topic_matrix(30, 3, 1)
    cost, a = cost_matrix(A), np.full(3, 1.0 / 3)
    doc = CountVector(np.ones(30, dtype=np.int64))
    for call in (
        lambda: limit_sampler(a, a, A, cost, delta=delta, M=50, seed=1),
        lambda: derivative_bootstrap(doc, doc, A, cost, delta=delta, B=50, seed=1),
        lambda: restricted_polytope(DualPolytope(cost), a, a, delta),
        lambda: METHODS["plugin"].settings(0.05, M=400, delta=delta),
        lambda: METHODS["deriv_bs"].settings(0.05, B=400, delta=delta),
    ):
        with pytest.raises(InvalidParam, match="delta must be a real number"):
            call()
