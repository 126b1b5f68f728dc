import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import HalfspaceIntersection

from mixwass import (
    CostMatrix,
    DualPolytope,
    ProbVec,
    TopicMatrix,
    cost_matrix,
    distance_estimate,
    kr_dual_value,
    limit_sampler,
    restricted_polytope,
    support_batch,
    tv_distance,
    wasserstein_primal,
)
from mixwass import transport
from mixwass.errors import DimError, InvalidCost, InvalidParam, InvalidSimplex

from oracles import transport_min_by_vertex_enumeration


def random_instance(rng, K, metric="tv"):
    p = max(2 * K, 8)
    A = rng.uniform(size=(p, K))
    A /= A.sum(axis=0)
    return cost_matrix(TopicMatrix(A), metric)


# --- ProbVec / TopicMatrix -------------------------------------------------


def test_probvec_validation():
    v = ProbVec([0.25, 0.75])
    assert v.dim == 2
    with pytest.raises(InvalidSimplex):
        ProbVec([0.5, 0.6])
    with pytest.raises(InvalidSimplex):
        ProbVec([1.5, -0.5])


def test_topic_matrix_validation():
    A = TopicMatrix(np.eye(3))
    assert A.p == 3 and A.K == 3
    with pytest.raises(InvalidSimplex):
        TopicMatrix(np.array([[0.5, 0.2], [0.4, 0.8]]))


def test_empty_matrices_are_refused_with_a_typed_error():
    # They used to reach a reduction over no entries and raise numpy's ValueError.
    for shape in ((3, 0), (0, 2), (0, 0)):
        with pytest.raises(InvalidParam, match="nonempty"):
            TopicMatrix(np.zeros(shape))
    with pytest.raises(InvalidCost, match="nonempty"):
        CostMatrix(np.zeros((0, 0)))
    with pytest.raises(InvalidParam, match="^A: topic matrix must be 2-d and nonempty"):
        cost_matrix(np.zeros((3, 0)))


@pytest.mark.parametrize("shape", [(0, 2), (0, 0), (3,)])
def test_cost_matrix_refuses_a_topic_array_without_words_by_name(shape):
    # A (0, 2) array used to give a valid 2x2 all-zero CostMatrix.
    with pytest.raises(InvalidParam, match="^A: topic matrix must be 2-d and nonempty"):
        cost_matrix(np.zeros(shape))


# --- tv_distance ------------------------------------------------------------


def test_tv_trivial_cases():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_tv_derived_value():
    # 0.5 * (|0.25| + |0.25| + |0.5|) = 0.5, by direct l1 sum.
    assert tv_distance([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]) == pytest.approx(0.5, abs=1e-15)


def test_tv_dim_mismatch():
    with pytest.raises(DimError):
        tv_distance([1.0], [0.5, 0.5])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_tv_bounds_property(raw):
    u = np.array(raw) / np.sum(raw)
    v = np.roll(u, 1)
    d = tv_distance(u, v)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(tv_distance(v, u), abs=1e-15)


# --- cost_matrix ------------------------------------------------------------


def test_cost_identical_columns_zero():
    col = np.full(5, 0.2)
    A = TopicMatrix(np.column_stack([col, col, col]))
    C = cost_matrix(A, "tv")
    assert np.abs(C.entries).max() == 0.0


def test_cost_disjoint_tv():
    A = TopicMatrix(np.eye(2))
    C = cost_matrix(A, "tv")
    assert np.allclose(C.entries, [[0, 1], [1, 0]])


def test_cost_matches_pairwise_recomputation():
    rng = np.random.default_rng(5)
    A = rng.uniform(size=(12, 3))
    A /= A.sum(axis=0)
    C = cost_matrix(TopicMatrix(A), "tv")
    for k in range(3):
        for l in range(3):
            assert C.entries[k, l] == pytest.approx(tv_distance(A[:, k], A[:, l]), abs=1e-12)


def test_cost_triangle_inequality():
    rng = np.random.default_rng(6)
    for metric in ("tv", "l2"):
        A = rng.uniform(size=(20, 5))
        A /= A.sum(axis=0)
        C = cost_matrix(TopicMatrix(A), metric).entries
        for k in range(5):
            for l in range(5):
                for m in range(5):
                    assert C[k, l] <= C[k, m] + C[m, l] + 1e-10


def test_user_table_validation():
    ok = cost_matrix(TopicMatrix(np.eye(2)), np.array([[0.0, 0.3], [0.3, 0.0]]))
    assert ok.entries[0, 1] == 0.3
    with pytest.raises(InvalidCost):
        cost_matrix(TopicMatrix(np.eye(2)), np.array([[0.0, 0.3], [0.4, 0.0]]))
    with pytest.raises(InvalidCost):
        cost_matrix(TopicMatrix(np.eye(2)), np.array([[0.1, 0.3], [0.3, 0.0]]))


def _breaks_triangle(C) -> bool:
    K = len(C)
    return any(C[k, l] > C[k, m] + C[m, l] + 1e-10 for k in range(K) for l in range(K) for m in range(K))


def _table_case(K):
    """Upper triangle of a K x K table and two weight vectors."""
    n = K * (K - 1) // 2
    entries = st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 5.0]), min_size=n, max_size=n)
    weights = st.lists(st.floats(0.01, 1.0), min_size=K, max_size=K)
    return st.tuples(entries, weights, weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(_table_case))
@example(([1.0, 5.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]))
def test_user_table_primal_matches_dual_or_is_refused(case):
    upper, wa, wb = case
    K = len(wa)
    table = np.zeros((K, K))
    table[np.triu_indices(K, 1)] = upper
    table += table.T
    a = np.array(wa) / np.sum(wa)
    b = np.array(wb) / np.sum(wb)
    try:
        cost = cost_matrix(TopicMatrix(np.eye(K)), table)
    except InvalidCost:
        # Off a metric the dual is the shortest-path cost, not the primal.
        assert _breaks_triangle(table)
        return
    assert not _breaks_triangle(table)
    primal, _ = wasserstein_primal(a, b, cost)
    dual, _ = kr_dual_value(a - b, DualPolytope(cost))
    assert abs(primal - dual) <= 1e-8


# --- wasserstein_primal -----------------------------------------------------


def test_primal_equal_weights_zero():
    rng = np.random.default_rng(1)
    cost = random_instance(rng, 4)
    a = rng.dirichlet(np.ones(4))
    value, plan = wasserstein_primal(a, a, cost)
    assert value <= 1e-10
    assert np.abs(plan.sum(axis=1) - a).max() <= 1e-9


def test_primal_k2_closed_form():
    rng = np.random.default_rng(2)
    cost = random_instance(rng, 2)
    a = np.array([0.7, 0.3])
    b = np.array([0.2, 0.8])
    value, _ = wasserstein_primal(a, b, cost)
    assert value == pytest.approx(abs(a[0] - b[0]) * cost.entries[0, 1], abs=1e-10)


def test_primal_matches_vertex_enumeration_and_dual():
    rng = np.random.default_rng(3)
    cost = random_instance(rng, 3)
    a = np.array([0.2, 0.3, 0.5])
    b = np.array([0.5, 0.3, 0.2])
    value, plan = wasserstein_primal(a, b, cost)
    oracle = transport_min_by_vertex_enumeration(a, b, cost.entries)
    assert value == pytest.approx(oracle, abs=1e-9)
    dual, _ = kr_dual_value(a - b, DualPolytope(cost))
    assert value == pytest.approx(dual, abs=1e-8)
    assert np.abs(plan.sum(axis=1) - a).max() <= 1e-9
    assert np.abs(plan.sum(axis=0) - b).max() <= 1e-9
    assert (plan * cost.entries).sum() == pytest.approx(value, abs=1e-9)


def test_primal_matches_dual_near_zero_weights():
    # MLEs at the simplex boundary have entries far below HiGHS's default
    # 1e-7 feasibility tolerance; the primal LP and the dual LP must still
    # match the vertex dual.
    rng = np.random.default_rng(17)
    for _ in range(20):
        K = int(rng.integers(4, 9))
        cost = random_instance(rng, K)
        poly = DualPolytope(cost)

        def weights():
            w = rng.dirichlet(np.ones(K))
            tiny = rng.choice(K, size=K // 2, replace=False)
            w[tiny] = 10.0 ** rng.uniform(-12, -7, size=tiny.size)
            return w / w.sum()

        a, b = weights(), weights()
        primal, _ = wasserstein_primal(a, b, cost)
        dual = support_batch(poly, (a - b)[None, :])[0]
        lp_dual, _ = kr_dual_value(a - b, poly)
        assert abs(primal - dual) <= 1e-9
        assert abs(lp_dual - dual) <= 1e-9


def test_primal_dim_mismatch():
    cost = random_instance(np.random.default_rng(0), 3)
    with pytest.raises(DimError):
        wasserstein_primal([0.5, 0.5], [0.2, 0.3, 0.5], cost)


def test_primal_k1_degenerate():
    value, plan = wasserstein_primal([1.0], [1.0], CostMatrix(np.zeros((1, 1))))
    assert value == 0.0
    assert plan.shape == (1, 1)


# --- kr_dual_value ----------------------------------------------------------


def test_dual_zero_direction():
    cost = random_instance(np.random.default_rng(4), 4)
    value, f = kr_dual_value(np.zeros(4), DualPolytope(cost))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert f[0] == 0.0


def test_dual_k1_degenerate():
    poly = DualPolytope(CostMatrix(np.zeros((1, 1))))
    value, f = kr_dual_value(np.array([0.4]), poly)
    assert value == 0.0 and f.tolist() == [0.0]


def test_dual_strong_duality_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        K = int(rng.integers(2, 9))
        cost = random_instance(rng, K)
        a = rng.dirichlet(np.ones(K))
        b = rng.dirichlet(np.ones(K))
        primal, _ = wasserstein_primal(a, b, cost)
        dual, f = kr_dual_value(a - b, DualPolytope(cost))
        assert abs(primal - dual) <= 1e-8 * max(1.0, primal)
        assert f @ (a - b) == pytest.approx(dual, abs=1e-9)


def test_dual_inactive_facet_matches_unconstrained():
    rng = np.random.default_rng(9)
    cost = random_instance(rng, 4)
    a = rng.dirichlet(np.ones(4))
    b = rng.dirichlet(np.ones(4))
    base, _ = kr_dual_value(a - b, DualPolytope(cost))
    wide = restricted_polytope(DualPolytope(cost), a, b, cost.max_entry() + 1.0)
    constrained, _ = kr_dual_value(a - b, wide)
    assert constrained == pytest.approx(base, abs=1e-9)


def test_dual_argmax_feasible():
    cost = random_instance(np.random.default_rng(10), 5)
    rng = np.random.default_rng(11)
    poly = DualPolytope(cost)
    for _ in range(10):
        u = rng.normal(size=5)
        _, f = kr_dual_value(u, poly)
        assert poly.contains(f, tol=1e-7)


# --- restricted_polytope ----------------------------------------------------


def test_restricted_null_case_is_full_polytope():
    cost = random_instance(np.random.default_rng(12), 3)
    a = np.array([0.3, 0.3, 0.4])
    base = DualPolytope(cost)
    poly = restricted_polytope(base, a, a, 0.0)
    rng = np.random.default_rng(13)
    for _ in range(5):
        u = rng.normal(size=3)
        v1, _ = kr_dual_value(u, poly)
        v2, _ = kr_dual_value(u, base)
        assert v1 == pytest.approx(v2, abs=1e-8)


def test_restricted_maximizers_stay_feasible():
    rng = np.random.default_rng(14)
    for _ in range(10):
        cost = random_instance(rng, 3)
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        base = DualPolytope(cost)
        w, f = kr_dual_value(a - b, base)
        poly = restricted_polytope(base, a, b, 0.0)
        assert poly.contains(f, tol=1e-7)
        w2, _ = kr_dual_value(a - b, poly)
        assert w2 == pytest.approx(w, abs=1e-8)


def test_restricted_rejects_negative_delta():
    cost = random_instance(np.random.default_rng(15), 3)
    with pytest.raises(InvalidParam):
        restricted_polytope(DualPolytope(cost), np.full(3, 1 / 3), np.full(3, 1 / 3), -0.1)


@pytest.mark.parametrize("K", [5, 11])
@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_restricted_rejects_non_finite_delta(K, delta):
    # K=5 reads the vertex cache, K=11 is past the enumeration bound and
    # solves LPs: neither route may see a non-finite slab.
    rng = np.random.default_rng(16)
    base = DualPolytope(random_instance(rng, K))
    a, b = rng.dirichlet(np.ones(K), size=2)
    with pytest.raises(InvalidParam, match="finite"):
        restricted_polytope(base, a, b, delta)
    A = TopicMatrix(rng.dirichlet(np.ones(2 * K), size=K).T)
    with pytest.raises(InvalidParam, match="finite"):
        limit_sampler(a, b, A, base, delta=delta, M=10)


def test_restricted_without_delta_is_the_base_after_the_same_checks():
    base = DualPolytope(random_instance(np.random.default_rng(17), 3))
    a = np.full(3, 1 / 3)
    assert restricted_polytope(base, a, a, None) is base
    with pytest.raises(DimError):
        restricted_polytope(base, a, np.full(4, 0.25), None)


@pytest.mark.parametrize("K", [3, 5, 8])
def test_zero_feasible_agrees_with_containing_the_origin(K):
    # Differential: the polytope's own f = 0 test against its halfspaces,
    # over slabs whose w_hat falls on both sides of delta.
    rng = np.random.default_rng(90 + K)
    cost = random_instance(rng, K)
    base = DualPolytope(cost)
    seen = set()
    for delta in (None, 0.01, 0.05, cost.max_entry() + 1.0):
        for s in np.geomspace(1e-3, 1.0, 12):
            a, b = rng.dirichlet(np.ones(K), size=2)
            poly = restricted_polytope(base, a, (1 - s) * a + s * b, delta)
            assert poly.zero_feasible == poly.contains(np.zeros(K))
            seen.add(poly.zero_feasible)
    assert seen == {True, False}


@pytest.mark.parametrize("K", [5, 11])
def test_optimal_face_holds_the_origin_only_within_the_contains_tolerance(K):
    # At delta=0 the face pins f^T u to w_hat, so f = 0 is in it only for
    # |w_hat| <= CONTAINS_TOL; the facet slack of wider slabs does not apply.
    # K=5 reads its face from the vertex cache, K=11 pins it in the LP.
    rng = np.random.default_rng(60 + K)
    base = DualPolytope(random_instance(rng, K))
    a = rng.dirichlet(np.ones(K))
    direction = np.zeros(K)
    direction[[0, 1]] = 1.0, -1.0
    scale = float(support_batch(base, direction)[0])
    for w_hat in (0.0, 3e-9, 1.5e-8, 7.5e-8, 1e-6):
        poly = restricted_polytope(base, a, a - (w_hat / scale) * direction, 0.0)
        assert poly.slab[1] == pytest.approx(w_hat, rel=1e-6, abs=1e-15)
        assert poly.zero_feasible == poly.contains(np.zeros(K)) == (w_hat <= transport.CONTAINS_TOL)


@pytest.mark.parametrize("K", [5, 11])
def test_zero_feasible_decides_wide_slabs_as_contains_does(K):
    # A slab of width delta > 0 holds f = 0 within CONTAINS_TOL, as contains
    # tests its bounds; delta = w_hat - facet_slack(w_hat) - 5e-9 is inside
    # that tolerance band, -2e-8 outside it.
    rng = np.random.default_rng(110 + K)
    base = DualPolytope(random_instance(rng, K))
    a, b = rng.dirichlet(np.ones(K), size=2)
    w_hat = float(support_batch(base, a - b)[0])
    for gap, holds in ((-5e-9, True), (-2e-8, False), (0.0, True), (1e-6, True)):
        poly = restricted_polytope(base, a, b, w_hat - transport.facet_slack(w_hat) + gap)
        assert poly.zero_feasible == poly.contains(np.zeros(K)) == holds


@pytest.mark.parametrize("K", [5, 8, 11])
def test_support_values_are_floored_at_zero_where_the_origin_is_feasible(K):
    # K=5 takes the vertex-major product, K=8 the row-major one and K=11
    # one LP per direction, which gave -0.0 at u = 0.
    rng = np.random.default_rng(100 + K)
    cost = random_instance(rng, K)
    base = DualPolytope(cost)
    a, b = rng.dirichlet(np.ones(K), size=2)
    U = np.vstack([np.zeros(K), 1e-300 * rng.normal(size=(3, K)), rng.normal(size=(4, K))])
    for poly in (base, restricted_polytope(base, a, b, cost.max_entry() + 1.0), restricted_polytope(base, a, a, 0.0)):
        assert poly.zero_feasible
        values = np.concatenate([support_batch(poly, U), support_batch(poly, U[0])])
        assert values.min() >= 0.0 and not np.signbit(values).any()


# --- properties: convexity, Dirac agreement, upper bound, stability ---------


def test_joint_convexity():
    rng = np.random.default_rng(16)
    for _ in range(40):
        K = int(rng.integers(2, 7))
        cost = random_instance(rng, K)
        a, a2, b, b2 = (rng.dirichlet(np.ones(K)) for _ in range(4))
        lam = rng.uniform()
        mixed, _ = wasserstein_primal(lam * a + (1 - lam) * a2, lam * b + (1 - lam) * b2, cost)
        w1, _ = wasserstein_primal(a, b, cost)
        w2, _ = wasserstein_primal(a2, b2, cost)
        assert mixed <= lam * w1 + (1 - lam) * w2 + 1e-8


def test_dirac_agreement():
    rng = np.random.default_rng(17)
    cost = random_instance(rng, 5)
    for k in range(5):
        for l in range(5):
            e_k = np.eye(5)[k]
            e_l = np.eye(5)[l]
            w, _ = wasserstein_primal(e_k, e_l, cost)
            assert w == pytest.approx(cost.entries[k, l], abs=1e-9)


def test_tv_upper_bound():
    rng = np.random.default_rng(18)
    for _ in range(40):
        K = int(rng.integers(2, 8))
        cost = random_instance(rng, K)
        a = rng.dirichlet(np.ones(K))
        b = rng.dirichlet(np.ones(K))
        w, _ = wasserstein_primal(a, b, cost)
        assert w <= cost.max_entry() * tv_distance(a, b) + 1e-8


def test_support_function_stability():
    rng = np.random.default_rng(19)
    for _ in range(20):
        K = int(rng.integers(2, 6))
        cost = random_instance(rng, K)
        noise = rng.uniform(-1, 1, size=(K, K)) * 0.03
        noise = (noise + noise.T) / 2.0
        np.fill_diagonal(noise, 0.0)
        cost2 = CostMatrix(np.clip(cost.entries + noise, 0.0, None))
        eps = float(np.abs(cost.entries - cost2.entries).max())
        u = rng.normal(size=K)
        u /= max(np.abs(u).sum(), 1.0)
        v1, _ = kr_dual_value(u, DualPolytope(cost))
        v2, _ = kr_dual_value(u, DualPolytope(cost2))
        assert abs(v1 - v2) <= eps + 1e-8


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(20)
    for _ in range(25):
        K = int(rng.integers(2, 6))
        cost = random_instance(rng, K)
        a, b, c = (rng.dirichlet(np.ones(K)) for _ in range(3))
        w_ab, _ = wasserstein_primal(a, b, cost)
        w_ba, _ = wasserstein_primal(b, a, cost)
        w_ac, _ = wasserstein_primal(a, c, cost)
        w_cb, _ = wasserstein_primal(c, b, cost)
        assert abs(w_ab - w_ba) <= 1e-10 + 1e-8 * w_ab
        assert w_ab <= w_ac + w_cb + 1e-8


# --- vertex enumeration fast path -------------------------------------------


def test_vertices_match_lp():
    rng = np.random.default_rng(21)
    for K in (2, 3, 5, 7):
        cost = random_instance(rng, K)
        poly = DualPolytope(cost)
        V = poly.vertices()
        assert V is not None
        U = rng.normal(size=(20, K))
        fast = support_batch(poly, U)
        slow = np.array([kr_dual_value(u, poly)[0] for u in U])
        assert np.abs(fast - slow).max() <= 1e-8


@pytest.mark.parametrize("K", [2, 3, 5, 8])
def test_vertex_face_restriction_matches_lp(K):
    rng = np.random.default_rng(22)
    cost = random_instance(rng, K)
    a = rng.dirichlet(np.ones(K))
    b = rng.dirichlet(np.ones(K))
    base = DualPolytope(cost)
    for delta in (0.0, 0.05):
        poly = restricted_polytope(base, a, b, delta)
        U = rng.normal(size=(15, K))
        fast = support_batch(poly, U)
        slow = np.array([kr_dual_value(u, poly)[0] for u in U])
        # The facet slab carries FACET_SLACK_UNIT of feasibility slack, so
        # the engines agree to slack scale here, not LP scale.
        assert np.abs(fast - slow).max() <= 2e-5


@pytest.mark.parametrize("K", [3, 4, 5, 6, 7, 8, 10])
def test_blocked_vertex_product_equals_one_product(K, monkeypatch):
    # The vertex route runs its product in blocks; every row keeps the bits
    # of the unblocked product, at the default budget and at budgets of two
    # and three rows, which blocks of eight directions round up.  Up to
    # _VERTEX_MAJOR_MAX vertices (K <= 7) the product is V @ U^T.
    rng = np.random.default_rng(24 + K)
    poly = DualPolytope(random_instance(rng, K))
    V = poly.vertices()
    assert V is not None
    assert (V.shape[0] <= transport._VERTEX_MAJOR_MAX) == (K <= 7)
    U = rng.normal(size=(64 if K == 10 else 1000, K))
    want = (V @ U.T).max(axis=0) if K <= 7 else (U @ V.T).max(axis=1)
    assert np.array_equal(support_batch(poly, U), want)
    assert np.array_equal(support_batch(poly, np.asfortranarray(U)), want)
    for rows in (2, 3):
        monkeypatch.setattr(transport, "_VERTEX_BLOCK", rows * V.shape[0] + 1)
        assert np.array_equal(support_batch(poly, U), want)
    assert np.array_equal(support_batch(poly, U[:13]), want[:13])
    assert np.array_equal(support_batch(poly, U[:1]), want[:1])
    assert support_batch(poly, U[:0]).shape == (0,)


@pytest.mark.parametrize("K", [3, 4, 5, 6, 7, 8, 10])
def test_lone_direction_gets_its_bits_in_a_block(K):
    # A lone direction runs in a block of eight, itself repeated, not as a
    # matrix-vector product, so alone it gets the bits it gets among 300
    # directions.
    rng = np.random.default_rng(40 + K)
    poly = DualPolytope(random_instance(rng, K))
    U = rng.normal(size=(300, K))
    batch = support_batch(poly, U)
    assert all(support_batch(poly, u[None, :])[0] == w for u, w in zip(U, batch))


# (K, seed) of the base polytopes below.  At (8, 2), Qhull's vertices of
# the tv cost are not exactly symmetric, so that base keeps its full table.
_BASES = [(K, 130 + K) for K in range(2, 11)] + [(8, 2)]


@pytest.fixture(scope="module")
def base_polytope():
    """Base polytope of ``random_instance(default_rng(seed), K, metric)``,
    enumerated once per module."""
    cache = {}

    def get(K, seed, metric="tv"):
        if (K, seed, metric) not in cache:
            cache[K, seed, metric] = DualPolytope(random_instance(np.random.default_rng(seed), K, metric))
            cache[K, seed, metric].vertices()
        return cache[K, seed, metric]

    return get


def _table_rows(poly):
    """The support table's vertices as rows, and whether they are a half."""
    poly.vertices()
    T, half, axis = poly._table
    return (T if axis == 0 else T.T), half


def _row_set(rows):
    return {tuple(r) for r in rows}


@pytest.mark.parametrize("metric", ["tv", "l2"])
@pytest.mark.parametrize("K, seed", _BASES)
def test_support_table_is_a_half_exactly_when_the_vertices_are_symmetric(base_polytope, K, seed, metric):
    # A base polytope is centrally symmetric; its table is the half whose
    # leading free coordinate is positive when that half and its negation
    # are exactly the vertex set, and all of V otherwise.
    poly = base_polytope(K, seed, metric)
    V = poly.vertices()
    rows, half = _table_rows(poly)
    symmetric = _row_set(V) == _row_set(-V)
    assert half == symmetric
    if half:
        assert 2 * len(rows) == len(V) and _row_set(rows) | _row_set(-rows) == _row_set(V)
        assert all(r[np.flatnonzero(r)[0]] > 0 for r in rows)
    else:
        assert np.array_equal(rows, V)
    assert symmetric == ((K, seed, metric) != (8, 2, "tv"))


def test_views_keep_the_full_vertex_table(base_polytope):
    # A face and a slab that leaves the base as it is both read all of
    # their vertices with the plain maximum.
    base = base_polytope(5, 135)
    a, b = np.random.default_rng(140).dirichlet(np.ones(5), size=2)
    for delta in (0.0, base.cost.max_entry() + 1.0):
        poly = restricted_polytope(base, a, b, delta)
        rows, half = _table_rows(poly)
        assert not half and np.array_equal(rows, poly.vertices())


@pytest.mark.parametrize("K, seed", [b for b in _BASES if b[0] <= 8])
def test_support_table_gives_the_bits_of_the_full_vertex_product(base_polytope, K, seed):
    # Up to K=8 the half table gives every direction the bits of the
    # product over all vertices, alone and in any number of directions.
    # At K=8, 73 directions are a 72-row block and a tail padded to eight
    # rows: one 73-row block has other bits.
    poly = base_polytope(K, seed)
    V = poly.vertices()
    U = np.random.default_rng(150).normal(size=(1000, K))
    want = (V @ U.T).max(axis=0) if V.shape[0] <= transport._VERTEX_MAJOR_MAX else (U @ V.T).max(axis=1)
    want[want <= 0.0] = 0.0
    for n in (1, 2, 3, 5, 13, 17, 73, 100, 1000):
        assert np.array_equal(support_batch(poly, U[:n]), want[:n])


@pytest.mark.parametrize("K", [9, 10])
def test_support_table_is_batch_invariant_and_matches_the_lp_at_k9_and_k10(base_polytope, K):
    # At K=9 and 10 a value need not have the bits of the product over all
    # vertices, but it has the same bits alone and in any prefix of a
    # batch, across block boundaries; the half table is held to the LP.
    poly = base_polytope(K, 130 + K)
    assert poly._table[1]
    U = np.random.default_rng(160 + K).normal(size=(64, K))
    batch = support_batch(poly, U)
    assert all(support_batch(poly, u[None, :])[0] == w for u, w in zip(U, batch))
    for m in (1, 2, 3, 7, 8, 9, 17, 33, 63):
        assert np.array_equal(support_batch(poly, U[:m]), batch[:m])
    lp = np.array([kr_dual_value(u, poly)[0] for u in U[:20]])
    assert np.abs(batch[:20] - lp).max() <= 1e-9


def test_one_vertex_face_values_do_not_depend_on_the_rows_layout():
    # Over a one-vertex face the product is matrix-vector, whose bits
    # depend on the layout of its matrix; support_batch copies the
    # directions to C order first.
    rng = np.random.default_rng(45)
    K = 5
    base = DualPolytope(random_instance(rng, K))
    face = restricted_polytope(base, rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K)), 0.0)
    assert face.vertices().shape[0] == 1
    U = rng.normal(size=(300, K))
    values = support_batch(face, U)
    assert np.array_equal(support_batch(face, np.asfortranarray(U)), values)
    assert np.array_equal(support_batch(face, np.repeat(U, 2, axis=0)[::2]), values)
    assert all(support_batch(face, u)[0] == w for u, w in zip(U[:50], values))


def _chebyshev_seeded_vertices(A, b):
    center, radius = transport._chebyshev_center(A, b)
    assert radius > 1e-10
    hs = HalfspaceIntersection(np.column_stack([A, -b]), center)
    return np.unique(np.round(hs.intersections, 10), axis=0)


@pytest.mark.parametrize("K", range(2, 11))
def test_origin_seeded_enumeration_equals_chebyshev_seeded(K, monkeypatch):
    # Every base polytope of a metric with positive distances has f = 0
    # strictly inside, so Qhull is seeded there without the Chebyshev LP.
    rng = np.random.default_rng(70 + K)
    poly = DualPolytope(random_instance(rng, K))

    def no_lp(A, b):
        raise AssertionError("the Chebyshev LP ran for a base polytope")

    monkeypatch.setattr(transport, "_chebyshev_center", no_lp)
    V = poly.vertices()
    monkeypatch.undo()
    assert V is not None
    if K > 2:  # K = 2 is an interval, enumerated without Qhull
        W = _chebyshev_seeded_vertices(*poly.halfspaces())
        assert V.shape == (W.shape[0], K) and np.abs(V[:, 1:] - W).max() <= 1e-9


def test_slab_without_the_origin_keeps_the_chebyshev_seed(monkeypatch):
    rng = np.random.default_rng(81)
    K = 4
    base = DualPolytope(random_instance(rng, K))
    a, b = np.eye(K)[0], np.eye(K)[1]
    poly = restricted_polytope(base, a, b, 0.01)
    assert poly.slab[1] > 0.01 and not poly.contains(np.zeros(K))
    seeds = []
    real = transport._chebyshev_center
    monkeypatch.setattr(transport, "_chebyshev_center", lambda A, b: seeds.append(1) or real(A, b))
    V = poly.vertices()
    assert seeds == [1] and V is not None
    assert np.abs(V[:, 1:] - _chebyshev_seeded_vertices(*poly.halfspaces())).max() <= 1e-9


def test_lp_route_beyond_enumeration_bound():
    # K=11 has 184,756 vertices, too many to enumerate; every support
    # value then comes from the dual LP, which matches the primal.
    rng = np.random.default_rng(23)
    cost = random_instance(rng, 11)
    poly = DualPolytope(cost)
    assert poly.vertices() is None
    for _ in range(3):
        a = rng.dirichlet(np.ones(11))
        b = rng.dirichlet(np.ones(11))
        primal, _ = wasserstein_primal(a, b, cost)
        assert support_batch(poly, a - b)[0] == pytest.approx(primal, abs=1e-8)


@pytest.mark.parametrize("K", [3, 11])  # the vertex route and the LP route
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("coord", [0, 1])  # the anchored coordinate f_1 = 0, and a free one
def test_non_finite_direction_is_refused_on_every_route(K, bad, coord):
    # A NaN or inf direction used to give NaN on the vertex route, a value
    # that ignored coordinate 0 on the LP route, or scipy's untyped ValueError.
    poly = DualPolytope(random_instance(np.random.default_rng(K), K))
    u = np.zeros(K)
    u[1 - coord] = -0.5
    u[coord] = bad
    with pytest.raises(InvalidParam, match="must be finite"):
        support_batch(poly, np.vstack([np.zeros(K), u]))
    with pytest.raises(InvalidParam, match="must be finite"):
        kr_dual_value(u, poly)
    with pytest.raises(InvalidParam, match="must be finite"):
        distance_estimate(u, np.zeros(K), poly)
