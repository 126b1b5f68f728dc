import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixwass import (
    CountVector,
    debias,
    mle_weights,
    sigma_hat,
    sigma_ls,
    wls_weights,
)
from mixwass.errors import DegenerateSupport, InfeasibleRow, InvalidParam, SingularDesign, SingularInformation
from mixwass import estimators, numlin
from mixwass.transport import TopicMatrix
from mixwass.estimators import (
    EM_MAX_ITER,
    TOL_KKT,
    Method,
    _debias_batch,
    _em_batch,
    _grams,
    _kkt_gaps,
    _check_rows,
    _rowdot,
    _sigma_batch,
    _wls_operator,
    mle_objective,
)
from mixwass.selfcheck import check_batch_matches_single

from oracles import gaussian_elimination_solve, mle_k2_by_bisection, simplex_grid, squarem_mle


def random_topics(rng, p, K, low=0.0):
    A = rng.uniform(low, 1.0, size=(p, K))
    return A / A.sum(axis=0)


# --- mle_weights -------------------------------------------------------------


def test_mle_saturated_identity():
    X = np.array([0.2, 0.5, 0.3])
    est = mle_weights(X, np.eye(3))
    assert est.method is Method.MLE
    assert np.abs(est.alpha - X).max() <= 1e-9
    assert est.converged


def test_mle_noiseless_single_topic_matches_grid_oracle():
    rng = np.random.default_rng(0)
    A = random_topics(rng, 12, 3)
    X = A[:, 1]  # exact single-topic document
    # With a perfect fit the inactive coordinates decay like 1/t, so the
    # default iteration cap is far from enough to reach 1e-6 here.
    est = mle_weights(X, A, max_iter=1_000_000)
    assert np.abs(est.alpha - np.eye(3)[1]).max() <= 1e-6
    # Oracle: no simplex grid point beats the returned maximizer.
    best = max(mle_objective(g, X, A) for g in simplex_grid(3, 20))
    assert mle_objective(est.alpha, X, A) >= best - 1e-12


def test_mle_k2_matches_bisection_oracle():
    rng = np.random.default_rng(1)
    for trial in range(10):
        A = random_topics(rng, 15, 2)
        alpha = rng.dirichlet(np.ones(2))
        X = rng.multinomial(300, A @ alpha) / 300.0
        est = mle_weights(X, A)
        oracle = mle_k2_by_bisection(X, A)
        assert np.abs(est.alpha - oracle).max() <= 1e-6


def test_mle_objective_monotone_along_iterations():
    rng = np.random.default_rng(2)
    A = random_topics(rng, 30, 4)
    alpha = rng.dirichlet(np.ones(4))
    X = rng.multinomial(100, A @ alpha) / 100.0
    a = np.full(4, 0.25)
    prev = mle_objective(a, X, A)
    supp = X > 0
    As, Xs = A[supp], X[supp]
    for _ in range(500):
        a = a * (As.T @ (Xs / (As @ a)))
        cur = mle_objective(a, X, A)
        assert cur >= prev - 1e-12
        prev = cur


def test_mle_kkt_certificate():
    rng = np.random.default_rng(3)
    A = random_topics(rng, 40, 3, low=0.1)
    alpha = rng.dirichlet(np.full(3, 4.0))
    X = rng.multinomial(2000, A @ alpha) / 2000.0
    est = mle_weights(X, A)
    assert est.converged
    supp = X > 0
    g = A[supp].T @ (X[supp] / (A[supp] @ est.alpha))
    assert np.all(g <= 1.0 + 1e-6)
    active = est.alpha > 1e-8
    assert np.abs(g[active] - 1.0).max() <= 1e-6


def test_mle_infeasible_row():
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    A = A / A.sum(axis=0)  # second row is all zero
    X = np.array([0.5, 0.5])
    with pytest.raises(InfeasibleRow):
        mle_weights(X, A)
    with pytest.raises(InfeasibleRow):
        debias(np.array([0.5, 0.5]), X, A)
    with pytest.raises(InvalidParam, match="X has dim 1, topics have 2 rows"):
        debias(np.array([0.5, 0.5]), np.array([1.0]), A)


def test_mle_empty_support():
    with pytest.raises(InvalidParam):
        mle_weights(np.zeros(4), np.full((4, 2), 0.25))


def test_check_columns_raises_the_first_failing_columns_error():
    # Words 1 and 3 are zero under every topic.  Documents 0 and 1 are fine,
    # document 2 is the first to fail (on word 3), document 3 has empty support.
    A = np.array([[0.5, 0.2], [0.0, 0.0], [0.5, 0.8], [0.0, 0.0]])
    X = np.array([[0.5, 0.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.25, 0.25], [0.0, 0.0, 0.0, 0.0]])
    _check_rows(X[:2], TopicMatrix(A))
    with pytest.raises(InfeasibleRow, match="^word 3 has positive count"):
        _check_rows(X, TopicMatrix(A))
    with pytest.raises(InvalidParam, match="empty support"):
        _check_rows(X[[0, 3, 2]], TopicMatrix(A))
    X[2, 1] = 0.1  # the first bad word of the document is named
    with pytest.raises(InfeasibleRow, match="^word 1 has positive count"):
        _check_rows(X, TopicMatrix(A))
    with pytest.raises(InvalidParam, match="X has dim 3, topics have 4 rows"):
        _check_rows(X[:, :3], TopicMatrix(A))


_NOT_FREQUENCIES = {
    "nan": ([np.nan, 0.5, 0.3, 0.2], "X must be finite: it has a non-finite entry"),
    "inf": ([np.inf, 0.0, 0.0, 0.0], "X must be finite: it has a non-finite entry"),
    "-inf": ([-np.inf, 1.0, 0.0, 0.0], "X must be finite: it has a non-finite entry"),
    "negative": ([-0.1, 0.6, 0.3, 0.2], "X has a negative entry"),
    "sums-to-2": ([1.0, 0.5, 0.25, 0.25], "sums to 2.0, not 1"),
}


@pytest.mark.parametrize("case", sorted(_NOT_FREQUENCIES))
def test_every_entry_point_refuses_a_column_that_is_not_a_frequency_vector(case):
    X, message = np.array(_NOT_FREQUENCIES[case][0]), _NOT_FREQUENCIES[case][1]
    A = np.column_stack([[0.4, 0.3, 0.2, 0.1], np.full(4, 0.25)])
    fits = (lambda X: mle_weights(X, A), lambda X: wls_weights(X, A), lambda X: debias(np.array([0.5, 0.5]), X, A))
    for fit in fits:
        with pytest.raises(InvalidParam, match=message):
            fit(X)
        # Within TOL_KKT of one a column is a frequency vector, and its MLE
        # is certified; further off, no MLE could be.
        est = fit(np.array([0.4, 0.3, 0.2, 0.1 + 5e-10]))
        assert np.isfinite(est.alpha).all() and est.converged
        with pytest.raises(InvalidParam, match="sums to"):
            fit(np.array([0.4, 0.3, 0.2, 0.1 + 5e-9]))
    # A batch raises its first failing row's error.
    good, empty = np.full(4, 0.25), np.zeros(4)
    with pytest.raises(InvalidParam, match=message):
        _check_rows(np.stack([good, X, empty]), TopicMatrix(A))
    with pytest.raises(InvalidParam, match="empty support"):
        _check_rows(np.stack([good, empty, X]), TopicMatrix(A))


@pytest.mark.parametrize("max_iter", [np.inf, 2.7, -5, "3", 2**63, False, True])
def test_mle_refuses_a_max_iter_that_is_not_an_integer_at_least_zero(max_iter):
    X = np.array([0.4, 0.3, 0.2, 0.1])
    with pytest.raises(InvalidParam, match="max_iter"):
        mle_weights(X, np.eye(4), max_iter=max_iter)
    assert mle_weights(X, np.eye(4), max_iter=np.int64(3)).iterations <= 3


# --- debias -------------------------------------------------------------------


def test_debias_identity_is_noop():
    X = np.array([0.3, 0.4, 0.3])
    est = mle_weights(X, np.eye(3))
    deb = debias(est, X, np.eye(3))
    assert np.abs(deb.alpha - X).max() <= 1e-9
    assert deb.method is Method.DEBIASED


def test_debias_interior_fixed_point():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = random_topics(rng, 24, 4, low=0.2)
        alpha = rng.dirichlet(np.full(4, 5.0))
        X = A @ alpha  # noiseless, interior
        est = mle_weights(X, A)
        assert est.alpha.min() > 1e-8
        deb = debias(est, X, A)
        assert np.abs(deb.alpha - est.alpha).max() <= 1e-6


def test_debias_sum_to_one():
    rng = np.random.default_rng(5)
    A = random_topics(rng, 60, 5)
    alpha = rng.dirichlet(np.ones(5))
    for N in (50, 200, 1000):
        X = rng.multinomial(N, A @ alpha) / N
        deb = debias(mle_weights(X, A), X, A)
        assert abs(deb.alpha.sum() - 1.0) <= 1e-6


def test_debias_mean_recovers_sparse_truth():
    # Sparse truth, known topics: the debiased estimator is unbiased to
    # Monte Carlo accuracy while the restricted MLE is not at the boundary.
    rng = np.random.default_rng(6)
    K, p, N, reps = 5, 200, 500, 500
    A = random_topics(rng, p, K)
    alpha = np.zeros(K)
    support = [0, 2, 4]
    vals = rng.uniform(size=3)
    alpha[support] = vals / vals.sum()
    r = A @ alpha
    X = rng.multinomial(N, r, size=reps) / N
    # Boundary fits may hit the iteration cap; the estimator contract keeps
    # the best iterate, which is what the correction consumes.
    mle, _, _, _ = _em_batch(X, TopicMatrix(A))
    deb = _debias_batch(mle, X, TopicMatrix(A))
    mean = deb.mean(axis=0)
    stderr = deb.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - alpha) <= 3.0 * stderr + 1e-12)


# --- sigma_hat ----------------------------------------------------------------


def test_sigma_identity_multinomial_covariance():
    alpha = np.array([0.2, 0.3, 0.5])
    cov = sigma_hat(alpha, np.eye(3))
    expected = np.diag(alpha) - np.outer(alpha, alpha)
    assert np.abs(cov.sigma - expected).max() <= 1e-10


def test_sigma_annihilates_ones_and_rank():
    rng = np.random.default_rng(7)
    for _ in range(20):
        K = int(rng.integers(2, 7))
        A = random_topics(rng, 6 * K, K, low=0.05)
        alpha = rng.dirichlet(np.full(K, 3.0))
        cov = sigma_hat(alpha, A)
        assert np.abs(cov.sigma @ np.ones(K)).max() <= 1e-8
        assert cov.rank == K - 1
        assert np.linalg.eigvalsh(cov.sigma).min() >= -1e-8


def test_sigma_singular_information():
    # Two identical topics make the information matrix rank deficient.
    col = np.full(6, 1.0 / 6)
    A = np.column_stack([col, col])
    with pytest.raises(SingularInformation):
        sigma_hat(np.array([0.5, 0.5]), A)


def _sparse_topics(rng, p, K):
    """Topics where words 0-4 occur only under topic 0 and words 5-9 only
    under topic 1; every other word occurs under every topic."""
    A = rng.uniform(0.05, 1.0, size=(p, K))
    A[0:5, 1:] = 0.0
    A[5:10, [0, *range(2, K)]] = 0.0
    return A / A.sum(axis=0)


@pytest.mark.parametrize("K,p", [(3, 40), (5, 500), (8, 500), (10, 300)])
def test_sigma_batch_equals_sigma_hat_bit_for_bit(K, p):
    rng = np.random.default_rng(K)
    for A in (random_topics(rng, p, K), _sparse_topics(rng, p, K)):
        alphas = rng.dirichlet(np.ones(K), size=12)
        # In sparse topics, zero weight on topic 0 leaves words 0-4 at fitted
        # probability 0, and a weight of 1e-14 on topic 1 leaves words 5-9
        # below ZETA: those rows take the information matrix on their
        # support.
        alphas[3] = np.r_[0.0, 1e-14, np.full(K - 2, (1.0 - 1e-14) / (K - 2))]
        alphas[7] = np.r_[0.0, rng.dirichlet(np.ones(K - 1))]
        if A[0, 1] == 0.0:
            assert np.all((alphas[[3, 7]] @ A.T <= estimators.ZETA).any(axis=1))
        batch = _sigma_batch(alphas, TopicMatrix(A))
        for b in range(len(alphas)):
            assert np.array_equal(batch[b], sigma_hat(alphas[b], A).sigma), b
        assert np.array_equal(_sigma_batch(alphas[[7]], TopicMatrix(A))[0], batch[7])


def test_sigma_batch_raises_for_a_failing_column():
    rng = np.random.default_rng(1)
    K = 4
    A = _sparse_topics(rng, 30, K)
    alphas = rng.dirichlet(np.ones(K), size=3)
    alphas[1] = np.eye(K)[0]  # words 5-9 drop out, the shared words keep full rank
    assert np.all(np.isfinite(_sigma_batch(alphas, TopicMatrix(A))))
    col = np.full(6, 1.0 / 6)
    dup = np.column_stack([col, col])
    with pytest.raises(SingularInformation):
        _sigma_batch(np.array([[0.3, 0.7], [0.5, 0.5]]), TopicMatrix(dup))
    with pytest.raises(DegenerateSupport):
        _sigma_batch(np.array([[0.5, 0.5], [0.0, 0.0]]), TopicMatrix(np.eye(2)))


def test_debias_batch_refuses_a_column_without_support():
    # A row no word can carry fails the batch, as ``debias`` fails it.
    X = np.full((2, 2), 0.5)
    with pytest.raises(DegenerateSupport, match="no word has fitted probability"):
        _debias_batch(np.array([[0.5, 0.5], [0.0, 0.0]]), X, TopicMatrix(np.eye(2)))
    with pytest.raises(DegenerateSupport, match="no word has fitted probability"):
        debias(np.zeros(2), X[0], np.eye(2))


# --- two-row kernels ---------------------------------------------------------


@pytest.mark.parametrize("K", [2, 5, 8, 13])
def test_rowdot_and_grams_give_each_row_its_bits_in_any_batch(K):
    # Every row runs in a two-row block, an odd last one doubled, so a row
    # gets the same bits at any batch size and in any position.
    rng = np.random.default_rng(60 + K)
    A = random_topics(rng, 500, K)
    AA = TopicMatrix(A).outers
    W = rng.uniform(size=(64, 500))
    x = rng.dirichlet(np.ones(K), size=64)
    full = (_rowdot(W, A), _rowdot(x, np.ascontiguousarray(A.T)), _grams(W, AA))
    assert np.array_equal(full[2], full[2].transpose(0, 2, 1))
    for B in (1, 2, 3, 7, 32, 64):
        for s in sorted({0, 1, 5, 64 - B}):
            rows = slice(s, s + B)
            assert np.array_equal(_rowdot(W[rows], A), full[0][rows]), (B, s)
            assert np.array_equal(_rowdot(x[rows], np.ascontiguousarray(A.T)), full[1][rows]), (B, s)
            assert np.array_equal(_grams(W[rows], AA), full[2][rows]), (B, s)
    assert np.abs(full[2] - np.einsum("bj,jk,jl->bkl", W, A, A)).max() <= 1e-12 * np.abs(full[2]).max()


def test_sigma_batch_matches_the_support_restricted_formula():
    # Off the support (fitted probability <= ZETA) a word gets weight 0 in
    # the one stacked Gram; the result is the information matrix summed
    # over the support alone, inverted at rank.
    rng = np.random.default_rng(9)
    K = 5
    A = _sparse_topics(rng, 200, K)
    alphas = rng.dirichlet(np.ones(K), size=4)
    alphas[1] = np.r_[0.0, 1e-14, np.full(K - 2, (1.0 - 1e-14) / (K - 2))]
    alphas[2] = np.r_[0.0, rng.dirichlet(np.ones(K - 1))]
    batch = _sigma_batch(alphas, TopicMatrix(A))
    for b in (1, 2):
        a = alphas[b]
        r = A @ a
        J = r > estimators.ZETA
        assert not J.all()
        AJ = A[J]
        H = (AJ / r[J][:, None]).T @ AJ
        want = numlin.inv_at_rank(H) - np.outer(a, a)
        assert np.abs(batch[b] - (want + want.T) / 2.0).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_topic_matrix_keeps_one_outer_table_for_every_fit():
    rng = np.random.default_rng(10)
    K = 4
    A = random_topics(rng, 80, K)
    T = TopicMatrix(A)
    X = rng.multinomial(400, A @ rng.dirichlet(np.ones(K))) / 400.0
    table = T.outers
    assert not table.flags.writeable and T.outers is table
    est = mle_weights(X, T)
    assert np.array_equal(est.alpha, mle_weights(X, A).alpha)
    assert np.array_equal(debias(est, X, T).alpha, debias(est, X, A).alpha)
    assert np.array_equal(sigma_hat(est, T).sigma, sigma_hat(est, A).sigma)
    assert T.outers is table


def test_topic_matrix_keeps_its_wls_operator_and_dead_words():
    rng = np.random.default_rng(10)
    K = 4
    A = random_topics(rng, 80, K)
    A[[3, 17]] = 0.0  # two words no topic emits
    A /= A.sum(axis=0)
    T = TopicMatrix(A)
    X = rng.multinomial(400, A @ rng.dirichlet(np.ones(K))) / 400.0
    (keep, Aplus), dead = T.wls, T.dead
    assert T.wls[1] is Aplus and T.dead is dead and not (Aplus.flags.writeable or dead.flags.writeable)
    assert np.array_equal(dead, [3, 17]) and np.array_equal(keep, np.setdiff1d(np.arange(80), dead))
    # Every reader of a cache gets the bits of an array, typed afresh at each door.
    est = wls_weights(X, T)
    assert np.array_equal(est.alpha, wls_weights(X, A).alpha)
    assert np.array_equal(sigma_ls(est, X, T).sigma, sigma_ls(est, X, A).sigma)
    assert np.array_equal(mle_weights(X, T).alpha, mle_weights(X, A).alpha)
    bad = X.copy()
    bad[17], bad[0] = 0.01, bad[0] - 0.01
    for topics in (T, A):
        with pytest.raises(InfeasibleRow, match="word 17 "):
            mle_weights(bad, topics)
    # A singular design is kept too, and still refused by the WLS estimator.
    A[:, 3] = A[:, 2]
    D = TopicMatrix(A)
    assert D.wls[1] is None and D.wls is D.wls
    with pytest.raises(SingularDesign):
        wls_weights(X, D)


def test_em_batch_with_duplicate_topics_keeps_the_uniform_start(monkeypatch):
    # The WLS design is singular, so every row starts where it always did,
    # and the fits keep the bits of the uniform start.
    rng = np.random.default_rng(13)
    K = 4
    A = random_topics(rng, 100, K)
    A[:, 3] = A[:, 2]
    XB = _documents(rng, A, K, 0, 8)
    T = TopicMatrix(A)
    uniform = np.full((8, K), 1.0 / K)
    assert np.array_equal(estimators._start(XB, np.ascontiguousarray(A.T), T), uniform)
    fits = [_em_batch(XB, T), _em_batch(XB, TopicMatrix(A))]
    monkeypatch.setattr(estimators, "_start", lambda X, AT, A: np.full((len(X), AT.shape[0]), 1.0 / AT.shape[0]))
    ref = _em_batch(XB, TopicMatrix(A))
    assert ref[2].all()
    for fit in fits:
        for got, want in zip(fit, ref):
            assert np.array_equal(got, want)


def test_em_batch_start_falls_back_where_the_clipped_wls_point_misses_a_counted_word():
    # Word 0 is under topic 0 alone and document 0 counts it once, but WLS
    # weighs topic 0 below zero: the clipped point gives word 0 probability 0.
    rng = np.random.default_rng(0)
    K = 3
    A = random_topics(rng, 30, K)
    A[0] = [0.02, 0.0, 0.0]
    A /= A.sum(axis=0)
    counts = rng.multinomial(99, A @ np.r_[0.0, 0.5, 0.5])
    counts[0] += 1
    XB = np.stack([counts / 100.0, rng.multinomial(100, A @ np.full(K, 1.0 / K)) / 100.0])
    AT = np.ascontiguousarray(A.T)
    wls = estimators._wls_batch(XB, TopicMatrix(A))
    assert wls[0, 0] < 0.0 and (wls[1] > 0.0).all()
    start = estimators._start(XB, AT, TopicMatrix(A))
    assert np.array_equal(start[0], np.full(K, 1.0 / K))
    assert np.array_equal(start[1], wls[1] / wls[1].sum())
    fit, iters, conv, gaps = _em_batch(XB, TopicMatrix(A))
    assert conv.all() and fit[0, 0] > 0.0 and np.array_equal(gaps, _kkt_gaps(XB, TopicMatrix(A), fit))
    single = _em_batch(XB[[0]], TopicMatrix(A))
    assert np.array_equal(single[0][0], fit[0]) and single[1][0] == iters[0]


@pytest.mark.parametrize("K", [5, 8])
def test_em_batch_certifies_in_at_most_three_and_a_half_newton_steps_on_average(K):
    # A count, not a timing: from the uniform point these documents took
    # 4.08 (K=5) and 5.23 (K=8) Newton steps on average.
    rng = np.random.default_rng(23)
    A = random_topics(rng, 500, K)
    XB = np.concatenate([_documents(rng, A, K, tau, 32) for tau in (0, 3)])
    fit, iters, conv, _ = _em_batch(XB, TopicMatrix(A))
    assert conv.all() and np.all(iters <= estimators._NEWTON_MAX_STEPS)
    assert iters.mean() <= 3.5


def test_em_batch_runs_the_retry_round_only_for_columns_that_need_it(monkeypatch):
    rng = np.random.default_rng(12)
    K = 5
    A = random_topics(rng, 200, K)
    X = _documents(rng, A, K, 3, 8)
    calls = {"_em": [], "_newton_finish": []}
    for name, rows in calls.items():
        real = getattr(estimators, name)

        def recorded(X, *args, _real=real, _rows=rows):
            _rows.append(X.copy())
            return _real(X, *args)

        monkeypatch.setattr(estimators, name, recorded)
    fit, iters, conv, _ = _em_batch(X, TopicMatrix(A))
    # Newton from the clipped WLS point certifies every document: no EM.
    assert conv.all() and np.all(iters <= estimators._NEWTON_MAX_STEPS)
    assert [len(x) for x in calls["_newton_finish"]] == [8] and calls["_em"] == []
    # With two steps per round the first round leaves some documents
    # uncertified; exactly those, and in order, run EM.
    monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", 2)
    AT, AA = np.ascontiguousarray(A.T), TopicMatrix(A).outers
    _, first, first_conv, _ = estimators._newton_finish(X, A, AT, AA, estimators._start(X, AT, TopicMatrix(A)), np.full(8, 2))
    assert estimators._NEWTON_MAX_STEPS == 2 and 0 < np.count_nonzero(first_conv) < 8
    for rows in calls.values():
        rows.clear()
    fit, iters, conv, _ = _em_batch(X, TopicMatrix(A))
    assert np.array_equal(calls["_newton_finish"][0], X)
    assert np.array_equal(calls["_em"][0], X[~first_conv])
    assert np.all(iters[first_conv] == first[first_conv]) and np.all(iters[~first_conv] > 2)
    # No document has budget left after the first round: no EM either.
    for rows in calls.values():
        rows.clear()
    _, iters, conv, _ = _em_batch(X, TopicMatrix(A), max_iter=2)
    assert calls["_em"] == [] and len(calls["_newton_finish"]) == 1
    assert np.array_equal(conv, first_conv) and np.all(iters == first)


# --- wls ---------------------------------------------------------------------


def test_wls_identity():
    X = np.array([0.1, 0.6, 0.3])
    est = wls_weights(X, np.eye(3))
    assert np.abs(est.alpha - X).max() <= 1e-12
    assert est.method is Method.WLS


def test_wls_noiseless_exact_recovery():
    rng = np.random.default_rng(8)
    A = random_topics(rng, 30, 4)
    alpha = rng.dirichlet(np.ones(4))
    est = wls_weights(A @ alpha, A)
    assert np.abs(est.alpha - alpha).max() <= 1e-10


def test_wls_matches_gaussian_elimination_oracle():
    rng = np.random.default_rng(9)
    A = random_topics(rng, 25, 4)
    X = rng.multinomial(500, A @ rng.dirichlet(np.ones(4))) / 500.0
    est = wls_weights(X, A)
    d = A.sum(axis=1)
    B = A / d[:, None]
    oracle = gaussian_elimination_solve(A.T @ B, B.T @ X)
    assert np.abs(est.alpha - oracle).max() <= 1e-9


def test_wls_sums_to_one():
    rng = np.random.default_rng(10)
    for _ in range(10):
        K = int(rng.integers(2, 7))
        A = random_topics(rng, 8 * K, K)
        X = rng.multinomial(100, A @ rng.dirichlet(np.ones(K))) / 100.0
        est = wls_weights(X, A)
        assert abs(est.alpha.sum() - 1.0) <= 1e-8


# --- sigma_ls ------------------------------------------------------------------


def test_sigma_ls_identity():
    r = np.array([0.25, 0.25, 0.5])
    cov = sigma_ls(r, r, np.eye(3))
    expected = np.diag(r) - np.outer(r, r)
    assert np.abs(cov.sigma - expected).max() <= 1e-12


def test_sigma_ls_psd_after_clipping():
    rng = np.random.default_rng(11)
    for _ in range(100):
        K = int(rng.integers(2, 6))
        A = random_topics(rng, 6 * K, K)
        X = rng.multinomial(200, A @ rng.dirichlet(np.ones(K))) / 200.0
        est = wls_weights(X, A)
        cov = sigma_ls(est, X, A)
        assert np.linalg.eigvalsh(cov.sigma).min() >= -1e-8


# --- batched internals ---------------------------------------------------------


@pytest.mark.parametrize("K", [3, 5, 8])
def test_fit_path_gives_every_document_the_single_document_bits(K):
    name, ok, detail = check_batch_matches_single(Ks=(K,))
    assert ok, detail


def test_batch_paths_match_single():
    rng = np.random.default_rng(12)
    K, p, B = 4, 50, 12
    A = random_topics(rng, p, K)
    alpha = rng.dirichlet(np.ones(K))
    X = rng.multinomial(300, A @ alpha, size=B) / 300.0
    mle_b, iters, conv, _ = _em_batch(X, TopicMatrix(A))
    assert conv.all()
    deb_b = _debias_batch(mle_b, X, TopicMatrix(A))
    # The drivers' batched WLS: the operator applied to all rows at once.
    keep, Aplus = _wls_operator(TopicMatrix(A))
    wls_b = X[:, keep] @ Aplus.T
    for b in range(B):
        single = mle_weights(X[b], A)
        assert np.abs(single.alpha - mle_b[b]).max() <= 1e-8
        deb_single = debias(single, X[b], A)
        assert np.abs(deb_single.alpha - deb_b[b]).max() <= 1e-8
        assert np.abs(wls_weights(X[b], A).alpha - wls_b[b]).max() <= 1e-12


def test_debias_batch_bits_do_not_depend_on_batch_size():
    rng = np.random.default_rng(22)
    for K, p in [(3, 40), (5, 200), (8, 500), (10, 500)]:
        A = random_topics(rng, p, K)
        X = rng.multinomial(300, A @ rng.dirichlet(np.ones(K)), size=40) / 300.0
        mle, _, _, _ = _em_batch(X, TopicMatrix(A))
        whole = _debias_batch(mle, X, TopicMatrix(A))
        for size in (1, 3):
            for s in range(0, 40, size):
                rows = slice(s, s + size)
                assert np.array_equal(_debias_batch(mle[rows], X[rows], TopicMatrix(A)), whole[rows])


def _em_first(X, A, budget):
    """The EM-first path, the reference for the rows the first Newton
    round hands over: EM from the uniform point to ``EM_TOL``, a Newton
    polish and, for the rows still uncertified with budget left, EM on
    from the EM stop to the tight step and one more polish, each row
    within its ``budget``.  Returns (alphas (B, K), converged (B,))."""
    A = np.ascontiguousarray(A)  # the kernel's layout, so its products' bits
    AT, AA = np.ascontiguousarray(A.T), TopicMatrix(A).outers
    (B, K), polish = (X.shape[0], A.shape[1]), estimators._NEWTON_MAX_STEPS
    start, iters = estimators._em(X, A, AT, np.full((B, K), 1.0 / K), estimators.EM_TOL, budget)
    out, used, conv, _ = estimators._polish(X, A, AT, AA, start, budget - iters)
    iters += used
    r = ~conv & (iters < budget)
    left = budget[r] - iters[r]
    x, used = estimators._em(X[r], A, AT, start[r], estimators._EM_TIGHT_TOL, np.maximum(left - polish, 0))
    out[r], _, conv[r], _ = estimators._polish(X[r], A, AT, AA, x, left - used)
    return out, conv


def _tight_fit(X, A):
    """An MLE that does not start with Newton, nor run the kernel's EM:
    SQUAREM (``oracles.squarem_mle``) from the uniform point to a 1e-15
    step or 20,000 maps, then a Newton polish of up to 100 steps, whatever
    the kernel's polish allows.  Returns (alphas (B, K), converged (B,))."""
    AT, AA = np.ascontiguousarray(A.T), TopicMatrix(A).outers
    start = np.stack([squarem_mle(x, A, 1e-15, 20_000) for x in X])
    out, _, conv, _ = estimators._newton_finish(X, A, AT, AA, start, np.full(len(X), 100))
    return out, conv


def _sparse_weights(rng, K, tau):
    alpha = np.zeros(K)
    alpha[rng.choice(K, size=tau, replace=False)] = rng.uniform(size=tau)
    return alpha / alpha.sum()


@pytest.mark.parametrize("K,tau", [(5, 0), (5, 3), (8, 0), (8, 3)])
def test_em_default_tol_close_to_tight_fit(K, tau):
    rng = np.random.default_rng(15)
    p, N, B = 500, 1000, 16
    A = random_topics(rng, p, K)
    alphas = [rng.dirichlet(np.ones(K)) if tau == 0 else _sparse_weights(rng, K, tau) for _ in range(B)]
    XB = np.stack([rng.multinomial(N, A @ a) / N for a in alphas])
    fit, _, conv, _ = _em_batch(XB, TopicMatrix(A))
    tight, tight_conv = _tight_fit(XB, A)
    assert conv.all() and tight_conv.all()

    def loglik(alphas):
        return (XB * np.log(alphas @ A.T)).sum(axis=1)

    assert np.all(loglik(fit) >= loglik(tight) - 1e-9)
    # Every fit carries its KKT certificate, boundary weights included.
    assert _kkt_gaps(XB, TopicMatrix(A), fit).max() <= TOL_KKT
    assert np.abs(fit - tight).max() <= 1e-6


def _documents(rng, A, K, tau, B, N=1000):
    alphas = [rng.dirichlet(np.ones(K)) if tau == 0 else _sparse_weights(rng, K, tau) for _ in range(B)]
    return np.stack([rng.multinomial(N, A @ a) / N for a in alphas])


@pytest.mark.parametrize("K,tau", [(5, 0), (5, 3), (8, 0), (8, 3), (10, 0), (10, 4)])
def test_newton_finished_fits_equal_single_fits_bit_for_bit(K, tau):
    rng = np.random.default_rng(19)
    A = random_topics(rng, 500, K)
    XB = _documents(rng, A, K, tau, 24)
    fit, iters, conv, _ = _em_batch(XB, TopicMatrix(A))
    assert conv.all()
    if tau:  # the finish sets exact zeros on the boundary
        assert (fit == 0.0).any()
    for b in range(len(XB)):
        single, s_iters, s_conv, _ = _em_batch(XB[[b]], TopicMatrix(A))
        assert np.array_equal(single[0], fit[b])
        assert s_iters[0] == iters[b] and s_conv[0] == conv[b]


def _mixed_documents(rng, A, K, B):
    """B rows cycling through dense, sparse (tau=3) and 30-word documents."""
    rows = []
    for b in range(B):
        alpha = _sparse_weights(rng, K, 3) if b % 3 == 1 else rng.dirichlet(np.ones(K))
        N = 30 if b % 3 == 2 else 1000
        rows.append(rng.multinomial(N, A @ alpha) / N)
    return np.stack(rows)


@pytest.mark.parametrize("K", [5, 8])
def test_em_batch_single_columns_equal_every_batch_bit_for_bit(K):
    # Under the caps, columns leave the kernel's working rows on different
    # EM maps and Newton steps, so every batch compacts on other iterations.
    rng = np.random.default_rng(40 + K)
    A = TopicMatrix(random_topics(rng, 500, K))
    XB = _mixed_documents(rng, A.matrix, K, 32)
    for max_iter in (1, 2, 3, 5, 12, EM_MAX_ITER):
        singles = [_em_batch(XB[[b]], A, max_iter=max_iter) for b in range(32)]
        if max_iter in (12, EM_MAX_ITER):
            assert len({int(s[1][0]) for s in singles}) > 1
        for B in (1, 2, 3, 31, 32):
            fit, iters, conv, gaps = _em_batch(XB[:B], A, max_iter=max_iter)
            for b in range(B):
                s_fit, s_iters, s_conv, s_gaps = singles[b]
                assert np.array_equal(s_fit[0], fit[b])
                assert (s_iters[0], s_conv[0], s_gaps[0]) == (iters[b], conv[b], gaps[b])


def test_em_batch_gaps_are_the_kkt_gaps_bit_for_bit(monkeypatch):
    # Newton hands over the gap at each column's returned point, also for
    # a column stopped by max_iter, which it checks without a step.
    rng = np.random.default_rng(44)
    K = 5
    A = random_topics(rng, 500, K)
    XB = _mixed_documents(rng, A, K, 31)
    for max_iter in (1, 2, 5, 12, 20, EM_MAX_ITER):
        fit, iters, conv, gaps = _em_batch(XB, TopicMatrix(A), max_iter=max_iter)
        assert np.array_equal(gaps, _kkt_gaps(XB, TopicMatrix(A), fit))
        assert np.array_equal(conv, gaps <= TOL_KKT)
    # No Newton step allowed: every column runs EM on to the tight step and
    # is polished once more, and its gap still comes from that polish.
    monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", 0)
    fit, iters, conv, gaps = _em_batch(XB, TopicMatrix(A))
    assert np.array_equal(gaps, _kkt_gaps(XB, TopicMatrix(A), fit))
    fits = estimators._fit_batch(XB, TopicMatrix(A), Method.MLE)
    assert np.array_equal(fits.kkt_gap, gaps)


def test_em_batch_column_capped_by_max_iter_is_converged_exactly_when_its_gap_is_within_tol(monkeypatch):
    # At max_iter=3 the first Newton round stops every column within three
    # steps; some of those columns are already within TOL_KKT and some not.
    rng = np.random.default_rng(44)
    K = 5
    A = random_topics(rng, 500, K)
    XB = _mixed_documents(rng, A, K, 31)
    fit, iters, conv, gaps = _em_batch(XB, TopicMatrix(A), max_iter=3)
    assert np.all(iters[~conv] == 3) and 0 < np.count_nonzero(conv) < 31
    assert np.array_equal(gaps, _kkt_gaps(XB, TopicMatrix(A), fit))
    assert np.array_equal(conv, gaps <= TOL_KKT)
    # With no Newton step allowed every column is fitted by EM alone.  At
    # 230 maps none has reached EM's tight stop, so each ends at max_iter
    # and Newton only checks it; one of them is already certified.
    monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", 0)
    fit, iters, conv, gaps = _em_batch(XB, TopicMatrix(A), max_iter=230)
    assert np.all(iters == 230) and 0 < np.count_nonzero(conv) < 31
    assert np.array_equal(gaps, _kkt_gaps(XB, TopicMatrix(A), fit))
    assert np.array_equal(conv, gaps <= TOL_KKT)


def test_em_near_degenerate_boundary_certifies():
    # Document 5 has a weight that the MLE puts on the boundary while EM
    # leaves it decaying; Newton must zero it and certify the rest.
    rng = np.random.default_rng(16)
    A = random_topics(rng, 500, 5)
    XB = np.stack([rng.multinomial(1000, A @ rng.dirichlet(np.ones(5))) / 1000 for _ in range(16)])
    x = XB[[5]]
    fit, _, conv, _ = _em_batch(x, TopicMatrix(A))
    tight, _ = _tight_fit(x, A)
    assert conv[0] and _kkt_gaps(x, TopicMatrix(A), fit)[0] <= TOL_KKT
    assert np.abs(fit - tight).max() <= 1e-6


def test_em_column_with_fewer_words_than_topics_is_isolated():
    rng = np.random.default_rng(20)
    K = 8
    A = random_topics(rng, 200, K)
    XB = _documents(rng, A, K, 3, 12)
    fit, iters, conv, _ = _em_batch(XB, TopicMatrix(A))
    odd = XB.copy()
    odd[4] = 0.0
    odd[4, [3, 50, 70]] = [0.5, 0.25, 0.25]  # three distinct words, K = 8 topics
    odd_fit, odd_iters, odd_conv, _ = _em_batch(odd, TopicMatrix(A))
    others = np.arange(len(XB)) != 4
    assert np.array_equal(odd_fit[others], fit[others])
    assert np.array_equal(odd_iters[others], iters[others]) and np.array_equal(odd_conv[others], conv[others])
    assert np.all(odd_fit[4] >= 0.0) and abs(odd_fit[4].sum() - 1.0) <= 1e-12
    # Its face systems are singular; the minimum-norm step still certifies it.
    assert odd_conv[4] and _kkt_gaps(odd[[4]], TopicMatrix(A), odd_fit[[4]])[0] <= TOL_KKT


def test_em_uncertified_column_reruns_em_and_reports_unconverged(monkeypatch):
    # With no Newton steps allowed, a fit is certified only if EM alone
    # reaches the KKT tolerance; the rest run EM on to the tight step.
    rng = np.random.default_rng(21)
    K = 5
    A = random_topics(rng, 500, K)
    XB = _documents(rng, A, K, 3, 16)
    tight, _ = _tight_fit(XB, A)
    monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", 0)
    fit, iters, conv, _ = _em_batch(XB, TopicMatrix(A))
    assert not conv.all()
    assert np.array_equal(conv, _kkt_gaps(XB, TopicMatrix(A), fit) <= TOL_KKT)
    gain = (XB * np.log(fit @ A.T)).sum(axis=1) - (XB * np.log(tight @ A.T)).sum(axis=1)
    assert np.all(gain >= -1e-9)


def test_em_batch_retry_restarts_from_the_em_stop_point(monkeypatch):
    # Neither the first round's two Newton steps nor a one-step polish
    # certifies any of these columns, so every one runs EM on.  It runs on
    # from its EM stop, whatever _newton_finish left in its x argument,
    # which it may write into.
    rng = np.random.default_rng(27)
    K = 5
    A = random_topics(rng, 500, K)
    XB = _documents(rng, A, K, 3, 16)
    runs, em, newton = [], estimators._em, estimators._newton_finish

    def recorded(X, A, AT, x, tol, budget):
        out = em(X, A, AT, x, tol, budget)
        runs.append((x.copy(), out[0]))
        return out

    def scribbling(X, A, AT, AA, x, budget):
        out = newton(X, A, AT, AA, x, budget)
        x[:] = np.nan
        return out

    monkeypatch.setattr(estimators, "_em", recorded)
    monkeypatch.setattr(estimators, "_newton_finish", scribbling)
    monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", 1)
    _em_batch(XB, TopicMatrix(A))
    (_, stop), (restart, _) = runs
    assert len(restart) == 16 and np.array_equal(restart, stop)


def test_em_batch_matches_single_on_sparse_batch():
    # Bootstrap-shaped: m = 32 words per document over p = 500 words.
    rng = np.random.default_rng(16)
    p, K, B = 500, 5, 64
    A = random_topics(rng, p, K)
    XB = rng.multinomial(32, A @ rng.dirichlet(np.ones(K)), size=B) / 32.0
    mle_b, iters, conv, _ = _em_batch(XB, TopicMatrix(A))
    for b in range(B):
        single = mle_weights(XB[b], A)
        assert np.abs(single.alpha - mle_b[b]).max() <= 1e-8
        assert single.iterations == iters[b] and single.converged == conv[b]


def test_em_max_iter_is_honoured(monkeypatch):
    # max_iter bounds Newton steps plus EM maps.  With one step per round
    # the first round has one, and the other columns spend the rest of the
    # cap in EM and its polishes; EM reaches its tight stop only far beyond these
    # caps, so every uncertified column ends exactly at the cap.
    rng = np.random.default_rng(17)
    K, p, B = 5, 100, 8
    A = random_topics(rng, p, K)
    XB = rng.multinomial(200, A @ _sparse_weights(rng, K, 3), size=B) / 200.0
    for polish in (1, estimators._NEWTON_MAX_STEPS):
        monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", polish)
        for max_iter in (0, 1, 2, 3, 4, 5, 7, 11, 40):
            alphas, iters, conv, _ = _em_batch(XB, TopicMatrix(A), max_iter=max_iter)
            assert np.all(iters <= max_iter) and np.all(iters[~conv] == max_iter)
            assert np.abs(alphas.sum(axis=1) - 1.0).max() <= 1e-12 and alphas.min() >= 0.0
            est = mle_weights(XB[0], A, max_iter=max_iter)
            assert (est.iterations, est.converged) == (iters[0], conv[0])
        assert not _em_batch(XB, TopicMatrix(A), max_iter=1)[2].any()
    # A cap between the columns' own iteration counts stops exactly the
    # columns that need more, and leaves the others as they were.
    full, iters, conv, _ = _em_batch(XB, TopicMatrix(A))
    assert conv.all()
    cap = int(np.median(iters))
    capped, capped_iters, capped_conv, _ = _em_batch(XB, TopicMatrix(A), max_iter=cap)
    early = iters <= cap
    assert early.any() and not early.all()
    assert np.array_equal(capped_conv, early)
    assert np.all(capped_iters[~early] == cap)
    assert np.array_equal(capped_iters[early], iters[early])
    assert np.array_equal(capped[early], full[early])


def _hard_grid():
    """Seeded hard documents: (topics, (B, p) frequency rows, identifiable).

    Sparse topics (each word under one or two topics) at N=5, K=20
    one-topic documents, boundary fits (tau = 1 and 3) at K=5 and 8,
    peaked topics (Dirichlet(0.05) columns) at K=5 and N=1e5, and a
    near-duplicate topic pair (within 5% wordwise) at K=5, where EM is
    slowest.  At N=5 the MLE need not be unique, so only its likelihood is
    compared.  At K=13 some of the N=5 columns have five words and nine or
    more free coordinates, and the first Newton round stalls on two of them
    far from the certificate.
    """
    rng = np.random.default_rng(71)
    grid = []
    for K in (3, 8, 13):
        A = np.zeros((60, K))
        for j in range(60):
            A[j, rng.choice(K, size=1 + j % 2, replace=False)] = rng.uniform(0.1, 1.0)
        A[np.arange(K), np.arange(K)] = 1.0
        A /= A.sum(axis=0)
        grid.append((A, _documents(rng, A, K, 0, 12, N=5), False))
    A = random_topics(rng, 200, 20)
    grid.append((A, np.stack([rng.multinomial(1000, A[:, k]) / 1000 for k in range(0, 20, 2)]), True))
    for K in (5, 8):
        A = random_topics(rng, 300, K)
        grid.append((A, np.concatenate([_documents(rng, A, K, tau, 8) for tau in (1, 3)]), True))
    A = rng.dirichlet(np.full(300, 0.05), size=5).T
    grid.append((A, np.concatenate([_documents(rng, A, 5, tau, 8, N=100_000) for tau in (0, 2)]), True))
    A = random_topics(rng, 300, 5)
    A[:, 1] = A[:, 0] * rng.uniform(0.95, 1.05, size=300)
    A /= A.sum(axis=0)
    grid.append((A, np.concatenate([_documents(rng, A, 5, tau, 4) for tau in (0, 2)]), True))
    return grid


@functools.cache
def _hard_grid_tight():
    """``_tight_fit`` of each ``_hard_grid`` group, which no polish setting changes."""
    return [_tight_fit(XB, A) for A, XB, _ in _hard_grid()]


@pytest.mark.parametrize("polish", [estimators._NEWTON_MAX_STEPS, 2])
def test_em_batch_certifies_what_the_em_first_path_alone_certifies(monkeypatch, polish):
    # Newton first must certify every column the EM-first path certifies,
    # and a column it hands to EM must get that path's bits.  The first
    # round leaves the two stalled K=13 columns to EM and a polish, which
    # certify them.  With two steps per round it leaves 83 columns, and one
    # K=8 boundary fit stays uncertified.
    monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", polish)
    rescued = uncertified = 0
    for (A, XB, identifiable), (tight, tight_conv) in zip(_hard_grid(), _hard_grid_tight()):
        B, K = len(XB), A.shape[1]
        fit, _, conv, _ = _em_batch(XB, TopicMatrix(A))
        AT, AA = np.ascontiguousarray(A.T), TopicMatrix(A).outers
        _, first, first_conv, _ = estimators._newton_finish(XB, A, AT, AA, estimators._start(XB, AT, TopicMatrix(A)), np.full(B, estimators._NEWTON_MAX_STEPS))
        # The reference gets EM's budget: what the first round left.
        ref, ref_conv = _em_first(XB, A, EM_MAX_ITER - first)
        assert np.all(conv | ~ref_conv)
        assert np.array_equal(fit[~first_conv], ref[~first_conv])
        rescued += np.count_nonzero(~first_conv)
        uncertified += np.count_nonzero(~conv)
        both = conv & tight_conv

        def loglik(alphas):
            with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 off a column's support
                return np.where(XB > 0.0, XB * np.log(alphas @ A.T), 0.0).sum(axis=1)

        assert np.all(np.abs(loglik(fit) - loglik(tight))[both] <= 1e-9)
        if identifiable:
            assert np.abs(fit - tight)[both].max() <= 1e-6
    assert rescued > 0 and (polish == 2 or uncertified == 0)


def _stress_grid():
    """Seeded stress groups: (topics, (160, p) frequency rows), 30,720 columns.

    K in {2, 3, 5, 8, 13, 20}; four kinds of topics: dense (uniform
    entries, p = 300), sparse (p = 60, each word under one or two topics,
    A[k, k] = 1), peaked (Dirichlet(0.05) columns, p = 300) and a
    near-duplicate pair (column 1 within 5% of column 0 wordwise); N in
    {5, 50, 1e3, 1e5}; Dirichlet(1) weights and sparse weights on
    max(1, K // 3) topics.  One generator draws them all.
    """
    rng = np.random.default_rng(25)
    for K in (2, 3, 5, 8, 13, 20):
        for kind in ("dense", "sparse", "peaked", "near-duplicate"):
            if kind == "sparse":
                A = np.zeros((60, K))
                for j in range(60):
                    A[j, rng.choice(K, size=1 + j % 2, replace=False)] = rng.uniform(0.1, 1.0)
                A[np.arange(K), np.arange(K)] = 1.0
                A /= A.sum(axis=0)
            elif kind == "peaked":
                A = rng.dirichlet(np.full(300, 0.05), size=K).T
            else:
                A = random_topics(rng, 300, K)
                if kind == "near-duplicate":
                    A[:, 1] = A[:, 0] * rng.uniform(0.95, 1.05, size=300)
                    A /= A.sum(axis=0)
            for N in (5, 50, 1_000, 100_000):
                for tau in (0, max(1, K // 3)):
                    yield A, _documents(rng, A, K, tau, 160, N=N)


def test_em_batch_certifies_every_column_of_the_stress_grid(monkeypatch):
    # Every column is certified, and both EM stops run on some column, so
    # the grid exercises the second EM-and-polish round too.
    tols = set()
    real = estimators._em

    def recorded(X, A, AT, x, tol, budget):
        tols.add(tol)
        return real(X, A, AT, x, tol, budget)

    monkeypatch.setattr(estimators, "_em", recorded)
    for A, XB in _stress_grid():
        assert _em_batch(XB, TopicMatrix(A))[2].all()
    assert tols == {estimators.EM_TOL, estimators._EM_TIGHT_TOL}


def test_em_objective_monotone_in_max_iter():
    # Each EM map or Newton step the kernel spends leaves the
    # log-likelihood no lower than before.
    rng = np.random.default_rng(18)
    K, p, N, B = 5, 300, 1000, 32
    A = random_topics(rng, p, K)
    XB = np.stack([rng.multinomial(N, A @ _sparse_weights(rng, K, 3)) / N for _ in range(B)])
    prev = np.full(B, -np.inf)
    for max_iter in range(1, 120):
        alphas, _, _, _ = _em_batch(XB, TopicMatrix(A), max_iter=max_iter)
        cur = (XB * np.log(alphas @ A.T)).sum(axis=1)
        assert np.all(cur >= prev - 1e-12)
        prev = cur


# --- CountVector ----------------------------------------------------------------


def test_count_vector_validation():
    cv = CountVector(np.array([0, 3, 7]))
    assert cv.N == 10
    assert cv.frequencies.sum() == pytest.approx(1.0)
    with pytest.raises(InvalidParam):
        CountVector(np.array([-1, 2]))
    with pytest.raises(InvalidParam):
        CountVector(np.array([0.5, 0.5]))
    with pytest.raises(InvalidParam):
        CountVector(np.zeros(3, dtype=int))


@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8))
def test_count_vector_total_never_wraps(counts):
    # The int64 sum of such counts can wrap; the total must be exact or refused.
    c = np.array(counts, dtype=np.int64)
    if sum(counts) >= 2**63:
        with pytest.raises(InvalidParam):
            CountVector(c)
    elif sum(counts) > 0:
        assert CountVector(c).N == sum(counts)
    with pytest.raises(InvalidParam):
        CountVector(np.array([5 * 10**18, 5 * 10**18]))


def test_estimators_deterministic():
    rng = np.random.default_rng(14)
    A = random_topics(rng, 40, 3)
    X = rng.multinomial(200, A @ rng.dirichlet(np.ones(3))) / 200.0
    e1 = mle_weights(X, A)
    e2 = mle_weights(X.copy(), A.copy())
    assert np.array_equal(e1.alpha, e2.alpha)
    d1 = debias(e1, X, A)
    d2 = debias(e2, X, A)
    assert np.array_equal(d1.alpha, d2.alpha)
