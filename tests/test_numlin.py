import numpy as np
import pytest

from mixwass import numlin
from mixwass.errors import InvalidMatrix

from oracles import jacobi_eigenvalues


def test_identity_eig():
    res = numlin.sym_eig(np.eye(3))
    assert np.allclose(res.eigenvalues, [1, 1, 1])
    assert res.rank == 3
    assert res.dim == 3


def test_diagonal_eig_rank():
    res = numlin.sym_eig(np.diag([2.0, 0.0]))
    assert np.allclose(res.eigenvalues, [2.0, 0.0])
    assert res.rank == 1


def test_eig_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        K = int(rng.integers(2, 9))
        B = rng.normal(size=(K, K))
        M = B @ B.T
        res = numlin.sym_eig(M)
        recon = (res.eigenvectors * res.eigenvalues) @ res.eigenvectors.T
        assert np.linalg.norm(recon - M) <= 1e-9 * max(1.0, np.linalg.norm(M))
        gram = res.eigenvectors.T @ res.eigenvectors
        assert np.linalg.norm(gram - np.eye(K)) <= 1e-10
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)


def test_eig_matches_jacobi_oracle():
    # Expected values computed by an independent cyclic Jacobi solver.
    rng = np.random.default_rng(42)
    B = rng.normal(size=(5, 5))
    M = B @ B.T
    expected = jacobi_eigenvalues(M)
    res = numlin.sym_eig(M)
    assert np.abs(res.eigenvalues - expected).max() <= 1e-8


def test_eig_deterministic():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(6, 6))
    M = M + M.T
    r1 = numlin.sym_eig(M)
    r2 = numlin.sym_eig(M.copy())
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


def test_eig_rejects_nonfinite():
    M = np.eye(3)
    M[0, 0] = np.nan
    with pytest.raises(InvalidMatrix):
        numlin.sym_eig(M)
    with pytest.raises(InvalidMatrix):
        numlin.sym_eig(np.ones((2, 3)))


def test_pinv_identity_and_diagonal():
    assert np.allclose(numlin.pinv(np.eye(4)), np.eye(4))
    assert np.allclose(numlin.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_rank_one_projector():
    rng = np.random.default_rng(3)
    v = rng.normal(size=5)
    v /= np.linalg.norm(v)
    P = np.outer(v, v)
    assert np.abs(numlin.pinv(P) - P).max() <= 1e-10


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(9)
    for _ in range(20):
        K = int(rng.integers(2, 8))
        r = int(rng.integers(1, K + 1))
        B = rng.normal(size=(K, r))
        M = B @ B.T
        P = numlin.pinv(M)
        assert np.abs(M @ P @ M - M).max() <= 1e-8
        assert np.abs(P @ M @ P - P).max() <= 1e-8
        assert np.abs(P - P.T).max() <= 1e-12


def test_pinv_indefinite_penrose():
    M = np.diag([3.0, -2.0, 0.0])
    P = numlin.pinv(M)
    assert np.allclose(P, np.diag([1 / 3, -0.5, 0.0]))


def test_psd_sqrt_roundtrip():
    rng = np.random.default_rng(13)
    B = rng.normal(size=(5, 3))
    M = B @ B.T
    S = numlin.psd_sqrt(M)
    assert np.abs(S @ S - M).max() <= 1e-8


def _mixed_stack(rng, K):
    """PSD, singular PSD, indefinite, singular indefinite and zero matrices."""
    G = rng.normal(size=(K, K))
    L = rng.normal(size=(K, max(1, K - 2)))
    S = rng.normal(size=(K, K))
    D = np.diag(np.r_[rng.normal(size=K - 1), 0.0])
    Q, _ = np.linalg.qr(rng.normal(size=(K, K)))
    return np.stack([G @ G.T, L @ L.T, S + S.T, Q @ D @ Q.T, np.zeros((K, K))])


@pytest.mark.parametrize("K", [1, 2, 5, 8])
def test_stacked_pinv_and_psd_sqrt_equal_per_matrix_calls(K):
    # A stack gives every slice the bits of the slice on its own.
    rng = np.random.default_rng(K)
    Ms = _mixed_stack(rng, K)
    for fn in (numlin.pinv, numlin.psd_sqrt):
        stacked = fn(Ms)
        assert stacked.shape == Ms.shape
        for b, M in enumerate(Ms):
            assert np.array_equal(stacked[b], fn(M)), (fn.__name__, b)


@pytest.mark.parametrize("K", [1, 3, 6, 10])
def test_stacked_inv_at_rank_equals_per_matrix_calls(K):
    # Full rank in the PSD sense; conditioning from about 1 to 1e8.
    rng = np.random.default_rng(100 + K)
    G = rng.normal(size=(6, K, K))
    Ms = G @ G.transpose(0, 2, 1) + np.logspace(0, -8, 6)[:, None, None] * np.eye(K)
    stacked = numlin.inv_at_rank(Ms)
    for b, M in enumerate(Ms):
        assert np.array_equal(stacked[b], numlin.inv_at_rank(M))


def test_stacked_inv_at_rank_rejects_a_singular_slice():
    Ms = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])])
    with pytest.raises(numlin._SingularAtRank):
        numlin.inv_at_rank(Ms)


@pytest.mark.parametrize("fn", [numlin.pinv, numlin.psd_sqrt, numlin.inv_at_rank])
def test_stack_with_a_nonfinite_slice_raises(fn):
    Ms = np.stack([np.eye(3)] * 3)
    Ms[1, 0, 2] = Ms[1, 2, 0] = np.inf
    with pytest.raises(InvalidMatrix):
        fn(Ms)
    with pytest.raises(InvalidMatrix):
        fn(np.ones((2, 3, 4)))
    Ms[1] = [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(InvalidMatrix, match="not symmetric"):
        fn(Ms)
