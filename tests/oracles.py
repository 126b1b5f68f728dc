"""Independent oracles for the test suite.

These deliberately avoid the code paths they check: transportation-polytope
vertex enumeration for the primal LP, a cyclic Jacobi eigensolver for the
LAPACK-backed eigendecomposition, bisection on the score for the K=2 MLE,
unbatched SQUAREM-accelerated EM for the simplex MLE at any K, and a
hand-rolled Gaussian elimination for the WLS normal equations.
"""

from __future__ import annotations

import itertools

import numpy as np


def transport_min_by_vertex_enumeration(alpha, beta, cost) -> float:
    """Exact minimum of the transportation LP by basic-solution enumeration.

    A vertex of the transportation polytope has at most 2K-1 nonzero cells;
    every choice of 2K-1 cells whose incidence system is nonsingular yields
    at most one basic solution.  Feasible candidates' costs are minimized.
    Exponential in K; intended for K <= 4.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    C = np.asarray(cost, dtype=float)
    K = alpha.size
    cells = list(itertools.product(range(K), range(K)))
    m = 2 * K - 1  # independent marginal constraints

    # Equality system rows: K row sums, K-1 column sums.
    def column(cell):
        k, l = cell
        col = np.zeros(m)
        col[k] = 1.0
        if l < K - 1:
            col[K + l] = 1.0
        return col

    rhs = np.concatenate([alpha, beta[: K - 1]])
    best = np.inf
    for basis in itertools.combinations(cells, m):
        B = np.column_stack([column(c) for c in basis])
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        x = np.linalg.solve(B, rhs)
        if x.min() < -1e-10:
            continue
        value = sum(C[c] * xi for c, xi in zip(basis, x))
        best = min(best, value)
    return float(best)


def jacobi_eigenvalues(M, sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))[::-1]


def mle_k2_by_bisection(X, A, iters: int = 200) -> np.ndarray:
    """K=2 simplex MLE via bisection on the score in alpha_1.

    The score S(a) = sum_j X_j (A_j1 - A_j2) / (a A_j1 + (1-a) A_j2) is
    decreasing; the MLE is its root clipped to [0, 1].
    """
    X = np.asarray(X, dtype=float)
    A = np.asarray(A, dtype=float)
    supp = X > 0

    def score(a):
        denom = a * A[supp, 0] + (1.0 - a) * A[supp, 1]
        return float(np.sum(X[supp] * (A[supp, 0] - A[supp, 1]) / denom))

    eps = 1e-12
    if score(eps) <= 0:
        a = 0.0
    elif score(1.0 - eps) >= 0:
        a = 1.0
    else:
        lo, hi = eps, 1.0 - eps
        for _ in range(iters):
            mid = (lo + hi) / 2.0
            if score(mid) > 0:
                lo = mid
            else:
                hi = mid
        a = (lo + hi) / 2.0
    return np.array([a, 1.0 - a])


def squarem_mle(X, A, tol: float, max_iter: int = 1_000_000) -> np.ndarray:
    """Simplex MLE of one frequency vector by SQUAREM-accelerated EM.

    SQUAREM (Varadhan & Roland 2008, Scand. J. Statist.) from the uniform
    point: a cycle takes x1 = F(x0) and x2 = F(x1) of the EM map F,
    extrapolates to x0 - 2a r + a^2 v (r = x1 - x0, v = x2 - 2 x1 + x0,
    step a = -|r|/|v| <= -1) and applies F once more.  An extrapolant that
    leaves the simplex or has a lower log-likelihood than x2 is retried
    with a + 1 halved, and replaced by x2 once a > -2.  Stops once one EM
    map moves x by at most ``tol`` in l1, or after ``max_iter`` maps.
    """
    s = np.asarray(X, dtype=float) > 0
    Xs, As = np.asarray(X, dtype=float)[s], np.asarray(A, dtype=float)[s]

    def em(x):
        return x * (As.T @ (Xs / (As @ x)))

    def loglik(x):
        r = As @ x
        return Xs @ np.log(r) if r.min() > 0 else -np.inf

    x0, maps = np.full(As.shape[1], 1.0 / As.shape[1]), 0
    while maps < max_iter:
        x1 = em(x0)
        if np.abs(x1 - x0).sum() <= tol:
            return x1 / x1.sum()
        x2 = em(x1)
        r, v = x1 - x0, x2 - 2.0 * x1 + x0
        nv = np.linalg.norm(v)
        a = min(-np.linalg.norm(r) / nv, -1.0) if nv > 0.0 else -1.0
        while a < -1.0:
            xt = x0 - 2.0 * a * r + a * a * v
            if xt.min() >= 0.0 and loglik(xt / xt.sum()) >= loglik(x2):
                x2 = xt / xt.sum()
                break
            a = (a - 1.0) / 2.0
            if a >= -2.0:
                break
        x0, maps = em(x2), maps + 3
    return x0 / x0.sum()


def gaussian_elimination_solve(A, b) -> np.ndarray:
    """Plain partial-pivoting Gaussian elimination (no numpy.linalg)."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[piv, col]) < 1e-300:
            raise ZeroDivisionError("singular system")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


def simplex_grid(K: int, steps: int):
    """All points of the K-simplex with coordinates i/steps."""
    for comp in itertools.combinations_with_replacement(range(K), steps):
        point = np.zeros(K)
        for c in comp:
            point[c] += 1.0 / steps
        yield point
