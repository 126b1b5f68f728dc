"""Mixture-weight estimators from word counts.

Given (known or estimated) topics A, three estimators of the mixture
weights are provided:

* ``mle_weights`` -- the simplex-constrained maximum-likelihood estimate,
  computed by EM updates accelerated with SQUAREM;
* ``debias`` -- the one-step correction alpha_hat + Vhat^+ Psi(alpha_hat)
  that removes the boundary-induced asymptotic bias of the MLE and admits
  a Gaussian limit even for sparse weights;
* ``wls_weights`` -- the row-sum-preconditioned weighted least squares
  estimate, a closed-form alternative with a slightly wider limit law.

``sigma_hat`` and ``sigma_ls`` give the corresponding plug-in asymptotic
covariance matrices.

Each estimator is written once, for a batch of documents against one topic
matrix: ``_em_batch`` for the MLE, ``_debias_batch`` for the correction and
``_wls_operator`` for WLS.  The public single-document functions are
batches of one that add validation and a ``WeightEstimate`` wrapper, and
``_fit_debiased`` chains EM and the correction for the bootstrap and
simulation drivers.

``_em_batch`` accelerates the multiplicative EM map with SQUAREM (Varadhan
& Roland 2008, Scand. J. Statist.), keeping iterates in the simplex and the
log-likelihood nondecreasing.  A fit stops when one EM map moves it by at
most ``tol`` in l1; ``iterations`` counts EM-map evaluations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import numlin
from .errors import (
    DegenerateSupport,
    InfeasibleRow,
    InvalidParam,
    SingularDesign,
    SingularInformation,
)
from .transport import _topics_array, _values

# Support threshold for Jhat = {j : Ahat_j . alpha > ZETA}; numerical
# stand-in for strict positivity of the fitted word probabilities.
ZETA = 1e-12
# A weight coordinate counts as active in KKT checks above this level.
TAU_SUPP = 1e-8
# Stationarity certificate tolerance.
TOL_KKT = 1e-6

EM_TOL = 1e-10
EM_MAX_ITER = 10_000


class Method(str, enum.Enum):
    MLE = "mle"
    DEBIASED = "debiased"
    WLS = "wls"


class CovMethod(str, enum.Enum):
    PLUGIN_MLE = "plugin_mle"
    PLUGIN_WLS = "plugin_wls"


@dataclass(frozen=True)
class CountVector:
    """Word counts of one document; N is the total number of words."""

    counts: np.ndarray
    N: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 1 or c.size == 0:
            raise InvalidParam("counts must be a nonempty 1-d array")
        if not np.issubdtype(c.dtype, np.integer):
            if not np.all(np.equal(np.mod(c, 1), 0)):
                raise InvalidParam("counts must be integers")
            c = c.astype(np.int64)
        if c.min() < 0:
            raise InvalidParam("counts must be non-negative")
        total = int(c.sum())
        if total < 1:
            raise InvalidParam("document must contain at least one word")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "N", total)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.N


@dataclass(frozen=True)
class WeightEstimate:
    """Estimated mixture weights plus solver diagnostics.

    The MLE variant lies in the simplex; debiased and WLS variants sum to
    one but may have negative entries.  ``support`` records the word index
    set the estimator actually used.
    """

    alpha: np.ndarray
    method: Method
    support: np.ndarray
    iterations: int
    converged: bool
    kkt_gap: float | None = None

    @property
    def K(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class CovEstimate:
    """Plug-in asymptotic covariance matrix (symmetric, PSD up to roundoff)."""

    sigma: np.ndarray
    method: CovMethod
    rank: int


def _check_feasible_rows(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    support = np.flatnonzero(X > 0)
    if support.size == 0:
        raise InvalidParam("frequency vector has empty support")
    row_mass = A[support].max(axis=1)
    bad = support[row_mass <= 0.0]
    if bad.size:
        raise InfeasibleRow(
            f"word {int(bad[0])} has positive count but zero probability under every topic"
        )
    return support


def _rowdot(U: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Each row of U times M, as a stack of vector-matrix products.

    Unlike one (B, n) @ (n, m) product, whose blocking depends on B, a
    row's result does not depend on the other rows.
    """
    return (U[:, None, :] @ M)[:, 0, :]


def _em_batch(
    XB: np.ndarray,
    A: np.ndarray,
    tol: float = EM_TOL,
    max_iter: int = EM_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SQUAREM-accelerated EM on a (p, B) matrix of frequency columns.

    Returns (alphas (K, B), iterations (B,), converged (B,)).  A cycle takes
    x1 = F(x0), x2 = F(x1), extrapolates to x0 - 2a r + a^2 v (r = x1 - x0,
    v = x2 - 2 x1 + x0, S3 step a = -|r|/|v| <= -1) and applies F once more.
    An extrapolant that is not finite and nonnegative, or has a lower
    log-likelihood than x2, is retried with a + 1 halved, and replaced by x2
    once a > -2.  A column stops when |x1 - x0|_1 <= tol; ``iterations``
    and ``max_iter`` count evaluations of F.  A column's arithmetic does not
    depend on the rest of the batch, so a batch of one gives the same bits.
    """
    A = np.ascontiguousarray(A, dtype=float)
    AT = np.ascontiguousarray(A.T)

    def fitted(x):
        return np.maximum(_rowdot(x, AT), 1e-300)

    B, K = XB.shape[1], A.shape[1]
    out = np.full((B, K), 1.0 / K)
    iterations = np.zeros(B, dtype=np.int64)
    done = np.zeros(B, dtype=bool)
    active = np.arange(B)
    X = np.ascontiguousarray(XB.T, dtype=float)
    x0, R0, it = out.copy(), fitted(out), 0
    while active.size and it < max_iter:
        x1 = x0 * _rowdot(X / R0, A)
        it += 1
        stop = np.abs(x1 - x0).sum(axis=1) <= tol
        out[active[stop]], iterations[active[stop]], done[active[stop]] = x1[stop], it, True
        active, X, x0, x1 = active[~stop], X[~stop], x0[~stop], x1[~stop]
        if it == max_iter or not active.size:
            x0 = x1
            break
        x2 = x1 * _rowdot(X / fitted(x1), A)
        it += 1
        if it == max_iter:
            x0 = x2
            break
        # x2 and R2 take each column's accepted extrapolant, if any.
        r, v, R2 = x1 - x0, x2 - 2.0 * x1 + x0, fitted(x2)
        L2 = (X * np.log(R2)).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.minimum(-np.linalg.norm(r, axis=1) / np.linalg.norm(v, axis=1), -1.0)
            trial = np.flatnonzero(np.isfinite(step) & (step < -1.0))
            while trial.size:
                a = step[trial, None]
                xt = x0[trial] - 2.0 * a * r[trial] + a * a * v[trial]
                xt /= xt.sum(axis=1, keepdims=True)  # compare likelihoods on the simplex
                Rt = fitted(xt)
                ok = np.all(np.isfinite(xt) & (xt >= 0.0), axis=1)
                ok &= (X[trial] * np.log(Rt)).sum(axis=1) >= L2[trial]
                x2[trial[ok]], R2[trial[ok]] = xt[ok], Rt[ok]
                step[trial] = (a[:, 0] - 1.0) / 2.0
                trial = trial[~ok & (step[trial] < -2.0)]
        x0 = x2 * _rowdot(X / R2, A)
        it += 1
        R0 = fitted(x0)
    out[active], iterations[active] = x0, it
    out /= out.sum(axis=1, keepdims=True)
    return out.T.copy(), iterations, done


def mle_weights(X, A, tol: float = EM_TOL, max_iter: int = EM_MAX_ITER) -> WeightEstimate:
    """Simplex MLE of the mixture weights by SQUAREM-accelerated EM.

    Maximizes sum_j X_j log(A_j . alpha) over the simplex from the uniform
    start.  The EM map alpha_k <- alpha_k * sum_j X_j A_jk / (A_j . alpha)
    keeps iterates in the simplex and never lowers the objective; SQUAREM
    extrapolates along pairs of EM maps where that raises the objective.
    The fit is ``_em_batch`` with the document as a batch of one, so it
    equals the batched fit of the same document.

    The fit stops when one EM map moves it by at most ``tol`` in l1;
    ``iterations`` and ``max_iter`` count EM-map evaluations, and a fit
    stopped by ``max_iter`` has ``converged=False``.  ``kkt_gap`` is the
    stationarity defect of the returned point (compare ``TOL_KKT``).
    """
    Xv = _values(X, name="X")
    Am = _topics_array(A)
    if Xv.size != Am.shape[0]:
        raise InvalidParam(f"X has dim {Xv.size}, topics have {Am.shape[0]} rows")
    support = _check_feasible_rows(Xv, Am)
    alphas, iterations, converged = _em_batch(Xv[:, None], Am, tol, max_iter)
    alpha = alphas[:, 0]
    As = Am[support]
    g = As.T @ (Xv[support] / (As @ alpha))
    active = alpha > TAU_SUPP
    gap = float(np.max(np.where(active, np.abs(g - 1.0), np.clip(g - 1.0, 0.0, None))))
    return WeightEstimate(
        alpha=alpha,
        method=Method.MLE,
        support=support,
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
        kkt_gap=gap,
    )


def mle_objective(alpha, X, A) -> float:
    """Normalized log-likelihood sum_j X_j log(A_j . alpha) on supp(X)."""
    Xv = _values(X, name="X")
    Am = _topics_array(A)
    s = Xv > 0
    r = Am[s] @ np.asarray(alpha, dtype=float)
    if np.any(r <= 0):
        return -np.inf
    return float(Xv[s] @ np.log(r))


def _debias_batch(alphas: np.ndarray, XB: np.ndarray, A: np.ndarray) -> np.ndarray:
    """One-step correction of a (K, B) batch of MLE columns (see ``debias``).

    A column whose fitted probabilities all lie below ``ZETA`` is returned
    unchanged; ``debias`` rejects that case instead.
    """
    K, B = alphas.shape
    R = A @ alphas  # (p, B)
    mask = R > ZETA
    Rsafe = np.where(mask, R, 1.0)
    resid = np.where(mask, (XB - R) / Rsafe, 0.0)
    psi = A.T @ resid  # (K, B)
    weights = np.where(mask, 1.0 / Rsafe, 0.0)  # (p, B)
    V = np.einsum("jk,jb,jl->bkl", A, weights, A, optimize=True)  # (B, K, K)
    out = np.empty_like(alphas)
    for b in range(B):
        out[:, b] = alphas[:, b] + numlin.pinv(V[b]) @ psi[:, b]
    return out


def debias(alpha_hat, X, A_hat) -> WeightEstimate:
    """One-step bias correction of the simplex MLE.

    With Jhat = {j : Ahat_j . alpha_hat > ZETA}, computes the score
    Psi(alpha_hat) = sum_{j in Jhat} (X_j - rhat_j)/rhat_j * Ahat_j and the
    weighting matrix Vhat = sum_{j in Jhat} Ahat_j Ahat_j^T / rhat_j, and
    returns alpha_hat + Vhat^+ Psi(alpha_hat).  The result sums to one but
    may leave the simplex.  This is ``_debias_batch`` on a batch of one.
    """
    base = alpha_hat if isinstance(alpha_hat, WeightEstimate) else None
    a = base.alpha if base is not None else np.asarray(alpha_hat, dtype=float)
    Xv = _values(X, name="X")
    Am = _topics_array(A_hat)
    J = np.flatnonzero(Am @ a > ZETA)
    if J.size == 0:
        raise DegenerateSupport("no word has fitted probability above the support threshold")
    return WeightEstimate(
        alpha=_debias_batch(a[:, None], Xv[:, None], Am)[:, 0],
        method=Method.DEBIASED,
        support=J,
        iterations=base.iterations if base is not None else 0,
        converged=base.converged if base is not None else True,
        kkt_gap=base.kkt_gap if base is not None else None,
    )


def _fit_debiased(XB: np.ndarray, A: np.ndarray, tol: float = EM_TOL) -> tuple[np.ndarray, np.ndarray]:
    """MLE and debiased estimate of each frequency column: ((K, B), (K, B))."""
    mle, _, _ = _em_batch(XB, A, tol)
    return mle, _debias_batch(mle, XB, A)


def sigma_hat(alpha, A_hat) -> CovEstimate:
    """Plug-in asymptotic covariance of the debiased weight estimator.

    sigma = (sum_{j in Jhat} Ahat_j Ahat_j^T / rhat_j)^{-1} - alpha alpha^T
    with rhat = Ahat alpha.  Raises :class:`SingularInformation` when the
    information matrix is singular at rank tolerance.
    """
    a = alpha.alpha if isinstance(alpha, WeightEstimate) else np.asarray(alpha, dtype=float)
    Am = _topics_array(A_hat)
    r = Am @ a
    J = r > ZETA
    if not np.any(J):
        raise DegenerateSupport("fitted word probabilities are all below the support threshold")
    AJ = Am[J]
    rJ = r[J]
    H = (AJ / rJ[:, None]).T @ AJ
    try:
        Hinv = numlin.inv_at_rank(H)
    except numlin._SingularAtRank:
        raise SingularInformation("plug-in information matrix is singular") from None
    sigma = Hinv - np.outer(a, a)
    sigma = (sigma + sigma.T) / 2.0
    eig = numlin.sym_eig(sigma)
    return CovEstimate(sigma=sigma, method=CovMethod.PLUGIN_MLE, rank=eig.rank)


def _wls_operator(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows with positive mass and the WLS pseudo-inverse on them.

    Returns (keep, Ahat^+) with Ahat^+ = Mhat^{-1} Ahat^T Dhat^{-1}, where
    Dhat is the diagonal of topic-row l1 norms and Mhat = Ahat^T Dhat^{-1}
    Ahat; the WLS estimates of frequency columns XB are Ahat^+ @ XB[keep].
    """
    d = A.sum(axis=1)
    keep = np.flatnonzero(d > 0)
    Ak = A[keep]
    B = Ak / d[keep][:, None]  # Dhat^{-1} Ahat
    try:
        Minv = numlin.inv_at_rank(Ak.T @ B)
    except numlin._SingularAtRank:
        raise SingularDesign("weighted design matrix Ahat^T Dhat^{-1} Ahat is singular") from None
    return keep, Minv @ B.T


def wls_weights(X, A_hat) -> WeightEstimate:
    """Weighted least squares estimate Mhat^{-1} Ahat^T Dhat^{-1} X.

    Dhat is the diagonal of topic-row l1 norms; rows with zero mass are
    dropped.  The estimate sums to one (Mhat is doubly stochastic) but may
    have negative entries.
    """
    Xv = _values(X, name="X")
    Am = _topics_array(A_hat)
    if Xv.size != Am.shape[0]:
        raise InvalidParam(f"X has dim {Xv.size}, topics have {Am.shape[0]} rows")
    keep, Aplus = _wls_operator(Am)
    return WeightEstimate(
        alpha=Aplus @ Xv[keep],
        method=Method.WLS,
        support=keep,
        iterations=0,
        converged=True,
    )


def sigma_ls(alpha, X_or_r, A_hat) -> CovEstimate:
    """Plug-in covariance of the WLS estimator.

    sigma = Ahat^+ diag(rhat) Ahat^{+T} - alpha alpha^T, where Ahat^+ is the
    preconditioned pseudo-inverse Mhat^{-1} Ahat^T Dhat^{-1} and rhat is the
    supplied frequency or probability vector.
    """
    a = alpha.alpha if isinstance(alpha, WeightEstimate) else np.asarray(alpha, dtype=float)
    rv = _values(X_or_r, name="X_or_r")
    keep, Aplus = _wls_operator(_topics_array(A_hat))
    sigma = (Aplus * rv[keep]) @ Aplus.T - np.outer(a, a)
    sigma = (sigma + sigma.T) / 2.0
    eig = numlin.sym_eig(sigma)
    return CovEstimate(sigma=sigma, method=CovMethod.PLUGIN_WLS, rank=eig.rank)
