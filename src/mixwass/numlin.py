"""Dense symmetric linear algebra for the estimators.

Eigendecomposition, Moore-Penrose pseudo-inverse, PSD square root and a
rank-checked inverse for the small (K x K) covariance and information
matrices that arise when estimating mixture weights.  All operations are pure functions; K stays
small (tens at most), so everything is dense LAPACK via numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix

# Relative rank tolerance: a (K x K) PSD matrix keeps eigenvalues above
# dim * 1e-12 * lambda_max.  The plug-in covariance has exact rank K-1 in
# exact arithmetic; a relative threshold recovers this under roundoff.
RANK_TOL_UNIT = 1e-12


@dataclass(frozen=True)
class SymMatrixResult:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    ``rank`` counts eigenvalues above ``rank_tolerance * max(lambda_1, 0)``,
    the PSD-oriented numerical rank used by the covariance estimators.
    """

    dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns are unit eigenvectors, same order
    rank: int
    rank_tolerance: float


def _as_symmetric(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidMatrix(f"M must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidMatrix("M has non-finite entries")
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    asym = float(np.abs(M - M.T).max(initial=0.0))
    if asym > 1e-6 * scale:
        raise InvalidMatrix(f"M is not symmetric (max asymmetry {asym:.3e})")
    return (M + M.T) / 2.0


def sym_eig(M) -> SymMatrixResult:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized as (M + M^T)/2 before factorization.  Raises
    :class:`InvalidMatrix` for non-finite entries or gross asymmetry.
    """
    S = _as_symmetric(M)
    K = S.shape[0]
    rank_tolerance = K * RANK_TOL_UNIT
    w, U = np.linalg.eigh(S)
    order = np.argsort(w)[::-1]
    w = w[order]
    U = U[:, order]
    lam_max = max(float(w[0]) if K else 0.0, 0.0)
    rank = int(np.sum(w > rank_tolerance * lam_max)) if lam_max > 0 else 0
    return SymMatrixResult(
        dim=K,
        eigenvalues=w,
        eigenvectors=U,
        rank=rank,
        rank_tolerance=float(rank_tolerance),
    )


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with |lambda| below the relative rank tolerance are treated
    as zero; the rest are inverted, so the Penrose identities hold for
    indefinite symmetric inputs as well as PSD ones.
    """
    res = sym_eig(M)
    w = res.eigenvalues
    absmax = float(np.abs(w).max(initial=0.0))
    thr = res.rank_tolerance * absmax
    inv = np.where(np.abs(w) > thr, 1.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(inv > 0, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    P = (res.eigenvectors * inv) @ res.eigenvectors.T
    return (P + P.T) / 2.0


def psd_sqrt(M) -> np.ndarray:
    """Symmetric PSD square root, clipping negative eigenvalues to 0."""
    res = sym_eig(M)
    w = np.clip(res.eigenvalues, 0.0, None)
    S = (res.eigenvectors * np.sqrt(w)) @ res.eigenvectors.T
    return (S + S.T) / 2.0


def inv_at_rank(M) -> np.ndarray:
    """Exact inverse of a symmetric matrix checked to be full rank.

    Raises ``np.linalg.LinAlgError`` style failure as :class:`InvalidMatrix`
    only for malformed input; singularity is reported by the caller, which
    owns the domain-specific error type.
    """
    res = sym_eig(M)
    if res.rank < res.dim:
        raise _SingularAtRank()
    w = res.eigenvalues
    Inv = (res.eigenvectors / w) @ res.eigenvectors.T
    return (Inv + Inv.T) / 2.0


class _SingularAtRank(Exception):
    """Internal signal: matrix singular at rank tolerance (caller translates)."""
