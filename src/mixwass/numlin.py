"""Dense symmetric linear algebra for the estimators.

Eigendecomposition, Moore-Penrose pseudo-inverse, PSD square root and a
rank-checked inverse for the small (K x K) covariance and information
matrices that arise when estimating mixture weights.  All operations are
pure functions; K stays small (tens at most), so everything is dense LAPACK
via numpy.

One stacked eigensolver, ``_eig_stack``, factors a (B, K, K) stack in one
LAPACK call.  ``pinv``, ``psd_sqrt`` and ``inv_at_rank`` take a single
matrix or such a stack (``_pinv_of`` and ``_inv_of``: kept eigenpairs),
and ``sym_eig`` is a stack of one.  Each slice is factored and multiplied
on its own, so a matrix gets the same bits alone as in any stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, check_numbers

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


def _as_stack(M) -> tuple[np.ndarray, bool]:
    """M as a symmetrized (B, K, K) stack, and whether it was one matrix."""
    M = check_numbers(M, "M")
    single = M.ndim == 2
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise InvalidMatrix(f"M must be square or a stack of square matrices, got shape {M.shape}")
    S = M[None] if single else M
    size = np.abs(S).max(axis=(1, 2), initial=0.0)
    if not np.isfinite(size).all():  # the max keeps a NaN or an infinity
        raise InvalidMatrix("M has non-finite entries")
    ST = S.transpose(0, 2, 1)
    asym = np.abs(S - ST).max(axis=(1, 2), initial=0.0)
    bad = asym > 1e-6 * np.maximum(1.0, size)
    if bad.any():
        raise InvalidMatrix(f"M is not symmetric (max asymmetry {asym[bad][0]:.3e})")
    return (S + ST) / 2.0, single


def _eig_stack(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetrized (B, K, K) stack, eigenvalues descending:
    (eigenvalues (B, K), eigenvectors (B, K, K) as columns).

    ``eigh`` returns each slice's eigenvalues ascending, so descending
    order is their reversal; the copies keep both arrays C-ordered, the
    layout the products that follow and ``SymMatrixResult`` always had.
    """
    w, U = np.linalg.eigh(S)
    return w[:, ::-1].copy(), U[:, :, ::-1].copy()


def _rank(w: np.ndarray) -> np.ndarray:
    """Rank (B,) of each row of descending eigenvalues, as in ``SymMatrixResult``."""
    lam_max = np.maximum(w[:, :1], 0.0)  # a row's first eigenvalue is its largest
    return (w > w.shape[-1] * RANK_TOL_UNIT * lam_max).sum(axis=-1)


def _compose(Ud: np.ndarray, U: np.ndarray, single: bool) -> np.ndarray:
    """Symmetrized Ud U^T of each slice, Ud being U with scaled columns;
    one matrix if ``single``."""
    P = Ud @ U.transpose(0, 2, 1)
    P = (P + P.transpose(0, 2, 1)) / 2.0
    return P[0] if single else P


def sym_eig(M) -> SymMatrixResult:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized as (M + M^T)/2 before factorization.  Raises
    :class:`InvalidMatrix` for non-finite entries or gross asymmetry.
    """
    S, single = _as_stack(M)
    if not single:
        raise InvalidMatrix(f"M must be square, got shape {S.shape}")
    w, U = _eig_stack(S)
    return SymMatrixResult(
        dim=S.shape[-1],
        eigenvalues=w[0],
        eigenvectors=U[0],
        rank=int(_rank(w)[0]),
        rank_tolerance=float(S.shape[-1] * RANK_TOL_UNIT),
    )


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix or of each in a stack.

    Eigenvalues with |lambda| below the relative rank tolerance are treated
    as zero; the rest are inverted, so the Penrose identities hold for
    indefinite symmetric inputs as well as PSD ones.
    """
    S, single = _as_stack(M)
    return _pinv_of(*_eig_stack(S), single)


def _pinv_of(w: np.ndarray, U: np.ndarray, single: bool = False) -> np.ndarray:
    """``pinv`` of each slice of a stack from its eigenpairs (``_eig_stack``)."""
    # The largest |lambda| of a descending row is its first or its last.
    keep = np.abs(w) > w.shape[-1] * RANK_TOL_UNIT * np.maximum(w[:, :1], -w[:, -1:])
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    return _compose(U * inv[:, None, :], U, single)


def psd_sqrt(M) -> np.ndarray:
    """Symmetric PSD square root of a matrix or of each in a stack,
    clipping negative eigenvalues to 0."""
    S, single = _as_stack(M)
    w, U = _eig_stack(S)
    return _compose(U * np.sqrt(np.clip(w, 0.0, None))[:, None, :], U, single)


def inv_at_rank(M) -> np.ndarray:
    """Exact inverse of a symmetric matrix, or of each in a stack, checked
    to be full rank.

    Malformed input raises :class:`InvalidMatrix`.  A singular matrix, or a
    stack with any singular slice, raises ``_SingularAtRank``, which the
    caller translates into its domain-specific error type.
    """
    S, single = _as_stack(M)
    return _inv_of(*_eig_stack(S), single)


def _inv_of(w: np.ndarray, U: np.ndarray, single: bool = False) -> np.ndarray:
    """``inv_at_rank`` of each slice of a stack from its eigenpairs (``_eig_stack``)."""
    if np.any(_rank(w) < w.shape[-1]):
        raise _SingularAtRank()
    return _compose(U / w[:, None, :], U, single)


class _SingularAtRank(Exception):
    """Internal signal: matrix singular at rank tolerance (caller translates)."""
