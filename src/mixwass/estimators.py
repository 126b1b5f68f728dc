"""Mixture-weight estimators from word counts.

Given (known or estimated) topics A, three estimators of the mixture
weights are provided:

* ``mle_weights`` -- the simplex-constrained maximum-likelihood estimate,
  computed by active-set Newton steps to a KKT certificate, with EM and
  a Newton polish for a fit they cannot certify;
* ``debias`` -- the one-step correction alpha_hat + Vhat^+ Psi(alpha_hat)
  that removes the boundary-induced asymptotic bias of the MLE and admits
  a Gaussian limit even for sparse weights;
* ``wls_weights`` -- the row-sum-preconditioned weighted least squares
  estimate, a closed-form alternative with a slightly wider limit law.

``sigma_hat`` and ``sigma_ls`` give the corresponding plug-in asymptotic
covariance matrices.

Each estimator is written once, for a batch of documents against one topic
matrix: ``_em_batch`` for the MLE, ``_debias_batch`` for the correction,
``_wls_batch`` for WLS, and ``_sigma_batch`` and ``_sigma_ls_batch`` for the
plug-in covariances.  A batch is a C-order stack of rows, (B, p)
frequencies in and (B, K) weights out, the layout the kernels compute on.
``_fit_batch``, the one way a document is fitted, validates a batch with
one mask and fits it by a ``Method``, with each MLE's certificate; the
public single-document functions are batches of one.  Every per-document
product is ``_rowdot``, a stack of fixed two-row GEMMs, or a matrix-vector
product per row (WLS), and every Gram A^T diag(w) A is one ``_rowdot``
against the topic matrix's outer table; so a document gets the same bits
in any batch.  The kernels take only a ``TopicMatrix``, which each public
function makes of its topics at its door (``transport._as_topics``); it
builds, on first use, and keeps its outer table, its WLS operator and its
dead words (those no topic emits, which ``_check_rows`` refuses a count on).

``_em_batch`` is one pipeline: a polish's Newton steps, then one EM-and-polish
loop.  Newton steps on the face of free coordinates (a projected Newton
method, Bertsekas 1982, SIAM J. Control Optim.) run from each document's
clipped WLS estimate, max(WLS, 0) renormalised, which is consistent at the
MLE's root-N rate and puts most coordinates off the MLE's support at exact
zeros at once.  A document starts at the uniform point instead where that
point is not finite or gives a counted word zero probability, and every
document does where the WLS design is singular (``_start``).  The steps set
exact zeros where the MLE sits on the simplex boundary, until a fit's KKT
gap is at most ``TOL_KKT``.  A fit they leave uncertified after
``_NEWTON_MAX_STEPS`` runs the multiplicative EM map from the uniform point
until one map moves it by at most ``EM_TOL`` = 1e-3 in l1, and Newton
polishes it from there; one still uncertified runs EM on to a step of
``_EM_TIGHT_TOL`` and is polished once more.  Every EM map and Newton step
keeps iterates in the simplex and the log-likelihood nondecreasing.
``converged`` means exactly that the KKT certificate holds; ``iterations``
counts Newton steps and EM maps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import numlin
from .errors import (
    DegenerateSupport,
    InfeasibleRow,
    InvalidParam,
    SingularDesign,
    SingularInformation,
    _INT64_MAX,
    check_choice,
    check_count,
)
from .transport import TopicMatrix, _as_topics, _values

# Support threshold for Jhat = {j : Ahat_j . alpha > ZETA}; numerical
# stand-in for strict positivity of the fitted word probabilities.
ZETA = 1e-12
# A weight coordinate counts as active in KKT checks above this level.
TAU_SUPP = 1e-8
# KKT certificate of an MLE fit: the Newton finish stops once a fit's KKT
# gap is at most this, and only such fits are ``converged``.  A certified
# fit lies within about TOL_KKT / c of the MLE, where c is the smallest
# curvature of the log-likelihood on the fit's face: 3 * TOL_KKT at c = 1/3,
# but 3e-8 at c = 0.026 (13 topics, a five-word document).
TOL_KKT = 1e-9

# A fit the first Newton round cannot certify runs EM, which stops once one
# map moves it by at most EM_TOL in l1 and hands it to a Newton polish; EM's
# slow tail is what Newton replaces.  A fit that polish cannot certify runs
# EM on to a step of _EM_TIGHT_TOL and is polished again.
EM_TOL = 1e-3
EM_MAX_ITER = 10_000
_EM_TIGHT_TOL = 1e-10
# Newton steps per round, the first and each polish, and halvings per step,
# before a fit is uncertified.
_NEWTON_MAX_STEPS = 20
_NEWTON_MAX_HALVINGS = 30


class Method(str, enum.Enum):
    MLE = "mle"
    DEBIASED = "debiased"
    WLS = "wls"

    @classmethod
    def _missing_(cls, value):
        check_choice(value, "Method value", [m.value for m in cls])


@dataclass(frozen=True)
class CountVector:
    """Word counts of one document; N is the total number of words."""

    counts: np.ndarray
    N: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.dtype.kind not in "iuf" or c.ndim != 1 or c.size == 0:  # not bools, strings, or integers past int64
            raise InvalidParam(f"counts must be a nonempty 1-d array of integers, not {c.dtype} of shape {c.shape}")
        if not np.issubdtype(c.dtype, np.integer):
            if not np.isfinite(c).all():  # before np.mod, which warns on inf
                raise InvalidParam("counts must be finite: it has a non-finite count")
            if not np.all(np.equal(np.mod(c, 1), 0)):
                raise InvalidParam("counts must be integers")
            c = c.astype(np.int64)
        if c.min() < 0:
            raise InvalidParam("counts must be non-negative")
        # Sum exactly where an int64 sum could wrap.
        total = int(c.sum(dtype=object) if c.max() > _INT64_MAX // c.size else c.sum())
        if total > _INT64_MAX:
            raise InvalidParam("counts sum past int64")
        if total < 1:
            raise InvalidParam("counts must hold at least one word")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "N", total)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.N


@dataclass(frozen=True)
class WeightEstimate:
    """Estimated mixture weights plus solver diagnostics.

    The MLE variant lies in the simplex; debiased and WLS variants sum to
    one but may have negative entries.
    """

    alpha: np.ndarray
    method: Method
    iterations: int
    converged: bool
    kkt_gap: float | None = None


@dataclass(frozen=True)
class CovEstimate:
    """Plug-in asymptotic covariance matrix (symmetric, PSD up to roundoff)."""

    sigma: np.ndarray
    rank: int


def _check_rows(X: np.ndarray, A: TopicMatrix) -> None:
    """Refuse a (B, p) batch of frequency rows with the first failing row's error.

    One mask for the batch.  A row's faults, in the order they are raised:
    a non-finite or negative entry, empty support, a positive count on a
    word that no topic gives positive probability, a sum off one by more
    than ``TOL_KKT``, since the MLE's KKT gap is at least that offset.  The
    dead words are the topic matrix's (``TopicMatrix.dead``).
    """
    if X.shape[1] != A.p:
        raise InvalidParam(f"X has dim {X.shape[1]}, topics have {A.p} rows")
    pos, sums = X > 0, X.sum(axis=1)
    dead = A.dead
    bad = ~(np.abs(sums - 1.0) <= TOL_KKT) | (X < 0).any(axis=1) | pos[:, dead].any(axis=1)
    if bad.any():
        b = int(bad.argmax())
        if not np.isfinite(X[b]).all():
            raise InvalidParam("X must be finite: it has a non-finite entry")
        if X[b].min() < 0:
            raise InvalidParam("X has a negative entry")
        if not pos[b].any():
            raise InvalidParam("X has empty support")
        words = dead[pos[b, dead]]
        if words.size:
            raise InfeasibleRow(f"word {int(words[0])} has positive count but zero probability under every topic")
        raise InvalidParam(f"X sums to {float(sums[b])!r}, not 1")


def _rowdot(U: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Each row of U times M, as a stack of fixed two-row GEMMs.

    U runs as (2, n) @ (n, m) blocks, and an odd last row is doubled into
    a block of its own.  One (B, n) @ (n, m) product would block by B, and
    a one-row product is matrix-vector, with other bits; a two-row block
    gives a row the same bits at any batch size and position.
    """
    n = len(U)
    if n <= 2:  # one block: the same GEMM without the stacking overhead
        return ((np.concatenate((U, U)) if n == 1 else U) @ M)[:n]
    if n % 2:
        U = np.concatenate((U, U[-1:]))
    return (U.reshape(-1, 2, U.shape[1]) @ M).reshape(-1, M.shape[1])[:n]


def _design(A: TopicMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A topic matrix as C-ordered A, A^T and its outer table, which every fit against it shares."""
    Am = np.ascontiguousarray(A.matrix)
    return Am, np.ascontiguousarray(Am.T), A.outers


def _fitted(x: np.ndarray, AT: np.ndarray) -> np.ndarray:
    """Word probabilities A x of each weight row x, floored away from 0."""
    return np.maximum(_rowdot(x, AT), 1e-300)


def _gap(x: np.ndarray, gm1: np.ndarray) -> np.ndarray:
    """KKT defect of each weight row x with likelihood gradient g = gm1 + 1.

    At the simplex MLE g_k = 1 where x_k > 0 and g_k <= 1 where x_k = 0;
    coordinates at or below ``TAU_SUPP`` count as zero.
    """
    return np.where(x > TAU_SUPP, np.abs(gm1), np.maximum(gm1, 0.0)).max(axis=1)


def _kkt_gaps(X: np.ndarray, A: TopicMatrix, alphas: np.ndarray) -> np.ndarray:
    """KKT defect (B,) of each (B, K) weight row on its (B, p) frequency row.

    No fit calls it: ``_em_batch`` takes its gaps from the Newton finish,
    and the tests hold them to this, bit for bit.
    """
    A, AT, _ = _design(A)
    return _gap(alphas, _rowdot(X / _fitted(alphas, AT), A) - 1.0)


def _grams(W: np.ndarray, AA: np.ndarray) -> np.ndarray:
    """A^T diag(w) A for each row w of W, as a stack of (K, K) matrices.

    ``AA`` is the topic matrix's outer table (``TopicMatrix.outers``),
    whose row j is vec(A_j A_j^T), so the Grams are one ``_rowdot``: a
    row's Gram does not depend on the batch, and since entries (k, l) and
    (l, k) of the table are equal columns, every Gram is exactly symmetric.
    """
    K = math.isqrt(AA.shape[1])
    return _rowdot(W, AA).reshape(-1, K, K)


def _em(X, A, AT, x, tol, budget):
    """Multiplicative EM on frequency rows X from weight rows x.

    Returns (weights, EM maps used).  The map x_k <- x_k * g_k, with
    gradient g_k = sum_j X_j A_jk / (A_j . x), never lowers the
    log-likelihood.  Row b stops once one map moves it by at most ``tol``
    in l1, or after ``budget[b]`` maps; the working rows are compacted only
    on a map after which some row leaves.
    """
    out, used = x.copy(), budget.copy()
    active = np.flatnonzero(budget > 0)
    X, x, left, it = X[active], x[active], budget[active], 0
    while active.size:
        x1 = x * _rowdot(X / _fitted(x, AT), A)
        it += 1
        keep = (np.abs(x1 - x).sum(axis=1) > tol) & (left > it)
        if not keep.all():
            out[active[~keep]], used[active[~keep]] = x1[~keep], it
            active, X, x1, left = active[keep], X[keep], x1[keep], left[keep]
        x = x1
    out /= out.sum(axis=1, keepdims=True)
    return out, used


def _face_step(H: np.ndarray, gm1: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Newton direction of each row on its face.

    Solves the bordered system [[H_FF, 1], [1^T, 0]] [d_F; mu] = [g_F - 1; 0]
    of the face F = ``free`` with d = 0 off F, padded to (K+1) x (K+1) with
    an identity block off F so that all rows are one stacked solve.  A
    singular system (duplicate topics, or fewer distinct words than free
    coordinates) gets its minimum-norm least-squares solution.
    """
    n, K = gm1.shape
    M = np.zeros((n, K + 1, K + 1))
    rhs = np.zeros((n, K + 1, 1))
    if free.all():  # no padding: the usual interior fit
        M[:, :K, :K], M[:, :K, K], M[:, K, :K], rhs[:, :K, 0] = H, 1.0, 1.0, gm1
    else:
        both = free[:, :, None] & free[:, None, :]
        M[:, :K, :K] = np.where(both, H, np.eye(K) * ~free[:, :, None])
        M[:, :K, K] = M[:, K, :K] = free
        rhs[:, :K, 0] = np.where(free, gm1, 0.0)
    try:
        return np.linalg.solve(M, rhs)[:, :K, 0]
    except np.linalg.LinAlgError:  # one singular system fails the whole stack
        d = np.empty((n, K))
        for b in range(n):
            try:
                d[b] = np.linalg.solve(M[b], rhs[b])[:K, 0]
            except np.linalg.LinAlgError:
                d[b] = np.linalg.lstsq(M[b], rhs[b], rcond=None)[0][:K, 0]
        return d


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton_finish(X, A, AT, AA, x, budget):
    """Active-set Newton polish of weight rows x to the KKT certificate.

    Returns (weights, Newton steps used, certified).  Each step solves for
    the Newton direction on the face F of free coordinates, those with
    x_k > 0 or g_k > 1, with Hessian A_F^T diag(X / r^2) A_F under the
    sum-to-one constraint; a zero coordinate whose direction is negative
    leaves F before the step.  A ratio test sets the blocking coordinate
    to an exact zero, and the step is halved until the log-likelihood does
    not fall.  The check computes the gain from the step dx itself, as
    sum_j X_j log1p(A_j dx / r_j) less the log of the change in the
    weights' sum, so it still decides steps whose gain is far below the
    rounding of the log-likelihood.  A row stops certified once its KKT
    gap is at most ``TOL_KKT``, and uncertified after ``budget[b]`` steps,
    or when no halving keeps its likelihood.

    A fourth array holds each row's KKT gap, from the gradient at its
    returned point.  As in ``_em``, rows are compacted only on a step
    after which some row leaves, and a step every row takes whole is not
    scattered: the halving bookkeeping starts only once a row refuses its
    full step.
    """
    out, used, certified = x.copy(), np.zeros(len(x), dtype=np.int64), np.zeros(len(x), dtype=bool)
    gaps = np.empty(len(x))
    active = np.arange(len(x))
    R = _fitted(x, AT)
    left, steps = budget, 0
    while active.size:
        XR = X / R
        gm1 = _rowdot(XR, A) - 1.0
        gap = _gap(x, gm1)
        ok = gap <= TOL_KKT
        keep = ~ok & (left > steps)
        if not keep.all():
            gone = active[~keep]
            out[gone], used[gone], gaps[gone], certified[active[ok]] = x[~keep], steps, gap[~keep], True
            if gone.size == active.size:
                break
            active, X, XR, x, R, gm1, gap, left = active[keep], X[keep], XR[keep], x[keep], R[keep], gm1[keep], gap[keep], left[keep]
        H = _grams(XR / R, AA)
        free = (x > 0.0) | (gm1 > 0.0)
        d = _face_step(H, gm1, free)
        while True:
            drop = free & (x == 0.0) & (d < 0.0)
            rows = np.flatnonzero(drop.any(axis=1))
            if not rows.size:
                break
            free[rows] &= ~drop[rows]
            d[rows] = _face_step(H[rows], gm1[rows], free[rows])
        ratio = np.where(free & (d < 0.0), x / -d, np.inf)
        t = np.minimum(ratio.min(axis=1), 1.0)
        pos = X > 0.0
        xt, acc = _trial_step(X, pos, x, R, d, t, ratio, AT)
        steps += 1
        if acc.all():  # every row takes its full step: no scatter
            x, R = xt, _fitted(xt, AT)
            continue
        moved, trial = acc, np.flatnonzero(~acc)
        x[acc], R[acc] = xt[acc], _fitted(xt[acc], AT)
        for _ in range(_NEWTON_MAX_HALVINGS - 1):
            t[trial] /= 2.0
            xt, acc = _trial_step(X[trial], pos[trial], x[trial], R[trial], d[trial], t[trial], ratio[trial], AT)
            hit = trial[acc]
            x[hit], R[hit], moved[hit] = xt[acc], _fitted(xt[acc], AT), True
            trial = trial[~acc]
            if not trial.size:
                break
        # A row whose step failed has no way forward; its gap is still this step's.
        if not moved.all():
            gone = active[~moved]
            out[gone], used[gone], gaps[gone] = x[~moved], steps, gap[~moved]
            if gone.size == active.size:
                break
            active, X, x, R, left = active[moved], X[moved], x[moved], R[moved], left[moved]
    return out, used, certified, gaps


def _trial_step(X, pos, x, R, d, t, ratio, AT):
    """Rows x moved by t d, and whether each move keeps the log-likelihood.

    A coordinate the ratio test blocks at t is set to an exact zero, and
    the gain is computed from the move itself (see ``_newton_finish``);
    ``pos`` is X > 0 and R the fitted probabilities at x.
    """
    xt = np.maximum(x + t[:, None] * d, 0.0)
    xt[ratio <= t[:, None]] = 0.0
    xt /= xt.sum(axis=1, keepdims=True)
    dx = xt - x
    terms = np.where(pos, X * np.log1p(_rowdot(dx, AT) / R), 0.0)
    return xt, terms.sum(axis=1) >= np.log1p(dx.sum(axis=1) / x.sum(axis=1))


def _start(X: np.ndarray, AT: np.ndarray, A: TopicMatrix) -> np.ndarray:
    """Start (B, K) of the first Newton round: each row's clipped WLS point.

    max(WLS, 0), renormalised, so most coordinates off the MLE's support
    start as exact zeros.  A row falls back to the uniform point where its
    clipped point is not finite or gives a word with a positive count zero
    probability, and every row does where the WLS design is singular
    (:class:`SingularDesign`, duplicate topics say).  The WLS products are
    per row (``_wls_batch``), so a row gets the same start in any batch.
    """
    try:
        x = np.maximum(_wls_batch(X, A), 0.0)
    except SingularDesign:
        return np.full((len(X), AT.shape[0]), 1.0 / AT.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        x /= x.sum(axis=1, keepdims=True)
    ok = ((_rowdot(x, AT) > 0.0) | (X == 0.0)).all(axis=1) & np.isfinite(x).all(axis=1)
    if not ok.all():
        x[~ok] = 1.0 / AT.shape[0]
    return x


def _em_batch(X: np.ndarray, A: TopicMatrix, max_iter: int = EM_MAX_ITER) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simplex MLE of a (B, p) batch of frequency rows: a polish's Newton steps, then EM and a polish.

    Returns (alphas (B, K), iterations (B,), converged (B,), KKT gaps (B,)).
    ``_newton_finish`` runs first on every row, from its clipped WLS point
    or the uniform point (``_start``), for at most ``_NEWTON_MAX_STEPS``
    steps and ``max_iter``; ``converged`` certifies a KKT gap of at most
    ``TOL_KKT``.  Then, for each EM stop in turn, ``EM_TOL`` and
    ``_EM_TIGHT_TOL``, every row still uncertified with budget left runs
    EM (``_em``) on from where the previous round's EM left it, the
    uniform point the first time, leaving a polish's steps of its budget,
    and ``_polish`` finishes it within what is left.  ``iterations`` and
    ``max_iter`` count Newton steps and EM maps together, and the gaps are
    the ones Newton evaluated at each row's returned point.  A row's
    arithmetic does not depend on the rest of the batch, so a batch of one
    gives the same bits.
    """
    Am, AT, AA = _design(A)
    out, iterations, converged, gaps = _newton_finish(X, Am, AT, AA, _start(X, AT, A), np.full(len(X), min(max_iter, _NEWTON_MAX_STEPS)))
    x = np.full_like(out, 1.0 / Am.shape[1])
    for tol in (EM_TOL, _EM_TIGHT_TOL):
        rows = np.flatnonzero(~converged & (iterations < max_iter))
        if not rows.size:
            break
        left = max_iter - iterations[rows]
        x[rows], used = _em(X[rows], Am, AT, x[rows], tol, np.maximum(left - _NEWTON_MAX_STEPS, 0))
        out[rows], steps, converged[rows], gaps[rows] = _polish(X[rows], Am, AT, AA, x[rows], left - used)
        iterations[rows] += used + steps
    return out, iterations, converged, gaps


def _polish(X, A, AT, AA, x, budget):
    """``_newton_finish`` of EM stops x within ``_NEWTON_MAX_STEPS`` and ``budget``,
    from x with its weights at or below ``TAU_SUPP`` set to exact zeros where
    the rest still give every word of X a probability: EM leaves boundary
    weights down to 1e-300, below what the ratio test can zero, and zeroing
    x_k moves the log-likelihood by about x_k (1 - g_k)."""
    z = np.where(x > TAU_SUPP, x, 0.0)
    z = np.where(((_rowdot(z, AT) > 0.0) | (X == 0.0)).all(axis=1)[:, None], z, x)
    return _newton_finish(X, A, AT, AA, z / z.sum(axis=1, keepdims=True), np.minimum(budget, _NEWTON_MAX_STEPS))


def mle_weights(X, A, max_iter: int = EM_MAX_ITER) -> WeightEstimate:
    """Simplex MLE of the mixture weights, certified by its KKT conditions.

    Maximizes sum_j X_j log(A_j . alpha) over the simplex.  Active-set
    Newton steps run to the MLE, with exact zeros off its support, from
    the clipped WLS estimate, or from the uniform point where that gives a
    counted word zero probability or the WLS design is singular (see
    ``_start``), for at most ``_NEWTON_MAX_STEPS`` steps.  A fit they
    cannot certify runs EM (alpha_k <- alpha_k * g_k with gradient
    g_k = sum_j X_j A_jk / (A_j . alpha)) from the uniform point, and
    Newton polishes it from where EM stops, once at a step of ``EM_TOL``
    and, if still uncertified, once more at a step of ``_EM_TIGHT_TOL``
    (see ``_em_batch``).  The fit is ``_fit_batch`` with the document as a
    batch of one, so it equals the batched fit of the same document.

    ``kkt_gap`` is the stationarity defect of the returned point:
    max |g_k - 1| over coordinates above ``TAU_SUPP`` and max (g_k - 1)_+
    over the others.  ``converged`` certifies ``kkt_gap <= TOL_KKT``.
    ``iterations`` and ``max_iter``, an integer >= 0, count Newton steps
    plus any EM maps.
    """
    return _fit_batch(_values(X, "X")[None, :], _as_topics(A, "A"), Method.MLE, max_iter).estimate(0)


def mle_objective(alpha, X, A) -> float:
    """Normalized log-likelihood sum_j X_j log(A_j . alpha) on supp(X)."""
    Xv = _values(X, "X")
    Am = _as_topics(A, "A").matrix
    s = Xv > 0
    r = Am[s] @ np.asarray(alpha, dtype=float)
    if np.any(r <= 0):
        return -np.inf
    return float(Xv[s] @ np.log(r))


def _information(x: np.ndarray, A: TopicMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Information matrices (B, K, K) of a (B, K) batch of weight rows x.

    Returns (A, the mask J of fitted probabilities r = x A^T above ``ZETA``,
    r on J and 1 off it, and one ``_grams`` of 1/r on J: sum_{j in J} A_j A_j^T / r_j).
    A row with J empty raises :class:`DegenerateSupport` for the batch.
    """
    A, AT, AA = _design(A)
    R = _rowdot(x, AT)
    J = R > ZETA
    if not J.any(axis=1).all():
        raise DegenerateSupport("no word has fitted probability above the support threshold")
    R = np.where(J, R, 1.0)
    return A, J, R, _grams(np.where(J, 1.0 / R, 0.0), AA)


def _debias_batch(alphas: np.ndarray, X: np.ndarray, A: TopicMatrix) -> np.ndarray:
    """One-step correction of (B, K) MLE rows on their (B, p) frequency rows
    (see ``debias``): ``_information``, and its pseudo-inverses in one stacked call."""
    A, J, R, V = _information(alphas, A)
    psi = _rowdot(np.where(J, (X - R) / R, 0.0), A)  # (B, K)
    return alphas + (numlin.pinv(V) @ psi[:, :, None])[:, :, 0]


def debias(alpha_hat, X, A_hat) -> WeightEstimate:
    """One-step bias correction of the simplex MLE.

    With Jhat = {j : Ahat_j . alpha_hat > ZETA}, computes the score
    Psi(alpha_hat) = sum_{j in Jhat} (X_j - rhat_j)/rhat_j * Ahat_j and the
    weighting matrix Vhat = sum_{j in Jhat} Ahat_j Ahat_j^T / rhat_j, and
    returns alpha_hat + Vhat^+ Psi(alpha_hat).  The result sums to one but
    may leave the simplex.  X is refused as the MLE refuses it.  This is
    ``_debias_batch`` on a batch of one.
    """
    A_hat = _as_topics(A_hat, "A_hat")
    alpha = _values(alpha_hat, "alpha_hat", A_hat.K)
    base = alpha_hat if isinstance(alpha_hat, WeightEstimate) else WeightEstimate(alpha, Method.MLE, 0, True)
    X = _values(X, "X")[None, :]
    _check_rows(X, A_hat)
    return replace(base, alpha=_debias_batch(alpha[None, :], X, A_hat)[0], method=Method.DEBIASED)  # the MLE's diagnostics


class _Fits(NamedTuple):
    """A batch's fits by ``method``: (B, K) estimates and the MLEs they start
    from, and each MLE's iterations, certificate and KKT gap.  WLS fits no
    MLE: its ``mle`` and ``kkt_gap`` are None, iterations 0, certificates True."""

    method: Method
    est: np.ndarray
    mle: np.ndarray | None
    iterations: np.ndarray
    converged: np.ndarray
    kkt_gap: np.ndarray | None

    def estimate(self, b: int) -> WeightEstimate:
        gap = None if self.kkt_gap is None else float(self.kkt_gap[b])
        return WeightEstimate(self.est[b], self.method, int(self.iterations[b]), bool(self.converged[b]), gap)


def _fit_batch(X: np.ndarray, A: TopicMatrix, method: Method = Method.DEBIASED, max_iter: int = EM_MAX_ITER) -> _Fits:
    """Fit of each (B, p) frequency row by ``method``: the one way a document is fitted.

    Every method validates the batch (``_check_rows``) and ``max_iter``, a
    count from 0.  The MLE is ``_em_batch`` with its KKT gaps,
    the debiased fit ``_debias_batch`` of it, and WLS ``_wls_batch``.
    """
    check_count(max_iter, "max_iter", 0)
    _check_rows(X, A)
    if method is Method.WLS:
        return _Fits(method, _wls_batch(X, A), None, np.zeros(len(X), dtype=np.int64), np.ones(len(X), dtype=bool), None)
    mle, iterations, converged, gaps = _em_batch(X, A, int(max_iter))
    est = _debias_batch(mle, X, A) if method is Method.DEBIASED else mle
    return _Fits(method, est, mle, iterations, converged, gaps)


def _covariances(fits: _Fits, X: np.ndarray, A: TopicMatrix) -> np.ndarray | None:
    """Plug-in covariances (B, K, K) of the fits of frequency rows X: at
    the MLE for the debiased fit, at the estimate for WLS, none for the MLE."""
    if fits.method is Method.WLS:
        return _sigma_ls_batch(fits.est, X, A)
    return _sigma_batch(fits.mle, A) if fits.method is Method.DEBIASED else None


def _sigma_batch(x: np.ndarray, A: TopicMatrix) -> np.ndarray:
    """Plug-in covariances (B, K, K) of a (B, K) batch of weight rows x.

    See ``sigma_hat``.  ``_information``'s matrices, inverted in one stacked
    call; one that is singular raises :class:`SingularInformation` for the batch.
    """
    H = _information(x, A)[3]
    try:
        Hinv = numlin.inv_at_rank(H)
    except numlin._SingularAtRank:
        raise SingularInformation("plug-in information matrix is singular") from None
    sigma = Hinv - x[:, :, None] * x[:, None, :]
    return (sigma + sigma.transpose(0, 2, 1)) / 2.0


def sigma_hat(alpha, A_hat) -> CovEstimate:
    """Plug-in asymptotic covariance of the debiased weight estimator.

    sigma = (sum_{j in Jhat} Ahat_j Ahat_j^T / rhat_j)^{-1} - alpha alpha^T
    with rhat = Ahat alpha.  Raises :class:`SingularInformation` when the
    information matrix is singular at rank tolerance.  This is
    ``_sigma_batch`` on a batch of one, plus the rank of the result.
    """
    A_hat = _as_topics(A_hat, "A_hat")
    sigma = _sigma_batch(_values(alpha, "alpha", A_hat.K)[None, :], A_hat)[0]
    return CovEstimate(sigma=sigma, rank=numlin.sym_eig(sigma).rank)


def _wls_operator(A: TopicMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Rows with positive mass and the WLS pseudo-inverse on them (``TopicMatrix.wls``).

    A singular design raises :class:`SingularDesign`.
    """
    keep, Aplus = A.wls
    if Aplus is None:
        raise SingularDesign("weighted design matrix Ahat^T Dhat^{-1} Ahat is singular")
    return keep, Aplus


def _wls_batch(X: np.ndarray, A: TopicMatrix) -> np.ndarray:
    """WLS estimates (B, K) of (B, p) frequency rows (see ``wls_weights``):
    one matrix-vector product per row, stacked, since one GEMM over the
    batch gives a row other bits at other heights."""
    keep, Aplus = _wls_operator(A)
    return (Aplus @ X[:, keep, None])[:, :, 0]


def wls_weights(X, A_hat) -> WeightEstimate:
    """Weighted least squares estimate Mhat^{-1} Ahat^T Dhat^{-1} X.

    Dhat is the diagonal of topic-row l1 norms; rows with zero mass are
    dropped.  The estimate sums to one (Mhat is doubly stochastic) but may
    have negative entries.  X is validated as the MLE validates it, so a
    positive count on a zero-mass row raises :class:`InfeasibleRow`.  This
    is ``_fit_batch`` on a batch of one.
    """
    return _fit_batch(_values(X, "X")[None, :], _as_topics(A_hat, "A_hat"), Method.WLS).estimate(0)


def _sigma_ls_batch(x: np.ndarray, R: np.ndarray, A: TopicMatrix) -> np.ndarray:
    """WLS plug-in covariances (B, K, K) of (B, K) weight and (B, p) probability rows (see ``sigma_ls``)."""
    keep, Aplus = _wls_operator(A)
    sigma = (Aplus * R[:, None, keep]) @ Aplus.T - x[:, :, None] * x[:, None, :]
    return (sigma + sigma.transpose(0, 2, 1)) / 2.0


def sigma_ls(alpha, X_or_r, A_hat) -> CovEstimate:
    """Plug-in covariance of the WLS estimator.

    sigma = Ahat^+ diag(rhat) Ahat^{+T} - alpha alpha^T, where Ahat^+ is the
    preconditioned pseudo-inverse Mhat^{-1} Ahat^T Dhat^{-1} and rhat is the
    supplied frequency or probability vector.  This is ``_sigma_ls_batch``
    on a batch of one.
    """
    A_hat = _as_topics(A_hat, "A_hat")
    sigma = _sigma_ls_batch(_values(alpha, "alpha", A_hat.K)[None, :], _values(X_or_r, "X_or_r", A_hat.p)[None, :], A_hat)[0]
    return CovEstimate(sigma=sigma, rank=numlin.sym_eig(sigma).rank)
