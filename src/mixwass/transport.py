"""Metrics on the simplex, cost matrices, and discrete Wasserstein LPs.

The Wasserstein distance between two K-atom mixing measures is computed two
ways: as the primal transportation LP over couplings, and as the
Kantorovich-Rubinstein dual, the maximum of f^T(alpha - beta) over the
polytope of vectors satisfying f_k - f_l <= d(A_k, A_l) with f_1 = 0.
Both routes go through scipy's HiGHS solver; the dual polytope additionally
caches its vertex set (Qhull) so that Monte Carlo loops can evaluate the
support function as a matrix product against the vertices instead of one
LP per draw.  The dual polytope of a symmetric cost is centrally symmetric,
F = -F, so a base polytope's support table holds half of its vertices and
a value is max |<v, z>| over that half.  The product runs over the
directions padded to a multiple of ``_LANES``, in blocks of at most
``_VERTEX_BLOCK`` entries (1 MB) at any number of draws, for every K that
is enumerated.  Up to ``_VERTEX_MAJOR_MAX`` vertices it is taken
vertex-major, T @ U^T, whose maximum runs down contiguous columns; beyond
that, row-major, U @ T with T a C-contiguous (K, n) copy.  Either way, at
every enumerated K a direction gets the same bits alone and in any batch;
up to K=8 these are also the bits of the product over all the vertices.
There is one vertex cache per base polytope: a
restriction to a slab around the optimal facet is a view that reads its
base's vertices.  Qhull is seeded at f = 0 wherever that point
is strictly interior, as it is for every base polytope of a cost with
positive off-diagonal entries, and at the Chebyshev centre otherwise.
The polytope also says whether f = 0 is in it (``zero_feasible``); where it
is, ``support_batch`` floors its values at 0 on every route.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import numlin
from .errors import (
    DimError,
    InvalidCost,
    InvalidParam,
    InvalidSimplex,
    LPFailure,
    MixwassError,
    Unbounded,
    check_choice,
    check_instance,
    check_numbers,
    check_real,
    check_vector,
)

# Probability vectors must sum to one within this tolerance.
SIMPLEX_TOL = 1e-8

# Vertex enumeration is skipped above this dimension and support values
# come from one LP per direction.  The base polytope has C(2K-2, K-1)
# vertices: at K=11 Qhull took 57 s for its 184,756, and an M=1000
# support_batch over them builds a 1.5 GB product, while the LP route
# costs about 2.7 ms per direction.
_QHULL_MAX_K = 10

# Entries per block of the vertex product in ``support_batch`` (1 MB).
# Over the half tables, 1000 draws took 1.48 ms at K=8 in blocks of 72 rows
# against 1.56 ms in 32 rows (1 << 16) and 2.42 ms in 152 rows (1 << 18);
# 5.7 ms at K=9 in 16 rows against 6.1 ms in 8 and 7.0 ms in 24; 39 ms at
# K=10 at any of 8 to 32 rows; and 0.61 ms over the 462 of K=7 against 0.70
# and 0.74 ms at 1 << 16 and 1 << 19 (2 CPUs, one BLAS thread).  At K=8 a
# block of up to 72 rows over the half gave every value the bits of the
# product over all vertices, and from 73 rows on it did not.  This budget
# keeps K=8 blocks at 72 rows of a half table and 32 of a full one.  At K=9
# and 10 a value has the same bits in every block, but not always those of
# the product over all vertices.
_VERTEX_BLOCK = 1 << 17

# Up to this many vertices (all of K <= 7: C(12, 6) = 924), ``support_batch``
# takes the product vertex-major, (T @ U^T) reduced over axis 0.  The
# row-major U @ V^T spends most of its time in the short row maxima: 1000
# directions took 74 instead of 142 us over the 70 vertices of K=5 and 306
# instead of 401 us over the 252 of K=6 (one BLAS thread).  Over the 924 of
# K=7 they took 1354 instead of 1109 us, but there the row-major product
# gave a lone direction other bits than a batch did, which the vertex-major
# one does not.  Over the half tables vertex-major still pays: at K=5, 1000
# directions took 0.05 against 0.14 ms row-major (one BLAS thread), and a
# null-table op makes 64 such calls.  ``_support_table`` chooses the route by the full
# vertex count, also where the table holds half of them.
_VERTEX_MAJOR_MAX = 924

# ``support_batch`` pads its directions to a multiple of this many (one
# AVX-512 vector of doubles), the last one repeated, and sizes its blocks in
# multiples of it: over a ragged count, BLAS runs the last directions
# through tail kernels with other bits, and a lone direction would be a
# matrix-vector product.
_LANES = 8

# HiGHS options of the primal and dual distance LPs.  At the default 1e-7
# feasibility tolerances both drift up to ~1e-8 from the exact value on
# weights below 1e-7; at 1e-10, presolve calls some transportation LPs
# infeasible.
_LP_OPTIONS = {"presolve": False, "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}

# Positive-width facet slabs, and the vertex filter of an optimal face, get
# this much numerical slack so that the face computed by one route stays
# feasible for the other.
FACET_SLACK_UNIT = 1e-7

# ``DualPolytope.contains`` tolerance.  The optimal face pins f^T u to w_hat
# with no slack, so it holds f = 0 exactly when |w_hat| is within this.
CONTAINS_TOL = 1e-8


def facet_slack(target: float) -> float:
    return FACET_SLACK_UNIT * max(1.0, abs(target))


def _slab_bounds(target: float, delta: float) -> tuple[float, float]:
    """Bounds (lo, hi) on f^T u of a slab of width delta > 0 around target."""
    return target - delta - facet_slack(target), target + delta + facet_slack(target)


_METRICS = ("tv", "l2")


def _values(x, name: str, K: int | None = None) -> np.ndarray:
    """The entries of a ProbVec, CountVector (frequencies), WeightEstimate (alpha) or array-like, by ``check_vector``."""
    if isinstance(x, ProbVec):
        x = x.values
    elif hasattr(x, "frequencies"):  # CountVector
        x = x.frequencies
    elif hasattr(x, "alpha"):  # WeightEstimate
        x = x.alpha
    return check_vector(x, name, K)


class ProbVec:
    """A point of the probability simplex.

    Entries must be non-negative and sum to one within ``SIMPLEX_TOL``.
    Tiny negative entries (roundoff) are clipped to zero.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = check_numbers(values, "probability vector")
        if v.ndim != 1 or v.size == 0:
            raise InvalidParam("probability vector must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)):
            raise InvalidSimplex("probability vector has non-finite entries")
        if v.min() < -1e-9:
            raise InvalidSimplex(f"negative entry {v.min():.3e} in probability vector")
        v = np.clip(v, 0.0, None)
        s = v.sum()
        if abs(s - 1.0) > SIMPLEX_TOL:
            raise InvalidSimplex(f"probability vector entries sum to {float(s)!r}, expected 1")
        self.values = v
        self.values.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"ProbVec({self.values!r})"


class TopicMatrix:
    """p x K matrix whose columns are mixture components in the p-simplex.

    ``outers``, ``wls`` and ``dead`` are built on first use and kept, with
    ``transposed`` and ``factors`` (``estimators._factor``), beside the
    read-only matrix, so every estimator call on one ``TopicMatrix`` shares them.
    """

    __slots__ = ("matrix", "transposed", "_outers", "_wls", "_dead", "factors")

    def __init__(self, matrix):
        M = check_numbers(matrix, "topic matrix")
        if M.ndim != 2 or M.size == 0:
            raise InvalidParam(f"topic matrix must be 2-d and nonempty, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise InvalidSimplex("topic matrix has non-finite entries")
        if M.min() < -1e-9:
            raise InvalidSimplex("topic matrix has negative entries")
        M = np.clip(M, 0.0, None)
        sums = M.sum(axis=0)
        if np.abs(sums - 1.0).max() > SIMPLEX_TOL:
            k = int(np.abs(sums - 1.0).argmax())
            raise InvalidSimplex(f"topic matrix column {k} sums to {float(sums[k])!r}, expected 1")
        self.matrix = M
        self.matrix.flags.writeable = False
        self.transposed = np.ascontiguousarray(M.T)  # C-ordered, read-only
        self.transposed.flags.writeable = False
        self._outers: np.ndarray | None = None
        self._wls: tuple[np.ndarray, np.ndarray | None] | None = None
        self._dead: np.ndarray | None = None
        self.factors: OrderedDict[bytes, tuple[np.ndarray, np.ndarray, int]] = OrderedDict()

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def K(self) -> int:
        return self.matrix.shape[1]

    @property
    def outers(self) -> np.ndarray:
        """Table (p, K*K) whose row j is vec(A_j A_j^T), read-only."""
        if self._outers is None:
            A = self.matrix
            self._outers = np.einsum("jk,jl->jkl", A, A, order="C").reshape(len(A), -1)
            self._outers.flags.writeable = False
        return self._outers

    @property
    def wls(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Rows with positive mass and the WLS pseudo-inverse on them, read-only:
        (keep, Ahat^+) with Ahat^+ = Mhat^{-1} Ahat^T Dhat^{-1}, Dhat the diagonal
        of topic-row l1 norms and Mhat = Ahat^T Dhat^{-1} Ahat, or None where Mhat
        is singular at rank tolerance.  A frequency row x has WLS estimate Ahat^+ @ x[keep]."""
        if self._wls is None:
            d = self.matrix.sum(axis=1)
            keep = np.flatnonzero(d > 0)
            Ak = self.matrix[keep]
            B = Ak / d[keep][:, None]  # Dhat^{-1} Ahat
            keep.flags.writeable = False
            try:
                Aplus = numlin.inv_at_rank(Ak.T @ B) @ B.T
                Aplus.flags.writeable = False
            except numlin._SingularAtRank:
                Aplus = None
            self._wls = keep, Aplus
        return self._wls

    @property
    def dead(self) -> np.ndarray:
        """Indices, ascending and read-only, of the words that no topic gives positive probability."""
        if self._dead is None:
            self._dead = np.flatnonzero(~(self.matrix > 0.0).any(axis=1))
            self._dead.flags.writeable = False
        return self._dead


def _named(build, value, name: str):
    """``build(value)``, whose refusal is prefixed with the parameter ``name``."""
    try:
        return build(value)
    except MixwassError as exc:
        raise type(exc)(f"{name}: {exc}") from None


def _as_topics(A, name: str) -> TopicMatrix:
    """``A`` as a ``TopicMatrix``: an array goes through the constructor's checks."""
    return A if isinstance(A, TopicMatrix) else _named(TopicMatrix, A, name)


def tv_distance(u, v) -> float:
    """Total variation distance ||u - v||_1 / 2 between probability vectors."""
    a = _values(u, "u")
    b = _values(v, "v", a.size)
    return 0.5 * float(np.abs(a - b).sum())


class CostMatrix:
    """K x K symmetric non-negative distances between mixture components."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        C = check_numbers(entries, "cost table")
        if C.ndim != 2 or C.shape[0] != C.shape[1] or C.size == 0:
            raise InvalidCost(f"cost table must be square and nonempty, got shape {C.shape}")
        if not np.all(np.isfinite(C)):
            raise InvalidCost("cost table has non-finite entries")
        if np.abs(np.diag(C)).max(initial=0.0) > 1e-12:
            raise InvalidCost("cost table has nonzero diagonal")
        if np.abs(C - C.T).max(initial=0.0) > 1e-10:
            raise InvalidCost("cost table is not symmetric")
        if C.min() < 0.0:
            raise InvalidCost("cost table has negative entries")
        C = (C + C.T) / 2.0
        np.fill_diagonal(C, 0.0)
        self.entries = C
        self.entries.flags.writeable = False

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    def max_entry(self) -> float:
        return float(self.entries.max(initial=0.0))


def cost_matrix(A, metric="tv") -> CostMatrix:
    """Pairwise distances between the columns of a topic matrix.

    ``metric`` is ``"tv"`` (default), ``"l2"``, or a user-supplied K x K
    pairwise table (validated for symmetry, zero diagonal and the triangle
    inequality).
    """
    M = _as_topics(A, "A").matrix
    K = M.shape[1]
    if isinstance(metric, str):
        check_choice(metric, "metric", _METRICS)
        diff = M[:, :, None] - M[:, None, :]
        C = 0.5 * np.abs(diff).sum(axis=0) if metric == "tv" else np.sqrt((diff * diff).sum(axis=0))
        C = (C + C.T) / 2.0
        np.fill_diagonal(C, 0.0)
        return CostMatrix(C)
    table = check_numbers(metric, "metric")
    if table.shape != (K, K):
        raise InvalidCost(f"metric must be {_METRICS} or a {K}x{K} pairwise table, got shape {table.shape}")
    return _metric_table(table)


def _metric_table(table) -> CostMatrix:
    """A user-supplied cost table, refused unless it is a metric.

    Off a metric the dual value is the shortest-path transport cost, which
    falls below the primal one; C[k, l] <= C[k, m] + C[m, l] for all m.
    """
    cost = CostMatrix(table)
    C = cost.entries
    if (C - (C[:, :, None] + C[None, :, :]).min(axis=1)).max(initial=0.0) > 1e-10:
        raise InvalidCost("cost table violates the triangle inequality")
    return cost


class DualPolytope:
    """Kantorovich-Rubinstein dual feasible set, anchored at f_1 = 0.

    Vectors live in R^K with the first coordinate fixed to zero; the LP acts
    on the remaining K-1 free coordinates.  Immutable after construction and
    safe to share across concurrent workers; the halfspace description and
    (when available) the vertex set are computed lazily and cached.

    ``DualPolytope(cost)`` is the base polytope, and it holds the one vertex
    cache of its cost.  ``restricted_polytope`` returns a view on a base: it
    adds the slab ``slab = (direction, target, delta)`` to the base's
    halfspaces and reads the base's vertices instead of enumerating again.
    A raw cost table enters through ``_as_polytope``, which requires a metric.
    """

    def __init__(self, cost: CostMatrix):
        self.cost = check_instance(cost, "cost", CostMatrix)
        self.base: DualPolytope | None = None
        self.slab: tuple[np.ndarray, float, float] | None = None
        self._halfspaces: tuple[np.ndarray, np.ndarray] | None = None
        self._vertices: np.ndarray | None = None
        self._table: tuple[np.ndarray, bool, int] | None = None
        self._vertices_tried = False

    @property
    def K(self) -> int:
        return self.cost.K

    # f_1 = 0 is encoded by dropping the first coordinate: x = f[1:].
    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """Inequalities (A, b) with A x <= b over the K-1 free coordinates."""
        if self._halfspaces is not None:
            return self._halfspaces
        if self.slab is not None:
            A, b = self.base.halfspaces()
            u, t, d = self.slab
            if d == 0.0:
                # Pin f^T u to the base LP's own optimum with no slack, so
                # the LP sees the optimal face itself, not a slab around it.
                lo = hi = kr_dual_value(u, self.base)[0]
            else:
                lo, hi = _slab_bounds(t, d)
            self._halfspaces = (np.vstack([A, u[1:], -u[1:]]), np.append(b, [hi, -lo]))
            return self._halfspaces
        K = self.K
        C = self.cost.entries
        rows = []
        rhs = []
        for k in range(K):
            for l in range(K):
                if k == l:
                    continue
                r = np.zeros(K - 1)
                if k > 0:
                    r[k - 1] = 1.0
                if l > 0:
                    r[l - 1] = -1.0
                rows.append(r)
                rhs.append(C[k, l])
        self._halfspaces = (np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float))
        return self._halfspaces

    def vertices(self) -> np.ndarray | None:
        """Vertex set as rows of length K (f_1 = 0), or None if unavailable.

        A zero-width slab is the optimal face of the base, whose vertices
        are the base vertices attaining the maximum.  Positive-width slabs
        are enumerated directly when they cut the base and have interior;
        otherwise callers fall back to LPs.
        """
        if not self._vertices_tried:
            self._vertices_tried = True
            self._vertices = self._enumerate() if self.slab is None else self._slab_vertices()
            if self._vertices is not None and self._vertices.shape[0] > 0:
                self._table = _support_table(self._vertices, self.slab is None)
        return self._vertices

    def _enumerate(self) -> np.ndarray | None:
        if self.K == 1:
            return np.zeros((1, 1))
        if self.K > _QHULL_MAX_K:
            return None
        V = _enumerate_vertices(*self.halfspaces())
        return None if V is None else np.column_stack([np.zeros(V.shape[0]), V])

    def _slab_vertices(self) -> np.ndarray | None:
        V = self.base.vertices()
        if V is None:
            return None
        u, t, d = self.slab
        eps = facet_slack(t)
        vals = V @ u
        top = float(vals.max())
        if d == 0.0:
            return V[vals >= top - eps]
        if t + d >= top - eps and t - d <= float(vals.min()) + eps:
            # Slab inactive: restriction equals the base polytope.
            return V
        W = _enumerate_vertices(*self.halfspaces())
        return None if W is None else np.column_stack([np.zeros(W.shape[0]), W])

    @property
    def zero_feasible(self) -> bool:
        """Whether f = 0 is in the polytope, as ``contains`` decides it:
        always for a base, whose costs are >= 0; for a slab of width
        delta > 0 when both of its bounds hold f = 0 within
        ``CONTAINS_TOL``; and for the optimal face (delta = 0), which pins
        f^T u to w_hat, when |w_hat| <= ``CONTAINS_TOL``."""
        if self.slab is None:
            return True
        _, t, d = self.slab
        if d == 0.0:
            return abs(t) <= CONTAINS_TOL
        lo, hi = _slab_bounds(t, d)
        return 0.0 <= hi + CONTAINS_TOL and 0.0 <= -lo + CONTAINS_TOL

    def contains(self, f, tol: float = CONTAINS_TOL) -> bool:
        f, tol = check_vector(f, "f", self.K), check_real(tol, "tol")
        if abs(f[0]) > tol:
            return False
        A, b = self.halfspaces()
        return bool(np.all(A @ f[1:] <= b + tol))


def _as_polytope(cost, name: str) -> DualPolytope:
    """``cost`` as a ``DualPolytope``: a polytope as it is, a ``CostMatrix``
    or a metric table (``_metric_table``) as its base polytope."""
    if isinstance(cost, DualPolytope):
        return cost
    return DualPolytope(cost if isinstance(cost, CostMatrix) else _named(_metric_table, cost, name))


def _enumerate_vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Vertices of {x : A x <= b}, or None when enumeration is unavailable.

    One-dimensional systems reduce to an interval; higher dimensions go
    through Qhull, which requires a full-dimensional polytope and a point
    strictly inside it.  x = 0 is that point when it lies more than 1e-10
    from every facet (every b_i > 0, as for a base polytope); otherwise the
    Chebyshev centre LP gives one, with the same 1e-10 bound on its radius.
    """
    n = A.shape[1]
    if n == 1:
        a = A[:, 0]
        upper = np.inf
        lower = -np.inf
        for ai, bi in zip(a, b):
            if ai > 0:
                upper = min(upper, bi / ai)
            elif ai < 0:
                lower = max(lower, bi / ai)
            elif bi < 0:
                return np.empty((0, 1))
        if lower > upper + 1e-12 or not np.isfinite(lower) or not np.isfinite(upper):
            return np.empty((0, 1)) if lower > upper else None
        return np.array([[lower], [upper]])
    if np.all(b > 1e-10 * np.linalg.norm(A, axis=1)):
        interior = np.zeros(n)
    else:
        center = _chebyshev_center(A, b)
        if center is None or center[1] <= 1e-10:
            return None
        interior = center[0]
    from scipy.spatial import HalfspaceIntersection, QhullError
    try:
        hs = HalfspaceIntersection(np.column_stack([A, -b]), interior)
    except QhullError:
        return None
    return np.unique(np.round(hs.intersections, 10), axis=0)


def _support_table(V: np.ndarray, base: bool) -> tuple[np.ndarray, bool, int]:
    """The operand of ``support_batch``'s vertex product, whether it is a
    symmetric half, and the axis of the product that runs over the vertices.

    A base polytope is centrally symmetric, F = -F, because its costs are.
    Its table is then the half P of its vertices whose leading nonzero free
    coordinate is positive, provided the other half is exactly -P, and the
    support value is max(max P z, -min P z).  Every other vertex set, and a
    Qhull output that is not exactly symmetric, keeps all of V and the plain
    maximum.  Up to ``_VERTEX_MAJOR_MAX`` vertices the operand is the rows
    themselves, (n, K), and the vertices run down axis 0 of T @ U^T; beyond
    that, a C-contiguous (K, n) copy, and they run along axis 1 of U @ T.
    """
    rows, half = V, False
    if base and V.shape[1] > 1:
        free = V[:, 1:]
        P = V[free[np.arange(len(free)), (free != 0.0).argmax(axis=1)] > 0.0]
        S = V[np.lexsort(V.T[::-1])]  # negation reverses the lexicographic order
        half = 2 * len(P) == len(V) and np.array_equal(S, -S[::-1])
        if half:
            rows = P
    if V.shape[0] <= _VERTEX_MAJOR_MAX:
        return np.ascontiguousarray(rows), half, 0
    return np.ascontiguousarray(rows.T), half, 1


def _chebyshev_center(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Strictly interior point via the Chebyshev-center LP."""
    from scipy.optimize import linprog
    n = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    res = linprog(
        np.concatenate([np.zeros(n), [-1.0]]),
        A_ub=np.column_stack([A, norms]),
        b_ub=b,
        bounds=[(None, None)] * n + [(0, None)],
        method="highs",
    )
    if res.status != 0:
        return None
    return res.x[:-1], float(res.x[-1])


def kr_dual_value(u, polytope: DualPolytope) -> tuple[float, np.ndarray]:
    """Maximize f^T u over the dual polytope by linear programming.

    Returns the optimum and one maximizer f in R^K with f_1 = 0.  The value
    is unique; the argmax may be any vertex maximizer.
    """
    K = check_instance(polytope, "polytope", DualPolytope).K
    u = check_vector(u, "u", K)
    if K == 1:
        return 0.0, np.zeros(1)
    A, b = polytope.halfspaces()
    from scipy.optimize import linprog
    res = linprog(
        -u[1:],
        A_ub=A,
        b_ub=b,
        bounds=[(None, None)] * (K - 1),
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status == 3:
        raise Unbounded("dual LP is unbounded for the given direction")
    if res.status != 0:
        raise LPFailure(f"dual LP failed with status {res.status}: {res.message}")
    f = np.concatenate([[0.0], res.x])
    return -float(res.fun), f


def support_batch(polytope: DualPolytope, directions) -> np.ndarray:
    """Support function of the polytope at many directions at once.

    ``directions`` has shape (n, K) and is copied to C order, so a value
    does not depend on the caller's layout; a non-finite entry raises
    :class:`InvalidParam` on every route.  Uses the cached vertex set
    when enumeration succeeded, otherwise one LP per direction; both routes
    agree to LP tolerance and equality is enforced by the property suite.

    The vertex route reads the polytope's support table (see
    ``_support_table``): half of a base polytope's vertices, where a value
    is the larger of max T z and -min T z, or all of a view's vertices,
    with the plain maximum.  The directions are padded to a multiple of
    ``_LANES``, the last one repeated, and run in blocks of a multiple of
    ``_LANES`` directions and at most ``_VERTEX_BLOCK`` entries: T @ U^T
    up to ``_VERTEX_MAJOR_MAX`` vertices, U @ T with T (K, n) beyond.  So
    at every enumerated K a direction gets the same bits alone and in any
    number of directions; up to K=8 these are also the bits of the product
    over all the vertices.  On a ``zero_feasible`` polytope every value is
    floored at 0.
    """
    check_instance(polytope, "polytope", DualPolytope)
    U = np.ascontiguousarray(check_numbers(directions, "directions"))
    if U.ndim == 1:
        U = U[None, :]
    if U.ndim != 2 or U.shape[1] != polytope.K:
        raise DimError(f"directions have shape {U.shape}, expected (n, {polytope.K})")
    if not np.isfinite(U).all():
        raise InvalidParam("directions must be finite")
    polytope.vertices()  # builds the support table where it can
    n = U.shape[0]
    if polytope._table is None:
        out = np.array([kr_dual_value(u, polytope)[0] for u in U])
    else:
        T, half, axis = polytope._table
        if n % _LANES:
            U = U[np.minimum(np.arange(n + -n % _LANES), n - 1)]
        step = max(_LANES, _VERTEX_BLOCK // (T.size // polytope.K) // _LANES * _LANES)
        out = np.empty(len(U))
        for s in range(0, len(U), step):
            block = U[s : s + step]
            out[s : s + step] = _table_max(T @ block.T if axis == 0 else block @ T, axis, half)
        out = out[:n]
    if polytope.zero_feasible:
        out[out <= 0.0] = 0.0  # also turns -0.0 into 0.0
    return out


def _table_max(product: np.ndarray, axis: int, half: bool) -> np.ndarray:
    """Maxima of a block of the vertex product over its table's vertices."""
    top = product.max(axis=axis)
    return np.maximum(top, -product.min(axis=axis)) if half else top


def restricted_polytope(base: DualPolytope, alpha_hat, beta_hat, delta: float | None) -> DualPolytope:
    """View of ``base`` cut to the slab |f^T(alpha - beta) - w_hat| <= delta.

    w_hat is the support function of ``base`` at alpha_hat - beta_hat, so
    the optimal face always stays feasible; at ``delta=0`` the vertices are
    that face's.  The result stores w_hat as ``slab[1]`` and reads the
    vertex cache of ``base``.  ``delta=None`` is no restriction: ``base``
    itself, after the same checks.
    """
    if delta is not None:
        check_real(delta, "delta")
    a = _values(alpha_hat, "alpha_hat", check_instance(base, "base", DualPolytope).K)
    b = _values(beta_hat, "beta_hat", base.K)
    if delta is None:
        return base
    u = a - b
    poly = DualPolytope(base.cost)
    poly.base = base
    poly.slab = (u, float(support_batch(base, u[None, :])[0]), float(delta))
    return poly


def wasserstein_primal(alpha, beta, cost) -> tuple[float, np.ndarray]:
    """Exact Wasserstein distance between K-atom mixing measures.

    Solves the transportation LP min <gamma, cost> over couplings of alpha
    and beta; returns the optimal value and an optimal plan with row sums
    alpha and column sums beta.  ``cost`` is a ``CostMatrix``, a metric
    table or a ``DualPolytope`` (its cost), as ``_as_polytope`` reads it.
    """
    cost = _as_polytope(cost, "cost").cost
    K = cost.K
    a = _values(alpha, "alpha", K)
    b = _values(beta, "beta", K)
    if K == 1:
        return 0.0, np.array([[min(a[0], b[0])]])
    C = cost.entries
    # Equality constraints: K row sums and K-1 column sums (last is implied).
    A_eq = np.zeros((2 * K - 1, K * K))
    b_eq = np.zeros(2 * K - 1)
    for k in range(K):
        A_eq[k, k * K : (k + 1) * K] = 1.0
        b_eq[k] = a[k]
    for l in range(K - 1):
        A_eq[K + l, l::K] = 1.0
        b_eq[K + l] = b[l]
    from scipy.optimize import linprog
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs", options=_LP_OPTIONS)
    if res.status != 0:
        raise LPFailure(f"transportation LP failed with status {res.status}: {res.message}")
    plan = np.clip(res.x.reshape(K, K), 0.0, None)
    return max(float(res.fun), 0.0), plan
