"""Exception taxonomy, and the one checker of each parameter domain.

Two families: validation errors (bad inputs or parameters, CLI exit code 2)
and numerical errors (well-formed inputs on which the computation cannot
proceed, CLI exit code 3).

What a valid parameter is is decided here, once per domain; public
functions call the checkers at their door, not below it.  ``check_count``:
an integer in [lo, hi] (sizes, draws, ``max_iter``, ``tau``);
``check_real``: a finite real >= lo (slab widths, noise; document sizes
from 1); ``check_unit``: a real in (0, 1) (``gamma``, ``level``);
``check_seed``: what ``numpy.random.default_rng`` takes; ``check_numbers``:
an array of integers or reals, and ``check_vector``: such an array, finite,
1-d, nonempty and of length K where given (weights, directions, samples);
``check_choice``: one of a set of names; ``check_instance``: a package
object of one class (a polytope, config, document or sample set).  None
takes a bool for a number.  Each raises :class:`InvalidParam`, or
:class:`DimError` for a length that does not match, naming the parameter.
"""

import math
import numbers

import numpy as np


class MixwassError(Exception):
    """Base class for all package errors."""


class ValidationError(MixwassError):
    """Invalid input data or parameters."""


class NumericalError(MixwassError):
    """Numerical failure on otherwise valid inputs."""


class InvalidMatrix(ValidationError):
    """Matrix with non-finite entries, wrong shape, or gross asymmetry."""


class DimError(ValidationError):
    """Dimension mismatch between operands."""


class InvalidCost(ValidationError):
    """Cost table violating symmetry, zero diagonal, or non-negativity."""


class InvalidParam(ValidationError):
    """Parameter outside its documented range."""


class InvalidSimplex(ValidationError):
    """Vector or matrix column too far from the probability simplex."""


class ParseError(ValidationError):
    """Malformed input file; carries a line number when available."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Unbounded(NumericalError):
    """Linear program with unbounded objective."""


class LPFailure(NumericalError):
    """Linear program solver did not return an optimal solution."""


class InfeasibleRow(ValidationError):
    """A word with positive count has zero probability under every topic."""


class DegenerateSupport(NumericalError):
    """Empirical support too degenerate for the requested estimator."""


class SingularInformation(NumericalError):
    """Plug-in information matrix is singular at rank tolerance."""


class SingularDesign(NumericalError):
    """Weighted least-squares design matrix is singular."""


_INT64_MAX = 2**63 - 1


def check_count(value, name: str, lo: int = 1, hi: float = _INT64_MAX) -> None:
    """Refuse ``value`` unless it is an integer in [lo, hi] (numpy integers are integers, bools are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParam(f"{name} must be an integer, not {value!r}")
    if not lo <= value <= hi:
        raise InvalidParam(f"{name} must be >= {lo} and at most {hi}, not {value!r}")


def check_real(value, name: str, lo: float = 0.0) -> float:
    """``value`` as a float, refused unless it is a finite real >= lo; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParam(f"{name} must be a real number, not {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        x = math.inf
    if not (lo <= x and abs(x) < math.inf):  # also refuses NaN
        raise InvalidParam(f"{name} must be finite and >= {lo:g}, not {value!r}")
    return x


def check_unit(value, name: str) -> None:
    """Refuse ``value`` unless it is a real in (0, 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value < 1.0:
        raise InvalidParam(f"{name} must be a real number in (0, 1), not {value!r}")


def check_seed(seed, name: str = "seed") -> np.random.Generator:
    """The generator of ``seed``: a non-negative integer, a sequence of them, None or a generator."""
    if not isinstance(seed, (bool, np.bool_)):
        try:
            return np.random.default_rng(seed)
        except (TypeError, ValueError):
            pass
    raise InvalidParam(f"{name} must be a non-negative integer or a sequence of them, not {seed!r}")


def check_numbers(x, name: str) -> np.ndarray:
    """``x`` as a float array, refused unless numpy reads it as integers or reals."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError):  # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "iuf":
        raise InvalidParam(f"{name} must be an array of real numbers, not {type(x).__name__}")
    return a.astype(float, copy=False)


def check_vector(x, name: str, K: int | None = None) -> np.ndarray:
    """``x`` as a finite, nonempty 1-d float array (``check_numbers``), of length K where given."""
    v = check_numbers(x, name)
    if v.ndim != 1 or not v.size:
        raise InvalidParam(f"{name} must be a nonempty 1-d array, got shape {v.shape}")
    if K is not None and v.size != K:
        raise DimError(f"{name} has length {v.size}, expected {K}")
    if not np.isfinite(v).all():
        raise InvalidParam(f"{name} must be finite: it has a non-finite entry")
    return v


def check_instance(value, name: str, cls: type):
    """``value``, refused unless it is a ``cls``."""
    if not isinstance(value, cls):
        raise InvalidParam(f"{name} must be a {cls.__name__}, not {type(value).__name__}")
    return value


def check_choice(value, name: str, choices) -> None:
    """Refuse ``value`` unless it is one of the names ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise InvalidParam(f"unknown {name} {value!r}, expected one of {tuple(choices)}")
