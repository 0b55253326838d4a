"""Exception taxonomy.

Two broad families matter for callers (and for the CLI exit codes):

* ``ValidationError`` subclasses: the request itself is malformed or outside
  the supported desk range.  Nothing was computed.
* ``ComputationError`` subclasses: the request was legal but a numeric
  procedure could not finish within its budget (refinement depth, sieve
  limit, search grid, ...).  Partial diagnostics go into the message.
  ``GuardBand``, a ``BranchObstruction``, refuses a zero's guard band.

require_finite is the one check that an entry point's numbers are finite,
and float_array reads numbers for it: a number with no float form, an
int past the float range, is not finite.
"""

from cmath import isfinite
from math import inf

import numpy as np


class IterzetaError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(IterzetaError):
    """Input outside the documented contract."""


class PoleAtOne(ValidationError):
    """Evaluation requested at the pole s = 1."""


class UnsupportedRange(ValidationError):
    """Point outside the supported desk range (sigma, |t| or m)."""


class ParseError(ValidationError):
    """Malformed text input; message carries the line number."""


class MonotonicityError(ValidationError):
    """Zero ordinates not strictly increasing."""


class LimitExceeded(ValidationError):
    """Requested size above the hard cap (sieve limit, box dimension)."""


class ConvergenceDomain(ValidationError):
    """Series argument outside the guaranteed convergence disk."""


class CutoffExceeded(ValidationError):
    """Cutoff X larger than the prime table provides."""


class TooFewSamples(ValidationError):
    """Grid or sample count too small to be meaningful."""


class TooFewRadii(ValidationError):
    """A polygon needs at least three sides."""


class DominanceViolation(ValidationError):
    """One side longer than the sum of all others."""


class TargetOutsideDisk(ValidationError):
    """Polygon target outside the reachable disk |z| <= sum of radii."""


class TableCoverage(ValidationError):
    """Zero table does not cover the requested height range."""


class ComputationError(IterzetaError):
    """Numeric procedure failed within its budget."""


class BranchObstruction(ComputationError):
    """Branch tracking blocked by a zero on or next to the ray."""


class GuardBand(BranchObstruction):
    """Height within GUARD of a tabulated zero at or right of the ray."""


class QuadratureNonconvergence(ComputationError):
    """Adaptive quadrature hit its maximum refinement depth."""


class RootFindFailure(ComputationError):
    """Scalar root finder failed to bracket or converge."""


class WindowExhausted(ComputationError):
    """Prime window cannot satisfy the construction inequalities
    within the sieve limit (epsilon too small or limit too low)."""


class BudgetExceeded(ComputationError):
    """Search grid or evaluation budget above the configured cap."""


def require_finite(**values) -> None:
    """ValidationError naming the first of the values, real or complex
    numbers or arrays of them, that is not finite."""
    for name, value in values.items():
        try:
            finite = np.isfinite(float_array(value, complex)).all() \
                if isinstance(value, (np.ndarray, list, tuple)) \
                else isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(f"{name} must be finite")


def float_array(values, dtype=float) -> np.ndarray:
    """np.asarray(values, dtype) for a float or complex dtype, with a
    number that has no float form read as an infinity of its sign, so
    that a finite check refuses it as it refuses inf."""
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError:
        return np.vectorize(_float_form, otypes=[dtype])(
            np.asarray(values, dtype=object))


def _float_form(value):
    try:
        complex(value)
    except OverflowError:
        return inf if value > 0 else -inf
    return value
