"""Riemann zeta by Euler-Maclaurin summation.

For N >= 1 and K >= 1 Bernoulli corrections,

    zeta(s) = sum_{n=1}^{N-1} n^-s  +  N^(1-s)/(s-1)  +  N^-s/2
              + sum_{k=1}^{K} B_{2k}/(2k)! * N^(1-s-2k) * prod_{j=0}^{2k-2}(s+j)
              + E_K(s, N),

with the classical remainder bound

    |E_K| <= |T_{K+1}(s, N)| * |s + 2K + 1| / (Re s + 2K + 1)
          =  C(s) * N^-(Re s + 2K + 1),

T_{K+1} being the first omitted correction term.  Every point gets its
own N: the bound is solved for the smallest N that meets the tolerance,
and that N is rounded up to a geometric ladder above em_terms so that
points of similar height share one direct sum.  The bound's product of
|s + j| takes each factor as sqrt((Re s + j)^2 + (Im s)^2), a few times
cheaper than hypot and within an ulp or two of it; the 1e-12 slack on N
absorbs that: of 2.6M random points with Re s in [0, 8] and |Im s| up
to 1e4, none moved to another rung, and C moved by at most 3.3e-15 of
itself.

The desk checks read four extremes of the points' parts, and the
Euler-Maclaurin tail takes its Horner steps on complex operands, so a
call's fixed cost is small: one point took 0.08 ms, and a ray's 92
ladder nodes 0.13 ms (medians of 15 x 200 calls, against 0.10 and
0.16 ms with a test per point and the former steps, on a shared 2-core
Xeon).

The direct sum runs per ladder rung, in chunks of at most
_CHUNK_ELEMENTS point-terms; one sort of the lengths groups the points
by rung.  n^-s = n^-Re s (cos(Im s log n) - i sin(Im s log n)), and
each point sums its own row of the two factors' products (on a vertical
line, whose points share n^-Re s, each height does).  A factor whose
rows recur across rungs is formed once a batch, cos and sin per
distinct height and n^-Re s per distinct abscissa, each to the batch's
longest length, and every rung reads the prefixes of its points' rows:
where all of a chunk's points read one row, that row serves them all,
else each point reads its own.  Such a table is made only where it
holds fewer terms than the rungs would form, and at most
_TABLE_ELEMENTS; otherwise a chunk forms the factor per distinct value
among its points.  So the 4 rays of an eta~ pass (368 points on 7
rungs) form their heights' phases once, as does a ray at t = 9980
across its 14 rungs, while on a vertical line, where a height has one
rung, nothing is tabled.  A row is the same elementwise operations on
the same numbers, from a table or not, a product is the same two
factors, and a row sum runs along one point's terms whatever else
shares the batch, so a point's value is bitwise the same in any batch.  eta's line cache, the
rows of an eta~ pass and a ray ladder that serves its quadrature's
nodes (rays.RayBranch) rely on that.  A chunk's temporaries peak at 2
float64 per point-term on a ray or a vertical line, 3 on a grid of
several abscissae and heights, and 4 on scattered points: 32 bytes, or
128 MB at _CHUNK_ELEMENTS, what one complex exp(-s log n) matrix and
its argument take.  Each table adds at most _TABLE_ELEMENTS float64
(8 MB); a vertical line's sums peak as the per-rung sums did.
Scattered points cost about what that matrix does: 200 points with
Im s up to 2000 took 5.8-8.1 ms a batch (medians of 40 calls in three
processes) against 6.2-7.9 ms with the complex exp, on a shared 2-core
Xeon.

zeta_error reports the per-point error: the remainder bound plus a
rounding estimate for the direct sum, which dominates at large |t|
because the phase t log n carries a relative rounding error of order
machine epsilon.  zeta_path_error bounds the error on a path whose
leftmost, tallest point is s: tol plus the rounding estimate at s.

The Bernoulli numbers are exact rationals, so each coefficient
B_2k/(2k)! is the float nearest its value.  The log moments of the
rounding estimate are closed forms in exp and expm1, with a fixed
power series where the closed form would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (PoleAtOne, UnsupportedRange, ValidationError,
                     float_array)

SIGMA_MIN = 0.0
T_MAX = 1.0e4
TERM_CAP = 600_000
# zeta refuses points this close to its pole at s = 1
POLE_RADIUS = 1.0e-14
# ratio of consecutive direct-sum lengths on the ladder above em_terms
LADDER_STEP = 2.0 ** 0.25
# elements of one (points x terms) direct-sum matrix
_CHUNK_ELEMENTS = 4_000_000
# elements of one factor table of a batch (cos and sin count apart)
_TABLE_ELEMENTS = 1_000_000
# the rounding estimate's multiple of machine epsilon per term
_ROUNDING_ULPS = 2.0

# B_2k/(2k)! for k = 1..9, each rounded once from the exact rational;
# the last one only feeds the remainder bound.
_BERNOULLI_2K = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                 Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
                 Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798))
_EM_COEF = np.array([float(b / math.factorial(2 * k))
                     for k, b in enumerate(_BERNOULLI_2K, start=1)])
# 1/(j! (j+3)) for j < 18: int_0^1 u^2 e^(zu) du = sum_j z^j/(j! (j+3)),
# whose omitted terms stay below 5e-17 of the sum for |z| < 1
_MOMENT2_SERIES = np.array([1.0 / (math.factorial(j) * (j + 3))
                            for j in range(18)])


@dataclass(frozen=True)
class ComplexPoint:
    """A point sigma + it of the half plane the artifact works on."""
    sigma: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise ValidationError("point coordinates must be finite")

    @property
    def as_complex(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class EvalParams:
    """Accuracy knobs for zeta evaluation.

    tol is the bound each point's Euler-Maclaurin remainder must meet;
    each point's direct-sum length N is the smallest rung of the ladder
    em_terms * LADDER_STEP^k that meets it, so em_terms is the floor on
    N.  em_bernoulli is the number of Bernoulli correction terms K (at
    most 8; B_18 is reserved for the error bound).  Rounding in the
    direct sum is not part of tol; zeta_error reports it.
    """

    em_terms: int = 50
    em_bernoulli: int = 8
    tol: float = 1.0e-12

    def __post_init__(self) -> None:
        if not (1 <= self.em_bernoulli <= 8):
            raise UnsupportedRange("em_bernoulli must be in 1..8")
        if self.em_terms < 10:
            raise UnsupportedRange("em_terms must be at least 10")
        if not self.tol > 0:
            raise UnsupportedRange("tol must be positive")


DEFAULT_PARAMS = EvalParams()


def _checked_points(s) -> np.ndarray:
    """The points as a flat complex array, after the desk refusals.  The
    least and greatest real and imaginary parts decide (a NaN among them
    fails every test); only a point set whose box reaches the pole's
    disc is searched for it, and only a failing set is told apart."""
    s = float_array(s, np.complex128).ravel()
    x, y = s.real, s.imag
    x0, x1 = float(x.min(initial=np.inf)), float(x.max(initial=-np.inf))
    y0, y1 = float(y.min(initial=np.inf)), float(y.max(initial=-np.inf))
    near_pole = x0 < 1.0 + POLE_RADIUS and x1 > 1.0 - POLE_RADIUS \
        and y0 < POLE_RADIUS and y1 > -POLE_RADIUS
    if not (x0 >= SIGMA_MIN and x1 < np.inf and -T_MAX <= y0
            and y1 <= T_MAX) or near_pole and not (
                np.abs(s - 1.0) >= POLE_RADIUS).all():
        if not np.isfinite(s).all():
            raise UnsupportedRange("zeta needs finite points")
        if (x < SIGMA_MIN).any():
            raise UnsupportedRange("zeta supported for Re s >= 0 only")
        if (np.abs(s.imag) > T_MAX).any():
            raise UnsupportedRange(f"zeta supported for |Im s| <= {T_MAX:g}")
        raise PoleAtOne("zeta has its pole at s = 1")
    return s


def _em_remainder(s: np.ndarray, k_terms: int):
    """(C, p) per point, with the remainder bound C * N^-p."""
    k1 = k_terms + 1
    # |T_{K+1}| = |B_{2K+2}/(2K+2)! * N^(1-s-2K-2) * prod_{j=0}^{2K}(s+j)|,
    # each |s + j| as sqrt((Re s + j)^2 + (Im s)^2): within an ulp or two
    # of np.hypot at a third of its cost, so C moves by a few parts in
    # 1e15, far inside the 1e-12 slack that picks each N
    x = np.add.outer(np.arange(2 * k1 - 1.0), s.real)
    x *= x
    x += s.imag * s.imag
    prod = np.sqrt(x, out=x).prod(axis=0)
    p = s.real + 2 * k1 - 1
    c = abs(_EM_COEF[k1 - 1]) * prod * np.abs(s + 2 * k1 - 1) / p
    return c, p


@lru_cache(maxsize=None)
def _ladder(em_terms: int) -> np.ndarray:
    """Direct-sum lengths em_terms * LADDER_STEP^k, rounded up, capped
    by TERM_CAP (the last rung)."""
    rungs = [em_terms]
    while rungs[-1] < TERM_CAP:
        rungs.append(min(TERM_CAP, math.ceil(rungs[0] * LADDER_STEP
                                             ** len(rungs))))
    return np.unique(np.array(rungs, dtype=np.int64))


def _lengths_and_bounds(s: np.ndarray, params: EvalParams):
    """Per point: the direct-sum length N, the smallest rung of the
    ladder em_terms * LADDER_STEP^k whose remainder bound meets
    params.tol, and that bound.  Raises UnsupportedRange where no N up
    to TERM_CAP meets it, and ArithmeticError should float rounding
    leave a bound above tol."""
    c, p = _em_remainder(s, params.em_bernoulli)
    # C N^-p = tol solved for N (C = 0 at s = 0, read as the least
    # subnormal, gives the first rung); the 1e-12 slack keeps float
    # rounding from landing on the wrong rung
    need = np.exp((np.log(np.maximum(c, 5e-324)) - math.log(params.tol))
                  / p) * (1.0 + 1e-12)
    ladder = _ladder(params.em_terms)
    if need.size and not need.max() <= ladder[-1]:
        raise UnsupportedRange(
            "cannot meet tol within the Euler-Maclaurin term cap")
    lengths = ladder[ladder.searchsorted(need)]
    bounds = c * lengths.astype(np.float64) ** -p
    if not bounds.max(initial=0.0) <= params.tol:
        raise ArithmeticError("an Euler-Maclaurin length misses tol")
    return lengths, bounds


def _em_tail(s: np.ndarray, lengths: np.ndarray, k_terms: int) -> np.ndarray:
    """Everything but the direct sum, per point with its own N:

        N^(1-s) * (1/(s-1) + 1/(2N) + sum_k B_2k/(2k)! N^-2k prod_{j<=2k-2}(s+j)),

    the Bernoulli sum by Horner's rule in the factors (s+2k-1)(s+2k)/N^2.
    """
    nn = lengths.astype(np.float64)
    # 1/N^2, the shifts j and the coefficients as complex numbers, as
    # numpy promotes them in each sum and product: the same bits,
    # without a cast per step
    inv_n2 = (1.0 / (nn * nn)).astype(np.complex128)
    j = np.arange(2.0 * k_terms).astype(np.complex128)
    coef = _EM_COEF.astype(np.complex128)
    acc = np.full_like(s, coef[k_terms - 1])
    for k in range(k_terms - 1, 0, -1):
        acc = coef[k - 1] + acc * (s + j[2 * k - 1]) * (s + j[2 * k]) \
            * inv_n2
    return nn ** (1.0 - s) * (1.0 / (s - 1.0) + 0.5 / nn + acc * s * inv_n2)


def _chunks(size: int, n_terms: int):
    """Slices over points so that a (points x terms) matrix holds at most
    _CHUNK_ELEMENTS elements."""
    block = max(1, _CHUNK_ELEMENTS // n_terms)
    return (slice(i, i + block) for i in range(0, size, block))


def _distinct(x: np.ndarray):
    """(values, index per element) of the distinct values of x,
    ascending: np.unique's, from one sort and one search."""
    if (x == x[0]).all():
        return x[:1], np.zeros(x.size, dtype=np.intp)
    x_sorted = np.sort(x)
    new = np.empty(x.size, dtype=bool)
    new[0] = True
    np.not_equal(x_sorted[1:], x_sorted[:-1], out=new[1:])
    values = x_sorted[new]
    return values, values.searchsorted(x)


def _phases(heights: np.ndarray, logn: np.ndarray) -> list:
    """[cos, sin] of t log n, a row per height."""
    arg = np.multiply.outer(heights, logn)
    return [np.cos(arg), np.sin(arg, out=arg)]


def _magnitudes(sigmas: np.ndarray, logn: np.ndarray) -> list:
    """[n^-sigma], a row per abscissa."""
    mag = np.multiply.outer(-sigmas, logn)
    return [np.exp(mag, out=mag)]


def _table(x: np.ndarray, which: np.ndarray, values: np.ndarray,
           logn: np.ndarray, form, width: int):
    """(form's rows over the distinct values of x for every term of logn,
    the row of each point), or None where those width tables would pass
    _TABLE_ELEMENTS or hold as many terms as the length groups form, or
    more: each group forms a row per distinct value among its points
    (which, the group of each point, indexes values) to its own length."""
    rows, index = _distinct(x)
    if width * rows.size * logn.size > _TABLE_ELEMENTS:
        return None
    present = np.zeros((values.size, rows.size), dtype=bool)
    present[which, index] = True
    if not rows.size * logn.size < present.sum(axis=1) @ (values - 1):
        return None
    return form(rows, logn), index


def _rows(x: np.ndarray, pts: np.ndarray, logn: np.ndarray, table, form):
    """A factor's rows for the points pts, with values x[pts], on the
    terms of logn, and the row of each point: None where one row serves
    them all or each point has its own.  From the batch's table where
    there is one, as copies, since the products overwrite their factors:
    one row where all the points read the same, else a row per point;
    else formed per distinct value."""
    if table is None:
        values, index = _distinct(x[pts])
        return form(values, logn), (None if values.size == 1 else index)
    tabs, index = table
    index = index[pts]
    if (index == index[0]).all():
        index = index[:1]
    return [tab[index, :logn.size] for tab in tabs], None


def _chunk_sums(s: np.ndarray, pts: np.ndarray, logn: np.ndarray, trig,
                mag) -> np.ndarray:
    """sum_{n <= logn.size} n^-s at the points pts of s: n^-sigma times
    the phases, multiplied out per point, or per height where the points
    share n^-sigma (a vertical line), and summed per row."""
    (cos, sin), k = _rows(s.imag, pts, logn, trig, _phases)
    if cos.shape[0] == 1 and mag is None:
        # on one height (a ray) every point is a row of its own
        (mag,), j = _magnitudes(s.real[pts], logn), None
    else:
        (mag,), j = _rows(s.real, pts, logn, mag, _magnitudes)
    if mag.shape[0] > 1 and cos.shape[0] > 1:
        # one at a time, each old table freed as its copy is made
        if j is not None:
            mag = mag[j]
        if k is not None:
            cos = cos[k]
            sin = sin[k]
        j = k = None
    # each product in place in a factor of the product's shape where
    # there is one; mag is overwritten only by the second
    rows = max(mag.shape[0], cos.shape[0])
    im = np.multiply(sin, mag, out=sin if sin.shape[0] == rows else None)
    re = np.multiply(cos, mag, out=cos if cos.shape[0] == rows else mag)
    sums = re.sum(axis=-1) - 1j * im.sum(axis=-1)
    index = k if j is None else j
    return sums if index is None else sums[index]


def _direct_sum(s: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """sum_{n<N} n^-s at every point of s, N its own length.

    n^-s = n^-sigma (cos(t log n) - i sin(t log n)).  Where a factor's
    rows recur across lengths, the batch forms them once, a row per
    distinct height (cos and sin) or abscissa (n^-sigma) up to the
    longest length, and each length reads the prefixes of its points'
    rows; other factors are formed per length, per distinct value of a
    chunk.  A row is the same elementwise operations on the same
    numbers either way, every product is the same two factors whatever
    else shares the batch, and a row sum runs along one point's terms
    alone, so a point's value is bitwise the same in any batch.  On one
    abscissa (a vertical line) a height has one length, and nothing is
    tabled.
    """
    out = np.empty(s.size, dtype=np.complex128)
    values, which = _distinct(lengths)
    trig = mag = logn = None
    if values.size > 1 and not (s.real == s.real[0]).all():
        logn = np.log(np.arange(1, values[-1], dtype=np.float64))
        trig = _table(s.imag, which, values, logn, _phases, 2)
        # on one height (a ray) an abscissa has one length
        if not (s.imag == s.imag[0]).all():
            mag = _table(s.real, which, values, logn, _magnitudes, 1)
    # the points of each length, ascending, from one stable sort; the
    # group of each point is freed before the sums, which set the peak
    order = which.argsort(kind="stable")
    ends = np.bincount(which).cumsum().tolist()
    del which
    for n_terms, start, end in zip(values.tolist(), [0] + ends, ends):
        idx = order[start:end]
        terms = (np.log(np.arange(1, n_terms, dtype=np.float64))
                 if logn is None else logn[:n_terms - 1])
        for chunk in _chunks(idx.size, n_terms):
            pts = idx[chunk]
            out[pts] = _chunk_sums(s, pts, terms, trig, mag)
    return out


def zeta_batch(s: np.ndarray, params: EvalParams = DEFAULT_PARAMS) -> np.ndarray:
    """Vectorised zeta over an array of complex points.

    Each point gets its own direct-sum length and sums its own row of
    terms, so a value is bitwise the same in any batch; points sharing a
    length share one direct sum, and the batch forms once the phases of
    a height, or the powers n^-sigma of an abscissa, that recur across
    lengths.

    Raises
    ------
    UnsupportedRange
        Any point that is not finite, has Re s < 0 or |Im s| > 1e4, or
        cannot meet tol within TERM_CAP terms.
    PoleAtOne
        Any point equal to 1 (within 1e-14).
    """
    shape = np.shape(s)
    flat = _checked_points(s)
    if flat.size == 0:
        return flat.reshape(shape)
    lengths, _ = _lengths_and_bounds(flat, params)
    out = _direct_sum(flat, lengths)
    out += _em_tail(flat, lengths, params.em_bernoulli)
    return out.reshape(shape)


def _log_moment(z: np.ndarray, k: int, log_n: np.ndarray) -> np.ndarray:
    """int_1^N x^-a log^k x dx = L^(k+1) int_0^1 u^k e^(zu) du for k in
    {0, 2}, with L = log N, given z = (1-a) L; accurate through a = 1.

    k = 0: expm1(z)/z, 1 at z = 0.  k = 2: (e^z (z^2 - 2z + 2) - 2)/z^3,
    which cancels as z nears 0, so points with |z| < 1 take the power
    series by Horner's rule instead.
    """
    if k == 0:
        return log_n * np.divide(np.expm1(z), z, out=np.ones_like(z),
                                 where=z != 0.0)
    near = np.abs(z) < 1.0
    far = np.where(near, 1.0, z)
    # products, not powers: a float power calls libm's pow, which costs
    # tens of times more
    out = (np.exp(far) * ((far - 2.0) * far + 2.0) - 2.0) / (far * far * far)
    if near.any():
        # np.polyval's Horner steps, each a rounded product and sum, in
        # place on the near points
        x = z[near]
        y = np.zeros_like(x)
        for c in _MOMENT2_SERIES[::-1]:
            y *= x
            y += c
        out[near] = y
    return log_n * log_n * log_n * out


def _error_parts(s, params: EvalParams):
    """(remainder bounds, rounding estimates) of zeta_batch at the points
    s, flat: the two parts of zeta_error, from one _lengths_and_bounds
    pass."""
    flat = _checked_points(s)
    if flat.size == 0:
        return np.empty(0), np.empty(0)
    lengths, bounds = _lengths_and_bounds(flat, params)
    sigma, t = flat.real, np.abs(flat.imag)
    nn = lengths.astype(np.float64)
    log_n = np.log(nn)
    # z = (1 - a) L at a = sigma and 2 sigma, a row each: the k = 0
    # moments at both, the k = 2 one at 2 sigma
    z = (1.0 - np.multiply.outer([1.0, 2.0], sigma)) * log_n
    sums = 1.0 + _log_moment(z, 0, log_n)
    sumsq = sums[1] + t ** 2 * _log_moment(z[1], 2, log_n)
    tail = nn ** -sigma * (nn / np.abs(flat - 1.0) + 1.0) * (1.0 + t * log_n)
    rounding = np.sqrt(sumsq) + np.sqrt(nn) * sums[0] + tail
    return bounds, _ROUNDING_ULPS * 2.0 ** -52 * rounding


def zeta_error(s, params: EvalParams = DEFAULT_PARAMS) -> np.ndarray:
    """Per-point absolute error estimate of zeta_batch.

    The Euler-Maclaurin remainder bound at the point's N plus a rounding
    estimate of square-root-sum type, in units of _ROUNDING_ULPS * eps:

    * each term n^-s is off by about n^-Re s (1 + |t| log n), since the
      phase t log n is rounded; independent errors add in quadrature;
    * accumulating the sum costs about sqrt(N) * sum_{n<N} n^-Re s;
    * the closed-form tail is off by its magnitude N^(1-Re s)/|s-1| +
      N^-Re s times (1 + |t| log N).

    Each sum over n < N is taken as 1 + int_1^N (the n = 1 term plus
    the integral), which lies at or above the sum.  The estimate grows
    with |t| and falls with Re s.
    """
    bounds, rounding = _error_parts(s, params)
    return (bounds + rounding).reshape(np.shape(s))


def zeta_path_error(s, params: EvalParams = DEFAULT_PARAMS) -> np.ndarray:
    """Per point s, zeta_batch's error on a path of points at or right
    of Re s and at or below |Im s|: params.tol, which every point's
    remainder meets, plus zeta_error's rounding estimate at s, which is
    largest at the leftmost, tallest point.  zeta_error at s alone is
    no such bound: a point of the path on a shorter rung than s has a
    remainder near tol where s's may be far below it."""
    return (params.tol + _error_parts(s, params)[1]).reshape(np.shape(s))


def zeta(s, params: EvalParams = DEFAULT_PARAMS) -> complex:
    """zeta(s).  zeta_error(s) estimates its absolute error: at most
    params.tol of truncation, plus rounding that matters only at large
    |Im s|.

    Accepts a complex number or a ComplexPoint.  Supported desk range:
    Re s >= 0, |Im s| <= 1e4, s != 1.
    """
    if isinstance(s, ComplexPoint):
        s = s.as_complex
    return complex(zeta_batch(np.array([s]), params)[0])
