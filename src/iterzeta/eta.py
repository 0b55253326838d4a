"""Iterated integrals of log zeta and the identity linking their two forms.

Horizontal form (weight collapsed by parts):

    eta_tilde_m(sigma + it) = 1/(m-1)! int_sigma^inf (a - sigma)^(m-1)
                              log zeta(a + it) da

The integral splits at A = sigma + X, X = rays.CUTOFF_OFFSET = 6.
Quadrature on the resolved ray covers [sigma, A].  From Re s >= 6.5 on,
log zeta = sum_{n = p^k} n^-s / k converges absolutely, and each term
integrates against the weight in closed form, so past A

    tail = sum_{n = p^k <= K} n^-(A+it) / k
           * sum_{i<m} X^i / (i! (log n)^(m-i)),

with K = TAIL_TERMS and tail_bound bounding the prime powers past K.
The recursive route nests instead: it fits log zeta on [sigma, A] once
by Chebyshev pieces, and level j is the exact antiderivative of level
j - 1 from x to A plus the same series' constant sum
n^-(A+it) / (k (log n)^j) at A.  Its error is the fit's deviation times
X^m / m!, plus the terms the weighted form carries.

Vertical form, defined by recursion in t with base log zeta:

    eta_m(sigma + it) = int_0^t eta_(m-1)(sigma + it') dt' + c_m(sigma)

eta_vertical steps it up the line: between canonical knots (multiples
of KNOT_STEP, ordinates of zeros right of the line, pad edges) every
level advances by the exact Taylor shift of iterated integrals, and one
partial step reaches t.  The knot values of a line are kept in a capped
cache keyed on (m, sigma, abs_tol, the table's zeros), so a row on a
line already stepped past its knot integrates only its last step, and
its value and est_error are bitwise those of a cold run.  A sweep up a
line costs one pass over it plus, per row, a partial step and the walks
that anchor the branch there.

The two are linked by eta_m = i^m eta_tilde_m + Y_m where Y_m collects
contributions of zeros right of the line below height t; check_bridge
measures the residual of that identity, which is the sharpest end-to-end
test the artifact has.

All vertical-line values of log zeta use the horizontal-continuation
branch (see rays); that choice is what makes the identity hold with the
Y_m correction exactly as stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import e as _E, factorial, log

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (QuadratureNonconvergence, UnsupportedRange,
                     ValidationError)
from .lru import LRUDict
from .primes import sieve_primes
from .quadrature import (gl_nodes, integrate_rows, integrate_vec,
                         poly_log_integral, poly_log_integrals)
from .rays import CUTOFF_OFFSET, LineBranch, RayBranch, _w, check_guard
from .rays import GUARD  # noqa: F401  (re-exported: callers import it here)
from .zetafun import DEFAULT_PARAMS, ComplexPoint, zeta_error
from .zeros import EMPTY_TABLE, ZeroTable, zeros_in_box

SUPPORTED_M = (1, 2, 3)
# the default quadrature tolerance of every eta and dirichlet integral
ABS_TOL = 1e-8
# heights in one pass of _eta_tilde_rows.  A pass holds the quadrature
# nodes of all its heights at once, so this bounds its memory; from
# about 16 heights on, a pass costs the same per height
ROWS_PER_PASS = 128
# eta_vertical steps up a line between knots KNOT_STEP apart (and the
# ordinates of zeros right of the line, and pad edges); the local model
# of a zero within NEAR_LINE of the line is integrated in closed form
# over the steps within KNOT_STEP of its ordinate
KNOT_STEP = 2.0
NEAR_LINE = 0.5
# half-width of the pad around the ordinate of a zero this close to the
# line: the remainder there is integrated by a fixed rule whose nodes
# keep off the ordinate, where the table's rounding of it would show
SINGULARITY_PAD = 1e-2
# the closed-form tail past A = sigma + CUTOFF_OFFSET sums log zeta's
# Dirichlet series over the prime powers up to TAIL_TERMS; tail_bound
# bounds the rest, about 1.5e-14 at sigma = 1/2, m = 3
TAIL_TERMS = 300
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class EtaValue:
    m: int
    point: ComplexPoint
    value: complex
    est_error: float
    nevals: int = 0

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValidationError("order m must be nonnegative")
        if not np.isfinite(self.est_error):
            raise ValidationError("est_error must be finite")


@dataclass(frozen=True)
class ZeroSumTerm:
    """One k-term of the zero sum Y_m."""
    k: int
    contribution: complex

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValidationError("zero-sum index k must be nonnegative")


def _validate_order_sigma(m: int, sigma: float) -> None:
    if m not in SUPPORTED_M:
        raise UnsupportedRange(f"order m={m} unsupported; use m in {SUPPORTED_M}")
    if not np.isfinite(sigma) or sigma < 0.5:
        raise ValidationError("sigma must be finite and >= 1/2")


def _validate_abs_tol(abs_tol: float) -> None:
    if not abs_tol > 0.0:
        raise ValidationError("abs_tol must be positive")


def _log_zeta_error(sigma: float, t):
    """Error of log zeta at any point of a path with heights up to t and
    Re s >= sigma, for each height of t (a float or an array).

    Every point meets tol in its remainder; the rounding part of
    zeta_error is largest at the leftmost, tallest point sigma + it, and
    passes tol only at large t.  At t = 0 and within the unit disc
    around the pole it is tol: the t = 0 route integrates
    log(zeta(a)(a-1)) and never meets the pole, and log zeta's error is
    zeta's over |zeta| >= 0.7/|s-1|, so the tail term's growth like
    1/|s-1| cancels.
    """
    s = sigma + 1j * np.asarray(t, dtype=float)
    err = np.full(s.shape, DEFAULT_PARAMS.tol)
    far = (s.imag != 0.0) & (np.abs(s - 1.0) >= 1.0)
    err[far] = np.maximum(err[far], zeta_error(s[far]))
    return err


def _zeta_term(m: int, span: float, sigma: float, t):
    """zeta's error carried through a weight of total mass span^m/m!."""
    return _log_zeta_error(sigma, t) * span ** m / factorial(m)


def tail_bound(m: int, sigma: float, a_cut: float) -> float:
    """Bound for what the closed-form tail leaves out:
    1/(m-1)! int_A^inf (a-sigma)^(m-1) |sum_{n > K} n^-(a+it) / k| da,
    A = a_cut, K = TAIL_TERMS.  sum_{n > K} n^-a <= K^(1-a) / (a-1)
    <= K^(1-a) / (A-1) for a >= A > 1, and K^-a integrates against the
    weight as every term does."""
    if not a_cut > 1.0:
        raise ValidationError("the Dirichlet series of log zeta needs "
                              "a cut A > 1")
    x = a_cut - sigma
    log_k = log(TAIL_TERMS)
    return TAIL_TERMS ** (1.0 - a_cut) / (a_cut - 1.0) \
        * sum(x ** i / (factorial(i) * log_k ** (m - i)) for i in range(m))


@lru_cache(maxsize=8)
def _prime_powers(limit: int):
    """log n and 1/k for the prime powers n = p^k <= limit, read-only,
    made on first use.  The one enumeration of prime powers: the tail
    reads it at TAIL_TERMS, dirichlet's von Mangoldt sums at their X."""
    logs, inv_k = [], []
    if limit >= 2:
        for p in sieve_primes(max(limit, 3)).primes.tolist():
            n, k = p, 1
            while n <= limit:
                logs.append(log(n))
                inv_k.append(1.0 / k)
                n, k = n * p, k + 1
    out = np.array(logs, dtype=float), np.array(inv_k, dtype=float)
    for arr in out:
        arr.flags.writeable = False
    return out


def _cut_series(sigma: float, t):
    """log zeta's Dirichlet series at the cut A = sigma + CUTOFF_OFFSET:
    log n and the terms n^-(A+it) / k over the prime powers n <= K, one
    row per height of t, with each term's rounding relative to its
    modulus (its phase t log n is rounded to eps, relative).  Every
    term is formed elementwise, so a row does not depend on the other
    rows."""
    logs, inv_k = _prime_powers(TAIL_TERMS)
    phase = np.multiply.outer(np.atleast_1d(np.asarray(t, dtype=float)),
                              logs)
    terms = inv_k * np.exp(-(sigma + CUTOFF_OFFSET) * logs) \
        * np.exp(-1j * phase)
    return logs, terms, _EPS * (4.0 + phase)


def _tail(m: int, sigma: float, t):
    """1/(m-1)! int_A^inf (a-sigma)^(m-1) log zeta(a + it) da in closed
    form at each height of t, A = sigma + X, X = CUTOFF_OFFSET, and its
    error: tail_bound plus rounding.  Each term n^-(a+it) / k integrates
    against the weight to n^-(A+it) / k sum_{i<m} X^i / (i! (log n)^(m-i)),
    and each row sums its own terms."""
    logs, terms, rel = _cut_series(sigma, t)
    x = CUTOFF_OFFSET
    weighted = terms * sum(x ** i / factorial(i) / logs ** (m - i)
                           for i in range(m))
    err = tail_bound(m, sigma, sigma + x) \
        + (np.abs(weighted) * rel).sum(axis=-1)
    return weighted.sum(axis=-1), err


def _pole_log(m: int, sigma: float, a_cut: float) -> complex:
    """1/(m-1)! int_sigma^A (a-sigma)^(m-1) Log(a - 1 + i0) da, exact.

    This is the non-smooth part of log zeta(a + i0+) = log W(a)
    - Log(a - 1 + i0).  With u = 1 - a, Log(a - 1 + i0) = Log(iu) + i pi/2
    on both sides of the pole, and Log(iu) is the local model at c = 0.
    """
    return poly_log_integral(m, 1.0 - sigma, 1.0 - a_cut, 1.0 - sigma,
                             0.0, 0.0) \
        + 0.5j * np.pi * (a_cut - sigma) ** m / factorial(m)


def eta_tilde_weighted(m: int, sigma: float, t: float,
                       table: ZeroTable = EMPTY_TABLE, *,
                       abs_tol: float = ABS_TOL) -> EtaValue:
    """Horizontal iterated integral via the collapsed weighted form.
    At t > 0 this is the one-height call of _eta_tilde_rows."""
    _validate_order_sigma(m, sigma)
    _validate_abs_tol(abs_tol)
    if t < 0.0:
        below = eta_tilde_weighted(m, sigma, -t, table, abs_tol=abs_tol)
        return EtaValue(m, ComplexPoint(sigma, t),
                        np.conjugate(below.value), below.est_error,
                        below.nevals)
    if t > 0.0:
        out, = _eta_tilde_rows(m, sigma, np.array([t]), table,
                               abs_tol=abs_tol)
        if isinstance(out, Exception):
            raise out
        return out
    check_guard(table, sigma, t)
    a_cut = sigma + CUTOFF_OFFSET
    fm = factorial(m - 1)

    def f(alphas):
        return (alphas - sigma) ** (m - 1) * np.log(_w(alphas).real) / fm
    smooth, qerr, nev = integrate_vec(f, sigma, a_cut, abs_tol,
                                      initial_splits=2)
    (tail,), (tail_err,) = _tail(m, sigma, t)
    value = smooth - _pole_log(m, sigma, a_cut) + tail
    err = qerr + tail_err + float(_zeta_term(m, CUTOFF_OFFSET, sigma, t))
    return EtaValue(m, ComplexPoint(sigma, t), complex(value), err, nev)


def _eta_tilde_rows(m: int, sigma: float, ts: np.ndarray,
                    table: ZeroTable, *, abs_tol: float = ABS_TOL) -> list:
    """eta~_m(sigma + it) at every height t > 0 of ts, in one pass.

    One RayBranch resolves the ladders of all heights and one
    integrate_rows call integrates them on [sigma, sigma + CUTOFF_OFFSET],
    so a height costs its share of a few batched zeta calls instead of a
    call sequence of its own; the closed-form tail adds the rest.
    Each height gets its own panels, and its value differs from its
    one-height value only by the rounding of the zeta calls it shared.
    Returns per height its EtaValue, or the BranchObstruction (a
    GuardBand in the guard band) or QuadratureNonconvergence that height
    raises; a height's refusal leaves the others as they would be
    without it.  At most ROWS_PER_PASS heights share a pass.
    """
    _validate_order_sigma(m, sigma)
    _validate_abs_tol(abs_tol)
    if ts.size > ROWS_PER_PASS:
        return [ev for lo in range(0, ts.size, ROWS_PER_PASS)
                for ev in _eta_tilde_rows(m, sigma, ts[lo:lo + ROWS_PER_PASS],
                                          table, abs_tol=abs_tol)]
    branch = RayBranch(sigma, ts, table)
    out = [branch.refusal(j) if hit else None
           for j, hit in enumerate(branch.obstructed)]
    rows = np.nonzero(~branch.obstructed)[0]
    a_cut = sigma + CUTOFF_OFFSET
    fm = factorial(m - 1)

    def f(alphas, row):
        return (alphas - sigma) ** (m - 1) \
            * branch.log_zeta(alphas, rows[row]) / fm
    value, qerr, nev, refused = integrate_rows(
        f, np.full(rows.size, sigma), a_cut, abs_tol, initial_splits=2)
    ts_ok = branch.heights[rows]
    tail, tail_err = _tail(m, sigma, ts_ok)
    value = value + tail
    err = qerr + tail_err + _zeta_term(m, CUTOFF_OFFSET, sigma, ts_ok)
    nev = nev + branch.row_nodes[rows]
    for j, r in enumerate(rows):
        if refused[j] is not None:
            out[r] = refused[j]
        else:
            out[r] = EtaValue(m, ComplexPoint(sigma, float(ts_ok[j])),
                              complex(value[j]), float(err[j]), int(nev[j]))
    return out


_CHEB_DEG = 8
_CHEB_NODES = np.cos(np.pi * (np.arange(_CHEB_DEG + 1) + 0.5)
                     / (_CHEB_DEG + 1))[::-1]
_CHECK_NODES = np.array([-0.83, 0.11, 0.77])


def _cheb_fit(f_vec, lo: np.ndarray, hi: np.ndarray):
    """Degree-_CHEB_DEG Chebyshev fits of f on the intervals [lo, hi],
    one row of coefficients in u = (2x - lo - hi) / (hi - lo) per
    interval, and each fit's largest deviation from f at the check
    nodes.  f is called once, on the fit and check nodes of all of
    them."""
    nodes = np.concatenate([_CHEB_NODES, _CHECK_NODES])
    xs = lo[:, None] + 0.5 * (hi - lo)[:, None] * (nodes + 1.0)
    vals = f_vec(xs.ravel()).reshape(xs.shape)
    fit = _CHEB_NODES.size
    coeffs = _cheb.chebfit(_CHEB_NODES, vals[:, :fit].T, _CHEB_DEG).T
    dev = np.abs(_cheb.chebval(_CHECK_NODES, coeffs.T) - vals[:, fit:])
    return coeffs, dev.max(axis=1)


def _integral_to_cut(lo: np.ndarray, hi: np.ndarray, coeffs: np.ndarray,
                     at_cut: complex) -> np.ndarray:
    """Coefficients of F(x) = int_x^A p + at_cut on each interval, one
    degree up, for p the piecewise polynomial with coefficients coeffs
    on the ascending, abutting intervals [lo, hi], A = hi[-1]: exact up
    to rounding."""
    # int_x^hi p = -anti(u), anti = (hi - lo)/2 int_1^u p
    anti = 0.5 * (hi - lo)[:, None] * _cheb.chebint(coeffs, lbnd=1.0, axis=1)
    whole = -_cheb.chebval(-1.0, anti.T)
    out = -anti.astype(complex)
    out[:, 0] += at_cut + np.append(np.cumsum(whole[::-1])[::-1][1:], 0.0)
    return out


def eta_tilde_recursive(m: int, sigma: float, t: float,
                        table: ZeroTable = EMPTY_TABLE, *,
                        abs_tol: float = ABS_TOL) -> EtaValue:
    """Horizontal iterated integral by literal nesting.

    log zeta on [sigma, A], A = sigma + CUTOFF_OFFSET, is fitted by
    degree-8 Chebyshev pieces on the ray's branch ladder (at t = 0, of
    log W on a uniform one, the pole's Log(a - 1) taken out in closed
    form); a piece whose fit misses tol at a check node is bisected.
    Level j is then the exact antiderivative of level j - 1 from x to
    the cut, plus its value there in closed form,
    G_j(A) = sum n^-(A+it) / (k (log n)^j), so the levels are the nested
    integrals to infinity, and eta~_m is level m at x = sigma.  The fit's
    deviation from log zeta reaches the value times at most the weight's
    mass 6^m / m!; the weighted form's tail combines the same terms with
    the weight, so the two routes agree up to fit and quadrature error
    and serve as mutual checks.
    """
    _validate_order_sigma(m, sigma)
    _validate_abs_tol(abs_tol)
    if t < 0.0:
        below = eta_tilde_recursive(m, sigma, -t, table, abs_tol=abs_tol)
        return EtaValue(m, ComplexPoint(sigma, t),
                        np.conjugate(below.value), below.est_error,
                        below.nevals)
    a_cut = sigma + CUTOFF_OFFSET

    nev = 0
    if t == 0.0:
        check_guard(table, sigma, t)
        edges = np.linspace(sigma, a_cut, 25)

        def f_vec(xs):
            return np.log(_w(xs).real).astype(complex)
    else:
        branch = RayBranch(sigma, t, table)
        nev += branch.nodes_used
        edges = sigma + branch.offsets()
        f_vec = branch.log_zeta

    tol = max(abs_tol * 1e-2, 1e-11)
    lo, hi = edges[:-1], edges[1:]
    pieces, dev_max = [], 0.0
    for _ in range(14):
        coeffs, dev = _cheb_fit(f_vec, lo, hi)
        nev += lo.size * (_CHEB_NODES.size + _CHECK_NODES.size)
        good = dev <= tol
        pieces.append((lo[good], hi[good], coeffs[good]))
        dev_max = max(dev_max, float(dev[good].max(initial=0.0)))
        if good.all():
            break
        lo, hi = lo[~good], hi[~good]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    else:
        raise QuadratureNonconvergence(
            f"nested fit stalled at deviation {dev.max():.2e}")
    lo, hi, coeffs = (np.concatenate(part) for part in zip(*pieces))
    order = np.argsort(lo)
    lo, hi, coeffs = lo[order], hi[order], coeffs[order]

    logs, terms, _ = _cut_series(sigma, t)
    for j in range(1, m + 1):
        coeffs = _integral_to_cut(lo, hi, coeffs,
                                  complex(np.sum(terms[0] / logs ** j)))
    value = complex(_cheb.chebval(-1.0, coeffs[0]))
    if t == 0.0:
        value -= _pole_log(m, sigma, a_cut)

    # the constants' truncation and rounding reach the value through the
    # weighted tail's combination, so they carry its error
    span = CUTOFF_OFFSET
    err = dev_max * span ** m / factorial(m) \
        + float(_tail(m, sigma, t)[1][0]) \
        + float(_zeta_term(m, span, sigma, t))
    return EtaValue(m, ComplexPoint(sigma, t), value, err, nev)


# c_m's eta~ at t = 0 by (m, sigma, abs_tol); an eval grid or a bridge
# check needs m of them per sigma
_C_CACHE_CAP = 64
_C_CACHE = LRUDict(_C_CACHE_CAP)


def _c_eta(m: int, sigma: float, abs_tol: float) -> EtaValue:
    return _C_CACHE.get_or_set(
        (m, sigma, abs_tol),
        lambda: eta_tilde_weighted(m, sigma, 0.0, EMPTY_TABLE,
                                   abs_tol=abs_tol))


def c_m(m: int, sigma: float, *, abs_tol: float = ABS_TOL) -> complex:
    """Integration constant of the vertical recursion:
    i^m / (m-1)! int_sigma^inf (a-sigma)^(m-1) log zeta(a) da, with the
    real-axis branch taken as the limit from the upper half plane."""
    _validate_order_sigma(m, sigma)
    _validate_abs_tol(abs_tol)
    return 1j ** m * _c_eta(m, sigma, abs_tol).value


def y_m_terms(m: int, sigma: float, t: float,
              table: ZeroTable) -> list[ZeroSumTerm]:
    if m not in SUPPORTED_M:
        raise UnsupportedRange(f"order m={m} unsupported")
    betas, gammas, mults = zeros_in_box(table, sigma, t)
    terms = []
    for k in range(m):
        inner = np.sum(mults * (betas - sigma) ** (m - k) * (t - gammas) ** k)
        coef = 2.0 * np.pi * 1j ** (m - 1 - k) \
            / (factorial(m - k) * factorial(k))
        terms.append(ZeroSumTerm(k, complex(coef * inner)))
    return terms


def y_m(m: int, sigma: float, t: float, table: ZeroTable) -> complex:
    """Zero-sum correction of the bridge identity, multiplicity-weighted.
    Empty box gives 0."""
    return sum((term.contribution for term in y_m_terms(m, sigma, t, table)),
               0.0 + 0.0j)


# lines whose knot values eta_vertical keeps, by (m, sigma, abs_tol,
# table zeros); a line holds m complex values and m bounds per knot
_LINE_CACHE_CAP = 64
_LINE_CACHE = LRUDict(_LINE_CACHE_CAP)


class _Line:
    """The canonical knots of the line sigma + iu for a zero table, and
    the values eta_vertical has reached at them.

    The knots are the multiples of KNOT_STEP, the ordinates of the
    zeros right of the line, where the branch may jump, and the edges of
    the pads (SINGULARITY_PAD around the ordinate of a zero that close
    to the line), with the multiples inside a pad dropped: they depend
    on sigma and the table only.  At knot i, kept[i] = (F, E): F[j-1] is
    the j-fold integral from 0 of log W, W = zeta(s)(s - 1), for
    j = 1..m, and E[j-1] its error bound; they are kept from knot 0 up
    as far as rows have stepped.  The zeros within NEAR_LINE of the
    line, by ordinate, have their local models taken out of the
    integrand.
    """

    def __init__(self, m: int, sigma: float, abs_tol: float,
                 table: ZeroTable):
        h = SINGULARITY_PAD
        on = np.abs(sigma - table.betas) <= h
        pad_g = table.gammas[on]
        self.pad_lo = np.maximum(pad_g - h, 0.0)
        units = np.arange(0.0, table.coverage + KNOT_STEP, KNOT_STEP)
        inside = np.any(np.abs(units[:, None] - pad_g) < h, axis=1) \
            & (units > 0.0)
        self.knots = np.unique(np.concatenate(
            [units[~inside], table.gammas[~on & (table.betas > sigma)],
             self.pad_lo, pad_g + h]))
        # panels meet rate per unit height in every level: at most
        # abs_tol in all at the top of the table's coverage
        self.rate = abs_tol * factorial(m) / table.coverage ** m
        self.noise = _log_zeta_error(sigma, self.knots)
        near = np.nonzero(np.abs(sigma - table.betas) <= NEAR_LINE)[0]
        near = near[np.argsort(table.gammas[near], kind="stable")]
        self.near = (table.gammas[near], sigma - table.betas[near],
                     table.mults[near].astype(float))
        # knot index -> (F, E); the keys are always 0..n-1, as rows store
        # the knots they step past in order, and a knot's value is the
        # same whichever row stores it
        self.kept = {0: (np.zeros(m, dtype=complex), np.zeros(m))}

    def models(self, lo: np.ndarray, hi: np.ndarray):
        """(g, c, k) of the zeros near the line with ordinates within
        KNOT_STEP of each step [lo, hi], as (steps, slots) arrays in
        ordinate order, padded by k = 0; and the count per step."""
        g, c, k = self.near
        first = np.searchsorted(g, lo - KNOT_STEP)
        count = np.searchsorted(g, hi + KNOT_STEP, side="right") - first
        slot = first[:, None] + np.arange(int(count.max(initial=0)))
        used = slot < (first + count)[:, None]
        slot = np.minimum(slot, g.size - 1)
        return (np.where(used, g[slot], 0.0), np.where(used, c[slot], 1.0),
                np.where(used, k[slot], 0.0), count)


def _line(m: int, sigma: float, abs_tol: float, table: ZeroTable) -> _Line:
    return _LINE_CACHE.get_or_set(
        (m, sigma, abs_tol, table.key),
        lambda: _Line(m, sigma, abs_tol, table))


def _pad_rule(f, lo, hi, rows):
    """Gauss-Legendre 24 over each pad [lo, hi] of f's rows, and its
    distance to Gauss-Legendre 16 as the error, per component: even
    orders keep the nodes off the pad's centre."""
    x16, w16 = gl_nodes(16)
    x24, w24 = gl_nodes(24)
    half = 0.5 * (hi - lo)[:, None]
    us = 0.5 * (lo + hi)[:, None] + half * np.concatenate([x16, x24])
    vals = f(us.ravel(), np.repeat(rows, 40)).reshape(-1, rows.size, 40)
    r16 = half[:, 0] * (vals[..., :16] * w16).sum(axis=-1)
    r24 = half[:, 0] * (vals[..., 16:] * w24).sum(axis=-1)
    return r24.T, np.abs(r24 - r16).T


def _shift(F, E, delta: float, S, R):
    """Knot values one step of length delta up the line: level j takes
    sum_{i<j} F_{j-i} delta^i / i! plus the step's own integral S_j,
    and its error bound the same combination of E plus R_j."""
    m = F.size
    taylor = np.array([[delta ** (j - i) / factorial(j - i) if i <= j
                        else 0.0 for i in range(m)] for j in range(m)])
    return taylor @ F + S, taylor @ E + R


def eta_vertical(m: int, sigma: float, t: float, table: ZeroTable, *,
                 abs_tol: float = ABS_TOL) -> EtaValue:
    """Vertical iterated integral, stepped up the line:

        eta_m = 1/(m-1)! int_0^t (t-u)^(m-1) log zeta(sigma+iu) du
                + sum_j c_j(sigma) t^(m-j)/(m-j)!

    The pole's -Log(s - 1) in log zeta = log W - Log(s - 1) is
    integrated over [0, t] in closed form, so the quadrature sees
    log W, W = zeta(s)(s - 1), smooth through u = 0 even at sigma = 1.
    The iterated integrals F_j of log W go up the line from knot to knot
    (_Line: multiples of KNOT_STEP, ordinates of zeros right of the line
    and pad edges) by the exact Taylor shift

        F_j(u + d) = sum_{i<j} F_{j-i}(u) d^i / i!
                     + 1/(j-1)! int_u^{u+d} (u+d-v)^(j-1) log W(sigma+iv) dv,

    and one partial step from the last knot below t reaches t.  The m
    weights of a step share their log W values: each step is one
    m-valued row of one integrate_rows call.  A zero rho within
    NEAR_LINE of the line makes log W singular near its ordinate; every
    step within KNOT_STEP of it integrates log W - k Log(s - rho), which
    is smooth there, and adds the model k Log(s - rho) in closed form.
    Within SINGULARITY_PAD of a zero that close to the line, a pad
    takes a fixed rule instead of panels.  Errors go up with the values,
    times the same d^i / i!.

    Knot values are kept per line (_LINE_CACHE, by m, sigma, abs_tol and
    the table's zeros), so a row below the line's highest kept knot
    integrates only its partial step, and a taller row the steps above
    it too.  A step's panels, tolerance and zeta values depend on the
    step alone, so a row's value and est_error are bitwise those of a
    cold run, whatever rows came before it.

    The branch of log zeta on the line comes from one rays.LineBranch
    over the heights the row steps through: a ladder up the line carries
    the winding between the ordinates of zeros at or right of it, and
    horizontal walks anchor and check each stretch, so the table decides
    where the branch may jump but zeta decides by how much.  nevals
    counts the zeta evaluations this call made: ladder and walk nodes,
    panels, and the constants c_j it had to compute.
    """
    _validate_order_sigma(m, sigma)
    _validate_abs_tol(abs_tol)
    if not t > 0.0:
        raise ValidationError("eta_vertical needs t > 0; at t = 0 the "
                              "value is c_m(sigma) by definition")
    table.require_coverage(t)
    h = SINGULARITY_PAD
    gam = table.gammas[table.gammas < t]
    if gam.size and np.min(np.diff(gam), initial=np.inf) <= 2.0 * h:
        raise UnsupportedRange(f"table ordinates closer than twice the "
                               f"singularity pad {h:g}")
    line = _line(m, sigma, abs_tol, table)
    # the steps from the highest kept knot below t, the last one to t
    top = int(np.searchsorted(line.knots, t)) - 1
    start = min(top, len(line.kept) - 1)
    lo = line.knots[start:top + 1]
    hi = np.append(line.knots[start + 1:top + 1], t)
    pad = np.isin(lo, line.pad_lo)
    log_err = float(_log_zeta_error(sigma, t))

    # the branch may jump where a zero lies at or right of the line; it
    # starts at a knot, but not next to a zero inside a pad
    bottom = line.knots[start - 1] if pad[0] and start else lo[0]
    branch = LineBranch(sigma, t, table.gammas[table.betas >= sigma],
                        bottom=bottom)
    G, C, K, count = line.models(lo, hi)

    def f(us, row):
        rem = branch.log_w(us)
        for z in range(G.shape[1]):
            rem = rem - K[row, z] * np.log(C[row, z] + 1j * (us - G[row, z]))
        d = hi[row] - us
        out, weight = [], np.ones_like(us)
        for j in range(m):
            out.append(weight * rem)
            weight = weight * d / (j + 1)
        return np.stack(out)
    S = np.zeros((lo.size, m), dtype=complex)
    R = np.zeros((lo.size, m))
    nev = branch.nodes_used
    steps = np.nonzero(~pad)[0]
    if steps.size:
        # log W's rounding is zeta's over |zeta|, and next to a zero rho
        # of the table |zeta| >= |s - rho| / 2 (|zeta'(rho)| >= 0.79
        # below t = 250): a step that near a modelled zero declares more
        noise = np.append(line.noise[start + 1:top + 1], log_err)[steps]
        a, b = lo[steps], hi[steps]
        gap = np.maximum(np.maximum(a[:, None] - G[steps], G[steps]
                                    - b[:, None]), 0.0)
        near = np.where(K[steps] > 0.0, np.hypot(C[steps], gap), np.inf)
        noise = noise * np.maximum(1.0, 2.0 / near.min(axis=1,
                                                      initial=np.inf))
        S[steps], R[steps], nevs, refused = integrate_rows(
            lambda us, row: f(us, steps[row]), a, b,
            line.rate * (b - a), noise=noise)
        for exc in refused:
            if exc is not None:
                raise exc
        nev += int(nevs.sum())
    pads = np.nonzero(pad)[0]
    if pads.size:
        S[pads], R[pads] = _pad_rule(f, lo[pads], hi[pads], pads)
        nev += 40 * pads.size

    F, E = line.kept[start]
    for i in range(lo.size):
        for z in range(count[i]):
            S[i] += K[i, z] * poly_log_integrals(m, hi[i], lo[i], hi[i],
                                                 G[i, z], C[i, z])
        F, E = _shift(F, E, hi[i] - lo[i], S[i], R[i])
        if i < lo.size - 1:
            line.kept[start + i + 1] = F, E

    value = F[m - 1] - poly_log_integral(m, t, 0.0, t, 0.0, sigma - 1.0)
    cs_err = 0.0
    for j in range(1, m + 1):
        # like knot values, a constant kept from an earlier call costs
        # this one nothing
        if (j, sigma, abs_tol) not in _C_CACHE:
            nev += _c_eta(j, sigma, abs_tol).nevals
        cj = _c_eta(j, sigma, abs_tol)
        value += 1j ** j * cj.value * t ** (m - j) / factorial(m - j)
        cs_err += cj.est_error * t ** (m - j) / factorial(m - j)

    err = E[m - 1] + cs_err + log_err * t ** m / factorial(m)
    return EtaValue(m, ComplexPoint(sigma, t), complex(value), float(err), nev)


def check_bridge(m: int, sigma: float, t: float, table: ZeroTable, *,
                 abs_tol: float = ABS_TOL) -> float:
    """|eta_vertical - (i^m eta_tilde_weighted + y_m)|; should sit inside
    the combined est_error budget."""
    ev = eta_vertical(m, sigma, t, table, abs_tol=abs_tol)
    et = eta_tilde_weighted(m, sigma, t, table, abs_tol=abs_tol)
    return abs(ev.value - (1j ** m * et.value + y_m(m, sigma, t, table)))


def growth_check(m: int, sigma: float, t_samples, table: ZeroTable, *,
                 abs_tol: float = ABS_TOL) -> list[tuple[float, float]]:
    """Normalized residuals |eta_m - Y_m| / log t over the samples; the
    sequence should stay bounded (reported, not asserted to a constant)."""
    out = []
    for t in t_samples:
        if not t > _E:
            raise ValidationError("growth samples need t > e for the "
                                  "log t normalization")
        ev = eta_vertical(m, sigma, float(t), table, abs_tol=abs_tol)
        out.append((float(t),
                    abs(ev.value - y_m(m, sigma, float(t), table)) / log(t)))
    return out
