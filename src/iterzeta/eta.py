"""Iterated integrals of log zeta and the identity linking their two forms.

Horizontal form (weight collapsed by parts):

    eta_tilde_m(sigma + it) = 1/(m-1)! int_sigma^inf (a - sigma)^(m-1)
                              log zeta(a + it) da

The integral splits at A = sigma + X, X = rays.CUTOFF_OFFSET = 6.
Quadrature on the resolved ray covers [sigma, A]; below NEAR_POLE it
integrates log W, and the pole's Log(s - 1) is exact.  From Re s >= 6.5 on,
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

_eta_vertical_rows steps it up the line, and eta_vertical is its
one-height call: between canonical knots (multiples of KNOT_STEP,
ordinates of zeros right of the line, pad edges) every level advances
by the exact Taylor shift of iterated integrals, and one partial step
reaches t.  The knot values of a line and its branch are kept in a
capped cache keyed on (m, sigma, the table's zeros).  A grid's heights
go in ascending slices, and a slice makes one quadrature call, over the
knot steps not yet kept plus a partial step per row, so a grid steps
its line once.  A slice builds a line branch only where the kept one
does not cover its steps, so a one-height call on a kept line pays for
its partial step alone.  Each row's value and est_error are bitwise
those of its cold one-height call.

The two are linked by eta_m = i^m eta_tilde_m + Y_m where Y_m collects
contributions of zeros right of the line below height t; check_bridge
measures the residual of that identity, which is the sharpest end-to-end
test the artifact has.

All vertical-line values of log zeta use the horizontal-continuation
branch (see rays); that choice is what makes the identity hold with the
Y_m correction exactly as stated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import e as _E, factorial, isfinite, log

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (BranchObstruction, QuadratureNonconvergence,
                     UnsupportedRange, ValidationError, float_array,
                     require_finite)
from .lru import LRUDict
from .primes import sieve_primes
from .quadrature import (gl_nodes, integrate_rows, opening_nodes,
                         poly_log_integral, poly_log_integrals)
from .rays import CUTOFF_OFFSET, LineBranch, RayBranch
from .rays import GUARD  # noqa: F401  (re-exported: callers import it here)
from .zetafun import DEFAULT_PARAMS, ComplexPoint, zeta_path_error
from .zeros import EMPTY_TABLE, ZeroTable, zeros_in_box

SUPPORTED_M = (1, 2, 3)
# below this height a ray integrates log W, the pole's part exactly
NEAR_POLE = 1.0
# the quadrature tolerance of every eta~ and eta value, fixed: a ray's
# panels meet it over [sigma, sigma + CUTOFF_OFFSET], a line's over the
# table's coverage; est_error adds zeta's error and a ray's tail bound
ABS_TOL = 1e-8
# the largest deviation at which eta_tilde_recursive accepts a Chebyshev
# piece, a hundredth of ABS_TOL: the weight's mass 6^m / m! <= 36 carries
# it into the value, so the fit's share of est_error stays within
# 0.36 ABS_TOL and the route checks the weighted one to its tolerance
CHEB_TOL = 1e-10
# heights in one pass of _eta_tilde_rows or slice of _eta_vertical_rows.
# A pass holds the quadrature nodes of all its heights at once, so this
# bounds its memory; from about 16 heights on, a pass costs the same per
# height
ROWS_PER_PASS = 128
# coarse panels of a ray's quadrature; its branch ladder starts on their
# nodes and their halves', so the first two rounds call no zeta
RAY_SPLITS = 2
# a ray whose ladder resolves a gap narrower than this grazes a zero of
# W that no table guards, and order 1, whose weight is 1 at the ray's
# start, is refused there before its quadrature.  Measured at
# sigma = 1/2 next to the zeros at t = 30.4249 and 146.001: of 22 m = 1
# rays with gaps from 8.6e-9 down to 1e-12, 19 raised
# QuadratureNonconvergence after 1.2-3.3 s of doubling panels; from
# 1.7e-8 up every ray resolved, and every ray that an eta~ pass of the
# library tests resolves has gaps of 2.2e-3 or more.  Orders 2 and 3,
# weighted by (a - sigma)^(m-1), resolved at every gap down to 1e-12
GRAZING_GAP = 1e-8
# _eta_vertical_rows steps up a line between knots KNOT_STEP apart (and the
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
        if not isfinite(self.est_error):
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
    require_finite(sigma=sigma)
    if sigma < 0.5:
        raise ValidationError("sigma must be >= 1/2")


def _log_zeta_error(sigma: float, t):
    """Error of log zeta at any point of a path with heights up to t and
    Re s >= sigma, for each height of t (a float or an array): a ray
    from sigma + it, or the line sigma + iu below t.

    It is zeta_path_error at the corner sigma + it: tol, which every
    point's remainder meets, plus the rounding estimate there, which
    passes tol only at large t.  At t = 0 and within the unit disc
    around the pole it is tol: a ray below NEAR_POLE integrates
    log(zeta(s)(s-1)) and never meets the pole, and log zeta's error is
    zeta's over |zeta| >= 0.7/|s-1|, so the tail term's growth like
    1/|s-1| cancels.
    """
    s = sigma + 1j * np.asarray(t, dtype=float)
    err = np.full(s.shape, DEFAULT_PARAMS.tol)
    far = (s.imag != 0.0) & (np.abs(s - 1.0) >= 1.0)
    err[far] = zeta_path_error(s[far])
    return err


def _zeta_term(m: int, span: float, log_err):
    """zeta's error, log_err = _log_zeta_error, carried through a weight
    of total mass span^m/m!."""
    return log_err * span ** m / factorial(m)


def tail_bound(m: int, sigma: float, a_cut: float) -> float:
    """Bound for what the closed-form tail leaves out:
    1/(m-1)! int_A^inf (a-sigma)^(m-1) |sum_{n > K} n^-(a+it) / k| da,
    A = a_cut, K = TAIL_TERMS.  sum_{n > K} n^-a <= K^(1-a) / (a-1)
    <= K^(1-a) / (A-1) for a >= A > 1, and K^-a integrates against the
    weight as every term does."""
    require_finite(sigma=sigma, a_cut=a_cut)
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
    _, terms, rel = _cut_series(sigma, t)
    weighted = terms * _tail_weights(m)
    err = tail_bound(m, sigma, sigma + CUTOFF_OFFSET) \
        + (np.abs(weighted) * rel).sum(axis=-1)
    return weighted.sum(axis=-1), err


@lru_cache(maxsize=None)
def _tail_weights(m: int) -> np.ndarray:
    """sum_{i<m} X^i / (i! (log n)^(m-i)) over the prime powers n <= K,
    X = CUTOFF_OFFSET, K = TAIL_TERMS: what each term n^-(A+it) / k of
    the tail gathers from the weight; read-only, made on first use."""
    logs, _ = _prime_powers(TAIL_TERMS)
    x = CUTOFF_OFFSET
    out = sum(x ** i / factorial(i) / logs ** (m - i) for i in range(m))
    out.flags.writeable = False
    return out


def _pole_log(m: int, sigma: float, a_cut: float, t: float) -> complex:
    """1/(m-1)! int_sigma^A (a-sigma)^(m-1) Log(a - 1 + it) da, exact.

    The part of log zeta = log W - Log(s - 1) not smooth near the pole.
    With u = 1 - a, Log(a - 1 + it) = Log(t + iu) + i pi/2 (at t = 0 the
    limit from above, on both sides of the pole): the local model at
    c = t, which loses about eps t^m, under eps below NEAR_POLE.
    """
    return poly_log_integral(m, 1.0 - sigma, 1.0 - a_cut, 1.0 - sigma,
                             0.0, t) \
        + 0.5j * np.pi * (a_cut - sigma) ** m / factorial(m)


def eta_tilde_weighted(m: int, sigma: float, t: float,
                       table: ZeroTable = EMPTY_TABLE) -> EtaValue:
    """Horizontal iterated integral via the collapsed weighted form: the
    one-height call of _eta_tilde_rows, conjugated below the real axis."""
    _validate_order_sigma(m, sigma)
    if t < 0.0:
        below = eta_tilde_weighted(m, sigma, -t, table)
        return replace(below, point=ComplexPoint(sigma, t),
                       value=np.conjugate(below.value))
    out, = _eta_tilde_rows(m, sigma, np.array([t]), table)
    if isinstance(out, Exception):
        raise out
    return out


def _ray_integrand(branch: RayBranch, alphas, rows) -> np.ndarray:
    """log zeta on the rows of branch at t >= NEAR_POLE, log W below,
    whose pole part _pole_log integrates exactly (higher up
    poly_log_integral would lose about eps t^m)."""
    t = branch.heights[rows]
    # s - 1, s = alpha + it, formed from its parts
    z = np.empty(alphas.shape, dtype=complex)
    z.real, z.imag = alphas - 1.0, t
    return branch.log_w(alphas, rows) - np.log(
        z, out=np.zeros_like(z), where=t >= NEAR_POLE)


def _eta_tilde_rows(m, sigma: float, ts: np.ndarray,
                    table: ZeroTable) -> list:
    """eta~_m(sigma + it) at every height t >= 0 of ts, in one pass.

    One RayBranch resolves the ladders of all heights and one
    integrate_rows call integrates them on [sigma, sigma + CUTOFF_OFFSET];
    the closed-form tail adds the rest, and below NEAR_POLE (c_m's t = 0
    too) the pole's part (_ray_integrand).  The ladders start on the
    nodes of the quadrature's first two rounds (opening_nodes), and the
    branch serves both rounds, in one integrand call, from the log W it
    forms at its nodes, so a pass whose ladders need no refinement and
    whose panels stop there makes one zeta call: at one height it costs
    about that call and 0.35 ms more on a shared 2-core Xeon.  Each
    height gets its own ladder and panels, and zeta gives a point the
    same bits in any batch, so each height's EtaValue is bitwise its
    one-height value; its nevals counts the points its W was evaluated
    at, the ladder's nodes and the panel nodes off them.
    Returns per height its EtaValue, or the BranchObstruction (a
    GuardBand in the guard band; for order 1 also a ray that grazes a
    zero, GRAZING_GAP) or QuadratureNonconvergence that height raises;
    a height's refusal leaves the others as they would be without it.
    At most ROWS_PER_PASS heights share a pass.  m may be a tuple of
    orders: a height then gets one EtaValue per order, each order's
    integrand on the same panels; order 0, taken only there, is log zeta
    at the ray's start: no quadrature, est_error _log_zeta_error.
    """
    orders = m if isinstance(m, tuple) else (m,)
    for j in orders:
        _validate_order_sigma(j if j or orders is not m else 1, sigma)
    if ts.size > ROWS_PER_PASS:
        return [ev for lo in range(0, ts.size, ROWS_PER_PASS)
                for ev in _eta_tilde_rows(m, sigma, ts[lo:lo + ROWS_PER_PASS],
                                          table)]
    a_cut = sigma + CUTOFF_OFFSET
    branch = RayBranch(sigma, ts, table,
                       opening_nodes(sigma, a_cut, RAY_SPLITS))
    out = [branch.refusal(j) if hit else None
           for j, hit in enumerate(branch.obstructed.tolist())]
    if 1 in orders:
        for j in np.flatnonzero(branch.finest_gaps() < GRAZING_GAP).tolist():
            out[j] = BranchObstruction(
                f"the ray at sigma={sigma:g}, t={ts[j]:g} grazes a zero: "
                f"its ladder resolves a gap below {GRAZING_GAP:g}")
    rows = np.flatnonzero([ev is None for ev in out])

    def f(alphas, row):
        lz = _ray_integrand(branch, alphas, rows[row])
        out = [(alphas - sigma) ** (j - 1) * lz / factorial(j - 1) if j
               else np.zeros_like(lz) for j in orders]
        return np.stack(out) if orders is m else out[0]
    value, qerr, _, refused = integrate_rows(
        f, np.full(rows.size, sigma), a_cut, ABS_TOL,
        initial_splits=RAY_SPLITS)
    shape = (rows.size, len(orders))
    value, qerr = value.reshape(shape), qerr.reshape(shape)
    ts_ok = branch.heights[rows]
    near = (ts_ok < NEAR_POLE).nonzero()[0].tolist()
    # zeta's error at each ray's start, once for all orders
    log_err = _log_zeta_error(sigma, ts_ok)
    for k, j in enumerate(orders):
        if j == 0:
            value[:, k] = branch.log_zeta(np.full(rows.size, sigma), rows)
            qerr[:, k] = log_err
            continue
        for i in near:
            value[i, k] -= _pole_log(j, sigma, a_cut, float(ts_ok[i]))
        tail, tail_err = _tail(j, sigma, ts_ok)
        value[:, k] += tail
        qerr[:, k] = qerr[:, k] + tail_err \
            + _zeta_term(j, CUTOFF_OFFSET, log_err)
    for i, (r, t, nev, val, err) in enumerate(zip(
            rows.tolist(), ts_ok.tolist(), branch.row_evals[rows].tolist(),
            value.tolist(), qerr.tolist())):
        if refused[i] is not None:
            out[r] = refused[i]
            continue
        evs = tuple(EtaValue(j, ComplexPoint(sigma, t), val[k], err[k], nev)
                    for k, j in enumerate(orders))
        out[r] = evs if orders is m else evs[0]
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
                        table: ZeroTable = EMPTY_TABLE) -> EtaValue:
    """Horizontal iterated integral by literal nesting.

    log zeta on [sigma, A], A = sigma + CUTOFF_OFFSET, is fitted by
    degree-8 Chebyshev pieces on the ray's branch ladder (_ray_integrand:
    log W below NEAR_POLE); a piece whose fit misses CHEB_TOL at a check
    node is bisected.
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
    if t < 0.0:
        below = eta_tilde_recursive(m, sigma, -t, table)
        return replace(below, point=ComplexPoint(sigma, t),
                       value=np.conjugate(below.value))
    a_cut = sigma + CUTOFF_OFFSET
    branch = RayBranch(sigma, t, table)
    nev = branch.nodes_used
    edges = branch.abscissae()
    lo, hi = edges[:-1], edges[1:]
    pieces, dev_max = [], 0.0
    for _ in range(14):
        coeffs, dev = _cheb_fit(lambda xs: _ray_integrand(branch, xs, 0),
                                lo, hi)
        nev += lo.size * (_CHEB_NODES.size + _CHECK_NODES.size)
        good = dev <= CHEB_TOL
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
    if t < NEAR_POLE:
        value -= _pole_log(m, sigma, a_cut, t)

    # the constants' truncation and rounding reach the value through the
    # weighted tail's combination, so they carry its error
    span = CUTOFF_OFFSET
    err = dev_max * span ** m / factorial(m) \
        + float(_tail(m, sigma, t)[1][0]) \
        + float(_zeta_term(m, span, _log_zeta_error(sigma, t)))
    return EtaValue(m, ComplexPoint(sigma, t), value, err, nev)


# eta~_j(sigma + 0i), j in SUPPORTED_M, by sigma: one t = 0
# row on shared panels, so a line's m constants cost one pass
_C_CACHE_CAP = 64
_C_CACHE = LRUDict(_C_CACHE_CAP)


def _c_eta(m: int, sigma: float) -> EtaValue:
    def make():
        evs, = _eta_tilde_rows(SUPPORTED_M, sigma, np.zeros(1), EMPTY_TABLE)
        if isinstance(evs, Exception):
            raise evs
        return evs
    return _C_CACHE.get_or_set(sigma, make)[m - 1]


def c_m(m: int, sigma: float) -> complex:
    """Integration constant of the vertical recursion:
    i^m / (m-1)! int_sigma^inf (a-sigma)^(m-1) log zeta(a) da, with the
    real-axis branch taken as the limit from the upper half plane."""
    _validate_order_sigma(m, sigma)
    return 1j ** m * _c_eta(m, sigma).value


def y_m_terms(m: int, sigma: float, t: float,
              table: ZeroTable) -> list[ZeroSumTerm]:
    _validate_order_sigma(m, sigma)
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


# lines whose knot values _eta_vertical_rows keeps, by (m, sigma, table
# zeros); a line holds m complex values and m bounds per knot
_LINE_CACHE_CAP = 64
_LINE_CACHE = LRUDict(_LINE_CACHE_CAP)


class _Line:
    """The canonical knots of the line sigma + iu for a zero table, and
    the values _eta_vertical_rows has reached at them.

    The knots are the multiples of KNOT_STEP, the ordinates of the
    zeros right of the line, where the branch may jump, and the edges of
    the pads (SINGULARITY_PAD around the ordinate of a zero that close
    to the line), with the multiples inside a pad dropped: they depend
    on sigma and the table only.  At knot i, kept[i] = (F, E): F[j-1] is
    level j = 1..m of the recursion on log W, W = zeta(s)(s - 1), from
    c_j(sigma) at knot 0, and E[j-1] its error bound; they are kept from
    knot 0 up as far as rows have stepped.  The zeros within NEAR_LINE
    of the line, by ordinate, have their local models taken out of the
    integrand.  Rows above `crowded` refuse: past it two ordinates lie
    within twice SINGULARITY_PAD of each other.

    `branch` is the rays.LineBranch of the last slice that built one,
    over the `cuts` (the ordinates of zeros at or right of the line) and
    the `pads`: from a knot at or below that slice's lowest step up to
    the first knot above its top row, at most the table's `coverage`.
    A later slice whose steps it covers reuses it; a slice that builds a
    branch keeps it instead, so a line holds one branch, 62 KB at most
    (sigma = 1/2 from 0 to the bundled table's coverage).
    """

    def __init__(self, m: int, sigma: float, table: ZeroTable):
        h = SINGULARITY_PAD
        on = np.abs(sigma - table.betas) <= h
        pad_g = table.gammas[on]
        self.pads = (np.maximum(pad_g - h, 0.0), pad_g + h)
        units = np.arange(0.0, table.coverage + KNOT_STEP, KNOT_STEP)
        inside = np.any(np.abs(units[:, None] - pad_g) < h, axis=1) \
            & (units > 0.0)
        self.knots = np.unique(np.concatenate(
            [units[~inside], table.gammas[~on & (table.betas > sigma)],
             *self.pads]))
        self.opens_pad = np.isin(self.knots, self.pads[0])
        # where the branch may jump, and how far it may reach
        self.cuts = table.gammas[table.betas >= sigma]
        self.coverage = table.coverage
        self.branch = None
        close = np.flatnonzero(np.diff(table.gammas) <= 2.0 * h)
        self.crowded = table.gammas[close[0] + 1] if close.size else np.inf
        # panels meet rate per unit height in every level: at most
        # ABS_TOL in all at the top of the table's coverage
        self.rate = ABS_TOL * factorial(m) / table.coverage ** m
        near = np.nonzero(np.abs(sigma - table.betas) <= NEAR_LINE)[0]
        near = near[np.argsort(table.gammas[near], kind="stable")]
        self.near = (table.gammas[near], sigma - table.betas[near],
                     table.mults[near].astype(float))
        # rows store the knots they step past in order, from the constants
        # c_j = i^j eta~_j(sigma), and a knot's value is the same whichever
        # row stores it; the first row to get a value counts the
        # constants' evaluations if this line makes them
        self.unpaid = 0 if sigma in _C_CACHE else _c_eta(1, sigma).nevals
        cs = [_c_eta(j, sigma) for j in range(1, m + 1)]
        self.kept = [(np.array([1j ** j * c.value
                                for j, c in enumerate(cs, 1)]),
                      np.array([c.est_error for c in cs]))]

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


def _line(m: int, sigma: float, table: ZeroTable) -> _Line:
    return _LINE_CACHE.get_or_set((m, sigma, table.key),
                                  lambda: _Line(m, sigma, table))


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


def _eta_vertical_rows(m: int, sigma: float, ts, table: ZeroTable) -> list:
    """Vertical iterated integral at every height t > 0 of ts, stepped
    up the line by its recursion from the constants c_j(sigma):

        eta_j(sigma + iu) = int_0^u eta_(j-1)(sigma + iv) dv + c_j(sigma)

    The pole's -Log(s - 1) in log zeta = log W - Log(s - 1) is
    integrated over [0, t] in closed form, so the quadrature sees
    log W, W = zeta(s)(s - 1), smooth through u = 0 even at sigma = 1.
    The levels F_j of log W start at c_j and go up the line from knot to
    knot (_Line: multiples of KNOT_STEP, ordinates of zeros right of the
    line and pad edges) by the exact Taylor shift

        F_j(u + d) = sum_{i<j} F_{j-i}(u) d^i / i!
                     + 1/(j-1)! int_u^{u+d} (u+d-v)^(j-1) log W(sigma+iv) dv,

    and one partial step from the last knot below t reaches t.  The m
    weights of a step share their log W values: each step is one
    m-valued row of an integrate_rows call.  A zero rho within
    NEAR_LINE of the line makes log W singular near its ordinate; every
    step within KNOT_STEP of it integrates log W - k Log(s - rho), which
    is smooth there, and adds the model k Log(s - rho) in closed form.
    Within SINGULARITY_PAD of a zero that close to the line, a pad
    takes a fixed rule instead of panels.  Errors go up with the values,
    from the constants' est_errors, times the same d^i / i!.

    The heights go in ascending slices of at most ROWS_PER_PASS.  A
    slice makes one integrate_rows call, over the knot steps above the
    line's highest kept knot (_LINE_CACHE, by m, sigma and the table's
    zeros) up to its top row, plus each row's partial step, and
    one _pad_rule call for the pads; each row then shifts from its own
    knot.  A step's panels, tolerance and zeta values depend on the step
    alone, so each row's value and est_error are bitwise those of its
    one-height call on a cold cache, whatever rows share its slice or
    came before it.

    The branch of log zeta on the line is the rays.LineBranch the line
    keeps (_Line.branch).  A slice whose steps it covers reuses it; any
    other slice builds one from its lowest step up to the first knot
    above its top row, at most the table's coverage, and keeps it.  A
    ladder up the line carries the winding between the ordinates of
    zeros at or right of it, and horizontal walks anchor and check each
    stretch, so the table decides where the branch may jump but zeta
    decides by how much.  log W is exact at every point, and the branch
    supplies only its 2 pi winding integer, which does not depend on how
    far the ladder reaches, so a kept branch gives a row the bits a new
    one would.  nevals counts the zeta evaluations made for a row: its
    partial step, and for the lowest row of a slice that gets a value,
    what the slice shares too: knot steps, the ladder and walk nodes of
    a branch the slice built, and the constants c_j its new line had to
    compute.  A cold one-row call's row thus counts all of its call's
    evaluations, and a row whose step a kept branch covers its partial
    step alone.

    Returns per height its EtaValue or the refusal that height raises:
    the UnsupportedRange of a row above the line's `crowded` height, the
    BranchObstruction of a branch stretch its steps meet, or a step's
    QuadratureNonconvergence.  A knot step's refusal refuses every row
    above it; the others are as they would be alone.  A bad order or
    sigma, a height that is not finite, a height t <= 0 and a height
    past the table's coverage raise for the whole call, in that order,
    before any row is computed.
    """
    _validate_order_sigma(m, sigma)
    ts = float_array(ts)
    require_finite(t=ts)
    if not np.all(ts > 0.0):
        raise ValidationError("eta_vertical needs t > 0; at t = 0 the "
                              "value is c_m(sigma) by definition")
    if not ts.size:
        return []
    table.require_coverage(ts.max())
    line = _line(m, sigma, table)
    order = np.argsort(ts, kind="stable")
    out = [None] * ts.size
    for lo in range(0, ts.size, ROWS_PER_PASS):
        rows = order[lo:lo + ROWS_PER_PASS]
        for r, ev in zip(rows, _vertical_slice(m, sigma, ts[rows], line)):
            out[r] = ev
    return out


def _vertical_slice(m: int, sigma: float, ts: np.ndarray,
                    line: _Line) -> list:
    """The rows of _eta_vertical_rows at the ascending heights ts."""
    live = int(np.searchsorted(ts, line.crowded, side="right"))
    out = [None] * live + [UnsupportedRange(
        f"table ordinates closer than twice the singularity pad "
        f"{SINGULARITY_PAD:g}") for _ in ts[live:]]
    ts = ts[:live]
    if not live:
        return out
    # the knot steps from the highest kept knot up to the top row's
    # knot, then per row the partial step from the last knot below it
    kept = len(line.kept) - 1
    top = np.searchsorted(line.knots, ts) - 1
    n_knot = max(int(top[-1]) - kept, 0)
    knot = np.concatenate([np.arange(kept, kept + n_knot), top])
    lo, pad = line.knots[knot], line.opens_pad[knot]
    hi = np.concatenate([line.knots[kept + 1:kept + n_knot + 1], ts])

    # the branch may jump where a zero lies at or right of the line; it
    # starts at a knot, but not next to a zero inside a pad, and ends at
    # the first knot above the top row or at the table's coverage.  The
    # line keeps it for the next slice whose steps it covers
    first = min(int(top[0]), kept)
    bottom = line.knots[first - 1 if first and line.opens_pad[first]
                        else first]
    branch = line.branch
    built = branch is None or branch.bottom > bottom or branch.top < ts[-1]
    if built:
        end = np.searchsorted(line.knots, ts[-1], side="right")
        branch = line.branch = LineBranch(
            sigma, min(line.knots[min(end, line.knots.size - 1)],
                       line.coverage),
            line.cuts, bottom=bottom, pads=line.pads)
    refusals = branch.refusals(lo, hi)
    # a step is integrated unless the branch refuses it or a knot step
    # below it that it needs
    stop = next((i for i, r in enumerate(refusals[:n_knot]) if r is not None),
                n_knot)
    need = np.array([r is None for r in refusals])
    need[stop:n_knot] = False
    need[n_knot:] &= top - kept <= stop
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
    nev = np.zeros(lo.size, dtype=int)
    # zeta's error at the top of each step taken: on the step, and below
    # a row's height
    log_err = np.zeros(lo.size)
    log_err[need] = _log_zeta_error(sigma, hi[need])
    steps = np.flatnonzero(need & ~pad)
    if steps.size:
        # log W's rounding is zeta's over |zeta|, and next to a zero rho
        # of the table |zeta| >= |s - rho| / 2 (|zeta'(rho)| >= 0.79
        # below t = 250): a step that near a modelled zero declares more
        a, b = lo[steps], hi[steps]
        gap = np.maximum(np.maximum(a[:, None] - G[steps], G[steps]
                                    - b[:, None]), 0.0)
        near = np.where(K[steps] > 0.0, np.hypot(C[steps], gap), np.inf)
        noise = log_err[steps] * np.maximum(
            1.0, 2.0 / near.min(axis=1, initial=np.inf))
        S[steps], R[steps], nev[steps], stalled = integrate_rows(
            lambda us, row: f(us, steps[row]), a, b,
            line.rate * (b - a), noise=noise)
        for i, exc in zip(steps, stalled):
            refusals[i] = exc
    pads = np.flatnonzero(need & pad)
    if pads.size:
        S[pads], R[pads] = _pad_rule(f, lo[pads], hi[pads], pads)
        nev[pads] = 40
    for i in np.flatnonzero(need):
        for z in range(count[i]):
            S[i] += K[i, z] * poly_log_integrals(m, hi[i], lo[i], hi[i],
                                                 G[i, z], C[i, z])

    # the knot values in order, up to the first refused knot step
    for i in range(n_knot):
        if refusals[i] is not None:
            break
        line.kept.append(_shift(*line.kept[-1], hi[i] - lo[i], S[i], R[i]))
    reached = len(line.kept) - 1
    shared = (branch.nodes_used if built else 0) + int(nev[:n_knot].sum())
    for i, t in enumerate(ts.tolist()):
        k = n_knot + i
        exc = refusals[reached - kept] if top[i] > reached else refusals[k]
        if exc is not None:
            out[i] = exc
            continue
        F, E = _shift(*line.kept[top[i]], t - lo[k], S[k], R[k])
        value = F[m - 1] - poly_log_integral(m, t, 0.0, t, 0.0, sigma - 1.0)
        err = E[m - 1] + _zeta_term(m, t, float(log_err[k]))
        out[i] = EtaValue(m, ComplexPoint(sigma, t), complex(value),
                          float(err), int(nev[k]) + shared + line.unpaid)
        shared = line.unpaid = 0
    return out


def eta_vertical(m: int, sigma: float, t: float,
                 table: ZeroTable) -> EtaValue:
    """Vertical iterated integral eta_m(sigma + it), t > 0: the
    one-height call of _eta_vertical_rows, raising the refusal the
    height gets."""
    out, = _eta_vertical_rows(m, sigma, [t], table)
    if isinstance(out, Exception):
        raise out
    return out


def check_bridge(m: int, sigma: float, t: float,
                 table: ZeroTable) -> float:
    """|eta_vertical - (i^m eta_tilde_weighted + y_m)|; should sit inside
    the combined est_error budget."""
    ev = eta_vertical(m, sigma, t, table)
    et = eta_tilde_weighted(m, sigma, t, table)
    return abs(ev.value - (1j ** m * et.value + y_m(m, sigma, t, table)))


def growth_check(m: int, sigma: float, t_samples,
                 table: ZeroTable) -> list[tuple[float, float]]:
    """Normalized residuals |eta_m - Y_m| / log t over the samples; the
    sequence should stay bounded (reported, not asserted to a constant).
    A sample that is not finite, or t <= e, is refused before any row is
    computed."""
    ts = float_array(t_samples).ravel()
    require_finite(t=ts)
    if not np.all(ts > _E):
        raise ValidationError("growth samples need t > e for the "
                              "log t normalization")
    out = []
    for t, ev in zip(ts.tolist(), _eta_vertical_rows(m, sigma, ts, table)):
        if isinstance(ev, Exception):
            raise ev
        out.append((t, abs(ev.value - y_m(m, sigma, t, table)) / log(t)))
    return out
