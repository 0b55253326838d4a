"""Iterated integrals of log zeta and the identity linking their two forms.

Horizontal form (weight collapsed by parts):

    eta_tilde_m(sigma + it) = 1/(m-1)! int_sigma^inf (a - sigma)^(m-1)
                              log zeta(a + it) da

Vertical form, defined by recursion in t with base log zeta:

    eta_m(sigma + it) = int_0^t eta_(m-1)(sigma + it') dt' + c_m(sigma)

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
from math import e as _E, factorial, log

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (BranchObstruction, QuadratureNonconvergence,
                     TableCoverage, UnsupportedRange, ValidationError)
from .lru import LRUDict
from .quadrature import (gl_nodes, integrate_rows, integrate_vec,
                         poly_log_integral)
from .rays import CUTOFF_OFFSET, LineBranch, RayBranch, _w, check_guard
from .rays import GUARD  # noqa: F401  (re-exported: callers import it here)
from .zetafun import DEFAULT_PARAMS, ComplexPoint, zeta_error
from .zeros import EMPTY_TABLE, ZeroTable, zeros_in_box

SUPPORTED_M = (1, 2, 3)
# heights in one pass of _eta_tilde_rows.  A pass holds the quadrature
# nodes of all its heights at once, so this bounds its memory; from
# about 16 heights on, a pass costs the same per height
ROWS_PER_PASS = 128
# half-width around a zero ordinate where eta_vertical integrates the
# local log(s - rho) model in closed form
SINGULARITY_PAD = 1e-2


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
    """Bound for 1/(m-1)! int_A^inf (a-sigma)^(m-1) |log zeta| da using
    |log zeta(a + it)| <= 2 * 2^-a for a >= 2."""
    ln2 = log(2.0)
    x = a_cut - sigma
    j = m - 1
    s = sum(factorial(j) // factorial(j - i) * x ** (j - i) / ln2 ** (i + 1)
            for i in range(j + 1))
    return 2.0 * 2.0 ** (-a_cut) * s / factorial(j)


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
                       abs_tol: float = 1e-8) -> EtaValue:
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
                                      initial_splits=8)
    value = smooth - _pole_log(m, sigma, a_cut)
    err = qerr + tail_bound(m, sigma, a_cut) \
        + float(_zeta_term(m, a_cut - sigma, sigma, t))
    return EtaValue(m, ComplexPoint(sigma, t), complex(value), err, nev)


def _eta_tilde_rows(m: int, sigma: float, ts: np.ndarray,
                    table: ZeroTable, *, abs_tol: float = 1e-8) -> list:
    """eta~_m(sigma + it) at every height t > 0 of ts, in one pass.

    One RayBranch resolves the ladders of all heights and one
    integrate_rows call integrates them, so a height costs its share of
    a few batched zeta calls instead of a call sequence of its own.
    Each height gets its own panels, and its value differs from its
    one-height value only by the rounding of the zeta calls it shared.
    Returns per height its EtaValue, or the BranchObstruction or
    QuadratureNonconvergence that height raises; a height's refusal
    leaves the others as they would be without it.  At most
    ROWS_PER_PASS heights share a pass.
    """
    _validate_order_sigma(m, sigma)
    _validate_abs_tol(abs_tol)
    if ts.size > ROWS_PER_PASS:
        return [ev for lo in range(0, ts.size, ROWS_PER_PASS)
                for ev in _eta_tilde_rows(m, sigma, ts[lo:lo + ROWS_PER_PASS],
                                          table, abs_tol=abs_tol)]
    out = [None] * ts.size
    live = []
    for i, t in enumerate(ts):
        try:
            check_guard(table, sigma, t)
        except BranchObstruction as exc:
            out[i] = exc
        else:
            live.append(i)
    if not live:
        return out
    branch = RayBranch(sigma, ts[live])
    for j in np.nonzero(branch.obstructed)[0]:
        out[live[j]] = branch.refusal(j)
    rows = np.nonzero(~branch.obstructed)[0]
    if not rows.size:
        return out
    a_cut = sigma + CUTOFF_OFFSET
    fm = factorial(m - 1)

    def f(alphas, row):
        return (alphas - sigma) ** (m - 1) \
            * branch.log_zeta(alphas, rows[row]) / fm
    value, qerr, nev, refused = integrate_rows(
        f, np.full(rows.size, sigma), a_cut, abs_tol, initial_splits=8)
    ts_ok = branch.heights[rows]
    err = qerr + tail_bound(m, sigma, a_cut) \
        + _zeta_term(m, a_cut - sigma, sigma, ts_ok)
    nev = nev + branch.row_nodes[rows]
    for j, r in enumerate(rows):
        if refused[j] is not None:
            out[live[r]] = refused[j]
        else:
            out[live[r]] = EtaValue(m, ComplexPoint(sigma, float(ts_ok[j])),
                                    complex(value[j]), float(err[j]),
                                    int(nev[j]))
    return out


class _PiecewiseCheb:
    """Piecewise Chebyshev representation on a shared edge ladder, with
    exact integration (the pieces are polynomials)."""

    def __init__(self, edges: np.ndarray, coeffs: list):
        self.edges = edges
        self.coeffs = coeffs

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, xs, side="right") - 1,
                      0, len(self.coeffs) - 1)
        out = np.empty(xs.size, dtype=complex)
        for i in np.unique(idx):
            sel = idx == i
            a, b = self.edges[i], self.edges[i + 1]
            u = (2.0 * xs[sel] - (a + b)) / (b - a)
            out[sel] = _cheb.chebval(u, self.coeffs[i])
        return out

    def interval_integrals(self) -> np.ndarray:
        vals = np.empty(len(self.coeffs), dtype=complex)
        for i, c in enumerate(self.coeffs):
            a, b = self.edges[i], self.edges[i + 1]
            anti = _cheb.chebint(c)
            vals[i] = 0.5 * (b - a) * (_cheb.chebval(1.0, anti)
                                       - _cheb.chebval(-1.0, anti))
        return vals

    def integral_from(self, x: float, i: int, suffix: np.ndarray) -> complex:
        """int_x^edges[-1] of the representation; i is x's interval,
        suffix[i] the exact sum over intervals right of i."""
        a, b = self.edges[i], self.edges[i + 1]
        u = (2.0 * x - (a + b)) / (b - a)
        anti = _cheb.chebint(self.coeffs[i])
        part = 0.5 * (b - a) * (_cheb.chebval(1.0, anti)
                                - _cheb.chebval(u, anti))
        return part + suffix[i]


_CHEB_DEG = 8
_CHEB_NODES = np.cos(np.pi * (np.arange(_CHEB_DEG + 1) + 0.5)
                     / (_CHEB_DEG + 1))[::-1]
_CHECK_NODES = np.array([-0.83, 0.11, 0.77])


def _first_level_samples(f_vec, edges: np.ndarray):
    """F(x) = int_x^edges[-1] f at the Chebyshev and check nodes of every
    interval: one GL16 partial panel per sample plus exact suffix sums.
    All f evaluations happen in two batched calls."""
    x16, w16 = gl_nodes(16)
    x32, w32 = gl_nodes(32)
    lo, hi = edges[:-1], edges[1:]
    n_int = lo.size

    full_nodes = (0.5 * (lo + hi)[:, None]
                  + 0.5 * (hi - lo)[:, None] * x32).ravel()
    fv = f_vec(full_nodes).reshape(n_int, x32.size)
    full = 0.5 * (hi - lo) * (fv @ w32)
    suffix = np.concatenate([np.cumsum(full[::-1])[::-1][1:], [0.0 + 0.0j]])

    def sample(node_frac: np.ndarray):
        xs = lo[:, None] + 0.5 * (node_frac[None, :] + 1.0) * (hi - lo)[:, None]
        pl = xs.ravel()[:, None] * (1.0 - (x16[None, :] + 1.0) / 2.0) \
            + hi.repeat(node_frac.size)[:, None] * (x16[None, :] + 1.0) / 2.0
        vals = f_vec(pl.ravel()).reshape(-1, x16.size)
        halfw = 0.5 * (hi.repeat(node_frac.size) - xs.ravel())
        partial = halfw * (vals @ w16)
        return xs, partial.reshape(n_int, node_frac.size) \
            + suffix[:, None]

    return sample, suffix, full


def _rep_from_samples(edges: np.ndarray, samples: np.ndarray) -> _PiecewiseCheb:
    coeffs = [_cheb.chebfit(_CHEB_NODES, samples[i], _CHEB_DEG)
              for i in range(edges.size - 1)]
    return _PiecewiseCheb(edges, coeffs)


def _integrate_level(rep: _PiecewiseCheb):
    """Next-level samples from an existing representation, all exact."""
    full = rep.interval_integrals()
    suffix = np.concatenate([np.cumsum(full[::-1])[::-1][1:], [0.0 + 0.0j]])
    lo, hi = rep.edges[:-1], rep.edges[1:]

    def sample(node_frac: np.ndarray):
        xs = lo[:, None] + 0.5 * (node_frac[None, :] + 1.0) * (hi - lo)[:, None]
        out = np.empty_like(xs, dtype=complex)
        for i in range(lo.size):
            for j in range(node_frac.size):
                out[i, j] = rep.integral_from(xs[i, j], i, suffix)
        return xs, out

    return sample, suffix, full


def _build_level_rep(edges, sampler, tol, what):
    """Fit Chebyshev pieces and verify at off-grid points; bisect
    intervals that miss tol.  sampler(node_frac) -> (xs, values) closes
    over the current edges, so it is rebuilt by the caller on refine."""
    _, smp = sampler(_CHEB_NODES)
    rep = _rep_from_samples(edges, smp)
    xc, direct = sampler(_CHECK_NODES)
    dev = np.abs(rep(xc.ravel()) - direct.ravel())
    bad_int = np.unique(np.nonzero(dev.reshape(len(edges) - 1, -1)
                                   .max(axis=1) > tol)[0])
    return rep, float(dev.max()), bad_int


def eta_tilde_recursive(m: int, sigma: float, t: float,
                        table: ZeroTable = EMPTY_TABLE, *,
                        abs_tol: float = 1e-8) -> EtaValue:
    """Horizontal iterated integral by literal nesting.

    Level one is sampled by panel quadrature of log zeta; each further
    level integrates a piecewise-polynomial fit of the previous one.
    Truncating every level at the same cutoff A makes the nested region
    exactly the simplex of the weighted form, so the two routes agree up
    to quadrature error and serve as mutual checks.
    """
    _validate_order_sigma(m, sigma)
    _validate_abs_tol(abs_tol)
    if t < 0.0:
        below = eta_tilde_recursive(m, sigma, -t, table, abs_tol=abs_tol)
        return EtaValue(m, ComplexPoint(sigma, t),
                        np.conjugate(below.value), below.est_error,
                        below.nevals)
    check_guard(table, sigma, t)
    a_cut = sigma + CUTOFF_OFFSET

    if m == 1:
        # identical integrand and panels as the weighted form
        return eta_tilde_weighted(1, sigma, t, table, abs_tol=abs_tol)

    nev = 0
    if t == 0.0:
        edges = np.unique(np.concatenate(
            [np.arange(sigma, min(sigma + 3.0, a_cut), 0.25),
             np.geomspace(min(sigma + 3.0, a_cut), a_cut, 24)]))

        def f_vec(xs):
            return np.log(_w(xs).real).astype(complex)
    else:
        branch = RayBranch(sigma, t)
        nev += branch.nodes_used
        edges = sigma + branch.offsets()
        if edges[-1] > a_cut:
            edges = np.unique(np.append(edges[edges < a_cut], a_cut))
        f_vec = branch.log_zeta

    tol_i = max(abs_tol * 1e-2, 1e-11)
    dev_max = 0.0
    for _ in range(14):
        sampler, suffix, _ = _first_level_samples(f_vec, edges)
        nev += (edges.size - 1) * (32 + 16 * (_CHEB_NODES.size
                                              + _CHECK_NODES.size))
        rep, dev, bad = _build_level_rep(edges, sampler, tol_i, "level 1")
        dev_max = dev
        if bad.size == 0:
            break
        mids = 0.5 * (edges[bad] + edges[bad + 1])
        edges = np.unique(np.concatenate([edges, mids]))
    else:
        raise QuadratureNonconvergence(
            f"nested level-1 fit stalled at deviation {dev_max:.2e}")

    # higher levels are exact integrals of the previous representation
    for _level in range(2, m):
        sampler, suffix, _ = _integrate_level(rep)
        rep, dev, bad = _build_level_rep(rep.edges, sampler, tol_i * 10,
                                         "higher level")
        dev_max = max(dev_max, dev)

    full = rep.interval_integrals()
    value = complex(np.sum(full))
    if t == 0.0:
        value -= _pole_log(m, sigma, a_cut)

    span = a_cut - sigma
    err = dev_max * span ** (m - 1) / factorial(m - 1) \
        + 1e-10 * span + tail_bound(m, sigma, a_cut) \
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


def c_m(m: int, sigma: float, *, abs_tol: float = 1e-8) -> complex:
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


def eta_vertical(m: int, sigma: float, t: float, table: ZeroTable, *,
                 abs_tol: float = 1e-8) -> EtaValue:
    """Vertical iterated integral, collapsed to a single weighted
    quadrature in the height:

        eta_m = 1/(m-1)! int_0^t (t-u)^(m-1) log zeta(sigma+iu) du
                + sum_j c_j(sigma) t^(m-j)/(m-j)!

    The path is split at every table ordinate below t, and the spans
    integrate as the rows of one integrate_rows call; within
    SINGULARITY_PAD of an ordinate the local log(s - rho) model is
    integrated in closed form and only the smooth remainder numerically.
    The pole's -Log(s - 1) is integrated in closed form too, so the
    quadrature sees log(zeta(s)(s - 1)), smooth through u = 0 even at
    sigma = 1.

    The branch of log zeta on the line comes from one rays.LineBranch:
    a ladder up the line carries the winding between the ordinates of
    zeros at or right of it, and horizontal walks anchor and check each
    stretch, so the table decides where the branch may jump but zeta
    decides by how much.  zeta is evaluated exactly at every node; the
    ladder and walk nodes count towards nevals.
    """
    _validate_order_sigma(m, sigma)
    _validate_abs_tol(abs_tol)
    if not t > 0.0:
        raise ValidationError("eta_vertical needs t > 0; at t = 0 the "
                              "value is c_m(sigma) by definition")
    if t > table.coverage:
        raise TableCoverage(
            f"height t={t:g} beyond table coverage {table.coverage:g} "
            f"({table.source_label}); zeros there would be invisible")
    h = SINGULARITY_PAD
    fm = factorial(m - 1)

    sel = table.gammas < t
    gam = table.gammas[sel]
    bet = table.betas[sel]
    mlt = table.mults[sel]
    if gam.size and np.min(np.diff(gam), initial=np.inf) <= 2.0 * h:
        raise UnsupportedRange(f"table ordinates closer than twice the "
                               f"singularity pad {h:g}")

    pads = []     # (lo, hi, gamma, c, mult)
    edges = [0.0, t]
    for g, b, k in zip(gam, bet, mlt):
        if abs(sigma - b) <= h:
            lo, hi = max(g - h, 0.0), min(g + h, t)
            pads.append((lo, hi, g, sigma - b, int(k)))
            edges += [lo, hi]
        else:
            edges.append(g)
    edges = np.unique(np.asarray(edges))
    pad_spans = {(lo, hi) for lo, hi, *_ in pads}

    # the branch may jump where a zero lies at or right of the line
    line = LineBranch(sigma, t, gam[bet >= sigma])

    def f(us, _row):
        return (t - us) ** (m - 1) * line.log_w(us) / fm

    # f's values are off by up to its weight times log zeta's error; at
    # large t and m that passes the panels' share of abs_tol, and panels
    # must not be bisected to resolve it
    log_err = float(_log_zeta_error(sigma, t))
    value = -poly_log_integral(m, t, 0.0, t, 0.0, sigma - 1.0)
    qerr = 0.0
    nev = line.nodes_used
    # the spans between edges, but the pads, as rows of one quadrature
    u0, u1 = np.array([span for span in zip(edges[:-1], edges[1:])
                       if span not in pad_spans and span[1] - span[0] >= 1e-13]
                      ).reshape(-1, 2).T
    vals, errs, nevs, refused = integrate_rows(
        f, u0, u1, abs_tol * (u1 - u0) / t,
        noise=log_err * (t - u0) ** (m - 1) / fm)
    for v, err, ne, exc in zip(vals, errs, nevs, refused):
        if exc is not None:
            raise exc
        value += v
        qerr += err
        nev += int(ne)

    x16, w16 = gl_nodes(16)
    x24, w24 = gl_nodes(24)
    for lo, hi, g, c, k in pads:
        value += k * poly_log_integral(m, t, lo, hi, g, c)

        def rem(us):
            return (t - us) ** (m - 1) / fm * (
                line.log_w(us) - k * np.log(c + 1j * (us - g)))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        r16 = half * np.sum(w16 * rem(mid + half * x16))
        r24 = half * np.sum(w24 * rem(mid + half * x24))
        value += r24
        qerr += abs(r24 - r16)
        nev += 40

    cs_err = 0.0
    for j in range(1, m + 1):
        cj = _c_eta(j, sigma, abs_tol)
        value += 1j ** j * cj.value * t ** (m - j) / factorial(m - j)
        cs_err += cj.est_error * t ** (m - j) / factorial(m - j)
        nev += cj.nevals

    err = qerr + cs_err + log_err * t ** m / factorial(m)
    return EtaValue(m, ComplexPoint(sigma, t), complex(value), err, nev)


def check_bridge(m: int, sigma: float, t: float, table: ZeroTable, *,
                 abs_tol: float = 1e-8) -> float:
    """|eta_vertical - (i^m eta_tilde_weighted + y_m)|; should sit inside
    the combined est_error budget."""
    ev = eta_vertical(m, sigma, t, table, abs_tol=abs_tol)
    et = eta_tilde_weighted(m, sigma, t, table, abs_tol=abs_tol)
    return abs(ev.value - (1j ** m * et.value + y_m(m, sigma, t, table)))


def growth_check(m: int, sigma: float, t_samples, table: ZeroTable, *,
                 abs_tol: float = 1e-8) -> list[tuple[float, float]]:
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
