"""Adaptive panel quadrature and closed-form log-kernel moments.

Two pieces live here:

* `integrate_rows`: adaptive Gauss-Legendre bisection for many
  integrals of a vectorized integrand at once.  Every refinement round
  evaluates the pending panels of all rows in a single call, so
  integrands backed by batched zeta evaluation stay cheap; each row's
  panels are the ones it gets alone.  A row may hold several integrands
  on the same nodes (eta_vertical's m weights of one step).
  `integrate_vec` is its one-row call.

* `poly_log_integral`: exact moments of the local zero model,

      int_{u0}^{u1} (t-u)^(m-1)/(m-1)! * Log(c + i(u-gamma)) du

  with Log the principal branch on each side of u = gamma.  For c < 0 the
  branch jumps by 2 pi i across the ordinate; the antiderivative used here
  is continuous there (the boundary term carries a factor v^(j+1) -> 0),
  so the jump is integrated exactly without splitting.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import QuadratureNonconvergence

# Gauss-Legendre nodes per integrate_rows panel
PANEL_ORDER = 15
# most panels one row may evaluate in one integrate_rows round; a row
# whose pending panels double round after round is chasing noise or a
# singularity it cannot resolve, and is refused before its next round
# costs more than MAX_ROW_PANELS * PANEL_ORDER integrand values
MAX_ROW_PANELS = 2 ** 16


@lru_cache(maxsize=None)
def gl_nodes(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_panel(f, a: float, b: float, n: int = 16) -> complex:
    """Fixed-order Gauss-Legendre panel.  Even n keeps nodes off the
    midpoint.

    Nothing in src/ calls it: eta._pad_rule takes gl_nodes(16) and
    gl_nodes(24) itself.  It stays only because perfbench/tracing.py's
    ENTRY_POINTS looks it up by name; the ROADMAP's observability item
    (5) deletes it together with that tracer change."""
    x, w = gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.sum(w * np.asarray(f(mid + half * x)))


def integrate_rows(f, a, b, abs_tol, max_depth: int = 48,
                   initial_splits: int = 1, noise=0.0):
    """Adaptive Gauss-Legendre integration of many integrals, the rows,
    at once: row r integrates f over [a[r], b[r]] to abs_tol[r].  a, b,
    abs_tol and noise broadcast to one value per row.

    f(nodes, row) maps a float array of nodes, and the row of each node,
    to a complex array of values, of shape (nodes,), or (k, nodes) for k
    integrands per row that share their nodes; every refinement round
    evaluates the pending panels of all rows in a single f call.  Each
    panel carries its row and is accepted when, in every component, its
    bisected estimate agrees with the whole-panel estimate to its share
    of its row's abs_tol, plus its row's noise times its width: noise
    bounds the absolute error of f's values, below which the two
    estimates differ by rounding, not by resolution, and bisecting only
    chases that rounding.  A panel is judged by its own row alone, and
    each row sums its panels in an order of its own, so given the same
    values of f a row gets the panels and the value it gets integrated
    alone.

    Returns per-row arrays (value, est_error, nevals), value and
    est_error of shape (rows,) or (rows, k), and a list holding per row
    None, or the QuadratureNonconvergence of a row whose panels bottomed
    out at max_depth with its error estimate still above budget, or
    whose next round would have evaluated more than MAX_ROW_PANELS
    panels.
    """
    a, b, abs_tol, noise = np.broadcast_arrays(
        np.atleast_1d(np.asarray(a, dtype=float)), b, abs_tol, noise)
    rows = a.size
    if not np.all(b >= a):
        raise ValueError("integration needs a <= b")
    nevals = np.zeros(rows, dtype=np.int64)
    allowed = abs_tol + noise * (b - a)
    # an empty interval [a, a] has no panels and integrates to 0
    live = np.nonzero(b > a)[0]
    # a panel's budget per unit width: its share of abs_tol plus noise
    rate = np.zeros(rows)
    rate[live] = abs_tol[live] / (b - a)[live] + noise[live]

    edges = np.linspace(a[live], b[live], initial_splits + 1, axis=-1)
    lo = edges[:, :-1].ravel()
    hi = edges[:, 1:].ravel()
    row = np.repeat(live, initial_splits)
    coarse = _panel_sums(f, lo, hi, row)
    nevals[live] += initial_splits * PANEL_ORDER
    # components lead, rows last: a scalar f keeps one-dimensional arrays
    value = np.zeros(coarse.shape[:-1] + (rows,), dtype=complex)
    est_error = np.zeros(value.shape)

    # depth at which a row outgrew MAX_ROW_PANELS, -1 for none
    overflow = np.full(rows, -1)
    # every active panel has been bisected depth times
    for depth in range(max_depth):
        over = 2 * np.bincount(row, minlength=rows) > MAX_ROW_PANELS
        if over.any():
            overflow[over] = depth
            keep = ~over[row]
            lo, hi, row, coarse = lo[keep], hi[keep], row[keep], \
                coarse[..., keep]
        if not row.size:
            break
        n = row.size
        width = hi - lo
        mid = 0.5 * (lo + hi)
        # both halves of every active panel, left halves first, one f call
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        row = np.concatenate([row, row])
        halves = _panel_sums(f, lo, hi, row)
        nevals += PANEL_ORDER * np.bincount(row, minlength=rows)
        fine = halves[..., :n] + halves[..., n:]
        err = np.abs(fine - coarse)
        done = err <= rate[row[:n]] * width
        if done.ndim > 1:
            done = done.all(axis=0)
        done |= depth + 1 >= max_depth
        # unbuffered, in panel order: a row's panels keep their order
        # whatever other rows share the call, so each row sums as alone
        at = row[:n][done]
        for c in np.ndindex(fine.shape[:-1]):
            np.add.at(value[c], at, fine[c][done])
            np.add.at(est_error[c], at, err[c][done])
        keep = np.tile(~done, 2)
        lo, hi, row, coarse = lo[keep], hi[keep], row[keep], \
            halves[..., keep]

    refused = []
    worst = est_error.max(axis=tuple(range(est_error.ndim - 1)))
    for d, e, ok, lo_r, hi_r in zip(overflow, worst, allowed, a, b):
        if d >= 0:
            refused.append(QuadratureNonconvergence(
                f"round {d} would evaluate more than {MAX_ROW_PANELS} "
                f"panels on [{lo_r:g}, {hi_r:g}]; the integrand is not "
                f"resolved"))
        elif not e <= 50.0 * ok:
            refused.append(QuadratureNonconvergence(
                f"estimated error {e:.3e} exceeds budget {ok:.3e} "
                f"on [{lo_r:g}, {hi_r:g}]"))
        else:
            refused.append(None)
    return np.moveaxis(value, -1, 0), np.moveaxis(est_error, -1, 0), \
        nevals, refused


def _panel_sums(f, lo, hi, row) -> np.ndarray:
    """Gauss-Legendre estimate of each panel [lo, hi] of its row's
    integrand, all panels in one f call: shape (panels,), or (k, panels)
    for a k-valued f.  The weighted sums run along each panel's own
    nodes, so a panel's estimate does not depend on the other panels of
    the call (a matrix-vector product's would)."""
    if not row.size:
        return np.zeros(0, dtype=complex)
    x, w = gl_nodes(PANEL_ORDER)
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * x
    vals = np.asarray(f(nodes.ravel(), np.repeat(row, PANEL_ORDER)))
    lead = vals.shape[:-1]
    return half * (vals.reshape(lead + (row.size, PANEL_ORDER))
                   * w).sum(axis=-1)


def integrate_vec(f, a: float, b: float, abs_tol: float = 1e-9,
                  max_depth: int = 48, initial_splits: int = 1,
                  noise: float = 0.0):
    """Adaptive Gauss-Legendre integration of one vectorized integrand:
    the one-row case of integrate_rows, with f mapping a float array of
    nodes to a complex array of values.

    Returns (value, est_error, nevals).  Raises QuadratureNonconvergence
    when panels bottom out at max_depth and the accumulated error
    estimate still exceeds budget.
    """
    value, est_error, nevals, refused = integrate_rows(
        lambda nodes, _: f(nodes), a, b, abs_tol, max_depth,
        initial_splits, noise)
    if refused[0] is not None:
        raise refused[0]
    return complex(value[0]), float(est_error[0]), int(nevals[0])


def _log_moment_antideriv(j: int, v: float, c: float) -> complex:
    """Antiderivative of v^j * Log(c + i v), principal branch, c != 0.

    By parts with w = i c (so c + i v = i (v - w)):
        J(v) = v^(j+1)/(j+1) Log(c+iv) - G(v)/(j+1),
        G(v) = sum_r w^(j-r) v^(r+1)/(r+1) + w^(j+1) Log(v - w).
    Log(v - w) stays in one half plane for real v, so G is continuous;
    the boundary term vanishes at v = 0, making J continuous even across
    the c < 0 branch jump.
    """
    w = 1j * c
    k = j + 1
    g = w ** k * np.log(v - w)
    for r in range(k):
        g += w ** (k - 1 - r) * v ** (r + 1) / (r + 1)
    if v == 0.0:
        head = 0.0
    else:
        head = v ** k / k * np.log(c + 1j * v)
    return (head - g / k)


def _log_moment_antideriv_c0(j: int, v: float) -> complex:
    """Antiderivative of v^j * Log(i v) = v^j (log|v| + i pi/2 sgn v)."""
    k = j + 1
    if v == 0.0:
        return 0.0 + 0.0j
    return v ** k * (np.log(abs(v)) - 1.0 / k) / k \
        + 0.5j * np.pi * abs(v) * v ** j / k


def log_kernel_moments(jmax: int, v0: float, v1: float, c: float) -> np.ndarray:
    """Exact values of int_{v0}^{v1} v^j Log(c + i v) dv for j = 0..jmax."""
    out = np.empty(jmax + 1, dtype=complex)
    for j in range(jmax + 1):
        if c == 0.0:
            out[j] = _log_moment_antideriv_c0(j, v1) \
                - _log_moment_antideriv_c0(j, v0)
        else:
            out[j] = _log_moment_antideriv(j, v1, c) \
                - _log_moment_antideriv(j, v0, c)
    return out


def poly_log_integral(m: int, t: float, u0: float, u1: float,
                      gamma: float, c: float) -> complex:
    """int_{u0}^{u1} (t-u)^(m-1)/(m-1)! * Log(c + i(u-gamma)) du, exact.

    Substituting v = u - gamma and expanding (t-gamma-v)^(m-1) reduces to
    the moments above.  This is the local model of log zeta next to a
    zero, and the pole's -Log(s - 1); the caller integrates the smooth
    remainder numerically.

    For c != 0 the by-parts terms w^(j+1) Log(v - w), w = ic, cancel
    when |c| >> |v|, and the result loses about eps |c|^m in absolute
    terms.  Its callers keep c small: c = 0 for the real-axis pole,
    |c| <= eta.NEAR_LINE for a zero's model, and c = sigma - 1 in
    eta_vertical (off mpmath by 3e-13 at sigma = 20, m = 3, far inside
    abs_tol).  log zeta's pole at a height t (c = t) is not: at t = 9990,
    m = 3 it is off by 4e-4.
    """
    return poly_log_integrals(m, t, u0, u1, gamma, c)[-1]


def poly_log_integrals(m: int, t: float, u0: float, u1: float,
                       gamma: float, c: float) -> np.ndarray:
    """poly_log_integral for the orders 1..m at once, from one set of
    moments."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    d = t - gamma
    moments = log_kernel_moments(m - 1, u0 - gamma, u1 - gamma, c)
    out = np.empty(m, dtype=complex)
    for j in range(1, m + 1):
        acc = 0.0 + 0.0j
        for q in range(j):
            acc += comb(j - 1, q) * d ** (j - 1 - q) * (-1.0) ** q \
                * moments[q]
        out[j - 1] = acc / factorial(j - 1)
    return out
