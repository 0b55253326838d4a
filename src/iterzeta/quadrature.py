"""Adaptive panel quadrature and closed-form log-kernel moments.

Two pieces live here:

* `integrate_vec`: adaptive Gauss-Legendre bisection for vectorized
  integrands.  Every refinement round evaluates all pending panels in a
  single call, so integrands backed by batched zeta evaluation stay cheap.

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

# Gauss-Legendre nodes per integrate_vec panel
PANEL_ORDER = 15


@lru_cache(maxsize=None)
def gl_nodes(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_panel(f, a: float, b: float, n: int = 16) -> complex:
    """Fixed-order Gauss-Legendre panel.  Even n keeps nodes off the
    midpoint, which pad integrals rely on."""
    x, w = gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.sum(w * np.asarray(f(mid + half * x)))


def integrate_vec(f, a: float, b: float, abs_tol: float = 1e-9,
                  max_depth: int = 48, initial_splits: int = 1,
                  noise: float = 0.0):
    """Adaptive Gauss-Legendre integration of a vectorized integrand.

    f maps a float array of nodes to a complex array of values.  A panel
    is accepted when its bisected estimate agrees with the whole-panel
    estimate to the panel's share of abs_tol, plus noise times its width:
    noise bounds the absolute error of f's values, below which the two
    estimates differ by rounding, not by resolution, and bisecting only
    chases that rounding.  Returns (value, est_error, nevals).  Raises
    QuadratureNonconvergence when panels bottom out at max_depth and the
    accumulated error estimate still exceeds budget.
    """
    if not b > a:
        if b == a:
            return 0.0 + 0.0j, 0.0, 0
        raise ValueError("integrate_vec needs a <= b")
    x, w = gl_nodes(PANEL_ORDER)
    total_width = b - a

    edges = np.linspace(a, b, initial_splits + 1)
    nodes = np.concatenate([0.5 * (e0 + e1) + 0.5 * (e1 - e0) * x
                            for e0, e1 in zip(edges[:-1], edges[1:])])
    vals = np.asarray(f(nodes))
    nevals = nodes.size
    active = []
    for i, (e0, e1) in enumerate(zip(edges[:-1], edges[1:])):
        panel = vals[i * PANEL_ORDER:(i + 1) * PANEL_ORDER]
        coarse = 0.5 * (e1 - e0) * np.sum(w * panel)
        active.append((e0, e1, coarse, 0))

    value = 0.0 + 0.0j
    est_error = 0.0
    while active:
        lo = np.array([p[0] for p in active])
        hi = np.array([p[1] for p in active])
        mid = 0.5 * (lo + hi)
        # nodes for both halves of every active panel, one f call
        left = 0.5 * (lo + mid)[:, None] + 0.5 * (mid - lo)[:, None] * x
        right = 0.5 * (mid + hi)[:, None] + 0.5 * (hi - mid)[:, None] * x
        allnodes = np.concatenate([left.ravel(), right.ravel()])
        allvals = np.asarray(f(allnodes))
        nevals += allnodes.size
        nhalf = len(active) * PANEL_ORDER
        lvals = allvals[:nhalf].reshape(len(active), PANEL_ORDER)
        rvals = allvals[nhalf:].reshape(len(active), PANEL_ORDER)
        lsum = 0.5 * (mid - lo) * (lvals @ w)
        rsum = 0.5 * (hi - mid) * (rvals @ w)

        nxt = []
        for i, (e0, e1, coarse, depth) in enumerate(active):
            fine = lsum[i] + rsum[i]
            err = abs(fine - coarse)
            budget = abs_tol * (e1 - e0) / total_width + noise * (e1 - e0)
            if err <= budget or depth + 1 >= max_depth:
                value += fine
                est_error += err
            else:
                m = 0.5 * (e0 + e1)
                nxt.append((e0, m, lsum[i], depth + 1))
                nxt.append((m, e1, rsum[i], depth + 1))
        active = nxt

    allowed = abs_tol + noise * total_width
    if est_error > 50.0 * allowed:
        raise QuadratureNonconvergence(
            f"estimated error {est_error:.3e} exceeds budget {allowed:.3e} "
            f"on [{a:g}, {b:g}]")
    return value, est_error, nevals


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
    the moments above.  This is the analytic part of a pad around an
    ordinate; the caller integrates the smooth remainder numerically.

    For c != 0 the by-parts terms w^(j+1) Log(v - w), w = ic, cancel
    when |c| >> |v|, and the result loses about eps |c|^m in absolute
    terms.  Its callers keep c small: c = 0 for the real-axis pole,
    pad c <= 1e-2, and c = sigma - 1 in eta_vertical (off mpmath by
    3e-13 at sigma = 20, m = 3, far inside abs_tol).  log zeta's pole at
    a height t (c = t) is not: at t = 9990, m = 3 it is off by 4e-4.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    d = t - gamma
    moments = log_kernel_moments(m - 1, u0 - gamma, u1 - gamma, c)
    acc = 0.0 + 0.0j
    for q in range(m):
        acc += comb(m - 1, q) * d ** (m - 1 - q) * (-1.0) ** q * moments[q]
    return acc / factorial(m - 1)
