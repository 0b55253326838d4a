"""Realizing a target as a sum of rotated radii.

Given positive radii r_1..r_N with the dominance property (no radius
exceeds the sum of the others) and a target z with |z| <= sum r_n, there
are angles theta_n in [0,1) with

    sum_n r_n exp(-2 pi i theta_n) = z.

Constructively: the radii together with one closing side of length |z|
are the sides of a convex polygon inscribed in some circle.  The
circumradius comes from a scalar root-find on the central-angle sum (the
reflected variant when the longest side subtends more than half the
circle).  Sides short against the longest enter that sum through a few
power sums of the arcsin series, formed once, so the solve costs a
fixed handful of passes over the sides, however many steps it takes.
Each side then points along the mean of its two vertex angles plus
pi/2, and one added angle turns the closing side onto z, so the angles
come from real arithmetic alone.  Closure is exact by telescoping, so
the residual is driven by the root-find alone; it is measured, not
assumed, by re-summing the radii at the returned angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DominanceViolation, RootFindFailure, TargetOutsideDisk,
                     TooFewRadii, ValidationError)

ALIGNED_RTOL = 1e-12       # |z| at the boundary of the disk
FLAT_RTOL = 1e-9           # degenerate polygon: longest side = sum of rest
# sides at most SERIES_RATIO times the longest enter the angle sum of the
# root-find through the arcsin series, cut at relative size SERIES_RTOL
SERIES_RATIO = 0.1
SERIES_RTOL = 1e-17
# the bracketed solve stops when its bracket is within xtol plus this
# much of the root, four ulps; it refuses after ROOT_MAXITER steps
ROOT_RTOL = 8.9e-16
ROOT_MAXITER = 200


@dataclass(frozen=True)
class RadiiSet:
    radii: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        r = np.asarray(self.radii, dtype=np.float64)
        if r.size < 3:
            raise TooFewRadii("need at least three radii")
        if np.any(~np.isfinite(r)) or np.any(r <= 0.0):
            raise ValidationError("radii must be positive and finite")
        object.__setattr__(self, "radii", r)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.size != r.size:
                raise ValidationError("labels must match radii in length")
            object.__setattr__(self, "labels", lab)


@dataclass(frozen=True)
class AngleAssignment:
    thetas: np.ndarray
    target: complex
    achieved: complex
    residual: float

    def __post_init__(self) -> None:
        th = np.asarray(self.thetas, dtype=np.float64)
        if np.any((th < 0.0) | (th >= 1.0)):
            raise ValidationError("angles must lie in [0, 1)")
        object.__setattr__(self, "thetas", th)


def check_dominance(radii: RadiiSet) -> bool:
    """True iff the largest radius is at most the sum of the others; then
    every target in the full disk |z| <= sum r is reachable."""
    r = radii.radii
    return bool(r.max() <= r.sum() - r.max())


def _arcsin_sum(t: np.ndarray):
    """The functions v -> sum_i arcsin(t_i v) and its derivative in v,
    for v in (0, 1] and 0 < t_i <= 1.

    Ratios t_i > SERIES_RATIO are summed exactly at every v.  The others
    enter through the arcsin series sum_k c_k v^(2k+1) T_k with the power
    sums T_k = sum t_i^(2k+1), formed once and cut where the next term is
    below SERIES_RTOL of the first; then one evaluation costs a few
    scalar operations plus the exact part, whatever the number of sides.
    """
    small = t <= SERIES_RATIO
    exact = t[~small]
    ts = t[small]
    coefs = []
    if ts.size:
        rho2 = float(ts.max()) ** 2
        t2 = ts * ts
        power = ts.copy()
        c, k = 1.0, 0
        while True:
            coefs.append(c * float(np.sum(power)))
            c *= (2 * k + 1) ** 2 / ((2 * k + 2) * (2 * k + 3))
            k += 1
            if c * rho2 ** k <= SERIES_RTOL:
                break
            power *= t2

    def value(v: float) -> float:
        series = 0.0
        for c in reversed(coefs):
            series = series * v * v + c
        return float(np.arcsin(np.minimum(exact * v, 1.0)).sum()) \
            + series * v

    def slope(v: float) -> float:
        series = 0.0
        for k in range(len(coefs) - 1, -1, -1):
            series = series * v * v + (2 * k + 1) * coefs[k]
        return float((exact / np.sqrt(np.maximum(
            1.0 - (exact * v) ** 2, 1e-30))).sum()) + series
    return value, slope


def _bracketed_root(g, lo: float, hi: float, xtol: float) -> float:
    """A root of g in [lo, hi], where g changes sign, by the Illinois
    variant of regula falsi: each step takes the secant through the
    bracket's ends, and an end that two steps in a row leave in place
    has its value halved, so that both ends close in.  Returns an end
    where g is exactly 0, or the last step once the bracket is within
    xtol + ROOT_RTOL |x|.  The bracket's width is the only stopping
    rule: a small secant step is no sign of a root where the slope of g
    is steep.  Raises ValueError when g has one sign at both ends or the
    bracket is still open after ROOT_MAXITER steps."""
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise ValueError("g has one sign at both ends of the bracket")
    moved = 0       # the end the last step moved: -1 lo, +1 hi
    for _ in range(ROOT_MAXITER):
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        g_x = g(x)
        if g_x == 0.0:
            return x
        if (g_x > 0.0) == (g_hi > 0.0):
            hi, g_hi = x, g_x
            if moved == 1:
                g_lo *= 0.5
            moved = 1
        else:
            lo, g_lo = x, g_x
            if moved == -1:
                g_hi *= 0.5
            moved = -1
        if hi - lo <= xtol + ROOT_RTOL * abs(x):
            return x
    raise ValueError(f"bracket still open after {ROOT_MAXITER} steps")


def _angle_sum_root(sides: np.ndarray, i_max: int):
    """Circumradius parameter u = 1/(2R) for the cyclic polygon with the
    given side lengths.  Returns (u, reflected).

    With v = l_max u, the central angle of side s is 2 arcsin(s v/l_max),
    and v solves sum arcsin = pi (the longest side's arc reflected,
    2 pi - its angle, when the other sides' angles at v = 1 sum to less
    than pi).  The angle sum over the sides other than the longest is
    _arcsin_sum, so each step of _bracketed_root and of the Newton polish
    after it costs a few scalar operations, not a pass over every side.
    """
    l_max = float(sides[i_max])
    others = np.delete(sides, i_max) / l_max
    angle_sum, angle_slope = _arcsin_sum(others)

    s1 = angle_sum(1.0)
    reflected = s1 < np.pi / 2.0

    if not reflected:
        def g(v):
            return angle_sum(v) + math.asin(min(v, 1.0)) - np.pi
        lo, hi = 1e-300, 1.0
    else:
        def g(v):
            return angle_sum(v) - math.asin(min(v, 1.0))
        lo, hi = 1e-9, 1.0
        if g(lo) <= 0.0:
            raise RootFindFailure(
                "reflected-case bracket failed; sides nearly degenerate")

    try:
        v = _bracketed_root(g, lo, hi, xtol=1e-15 * l_max)
    except ValueError as exc:
        raise RootFindFailure(
            f"no circumradius bracket for sides in [{sides.min():.3g}, "
            f"{sides.max():.3g}]: {exc}") from None

    # a couple of Newton steps; the closure gap is R * (angle residual)
    sign = -1.0 if reflected else 1.0
    for _ in range(3):
        val = g(v)
        der = angle_slope(v) + sign / math.sqrt(max(1.0 - v * v, 1e-30))
        if der == 0.0:
            break
        step = val / der
        if not np.isfinite(step) or abs(step) > 0.5 * v:
            break
        v -= step
    return v / l_max, reflected


def _frac_angle(vec: np.ndarray) -> np.ndarray:
    """theta with exp(-2 pi i theta) = vec/|vec|, in [0,1)."""
    th = np.mod(-np.angle(vec) / (2.0 * np.pi), 1.0)
    return np.where(th >= 1.0, 0.0, th)


def _unit(thetas: np.ndarray) -> np.ndarray:
    """w = exp(-2 pi i theta), made in place in one complex buffer."""
    w = -2j * np.pi * thetas
    return np.exp(w, out=w)


def _aligned(r: np.ndarray, z: complex, th: float):
    """Every radius along one angle: the target on the disk's boundary,
    or a flat polygon whose longest side is the closing side."""
    thetas = np.full(r.size, th)
    achieved = complex(np.sum(r) * z / abs(z))
    return (AngleAssignment(thetas, complex(z), achieved,
                            abs(achieved - z)), _unit(thetas))


def polygon_angles(radii: RadiiSet, z: complex) -> AngleAssignment:
    """Angles theta with sum r_n exp(-2 pi i theta_n) = z, residual below
    1e-10 for well-conditioned inputs (see module docstring)."""
    return _polygon(radii, z)[0]


def _polygon(radii: RadiiSet, z: complex):
    """polygon_angles' assignment, and the unit vectors
    w = exp(-2 pi i theta) at its angles, from which its achieved sum
    np.sum(r * w) is formed; a caller may reuse w in place."""
    r = radii.radii
    n = r.size
    total = float(r.sum())
    az = abs(z)
    if az > total * (1.0 + ALIGNED_RTOL):
        raise TargetOutsideDisk(f"|z|={az:.6g} beyond radius sum {total:.6g}")
    # reachable targets form an annulus: the closing side of length |z|
    # must keep the largest radius dominated
    if r.max() > (total - r.max()) + az + ALIGNED_RTOL * total:
        raise DominanceViolation(
            f"|z|={az:.6g} inside the unreachable hole of radius "
            f"{2.0 * r.max() - total:.6g}")

    if total - az <= ALIGNED_RTOL * total:
        # boundary of the disk: every side aligned with z
        return _aligned(r, z, _frac_angle(np.array([complex(z)]))[0])

    # sides longest first; the radii of construct_theta fall with p, and
    # a stable sort would leave them as they are
    order = (slice(None) if np.all(r[1:] <= r[:-1])
             else np.argsort(-r, kind="stable"))
    if az > 0.0:
        sides = np.concatenate([[az], r[order]])
        radius_slots = slice(1, None)
    else:
        sides = r[order].astype(float)
        radius_slots = slice(None)

    i_max = int(np.argmax(sides))
    l_max = sides[i_max]
    rest = sides.sum() - l_max
    if rest - l_max <= FLAT_RTOL * sides.sum():
        # degenerate: the polygon collapses onto a line
        if az > 0.0 and i_max == 0:
            return _aligned(r, z, _frac_angle(np.array([complex(z)]))[0])
        direction = complex(z) if az > 0.0 else 1.0 + 0.0j
        th_fwd = _frac_angle(np.array([direction]))[0]
        th_bwd = _frac_angle(np.array([-direction]))[0]
        th_sorted = np.full(sides.size, th_bwd)
        th_sorted[i_max] = th_fwd
        thetas = np.empty(n)
        thetas[order] = th_sorted[radius_slots]
    else:
        u, reflected = _angle_sum_root(sides, i_max)
        # every step below works in the buffer of the one before, and
        # each buffer is freed when done, so a window of a million radii
        # keeps at most two arrays of its length alive before the exp
        phis = sides
        del sides
        np.multiply(phis, u, out=phis)
        np.clip(phis, 0.0, 1.0, out=phis)
        np.arcsin(phis, out=phis)
        phis *= 2.0
        if reflected:
            phis[i_max] = 2.0 * np.pi - phis[i_max]

        # the side from vertex angle psi_k to psi_k + phi_k points along
        # mid_k + pi/2, with mid_k = psi_k + phi_k / 2 their mean.  Turning
        # every side by arg z - mid_0 - 3 pi/2 lays the closing side, slot
        # 0, along -z; theta is minus a side's direction over 2 pi, mod 1
        mid = np.cumsum(phis)
        phis *= 0.5
        mid -= phis
        del phis
        offset = (mid[0] + np.pi - np.angle(z)) if az > 0.0 \
            else -0.5 * np.pi
        turns = mid[radius_slots]
        np.subtract(offset, turns, out=turns)
        turns /= 2.0 * np.pi
        turns -= np.floor(turns)
        turns[turns >= 1.0] = 0.0
        if isinstance(order, slice):
            thetas = turns
        else:
            thetas = np.empty(n)
            thetas[order] = turns
        del mid, turns
    w = _unit(thetas)
    achieved = complex(np.sum(r * w))
    return (AngleAssignment(thetas, complex(z), achieved,
                            abs(achieved - complex(z))), w)
