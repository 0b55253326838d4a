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
power sums of the arcsin series, built up once over blocks of the
sides, so each step of the solve costs a few scalar operations, however
many sides there are.  Each side then points along the mean of its two
vertex angles plus pi/2, and one added angle turns the closing side
onto z, so the angles come from real arithmetic alone.  They are laid
out block by block, the vertex angles one cumsum carried across the
blocks, so they are the same bits for any block size.  Closure is exact
by telescoping, so the residual is driven by the root-find alone; it is
measured, not assumed, by re-summing the radii at the returned angles,
block by block, each block's unit vectors exp(-2 pi i theta) offered to
the caller while in cache.  The solve writes the angles into an array
the caller holds; polygon_angles alone checks a RadiiSet and builds an
AngleAssignment.

Every pass over the blocks but the carried cumsum runs on
blocks.map_blocks, on every CPU the process may use: the power sums,
the central angles before the cumsum, each angle's tail after it, and
the re-sum with the caller's work on each block.  Blocks' sums are
added in block order, so the angles, the achieved sum and the caller's
sums are the same bits whatever the number of CPUs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .blocks import map_blocks
from .errors import (DominanceViolation, RootFindFailure, TargetOutsideDisk,
                     TooFewRadii, ValidationError)

ALIGNED_RTOL = 1e-12       # |z| at the boundary of the disk
# degenerate polygon: the other sides sum to within FLAT_RTOL times the
# longest side of it
FLAT_RTOL = 1e-9
# sides at most SERIES_RATIO times the longest enter the angle sum of the
# root-find through the arcsin series, cut at relative size SERIES_RTOL
SERIES_RATIO = 0.1
SERIES_RTOL = 1e-17
# the bracketed solve stops when its bracket is within xtol plus this
# much of the root, four ulps; it refuses after ROOT_MAXITER steps
ROOT_RTOL = 8.9e-16
ROOT_MAXITER = 200
# sides per block of the passes over the sides, whose few buffers of a
# block's length then stay in L2.  The root-find's power sums run over
# blocks of SERIES_BLOCK sides, a partition of their own: their rounding,
# and so u, follows it, while the angles laid out over blocks of BLOCK
# sides are the same bits for any BLOCK
BLOCK = 2 ** 15
SERIES_BLOCK = 2 ** 15


@dataclass(frozen=True)
class RadiiSet:
    radii: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.radii, dtype=np.float64)
        if r.size < 3:
            raise TooFewRadii("need at least three radii")
        if np.any(~np.isfinite(r)) or np.any(r <= 0.0):
            raise ValidationError("radii must be positive and finite")
        object.__setattr__(self, "radii", r)


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


def _arcsin_sum(pieces, l_max: float):
    """The functions v -> sum_i arcsin(t_i v) and its derivative in v,
    for v in (0, 1] and the ratios t_i = s_i / l_max <= 1 of the sides
    s_i of pieces, a sequence of 1-D arrays, each descending.

    Ratios t_i > SERIES_RATIO, a prefix of each piece, are summed exactly
    at every v.  The others enter through the arcsin series
    sum_k c_k v^(2k+1) T_k with the power sums T_k = sum t_i^(2k+1),
    cut where the next term is below SERIES_RTOL of the first and formed
    once, over blocks of SERIES_BLOCK sides on map_blocks, the blocks'
    sums added in block order; then one evaluation costs a few scalar
    operations plus the exact part, whatever the number of sides.
    """
    heads = [bisect.bisect_left(p, -SERIES_RATIO,
                                key=lambda s: -(s / l_max))
             for p in pieces]
    exact = np.concatenate([p[:h] / l_max for p, h in zip(pieces, heads)])
    # the largest series ratio is the first of a piece's tail
    rho = max((p[h] / l_max for p, h in zip(pieces, heads) if h < p.size),
              default=0.0)
    rho2 = float(rho) ** 2
    weights = []
    if rho > 0.0:
        c, k = 1.0, 0
        while True:
            weights.append(c)
            c *= (2 * k + 1) ** 2 / ((2 * k + 2) * (2 * k + 3))
            k += 1
            if c * rho2 ** k <= SERIES_RTOL:
                break

    def power_sums(block):
        p, lo = block
        power = p[lo:lo + SERIES_BLOCK] / l_max
        t2 = power * power
        sums = []
        for k in range(len(weights)):
            if k:
                power *= t2
            sums.append(float(np.sum(power)))
        return sums

    sums = [0.0] * len(weights)
    for block in map_blocks(power_sums, [
            (p, lo) for p, h in zip(pieces, heads)
            for lo in range(h, p.size, SERIES_BLOCK)]):
        for k, s in enumerate(block):
            sums[k] += s
    coefs = [c * s for c, s in zip(weights, sums)]

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


def _angle_sum_root(l_max: float, others):
    """Circumradius parameter u = 1/(2R) for the cyclic polygon whose
    longest side is l_max and whose other sides are those of others, a
    sequence of descending 1-D arrays.  Returns (u, reflected).

    With v = l_max u, the central angle of side s is 2 arcsin(s v/l_max),
    and v solves sum arcsin = pi (the longest side's arc reflected,
    2 pi - its angle, when the other sides' angles at v = 1 sum to less
    than pi).  The angle sum over the other sides is _arcsin_sum, so each
    step of _bracketed_root and of the Newton polish after it costs a few
    scalar operations, not a pass over every side.
    """
    angle_sum, angle_slope = _arcsin_sum(others, l_max)

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
        shortest = min(p[-1] for p in others if p.size)
        raise RootFindFailure(
            f"no circumradius bracket for sides in [{shortest:.3g}, "
            f"{l_max:.3g}]: {exc}") from None

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


def _frac_angle(z: complex) -> float:
    """theta with exp(-2 pi i theta) = z/|z|, in [0,1)."""
    th = np.mod(-np.angle(np.array([complex(z)])) / (2.0 * np.pi), 1.0)
    return float(np.where(th >= 1.0, 0.0, th)[0])


def _unit(thetas: np.ndarray) -> np.ndarray:
    """w = exp(-2 pi i theta), made in place in one complex buffer."""
    w = -2j * np.pi * thetas
    return np.exp(w, out=w)


def polygon_angles(radii: RadiiSet, z: complex) -> AngleAssignment:
    """Angles theta with sum r_n exp(-2 pi i theta_n) = z, residual below
    1e-10 for well-conditioned inputs (see module docstring)."""
    thetas = np.empty(radii.radii.size)
    achieved, _ = _polygon(radii.radii, z, thetas)
    return AngleAssignment(thetas, complex(z), achieved,
                           abs(achieved - complex(z)))


def _polygon(r: np.ndarray, z: complex, thetas: np.ndarray,
             each=None) -> tuple:
    """polygon_angles' angles for the radii r (at least three, positive,
    finite) written into thetas, laid out in blocks of BLOCK radii over
    the radii longest first.  Returns (achieved, added): the achieved
    sum sum r w, w = exp(-2 pi i theta), and the sum of each(lo, hi, w),
    if given, else 0, both added up block by block over the radii in
    their own order.  each is called on each block lo:hi while w is in
    cache, on map_blocks, so blocks may run at once; it may reuse w in
    place, and its returns are added in block order."""
    n = r.size
    total = float(r.sum())
    r_max = float(r.max())
    az = abs(z)
    if az > total * (1.0 + ALIGNED_RTOL):
        raise TargetOutsideDisk(f"|z|={az:.6g} beyond radius sum {total:.6g}")
    # reachable targets form an annulus: the closing side of length |z|
    # must keep the largest radius dominated
    if r_max > (total - r_max) + az + ALIGNED_RTOL * total:
        raise DominanceViolation(
            f"|z|={az:.6g} inside the unreachable hole of radius "
            f"{2.0 * r_max - total:.6g}")

    # radii longest first; the radii of construct_theta fall with p, and
    # a stable sort would leave them as they are
    order = (None if np.all(r[1:] <= r[:-1])
             else np.argsort(-r, kind="stable"))
    rs = r if order is None else r[order]
    # the closing side of length |z| comes first and wins a tie
    closing_longest = az >= rs[0]
    l_max = az if closing_longest else float(rs[0])
    if total - az <= ALIGNED_RTOL * total:
        # boundary of the disk: every side aligned with z
        thetas[:] = _frac_angle(z)
    elif (total + az - l_max) - l_max <= FLAT_RTOL * l_max:
        # degenerate: the polygon collapses onto a line, the longest side
        # against all the others
        if closing_longest:
            thetas[:] = _frac_angle(z)
        else:
            direction = complex(z) if az > 0.0 else 1.0 + 0.0j
            thetas[:] = _frac_angle(-direction)
            thetas[0 if order is None else order[0]] = _frac_angle(direction)
    else:
        if closing_longest:
            others = (rs,)
        else:
            others = (np.array([az]), rs[1:]) if az > 0.0 else (rs[1:],)
        u, reflected = _angle_sum_root(l_max, others)
        # the side from vertex angle psi_k to psi_k + phi_k points along
        # mid_k + pi/2, with mid_k = psi_k + phi_k / 2 their mean.
        # Turning every side by arg z - mid_0 - 3 pi/2 lays the closing
        # side, the first, along -z; theta is minus a side's direction over
        # 2 pi, mod 1.  psi runs on as one cumsum over the blocks
        psi, offset = 0.0, -0.5 * np.pi
        if az > 0.0:
            phi = _central_angles(np.array([az]), u, reflected
                                  and closing_longest)
            psi = phi[0]
            offset = (phi[0] - 0.5 * phi[0]) + np.pi - np.angle(z)

        # the central angles, staged where the angles go (the sorted
        # radii's own slots when r is unsorted), then the carried cumsum,
        # one block at a time in order, leaving mid - phi / 2 there, then
        # each angle's tail
        stage = thetas if order is None else np.empty(n)

        def central(lo):
            hi = min(lo + BLOCK, n)
            _central_angles(rs[lo:hi], u, reflected and lo == 0
                            and not closing_longest, out=stage[lo:hi])

        map_blocks(central, range(0, n, BLOCK))
        mid = np.empty(min(n, BLOCK))
        for lo in range(0, n, BLOCK):
            phis = stage[lo:lo + BLOCK]
            block = mid[:phis.size]
            np.copyto(block, phis)
            block[0] += psi
            np.cumsum(block, out=block)
            psi = block[-1]
            phis *= 0.5
            np.subtract(block, phis, out=phis)

        def tail(lo):
            hi = min(lo + BLOCK, n)
            angles = stage[lo:hi]
            np.subtract(offset, angles, out=angles)
            angles /= 2.0 * np.pi
            angles -= np.floor(angles)
            angles[angles >= 1.0] = 0.0
            if order is not None:
                thetas[order[lo:hi]] = angles

        map_blocks(tail, range(0, n, BLOCK))

    def close(lo):
        hi = min(lo + BLOCK, n)
        w = _unit(thetas[lo:hi])
        return (complex(np.sum(r[lo:hi] * w)),
                0 if each is None else each(lo, hi, w))

    achieved = added = 0.0 + 0.0j
    for block_sum, block_added in map_blocks(close, range(0, n, BLOCK)):
        achieved += block_sum
        added += block_added
    return achieved, added


def _central_angles(sides: np.ndarray, u: float, reflect_first: bool,
                    out=None) -> np.ndarray:
    """The central angles 2 arcsin(s u) of the sides, the first
    reflected to 2 pi minus its angle when reflect_first, formed in out
    (a new array if None)."""
    phis = np.multiply(sides, u, out=out)
    np.clip(phis, 0.0, 1.0, out=phis)
    np.arcsin(phis, out=phis)
    phis *= 2.0
    if reflect_first:
        phis[0] = 2.0 * np.pi - phis[0]
    return phis
