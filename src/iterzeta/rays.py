"""Continued log zeta along horizontal rays and up vertical lines.

Values of log zeta away from Re(s) > 1 depend on a branch choice.  The
convention here: continue from the right end of the horizontal ray
through the point, where log zeta is principal (and tiny).  Across an
ordinate of a zero lying right of the evaluation point this continuation
jumps by 2 pi i times the multiplicity, which is exactly the structure
the zero-sum corrections downstream account for.

The pole at s = 1 is removed first: the branch is tracked for
W(s) = zeta(s) (s - 1), entire and zero-free on the paths of interest
except at the zeta zeros themselves, and the principal Log(s - 1) is
subtracted afterwards (it is continuous along any ray of height t > 0,
and on the real axis the limit from above gives log|a-1| + i pi for
a < 1).

One ladder routine, `_refine`, resolves the branch on both routes.  It
halves the gaps of a node ladder until the per-gap principal phase and
log-magnitude increments of W are small.  Queries between nodes use the
exact zeta value; only the 2 pi winding integer comes from interpolating
the ladder's continuous imaginary part, and the refinement bounds make
that rounding exact.

* `RayBranch` runs the ladder over alpha at one height t > 0, leftwards
  from the anchor at Re(s) = sigma + 40, where log W is principal.
* `LineBranch` runs it over u on the line sigma + iu.  There log W is
  continuous in u except at ordinates of zeros with beta >= sigma, where
  the horizontal convention jumps, so the ladder is not linked across
  them.  Each linked stretch takes its level (the 2 pi integer) from a
  horizontal walk, or from the real axis where W > 0, and a second walk
  checks it: the branch always comes from zeta itself.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchObstruction, UnsupportedRange
from .zeros import ZeroTable
from .zetafun import POLE_RADIUS, zeta_batch

CUTOFF_OFFSET = 40.0
GUARD = 1e-3          # min |t - gamma| for rays passing a zero with beta >= sigma
# initial node spacing of a line ladder: W's phase turns by about
# log(u / 2 pi) / 2 per unit height, so most gaps pass at once
LINE_STEP = 0.5
# line-ladder nodes next to a cut sit this far from it; a query closer
# to the cut reads the winding of the node on its side
CUT_MARGIN = 1e-4
# a stretch's walks keep this far inside its ends, which may lie next
# to zeros of W
WALK_CLEARANCE = 1e-2
# a resolved ladder gap turns W by at most PHASE_TOL in principal phase
# and MAG_TOL in log-magnitude; a gap still failing at MIN_GAP holds a
# zero of W
PHASE_TOL = 1.0
MAG_TOL = 2.0
MAX_ROUNDS = 64
MIN_GAP = 1e-12


def _w(s) -> np.ndarray:
    """W = zeta(s)(s - 1) at every point of s.  W is entire with
    W(1) = 1; within zeta's pole guard POLE_RADIUS of s = 1 that is W to
    rounding, so zeta is never asked for the pole."""
    s = np.asarray(s, dtype=complex)
    w = np.ones_like(s)
    off = np.abs(s - 1.0) >= POLE_RADIUS
    w[off] = zeta_batch(s[off]) * (s[off] - 1.0)
    return w


def check_guard(table: ZeroTable, sigma: float, t: float) -> None:
    """Reject heights within GUARD of an ordinate whose zero lies at or
    right of the ray start; the branch walk degenerates there."""
    if len(table) == 0:
        return
    near = (np.abs(table.gammas - abs(t)) <= GUARD) & (table.betas >= sigma)
    if np.any(near):
        raise BranchObstruction(
            f"height t={t:g} within {GUARD:g} of zero ordinate "
            f"{table.gammas[near][0]:.6f}")


def _initial_offsets() -> np.ndarray:
    """Node ladder in alpha - sigma: dense where zeros live, geometric
    out to the cutoff where log zeta is already negligible."""
    low = np.arange(0.0, 3.0001, 0.05)
    high = [3.0]
    while high[-1] * 1.3 < CUTOFF_OFFSET:
        high.append(high[-1] * 1.3)
    high.append(CUTOFF_OFFSET)
    return np.unique(np.concatenate([low, np.array(high)]))


def _refine(w_at, x: np.ndarray, linked: np.ndarray, where: str):
    """The branch-refinement ladder shared by rays and lines.

    Halves each linked gap of the ascending nodes x until W = w_at(x)
    changes across it by at most PHASE_TOL in principal phase and
    MAG_TOL in log-magnitude; every round evaluates all its midpoints in
    one w_at call.  A gap that still fails at width MIN_GAP holds a zero
    of W: it is unlinked and marked stalled.
    Returns (x, w, linked, stalled), the last two per gap.
    """
    w = w_at(x)
    stalled = np.zeros(linked.size, dtype=bool)
    for _ in range(MAX_ROUNDS):
        if not np.all(np.isfinite(w)) or np.any(w == 0.0):
            raise BranchObstruction(f"ladder hit a zero of zeta {where}")
        ratio = w[1:] / w[:-1]
        bad = linked & ((np.abs(np.angle(ratio)) > PHASE_TOL)
                        | (np.abs(np.log(np.abs(ratio))) > MAG_TOL))
        stuck = bad & (np.diff(x) <= MIN_GAP)
        linked = linked & ~stuck
        stalled |= stuck
        idx = np.nonzero(bad & ~stuck)[0]
        if idx.size == 0:
            return x, w, linked, stalled
        mids = 0.5 * (x[idx] + x[idx + 1])
        x = np.insert(x, idx + 1, mids)
        w = np.insert(w, idx + 1, w_at(mids))
        linked = np.insert(linked, idx + 1, True)
        stalled = np.insert(stalled, idx + 1, False)
    raise BranchObstruction(f"branch ladder did not settle within "
                            f"{MAX_ROUNDS} rounds {where}")


class RayBranch:
    """Resolved branch of log zeta on [sigma, sigma + 40] at height t > 0.

    log_zeta(alphas) returns continued values: the zeta evaluation at
    each query is exact; the node ladder only supplies the winding
    integer.
    """

    def __init__(self, sigma: float, t: float):
        self.sigma = float(sigma)
        self.t = float(t)
        if not self.t > 0.0:
            raise UnsupportedRange("walks need height t > 0; the real axis "
                                   "has its own closed-form branch")
        where = f"at sigma={self.sigma:g}, t={self.t:g}"
        base = _initial_offsets()
        offs, w, _, stalled = _refine(
            lambda x: _w(self.sigma + x + 1j * self.t), base,
            np.ones(base.size - 1, dtype=bool), where)
        if np.any(stalled):
            raise BranchObstruction(f"branch walk stalled {where}: zero "
                                    f"too close to the ray")
        dphi = np.angle(w[1:] / w[:-1])
        im = np.empty(w.size)
        # principal at the anchor, |arg| < pi/2 + eps
        im[-1] = np.angle(w[-1])
        im[:-1] = im[-1] - np.cumsum(dphi[::-1])[::-1]
        self._offs, self._w, self._im = offs, w, im
        self.nodes_used = int(offs.size)

    @property
    def offsets(self) -> np.ndarray:
        """Resolved node offsets alpha - sigma, ascending from 0."""
        return self._offs.copy()

    def log_zeta(self, alphas) -> np.ndarray:
        alphas = np.asarray(alphas, dtype=float)
        x = alphas - self.sigma
        if np.any(x < -1e-12) or np.any(x > CUTOFF_OFFSET + 1e-12):
            raise UnsupportedRange(
                f"query outside the resolved ray [{self.sigma:g}, "
                f"{self.sigma + CUTOFF_OFFSET:g}]")
        s = alphas + 1j * self.t
        lq = np.log(_w(s))
        im_interp = np.interp(np.clip(x, 0.0, CUTOFF_OFFSET),
                              self._offs, self._im)
        k = np.round((im_interp - lq.imag) / (2.0 * np.pi))
        return lq + 2j * np.pi * k - np.log(s - 1.0)

    def log_zeta_at(self, alpha: float) -> complex:
        return complex(self.log_zeta(np.array([alpha]))[0])


class LineBranch:
    """Resolved branch of log zeta on the line sigma + iu, 0 <= u <= top.

    One ladder over u carries the continuous Im log W.  It is not linked
    across `cuts`, ordinates in (0, top) of zeros at or right of the line
    where the horizontal convention jumps, nor across a gap that stalls
    on a zero of W on the line; these split it into stretches.  The
    stretch at u = 0 takes its level, the 2 pi integer, from the real
    axis, where W > 0; every other stretch from a horizontal walk near
    its foot.  A second walk near its top must agree, so a zero the cuts
    miss raises BranchObstruction instead of shifting the branch.
    """

    def __init__(self, sigma: float, top: float, cuts=()):
        self.sigma = float(sigma)
        self.top = float(top)
        if not self.top > 0.0:
            raise UnsupportedRange("a line branch needs top > 0")
        cuts = np.unique(np.asarray(cuts, dtype=float))
        cuts = cuts[(cuts > 0.0) & (cuts < self.top)]
        gaps = np.diff(np.concatenate([[0.0], cuts, [self.top]]))
        margin = np.minimum(CUT_MARGIN,
                            0.25 * np.minimum(gaps[:-1], gaps[1:]))
        parts, links = [], []
        for lo, hi in zip(np.concatenate([[0.0], cuts + margin]),
                          np.concatenate([cuts - margin, [self.top]])):
            n = max(2, int(np.ceil((hi - lo) / LINE_STEP)) + 1)
            parts.append(np.linspace(lo, hi, n))
            links.append(np.append(np.ones(n - 1, dtype=bool), False))
        x, w, linked, stalled = _refine(
            lambda us: _w(self.sigma + 1j * us),
            np.concatenate(parts), np.concatenate(links)[:-1],
            f"on the line sigma={self.sigma:g}")
        if not w[0].real > 0.0:
            raise BranchObstruction("zeta(s)(s-1) should be positive on "
                                    "the real axis; evaluation failed")
        self._x, self._linked = x, linked
        self._im = np.angle(w[0]) + np.concatenate(
            [[0.0], np.cumsum(np.angle(w[1:] / w[:-1]))])
        # the level may change across each unlinked gap: at its given cut,
        # or mid-gap where the ladder stalled on a zero
        breaks = np.nonzero(~linked)[0]
        given = ~stalled[breaks]
        self._cut_at = np.full(linked.size, np.nan)
        self._cut_at[breaks[given]] = cuts
        self._cut_at[breaks[~given]] = 0.5 * (x[breaks[~given]]
                                              + x[breaks[~given] + 1])
        self._steps = self._cut_at[breaks]
        self.nodes_used = int(x.size)
        self._levels = 2.0 * np.pi * np.array(
            [self._stretch_level(a, b) for a, b in
             zip(np.concatenate([[0], breaks + 1]),
                 np.append(breaks, x.size - 1))])

    def _level(self, j: int) -> int:
        """2 pi turns between the branch at node j and the ladder there."""
        if self._x[j] == 0.0:
            return int(np.round(-self._im[j] / (2.0 * np.pi)))
        ray = RayBranch(self.sigma, self._x[j])
        self.nodes_used += ray.nodes_used
        return int(np.round((ray._im[0] - self._im[j]) / (2.0 * np.pi)))

    def _stretch_level(self, a: int, b: int) -> int:
        """Level of the stretch of nodes a..b from walks (or the real
        axis) near both its ends, which must agree."""
        x = self._x
        clear = min(WALK_CLEARANCE, 0.25 * (x[b] - x[a]))
        seg = x[a:b + 1]
        ja = a if x[a] == 0.0 else a + int(np.argmin(np.abs(seg - x[a]
                                                            - clear)))
        jb = a + int(np.argmin(np.abs(seg - x[b] + clear)))
        na = self._level(ja)
        nb = na if jb == ja else self._level(jb)
        if na != nb:
            raise BranchObstruction(
                f"branch continued up the line sigma={self.sigma:g} from "
                f"u={x[ja]:g} disagrees with the walk at u={x[jb]:g} by "
                f"{nb - na} turns: a zero at or right of the line between "
                f"them is not among the cuts")
        return na

    def log_w(self, us) -> np.ndarray:
        """Continued log(zeta(s)(s - 1)) at s = sigma + iu."""
        us = np.asarray(us, dtype=float)
        if np.any(us < -1e-12) or np.any(us > self.top + 1e-12):
            raise UnsupportedRange(f"query outside the resolved line "
                                   f"segment [0, {self.top:g}]")
        lq = np.log(_w(self.sigma + 1j * us))
        x = self._x
        im = np.interp(us, x, self._im)
        gap = np.clip(np.searchsorted(x, us, side="right") - 1, 0,
                      x.size - 2)
        # next to a cut, the winding of the node on the query's side
        cross = ~self._linked[gap]
        if np.any(cross):
            g = gap[cross]
            im[cross] = np.where(us[cross] < self._cut_at[g],
                                 self._im[g], self._im[g + 1])
        im += self._levels[np.searchsorted(self._steps, us, side="right")]
        k = np.round((im - lq.imag) / (2.0 * np.pi))
        return lq + 2j * np.pi * k


def vertical_log_zeta(sigma: float, heights) -> np.ndarray:
    """Continued log zeta(sigma + i u) for an array of heights u > 0,
    one horizontal walk per height.

    A handful of scattered heights needs no more; integrals up the line
    use a LineBranch, whose ladder carries the winding between heights.
    """
    heights = np.asarray(heights, dtype=float)
    if np.any(heights <= 0.0):
        raise UnsupportedRange("walks need height t > 0; the real axis "
                               "has its own closed-form branch")
    return np.array([RayBranch(sigma, u).log_zeta_at(sigma)
                     for u in heights.ravel()], dtype=complex)


def log_zeta_horizontal(sigma: float, t: float, table=None) -> complex:
    """Branch-tracked log zeta(sigma + it): continuous variation from
    alpha = +infinity leftward along the horizontal line.

    If a zero table is given, heights within the guard distance of an
    ordinate whose zero sits at or right of sigma are rejected up front
    (the walk would degenerate there anyway).  t = 0 gives the limit
    from the upper half plane: real log of zeta(s)(s-1) minus
    log|sigma-1|, minus i pi left of the pole.
    """
    if table is not None:
        check_guard(table, sigma, t)
    if t == 0.0:
        if abs(sigma - 1.0) < 1e-12:
            raise BranchObstruction("the ray at t = 0 meets the pole")
        return complex(log_zeta_real_axis(np.array([sigma]))[0])
    if t < 0.0:
        return np.conjugate(log_zeta_horizontal(sigma, -t, table))
    return RayBranch(sigma, t).log_zeta_at(sigma)


def log_zeta_real_axis(alphas) -> np.ndarray:
    """log zeta(alpha + i 0+) for real alpha in (0, sigma + 40].

    W(alpha) = zeta(alpha)(alpha - 1) is real and positive on (0, 40+],
    so log W is real; the subtracted pole log picks up -i pi left of 1
    (limit from the upper half plane).
    """
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas <= 0.0):
        raise UnsupportedRange("real-axis branch needs alpha > 0")
    if np.any(np.abs(alphas - 1.0) < 1e-12):
        raise UnsupportedRange("real-axis branch undefined at the pole")
    w = _w(alphas).real
    if np.any(w <= 0.0):
        raise BranchObstruction("zeta(s)(s-1) should be positive on the "
                                "real segment; evaluation failed")
    return np.log(w) - np.log(np.abs(alphas - 1.0)) \
        - 1j * np.pi * (alphas < 1.0)
