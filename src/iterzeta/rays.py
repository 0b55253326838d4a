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

* `RayBranch` runs the ladder over alpha at each of many heights
  t > 0, leftwards from the anchor at Re(s) = sigma + CUTOFF_OFFSET,
  where log W is principal: from sigma = 1/2 on, the anchor has
  Re s >= 6.5 and |Im log zeta| < 0.012.  Past the anchor eta
  integrates log zeta's Dirichlet series in closed form, so no ray runs
  further.  A height within GUARD of the ordinate of a table zero at or
  right of sigma gets no ladder: it refuses as GuardBand.  The others'
  ladders refine together, one _w call per round, and a ladder that
  stalls on a zero obstructs only its own height.
* `LineBranch` runs it over u on a segment of the line sigma + iu.
  There log W is continuous in u except at ordinates of zeros with
  beta >= sigma, where the horizontal convention jumps, so the ladder is
  not linked across them, and nodes seeded towards each such cut spare
  the ladder a round per halving.  Each linked stretch takes its level
  (the 2 pi integer) from a horizontal walk, or from the real axis where
  W > 0, and a second walk checks it: the branch always comes from zeta
  itself.  All walks of a segment share one RayBranch, on a sparse
  starting ladder of their own.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchObstruction, GuardBand, UnsupportedRange
from .zeros import EMPTY_TABLE, ZeroTable
from .zetafun import POLE_RADIUS, zeta_batch

# length of every ray, and the offset X past which eta integrates log
# zeta's Dirichlet series in closed form
CUTOFF_OFFSET = 6.0
GUARD = 1e-3          # min |t - gamma| for rays passing a zero with beta >= sigma
# initial node spacing of a line ladder: W's phase turns by about
# log(u / 2 pi) / 2 per unit height, so most gaps pass at once
LINE_STEP = 0.5
# line-ladder nodes next to a cut sit this far from it; a query closer
# to the cut reads the winding of the node on its side
CUT_MARGIN = 1e-4
# offsets from a cut of the line-ladder nodes seeded towards it, a factor
# 4 apart: |W| changes by at most that factor between two of them near a
# simple zero on the line, inside MAG_TOL
CUT_SEEDS = CUT_MARGIN * 4.0 ** np.arange(1, 8)
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
    rounding, so zeta is never asked for the pole, nor called when no
    point lies off it (a ray whose every row is guarded)."""
    s = np.asarray(s, dtype=complex)
    w = np.ones_like(s)
    off = np.abs(s - 1.0) >= POLE_RADIUS
    if off.any():
        w[off] = zeta_batch(s[off]) * (s[off] - 1.0)
    return w


def _guarded(table: ZeroTable, sigma: float, ts) -> np.ndarray:
    """Per height of ts, an ordinate within GUARD of |t| of a zero at or
    right of sigma, where the branch walk degenerates, else NaN.  One
    search over the ascending ordinates finds each |t|'s neighbours; the
    rounded |gamma - |t|| grows with the distance, so they decide."""
    ts = np.abs(np.asarray(ts, dtype=float))
    gammas = table.gammas[table.betas >= sigma]
    if not gammas.size:
        return np.full(ts.shape, np.nan)
    right = np.minimum(np.searchsorted(gammas, ts), gammas.size - 1)
    left = np.maximum(right - 1, 0)
    d_left, d_right = np.abs(gammas[left] - ts), np.abs(gammas[right] - ts)
    nearest = gammas[np.where(d_left <= d_right, left, right)]
    return np.where(np.minimum(d_left, d_right) <= GUARD, nearest, np.nan)


def _guard_refusal(t: float, ordinate: float) -> GuardBand:
    return GuardBand(f"height t={t:g} within {GUARD:g} of zero "
                     f"ordinate {ordinate:.6f}")


def check_guard(table: ZeroTable, sigma: float, t: float) -> None:
    """GuardBand if t lies within GUARD of an ordinate whose zero is at or
    right of sigma; for t = 0, as RayBranch guards every t > 0."""
    ordinate = float(_guarded(table, sigma, t))
    if not np.isnan(ordinate):
        raise _guard_refusal(t, ordinate)


def _initial_offsets() -> np.ndarray:
    """Node ladder in alpha - sigma on [0, CUTOFF_OFFSET]: dense where
    zeros live, geometric out to the anchor at the cutoff."""
    low = np.arange(0.0, 3.0001, 0.05)
    high = [3.0]
    while high[-1] * 1.3 < CUTOFF_OFFSET:
        high.append(high[-1] * 1.3)
    high.append(CUTOFF_OFFSET)
    return np.unique(np.concatenate([low, np.array(high)]))


def _walk_offsets() -> np.ndarray:
    """Starting ladder of a line's walk, which only counts turns: nodes
    a factor 2 apart from 0.0025 to 0.32 off the line, where a zero on it
    may lie WALK_CLEARANCE below, then every 0.5 to the anchor; zeros lie
    left of Re s = 1, and _refine adds nodes wherever W turns faster."""
    return np.unique(np.concatenate(
        [[0.0], 0.0025 * 2.0 ** np.arange(8),
         np.arange(0.5, CUTOFF_OFFSET, 0.5), [CUTOFF_OFFSET]]))


def _refine(s: np.ndarray, linked: np.ndarray):
    """The branch-refinement ladder shared by rays and lines.

    s is a path of nodes in the plane.  Halves each linked gap of the
    path until W = _w(s) changes across it by at most PHASE_TOL in
    principal phase and MAG_TOL in log-magnitude; every round evaluates
    all its midpoints in one _w call.  A gap that still fails at width
    MIN_GAP, or after MAX_ROUNDS rounds, holds a zero of W, and so may
    one next to a node where W is zero or not finite: it is unlinked and
    marked stalled.  Unlinked gaps are never bisected, so ladders laid
    end to end, with unlinked gaps between them, refine as they would
    alone.
    Returns (s, w, linked, stalled), the last two per gap.
    """
    w = _w(s)
    stalled = np.zeros(linked.size, dtype=bool)
    for rnd in range(MAX_ROUNDS):
        fine = np.isfinite(w) & (w != 0.0)
        broken = linked & ~(fine[1:] & fine[:-1])
        ratio = np.where(fine[1:], w[1:], 1.0) / np.where(fine[:-1], w[:-1],
                                                           1.0)
        bad = linked & ~broken & (
            (np.abs(np.angle(ratio)) > PHASE_TOL)
            | (np.abs(np.log(np.abs(ratio))) > MAG_TOL))
        stuck = broken | (bad & ((np.abs(np.diff(s)) <= MIN_GAP)
                                 | (rnd == MAX_ROUNDS - 1)))
        linked = linked & ~stuck
        stalled |= stuck
        idx = np.nonzero(bad & ~stuck)[0]
        if idx.size == 0:
            break
        mids = 0.5 * (s[idx] + s[idx + 1])
        s = np.insert(s, idx + 1, mids)
        w = np.insert(w, idx + 1, _w(mids))
        linked = np.insert(linked, idx + 1, True)
        stalled = np.insert(stalled, idx + 1, False)
    return s, w, linked, stalled


class RayBranch:
    """Resolved branch of log zeta on [sigma, sigma + CUTOFF_OFFSET] at
    each height of t, a float or a 1-D array of heights t > 0 (the rows).

    One _refine call resolves the ladders of all rows; the gap between
    two rows is never linked, so each row's ladder is the one it gets
    alone.  A row in the guard band of table (_guarded) gets no ladder;
    it and a row whose ladder stalls, or meets a zero or non-finite W,
    are marked in `obstructed`, their queries raise `refusal(row)`, and
    the other rows are unaffected.  log_zeta returns continued values:
    the zeta evaluation at each query is exact; the node ladder only
    supplies the winding integer.  offsets is the starting ladder in
    alpha - sigma, from 0 to CUTOFF_OFFSET; by default
    _initial_offsets().
    """

    def __init__(self, sigma: float, t, table: ZeroTable = EMPTY_TABLE,
                 offsets=None):
        self.sigma = float(sigma)
        self.heights = np.atleast_1d(np.asarray(t, dtype=float))
        if self.heights.ndim != 1 or not np.all(self.heights > 0.0):
            raise UnsupportedRange("walks need height t > 0; the real axis "
                                   "has its own closed-form branch")
        base = _initial_offsets() if offsets is None else offsets
        rows = self.heights.size
        self._ordinates = _guarded(table, self.sigma, self.heights)
        live = np.flatnonzero(np.isnan(self._ordinates))
        linked = np.ones((live.size, base.size), dtype=bool)
        linked[:, -1] = False
        s, w, linked, stalled = _refine(
            ((self.sigma + base)[None, :]
             + 1j * self.heights[live, None]).ravel(), linked.ravel()[:-1])
        # live rows end at the unlinked gaps that did not stall
        row = np.concatenate([[0], np.cumsum(~linked & ~stalled)])
        row = live[row[:s.size]]      # no node when no row is live
        self.obstructed = ~np.isnan(self._ordinates) | (np.bincount(
            row[:-1][stalled], minlength=rows) > 0)
        self.row_nodes = np.bincount(row, minlength=rows)
        self.nodes_used = int(s.size)

        keep = ~self.obstructed[row]
        s, w, row = s[keep], w[keep], row[keep]
        same = row[1:] == row[:-1]
        dphi = np.zeros(same.size)
        dphi[same] = np.angle(w[1:][same] / w[:-1][same])
        # turns from each node to its row's anchor, the row's last node,
        # where log W is principal, |arg| < pi/2 + eps
        after = np.append(np.cumsum(dphi[::-1])[::-1], 0.0)
        last = np.nonzero(np.append(~same, True))[0]
        anchor = last[np.searchsorted(last, np.arange(s.size))]
        self._x = s.real - self.sigma
        self._row = row
        self._im = np.angle(w[anchor]) - (after - after[anchor])
        # complex numbers sort by real part, then imaginary part: key
        # row + i x orders the nodes by row, then offset, with no rounding
        self._key = row + 1j * self._x
        self._last = np.searchsorted(row, np.arange(rows), side="right") - 1

    def refusal(self, row: int) -> BranchObstruction:
        """What a query at an obstructed row raises: GuardBand or stall."""
        if not np.isnan(self._ordinates[row]):
            return _guard_refusal(self.heights[row], self._ordinates[row])
        return BranchObstruction(
            f"branch walk stalled at sigma={self.sigma:g}, "
            f"t={self.heights[row]:g}: zero too close to the ray")

    def _require(self, rows) -> None:
        """Raise BranchObstruction if any of the rows is obstructed."""
        rows = np.atleast_1d(rows)
        hit = self.obstructed[rows]
        if np.any(hit):
            raise self.refusal(rows[hit][0])

    def offsets(self, row: int = 0) -> np.ndarray:
        """Resolved node offsets alpha - sigma of a row, ascending
        from 0."""
        self._require(row)
        return self._x[self._row == row]

    def log_zeta(self, alphas, rows=0) -> np.ndarray:
        """Continued log zeta(alpha + it) at each alpha, t the height of
        its row (rows: one row index per alpha, or one for all)."""
        alphas = np.asarray(alphas, dtype=float)
        rows = np.broadcast_to(rows, alphas.shape)
        x = alphas - self.sigma
        if np.any(x < -1e-12) or np.any(x > CUTOFF_OFFSET + 1e-12):
            raise UnsupportedRange(
                f"query outside the resolved ray [{self.sigma:g}, "
                f"{self.sigma + CUTOFF_OFFSET:g}]")
        self._require(rows)
        s = alphas + 1j * self.heights[rows]
        lq = np.log(_w(s))
        # interpolate each query on its own row's ladder; past the row's
        # last node, read that node
        xq = np.clip(x, 0.0, CUTOFF_OFFSET)
        j = np.minimum(np.searchsorted(self._key, rows + 1j * xq,
                                       side="right") - 1,
                       self._last[rows] - 1)
        x0, x1 = self._x[j], self._x[j + 1]
        frac = np.clip((xq - x0) / (x1 - x0), 0.0, 1.0)
        im_interp = self._im[j] + frac * (self._im[j + 1] - self._im[j])
        k = np.round((im_interp - lq.imag) / (2.0 * np.pi))
        return lq + 2j * np.pi * k - np.log(s - 1.0)


class LineBranch:
    """Resolved branch of log zeta on the line sigma + iu, bottom <= u
    <= top.

    One ladder over u carries the continuous Im log W.  It is not linked
    across `cuts`, ordinates in (bottom, top) of zeros at or right of the
    line where the horizontal convention jumps, nor across a gap that
    stalls on a zero of W on the line; these split it into stretches.  A
    stretch at u = 0 takes its level, the 2 pi integer, from the real
    axis, where W > 0; every other stretch from a horizontal walk near
    its foot.  A second walk near its top must agree, so a zero the cuts
    miss raises BranchObstruction instead of shifting the branch.  The
    walks of all stretches share one RayBranch.
    """

    def __init__(self, sigma: float, top: float, cuts=(), bottom: float = 0.0):
        self.sigma = float(sigma)
        self.bottom, self.top = float(bottom), float(top)
        if not 0.0 <= self.bottom < self.top:
            raise UnsupportedRange("a line branch needs 0 <= bottom < top")
        cuts = np.unique(np.asarray(cuts, dtype=float))
        # |W| falls towards a zero on the line at a cut: nodes in a
        # geometric ladder towards every cut nearby pass MAG_TOL at once
        # instead of after a round of _refine per halving
        seeds = (cuts[:, None] + np.concatenate([-CUT_SEEDS, CUT_SEEDS])
                 ).ravel()
        cuts = cuts[(cuts > self.bottom) & (cuts < self.top)]
        gaps = np.diff(np.concatenate([[self.bottom], cuts, [self.top]]))
        margin = np.minimum(CUT_MARGIN,
                            0.25 * np.minimum(gaps[:-1], gaps[1:]))
        parts, links = [], []
        for lo, hi in zip(np.concatenate([[self.bottom], cuts + margin]),
                          np.concatenate([cuts - margin, [self.top]])):
            n = max(2, int(np.ceil((hi - lo) / LINE_STEP)) + 1)
            # the heights of the stretch's walks are nodes from the start
            clear = min(WALK_CLEARANCE, 0.25 * (hi - lo))
            parts.append(np.unique(np.concatenate(
                [np.linspace(lo, hi, n), [lo + clear, hi - clear],
                 seeds[(seeds > lo) & (seeds < hi)]])))
            links.append(np.append(np.ones(parts[-1].size - 1, dtype=bool),
                                   False))
        s, w, linked, stalled = _refine(
            self.sigma + 1j * np.concatenate(parts),
            np.concatenate(links)[:-1])
        if not np.all(np.isfinite(w) & (w != 0.0)):
            raise BranchObstruction(f"ladder hit a zero of zeta on the line "
                                    f"sigma={self.sigma:g}")
        x = s.imag
        if x[0] == 0.0 and not w[0].real > 0.0:
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
        self._levels = 2.0 * np.pi * self._stretch_levels(
            np.concatenate([[0], breaks + 1]), np.append(breaks, x.size - 1))

    def _stretch_levels(self, starts, ends) -> np.ndarray:
        """Level of each stretch of nodes a..b from walks (or the real
        axis) near both its ends, which must agree."""
        x = self._x
        feet, heads = [], []
        for a, b in zip(starts, ends):
            clear = min(WALK_CLEARANCE, 0.25 * (x[b] - x[a]))
            seg = x[a:b + 1]
            feet.append(a if x[a] == 0.0 else
                        a + int(np.argmin(np.abs(seg - x[a] - clear))))
            heads.append(a + int(np.argmin(np.abs(seg - x[b] + clear))))
        # 2 pi turns between the branch at node j and the ladder there:
        # from the real axis at u = 0, else from one walk per node
        nodes = np.array(feet + heads)
        walked = np.unique(nodes[x[nodes] > 0.0])
        turns = {j: int(np.round(-self._im[j] / (2.0 * np.pi)))
                 for j in nodes[x[nodes] == 0.0]}
        if walked.size:
            ray = RayBranch(self.sigma, x[walked], offsets=_walk_offsets())
            self.nodes_used += ray.nodes_used
            ray._require(np.arange(walked.size))
            first = np.searchsorted(ray._row, np.arange(walked.size))
            turns.update({int(j): int(np.round((ray._im[f] - self._im[j])
                                               / (2.0 * np.pi)))
                          for j, f in zip(walked, first)})
        for ja, jb in zip(feet, heads):
            if turns[ja] != turns[jb]:
                raise BranchObstruction(
                    f"branch continued up the line sigma={self.sigma:g} from "
                    f"u={x[ja]:g} disagrees with the walk at u={x[jb]:g} by "
                    f"{turns[jb] - turns[ja]} turns: a zero at or right of "
                    f"the line between them is not among the cuts")
        return np.array([turns[ja] for ja in feet], dtype=float)

    def log_w(self, us) -> np.ndarray:
        """Continued log(zeta(s)(s - 1)) at s = sigma + iu."""
        us = np.asarray(us, dtype=float)
        if np.any(us < self.bottom - 1e-12) or np.any(us > self.top + 1e-12):
            raise UnsupportedRange(f"query outside the resolved line segment "
                                   f"[{self.bottom:g}, {self.top:g}]")
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
    from one RayBranch with a ladder per height.

    Nothing in src/ calls it: integrals up the line use a LineBranch,
    whose ladder carries the winding between heights.  It stays only
    because perfbench/tracing.py's ENTRY_POINTS looks it up by name;
    the ROADMAP's observability item (5) deletes it together with that
    tracer change.
    """
    heights = np.asarray(heights, dtype=float).ravel()
    return RayBranch(sigma, heights).log_zeta(np.full(heights.size, sigma),
                                              np.arange(heights.size))


def log_zeta_horizontal(sigma: float, t: float,
                        table: ZeroTable = EMPTY_TABLE) -> complex:
    """Branch-tracked log zeta(sigma + it): continuous variation from
    alpha = +infinity leftward along the horizontal line.

    Heights within the guard distance of an ordinate of table whose zero
    sits at or right of sigma are refused with GuardBand before any zeta
    call (the walk would degenerate there anyway).  t = 0 gives the
    limit from the upper half plane: real log of zeta(s)(s-1) minus
    log|sigma-1|, minus i pi left of the pole.
    """
    if t == 0.0:
        check_guard(table, sigma, t)
        if abs(sigma - 1.0) < 1e-12:
            raise BranchObstruction("the ray at t = 0 meets the pole")
        return complex(log_zeta_real_axis(np.array([sigma]))[0])
    value = complex(RayBranch(sigma, abs(t), table).log_zeta([sigma])[0])
    return value.conjugate() if t < 0.0 else value


def log_zeta_real_axis(alphas) -> np.ndarray:
    """log zeta(alpha + i 0+) for real alpha > 0, alpha != 1.

    W(alpha) = zeta(alpha)(alpha - 1) is real and positive for alpha > 0,
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
