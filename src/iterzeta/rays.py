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
and on the real axis, t = 0, it is the limit from above,
log|a - 1| + i pi for a < 1).

One ladder routine, `_refine`, resolves the branch on both routes.  It
halves the gaps of a node ladder until the per-gap principal phase and
log-magnitude increments of W are small, and its last round's phases
are the ladder's turns.  A query takes the exact value of W at its
point.  A ray forms the continued log W once at each of its nodes, so a
query at a node is a gather, with no zeta call and no interpolation:
zeta gives a point the same bits in any batch, and at a node the
winding is the integer the interpolation gives there, so the value is
the one any other query computes.  Any other query calls zeta, and only
the 2 pi winding integer comes from interpolating the ladder's
continuous imaginary part; the refinement bounds make that rounding
exact.  A one-height ray on eta's 92 starting nodes costs its one zeta
call plus about 0.08 ms of set-up on a shared 2-core Xeon, and a query
at its nodes about 0.01 ms.

* `RayBranch` runs the ladder over alpha at each of many heights
  t >= 0, leftwards from the anchor at Re(s) = sigma + CUTOFF_OFFSET,
  where log W is principal: from sigma = 1/2 on, the anchor has
  Re s >= 6.5 and |Im log zeta| < 0.012.  Past the anchor eta
  integrates log zeta's Dirichlet series in closed form, so no ray runs
  further.  The ray at t = 0 is the real axis, where W > 0; it is a row
  like any other, refused only where a query meets the pole.  A height
  within GUARD of the ordinate of a table zero at or right of sigma
  gets no ladder: it refuses as GuardBand.  The others' ladders refine
  together, one _w call per round, and a ladder that stalls on a zero
  obstructs only its own height.  eta starts the ladders on the nodes
  of its quadrature's first two rounds, which they then serve.
* `LineBranch` runs it over u on a segment of the line sigma + iu.
  There log W is continuous in u except at ordinates of zeros with
  beta >= sigma, where the horizontal convention jumps, so the ladder is
  not linked across them, and nodes seeded towards each such cut spare
  the ladder a round per halving.  Each linked stretch takes its level
  (the 2 pi integer) from a horizontal walk, and a second walk checks
  it: the branch always comes from zeta itself.  A stretch whose walks
  stall or disagree refuses only the heights in it.  Where the ladder
  itself stalls, on a zero of W on the line that the cuts miss and no
  pad of the caller's models, no segment of heights may cross the
  stall: it is refused before it is integrated.  All walks of a segment
  share one RayBranch, on a sparse starting ladder of their own.
"""

from __future__ import annotations

import math
from copy import copy

import numpy as np

from .errors import (BranchObstruction, GuardBand, UnsupportedRange,
                     ValidationError, float_array)
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
    d = s - 1.0
    off = np.abs(d) >= POLE_RADIUS
    if off.any():
        w[off] = zeta_batch(s[off]) * d[off]
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
    Returns (s, w, linked, stalled, phase), the last three per gap;
    phase is the principal phase of W's ratio across the gap, taking W
    as 1 at a node where it is zero or not finite.
    """
    w = _w(s)
    stalled = np.zeros(linked.size, dtype=bool)
    for rnd in range(MAX_ROUNDS):
        fine = np.isfinite(w) & (w != 0.0)
        ok = linked & fine[1:] & fine[:-1]
        wf = w if fine.all() else np.where(fine, w, 1.0)
        ratio = wf[1:] / wf[:-1]
        phase = np.arctan2(ratio.imag, ratio.real)
        bad = ok & ((np.abs(phase) > PHASE_TOL)
                    | (np.abs(np.log(np.abs(ratio))) > MAG_TOL))
        # a linked gap next to a zero or non-finite W stalls, and so does
        # a bad one at MIN_GAP or in the last round
        stuck = linked ^ ok
        if bad.any():
            stuck |= bad & (np.abs(s[1:] - s[:-1]) <= MIN_GAP) \
                if rnd < MAX_ROUNDS - 1 else bad
        if stuck.any():
            linked = linked & ~stuck
            stalled |= stuck
        idx = (bad & ~stuck).nonzero()[0]
        if idx.size == 0:
            break
        # each midpoint goes in after its gap's left node
        mid = np.ones(s.size + idx.size, dtype=bool)
        mid[idx + np.arange(1, idx.size + 1)] = False
        mids = 0.5 * (s[idx] + s[idx + 1])
        s, w = _spliced(s, mids, mid), _spliced(w, _w(mids), mid)
        # a gap's new right half goes in where its midpoint does
        linked = _spliced(linked, True, mid[:-1])
        stalled = _spliced(stalled, False, mid[:-1])
    return s, w, linked, stalled, phase


def _spliced(old: np.ndarray, new, keep: np.ndarray) -> np.ndarray:
    """old at the True places of keep, new at the others, in order."""
    out = np.empty(keep.size, dtype=old.dtype)
    out[keep] = old
    out[~keep] = new
    return out


class RayBranch:
    """Resolved branch of log zeta on [sigma, sigma + CUTOFF_OFFSET] at
    each height of t, a float or a 1-D array of heights t >= 0, all
    finite (the rows).

    One _refine call resolves the ladders of all rows; the gap between
    two rows is never linked, so each row's ladder is the one it gets
    alone.  A row in the guard band of table (_guarded) gets no ladder;
    it and a row whose ladder stalls, or meets a zero or non-finite W,
    are marked in `obstructed`, their queries raise `refusal(row)`, and
    the other rows are unaffected.  log_w returns the continued log W,
    W = zeta(s)(s - 1), and log_zeta = log_w - Log(s - 1): the zeta
    evaluation at each query is exact; the node ladder only supplies the
    winding integer.  A row at t = 0 is the real axis, W > 0, where
    log_zeta is the limit from above.

    abscissae is the starting ladder of every row, in [sigma,
    sigma + CUTOFF_OFFSET], to which the ray's start sigma and its anchor
    sigma + CUTOFF_OFFSET are added; by default sigma + _initial_offsets().
    The branch forms the continued log W once at each node, and a query
    at a node's abscissa on its row reads it: no zeta call and no
    interpolation.  zeta_batch gives a point the same bits in any batch,
    and the winding integer at a node is the one the ladder's
    interpolation gives there, so the value is the one an off-node query
    would compute (_off_nodes).  row_evals counts per row the points W
    was evaluated at: its ladder's nodes, then every query off them.
    """

    def __init__(self, sigma: float, t, table: ZeroTable = EMPTY_TABLE,
                 abscissae=None):
        self.sigma = float(float_array(sigma))
        self.heights = np.atleast_1d(float_array(t))
        if not (math.isfinite(self.sigma) and np.isfinite(self.heights).all()):
            raise ValidationError("point coordinates must be finite")
        if self.heights.ndim != 1 or not (self.heights >= 0.0).all():
            raise UnsupportedRange("rays need heights t >= 0; below the "
                                   "real axis log zeta is the conjugate")
        end = self.sigma + CUTOFF_OFFSET
        base = (self.sigma + _initial_offsets() if abscissae is None
                else np.asarray(abscissae, dtype=float))
        base = np.concatenate([[self.sigma], base, [end]])
        # a ladder that ascends from sigma to the anchor is in range
        if not (base[1:] > base[:-1]).all():
            if not ((base >= self.sigma) & (base <= end)).all():
                raise UnsupportedRange("a ray's starting ladder lies in "
                                       f"[{self.sigma:g}, {end:g}]")
            base = np.unique(base)
        rows = self.heights.size
        self._ordinates = _guarded(table, self.sigma, self.heights)
        guarded = ~np.isnan(self._ordinates)
        live = (~guarded).nonzero()[0]
        linked = np.ones((live.size, base.size), dtype=bool)
        linked[:, -1] = False
        s, w, linked, stalled, phase = _refine(
            (base[None, :] + 1j * self.heights[live, None]).ravel(),
            linked.ravel()[:-1])
        # live rows end at the unlinked gaps that did not stall
        row = np.zeros(s.size, dtype=np.intp)
        np.cumsum(~(linked | stalled), out=row[1:])
        row = live[row]
        self.obstructed = guarded
        self.obstructed[row[:-1][stalled]] = True
        self.row_evals = np.bincount(row, minlength=rows)
        self.nodes_used = int(s.size)

        # every node of a row that is not obstructed has a finite,
        # nonzero W, so _refine's phase is W's turn across each gap
        dphi = np.where(row[1:] == row[:-1], phase, 0.0)
        if self.obstructed.any():
            keep = (~self.obstructed[row]).nonzero()[0]
            dphi = dphi[keep[:-1]]
            s, w, row = s[keep], w[keep], row[keep]
        lq = np.log(w)
        self._a = s.real
        self._row = row
        # the last node of each row, its anchor, where log W is principal,
        # |arg| < pi/2 + eps, and the turns from each node to its anchor
        self._last = row.searchsorted(np.arange(rows), side="right") - 1
        anchor = self._last[row]
        after = np.zeros(s.size)
        np.cumsum(dphi[::-1], out=after[-2::-1])
        self._im = lq.imag[anchor] - (after - after[anchor])
        k = np.rint((self._im - lq.imag) / (2.0 * np.pi))
        self._log_w = lq + 2j * np.pi * k
        # complex numbers sort by real part, then imaginary part: key
        # row + i alpha orders the nodes by row, then abscissa
        self._key = row + 1j * self._a

    def refusal(self, row: int) -> BranchObstruction:
        """What a query at an obstructed row raises: GuardBand or stall."""
        if not np.isnan(self._ordinates[row]):
            return GuardBand(f"height t={self.heights[row]:g} within "
                             f"{GUARD:g} of zero ordinate "
                             f"{self._ordinates[row]:.6f}")
        return BranchObstruction(
            f"branch walk stalled at sigma={self.sigma:g}, "
            f"t={self.heights[row]:g}: zero too close to the ray")

    def finest_gaps(self) -> np.ndarray:
        """Per row, the narrowest gap of its resolved ladder; inf for an
        obstructed row, which has none."""
        gaps = np.full(self.heights.size, np.inf)
        same = self._row[1:] == self._row[:-1]
        np.minimum.at(gaps, self._row[1:][same], np.diff(self._a)[same])
        return gaps

    def _require(self, rows) -> None:
        """Raise BranchObstruction if any of the rows is obstructed."""
        hit = self.obstructed[rows]
        if hit.any():
            raise self.refusal(np.atleast_1d(rows)[np.atleast_1d(hit)][0])

    def abscissae(self, row: int = 0) -> np.ndarray:
        """Resolved node abscissae of a row, ascending from sigma to
        sigma + CUTOFF_OFFSET."""
        self._require(row)
        return self._a[self._row == row]

    def log_w(self, alphas, rows=0) -> np.ndarray:
        """Continued log(zeta(s)(s - 1)) at s = alpha + it for each alpha,
        t the height of its row (rows: one row index per alpha, or one
        for all)."""
        alphas = np.asarray(alphas, dtype=float)
        if not self._key.size:          # every row is obstructed
            return self._off_nodes(alphas, np.broadcast_to(rows, alphas.shape))
        # a query at a node reads its log W; the others go off the nodes
        key = rows + 1j * alphas
        at = np.minimum(self._key.searchsorted(key), self._key.size - 1)
        hit = self._key[at] == key
        lw = self._log_w[at]
        if not hit.all():
            miss = ~hit
            lw[miss] = self._off_nodes(
                alphas[miss], np.broadcast_to(rows, alphas.shape)[miss])
        return lw

    def _off_nodes(self, alphas, rows) -> np.ndarray:
        """log_w at queries anywhere on the resolved rows: W from zeta,
        and the 2 pi winding integer from each query's own row's ladder,
        its continuous imaginary part interpolated there.  A query off
        the ray or on an obstructed row raises."""
        x = alphas - self.sigma
        if (x < -1e-12).any() or (x > CUTOFF_OFFSET + 1e-12).any():
            raise UnsupportedRange(
                f"query outside the resolved ray [{self.sigma:g}, "
                f"{self.sigma + CUTOFF_OFFSET:g}]")
        self._require(rows)
        w = _w(alphas + 1j * self.heights[rows])
        self.row_evals += np.bincount(rows, minlength=self.heights.size)
        lq = np.log(w)
        # past the row's last node, read that node
        aq = np.clip(alphas, self.sigma, self.sigma + CUTOFF_OFFSET)
        j = np.minimum(self._key.searchsorted(rows + 1j * aq, side="right")
                       - 1, self._last[rows] - 1)
        a0, a1 = self._a[j], self._a[j + 1]
        frac = np.clip((aq - a0) / (a1 - a0), 0.0, 1.0)
        im_interp = self._im[j] + frac * (self._im[j + 1] - self._im[j])
        k = np.rint((im_interp - lq.imag) / (2.0 * np.pi))
        return lq + 2j * np.pi * k

    def log_zeta(self, alphas, rows=0) -> np.ndarray:
        """Continued log zeta(alpha + it) = log_w - Log(s - 1), on the
        real axis the limit from above; the pole s = 1 is refused."""
        lw = self.log_w(alphas, rows)
        s = np.asarray(alphas, dtype=float) + 1j * self.heights[rows]
        if np.any(s == 1.0):
            raise BranchObstruction("the ray at t = 0 meets the pole")
        return lw - np.log(s - 1.0)


class LineBranch:
    """Resolved branch of log zeta on the line sigma + iu, bottom <= u
    <= top.

    One ladder over u carries the continuous Im log W.  It is not linked
    across `cuts`, ordinates in (bottom, top) of zeros at or right of the
    line where the horizontal convention jumps, nor across a gap that
    stalls on a zero of W on the line; these split it into stretches.
    Each stretch takes its level, the 2 pi integer, from a horizontal
    walk near its foot.  A second walk near its top must agree, so a
    zero the cuts miss refuses its stretch instead of shifting the
    branch: a query there raises the stretch's BranchObstruction, as it
    does in a stretch whose walk stalls, and `refusals` names the first
    one each range of heights meets.  The other stretches are unaffected.
    A range of heights across a gap where the ladder stalled, on a zero
    of W on the line that the cuts miss, is refused too: integrating
    across it would bisect towards the zero without end.  `pads`, a pair
    of arrays (lo, hi), holds the intervals around zeros near the line
    whose singularity the caller takes out of its integrand; a stall
    inside one is that zero's, and splits the ladder without refusing
    any range.  The walks of all stretches share one RayBranch.
    """

    def __init__(self, sigma: float, top: float, cuts=(), bottom: float = 0.0,
                 pads=((), ())):
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
        s, w, linked, stalled, phase = _refine(
            self.sigma + 1j * np.concatenate(parts),
            np.concatenate(links)[:-1])
        # a node at a zero of W unlinks both its gaps: it is a stretch
        # alone, whose walk starts there, stalls and refuses it; _refine
        # takes W as 1 there
        w0 = w[0] if np.isfinite(w[0]) and w[0] != 0.0 else 1.0
        x = s.imag
        self._x, self._linked = x, linked
        self._im = np.angle(w0) + np.concatenate([[0.0], np.cumsum(phase)])
        # the level may change across each unlinked gap: at its given cut,
        # or mid-gap where the ladder stalled on a zero
        breaks = np.nonzero(~linked)[0]
        given = ~stalled[breaks]
        self._cut_at = np.full(linked.size, np.nan)
        self._cut_at[breaks[given]] = cuts
        self._cut_at[breaks[~given]] = 0.5 * (x[breaks[~given]]
                                              + x[breaks[~given] + 1])
        self._steps = self._cut_at[breaks]
        # the steps where the ladder stalled on a zero of W on the line
        # that no pad holds
        stalls = np.flatnonzero(~given)
        at = self._steps[stalls, None]
        padded = ((at > np.asarray(pads[0], dtype=float))
                  & (at < np.asarray(pads[1], dtype=float))).any(axis=1)
        self._stalls = stalls[~padded]
        self.nodes_used = int(x.size)
        levels, self._refusals = self._stretch_levels(
            np.concatenate([[0], breaks + 1]), np.append(breaks, x.size - 1))
        self._levels = 2.0 * np.pi * levels
        self._obstructed = np.array([r is not None for r in self._refusals])

    def _stretch_levels(self, starts, ends):
        """Level of each stretch of nodes a..b from walks near both its
        ends, and its refusal: None, or the BranchObstruction of a walk
        that stalls or of two walks that disagree."""
        x = self._x
        feet, heads = [], []
        for a, b in zip(starts, ends):
            clear = min(WALK_CLEARANCE, 0.25 * (x[b] - x[a]))
            seg = x[a:b + 1]
            feet.append(a + int(np.argmin(np.abs(seg - x[a] - clear))))
            heads.append(a + int(np.argmin(np.abs(seg - x[b] + clear))))
        # 2 pi turns between the branch at node j and the ladder there,
        # from one walk per node; a stalled walk refuses its stretches
        walked = np.unique(feet + heads)
        ray = RayBranch(self.sigma, x[walked],
                        abscissae=self.sigma + _walk_offsets())
        self.nodes_used += ray.nodes_used
        first = np.searchsorted(ray._row, np.arange(walked.size))
        turns = {int(j): ray.refusal(k) if ray.obstructed[k] else
                 int(np.round((ray._im[f] - self._im[j]) / (2.0 * np.pi)))
                 for k, (j, f) in enumerate(zip(walked, first))}
        levels, refusals = [], []
        for ja, jb in zip(feet, heads):
            foot, head = turns[ja], turns[jb]
            stalled = [r for r in (foot, head) if isinstance(r, Exception)]
            if stalled:
                refusals.append(stalled[0])
            elif foot != head:
                refusals.append(BranchObstruction(
                    f"branch continued up the line sigma={self.sigma:g} from "
                    f"u={x[ja]:g} disagrees with the walk at u={x[jb]:g} by "
                    f"{head - foot} turns: a zero at or right of the line "
                    f"between them is not among the cuts"))
            else:
                refusals.append(None)
            levels.append(0 if stalled else foot)
        return np.array(levels, dtype=float), refusals

    def refusals(self, lo, hi) -> list:
        """Per segment of heights strictly between lo[i] and hi[i], the
        BranchObstruction of the first of these it meets going up, or
        None: a refused stretch, or a stall of the ladder, a zero of W on
        the line that the cuts miss, which no segment may cross.  Each
        is a new exception, so a branch kept for later calls hands out
        none that a caller has raised."""
        hit = np.flatnonzero(self._obstructed)
        if not (hit.size or self._stalls.size):
            return [None] * np.size(lo)
        first = np.searchsorted(self._steps, lo, side="right")
        last = np.searchsorted(self._steps, hi, side="left")
        # the lowest refused stretch the segment meets, and the lowest
        # stall inside it: step i lies between stretches i and i + 1
        k = _lowest(hit, first, last)
        i = _lowest(self._stalls, first, last - 1)
        out = []
        for kk, ii in zip(k.tolist(), i.tolist()):
            if ii >= 0 and not 0 <= kk <= ii:
                out.append(BranchObstruction(
                    f"the branch ladder up the line sigma={self.sigma:g} "
                    f"stalls at u={self._steps[ii]:.6f} on a zero that the "
                    f"table misses; no step crosses it"))
            else:
                out.append(copy(self._refusals[kk]) if kk >= 0 else None)
        return out

    def log_w(self, us) -> np.ndarray:
        """Continued log(zeta(s)(s - 1)) at s = sigma + iu."""
        us = np.asarray(us, dtype=float)
        if us.min(initial=self.bottom) < self.bottom - 1e-12 \
                or us.max(initial=self.top) > self.top + 1e-12:
            raise UnsupportedRange(f"query outside the resolved line segment "
                                   f"[{self.bottom:g}, {self.top:g}]")
        lq = np.log(_w(self.sigma + 1j * us))
        x = self._x
        im = np.interp(us, x, self._im)
        gap = np.minimum(np.maximum(
            np.searchsorted(x, us, side="right") - 1, 0), x.size - 2)
        # next to a cut, the winding of the node on the query's side
        cross = ~self._linked[gap]
        if cross.any():
            g = gap[cross]
            im[cross] = np.where(us[cross] < self._cut_at[g],
                                 self._im[g], self._im[g + 1])
        stretch = np.searchsorted(self._steps, us, side="right")
        refused = self._obstructed[stretch]
        if refused.any():
            raise copy(self._refusals[stretch[refused][0]])
        im += self._levels[stretch]
        k = np.rint((im - lq.imag) / (2.0 * np.pi))
        return lq + 2j * np.pi * k


def _lowest(marks: np.ndarray, first, last) -> np.ndarray:
    """Per segment, the lowest of the ascending marks in [first, last],
    or -1."""
    if not marks.size:
        return np.full(np.shape(first), -1)
    low = marks[np.minimum(np.searchsorted(marks, first), marks.size - 1)]
    return np.where((low >= first) & (low <= last), low, -1)


def vertical_log_zeta(sigma: float, heights) -> np.ndarray:
    """Continued log zeta(sigma + i u) for an array of heights u >= 0,
    from one RayBranch with a ladder per height.

    Tracer-only: no caller in src/; kept only for perfbench/tracing.py's
    ENTRY_POINTS, and deleted with those lines by a benchmark change.
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
    log|sigma-1|, minus i pi left of the pole (BranchObstruction at it).
    """
    value = complex(RayBranch(sigma, abs(t), table).log_zeta([sigma])[0])
    return value.conjugate() if t < 0.0 else value


def log_zeta_real_axis(alphas) -> np.ndarray:
    """log zeta(alpha + i 0+) for real alpha > 0, alpha != 1.

    W(alpha) = zeta(alpha)(alpha - 1) is real and positive for alpha > 0,
    so log W is real; the subtracted pole log picks up -i pi left of 1
    (limit from the upper half plane).

    Tracer-only: no caller in src/; kept only for perfbench/tracing.py's
    ENTRY_POINTS, and deleted with those lines by a benchmark change.
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
