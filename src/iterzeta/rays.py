"""Continued log zeta along horizontal rays.

Values of log zeta away from Re(s) > 1 depend on a branch choice.  The
convention here: continue from the right end of the horizontal ray
through the point, where log zeta is principal (and tiny).  Across an
ordinate of a zero lying right of the evaluation point this continuation
jumps by 2 pi i times the multiplicity, which is exactly the structure
the zero-sum corrections downstream account for.

The pole at s = 1 is removed before walking: the walk tracks
W(s) = zeta(s) (s - 1), entire and zero-free on the rays of interest
except at the zeta zeros themselves, and the principal Log(s - 1) is
subtracted afterwards (it is continuous along any ray of height t > 0,
and on the real axis the limit from above gives log|a-1| + i pi for
a < 1).

Branch resolution walks a node ladder from the anchor at
Re(s) = sigma + 40 leftwards, halving gaps until the per-gap principal
phase and log-magnitude increments of W are small.  Queries between
nodes use the exact zeta value; only the 2 pi winding integer comes from
interpolating the continuous imaginary part, and the refinement bounds
make that rounding exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchObstruction, UnsupportedRange
from .zeros import ZeroTable
from .zetafun import DEFAULT_PARAMS, EvalParams, zeta_batch

CUTOFF_OFFSET = 40.0
GUARD = 1e-3          # min |t - gamma| for rays passing a zero with beta >= sigma


@dataclass(frozen=True)
class WalkParams:
    phase_tol: float = 1.0      # max |principal arg ratio| per resolved gap
    mag_tol: float = 2.0        # max |log magnitude ratio| per resolved gap
    max_rounds: int = 64
    min_gap: float = 1e-12      # gaps this small that still fail => obstruction


DEFAULT_WALK = WalkParams()


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


def _resolve_heights(sigma: float, heights: np.ndarray,
                     eval_params: EvalParams, walk: WalkParams):
    """Run the refinement walk at each height; all zeta evaluations in a
    round are batched together.  Returns per-height (offsets, W values,
    continuous Im of log W at the nodes)."""
    heights = np.asarray(heights, dtype=float)
    if np.any(heights <= 0.0):
        raise UnsupportedRange("walks need height t > 0; the real axis "
                               "has its own closed-form branch")
    base = _initial_offsets()
    pts = (sigma + base)[None, :] + 1j * heights[:, None]
    svals = pts.ravel()
    wflat = zeta_batch(svals, eval_params) * (svals - 1.0)
    offs = [base.copy() for _ in heights]
    wvals = [wflat[i * base.size:(i + 1) * base.size].copy()
             for i in range(heights.size)]

    pending = set(range(heights.size))
    for _ in range(walk.max_rounds):
        if not pending:
            break
        mid_pts: list[np.ndarray] = []
        mid_loc: list[tuple[int, np.ndarray]] = []
        for i in sorted(pending):
            o, wv = offs[i], wvals[i]
            if not np.all(np.isfinite(wv)) or np.any(wv == 0.0):
                raise BranchObstruction(
                    f"walk hit a zero of zeta near sigma={sigma:g}, "
                    f"t={heights[i]:g}")
            ratio = wv[1:] / wv[:-1]
            bad = (np.abs(np.angle(ratio)) > walk.phase_tol) \
                | (np.abs(np.log(np.abs(ratio))) > walk.mag_tol)
            gaps = np.diff(o)
            if np.any(bad & (gaps <= walk.min_gap)):
                raise BranchObstruction(
                    f"branch walk stalled at sigma={sigma:g}, "
                    f"t={heights[i]:g}: zero too close to the ray")
            idx = np.nonzero(bad)[0]
            if idx.size == 0:
                pending.discard(i)
                continue
            mids = 0.5 * (o[idx] + o[idx + 1])
            mid_loc.append((i, idx))
            mid_pts.append(sigma + mids + 1j * heights[i])
        if not mid_pts:
            break
        allpts = np.concatenate(mid_pts)
        allw = zeta_batch(allpts, eval_params) * (allpts - 1.0)
        pos = 0
        for i, idx in mid_loc:
            n = idx.size
            wmid = allw[pos:pos + n]
            pos += n
            mids = 0.5 * (offs[i][idx] + offs[i][idx + 1])
            offs[i] = np.insert(offs[i], idx + 1, mids)
            wvals[i] = np.insert(wvals[i], idx + 1, wmid)
    if pending:
        i = sorted(pending)[0]
        raise BranchObstruction(
            f"branch walk did not settle within {walk.max_rounds} rounds "
            f"at sigma={sigma:g}, t={heights[i]:g}")

    out = []
    for i in range(heights.size):
        wv = wvals[i]
        dphi = np.angle(wv[1:] / wv[:-1])
        im = np.empty(wv.size)
        im[-1] = np.angle(wv[-1])     # principal at the anchor, |arg| < pi/2 + eps
        im[:-1] = im[-1] - np.cumsum(dphi[::-1])[::-1]
        out.append((offs[i], wv, im))
    return out


class RayBranch:
    """Resolved branch of log zeta on [sigma, sigma + 40] at height t > 0.

    log_zeta(alphas) returns continued values: the zeta evaluation at
    each query is exact; the node ladder only supplies the winding
    integer.
    """

    def __init__(self, sigma: float, t: float,
                 eval_params: EvalParams = DEFAULT_PARAMS,
                 walk: WalkParams = DEFAULT_WALK):
        self.sigma = float(sigma)
        self.t = float(t)
        self.eval_params = eval_params
        ((self._offs, self._w, self._im),) = _resolve_heights(
            self.sigma, np.array([self.t]), eval_params, walk)
        self.nodes_used = int(self._offs.size)

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
        wq = zeta_batch(s, self.eval_params) * (s - 1.0)
        lq = np.log(wq)
        im_interp = np.interp(np.clip(x, 0.0, CUTOFF_OFFSET),
                              self._offs, self._im)
        k = np.round((im_interp - lq.imag) / (2.0 * np.pi))
        return lq + 2j * np.pi * k - np.log(s - 1.0)

    def log_zeta_at(self, alpha: float) -> complex:
        return complex(self.log_zeta(np.array([alpha]))[0])


def vertical_log_zeta(sigma: float, heights,
                      eval_params: EvalParams = DEFAULT_PARAMS,
                      walk: WalkParams = DEFAULT_WALK) -> np.ndarray:
    """Continued log zeta(sigma + i u) for an array of heights u > 0.

    Each height gets its own horizontal walk (that is what fixes the
    branch); evaluations are batched across heights round by round.
    """
    heights = np.asarray(heights, dtype=float)
    resolved = _resolve_heights(sigma, heights, eval_params, walk)
    out = np.empty(heights.size, dtype=complex)
    for i, (offs, wv, im) in enumerate(resolved):
        s = sigma + 1j * heights[i]
        out[i] = np.log(wv[0]) + 2j * np.pi * np.round(
            (im[0] - np.angle(wv[0])) / (2.0 * np.pi)) - np.log(s - 1.0)
    return out


def log_zeta_horizontal(sigma: float, t: float, table=None,
                        eval_params: EvalParams = DEFAULT_PARAMS) -> complex:
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
        return complex(log_zeta_real_axis(np.array([sigma]), eval_params)[0])
    if t < 0.0:
        return np.conjugate(log_zeta_horizontal(sigma, -t, table, eval_params))
    return RayBranch(sigma, t, eval_params).log_zeta_at(sigma)


def log_zeta_real_axis(alphas, eval_params: EvalParams = DEFAULT_PARAMS
                       ) -> np.ndarray:
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
    w = np.real(zeta_batch(alphas.astype(complex), eval_params)) * (alphas - 1.0)
    if np.any(w <= 0.0):
        raise BranchObstruction("zeta(s)(s-1) should be positive on the "
                                "real segment; evaluation failed")
    return np.log(w) - np.log(np.abs(alphas - 1.0)) \
        - 1j * np.pi * (alphas < 1.0)
