"""Finding heights where the weighted integral hits a prescribed value.

Near the heights where the prime Dirichlet polynomial

    D_X(t) = sum_{2 <= n <= X} Lambda(n) / (n^(sigma+it) (log n)^(m+1))

takes a value, eta~_m(sigma + it) takes it too, up to the mean-square
remainder past X.  The torus sum S at theta_p = t log p / 2 pi is D_X's
Li form, off from it by li_vs_mangoldt_gap (at X = 300, m = 1, up to
0.018 at sigma = 1/2, 0.0026 at 0.8).  So the hunt reads D_X, with X =
eta.TAIL_TERMS (the prime powers the closed-form tail reads), on the
grid t_min + GRID_STEP j <= t_max in one dirichlet.mangoldt_grid call
(the process keeps the grid's phase matrices, so a repeated window pays
only for their product).  It takes the local minima of |D_X - a| in
order of that distance, keeps them at least min_separation apart up to
the evaluation budget (each checked against its nearest kept
neighbours, in Python floats), and evaluates them.

Candidates are evaluated in two passes of eta._eta_tilde_rows, the first
FIRST_PASS of them and then, only if none of those is a witness, the
rest that the first pass leaves in reach; each pass is one branch ladder
resolution and one adaptive quadrature over all its heights, each height
with its own panels.  A candidate on a guarded ordinate, or whose ray
stalls on a zero, counts as obstructed.  Of the others, the result is
the one with the least |eta~ - a| + est_error, and it is a witness when
that sum, a bound on the distance of the true value from a, is below
epsilon.

The cut rule: let g be the largest |eta~ - D_X| over the first-pass
candidates that gave a value.  The second pass evaluates only the
candidates with |D_X - a| <= epsilon + GAP_FACTOR max(g, GAP_FLOOR); one
further off could hit a only if eta~ strayed from D_X there GAP_FACTOR
times further than at any height measured.  When every first-pass
candidate was obstructed there is no g, and the second pass takes all
the rest.  So a refusal means "not found in the window", never
"unreachable": g is measured at a few heights, not bounded over the
window, and a certified refusal would need an explicit bound on log zeta
near the zeros, which this module does not have.

kronecker_search and equidistribution_measure scan the orbit itself:
the heights whose orbit enters a box, and how often it visits one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dirichlet import mangoldt_grid
from .errors import (BranchObstruction, BudgetExceeded, UnsupportedRange,
                     ValidationError)
from .eta import TAIL_TERMS, _eta_tilde_rows
from .torus import _validate_target
from .zeros import ZeroTable, bundled_table
from .zetafun import T_MAX

# D_X's fastest harmonic, n = 299, turns once per 2 pi / log 299 = 1.1
# in t, so a step of 0.02 puts about 55 heights on each of its periods
GRID_STEP = 0.02
FIRST_PASS = 4
# the cut rule's factor and floor on the first pass's gap g: for m = 1 at
# 40 heights in [10, 240], |eta~_1 - D_300| had median 0.030 and maximum
# 0.063 at sigma = 0.6, median 0.0072 and maximum 0.014 at sigma = 0.8,
# and median 0.043 and maximum 0.18 at sigma = 1/2.  The floor alone,
# 4 x 0.1 = 0.4, exceeds each of them, so it keeps every candidate within
# epsilon + 0.4 of a
GAP_FACTOR = 4.0
GAP_FLOOR = 0.1
_GRID_CAP = 1_000_000_000
_EQUI_STEP = 0.01
_EQUI_CHUNK = 2_000_000


@dataclass(frozen=True)
class TorusTarget:
    primes: np.ndarray
    thetas: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        ps = np.asarray(self.primes, dtype=np.int64)
        th = np.asarray(self.thetas, dtype=np.float64)
        if ps.size == 0 or ps.size != th.size:
            raise ValidationError("need matching nonempty primes and angles")
        if ps[0] < 2 or np.any(np.diff(ps) <= 0):
            raise ValidationError("primes must be distinct, ascending, >= 2")
        if not np.all((th >= 0.0) & (th < 1.0)):
            raise ValidationError("angles must lie in [0, 1)")
        if not (0.0 < self.delta < 0.5):
            raise ValidationError("delta must lie in (0, 1/2)")
        object.__setattr__(self, "primes", ps)
        object.__setattr__(self, "thetas", th)


@dataclass(frozen=True)
class HuntConfig:
    t_min: float = 10.0
    t_max: float = 240.0
    eval_budget: int = 48
    min_separation: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.t_min < self.t_max):
            raise ValidationError("need 0 < t_min < t_max")
        if self.eval_budget < 1:
            raise ValidationError("eval_budget must be positive")
        if not self.min_separation >= 0.0:
            raise ValidationError("min_separation must be nonnegative")


@dataclass(frozen=True)
class HuntResult:
    t_witness: Optional[float]
    torus_error: float
    eta_value: Optional[complex]
    target_a: complex
    final_error: float
    est_error: float
    budget_used: int
    success: bool
    diagnostic: str


def kronecker_search(target: TorusTarget, t_min: float, t_max: float,
                     step: float) -> list:
    """Ascending grid heights whose orbit lands within delta of the
    target in every coordinate (circular metric).  May be empty."""
    if not (0.0 < t_min < t_max < math.inf):
        raise ValidationError("need 0 < t_min < t_max, all finite")
    if not (math.isfinite(step) and step > 0.0):
        raise ValidationError("step must be finite and positive")
    bound = target.delta / math.log(float(target.primes[-1]))
    if step > bound * (1.0 + 1e-12):
        raise ValidationError(
            f"step {step:.6g} exceeds delta/log(p_max) = {bound:.6g}; "
            "the orbit could cross the box between grid points")
    n_pts = int(math.floor((t_max - t_min) / step)) + 1
    if n_pts > _GRID_CAP:
        raise BudgetExceeded(f"{n_pts} grid points exceed the search cap")
    freqs = np.log(target.primes.astype(np.float64)) / (2.0 * np.pi)
    hits = []
    for lo in range(0, n_pts, _EQUI_CHUNK):
        hi = min(lo + _EQUI_CHUNK, n_pts)
        ts = t_min + step * np.arange(lo, hi)
        d = np.mod(ts[:, None] * freqs[None, :] - target.thetas[None, :], 1.0)
        circ = np.minimum(d, 1.0 - d)
        ok = np.all(circ < target.delta, axis=1)
        hits.extend(ts[ok].tolist())
    return hits


def equidistribution_measure(box, T: float, primes) -> tuple:
    """(measured, expected) frequency of the orbit visiting a product of
    arcs, sampled on a fine grid up to T."""
    ps = np.asarray(primes, dtype=np.float64)
    if ps.size == 0 or ps.size > 4:
        raise ValidationError("between one and four primes")
    if not np.all((ps >= 2) & np.isfinite(ps)):
        raise ValidationError("primes must be finite and >= 2")
    arcs = np.asarray(box, dtype=np.float64)
    if arcs.ndim != 2 or arcs.shape != (ps.size, 2):
        raise ValidationError("box must give one (lo, hi) arc per prime")
    if not np.all((0.0 <= arcs[:, 0]) & (arcs[:, 0] < arcs[:, 1])
                  & (arcs[:, 1] <= 1.0)):
        raise ValidationError("arcs must satisfy 0 <= lo < hi <= 1")
    if not np.isfinite(T):
        raise ValidationError("T must be finite")
    if T < 1e3:
        raise ValidationError("T below 1e3 says nothing about the limit")
    freqs = np.log(ps) / (2.0 * np.pi)
    n_pts = int(round(T / _EQUI_STEP))
    if n_pts > _GRID_CAP:
        raise BudgetExceeded(f"{n_pts} grid points exceed the search cap")
    count = 0
    for lo in range(0, n_pts, _EQUI_CHUNK):
        hi = min(lo + _EQUI_CHUNK, n_pts)
        ts = _EQUI_STEP * np.arange(lo + 1, hi + 1)
        coords = np.mod(ts[:, None] * freqs[None, :], 1.0)
        inside = np.all((coords >= arcs[None, :, 0])
                        & (coords < arcs[None, :, 1]), axis=1)
        count += int(np.count_nonzero(inside))
    expected = float(np.prod(arcs[:, 1] - arcs[:, 0]))
    return count / n_pts, expected


def _spaced(heights: list, separation: float, budget: int) -> list:
    """Positions of the heights (floats, in order of preference) kept at
    least separation from every height kept before them, at most budget
    of them.

    Float subtraction is monotone, so of the kept heights on either side
    of t the nearest is also nearest in the computed |t - u|: checking
    the two neighbours among the sorted kept heights makes the same
    comparisons as checking them all."""
    kept, picked = [], []           # picked: the kept heights, ascending
    for pos, t in enumerate(heights):
        at = bisect.bisect(picked, t)
        if ((at == 0 or t - picked[at - 1] >= separation)
                and (at == len(picked) or picked[at] - t >= separation)):
            kept.append(pos)
            if len(kept) >= budget:
                break
            picked.insert(at, t)
    return kept


def hunt_value(m: int, sigma: float, a: complex, epsilon: float,
               config: Optional[HuntConfig] = None,
               table: Optional[ZeroTable] = None) -> HuntResult:
    """Search for t with eta~_m(sigma + it) within epsilon of a.

    Never raises on a fruitless search; the result carries success=False
    and a diagnostic instead.  The result is the candidate with the
    least |eta~ - a| + est_error, eta~'s own error estimate, and a
    witness only when that sum is below epsilon: final_error is
    |eta~ - a| there, est_error eta~'s estimate, and torus_error
    |D_X(t) - a|.

    After a first pass of FIRST_PASS candidates, the rest are evaluated
    only where |D_X - a| <= epsilon + GAP_FACTOR max(g, GAP_FLOOR), g the
    largest |eta~ - D_X| that pass measured (all of them if it measured
    none); the diagnostic names g and the nearest skipped |D_X - a|.  A
    failure means "not found in the window", never "unreachable"."""
    a = _validate_target(m, sigma, a, epsilon)
    if config is None:
        config = HuntConfig()
    if not isinstance(config, HuntConfig):
        raise ValidationError(
            f"config must be a HuntConfig, not {type(config).__name__}")
    if table is None:
        table = bundled_table()
    if config.t_max > T_MAX:
        raise UnsupportedRange(
            f"search reaches t={config.t_max:g} beyond zeta's limit "
            f"{T_MAX:g}")
    table.require_coverage(config.t_max)

    count = int(math.floor((config.t_max - config.t_min) / GRID_STEP
                           + 1e-9)) + 1
    grid = mangoldt_grid(m, sigma, config.t_min, GRID_STEP, count,
                         TAIL_TERMS)
    dist = np.abs(grid - a)
    # local minima: the first height of a flat bottom, ends included
    # (beyond either end the distance is taken as infinite)
    low = np.empty(count, dtype=bool)
    low[0] = dist[0] < np.inf
    np.less(dist[1:], dist[:-1], out=low[1:])
    low[:-1] &= dist[:-1] <= dist[1:]
    low[-1] &= dist[-1] <= np.inf
    minima = low.nonzero()[0]
    order = minima[np.argsort(dist[minima], kind="stable")]
    # grid height j is t_min + GRID_STEP j, formed where it is read
    chosen = order[_spaced((config.t_min + GRID_STEP * order).tolist(),
                           config.min_separation,
                           config.eval_budget)].tolist()

    best = None
    used = 0
    obstructed = 0

    def evaluate(batch):
        """eta~ at the batch's heights; keeps the closest to a in best and
        returns |eta~ - D_X| at the heights that gave a value."""
        nonlocal best, used, obstructed
        gaps = []
        ts = config.t_min + GRID_STEP * np.array(batch)
        for i, t, ev in zip(batch, ts.tolist(),
                            _eta_tilde_rows(m, sigma, ts, table)):
            if isinstance(ev, BranchObstruction):
                obstructed += 1
                continue
            if isinstance(ev, Exception):
                raise ev
            used += 1
            gaps.append(abs(ev.value - grid[i]))
            err = abs(ev.value - a)
            if best is None or err + ev.est_error < best[0] + best[1]:
                best = (err, ev.est_error, t, complex(ev.value),
                        float(dist[i]))
        return gaps

    gaps = evaluate(chosen[:FIRST_PASS])
    rest = chosen[FIRST_PASS:]
    cut_note = ""
    if best is not None and best[0] + best[1] < epsilon:
        rest = []
    elif gaps:
        gap = max(gaps)
        reach = epsilon + GAP_FACTOR * max(gap, GAP_FLOOR)
        # chosen ascends in |D_X - a|: the kept candidates are a prefix
        kept = int(np.searchsorted(dist[rest], reach, side="right"))
        cut_note = f", first-pass gap g = max |eta~ - D_X| = {gap:.3g}"
        if kept < len(rest):
            cut_note += (f", {len(rest) - kept} skipped with nearest "
                         f"|D_X - a| = {dist[rest[kept]]:.3g} > {reach:.3g}")
        rest = rest[:kept]
    if rest:
        evaluate(rest)

    note = (f"{minima.size} local minima of |D_X - a| on {count} heights, "
            f"{used} evaluated, {obstructed} obstructed{cut_note}")
    if best is None:
        return HuntResult(None, float(dist[chosen[0]]), None, a, math.inf,
                          math.inf, used, False,
                          f"all {obstructed} candidates sat on guarded "
                          "ordinates; " + note)
    err, est, t_wit, val, torus_err = best
    ok = err + est < epsilon
    return HuntResult(t_wit, torus_err, val, a, err, est, used, ok,
                      note if ok else "closest candidate misses: " + note)
