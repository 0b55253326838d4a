"""Finding heights where the weighted integral hits a prescribed value.

The map t -> (t log p / 2 pi mod 1)_p over the first few primes fills its
torus densely (the log p are rationally independent), and the weighted
integral is, up to a small-noise remainder, the torus sum S evaluated at
those coordinates.  So: pick angles on a few primes realizing the target
through the polygon construction, locate grid heights whose torus orbit
enters a small box around those angles, rank the candidates by the exact
surrogate error, and spend the evaluation budget on the best of them.

The chosen candidates are evaluated together, in one pass of
eta._eta_tilde_rows: one branch ladder resolution and one adaptive
quadrature over all their heights, each height with its own panels.  A
candidate on a guarded ordinate, or whose ray stalls on a zero, counts
as obstructed; the closest of the others is the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BranchObstruction, BudgetExceeded, TableCoverage,
                     ValidationError)
from .eta import _eta_tilde_rows
from .polygon import RadiiSet, polygon_angles
from .primes import sieve_primes
from .torus import _s_sum_arrays, _validate_torus, first_harmonic_radii
from .zeros import ZeroTable, bundled_table

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
        if np.any((th < 0.0) | (th >= 1.0)):
            raise ValidationError("angles must lie in [0, 1)")
        if not (0.0 < self.delta < 0.5):
            raise ValidationError("delta must lie in (0, 1/2)")
        object.__setattr__(self, "primes", ps)
        object.__setattr__(self, "thetas", th)


@dataclass(frozen=True)
class HuntConfig:
    n_search: int = 5
    delta: float = 0.25
    t_min: float = 10.0
    t_max: float = 240.0
    step: Optional[float] = None
    eval_budget: int = 48
    min_separation: float = 0.5

    def __post_init__(self) -> None:
        if self.n_search < 3:
            raise ValidationError("need at least three search primes")
        if not (0.0 < self.delta < 0.5):
            raise ValidationError("delta must lie in (0, 1/2)")
        if not (0.0 < self.t_min < self.t_max):
            raise ValidationError("need 0 < t_min < t_max")
        if self.step is not None and self.step <= 0.0:
            raise ValidationError("step must be positive")
        if self.eval_budget < 1:
            raise ValidationError("eval_budget must be positive")
        if self.min_separation < 0.0:
            raise ValidationError("min_separation must be nonnegative")


@dataclass(frozen=True)
class HuntResult:
    t_witness: Optional[float]
    torus_error: float
    eta_value: Optional[complex]
    target_a: complex
    final_error: float
    budget_used: int
    success: bool
    diagnostic: str


def kronecker_search(target: TorusTarget, t_min: float, t_max: float,
                     step: float) -> list:
    """Ascending grid heights whose orbit lands within delta of the
    target in every coordinate (circular metric).  May be empty."""
    if not (0.0 < t_min < t_max):
        raise ValidationError("need 0 < t_min < t_max")
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
    if np.any(ps < 2):
        raise ValidationError("primes must be >= 2")
    arcs = np.asarray(box, dtype=np.float64)
    if arcs.ndim != 2 or arcs.shape != (ps.size, 2):
        raise ValidationError("box must give one (lo, hi) arc per prime")
    if np.any(arcs[:, 0] < 0.0) or np.any(arcs[:, 1] > 1.0) \
            or np.any(arcs[:, 0] >= arcs[:, 1]):
        raise ValidationError("arcs must satisfy 0 <= lo < hi <= 1")
    if T < 1e3:
        raise ValidationError("T below 1e3 says nothing about the limit")
    freqs = np.log(ps) / (2.0 * np.pi)
    n_pts = int(round(T / _EQUI_STEP))
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


def _realize_on_primes(m: int, sigma: float, a: complex, ps: np.ndarray,
                       logs: np.ndarray):
    """Angles on the search primes with S(theta) = a when reachable.

    Polygon on the first harmonics, then a fixed-point correction feeding
    the higher harmonics back into the polygon target.  Targets outside
    the reachable annulus are clamped to its boundary, so an impossible
    request converges to the nearest boundary point and fails honestly
    downstream."""
    radii = first_harmonic_radii(m, sigma, ps)
    total = float(radii.sum())
    lo_r = max(2.0 * radii.max() - total, 0.0)
    hi_r = total * (1.0 - 1e-9)

    def clamp(z: complex) -> complex:
        az = abs(z)
        if az > hi_r:
            return z * (hi_r / az)
        if az < lo_r:
            return complex(lo_r) if az == 0.0 else z * (lo_r * (1.0 + 1e-9) / az)
        return z

    rs = RadiiSet(radii, labels=ps)
    z = clamp(a)
    assign = polygon_angles(rs, z)
    for _ in range(60):
        s_val = complex(_s_sum_arrays(logs, assign.thetas, sigma, m))
        higher = s_val - assign.achieved
        z_new = clamp(a - higher)
        if abs(z_new - z) < 1e-13:
            break
        z = z_new
        assign = polygon_angles(rs, z)
    s_val = complex(_s_sum_arrays(logs, assign.thetas, sigma, m))
    return assign.thetas, abs(s_val - a)


def hunt_value(m: int, sigma: float, a: complex, epsilon: float,
               config: Optional[HuntConfig] = None,
               table: Optional[ZeroTable] = None) -> HuntResult:
    """Search for t with eta~_m(sigma + it) within epsilon of a.

    Never raises on a fruitless search; the result carries success=False
    and a diagnostic instead."""
    _validate_torus(m, sigma)
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise ValidationError("epsilon must be positive")
    a = complex(a)
    if config is None:
        config = HuntConfig()
    if table is None:
        table = bundled_table()
    if config.t_max > table.coverage:
        raise TableCoverage(
            f"search reaches t={config.t_max} but the zero table only "
            f"covers {table.coverage:.3f}")

    pt = sieve_primes(200)
    ps = pt.first(config.n_search)
    logs = np.log(ps.astype(np.float64))
    thetas, realize_err = _realize_on_primes(m, sigma, a, ps, logs)
    target = TorusTarget(ps, thetas, config.delta)

    step = config.step
    if step is None:
        step = config.delta / math.log(float(ps[-1])) / 1.05
    hits = kronecker_search(target, config.t_min, config.t_max, step)
    if not hits:
        return HuntResult(None, realize_err, None, a, math.inf, 0, False,
                          "no torus-box hits on the search grid")

    ts = np.asarray(hits)
    coords = np.mod(ts[:, None] * logs[None, :] / (2.0 * np.pi), 1.0)
    pred = np.abs(_s_sum_arrays(logs, coords, sigma, m) - a)

    order = np.lexsort((ts, pred))
    chosen = []
    for i in order:
        if all(abs(ts[i] - ts[j]) >= config.min_separation for j in chosen):
            chosen.append(int(i))
        if len(chosen) >= config.eval_budget:
            break

    best = None
    used = 0
    obstructed = 0
    for i, ev in zip(chosen, _eta_tilde_rows(m, sigma, ts[chosen], table)):
        if isinstance(ev, BranchObstruction):
            obstructed += 1
            continue
        if isinstance(ev, Exception):
            raise ev
        used += 1
        err = abs(ev.value - a)
        if best is None or err < best[0]:
            best = (err, float(ts[i]), complex(ev.value), float(pred[i]))

    if best is None:
        return HuntResult(None, realize_err, None, a, math.inf, used, False,
                          f"all {obstructed} candidates sat on guarded "
                          "ordinates")
    err, t_wit, val, torus_err = best
    ok = err < epsilon
    note = (f"{len(hits)} box hits, {used} evaluated, "
            f"{obstructed} obstructed; realization error {realize_err:.3g}")
    return HuntResult(t_wit, torus_err, val, a, err, used, ok,
                      note if ok else "closest candidate misses: " + note)
