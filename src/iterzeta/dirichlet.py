"""Polylogarithms, prime Dirichlet approximants, and their mean-square
distance to the iterated integrals.

The approximant of interest is

    D_X(m, sigma, t) = sum_{p <= X} Li_{m+1}(p^(-sigma-it)) / (log p)^m,

whose harmonics k >= 2 regroup exactly into the von Mangoldt sum

    sum_{2 <= n <= X} Lambda(n) / (n^(sigma+it) (log n)^(m+1))

plus the tail of prime powers exceeding X; li_vs_mangoldt_gap computes
that tail so the decomposition is checkable to rounding error.
mean_square_error measures (1/T) int_14^T |eta_tilde - D_X|^2 dt on a
grid, the desk-scale stand-in for the asymptotic mean-value statement.
Its grid's cache entry, keyed by (m, sigma, T, step, table.key), holds
the eta_tilde column and the running D_X totals after each full block
of _polylog_sum's primes, at most POLYLOG_KEPT = 2^16 numbers (1 MiB) a
grid: a sweep over X pays only for the primes past the last total it
covers, and, since it adds the same blocks in the same order, its D_X
and report are bitwise the cold ones.

Every prime-polylog sum in the package (D_X; torus's S, its reference
value and harmonic bounds) is _polylog_sum, or, for the window of a
construction, its term loop _polylog_prefix on the polygon's blocks.
It uses the order of the primes: its points have modulus |z_p| = p^-c,
which falls with p, so each series term runs on a prefix of the primes,
with lengths from the table's logs, and no point is sorted.  It runs in
blocks of about POLYLOG_CHUNK points, whose buffers stay in cache.
polylog_batch, for points of any modulus, sorts them by length into the
same term loop.  mangoldt_sum and
li_vs_mangoldt_gap stay apart from both as the decomposition check's
reference.  orbit_grid sums sum_n c_n n^(-it) on a grid of equispaced
heights, split as block start + offset, as one real product of two
phase matrices that depend on the grid and the logs alone; the process
keeps those of the last _ORBIT_CACHE_CAP = 4 grids (_ORBIT_CACHE), 0.27
MB at the hunt's window.  mangoldt_grid is orbit_grid with the von
Mangoldt coefficients, over eta's one list of prime powers;
mangoldt_sum is its one-height call, which keeps nothing, and the hunt
ranks its candidate heights by it.  The mean-square sweep's _li_grid
forms p^(-it) on its grid by the same split, but not from the kept
phases: it takes exp(-(sigma + i t_b) log p) as one complex exp, whose
bits the mean square keeps; dirichlet_li_sum is its one-height call, and
keeps no totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, floor, log, sqrt

import numpy as np

from .errors import (ConvergenceDomain, CutoffExceeded, GuardBand,
                     TooFewSamples, ValidationError, float_array,
                     require_finite)
from .eta import _eta_tilde_rows, _prime_powers, \
    _validate_order_sigma
from .lru import LRUDict
from .primes import PrimeTable, sieve_primes
from .zeros import ZeroTable

POLYLOG_RADIUS = 0.95
# points per block of _polylog_sum, whose few buffers of a block then
# stay in L2; a block holds at least POLYLOG_MIN_PRIMES primes, however
# many rows share them (on 2,500-10,000 rows, larger floors, which make
# blocks past L2, measured no faster)
POLYLOG_CHUNK = 2 ** 15
POLYLOG_MIN_PRIMES = 4
# numbers of running totals that _polylog_sum keeps for one caller: 1 MiB
# of complex totals per sweep grid, however fine the grid
POLYLOG_KEPT = 2 ** 16
_SERIES_EPS = 1e-16
_TAIL_EPS = 1e-15
# orbit_grid's phase matrices, by (the logs' bytes, t0, step, count)
_ORBIT_CACHE_CAP = 4
_ORBIT_CACHE = LRUDict(_ORBIT_CACHE_CAP)


def polylog(order: int, z: complex) -> complex:
    """Li_order(z) = sum_{n>=1} z^n / n^order by direct series.

    Restricted to |z| <= 0.95 where convergence is geometric; every use
    in this package has |z| <= 2^(-1/2).
    """
    return complex(polylog_batch(order, np.array([z]))[0])


def polylog_batch(order: int, zs: np.ndarray) -> np.ndarray:
    """Li_order at every point of zs (any shape), |z| <= POLYLOG_RADIUS.

    Each point is summed to its own length, the smallest n >= 1 whose
    tail bound |z|^(n+1) / (1 - |z|) is below 1e-16, so its value is
    bitwise the same whichever points share its batch.  Sorted by
    length, the points still summing are a prefix that shrinks.
    """
    if order < 1 or order != int(order):
        raise ValidationError("polylog order must be a positive integer")
    order = int(order)
    zs = float_array(zs, complex)
    flat = zs.ravel()
    r = np.abs(flat)
    if not np.all(r <= POLYLOG_RADIUS):
        raise ConvergenceDomain(
            f"polylog series restricted to |z| <= {POLYLOG_RADIUS}")
    if flat.size == 0:
        return np.zeros_like(zs)
    with np.errstate(divide="ignore"):
        lengths = np.maximum(
            np.floor(np.log(_SERIES_EPS * (1.0 - r)) / np.log(r)),
            1.0).astype(np.intp)
    by_length = np.argsort(-lengths)
    # live[n]: how many points, a prefix of the sorted points, take term n
    live = np.cumsum(np.bincount(lengths)[::-1])[::-1].tolist()
    out = np.empty_like(flat)
    out[by_length] = _polylog_prefix(order, flat[by_length], live)
    return out.reshape(zs.shape)


def _polylog_prefix(order: int, z: np.ndarray, live,
                    acc: np.ndarray | None = None) -> np.ndarray:
    """sum_n z^n / n^order, term n on the first live[n] entries of axis 0
    of z (live non-increasing, from n = 2 up to len(live) - 1), added
    into acc: by default a copy of z, the n = 1 term, and zeros for the
    harmonics n >= 2 alone."""
    power, spare = z.copy(), np.empty_like(z)
    if acc is None:
        acc = z.copy()
    power_re, spare_re, acc_re = (_reals(a) for a in (power, spare, acc))
    for n in range(2, len(live)):
        k = live[n]
        if k == 0:
            break
        # into a second buffer: numpy's in-place complex multiply rounds
        # differently from its vector loop, which would tie a point's
        # value to its position in the batch
        np.multiply(power[:k], z[:k], out=spare[:k])
        power, spare = spare, power
        power_re, spare_re = spare_re, power_re
        # z^n / n^order through the free buffer, on the real and
        # imaginary parts: numpy divides a complex by a real as a product
        # with its reciprocal, so these are its bits at a third the cost
        np.multiply(power_re[:k], 1.0 / n ** order, out=spare_re[:k])
        acc_re[:k] += spare_re[:k]
    return acc


def _reals(a: np.ndarray) -> np.ndarray:
    """A C-ordered complex array as a float view of shape (len(a), 2 *
    entries per row): its real and imaginary parts, row by row."""
    return a.reshape(a.shape[0], -1).view(np.float64)


def _live_counts(logs: np.ndarray, c: float) -> np.ndarray:
    """live[n] for the points z_p, |z_p| = exp(-c log p), of the primes
    with these ascending logs: how many of them take term n under
    polylog_batch's length rule.

    A point takes term n >= 2 when r^n >= 1e-16 (1 - r), r = |z|, that
    is for r at least the fixed point r_n of r = (1e-16 (1 - r))^(1/n),
    so the primes taking it are those up to log p = -log(r_n) / c.  The
    iteration contracts by r / (n (1 - r)) < 1/36 at r = r_n, since
    r |log r| / (1 - r) < 1 and n |log r_n| > -log 1e-16 there; eight
    steps from r = 1e-16^(1/n) give log r_n to 1e-14 relative, which
    moves a cut only across a prime whose tail bound is 1e-16 anyway.
    """
    r0 = exp(-c * logs[0])
    if r0 > POLYLOG_RADIUS:
        raise ConvergenceDomain(
            f"polylog series restricted to |z| <= {POLYLOG_RADIUS}")
    top = max(int(floor(log(_SERIES_EPS * (1.0 - r0)) / log(r0))), 1)
    n = np.arange(2, top + 1)
    log_r = np.full(n.size, log(_SERIES_EPS)) / n
    for _ in range(8):
        log_r = (log(_SERIES_EPS) + np.log1p(-np.exp(log_r))) / n
    live = np.empty(top + 1, dtype=np.intp)
    live[:2] = logs.size
    live[2:] = np.searchsorted(logs, -log_r / c, side="right")
    return live


def _polylog_sum(order: int, logs: np.ndarray, power: int, c: float,
                 z_block, rows: int = 1, kept: dict | None = None):
    """sum_p Li_order(z_p) / (log p)^power over the primes with these
    ascending logs, one sum per row, for points of modulus
    |z_p| = exp(-c log p).

    z_block(lo, hi) builds the points of the primes logs[lo:hi],
    prime-major: shape (hi - lo,), or (hi - lo, k) for k <= rows rows.
    The moduli fall along the primes, so each series term runs on a
    prefix of them, with lengths from the logs alone.  Blocks hold
    POLYLOG_CHUNK // rows primes, but no fewer than POLYLOG_MIN_PRIMES,
    so a block's buffers stay in cache for any number of primes, and a
    grid of thousands of rows still takes a few primes a step.  Each row
    is summed over its primes on its own, so its value does not depend
    on the other rows.

    kept, for a caller that sums over longer and shorter prefixes of the
    same primes with the same z_block, maps the block size to the running
    totals after each full block, counted from the first prime: the sum
    starts from the last total its primes cover, and keeps the totals of
    the full blocks it passes, at most POLYLOG_KEPT numbers in all.  It
    adds the same blocks in the same order, so its value is bitwise the
    one without kept; a block the primes cover only in part is neither
    read nor kept.
    """
    if logs.size == 0:
        return 0.0 + 0.0j
    live = _live_counts(logs, c)
    step = max(POLYLOG_MIN_PRIMES, POLYLOG_CHUNK // rows)
    total, start, totals = 0.0 + 0.0j, 0, None
    if kept is not None:
        if step not in kept:    # made under a patched POLYLOG_CHUNK
            kept.clear()
        totals = kept.setdefault(step, [])
        done = min(len(totals), logs.size // step)
        if done:
            total, start = totals[done - 1], done * step
    for lo in range(start, logs.size, step):
        hi = min(lo + step, logs.size)
        z = z_block(lo, hi)
        li = _polylog_prefix(order, z, np.clip(live - lo, 0, hi - lo))
        # li / (log p)^power in place, as the reciprocal's product that
        # numpy's complex-by-real division would make
        recip = 1.0 / logs[lo:hi] ** power
        if z.ndim == 1:
            # numpy's complex-by-real product has the bits of the parts'
            # products, without the two-wide inner loop of _reals(li)
            li *= recip
            total = total + np.sum(li)
        else:
            _reals(li)[...] *= recip[:, None]
            # rows made contiguous: a pairwise sum per row, whatever the
            # number of rows
            total = total + np.sum(li.T.copy(), axis=-1)
        # a full block past the kept ones (the loop starts at the end of
        # the last one) while there is room: total is never written to
        if (totals is not None and hi - lo == step
                and (len(totals) + 1) * np.size(total) <= POLYLOG_KEPT):
            totals.append(total)
    return total


def _prime_logs(X: float, primes: PrimeTable) -> np.ndarray:
    """log p for the primes p <= X of the table."""
    if X > primes.limit:
        raise CutoffExceeded(f"X={X:g} beyond sieve limit {primes.limit}")
    return primes.logs[:primes.count_upto(X)]


def dirichlet_li_sum(m: int, sigma: float, t: float, X: float,
                     primes: PrimeTable) -> complex:
    """sum_{p <= X} Li_{m+1}(p^(-sigma-it)) / (log p)^m, exact finite
    sum: the one-height call of _li_grid (0 with no prime up to X)."""
    _validate_order_sigma(m, sigma)
    require_finite(t=t, X=X)
    logs = _prime_logs(X, primes)
    return complex(_li_grid(m, sigma, logs, t, 1.0, 1, 0))


def _grid_split(t0: float, step: float, count: int):
    """Block starts t_b and offsets t_r of the heights t0 + step j,
    j < count: with Q = ceil(sqrt(count)) offsets, t_j = t_b + t_r for
    j = Q b + r."""
    q = ceil(sqrt(count))
    return (t0 + step * q * np.arange(ceil(count / q)),
            step * np.arange(q))


def _li_grid(m: int, sigma: float, logs: np.ndarray, t0: float,
             step: float, count: int, cols: np.ndarray,
             kept: dict | None = None) -> np.ndarray:
    """sum_p Li_{m+1}(p^(-sigma-it)) / (log p)^m over the primes with
    these logs, at the heights t = t0 + step j, j in cols, of a grid of
    count heights.

    p^(-it) is p^(-i t_b) p^(-i t_r) on mangoldt_grid's block x offset
    split of the whole grid, so a height's value depends on (t0, step,
    count, j) alone, not on which other heights are asked for.  Every
    height is summed, and cols chosen at the end, so the totals kept (see
    _polylog_sum) serve any cols."""
    blocks, offsets = _grid_split(t0, step, count)

    def z_block(lo, hi):
        lg = logs[lo:hi, None, None]
        z = (np.exp(-(sigma + 1j * blocks[:, None]) * lg)
             * np.exp(-1j * offsets * lg))
        return z.reshape(hi - lo, -1)[:, :count]
    d = _polylog_sum(m + 1, logs, m, sigma, z_block, rows=count, kept=kept)
    return np.broadcast_to(d, count)[cols]     # 0 with no prime


def _orbit_phases(logs: np.ndarray, t0: float, step: float, count: int):
    """The phases of the grid t0 + step j, j < count, split as _grid_split
    does, read-only: the (Re, Im) parts of e^(-i t_b log n) as the rows
    of the block starts, then their imaginary parts, and e^(-i t_r log n)
    as a real view, an (Re, Im) column pair per offset.  Kept in
    _ORBIT_CACHE, but for a one-height grid."""
    def make():
        blocks, offsets = _grid_split(t0, step, count)
        left = np.exp(-1j * np.multiply.outer(blocks, logs))
        phases = (np.concatenate([left.real, left.imag]),
                  np.exp(-1j * np.multiply.outer(logs, offsets))
                  .view(np.float64))
        for arr in phases:
            arr.flags.writeable = False
        return phases
    if count == 1:
        return make()
    return _ORBIT_CACHE.get_or_set((logs.tobytes(), t0, step, count), make)


def orbit_grid(coef: np.ndarray, logs: np.ndarray, t0: float, step: float,
               count: int) -> np.ndarray:
    """sum_n coef_n e^(-i t log n) over the terms with these logs, at the
    count heights t = t0 + step j, j < count.

    Each height splits as t_b + t_r (_grid_split), so the grid is one
    (blocks x terms) . (terms x offsets) product of coef_n e^(-i t_b log n)
    and e^(-i t_r log n), real on the (Re, Im) parts.  Its bits do not
    depend on the BLAS thread count, nor, measured, its cost: at the
    hunt's default window the product took 0.09-0.12 ms in four fresh
    processes at default OpenBLAS threading and 0.15 ms at one thread,
    on a shared 2-core Xeon.

    The two phase matrices depend on the grid and the logs alone; the
    process keeps those of the last _ORBIT_CACHE_CAP grids in
    _ORBIT_CACHE, keyed by the logs' bytes, so a key never matches
    another table of logs.  At the hunt's default window (79 prime
    powers) they are 107 x 79 and 79 x 108 complex numbers, 0.27 MB; at
    t_max = zeta's T_MAX, 1.8 MB.  A one-height grid keeps nothing.  A
    height's value depends on (coef, logs, t0, step, count, j) alone, not
    on which other heights are asked for, nor on the cache."""
    left, right = _orbit_phases(np.asarray(logs, dtype=np.float64), t0,
                                step, count)
    # rows Re L then Im L of L = coef e^(-i t_b log n), against the
    # (Re, Im) columns of each offset
    parts = (coef * left) @ right
    re, im = np.split(parts, 2)
    grid = np.empty((re.shape[0], right.shape[1] // 2), dtype=np.complex128)
    np.subtract(re[:, 0::2], im[:, 1::2], out=grid.real)
    np.add(re[:, 1::2], im[:, 0::2], out=grid.imag)
    return grid.ravel()[:count]


def mangoldt_grid(m: int, sigma: float, t0: float, step: float, count: int,
                  X: float) -> np.ndarray:
    """sum_{2 <= n <= X} Lambda(n) / (n^(sigma+it) (log n)^(m+1)) at the
    count heights t = t0 + step j, j < count: orbit_grid with the
    coefficients n^-sigma / (k (log n)^m) of the prime powers n = p^k
    <= X.

    Lambda(n) = log p for prime powers n = p^k, zero otherwise; the
    log n = k log p denominator folds into 1/(k (log n)^m)."""
    _validate_order_sigma(m, sigma)
    require_finite(t0=t0, step=step, X=X)
    if count < 1:
        raise ValidationError("need at least one height")
    logs, inv_k = _prime_powers(int(X))
    coef = inv_k * np.exp(-sigma * logs) / logs ** m
    return orbit_grid(coef, logs, t0, step, count)


def mangoldt_sum(m: int, sigma: float, t: float, X: float) -> complex:
    """sum_{2 <= n <= X} Lambda(n) / (n^(sigma+it) (log n)^(m+1)), the
    one-height call of mangoldt_grid."""
    return complex(mangoldt_grid(m, sigma, t, 1.0, 1, X)[0])


def li_vs_mangoldt_gap(m: int, sigma: float, t: float, X: float,
                       primes: PrimeTable) -> complex:
    """The prime-power tail sum_{p <= X} sum_{k: p^k > X}
    p^(-k(sigma+it)) / (k^(m+1) (log p)^m), truncated below 1e-15.

    One pass per power over the primes still summing: each starts at the
    smallest k with p^k > X, and stops after the term whose geometric
    envelope r^k r / (1 - r), r = p^-sigma, falls below 1e-15."""
    _validate_order_sigma(m, sigma)
    require_finite(t=t, X=X)
    logs = _prime_logs(X, primes)
    if logs.size == 0:
        return 0.0 + 0.0j
    ps = primes.primes[:logs.size]
    # the smallest k with p^k > X, from the logs and set exact in integers
    # (p^k <= X p <= 1e16 fits int64)
    x = int(floor(X))
    k = np.floor(log(X) / logs).astype(np.int64) + 1
    k += ps ** k <= x
    k -= ps ** (k - 1) > x
    r = np.exp(-sigma * logs)
    s = sigma + 1j * t
    total = 0.0 + 0.0j
    while logs.size:
        weight = k ** (m + 1) * logs ** m
        total += np.sum(np.exp(-s * k * logs) / weight)
        # remaining tail under a geometric envelope
        going = r ** k / weight * r / (1.0 - r) >= _TAIL_EPS
        logs, r, k = logs[going], r[going], k[going] + 1
    return complex(total)


@dataclass(frozen=True)
class MeanSquareReport:
    m: int
    sigma: float
    X: float
    T: float
    grid_step: float
    mse: float
    bound_ratio: float
    skipped_fraction: float

    def __post_init__(self) -> None:
        if self.mse < 0.0 or not np.isfinite(self.bound_ratio):
            raise ValidationError("mean-square report out of range")


# eta~ grid columns, each with the D_X totals its sweeps keep, by (m, sigma,
# T, step, table.key)
_ETA_GRID_CACHE_CAP = 8
_ETA_GRID_CACHE = LRUDict(_ETA_GRID_CACHE_CAP)


def _eta_tilde_grid(m: int, sigma: float, T: float, grid_step: float,
                    table: ZeroTable):
    """(ts, eta_tilde on the uniform grid ts, kept D_X totals): eta_tilde
    NaN where the ray refuses a height as GuardBand; a stall raises.
    Cached so sweeps over X reuse it."""
    def column():
        ts = np.arange(14.0, T + 1e-9, grid_step)
        vals = np.full(ts.size, np.nan + 0j, dtype=complex)
        for i, ev in enumerate(_eta_tilde_rows(m, sigma, ts, table)):
            if isinstance(ev, GuardBand):
                continue
            if isinstance(ev, Exception):
                raise ev
            vals[i] = ev.value
        return ts, vals, {}

    return _ETA_GRID_CACHE.get_or_set((m, sigma, T, grid_step, table.key),
                                      column)


def mean_square_error(m: int, sigma: float, X: float, T: float,
                      grid_step: float, table: ZeroTable,
                      primes: PrimeTable | None = None) -> MeanSquareReport:
    """Trapezoidal estimate of (1/T) int_14^T |eta_tilde - D_X|^2 dt.

    Guard-zone grid points are skipped and reported as a fraction;
    bound_ratio divides the result by the reference shape
    X^(1-2 sigma) / (log X)^(2m).

    The grid's entry in _ETA_GRID_CACHE, keyed by (m, sigma, T,
    grid_step, table.key), keeps with its eta_tilde column D_X
    at every height of the grid after each full block of _polylog_sum's
    primes, counted from 2, up to POLYLOG_KEPT = 2^16 numbers (1 MiB) a
    grid.  A call starts from the last total its primes cover, whatever
    the order of the X, and sums on in the same blocks; a block it covers
    in part is neither read nor kept, so D_X and the report are bitwise
    the cold ones.  The totals depend on the primes alone, not on the
    table that holds them: a table is all the primes up to its limit."""
    _validate_order_sigma(m, sigma)
    require_finite(X=X, T=T, grid_step=grid_step)
    if grid_step > 0.25 or grid_step <= 0.0:
        raise ValidationError("grid_step must be in (0, 0.25]")
    if T < 14.0:
        raise ValidationError("mean square starts at t = 14; need T >= 14")
    if X < 3.0:
        raise ValidationError("cutoff X must be at least 3")
    table.require_coverage(T)
    if primes is None:
        primes = sieve_primes(max(3, int(X)))
    logs = _prime_logs(X, primes)

    ts, eta_vals, kept = _eta_tilde_grid(m, sigma, T, grid_step, table)
    keep = ~np.isnan(eta_vals)
    skipped = 1.0 - keep.sum() / ts.size
    if skipped > 0.20:
        raise TooFewSamples(
            f"{skipped:.0%} of the grid fell in guard zones")

    # D_X at every kept height in one (prime x height) pass
    d = _li_grid(m, sigma, logs, float(ts[0]), grid_step, ts.size,
                 np.flatnonzero(keep), kept)
    diff2 = np.abs(eta_vals[keep] - d) ** 2
    mse = float(np.trapezoid(diff2, ts[keep]) / T)
    shape = X ** (1.0 - 2.0 * sigma) / np.log(X) ** (2 * m)
    return MeanSquareReport(m, sigma, float(X), float(T), float(grid_step),
                            mse, mse / shape, float(skipped))
