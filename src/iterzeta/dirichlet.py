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
reference.  mangoldt_grid evaluates the von Mangoldt sum on a whole grid
of heights, over eta's one list of prime powers; mangoldt_sum is its
one-height call, and the hunt ranks its candidate heights by it.  The
mean-square sweep forms p^(-it) on its grid by the same block x offset
split.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, floor, log, sqrt

import numpy as np

from .errors import (ConvergenceDomain, CutoffExceeded, GuardBand,
                     TooFewSamples, ValidationError)
from .eta import ABS_TOL, _eta_tilde_rows, _prime_powers
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
_SERIES_EPS = 1e-16
_TAIL_EPS = 1e-15


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
    zs = np.asarray(zs, dtype=complex)
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
                 z_block, rows: int = 1):
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
    """
    if logs.size == 0:
        return 0.0 + 0.0j
    live = _live_counts(logs, c)
    step = max(POLYLOG_MIN_PRIMES, POLYLOG_CHUNK // rows)
    total = 0.0 + 0.0j
    for lo in range(0, logs.size, step):
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
    return total


def _prime_logs(X: float, primes: PrimeTable) -> np.ndarray:
    """log p for the primes p <= X of the table."""
    if X > primes.limit:
        raise CutoffExceeded(f"X={X:g} beyond sieve limit {primes.limit}")
    return primes.logs[:primes.count_upto(X)]


def dirichlet_li_sum(m: int, sigma: float, t: float, X: float,
                     primes: PrimeTable) -> complex:
    """sum_{p <= X} Li_{m+1}(p^(-sigma-it)) / (log p)^m, exact finite sum."""
    logs = _prime_logs(X, primes)
    if sigma < 0.5:
        raise ValidationError("sigma must be >= 1/2")
    s = sigma + 1j * t
    return complex(_polylog_sum(m + 1, logs, m, sigma,
                                lambda lo, hi: np.exp(-s * logs[lo:hi])))


def _grid_split(t0: float, step: float, count: int):
    """Block starts t_b and offsets t_r of the heights t0 + step j,
    j < count: with Q = ceil(sqrt(count)) offsets, t_j = t_b + t_r for
    j = Q b + r."""
    q = ceil(sqrt(count))
    return (t0 + step * q * np.arange(ceil(count / q)),
            step * np.arange(q))


def _li_grid(m: int, sigma: float, logs: np.ndarray, t0: float,
             step: float, count: int, cols: np.ndarray) -> np.ndarray:
    """sum_p Li_{m+1}(p^(-sigma-it)) / (log p)^m over the primes with
    these logs, at the heights t = t0 + step j, j in cols, of a grid of
    count heights.

    p^(-it) is p^(-i t_b) p^(-i t_r) on mangoldt_grid's block x offset
    split of the whole grid, so a height's value depends on (t0, step,
    count, j) alone, not on which other heights are asked for."""
    blocks, offsets = _grid_split(t0, step, count)
    jb, jr = np.divmod(cols, offsets.size)

    def z_block(lo, hi):
        lg = logs[lo:hi, None]
        return (np.exp(-(sigma + 1j * blocks) * lg).take(jb, axis=1)
                * np.exp(-1j * offsets * lg).take(jr, axis=1))
    return _polylog_sum(m + 1, logs, m, sigma, z_block, rows=count)


def mangoldt_grid(m: int, sigma: float, t0: float, step: float, count: int,
                  X: float) -> np.ndarray:
    """sum_{2 <= n <= X} Lambda(n) / (n^(sigma+it) (log n)^(m+1)) at the
    count heights t = t0 + step j, j < count.

    Lambda(n) = log p for prime powers n = p^k, zero otherwise; the
    log n = k log p denominator folds into 1/(k (log n)^m).  Each height
    splits as t_b + t_r (_grid_split), so the grid is one complex
    (blocks x prime powers) . (prime powers x offsets) matrix product of
    n^-(sigma + i t_b) / (k (log n)^m) and n^(-i t_r)."""
    if count < 1:
        raise ValidationError("need at least one height")
    logs, inv_k = _prime_powers(int(X))
    blocks, offsets = _grid_split(t0, step, count)
    coef = inv_k * np.exp(-sigma * logs) / logs ** m
    grid = (coef * np.exp(-1j * np.multiply.outer(blocks, logs))) \
        @ np.exp(-1j * np.multiply.outer(logs, offsets))
    return grid.ravel()[:count]


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
    if X > primes.limit:
        raise CutoffExceeded(f"X={X:g} beyond sieve limit {primes.limit}")
    n = primes.count_upto(X)
    ps, logs = primes.primes[:n], primes.logs[:n]
    if n == 0:
        return 0.0 + 0.0j
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


# eta~ grid columns by (m, sigma, T, step, table.key, abs_tol); a sweep
# over X reads one column
_ETA_GRID_CACHE_CAP = 8
_ETA_GRID_CACHE = LRUDict(_ETA_GRID_CACHE_CAP)


def _eta_tilde_grid(m: int, sigma: float, T: float, grid_step: float,
                    table: ZeroTable, abs_tol: float):
    """eta_tilde on the uniform grid, NaN where the ray refuses a height
    as GuardBand; a stall raises.  Cached so sweeps over X reuse it."""
    def column():
        ts = np.arange(14.0, T + 1e-9, grid_step)
        vals = np.full(ts.size, np.nan + 0j, dtype=complex)
        for i, ev in enumerate(_eta_tilde_rows(m, sigma, ts, table,
                                               abs_tol=abs_tol)):
            if isinstance(ev, GuardBand):
                continue
            if isinstance(ev, Exception):
                raise ev
            vals[i] = ev.value
        return ts, vals

    return _ETA_GRID_CACHE.get_or_set(
        (m, sigma, T, grid_step, table.key, abs_tol), column)


def mean_square_error(m: int, sigma: float, X: float, T: float,
                      grid_step: float, table: ZeroTable,
                      primes: PrimeTable | None = None, *,
                      abs_tol: float = ABS_TOL) -> MeanSquareReport:
    """Trapezoidal estimate of (1/T) int_14^T |eta_tilde - D_X|^2 dt.

    Guard-zone grid points are skipped and reported as a fraction;
    bound_ratio divides the result by the reference shape
    X^(1-2 sigma) / (log X)^(2m)."""
    if grid_step > 0.25 or grid_step <= 0.0:
        raise ValidationError("grid_step must be in (0, 0.25]")
    if T < 14.0:
        raise ValidationError("mean square starts at t = 14; need T >= 14")
    if sigma < 0.5:
        raise ValidationError("sigma must be >= 1/2")
    if X < 3.0:
        raise ValidationError("cutoff X must be at least 3")
    table.require_coverage(T)
    if primes is None:
        primes = sieve_primes(max(3, int(X)))
    logs = _prime_logs(X, primes)

    ts, eta_vals = _eta_tilde_grid(m, sigma, T, grid_step, table, abs_tol)
    keep = ~np.isnan(eta_vals)
    skipped = 1.0 - keep.sum() / ts.size
    if skipped > 0.20:
        raise TooFewSamples(
            f"{skipped:.0%} of the grid fell in guard zones")

    # D_X at every kept height in one (prime x height) pass
    d = _li_grid(m, sigma, logs, float(ts[0]), grid_step, ts.size,
                 np.flatnonzero(keep))
    diff2 = np.abs(eta_vals[keep] - d) ** 2
    mse = float(np.trapezoid(diff2, ts[keep]) / T)
    shape = X ** (1.0 - 2.0 * sigma) / np.log(X) ** (2 * m)
    return MeanSquareReport(m, sigma, float(X), float(T), float(grid_step),
                            mse, mse / shape, float(skipped))
