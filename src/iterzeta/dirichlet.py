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
value and harmonic bounds; the hunt's surrogate) is _polylog_sum, which
feeds polylog_batch bounded chunks; mangoldt_sum and li_vs_mangoldt_gap
stay apart from it as the decomposition check's reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BranchObstruction, ConvergenceDomain, CutoffExceeded,
                     TableCoverage, TooFewSamples, ValidationError)
from .eta import _eta_tilde_rows
from .lru import LRUDict
from .primes import PrimeTable, sieve_primes
from .rays import check_guard
from .zeros import ZeroTable

POLYLOG_RADIUS = 0.95
POLYLOG_CHUNK = 500_000        # points per polylog_batch call in _polylog_sum
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
    z = flat[by_length]
    # live[n]: how many points, a prefix of z, take term n
    live = np.cumsum(np.bincount(lengths)[::-1])[::-1].tolist()
    power, spare = z.copy(), np.empty_like(z)
    acc = z.copy()
    for n in range(2, len(live)):
        k = live[n]
        # into a second buffer: numpy's in-place complex multiply rounds
        # differently from its vector loop, which would tie a point's
        # value to its position in the batch
        np.multiply(power[:k], z[:k], out=spare[:k])
        power, spare = spare, power
        acc[:k] += power[:k] / n ** order
    out = np.empty_like(flat)
    out[by_length] = acc
    return out.reshape(zs.shape)


def _polylog_sum(order: int, logs: np.ndarray, power: int, z_block,
                 rows: int = 1):
    """sum_p Li_order(z_p) / (log p)^power, one sum per row.

    z_block(lo, hi) builds the points of the primes logs[lo:hi], shape
    (hi - lo,) or (rows, hi - lo); at most POLYLOG_CHUNK points are built
    at a time, so memory stays bounded for any number of primes or rows.
    """
    step = max(1, POLYLOG_CHUNK // rows)
    total = 0.0 + 0.0j
    for lo in range(0, logs.size, step):
        hi = min(lo + step, logs.size)
        total = total + np.sum(polylog_batch(order, z_block(lo, hi))
                               / logs[lo:hi] ** power, axis=-1)
    return total


def _prime_logs(X: float, primes: PrimeTable) -> np.ndarray:
    """log p for the primes p <= X of the table."""
    if X > primes.limit:
        raise CutoffExceeded(f"X={X:g} beyond sieve limit {primes.limit}")
    return primes.logs[:int(np.searchsorted(primes.primes, X,
                                            side="right"))]


def dirichlet_li_sum(m: int, sigma: float, t: float, X: float,
                     primes: PrimeTable) -> complex:
    """sum_{p <= X} Li_{m+1}(p^(-sigma-it)) / (log p)^m, exact finite sum."""
    logs = _prime_logs(X, primes)
    if sigma < 0.5:
        raise ValidationError("sigma must be >= 1/2")
    s = sigma + 1j * t
    return complex(_polylog_sum(m + 1, logs, m,
                                lambda lo, hi: np.exp(-s * logs[lo:hi])))


def mangoldt_sum(m: int, sigma: float, t: float, X: float) -> complex:
    """sum_{2 <= n <= X} Lambda(n) / (n^(sigma+it) (log n)^(m+1)).

    Lambda(n) = log p for prime powers n = p^k, zero otherwise; the
    log n = k log p denominator folds into 1/(k^(m+1) (log p)^m)."""
    if X < 2.0:
        return 0.0 + 0.0j
    ps = (np.array([2], dtype=np.int64) if X < 3
          else sieve_primes(int(X)).primes)
    ps = ps[ps <= X]
    logs = np.log(ps.astype(float))
    s = sigma + 1j * t
    total = 0.0 + 0.0j
    k = 1
    alive = np.ones(ps.size, dtype=bool)
    while np.any(alive):
        pk = ps[alive].astype(float) ** k
        total += complex(np.sum(
            np.exp(-s * k * logs[alive]) / (k ** (m + 1) * logs[alive] ** m)))
        k += 1
        with np.errstate(over="ignore"):
            alive_next = alive.copy()
            alive_next[alive] = ps[alive].astype(float) ** k <= X
        alive = alive_next
    return total


def li_vs_mangoldt_gap(m: int, sigma: float, t: float, X: float,
                       primes: PrimeTable) -> complex:
    """The prime-power tail sum_{p <= X} sum_{k: p^k > X}
    p^(-k(sigma+it)) / (k^(m+1) (log p)^m), truncated below 1e-15."""
    if X > primes.limit:
        raise CutoffExceeded(f"X={X:g} beyond sieve limit {primes.limit}")
    sel = primes.primes <= X
    ps, logs = primes.primes[sel], primes.logs[sel]
    s = sigma + 1j * t
    total = 0.0 + 0.0j
    for p, lp in zip(ps.tolist(), logs):
        k = 1
        while p ** k <= X:
            k += 1
        r = p ** (-sigma)
        while True:
            term_mag = r ** k / (k ** (m + 1) * lp ** m)
            total += np.exp(-s * k * lp) / (k ** (m + 1) * lp ** m)
            k += 1
            # remaining tail under a geometric envelope
            if term_mag * r / (1.0 - r) < _TAIL_EPS:
                break
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


# eta~ grid columns by (m, sigma, T, step, table, abs_tol); a sweep over
# X reads one column
_ETA_GRID_CACHE_CAP = 8
_ETA_GRID_CACHE = LRUDict(_ETA_GRID_CACHE_CAP)


def _eta_tilde_grid(m: int, sigma: float, T: float, grid_step: float,
                    table: ZeroTable, abs_tol: float):
    """eta_tilde on the uniform grid, NaN at guard-skipped points.
    Cached so sweeps over X reuse the expensive column."""
    def column():
        ts = np.arange(14.0, T + 1e-9, grid_step)
        vals = np.full(ts.size, np.nan + 0j, dtype=complex)
        kept = []
        for i, t in enumerate(ts):
            try:
                check_guard(table, sigma, float(t))
            except BranchObstruction:
                continue
            kept.append(i)
        for i, ev in zip(kept, _eta_tilde_rows(m, sigma, ts[kept], table,
                                               abs_tol=abs_tol)):
            if isinstance(ev, Exception):
                raise ev
            vals[i] = ev.value
        return ts, vals

    return _ETA_GRID_CACHE.get_or_set(
        (m, sigma, T, grid_step, table.source_label, abs_tol), column)


def mean_square_error(m: int, sigma: float, X: float, T: float,
                      grid_step: float, table: ZeroTable,
                      primes: PrimeTable | None = None, *,
                      abs_tol: float = 1e-8) -> MeanSquareReport:
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
    if T > table.coverage:
        raise TableCoverage(
            f"T={T:g} beyond table coverage {table.coverage:g}")
    if primes is None:
        primes = sieve_primes(max(3, int(X)))
    logs = _prime_logs(X, primes)

    ts, eta_vals = _eta_tilde_grid(m, sigma, T, grid_step, table, abs_tol)
    keep = ~np.isnan(eta_vals)
    skipped = 1.0 - keep.sum() / ts.size
    if skipped > 0.20:
        raise TooFewSamples(
            f"{skipped:.0%} of the grid fell in guard zones")

    # D_X at every kept height in one (height x prime) pass
    s = sigma + 1j * ts[keep][:, None]
    d = _polylog_sum(m + 1, logs, m, lambda lo, hi: np.exp(-s * logs[lo:hi]),
                     rows=s.shape[0])
    diff2 = np.abs(eta_vals[keep] - d) ** 2
    mse = float(np.trapezoid(diff2, ts[keep]) / T)
    shape = X ** (1.0 - 2.0 * sigma) / np.log(X) ** (2 * m)
    return MeanSquareReport(m, sigma, float(X), float(T), float(grid_step),
                            mse, mse / shape, float(skipped))
