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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BranchObstruction, ConvergenceDomain, CutoffExceeded,
                     TableCoverage, TooFewSamples, ValidationError)
from .eta import DEFAULT_QUAD, QuadSpec, eta_tilde_weighted
from .primes import PrimeTable, sieve_primes
from .rays import check_guard
from .zeros import ZeroTable

POLYLOG_RADIUS = 0.95
POLYLOG_TERM_CAP = 10_000
_TAIL_EPS = 1e-15


def polylog(order: int, z: complex) -> complex:
    """Li_order(z) = sum_{n>=1} z^n / n^order by direct series.

    Restricted to |z| <= 0.95 where convergence is geometric; every use
    in this package has |z| <= 2^(-1/2).
    """
    if order < 1 or order != int(order):
        raise ValidationError("polylog order must be a positive integer")
    return complex(polylog_batch(int(order), np.array([z]))[0])


def polylog_batch(order: int, zs: np.ndarray) -> np.ndarray:
    zs = np.asarray(zs, dtype=complex)
    r = np.abs(zs)
    if np.any(r > POLYLOG_RADIUS):
        raise ConvergenceDomain(
            f"polylog series restricted to |z| <= {POLYLOG_RADIUS}")
    out = np.zeros_like(zs)
    if zs.size == 0:
        return out
    rmax = float(r.max())
    if rmax == 0.0:
        return out
    power = np.ones_like(zs)
    tail = rmax
    for n in range(1, POLYLOG_TERM_CAP + 1):
        power = power * zs
        out += power / n ** order
        tail *= rmax
        # tail bound: rmax^(n+1) / ((n+1)^order (1-rmax))
        if tail / ((n + 1) ** order * (1.0 - rmax)) < 1e-16:
            break
    return out


def _li_terms(m: int, sigma: float, t: float, ps: np.ndarray,
              logs: np.ndarray) -> np.ndarray:
    """Li_{m+1}(p^(-sigma-it)) / (log p)^m per prime, batched."""
    zs = np.exp(-(sigma + 1j * t) * logs)
    return polylog_batch(m + 1, zs) / logs ** m


def dirichlet_li_sum(m: int, sigma: float, t: float, X: float,
                     primes: PrimeTable) -> complex:
    """sum_{p <= X} Li_{m+1}(p^(-sigma-it)) / (log p)^m, exact finite sum."""
    if X > primes.limit:
        raise CutoffExceeded(f"X={X:g} beyond sieve limit {primes.limit}")
    if sigma < 0.5:
        raise ValidationError("sigma must be >= 1/2")
    sel = primes.primes <= X
    if not np.any(sel):
        return 0.0 + 0.0j
    # chunk by size as the convergence rate improves sharply with p
    ps, logs = primes.primes[sel], primes.logs[sel]
    total = 0.0 + 0.0j
    for i in range(0, ps.size, 500_000):
        total += complex(np.sum(_li_terms(m, sigma, t,
                                          ps[i:i + 500_000],
                                          logs[i:i + 500_000])))
    return total


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


_ETA_GRID_CACHE: dict = {}


def _eta_tilde_grid(m: int, sigma: float, T: float, grid_step: float,
                    table: ZeroTable, quad: QuadSpec):
    """eta_tilde on the uniform grid, NaN at guard-skipped points.
    Cached so sweeps over X reuse the expensive column."""
    key = (m, sigma, T, grid_step, table.source_label, quad.abs_tol)
    if key in _ETA_GRID_CACHE:
        return _ETA_GRID_CACHE[key]
    ts = np.arange(14.0, T + 1e-9, grid_step)
    vals = np.full(ts.size, np.nan + 0j, dtype=complex)
    for i, t in enumerate(ts):
        try:
            check_guard(table, sigma, float(t))
        except BranchObstruction:
            continue
        vals[i] = eta_tilde_weighted(m, sigma, float(t), table, quad).value
    _ETA_GRID_CACHE[key] = (ts, vals)
    return ts, vals


def mean_square_error(m: int, sigma: float, X: float, T: float,
                      grid_step: float, table: ZeroTable,
                      quad: QuadSpec = DEFAULT_QUAD,
                      primes: PrimeTable | None = None) -> MeanSquareReport:
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

    ts, eta_vals = _eta_tilde_grid(m, sigma, T, grid_step, table, quad)
    keep = ~np.isnan(eta_vals)
    skipped = 1.0 - keep.sum() / ts.size
    if skipped > 0.20:
        raise TooFewSamples(
            f"{skipped:.0%} of the grid fell in guard zones")

    diff2 = np.empty(keep.sum())
    for i, t in enumerate(ts[keep]):
        d = dirichlet_li_sum(m, sigma, float(t), X, primes)
        diff2[i] = abs(eta_vals[keep][i] - d) ** 2
    mse = float(np.trapezoid(diff2, ts[keep]) / T)
    shape = X ** (1.0 - 2.0 * sigma) / np.log(X) ** (2 * m)
    return MeanSquareReport(m, sigma, float(X), float(T), float(grid_step),
                            mse, mse / shape, float(skipped))
