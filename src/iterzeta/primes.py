"""Prime tables by Eratosthenes sieve, with cached logarithms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LimitExceeded, ValidationError

SIEVE_MAX = 100_000_000


@dataclass(frozen=True)
class PrimeTable:
    """Every prime up to limit, ascending, with its natural log."""

    limit: int
    primes: np.ndarray
    logs: np.ndarray

    def __len__(self) -> int:
        return int(self.primes.size)

    def count_upto(self, x):
        """Number of primes <= x, for a number or an array of numbers.

        The table is searched with the integer keys floor(x): a float key
        would make numpy cast the whole int64 table to float for every
        search, about 1 ms on a 4e7 sieve."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValidationError("prime counts need finite bounds")
        keys = np.clip(np.floor(x), -1, self.limit).astype(np.int64)
        counts = np.searchsorted(self.primes, keys, side="right")
        return int(counts) if counts.ndim == 0 else counts

    def first(self, n: int) -> np.ndarray:
        if n > len(self):
            raise LimitExceeded(
                f"asked for {n} primes, table holds {len(self)}")
        return self.primes[:n]


def sieve_primes(limit: int) -> PrimeTable:
    """Primes up to limit inclusive; 3 <= limit <= 1e8."""
    limit = int(limit)
    if limit < 3 or limit > SIEVE_MAX:
        raise LimitExceeded(
            f"sieve limit must be in [3, {SIEVE_MAX}], got {limit}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = False
    primes = np.nonzero(flags)[0].astype(np.int64)
    return PrimeTable(limit, primes, np.log(primes.astype(np.float64)))
