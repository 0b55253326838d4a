"""Prime tables by a segmented odd-only Eratosthenes sieve, with cached
logarithms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LimitExceeded, ValidationError

SIEVE_MAX = 100_000_000
# odd numbers per segment of sieve_primes: a 1 MB flag array
SEGMENT = 2 ** 20


@dataclass(frozen=True)
class PrimeTable:
    """Every prime up to limit, ascending, with its natural log.  The
    arrays sieve_primes makes are read-only: caches keyed on a cut share
    their prefixes, and a construction's primes are a view of them."""

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
    """Primes up to limit inclusive; 3 <= limit <= 1e8.

    One odd-only sieve in segments of SEGMENT = 2^20 odd numbers, each
    crossed off by the odd base primes up to sqrt(limit), which come from
    a small flag sieve.  Each segment's primes and their logs go straight
    into two arrays sized by Dusart's bound on pi(limit), and the table
    keeps their prefixes, so pages past the count are never touched, and
    marks them read-only.  The peak memory is the table plus one segment:
    its 1 MB of flags and the indices of its primes."""
    # compared before int(), which raises a bare ValueError or
    # OverflowError on nan or inf
    if not 3 <= limit <= SIEVE_MAX:
        raise LimitExceeded(
            f"sieve limit must be in [3, {SIEVE_MAX}], got {limit}")
    limit = int(limit)
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p::p] = False
    base = np.flatnonzero(small)[1:].tolist()    # the odd ones
    # Dusart: pi(x) <= x / log x * (1 + 1.2762 / log x) for x > 1
    log_limit = math.log(limit)
    cap = int(limit / log_limit * (1.0 + 1.2762 / log_limit)) + 1
    primes = np.empty(cap, dtype=np.int64)
    logs = np.empty(cap)
    primes[0] = 2
    np.log(primes[:1], out=logs[:1])
    count = 1
    flags = np.empty(SEGMENT, dtype=bool)
    # the odd numbers 1, 3, ..., limit, a segment at a time; entry j of
    # the segment from lo stands for lo + 2 j
    for lo in range(1, limit + 1, 2 * SEGMENT):
        seg = flags[:min(SEGMENT, (limit - lo) // 2 + 1)]
        hi = lo + 2 * (seg.size - 1)
        seg[:] = True
        if lo == 1:
            seg[0] = False      # 1 is not prime
        for p in base:
            if p * p > hi:
                break
            # the first odd multiple of p at or past max(p^2, lo); a
            # base prime whose next multiple lies past this segment
            # crosses nothing off, but a larger one still may
            start = max(p * p, -(-lo // p) * p)
            if start % 2 == 0:
                start += p
            seg[(start - lo) // 2::p] = False
        found = np.flatnonzero(seg)
        end = count + found.size
        np.multiply(found, 2, out=primes[count:end])
        primes[count:end] += lo
        np.log(primes[count:end], out=logs[count:end])
        count = end
    primes, logs = primes[:count], logs[:count]
    for arr in (primes, logs):
        arr.flags.writeable = False
    return PrimeTable(limit, primes, logs)
