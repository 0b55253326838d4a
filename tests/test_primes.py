import numpy as np
import pytest

from iterzeta.errors import LimitExceeded
from iterzeta.primes import SEGMENT, SIEVE_MAX, PrimeTable, sieve_primes
from iterzeta.torus import first_harmonic_radii


def _flag_sieve(limit):
    """The reference: one flag byte per integer up to limit, and the
    logs of the primes found."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = False
    primes = np.nonzero(flags)[0].astype(np.int64)
    return primes, np.log(primes.astype(np.float64))


@pytest.fixture(scope="module")
def table_4e7():
    return sieve_primes(40_000_000)


def _trial_division(limit):
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def test_against_trial_division():
    pt = sieve_primes(10_000)
    assert pt.primes.tolist() == _trial_division(10_000)


def test_known_counts():
    assert len(sieve_primes(100)) == 25
    assert len(sieve_primes(1_000_000)) == 78498
    assert len(sieve_primes(10_000_000)) == 664_579
    assert len(sieve_primes(SIEVE_MAX)) == 5_761_455


def _assert_matches_flag_sieve(table, limit):
    primes, logs = _flag_sieve(limit)
    assert table.limit == limit
    assert np.array_equal(table.primes, primes), limit
    assert np.array_equal(table.logs, logs), limit


def test_matches_flag_sieve():
    # the segment layout covers the odd numbers 1, 3, 5, ...: at 2S - 1
    # the first segment ends, 2S + 1 opens the second, and at 4S + 1 the
    # last segment holds that one odd number, a composite (5 x 838,861)
    # that every base prime up to its root must still be tried on
    edges = [2 * SEGMENT - 1, 2 * SEGMENT, 2 * SEGMENT + 1, 2 * SEGMENT + 2,
             4 * SEGMENT + 1]
    for limit in [*range(3, 201), 100_000, *edges]:
        _assert_matches_flag_sieve(sieve_primes(limit), limit)


def test_matches_flag_sieve_at_4e7(table_4e7):
    _assert_matches_flag_sieve(table_4e7, 40_000_000)


def test_first_harmonic_radii_bits(table_4e7):
    # formed in blocks, the radii are the bits of the whole-array formula
    ps = table_4e7.primes[1000:]
    logs = np.log(ps.astype(np.float64))
    for m, sigma in ((1, 0.8), (2, 0.6), (3, 0.95)):
        want = np.exp(-sigma * logs) / logs ** m
        assert np.array_equal(first_harmonic_radii(m, sigma, ps), want)


def test_logs_consistent():
    pt = sieve_primes(5_000)
    assert np.allclose(pt.logs, np.log(pt.primes.astype(float)), atol=1e-15)


def test_first():
    pt = sieve_primes(100)
    assert pt.first(5).tolist() == [2, 3, 5, 7, 11]
    with pytest.raises(LimitExceeded):
        pt.first(26)


def test_limit_bounds():
    with pytest.raises(LimitExceeded):
        sieve_primes(2)
    with pytest.raises(LimitExceeded):
        sieve_primes(200_000_000)
    assert sieve_primes(3).primes.tolist() == [2, 3]
    # the int() cast raised a bare ValueError at NaN, OverflowError at inf
    for limit in (np.nan, np.inf, -np.inf):
        with pytest.raises(LimitExceeded):
            sieve_primes(limit)
