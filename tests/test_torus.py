import itertools
import math
from collections.abc import Mapping

import numpy as np
import mpmath as mp
import pytest

from iterzeta import blocks, polygon, torus
from iterzeta.errors import (LimitExceeded, UnsupportedRange, ValidationError,
                             WindowExhausted)
from iterzeta.hunt import hunt_value
from iterzeta.polygon import RadiiSet, polygon_angles
from iterzeta.primes import sieve_primes
from iterzeta.torus import (GAMMA_CUT, RADII_CHUNK, _below_cut,
                            _radius_bound, _theta0, _window_radii,
                            construct_theta, first_harmonic_radii,
                            gamma_m_sigma, gamma_tail_estimate, load_theta,
                            s_sum, save_theta, second_moment_s)

mp.mp.dps = 30

PT = sieve_primes(1_000_000)


def test_gamma_leading_terms():
    # hand value from the first two primes; the rest is bounded by the
    # third term
    m, sigma = 2, 0.9
    lead = (complex(mp.polylog(3, 2.0 ** -sigma)) / np.log(2.0) ** 2
            + complex(mp.polylog(3, -(3.0 ** -sigma))) / np.log(3.0) ** 2)
    third = 5.0 ** -sigma / np.log(5.0) ** 2
    got = gamma_m_sigma(m, sigma, 1e3, PT)
    assert abs(got.imag) < 1e-15
    assert abs(got - lead) < third


def test_gamma_truncation_obeys_tail_estimate():
    for m, sigma in ((1, 0.8), (2, 0.6)):
        full = gamma_m_sigma(m, sigma, 1e6, PT)
        part = gamma_m_sigma(m, sigma, 1e4, PT)
        est = gamma_tail_estimate(m, sigma, 1e4)
        assert abs(full - part) <= 1.1 * est


def test_prime_searches_take_integer_keys():
    # a float cut selects the primes up to its floor, through an integer
    # key: 1e6 is 1_000_000 bitwise, and 1000.5 stops at 1000, with the
    # same window starts (1000 is not one: a start lies below the cut)
    # and the same walk below the cut, to the bit, each formed afresh
    assert PT.count_upto(1e6) == PT.count_upto(1_000_000) == len(PT)
    assert PT.count_upto(1000.5) == np.count_nonzero(PT.primes <= 1000)
    assert list(PT.count_upto([1.5, 2.0, 996.9, 997.0])) == [0, 1, 167, 168]
    for m, sigma in ((1, 0.8), (3, 0.6)):
        assert gamma_m_sigma(m, sigma, 1e6, PT) \
            == gamma_m_sigma(m, sigma, 1_000_000, PT)
        assert gamma_m_sigma(m, sigma, 1000.5, PT) \
            == gamma_m_sigma(m, sigma, 1000, PT)
        torus._FIXED_CACHE.clear()
        wide = _below_cut(m, sigma, PT, 1000.5)
        torus._FIXED_CACHE.clear()
        narrow = _below_cut(m, sigma, PT, 1000)
        assert wide[:2] == narrow[:2] and wide[1] == (10, 100)
        for got, want in zip(wide[2:], narrow[2:]):
            assert np.array_equal(got, want)
    with pytest.raises(ValidationError):
        PT.count_upto(float("nan"))


def test_gamma_validation():
    with pytest.raises(ValidationError):
        gamma_m_sigma(1, 0.8, 100.0, PT)
    with pytest.raises(ValidationError):
        gamma_m_sigma(1, 1.2, 1e4, PT)
    with pytest.raises(LimitExceeded):
        gamma_m_sigma(1, 0.8, 1e7, PT)
    with pytest.raises(UnsupportedRange):
        gamma_m_sigma(4, 0.8, 1e4, PT)
    with pytest.raises(ValidationError):
        gamma_m_sigma(1, float("nan"), 1e4, PT)
    # gamma_m_sigma raised OverflowError at an infinite cut, and
    # gamma_tail_estimate returned 0.0 there and ConvergenceDomain at NaN
    for cut in (math.inf, math.nan):
        for f in (gamma_m_sigma, gamma_tail_estimate):
            with pytest.raises(ValidationError, match="tail_cut") as err:
                f(1, 0.8, cut)
            assert type(err.value) is ValidationError


def test_huge_ints_are_refused_as_infinities(refused_as_infinity):
    # a Python int past the float range has no float form: each entry
    # point refuses it as it refuses an infinity of its sign, where it
    # raised OverflowError, or TypeError for sigma
    calls = (lambda a: construct_theta(1, 0.8, a, 0.1, PT),
             lambda angle: s_sum({2: 0.1, 3: angle}, 0.8, 1),
             lambda cut: gamma_m_sigma(1, 0.8, cut, PT),
             lambda sigma: second_moment_s(1, sigma, 2, 10, PT))
    for call in calls:
        refused_as_infinity(call)


def test_s_sum_single_primes_by_hand():
    v2 = s_sum({2: 0.25}, 0.8, 1)
    want = complex(mp.polylog(2, 2.0 ** -0.8 * mp.e ** (-0.5j * mp.pi)))
    want /= np.log(2.0)
    assert abs(v2 - want) < 1e-14


def test_s_sum_additive():
    asn = {int(p): float(th) for p, th in
           zip(PT.first(50), np.linspace(0.0, 0.9, 50))}
    items = list(asn.items())
    whole = s_sum(asn, 0.7, 2)
    parts = s_sum(dict(items[:20]), 0.7, 2) + s_sum(dict(items[20:]), 0.7, 2)
    assert abs(whole - parts) < 1e-14
    assert s_sum({}, 0.7, 2) == 0.0


class _Pairs(Mapping):
    """A prime -> angle mapping over two arrays, which, unlike a dict,
    may repeat a key."""

    def __init__(self, ps, ths):
        self._p, self._t = list(ps), list(ths)

    def __len__(self):
        return len(self._p)

    def __iter__(self):
        return iter(self._p)

    def __getitem__(self, p):
        return self._t[self._p.index(p)]

    def values(self):
        return iter(self._t)


def test_s_sum_takes_keys_in_any_order():
    # ascending keys are summed as they come, others sorted first: the
    # same value either way, and the same refusals of a repeated or
    # non-prime key and of a non-finite angle
    ps = PT.first(3000)
    ths = np.random.default_rng(3).uniform(0.0, 1.0, ps.size)
    shuffle = np.random.default_rng(4).permutation(ps.size)
    want = s_sum(_Pairs(ps, ths), 0.75, 2)
    assert s_sum(_Pairs(ps[shuffle], ths[shuffle]), 0.75, 2) == want
    assert abs(want - torus._s_sum_arrays(PT.logs[:3000], ths, 0.75, 2)) \
        == 0.0
    for keys in (ps, ps[shuffle]):
        bad = (_Pairs(np.append(keys, keys[7]), np.append(ths, 0.5)),
               _Pairs(np.append(1, keys), np.append(0.5, ths)),
               _Pairs(keys, np.where(keys == 7919, np.nan, ths)))
        for asn in bad:
            with pytest.raises(ValidationError):
                s_sum(asn, 0.75, 2)


def test_second_moment_explicit():
    ps = PT.first(6)[2:6].astype(float)
    want = sum(p ** (-1.6 * k) / (k ** 4 * np.log(p) ** 2)
               for p in ps for k in range(1, 60))
    assert abs(second_moment_s(1, 0.8, 2, 6, PT) - want) < 1e-15
    assert second_moment_s(1, 0.8, 4, 4, PT) == 0.0


def test_window_harmonic_error_explicit():
    # for every window start: the k >= 2 harmonics of the primes in
    # (u_bound, cut], summed by hand, plus the integral bound past the
    # cut; and the alternating k = 1 tail plus its Leibniz bound
    for m, sigma, cut in ((1, 0.8, 1e4), (3, 0.6, 3e4)):
        cands = [c for c in (10, 100, 1_000, 10_000) if c < cut]
        _, starts, harmonic, first, _ = _below_cut(m, sigma, PT, cut)
        assert starts == tuple(cands)
        logc = np.log(cut)
        beyond = (cut ** (1 - 2 * sigma) / ((2 * sigma - 1) * logc ** (m + 1))
                  / (2 ** (m + 1) * (1 - cut ** -sigma)))
        for i, u_bound in enumerate(cands):
            sel = (PT.primes > u_bound) & (PT.primes <= cut)
            ps = PT.primes[sel].astype(float)
            exact = sum(np.sum(ps ** (-sigma * k)
                               / (k ** (m + 1) * np.log(ps) ** m))
                        for k in range(2, 80))
            assert abs(harmonic[i] - (exact + beyond)) <= 1e-12 * exact
            terms = ps ** -sigma / np.log(ps) ** m
            signs = np.where(np.nonzero(sel)[0] % 2 == 0, 1.0, -1.0)
            want = abs(np.sum(signs * terms)) + cut ** -sigma / logc ** m
            assert abs(first[i] - want) <= 1e-12 * np.sum(terms)


def test_second_moment_vs_monte_carlo():
    # independent uniform angles; sample mean within 3 standard errors
    m, sigma, lo, hi = 1, 0.8, 3, 10
    want = second_moment_s(m, sigma, lo, hi, PT)
    rng = np.random.default_rng(11)
    ps = PT.first(hi)[lo:hi]
    logs = np.log(ps.astype(float))
    n = 20_000
    vals = np.zeros(n)
    for i in range(0, n, 4000):
        th = rng.uniform(size=(4000, ps.size))
        zs = np.exp(-sigma * logs)[None, :] * np.exp(-2j * np.pi * th)
        li = np.zeros_like(zs)
        zk = np.ones_like(zs)
        for k in range(1, 200):
            zk = zk * zs
            li += zk / k ** (m + 1)
            if np.max(np.abs(zk)) < 1e-17:
                break
        vals[i:i + 4000] = np.abs(np.sum(li / logs[None, :], axis=1)) ** 2
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - want) < 3 * se


def test_construct_smoke():
    res = construct_theta(1, 0.9, 0.35 + 0.1j, 0.2, PT)
    assert res.final_error < 0.2
    assert res.theta2.residual < 1e-10
    assert res.U == 10
    # reference pattern below U
    below = res.primes < res.U
    assert np.allclose(res.theta2.thetas[below][::2], 0.0)
    assert np.allclose(res.theta2.thetas[below][1::2], 0.5)
    # re-verify through the public sum
    s = s_sum(res.assignment(), 0.9, 1)
    assert abs(abs(s - res.a) - res.final_error) < 1e-12


def test_construct_window_exhaustion():
    with pytest.raises(WindowExhausted):
        construct_theta(1, 0.8, 1 + 1j, 1e-9, PT)


def test_construction_views_the_read_only_table():
    # _FIXED_CACHE relies on the primes up to a cut being the same in
    # every table, so a table cannot be written, and a construction's
    # primes are a view of it, not a copy
    with pytest.raises(ValueError, match="read-only"):
        PT.primes[0] = 3
    with pytest.raises(ValueError, match="read-only"):
        PT.logs[0] = 0.0
    res = construct_theta(1, 0.8, 0.5 + 0.5j, 0.05, PT)
    assert not res.primes.flags.writeable
    assert np.shares_memory(res.primes, PT.primes)
    with pytest.raises(ValueError, match="read-only"):
        res.primes[-1] = 2


def _full_window(m, sigma, eps, primes):
    """gamma, U, the window primes, their radii and one cumsum over the
    whole window, the way construct_theta once formed them."""
    cut = float(min(GAMMA_CUT, primes.limit))
    gamma, cands, e1, e2, _ = _below_cut(m, sigma, primes, cut)
    u_bound = next(c for c, h, f in zip(cands, e1, e2)
                   if h <= eps / 4 and f <= eps / 4)
    i_u = int(np.searchsorted(primes.primes, u_bound, side="right"))
    win_p = primes.primes[i_u:]
    win_r = first_harmonic_radii(m, sigma, win_p)
    return gamma, u_bound, i_u, win_p, win_r, np.cumsum(win_r)


@pytest.fixture(scope="module")
def deep():
    return sieve_primes(20_000_000)


@pytest.mark.parametrize("m, sigma, eps", [(1, 0.8, 0.05), (2, 0.65, 0.02)])
def test_construct_matches_full_window(deep, m, sigma, eps):
    # radii go only as far as the window needs, holding one chunk of
    # running sums; count, U, N and primes must be those of one cumsum
    # over the whole window and a dominance scan, for windows from a
    # handful of primes (dominance decides) to most of the table
    gamma, u_bound, i_u, win_p, win_r, rcum = _full_window(m, sigma, eps,
                                                           deep)
    sizes = (1, 2, 50, RADII_CHUNK - 1, RADII_CHUNK, RADII_CHUNK + 1,
             100_000, win_p.size - 10)
    for k, n in enumerate(sizes):
        # strictly between the (n-1)- and n-prime radius sums
        need = float(rcum[n - 1] - 0.5 * win_r[n - 1])
        a = gamma + need * np.exp(2j * np.pi * (0.1 + 0.23 * k))
        count = max(int(np.searchsorted(rcum, abs(a - gamma))) + 1, 3)
        while win_r[0] > rcum[count - 1] - win_r[0]:
            count += 1
        radii, got, total = _window_radii(m, sigma, deep.logs[i_u:],
                                          abs(a - gamma))
        assert got == count <= radii.size
        assert np.array_equal(radii, win_r[:radii.size])
        assert total == rcum[radii.size - 1]
        res = construct_theta(m, sigma, a, eps, deep)
        assert res.U == u_bound
        assert np.array_equal(res.primes, deep.primes[:i_u + count])
        assert res.N == int(win_p[count - 1])
        assert res.theta2.residual < 1e-10
        assert res.final_error < eps


@pytest.mark.parametrize("chunk", [1, 2, 3, RADII_CHUNK])
def test_window_count_across_chunks(monkeypatch, chunk):
    # the count found chunk by chunk, holding one chunk of running sums,
    # is that of one cumsum over the whole window and a dominance scan,
    # with the need crossing and dominance in different chunks too; so
    # are the refusals: a window short of the need or of three primes
    # (None and the window's sum) and one with no dominant prefix
    monkeypatch.setattr(torus, "RADII_CHUNK", chunk)
    m, sigma = 3, 0.95
    # from 2 on, no prefix of 40 primes is dominant; from 11 on, 3 are
    for logs in (PT.logs[:40], PT.logs[4:40]):
        for size in range(logs.size + 1):
            win = logs[:size]
            rcum = np.cumsum(torus._radii(m, sigma, win))
            total = rcum[-1] if size else 0.0
            for need in (1e-3, *rcum[::7], 0.5 * total, total,
                         1.01 * total):
                count = max(int(np.searchsorted(rcum, need)) + 1, 3)
                if count > size:
                    assert _window_radii(m, sigma, win, need)[1:] \
                        == (None, total)
                    continue
                dominant = np.flatnonzero(rcum[0] <= rcum[count - 1:]
                                          - rcum[0])
                if not dominant.size:
                    with pytest.raises(WindowExhausted, match="dominance"):
                        _window_radii(m, sigma, win, need)
                    continue
                radii, got, _ = _window_radii(m, sigma, win, need)
                assert got == count + int(dominant[0]) <= radii.size


def test_construct_does_not_depend_on_the_block_size(deep, monkeypatch):
    # a window of 1e5 primes laid out in blocks of 1, 1000 and 4097
    # radii: the same angles to the bit, those polygon_angles gives on
    # the same radii; final_sum, the achieved sum plus the k >= 2
    # harmonics, within 1e-13 of an independent re-sum
    m, sigma, eps = 1, 0.8, 0.05
    gamma, _, i_u, _, win_r, rcum = _full_window(m, sigma, eps, deep)
    n = 100_000
    a = gamma + float(rcum[n - 1] - 0.5 * win_r[n - 1]) * np.exp(0.7j)
    want = construct_theta(m, sigma, a, eps, deep)
    assert want.primes.size - i_u == n
    alone = polygon_angles(RadiiSet(first_harmonic_radii(
        m, sigma, want.primes[i_u:])), a - want.gamma_value)
    assert np.array_equal(alone.thetas, want.theta2.thetas[i_u:])
    assert abs(want.final_sum - s_sum(want.assignment(), sigma, m)) <= 1e-13
    for block in (1, 1000, 4097):
        monkeypatch.setattr(polygon, "BLOCK", block)
        res = construct_theta(m, sigma, a, eps, deep)
        assert np.array_equal(res.theta2.thetas, want.theta2.thetas)
        assert abs(res.final_sum - want.final_sum) <= 1e-13
        assert res.theta2.residual < 1e-10


def _outputs(res):
    return (res.U, res.N, res.gamma_value, res.primes.tobytes(),
            res.theta2.thetas.tobytes(), res.theta2.achieved,
            res.theta2.residual, res.final_sum, res.final_error)


@pytest.mark.parametrize("m, sigma, eps", [(1, 0.8, 0.05), (2, 0.65, 0.02)])
def test_construct_does_not_depend_on_the_cpu_count(deep, monkeypatch, m,
                                                    sigma, eps):
    # windows of one block, two and many, in blocks of 4097 radii for the
    # layout, the power sums and the radii: every output the same bits
    # inline and on the pool, and with the harmonics' series in slices of
    # 1000 points
    gamma, _, _, _, win_r, rcum = _full_window(m, sigma, eps, deep)
    for name in ("BLOCK", "SERIES_BLOCK"):
        monkeypatch.setattr(polygon, name, 4097)
    monkeypatch.setattr(torus, "POLYLOG_CHUNK", 4097)
    for k, n in enumerate((1_000, 6_000, 100_000)):
        a = gamma + float(rcum[n - 1] - 0.5 * win_r[n - 1]) \
            * np.exp(2j * np.pi * (0.2 + 0.31 * k))
        got = []
        for cpus, piece in ((1, torus.HARMONIC_SLICE), (4, 1000)):
            monkeypatch.setattr(blocks, "_cpus", lambda: cpus)
            monkeypatch.setattr(torus, "HARMONIC_SLICE", piece)
            got.append(_outputs(construct_theta(m, sigma, a, eps, deep)))
        assert got[0] == got[1]


def test_a_failing_block_raises_and_the_next_construction_works(
        monkeypatch):
    # the third call of a block's harmonic series raises: construct_theta
    # raises it, inline and on the pool, and the next call gives the
    # outputs of one that never failed
    monkeypatch.setattr(polygon, "BLOCK", 100)
    a, eps = 0.5 + 0.4j, 0.05
    want = _outputs(construct_theta(1, 0.8, a, eps, PT))
    prefix = torus._polylog_prefix
    for cpus in (1, 4):
        monkeypatch.setattr(blocks, "_cpus", lambda: cpus)
        calls = itertools.count()

        def failing(*args):
            if next(calls) == 2:
                raise ArithmeticError("a block failed")
            return prefix(*args)

        monkeypatch.setattr(torus, "_polylog_prefix", failing)
        with pytest.raises(ArithmeticError, match="a block failed"):
            construct_theta(1, 0.8, a, eps, PT)
        monkeypatch.setattr(torus, "_polylog_prefix", prefix)
        assert _outputs(construct_theta(1, 0.8, a, eps, PT)) == want


def test_construct_target_past_the_window():
    # a target just past the window, under the bound on its radius sum:
    # the refusal sums every radius of the window and says how far
    m, sigma, eps = 1, 0.8, 0.05
    gamma, u_bound, _, _, _, rcum = _full_window(m, sigma, eps, PT)
    with pytest.raises(WindowExhausted, match="reach only") as exc:
        construct_theta(m, sigma, gamma + 1.01 * rcum[-1], eps, PT)
    assert f"({u_bound}, {PT.limit}]" in str(exc.value)
    assert f"reach only {rcum[-1]:.6g} of" in str(exc.value)


@pytest.mark.parametrize("m, sigma, u_bound", [
    (1, 0.8, 10), (1, 0.55, 100_000), (2, 0.65, 100), (3, 0.95, 100),
    (3, 0.6, 1_000)])
def test_radius_bound_holds_the_window_sum(deep, m, sigma, u_bound):
    # the bound is at least the sum of every radius past U, and above it
    # by more than 1% (a 1.01 target still sums exactly) and at most 15%
    win_p = deep.primes[deep.count_upto(u_bound):]
    exact = np.cumsum(first_harmonic_radii(m, sigma, win_p))[-1]
    bound = _radius_bound(m, sigma, deep, u_bound)
    assert 1.01 * exact < bound <= 1.15 * exact


def test_construct_refuses_far_targets_by_the_bound(deep, monkeypatch):
    # a target well past the window is refused by the bound alone: no
    # radius is formed
    m, sigma, eps = 2, 0.65, 0.02
    gamma, u_bound, _, _, _, rcum = _full_window(m, sigma, eps, deep)

    def no_radii(*args):
        raise AssertionError("radii formed")
    monkeypatch.setattr(torus, "_window_radii", no_radii)
    with pytest.raises(WindowExhausted, match="reach at most") as exc:
        construct_theta(m, sigma, gamma - 1.5j * rcum[-1], eps, deep)
    reach = _radius_bound(m, sigma, deep, u_bound)
    assert f"({u_bound}, {deep.limit}] reach at most {reach:.6g} of" \
        in str(exc.value)


def _same_construction(r1, r2):
    t1, t2 = r1.theta2, r2.theta2
    return ((r1.m, r1.sigma, r1.a, r1.epsilon, r1.U, r1.N, r1.gamma_value,
             r1.final_sum, r1.final_error)
            == (r2.m, r2.sigma, r2.a, r2.epsilon, r2.U, r2.N, r2.gamma_value,
                r2.final_sum, r2.final_error)
            and np.array_equal(r1.primes, r2.primes)
            and np.array_equal(t1.thetas, t2.thetas)
            and (t1.target, t1.achieved, t1.residual)
            == (t2.target, t2.achieved, t2.residual))


def _formed(*args, **kwargs):
    raise AssertionError("fixed cost formed again")


def test_repeat_construction_reads_gamma_from_the_cache(deep, monkeypatch):
    # the walk below the cut is made once per (m, sigma, cut), and every
    # table reaching the cut shares it: a repeat on either table sums no
    # prime below the cut and is its cold call to the bit
    args = (1, 0.9, 0.35 + 0.1j, 0.2)
    cold = []
    for table in (PT, deep):
        torus._FIXED_CACHE.clear()
        cold.append(construct_theta(*args, table))
    monkeypatch.setattr(torus, "_polylog_sum", _formed)
    for table, want in zip((PT, deep), cold):
        assert _same_construction(construct_theta(*args, table), want)


def test_gamma_is_the_construction_s(monkeypatch):
    # gamma_m_sigma and construct_theta read one walk below the cut: the
    # same gamma to the bit, and a construction after gamma_m_sigma on
    # the same (m, sigma, cut) sums no prime below the cut
    args = (1, 0.9, 0.35 + 0.1j, 0.2)
    torus._FIXED_CACHE.clear()
    gamma = gamma_m_sigma(1, 0.9, 1e6, PT)
    monkeypatch.setattr(torus, "_polylog_sum", _formed)
    res = construct_theta(*args, PT)
    assert res.gamma_value == gamma
    assert res.final_error < 0.2


def test_gamma_without_a_table_sieves_on_a_miss_only(monkeypatch):
    # with no prime table, the sieve to the cut is made inside the cached
    # walk: a repeat call reads the cache, sieves nothing, and returns the
    # first call's gamma to the bit
    torus._FIXED_CACHE.clear()
    gamma = gamma_m_sigma(1, 0.8, 1e6)
    monkeypatch.setattr(torus, "sieve_primes", _formed)
    assert gamma_m_sigma(1, 0.8, 1e6) == gamma


def test_below_cut_sums_match_s_sum():
    # gamma and the reference sum below each window start, summed by the
    # walk's segments with signs, against s_sum of the reference pattern
    # theta^(0) on the same primes, summed at its angles
    for m, sigma, cut in ((1, 0.8, 1e6), (3, 0.6, 3e4)):
        torus._FIXED_CACHE.clear()
        gamma, cands, _, _, below = _below_cut(m, sigma, PT, cut)
        for upto, got in zip((*cands, cut), (*below, gamma)):
            n = PT.count_upto(upto)
            ref = dict(zip(PT.primes[:n].tolist(), _theta0(n).tolist()))
            assert abs(got - s_sum(ref, sigma, m)) < 1e-14


@pytest.mark.parametrize("cut, start", [(1005, 1_000), (10_005, 10_000),
                                        (100_001, 100_000)])
def test_cut_just_past_a_start(cut, start):
    # (start, cut] holds no prime, so the walk's last segment is empty:
    # gamma is the reference sum below that start, to the bit, and the
    # s_sum of theta^(0) up to the cut
    torus._FIXED_CACHE.clear()
    gamma = gamma_m_sigma(1, 0.8, cut)
    _, cands, harmonic, first, below = _below_cut(1, 0.8, PT, cut)
    assert cands[-1] == start and gamma == below[-1]
    assert np.all(np.isfinite(harmonic)) and np.all(np.isfinite(first))
    n = PT.count_upto(cut)
    ref = dict(zip(PT.primes[:n].tolist(), _theta0(n).tolist()))
    assert abs(gamma - s_sum(ref, 0.8, 1)) < 1e-14


def test_gamma_past_the_construction_cut():
    # no construction reads the tail bounds past GAMMA_CUT, so the walk
    # sums the reference row alone there; (1e6, 1000002] holds no prime,
    # so gamma is the two-row walk's gamma at 1e6 up to rounding
    torus._FIXED_CACHE.clear()
    table = sieve_primes(1_000_002)
    gamma, _, harmonic, first, _ = _below_cut(1, 0.8, table, 1_000_002)
    assert harmonic is None and first is None
    assert abs(gamma - gamma_m_sigma(1, 0.8, GAMMA_CUT, table)) < 1e-15


def test_construct_on_a_table_ending_just_past_a_start():
    # the cut is the table's limit 1005, past the start 1000 with no
    # prime in between
    torus._FIXED_CACHE.clear()
    a, eps = 0.3 + 0.1j, 0.5
    res = construct_theta(1, 0.8, a, eps, sieve_primes(1005))
    ref = dict(zip(PT.primes[:PT.count_upto(1005)].tolist(),
                   _theta0(PT.count_upto(1005)).tolist()))
    assert abs(res.gamma_value - s_sum(ref, 0.8, 1)) < 1e-14
    assert res.final_error < eps
    assert abs(s_sum(res.assignment(), 0.8, 1) - a) < eps


def test_construct_validation():
    with pytest.raises(ValidationError):
        construct_theta(1, 1.1, 0.2 + 0j, 0.1, PT)
    with pytest.raises(ValidationError):
        construct_theta(1, 0.8, 0.2 + 0j, -0.1, PT)


def test_theta_roundtrip(tmp_path):
    res = construct_theta(1, 0.9, 0.35 + 0.1j, 0.2, PT)
    path = tmp_path / "theta.txt"
    save_theta(res, path)
    back = load_theta(path)
    assert back.m == res.m and back.U == res.U and back.N == res.N
    assert np.array_equal(back.primes, res.primes)
    assert np.array_equal(back.theta2.thetas, res.theta2.thetas)
    assert back.final_sum == res.final_sum
    assert back.final_error == res.final_error


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("m = 1\n2 0.5 extra\n")
    with pytest.raises(ValidationError):
        load_theta(p)


def test_construction_and_hunt_share_the_target_checks():
    # one torus helper refuses a non-positive epsilon and a target that
    # is not finite, with one message each, before any prime or zero
    # table is read
    for call in (construct_theta, hunt_value):
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValidationError,
                               match="^epsilon must be positive$"):
                call(1, 0.8, 0.5, eps)
        for a in (complex(math.inf, 0.0), complex(0.0, math.nan)):
            with pytest.raises(ValidationError,
                               match="^target a must be finite$"):
                call(1, 0.8, a, 0.1)
