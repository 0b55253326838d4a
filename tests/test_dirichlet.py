import numpy as np
import mpmath as mp
import pytest

from iterzeta import dirichlet
from iterzeta.dirichlet import (_eta_tilde_grid, _li_grid, _polylog_sum,
                                dirichlet_li_sum, li_vs_mangoldt_gap,
                                mangoldt_grid, mangoldt_sum,
                                mean_square_error, polylog, polylog_batch)
from iterzeta.errors import (BranchObstruction, ConvergenceDomain,
                             CutoffExceeded, GuardBand, TableCoverage,
                             UnsupportedRange, ValidationError)
from iterzeta.primes import sieve_primes
from iterzeta.zeros import ZeroTable, bundled_table

mp.mp.dps = 30

PT = sieve_primes(100_000)
LOG2 = np.log(2.0)


def test_polylog_classics():
    assert abs(polylog(1, 0.5) - LOG2) < 1e-12
    assert abs(polylog(2, 0.5) - (np.pi ** 2 / 12 - LOG2 ** 2 / 2)) < 1e-12
    want3 = (7 * 1.2020569031595943 / 8 - np.pi ** 2 * LOG2 / 12
             + LOG2 ** 3 / 6)
    assert abs(polylog(3, 0.5) - want3) < 1e-12


def test_polylog_against_mpmath():
    for order in (1, 2, 4):
        for z in (0.3 + 0.6j, -0.9, 0.94j):
            want = complex(mp.polylog(order, z))
            assert abs(polylog(order, complex(z)) - want) < 1e-13


def test_polylog_conjugate_and_batch():
    zs = np.array([0.2 + 0.7j, -0.5 - 0.1j, 0.9])
    vals = polylog_batch(2, zs)
    conj_vals = polylog_batch(2, np.conj(zs))
    assert np.allclose(conj_vals, np.conj(vals), atol=1e-15)
    for z, v in zip(zs, vals):
        assert abs(polylog(2, complex(z)) - v) < 1e-15


def test_polylog_batch_independent():
    # each point is summed to its own length: a small point reads the same
    # bits alone, next to 2^(-1/2), in any order and in a 2-D batch
    z = 0.05 * np.exp(0.3j)
    alone = polylog_batch(2, np.array([z]))[0]
    big = 2.0 ** -0.5
    assert polylog_batch(2, np.array([z, big]))[0] == alone
    assert polylog_batch(2, np.array([big, -0.9, z]))[2] == alone
    rng = np.random.default_rng(5)
    cloud = rng.uniform(0.0, 0.95, 300) * np.exp(2j * np.pi
                                                 * rng.uniform(size=300))
    vals = polylog_batch(3, cloud.reshape(20, 15)).ravel()
    for j in rng.integers(0, cloud.size, 20):
        assert polylog_batch(3, cloud[j:j + 1])[0] == vals[j]


def test_polylog_domain():
    with pytest.raises(ConvergenceDomain):
        polylog(2, 0.97)
    with pytest.raises(ValidationError):
        polylog(0, 0.5)


def _window_points(sigma, lo, hi, seed):
    """logs and points p^-sigma e^(-2 pi i theta_p) of the primes
    PT[lo:hi] at seeded angles."""
    logs = PT.logs[lo:hi]
    th = np.random.default_rng(seed).uniform(size=logs.size)
    return logs, np.exp(-sigma * logs - 2j * np.pi * th)


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("sigma", (0.5, 0.8, 0.95))
def test_prime_polylog_sum_against_mpmath(m, sigma):
    # the first 30 primes, 2 among them (the longest series), and 10
    # past 1000, summed by mpmath's polylog
    idx = np.r_[0:30, 168:178]
    logs, z = _window_points(sigma, 0, 178, m)
    logs, z = logs[idx], z[idx]
    got = _polylog_sum(m + 1, logs, m, sigma, lambda lo, hi: z[lo:hi])
    want = sum(complex(mp.polylog(m + 1, mp.mpc(zp))) / lp ** m
               for zp, lp in zip(z, logs))
    assert abs(got - want) < 1e-14


@pytest.mark.parametrize("m, sigma", [(1, 0.5), (2, 0.8), (3, 0.95)])
def test_prime_polylog_sum_matches_the_sorted_path(m, sigma):
    # the prime-ordered sum against polylog_batch, which finds each
    # point's length from |z| and sorts the points by it: 9,592 primes
    logs, z = _window_points(sigma, 0, len(PT), 10 + m)
    got = _polylog_sum(m + 1, logs, m, sigma, lambda lo, hi: z[lo:hi])
    want = np.sum(polylog_batch(m + 1, z) / logs ** m)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_polylog_blocks_hold_a_floor_of_primes():
    # past POLYLOG_CHUNK rows a block would hold no prime at all; it holds
    # POLYLOG_MIN_PRIMES, and the sum is the one-row sum to rounding
    logs, z = _window_points(0.8, 0, len(PT), 7)
    blocks = []

    def z_block(lo, hi):
        blocks.append(hi - lo)
        return z[lo:hi]
    want = _polylog_sum(2, logs, 1, 0.8, lambda lo, hi: z[lo:hi])
    got = _polylog_sum(2, logs, 1, 0.8, z_block,
                       rows=2 * dirichlet.POLYLOG_CHUNK)
    assert set(blocks[:-1]) == {dirichlet.POLYLOG_MIN_PRIMES}
    assert sum(blocks) == len(PT)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_sweep_rows_match_per_height_sums():
    # rows of the block x offset grid against dirichlet_li_sum, which
    # forms p^(-sigma-it) in one exp, at the first, a middle and the
    # last of 65 heights
    m, sigma, X = 2, 0.65, 1e5
    logs = PT.logs[:PT.count_upto(X)]
    cols = np.array([0, 31, 64])
    rows = _li_grid(m, sigma, logs, 14.0, 0.25, 65, cols)
    for j, d in zip(cols, rows):
        want = dirichlet_li_sum(m, sigma, 14.0 + 0.25 * j, X, PT)
        assert abs(d - want) <= 1e-13 * abs(want)


def test_sweep_row_does_not_depend_on_its_neighbours(monkeypatch):
    # a height's D_X is the same bits whichever other heights of the grid
    # are kept: all of them, every other one, it alone; and when the
    # primes are cut in several chunks
    logs = PT.logs[:PT.count_upto(3000)]
    for chunk in (dirichlet.POLYLOG_CHUNK, 2_000):
        monkeypatch.setattr(dirichlet, "POLYLOG_CHUNK", chunk)
        full = _li_grid(1, 0.8, logs, 14.0, 0.25, 65, np.arange(65))
        for cols in (np.arange(0, 65, 2), np.array([40]),
                     np.array([3, 40, 41])):
            part = _li_grid(1, 0.8, logs, 14.0, 0.25, 65, cols)
            assert np.array_equal(part, full[cols])


def test_li_sum_small_oracle():
    # three primes by hand via mpmath polylog
    got = dirichlet_li_sum(1, 0.8, 3.0, 5.0, PT)
    want = sum(complex(mp.polylog(2, mp.mpc(p) ** mp.mpc(-0.8, -3.0)))
               / np.log(p) for p in (2, 3, 5))
    assert abs(got - want) < 1e-13


def test_li_sum_real_on_axis():
    v = dirichlet_li_sum(2, 0.6, 0.0, 1000.0, PT)
    assert abs(v.imag) < 1e-15


def test_li_sum_cutoff_guard():
    with pytest.raises(CutoffExceeded):
        dirichlet_li_sum(1, 0.8, 0.0, 1e9, PT)
    with pytest.raises(ValidationError):
        dirichlet_li_sum(1, 0.3, 0.0, 100.0, PT)


def test_li_sum_cutoff_is_a_prime_count():
    # X selects the primes up to floor(X) through an integer key
    assert dirichlet_li_sum(2, 0.7, 14.0, 1000.5, PT) \
        == dirichlet_li_sum(2, 0.7, 14.0, 1000, PT)
    assert dirichlet._prime_logs(1000.5, PT).size \
        == np.count_nonzero(PT.primes <= 1000)


def test_entry_points_take_the_one_order_sigma_check():
    # the D_X, gap and mean-square entry points refuse a sigma that is
    # not finite or lies below 1/2, and a height, cutoff, range or step
    # that is not finite, as ValidationError: a NaN sigma used to return
    # NaN, 0.2 a value, and a NaN height NaN or a bare ValueError
    calls = (lambda m, sigma, t, X: mangoldt_sum(m, sigma, t, X),
             lambda m, sigma, t, X: li_vs_mangoldt_gap(m, sigma, t, X, PT),
             lambda m, sigma, t, X: dirichlet_li_sum(m, sigma, t, X, PT))
    for call in calls:
        for sigma, t, X in ((np.nan, 10.0, 100.0), (0.2, 10.0, 100.0),
                            (np.inf, 10.0, 100.0), (0.8, np.nan, 100.0),
                            (0.8, np.inf, 100.0), (0.8, 10.0, np.nan),
                            (0.8, 10.0, np.inf)):
            with pytest.raises(ValidationError):
                call(1, sigma, t, X)
        with pytest.raises(UnsupportedRange):
            call(4, 0.8, 10.0, 100.0)
    with pytest.raises(ValidationError):
        mangoldt_grid(1, 0.8, 14.0, np.nan, 10, 100.0)
    tab = bundled_table()
    for sigma, X, T, step in ((np.nan, 10, 50.0, 0.25),
                              (0.8, np.nan, 50.0, 0.25),
                              (0.8, np.inf, 50.0, 0.25),
                              (0.8, 10, np.nan, 0.25),
                              (0.8, 10, np.inf, 0.25),
                              (0.8, 10, 50.0, np.nan)):
        with pytest.raises(ValidationError):
            mean_square_error(1, sigma, X, T, step, tab)


def test_mangoldt_hand_sums():
    assert mangoldt_sum(1, 0.8, 0.0, 1.0) == 0.0
    s = 0.8
    want2 = LOG2 / (2.0 ** s * LOG2 ** 2)
    assert abs(mangoldt_sum(1, s, 0.0, 2.0) - want2) < 1e-15
    # X=8 collects 2,3,4,5,7,8: Lambda/log n weights fold into k powers
    want8 = sum(np.log(p) / (n ** s * np.log(n) ** 2)
                for n, p in ((2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2)))
    assert abs(mangoldt_sum(1, s, 0.0, 8.0) - want8) < 1e-14


def test_gap_matches_a_loop_over_each_prime():
    # the tail summed prime by prime, each from its smallest k with
    # p^k > X, against the pass per power; at X = 3^5 and 17^3 the float
    # log X / log p falls just below the exponent, so these check where
    # a prime's tail starts
    for m, sigma, t, X in ((1, 0.5, 14.0, 8.0), (2, 0.7, 3.0, 243.0),
                           (3, 0.9, 40.0, 4913.0), (1, 1.6, 7.5, 2500.5)):
        want = 0.0 + 0.0j
        for p in PT.primes[:PT.count_upto(X)].tolist():
            k = 1
            while p ** k <= X:
                k += 1
            lp, r = np.log(p), p ** -sigma
            while True:
                want += p ** (-k * (sigma + 1j * t)) / (k ** (m + 1) * lp ** m)
                if r ** k / (k ** (m + 1) * lp ** m) * r / (1 - r) < 1e-15:
                    break
                k += 1
        got = li_vs_mangoldt_gap(m, sigma, t, X, PT)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_decomposition_identity_random():
    # the prime-power tail reconciles the polylog and von Mangoldt forms
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.0, 60.0))
        X = float(rng.uniform(10.0, 3000.0))
        li = dirichlet_li_sum(m, sigma, t, X, PT)
        mg = mangoldt_sum(m, sigma, t, X)
        gap = li_vs_mangoldt_gap(m, sigma, t, X, PT)
        assert abs(li - (mg + gap)) < 1e-12


def test_mean_square_trend():
    tab = bundled_table()
    r3 = mean_square_error(1, 2.0, 10, 50.0, 0.25, tab)
    r20 = mean_square_error(1, 2.0, 50, 50.0, 0.25, tab)
    assert r20.mse < r3.mse
    assert r3.skipped_fraction == 0.0
    assert r3.bound_ratio > 0.0


def test_mean_square_matches_per_height_sums(monkeypatch):
    # the (height x prime) pass against one dirichlet_li_sum per height,
    # at the default chunk and at one that splits the primes in blocks
    tab = bundled_table()
    m, sigma, X, T, step = 2, 0.7, 500.0, 20.0, 0.25
    ts, vals, _ = _eta_tilde_grid(m, sigma, T, step, tab)
    keep = ~np.isnan(vals)
    d = np.array([dirichlet_li_sum(m, sigma, float(t), X, PT)
                  for t in ts[keep]])
    want = np.trapezoid(np.abs(vals[keep] - d) ** 2, ts[keep]) / T
    for chunk in (dirichlet.POLYLOG_CHUNK, 1_000):
        monkeypatch.setattr(dirichlet, "POLYLOG_CHUNK", chunk)
        got = mean_square_error(m, sigma, X, T, step, tab, primes=PT).mse
        assert abs(got - want) <= 1e-12 * want


SWEEP_XS = (3, 4.2, 2999, 6e4, 9.9e4, 1e5)


def _report_bits(rep):
    return [np.float64(v).tobytes() for v in
            (rep.mse, rep.bound_ratio, rep.skipped_fraction)]


@pytest.mark.parametrize("m, sigma, T", [(1, 0.8, 30.0), (2, 0.65, 30.0),
                                         (1, 0.5, 150.0)])
def test_kept_totals_give_the_cold_bits(monkeypatch, m, sigma, T):
    # a sweep that starts from the grid's kept D_X totals reads the cold
    # call's bits, the X filled in ascending, descending or shuffled
    # order; on the sigma = 1/2 grid the ray refuses 146.0, and 545
    # heights take 60 primes a block, so X = 1e5 passes the cap too
    monkeypatch.setattr(dirichlet, "_ETA_GRID_CACHE",
                        dirichlet.LRUDict(dirichlet._ETA_GRID_CACHE_CAP))
    tab = bundled_table()
    ts, vals, kept = _eta_tilde_grid(m, sigma, T, 0.25, tab)
    assert np.isnan(vals).any() == (sigma == 0.5)
    cold, rows = {}, {}
    for X in SWEEP_XS:
        kept.clear()
        cold[X] = mean_square_error(m, sigma, X, T, 0.25, tab, primes=PT)
        rows[X] = _li_grid(m, sigma, PT.logs[:PT.count_upto(X)], 14.0,
                           0.25, ts.size, np.arange(ts.size))
    every_third = np.arange(0, ts.size, 3)
    order = np.random.default_rng(11).permutation(len(SWEEP_XS))
    for xs in (SWEEP_XS, SWEEP_XS[::-1], [SWEEP_XS[i] for i in order]):
        kept.clear()
        for X in xs:
            rep = mean_square_error(m, sigma, X, T, 0.25, tab, primes=PT)
            assert rep == cold[X] and _report_bits(rep) == _report_bits(
                cold[X]), (xs, X)
            logs = PT.logs[:PT.count_upto(X)]
            got = _li_grid(m, sigma, logs, 14.0, 0.25, ts.size,
                           every_third, kept)
            assert got.tobytes() == rows[X][every_third].tobytes(), (xs, X)
        assert kept


def test_kept_totals_stay_within_the_cap():
    # 10,601 heights take 4 primes a block, so 430 primes make 107 full
    # blocks: the kept totals stop at POLYLOG_KEPT numbers, and a longer
    # sum goes on from the last of them to the cold bits
    ts = np.arange(14.0, 120.0 + 1e-9, 0.01)
    every = np.arange(ts.size)
    kept = {}
    for X in (3000, 5000):
        logs = PT.logs[:PT.count_upto(X)]
        got = _li_grid(2, 0.7, logs, 14.0, 0.01, ts.size, every, kept)
        want = _li_grid(2, 0.7, logs, 14.0, 0.01, ts.size, every)
        assert got.tobytes() == want.tobytes()
        (totals,) = kept.values()
        assert len(totals) == dirichlet.POLYLOG_KEPT // ts.size
        assert sum(t.size for t in totals) <= dirichlet.POLYLOG_KEPT


def test_kept_totals_follow_the_block_size(monkeypatch):
    # totals kept under one block size are not read under another
    logs = PT.logs[:PT.count_upto(3000)]
    cols = np.arange(65)
    kept = {}
    _li_grid(1, 0.8, logs, 14.0, 0.25, 65, cols, kept)
    monkeypatch.setattr(dirichlet, "POLYLOG_CHUNK", 2_000)
    got = _li_grid(1, 0.8, logs, 14.0, 0.25, 65, cols, kept)
    want = _li_grid(1, 0.8, logs, 14.0, 0.25, 65, cols)
    assert got.tobytes() == want.tobytes()
    assert list(kept) == [2_000 // 65]


def test_one_height_sum_keeps_nothing(monkeypatch):
    monkeypatch.setattr(dirichlet, "_ETA_GRID_CACHE",
                        dirichlet.LRUDict(dirichlet._ETA_GRID_CACHE_CAP))
    dirichlet_li_sum(2, 0.65, 20.0, 1e5, PT)
    assert len(dirichlet._ETA_GRID_CACHE) == 0


def test_eta_grid_cache_keeps_its_cap(monkeypatch):
    # past its cap the grid cache drops its least recently used column,
    # and a dropped column is made again to the same values
    monkeypatch.setattr(dirichlet, "_ETA_GRID_CACHE",
                        dirichlet.LRUDict(dirichlet._ETA_GRID_CACHE_CAP))
    tab = bundled_table()
    tops = 14.0 + 0.25 * np.arange(dirichlet._ETA_GRID_CACHE_CAP + 1)
    first = _eta_tilde_grid(1, 2.0, tops[0], 0.25, tab)
    for T in tops[1:]:
        _eta_tilde_grid(1, 2.0, T, 0.25, tab)
    assert len(dirichlet._ETA_GRID_CACHE) == dirichlet._ETA_GRID_CACHE_CAP
    again = _eta_tilde_grid(1, 2.0, tops[0], 0.25, tab)
    assert again is not first
    assert np.array_equal(again[0], first[0])
    assert np.array_equal(again[1], first[1])
    assert len(dirichlet._ETA_GRID_CACHE) == dirichlet._ETA_GRID_CACHE_CAP


def test_eta_grid_cache_keys_on_table_contents(monkeypatch):
    # two tables of one label, the second with one more zero on the line
    # at t = 20: its grid point t = 20 falls in the guard zone, and the
    # column cached for the first table must not answer for it
    monkeypatch.setattr(dirichlet, "_ETA_GRID_CACHE",
                        dirichlet.LRUDict(dirichlet._ETA_GRID_CACHE_CAP))
    tab = bundled_table()
    plain = ZeroTable(tab.betas, tab.gammas, tab.mults)
    i = int(np.searchsorted(tab.gammas, 20.0))
    extra = ZeroTable(np.insert(tab.betas, i, 0.5),
                      np.insert(tab.gammas, i, 20.0),
                      np.insert(tab.mults, i, 1))
    assert plain.source_label == extra.source_label
    first = mean_square_error(1, 0.5, 100, 30.0, 0.25, plain)
    second = mean_square_error(1, 0.5, 100, 30.0, 0.25, extra)
    assert first.skipped_fraction == 0.0
    assert second.skipped_fraction == pytest.approx(1 / 65)
    monkeypatch.setattr(dirichlet, "_ETA_GRID_CACHE",
                        dirichlet.LRUDict(dirichlet._ETA_GRID_CACHE_CAP))
    assert mean_square_error(1, 0.5, 100, 30.0, 0.25, extra) == second


def test_eta_grid_raises_a_stall():
    # a table holding only a zero left of the line misses the first zero
    # on it, and the grid lands on that zero's ordinate: the ray there
    # stalls, and the grid raises the stall instead of skipping the
    # height as it skips the guard band
    g1 = bundled_table().gammas[0]
    step = g1 - 14.0
    assert np.arange(14.0, 20.0 + 1e-9, step)[1] == g1
    lone = ZeroTable(np.array([0.3]), np.array([100.0]), np.array([1]))
    with pytest.raises(BranchObstruction) as caught:
        mean_square_error(1, 0.5, 100, 20.0, step, lone)
    assert not isinstance(caught.value, GuardBand)


def test_huge_ints_are_refused_as_infinities(refused_as_infinity):
    # a Python int past the float range has no float form: each entry
    # point refuses it as it refuses an infinity of its sign, where it
    # raised OverflowError
    tab = bundled_table()
    calls = (lambda X: mean_square_error(1, 0.8, X, 20.0, 0.25, tab),
             lambda t: mangoldt_sum(1, 0.8, t, 100.0),
             lambda t: dirichlet_li_sum(1, 0.8, t, 100.0, PT),
             lambda z: polylog(2, z))
    for call in calls:
        refused_as_infinity(call)


def test_mean_square_validation():
    tab = bundled_table()
    with pytest.raises(ValidationError):
        mean_square_error(1, 0.8, 10, 10.0, 0.25, tab)   # T below 14
    with pytest.raises(ValidationError):
        mean_square_error(1, 0.4, 10, 50.0, 0.25, tab)
    with pytest.raises(ValidationError):
        mean_square_error(1, 0.8, 10, 50.0, 0.5, tab)    # grid too coarse
    with pytest.raises(TableCoverage):
        mean_square_error(1, 0.8, 10, 400.0, 0.25, tab)
    for m in (0, 4):                                     # unsupported order
        with pytest.raises(UnsupportedRange):
            mean_square_error(m, 0.8, 10, 20.0, 0.25, tab)
