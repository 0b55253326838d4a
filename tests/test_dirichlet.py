import numpy as np
import mpmath as mp
import pytest

from iterzeta import dirichlet
from iterzeta.dirichlet import (_eta_tilde_grid, dirichlet_li_sum,
                                li_vs_mangoldt_gap, mangoldt_sum,
                                mean_square_error, polylog, polylog_batch)
from iterzeta.errors import (ConvergenceDomain, CutoffExceeded,
                             TableCoverage, UnsupportedRange,
                             ValidationError)
from iterzeta.primes import sieve_primes
from iterzeta.zeros import bundled_table

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


def test_mangoldt_hand_sums():
    assert mangoldt_sum(1, 0.8, 0.0, 1.0) == 0.0
    s = 0.8
    want2 = LOG2 / (2.0 ** s * LOG2 ** 2)
    assert abs(mangoldt_sum(1, s, 0.0, 2.0) - want2) < 1e-15
    # X=8 collects 2,3,4,5,7,8: Lambda/log n weights fold into k powers
    want8 = sum(np.log(p) / (n ** s * np.log(n) ** 2)
                for n, p in ((2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2)))
    assert abs(mangoldt_sum(1, s, 0.0, 8.0) - want8) < 1e-14


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
    ts, vals = _eta_tilde_grid(m, sigma, T, step, tab, 1e-8)
    keep = ~np.isnan(vals)
    d = np.array([dirichlet_li_sum(m, sigma, float(t), X, PT)
                  for t in ts[keep]])
    want = np.trapezoid(np.abs(vals[keep] - d) ** 2, ts[keep]) / T
    for chunk in (dirichlet.POLYLOG_CHUNK, 1_000):
        monkeypatch.setattr(dirichlet, "POLYLOG_CHUNK", chunk)
        got = mean_square_error(m, sigma, X, T, step, tab, primes=PT).mse
        assert abs(got - want) <= 1e-12 * want


def test_eta_grid_cache_keeps_its_cap(monkeypatch):
    # past its cap the grid cache drops its least recently used column,
    # and a dropped column is made again to the same values
    monkeypatch.setattr(dirichlet, "_ETA_GRID_CACHE",
                        dirichlet.LRUDict(dirichlet._ETA_GRID_CACHE_CAP))
    tab = bundled_table()
    tops = 14.0 + 0.25 * np.arange(dirichlet._ETA_GRID_CACHE_CAP + 1)
    first = _eta_tilde_grid(1, 2.0, tops[0], 0.25, tab, 1e-8)
    for T in tops[1:]:
        _eta_tilde_grid(1, 2.0, T, 0.25, tab, 1e-8)
    assert len(dirichlet._ETA_GRID_CACHE) == dirichlet._ETA_GRID_CACHE_CAP
    again = _eta_tilde_grid(1, 2.0, tops[0], 0.25, tab, 1e-8)
    assert again is not first
    assert np.array_equal(again[0], first[0])
    assert np.array_equal(again[1], first[1])
    assert len(dirichlet._ETA_GRID_CACHE) == dirichlet._ETA_GRID_CACHE_CAP


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
    for abs_tol in (0.0, -1.0):
        with pytest.raises(ValidationError):
            mean_square_error(1, 0.8, 10, 20.0, 0.25, tab, abs_tol=abs_tol)
