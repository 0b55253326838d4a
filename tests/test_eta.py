import time
import tracemalloc
from math import factorial, log

import numpy as np
import mpmath as mp
import pytest

from iterzeta import eta
from iterzeta.errors import (BranchObstruction, QuadratureNonconvergence,
                             TableCoverage, ValidationError)
from iterzeta.eta import (_eta_tilde_rows, c_m, check_bridge, check_guard,
                          eta_tilde_recursive, eta_tilde_weighted,
                          eta_vertical, growth_check, tail_bound, y_m,
                          y_m_terms)
from iterzeta.quadrature import integrate_vec
from iterzeta.rays import CUTOFF_OFFSET
from iterzeta.zetafun import zeta_batch
from iterzeta.zeros import EMPTY_TABLE, ZeroTable, bundled_table

mp.mp.dps = 25

TAB = bundled_table()


def _table(rows):
    b, g, mu = zip(*rows)
    return ZeroTable(betas=np.array(b, float), gammas=np.array(g, float),
                     mults=np.array(mu, np.int64), source_label="synthetic")


# ---------------------------------------------------------------- weighted

def test_weighted_t0_against_mpmath():
    got = eta_tilde_weighted(1, 2.0, 0.0)
    want = complex(mp.quad(lambda a: mp.log(mp.zeta(a)), [2, 6, 14, 42]))
    assert abs(got.value - want) < 2e-9
    assert abs(got.value - want) < got.est_error + 1e-9


def test_weighted_m2_t0_against_mpmath():
    got = eta_tilde_weighted(2, 1.5, 0.0)
    want = complex(mp.quad(lambda a: (a - 1.5) * mp.log(mp.zeta(a)),
                           [1.5, 6, 14, 41.5]))
    assert abs(got.value - want) < 5e-9


def test_weighted_far_right_tiny():
    got = eta_tilde_weighted(1, 20.0, 0.0)
    assert abs(got.value) < 3.0 * 2.0 ** -20.0


def test_weighted_frozen_point():
    got = eta_tilde_weighted(1, 0.5, 20.0, table=TAB)
    assert abs(got.value - (-0.0252363675 - 1.3645286600j)) < 2e-9


def test_weighted_conjugate():
    up = eta_tilde_weighted(2, 0.8, 14.0, table=TAB)
    dn = eta_tilde_weighted(2, 0.8, -14.0, table=TAB)
    assert abs(dn.value - np.conj(up.value)) < 1e-13


def test_weighted_ray_grazing_a_zero_refuses():
    # with no table there is no guard, and the ray from 1/2 + 30.4249i
    # starts about 5e-13 from the zero 1/2 + 30.424876125859513i: too
    # close for the quadrature to resolve, not close enough for the
    # ladder to stall.  Its panels used to double until a round asked
    # zeta for 4.5M points; now the row is refused in bounded time and
    # memory
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(QuadratureNonconvergence):
            eta_tilde_weighted(1, 0.5, 30.42487612586)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 20.0
    assert peak < 512 * 2 ** 20


def test_rows_match_one_height(monkeypatch):
    # one pass over 20 heights, and three passes of at most 7: each row
    # is its one-height value up to the rounding of the zeta calls it
    # shared; a one-height pass is eta_tilde_weighted itself
    ts = np.linspace(10.0, 240.0, 20) + 0.123
    rows = _eta_tilde_rows(2, 0.7, ts, TAB)
    monkeypatch.setattr(eta, "ROWS_PER_PASS", 7)
    split = _eta_tilde_rows(2, 0.7, ts, TAB)
    for t, ev, ev7 in zip(ts, rows, split):
        one = eta_tilde_weighted(2, 0.7, t, table=TAB)
        assert ev.point.t == t == ev7.point.t
        assert abs(ev.value - one.value) < min(ev.est_error, one.est_error)
        assert abs(ev7.value - one.value) < min(ev7.est_error,
                                                one.est_error)
    one_row, = _eta_tilde_rows(2, 0.7, ts[:1], TAB)
    assert one_row == eta_tilde_weighted(2, 0.7, ts[0], table=TAB)


@pytest.mark.parametrize("extra,table", [
    (TAB.gammas[1] + 5e-4, TAB),         # guard zone of a zero on the line
    (TAB.gammas[0], EMPTY_TABLE),        # no guard: the ladder stalls
])
def test_rows_refusal_is_local(extra, table):
    # a height that is refused is reported alone, and every other row of
    # its pass is bitwise what it is without it
    ts = np.array([20.5, 35.0, 45.0, 60.0])
    base = _eta_tilde_rows(1, 0.5, ts, table)
    got = _eta_tilde_rows(1, 0.5, np.insert(ts, 2, extra), table)
    assert isinstance(got.pop(2), BranchObstruction)
    for a, b in zip(base, got):
        assert (a.value, a.est_error) == (b.value, b.est_error)
    with pytest.raises(BranchObstruction):
        eta_tilde_weighted(1, 0.5, extra, table)


def test_tail_bound_shrinks():
    bounds = [tail_bound(2, 0.5, a) for a in (10.5, 20.5, 40.5)]
    assert all(b > 0 for b in bounds)
    assert bounds[0] > bounds[1] > bounds[2]
    # what the closed-form tail leaves out at its own cut
    assert tail_bound(3, 0.5, 0.5 + CUTOFF_OFFSET) < 2e-14


def _bound_past(m, sigma, a_cut):
    """1/(m-1)! int_A^inf (a-sigma)^(m-1) 2 * 2^-a da, A = a_cut: the
    weight against |log zeta(a + it)| <= 2 * 2^-a for a >= 2."""
    x = a_cut - sigma
    return 2.0 * 2.0 ** -a_cut * sum(
        x ** i / (factorial(i) * log(2.0) ** (m - i)) for i in range(m))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("sigma", [0.5, 1.3])
def test_tail_against_quadrature(m, sigma):
    # the closed form past A = sigma + 6 against quadrature of log zeta
    # on [A, sigma + 40] plus a bound for the rest
    ts = np.array([0.0, 0.1, 14.5, 71.0, 1900.0, 9900.0])
    tails, errs = eta._tail(m, sigma, ts)
    a0, a1 = sigma + CUTOFF_OFFSET, sigma + 40.0
    for t, tail, err in zip(ts, tails, errs):
        log_err = float(eta._log_zeta_error(a0, t))

        def f(a):
            return (a - sigma) ** (m - 1) / factorial(m - 1) \
                * np.log(zeta_batch(a + 1j * t))
        quad, qerr, _ = integrate_vec(
            f, a0, a1, 1e-13, initial_splits=8,
            noise=log_err * (a1 - sigma) ** (m - 1) / factorial(m - 1))
        zeta_err = log_err * ((a1 - sigma) ** m - (a0 - sigma) ** m) \
            / factorial(m)
        assert abs(tail - quad) <= err + qerr + _bound_past(m, sigma, a1) \
            + zeta_err
        # each row sums its own terms: bitwise its value alone
        alone, alone_err = eta._tail(m, sigma, t)
        assert (alone[0], alone_err[0]) == (tail, err)


def test_weighted_against_mpmath_principal():
    # from sigma = 3/2 on, |Im log zeta| <= log zeta(3/2) < pi, so
    # mpmath's principal log is the branch; past a = 60 log zeta is
    # below 2^-59
    m, sigma, t = 3, 1.5, 30.5
    got = eta_tilde_weighted(m, sigma, t)
    want = complex(mp.quad(
        lambda a: (a - sigma) ** (m - 1) / 2
        * mp.log(mp.zeta(mp.mpc(a, t))),
        [sigma, 2.5, 4, 7.5, 15, 30, 60]))
    assert abs(got.value - want) < got.est_error
    assert got.est_error < 1e-8


def test_weighted_evaluation_count():
    # the ray and its panels stop at sigma + 6: the tail is closed form
    got = eta_tilde_weighted(1, 0.6, 30.0, TAB)
    assert got.nevals <= 250


# --------------------------------------------------------------- recursive

def test_recursive_m1_delegates():
    w = eta_tilde_weighted(1, 0.8, 14.0, table=TAB)
    r = eta_tilde_recursive(1, 0.8, 14.0, table=TAB)
    assert r.value == w.value


@pytest.mark.parametrize("m,sigma,t,tol", [
    (2, 1.5, 0.0, 1e-6),
    (2, 0.8, 14.0, 1e-5),
    (3, 2.0, 5.0, 1e-5),
    (2, 0.5, TAB.gammas[0] + 1.5e-3, 1e-5),  # a zero 1.5e-3 off the ray
    (3, 0.8, 1000.0, 1e-5),
    (2, 1.0, 0.0, 1e-6),                     # through the pole
])
def test_routes_agree(m, sigma, t, tol):
    w = eta_tilde_weighted(m, sigma, t, table=TAB)
    r = eta_tilde_recursive(m, sigma, t, table=TAB)
    assert abs(w.value - r.value) < tol
    assert abs(w.value - r.value) <= r.est_error + w.est_error


def test_integral_to_cut_is_exact():
    # a different degree-8 polynomial on each of five uneven pieces: the
    # integral to the cut agrees with the power-basis antiderivatives
    rng = np.random.default_rng(3)
    edges = np.array([0.5, 0.7, 1.3, 2.0, 4.1, 6.5])
    lo, hi = edges[:-1], edges[1:]
    polys = [np.polynomial.Polynomial(rng.normal(size=9), domain=[a, a + 1],
                                      window=[0, 1]) for a in lo]
    coeffs = np.array([p.convert(kind=np.polynomial.Chebyshev,
                                 domain=[a, b]).coef
                       for p, a, b in zip(polys, lo, hi)])
    at_cut = 0.3 - 0.2j
    got = eta._integral_to_cut(lo, hi, coeffs, at_cut)
    assert got.shape == (5, 10)
    anti = [p.integ() for p in polys]
    for i, (a, b) in enumerate(zip(lo, hi)):
        right = at_cut + sum(q(e) - q(d) for q, d, e in
                             zip(anti[i + 1:], lo[i + 1:], hi[i + 1:]))
        xs = np.linspace(a, b, 7)
        want = anti[i](b) - anti[i](xs) + right
        u = (2.0 * xs - a - b) / (b - a)
        scale = 1.0 + np.abs(want).max()
        assert np.abs(np.polynomial.chebyshev.chebval(u, got[i]) - want).max() \
            < 50 * np.finfo(float).eps * scale


def test_recursive_evaluation_count():
    # one fit of log zeta on the ray's ladder; the levels above it are
    # exact integrals and evaluate nothing
    assert eta_tilde_recursive(3, 0.8, 110.0, TAB).nevals <= 1000


# --------------------------------------------------------- c_m and limits

def test_c1_half_frozen():
    # real part pi/2 from the branch below the pole; imaginary part frozen
    # from an independent high-precision prototype
    got = c_m(1, 0.5)
    assert abs(got - (np.pi / 2 + 2.567789453j)) < 1e-8


def test_c_right_of_pole():
    assert abs(c_m(1, 2.0) - 0.5365269459j) < 1e-8
    assert abs(c_m(2, 2.0) - (-0.6560847785)) < 1e-8


def test_c_cache_keeps_its_cap(monkeypatch):
    # past its cap the cache drops its least recently used constant, and
    # a dropped constant is made again to the same value
    monkeypatch.setattr(eta, "_C_CACHE", eta.LRUDict(eta._C_CACHE_CAP))
    sigmas = 2.0 + 0.01 * np.arange(eta._C_CACHE_CAP + 1)
    first = c_m(1, sigmas[0])
    c_m(1, sigmas[1])
    c_m(1, sigmas[0])                 # a use: sigmas[1] is now the oldest
    for sigma in sigmas[2:]:
        c_m(1, sigma)
    assert len(eta._C_CACHE) == eta._C_CACHE_CAP
    assert (1, sigmas[1], 1e-8) not in eta._C_CACHE
    assert c_m(1, sigmas[0]) == first
    again = c_m(1, sigmas[1])
    assert (1, sigmas[1], 1e-8) in eta._C_CACHE
    assert again == eta.eta_tilde_weighted(1, sigmas[1], 0.0).value * 1j
    assert len(eta._C_CACHE) == eta._C_CACHE_CAP


def test_at_the_pole_abscissa():
    # sigma = 1 and just above it, at t = 0: the route integrates
    # log(zeta(a)(a-1)) and never evaluates zeta at the pole, and the
    # error budget stays at tol's share
    for sigma in (1.0, 1.0 + 1e-6):
        got = eta_tilde_weighted(1, sigma, 0.0)
        want = complex(mp.quad(lambda a: mp.log(mp.zeta(a)),
                               [sigma, 2, 6, 14, sigma + 40]))
        assert abs(got.value - want) < got.est_error
        assert got.est_error < 1e-8
    want2 = -complex(mp.quad(lambda a: (a - 1) * mp.log(mp.zeta(a)),
                             [1, 2, 6, 14, 41]))
    assert abs(c_m(2, 1.0) - want2) < 1e-8
    w = eta_tilde_weighted(2, 1.0, 0.0)
    r = eta_tilde_recursive(2, 1.0, 0.0)
    assert abs(w.value - r.value) < w.est_error + r.est_error


def test_vertical_limit_is_bridge_at_zero():
    # as t -> 0 the vertical integral tends to i^m eta~(sigma);
    # the O(t) allowance is |log zeta(sigma)| * t
    for m in (1, 2):
        v = eta_vertical(m, 0.8, 1e-6, TAB)
        w = eta_tilde_weighted(m, 0.8, 0.0)
        assert abs(v.value - (1j ** m) * w.value) < 1e-5


# ------------------------------------------------------------ the zero sum

def test_y2_hand_value():
    tab = _table([(0.75, 10.0, 1)])
    want = 2 * np.pi * (1j * 0.25 ** 2 / 2 + 0.25 * 10.0)
    assert abs(y_m(2, 0.5, 20.0, tab) - want) < 1e-12


def test_y_terms_sum_and_orders():
    tab = _table([(0.75, 10.0, 1), (0.9, 13.0, 1)])
    terms = y_m_terms(2, 0.5, 20.0, tab)
    assert [tm.k for tm in terms] == [0, 1]
    total = sum(tm.contribution for tm in terms)
    assert abs(total - y_m(2, 0.5, 20.0, tab)) < 1e-14


def test_y_additive_over_disjoint_tables():
    a = _table([(0.7, 8.0, 1)])
    b = _table([(0.85, 12.5, 1)])
    merged = _table([(0.7, 8.0, 1), (0.85, 12.5, 1)])
    for m in (1, 2, 3):
        lhs = y_m(m, 0.5, 20.0, merged)
        rhs = y_m(m, 0.5, 20.0, a) + y_m(m, 0.5, 20.0, b)
        assert abs(lhs - rhs) < 1e-14


def test_y_multiplicity_linear():
    once = y_m(2, 0.5, 20.0, _table([(0.75, 10.0, 1)]))
    thrice = y_m(2, 0.5, 20.0, _table([(0.75, 10.0, 3)]))
    assert abs(thrice - 3 * once) < 1e-14


def test_y_ignores_zeros_left_of_sigma():
    assert y_m(2, 0.8, 50.0, TAB) == 0.0


# ------------------------------------------------------------------ bridge

def test_bridge_spot_checks():
    assert check_bridge(1, 0.8, 30.5, TAB) < 1e-4
    assert check_bridge(2, 0.5, 20.0, TAB) < 1e-4


def test_bridge_m3_tall():
    # log zeta's rounding, times the weight (t-u)^2/2, passes the panels'
    # share of abs_tol here; the quadrature must stop at that noise floor
    m, sigma, t = 3, 0.8, 200.5
    ev = eta_vertical(m, sigma, t, TAB)
    et = eta_tilde_weighted(m, sigma, t, TAB)
    res = abs(ev.value - (1j ** m * et.value + y_m(m, sigma, t, TAB)))
    assert res <= ev.est_error + et.est_error
    assert ev.nevals < 30000


def test_bridge_next_to_zeros_near_the_line():
    # at sigma = 0.51 the zeros lie just outside their pads, where log W
    # carries zeta's rounding over |zeta| ~ 0.02; panels held to zeta's
    # own rounding there bisected until they were refused
    m, sigma, t = 3, 0.51, 207.36745524741482
    ev = eta_vertical(m, sigma, t, TAB)
    et = eta_tilde_weighted(m, sigma, t, TAB)
    res = abs(ev.value - (1j ** m * et.value + y_m(m, sigma, t, TAB)))
    assert res <= ev.est_error + et.est_error


def test_bridge_on_the_pole_line():
    # at sigma = 1 log zeta(1 + iu) has a log singularity at u = 0; the
    # pole's -Log(s - 1) is integrated in closed form, so the quadrature
    # never asks zeta for points at the pole
    for m in (1, 2, 3):
        ev = eta_vertical(m, 1.0, 22.4, TAB)
        et = eta_tilde_weighted(m, 1.0, 22.4, TAB)
        res = abs(ev.value - (1j ** m * et.value + y_m(m, 1.0, 22.4, TAB)))
        assert res <= ev.est_error + et.est_error
    # near t = 0 the value tends to c_1; the O(t log t) integral is small
    assert abs(eta_vertical(1, 1.0, 1e-6, TAB).value - c_m(1, 1.0)) < 1e-4


def test_bridge_exposes_a_phantom_zero():
    # the winding comes from zeta, not from the table: a phantom zero at
    # 3/4 + 10i splits the line and adds its y_m term, but the walks
    # that anchor each stretch see no zero there, so the bridge misses
    # by exactly |y_m| of the phantom (pi/2 at m = 1)
    phantom = _table([(0.75, 10.0, 1)])
    merged = ZeroTable(betas=np.concatenate([[0.75], TAB.betas]),
                       gammas=np.concatenate([[10.0], TAB.gammas]),
                       mults=np.concatenate([[1], TAB.mults]),
                       source_label="bundled plus phantom")
    for m in (1, 2):
        ev = eta_vertical(m, 0.5, 20.0, merged)
        et = eta_tilde_weighted(m, 0.5, 20.0, merged)
        res = abs(ev.value - (1j ** m * et.value + y_m(m, 0.5, 20.0, merged)))
        want = abs(y_m(m, 0.5, 20.0, phantom))
        assert abs(res - want) <= ev.est_error + et.est_error
    assert abs(y_m(1, 0.5, 20.0, phantom) - np.pi / 2) < 1e-12


def test_critical_line_sweep_through_the_cache(monkeypatch):
    # on sigma = 1/2 the rows cross ordinates and pads.  Row by row, each
    # steps up from the knots its predecessors left in the line cache;
    # then the line is evicted, its top row refills it, and the rows are
    # read again from the top down.  Every row is bitwise its cold value,
    # and its bridge residual sits inside est_error; two rows lie inside
    # the pad of a zero on the line, where the last step is the pad's
    monkeypatch.setattr(eta, "_LINE_CACHE", eta.LRUDict(1))
    ts = np.sort(np.concatenate([20.25 + 2.0 * np.arange(21),
                                 TAB.gammas[1] + np.array([-5e-3, 5e-3])]))
    for m in (1, 2, 3):
        eta._LINE_CACHE.clear()
        up = [eta_vertical(m, 0.5, t, TAB) for t in ts]
        eta_vertical(m, 0.8, 30.0, TAB)          # evicts the line
        assert len(eta._LINE_CACHE) == 1
        down = [eta_vertical(m, 0.5, t, TAB) for t in ts[::-1]][::-1]
        for t, a, b in zip(ts, up, down):
            eta._LINE_CACHE.clear()
            cold = eta_vertical(m, 0.5, t, TAB)
            for ev in (a, b):
                assert (ev.value, ev.est_error) \
                    == (cold.value, cold.est_error)
            et = eta_tilde_weighted(m, 0.5, t, TAB)
            res = abs(cold.value - (1j ** m * et.value
                                    + y_m(m, 0.5, t, TAB)))
            assert res <= cold.est_error + et.est_error
        # a row below the line's top integrates only its partial step
        assert down[-2].nevals < cold.nevals / 5


def test_line_cache_keys_on_table_contents():
    # a table that misses the first zero, under the full table's label,
    # may not step up from the full table's knots: on its own line the
    # ladder stalls on the zero it misses, and the walk there refuses
    short = ZeroTable(betas=TAB.betas[1:], gammas=TAB.gammas[1:],
                      mults=TAB.mults[1:], source_label=TAB.source_label)
    eta_vertical(1, 0.5, 20.0, TAB)
    with pytest.raises(BranchObstruction):
        eta_vertical(1, 0.5, 20.5, short)


def test_growth_check():
    out = growth_check(1, 2.0, [10.0, 20.0], TAB)
    assert len(out) == 2
    for t, ratio in out:
        assert ratio >= 0.0 and np.isfinite(ratio)
    with pytest.raises(ValidationError):
        growth_check(1, 2.0, [2.0], TAB)


# ------------------------------------------------------------- validation

def test_vertical_preconditions():
    with pytest.raises(ValidationError):
        eta_vertical(1, 0.8, -3.0, TAB)
    with pytest.raises(TableCoverage):
        eta_vertical(1, 0.8, 400.0, TAB)
    with pytest.raises(ValidationError):
        eta_vertical(4, 0.8, 20.0, TAB)
    with pytest.raises(ValidationError):
        eta_vertical(1, 0.3, 20.0, TAB)


def test_guard_band():
    g1 = TAB.gammas[0]
    with pytest.raises(BranchObstruction):
        check_guard(TAB, 0.4, g1 + 5e-4)
    check_guard(TAB, 0.8, g1 + 5e-4)  # zero left of sigma: clean


def test_abs_tol_must_be_positive():
    for route in (eta_tilde_weighted, eta_tilde_recursive, eta_vertical):
        with pytest.raises(ValidationError):
            route(1, 0.8, 20.0, TAB, abs_tol=-1.0)
