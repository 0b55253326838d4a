import time
import tracemalloc
from math import factorial, log

import numpy as np
import mpmath as mp
import pytest

from iterzeta import eta, quadrature, rays
from iterzeta.errors import (BranchObstruction, GuardBand,
                             QuadratureNonconvergence, TableCoverage,
                             UnsupportedRange, ValidationError)
from iterzeta.eta import (_eta_tilde_rows, _eta_vertical_rows, c_m,
                          check_bridge,
                          eta_tilde_recursive, eta_tilde_weighted,
                          eta_vertical, growth_check, tail_bound, y_m,
                          y_m_terms)
from iterzeta.hunt import hunt_value
from iterzeta.quadrature import integrate_rows
from iterzeta.rays import CUTOFF_OFFSET, log_zeta_horizontal
from iterzeta.zetafun import zeta_batch, zeta_error
from iterzeta.zeros import (EMPTY_TABLE, ZeroTable, bundled_table,
                            zeros_in_box)

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
    # ladder to stall.  Its ladder resolves a gap of 5.2e-13, below
    # GRAZING_GAP, so the row is refused before its quadrature, whose
    # panels used to double to MAX_ROW_PANELS first
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(BranchObstruction, match="grazes a zero"):
            eta_tilde_weighted(1, 0.5, 30.42487612586)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 512 * 2 ** 20
    # order 2's weight vanishes at the ray's start, and its ray resolves
    assert eta_tilde_weighted(2, 0.5, 30.42487612586).est_error < 1e-10


def test_rows_match_one_height(monkeypatch):
    # one pass over 21 heights, the real axis among them, and three
    # passes of at most 7: zeta gives a point the same bits in any batch
    # and each row has a ladder and panels of its own, so each row is
    # its one-height value, est_error and nevals to the bit; a one-height
    # pass is eta_tilde_weighted itself
    ts = np.append(0.0, np.linspace(10.0, 240.0, 20) + 0.123)
    rows = _eta_tilde_rows(2, 0.7, ts, TAB)
    monkeypatch.setattr(eta, "ROWS_PER_PASS", 7)
    split = _eta_tilde_rows(2, 0.7, ts, TAB)
    for t, ev, ev7 in zip(ts, rows, split):
        one = eta_tilde_weighted(2, 0.7, t, table=TAB)
        assert ev.point.t == t == ev7.point.t
        assert (ev.value, ev.est_error, ev.nevals) \
            == (one.value, one.est_error, one.nevals)
        assert (ev7.value, ev7.est_error, ev7.nevals) \
            == (one.value, one.est_error, one.nevals)
    one_row, = _eta_tilde_rows(2, 0.7, ts[:1], TAB)
    assert one_row == eta_tilde_weighted(2, 0.7, ts[0], table=TAB)


def test_a_pass_that_stops_at_round_two_makes_one_zeta_call(monkeypatch):
    # the ladder starts on the nodes of the panels' first two rounds and
    # serves them: a ray whose ladder passes at once and whose panels
    # stop at round two makes one zeta call, and its nevals counts each
    # evaluated point once, its ladder's nodes
    calls, branches = [], []
    zeta_batch, ray_branch = rays.zeta_batch, eta.RayBranch

    def counted(s, *args):
        calls.append(np.size(s))
        return zeta_batch(s, *args)

    def kept(*args):
        branches.append(ray_branch(*args))
        return branches[-1]
    monkeypatch.setattr(rays, "zeta_batch", counted)
    monkeypatch.setattr(eta, "RayBranch", kept)
    depth = []

    def rounds(f, *args, **kwargs):
        def seen(nodes, row):
            depth.append(nodes.size)
            return f(nodes, row)
        return integrate_rows(seen, *args, **kwargs)
    monkeypatch.setattr(eta, "integrate_rows", rounds)
    ev = eta_tilde_weighted(1, 1.5, 30.0, TAB)
    # the coarse panels and their halves in one integrand call, and no
    # third round
    assert depth == [3 * eta.RAY_SPLITS * quadrature.PANEL_ORDER]
    assert calls == [branches[0].nodes_used]
    assert ev.nevals == branches[0].nodes_used == 2 + 3 * eta.RAY_SPLITS \
        * quadrature.PANEL_ORDER


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


def test_order_zero_is_log_zeta():
    # order 0 of a tuple is log zeta at the ray's start, bit for bit, with
    # _log_zeta_error as its est_error; the other orders are bitwise what
    # they are without it, and a refused height is refused in both
    ts = np.array([0.5, 20.5, TAB.gammas[1] + 5e-4, 35.0, 110.25])
    with0 = _eta_tilde_rows((0, 1, 2), 0.5, ts, TAB)
    without = _eta_tilde_rows((1, 2), 0.5, ts, TAB)
    for t, got, want in zip(ts, with0, without):
        if isinstance(want, Exception):
            assert type(got) is type(want) is GuardBand
            continue
        lz = got[0]
        assert lz.m == 0 and lz.point.t == t
        assert lz.value == log_zeta_horizontal(0.5, t, TAB)
        assert lz.est_error == eta._log_zeta_error(0.5, t)
        for a, b in zip(got[1:], want):
            assert (a.m, a.value, a.est_error, a.nevals) \
                == (b.m, b.value, b.est_error, b.nevals)


def test_order_zero_only_in_a_tuple():
    # an integer m = 0 is refused wherever it was: both eta~ routes, a
    # pass of one order and the hunt (test_mean_square_validation holds
    # the mean square)
    for call in (lambda: eta_tilde_weighted(0, 0.8, 20.0, TAB),
                 lambda: eta_tilde_recursive(0, 0.8, 20.0, TAB),
                 lambda: _eta_tilde_rows(0, 0.8, np.array([20.0]), TAB),
                 lambda: hunt_value(0, 0.8, 0.1 + 0.1j, 0.1, table=TAB)):
        with pytest.raises(UnsupportedRange):
            call()


def test_log_zeta_error_bounds_zeta_on_its_path():
    # _log_zeta_error(sigma, t) stands for zeta's error on the ray from
    # sigma + it and on the line sigma + iu below t.  Right past a rung
    # change the corner's remainder falls far below tol while a point of
    # the path, still on the shorter rung, keeps one near tol: zeta's own
    # error at the corner, floored at tol, fell short by 1.9 times on the
    # ray at sigma = 2, t = 7761.9 and by 1.88 on the line at sigma = 1/2
    # below t = 223.6 (at u = 223.5521)
    def worst(sigma, t, ray, line):
        pts = np.concatenate([ray + 1j * t, sigma + 1j * line])
        pts = pts[np.abs(pts - 1.0) >= 1.0]     # tol inside the unit disc
        return zeta_error(pts).max() / eta._log_zeta_error(sigma, t)
    assert worst(2.0, 7761.9, np.linspace(2.0, 2.1, 20_001),
                 np.array([1.0])) <= 1.0
    assert worst(0.5, 223.6, np.array([0.5]),
                 np.linspace(223.0, 223.6, 60_001)) <= 1.0
    for sigma in (0.5, 0.6, 0.8, 1.0, 2.0):
        for t in np.linspace(10.0, 9990.0, 12):
            assert worst(sigma, t, np.linspace(sigma, sigma + CUTOFF_OFFSET,
                                               2_001),
                         np.linspace(0.0, t, 2_001)) <= 1.0


def test_tail_bound_shrinks():
    bounds = [tail_bound(2, 0.5, a) for a in (10.5, 20.5, 40.5)]
    assert all(b > 0 for b in bounds)
    assert bounds[0] > bounds[1] > bounds[2]
    # what the closed-form tail leaves out at its own cut
    assert tail_bound(3, 0.5, 0.5 + CUTOFF_OFFSET) < 2e-14


def test_tail_and_zero_sum_refuse_non_finite_inputs():
    # tail_bound returned NaN at a NaN sigma, and 0 * inf = NaN at an
    # infinite cut
    for sigma, a_cut in ((np.nan, 7.0), (0.5, np.inf), (0.5, np.nan)):
        with pytest.raises(ValidationError, match="finite"):
            tail_bound(2, sigma, a_cut)
    # with a zero right of the line, t = inf gave inf+nanj and NaN terms
    tab = ZeroTable(betas=np.array([0.75]), gammas=np.array([10.0]),
                    mults=np.array([1]))
    for t in (np.inf, np.nan):
        for f in (y_m, y_m_terms):
            with pytest.raises(ValidationError, match="finite"):
                f(2, 0.5, t, tab)


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
        (quad,), (qerr,), _, (refused,) = integrate_rows(
            lambda a, _: f(a), a0, a1, 1e-13, initial_splits=8,
            noise=log_err * (a1 - sigma) ** (m - 1) / factorial(m - 1))
        assert refused is None
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

@pytest.mark.parametrize("m,sigma,t,tol", [
    # m = 1 nests one level of the fit, independent of the weighted panels
    (1, 0.8, 14.0, 1e-11),
    (1, 0.8, 110.0, 1e-11),
    (1, 1.5, 0.0, 1e-11),
    (1, 0.5, TAB.gammas[0] + 1.5e-3, 1e-11),
    (1, 0.6, 1000.0, 1e-11),
    (1, 0.95, 230.0, 1e-11),
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


@pytest.mark.parametrize("sigma", [0.5, 0.8, 1.0, 2.0])
def test_near_pole_rows(sigma):
    # below NEAR_POLE a ray integrates log W and takes the pole's part in
    # closed form: no row costs more than the real axis's, and the two
    # routes agree within their est_errors
    for m in (1, 2, 3):
        w0 = eta_tilde_weighted(m, sigma, 0.0, TAB)
        r0 = eta_tilde_recursive(m, sigma, 0.0, TAB)
        for t in (1e-3, 0.1, 0.5, 0.999):
            w = eta_tilde_weighted(m, sigma, t, TAB)
            r = eta_tilde_recursive(m, sigma, t, TAB)
            assert w.nevals <= w0.nevals and r.nevals <= r0.nevals, (m, t)
            assert abs(w.value - r.value) <= w.est_error + r.est_error


def test_recursive_error_holds_no_fixed_term():
    # the recursive route's est_error is its fit, tail and zeta terms:
    # no fixed 1e-10 per unit of the ray, which no step derives
    for m, sigma, t in ((2, 1.5, 0.0), (2, 0.8, 14.0)):
        assert eta_tilde_recursive(m, sigma, t, table=TAB).est_error < 2e-10


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


# c_m for m = 1..3 before t = 0 became a row of the ray, when it came
# from a quadrature of its own on the real axis
C_BEFORE = [
    (0.5, ((1.5707963267948974+2.5677894531529084j),
           (-2.7748956248826797+0.39269908169872636j),
           (-0.06544984694979661-2.988182420413875j))),
    (0.51, ((1.5393804002589988+2.563867725066067j),
            (-2.749237113568928+0.377148198063459j),
            (-0.06160087235037537-2.9605617894021417j))),
    (0.8, ((0.6283185307179586+2.307656028213726j),
           (-2.035430347336214+0.06283185307179551j),
           (-0.00418879020478613-2.2685553317215943j))),
    (1.0, (1.7975699586287386j, (-1.614510005158067+0j),
           -1.9051505604450294j)),
    (1.000001, (1.797555143117893j, (-1.6145082075957655+0j),
                -1.9051489459359017j)),
    (1.5, (0.8825033447107792j, (-1.001430501632077-3.552713678800501e-15j),
           (7.105427357601002e-15-1.2685003504598777j))),
    (2.0, (0.5365269459211771j, (-0.6560847785313865+0j),
           (7.105427357601002e-15-0.86125390139082j))),
    (20.0, ((-3.552713678800501e-15+1.376122591520731e-06j),
            (-1.9851860187821434e-06+3.907985046680551e-14j),
            (9.450218385609332e-13-2.8638915022104056e-06j))),
]


@pytest.mark.parametrize("sigma,before", C_BEFORE)
def test_c_is_unchanged_by_the_ray(sigma, before):
    # c_m's eta~ at t = 0 is a row of the ray's pass, integrating log W
    # there; each constant is its earlier value to rounding
    for m, want in zip((1, 2, 3), before):
        assert abs(c_m(m, sigma) - want) <= 1e-13


def test_constants_of_a_line_share_one_pass(monkeypatch):
    # the first constant asked for at a sigma makes every order's in one
    # t = 0 row: one zeta call for the ladder, which serves the panels'
    # first two rounds, where they stop; no more zeta calls for the
    # other orders, and each is its order's eta~ at t = 0
    monkeypatch.setattr(eta, "_C_CACHE", eta.LRUDict(eta._C_CACHE_CAP))
    calls, zeta_batch = [], rays.zeta_batch

    def counted(s, *args):
        calls.append(np.size(s))
        return zeta_batch(s, *args)
    monkeypatch.setattr(rays, "zeta_batch", counted)
    sigma = 0.77
    c3 = c_m(3, sigma)
    assert len(calls) == 1
    c1, c2 = c_m(1, sigma), c_m(2, sigma)
    assert len(calls) == 1
    for m, c in ((1, c1), (2, c2), (3, c3)):
        ev = eta_tilde_weighted(m, sigma, 0.0)
        assert abs(c - 1j ** m * ev.value) <= 1e-15


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_heights_are_refused_first(monkeypatch, t):
    # every horizontal route refuses a height that is not finite before
    # any zeta call, with the point's own message
    calls = []
    monkeypatch.setattr(rays, "zeta_batch", lambda *a: calls.append(a))
    for route in (eta_tilde_weighted, eta_tilde_recursive):
        with pytest.raises(ValidationError, match="finite"):
            route(1, 0.8, t)
    with pytest.raises(ValidationError, match="finite"):
        log_zeta_horizontal(0.8, t)
    assert calls == []


def test_huge_ints_are_refused_as_infinities(refused_as_infinity):
    # a Python int past the float range has no float form: each entry
    # point refuses it as it refuses an infinity of its sign, where it
    # raised OverflowError, or TypeError for sigma
    calls = (lambda t: eta_tilde_weighted(1, 0.8, t),
             lambda t: eta_tilde_recursive(2, 0.8, t),
             lambda t: y_m(2, 0.8, t, TAB),
             lambda t: log_zeta_horizontal(0.8, t),
             lambda t: zeros_in_box(TAB, 0.5, t),
             lambda cut: tail_bound(2, 0.8, cut),
             lambda sigma: c_m(1, sigma),
             lambda sigma: eta_tilde_weighted(2, sigma, 1.0))
    for call in calls:
        refused_as_infinity(call)


def test_c_cache_keeps_its_cap(monkeypatch):
    # past its cap the cache drops the constants of its least recently
    # used sigma, and a dropped constant is made again to the same value
    monkeypatch.setattr(eta, "_C_CACHE", eta.LRUDict(eta._C_CACHE_CAP))
    sigmas = 2.0 + 0.01 * np.arange(eta._C_CACHE_CAP + 1)
    first = c_m(1, sigmas[0])
    c_m(1, sigmas[1])
    c_m(1, sigmas[0])                 # a use: sigmas[1] is now the oldest
    for sigma in sigmas[2:]:
        c_m(1, sigma)
    assert len(eta._C_CACHE) == eta._C_CACHE_CAP
    assert sigmas[1] not in eta._C_CACHE
    assert c_m(1, sigmas[0]) == first
    again = c_m(1, sigmas[1])
    assert sigmas[1] in eta._C_CACHE
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


def test_y_refuses_what_eta_refuses():
    # the one order and sigma check: no value left of the critical line,
    # at a sigma that is not finite, or at an unsupported order
    for m, sigma in ((1, np.nan), (1, np.inf), (1, 0.2), (4, 0.8), (0, 0.8)):
        with pytest.raises(ValidationError):
            y_m(m, sigma, 20.0, TAB)


# ------------------------------------------------------------------ bridge

def test_bridge_spot_checks():
    assert check_bridge(1, 0.8, 30.5, TAB) < 1e-4
    assert check_bridge(2, 0.5, 20.0, TAB) < 1e-4


def test_bridge_m3_tall():
    # log zeta's rounding, times the weight (t-u)^2/2, passes the panels'
    # share of ABS_TOL here; the quadrature must stop at that noise floor
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


def test_vertical_rows_are_their_cold_rows(monkeypatch):
    # a pass over many heights steps its line once, yet every row is
    # bitwise its one-height call on a cold cache: on sigma = 1/2 across
    # cuts and pads (two rows inside the pad of a zero on the line), on
    # the README grid, and for heights unsorted and repeated on a line
    # some rows have already stepped up
    monkeypatch.setattr(eta, "_LINE_CACHE", eta.LRUDict(1))
    sweep = np.concatenate([20.25 + 2.0 * np.arange(21),
                            TAB.gammas[1] + np.array([-5e-3, 5e-3])])
    readme = 20.0 + 0.5 * np.arange(21)
    grids = [(m, 0.5, sweep) for m in (1, 2, 3)] \
        + [(2, 0.8, readme), (2, 0.8, readme[[7, 3, 20, 3, 0, 7, 12]])]
    for m, sigma, ts in grids:
        if sigma == 0.5:
            eta._LINE_CACHE.clear()
        got = _eta_vertical_rows(m, sigma, ts, TAB)
        assert len(got) == ts.size
        for t, ev in zip(ts, got):
            eta._LINE_CACHE.clear()
            cold = eta_vertical(m, sigma, float(t), TAB)
            assert (ev.value, ev.est_error) == (cold.value, cold.est_error)
            assert ev.point.t == t
    assert _eta_vertical_rows(2, 0.8, [], TAB) == []


def test_vertical_pass_steps_its_line_once(monkeypatch):
    # a slice of at most ROWS_PER_PASS heights builds at most one line
    # branch and makes one integrate_rows call; smaller slices give the
    # same bits.  Of the seven 16-row slices the last, t = 25..25.75,
    # lies inside the branch its predecessor built up to the knot 26
    c_m(1, 0.75)                        # the line's constants, kept
    calls = {"LineBranch": 0, "integrate_rows": 0}

    def counted(name):
        real = getattr(eta, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(eta, name, call)
    counted("LineBranch")
    counted("integrate_rows")
    ts = 1.0 + 0.25 * np.arange(100)
    eta._LINE_CACHE.clear()
    whole = _eta_vertical_rows(3, 0.75, ts, TAB)
    assert calls == {"LineBranch": 1, "integrate_rows": 1}
    monkeypatch.setattr(eta, "ROWS_PER_PASS", 16)
    eta._LINE_CACHE.clear()
    sliced = _eta_vertical_rows(3, 0.75, ts[::-1], TAB)[::-1]
    assert calls == {"LineBranch": 7, "integrate_rows": 8}
    assert [(a.value, a.est_error) for a in whole] \
        == [(b.value, b.est_error) for b in sliced]


def _counting_branches(monkeypatch):
    """Count the LineBranch and RayBranch objects built from here on:
    a line branch, and the walks that anchor its stretches."""
    calls = {"LineBranch": 0, "RayBranch": 0}

    def counted(module, name):
        real = getattr(module, name)

        def make(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, make)
    counted(eta, "LineBranch")
    counted(rays, "RayBranch")
    return calls


def test_a_row_on_a_kept_line_keeps_its_branch(monkeypatch):
    # the first row of a line builds its branch up to the first knot
    # above it, t = 22; a later row whose steps lie inside that branch
    # builds no branch and makes no walk, counts only its partial step,
    # and is bitwise its cold call.  A row past the branch's top builds
    # one again, from its last kept knot
    c_m(2, 0.8)                             # the line's constants, kept
    eta._LINE_CACHE.clear()
    first = eta_vertical(2, 0.8, 21.0, TAB)
    calls = _counting_branches(monkeypatch)
    warm = [eta_vertical(2, 0.8, t, TAB) for t in (21.5, 20.25, 22.0)]
    assert calls == {"LineBranch": 0, "RayBranch": 0}
    kept = eta._line(2, 0.8, TAB).branch
    assert (kept.bottom, kept.top) == (0.0, 22.0)
    past = eta_vertical(2, 0.8, 22.5, TAB)
    assert calls["LineBranch"] == 1 and calls["RayBranch"] == 1
    branch = eta._line(2, 0.8, TAB).branch
    assert (branch.bottom, branch.top) == (20.0, 24.0)
    for ev in warm + [past]:
        eta._LINE_CACHE.clear()
        cold = eta_vertical(2, 0.8, ev.point.t, TAB)
        assert (ev.value, ev.est_error) == (cold.value, cold.est_error)
        assert ev.nevals < cold.nevals
    # a kept branch's nodes count towards the row that built it only: a
    # warm row counts what it counts in a grid above that grid's lowest
    # row, its partial step
    eta._LINE_CACHE.clear()
    grid = _eta_vertical_rows(2, 0.8, [1.0, 21.5, 20.25, 22.0], TAB)
    assert [ev.nevals for ev in warm] == [g.nevals for g in grid[1:]]
    assert first.nevals - warm[0].nevals > kept.nodes_used


def _row(ev):
    return (type(ev),) if isinstance(ev, Exception) \
        else (ev.value, ev.est_error)


def test_warm_rows_are_their_cold_rows():
    # one-row calls in any order on a line whose knots and branch are
    # kept get what their cold calls get, refusals and their classes
    # included: on the bundled table, on sigma = 1/2 across cuts and
    # pads, and on a table that misses the first zero, whose rows from
    # the missed ordinate 14.1347 up refuse
    short = ZeroTable(betas=TAB.betas[1:], gammas=TAB.gammas[1:],
                      mults=TAB.mults[1:], source_label="short")
    ts = np.concatenate([10.3 + 1.4 * np.arange(12), [14.0, 14.1, 14.2],
                         TAB.gammas[1] + np.array([-5e-3, 5e-3])])
    order = np.random.default_rng(7).permutation(ts.size)
    for m, sigma, table in ((1, 0.5, TAB), (2, 0.8, TAB), (1, 0.5, short),
                            (3, 0.5, short)):
        cold = {}
        for t in ts.tolist():
            eta._LINE_CACHE.clear()
            cold[t] = _row(_eta_vertical_rows(m, sigma, [t], table)[0])
        seqs = [np.sort(ts), np.sort(ts)[::-1], ts[order]]
        # each order on a new line, then all three on one line
        for seq in seqs + [np.concatenate(seqs)]:
            eta._LINE_CACHE.clear()
            for t in seq.tolist():
                got = _row(_eta_vertical_rows(m, sigma, [t], table)[0])
                assert got == cold[t], (m, sigma, table.source_label, t)
        refused = [t for t in ts.tolist() if len(cold[t]) == 1]
        assert refused == ([t for t in ts.tolist() if t > 14.1347]
                           if table is short else [])


def test_vertical_rows_refuse_as_their_cold_rows():
    # on a table that misses the first zero, a pass refuses exactly the
    # rows whose cold one-height calls refuse: the steps up to 14 keep
    # off the missed zero; 14.5 steps onto it, and 16 and 20 above it
    short = ZeroTable(betas=TAB.betas[1:], gammas=TAB.gammas[1:],
                      mults=TAB.mults[1:], source_label="short")
    ts = np.array([10.0, 12.0, 13.5, 14.0, 14.5, 16.0, 20.0])
    got = _eta_vertical_rows(1, 0.5, ts, short)
    for t, ev in zip(ts, got):
        eta._LINE_CACHE.clear()
        try:
            cold = eta_vertical(1, 0.5, t, short)
        except (BranchObstruction, QuadratureNonconvergence):
            assert isinstance(ev, (BranchObstruction,
                                   QuadratureNonconvergence)), t
        else:
            assert (ev.value, ev.est_error) == (cold.value, cold.est_error)
    assert [isinstance(ev, Exception) for ev in got] == [False] * 4 \
        + [True] * 3
    # input errors refuse the whole call before any row
    for bad in ([20.0, 0.0], [20.0, np.nan]):
        with pytest.raises(ValidationError):
            _eta_vertical_rows(1, 0.5, bad, TAB)
    with pytest.raises(TableCoverage):
        _eta_vertical_rows(1, 0.5, [20.0, 400.0], TAB)


def test_a_step_across_a_missed_zero_refuses_at_once(monkeypatch):
    # on a table that misses the first zero, the line's ladder stalls on
    # it (u = 14.1347); the steps that would cross it refuse as a
    # BranchObstruction that names the stall, before they are
    # integrated: the cold row and the pass each ask zeta for a few
    # hundred points, where bisecting the step asked 1.4M
    short = ZeroTable(betas=TAB.betas[1:], gammas=TAB.gammas[1:],
                      mults=TAB.mults[1:], source_label="short")
    points, zeta_batch = [], rays.zeta_batch

    def counted(s, *args):
        points.append(np.size(s))
        return zeta_batch(s, *args)
    monkeypatch.setattr(rays, "zeta_batch", counted)
    eta._LINE_CACHE.clear()
    with pytest.raises(BranchObstruction, match="14.134725"):
        eta_vertical(1, 0.5, 14.5, short)
    assert sum(points) < 10_000
    points.clear()
    eta._LINE_CACHE.clear()
    got = _eta_vertical_rows(1, 0.5, np.array([10.0, 14.5, 16.0]), short)
    assert isinstance(got[0], eta.EtaValue)
    assert all(isinstance(ev, BranchObstruction) for ev in got[1:])
    assert sum(points) < 10_000


def test_a_stall_inside_a_pad_refuses_no_step():
    # just right of 1/2 the table's zeros are not cuts, and the line's
    # ladder stalls on each of them, 1e-13 away; the pads model those
    # zeros, so the steps across them are integrated, and the rows agree
    # within their bounds with the rows on the critical line, where the
    # zeros are cuts
    sigma = 0.5 + 1e-13
    bare = rays.LineBranch(sigma, 50.0)
    assert bare.refusals([10.0], [50.0])[0] is not None
    ts = np.array([10.0, 14.5, 20.0, 30.0, 50.0])
    for m in (1, 3):
        eta._LINE_CACHE.clear()
        near = _eta_vertical_rows(m, sigma, ts, TAB)
        on = _eta_vertical_rows(m, 0.5, ts, TAB)
        for a, b in zip(near, on):
            assert abs(a.value - b.value) <= a.est_error + b.est_error


def test_a_new_line_starts_at_its_constants(monkeypatch):
    # knot 0 of a new line holds c_j(sigma) and their est_errors, which
    # the Taylor shift carries up; the constants' evaluations count
    # towards the first row that gets a value, when the line made them
    monkeypatch.setattr(eta, "_C_CACHE", eta.LRUDict(eta._C_CACHE_CAP))
    eta._LINE_CACHE.clear()
    first = eta_vertical(3, 0.8, 5.0, TAB)
    F, E = eta._line(3, 0.8, TAB).kept[0]
    assert list(F) == [c_m(j, 0.8) for j in (1, 2, 3)]
    assert list(E) == [eta._c_eta(j, 0.8).est_error for j in (1, 2, 3)]
    eta._LINE_CACHE.clear()
    again = eta_vertical(3, 0.8, 5.0, TAB)      # the constants are kept
    assert (again.value, again.est_error) == (first.value, first.est_error)
    assert first.nevals - again.nevals == eta._c_eta(1, 0.8).nevals


def test_a_new_line_forms_zeta_error_at_its_steps(monkeypatch):
    # a one-row call on a new line forms zeta's error at the tops of the
    # steps it takes, 10 knot steps and a partial one to t = 21.9, not at
    # every knot up to the table's coverage (127 points)
    monkeypatch.setattr(eta, "_C_CACHE", eta.LRUDict(eta._C_CACHE_CAP))
    points, path_error = [], eta.zeta_path_error

    def counted(s, *args):
        points.append(np.size(s))
        return path_error(s, *args)
    monkeypatch.setattr(eta, "zeta_path_error", counted)
    eta._LINE_CACHE.clear()
    eta_vertical(2, 0.8, 21.9, TAB)
    assert sum(points) <= 12


def test_vertical_rows_refuse_crowded_ordinates():
    # ordinates within twice the singularity pad of each other refuse
    # the rows above them, and only those
    crowd = _table([(0.5, 30.0, 1), (0.5, 30.015, 1), (0.5, 60.0, 1)])
    got = _eta_vertical_rows(1, 0.8, [20.0, 30.01, 40.0], crowd)
    assert isinstance(got[0], eta.EtaValue)
    assert isinstance(got[1], eta.EtaValue)
    assert isinstance(got[2], UnsupportedRange)
    with pytest.raises(UnsupportedRange):
        eta_vertical(1, 0.8, 40.0, crowd)


def test_growth_check(monkeypatch):
    out = growth_check(1, 2.0, [10.0, 20.0], TAB)
    assert len(out) == 2
    for t, ratio in out:
        assert ratio >= 0.0 and np.isfinite(ratio)
    with pytest.raises(ValidationError):
        growth_check(1, 2.0, [2.0], TAB)

    # a bad sample anywhere refuses the call before any row is computed
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")
    monkeypatch.setattr(eta, "_eta_vertical_rows", no_rows)
    with pytest.raises(ValidationError):
        growth_check(1, 2.0, [10.0, 20.0, 2.0], TAB)


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, 10 ** 400],
                         ids=["inf", "-inf", "nan", "int-1e400"])
def test_vertical_routes_refuse_non_finite_heights_first(monkeypatch, t):
    # a height that is not finite is refused as such, before the sign
    # and coverage checks: inf used to meet TableCoverage and NaN the
    # sign check, and 10**400 raised OverflowError
    monkeypatch.setattr(eta, "_line", lambda *args: 1 / 0)
    for call in (lambda: eta_vertical(1, 0.8, t, TAB),
                 lambda: _eta_vertical_rows(1, 0.8, [-1.0, t, 400.0], TAB),
                 lambda: check_bridge(1, 0.8, t, TAB),
                 lambda: growth_check(1, 0.8, [1.0, t, 400.0], TAB)):
        with pytest.raises(ValidationError, match="^t must be finite$") \
                as err:
            call()
        assert type(err.value) is ValidationError


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
    # every horizontal route refuses the band with a GuardBand, at +-t,
    # for a zero at or right of sigma; a zero left of sigma leaves the
    # ray clean
    g1 = TAB.gammas[0]
    for t in (g1 + 5e-4, -g1 - 5e-4):
        for route in (eta_tilde_weighted, eta_tilde_recursive):
            with pytest.raises(GuardBand, match=f"{g1:.6f}"):
                route(1, 0.5, t, TAB)
            assert np.isfinite(route(1, 0.8, t, TAB).value)
        for sigma in (0.4, 0.5):
            with pytest.raises(GuardBand, match=f"{g1:.6f}"):
                log_zeta_horizontal(sigma, t, TAB)
        assert np.isfinite(log_zeta_horizontal(0.8, t, TAB))
