import numpy as np
import mpmath as mp
import pytest

from iterzeta import rays
from iterzeta.errors import BranchObstruction, GuardBand, UnsupportedRange
from iterzeta.eta import _eta_tilde_rows
from iterzeta.quadrature import opening_nodes
from iterzeta.rays import (CUTOFF_OFFSET, GUARD, LineBranch, RayBranch,
                           _guarded, _initial_offsets, log_zeta_horizontal,
                           log_zeta_real_axis, vertical_log_zeta)
from iterzeta.zeros import EMPTY_TABLE, ZeroTable, bundled_table

mp.mp.dps = 25

TAB = bundled_table()
EPS = np.finfo(np.float64).eps


def _mp_continued(sigma, t, n=1600):
    """Independent oracle: dense principal-log samples along the ray,
    unwound by nearest-2pi matching from the far anchor."""
    alphas = np.linspace(sigma + CUTOFF_OFFSET, sigma, n)
    vals = [mp.log(mp.zeta(mp.mpc(float(a), t))) for a in alphas]
    out = complex(vals[0])
    prev = complex(vals[0])
    for v in vals[1:]:
        v = complex(v)
        k = round((prev.imag - v.imag) / (2 * np.pi))
        v += 2j * np.pi * k
        prev = v
    return prev


@pytest.mark.parametrize("sigma,t", [(0.5, 20.0), (0.8, 50.0), (2.0, 30.5)])
def test_against_mpmath_walk(sigma, t):
    got = log_zeta_horizontal(sigma, t, table=bundled_table())
    want = _mp_continued(sigma, t)
    assert abs(got - want) < 1e-10


def test_exp_recovers_zeta():
    for sigma, t in [(0.6, 33.3), (1.5, 101.7), (0.5, 48.0)]:
        lz = log_zeta_horizontal(sigma, t, table=bundled_table())
        want = complex(mp.zeta(mp.mpc(sigma, t)))
        assert abs(np.exp(lz) - want) < 1e-10


def test_far_right_decay():
    # |log zeta(sigma+it)| <= 2 * 2^-sigma once the 2^-s term dominates
    for sigma in (5.0, 10.0, 20.0):
        v = log_zeta_horizontal(sigma, 13.7)
        assert abs(v) <= 2.0 * 2.0 ** (-sigma)


def test_conjugate_symmetry():
    up = log_zeta_horizontal(0.7, 21.3, table=bundled_table())
    dn = log_zeta_horizontal(0.7, -21.3, table=bundled_table())
    assert abs(dn - np.conj(up)) < 1e-13


def test_branch_query_range():
    br = RayBranch(0.5, 20.0)
    # the ray ends at its anchor, 0.5 + CUTOFF_OFFSET = 6.5
    alphas = np.array([0.5, 1.0, 3.0, 6.5])
    vals = br.log_zeta(alphas)
    assert abs(vals[0] - log_zeta_horizontal(0.5, 20.0)) < 1e-13
    with pytest.raises(UnsupportedRange):
        br.log_zeta(np.array([7.0]))
    # many heights: each query reads its own row's height, and the ray
    # through a zero stalls its own ladder only
    rows = RayBranch(0.5, [20.0, TAB.gammas[0], 35.0])
    assert rows.obstructed.tolist() == [False, True, False]
    got = rows.log_zeta(np.array([0.5, 1.0, 3.0, 6.5, 0.5]),
                        [0, 0, 0, 0, 2])
    assert np.max(np.abs(got[:4] - vals)) < 1e-13
    assert abs(got[4] - log_zeta_horizontal(0.5, 35.0)) < 1e-13
    with pytest.raises(BranchObstruction):
        rows.log_zeta(np.array([0.5, 0.5]), [0, 1])
    # a row's values do not depend on how many rows share the branch,
    # also next to a zero, where its ladder gaps are finest
    near = TAB.gammas[0] + 1e-7
    alone = RayBranch(0.4, near)
    many = RayBranch(0.4, np.append(np.linspace(10.0, 240.0, 199), near))
    x = alone.abscissae()
    q = np.concatenate([x, 0.5 * (x[1:] + x[:-1])])
    assert np.array_equal(many.abscissae(199), x)
    assert np.array_equal(many.log_zeta(q, 199), alone.log_zeta(q))


def test_a_query_at_a_node_reads_its_w(monkeypatch):
    # a ladder started on given abscissae keeps W there: a query at a
    # node calls no zeta and gives the bits a call gives, a query off
    # the nodes calls zeta, and row_evals counts what was evaluated
    nodes = 0.8 + np.array([0.1, 0.25, 1.7, 4.0])
    ray = RayBranch(0.8, [30.0, 71.5], abscissae=nodes)
    ladder = ray.abscissae(1)
    assert ladder[0] == 0.8 and ladder[-1] == 0.8 + CUTOFF_OFFSET
    assert np.all(np.isin(nodes, ladder))
    assert ray.row_evals.tolist() == [ray.abscissae(0).size, ladder.size]
    evals = ray.row_evals.copy()
    points, zeta_batch = [], rays.zeta_batch

    def counted(s, *args):
        points.append(np.size(s))
        return zeta_batch(s, *args)
    monkeypatch.setattr(rays, "zeta_batch", counted)
    at = ray.log_w(ladder, 1)
    assert points == []
    monkeypatch.setattr(rays, "zeta_batch", zeta_batch)
    fresh = RayBranch(0.8, [71.5], abscissae=nodes + 1e-9)
    assert np.array_equal(at, fresh.log_w(ladder, 0))
    assert np.array_equal(ray.row_evals, evals)
    monkeypatch.setattr(rays, "zeta_batch", counted)
    ray.log_w(np.array([0.95, 1.7 + 0.8, 3.3]), [0, 0, 1])
    assert points == [2]
    assert np.array_equal(ray.row_evals, evals + [1, 1])
    with pytest.raises(UnsupportedRange):
        RayBranch(0.8, 30.0, abscissae=[0.7, 1.0])


@pytest.mark.parametrize("abscissae", [None, "opening"])
def test_a_node_query_is_the_off_node_value(abscissae):
    # the ladder forms log W once at each node, and a query there reads
    # it: bitwise the value the off-node path takes from zeta and the
    # ladder's interpolated winding, on every row of a branch with the
    # real axis, a row below eta.NEAR_POLE and rows past table zeros
    sigma = 0.6
    start = (None if abscissae is None
             else opening_nodes(sigma, sigma + CUTOFF_OFFSET, 2))
    ray = RayBranch(sigma, [0.0, 0.4, 14.2, 30.0, 71.5], TAB, start)
    assert not ray.obstructed.any()
    nodes, rows = ray._a, ray._row
    assert np.array_equal(np.unique(rows), np.arange(5))
    at = ray.log_w(nodes, rows)
    evals = ray.row_evals.copy()
    assert np.array_equal(at, ray._off_nodes(nodes, rows))
    assert np.array_equal(ray.row_evals, 2 * evals)


def test_guard_near_ordinate():
    tab = bundled_table()
    g1 = tab.gammas[0]
    with pytest.raises(BranchObstruction):
        log_zeta_horizontal(0.4, g1 + 5e-4, table=tab)
    # zero lies left of sigma: the ray is clean, no guard
    v = log_zeta_horizontal(0.8, g1 + 5e-4, table=tab)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_ray_refuses_the_guard_band_before_any_zeta_call(monkeypatch):
    # a guard-band row gets no ladder: the ray makes exactly the zeta
    # calls of the ray without it, a ray or an eta~ pass whose every row
    # is guarded makes none, and the row refuses with a GuardBand naming
    # the ordinate, while the other row reads as it does alone
    points, zeta_batch = [], rays.zeta_batch

    def counted(s, *args):
        points.append(np.size(s))
        return zeta_batch(s, *args)
    monkeypatch.setattr(rays, "zeta_batch", counted)
    g2 = TAB.gammas[1]
    both = RayBranch(0.5, [g2 + 5e-4, 30.0], TAB)
    calls = list(points)
    points.clear()
    alone = RayBranch(0.5, [30.0])
    assert calls == points and sum(points) > 0
    points.clear()
    assert RayBranch(0.5, [g2 + 5e-4], TAB).obstructed.tolist() == [True]
    out, = _eta_tilde_rows(1, 0.5, np.array([g2 + 5e-4]), TAB)
    assert isinstance(out, GuardBand) and points == []
    assert both.obstructed.tolist() == [True, False]
    refusal = both.refusal(0)
    assert isinstance(refusal, GuardBand) and f"{g2:.6f}" in str(refusal)
    with pytest.raises(GuardBand):
        both.log_zeta(np.array([0.5]), 0)
    assert np.array_equal(both.abscissae(1), alone.abscissae())
    # with no table to guard it, a ray through a zero stalls, and keeps
    # the plain BranchObstruction
    stalled = RayBranch(0.5, [TAB.gammas[0]])
    assert type(stalled.refusal(0)) is BranchObstruction


def test_guard_over_many_heights():
    # zeros left of (beta 0.5), at (0.6) and right of (0.7) the ray start
    # sigma = 0.6, two of them 1.5 GUARD apart: at each ordinate, its
    # guard's edges and one ulp either side of them, and at -t, the one
    # search over all heights flags exactly the heights that the test
    # |gamma - |t|| <= GUARD over every zero flags.  The ray refuses
    # those rows, and log_zeta_horizontal raises GuardBand there at +-t,
    # naming an ordinate within GUARD; every other height reads a value
    sigma = 0.6
    tab = ZeroTable(np.array([0.5, 0.6, 0.7, 0.6]),
                    np.array([10.0, 20.0, 30.0, 30.0015]),
                    np.ones(4, dtype=np.int64))
    ts = []
    for g in tab.gammas:
        for edge in (g - GUARD, g, g + GUARD):
            ts += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 99.0)]
    ts = np.array(ts + [25.0, 30.00075])
    ts = np.concatenate([ts, -ts])
    want = np.array([np.any((np.abs(tab.gammas - abs(t)) <= GUARD)
                            & (tab.betas >= sigma)) for t in ts])
    got = _guarded(tab, sigma, ts)
    assert np.array_equal(~np.isnan(got), want)
    assert want.sum() > 0 and not want[abs(abs(ts) - 10.0) < 0.5].any()
    assert want[ts == 20.0].all() and want[ts == 30.0].all()
    ray = RayBranch(sigma, np.abs(ts), tab)
    assert np.array_equal(ray.obstructed, want)
    for row, (t, ordinate) in enumerate(zip(ts, got)):
        if np.isnan(ordinate):
            v = log_zeta_horizontal(sigma, t, tab)
            assert np.isfinite(v.real) and np.isfinite(v.imag)
        else:
            assert abs(ordinate - abs(t)) <= GUARD
            assert isinstance(ray.refusal(row), GuardBand)
            with pytest.raises(GuardBand, match=f"{ordinate:.6f}"):
                log_zeta_horizontal(sigma, t, tab)
    assert np.isnan(_guarded(EMPTY_TABLE, sigma, ts)).all()


def test_real_axis_route():
    # below the pole log zeta is real; above 1 it is log of a positive value
    v2 = log_zeta_horizontal(2.0, 0.0)
    assert abs(v2.imag) < 1e-14
    assert abs(v2.real - np.log(np.pi ** 2 / 6)) < 1e-12
    # between 0 and the pole zeta < 0; the limit from above approaches the
    # negative axis from below (zeta' < 0 there), so the branch carries -pi
    v_half = log_zeta_horizontal(0.5, 0.0)
    assert abs(v_half.imag + np.pi) < 1e-14
    assert abs(np.exp(v_half) - complex(mp.zeta(0.5))) < 1e-12
    # the ray at t = 0 is resolved through the pole, where W(1) = 1, but a
    # query of log zeta at s = 1 itself is refused
    with pytest.raises(BranchObstruction, match="pole"):
        log_zeta_horizontal(1.0, 0.0)
    ray = RayBranch(0.5, 0.0)
    assert ray.log_w(np.array([1.0]))[0] == 0.0
    with pytest.raises(BranchObstruction, match="pole"):
        ray.log_zeta(np.array([0.7, 1.0]))


@pytest.mark.parametrize("sigma", [0.5, 0.75, 0.99, 2.0])
def test_ray_at_t0_is_the_real_axis(sigma):
    # t = 0 is a row like any other: W > 0 on the real axis, so its
    # starting ladder passes in one round, and its log zeta is the
    # closed-form real-axis value, the limit from the upper half plane
    ray = RayBranch(sigma, 0.0)
    assert ray.nodes_used == _initial_offsets().size
    alphas = sigma + np.linspace(0.0, CUTOFF_OFFSET, 241)
    alphas = alphas[alphas != 1.0]
    got = ray.log_zeta(alphas)
    want = log_zeta_real_axis(alphas)
    assert np.max(np.abs(got - want)) <= 1e-15


def _line_heights(sigma):
    us = np.linspace(0.37, 240.0, 41)
    if sigma == 0.5:
        # either side of an ordinate the branch jumps by 2 pi i
        g = TAB.gammas[TAB.gammas < 240.0][::3]
        us = np.concatenate([us, g - 2e-3, g + 2e-3])
    if sigma == 1.0:
        # next to the pole, whose limit W(1) = 1 anchors the ladder
        us = np.concatenate([[1e-9, 3e-7, 9.9e-7], us])
    return us


def _line_log_zeta(line, us):
    return line.log_w(us) - np.log(line.sigma + 1j * us - 1.0)


@pytest.mark.parametrize("sigma", [0.5, 0.6, 0.8, 1.0, 2.0])
def test_line_matches_walks(sigma):
    # the line ladder carries the winding between heights, cut at the
    # ordinates of zeros at or right of the line; the walk at each height
    # is the definition
    us = _line_heights(sigma)
    cuts = TAB.gammas[TAB.betas >= sigma]
    got = _line_log_zeta(LineBranch(sigma, us.max(), cuts), us)
    want = np.array([log_zeta_horizontal(sigma, u) for u in us])
    assert np.max(np.abs(got - want)) < 1e-12
    # a height alone, on a ladder that ends there, gives its value in the
    # batch to a few ulp of zeta (log zeta's rounding is zeta's over
    # |zeta|, large next to zeros)
    pick = np.arange(0, us.size, 5)
    alone = np.array([_line_log_zeta(LineBranch(sigma, us[i], cuts),
                                     us[i:i + 1])[0] for i in pick])
    scale = np.maximum(1.0, np.abs(got[pick])) \
        / np.minimum(1.0, np.exp(got[pick].real))
    assert np.all(np.abs(alone - got[pick]) <= 8.0 * EPS * scale)


def test_line_branch_from_a_bottom():
    # a branch over [bottom, top] anchors its first stretch by a walk;
    # it gives the full branch's values bitwise, and checks its cuts
    g = TAB.gammas[TAB.gammas < 30.0]
    us = np.linspace(20.5, 29.9, 23)
    full = LineBranch(0.4, 30.0, cuts=g).log_w(us)
    part = LineBranch(0.4, 30.0, cuts=g, bottom=20.0)
    assert np.array_equal(part.log_w(us), full)
    with pytest.raises(BranchObstruction):
        LineBranch(0.4, 30.0, cuts=g[:-1], bottom=20.0).log_w(us)
    with pytest.raises(UnsupportedRange):
        part.log_w(np.array([19.0]))
    with pytest.raises(UnsupportedRange):
        LineBranch(0.4, 20.0, bottom=20.0)


def test_vertical_log_zeta_is_the_walk():
    # u = 0 is the ray on the real axis; below it there is no ray
    us = np.array([0.0, 2.0, 14.0, 21.1, 96.5])
    want = np.array([log_zeta_horizontal(0.4, u) for u in us])
    assert np.max(np.abs(vertical_log_zeta(0.4, us) - want)) < 1e-13
    assert abs(vertical_log_zeta(0.4, us)[0]
               - log_zeta_real_axis(0.4)) <= 1e-15
    with pytest.raises(UnsupportedRange):
        vertical_log_zeta(0.8, np.array([-1.0, 3.0]))


def test_line_branch_checks_its_cuts():
    g = TAB.gammas[TAB.gammas < 30.0]
    # a zero right of the line that the cuts miss: the walk at the top of
    # its stretch disagrees with the continuation from the real axis, and
    # the stretch refuses; the stretches above the missed zero do not
    every = np.linspace(0.5, 29.9, 60)
    with pytest.raises(BranchObstruction):
        LineBranch(0.4, 30.0).log_w(every)
    missed = LineBranch(0.4, 30.0, cuts=g[1:])
    with pytest.raises(BranchObstruction):
        missed.log_w(every)
    first, above_cut = missed.refusals([0.5, g[1] + 0.1], [g[1] - 0.1, 29.9])
    assert isinstance(first, BranchObstruction) and above_cut is None
    line = LineBranch(0.4, 30.0, cuts=g)
    above = every[every > g[1]]
    assert np.array_equal(missed.log_w(above), line.log_w(above))
    us = np.concatenate([[0.5, 29.9], g - 5e-5, g + 5e-5, g - 0.3])
    want = np.array([log_zeta_horizontal(0.4, u) for u in us])
    assert np.max(np.abs(_line_log_zeta(line, us) - want)) < 1e-12
    with pytest.raises(UnsupportedRange):
        line.log_w(np.array([31.0]))
