import numpy as np
import pytest

from iterzeta import blocks, polygon
from iterzeta.errors import (DominanceViolation, RootFindFailure,
                             TargetOutsideDisk, TooFewRadii, ValidationError)
from iterzeta.polygon import (SERIES_RATIO, AngleAssignment, RadiiSet,
                              _angle_sum_root, _arcsin_sum, _polygon,
                              check_dominance, polygon_angles)
from iterzeta.primes import sieve_primes


def test_equilateral_closure():
    a = polygon_angles(RadiiSet(np.array([1.0, 1.0, 1.0])), 0j)
    assert a.residual < 1e-12
    gaps = np.sort(np.mod(np.diff(np.sort(a.thetas)), 1.0))
    assert np.allclose(gaps, [1 / 3, 1 / 3], atol=1e-12)


def test_boundary_target_aligns():
    a = polygon_angles(RadiiSet(np.array([1.0, 1.0, 1.0])), 3.0 + 0j)
    assert np.allclose(a.thetas, 0.0)
    assert a.residual < 1e-12


def test_345_closure():
    a = polygon_angles(RadiiSet(np.array([3.0, 4.0, 5.0])), 0j)
    assert a.residual < 1e-10
    achieved = np.sum(np.array([3, 4, 5]) * np.exp(-2j * np.pi * a.thetas))
    assert abs(achieved) < 1e-10


def test_reflected_case():
    # one dominant side forces the circumcenter outside the polygon
    r = RadiiSet(np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.2]))
    a = polygon_angles(r, 0.3 - 0.2j)
    assert a.residual < 1e-12


def test_rotation_covariance():
    r = RadiiSet(np.array([2.0, 1.0, 1.5, 0.7]))
    z = 1.1 - 0.6j
    base = polygon_angles(r, z)
    for phi in (0.2, 0.37, 0.91):
        rot = polygon_angles(r, z * np.exp(-2j * np.pi * phi))
        shift = np.mod(rot.thetas - base.thetas - phi, 1.0)
        shift = np.minimum(shift, 1.0 - shift)
        assert np.max(shift) < 1e-12


def test_random_sweep():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 51))
        r = rng.uniform(0.05, 3.0, n)
        if not check_dominance(RadiiSet(r)):
            continue
        z = rng.uniform(0.0, 0.999 * r.sum()) * np.exp(2j * np.pi
                                                       * rng.uniform())
        a = polygon_angles(RadiiSet(r), complex(z))
        assert abs(np.sum(r * np.exp(-2j * np.pi * a.thetas))
                   - z) == pytest.approx(a.residual, abs=1e-15)
        worst = max(worst, a.residual)
    assert worst < 1e-10


@pytest.mark.parametrize("g,root", [
    (lambda v: v ** 10 - 0.5, 0.5 ** 0.1),          # lo moves first
    (lambda v: 0.5 - (1.0 - v) ** 10, 1.0 - 0.5 ** 0.1),   # hi moves first
])
def test_bracketed_root_closes_from_either_side(g, root):
    # plain regula falsi keeps one end of these brackets and crawls to
    # the root from the other; halving the kept end's value closes in
    # from both, whichever end the steps first move
    calls = []

    def g_counted(v):
        calls.append(v)
        return g(v)
    v = polygon._bracketed_root(g_counted, 0.0, 1.0, 1e-15)
    assert abs(v - root) <= 2e-15
    assert len(calls) <= 32


def test_bracketed_root_on_random_polygons(monkeypatch):
    # 3 to 5000 sides spread over three decades, so that both the exact
    # and the series part of the angle sum take part, and targets from
    # 0.05 to 0.95 of the radius sum; g is counted inside the bracketed
    # solve alone, not in the Newton polish after it
    solve = polygon._bracketed_root
    counts = []

    def counted(g, *args, **kwargs):
        calls = [0]

        def g_counted(v):
            calls[0] += 1
            return g(v)
        try:
            return solve(g_counted, *args, **kwargs)
        finally:
            counts.append(calls[0])
    monkeypatch.setattr(polygon, "_bracketed_root", counted)
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for _ in range(200):
        n = int(np.exp(rng.uniform(np.log(3.0), np.log(5001.0))))
        while True:
            r = np.exp(rng.uniform(np.log(1e-3), 0.0, n))
            z = rng.uniform(0.05, 0.95) * r.sum() \
                * np.exp(2j * np.pi * rng.uniform())
            if r.max() <= r.sum() - r.max() + abs(z):
                break
        worst = max(worst, polygon_angles(RadiiSet(r), complex(z)).residual)
    assert worst < 1e-10
    assert len(counts) == 200
    assert np.mean(counts) <= 20


def test_annulus_preconditions():
    with pytest.raises(TargetOutsideDisk):
        polygon_angles(RadiiSet(np.array([1.0, 1.0, 1.0])), 4.0 + 0j)
    with pytest.raises(DominanceViolation):
        polygon_angles(RadiiSet(np.array([10.0, 1.0, 1.0])), 0j)
    with pytest.raises(DominanceViolation):
        polygon_angles(RadiiSet(np.array([10.0, 1.0, 1.0])), 3.0 + 0j)
    # inside the annulus the same radii are fine
    a = polygon_angles(RadiiSet(np.array([10.0, 1.0, 1.0])), 9.0 + 0j)
    assert a.residual < 1e-10


def test_dominance_predicate():
    assert check_dominance(RadiiSet(np.array([1.0, 1.0, 1.9])))
    assert not check_dominance(RadiiSet(np.array([1.0, 1.0, 2.1])))
    with pytest.raises(TooFewRadii):
        check_dominance(RadiiSet(np.array([1.0, 1.0])))


def test_degenerate_flat_sides():
    # longest radius exactly balances the rest plus the closing side
    a = polygon_angles(RadiiSet(np.array([3.0, 1.0, 1.0])), 1.0 + 0j)
    assert a.residual < 1e-9
    b = polygon_angles(RadiiSet(np.array([2.0, 1.0, 1.0])), 0j)
    assert b.residual < 1e-9


def test_unit_vectors_are_those_of_the_angles(monkeypatch):
    # on every path (the disk's boundary, a flat polygon, a cyclic one
    # with and without sorting) the unit vectors handed to each block are
    # exp(-2 pi i theta) at the block's angles, the blocks cover the
    # radii, each once, and what they return is added in block order,
    # the angles land in the caller's slice and nowhere else, and they
    # and the achieved sum are polygon_angles'; in one block and in
    # blocks of two radii, on the pool
    monkeypatch.setattr(blocks, "_cpus", lambda: 4)
    for block in (polygon.BLOCK, 2):
        monkeypatch.setattr(polygon, "BLOCK", block)
        for r, z in (([1.0, 1.0, 1.0], 3.0 + 0j), ([2.0, 1.0, 1.0], 0j),
                     ([3.0, 4.0, 5.0], 0j), ([1.2, 0.9, 0.4, 0.3], 0.5 - 1j)):
            r = np.array(r)
            seen = []
            held = np.full(r.size + 4, -1.0)
            thetas = held[2:-2]

            def each(lo, hi, w):
                seen.append((lo, hi, w.copy()))
                return complex(np.sum(w)) * (lo + 1)

            achieved, added = _polygon(r, z, thetas, each)
            seen.sort(key=lambda s: s[0])
            assert [(lo, hi) for lo, hi, _ in seen] == [
                (lo, min(lo + block, r.size))
                for lo in range(0, r.size, block)]
            in_order = 0.0 + 0.0j
            for lo, hi, w in seen:
                assert np.array_equal(
                    w, np.exp(-2j * np.pi * thetas[lo:hi]))
                in_order += complex(np.sum(w)) * (lo + 1)
            assert added == in_order
            assert np.all(held[:2] == -1.0) and np.all(held[-2:] == -1.0)
            b = polygon_angles(RadiiSet(r), z)
            assert np.array_equal(thetas, b.thetas)
            assert (achieved, abs(achieved - z)) == (b.achieved, b.residual)


def _window(n):
    # radii p^-0.8 / log p of n primes past 100, and a target well
    # inside their reach
    ps = sieve_primes(100_000).primes[25:25 + n].astype(float)
    r = ps ** -0.8 / np.log(ps)
    return r, complex(0.6 * r.sum() * np.exp(0.9j))


@pytest.mark.parametrize("n, block", [(10, 2 ** 15), (10, 5), (5000, 64)])
def test_angles_do_not_depend_on_the_cpu_count(monkeypatch, n, block):
    # one block, two and many (the power sums' blocks too), on the sorted
    # path and the unsorted one: the same angles and achieved sum, to the
    # bit, inline and on the pool
    r, z = _window(n)
    shuffled = np.random.default_rng(3).permutation(r)
    monkeypatch.setattr(polygon, "BLOCK", block)
    monkeypatch.setattr(polygon, "SERIES_BLOCK", block)
    got = {}
    for cpus in (1, 4):
        monkeypatch.setattr(blocks, "_cpus", lambda: cpus)
        got[cpus] = [polygon_angles(RadiiSet(radii), z)
                     for radii in (r, shuffled)]
    for one, pool in zip(got[1], got[4]):
        assert np.array_equal(one.thetas, pool.thetas)
        assert (one.achieved, one.residual) == (pool.achieved, pool.residual)
        assert one.residual < 1e-10


def test_input_validation():
    with pytest.raises(ValidationError):
        RadiiSet(np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValidationError):
        AngleAssignment(np.array([0.5, 1.2]), 0j, 0j, 0.0)


def test_arcsin_sum_series_matches_exact():
    # ratios on both sides of SERIES_RATIO; the series part must agree
    # with the exact sum to rounding over the whole bracket
    rng = np.random.default_rng(5)
    t = np.concatenate([rng.uniform(1e-6, SERIES_RATIO, 5000),
                        rng.uniform(SERIES_RATIO, 1.0, 7), [1.0]])
    value, slope = _arcsin_sum((np.sort(t)[::-1],), 1.0)
    for v in (1e-9, 1e-4, 0.02, 0.5, 0.999, 1.0):
        exact = np.sum(np.arcsin(t * v))
        assert abs(value(v) - exact) <= 1e-14 * exact
        if v < 1.0:
            d_exact = np.sum(t / np.sqrt(1.0 - (t * v) ** 2))
            assert abs(slope(v) - d_exact) <= 1e-12 * d_exact


def test_structural_flat_reflected_polygon():
    # the shape of every construct_theta window: 1e5 radii p^-sigma/log p
    # and a closing side, the longest, within 1e-7 of their sum, so the
    # polygon is reflected and nearly flat
    ps = sieve_primes(1_500_000).primes[25:100_025].astype(float)
    r = ps ** -0.8 / np.log(ps)
    for slack, phi in ((1e-7, 0.3), (2e-9, 2.1), (1e-5, 4.0)):
        z = (r.sum() - slack * r.sum()) * np.exp(1j * phi)
        a = polygon_angles(RadiiSet(r), complex(z))
        assert a.residual < 1e-10
        assert abs(np.sum(r * np.exp(-2j * np.pi * a.thetas))
                   - z) == pytest.approx(a.residual, abs=1e-15)


def test_reflected_bracket_failure_raises():
    # when the other sides do not outrun the longest one near u = 0 the
    # reflected bracket fails; polygon_angles never gets there (its
    # dominance and flatness checks come first), the root-find still
    # refuses
    with pytest.raises(RootFindFailure):
        _angle_sum_root(1.0, (np.array([0.3, 0.3]),))
    many = np.full(100_001, 1e-5)
    many[0] = 1.0 + 1e-9
    with pytest.raises(RootFindFailure):
        _angle_sum_root(many[0], (many[1:],))
