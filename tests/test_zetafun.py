import tracemalloc
from math import factorial

import numpy as np
import mpmath as mp
import pytest

from iterzeta import ComplexPoint, EvalParams, PoleAtOne, UnsupportedRange
from iterzeta import zeta, zeta_batch, zetafun
from iterzeta.quadrature import opening_nodes
from iterzeta.zetafun import (_EM_COEF, _em_remainder, _em_tail,
                              _lengths_and_bounds, _log_moment, zeta_error)

mp.mp.dps = 30


def test_classical_values():
    assert abs(zeta(2.0 + 0j) - np.pi ** 2 / 6) < 1e-12
    assert abs(zeta(0.0 + 0j) - (-0.5)) < 1e-12
    assert abs(zeta(4.0 + 0j) - np.pi ** 4 / 90) < 1e-12
    # Apery's constant
    assert abs(zeta(3.0 + 0j) - 1.2020569031595943) < 1e-12


def test_against_dirichlet_series():
    # absolutely convergent region: plain truncated sum as oracle
    n = np.arange(1, 400_000)
    for s in (2.5 + 0j, 3.0 + 4.0j, 5.0 + 0.7j):
        oracle = np.sum(n ** (-s)) + (n[-1] + 0.5) ** (1 - s) / (s - 1)
        assert abs(zeta(s) - oracle) < 1e-11


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.5, 3.0])
@pytest.mark.parametrize("t", [0.0, 1.0, 17.5, 300.0])
def test_against_mpmath(sigma, t):
    s = complex(sigma, t)
    if s == 1.0:
        return
    want = complex(mp.zeta(mp.mpc(sigma, t)))
    assert abs(zeta(s) - want) < 1e-10


def test_tall_point_against_mpmath():
    want = complex(mp.zeta(mp.mpc(0.5, 9000.0)))
    assert abs(zeta(0.5 + 9000.0j) - want) < 1e-9


def test_bernoulli_coefficients_are_exact():
    # each B_2k/(2k)! is the float nearest its 50-digit value
    with mp.workdps(50):
        for k in range(1, 10):
            want = mp.bernoulli(2 * k) / mp.factorial(2 * k)
            assert abs(_EM_COEF[k - 1] - want) \
                <= np.spacing(abs(float(want))), k


@pytest.mark.parametrize("k", [0, 2])
def test_log_moment_against_mpmath(k):
    # int_1^N x^-a log^k x dx in the confluent form, at the float inputs;
    # a = 1 exactly is z = 0, |z| = 1 +- 1e-9 straddles the switch from
    # the closed form to the series, and smaller |z| is where the closed
    # form would cancel
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 40.0, 200)
    log_n = rng.uniform(np.log(50.0), np.log(600_000.0), 200)
    edge_log_n = np.log(np.array([50.0, 4000.0, 600_000.0]))[:, None]
    z = np.array([1.0 - 1e-9, 1.0 + 1e-9, 0.3, 1e-3, 1e-7])
    edges = 1.0 - np.concatenate([z, -z]) / edge_log_n
    a = np.concatenate([a, [1.0, 1.0, 0.0], edges.ravel()])
    log_n = np.concatenate([log_n, np.log([50.0, 600_000.0, 600_000.0]),
                            np.broadcast_to(edge_log_n, edges.shape).ravel()])
    got = _log_moment((1.0 - a) * log_n, k, log_n)
    with mp.workdps(40):
        for ai, li, gi in zip(a, log_n, got):
            li = mp.mpf(li)
            want = li ** (k + 1) / (k + 1) \
                * mp.hyp1f1(k + 1, k + 2, (1 - mp.mpf(ai)) * li)
            assert abs(gi - want) <= 1e-13 * abs(want), (ai, li)


def test_conjugate_symmetry():
    for s in (0.3 + 7.2j, 2.0 + 31.4j, 0.5 + 104.0j):
        assert abs(zeta(np.conj(s)) - np.conj(zeta(s))) < 1e-13


def test_first_zero_is_small():
    assert abs(zeta(0.5 + 14.134725141734694j)) < 1e-9


def test_batch_matches_scalar():
    pts = np.array([0.5 + 20j, 2.0 + 0j, 0.8 + 55.5j, 1.5 + 999.0j])
    vals = zeta_batch(pts)
    for p, v in zip(pts, vals):
        assert abs(v - zeta(complex(p))) < 1e-11


def test_complex_point_interface():
    p = ComplexPoint(sigma=0.75, t=12.5)
    assert p.as_complex == 0.75 + 12.5j
    assert zeta(p) == zeta(0.75 + 12.5j)


def test_desk_limits():
    with pytest.raises(UnsupportedRange):
        zeta(-0.5 + 3j)
    with pytest.raises(UnsupportedRange):
        zeta(2.0 + 2.0e4j)
    with pytest.raises(PoleAtOne):
        zeta(1.0 + 0j)


def test_params_validation():
    with pytest.raises(UnsupportedRange):
        EvalParams(em_bernoulli=9)
    with pytest.raises(UnsupportedRange):
        EvalParams(em_terms=3)


# ---------------------------------------------- per-point length and error

def _mp_grid():
    """sigma from 0 to far past the anchor of a ray (sigma + 6), t
    log-spread over [1e-2, 1e4]; sigma is nudged off 1 so no point
    meets the pole."""
    sigmas = [0.0, 0.13, 0.5, 0.77, 1.01, 1.6, 3.5, 9.0, 22.0, 45.0]
    ts = np.concatenate([[0.0], np.logspace(-2, 4, 19)])
    return np.array([complex(sg, t) for sg in sigmas for t in ts])


def test_differential_against_mpmath_within_reported_error():
    pts = _mp_grid()
    want = np.array([complex(mp.zeta(mp.mpc(p.real, p.imag))) for p in pts])
    got = zeta_batch(pts)
    err = zeta_error(pts)
    assert np.all(np.abs(got - want) <= err)
    # a realistic estimate, not the worst case: at the top of the desk it
    # stays near eps * t * sqrt(sum_n log^2 n / n)
    assert float(zeta_error(0.5 + 1e4j)) < 1e-10


def test_reported_error_is_tol_below_the_bridge_heights():
    # the eta budgets of the bridge rows (t <= 231) rest on zeta's tol
    for sigma in (0.75, 0.8, 0.85, 1.5):
        for t in (14.0, 21.4, 60.0, 180.5, 231.0):
            assert zeta_error(complex(sigma, t)) <= 1e-12


def test_value_does_not_depend_on_the_batch():
    alone_pts = np.array([0.5 + 20j, 2.0 + 0j, 0.8 + 55.5j, 1.5 + 999.0j,
                          7.0 + 3.0j, 0.6 + 5000.0j])
    # a t ~ 1e4 point, neighbours of equal length at another height (a
    # grid of abscissae x heights), and a scattered cloud sharing the
    # first point's length: every value is bitwise its one-point value
    rng = np.random.default_rng(3)
    cloud = rng.uniform(0.5, 3.0, 40) + 1j * rng.uniform(10.0, 30.0, 40)
    batch = np.concatenate([alone_pts, [0.55 + 9999.0j],
                            alone_pts + 1e-3j, cloud])
    together = zeta_batch(batch)[:alone_pts.size]
    alone = np.array([zeta(p) for p in alone_pts])
    assert np.array_equal(together, alone)


def test_line_values_are_bitwise_batch_free():
    # each point sums its own row of terms, so a value is bitwise the
    # same alone and in any batch: on a vertical line, on a grid of rays
    # (4 heights x 92 abscissae, the rays of an eta~ pass) and in a
    # scattered cloud, whatever points are added around them
    rng = np.random.default_rng(11)
    line = 0.8 + 1j * rng.uniform(0.0, 250.0, 60)
    rays = (0.8 + np.linspace(0.0, 6.0, 92)[None, :]
            + 1j * np.array([14.5, 71.25, 230.0, 2400.0])[:, None]).ravel()
    cloud = rng.uniform(0.5, 3.0, 60) + 1j * rng.uniform(0.0, 2000.0, 60)
    for pts in (line, rays, cloud):
        alone = np.array([zeta_batch(pts[i:i + 1])[0]
                          for i in range(pts.size)])
        for size in (1, 7, 300):
            others = np.concatenate([
                pts.real[0] + 1j * rng.uniform(0.0, 250.0, size),
                rng.uniform(0.5, 7.0, size) + 1j * pts.imag[0]])
            batch = np.concatenate([others[:size], pts, others[size:]])
            assert np.array_equal(zeta_batch(batch)[size:][:pts.size],
                                  alone)
        assert np.array_equal(zeta_batch(pts[::-1])[::-1], alone)


def test_pass_batches_are_their_one_point_values():
    # the batches of an eta~ pass: one point, a ray's 92 ladder nodes
    # (the quadrature's opening nodes, the start and the anchor) and the
    # 368 of four such rays, on 8 rungs; every value is bitwise the
    # value its point has alone
    sigma = 0.7
    ladder = np.concatenate([[sigma], opening_nodes(sigma, sigma + 6.0, 2),
                             [sigma + 6.0]])
    grid = (ladder[None, :]
            + 1j * np.array([70.2, 95.3, 160.1, 231.7])[:, None]).ravel()
    lengths, _ = _lengths_and_bounds(grid, EvalParams())
    assert ladder.size == 92 and np.unique(lengths).size == 8
    alone = np.array([zeta_batch(grid[i:i + 1])[0] for i in range(grid.size)])
    for pts in (grid[:1], grid[:92], grid):
        assert np.array_equal(zeta_batch(pts), alone[:pts.size])


def _old_batch_length(s, params=EvalParams()):
    """The former batch rule: N = max(em_terms, ceil(3 max|t|)), doubled
    until the batch's largest remainder bound met tol."""
    n = max(params.em_terms, int(np.ceil(3.0 * np.max(np.abs(s.imag)))))
    for _ in range(6):
        c, p = _em_remainder(s, params.em_bernoulli)
        if np.max(c * float(n) ** -p) <= params.tol:
            break
        n *= 2
    return n


def test_per_point_length_never_exceeds_the_old_batch_rule():
    pts = _mp_grid()
    lengths, bounds = _lengths_and_bounds(pts, EvalParams())
    assert np.all(bounds <= 1e-12)
    assert np.all(lengths >= EvalParams().em_terms)
    for s, n in zip(pts, lengths):
        assert n <= _old_batch_length(np.array([s]))
    # at the top of the desk the remainder bound asks for about 0.8 |t|
    top, _ = _lengths_and_bounds(np.array([0.5 + 1e4j]), EvalParams())
    assert top[0] < 1e4


def test_term_cap_and_nonfinite_refusals():
    with pytest.raises(UnsupportedRange):
        zeta(0.5 + 1e4j, EvalParams(tol=1e-300))
    with pytest.raises(UnsupportedRange):
        zeta(complex(np.nan, 1.0))


def test_huge_ints_are_refused_as_infinities(refused_as_infinity):
    # a Python int past the float range has no float form: zeta refuses
    # it as it refuses an infinity, where it raised OverflowError
    for call in (zeta, lambda s: zeta_batch([2.0, s])):
        assert refused_as_infinity(call) \
            == [(UnsupportedRange, "zeta needs finite points")] * 2


# ------------------------------------------------- factor tables of a batch

def _table_batches():
    """The batches the factor tables are built for, and a line they are
    not: the rays of a 4-height eta~ pass (92 abscissae each), one such
    ray at t = 9980, a 2 x 21 grid of a vertical walk, and a line of 600
    heights."""
    ladder = 0.8 + np.linspace(0.0, 6.0, 92)
    heights = np.array([12.5, 71.25, 150.0, 236.0])
    return {
        "rays": (ladder[None, :] + 1j * heights[:, None]).ravel(),
        "tall ray": ladder + 9980.0j,
        "walk": (np.linspace(0.8, 1.8, 21)[None, :]
                 + 1j * np.array([21.3, 21.8])[:, None]).ravel(),
        "line": 0.8 + 1j * np.linspace(10.0, 9990.0, 600),
    }


@pytest.fixture(scope="module")
def one_point_values():
    return {name: np.array([zeta_batch(pts[i:i + 1])[0]
                            for i in range(pts.size)])
            for name, pts in _table_batches().items()}


@pytest.mark.parametrize("table_cap, chunk_cap", [
    (None, None), (0, None), (None, 1000), (0, 1000), (3000, 20_000)],
    ids=["defaults", "per-length", "chunked", "per-length-chunked",
         "partly-tabled"])
def test_factor_tables_give_the_one_point_bits(monkeypatch, one_point_values,
                                               table_cap, chunk_cap):
    # tables or none, whole lengths or chunks of a few points (1000
    # elements: one point a chunk at t = 9980): every value is bitwise
    # the value its point has alone
    if table_cap is not None:
        monkeypatch.setattr(zetafun, "_TABLE_ELEMENTS", table_cap)
    if chunk_cap is not None:
        monkeypatch.setattr(zetafun, "_CHUNK_ELEMENTS", chunk_cap)
    tabled = []
    real_table = zetafun._table

    def spy(x, *args):
        out = real_table(x, *args)
        tabled.append(out is not None)
        return out
    monkeypatch.setattr(zetafun, "_table", spy)
    for name, pts in _table_batches().items():
        tabled.clear()
        got = zeta_batch(pts)
        assert np.array_equal(got, one_point_values[name]), name
        assert np.array_equal(zeta_batch(pts[::-1])[::-1], got), name
        if name == "line":
            # on one abscissa nothing recurs across lengths: no table
            assert tabled == [], name
        elif name != "walk" and table_cap is None:
            # the phases of a ray's height recur across its lengths (the
            # walk's 42 points share one length)
            assert tabled[0], name


def _per_length_sum(s, n_terms):
    """sum_{n<N} n^-s for points sharing one N, as the direct sum ran
    before factor tables, kept as the memory reference: each chunk
    forms n^-sigma per distinct abscissa and the phases per distinct
    height anew."""
    logn = np.log(np.arange(1, n_terms, dtype=np.float64))
    out = np.empty(s.size, dtype=np.complex128)
    block = max(1, zetafun._CHUNK_ELEMENTS // n_terms)
    for chunk in (slice(i, i + block) for i in range(0, s.size, block)):
        part = s[chunk]
        heights, k = np.unique(part.imag, return_inverse=True)
        sigmas, j = ((part.real, None) if heights.size == 1
                     else np.unique(part.real, return_inverse=True))
        mag = np.multiply.outer(-sigmas, logn)
        np.exp(mag, out=mag)
        arg = np.multiply.outer(heights, logn)
        cos, sin = np.cos(arg), np.sin(arg, out=arg)
        if sigmas.size > 1 and heights.size > 1:
            mag = mag[j]
            cos = cos[k]
            sin = sin[k]
        rows = max(mag.shape[0], cos.shape[0])
        im = np.multiply(sin, mag, out=sin if sin.shape[0] == rows else None)
        re = np.multiply(cos, mag, out=cos if cos.shape[0] == rows else mag)
        sums = re.sum(axis=-1) - 1j * im.sum(axis=-1)
        out[chunk] = sums[k] if sigmas.size == 1 < heights.size else sums
    return out


def _per_length_zeta(s):
    """zeta_batch as it ran before factor tables: the Euler-Maclaurin
    tail first, then each length's points as a copy, summed apart."""
    lengths, _ = _lengths_and_bounds(s, EvalParams())
    out = _em_tail(s, lengths, EvalParams().em_bernoulli)
    for n_terms in np.unique(lengths):
        idx = np.flatnonzero(lengths == n_terms)
        out[idx] += _per_length_sum(s[idx], n_terms)
    return out


def test_line_batch_memory_is_the_per_length_peak():
    # a vertical line builds no table: zeta_batch peaks, under
    # tracemalloc, no higher than the per-length sums it replaced, and
    # has their bits
    s = _table_batches()["line"]
    peaks, values = [], []
    for call in (_per_length_zeta, zeta_batch) * 2:
        tracemalloc.start()
        values.append(call(s))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert np.array_equal(values[0], values[1])
    assert peaks[3] <= peaks[2], peaks
