import numpy as np
import mpmath as mp
import pytest

from iterzeta import quadrature
from iterzeta.errors import QuadratureNonconvergence
from iterzeta.quadrature import (MAX_ROW_PANELS, PANEL_ORDER, gl_panel,
                                 integrate_rows, integrate_vec,
                                 log_kernel_moments, opening_nodes,
                                 poly_log_integral)

mp.mp.dps = 30


def test_gl_panel_polynomial_exactness():
    # order-16 Gauss rule integrates degree-31 polynomials exactly
    val = gl_panel(lambda x: x ** 31 + 2 * x ** 10, 0.0, 1.0)
    want = 1.0 / 32 + 2.0 / 11
    assert abs(val - want) < 1e-15


def test_integrate_vec_smooth():
    val, est, nev = integrate_vec(np.cos, 0.0, 10.0, abs_tol=1e-12)
    assert abs(val - np.sin(10.0)) < 1e-12
    assert est < 1e-10
    assert nev > 0


def test_integrate_vec_spike():
    f = lambda x: 1.0 / (1e-4 + (x - 0.7) ** 2)
    val, est, _ = integrate_vec(f, 0.0, 1.0, abs_tol=1e-10)
    want = (np.arctan(0.3 / 1e-2) + np.arctan(0.7 / 1e-2)) / 1e-2
    assert abs(val - want) < 1e-7
    # spikes at other places, over other intervals and to other
    # tolerances, as rows of one call: each row gets the value, estimate
    # and nevals it gets alone, to the bit
    spikes = np.array([0.7, 0.05, 0.5, 0.93])
    a, b = np.array([0.0, 0.0, 0.3, -0.5]), np.array([1.0, 1.0, 0.9, 2.0])
    tols = np.array([1e-10, 1e-6, 1e-10, 1e-12])
    vals, ests, nevs, refused = integrate_rows(
        lambda x, row: 1.0 / (1e-4 + (x - spikes[row]) ** 2), a, b, tols)
    assert refused == [None] * spikes.size
    for c, lo, hi, tol, v, e, n in zip(spikes, a, b, tols, vals, ests,
                                       nevs):
        alone = integrate_vec(lambda x: 1.0 / (1e-4 + (x - c) ** 2),
                              lo, hi, abs_tol=tol)
        assert (v, e, n) == alone


@pytest.mark.parametrize("splits", [1, 2, 3])
def test_opening_nodes_are_the_first_two_rounds(splits, monkeypatch):
    # the abscissae f sees in integrate_rows' first two rounds, all in
    # one call, are opening_nodes' to the bit, for rows alone and
    # sharing a call
    a, b = np.array([0.8, -0.3, 2.0]), np.array([6.8, 0.7, 2.0 + 1e-3])
    seen = []

    def f(nodes, row):
        seen.append((nodes, row))
        return np.cos(nodes * (row + 1))
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 1)
    integrate_rows(f, a, b, 1e-15, initial_splits=splits)
    assert [x.size for x, _ in seen] == [3 * a.size * splits * PANEL_ORDER]
    for r in range(a.size):
        got = np.unique(np.concatenate([x[row == r] for x, row in seen]))
        want = opening_nodes(a[r], b[r], splits)
        assert np.array_equal(got, want)
        assert want.size == 3 * splits * PANEL_ORDER


def test_integrate_vec_nonconvergence(monkeypatch):
    # a jump cannot be resolved to an impossible tolerance in few levels
    f = lambda x: np.where(x > np.pi / 10, 1.0, 0.0)
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 6)
    with pytest.raises(QuadratureNonconvergence):
        integrate_vec(f, 0.0, 1.0, abs_tol=1e-14)
    # as a row next to a smooth one, only the jump's row is refused
    _, _, _, refused = integrate_rows(
        lambda x, row: np.where(row == 0, f(x), np.cos(x)), [0.0, 0.0], 1.0,
        1e-14)
    assert isinstance(refused[0], QuadratureNonconvergence)
    assert refused[1] is None


def _noise(x):
    """Values in [0, 1) hashed from the bits of x: no panel resolves."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    return ((bits * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11)) \
        / 2.0 ** 53


def test_rows_refuse_a_runaway_row():
    # every panel of a noise row fails, so its panels double each round;
    # it is refused before a round of more than MAX_ROW_PANELS panels,
    # and the smooth row beside it keeps what it gets alone
    seen = []

    def f(x, row):
        seen.append(np.bincount(row, minlength=2))
        return np.where(row == 0, _noise(x), np.cos(x))
    vals, ests, nevs, refused = integrate_rows(f, [0.0, 0.0], 1.0, 1e-12)
    assert isinstance(refused[0], QuadratureNonconvergence)
    assert str(MAX_ROW_PANELS) in str(refused[0])
    assert refused[1] is None
    assert max(c[0] for c in seen) <= MAX_ROW_PANELS * PANEL_ORDER
    alone = integrate_vec(np.cos, 0.0, 1.0, abs_tol=1e-12)
    assert (vals[1], ests[1], nevs[1]) == alone


def test_rows_with_vector_values():
    # k integrands per row share their nodes; a panel is accepted when
    # every component passes, so a component that never decides alone
    # gets the panels, and the value, of the one that does
    def f(x, row):
        return np.stack([np.cos(x), 1e-3 * np.sin(x) * (1.0 + row)])
    vals, ests, nevs, refused = integrate_rows(f, [0.0, 1.0], [10.0, 4.0],
                                               1e-12)
    assert vals.shape == ests.shape == (2, 2)
    assert refused == [None, None]
    for r, (a, b) in enumerate(((0.0, 10.0), (1.0, 4.0))):
        alone = integrate_vec(np.cos, a, b, abs_tol=1e-12)
        assert (vals[r, 0], ests[r, 0], nevs[r]) == alone
        want = 1e-3 * (1.0 + r) * (np.cos(a) - np.cos(b))
        assert abs(vals[r, 1] - want) <= ests[r, 1] + 1e-15


def _round_by_round(f, a, b, abs_tol, max_depth=48, initial_splits=1,
                    noise=0.0):
    """integrate_rows as it ran with one f call per round, kept as the
    reference of its one-call opening: the coarse panels (np.linspace's
    edges) in one call, their halves in the next, and each round's
    accepted panels added to their rows as the round ends."""
    a, b, abs_tol, noise = np.broadcast_arrays(
        np.atleast_1d(np.asarray(a, dtype=float)), b, abs_tol, noise)
    rows = a.size
    nevals = np.zeros(rows, dtype=np.int64)
    allowed = abs_tol + noise * (b - a)
    live = np.nonzero(b > a)[0]
    rate = np.zeros(rows)
    rate[live] = abs_tol[live] / (b - a)[live] + noise[live]
    edges = np.linspace(a[live], b[live], initial_splits + 1, axis=-1)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    row = np.repeat(live, initial_splits)
    coarse = quadrature._panel_sums(f, lo, hi, row)
    nevals[live] += initial_splits * PANEL_ORDER
    value = np.zeros(coarse.shape[:-1] + (rows,), dtype=complex)
    est_error = np.zeros(value.shape)
    overflow = np.full(rows, -1)
    for depth in range(max_depth):
        over = 2 * np.bincount(row, minlength=rows) > MAX_ROW_PANELS
        if over.any():
            overflow[over] = depth
            keep = ~over[row]
            lo, hi, row, coarse = lo[keep], hi[keep], row[keep], \
                coarse[..., keep]
        if not row.size:
            break
        n = row.size
        width = hi - lo
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        row = np.concatenate([row, row])
        halves = quadrature._panel_sums(f, lo, hi, row)
        nevals += PANEL_ORDER * np.bincount(row, minlength=rows)
        fine = halves[..., :n] + halves[..., n:]
        err = np.abs(fine - coarse)
        done = err <= rate[row[:n]] * width
        if done.ndim > 1:
            done = done.all(axis=0)
        done |= depth + 1 >= max_depth
        at = row[:n][done]
        for c in np.ndindex(fine.shape[:-1]):
            np.add.at(value[c], at, fine[c][done])
            np.add.at(est_error[c], at, err[c][done])
        keep = np.tile(~done, 2)
        lo, hi, row, coarse = lo[keep], hi[keep], row[keep], \
            halves[..., keep]
    worst = est_error.max(axis=tuple(range(est_error.ndim - 1)))
    refused = [d >= 0 or not e <= 50.0 * ok
               for d, e, ok in zip(overflow, worst, allowed)]
    return np.moveaxis(value, -1, 0), np.moveaxis(est_error, -1, 0), \
        nevals, refused


@pytest.mark.parametrize("splits", [1, 2, 3])
def test_one_call_opening_is_the_round_by_round_driver(splits, monkeypatch):
    # the first two rounds in one f call give every row the value,
    # est_error, nevals and refusal of the driver that called f once a
    # round: spikes that bisect deep, an empty row, a noise floor, a
    # row whose panels outrun MAX_ROW_PANELS and rows of two integrands
    spikes = np.array([0.7, 0.05, 0.5, 0.93, 0.2, 0.4])
    a = np.array([0.0, 0.0, 0.3, -0.5, 0.4, 0.0])
    b = np.array([1.0, 1.0, 0.9, 2.0, 0.4, 1.0])
    tols = np.array([1e-10, 1e-6, 1e-10, 1e-12, 1e-9, 1e-12])
    noise = np.array([0.0, 0.0, 1e-8, 0.0, 0.0, 0.0])

    def spiky(x, row):
        return np.where(row == 5, _noise(x),
                        1.0 / (1e-4 + (x - spikes[row]) ** 2)) + 0j

    def pair(x, row):
        return np.stack([np.cos(x * (row + 1)), 1j * np.exp(x) * row])
    for f, args in ((spiky, (a, b, tols)), (spiky, (a[:5], b[:5], 1e-9)),
                    (pair, ([0.0, 1.0, 2.0], [10.0, 4.0, 2.0], 1e-12))):
        kwargs = {"initial_splits": splits}
        if f is spiky and len(args[0]) == 6:
            kwargs["noise"] = noise
        want = _round_by_round(f, *args, **kwargs)
        got = integrate_rows(f, *args, **kwargs)
        for w, g in zip(want[:3], got[:3]):
            assert w.shape == g.shape
            assert np.array_equal(w, g)
        assert want[3] == [r is not None for r in got[3]]
    assert want[3] == [False] * 3 and True in \
        _round_by_round(spiky, a, b, tols, initial_splits=splits)[3]
    # a shallow MAX_DEPTH ends on the same accepted panels
    want = _round_by_round(spiky, a[:4], b[:4], tols[:4], max_depth=3,
                           initial_splits=splits)
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
    got = integrate_rows(spiky, a[:4], b[:4], tols[:4],
                         initial_splits=splits)
    for w, g in zip(want[:3], got[:3]):
        assert np.array_equal(w, g)
    assert want[3] == [r is not None for r in got[3]]


def test_integrate_vec_noise_floor():
    # values rounded at 1e-9: bisecting for 1e-14 would chase the
    # rounding; a declared noise floor stops at the integrand's resolution
    rng = np.random.default_rng(7)
    f = lambda x: np.cos(x) + 1e-9 * rng.uniform(-1.0, 1.0, x.size)
    val, est, nev = integrate_vec(f, 0.0, 10.0, abs_tol=1e-14, noise=2e-9)
    assert abs(val - np.sin(10.0)) < est + 1e-8
    assert nev < 2000


def _mp_moment(j, v0, v1, c):
    f = lambda v: v ** j * mp.log(mp.mpc(c, float(v)))
    if c < 0.0 and v0 < 0.0 < v1:
        # principal-branch jump as v crosses 0
        val = mp.quad(f, [v0, -1e-12]) + mp.quad(f, [1e-12, v1])
    else:
        val = mp.quad(f, [v0, v1])
    return complex(val)


@pytest.mark.parametrize("c", [0.3, -0.25, 1.0])
@pytest.mark.parametrize("v0,v1", [(-0.4, 0.9), (0.1, 2.0), (-1.5, -0.2)])
def test_log_kernel_moments_vs_mpmath(c, v0, v1):
    got = log_kernel_moments(3, v0, v1, c)
    for j in range(4):
        want = _mp_moment(j, v0, v1, c)
        assert abs(got[j] - want) < 5e-9, (j, c, v0, v1)


def test_log_kernel_moments_zero_offset():
    got = log_kernel_moments(2, -0.5, 0.8, 0.0)
    for j in range(3):
        f = lambda v: v ** j * (mp.log(abs(float(v))) + mp.mpc(0, mp.pi / 2)
                                * mp.sign(float(v)))
        want = complex(mp.quad(f, [-0.5, -1e-14]) + mp.quad(f, [1e-14, 0.8]))
        assert abs(got[j] - want) < 1e-8


def test_poly_log_integral_matches_moments():
    # expanding (t-u)^(m-1) about gamma must agree with direct quadrature
    m, t, gamma, c = 3, 5.0, 2.0, -0.1
    got = poly_log_integral(m, t, 1.2, 3.1, gamma, c)
    f = lambda u: (t - u) ** (m - 1) / 2.0 * mp.log(mp.mpc(c, float(u) - gamma))
    want = complex(mp.quad(f, [1.2, 2.0 - 1e-12])
                   + mp.quad(f, [2.0 + 1e-12, 3.1]))
    assert abs(got - want) < 5e-9
