import numpy as np
import mpmath as mp
import pytest

from iterzeta.errors import QuadratureNonconvergence
from iterzeta.quadrature import (gl_panel, integrate_rows, integrate_vec,
                                 log_kernel_moments, poly_log_integral)

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


def test_integrate_vec_nonconvergence():
    # a jump cannot be resolved to an impossible tolerance in few levels
    f = lambda x: np.where(x > np.pi / 10, 1.0, 0.0)
    with pytest.raises(QuadratureNonconvergence):
        integrate_vec(f, 0.0, 1.0, abs_tol=1e-14, max_depth=6)
    # as a row next to a smooth one, only the jump's row is refused
    _, _, _, refused = integrate_rows(
        lambda x, row: np.where(row == 0, f(x), np.cos(x)), [0.0, 0.0], 1.0,
        1e-14, max_depth=6)
    assert isinstance(refused[0], QuadratureNonconvergence)
    assert refused[1] is None


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
