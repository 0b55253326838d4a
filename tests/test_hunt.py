import math

import numpy as np
import pytest

from iterzeta.errors import (BudgetExceeded, TableCoverage, ValidationError)
from iterzeta.eta import eta_tilde_weighted
from iterzeta.hunt import (HuntConfig, TorusTarget, equidistribution_measure,
                           hunt_value, kronecker_search)
from iterzeta.zeros import bundled_table

TAB = bundled_table()


def test_single_prime_orbit_period():
    # theta_2 = 0 recurs with period 2 pi / log 2
    tgt = TorusTarget(np.array([2]), np.array([0.0]), 0.05)
    step = 0.05 / math.log(2.0) / 1.05
    hits = kronecker_search(tgt, 8.0, 100.0, step)
    assert hits == sorted(hits)
    period = 2.0 * np.pi / math.log(2.0)
    ks = np.round(np.asarray(hits) / period)
    offs = np.abs(np.asarray(hits) - ks * period) * math.log(2.0) / (2 * np.pi)
    assert np.all(offs < 0.05 + 1e-12)
    assert set(ks.astype(int)) == set(range(1, 12))


def test_hits_reverify():
    tgt = TorusTarget(np.array([2, 3, 5]), np.array([0.1, 0.4, 0.8]), 0.2)
    step = 0.2 / math.log(5.0) / 1.05
    hits = kronecker_search(tgt, 10.0, 200.0, step)
    freqs = np.log(np.array([2.0, 3.0, 5.0])) / (2 * np.pi)
    for t in hits:
        d = np.mod(t * freqs - tgt.thetas, 1.0)
        assert np.all(np.minimum(d, 1 - d) < 0.2)


def test_prefix_stability():
    tgt = TorusTarget(np.array([2, 3]), np.array([0.0, 0.0]), 0.2)
    step = 0.2 / math.log(3.0) / 1.05
    short = kronecker_search(tgt, 10.0, 100.0, step)
    long = kronecker_search(tgt, 10.0, 200.0, step)
    assert long[:len(short)] == short


def test_step_and_budget_guards():
    tgt = TorusTarget(np.array([2, 3]), np.array([0.0, 0.0]), 0.1)
    with pytest.raises(ValidationError):
        kronecker_search(tgt, 10.0, 100.0, 0.2)
    with pytest.raises(BudgetExceeded):
        kronecker_search(tgt, 10.0, 1e8, 1e-5)


def test_target_validation():
    with pytest.raises(ValidationError):
        TorusTarget(np.array([3, 2]), np.array([0.0, 0.0]), 0.1)
    with pytest.raises(ValidationError):
        TorusTarget(np.array([2, 3]), np.array([0.0, 1.2]), 0.1)
    with pytest.raises(ValidationError):
        TorusTarget(np.array([2, 3]), np.array([0.0, 0.0]), 0.6)


def test_equidistribution_full_box():
    meas, exp = equidistribution_measure([(0.0, 1.0)], 1e3, [2])
    assert meas == 1.0 and exp == 1.0


def test_equidistribution_half_arc():
    meas, exp = equidistribution_measure([(0.0, 0.5)], 2e4, [2])
    assert exp == 0.5
    assert abs(meas - 0.5) < 0.02


def test_equidistribution_validation():
    with pytest.raises(ValidationError):
        equidistribution_measure([(0.0, 0.5)], 100.0, [2])
    with pytest.raises(ValidationError):
        equidistribution_measure([(0.0, 0.5)] * 5, 1e4, [2, 3, 5, 7, 11])
    with pytest.raises(ValidationError):
        equidistribution_measure([(0.7, 0.2)], 1e4, [2])


def test_hunt_self_referential_target():
    a = eta_tilde_weighted(1, 0.8, 50.0, table=TAB).value
    res = hunt_value(1, 0.8, a, 0.3, table=TAB)
    assert res.success
    assert res.final_error < 0.3
    assert res.budget_used > 0
    assert 10.0 <= res.t_witness <= 240.0
    # the candidates were evaluated in one pass; the witness holds alone
    again = eta_tilde_weighted(1, 0.8, res.t_witness, table=TAB)
    assert abs(again.value - a) < 0.3
    assert abs(again.value - res.eta_value) < again.est_error


def test_hunt_unreachable_target_is_honest():
    res = hunt_value(1, 0.8, 100.0 + 0j,  0.01,
                     config=HuntConfig(t_max=60.0, eval_budget=4), table=TAB)
    assert not res.success
    assert res.final_error > 1.0
    assert res.diagnostic


def test_hunt_coverage_precondition():
    with pytest.raises(TableCoverage):
        hunt_value(1, 0.8, 0.5 + 0j, 0.1,
                   config=HuntConfig(t_max=300.0), table=TAB)


def test_hunt_validation():
    with pytest.raises(ValidationError):
        hunt_value(1, 1.2, 0.5 + 0j, 0.1, table=TAB)
    with pytest.raises(ValidationError):
        HuntConfig(delta=0.7)
    with pytest.raises(ValidationError):
        HuntConfig(t_min=50.0, t_max=20.0)
