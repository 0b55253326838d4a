import dataclasses
import math

import numpy as np
import pytest

from iterzeta import hunt
from iterzeta.dirichlet import _grid_split, mangoldt_grid, mangoldt_sum
from iterzeta.errors import (BranchObstruction, BudgetExceeded, TableCoverage,
                             UnsupportedRange, ValidationError)
from iterzeta.eta import _prime_powers, eta_tilde_weighted
from iterzeta.hunt import (HuntConfig, TorusTarget, equidistribution_measure,
                           hunt_value, kronecker_search)
from iterzeta.zeros import ZeroTable, bundled_table

TAB = bundled_table()
_TGT = TorusTarget(np.array([2, 3]), np.array([0.0, 0.0]), 0.1)


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
    with pytest.raises(BudgetExceeded):
        equidistribution_measure([(0.0, 0.5)], 1e300, [2])


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


@pytest.mark.parametrize("call", [
    lambda: hunt_value(1, 0.8, complex(math.nan, 0.0), 0.1, table=TAB),
    lambda: hunt_value(1, 0.8, complex(0.0, math.inf), 0.1, table=TAB),
    lambda: hunt_value(1, math.nan, 0.5 + 0j, 0.1, table=TAB),
    lambda: HuntConfig(min_separation=math.nan),
    lambda: TorusTarget(np.array([2, 3]), np.array([0.0, math.nan]), 0.1),
    lambda: kronecker_search(_TGT, 10.0, 100.0, 0.0),
    lambda: kronecker_search(_TGT, 10.0, 100.0, -0.01),
    lambda: kronecker_search(_TGT, 10.0, 100.0, math.nan),
    lambda: kronecker_search(_TGT, 10.0, math.inf, 0.01),
    lambda: equidistribution_measure([(0.0, 0.5)], math.nan, [2]),
    lambda: equidistribution_measure([(0.0, 0.5)], math.inf, [2]),
    lambda: equidistribution_measure([(0.0, math.nan)], 1e4, [2]),
    lambda: equidistribution_measure([(0.0, 0.5)], 1e4, [math.nan]),
], ids=["a-nan", "a-inf", "sigma-nan", "separation-nan", "angle-nan",
        "step-zero", "step-negative", "step-nan", "t-max-inf", "T-nan",
        "T-inf", "arc-nan", "prime-nan"])
def test_inputs_not_finite_and_valid_are_refused(call):
    # refused with a ValidationError, never an IndexError, a division by
    # zero, an overflow or an empty result
    with pytest.raises(ValidationError):
        call()


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


def test_hunt_witness_counts_its_est_error(monkeypatch):
    # a witness at |eta~ - a| = f < epsilon stands with every est_error
    # (epsilon - f) / 2; with est_error epsilon no candidate is a
    # witness, though the closest is still within epsilon of a
    eps = 0.05
    a = eta_tilde_weighted(1, 0.8, 50.0, table=TAB).value + 0.02
    plain = hunt_value(1, 0.8, a, eps, table=TAB)
    assert plain.success and plain.est_error < 1e-6
    real = hunt._eta_tilde_rows
    for est, found in ((0.5 * (eps - plain.final_error), True), (eps, False)):
        def rows(m, sigma, ts, table):
            return [ev if isinstance(ev, Exception)
                    else dataclasses.replace(ev, est_error=est)
                    for ev in real(m, sigma, ts, table)]
        monkeypatch.setattr(hunt, "_eta_tilde_rows", rows)
        res = hunt_value(1, 0.8, a, eps, table=TAB)
        assert (res.success, res.est_error) == (found, est)
        assert res.final_error <= plain.final_error < eps
        if found:
            assert res.t_witness == plain.t_witness


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


def test_hunt_refuses_heights_past_zeta_limit(monkeypatch):
    # a table reaching past zeta's limit does not let the grid form first
    tall = ZeroTable(np.append(TAB.betas, 0.5), np.append(TAB.gammas, 2e4),
                     np.append(TAB.mults, 1))

    def no_grid(*args):
        raise AssertionError("grid formed")
    monkeypatch.setattr(hunt, "mangoldt_grid", no_grid)
    with pytest.raises(UnsupportedRange):
        hunt_value(1, 0.8, 0.5 + 0j, 0.1,
                   config=HuntConfig(t_min=9990.0, t_max=1.2e4), table=tall)


def test_hunt_validation():
    with pytest.raises(ValidationError):
        hunt_value(1, 1.2, 0.5 + 0j, 0.1, table=TAB)
    with pytest.raises(ValidationError):
        HuntConfig(t_min=50.0, t_max=20.0)
    with pytest.raises(ValidationError):
        HuntConfig(t_min=0.0)
    with pytest.raises(ValidationError):
        HuntConfig(eval_budget=0)
    with pytest.raises(ValidationError):
        HuntConfig(min_separation=-0.1)
    cfg = HuntConfig()
    assert (cfg.t_min, cfg.t_max, cfg.eval_budget, cfg.min_separation) \
        == (10.0, 240.0, 48, 0.5)


def test_hunt_refuses_a_config_of_another_type(monkeypatch):
    # the table passed where the config goes, positionally: refused
    # before any grid forms
    def no_grid(*args):
        raise AssertionError("grid formed")
    monkeypatch.setattr(hunt, "mangoldt_grid", no_grid)
    for config in (TAB, {"t_min": 10.0}, 240.0):
        with pytest.raises(ValidationError, match="HuntConfig"):
            hunt_value(1, 0.8, 0.3, 0.1, config)


# (m, sigma, t0) of self-referential targets a = eta~_m(sigma + i t0),
# spread over the default window
SELF_TARGETS = ((1, 0.6, 30.0), (2, 0.7, 70.0), (3, 0.8, 110.0),
                (1, 0.9, 150.0), (2, 0.65, 190.0), (3, 0.85, 230.0))


@pytest.mark.parametrize("m, sigma, t0", SELF_TARGETS)
def test_hunt_finds_self_referential_targets_first(m, sigma, t0):
    # D_X ranks a witness among the first pass
    a = eta_tilde_weighted(m, sigma, t0, table=TAB).value
    res = hunt_value(m, sigma, a, 0.1, table=TAB)
    assert res.success, res.diagnostic
    assert 1 <= res.budget_used <= 4
    assert abs(eta_tilde_weighted(m, sigma, res.t_witness,
                                  table=TAB).value - a) < 0.1


def test_hunt_refuses_targets_out_of_reach():
    rng = np.random.default_rng(10)
    cfg = HuntConfig()
    for m in (1, 2, 3, 1, 3):
        sigma = float(rng.uniform(0.6, 0.95))
        a = complex(rng.uniform(6.0, 8.0)
                    * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        res = hunt_value(m, sigma, a, 0.1, config=cfg, table=TAB)
        assert not res.success
        # the first pass measures eta~ near D_X; no later candidate of D_X
        # comes near enough to a to be evaluated
        assert res.budget_used <= hunt.FIRST_PASS
        assert res.final_error > 4.0


def _spy_rows(monkeypatch, obstruct_first=False):
    """Record the heights of each eta~ pass the hunt makes, with what it
    returned; with obstruct_first, every height of the first pass is
    returned obstructed."""
    passes = []
    real = hunt._eta_tilde_rows

    def rows(m, sigma, ts, table):
        out = ([BranchObstruction("test obstruction")] * ts.size
               if obstruct_first and not passes
               else real(m, sigma, ts, table))
        passes.append((ts.copy(), out))
        return out
    monkeypatch.setattr(hunt, "_eta_tilde_rows", rows)
    return passes


def _reachable_sample(count):
    rng = np.random.default_rng(2026)
    for _ in range(count):
        m = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.55, 0.95))
        a = complex(rng.uniform(0.3, 1.2)
                    * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        yield m, sigma, a


def test_hunt_gap_cut_keeps_the_full_second_pass_results(monkeypatch):
    # the cut skips only candidates that the full second pass, today's
    # GAP_FACTOR = inf, would not have turned into a witness
    cut = [hunt_value(m, sigma, a, 0.1, table=TAB)
           for m, sigma, a in _reachable_sample(30)]
    monkeypatch.setattr(hunt, "GAP_FACTOR", math.inf)
    full = [hunt_value(m, sigma, a, 0.1, table=TAB)
            for m, sigma, a in _reachable_sample(30)]
    found = [r.success for r in full]
    assert 5 <= sum(found) <= 25
    assert [r.success for r in cut] == found
    assert [r.t_witness for r in cut if r.success] \
        == [r.t_witness for r in full if r.success]
    assert all(c.budget_used <= f.budget_used for c, f in zip(cut, full))
    assert sum(c.budget_used for c in cut) < sum(f.budget_used for f in full)


def test_hunt_without_a_measured_gap_runs_the_whole_second_pass(monkeypatch):
    # every first-pass candidate obstructed: no g, so no cut
    a = 7.0 + 0.0j
    full = hunt_value(1, 0.8, a, 0.1, table=TAB,
                      config=HuntConfig(eval_budget=12))
    assert full.budget_used == hunt.FIRST_PASS
    passes = _spy_rows(monkeypatch, obstruct_first=True)
    res = hunt_value(1, 0.8, a, 0.1, table=TAB,
                     config=HuntConfig(eval_budget=12))
    assert [ts.size for ts, _ in passes] == [hunt.FIRST_PASS, 8]
    assert res.budget_used == 8
    assert not res.success
    assert f"{hunt.FIRST_PASS} obstructed" in res.diagnostic
    assert "first-pass gap" not in res.diagnostic


def test_hunt_refusal_names_the_gap_and_the_nearest_skipped(monkeypatch):
    m, sigma, a = 2, 0.75, -5.0 + 4.0j
    passes = _spy_rows(monkeypatch)
    res = hunt_value(m, sigma, a, 0.1, table=TAB)
    assert not res.success and len(passes) == 1
    ts, evs = passes[0]
    gap = max(abs(ev.value - mangoldt_sum(m, sigma, t, 300))
              for t, ev in zip(ts, evs))
    reach = 0.1 + hunt.GAP_FACTOR * max(gap, hunt.GAP_FLOOR)
    assert f"g = max |eta~ - D_X| = {gap:.3g}" in res.diagnostic
    # the nearest skipped candidate is the first the full pass evaluates
    passes.clear()
    monkeypatch.setattr(hunt, "GAP_FACTOR", math.inf)
    hunt_value(m, sigma, a, 0.1, table=TAB)
    nearest = min(abs(mangoldt_sum(m, sigma, t, 300) - a)
                  for t in passes[1][0])
    assert nearest > reach
    assert (f"skipped with nearest |D_X - a| = {nearest:.3g} > "
            f"{reach:.3g}") in res.diagnostic


@pytest.mark.parametrize("m, sigma", [(1, 0.8), (2, 0.55), (3, 0.95)])
def test_hunt_grid_matches_mangoldt_sum(m, sigma):
    # the hunt's grid over the default window, against one-height sums
    cfg = HuntConfig()
    count = int(round((cfg.t_max - cfg.t_min) / hunt.GRID_STEP)) + 1
    grid = mangoldt_grid(m, sigma, cfg.t_min, hunt.GRID_STEP, count,
                         hunt.TAIL_TERMS)
    assert hunt.TAIL_TERMS == 300 and count == 11501
    for j in (0, count // 2, count - 1):
        t = cfg.t_min + hunt.GRID_STEP * j
        assert abs(grid[j] - mangoldt_sum(m, sigma, t, 300)) < 1e-13


@pytest.mark.parametrize("count", [1, 7, 11501])
def test_grid_is_the_complex_product(count):
    # the grid is formed as one real product on the (Re, Im) parts; it
    # stays the complex (blocks x prime powers) . (prime powers x
    # offsets) product to 1e-13 relative
    logs, inv_k = _prime_powers(300)
    for m in (1, 2, 3):
        for sigma in (0.5, 0.8, 2.0):
            blocks, offsets = _grid_split(10.0, 0.02, count)
            coef = inv_k * np.exp(-sigma * logs) / logs ** m
            want = ((coef * np.exp(-1j * np.multiply.outer(blocks, logs)))
                    @ np.exp(-1j * np.multiply.outer(logs, offsets))
                    ).ravel()[:count]
            got = mangoldt_grid(m, sigma, 10.0, 0.02, count, 300)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
