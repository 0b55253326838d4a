import numpy as np
import pytest

from iterzeta import (MonotonicityError, ParseError, ValidationError,
                      ZeroTable, bundled_table, load_zero_table,
                      zeros_in_box)
from iterzeta import zeta

# first ten ordinates on the critical line, 9 decimals
FIRST_TEN = [14.134725142, 21.022039639, 25.010857580, 30.424876126,
             32.935061588, 37.586178159, 40.918719012, 43.327073281,
             48.005150881, 49.773832478]


def test_bundled_first_ten():
    tab = bundled_table()
    assert len(tab) >= 100
    assert np.allclose(tab.gammas[:10], FIRST_TEN, atol=5e-9)
    assert np.all(tab.betas == 0.5)
    assert np.all(tab.mults == 1)
    assert tab.coverage > 249.0


def test_bundled_rows_are_zeros():
    tab = bundled_table()
    vals = [abs(zeta(0.5 + 1j * g)) for g in tab.gammas[::10]]
    assert max(vals) < 1e-5


def test_load_one_column(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("# comment\n14.13\n21.02\n\n25.01\n")
    tab = load_zero_table(p)
    assert len(tab) == 3
    assert np.all(tab.betas == 0.5)
    assert np.all(tab.mults == 1)


def test_load_three_column(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("0.6 14.13 2\n0.5 21.02 1\n")
    tab = load_zero_table(p)
    assert tab.betas[0] == 0.6
    assert tab.mults[0] == 2


def test_parse_errors(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("14.13\nnot-a-number\n")
    with pytest.raises(ParseError) as err:
        load_zero_table(p)
    assert ":2" in str(err.value)

    p.write_text("21.02\n14.13\n")
    with pytest.raises(MonotonicityError):
        load_zero_table(p)


def test_non_finite_entries_are_refused(tmp_path):
    # a NaN ordinate used to load with coverage NaN, which switched the
    # coverage rule off, and an infinite one broke the line's knots
    for b, g in ((0.5, np.nan), (np.nan, 14.0), (0.5, np.inf)):
        with pytest.raises(ParseError):
            ZeroTable(betas=np.array([b]), gammas=np.array([g]),
                      mults=np.array([1]))
    p = tmp_path / "z.txt"
    for bad in ("nan", "inf", "nan 20.0 1", "0.5 nan 1", "0.5 inf 1"):
        p.write_text(f"14.13\n{bad}\n")
        with pytest.raises(ParseError) as err:
            load_zero_table(p)
        assert ":2" in str(err.value)


def test_validation():
    with pytest.raises(ValidationError):
        ZeroTable(betas=np.array([1.5]), gammas=np.array([14.0]),
                  mults=np.array([1]), source_label="x")
    empty = ZeroTable(betas=np.zeros(0), gammas=np.zeros(0),
                      mults=np.zeros(0, dtype=np.int64), source_label="e")
    assert empty.coverage == 0.0
    # a multiplicity is a count: the int64 cast stored 1.7 as 1
    for k in (1.7, 0.5, np.nan, np.inf):
        with pytest.raises(ParseError, match="integers"):
            ZeroTable(betas=[0.5], gammas=[14.1], mults=[k])
    tab = ZeroTable(betas=[0.5], gammas=[14.1], mults=[2.0])
    assert tab.mults.dtype == np.int64 and tab.mults.tolist() == [2]


def test_zeros_in_box():
    tab = bundled_table()
    b, g, m = zeros_in_box(tab, 0.4, 26.0)
    assert list(np.round(g, 3)) == [14.135, 21.022, 25.011]
    b2, g2, _ = zeros_in_box(tab, 0.5, 26.0)  # strict beta > sigma
    assert g2.size == 0
    with pytest.raises(ValidationError):
        zeros_in_box(tab, 0.4, -1.0)
    # a NaN sigma compared False against every beta and gave an empty box
    for sigma, t in ((np.nan, 30.0), (0.4, np.nan), (0.4, np.inf),
                     (-np.inf, 30.0)):
        with pytest.raises(ValidationError, match="finite"):
            zeros_in_box(tab, sigma, t)
