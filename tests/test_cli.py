import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterzeta
from iterzeta import cli, eta, rays
from iterzeta.cli import main
from iterzeta.dirichlet import mean_square_error
from iterzeta.errors import TableCoverage
from iterzeta.eta import eta_vertical
from iterzeta.hunt import HuntConfig, hunt_value
from iterzeta.rays import log_zeta_horizontal
from iterzeta.torus import load_theta
from iterzeta.zeros import bundled_table, load_zero_table
from iterzeta.zetafun import zeta

ZEROS = "src/iterzeta/data/zeros_t250.txt"


def _table_arg(tmp_path):
    # the bundled file, addressed by path as a user would
    import iterzeta.data
    from importlib import resources
    src = resources.files(iterzeta.data) / "zeros_t250.txt"
    dst = tmp_path / "zeros.txt"
    dst.write_text(src.read_text())
    return str(dst)


def test_eval_bridge_grid(tmp_path):
    out = tmp_path / "eval.csv"
    code = main(["eval", "m=1", "sigma=0.5", "t=20..30", "step=0.5",
                 f"table={_table_arg(tmp_path)}", f"out={out}"])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 21
    assert all(float(r["residual"]) < 1e-4 for r in rows)
    manifest = out.with_suffix(".csv.manifest")
    assert manifest.exists()
    text = manifest.read_text()
    assert "rows = 21" not in text.split("#")[0]  # counts live in comments
    assert "# rows = 21" in text


def test_eval_is_one_pass_per_grid(tmp_path, monkeypatch):
    # a grid's log zeta and eta~ come from one pass over its rays and its
    # zeta from one batch, with no per-row horizontal call; the zeta and
    # log zeta columns are bitwise the one-height values.  Height 146.0
    # lies 9.8e-4 from the ordinate 146.000982 and is skipped
    calls = {"rows": 0, "zeta": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    def refused(*args, **kwargs):
        raise AssertionError("a per-row horizontal call")
    monkeypatch.setattr(cli, "_eta_tilde_rows",
                        counted("rows", cli._eta_tilde_rows))
    monkeypatch.setattr(cli, "zeta_batch", counted("zeta", cli.zeta_batch))
    monkeypatch.setattr(rays, "log_zeta_horizontal", refused)
    monkeypatch.setattr(eta, "eta_tilde_weighted", refused)
    for name in ("log_zeta_horizontal", "zeta", "eta_tilde_weighted"):
        assert not hasattr(cli, name)
    out = tmp_path / "eval.csv"
    assert main(["eval", "m=2", "sigma=0.5", "t=144..148", "step=0.5",
                 f"table={_table_arg(tmp_path)}", f"out={out}"]) == 0
    assert calls == {"rows": 1, "zeta": 1}
    monkeypatch.undo()
    rows = list(csv.DictReader(open(out)))
    assert [float(r["t"]) for r in rows] == [144.0, 144.5, 145.0, 145.5,
                                             146.5, 147.0, 147.5, 148.0]
    tab = bundled_table()
    for r in rows:
        t = float(r["t"])
        z = zeta(complex(0.5, t))
        lz = log_zeta_horizontal(0.5, t, tab)
        assert [r[k] for k in ("re_zeta", "im_zeta", "re_log_zeta",
                               "im_log_zeta")] \
            == [format(v, ".17g") for v in (z.real, z.imag, lz.real, lz.imag)]
        assert float(r["residual"]) <= float(r["est_error"])


def test_eval_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["eval", "m=2", "sigma=2", "t=5..8", "step=1.5",
            f"table={_table_arg(tmp_path)}"]
    assert main(args + [f"out={out1}"]) == 0
    assert main(["eval", "--config", str(out1) + ".manifest",
                 f"out={out2}"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_eval_empty_range(tmp_path):
    out = tmp_path / "empty.csv"
    code = main(["eval", "m=1", "sigma=2", "t=20..20", "step=0.5",
                 f"table={_table_arg(tmp_path)}", f"out={out}"])
    assert code == 0
    assert out.read_text().count("\n") == 1  # header only
    assert (tmp_path / "empty.csv.manifest").exists()


def test_eval_refuses_unknown_keys(tmp_path, capsys):
    # every command refuses a key it does not read before it computes or
    # writes anything, so a misspelt setting never runs at its default;
    # each polygon mode refuses the other mode's keys
    table = _table_arg(tmp_path)
    runs = [
        ("eval", ["m=1", "sigma=0.5", "t=20..21", f"table={table}"],
         "workers=2"),
        ("meansquare", ["m=1", "sigma=2", "X=10", "T=20", f"table={table}"],
         "stpe=0.1"),
        ("hunt", ["m=1", "sigma=0.8", "a=0.1+0.1i", "epsilon=0.1"],
         "bogus=1"),
        ("hunt", ["m=1", "sigma=0.8", "a=0.1+0.1i", "epsilon=0.1"],
         "delta=0.25"),
        ("polygon", ["radii=3 4 5", "z=0+0i"], "bogus=1"),
        ("polygon", ["radii=3 4 5", "z=0+0i"], "epsilon=0.01"),
        ("polygon", ["m=1", "sigma=0.9", "a=0.35+0.1i", "epsilon=0.2",
                     "sieve_limit=100000"], "z=0+0i"),
    ]
    for k, (command, args, extra) in enumerate(runs):
        out = tmp_path / f"{command}{k}.csv"
        assert main([command, *args, extra, f"out={out}"]) == 2
        assert extra.partition("=")[0] in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / f"{command}{k}.csv.manifest").exists()


def test_eval_requires_table(tmp_path):
    code = main(["eval", "m=1", "sigma=0.5", "t=20..21", "step=0.5",
                 f"out={tmp_path / 'x.csv'}"])
    assert code == 2


def test_validation_exit_code(tmp_path):
    code = main(["meansquare", "m=1", "sigma=0.8", "X=10", "T=10",
                 f"out={tmp_path / 'ms.csv'}"])
    assert code == 2  # T below the grid floor
    code = main(["meansquare", "m=1", "sigma=0.4", "X=10", "T=50",
                 f"out={tmp_path / 'ms.csv'}"])
    assert code == 2
    code = main(["meansquare", "m=4", "sigma=0.8", "X=10", "T=20",
                 f"out={tmp_path / 'ms.csv'}"])
    assert code == 2  # unsupported order
    assert not (tmp_path / "ms.csv").exists()


def test_eval_refuses_bad_grids(tmp_path, monkeypatch):
    # a grid that is not finite, too long to allocate, or reaches a
    # height at or below 0 or past the table's coverage, is refused
    # before any row is computed, and nothing is written
    table = _table_arg(tmp_path)

    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")
    monkeypatch.setattr(cli, "eta_vertical", no_rows)
    for grid in (["t=20..30", "step=nan"], ["t=20..nan", "step=0.5"],
                 ["t=20..30", "step=1e-300"], ["t=inf"], ["t=-1..2"],
                 ["t=0"], ["t=249..251", "step=1"]):
        out = tmp_path / "bad.csv"
        code = main(["eval", "m=1", "sigma=0.8", *grid, f"table={table}",
                     f"out={out}"])
        assert code == 2, grid
        assert not out.exists()
        assert not (tmp_path / "bad.csv.manifest").exists()


def test_meansquare_rows(tmp_path):
    out = tmp_path / "ms.csv"
    code = main(["meansquare", "m=1", "sigma=2", "X=10,50", "T=50",
                 f"out={out}"])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 2
    assert float(rows[1]["mse"]) < float(rows[0]["mse"])


def test_hunt_honest_failure_exit(tmp_path, capsys):
    out = tmp_path / "hunt.csv"
    code = main(["hunt", "m=1", "sigma=0.8", "a=1000+0i", "epsilon=0.01",
                 "t_max=40", "eval_budget=2", f"out={out}"])
    assert code == 3
    text = capsys.readouterr().out
    assert "status      = failure" in text
    rows = list(csv.DictReader(open(out)))
    assert rows[0]["status"] == "failure"
    assert float(rows[0]["est_error"]) >= 0.0


def test_hunt_malformed_complex(tmp_path, capsys):
    # a target that is not a complex literal, or not a finite one, is
    # refused with exit 2 and nothing written
    out = tmp_path / "h.csv"
    for a, message in (
            ("1+2x3i", "field a: malformed complex literal '1+2x3i'"),
            ("1+1e400i", "field a: must be finite"),
            ("inf", "field a: must be finite")):
        code = main(["hunt", "m=1", "sigma=0.8", f"a={a}", "epsilon=0.1",
                     f"out={out}"])
        assert code == 2
        assert message in capsys.readouterr().err, a
        assert not out.exists()


def test_field_messages(tmp_path, capsys):
    # an integer, a number and a required setting each refuse with their
    # own message, exit 2, and nothing written; test_hunt_malformed_complex
    # covers the complex ones
    out = tmp_path / "x.csv"
    row = ["eval", "t=20", f"table={_table_arg(tmp_path)}"]
    runs = [
        ([*row, "m=1.5", "sigma=0.8", f"out={out}"],
         "field m: expected an integer, got 1.5"),
        ([*row, "m=1", "sigma=x", f"out={out}"],
         "field sigma: expected a number, got 'x'"),
        ([*row, "m=1", "sigma=0.8"], "field out: required but missing"),
    ]
    for args, message in runs:
        assert main(args) == 2, args
        assert message in capsys.readouterr().err, args
        assert not out.exists()


def test_reader_refuses_non_finite_numbers(tmp_path, capsys):
    # a literal's trailing i alone is the imaginary unit, so the i of inf
    # and nan spells no unit; every setting that reads as a number that
    # is not finite is refused by the reader itself, exit 2, and nothing
    # is written
    out = tmp_path / "h.csv"
    hunt = {"m": "1", "sigma": "0.8", "a": "1+1i", "epsilon": "0.1"}
    for key, val in (("a", "infi"), ("a", "1+infi"), ("a", "inf"),
                     ("a", "nan"), ("a", "1+nani"), ("sigma", "inf"),
                     ("epsilon", "nan")):
        args = [f"{k}={val if k == key else v}" for k, v in hunt.items()]
        assert main(["hunt", *args, f"out={out}"]) == 2, (key, val)
        assert f"field {key}: must be finite" in capsys.readouterr().err, \
            (key, val)
        assert not out.exists()


def test_coverage_refusal_is_one_message(tmp_path, capsys):
    # past the table's coverage the vertical route, the mean square, the
    # hunt and an eval grid all refuse with ZeroTable.require_coverage's
    # TableCoverage, which names the height, the coverage and the table
    path = _table_arg(tmp_path)
    tab = load_zero_table(path)

    def message(t):
        with pytest.raises(TableCoverage) as want:
            tab.require_coverage(t)
        assert f"t={t:g} beyond table coverage 249.574 ({path})" \
            in str(want.value)
        return str(want.value)
    for call, t in (
            (lambda: eta_vertical(1, 0.8, 400.0, tab), 400.0),
            (lambda: mean_square_error(1, 0.8, 10, 400.0, 0.25, tab), 400.0),
            (lambda: hunt_value(1, 0.8, 0.5, 0.1, HuntConfig(t_max=300.0),
                                tab), 300.0)):
        with pytest.raises(TableCoverage) as got:
            call()
        assert str(got.value) == message(t)
    out = tmp_path / "x.csv"
    assert main(["eval", "m=1", "sigma=0.8", "t=249..251", "step=1",
                 f"table={path}", f"out={out}"]) == 2
    assert capsys.readouterr().err == f"error: {message(251.0)}\n"
    assert not out.exists()


def test_io_failure_exit(tmp_path):
    code = main(["eval", "m=1", "sigma=2", "t=5..6", "step=0.5",
                 f"table={_table_arg(tmp_path)}",
                 "out=/nonexistent-dir/x.csv"])
    assert code == 5


def test_polygon_radii_table(tmp_path):
    out = tmp_path / "poly.csv"
    code = main(["polygon", "radii=3,4,5", "z=0+0i", f"out={out}"])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert [r["radius"] for r in rows] == ["3", "4", "5"]
    thetas = [float(r["theta"]) for r in rows]
    import numpy as np
    ach = np.sum(np.array([3, 4, 5]) * np.exp(-2j * np.pi * np.array(thetas)))
    assert abs(ach) < 1e-10


def test_polygon_dominance_exit(tmp_path):
    code = main(["polygon", "radii=10,1,1", "z=0+0i",
                 f"out={tmp_path / 'p.csv'}"])
    assert code == 2


def test_polygon_construct_serializes(tmp_path):
    out = tmp_path / "theta.txt"
    code = main(["polygon", "m=1", "sigma=0.9", "a=0.35+0.1i",
                 "epsilon=0.2", "sieve_limit=100000", f"out={out}"])
    assert code == 0
    res = load_theta(out)
    assert res.final_error < 0.2
    assert (tmp_path / "theta.txt.manifest").exists()


def test_unset_keys_take_the_library_defaults(tmp_path):
    # a hunt without its window keys runs HuntConfig's defaults, and a
    # construction without sieve_limit sieves to construct_theta's cut:
    # each writes the file of the run that spells the values out
    runs = [
        (["hunt", "m=1", "sigma=0.8", "a=-0.892+0.601i", "epsilon=0.1"],
         ["t_min=10", "t_max=240", "eval_budget=48", "min_separation=0.5"]),
        (["polygon", "m=1", "sigma=0.8", "a=0.5+0.5i", "epsilon=0.05"],
         ["sieve_limit=1000000"]),
    ]
    for k, (args, spelt) in enumerate(runs):
        bare, full = tmp_path / f"bare{k}.txt", tmp_path / f"full{k}.txt"
        assert main([*args, f"out={bare}"]) == 0
        assert main([*args, *spelt, f"out={full}"]) == 0
        assert bare.read_bytes() == full.read_bytes()


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 1\nsigma = 2\nt = 5..6\nstep = 0.5  # comment\n")
    out = tmp_path / "o.csv"
    code = main(["eval", "--config", str(cfg), "sigma=3",
                 f"table={_table_arg(tmp_path)}", f"out={out}"])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert rows[0]["sigma"] == "3"


# None in sys.modules makes every later import of scipy or a submodule
# raise ImportError
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import iterzeta.cli
from iterzeta import (RadiiSet, bundled_table, eta_tilde_weighted,
                      eta_vertical, polygon_angles)
tab = bundled_table()
assert eta_tilde_weighted(2, 0.8, 30.5, tab).est_error < 1e-6
assert eta_vertical(2, 0.8, 30.5, tab).est_error < 1e-6
assert polygon_angles(RadiiSet([3.0, 4.0, 5.0]), 1 + 1j).residual < 1e-10
"""

_IMPORT_ALONE = """
import sys
import iterzeta
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
"""


def test_library_runs_without_scipy():
    # the library needs NumPy and the standard library alone; SciPy is a
    # test, benchmark and demo dependency
    src = str(Path(iterzeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for script in (_WITHOUT_SCIPY, _IMPORT_ALONE):
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
