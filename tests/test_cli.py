import csv

from iterzeta import cli
from iterzeta.cli import main
from iterzeta.torus import load_theta

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


def test_hunt_malformed_complex(tmp_path):
    code = main(["hunt", "m=1", "sigma=0.8", "a=1+2x3i", "epsilon=0.1",
                 f"out={tmp_path / 'h.csv'}"])
    assert code == 2


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


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 1\nsigma = 2\nt = 5..6\nstep = 0.5  # comment\n")
    out = tmp_path / "o.csv"
    code = main(["eval", "--config", str(cfg), "sigma=3",
                 f"table={_table_arg(tmp_path)}", f"out={out}"])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert rows[0]["sigma"] == "3"
