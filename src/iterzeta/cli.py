"""Command-line front end: eval, meansquare, hunt, polygon.

Configuration is a flat key = value file plus positional key=value
overrides on the command line, e.g.

    iterzeta eval m=1 sigma=0.5 t=20..30 step=0.5 table=zeros.txt out=e.csv

Every output file gets a sibling manifest (<out>.manifest) whose
uncommented lines are themselves a valid config file, so a run can be
reproduced from its manifest alone.  Numeric CSV columns use 17
significant digits and re-runs are byte-identical.

eval needs a table covering its heights (eta_m and Y_m read every
ordinate below them); meansquare and hunt, which read eta~ alone, do not.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import BranchObstruction, ComputationError, ValidationError
from .eta import _eta_tilde_rows, _eta_vertical_rows, y_m
from .hunt import hunt_value
from .dirichlet import mean_square_error
from .polygon import RadiiSet, polygon_angles
from .primes import sieve_primes
from .torus import construct_theta, save_theta
from .zetafun import zeta_batch
from .zeros import ZeroTable, bundled_table, load_zero_table

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_HONEST_FAILURE = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_value(text: str):
    text = text.strip()
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    return text


def parse_config_file(path) -> dict:
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            cfg[key.strip()] = _parse_value(val)
    return cfg


def parse_overrides(tokens) -> dict:
    cfg = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValidationError(
                f"override {tok!r} is not of the form key=value")
        key, _, val = tok.partition("=")
        cfg[key.strip()] = _parse_value(val)
    return cfg


def _field(cfg: dict, key: str, kind=str, default=None):
    """Setting key of cfg as kind: int, float (an integer is taken too),
    complex (a number, or a literal such as 1+2i, whose trailing i is the
    imaginary unit) or str.  A number that is not finite is refused.
    Absent, it is default, and refused when there is none."""
    if key not in cfg:
        if default is None:
            raise ValidationError(f"field {key}: required but missing")
        return default
    val = cfg[key]
    if kind is str:
        return str(val)
    if isinstance(val, int) or (kind is not int and isinstance(val, float)):
        try:
            z = kind(val)
        except OverflowError:   # an integer past the float range
            z = np.inf
    elif kind is not complex:
        expected = "an integer" if kind is int else "a number"
        raise ValidationError(f"field {key}: expected {expected}, got {val!r}")
    else:
        text = str(val).strip().replace(" ", "")
        if text.endswith("i"):
            text = text[:-1] + "j"
        try:
            z = complex(text)
        except ValueError:
            raise ValidationError(
                f"field {key}: malformed complex literal {val!r}") from None
    if not np.isfinite(z):
        raise ValidationError(f"field {key}: must be finite")
    return z


# most rows one eval grid may hold; a row costs milliseconds
MAX_GRID_ROWS = 100_000


def _t_grid(cfg: dict) -> np.ndarray:
    spec = _field(cfg, "t")
    step = _field(cfg, "step", float, 0.5)
    if not (np.isfinite(step) and step > 0.0):
        raise ValidationError("field step: must be finite and positive")
    if ".." in spec:
        lo_s, _, hi_s = spec.partition("..")
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise ValidationError(
                f"field t: malformed range {spec!r}") from None
    else:
        try:
            lo = hi = float(spec)
        except ValueError:
            raise ValidationError(f"field t: malformed value {spec!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError(f"field t: {spec!r} is not finite")
    if ".." not in spec:
        return np.array([lo])
    if hi <= lo:
        return np.array([])
    n = np.floor((hi - lo) / step + 1e-9) + 1
    if not n <= MAX_GRID_ROWS:
        raise ValidationError(
            f"field step: t={spec} at step {step:g} holds {n:.3g} rows, "
            f"more than {MAX_GRID_ROWS}")
    return lo + step * np.arange(int(n))


def _load_table(cfg: dict, required: bool) -> ZeroTable:
    if "table" in cfg:
        return load_zero_table(str(cfg["table"]))
    if required:
        raise ValidationError(
            "field table: required; vertical quadrature needs the zero "
            "ordinates to pad and count zeros right of sigma")
    return bundled_table()


@dataclass
class RunManifest:
    command: str
    config: dict
    table_label: str = ""
    coverage: float = 0.0
    wall_time: float = 0.0
    rows: int = 0
    skipped: int = 0
    version: str = field(default=__version__)

    def write(self, out_path: str) -> str:
        path = out_path + ".manifest"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# run manifest; uncommented lines reproduce the run\n")
            fh.write(f"# command = {self.command}\n")
            fh.write(f"# version = {self.version}\n")
            if self.table_label:
                fh.write(f"# zero_table = {self.table_label}\n")
                fh.write(f"# coverage = {self.coverage!r}\n")
            fh.write(f"# wall_time_s = {self.wall_time:.3f}\n")
            fh.write(f"# rows = {self.rows}\n")
            fh.write(f"# skipped = {self.skipped}\n")
            for key in sorted(self.config):
                fh.write(f"{key} = {self.config[key]}\n")
        return path


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


_EVAL_HEADER = ("m", "sigma", "t", "re_zeta", "im_zeta", "re_log_zeta",
                "im_log_zeta", "re_eta_tilde", "im_eta_tilde", "re_eta",
                "im_eta", "re_y", "im_y", "residual", "est_error")


def cmd_eval(cfg: dict) -> int:
    m = _field(cfg, "m", int)
    sigma = _field(cfg, "sigma", float)
    out = _field(cfg, "out")
    table = _load_table(cfg, required=True)
    ts = _t_grid(cfg)
    # the grid ascends: its ends decide whether every row can be computed
    if ts.size and not ts[0] > 0.0:
        raise ValidationError(f"field t: t={ts[0]:g} is not positive; "
                              "eta_m needs t > 0")
    if ts.size:
        table.require_coverage(ts[-1])
    start = time.monotonic()
    # log zeta (order 0) and eta~_m from one pass over the grid's rays,
    # eta_m from one pass up its line
    horizontal = _eta_tilde_rows((0, m), sigma, ts, table)
    vertical = _eta_vertical_rows(m, sigma, ts, table)
    rows, skipped = [], 0
    for t, z, row, ev in zip(ts, zeta_batch(sigma + 1j * ts), horizontal,
                             vertical):
        try:
            for res in (row, ev):
                if isinstance(res, Exception):
                    raise res
        except BranchObstruction:
            skipped += 1
            continue
        (lz, et), ym = row, y_m(m, sigma, t, table)
        resid = abs(ev.value - ((1j ** m) * et.value + ym))
        vals = (float(m), sigma, t, z.real, z.imag, lz.value.real,
                lz.value.imag, et.value.real, et.value.imag, ev.value.real,
                ev.value.imag, ym.real, ym.imag, resid,
                et.est_error + ev.est_error)
        rows.append(tuple(_fmt(v) for v in vals))
    _write_csv(out, _EVAL_HEADER, rows)
    RunManifest("eval", cfg, table.source_label, table.coverage,
                time.monotonic() - start, len(rows), skipped).write(out)
    return EXIT_OK


_MS_HEADER = ("m", "sigma", "X", "T", "mse", "bound_ratio",
              "skipped_fraction")


def cmd_meansquare(cfg: dict) -> int:
    m = _field(cfg, "m", int)
    sigma = _field(cfg, "sigma", float)
    T = _field(cfg, "T", float)
    grid_step = _field(cfg, "step", float, 0.25)
    out = _field(cfg, "out")
    table = _load_table(cfg, required=False)
    xs_raw = _field(cfg, "X")
    try:
        xs = [int(tok) for tok in xs_raw.replace(",", " ").split()]
    except ValueError:
        raise ValidationError(
            f"field X: expected integers, got {xs_raw!r}") from None
    if not xs:
        raise ValidationError("field X: needs at least one cutoff")
    start = time.monotonic()
    # one table for every row: the rows take the same primes and logs
    primes = sieve_primes(max(3, *xs))
    rows = []
    for x in xs:
        rep = mean_square_error(m, sigma, x, T, grid_step, table, primes)
        rows.append(tuple(_fmt(v) for v in
                          (float(rep.m), rep.sigma, float(rep.X), rep.T,
                           rep.mse, rep.bound_ratio, rep.skipped_fraction)))
    fresh = not os.path.exists(out)
    with open(out, "a", encoding="utf-8", newline="\n") as fh:
        if fresh:
            fh.write(",".join(_MS_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    RunManifest("meansquare", cfg, table.source_label, table.coverage,
                time.monotonic() - start, len(rows)).write(out)
    return EXIT_OK


_HUNT_HEADER = ("m", "sigma", "re_a", "im_a", "epsilon", "t_witness",
                "torus_error", "final_error", "est_error", "budget_used",
                "status")


def cmd_hunt(cfg: dict) -> int:
    m = _field(cfg, "m", int)
    sigma = _field(cfg, "sigma", float)
    a = _field(cfg, "a", complex)
    epsilon = _field(cfg, "epsilon", float)
    out = _field(cfg, "out")
    table = _load_table(cfg, required=False)
    # the window keys given; hunt_value holds the defaults of the rest
    window = {key: _field(cfg, key, float)
              for key in ("t_min", "t_max") if key in cfg}
    start = time.monotonic()
    res = hunt_value(m, sigma, a, epsilon, table=table, **window)
    status = "success" if res.success else "failure"
    row = (format(m, "d"), _fmt(sigma), _fmt(a.real), _fmt(a.imag),
           _fmt(epsilon),
           _fmt(res.t_witness) if res.t_witness is not None else "nan",
           _fmt(res.torus_error), _fmt(res.final_error), _fmt(res.est_error),
           format(res.budget_used, "d"), status)
    _write_csv(out, _HUNT_HEADER, [row])
    RunManifest("hunt", cfg, table.source_label, table.coverage,
                time.monotonic() - start, 1).write(out)
    print("hunt result")
    print(f"  status      = {status}")
    print(f"  t_witness   = {res.t_witness}")
    print(f"  eta_value   = {res.eta_value}")
    print(f"  target_a    = {res.target_a}")
    print(f"  final_error = {res.final_error}")
    print(f"  est_error   = {res.est_error}")
    print(f"  torus_error = {res.torus_error}")
    print(f"  budget_used = {res.budget_used}")
    print(f"  diagnostic  = {res.diagnostic}")
    return EXIT_OK if res.success else EXIT_HONEST_FAILURE


def cmd_polygon(cfg: dict) -> int:
    """Radii mode: the angle table closing the given radii onto z."""
    out = _field(cfg, "out")
    start = time.monotonic()
    raw = _field(cfg, "radii")
    try:
        radii = np.array([float(tok) for tok in raw.replace(",", " ").split()])
    except ValueError:
        raise ValidationError(
            f"field radii: expected numbers, got {raw!r}") from None
    z = _field(cfg, "z", complex, 0.0 + 0.0j)
    assign = polygon_angles(RadiiSet(radii), z)
    rows = [(format(i + 1, "d"), _fmt(r), _fmt(th))
            for i, (r, th) in enumerate(zip(radii, assign.thetas))]
    _write_csv(out, ("index", "radius", "theta"), rows)
    RunManifest("polygon", cfg, wall_time=time.monotonic() - start,
                rows=len(rows)).write(out)
    print(f"polygon: residual = {assign.residual:.3e}, "
          f"achieved = {assign.achieved}")
    return EXIT_OK


def cmd_construct(cfg: dict) -> int:
    """Construct mode of polygon: prime angles realizing a to epsilon."""
    out = _field(cfg, "out")
    start = time.monotonic()
    m = _field(cfg, "m", int)
    sigma = _field(cfg, "sigma", float)
    a = _field(cfg, "a", complex)
    epsilon = _field(cfg, "epsilon", float)
    # without sieve_limit, construct_theta sieves to its own cut
    primes = (sieve_primes(_field(cfg, "sieve_limit", int))
              if "sieve_limit" in cfg else None)
    res = construct_theta(m, sigma, a, epsilon, primes)
    save_theta(res, out)
    RunManifest("polygon", cfg, wall_time=time.monotonic() - start,
                rows=int(res.primes.size)).write(out)
    print(f"construct: U={res.U} N={res.N} primes={res.primes.size} "
          f"final_error={res.final_error:.6g}")
    return EXIT_OK


# each command with the keys it reads; any other key is refused, so a
# misspelt setting cannot run silently at its default
_COMMANDS = {
    "eval": (cmd_eval, {"m", "sigma", "t", "step", "table", "out"}),
    "meansquare": (cmd_meansquare, {"m", "sigma", "T", "step", "X", "table",
                                    "out"}),
    "hunt": (cmd_hunt, {"m", "sigma", "a", "epsilon", "table", "t_min",
                        "t_max", "out"}),
    "polygon": (cmd_polygon, {"radii", "z", "out"}),
}
# polygon without radii runs the construction, with keys of its own
_CONSTRUCT = (cmd_construct, {"m", "sigma", "a", "epsilon", "sieve_limit",
                              "out"})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iterzeta",
        description="iterated integrals of log zeta: evaluation, "
                    "mean-square studies, and target hunts")
    parser.add_argument("--version", action="version",
                        version=f"iterzeta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("eval", "tabulate zeta, log zeta, both iterated integrals, "
                     "the zero sum and the bridge residual over a t-grid"),
            ("meansquare", "mean-square distance to the prime sum for a "
                           "list of cutoffs"),
            ("hunt", "search for t realizing a target value"),
            ("polygon", "angle tables: explicit radii or the full "
                        "construction pipeline")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value file")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="individual settings; override the config file")
    args = parser.parse_args(argv)
    try:
        cfg = {}
        if args.config:
            cfg.update(parse_config_file(args.config))
        cfg.update(parse_overrides(args.overrides))
        command, keys = _COMMANDS[args.command]
        if args.command == "polygon" and "radii" not in cfg:
            command, keys = _CONSTRUCT
        unknown = sorted(set(cfg) - keys)
        if unknown:
            raise ValidationError(
                f"field {unknown[0]}: not a {args.command} setting")
        return command(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComputationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
