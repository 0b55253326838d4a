"""Spans around the library's public entry points, and per-layer metrics.

The worker calls `instrument`, which rebinds every public entry point at
each iterzeta module attribute that holds it (rays and eta import
`zeta_batch` by name, so both bindings are wrapped).  Nothing inside the
library changes.  A span is (id, parent id, name, layer, start, end,
request id, counts); the worker ships finished spans to the client with
each reply, and the client keeps them in memory and writes them out at
the end.  Aggregation (`self_times`, `layer_metrics`) is standard library
only, so the client can run it without numpy.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    rid: object
    counts: dict | None


class Tracer:
    def __init__(self, first_id: int = 0):
        self.spans: list[Span] = []
        self.rid: object = "setup"
        self._stack: list[int] = []
        self._next = first_id

    def drain(self) -> list[Span]:
        out, self.spans = self.spans, []
        return out

    def wrap(self, fn, name: str, layer: str, count=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            counts = count(args, kwargs, out) if count else None
            self.spans.append(Span(sid, parent, name, layer, start, end,
                                   self.rid, counts))
            return out
        return traced


# ---- what each entry point counts ----------------------------------------
# Each takes (args, kwargs, result); the numpy import is deferred because
# these only ever run in the worker.

def _zeta_batch(args, kwargs, out):
    import numpy as np
    from iterzeta.zetafun import DEFAULT_PARAMS
    s = np.asarray(args[0] if args else kwargs["s"])
    params = args[1] if len(args) > 1 else kwargs.get("params",
                                                      DEFAULT_PARAMS)
    if s.size == 0:
        return {"points": 0, "terms": 0}
    # the initial Euler-Maclaurin length, before any doubling: computed
    n_terms = max(params.em_terms,
                  int(math.ceil(3.0 * float(np.max(np.abs(s.imag))))))
    return {"points": int(s.size), "terms": int(s.size) * n_terms}


def _heights(args, kwargs, out):
    import numpy as np
    return {"walks": int(np.asarray(args[1] if len(args) > 1
                                    else kwargs["heights"]).size)}


def _nevals_tuple(args, kwargs, out):
    return {"nevals": int(out[2])}


def _nevals_eta(args, kwargs, out):
    return {"nevals": int(out.nevals)}


def _hunt(args, kwargs, out):
    return {"evals": int(out.budget_used), "witness": int(bool(out.success))}


def _kronecker(args, kwargs, out):
    names = ("target", "t_min", "t_max", "step")
    a = dict(zip(names, args), **kwargs)
    pts = int(math.floor((a["t_max"] - a["t_min"]) / a["step"])) + 1
    return {"grid_points": pts, "box_hits": len(out)}


def _polylog_points(args, kwargs, out):
    return {"points": int(out.size)}


def _radii(args, kwargs, out):
    return {"radii": int(out.thetas.size)}


def _window(args, kwargs, out):
    import numpy as np
    i_u = int(np.searchsorted(out.primes, out.U, side="right"))
    return {"window_primes": int(out.primes.size) - i_u}


def _sieved(args, kwargs, out):
    return {"sieved": int(out.limit)}


# (module, public name, count); layer = module
ENTRY_POINTS = (
    ("zetafun", "zeta_batch", _zeta_batch),
    ("zetafun", "zeta", None),
    ("rays", "vertical_log_zeta", _heights),
    ("rays", "log_zeta_horizontal", None),
    ("rays", "log_zeta_real_axis", None),
    ("quadrature", "integrate_vec", _nevals_tuple),
    ("quadrature", "gl_panel", None),
    ("quadrature", "poly_log_integral", None),
    ("eta", "eta_tilde_weighted", _nevals_eta),
    ("eta", "eta_tilde_recursive", _nevals_eta),
    ("eta", "eta_vertical", _nevals_eta),
    ("eta", "c_m", None),
    ("eta", "y_m", None),
    ("eta", "y_m_terms", None),
    ("eta", "check_bridge", None),
    ("eta", "growth_check", None),
    ("hunt", "hunt_value", _hunt),
    ("hunt", "kronecker_search", _kronecker),
    ("hunt", "equidistribution_measure", None),
    ("dirichlet", "polylog", None),
    ("dirichlet", "polylog_batch", _polylog_points),
    ("dirichlet", "dirichlet_li_sum", None),
    ("dirichlet", "mangoldt_sum", None),
    ("dirichlet", "li_vs_mangoldt_gap", None),
    ("dirichlet", "mean_square_error", None),
    ("polygon", "polygon_angles", _radii),
    ("polygon", "check_dominance", None),
    ("torus", "construct_theta", _window),
    ("torus", "s_sum", None),
    ("torus", "gamma_m_sigma", None),
    ("torus", "gamma_tail_estimate", None),
    ("torus", "second_moment_s", None),
    ("torus", "first_harmonic_radii", None),
    ("primes", "sieve_primes", _sieved),
)
ETA_ROUTES = ("eta.eta_tilde_weighted", "eta.eta_tilde_recursive",
              "eta.eta_vertical")


def _rebind(orig, replacement) -> None:
    """Replace orig at every iterzeta module attribute that holds it."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "iterzeta"
                               or name.startswith("iterzeta.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)


def instrument(tracer: Tracer) -> None:
    """Wrap every entry point in ENTRY_POINTS, plus the RayBranch walk."""
    import importlib
    importlib.import_module("iterzeta")
    for module, attr, count in ENTRY_POINTS:
        mod = importlib.import_module(f"iterzeta.{module}")
        orig = getattr(mod, attr)
        _rebind(orig, tracer.wrap(orig, f"{module}.{attr}", module, count))

    rays = importlib.import_module("iterzeta.rays")
    base = rays.RayBranch
    # one walk per branch; log_zeta queries are rays work too
    traced = type(base.__name__, (base,), {
        "__init__": tracer.wrap(base.__init__, "rays.RayBranch", "rays",
                                lambda a, k, o: {"walks": 1}),
        "log_zeta": tracer.wrap(base.log_zeta, "rays.RayBranch.log_zeta",
                                "rays"),
    })
    _rebind(base, traced)


# ---- aggregation (client side) -----------------------------------------

def self_times(spans) -> dict:
    """sid -> span duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


LAYERS = ("zetafun", "rays", "quadrature", "eta", "hunt", "dirichlet",
          "polygon", "torus", "primes")


def layer_metrics(spans) -> dict:
    """Per-layer counts and self time over all spans given."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    counts = defaultdict(int)
    calls = defaultdict(int)
    for s in spans:
        m[f"{s.layer}.self_s"] += selfs[s.sid]
        calls[s.name] += 1
        if s.name in ETA_ROUTES and not _has_eta_ancestor(s, by_id):
            counts["eta.requests"] += 1
            counts["eta.nevals"] += (s.counts or {}).get("nevals", 0)
            continue
        for key, val in (s.counts or {}).items():
            counts[f"{s.name}.{key}"] += val

    m["zetafun.calls"] = calls["zetafun.zeta_batch"]
    m["zetafun.points"] = counts["zetafun.zeta_batch.points"]
    m["zetafun.terms"] = counts["zetafun.zeta_batch.terms"]
    m["rays.walks"] = (counts["rays.RayBranch.walks"]
                       + counts["rays.vertical_log_zeta.walks"])
    m["quadrature.calls"] = calls["quadrature.integrate_vec"]
    m["quadrature.nevals"] = counts["quadrature.integrate_vec.nevals"]
    m["eta.requests"] = counts["eta.requests"]
    m["eta.nevals"] = counts["eta.nevals"]
    m["hunt.grid_points"] = counts["hunt.kronecker_search.grid_points"]
    m["hunt.box_hits"] = counts["hunt.kronecker_search.box_hits"]
    m["hunt.evals"] = counts["hunt.hunt_value.evals"]
    witnesses = counts["hunt.hunt_value.witness"]
    m["hunt.evals_per_witness"] = (m["hunt.evals"] / witnesses
                                   if witnesses else 0.0)
    m["dirichlet.polylog_calls"] = calls["dirichlet.polylog_batch"]
    m["dirichlet.polylog_points"] = counts["dirichlet.polylog_batch.points"]
    m["polygon.calls"] = calls["polygon.polygon_angles"]
    m["polygon.radii"] = counts["polygon.polygon_angles.radii"]
    m["torus.window_primes"] = counts["torus.construct_theta.window_primes"]
    m["primes.sieve_calls"] = calls["primes.sieve_primes"]
    m["primes.sieved"] = counts["primes.sieve_primes.sieved"]
    return m


def _has_eta_ancestor(span, by_id) -> bool:
    p = span.parent
    while p is not None:
        anc = by_id.get(p)
        if anc is None:
            return False
        if anc.layer == "eta":
            return True
        p = anc.parent
    return False
