"""The worker process: set-up, request handling and output checks.

Runs in a fresh spawned process per worker.  The address-space cap is set
on this process before numpy is imported; BLAS threads are fixed by the
client through the environment it spawns the worker with.  Module-level
imports stay in the standard library, so the client can import this file
to name `serve` as a process target without loading numpy.

Every handler times only the library calls a request consists of.  The
checks that follow (re-evaluation, independent re-summation, reference
comparison) run after the clock stops and never count as latency.
"""

from __future__ import annotations

import cmath
import resource
import sys
import time
import traceback
from collections.abc import Mapping

OK, REFUSED, FAILED, WRONG = "ok", "refused", "failed", "wrong"


class CheckFailed(Exception):
    """A request returned, but its output failed the benchmark's check."""


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _cplx(pair) -> complex:
    return complex(pair[0], pair[1])


class _Service:
    """Common handling: time the call, classify, then check."""

    refusals: tuple = ()
    tracer = None

    def documented(self, req: dict, exc: Exception) -> bool:
        return True

    def handle(self, req: dict) -> dict:
        op = getattr(self, "op_" + req["op"])
        t0 = time.perf_counter()
        try:
            out = op(req)
        except self.refusals as exc:
            status = REFUSED if self.documented(req, exc) else FAILED
            return {"status": status, "latency": time.perf_counter() - t0,
                    "detail": f"{type(exc).__name__}: {exc}"[:200]}
        latency = time.perf_counter() - t0
        status, detail = OK, ""
        if self.tracer:
            self.tracer.rid = "check"     # kept out of the layer metrics
        try:
            refused = getattr(self, "check_" + req["op"])(req, out)
            if refused:
                status, detail = REFUSED, refused
        except CheckFailed as exc:
            status, detail = WRONG, str(exc)[:300]
        return {"status": status, "latency": latency, "detail": detail}


class _Guarded(_Service):
    """BranchObstruction is a documented refusal only in the guard zone:
    within GUARD of an ordinate whose zero lies at or right of sigma."""

    def __init__(self):
        import iterzeta as iz
        from iterzeta.eta import GUARD
        self.iz = iz
        self.tab = iz.bundled_table()
        self.guard = GUARD
        self.refusals = (iz.BranchObstruction,)

    def documented(self, req, exc):
        near = abs(self.tab.gammas - abs(req.get("t", -1.0))) <= self.guard
        return bool((near & (self.tab.betas >= req.get("sigma", 0.0))).any())


class Horizontal(_Guarded):
    """eta~ requests interleaved with hunts."""

    def __init__(self, setup: dict):
        super().__init__()
        # warm-up: the first eta~ fills quadrature.gl_nodes
        self.iz.eta_tilde_weighted(1, 0.8, 30.0, self.tab)

    def op_eta(self, req):
        return self.iz.eta_tilde_weighted(req["m"], req["sigma"], req["t"],
                                          self.tab)

    def check_eta(self, req, ev):
        _check(cmath.isfinite(ev.value) and ev.est_error < 1e-6,
               f"eta~ at {req}: value {ev.value}, est_error {ev.est_error}")
        if req.get("xcheck"):
            rec = self.iz.eta_tilde_recursive(req["m"], req["sigma"],
                                              req["t"], self.tab)
            gap = abs(rec.value - ev.value)
            _check(gap <= rec.est_error + ev.est_error,
                   f"weighted vs recursive at {req}: gap {gap:.3e}")

    def handle(self, req):
        if req["op"] == "hunt" and "t0" in req:
            # a self-referential target, made before the clock starts and
            # kept out of the layer metrics, like the checks
            rid = self.tracer.rid if self.tracer else None
            if self.tracer:
                self.tracer.rid = "check"
            ev = self.iz.eta_tilde_weighted(req["m"], req["sigma"], req["t0"],
                                            self.tab)
            if self.tracer:
                self.tracer.rid = rid
            req = dict(req, a=[ev.value.real, ev.value.imag])
        return super().handle(req)

    def op_hunt(self, req):
        return self.iz.hunt_value(req["m"], req["sigma"], _cplx(req["a"]),
                                  req["eps"], table=self.tab)

    def check_hunt(self, req, res):
        if not res.success:
            return "hunt: " + res.diagnostic[:150]
        ev = self.iz.eta_tilde_weighted(req["m"], req["sigma"], res.t_witness,
                                        self.tab)
        err = abs(ev.value - _cplx(req["a"]))
        _check(err < req["eps"],
               f"hunt witness t={res.t_witness} re-evaluates {err:.3g} "
               f"from the target, epsilon {req['eps']}")
        return None

    def refcheck(self, refs: dict) -> list:
        bad = []
        for req, want in zip(refs["requests"], refs["values"]):
            ev = self.op_eta(req)
            gap = abs(ev.value - _cplx(want["value"]))
            if not gap <= ev.est_error + want["est_error"]:
                bad.append(f"eta~ reference at {req}: off by {gap:.3e}")
        return bad


class Vertical(_Guarded):
    """Rows of `iterzeta eval`: both routes plus the zero sum."""

    def __init__(self, setup: dict):
        super().__init__()

    def op_row(self, req):
        iz, m, sigma, t = self.iz, req["m"], req["sigma"], req["t"]
        et = iz.eta_tilde_weighted(m, sigma, t, self.tab)
        y = iz.y_m(m, sigma, t, self.tab)
        ev = iz.eta_vertical(m, sigma, t, self.tab)
        return et, y, ev

    def check_row(self, req, out):
        et, y, ev = out
        res = abs(ev.value - ((1j ** req["m"]) * et.value + y))
        _check(res <= ev.est_error + et.est_error,
               f"bridge residual {res:.3e} above est_error "
               f"{ev.est_error + et.est_error:.3e} at {req}")

    def refcheck(self, refs: dict) -> list:
        return []


class Prime(_Service):
    """construct_theta on one deep sieve, and mean-square sweeps."""

    def __init__(self, setup: dict):
        import numpy as np
        import iterzeta as iz
        from iterzeta.torus import GAMMA_CUT, first_harmonic_radii
        self.iz = iz
        self.tab = iz.bundled_table()
        self.refusals = (iz.WindowExhausted,)
        self.primes = iz.sieve_primes(setup["sieve"])
        self.sweep_primes = iz.sieve_primes(setup["sweep_sieve"])
        self.grids = [tuple(g) for g in setup["grids"]]
        for grid in range(len(self.grids)):
            self.op_sweep({"grid": grid, "X": 3.0})   # fills the grid cache
        # per spec: reference value gamma and cumulative window radii, so
        # a request can ask for a window of a given number of primes
        self.specs = []
        cut = float(min(GAMMA_CUT, self.primes.limit))
        for spec in setup["specs"]:
            sigma, eps = spec["sigma"], spec["eps"]
            gamma = iz.gamma_m_sigma(1, sigma, cut, self.primes)
            try:
                u = iz.construct_theta(1, sigma, gamma, eps, self.primes).U
            except iz.WindowExhausted:
                rcum = None         # every request on this spec refuses
            else:
                i_u = int(np.searchsorted(self.primes.primes, u,
                                          side="right"))
                rcum = np.cumsum(first_harmonic_radii(
                    1, sigma, self.primes.primes[i_u:]))
            self.specs.append((sigma, eps, gamma, rcum))

    def target(self, req) -> complex:
        sigma, eps, gamma, rcum = self.specs[req["spec"]]
        n = req["window"]
        if rcum is None:
            need = 1.0
        elif n is None:
            need = 1.5 * float(rcum[-1])
        else:
            n = min(max(n, 2), rcum.size)
            # strictly between the (n-1)- and n-prime radius sums
            need = float(rcum[n - 1] - 0.5 * (rcum[n - 1] - rcum[n - 2]))
        return gamma + need * cmath.exp(1j * req["phi"])

    def op_construct(self, req):
        sigma, eps, _, _ = self.specs[req["spec"]]
        return self.iz.construct_theta(1, sigma, req["a"], eps, self.primes)

    def handle(self, req):
        if req["op"] == "construct":
            req = dict(req, a=self.target(req))
        return super().handle(req)

    def check_construct(self, req, res):
        sigma, eps, _, _ = self.specs[req["spec"]]
        pairs = _ArrayAssignment(res.primes, res.theta2.thetas)
        resum = abs(self.iz.s_sum(pairs, sigma, 1) - req["a"])
        _check(resum < eps and res.final_error < eps,
               f"construct {req}: independent re-sum off by {resum:.3g}, "
               f"epsilon {eps:.3g}")

    def op_sweep(self, req):
        m, sigma, T, step = self.grids[req["grid"]]
        return self.iz.mean_square_error(m, sigma, req["X"], T, step, self.tab,
                                         primes=self.sweep_primes)

    def check_sweep(self, req, rep):
        _check(0.0 <= rep.mse < 1.0 and rep.skipped_fraction <= 0.2,
               f"sweep {req}: mse {rep.mse}, skipped {rep.skipped_fraction}")

    def refcheck(self, refs: dict) -> list:
        bad = []
        for req, want in zip(refs["requests"], refs["values"]):
            got = self.op_sweep(req).mse
            if not abs(got - want) <= 1e-6 * abs(want) + 1e-15:
                bad.append(f"mse reference at {req}: {got!r} vs {want!r}")
        return bad


SERVICES = {"horizontal_points": Horizontal, "vertical_bridge": Vertical,
            "prime_pipeline": Prime}


class _ArrayAssignment(Mapping):
    """A prime -> angle mapping over two arrays, for s_sum: the dict from
    ThetaPipelineResult.assignment() would hold a million Python objects
    and raise the worker's peak RSS for the sake of a check."""

    def __init__(self, primes, thetas):
        self._p, self._t = primes, thetas

    def __len__(self):
        return len(self._p)

    def __iter__(self):
        return iter(self._p)

    def __getitem__(self, p):
        i = int(self._p.searchsorted(p))       # primes ascend
        if i < len(self._p) and self._p[i] == p:
            return float(self._t[i])
        raise KeyError(p)

    def values(self):
        return iter(self._t)


def cache_state() -> dict:
    """Sizes of the library's process-global caches."""
    from iterzeta import dirichlet, eta, quadrature
    return {"eta._C_CACHE": len(eta._C_CACHE),
            "dirichlet._ETA_GRID_CACHE": len(dirichlet._ETA_GRID_CACHE),
            "quadrature.gl_nodes": quadrature.gl_nodes.cache_info().currsize}


def blas_threads():
    """Thread count of numpy's OpenBLAS, asked from the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def serve(conn, incarnation: int, workload: str, setup: dict, trace: bool,
          src_dir: str, bench_dir: str, as_cap_bytes: int) -> None:
    """Worker main: set up, say ready, then answer requests until stop."""
    resource.setrlimit(resource.RLIMIT_AS, (as_cap_bytes, as_cap_bytes))
    sys.path[:0] = [src_dir, bench_dir]
    tracer = None
    try:
        import numpy
        import scipy
        if trace:
            from tracing import Tracer, instrument
            # span ids stay unique across worker restarts
            tracer = Tracer(first_id=incarnation * 10 ** 9)
            instrument(tracer)
        service = SERVICES[workload](setup)
        service.tracer = tracer
    except Exception:
        conn.send(("setup_error", traceback.format_exc()))
        return
    info = {"caches": cache_state(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "rss_kb": _rss_kb(),
            "spans": tracer.drain() if tracer else []}
    conn.send(("ready", info))
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg[0] == "stop":
            return
        _, rid, req = msg
        if tracer:
            tracer.rid = rid
        fatal = False
        t0 = time.perf_counter()
        try:
            if req["op"] == "refcheck":
                bad = service.refcheck(req["refs"])
                reply = {"status": WRONG if bad else OK, "latency": 0.0,
                         "detail": "; ".join(bad)[:600]}
            else:
                reply = service.handle(req)
        except MemoryError:
            reply = {"status": FAILED, "latency": time.perf_counter() - t0,
                     "detail": "MemoryError under the address-space cap"}
            fatal = True
        except Exception as exc:
            # an exception the library does not document for this request
            reply = {"status": FAILED, "latency": time.perf_counter() - t0,
                     "detail": f"{type(exc).__name__}: {exc}"[:300]}
        reply["rss_kb"] = _rss_kb()
        reply["spans"] = tracer.drain() if tracer else []
        reply["fatal"] = fatal
        conn.send(("reply", reply))
        if fatal:
            return
