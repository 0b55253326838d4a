"""Seeded request generators for the benchmark workloads.

Standard library only: the client process runs these generators and never
imports numpy or the library.  Every workload is a closed loop with one
client.  Its requests come in blocks.  A block holds one request per
point of a fixed design (a height, a cutoff, a window size, ...), each
jittered by the seed within a narrow band, in a seeded order.  So every
block costs nearly the same, whatever the seed, and a run of B blocks
holds B near-copies of one multiset of request costs: its median and its
tail are fixed ranks of that multiset.

A run's length in blocks is fixed by --seconds and the block's nominal
cost (`Plan.block_s`), not by the clock, so the same run does the same
work on a fast or slow host and on both sides of a comparison.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

WORKLOADS = ("horizontal_points", "vertical_bridge", "prime_pipeline")

# The seed whose requests have stored reference outputs (refs.json).
CHECK_SEED = 0

# eta_vertical(m=3, sigma=0.8) does not return for t >= 180.5.  Every
# vertical_bridge run issues one such row; it is a known defect and counts
# as a failed request until the library is fixed.
DEFECT_M, DEFECT_SIGMA, DEFECT_TS = 3, 0.8, (180.5, 200.5)

# zetafun's desk limit on |Im s|.
T_MAX = 1.0e4


@dataclass
class Plan:
    workload: str
    seed: int
    setup: dict                      # what the worker builds before timing
    blocks: Callable[[], Iterator[list]]   # a fresh endless block stream
    block_s: float     # service seconds of one block on a 2-core Xeon

    def n_blocks(self, seconds: float) -> int:
        """Blocks in a run meant to measure `seconds` of service time."""
        return max(1, round(seconds / self.block_s))


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"iterzeta-bench/{workload}/{seed}/{part}")


def _spread(lo: float, hi: float, k: int) -> list[float]:
    """k evenly spaced points, lo and hi included."""
    return [lo + i * (hi - lo) / (k - 1) for i in range(k)]


def _near(rng: random.Random, centre: float, half_width: float) -> float:
    return rng.uniform(centre - half_width, centre + half_width)


# ---- horizontal_points --------------------------------------------------

# log10 t of the 8 eta~ requests of a block, spread over (0, 1e4]; the
# top point sits one jitter below 1e4, so the tallest request reaches
# zetafun's desk limit and never passes it
LOG_T_JITTER = 0.01
ETA_LOG_T = _spread(-1.0, math.log10(T_MAX) - LOG_T_JITTER, 8)
# sigma over [0.5, 2] and m in {1, 2, 3}, paired with the heights by
# fixed sequences so that every block pairs them alike
ETA_SIGMA = [0.55 + 1.4 * ((k * 0.6180339887) % 1.0) for k in range(8)]
ETA_M = [1 + k % 3 for k in range(8)]
SIGMA_JITTER = 0.02
XCHECK_POINT = 4             # t ~ 71, m = 2: cross-checked every block
# (m, sigma, t0) of the self-referential hunt targets a = eta~_m(sigma + i t0);
# every block hunts each of them once, jittered afresh
HUNT_POOL = ((1, 0.6, 30.0), (2, 0.7, 70.0), (3, 0.8, 110.0),
             (1, 0.9, 150.0), (2, 0.65, 190.0), (3, 0.85, 230.0))
HUNT_JITTER = 0.01
HUNT_EPS = 0.1
# m of the hunts for unreachable targets in a block.  With them, hunts
# are 11 of a block's 19 requests.  Each hunt spends its evaluation
# budget on eta~ at t <= 240 (0.12-0.3 s); six eta~ requests take
# milliseconds, one about as long as the fastest hunts and one several
# times longer, so the run's median lies a third of the way into the
# hunts' cluster, not at its foot, where it would rest on the few
# fastest hunts of the run.
UNREACHABLE_M = (1, 2, 3, 1, 3)


def _horizontal(seed: int) -> Plan:
    def blocks():
        rng = _rng("horizontal_points", seed, "blocks")
        while True:
            block = [{"op": "eta", "m": m,
                      "sigma": _near(rng, sg, SIGMA_JITTER),
                      "t": 10.0 ** _near(rng, lt, LOG_T_JITTER),
                      "xcheck": k == XCHECK_POINT}
                     for k, (lt, sg, m) in enumerate(zip(ETA_LOG_T, ETA_SIGMA,
                                                         ETA_M))]
            # the worker turns (m, sigma, t0) into the target before the
            # clock starts
            block += [{"op": "hunt", "m": m,
                       "sigma": _near(rng, sg, HUNT_JITTER),
                       "t0": t0 * _near(rng, 1.0, HUNT_JITTER),
                       "eps": HUNT_EPS} for m, sg, t0 in HUNT_POOL]
            # out of reach: |eta~| stays far below 6 for sigma >= 0.6
            block += [{"op": "hunt", "m": m, "sigma": rng.uniform(0.6, 0.95),
                       "a": _polar(rng.uniform(6.0, 8.0),
                                   rng.uniform(0.0, 2.0 * math.pi)),
                       "eps": HUNT_EPS} for m in UNREACHABLE_M]
            rng.shuffle(block)
            yield block

    return Plan("horizontal_points", seed, {}, blocks, 3.4)


# ---- vertical_bridge ----------------------------------------------------

LINE_SIGMAS = (0.75, 0.8, 0.85)
LINE_SIGMA_JITTER = 0.01
# each line is swept over t0 + k * LINE_STEP, k < ROWS_PER_LINE, like an
# `iterzeta eval` grid; t stays between the zero ordinates 21.02 and
# 25.01, so every row integrates past the same zeros and costs about the
# same
LINE_T0, LINE_T_JITTER, LINE_STEP = 21.4, 0.2, 0.5
ROWS_PER_LINE = 5


def _vertical(seed: int) -> Plan:
    def blocks():
        rng = _rng("vertical_bridge", seed, "blocks")
        first = True
        while True:
            lines = list(zip((1, 2, 3), LINE_SIGMAS))
            rng.shuffle(lines)
            block = []
            for m, sg in lines:
                sigma = _near(rng, sg, LINE_SIGMA_JITTER)
                t0 = _near(rng, LINE_T0, LINE_T_JITTER)
                block += [{"op": "row", "m": m, "sigma": sigma,
                           "t": t0 + i * LINE_STEP}
                          for i in range(ROWS_PER_LINE)]
            if first:
                block.append({"op": "row", "m": DEFECT_M,
                              "sigma": DEFECT_SIGMA,
                              "t": rng.choice(DEFECT_TS),
                              "known_defect": True})
                first = False
            yield block

    return Plan("vertical_bridge", seed, {}, blocks, 4.5)


# ---- prime_pipeline -----------------------------------------------------

SIEVE_LIMIT = 40_000_000
SWEEP_SIEVE = 100_000
# (m, sigma, T, step) of the eta~ grids the sweeps reuse; warmed in set-up
SWEEP_GRIDS = ((1, 0.8, 30.0, 0.25), (2, 0.65, 30.0, 0.25))
# (sigma, epsilon) of the construction specs, sigma in [0.6, 0.95] and
# epsilon in [0.01, 0.1]
SPECS = ((0.65, 0.02), (0.8, 0.05), (0.92, 0.08))
SPEC_JITTER = 0.01
# (log10 window size, spec) of the constructions: ~1e3 to ~1.3e6 primes
WINDOWS = ((3.0, 0), (4.0, 1), (5.0, 2), (6.08, 1))
WINDOW_JITTER = 0.005
REFUSED_SPEC = 2
# (log10 X, grid) of the sweeps, X in [3, 1e5]
SWEEPS = ((0.6, 0), (2.0, 1), (3.5, 0), (4.98, 1))
LOG_JITTER = 0.02


def _prime(seed: int) -> Plan:
    spec_rng = _rng("prime_pipeline", seed, "specs")
    # (sigma, epsilon) pairs; set-up turns each into a window-size scale
    specs = [{"sigma": _near(spec_rng, sg, SPEC_JITTER),
              "eps": _near(spec_rng, eps, eps * SPEC_JITTER)}
             for sg, eps in SPECS]
    setup = {"sieve": SIEVE_LIMIT, "sweep_sieve": SWEEP_SIEVE,
             "grids": [list(g) for g in SWEEP_GRIDS], "specs": specs}

    def blocks():
        rng = _rng("prime_pipeline", seed, "blocks")
        while True:
            block = [{"op": "construct", "spec": spec,
                      "window": round(10.0 ** _near(rng, ln, WINDOW_JITTER)),
                      "phi": rng.uniform(0.0, 2.0 * math.pi)}
                     for ln, spec in WINDOWS]
            # a target past the whole window: WindowExhausted
            block.append({"op": "construct", "spec": REFUSED_SPEC,
                          "window": None, "phi": rng.uniform(0, 2 * math.pi)})
            block += [{"op": "sweep", "grid": grid,
                       "X": min(10.0 ** _near(rng, lx, LOG_JITTER), 1e5)}
                      for lx, grid in SWEEPS]
            rng.shuffle(block)
            yield block

    return Plan("prime_pipeline", seed, setup, blocks, 2.4)


def _polar(r: float, phi: float) -> list:
    return [r * math.cos(phi), r * math.sin(phi)]


def make_plan(workload: str, seed: int) -> Plan:
    makers = {"horizontal_points": _horizontal, "vertical_bridge": _vertical,
              "prime_pipeline": _prime}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return makers[workload](int(seed))
