"""Regenerate refs.json: reference outputs for the check seed.

    python3 perfbench/make_refs.py

Every run re-evaluates these requests after its timed phase and compares
with the stored values; rerun this only when a change to the library is
meant to change its results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from workloads import CHECK_SEED, make_plan   # noqa: E402
from worker import Horizontal, Prime           # noqa: E402

N_ETA = 8


def main() -> None:
    plan = make_plan("horizontal_points", CHECK_SEED)
    reqs = [r for r in next(plan.blocks()) if r["op"] == "eta"][:N_ETA]
    svc = Horizontal(plan.setup)
    vals = []
    for req in reqs:
        ev = svc.op_eta(req)
        vals.append({"value": [ev.value.real, ev.value.imag],
                     "est_error": ev.est_error})
    refs = {"horizontal_points": {"requests": reqs, "values": vals}}

    plan = make_plan("prime_pipeline", CHECK_SEED)
    reqs = [r for r in next(plan.blocks()) if r["op"] == "sweep"]
    svc = Prime(plan.setup)
    refs["prime_pipeline"] = {"requests": reqs,
                              "values": [svc.op_sweep(r).mse for r in reqs]}
    refs["vertical_bridge"] = {}
    with open(BENCH_DIR / "refs.json", "w", encoding="ascii") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
