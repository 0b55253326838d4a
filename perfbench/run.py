"""iterzeta benchmark: one closed-loop client against one worker process.

    python3 perfbench/run.py --workload horizontal_points --seed 1 \\
        --seconds 16 --trace 0

Run from the repository root; the library is imported from ./src.  With
--trace 0 the last stdout line is a JSON object carrying the end-to-end
metrics; with --trace 1 it carries the per-layer metrics, the tracing
overhead and the failed and refused shares.  The lines before it record
the environment and every metric by name and unit, including the failed
and refused shares.  The exit code is 1 when an output check fails, 2
when the benchmark cannot run at all.
See perfbench/README.md for the workloads, the metrics and what each
layer metric is predicted to move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from supervisor import SetupError, Worker, stop_resource_tracker  # noqa
from tracing import layer_metrics                  # noqa: E402
from workloads import WORKLOADS, make_plan         # noqa: E402
from worker import FAILED, OK, REFUSED, WRONG, serve   # noqa: E402

# Per-request deadline.  The slowest healthy request any workload here
# issues takes under 2 s on a 2-core Xeon; the slowest healthy
# `iterzeta eval` row measured on that box (m=2, t=230.5) took 25.7 s.
# 30 s clears both, so only a request that has stopped making progress,
# such as the known eta_vertical(m=3, t>=180.5) defect, is killed.
DEADLINE_S = 30.0
AS_CAP_BYTES = 2 << 30        # address-space cap of the worker process
SETUPS = 3                    # setup_s is the median of this many set-ups
# Set in the environment every worker is spawned with.  BLAS runs one
# thread.  glibc's malloc raises its mmap threshold to the size of each
# larger mmapped block it frees (up to 32 MiB), so how much freed heap
# stays resident would depend on the seed's request order.  The
# threshold is fixed at that ceiling instead, and the heap keeps at most
# 16 MiB free at its top (perfbench/README.md, "Allocator state").
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1",
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TOP_PAD_": str(16 << 20)}


def _worker(workload, setup, trace):
    return Worker(serve, (workload, setup, trace, str(ROOT / "src"),
                          str(BENCH_DIR), AS_CAP_BYTES), DEADLINE_S)


def timed_loop(worker, blocks, n_blocks: int, on_reply=None) -> list:
    """Closed loop, one client: the first `n_blocks` blocks, one request at
    a time.  Returns (request, reply) pairs."""
    records = []
    for block in itertools.islice(blocks, n_blocks):
        for req in block:
            reply = worker.call(len(records), req)
            records.append((req, reply))
            if on_reply:
                on_reply(reply)
    return records


def tally(records) -> dict:
    n = len(records)
    by = {s: sum(1 for _, r in records if r["status"] == s)
          for s in (OK, REFUSED, FAILED, WRONG)}
    return {"attempted": n, "completed": by[OK] + by[REFUSED],
            "refused": by[REFUSED], "failed": by[FAILED] + by[WRONG],
            "wrong": by[WRONG]}


def tail_latency(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that still has
    at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


def _env(seed, workload, info) -> list[str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return [f"# workload={workload} seed={seed}",
            f"# nproc={os.cpu_count()} cpu={cpu!r}",
            f"# python={info['python']} numpy={info['numpy']} "
            f"scipy={info['scipy']} blas_threads={info['blas_threads']}",
            f"# client=1 closed loop; worker processes=1 at a time; "
            f"deadline={DEADLINE_S:g}s as_cap={AS_CAP_BYTES >> 20}MiB",
            "# worker malloc: " + " ".join(
                f"{k}={v}" for k, v in WORKER_ENV.items() if "MALLOC" in k),
            f"# caches at timing start: {info['caches']}"]


def _shares(t) -> list[str]:
    return [f"{name}_share {t[name] / t['attempted']:.6f} 1 "
            f"({t[name]}/{t['attempted']})" for name in ("failed", "refused")]


def _result(t, metrics) -> dict:
    return {"attempted": t["attempted"], "failed": t["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def _problems(records) -> list[str]:
    return [f"# {r['status']} request {i} {req}: {r.get('detail', '')}"
            for i, (req, r) in enumerate(records)
            if r["status"] in (FAILED, WRONG)]


def run_plain(plan, refs, seconds) -> tuple[dict, list[str], bool]:
    setups, caches = [], []

    def fresh():
        w = _worker(plan.workload, plan.setup, False)
        setup_s, info = w.start()
        setups.append(setup_s)
        caches.append(info["caches"])
        return w, info

    # Set-ups before and after the timed phase: the host's speed drifts
    # over tens of seconds, and their median then spans the whole run.
    for _ in range(SETUPS // 2):
        fresh()[0].stop()
    w, info = fresh()
    try:
        rss = [info["rss_kb"]]
        records = timed_loop(w, plan.blocks(), plan.n_blocks(seconds),
                             lambda r: rss.append(r.get("rss_kb", 0)))
        ref = w.call("refcheck", {"op": "refcheck", "refs": refs})
    finally:
        w.stop()
    while len(setups) < SETUPS:
        fresh()[0].stop()
    if any(c != caches[0] for c in caches):
        raise SetupError(f"set-ups left different cache states: {caches}")

    t = tally(records)
    lat = [r["latency"] for _, r in records]
    answered_s = sum(r["latency"] for _, r in records
                     if r["status"] in (OK, REFUSED))
    lost = [r["latency"] + r.get("restart_s", 0.0) for _, r in records
            if r["status"] == FAILED]
    tail, pct, n = tail_latency(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "req_p50_s": (statistics.median(lat), "s"),
        "req_tail_s": (tail, "s"),
        "throughput_rps": (t["completed"] / answered_s, "1/s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }
    lines = _env(plan.seed, plan.workload, info) + [
        f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"# {plan.n_blocks(seconds)} blocks of {plan.block_s:g} s nominal; "
        f"req_tail_s is p{pct:.1f} of {n} requests",
        f"# timed phase: {answered_s:.3f} s answering {t['completed']} "
        f"requests; {sum(lost):.3f} s lost to {len(lost)} failed requests "
        f"and restarts; attempted {t['attempted']}",
    ] + _shares(t) + [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines += _problems(records)
    correct = t["wrong"] == 0 and ref["status"] == OK
    if ref["status"] != OK:
        lines.append(f"# reference check: {ref['status']}: "
                     f"{ref.get('detail', '')}")
    return _result(t, metrics), lines, correct


def run_traced(plan, refs, seconds) -> tuple[dict, list[str], bool]:
    spans = []

    def keep(reply):
        spans.extend(reply["spans"])
        spans.extend(reply.get("restart_info", {}).get("spans", []))

    w = _worker(plan.workload, plan.setup, True)
    try:
        _, info = w.start()
        spans.extend(info["spans"])
        records = timed_loop(w, plan.blocks(), plan.n_blocks(seconds), keep)
    finally:
        w.stop()

    # the same answered requests again, untraced, in a fresh worker
    done = [(req, r) for req, r in records if r["status"] in (OK, REFUSED)]
    u = _worker(plan.workload, plan.setup, False)
    try:
        u.start()
        replay = [u.call(i, req) for i, (req, _) in enumerate(done)]
        ref = u.call("refcheck", {"op": "refcheck", "refs": refs})
    finally:
        u.stop()
    traced_s = sum(r["latency"] for _, r in done)
    untraced_s = sum(r["latency"] for r in replay)

    metrics = {k: (v, "s" if k.endswith("_s") else "count")
               for k, v in layer_metrics(
                   [s for s in spans if s.rid != "check"]).items()}
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    t = tally(records)
    metrics["failed_share"] = (t["failed"] / t["attempted"], "1")
    metrics["refused_share"] = (t["refused"] / t["attempted"], "1")
    _write_spans(spans, plan)

    lines = _env(plan.seed, plan.workload, info) + [
        f"# traced {len(done)} answered requests: {traced_s:.3f} s traced, "
        f"{untraced_s:.3f} s untraced, overhead "
        f"{traced_s - untraced_s:+.3f} s "
        f"({100.0 * (traced_s - untraced_s) / untraced_s:+.1f}% of "
        f"untraced); {len(spans)} spans",
    ] + [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines += _problems(records)
    correct = (t["wrong"] == 0 and ref["status"] == OK
               and all(r["status"] != WRONG for r in replay))
    return _result(t, metrics), lines, correct


def _write_spans(spans, plan) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{plan.workload}-seed{plan.seed}.jsonl"
    with open(path, "w", encoding="ascii") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.sid, "parent": s.parent,
                                 "name": s.name, "layer": s.layer,
                                 "start": s.start, "end": s.end,
                                 "request": s.rid, "counts": s.counts})
                     + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "iterzeta" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # set before any worker starts; workers inherit the environment
    os.environ.update(WORKER_ENV)
    with open(BENCH_DIR / "refs.json", encoding="ascii") as fh:
        refs = json.load(fh)[args.workload]

    plan = make_plan(args.workload, args.seed)
    run = run_traced if args.trace else run_plain
    t0 = time.perf_counter()
    try:
        result, lines, correct = run(plan, refs, args.seconds)
    except SetupError as exc:
        print(f"worker set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_resource_tracker()
    lines.append(f"# wall {time.perf_counter() - t0:.1f} s")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, **result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
