"""Tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench
"""

import time

import pytest

from run import tally, tail_latency, timed_loop
from supervisor import Worker
from tracing import Span, layer_metrics, self_times
from workloads import WORKLOADS, make_plan


def _first_blocks(plan, n=3):
    it = plan.blocks()
    return [next(it) for _ in range(n)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a, b, c = (make_plan(workload, 7), make_plan(workload, 7),
               make_plan(workload, 8))
    assert a.setup == b.setup
    assert _first_blocks(a) == _first_blocks(b)
    # a fresh stream from the same plan starts over
    assert _first_blocks(a) == _first_blocks(b)
    assert _first_blocks(a) != _first_blocks(c)


def test_vertical_bridge_keeps_the_known_defect_row():
    for seed in (0, 1, 2):
        block = next(make_plan("vertical_bridge", seed).blocks())
        defect = [r for r in block if r.get("known_defect")]
        assert len(defect) == 1
        assert defect[0]["m"] == 3 and defect[0]["t"] >= 180.5


def _span(sid, parent, start, end, layer="x"):
    return Span(sid, parent, f"{layer}.f{sid}", layer, start, end, 0, None)


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, None, 0.0, 10.0, "eta"),
        _span(1, 0, 1.0, 4.0, "rays"),
        _span(2, 1, 2.0, 3.0, "zetafun"),
        _span(3, 0, 5.0, 7.0, "zetafun"),
        # overlapping children of one parent count their union
        _span(4, None, 20.0, 30.0, "quadrature"),
        _span(5, 4, 21.0, 25.0, "zetafun"),
        _span(6, 4, 23.0, 27.0, "zetafun"),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(2.0)
    assert st[4] == pytest.approx(10.0 - 6.0)
    m = layer_metrics(spans)
    assert m["eta.self_s"] == pytest.approx(5.0)
    assert m["rays.self_s"] == pytest.approx(2.0)
    assert m["zetafun.self_s"] == pytest.approx(1.0 + 2.0 + 4.0 + 4.0)
    assert m["quadrature.self_s"] == pytest.approx(4.0)
    # in a properly nested tree, self times add up to the root's duration
    assert sum(st[i] for i in range(4)) == pytest.approx(10.0)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct, n = tail_latency([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40)
    assert pct == pytest.approx(75.0)


def stall_target(conn, incarnation):
    """A worker whose "stall" request never answers in time."""
    conn.send(("ready", {}))
    while True:
        msg = conn.recv()
        if msg[0] == "stop":
            return
        if msg[2]["op"] == "stall":
            time.sleep(60.0)
        conn.send(("reply", {"status": "ok", "latency": 0.001,
                             "incarnation": incarnation}))


def test_deadline_kill_counts_as_failed_and_restarts():
    w = Worker(stall_target, (), deadline_s=0.5)
    w.start()
    try:
        records = timed_loop(w, iter([[{"op": "stall"}, {"op": "echo"}]]),
                             n_blocks=1)
    finally:
        w.stop()
    (_, killed), (_, after) = records
    assert killed["status"] == "failed" and "deadline" in killed["detail"]
    assert 0.5 <= killed["latency"] < 5.0
    assert after["status"] == "ok" and after["incarnation"] == 1
    t = tally(records)
    assert (t["attempted"], t["failed"], t["completed"]) == (2, 1, 1)
