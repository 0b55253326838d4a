import sys
import threading

import pytest

from iterzeta import blocks
from iterzeta.blocks import map_blocks


@pytest.fixture(params=[1, 4], ids=["inline", "pool"])
def cpus(request, monkeypatch):
    # one CPU runs inline; four run on the pool whatever the host has
    monkeypatch.setattr(blocks, "_cpus", lambda: request.param)
    return request.param


def test_results_come_back_in_block_order(cpus):
    starts = range(0, 1000, 7)
    assert map_blocks(lambda lo: (lo, lo * lo), starts) == [
        (lo, lo * lo) for lo in starts]
    assert map_blocks(lambda lo: lo, []) == []
    assert map_blocks(lambda lo: -lo, [5]) == [-5]


def test_one_block_or_one_cpu_runs_inline(monkeypatch):
    caller = threading.current_thread()
    ran = []

    def where(lo):
        ran.append(threading.current_thread() is caller)

    monkeypatch.setattr(blocks, "_cpus", lambda: 4)
    map_blocks(where, [0])
    monkeypatch.setattr(blocks, "_cpus", lambda: 1)
    map_blocks(where, range(8))
    assert ran == [True] * 9


class Boom(Exception):
    pass


def test_the_first_failing_block_raises_and_the_next_call_works(cpus):
    # blocks 3 and 5 raise: the exception is block 3's, as inline, and
    # every block before it ran; the pool serves the next call
    ran = set()

    def block(lo):
        if lo in (3, 5):
            raise Boom(lo)
        ran.add(lo)
        return lo

    with pytest.raises(Boom) as exc:
        map_blocks(block, range(40))
    assert exc.value.args == (3,)
    assert {0, 1, 2} <= ran
    assert map_blocks(lambda lo: 2 * lo, range(40)) == list(range(0, 80, 2))


def test_concurrent_callers_keep_their_own_results(monkeypatch):
    # eight threads share a pool of four workers, switching often: each
    # gets its own results, in its own block order, in bounded time
    monkeypatch.setattr(blocks, "_cpus", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    out = {}
    try:
        def caller(k):
            out[k] = [map_blocks(lambda lo: (k, lo), range(50))
                      for _ in range(20)]

        threads = [threading.Thread(target=caller, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for k in range(8):
        assert out[k] == [[(k, lo) for lo in range(50)]] * 20
