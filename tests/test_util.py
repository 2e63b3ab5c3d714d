import functools
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from camelion.harmonize import DEFAULT_PERCENTILES
from camelion.util import LatestMemo, map_in_order, percentile, worker_count


def test_latest_memo_matches_frozen_arrays_by_identity():
    # only an array that no one can write without unfreezing it first is
    # trusted to keep the bytes its value was made from
    memo = LatestMemo()
    made = []

    def make():
        made.append(1)
        return len(made)

    data = np.arange(4, dtype=np.uint8)
    frozen = data.copy()
    frozen.flags.writeable = False
    view = data[:]
    view.flags.writeable = False  # its base can still be written
    for part in (data, view):
        assert memo.lookup([part], make) != memo.lookup([part], make)
    value = memo.lookup([frozen, 3], make)
    assert memo.lookup([frozen, 3], make) == value
    # an equal copy, another small part or another part count is a new value
    copy = frozen.copy()
    copy.flags.writeable = False
    for parts in ([copy, 3], [frozen, 4], [frozen]):
        memo.lookup([frozen, 3], make)
        assert memo.lookup(parts, make) != memo.lookup([frozen, 3], make)
    held = memo.lookup([frozen, 3], make)
    frozen.flags.writeable = True
    assert memo.lookup([frozen, 3], make) != held


def test_latest_memo_keeps_no_array_alive():
    memo = LatestMemo()
    frozen = np.arange(4, dtype=np.uint8)
    frozen.flags.writeable = False
    ref = weakref.ref(frozen)
    memo.lookup([frozen], object)
    del frozen
    assert ref() is None


def test_latest_set_memo_under_threads():
    # threads alternate between two sets of parts, so every lookup drops
    # the other's value; each must still get the value of its own parts,
    # and no two values may be made at once. Each set's part is one frozen
    # array shared by all threads, so lookups also find the held value.
    memo = LatestMemo()
    arrays = [np.frombuffer(b"a", dtype=np.uint8), np.frombuffer(b"c", dtype=np.uint8)]
    errors = []
    making = []

    def make(j):
        making.append(j)
        if len(making) > 1:
            errors.append(list(making))
        time.sleep(0)  # yield inside the critical section
        making.remove(j)
        return ("value", j)

    def worker(n):
        try:
            for i in range(1000):
                j = (n + i) % 2
                got = memo.lookup([arrays[j]], functools.partial(make, j))
                if got != ("value", j):
                    errors.append(got)
        except Exception as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def started_threads(before):
    """The threads alive now that were not in before."""
    return [t for t in threading.enumerate() if t not in before]


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_map_in_order_keeps_item_order(n, workers):
    # later items finish first, so completion order differs from item order;
    # 4 workers exceed both 1 item and the CPUs of a 2-CPU machine
    def slow_square(i):
        time.sleep(0.002 * (n - i))
        return i * i

    before = threading.enumerate()
    assert map_in_order(slow_square, range(n), workers) == [i * i for i in range(n)]
    assert started_threads(before) == []


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_map_in_order_raises_first_failing_item(workers):
    # item 2 fails after item 4 has failed, yet its error is the one raised,
    # and only once every item has been tried
    tried = []
    errors = {2: ValueError("item 2"), 4: KeyError("item 4")}

    def fn(i):
        tried.append(i)
        if i == 2:
            time.sleep(0.2)
        if i in errors:
            raise errors[i]
        return i

    before = threading.enumerate()
    with pytest.raises(ValueError) as err:
        map_in_order(fn, range(7), workers)
    assert err.value is errors[2]
    assert sorted(tried) == list(range(7))
    assert started_threads(before) == []


@pytest.mark.parametrize("workers,n", [(1, 5), (0, 5), (4, 1)])
def test_map_in_order_starts_no_thread_for_one_worker_or_item(monkeypatch, workers, n):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    caller = threading.current_thread()
    on = []

    def fn(i):
        on.append(threading.current_thread())
        return -i

    assert map_in_order(fn, range(n), workers) == [-i for i in range(n)]
    assert on == [caller] * n


def test_map_in_order_under_threads():
    # more workers than CPUs and a short switch interval: every item is
    # computed exactly once and lands in its own slot
    n = 3000
    calls = []
    got = []

    def fn(i):
        calls.append(i)
        time.sleep(0)  # let another thread take the next item
        return (i, threading.get_ident())

    def caller():
        got.append(map_in_order(fn, range(n), 8))

    before = threading.enumerate()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=caller)
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not thread.is_alive()
    assert sorted(calls) == list(range(n))
    assert [i for i, _ in got[0]] == list(range(n))
    assert len({ident for _, ident in got[0]}) > 1
    assert started_threads(before) == []


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_worker_count_follows_cpu_affinity(monkeypatch):
    # the environment no longer caps the pool; taskset does
    monkeypatch.setenv("CAMELION_THREADS", "1")
    assert worker_count() == len(os.sched_getaffinity(0))


def percentile_inputs(rng):
    """Arrays of several sizes with ties, signed zeros and float32 values."""
    for n in (1, 2, 3, 5, 10, 101, 4096, 43597):
        yield rng.normal(size=n)
        yield rng.integers(-3, 4, size=n).astype(np.float64)
        yield rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
        yield (rng.random(n) * 100).astype(np.float32)


@pytest.mark.parametrize("q", [0.0, 1.0, 12.5, 50.0, 99.0, 100.0, 1e-9, 100 - 1e-12,
                               DEFAULT_PERCENTILES, (0.0, 50.0, 100.0), [99.0]])
def test_percentile_matches_numpy_bit_for_bit(q):
    rng = np.random.default_rng(17)
    for values in percentile_inputs(rng):
        before = values.copy()
        expected = np.percentile(values.astype(np.float64), q)
        got = percentile(values, q)
        assert type(got) is type(expected)
        assert np.shape(got) == np.shape(expected)
        # tobytes tells -0.0 from 0.0
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), (values.size, q)
        assert values.tobytes() == before.tobytes()
