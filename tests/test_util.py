import functools
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from camelion.harmonize import DEFAULT_PERCENTILES
from camelion.util import LatestMemo, percentile, worker_count


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
