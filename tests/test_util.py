import os
import sys
import threading
import time

import numpy as np
import pytest

from camelion import util
from camelion.util import LatestMemo, content_key, worker_count
from camelion.volumes import VolumeHeader


def test_content_key_separates_parts():
    a = np.arange(6, dtype=np.uint8)
    assert content_key(a) == content_key(a.copy())
    assert content_key(a) != content_key(a.reshape(2, 3))
    assert content_key(a) != content_key(a.astype(np.int16))
    assert content_key(a[:3], a[3:]) != content_key(a[:2], a[2:])
    assert content_key(VolumeHeader((2, 3, 1))) != content_key(VolumeHeader((2, 3, 1), (1, 1, 2)))


def test_latest_memo_hashes_a_writeable_array_every_time(monkeypatch):
    # only an array that no one can write without unfreezing it first is
    # trusted to keep the bytes it was hashed with
    calls = []
    monkeypatch.setattr(util, "content_key", lambda *parts: calls.append(1) or content_key(*parts))
    memo = LatestMemo()
    data = np.arange(4, dtype=np.uint8)
    frozen = data.copy()
    frozen.flags.writeable = False
    view = data[:]
    view.flags.writeable = False  # its base can still be written
    for part in (data, frozen, view):
        del calls[:]
        for _ in range(2):
            assert memo.lookup([part], lambda key: key)[0] == content_key(part)
        assert calls == ([1] if part is frozen else [1, 1])
    del calls[:]
    memo.lookup([frozen], lambda key: key)
    memo.lookup([frozen], lambda key: key)
    frozen.flags.writeable = True
    memo.lookup([frozen], lambda key: key)
    assert calls == [1, 1]


def test_latest_set_memo_under_threads():
    # threads alternate between two keys, so every lookup evicts the other
    # key's value; each must still get the value and key of its own parts,
    # and no two values may be computed at once. Each key's part is one
    # frozen array shared by all threads, so lookups also take the path that
    # skips hashing.
    memo = LatestMemo()
    arrays = [np.frombuffer(b"a", dtype=np.uint8), np.frombuffer(b"c", dtype=np.uint8)]
    keys = [content_key(a) for a in arrays]
    errors = []
    computing = []

    def compute(key):
        computing.append(key)
        if len(computing) > 1:
            errors.append(list(computing))
        time.sleep(0)  # yield inside the critical section
        computing.remove(key)
        return key * 2

    def worker(n):
        try:
            for i in range(1000):
                j = (n + i) % 2
                got = memo.lookup([arrays[j]], compute)
                if got != (keys[j], keys[j] * 2):
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
