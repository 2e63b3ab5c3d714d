import os
import sys
import threading
import time

import numpy as np
import pytest

from camelion.util import LatestMemo, content_key, worker_count
from camelion.volumes import VolumeHeader


def test_content_key_separates_parts():
    a = np.arange(6, dtype=np.uint8)
    assert content_key(a) == content_key(a.copy())
    assert content_key(a) != content_key(a.reshape(2, 3))
    assert content_key(a) != content_key(a.astype(np.int16))
    assert content_key(a[:3], a[3:]) != content_key(a[:2], a[2:])
    assert content_key(VolumeHeader((2, 3, 1))) != content_key(VolumeHeader((2, 3, 1), (1, 1, 2)))


def test_latest_set_memo_under_threads():
    # threads alternate between two keys, so every lookup evicts the other
    # key's value; each must still get the value of its own key, and no two
    # values may be computed at once
    memo = LatestMemo()
    keys = [b"a", b"c"]
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
                key = keys[(n + i) % 2]
                got = memo.lookup(key, lambda key=key: compute(key))
                if got != key * 2:
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
