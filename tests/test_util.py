import sys
import threading
import time

import numpy as np

from camelion.util import LatestSetMemo, content_key
from camelion.volumes import VolumeHeader


def test_content_key_separates_parts():
    a = np.arange(6, dtype=np.uint8)
    assert content_key(a) == content_key(a.copy())
    assert content_key(a) != content_key(a.reshape(2, 3))
    assert content_key(a) != content_key(a.astype(np.int16))
    assert content_key(a[:3], a[3:]) != content_key(a[:2], a[2:])
    assert content_key(VolumeHeader((2, 3, 1))) != content_key(VolumeHeader((2, 3, 1), (1, 1, 2)))


def test_latest_set_memo_under_threads():
    # threads alternate between two key sets, so every lookup evicts the
    # other set; each must still get the values of its own keys
    memo = LatestSetMemo()
    sets = [[b"a", b"b"], [b"c"]]
    errors = []

    def compute(keys, j):
        time.sleep(0)  # yield inside the critical section
        return keys[j] * 2

    def worker(n):
        try:
            for i in range(1000):
                keys = sets[(n + i) % 2]
                got = memo.lookup(keys, lambda j, keys=keys: compute(keys, j))
                if got != [k * 2 for k in keys]:
                    errors.append(got)
        except Exception as exc:  # a lost update surfaces as KeyError
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
