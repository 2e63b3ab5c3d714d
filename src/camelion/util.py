"""Small runtime helpers."""

from __future__ import annotations

import hashlib
import os
import threading

import numpy as np


def worker_count() -> int:
    """Worker cap for parallel sections: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def derived_seed(*parts: int) -> int:
    """Collapse a tuple of non-negative integers into one stable 64-bit seed."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


def content_key(*parts) -> bytes:
    """blake2b digest of arrays (dtype, shape and C-order bytes) and of the
    repr of anything else: headers, frozen config dataclasses, numbers.

    Every part is length-prefixed, so different part sequences cannot
    produce the same byte stream.
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            # hashed in place through the buffer protocol, without a copy
            blob = np.ascontiguousarray(part).reshape(-1).view(np.uint8)
            meta = f"{part.dtype.str}{part.shape}".encode()
        else:
            blob = b""
            meta = repr(part).encode()
        for chunk in (meta, blob):
            digest.update(len(chunk).to_bytes(8, "little"))
            digest.update(chunk)
    return digest.digest()


class LatestMemo:
    """The value of the most recent key looked up.

    A lookup of another key first drops the held value, then computes the
    new one, so the process never holds two values at once. The held value
    is shared between callers and must be immutable.
    """

    def __init__(self):
        self._key: bytes | None = None
        self._value = None
        self._lock = threading.Lock()

    def lookup(self, key: bytes, compute):
        """The value for key, calling compute() unless key is held."""
        with self._lock:
            if key != self._key:
                self._key = self._value = None
                self._value = compute()
                self._key = key
            return self._value
