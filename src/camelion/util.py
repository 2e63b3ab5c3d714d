"""Small runtime helpers."""

from __future__ import annotations

import hashlib
import os
import threading

import numpy as np

THREADS_ENV = "CAMELION_THREADS"


def worker_count() -> int:
    """Worker cap for parallel sections: CAMELION_THREADS or the CPU count."""
    raw = os.environ.get(THREADS_ENV)
    if raw:
        try:
            n = int(raw)
        except ValueError:
            n = 0
        if n >= 1:
            return n
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


class LatestSetMemo:
    """Content-keyed results of the most recent set of keys looked up.

    Each lookup first drops every entry whose key is not in the new set,
    then computes the misses, so the process never holds two sets at once.
    Cached values are shared between callers and must be immutable.
    """

    def __init__(self):
        self._entries: dict[bytes, object] = {}
        self._lock = threading.Lock()

    def lookup(self, keys: list[bytes], compute) -> list:
        """Values for keys, calling compute(i) for each missing keys[i]."""
        with self._lock:
            wanted = set(keys)
            self._entries = {k: v for k, v in self._entries.items() if k in wanted}
            for i, key in enumerate(keys):
                if key not in self._entries:
                    self._entries[key] = compute(i)
            return [self._entries[key] for key in keys]
