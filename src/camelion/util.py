"""Small runtime helpers."""

from __future__ import annotations

import os
import threading
import weakref

import numpy as np


def worker_count() -> int:
    """Worker cap for parallel sections: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_in_order(fn, items, workers: int) -> list:
    """[fn(item) for item in items], computed on the calling thread and at
    most workers - 1 started threads, each taking the next item from a
    shared counter.

    Every item is tried. Once every started thread has ended, the error of
    the first failing item in item order is raised. With workers <= 1, or
    at most one item, no thread starts. An interrupt in the calling thread
    propagates once the started threads end.
    """
    items = list(items)
    results = [None] * len(items)
    errors = {}
    pending = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                errors[i] = exc

    started = []
    try:
        for _ in range(min(workers, len(items)) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            started.append(thread)
        work()
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def percentile(values, q):
    """np.percentile(values, q) with its default linear method, bit for bit,
    for a non-empty array of values without NaN, q a scalar or a 1-D
    sequence in [0, 100]: a float64 for a scalar q, else an array.

    numpy's steps, without the np.unique call whose first use imports
    numpy.ma: the virtual index (n - 1) q / 100; one partition of a float64
    copy of the values on the sorted set of 0, -1 (the last index) and
    every floor and floor + 1 of a virtual index, both -1 where it reaches
    n - 1; and numpy's lerp between the two neighbours, taken from the
    upper one when the weight t is at least 0.5.
    """
    arr = np.array(values, dtype=np.float64).reshape(-1)
    n = arr.size
    virtual = (n - 1) * (np.array(q, dtype=np.float64, ndmin=1) / 100)
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1
    below[last] = -1
    above[last] = -1
    below = below.astype(np.intp)
    above = above.astype(np.intp)
    arr.partition(sorted({0, -1, *below.tolist(), *above.tolist()}))
    lo, hi = arr[below], arr[above]
    t = virtual - below
    diff = hi - lo
    out = lo + diff * t
    np.subtract(hi, diff * (1 - t), out=out, where=t >= 0.5)
    return out if np.ndim(q) else out[0]


def derived_seed(*parts: int) -> int:
    """Collapse a tuple of non-negative integers into one stable 64-bit seed."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


class LatestMemo:
    """The value made for the parts of the latest lookup, found again by
    the identity of its arrays.

    A lookup names its value by a sequence of parts. It matches the held
    value when every part matches the last lookup's: an array by being
    the same object and frozen, anything else by equality. Otherwise it
    drops the held value, then makes a new one, so the process never holds
    two values at once. An array that was not frozen at its lookup matches
    nothing later, so a lookup that names one always makes a new value.
    The memo keeps a weak reference to each array, so it keeps none alive.

    lock is reentrant and held through every lookup. A caller that fills
    the held value in place holds it too, so that no two fills run at once.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self._value = None
        self._parts: tuple = ()

    def lookup(self, parts, make):
        """The held value if parts match the last lookup's, else make()."""
        with self.lock:
            if self._value is None or not self._same_parts(parts):
                self._value = None
                self._parts = ()
                self._value = make()
                self._parts = tuple(_remembered(part) for part in parts)
            return self._value

    def _same_parts(self, parts) -> bool:
        if len(parts) != len(self._parts):
            return False
        for part, held in zip(parts, self._parts):
            if isinstance(part, np.ndarray):
                if not (isinstance(held, weakref.ref) and held() is part and frozen(part)):
                    return False
            elif held != part:
                return False
        return True


def _remembered(part):
    """What a memo keeps of one part: a weak reference to a frozen array,
    None for any other array (it matches nothing), and anything else
    itself."""
    if isinstance(part, np.ndarray):
        return weakref.ref(part) if frozen(part) else None
    return part


def frozen(arr: np.ndarray) -> bool:
    """Whether no one can write arr's bytes without first making it writeable
    again: arr and every array it views are read-only, down to memory that
    arr owns or an immutable bytes object."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None or isinstance(arr, bytes)
