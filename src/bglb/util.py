"""Shared helpers: bitmask faces, small combinatorics, worker pool."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from typing import Callable, Iterable, Sequence

THREADS_ENV = "BGLB_THREADS"


def mask_of(vertices: Iterable[int]) -> int:
    """Pack 1-based vertex labels into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def verts_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of 1-based vertex labels."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def submasks(mask: int):
    """All submasks of `mask`, the full mask first, empty mask last."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def subsets(items: Sequence) -> list[tuple]:
    """Every subset of `items` as a tuple, ordered by size then lex."""
    items = sorted(items)
    out = []
    for k in range(len(items) + 1):
        out.extend(combinations(items, k))
    return out


def weak_compositions(total: int, parts: int):
    """Ordered tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def thread_count() -> int:
    """Worker cap, taken from BGLB_THREADS when set."""
    raw = os.environ.get(THREADS_ENV, "")
    if raw.strip():
        try:
            k = int(raw)
        except ValueError:
            k = 1
        return max(1, k)
    return min(os.cpu_count() or 1, 8)


def parallel_map(fn: Callable, items: Sequence) -> list:
    """Map preserving input order; uses a thread pool when allowed."""
    items = list(items)
    workers = thread_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
