"""Vectorized pair-space scans shared by the verifiers.

Every unordered pair {x, y} at distance 1..k is x paired with x ^ d for
some XOR pattern d, counted once at the element whose bit under d's
highest set position is 0 (the smaller of the two).  For each pattern that
is exactly half the space, so a scan is a loop over patterns with a mask
on x.  All accumulation is exact integer arithmetic.

Work is partitioned over contiguous x-ranges; partial sums add exactly
and the first violation is the minimum of chunk minima under the
(x, pattern index) enumeration order, so results are identical for any
worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from .f2linear import TruthTableMap

T = TypeVar("T")


def table_values(table: TruthTableMap) -> np.ndarray:
    return table.values


def chunk_bounds(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, total))
    bounds = [total * i // workers for i in range(workers + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(workers)]


def _run_chunked(
    fn: Callable[[int, int], T], total: int, threads: int
) -> list[T]:
    # more workers than cores buys nothing and a huge --threads would
    # start that many OS threads
    workers = min(threads, os.cpu_count() or 1)
    ranges = chunk_bounds(total, workers)
    if len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


def _masked_xs(lo: int, hi: int, d: int) -> np.ndarray:
    """x in [lo, hi) whose bit at d's top position is 0 (so x < x ^ d)."""
    xs = np.arange(lo, hi, dtype=np.uint64)
    top = np.uint64(d.bit_length() - 1)
    return xs[(xs >> top) & np.uint64(1) == 0]


def bit_sums(
    values: np.ndarray,
    m: int,
    patterns: Sequence[int],
    threads: int = 1,
) -> list[int]:
    """Per-output-bit sums of values[x] ^ values[x ^ d] over all pairs.

    Returns m exact integers indexed by bit position 1..m (leftmost
    first).
    """

    def scan(lo: int, hi: int) -> np.ndarray:
        sums = np.zeros(m, dtype=np.int64)
        for d in patterns:
            xs = _masked_xs(lo, hi, d)
            if xs.size == 0:
                continue
            diffs = values[xs] ^ values[xs ^ np.uint64(d)]
            for b in range(m):
                sums[b] += np.count_nonzero(diffs & np.uint64(1 << b))
        return sums

    total = np.zeros(m, dtype=np.int64)
    for part in _run_chunked(scan, len(values), threads):
        total += part
    # integer bit b holds word index m - b
    return [int(total[m - i]) for i in range(1, m + 1)]


def first_distance_violation(
    values: np.ndarray,
    m: int,
    patterns: Sequence[int],
    threads: int = 1,
) -> tuple[int, int, int] | None:
    """First pair (by x, then pattern order) whose output distance is not
    m/2. Returns (x, d, output_distance) or None."""

    def scan(lo: int, hi: int) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None
        for d_idx, d in enumerate(patterns):
            xs = _masked_xs(lo, hi, d)
            if xs.size == 0:
                continue
            diffs = values[xs] ^ values[xs ^ np.uint64(d)]
            dist2 = np.bitwise_count(diffs).astype(np.int64) * 2
            bad = np.nonzero(dist2 != m)[0]
            if bad.size:
                cand = (int(xs[bad[0]]), d_idx)
                if best is None or cand < best:
                    best = cand
        return best

    found = [b for b in _run_chunked(scan, len(values), threads) if b is not None]
    if not found:
        return None
    x, d_idx = min(found)
    d = patterns[d_idx]
    dist = int(values[x] ^ values[x ^ d]).bit_count()
    return x, d, dist
