"""Vectorized scans of a truth table over the pairs of a pattern list.

Every unordered pair at distance 1..k is {x, x ^ d} for an XOR pattern d
with top bit t, counted once at the x whose bit t is 0.  Those x are the
first half of each 2^(t+1)-entry block of the table and their partners
the second half, permuted within the block by d's lower bits, so
`_pair_diffs` reads a pattern's pairs from two views of the table with no
x-index array.  All accumulation is exact integer arithmetic.

Workers split the pattern list into contiguous runs and scan each pattern
whole; partial sums add exactly and the first violation is the minimum of
the per-worker (x, pattern index) minima, so results are identical for
any worker count.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

from .f2linear import TruthTableMap, np

T = TypeVar("T")


def table_values(table: TruthTableMap) -> np.ndarray:
    return table.values


def chunk_bounds(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, total))
    bounds = [total * i // workers for i in range(workers + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(workers)]


# The fewest pairs worth a worker thread of their own. One thread scans
# 36-46M pairs/s, and starting the pool costs a fresh process about 14 ms
# (importing concurrent.futures, then two threads), but as a child
# `verify diffusive --threads 2` gained nothing below 5M pairs: 0.282 and
# 0.271 s on g18 (2.4M pairs, k = 1), 0.418 and 0.428 s on g19 (5.0M),
# against 0.762 and 0.596 s on g20 (10.5M), at 1 and 2 threads (medians
# of 7, 2 vCPUs). The second worker's thread and malloc arena also raised
# the g18 child's peak RSS from 32.9 to 36-38 MB. So two workers need at
# least 8.4M pairs.
MIN_PAIRS_PER_WORKER = 1 << 22


def _run_chunked(
    fn: Callable[[int, int], T], total: int, threads: int, pairs: int
) -> list[T]:
    """fn over contiguous runs of range(total), one run per worker; a
    scan of fewer than MIN_PAIRS_PER_WORKER pairs a worker runs as one."""
    # more workers than cores buys nothing and a huge --threads would
    # start that many OS threads
    workers = min(threads, os.cpu_count() or 1, pairs // MIN_PAIRS_PER_WORKER)
    ranges = chunk_bounds(total, workers)
    if len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    # imported here: serial scans and matrix commands never load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


def _pair_diffs(values: np.ndarray, d: int) -> np.ndarray:
    """values[x] ^ values[x ^ d] for each x whose bit at d's top position
    t is 0, ascending: entry i belongs to x = i + (i >> t << t)."""
    t = d.bit_length() - 1
    blocks = values.reshape(-1, 2, 1 << t)
    partners = blocks[:, 1, :]
    low = d ^ (1 << t)
    if low:
        partners = partners[:, np.arange(1 << t) ^ low]
    return (blocks[:, 0, :] ^ partners).ravel()


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
        for d in patterns[lo:hi]:
            diffs = _pair_diffs(values, d)
            for b in range(m):
                sums[b] += np.count_nonzero(diffs & np.uint64(1 << b))
        return sums

    total = np.zeros(m, dtype=np.int64)
    pairs = len(values) // 2 * len(patterns)
    for part in _run_chunked(scan, len(patterns), threads, pairs):
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

    def scan(lo: int, hi: int) -> tuple[int, int, int] | None:
        firsts = []
        for d_idx, d in enumerate(patterns[lo:hi], start=lo):
            # uint8 counts of at most 64, so doubling them cannot wrap
            dists = np.bitwise_count(_pair_diffs(values, d))
            bad = np.flatnonzero(dists * 2 != m)
            if bad.size:
                i = int(bad[0])
                t = d.bit_length() - 1
                firsts.append((i + (i >> t << t), d_idx, int(dists[i])))
        return min(firsts, default=None)

    pairs = len(values) // 2 * len(patterns)
    parts = _run_chunked(scan, len(patterns), threads, pairs)
    found = [b for b in parts if b is not None]
    if not found:
        return None
    x, d_idx, dist = min(found)
    return x, patterns[d_idx], dist
