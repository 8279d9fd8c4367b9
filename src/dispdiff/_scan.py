"""Vectorized scans of a truth table over the pairs of a pattern list.

Every unordered pair at distance 1..k is {x, x ^ d} for an XOR pattern d
with top bit t, counted once at the x whose bit t is 0.  Those x are the
first half of each 2^(t+1)-entry block of the table and their partners
the second half, permuted within the block by d's lower bits, so
`_pair_diffs` reads a pattern's pairs from two views of the table with no
x-index array.  All accumulation is exact integer arithmetic.

Workers split the pattern list into contiguous runs and scan each pattern
whole. Results come back per pattern in pattern order: the bit counts add
exactly and the first violation is the least (x, pattern index), so
results are identical for any worker count.
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


def _map_patterns(
    fn: Callable[[np.ndarray, int], T],
    values: np.ndarray,
    patterns: Sequence[int],
    threads: int,
) -> list[T]:
    """fn(_pair_diffs(values, d), d) for each pattern d, in pattern order.
    Workers take contiguous runs of patterns; a scan of fewer than
    MIN_PAIRS_PER_WORKER pairs a worker runs as one."""
    pairs = len(values) // 2 * len(patterns)
    # more workers than cores buys nothing and a huge --threads would
    # start that many OS threads
    workers = min(threads, os.cpu_count() or 1, pairs // MIN_PAIRS_PER_WORKER)

    def run(bounds: tuple[int, int]) -> list[T]:
        return [fn(_pair_diffs(values, d), d) for d in patterns[slice(*bounds)]]

    ranges = chunk_bounds(len(patterns), workers)
    if len(ranges) == 1:
        return run(ranges[0])
    # imported here: serial scans and matrix commands never load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return [r for part in pool.map(run, ranges) for r in part]


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

    def counts(diffs: np.ndarray, d: int) -> list[int]:
        # word index i is integer bit m - i
        return [
            np.count_nonzero(diffs & np.uint64(1 << (m - i))) for i in range(1, m + 1)
        ]

    per_pattern = _map_patterns(counts, values, patterns, threads)
    return [sum(c[b] for c in per_pattern) for b in range(m)]


def first_distance_violation(
    values: np.ndarray,
    m: int,
    patterns: Sequence[int],
    threads: int = 1,
) -> tuple[int, int, int] | None:
    """First pair (by x, then pattern order) whose output distance is not
    m/2. Returns (x, d, output_distance) or None."""

    def first(diffs: np.ndarray, d: int) -> tuple[int, int, int] | None:
        # uint8 counts of at most 64, so doubling them cannot wrap
        dists = np.bitwise_count(diffs)
        bad = np.flatnonzero(dists * 2 != m)
        if not bad.size:
            return None
        i = int(bad[0])
        t = d.bit_length() - 1
        return i + (i >> t << t), d, int(dists[i])

    per_pattern = _map_patterns(first, values, patterns, threads)
    hits = [(hit[0], j, hit) for j, hit in enumerate(per_pattern) if hit]
    return min(hits)[2] if hits else None
