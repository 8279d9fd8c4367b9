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


def _run_chunked(
    fn: Callable[[int, int], T], total: int, threads: int
) -> list[T]:
    # more workers than cores buys nothing and a huge --threads would
    # start that many OS threads
    workers = min(threads, os.cpu_count() or 1)
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
    for part in _run_chunked(scan, len(patterns), threads):
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

    found = [b for b in _run_chunked(scan, len(patterns), threads) if b is not None]
    if not found:
        return None
    x, d_idx, dist = min(found)
    return x, patterns[d_idx], dist
