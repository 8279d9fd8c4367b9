"""Vectorized scans of a truth table over the pairs of a pattern list.

Every unordered pair at distance 1..k is {x, x ^ d} for an XOR pattern d
with top bit t, counted once at the x whose bit t is 0.  Those x are the
first half of each 2^(t+1)-entry block of the table and their partners
the second half, permuted within the block by d's lower bits, so
`_halves` reads a pattern's pairs from a view of the table and a gather
of its partners, with no x-index array.  `bit_sums` reads them through
`_halves` too, from the table's bit planes, 64 entries to a word, so one
pass per pattern counts every pair of a word at once.  All accumulation
is exact integer arithmetic.

Workers split the pattern list into contiguous runs and scan each pattern
whole. Results come back per pattern in pattern order: the bit counts add
exactly and the first violation is the least (x, pattern index), so
results are identical for any worker count.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

from . import f2linear
from .f2linear import TruthTableMap, np

T = TypeVar("T")


def table_values(table: TruthTableMap) -> np.ndarray:
    return table.values


def chunk_bounds(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, total))
    bounds = [total * i // workers for i in range(workers + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(workers)]


# The fewest pairs worth a worker thread of their own. One thread scans
# about 400M pairs/s in bit_sums and 40M in first_distance_violation, and
# starting the pool costs a fresh process 12-15 ms (importing
# concurrent.futures, then two threads). As a child, `verify --threads 2`
# gained nothing up to 50M pairs against --threads 1 with one pair a
# worker (medians of 7-9 alternating runs, 2 vCPUs):
# - diffusive, on g tables: 0.298 and 0.310 s on g19 (5.0M pairs, k = 1),
#   0.342 and 0.428 s on g20 (10.5M), 0.628 and 0.602 s on g21 (22.0M),
#   1.222 and 1.244 s on g22 (46.1M), 0.420 and 0.425 s on g19 at k = 2
#   (49.8M), then 0.853 and 0.726 s on g20 at k = 2 (110M);
# - dispersive, on tabulated build_dispersive(n): 0.439 and 0.480 s at
#   n = 20 (10.5M), 0.814 and 0.797 s at n = 21 (22.0M), then 1.512 and
#   0.840 s at n = 19, k = 2 (49.8M).
# The second worker's thread and malloc arena also raised the child's peak
# RSS by 1.4 MB on g19 and 7 MB on g22. So two workers need at least
# 33.6M pairs.
MIN_PAIRS_PER_WORKER = 1 << 24


def _halves(a: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(own, partners): the entries x along a's last axis whose bit at d's
    top position t is 0, and x ^ d for each in the same place, both of
    shape a.shape[:-1] + (blocks, 2^t). Over the last two axes entry i
    belongs to x = i + (i >> t << t). own is a view of a, and so is
    partners when d = 2^t; otherwise partners is a fresh gather."""
    t = d.bit_length() - 1
    blocks = a.reshape(*a.shape[:-1], -1, 2, 1 << t)
    own, partners = blocks[..., 0, :], blocks[..., 1, :]
    low = d ^ (1 << t)
    if low:
        partners = partners[..., np.arange(1 << t) ^ low]
    return own, partners


def _map_patterns(
    fn: Callable[[int], T],
    entries: int,
    patterns: Sequence[int],
    threads: int,
) -> list[T]:
    """fn(d) for each pattern d of a table of `entries` entries, in pattern
    order. Workers take contiguous runs of patterns; a scan of fewer than
    MIN_PAIRS_PER_WORKER pairs a worker runs as one."""
    pairs = entries // 2 * len(patterns)
    # more workers than cores buys nothing and a huge --threads would
    # start that many OS threads
    workers = min(threads, os.cpu_count() or 1, pairs // MIN_PAIRS_PER_WORKER)

    def run(bounds: tuple[int, int]) -> list[T]:
        return [fn(d) for d in patterns[slice(*bounds)]]

    ranges = chunk_bounds(len(patterns), workers)
    if len(ranges) == 1:
        return run(ranges[0])
    # imported here: serial scans and matrix commands never load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return [r for part in pool.map(run, ranges) for r in part]


# The most output bits whose planes are held at once. A plane is 1/64 of
# the table's bytes and a pattern's scan holds at most two copies of a
# group, so bit_sums peaks at 3 * 24/64 of a table, below the 1 to 1.5
# tables that a per-bit count of the pair differences held.
_GROUP_ROWS = 24

# _SWAP_MASKS[s] has the bits of a word whose index has bit s clear
_SWAP_MASKS = [
    0x5555555555555555,
    0x3333333333333333,
    0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF,
    0x0000FFFF0000FFFF,
    0x00000000FFFFFFFF,
]

# the delta swaps that transpose the 8x8 bit matrix of each word, bit
# 8i + j moving to bit 8j + i
_TRANSPOSE_8X8 = [
    (7, 0x00AA00AA00AA00AA),
    (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0),
]


def _delta_swap(words: np.ndarray, shift: int, mask: int) -> None:
    """Swap bit p with bit p + shift of every word, for each p in mask,
    in place."""
    shift = np.uint64(shift)
    x = words >> shift
    x ^= words
    x &= np.uint64(mask)
    words ^= x
    x <<= shift
    words ^= x


def _planes(values: np.ndarray, m: int, first: int, last: int) -> np.ndarray:
    """Output bits first + 1..last of the table as bit planes, of shape
    (last - first, max(1, len(values) / 64)): row i holds output bit
    first + 1 + i, and entry x sits at bit x % 64 of word x // 64.

    Built a block of entries at a time from the bytes that hold those
    bits: byte b of entries 8g..8g+7 is one word, and transposing its
    8x8 bit matrix leaves in byte j the bit 8b + j of those 8 entries,
    which is byte g of that bit's plane."""
    if len(values) < 64:
        values = np.concatenate([values, np.zeros(64 - len(values), np.uint64)])
    low, high = m - last, m - first  # the integer bits low..high - 1
    skip = low // 8
    nbytes = (high + 7) // 8 - skip
    rows = np.empty((last - first, len(values) // 8), dtype=np.uint8)
    # whole 64-entry words; a block holds three copies of nbytes <= 4
    # bytes per entry: with an eighth of the entries, 3/16 of the table's
    # bytes at most
    step = max(64, min(f2linear._BLOCK_ROWS, len(values) // 8) // 64 * 64)
    for lo in range(0, len(values), step):
        block = values[lo : lo + step].astype("<u8", copy=False)
        octets = block.view(np.uint8).reshape(-1, 8)[:, skip : skip + nbytes]
        words = np.ascontiguousarray(octets.T).view("<u8")
        for shift, mask in _TRANSPOSE_8X8:
            _delta_swap(words, shift, mask)
        bits = words.view(np.uint8).reshape(nbytes, -1, 8).transpose(0, 2, 1)
        # row r of bits is integer bit 8 * skip + r, output bit m - that
        bits = bits.reshape(8 * nbytes, -1)[low - 8 * skip : high - 8 * skip]
        rows[:, lo // 8 : lo // 8 + bits.shape[1]] = bits[::-1]
    return rows.view("<u8")


def _swap_within_words(words: np.ndarray, low: int) -> None:
    """Move bit p of every word to bit p ^ low, in place (low < 64): one
    delta swap of bit blocks per set bit of low."""
    for s, mask in enumerate(_SWAP_MASKS):
        if low >> s & 1:
            _delta_swap(words, 1 << s, mask)


def _plane_counts(planes: np.ndarray, d: int) -> np.ndarray:
    """Per-plane-row count of the pairs {x, x ^ d}, x with d's top bit t
    clear, whose bits differ. Below t = 6 a pair shares its word, and
    shifting the word right by 2^t brings x ^ 2^t to x; above, word j
    with bit t - 6 clear pairs with word j ^ (d >> 6), read by `_halves`.
    The in-word swaps then move the rest of d into place, on a copy of
    x's own words: a permutation within a word keeps its popcount."""
    t = d.bit_length() - 1
    if t < 6:
        moved = planes >> np.uint64(1 << t)
        _swap_within_words(moved, d ^ 1 << t)
        moved ^= planes
        moved &= np.uint64(_SWAP_MASKS[t])
    elif d & 63:
        own, partners = _halves(planes, d >> 6)
        moved = own.copy()
        _swap_within_words(moved, d & 63)
        moved ^= partners
    else:
        moved = np.bitwise_xor(*_halves(planes, d >> 6))
    return np.bitwise_count(moved).reshape(len(planes), -1).sum(axis=1)


def bit_sums(
    values: np.ndarray,
    m: int,
    patterns: Sequence[int],
    threads: int = 1,
) -> list[int]:
    """Per-output-bit sums of values[x] ^ values[x ^ d] over all pairs.

    Returns m exact integers indexed by bit position 1..m (leftmost
    first). The bits are scanned in groups of at most _GROUP_ROWS, each
    from its own bit planes.
    """
    groups = -(-m // _GROUP_ROWS)
    bounds = [m * g // groups for g in range(groups + 1)]
    sums = []
    for first, last in zip(bounds, bounds[1:]):
        planes = _planes(values, m, first, last)
        total = np.zeros(last - first, dtype=np.uint64)
        for counts in _map_patterns(
            lambda d: _plane_counts(planes, d), len(values), patterns, threads
        ):
            total += counts
        sums += total.tolist()
    return sums


def first_distance_violation(
    values: np.ndarray,
    m: int,
    patterns: Sequence[int],
    threads: int = 1,
) -> tuple[int, int, int] | None:
    """First pair (by x, then pattern order) whose output distance is not
    m/2. Returns (x, d, output_distance) or None."""

    def first(d: int) -> tuple[int, int, int] | None:
        # uint8 counts of at most 64, so doubling them cannot wrap
        own, partners = _halves(values, d)
        dists = np.bitwise_count((own ^ partners).ravel())
        bad = np.flatnonzero(dists * 2 != m)
        if not bad.size:
            return None
        i = int(bad[0])
        t = d.bit_length() - 1
        return i + (i >> t << t), d, int(dists[i])

    per_pattern = _map_patterns(first, len(values), patterns, threads)
    hits = [(hit[0], j, hit) for j, hit in enumerate(per_pattern) if hit]
    return min(hits)[2] if hits else None
