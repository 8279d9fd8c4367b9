"""Diffusive permutations: over all distance-1 input pairs, each output
bit flips exactly half the time.

Unlike dispersion, a diffusive permutation of the full n-bit space exists
for every n >= 2.  The construction recurses on the leading bit: images
of 0-prefixed inputs copy their own leading bit, images of 1-prefixed
inputs complement it after routing through the 4-cycle permutation of the
last two bits.  The per-bit flip counts over the n * 2^(n-1) pairs then
all equal n * 2^(n-2), which verify_diffusive checks as an exact integer
identity; no floating point anywhere.  For pairs at distance 1..k the
target is half the pair count, an integer since 2^(n-1) divides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _scan
from .bitword import (
    DEFAULT_PAIR_BUDGET,
    MAX_WIDTH,
    BitWord,
    BudgetExceededError,
    PairSpec,
    _sigma_int,
    diff_patterns,
    flip_patterns,
    pair_count,
)
from .f2linear import LinearMap, TruthTableMap, _images, rank, table_size, transpose
from .dispersive import build_dispersive


@dataclass(frozen=True)
class DiffusionReport:
    passed: bool
    injective: bool
    per_bit_sums: tuple[int, ...]
    target: int
    pairs_checked: int


class DecomposedSums(NamedTuple):
    """One output bit's pair-sum split by leading input bits: both-0
    prefix (p), both-1 prefix (q), and the cross pairs (r); c = p+q+r."""

    p: int
    q: int
    r: int
    c: int


def _g(n: int, v: int) -> int:
    # base case: identity on two bits
    if n == 2:
        return v
    rest = v & ((1 << (n - 1)) - 1)
    if v >> (n - 1) == 0:
        y = _g(n - 1, rest)
        return ((y >> (n - 2)) << (n - 1)) | y
    y = _g(n - 1, _sigma_int(rest))
    return (((y >> (n - 2)) ^ 1) << (n - 1)) | y


def g_eval(n: int, x: BitWord) -> BitWord:
    """Evaluate the diffusive permutation on one word, recursing on the
    leading bit. O(n) word operations, no table needed."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if x.width != n:
        raise ValueError(f"width mismatch: {x.width} != {n}")
    return BitWord(n, _g(n, x.value))


def g_table(n: int) -> TruthTableMap:
    """Materialize the full permutation table for bulk verification."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    size = table_size(n)
    values = np.fromiter((_g(n, v) for v in range(size)), dtype=np.uint64, count=size)
    return TruthTableMap(n, n, values)


def verify_diffusive(
    map_: LinearMap | TruthTableMap,
    k: int = 1,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    threads: int = 1,
) -> DiffusionReport:
    """Sum each output bit of f(x) ^ f(y) over all pairs at distance 1..k.

    Passes iff the map is injective and every sum equals exactly half the
    pair count (n * 2^(n-2) for k = 1). All m output bits are checked,
    also when m > n. More pairs than ``budget`` raise BudgetExceededError.
    A generator matrix is decided from its pattern images, with the report
    and refusals of its table: the 2^(n-1) pairs of pattern d flip f(d).
    """
    n, m = map_.input_dim, map_.output_dim
    linear = isinstance(map_, LinearMap)
    if linear:
        table_size(n)
    npairs = pair_count(PairSpec(n, k))
    if n < 2:
        raise ValueError(
            "no diffusive map exists on 1-bit inputs: the required per-bit "
            "sum n * 2^(n-2) is not an integer"
        )
    if npairs > budget:
        raise BudgetExceededError(npairs, budget)
    target = npairs // 2
    patterns = diff_patterns(n, k)
    if linear:
        images = list(_images(map_, patterns))
        counts = [sum(f >> (m - b) & 1 for f in images) for b in range(1, m + 1)]
        sums = [c << (n - 1) for c in counts]
        injective = rank(map_.generators) == n
    else:
        values = _scan.table_values(map_)
        sums = _scan.bit_sums(values, m, patterns, threads=threads)
        injective = map_.is_injective()
    passed = injective and all(s == target for s in sums)
    return DiffusionReport(
        passed=passed,
        injective=injective,
        per_bit_sums=tuple(sums),
        target=target,
        pairs_checked=npairs,
    )


def column_diffusive(n: int) -> LinearMap:
    """The transposed dispersive generator matrix, which is diffusive.

    Only defined when n is 2 mod 4, the one residue where the minimal
    dispersive matrix is square. Each column then has weight n/2, so each
    output bit flips for exactly half the single-bit input changes.
    """
    if n < 2 or n % 4 != 2:
        raise ValueError(
            f"n must be 2 mod 4 (the dispersive matrix is square only "
            f"there), got {n}"
        )
    return transpose(build_dispersive(n))


def extend_output(map_: TruthTableMap, extra: int) -> TruthTableMap:
    """Widen outputs by appending ``extra`` copies of each output's own
    leftmost bit on the right. Preserves injectivity, and preserves the
    diffusion sums since the new bits duplicate bit 1."""
    if extra < 1:
        raise ValueError(f"extra must be >= 1, got {extra}")
    m = map_.output_dim
    if m + extra > MAX_WIDTH:
        raise ValueError(f"extended width {m + extra} exceeds cap {MAX_WIDTH}")
    v = map_.values
    ones = np.uint64((1 << extra) - 1)
    new = (v << np.uint64(extra)) | (ones * (v >> np.uint64(m - 1)))
    return TruthTableMap(map_.input_dim, m + extra, new)


def quadruple_sum_check(n: int) -> bool:
    """Check the cycle identity behind the diffusion count.

    For every prefix x and every output bit, the four bit-flips around the
    images of the cycle x|00 -> x|10 -> x|11 -> x|01 -> x|00 must sum to
    exactly 2.
    """
    t = g_table(n).values
    a, b, c, d = t[0::4], t[2::4], t[3::4], t[1::4]
    d0, d1, d2, d3 = a ^ b, b ^ c, c ^ d, d ^ a
    # d0 ^ d1 ^ d2 ^ d3 == 0, so each bit is set in 0, 2 or 4 of them:
    # exactly 2 means set in some (the OR) and not in all (the AND).
    full = np.uint64((1 << n) - 1)
    return bool(np.all((d0 | d1 | d2 | d3) == full) and not np.any(d0 & d1 & d2 & d3))


def decompose_sums(n: int, i: int) -> DecomposedSums:
    """Split output bit i's diffusion sum for the constructed permutation
    by the leading input bits: pairs inside the 0-prefixed half (p),
    inside the 1-prefixed half (q), and the 2^(n-1) cross pairs {0|x, 1|x}
    (r). For the construction, p = q = (n-1) * 2^(n-3) and r = 2^(n-2)."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not 1 <= i <= n:
        raise ValueError(f"output index {i} out of range 1..{n}")
    values = g_table(n).values
    half = 1 << (n - 1)
    patterns = flip_patterns(n - 1)
    p = _scan.bit_sums(values[:half], n, patterns)[i - 1]
    q = _scan.bit_sums(values[half:], n, patterns)[i - 1]
    # the cross pairs are exactly the top-bit pattern
    r = _scan.bit_sums(values, n, [half])[i - 1]
    return DecomposedSums(p, q, r, p + q + r)


def format_diffusion_report(report: DiffusionReport) -> str:
    """Per-bit sum lines followed by the PASS/FAIL verdict."""
    lines = [
        f"bit {i}: {s}/{report.target}"
        for i, s in enumerate(report.per_bit_sums, start=1)
    ]
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines)
