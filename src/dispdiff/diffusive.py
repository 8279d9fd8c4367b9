"""Diffusive permutations: over all distance-1 input pairs, each output
bit flips exactly half the time.

For every n >= 2 the paper builds one, g, by recursion on the leading
bit: 0-prefixed inputs copy their image's lead bit up, 1-prefixed inputs
complement it after sigma, the cycle 00 -> 10 -> 11 -> 01 of the last two
bits.  Sigma moves only the low pair, and each level's lead bit is its
input bit XOR the lead bit below, so the low pair of x moves once round
the cycle per set bit above it, and bit j >= 2 of g(x) (from 0 at the
right) is the XOR of bits 2..j of x and the moved lead bit.  Each output
bit flips in n * 2^(n-2) of the n * 2^(n-1) pairs, exactly; at distance
1..k the target is half the pair count, an integer as 2^(n-1) divides it.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from . import _scan
from .bitword import DEFAULT_PAIR_BUDGET, MAX_WIDTH, Record
from .bitword import diff_patterns, pair_count, pair_space
from .f2linear import LinearMap, TruthTableMap, np, table_size, transpose
from .dispersive import build_dispersive


class DiffusionReport(Record):
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


# sigma's cycle on the low pair, and each pair's place in it
_CYCLE = (0b00, 0b10, 0b11, 0b01)
_PLACE = (0, 3, 1, 2)


def _g_words(n: int, x: np.ndarray) -> np.ndarray:
    """g on each n-bit word of the uint64 array x, computed in x."""
    low = np.array(_PLACE, dtype=np.uint8)[x & 3]
    x >>= 2
    low = np.array(_CYCLE, dtype=np.uint8)[(low + np.bitwise_count(x)) & 3]
    x ^= low >> 1  # the moved lead bit, then the running XOR up from it
    for shift in (1, 2, 4, 8, 16, 32):
        x ^= x << shift
    x &= (1 << (n - 2)) - 1
    x <<= 2
    x |= low
    return x


def g_table(n: int) -> TruthTableMap:
    """Materialize the full permutation table for bulk verification."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    values = _g_words(n, np.arange(table_size(n), dtype=np.uint64))
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
    also when m > n. 1-bit inputs are refused, then a table scan makes
    ``pair_space``'s refusals. A generator matrix gets its table's report
    from its column weights w: the 2^(n-1) pairs of pattern d flip f(d),
    in bit b iff d meets column b in an odd number i of places, as
    C(w, i) * C(n - w, j - i) of the patterns of weight j do. No pattern
    is listed, and ``budget`` does not apply: at most k^2/4 * m products.
    """
    n, m = map_.input_dim, map_.output_dim
    if n < 2:
        raise ValueError(
            "no diffusive map exists on 1-bit inputs: the required per-bit "
            "sum n * 2^(n-2) is not an integer"
        )
    if isinstance(map_, LinearMap):
        npairs = pair_count(n, k)
        ij = [(i, j) for j in range(1, k + 1) for i in range(1, j + 1, 2)]
        weights = [c.bit_count() for c in map_._columns()]
        odd = [sum(comb(w, i) * comb(n - w, j - i) for i, j in ij) for w in weights]
        sums = [c << (n - 1) for c in odd]
    else:
        npairs = pair_space(n, k, budget)
        values = _scan.table_values(map_)
        sums = _scan.bit_sums(values, m, list(diff_patterns(n, k)), threads=threads)
    target = npairs // 2
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
    patterns = list(diff_patterns(n - 1, 1))
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
