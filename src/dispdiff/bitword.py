"""Fixed-width binary words and the primitive bit operations on them.

A word is a string over {0, 1} with bits indexed 1..width from left to
right.  Internally a word is one machine integer: index 1 (the leftmost
bit) is the most significant of the ``width`` used bits.  That convention
is load-bearing: every operation here, the file formats, and the verifier
enumeration order all assume it.

Widths are capped at 64: one machine word keeps every primitive
constant-time, and exhaustive pair enumeration is infeasible long before
the cap matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

MAX_WIDTH = 64

# Default ``budget``: the most pairs a verifier enumerates, or candidates
# the search tests, unless the caller raises it.
DEFAULT_PAIR_BUDGET = 1 << 28


class BudgetExceededError(ValueError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, estimate: int, budget: int, what: str = "pairs"):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"enumeration of {estimate} {what} exceeds budget {budget}"
        )


@dataclass(frozen=True)
class BitWord:
    """A fixed-width binary word. Immutable and hashable."""

    width: int
    value: int

    def __post_init__(self) -> None:
        _check_width(self.width)
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(
                f"value {self.value} does not fit in {self.width} bits"
            )

    @classmethod
    def parse(cls, text: str) -> "BitWord":
        """Parse a word from its textual form, e.g. ``"1100"``."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a binary word: {text!r}")
        return cls(len(text), int(text, 2))

    @classmethod
    def zeros(cls, width: int) -> "BitWord":
        return cls(width, 0)

    @classmethod
    def ones(cls, width: int) -> "BitWord":
        _check_width(width)
        return cls(width, (1 << width) - 1)

    @classmethod
    def unit(cls, width: int, i: int) -> "BitWord":
        """The standard basis word with a single 1-bit at index ``i``."""
        if not 1 <= i <= width:
            raise ValueError(f"index {i} out of range 1..{width}")
        _check_width(width)
        return cls(width, 1 << (width - i))

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b")

    def __repr__(self) -> str:
        return f"BitWord({str(self)!r})"

    def __xor__(self, other: "BitWord") -> "BitWord":
        return xor(self, other)


def _check_width(width: int) -> None:
    # before any 1 << width, which a huge width would fill memory with
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")


def xor(x: BitWord, y: BitWord) -> BitWord:
    """Bitwise addition mod 2. Widths must match (see xor_padded)."""
    if x.width != y.width:
        raise ValueError(f"width mismatch: {x.width} != {y.width}")
    return BitWord(x.width, x.value ^ y.value)


def xor_padded(x: BitWord, y: BitWord) -> BitWord:
    """XOR after left-padding the shorter word with zeros.

    Left-padding does not change a word's integer value, so this is a
    plain XOR at the wider width.
    """
    return BitWord(max(x.width, y.width), x.value ^ y.value)


def weight(x: BitWord) -> int:
    """Number of 1-bits."""
    return x.value.bit_count()


def distance(x: BitWord, y: BitWord) -> int:
    """Number of positions where x and y disagree: weight(x ^ y)."""
    if x.width != y.width:
        raise ValueError(f"width mismatch: {x.width} != {y.width}")
    return (x.value ^ y.value).bit_count()


def concat(x: BitWord, y: BitWord) -> BitWord:
    """x followed by y; x occupies indices 1..x.width of the result."""
    if x.width + y.width > MAX_WIDTH:
        raise ValueError(
            f"combined width {x.width + y.width} exceeds cap {MAX_WIDTH}"
        )
    return BitWord(x.width + y.width, (x.value << y.width) | y.value)


def alpha(x: BitWord) -> int:
    """The leftmost bit, as 0 or 1."""
    return (x.value >> (x.width - 1)) & 1


def beta(x: BitWord) -> BitWord:
    """The word with its leftmost bit removed."""
    if x.width < 2:
        raise ValueError("beta needs width >= 2")
    return BitWord(x.width - 1, x.value & ((1 << (x.width - 1)) - 1))


def tau(x: BitWord) -> BitWord:
    """Transpose the rightmost two bits."""
    if x.width < 2:
        raise ValueError("tau needs width >= 2")
    return BitWord(x.width, _tau_int(x.value))


def sigma(x: BitWord) -> BitWord:
    """Flip the last bit, then transpose the last two: tau(x ^ 1).

    Permutes the word space as a product of the 4-cycles
    (x|00, x|10, x|11, x|01) over each prefix x.
    """
    if x.width < 2:
        raise ValueError("sigma needs width >= 2")
    return BitWord(x.width, _sigma_int(x.value))


def _tau_int(v: int) -> int:
    lo = v & 3
    return (v & ~3) | ((lo >> 1) | ((lo & 1) << 1))


def _sigma_int(v: int) -> int:
    return _tau_int(v ^ 1)


def complement(x: BitWord) -> BitWord:
    """Flip every bit."""
    return BitWord(x.width, x.value ^ ((1 << x.width) - 1))


def proj(i: int, x: BitWord) -> int:
    """Bit i of x as an integer (index 1 = leftmost)."""
    if not 1 <= i <= x.width:
        raise ValueError(f"index {i} out of range 1..{x.width}")
    return (x.value >> (x.width - i)) & 1


@dataclass(frozen=True)
class PairSpec:
    """Parameters (n, k) identifying the set of unordered pairs of n-bit
    words at Hamming distance between 1 and k. k=1 is the classic
    single-bit-flip sample space of size n * 2^(n-1)."""

    n: int
    k: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must be in 1..{self.n}, got {self.k}")


def pair_count(spec: PairSpec) -> int:
    """Exact size of the pair set: 2^(n-1) * sum_{j=1..k} C(n, j)."""
    return (1 << (spec.n - 1)) * sum(
        math.comb(spec.n, j) for j in range(1, spec.k + 1)
    )


def flip_patterns(n: int) -> list[int]:
    """Single-bit XOR patterns in flipped-position order (index 1 first)."""
    return [1 << (n - i) for i in range(1, n + 1)]


def diff_patterns(n: int, k: int) -> list[int]:
    """XOR patterns of weight 1..k.

    For k=1 the order is by flipped bit position ascending; for k >= 2 it
    is ascending integer value. Pair enumeration and violation reporting
    follow this order.
    """
    if k == 1:
        return flip_patterns(n)
    return [d for d in range(1, 1 << n) if d.bit_count() <= k]


def enumerate_pairs(
    spec: PairSpec,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> Iterator[tuple[BitWord, BitWord]]:
    """Yield each unordered pair {x, y} with 1 <= distance <= k exactly once.

    Deterministic order: the smaller element x ascending, then XOR patterns
    in the diff_patterns order. More pairs in the whole space than
    ``budget`` raise BudgetExceededError.
    """
    total = pair_count(spec)
    if total > budget:
        raise BudgetExceededError(total, budget)
    n = spec.n
    patterns = diff_patterns(n, spec.k)
    for xv in range(1 << n):
        for d in patterns:
            yv = xv ^ d
            if xv < yv:
                yield BitWord(n, xv), BitWord(n, yv)
