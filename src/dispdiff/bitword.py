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

import heapq
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
    """Bitwise addition mod 2. Widths must match."""
    if x.width != y.width:
        raise ValueError(f"width mismatch: {x.width} != {y.width}")
    return BitWord(x.width, x.value ^ y.value)


def weight(x: BitWord) -> int:
    """Number of 1-bits."""
    return x.value.bit_count()


def distance(x: BitWord, y: BitWord) -> int:
    """Number of positions where x and y disagree: weight(x ^ y)."""
    if x.width != y.width:
        raise ValueError(f"width mismatch: {x.width} != {y.width}")
    return (x.value ^ y.value).bit_count()


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


def pair_space(spec: PairSpec, budget: int) -> int:
    """Size of the pair set of ``spec`` (whose k ``PairSpec`` keeps in 1..n)
    for a map of any type, refused above ``budget``. No pattern is listed."""
    npairs = pair_count(spec)
    if npairs > budget:
        raise BudgetExceededError(npairs, budget)
    return npairs


def _patterns(n: int, k: int) -> Iterator[int]:
    """XOR patterns of weight 1..k, streamed: by flipped bit position for
    k=1, else ascending (a merge of the weight classes). Pair enumeration
    and violation reporting follow this order."""
    if k == 1:
        return (1 << (n - i) for i in range(1, n + 1))
    return heapq.merge(*(_weight_words(n, w) for w in range(1, k + 1)))


def diff_patterns(n: int, k: int) -> list[int]:
    """``_patterns`` as a list, for the scans of a table (|D_k| < 2^n)."""
    return list(_patterns(n, k))


def _weight_words(width: int, w: int, _after: int = 0) -> Iterator[int]:
    """Weight-w words of the given width (w >= 1), ascending (Gosper's
    hack: carry the lowest run of ones one place up and drop the rest of
    that run to the bottom). Given a weight-w word ``_after``, the stream
    begins at its successor, so no smaller word is stepped through."""
    v = _after
    top = 1 << width
    if not v:
        v = (1 << w) - 1
        if v < top:
            yield v
    while v < top:
        low = v & -v
        carried = v + low
        v = carried | ((carried ^ v) >> 2) // low
        if v < top:
            yield v
