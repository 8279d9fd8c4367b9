"""Fixed-width binary words at the API and file edges, and the pair space.

A word is a string over {0, 1} with bits indexed 1..width from left to
right.  ``BitWord`` holds one as an integer whose most significant used
bit is index 1.  The file formats and the verifier enumeration order
assume that convention.  Inside the library words are plain ints, so
there is no word algebra here.

The pair space of (n, k) is the set of unordered pairs of n-bit words at
distance 1..k: this module counts it, refuses it above a budget, and
streams its XOR patterns.  Widths are capped at 64; exhaustive pair
enumeration is infeasible long before the cap matters.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator

MAX_WIDTH = 64

# Default ``budget``: the most pairs a table scan enumerates, or candidates
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


class Record:
    """Base of the package's immutable records: a class's own annotations,
    in order, are its fields.

    It stands in for the standard library's frozen data classes: their
    import (through ``inspect``, ``ast`` and ``dis``) and per-class code
    generation took 14-20 ms of every command's start-up, measured as
    about an eighth of a matrix command's 0.12-0.16 s child (2 vCPUs,
    Python 3.11). Construction takes fields by position or keyword and
    always calls ``__post_init__``; assigning a field raises
    ``AttributeError`` (``object.__setattr__`` still works inside
    ``__post_init__``). Two records are equal when they are of one class
    with equal fields, and hash by those fields.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # strings under `from __future__ import annotations`: nothing loads
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # an extra or repeated argument leaves fewer entries than arguments
        if len(values) != len(args) + len(kwargs) or values.keys() != set(fields):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(fields)}"
            )
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({pairs})"


class BitWord(Record):
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

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b")

    def __repr__(self) -> str:
        return f"BitWord({str(self)!r})"


def _check_width(width: int) -> None:
    # before any 1 << width, which a huge width would fill memory with
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")


def _check_pairs(n: int, k: int) -> None:
    # count-free: a huge n or k is refused or accepted without a 1 << n
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")


def pair_count(n: int, k: int = 1) -> int:
    """Exact number of unordered pairs of n-bit words at distance 1..k:
    2^(n-1) * sum_{j=1..k} C(n, j). k=1 is the classic single-bit-flip
    sample space of size n * 2^(n-1)."""
    _check_pairs(n, k)
    return (1 << (n - 1)) * sum(math.comb(n, j) for j in range(1, k + 1))


def krawtchouk_sum(w: int, n: int, k: int) -> int:
    """K_{<=k}(w; n) = sum_{j=1..k} K_j(w; n), exact, by the recurrence in j."""
    ks = [1, n - 2 * w]
    for j in range(1, k):
        ks.append(((n - 2 * w) * ks[j] - (n - j + 1) * ks[j - 1]) // (j + 1))
    return sum(ks[1 : k + 1])


def pair_space(n: int, k: int, budget: int) -> int:
    """``pair_count(n, k)`` for a table scan, refused above ``budget``.
    No pattern is listed."""
    npairs = pair_count(n, k)
    if npairs > budget:
        raise BudgetExceededError(npairs, budget)
    return npairs


def diff_patterns(n: int, k: int) -> Iterator[int]:
    """XOR patterns of weight 1..k, streamed: by flipped bit position for
    k=1, else ascending (a merge of the weight classes). Pair enumeration
    and violation reporting follow this order."""
    if k == 1:
        return (1 << (n - i) for i in range(1, n + 1))
    return heapq.merge(*(_weight_words(n, w) for w in range(1, k + 1)))


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
