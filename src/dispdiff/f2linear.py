"""Linear maps between bit-word spaces, given by their generator images.

A map is stored as the ordered list of images v_1..v_n of the standard
basis: x maps to the XOR of the v_i over the set bits of x.  Rank over
GF(2) decides injectivity.  The module also owns the two on-disk formats
(generator matrix and explicit truth table) used by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bitword import MAX_WIDTH, BitWord

# Largest table any call materialises: 2^28 uint64 entries, 2 GiB.
MAX_TABLE_BITS = 28


@dataclass(frozen=True)
class LinearMap:
    input_dim: int
    output_dim: int
    generators: tuple[BitWord, ...]

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if len(self.generators) != self.input_dim:
            raise ValueError(
                f"expected {self.input_dim} generators, got {len(self.generators)}"
            )
        for g in self.generators:
            if g.width != self.output_dim:
                raise ValueError(
                    f"generator width {g.width} != output dim {self.output_dim}"
                )


@dataclass(frozen=True, eq=False)
class TruthTableMap:
    """Explicit input -> output table for an arbitrary map between word
    spaces. ``values[j]`` is the image of the input with integer value j,
    held as a read-only uint64 array; construct from a BitWord sequence
    or an integer array (copied either way)."""

    input_dim: int
    output_dim: int
    values: np.ndarray

    def __post_init__(self) -> None:
        n, m = self.input_dim, self.output_dim
        if not (1 <= n <= MAX_WIDTH and 1 <= m <= MAX_WIDTH):
            raise ValueError(f"dimensions must be in 1..{MAX_WIDTH}")
        entries = self.values
        if not isinstance(entries, np.ndarray):
            for w in entries:
                if w.width != m:
                    raise ValueError(f"table entry width {w.width} != output dim {m}")
            entries = [w.value for w in entries]
        elif entries.dtype.kind not in "ui" or np.any(entries < 0):
            raise ValueError("table values must be non-negative integers")
        values = np.array(entries, dtype=np.uint64)
        if values.shape != (1 << n,):
            raise ValueError(f"table must have {1 << n} entries, got {values.size}")
        if m < MAX_WIDTH and np.any(values >> np.uint64(m)):
            raise ValueError(f"table entry wider than output dim {m}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTableMap):
            return NotImplemented
        same = np.array_equal(self.values, other.values)  # hence same input_dim
        return same and self.output_dim == other.output_dim

    @property
    def table(self) -> tuple[BitWord, ...]:
        """The entries as BitWords, built on each access."""
        return tuple(BitWord(self.output_dim, v) for v in self.values.tolist())

    def is_injective(self) -> bool:
        # a repeated value shows as a zero step between sorted neighbours
        return bool(np.all(np.diff(np.sort(self.values))))

    def lookup(self, x: BitWord) -> BitWord:
        if x.width != self.input_dim:
            raise ValueError(f"width mismatch: {x.width} != {self.input_dim}")
        return BitWord(self.output_dim, int(self.values[x.value]))


def apply(map_: LinearMap, x: BitWord) -> BitWord:
    """Image of x: XOR of the generators at the set bits of x."""
    if x.width != map_.input_dim:
        raise ValueError(f"width mismatch: {x.width} != {map_.input_dim}")
    return BitWord(map_.output_dim, next(_images(map_, [x.value])))


def _images(map_: LinearMap, xs: Iterable[int]) -> Iterator[int]:
    """The image of each input value in xs, as an int, one at a time."""
    n = map_.input_dim
    gen_at = {1 << (n - i): g.value for i, g in enumerate(map_.generators, start=1)}
    for x in xs:
        acc = 0
        while x:
            low = x & -x
            acc ^= gen_at[low]
            x ^= low
        yield acc


def rank(rows: list[BitWord] | tuple[BitWord, ...]) -> int:
    """Rank of the row set over GF(2).

    Forward elimination, pivoting on the highest remaining bit (the lowest
    word index); inputs are never mutated.
    """
    if not rows:
        return 0
    width = rows[0].width
    for r in rows:
        if r.width != width:
            raise ValueError("rows must share one width")
    return _rank_ints(r.value for r in rows)


def _rank_ints(values) -> int:
    pivots: dict[int, int] = {}
    r = 0
    for v in values:
        v = _reduce(v, pivots)
        if v:
            pivots[v.bit_length() - 1] = v
            r += 1
    return r


def _reduce(v: int, pivots: dict[int, int]) -> int:
    while v:
        p = v.bit_length() - 1
        if p not in pivots:
            break
        v ^= pivots[p]
    return v


def transpose(map_: LinearMap) -> LinearMap:
    """Swap rows and columns of a square generator matrix."""
    n, m = map_.input_dim, map_.output_dim
    if n != m:
        raise ValueError(f"transpose needs a square matrix, got {n}x{m}")
    cols = []
    for i in range(1, n + 1):
        acc = 0
        for j, g in enumerate(map_.generators, start=1):
            bit = (g.value >> (m - i)) & 1
            acc |= bit << (n - j)
        cols.append(BitWord(n, acc))
    return LinearMap(n, m, tuple(cols))


def table_size(n: int) -> int:
    """Entry count 2^n of an n-input table, refused above 2^MAX_TABLE_BITS
    before 2^n is computed."""
    if n > MAX_TABLE_BITS:
        raise ValueError(
            f"a table on n={n} inputs exceeds the cap of 2^{MAX_TABLE_BITS} entries"
        )
    return 1 << n


def tabulate(map_: LinearMap) -> TruthTableMap:
    """Materialize the full truth table: entry j = apply(map, word j)."""
    n, m = map_.input_dim, map_.output_dim
    values = np.zeros(table_size(n), dtype=np.uint64)
    # entry j XORs in generator i iff bit n-1-i of j is set, as in apply()
    half = 1
    for g in reversed(map_.generators):
        values[half : 2 * half] = values[:half] ^ np.uint64(g.value)
        half *= 2
    return TruthTableMap(n, m, values)


# ---------------------------------------------------------------------------
# File formats. Both start with a "n m" header line. A generator matrix
# file follows with n rows of m characters; a truth table file with 2^n
# lines "input output" in ascending input order. Serialization is
# canonical (single \n separators, trailing newline) so files round-trip
# byte for byte.


def serialize_generator_matrix(map_: LinearMap) -> str:
    lines = [f"{map_.input_dim} {map_.output_dim}"]
    lines.extend(str(g) for g in map_.generators)
    return "\n".join(lines) + "\n"


def parse_generator_matrix(text: str) -> LinearMap:
    lines = _split_lines(text)
    n, m = _parse_header(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after header, got {len(lines) - 1}")
    return LinearMap(n, m, tuple(BitWord.parse(row) for row in lines[1:]))


def serialize_truth_table(map_: TruthTableMap) -> str:
    n, m = map_.input_dim, map_.output_dim
    lines = [f"{n} {m}"]
    lines.extend(f"{j:0{n}b} {v:0{m}b}" for j, v in enumerate(map_.values.tolist()))
    return "\n".join(lines) + "\n"


def parse_truth_table(text: str) -> TruthTableMap:
    lines = _split_lines(text)
    n, m = _parse_header(lines[0])
    size = table_size(n)
    if len(lines) != size + 1:
        raise ValueError(
            f"expected {size} entries after header, got {len(lines) - 1}"
        )
    outputs = []
    for j, line in enumerate(lines[1:]):
        parts = line.split(" ")
        if len(parts) != 2:
            raise ValueError(f"bad table line: {line!r}")
        inp, out = parts
        if inp != format(j, f"0{n}b"):
            raise ValueError(
                f"table inputs must ascend: expected {format(j, f'0{n}b')}, got {inp!r}"
            )
        if not out or out.strip("01"):
            raise ValueError(f"not a binary word: {out!r}")
        if len(out) != m:
            raise ValueError(f"output width {len(out)} != {m}")
        outputs.append(int(out, 2))
    return TruthTableMap(n, m, np.array(outputs, dtype=np.uint64))


def parse_map_file(text: str) -> LinearMap | TruthTableMap:
    """Sniff the format from line 2: table lines carry two fields, matrix rows one."""
    # [:2] drops the rest of the text before the chosen parser splits it
    head = _split_lines(text, 2)[:2]
    if len(head) < 2:
        raise ValueError("map file needs a header and at least one row")
    if " " in head[1]:
        return parse_truth_table(text)
    return parse_generator_matrix(text)


def _split_lines(text: str, maxsplit: int = -1) -> list[str]:
    if not text.endswith("\n"):
        raise ValueError("map file must end with a newline")
    lines = text[:-1].split("\n", maxsplit)
    if not lines or not lines[0]:
        raise ValueError("empty map file")
    return lines


def _parse_header(line: str) -> tuple[int, int]:
    parts = line.split(" ")
    try:
        n, m = map(int, parts)
        # int() also reads "+2", "02", "0_2" and Arabic-Indic digits
        if [str(n), str(m)] != parts:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad header line: {line!r}") from None
    # the cap also keeps 1 << n from exhausting memory on a huge header
    if not (1 <= n <= MAX_WIDTH and 1 <= m <= MAX_WIDTH):
        raise ValueError(f"bad dimensions in header: {line!r}")
    return n, m
