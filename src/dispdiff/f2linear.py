"""Linear maps between bit-word spaces, given by their generator images.

A map is stored as the ordered list of images v_1..v_n of the standard
basis: x maps to the XOR of the v_i over the set bits of x.  Rank over
GF(2) decides injectivity.  The module also owns the two on-disk formats
(generator matrix and explicit truth table) used by the CLI.
"""

from __future__ import annotations

import importlib.util
import sys
from typing import Iterable

from .bitword import MAX_WIDTH, BitWord, Record


def _lazy_numpy():
    """numpy, loaded on first attribute access: commands that build, read
    or scan no truth table never import it. Package code takes `np` from
    here (`import numpy` reads the lazy module's __spec__, loading it).
    The load is not thread-safe before Python 3.12; a table is an array
    before `_scan` starts workers, so it happens on the calling thread."""
    if sys.modules.get("numpy") is not None:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


class LinearMap(Record):
    input_dim: int
    output_dim: int
    # m-bit ints: row i is the image of input bit 2^(n-i), and column b is
    # output bit 2^(m-b). Other modules read them through _image, _columns.
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        n, m = self.input_dim, self.output_dim
        if not (1 <= n <= MAX_WIDTH and 1 <= m <= MAX_WIDTH):
            raise ValueError(f"dimensions must be in 1..{MAX_WIDTH}")
        if len(self.generators) != n:
            raise ValueError(f"expected {n} generators, got {len(self.generators)}")
        for g in self.generators:
            if not (isinstance(g, int) and 0 <= g < 1 << m):
                raise ValueError(f"generator {g!r} is not an int in 0..2^{m}-1")

    def is_injective(self) -> bool:
        # a linear map is injective iff its generators are independent
        return rank(self.generators) == self.input_dim

    def lookup(self, x: BitWord) -> BitWord:
        """Image of x: XOR of the generators at the set bits of x."""
        if x.width != self.input_dim:
            raise ValueError(f"width mismatch: {x.width} != {self.input_dim}")
        return BitWord(self.output_dim, self._image(x.value))

    def _image(self, x: int) -> int:
        """Image of the n-bit int x: XOR of row i over its set bits 2^(n-i)."""
        acc = 0
        while x:
            low = x & -x
            acc ^= self.generators[self.input_dim - low.bit_length()]
            x ^= low
        return acc

    def _columns(self) -> list[int]:
        """Columns 1..m, leftmost first, as n-bit ints with row 1 on top."""
        n, m = self.input_dim, self.output_dim
        rows = list(enumerate(self.generators, start=1))
        return [
            sum((g >> (m - b) & 1) << (n - i) for i, g in rows)
            for b in range(1, m + 1)
        ]


class TruthTableMap(Record):
    """Explicit input -> output table for an arbitrary map between word
    spaces. ``values[j]`` is the image of the input with integer value j,
    held as a read-only uint64 array, copied from the non-negative
    integer array the map is built from."""

    input_dim: int
    output_dim: int
    values: np.ndarray

    def __post_init__(self) -> None:
        n, m = self.input_dim, self.output_dim
        if not (1 <= n <= MAX_WIDTH and 1 <= m <= MAX_WIDTH):
            raise ValueError(f"dimensions must be in 1..{MAX_WIDTH}")
        entries = self.values
        ok = isinstance(entries, np.ndarray) and entries.dtype.kind in "ui"
        if not ok or np.any(entries < 0):
            raise ValueError("table values must be a non-negative integer array")
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

    def is_injective(self) -> bool:
        # a repeated value shows as a zero step between sorted neighbours
        return bool(np.all(np.diff(np.sort(self.values))))

    def lookup(self, x: BitWord) -> BitWord:
        if x.width != self.input_dim:
            raise ValueError(f"width mismatch: {x.width} != {self.input_dim}")
        return BitWord(self.output_dim, int(self.values[x.value]))


def rank(rows: Iterable[int]) -> int:
    """Rank of the integer rows over GF(2).

    Forward elimination, pivoting on the highest remaining bit (the lowest
    word index).
    """
    pivots: dict[int, int] = {}
    r = 0
    for v in rows:
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
    return LinearMap(n, m, tuple(map_._columns()))


MAX_TABLE_BITS = 28  # the largest table any call builds: 2^28 uint64s, 2 GiB


def table_size(n: int) -> int:
    """Entry count 2^n of an n-input table, refused above 2^MAX_TABLE_BITS
    before 2^n is computed."""
    if n > MAX_TABLE_BITS:
        raise ValueError(
            f"a table on n={n} inputs exceeds the cap of 2^{MAX_TABLE_BITS} entries"
        )
    return 1 << n


def tabulate(map_: LinearMap) -> TruthTableMap:
    """Materialize the full truth table: entry j = map.lookup(word j)."""
    n, m = map_.input_dim, map_.output_dim
    values = np.zeros(table_size(n), dtype=np.uint64)
    # entry j XORs in generator i iff bit n-1-i of j is set, as in lookup()
    half = 1
    for g in reversed(map_.generators):
        values[half : 2 * half] = values[:half] ^ np.uint64(g)
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
    lines.extend(format(g, f"0{map_.output_dim}b") for g in map_.generators)
    return "\n".join(lines) + "\n"


def parse_generator_matrix(text: str) -> LinearMap:
    _header_end(text)
    lines = text[:-1].split("\n")
    n, m = _parse_header(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after header, got {len(lines) - 1}")
    rows = [BitWord.parse(row) for row in lines[1:]]
    for row in rows:
        if row.width != m:
            raise ValueError(f"generator width {row.width} != output dim {m}")
    return LinearMap(n, m, tuple(row.value for row in rows))


def serialize_truth_table(map_: TruthTableMap) -> str:
    """The canonical table file, "n m" then one "input output" line per
    entry, written as one uint8 array: each digit column is set for every
    line at once, so no Python loop runs per line."""
    n, m = map_.input_dim, map_.output_dim
    header = f"{n} {m}\n".encode()
    width = n + m + 2
    flat = np.empty(len(header) + table_size(n) * width, dtype=np.uint8)
    flat[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    rows = flat[len(header) :].reshape(-1, width)
    for lo in range(0, len(rows), _BLOCK_ROWS):
        block = rows[lo : lo + _BLOCK_ROWS]
        hi = lo + len(block)
        _write_bits(block[:, :n], np.arange(lo, hi, dtype=np.uint64))
        block[:, n] = ord(" ")
        _write_bits(block[:, n + 1 : -1], map_.values[lo:hi])
        block[:, -1] = ord("\n")
    return str(flat.data, "ascii")


def parse_truth_table(text: str) -> TruthTableMap:
    """Read a table file in one array pass over its lines.

    The header checks come first, then the entry count. The lines are
    then checked as columns of one uint8 array; the first line that is
    not canonical, if any, goes to ``_check_table_line``, which formats
    the same message the per-line reading would raise first.
    """
    header_end = _header_end(text)
    n, m = _parse_header(text[:header_end])
    size = table_size(n)
    entries = text.count("\n") - 1
    if entries != size:
        raise ValueError(f"expected {size} entries after header, got {entries}")
    # "replace" turns each non-ASCII character into one b"?", which no
    # canonical line holds, so byte offsets stay str offsets
    data = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    body = data[header_end + 1 :]
    width = n + m + 2
    # lines before the first one of the wrong length sit at multiples of
    # width; that line itself fails the column checks or starts row `fit`
    fit = min(size, len(body) // width)
    rows = body[: fit * width].reshape(fit, width)
    # the extra entry stands for line `fit`: bad unless fit == size
    flagged = np.zeros(fit + 1, dtype=bool)
    flagged[fit] = True
    values = np.empty(fit, dtype=np.uint64)
    for lo in range(0, fit, _BLOCK_ROWS):
        block = rows[lo : lo + _BLOCK_ROWS]
        hi = lo + len(block)
        bad = flagged[lo:hi]
        inputs = _read_bits(block[:, :n], bad)
        bad |= inputs != np.arange(lo, hi, dtype=np.uint64)
        bad |= block[:, n] != ord(" ")
        values[lo:hi] = _read_bits(block[:, n + 1 : -1], bad)
        bad |= block[:, -1] != ord("\n")
    j = int(np.argmax(flagged))
    if j < size:
        start = header_end + 1 + j * width
        _check_table_line(j, text[start : text.index("\n", start)], n, m)
        raise AssertionError(f"table line {j} flagged but canonical")
    return TruthTableMap(n, m, values)


# lines per block of the array passes: one block's columns stay in cache
# while each is read or written in turn (at n = 20 on 2 vCPUs, 2^14 beat
# 2^12 and 2^16, and one pass per column over the whole table was 2-3
# times slower)
_BLOCK_ROWS = 1 << 14


def _write_bits(columns: np.ndarray, values: np.ndarray) -> None:
    """Write values as '0'/'1' digits, most significant first, one column
    of the uint8 array at a time."""
    for col, shift in enumerate(range(columns.shape[1] - 1, -1, -1)):
        columns[:, col] = (values >> np.uint64(shift)) & np.uint64(1)
    columns += ord("0")


def _read_bits(columns: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """The inverse of _write_bits by shift-accumulate; a row holding a
    byte other than '0' or '1' is marked in bad."""
    values = np.zeros(len(columns), dtype=np.uint64)
    for col in range(columns.shape[1]):
        digit = columns[:, col] - np.uint8(ord("0"))
        bad |= digit > 1
        values <<= np.uint64(1)
        values |= digit
    return values


def _check_table_line(j: int, line: str, n: int, m: int) -> None:
    """Raise on table line j unless it has the canonical "input output"
    form, with the message for its first fault."""
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


def parse_map_file(text: str) -> LinearMap | TruthTableMap:
    """Sniff the format from line 2: table lines carry two fields, matrix rows one."""
    # only line 2 is cut out: splitting the whole text would copy a table
    header_end = _header_end(text)
    line2_end = text.find("\n", header_end + 1)
    if line2_end < 0:
        raise ValueError("map file needs a header and at least one row")
    if " " in text[header_end + 1 : line2_end]:
        return parse_truth_table(text)
    return parse_generator_matrix(text)


def _header_end(text: str) -> int:
    """Offset of the newline that ends the header line, after the checks
    that come first in every map file."""
    if not text.endswith("\n"):
        raise ValueError("map file must end with a newline")
    end = text.index("\n")
    if end == 0:
        raise ValueError("empty map file")
    return end


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
