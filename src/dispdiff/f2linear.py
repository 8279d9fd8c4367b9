"""Linear maps between bit-word spaces, given by their generator images.

A map is stored as the ordered list of images v_1..v_n of the standard
basis: x maps to the XOR of the v_i over the set bits of x.  Rank over
GF(2) decides injectivity.  The module also owns the two on-disk formats
(generator matrix and explicit truth table) used by the CLI.
"""

from __future__ import annotations

import importlib.util
import io
import sys
from typing import BinaryIO, Iterable, Iterator

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
        object.__setattr__(self, "generators", tuple(self.generators))
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
    integer array the map is built from. The library's own builders adopt
    the fresh array they fill instead (``_adopt``)."""

    input_dim: int
    output_dim: int
    values: np.ndarray

    @classmethod
    def _adopt(cls, n: int, m: int, values: np.ndarray) -> TruthTableMap:
        """The map over values, a fresh uint64 array that no caller keeps:
        checked as the constructor checks it, then made read-only in place
        instead of copied, which saves one table per build."""
        map_ = cls.__new__(cls)
        map_.__dict__.update(input_dim=n, output_dim=m, values=values)
        map_.__post_init__(copy=False)
        return map_

    def __post_init__(self, copy: bool = True) -> None:
        n, m = self.input_dim, self.output_dim
        if not (1 <= n <= MAX_WIDTH and 1 <= m <= MAX_WIDTH):
            raise ValueError(f"dimensions must be in 1..{MAX_WIDTH}")
        entries = self.values
        ok = isinstance(entries, np.ndarray) and entries.dtype.kind in "ui"
        if not ok or (entries.dtype.kind == "i" and np.any(entries < 0)):
            raise ValueError("table values must be a non-negative integer array")
        values = np.array(entries, dtype=np.uint64, copy=copy)
        if values.shape != (1 << n,):
            raise ValueError(f"table must have {1 << n} entries, got {values.size}")
        # the widest entry alone is shifted: no table-sized temporary
        if int(values.max()) >> m:
            raise ValueError(f"table entry wider than output dim {m}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTableMap):
            return NotImplemented
        same = np.array_equal(self.values, other.values)  # hence same input_dim
        return same and self.output_dim == other.output_dim

    def is_injective(self) -> bool:
        if self.output_dim <= self.input_dim + 3:
            # a byte per output word is at most the table's bytes: no sort
            seen = np.zeros(1 << self.output_dim, dtype=bool)
            seen[self.values] = True
            return int(np.count_nonzero(seen)) == len(self.values)
        # a repeated value shows as equal sorted neighbours; comparing them
        # makes a bool array, where np.diff made a uint64 one
        s = np.sort(self.values)
        return bool(np.all(s[1:] != s[:-1]))

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
    return LinearMap(n, m, map_._columns())


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
        np.bitwise_xor(values[:half], np.uint64(g), out=values[half : 2 * half])
        half *= 2
    return TruthTableMap._adopt(n, m, values)


# ---------------------------------------------------------------------------
# File formats. A map file is ASCII bytes, and both formats start with a
# "n m" header line. A generator matrix file follows with n rows of m
# characters; a truth table file with 2^n lines "input output" in
# ascending input order. Serialization is canonical (single \n
# separators, trailing newline) so files round-trip byte for byte.
# parse_map_file is the one reader. A plain file (one that can seek, is
# pure ASCII and holds no \r) is read as bytes in two passes: the first
# counts its lines, and the second reads its rows. Any other file is read
# whole, must be UTF-8, and has each \r\n and lone \r read as \n (neither
# byte occurs inside a UTF-8 sequence). The reader holds the block of
# _BLOCK_ROWS table lines it reads and the writer's, and accepts a block iff
# it re-encodes to itself. Any other line is read _LINE_BYTES at most, so
# no buffer the size of a plain file is ever held.


def serialize_generator_matrix(map_: LinearMap) -> bytes:
    lines = [f"{map_.input_dim} {map_.output_dim}"]
    lines.extend(format(g, f"0{map_.output_dim}b") for g in map_.generators)
    return ("\n".join(lines) + "\n").encode()


def _parse_generator_matrix(fh: BinaryIO, n: int, m: int, rows: int) -> LinearMap:
    """The matrix file at line 2 of fh, which holds `rows` lines more."""
    if rows != n:
        raise ValueError(f"expected {n} rows after header, got {rows}")
    words = [BitWord.parse(_readline(fh, i)[:-1].decode()) for i in range(2, n + 2)]
    for word in words:
        if word.width != m:
            raise ValueError(f"generator width {word.width} != output dim {m}")
    return LinearMap(n, m, [word.value for word in words])


def serialize_truth_table(map_: TruthTableMap, fh: BinaryIO) -> None:
    """Write the canonical table file to the binary file object fh: "n m"
    then one "input output" line per entry, a block at a time."""
    n, m = map_.input_dim, map_.output_dim
    fh.write(f"{n} {m}\n".encode())
    for block in _table_lines(n, m, map_.values):
        fh.write(block)


def _table_lines(n: int, m: int, values: np.ndarray) -> Iterator[np.ndarray]:
    """The table's canonical lines, the one definition of them: each block
    of _BLOCK_ROWS in turn, filled in one reused uint8 array a whole field
    at a time. values[lo:hi] is read only as its block is filled, so a
    reader may fill it just before."""
    size = len(values)
    buf = np.empty((min(size, _BLOCK_ROWS), n + m + 2), dtype=np.uint8)
    buf[:, n] = ord(" ")
    buf[:, -1] = ord("\n")
    for lo in range(0, size, _BLOCK_ROWS):
        block = buf[: size - lo]
        hi = lo + len(block)
        _write_bits(block[:, :n], np.arange(lo, hi, dtype=np.uint64))
        _write_bits(block[:, n + 1 : -1], values[lo:hi])
        yield block


def _parse_truth_table(fh: BinaryIO, n: int, m: int, entries: int) -> TruthTableMap:
    """Read the table file at line 2 of fh, which holds `entries` lines
    more, a block at a time.

    The cap and the entry count are checked first, so the table is
    allocated only for a file with one line per entry. Each block's
    outputs are then read from bit 0 of their digits, and the block is
    accepted iff it equals the lines ``_table_lines`` writes for them, so
    only '0' and '1' re-encode to themselves. The first line that differs
    goes to ``_check_table_line``, which formats the same message the
    per-line reading would raise first.
    """
    size = table_size(n)
    if entries != size:
        raise ValueError(f"expected {size} entries after header, got {entries}")
    start = fh.tell()
    width = n + m + 2
    # lines before the first one of the wrong length sit at multiples of
    # width; that line itself differs from its re-encoding or starts row `fit`
    fit = min(size, (fh.seek(0, io.SEEK_END) - start) // width)
    values = np.empty(fit, dtype=np.uint64)
    buf = np.empty((min(fit, _BLOCK_ROWS), width), dtype=np.uint8)
    lines = _table_lines(n, m, values)
    fh.seek(start)
    bad_line = fit  # bad unless fit == size
    for lo in range(0, fit, _BLOCK_ROWS):
        block = buf[: fit - lo]
        if fh.readinto(block) != block.nbytes:
            raise ValueError("map file changed while it was read")
        values[lo : lo + len(block)] = _read_bits(block[:, n + 1 : -1])
        expected = next(lines)
        if not np.array_equal(block, expected):
            bad_line = lo + int(np.argmin((block == expected).all(axis=1)))
            break
    if bad_line < size:
        fh.seek(start + bad_line * width)
        line = _readline(fh, bad_line + 2)[:-1].decode()
        _check_table_line(bad_line, line, n, m)
        raise AssertionError(f"table line {bad_line} flagged but canonical")
    return TruthTableMap._adopt(n, m, values)


# entries per block of every loop over a table: the lines the codec
# writes and reads, g_table, extend_output and the bit planes of _scan.
# One block and its temporaries stay in cache (at n = 16 and 18 on 2
# vCPUs, 2^13 parsed as fast as 2^12 and faster than 2^14, and its parse
# of g16 peaked at 1.2 MB over 1.9 MB at 2^14). Other modules read it as
# f2linear._BLOCK_ROWS when a loop starts, so a patched value reaches all.
_BLOCK_ROWS = 1 << 13


def _write_bits(columns: np.ndarray, values: np.ndarray) -> None:
    """Write values as '0'/'1' digits, most significant first, into the
    uint8 array's columns: the big-endian bytes that hold the field,
    unpacked at once, made digits in place and copied."""
    width = columns.shape[1]
    nbytes = (width + 7) // 8
    octets = values.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes :]
    digits = np.unpackbits(octets, axis=1)
    digits |= ord("0")  # an add into the strided columns took twice as long
    columns[...] = digits[:, 8 * nbytes - width :]


def _read_bits(columns: np.ndarray) -> np.ndarray:
    """The inverse of _write_bits on columns of '0'/'1' digits, 8 digits
    to a word: the field, left-padded to whole words, is read as uint64s
    whose byte k holds digit k in bit 0, and one multiply gathers those 8
    bits, digit 0 highest, into the top byte."""
    words = -(-columns.shape[1] // 8)
    padded = np.zeros((len(columns), 8 * words), dtype=np.uint8)
    padded[:, padded.shape[1] - columns.shape[1] :] = columns
    chunks = padded.view("<u8")  # worked in place: no second field-sized array
    chunks &= np.uint64(0x0101010101010101)
    chunks *= np.uint64(0x8040201008040201)
    chunks >>= np.uint64(56)
    values = chunks[:, 0]
    for j in range(1, words):
        values <<= np.uint64(8)
        values |= chunks[:, j]
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


def parse_map_file(fh: BinaryIO) -> LinearMap | TruthTableMap:
    """The map in the binary file object fh, a matrix or a table file.

    A plain file (seekable, pure ASCII, no \\r) is read as it is. Any
    other is read whole and checked as UTF-8, or fails with the codec's
    message, and each \\r\\n and then each lone \\r in it is read as \\n;
    fh is left open. The format is sniffed from line 2: table lines carry
    two fields, matrix rows one."""
    plain = False
    if fh.seekable():
        lines, ends_newline, plain = _survey(fh)
    if not plain:
        data = fh.read()
        if not data.isascii():
            data.decode()  # or fail with the codec's message
        fh = io.BytesIO(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        lines, ends_newline, _ = _survey(fh)
    if not ends_newline:
        raise ValueError("map file must end with a newline")
    header = _readline(fh, 1)[:-1]
    if not header:
        raise ValueError("empty map file")
    line2 = _readline(fh, 2)
    if not line2:
        raise ValueError("map file needs a header and at least one row")
    n, m = _parse_header(header)
    fh.seek(len(header) + 1)
    parse = _parse_truth_table if b" " in line2 else _parse_generator_matrix
    return parse(fh, n, m, lines - 1)


# the longest line read: a table line at n = m = MAX_WIDTH and its newline
_LINE_BYTES = 2 * MAX_WIDTH + 2


def _readline(fh: BinaryIO, number: int) -> bytes:
    """Line `number` of the file, which starts at fh's position, with its
    newline, or b"" at the end of the file; no longer line is ever held."""
    line = fh.readline(_LINE_BYTES)
    if line and not line.endswith(b"\n"):
        raise ValueError(f"line {number} is longer than {_LINE_BYTES - 1} bytes")
    return line


# pass 1 reads a map file in blocks of this many bytes
_READ_BYTES = 1 << 20


def _survey(fh: BinaryIO) -> tuple[int, bool, bool]:
    """Pass 1 over a map file from its start, one reused block at a time:
    its newline count, whether it ends with a newline, and whether it is
    plain (pure ASCII, with no \\r). fh is left at its start."""
    fh.seek(0)
    lines, last, plain = 0, b"", True
    block = bytearray(_READ_BYTES)
    while got := fh.readinto(block):
        if got < len(block):
            del block[got:]
        lines += block.count(b"\n")
        plain = plain and block.isascii() and b"\r" not in block
        last = block[-1:]
    fh.seek(0)
    return lines, last == b"\n", plain


def _parse_header(header: bytes) -> tuple[int, int]:
    line = header.decode()
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
