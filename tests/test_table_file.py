"""The table file's block passes against the per-line reader and writer
in ``naive``: byte-identical files, equal tables, and the same outcome for
every malformed file, with the per-line checker run on one line at most.
The block passes write and read binary file objects, here ``io.BytesIO``
over the file's bytes; ``naive`` reads and writes text, and a file's
bytes are its text encoded as UTF-8."""

import io
import os
import random
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from dispdiff import (
    LinearMap,
    TruthTableMap,
    g_table,
    parse_map_file,
    serialize_truth_table,
)
from dispdiff import f2linear
from dispdiff.cli import main
from peakmem import MB, peak_below
from tablebytes import small_blocks, table_bytes


def _random_table(rng: random.Random, n: int, m: int) -> TruthTableMap:
    values = [rng.getrandbits(m) for _ in range(1 << n)]
    return TruthTableMap(n, m, np.array(values, dtype=np.uint64))


def _tables():
    rng = random.Random(20131)
    yield TruthTableMap(1, 64, np.array([1 << 63, (1 << 64) - 1], dtype=np.uint64))
    yield TruthTableMap(1, 1, np.array([1, 0], dtype=np.uint64))
    yield _random_table(rng, 12, 64)
    for _ in range(40):
        yield _random_table(rng, rng.randint(1, 12), rng.randint(1, 64))


def _parse(text: str) -> LinearMap | TruthTableMap:
    return parse_map_file(io.BytesIO(text.encode()))


def _as_read(text: str) -> str:
    """text as a map file holding it is read: UTF-8, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8").read()


def _outcome(parse, file):
    """What parse makes of a file: the table as (n, m, outputs), the matrix
    as (n, m, rows) or the message."""
    try:
        parsed = parse(file)
    except ValueError as exc:
        return str(exc)
    if isinstance(parsed, TruthTableMap):
        return parsed.input_dim, parsed.output_dim, parsed.values.tolist()
    if isinstance(parsed, LinearMap):
        return parsed.input_dim, parsed.output_dim, list(parsed.generators)
    return parsed


@contextmanager
def checked_lines():
    """Collects the line numbers parse_map_file hands to the per-line
    checker inside the block."""
    seen = []
    check = f2linear._check_table_line

    def counted(j, line, n, m):
        seen.append(j)
        return check(j, line, n, m)

    f2linear._check_table_line = counted
    try:
        yield seen
    finally:
        f2linear._check_table_line = check


@pytest.mark.parametrize(
    "table", list(_tables()), ids=lambda t: f"n{t.input_dim}m{t.output_dim}"
)
def test_matches_per_line_reader_and_writer(table):
    n, m, values = table.input_dim, table.output_dim, table.values.tolist()
    data = table_bytes(table)
    assert data == naive.serialize_table(n, m, values).encode()
    with checked_lines() as seen:
        assert parse_map_file(io.BytesIO(data)) == table
    assert naive.parse_table(data.decode()) == (n, m, values)
    assert seen == []
    with small_blocks(97):
        assert table_bytes(table) == data
        assert parse_map_file(io.BytesIO(data)) == table


SUBSTITUTES = ["0", "1", "2", " ", "\n", "\t", "\r", "١"]


@st.composite
def malformed_tables(draw) -> str:
    """g_table(n)'s file (n = 2..6, or a two-line table for n = 1) with one
    to three faults: a character substituted, deleted or inserted, two
    lines swapped, a line repeated, or the final newline dropped."""
    n = draw(st.integers(1, 6))
    table = g_table(n) if n > 1 else TruthTableMap(1, 2, np.array([1, 2], dtype=np.uint64))
    text = table_bytes(table).decode()
    # faults uniform over the text: Hypothesis's own draws favour 0
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(draw(st.integers(1, 3))):
        kind = rng.choice(["sub", "del", "ins", "swap", "dup"] * 2 + ["eol"])
        at = rng.randrange(max(len(text), 1))
        char = rng.choice(SUBSTITUTES)
        if kind == "sub":
            text = text[:at] + char + text[at + 1 :]
        elif kind == "del":
            text = text[:at] + text[at + 1 :]
        elif kind == "ins":
            text = text[:at] + char + text[at:]
        elif kind == "eol":
            text = text[:-1] if text.endswith("\n") else text
        else:
            lines = text.splitlines(keepends=True)  # each with its own newline
            i, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            if kind == "swap":
                lines[i], lines[k] = lines[k], lines[i]
            else:
                lines.insert(k, lines[i])
            text = "".join(lines)
    return text


@settings(max_examples=600, deadline=None)
@given(malformed_tables())
def test_malformed_files_fail_as_the_per_line_reader_does(text):
    # a \r ends a line, as in the text the per-line reader is given; a
    # file whose line 2 lost its space, or that has no line 2, is read as
    # a matrix file would be
    expected = _outcome(naive.parse_map, _as_read(text))
    with checked_lines() as seen:
        assert _outcome(_parse, text) == expected
    assert len(seen) <= 1
    with small_blocks(3):
        assert _outcome(_parse, text) == expected


def test_every_position_fails_as_the_per_line_reader_does():
    # the hypothesis test samples this; here each substitute at each byte
    # after the header of a table read in four blocks, the last one short
    text = table_bytes(g_table(4)).decode()
    start = len("4 4\n")
    for at in range(start, len(text)):
        for char in SUBSTITUTES:
            bad = text[:at] + char + text[at + 1 :]
            expected = _outcome(naive.parse_map, _as_read(bad))
            with small_blocks(5), checked_lines() as seen:
                assert _outcome(_parse, bad) == expected
            assert len(seen) <= 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2\n0 01\n0 10\n", "table inputs must ascend: expected 1, got '0'"),
        ("1 2\n0 01\n1 1\n", "output width 1 != 2"),
        ("1 2\n0 01\n1 10 \n", "bad table line: '1 10 '"),
        ("1 2\n0 0١1\n1 10\n", "not a binary word: '0١1'"),
        ("2 1\n00 1\n01 0\n10 1\n11 \n", "not a binary word: ''"),
        ("1 1\n0 1\n1 0\n\n", "expected 2 entries after header, got 3"),
    ],
)
def test_first_fault_message(text, message):
    with checked_lines() as seen, pytest.raises(ValueError) as exc:
        _parse(text)
    assert str(exc.value) == message == _outcome(naive.parse_table, text)
    assert len(seen) <= 1


# the field widths either side of a byte and of the 64-bit word
FIELD_WIDTHS = [1, 7, 8, 9, 63, 64]


def _edge_values(rng: random.Random, n: int, m: int) -> list[int]:
    """2^n outputs of m bits: random, then 0, all ones and each end bit
    alone at the front, so that every digit of the field is written as 0
    and as 1."""
    values = [rng.getrandbits(m) for _ in range(1 << n)]
    edges = [0, (1 << m) - 1, 1, 1 << (m - 1)]
    return (edges + values)[: 1 << n]


@pytest.mark.parametrize("m", FIELD_WIDTHS)
@pytest.mark.parametrize("n", [1, 7, 8, 9, 12, 14])
def test_field_widths_match_the_format_oracle(n, m):
    # n = 14 fills two blocks; every smaller n is one short block
    rng = random.Random(n * 100 + m)
    values = _edge_values(rng, n, m)
    table = TruthTableMap(n, m, np.array(values, dtype=np.uint64))
    data = table_bytes(table)
    lines = [f"{format(j, f'0{n}b')} {format(v, f'0{m}b')}\n" for j, v in enumerate(values)]
    assert data == (f"{n} {m}\n" + "".join(lines)).encode()
    parsed = parse_map_file(io.BytesIO(data))
    assert parsed == table and parsed.values.tolist() == values


def _fault_rows(rows: int, size: int) -> list[int]:
    """Rows worth corrupting in a table of `size` lines read `rows` lines
    a block: the first and last of the table and of each side of the
    first block boundary."""
    return sorted({0, rows - 1, rows, size - 1} & set(range(size)))


# byte offsets in a line "input output\n" of an (n, m) table: the first
# and last digit of each field, then the space and the newline
def _fault_columns(n: int, m: int) -> list[int]:
    return [0, n - 1, n + 1, n + m, n, n + m + 1]


@pytest.mark.parametrize("byte", [b"2", b"/", b" ", b"\n", b"\t", b"\x00"])
@pytest.mark.parametrize("n, m, rows", [(9, 9, 97), (7, 64, 40), (8, 1, 64)])
def test_bad_byte_names_its_line_at_a_field_edge(n, m, rows, byte):
    rng = random.Random(n + m)
    table = TruthTableMap(n, m, np.array(_edge_values(rng, n, m), dtype=np.uint64))
    data = table_bytes(table)
    width, start = n + m + 2, len(f"{n} {m}\n")
    for row in _fault_rows(rows, 1 << n):
        for col in _fault_columns(n, m):
            at = start + row * width + col
            # a lost newline joins two lines, and two wide ones are refused
            # as one line longer than 129 bytes before any is checked
            joined = col == n + m + 1 and 2 * width > 130
            if data[at : at + 1] == byte or joined:
                continue
            text = (data[:at] + byte + data[at + 1 :]).decode()
            expected = _outcome(naive.parse_map, text)
            assert isinstance(expected, str)
            with small_blocks(rows), checked_lines() as seen:
                assert _outcome(_parse, text) == expected
            # a byte that keeps the line's length leaves it where it was
            assert seen in ([row], [])


@pytest.mark.parametrize("n, m, rows", [(9, 9, 97), (7, 64, 40)])
def test_flipped_input_digit_names_its_line(n, m, rows):
    # '0' <-> '1' keeps every byte a digit: only the inputs' digits catch it
    table = TruthTableMap(n, m, np.array(_edge_values(random.Random(n), n, m), dtype=np.uint64))
    data = table_bytes(table)
    width, start = n + m + 2, len(f"{n} {m}\n")
    for row in _fault_rows(rows, 1 << n):
        for col in (0, n - 1):
            at = start + row * width + col
            text = (data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]).decode()
            with small_blocks(rows), checked_lines() as seen:
                assert _outcome(_parse, text) == _outcome(naive.parse_map, text)
            assert seen == [row]


def test_first_of_two_bad_lines_in_one_block_is_named():
    n, m = 9, 9
    data = bytearray(table_bytes(g_table(n)))
    width, start = n + m + 2, len(f"{n} {m}\n")
    data[start + 300 * width + n + 1] = ord("2")
    data[start + 200 * width + n + m] = ord("3")
    expected = _outcome(naive.parse_map, data.decode())
    assert expected.startswith("not a binary word: ") and expected.endswith("3'")
    with small_blocks(1 << n), checked_lines() as seen:
        assert _outcome(_parse, data.decode()) == expected
    assert seen == [200]


def test_undecodable_byte_fails_with_the_codec_message():
    # a file that is not plain is checked as UTF-8 whole first: a byte that
    # is not UTF-8 fails with the codec's message, as in the CLI
    with pytest.raises(ValueError) as exc:
        parse_map_file(io.BytesIO(b"1 2\n0 0\xff1\n1 10\n"))
    assert str(exc.value) == (
        "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"
    )


def _survey_edges(data: bytes, rows: int) -> list[int]:
    """The first byte of each survey block after the first, for a file of
    data read `rows` longest lines a block, and the file's end."""
    step = rows * f2linear._LINE_BYTES
    return [*range(step, len(data), step), len(data)]


class _Reads(io.BytesIO):
    """io.BytesIO over data that records the size of each readinto buffer."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.sizes = []

    def readinto(self, buffer) -> int:
        self.sizes.append(len(buffer))
        return super().readinto(buffer)


TWO_BYTES = "\u0661".encode()  # ARABIC-INDIC DIGIT ONE

# each at the last byte of a survey block, at the first of the next and
# one byte past it; the final newline truncates the file there
SURVEY_EDITS = {
    "newline": lambda data, at: data[:at] + b"\n" + data[at + 1 :],
    "crlf": lambda data, at: data[:at] + b"\r\n" + data[at + 2 :],
    "lone-cr": lambda data, at: data[:at] + b"\r" + data[at + 1 :],
    "two-byte": lambda data, at: data[:at] + TWO_BYTES + data[at + 2 :],
    "final-newline": lambda data, at: data[:at] + b"\n",
}


@pytest.mark.parametrize("edit", SURVEY_EDITS)
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_survey_block_edges(rows, edit):
    data = table_bytes(g_table(6))  # 900 bytes: 3 to 7 survey blocks
    for edge in _survey_edges(data, rows)[:-1]:
        for at in (edge - 1, edge, edge + 1):
            bad = SURVEY_EDITS[edit](data, at)
            expected = _outcome(parse_map_file, io.BytesIO(bad))
            fh = _Reads(bad)
            with small_blocks(rows):
                survey = f2linear._survey(fh)
                assert _outcome(parse_map_file, io.BytesIO(bad)) == expected
            plain = bad.isascii() and b"\r" not in bad
            assert survey == (bad.count(b"\n"), bad.endswith(b"\n"), plain)
            assert fh.sizes[0] == rows * f2linear._LINE_BYTES


# whole, truncated and invalid UTF-8 sequences, and their codec messages
UTF8_SEQUENCES = [
    TWO_BYTES, "\u20ac".encode(), "\U0001f600".encode(),
    b"\xff", b"\x80", b"\xc3", b"\xc0\xaf", b"\xe0\x80", b"\xe2\x82",
    b"\xed\xa0\x80", b"\xf0\x9f\x98", b"\xf4\x90\x80\x80",
]


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_utf8_check_in_blocks_fails_as_the_whole_file_would(rows):
    # each sequence from three bytes before a block edge to one past it,
    # in the file and as its last bytes: the message data.decode() raises
    data = table_bytes(g_table(6))
    for edge in _survey_edges(data, rows):
        for seq in UTF8_SEQUENCES:
            for at in range(edge - 3, edge + 2):
                for bad in (data[:at] + seq + data[at + len(seq) :], data[:at] + seq):
                    try:
                        bad.decode()
                    except UnicodeDecodeError as exc:
                        expected = str(exc)
                    else:
                        expected = _outcome(parse_map_file, io.BytesIO(bad))
                    with small_blocks(rows):
                        assert _outcome(parse_map_file, io.BytesIO(bad)) == expected


def test_hostile_header_costs_no_table():
    # 2^28 entries of 64 bits would be 2 GiB; two lines are counted first
    data = b"28 64\n" + b"0" * 28 + b" " + b"0" * 64 + b"\n"
    block = f2linear._BLOCK_ROWS * f2linear._LINE_BYTES
    with peak_below(block + MB), pytest.raises(ValueError) as exc:
        parse_map_file(io.BytesIO(data + data[6:]))
    assert str(exc.value) == "expected 268435456 entries after header, got 2"


def _g18_file(tmp_path, edit) -> tuple:
    """g_table(18), and a path holding its file's bytes after edit."""
    table = g_table(18)
    path = tmp_path / "g18.tt"
    path.write_bytes(edit(table_bytes(table)))
    return table, path


def test_crlf_file_is_held_about_twice(tmp_path):
    # the bytes as read and their copy with \n for \r\n; no decoded text
    # and no re-encoding of it is made
    table, path = _g18_file(tmp_path, lambda data: data.replace(b"\n", b"\r\n"))
    with open(path, "rb") as fh, peak_below(path.stat().st_size * 5 // 2):
        assert parse_map_file(fh) == table


def test_non_ascii_file_is_decoded_once(tmp_path):
    # the str decoded only to check the bytes are UTF-8 is dropped at once,
    # before the newlines are translated or any line is read
    one = "\u0661".encode()  # ARABIC-INDIC DIGIT ONE, in the last output
    _, path = _g18_file(tmp_path, lambda data: data[:-5] + one + data[-4:])
    with open(path, "rb") as fh, peak_below(path.stat().st_size * 9 // 2):
        with pytest.raises(ValueError) as exc:
            parse_map_file(fh)
    assert str(exc.value) == "not a binary word: '10101010101010\u0661011'"


@pytest.mark.parametrize(
    "char, message",
    [
        (TWO_BYTES, "not a binary word: '010101010101\u0661100'"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 2228225: "
         "invalid start byte"),
    ],
    ids=["utf-8", "not-utf-8"],
)
def test_non_ascii_file_is_held_about_twice(tmp_path, char, message):
    # as a CRLF file is: the UTF-8 check holds one block's str at a time,
    # never one the size of the file
    data = table_bytes(g_table(16))
    path = tmp_path / "g16.tt"
    path.write_bytes(data[:-5] + char + data[-4:])
    with open(path, "rb") as fh, peak_below(path.stat().st_size * 5 // 2):
        with pytest.raises(ValueError) as exc:
            parse_map_file(fh)
    assert str(exc.value) == message


LONG = 4 * MB  # a line this long would be held whole by an unbounded read


@pytest.mark.parametrize(
    "data, message",
    [
        (b"1" * LONG + b"\n0 01\n1 10\n", "line 1 is longer than 129 bytes"),
        (b"1 2\n" + b"0" * LONG + b" 01\n1 10\n", "line 2 is longer than 129 bytes"),
        (b"2 4\n0101\n" + b"0" * LONG + b"\n", "line 3 is longer than 129 bytes"),
        (b"1 2\n0 01\n1 " + b"1" * LONG + b"\n", "line 3 is longer than 129 bytes"),
        # a canonical line is at most 129 bytes and its newline
        (b"1 " + b"1" * 127 + b"\n0 01\n", "bad dimensions in header: '1 " + "1" * 127 + "'"),
        (b"1 " + b"1" * 128 + b"\n0 01\n", "line 1 is longer than 129 bytes"),
        (b"1 2\n0 01\n1 " + b"1" * 127 + b"\n", "output width 127 != 2"),
        (b"1 2\n0 01\n1 " + b"1" * 128 + b"\n", "line 3 is longer than 129 bytes"),
        (b"2 4\n0101\n" + b"0" * 129 + b"\n", "width must be in 1..64, got 129"),
        (b"2 4\n0101\n" + b"0" * 130 + b"\n", "line 3 is longer than 129 bytes"),
    ],
    ids=[
        "header", "line-2", "matrix-row", "table-line",
        "header-129", "header-130", "table-line-129", "table-line-130",
        "matrix-row-129", "matrix-row-130",
    ],
)
def test_long_line_is_refused_unread(tmp_path, capsys, data, message):
    # each line is read 130 bytes at most, so no line is held whole
    path = tmp_path / "long"
    path.write_bytes(data)
    block = f2linear._BLOCK_ROWS * f2linear._LINE_BYTES
    with open(path, "rb") as fh, peak_below(block + MB):
        with pytest.raises(ValueError) as exc:
            parse_map_file(fh)
    assert str(exc.value) == message
    for argv in (["info"], ["verify", "dispersive"]):
        assert main([*argv, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_fifo_table_verifies_as_its_file(tmp_path, capsys):
    # a FIFO cannot seek, so it is read whole first
    data = table_bytes(g_table(8))
    path, fifo = tmp_path / "g8.tt", tmp_path / "g8.fifo"
    path.write_bytes(data)
    assert main(["verify", "diffusive", str(path)]) == 0
    expected = capsys.readouterr()
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        assert main(["verify", "diffusive", str(fifo)]) == 0
    finally:
        if writer.is_alive():  # main never opened it: let the writer's open return
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert capsys.readouterr() == expected


class TestPeakMemory:
    """No buffer the size of the file is held: writing moves its lines
    through one block, parsing through the block it reads and the one the
    writer makes to compare it with, and the CLI holds the table it builds or
    reads, not the file. An n = 16 file is 2.1 MiB and its table 0.5 MiB;
    an n = 20 file is 42 MiB and its table 8 MiB."""

    N = 16
    TABLE_BYTES = 8 << N
    FILE_BYTES = len(b"16 16\n") + ((2 * N + 2) << N)
    # the most bytes pass 1 reads at once; a block of n = 16 lines is
    # 8192 * 34 bytes, and their column arrays fit beside it
    BLOCK = f2linear._BLOCK_ROWS * f2linear._LINE_BYTES

    def test_serialize(self, tmp_path):
        table = g_table(self.N)
        path = tmp_path / "g16.tt"
        with open(path, "wb") as fh, peak_below(self.TABLE_BYTES + self.BLOCK):
            serialize_truth_table(table, fh)
        assert path.stat().st_size == self.FILE_BYTES

    def test_parse(self, tmp_path):
        table = g_table(self.N)
        path = tmp_path / "g16.tt"
        path.write_bytes(table_bytes(table))
        with open(path, "rb") as fh, peak_below(self.TABLE_BYTES + self.BLOCK):
            parsed = parse_map_file(fh)
        assert parsed == table

    # g_table(20) builds its 8 MiB table a block at a time; the verifier
    # adds its 2.5 MiB of bit planes, a copy of them while it scans and a
    # 1 MiB injectivity bitmap, and the 42 MiB file adds nothing to that
    TABLE_20 = 8 << 20

    def test_construct_command(self, tmp_path, capsys):
        path = tmp_path / "g20.tt"
        argv = ["construct", "diffusive", "--n", "20", "--out", str(path)]
        with peak_below(self.TABLE_20 + 2 * MB):
            assert main(argv) == 0
        assert path.read_bytes() == table_bytes(g_table(20))

    def test_verify_command(self, tmp_path, capsys):
        path = tmp_path / "g20.tt"
        path.write_bytes(table_bytes(g_table(20)))
        with peak_below(2 * self.TABLE_20 + 2 * MB):
            assert main(["verify", "diffusive", str(path)]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")
