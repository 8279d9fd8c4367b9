"""The table file's array passes against the per-line reader and writer
in ``naive``: byte-identical files, equal tables, and the same message for
every malformed file, with the per-line checker run on one line at most.
The array passes take and give bytes; ``naive`` reads and writes text, and
a file's bytes are its text encoded as UTF-8."""

import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from dispdiff import (
    TruthTableMap,
    g_table,
    parse_map_file,
    parse_truth_table,
    serialize_truth_table,
)
from dispdiff import f2linear
from dispdiff.cli import main
from peakmem import MB, peak_below


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


def _outcome(parse, file):
    """What parse makes of a file: the table as (n, m, outputs) or the message."""
    try:
        parsed = parse(file)
    except ValueError as exc:
        return str(exc)
    if isinstance(parsed, TruthTableMap):
        return parsed.input_dim, parsed.output_dim, parsed.values.tolist()
    return parsed


@contextmanager
def checked_lines():
    """Collects the line numbers parse_truth_table hands to the per-line
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
    data = serialize_truth_table(table)
    assert data == naive.serialize_table(n, m, values).encode()
    with checked_lines() as seen:
        assert parse_truth_table(data) == table
    assert naive.parse_table(data.decode()) == (n, m, values)
    assert seen == []


SUBSTITUTES = ["0", "1", "2", " ", "\n", "\t", "\r", "١"]


@st.composite
def malformed_tables(draw) -> str:
    """g_table(n)'s file (n = 2..6, or a two-line table for n = 1) with one
    to three faults: a character substituted, deleted or inserted, two
    lines swapped, a line repeated, or the final newline dropped."""
    n = draw(st.integers(1, 6))
    table = g_table(n) if n > 1 else TruthTableMap(1, 2, np.array([1, 2], dtype=np.uint64))
    text = serialize_truth_table(table).decode()
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
    with checked_lines() as seen:
        assert _outcome(parse_truth_table, text.encode()) == _outcome(
            naive.parse_table, text
        )
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
        parse_truth_table(text.encode())
    assert str(exc.value) == message == _outcome(naive.parse_table, text)
    assert len(seen) <= 1


def test_undecodable_byte_is_quoted_as_a_replacement_character():
    # the parsers take any bytes; only the line a message quotes is decoded
    with pytest.raises(ValueError, match="^not a binary word: '0\ufffd1'$"):
        parse_truth_table(b"1 2\n0 0\xff1\n1 10\n")


def test_refused_file_allocation_names_its_size(monkeypatch):
    # a file of 2^50 lines is more than any address space holds
    monkeypatch.setattr(f2linear, "table_size", lambda n: 1 << 50)
    size = len(b"2 2\n") + 6 * (1 << 50)
    message = f"^Unable to allocate {size} bytes for the table file$"
    with pytest.raises(MemoryError, match=message):
        serialize_truth_table(g_table(2))


class TestPeakMemory:
    """At n = 20 the file is 42 MiB and the table 8 MiB. The file's bytes
    are held once: serializing fills them in place, parsing reads them in
    place, and the CLI writes and reads them with no text copy."""

    N = 20
    FILE_BYTES = len(b"20 20\n") + ((2 * N + 2) << N)

    def test_serialize(self):
        table = g_table(self.N)
        with peak_below(self.FILE_BYTES + 2 * MB):
            data = serialize_truth_table(table)
        assert len(data) == self.FILE_BYTES

    def test_parse(self):
        table = g_table(self.N)
        data = serialize_truth_table(table)
        with peak_below(self.FILE_BYTES // 2):
            parsed = parse_map_file(data)
        assert parsed == table

    def test_construct_command(self, tmp_path, capsys):
        path = tmp_path / "g20.tt"
        argv = ["construct", "diffusive", "--n", str(self.N), "--out", str(path)]
        with peak_below(3 * self.FILE_BYTES // 2):
            assert main(argv) == 0
        assert path.read_bytes() == serialize_truth_table(g_table(self.N))

    def test_verify_command(self, tmp_path, capsys):
        path = tmp_path / "g20.tt"
        path.write_bytes(serialize_truth_table(g_table(self.N)))
        with peak_below(3 * self.FILE_BYTES // 2):
            assert main(["verify", "diffusive", str(path)]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")
