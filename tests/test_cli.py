import errno
import inspect
import io
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import dispdiff
from dispdiff import (
    LinearMap,
    g_table,
    parse_map_file,
    serialize_generator_matrix,
)
from dispdiff.cli import main

from peakmem import peak_below
from tablebytes import table_bytes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_dispersive_n6(self, tmp_path, capsys):
        out = tmp_path / "f6.gm"
        code, stdout, _ = run(
            capsys, "construct", "dispersive", "--n", "6", "--out", str(out)
        )
        assert code == 0
        assert stdout == "m=6\n"
        lines = out.read_text().splitlines()
        assert lines[0] == "6 6"
        assert len(lines) == 7
        assert all(len(row) == 6 for row in lines[1:])

    def test_dispersive_below_minimum(self, tmp_path, capsys):
        out = tmp_path / "x.gm"
        code, stdout, stderr = run(
            capsys,
            "construct", "dispersive", "--n", "4", "--m", "4", "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert "6" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("n, m", [(64, 66), (65, 66), (1000, 1002)])
    def test_dispersive_beyond_the_width_cap_names_n(self, tmp_path, capsys, n, m):
        # the message names the user's n, not only the width it derives
        out = tmp_path / "x.gm"
        argv = ["construct", "dispersive", "--n", str(n), "--out", str(out)]
        message = f"error: n={n} needs output dimension {m}, above the width cap 64\n"
        assert run(capsys, *argv) == (1, "", message)
        assert not out.exists()

    def test_diffusive_n3_golden(self, tmp_path, capsys):
        out = tmp_path / "g3.tt"
        code, stdout, _ = run(
            capsys, "construct", "diffusive", "--n", "3", "--out", str(out)
        )
        assert code == 0
        assert stdout == "m=3\n"
        assert out.read_bytes() == table_bytes(g_table(3))
        assert len(out.read_text().splitlines()) == 9

    def test_column_diffusive(self, tmp_path, capsys):
        out = tmp_path / "c6.gm"
        code, stdout, _ = run(
            capsys,
            "construct", "column-diffusive", "--n", "6", "--out", str(out),
        )
        assert code == 0 and stdout == "m=6\n"
        code, _, stderr = run(
            capsys,
            "construct", "column-diffusive", "--n", "4", "--out", str(out),
        )
        assert code == 1 and "2 mod 4" in stderr

    def test_m_flag_only_for_dispersive(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys,
            "construct", "diffusive", "--n", "3", "--m", "4",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1 and "dispersive" in stderr


@pytest.fixture
def f3_file(tmp_path, capsys):
    path = tmp_path / "f3.gm"
    assert main(["construct", "dispersive", "--n", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def g3_file(tmp_path, capsys):
    path = tmp_path / "g3.tt"
    assert main(["construct", "diffusive", "--n", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


class TestEval:
    def test_generator_applied_linearly(self, f3_file, capsys):
        code, stdout, _ = run(capsys, "eval", str(f3_file), "101")
        assert code == 0 and stdout == "1001\n"

    def test_table_lookup(self, g3_file, capsys):
        code, stdout, _ = run(capsys, "eval", str(g3_file), "110")
        assert code == 0 and stdout == "011\n"

    def test_identity_table(self, tmp_path, capsys):
        path = tmp_path / "id2.tt"
        path.write_text("2 2\n00 00\n01 01\n10 10\n11 11\n")
        code, stdout, _ = run(capsys, "eval", str(path), "01")
        assert code == 0 and stdout == "01\n"

    def test_width_mismatch(self, f3_file, capsys):
        code, stdout, stderr = run(capsys, "eval", str(f3_file), "10")
        assert code == 1 and stdout == "" and "error" in stderr

    def test_parse_failure(self, tmp_path, capsys):
        path = tmp_path / "junk"
        path.write_text("not a map\n")
        code, _, stderr = run(capsys, "eval", str(path), "10")
        assert code == 1 and "error" in stderr


class TestVerify:
    def test_diffusive_g4(self, tmp_path, capsys):
        path = tmp_path / "g4.tt"
        main(["construct", "diffusive", "--n", "4", "--out", str(path)])
        capsys.readouterr()
        code, stdout, _ = run(capsys, "verify", "diffusive", str(path))
        assert code == 0
        assert stdout == (
            "bit 1: 16/16\nbit 2: 16/16\nbit 3: 16/16\nbit 4: 16/16\nPASS\n"
        )

    def test_dispersive_identity4_fails(self, tmp_path, capsys):
        path = tmp_path / "id4.gm"
        path.write_text("4 4\n1000\n0100\n0010\n0001\n")
        code, stdout, _ = run(capsys, "verify", "dispersive", str(path))
        assert code == 1
        assert stdout == "FAIL {0000,1000} 1\n"

    def test_dispersive_pass(self, f3_file, capsys):
        code, stdout, _ = run(capsys, "verify", "dispersive", str(f3_file))
        assert code == 0 and stdout == "PASS\n"

    def test_k2_witness(self, tmp_path, capsys):
        path = tmp_path / "w.gm"
        path.write_text("2 4\n0011\n0101\n")
        code, stdout, _ = run(
            capsys, "verify", "dispersive", str(path), "--k", "2"
        )
        assert code == 0 and stdout == "PASS\n"

    def test_threads_do_not_change_output(self, g3_file, capsys, monkeypatch):
        # below the floor g3's 12 pairs would run on one worker at any --threads
        monkeypatch.setattr(dispdiff._scan, "MIN_PAIRS_PER_WORKER", 1)
        outputs = set()
        for threads in ("1", "4", "8"):
            code, stdout, _ = run(
                capsys,
                "verify", "diffusive", str(g3_file), "--threads", threads,
            )
            assert code == 0
            outputs.add(stdout)
        assert len(outputs) == 1

    def test_budget_exceeded(self, g3_file, capsys):
        code, stdout, stderr = run(
            capsys, "verify", "diffusive", str(g3_file), "--budget", "4"
        )
        assert code == 1 and stdout == ""
        assert "12" in stderr  # size estimate in the message


class TestExplore:
    def test_found_with_matrix_block(self, capsys):
        code, stdout, _ = run(
            capsys, "explore", "--n", "2", "--k", "2", "--m-max", "6"
        )
        assert code == 0
        assert stdout == "FOUND m=4\n2 4\n0011\n0101\n"

    def test_exhausted(self, capsys):
        # m = 2, 4 lie below min_output_dim(5), 4 does not divide 6, and
        # the search refutes m = 8
        code, stdout, _ = run(
            capsys, "explore", "--n", "5", "--k", "2", "--m-max", "8"
        )
        assert code == 2
        assert stdout == "EXHAUSTED 17275 candidates\n"

    def test_budget_cutoff_is_one_error_line(self, capsys):
        code, stdout, stderr = run(
            capsys,
            "explore", "--n", "3", "--k", "3", "--m-max", "8", "--budget", "2",
        )
        assert code == 1 and stdout == ""
        assert stderr == "error: enumeration of 3 candidates at m=8 exceeds budget 2\n"

    @pytest.mark.parametrize("n, k", [("-1", "99"), ("2", "0"), ("2", "3")])
    def test_invalid_n_k_with_no_width_searched(self, capsys, n, k):
        code, stdout, stderr = run(
            capsys, "explore", "--n", n, "--k", k, "--m-max", "0"
        )
        assert code == 1 and stdout == ""
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_huge_n_k_are_checked_without_counting_pairs(self, capsys):
        # widths 2 and 4 lie below min_output_dim(10**9): nothing is
        # searched, and the check of n and k never builds 2^(n-1)
        with peak_below():
            code, stdout, _ = run(
                capsys,
                "explore", "--n", "1000000000", "--k", "1000000000", "--m-max", "4",
            )
        assert code == 2
        assert stdout == "EXHAUSTED 0 candidates\n"

    def test_reproduces_min_dim(self, capsys):
        code, stdout, _ = run(
            capsys, "explore", "--n", "3", "--k", "1", "--m-max", "8"
        )
        assert code == 0
        assert stdout.startswith("FOUND m=4\n")

    def test_k2_and_above_are_bounded_by_the_budget_alone(self, capsys):
        # widths 2..28 are not multiples of 2^5 and return unsearched; the
        # first searched width, m = 32, stops at the candidate past the budget
        code, stdout, stderr = run(
            capsys, "explore", "--n", "5", "--k", "5", "--m-max", "28"
        )
        assert (code, stdout, stderr) == (2, "EXHAUSTED 0 candidates\n", "")
        code, stdout, stderr = run(
            capsys, "explore", "--n", "5", "--k", "5", "--m-max", "32",
            "--budget", "1000",
        )
        assert code == 1 and stdout == ""
        assert stderr == (
            "error: enumeration of 1001 candidates at m=32 exceeds budget 1000\n"
        )

    def test_k1_searches_up_to_the_word_width(self, capsys):
        code, stdout, _ = run(capsys, "explore", "--n", "61", "--m-max", "62")
        assert code == 0
        assert stdout.startswith("FOUND m=62\n")

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_width_above_the_word_width_is_refused(self, capsys, k):
        code, stdout, stderr = run(
            capsys, "explore", "--n", "64", "--k", k, "--m-max", "66"
        )
        assert code == 1 and stdout == ""
        assert stderr == "error: m=66 beyond search width cap 64\n"


class TestInfo:
    def test_generator(self, f3_file, capsys):
        code, stdout, _ = run(capsys, "info", str(f3_file))
        assert code == 0
        assert stdout == "generator matrix n=3 m=4 rank=3\n"

    def test_table(self, g3_file, capsys):
        code, stdout, _ = run(capsys, "info", str(g3_file))
        assert code == 0
        assert stdout == "truth table n=3 m=3 injective=yes\n"


class TestContract:
    def test_usage_error_exits_one(self, capsys):
        assert main(["bogus-subcommand"]) == 1
        capsys.readouterr()
        assert main(["verify", "dispersive"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("header", ["99999999999 1", "1 99999999999", "65 2"])
    @pytest.mark.parametrize(
        "argv", [["info", "{}"], ["eval", "{}", "1"], ["verify", "dispersive", "{}"]]
    )
    def test_huge_header_is_one_error_line(self, tmp_path, capsys, header, argv):
        path = tmp_path / "huge.tt"
        path.write_text(f"{header}\n0 1\n")
        code, stdout, stderr = run(capsys, *(a.format(path) for a in argv))
        assert code == 1 and stdout == ""
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 4\n0101\n01\n", "generator width 2 != output dim 4"),
            ("2 4\n0101\n01100\n", "generator width 5 != output dim 4"),
            ("2 4\n0101\n0a10\n", "not a binary word: '0a10'"),
            ("2 4\n0101\n\n", "not a binary word: ''"),
        ],
    )
    @pytest.mark.parametrize("argv", [["info"], ["verify", "dispersive"]])
    def test_bad_matrix_row_is_one_error_line(
        self, tmp_path, capsys, text, message, argv
    ):
        # a row is read as a word and held as an int, which has no width
        # of its own, so the parser checks each row against m
        path = tmp_path / "bad.gm"
        path.write_text(text)
        assert run(capsys, *argv, str(path)) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["diffusive", "--n", "4000000000"],
            ["dispersive", "--n", "2", "--m", "4000000000"],
            ["column-diffusive", "--n", "4000000002"],
        ],
    )
    def test_huge_construct_is_one_error_line(self, tmp_path, capsys, argv):
        out = tmp_path / "huge"
        with peak_below():
            code, stdout, stderr = run(capsys, "construct", *argv, "--out", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "exc, message",
        [
            (
                MemoryError("Unable to allocate 15.6 GiB for an array"),
                "error: Unable to allocate 15.6 GiB for an array\n",
            ),
            (MemoryError(), "error: out of memory\n"),
        ],
    )
    def test_memory_error_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, exc, message
    ):
        # stands in for an allocation numpy refuses while the table file
        # is written, which must leave no file; no large table is built here
        def refuse(*_):
            raise exc

        monkeypatch.setattr("dispdiff.cli.serialize_truth_table", refuse)
        out = tmp_path / "g3.tt"
        argv = ["construct", "diffusive", "--n", "3", "--out", str(out)]
        assert run(capsys, *argv) == (1, "", message)
        assert not out.exists()

    def test_construct_takes_no_budget(self, tmp_path, capsys):
        out = tmp_path / "g3.tt"
        argv = ["construct", "diffusive", "--n", "3", "--out", str(out)]
        assert run(capsys, *argv, "--budget", "8")[0] == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # a matrix file, and a table that stays buffered until close:
            # both fail only at the last flush
            ["dispersive", "--n", "62"],
            ["column-diffusive", "--n", "62"],
            ["diffusive", "--n", "8"],
            # a table larger than the buffer fails inside a write
            ["diffusive", "--n", "12"],
        ],
    )
    def test_failed_write_leaves_no_file(self, tmp_path, argv):
        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

        out = tmp_path / "part"
        src = str(Path(dispdiff.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "dispdiff.cli", "construct", *argv, "--out", str(out)],
            capture_output=True, env={**os.environ, "PYTHONPATH": src},
            preexec_fn=limit_file_size, timeout=60,
        )
        stderr = f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
        assert (done.returncode, done.stdout, done.stderr.decode()) == (1, b"", stderr)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["dispersive", "diffusive", "column-diffusive"])
    def test_refused_open_keeps_the_file(self, tmp_path, capsys, monkeypatch, kind):
        # the guard starts after open succeeds, so a file open refuses is kept
        out = tmp_path / "kept"
        out.write_bytes(b"known bytes\n")

        def refuse(path, *_):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr("dispdiff.cli.open", refuse, raising=False)
        code, stdout, stderr = run(capsys, "construct", kind, "--n", "4", "--out", str(out))
        assert code == 1 and stdout == ""
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert out.read_bytes() == b"known bytes\n"

    def test_file_roundtrip_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "f7.gm"
        main(["construct", "dispersive", "--n", "7", "--out", str(path)])
        capsys.readouterr()
        data = path.read_bytes()
        assert serialize_generator_matrix(parse_map_file(io.BytesIO(data))) == data

    def test_closed_stdout_exits_one_quietly(self, tmp_path):
        path = tmp_path / "g6.tt"
        path.write_bytes(table_bytes(g_table(6)))
        src = str(Path(dispdiff.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            done = subprocess.run(
                [sys.executable, "-m", "dispdiff.cli", "verify", "diffusive", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_identical_invocations_identical_bytes(self, g3_file, capsys):
        runs = []
        for _ in range(2):
            code, stdout, _ = run(capsys, "verify", "diffusive", str(g3_file))
            assert code == 0
            runs.append(stdout)
        assert runs[0] == runs[1]


def assert_library_agrees(data: bytes, info: tuple[int, str, str]) -> None:
    """parse_map_file reads data as `info` did: it returns the map, whose
    canonical file is data with each line's \\r\\n or \\r made \\n, or it
    raises the message `info` printed."""
    try:
        map_ = parse_map_file(io.BytesIO(data))
    except ValueError as exc:
        assert info == (1, "", f"error: {exc}\n")
    else:
        assert info[0] == 0
        text = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if isinstance(map_, LinearMap):
            assert serialize_generator_matrix(map_) == text
        else:
            assert table_bytes(map_) == text


class TestFilesReadAsText:
    """A map file is read as bytes, but one that is not pure ASCII, or that
    holds a \\r, is decoded as UTF-8 text first: it parses, or fails with
    the message, as when every file was read as text. The library reads
    every file as the CLI does, in any locale."""

    NO_N1 = (
        "error: no diffusive map exists on 1-bit inputs: the required "
        "per-bit sum n * 2^(n-2) is not an integer\n"
    )
    NOT_UTF8 = (
        "error: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )
    NON_ASCII = "1 2\n0 0\u06611\n1 10\n".encode()
    NOT_A_WORD = "error: not a binary word: '0\u06611'\n"
    TABLE_INFO = (0, "truth table n=1 m=2 injective=yes\n", "")

    @pytest.mark.parametrize(
        "data, info, verify",
        [
            (b"1 2\r\n0 01\r\n1 10\r\n", TABLE_INFO, (1, "", NO_N1)),
            (b"1 2\r0 01\r1 10\r", TABLE_INFO, (1, "", NO_N1)),
            (b"1 2\r\n0 01\n1 10\r\n", TABLE_INFO, (1, "", NO_N1)),
            (
                b"2 2\r\n10\r\n01\r\n",
                (0, "generator matrix n=2 m=2 rank=2\n", ""),
                (0, "bit 1: 2/2\nbit 2: 2/2\nPASS\n", ""),
            ),
            (NON_ASCII, (1, "", NOT_A_WORD), (1, "", NOT_A_WORD)),
            # the fuzz corpus's "binary" file
            (b"\xff\xfe\x00\n", (1, "", NOT_UTF8), (1, "", NOT_UTF8)),
        ],
        ids=[
            "crlf-table", "lone-cr-table", "mixed-newline-table", "crlf-matrix",
            "non-ascii-table", "not-utf8",
        ],
    )
    def test_outcome_as_text(self, tmp_path, capsys, data, info, verify):
        path = tmp_path / "map"
        path.write_bytes(data)
        assert run(capsys, "info", str(path)) == info
        assert run(capsys, "verify", "diffusive", str(path)) == verify
        assert_library_agrees(data, info)

    def test_parse_map_file_takes_only_the_file(self):
        assert list(inspect.signature(parse_map_file).parameters) == ["fh"]

    @pytest.mark.parametrize(
        "data, stderr",
        [(NON_ASCII, NOT_A_WORD), (b"\xff\xfe\x00\n", NOT_UTF8)],
        ids=["non-ascii-table", "not-utf8"],
    )
    def test_outcome_does_not_depend_on_the_locale(self, tmp_path, data, stderr):
        path = tmp_path / "map"
        path.write_bytes(data)
        src = str(Path(dispdiff.__file__).resolve().parent.parent)

        def info(locale):
            # stderr is UTF-8 in both runs, so only the file's reading differs
            env = {
                **os.environ, "PYTHONPATH": src, "LC_ALL": locale,
                "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
                "PYTHONIOENCODING": "utf-8",
            }
            done = subprocess.run(
                [sys.executable, "-m", "dispdiff.cli", "info", str(path)],
                capture_output=True, env=env, timeout=60,
            )
            return done.returncode, done.stderr.decode()

        assert info("C") == info("C.UTF-8") == (1, stderr)


class TestOneReader:
    """parse_map_file is the one reader of a map file. Files that the
    format-pinned readers it replaced answered differently get its one
    answer, in the library and in ``info`` alike."""

    @pytest.mark.parametrize(
        "data, info",
        [
            # once also "expected 2 entries after header, got 0" and
            # "expected 1 rows after header, got 0"
            (b"1 2\n", (1, "", "error: map file needs a header and at least one row\n")),
            # a matrix file, once "expected 4 entries after header, got 2"
            # when read as a table
            (b"2 2\n10\n01\n", (0, "generator matrix n=2 m=2 rank=2\n", "")),
            # a table file, once "expected 1 rows after header, got 2" when
            # read as a matrix
            (b"1 2\n0 01\n1 10\n", (0, "truth table n=1 m=2 injective=yes\n", "")),
        ],
        ids=["header-only", "matrix", "table"],
    )
    def test_library_and_info_agree(self, tmp_path, capsys, data, info):
        path = tmp_path / "map"
        path.write_bytes(data)
        assert run(capsys, "info", str(path)) == info
        assert_library_agrees(data, info)


class TestConstructVerifyRoundTrip:
    """Every constructed map passes its own property through the CLI."""

    @pytest.mark.parametrize("n", range(1, 18))
    def test_dispersive(self, n, tmp_path, capsys):
        path = tmp_path / "m.gm"
        assert main(["construct", "dispersive", "--n", str(n), "--out", str(path)]) == 0
        capsys.readouterr()
        code, stdout, _ = run(capsys, "verify", "dispersive", str(path))
        assert code == 0 and stdout == "PASS\n"

    @pytest.mark.parametrize("n", range(2, 17))
    def test_diffusive(self, n, tmp_path, capsys):
        path = tmp_path / "m.tt"
        assert main(["construct", "diffusive", "--n", str(n), "--out", str(path)]) == 0
        capsys.readouterr()
        code, stdout, _ = run(capsys, "verify", "diffusive", str(path))
        assert code == 0 and stdout.endswith("PASS\n")

    @pytest.mark.parametrize("n", [2, 6, 10, 14])
    def test_column_diffusive(self, n, tmp_path, capsys):
        path = tmp_path / "m.gm"
        assert main(
            ["construct", "column-diffusive", "--n", str(n), "--out", str(path)]
        ) == 0
        capsys.readouterr()
        code, stdout, _ = run(capsys, "verify", "diffusive", str(path))
        assert code == 0 and stdout.endswith("PASS\n")
        # serialized form survives a parse/re-serialize cycle untouched
        data = path.read_bytes()
        assert serialize_generator_matrix(parse_map_file(io.BytesIO(data))) == data
