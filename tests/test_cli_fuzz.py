"""Fuzz the CLI over every subcommand: whatever the flags and map files,
``main`` returns 0, 1 or 2 and never raises, and a construct leaves its
output file exactly when it returns 0.

Legitimate sizes stay small (n <= 10 for construct and verify, n <= 3 and
widths found by m = 8 for explore) so each example runs well under a
second; absurd values go up to 10**9 and must be refused before anything
of their size is built. ``--threads`` is drawn only from 1..4 and
non-positive values, so no example starts many threads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispdiff import build_dispersive, g_table, serialize_generator_matrix
from dispdiff.cli import main
from tablebytes import table_bytes

CORPUS = {
    "g6.tt": table_bytes(g_table(6)),
    "f10.gm": serialize_generator_matrix(build_dispersive(10)),
    "id3.gm": b"3 3\n100\n010\n001\n",
    "zero2.tt": b"2 2\n00 00\n01 00\n10 00\n11 00\n",
    "wide.gm": b"40 2\n" + b"10\n" * 40,  # tabulating it exceeds the table cap
    "huge.tt": b"99999999999 1\n0 1\n",
    "plus.tt": b"+1 1\n0 0\n1 1\n",
    "short.tt": b"2 2\n00 01\n01 10\n",
    "unsorted.tt": b"1 1\n1 0\n0 1\n",
    "noeol.gm": b"1 2\n10",
    "shortrow.gm": b"2 4\n0101\n01\n",
    "empty": b"",
    "binary": b"\xff\xfe\x00\n",
}
OUT = "out.map"

# small, zero, negative or absurd
ints = st.one_of(st.integers(-3, 10), st.integers(29, 10**9)).map(str)
threads = st.one_of(st.integers(1, 4), st.integers(-3, 0)).map(str)
explore_n = st.one_of(st.integers(-3, 3), st.integers(29, 10**9)).map(str)
files = st.sampled_from([*CORPUS, "missing"]).map(lambda name: "@" + name)
words = st.one_of(
    st.sampled_from(["", "2", "0b1", "-1", "1" * 100]), st.text("01", max_size=12)
)
# now and then one stray token, for argparse's own errors
extra = st.sampled_from([[]] * 5 + [["--bogus"], ["--budget"], ["-1"], ["x"]])


def optional(flag: str, values: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(["construct", "eval", "verify", "explore", "info"]))
    if command == "construct":
        kind = draw(st.sampled_from(["dispersive", "diffusive", "column-diffusive"]))
        argv = [command, kind, "--n", draw(ints), "--out", "@" + OUT]
        argv += draw(optional("--m", ints))
    elif command == "eval":
        argv = [command, draw(files), draw(words)]
    elif command == "verify":
        prop = draw(st.sampled_from(["dispersive", "diffusive"]))
        argv = [command, prop, draw(files)]
        argv += draw(optional("--k", ints)) + draw(optional("--threads", threads))
        argv += draw(optional("--budget", ints))
    elif command == "explore":
        # every n <= 3 has a witness by m = 8, so a huge --m-max stops early
        argv = [command, "--n", draw(explore_n), "--m-max", draw(ints)]
        argv += draw(optional("--k", ints)) + draw(optional("--budget", ints))
    else:
        argv = [command, draw(files)]
    return argv + draw(extra)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name, data in CORPUS.items():
        (root / name).write_bytes(data)
    return root


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_exit_status_is_0_1_or_2(corpus_dir, argv):
    resolved = [str(corpus_dir / a[1:]) if a.startswith("@") else a for a in argv]
    try:
        status = main(resolved)
        assert status in (0, 1, 2)
        if argv[0] == "construct":
            # a construct that fails leaves nothing at --out
            assert (corpus_dir / OUT).exists() == (status == 0)
    finally:
        (corpus_dir / OUT).unlink(missing_ok=True)
