"""numpy loads on first truth-table use, not at `import dispdiff`, and
a command imports no other module it does not use.

Each check runs in a fresh child interpreter, since this process has
imported numpy already. The child runs `cli.main` on a list of commands
and reports each one's status and output; the same commands then run in
this process, and both must agree byte for byte, files included.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dispdiff
from dispdiff import g_table
from dispdiff.cli import main
from tablebytes import table_bytes

SRC = str(Path(dispdiff.__file__).resolve().parent.parent)

RUN = """
import contextlib, io, json, sys
from dispdiff.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
"""
CHILD = RUN + """
print(json.dumps({
    "runs": runs,
    "numpy_loaded": "numpy._core" in sys.modules,
    "pool_started": "concurrent.futures" in sys.modules,
}))
"""
# lets a scan of a few pairs split over several workers
ONE_PAIR_FLOOR = "import dispdiff._scan\ndispdiff._scan.MIN_PAIRS_PER_WORKER = 1\n"


def run_child(code, *args, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def run_in_process(commands, cwd, monkeypatch, capsys):
    monkeypatch.chdir(cwd)
    runs = []
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        runs.append([code, captured.out, captured.err])
    return runs


def files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def compare(
    commands, tmp_path, monkeypatch, capsys, setup=lambda d: None, prelude=""
):
    """Run commands in a child and in process, each in its own directory;
    return the child's report after checking that both agree. The child
    runs prelude first."""
    child_dir, here_dir = tmp_path / "child", tmp_path / "here"
    for d in (child_dir, here_dir):
        d.mkdir()
        setup(d)
    done = run_child(prelude + CHILD, json.dumps(commands), cwd=child_dir)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["runs"] == run_in_process(commands, here_dir, monkeypatch, capsys)
    assert files(child_dir) == files(here_dir)
    return report


MATRIX_COMMANDS = [
    ["construct", "dispersive", "--n", "9", "--out", "f9.gm"],
    ["construct", "column-diffusive", "--n", "10", "--out", "c10.gm"],
    ["verify", "dispersive", "f9.gm"],
    ["verify", "dispersive", "f9.gm", "--k", "3"],
    ["verify", "diffusive", "c10.gm"],
    ["verify", "diffusive", "c10.gm", "--k", "3"],
    ["explore", "--n", "5", "--k", "3", "--m-max", "8"],
    ["info", "f9.gm"],
    ["eval", "c10.gm", "1011001110"],
]


def test_matrix_and_search_commands_leave_numpy_unloaded(
    tmp_path, monkeypatch, capsys
):
    report = compare(MATRIX_COMMANDS, tmp_path, monkeypatch, capsys)
    assert [code for code, _, _ in report["runs"]] == [0, 0, 0, 1, 0, 1, 2, 0, 0]
    assert not report["numpy_loaded"]


TABLE_COMMANDS = [
    ["construct", "diffusive", "--n", "6", "--out", "g6.tt"],
    ["verify", "diffusive", "g6.tt", "--threads", "2"],
    ["verify", "dispersive", "g6.tt", "--threads", "2"],
    ["info", "g6.tt"],
    ["eval", "g6.tt", "101101"],
]


@pytest.mark.parametrize("first", [0, 1], ids=["construct", "verify"])
def test_table_commands_load_numpy_on_first_use(
    first, tmp_path, monkeypatch, capsys
):
    # first=1 writes g6.tt beforehand, so the first load comes in the
    # threaded verify, which must make it before any worker starts; the
    # floor of one pair per worker splits g6's 192 pairs over the workers
    monkeypatch.setattr("dispdiff._scan.MIN_PAIRS_PER_WORKER", 1)
    data = table_bytes(g_table(6))
    setup = (lambda d: (d / "g6.tt").write_bytes(data)) if first else lambda d: None
    report = compare(
        TABLE_COMMANDS[first:], tmp_path, monkeypatch, capsys, setup,
        prelude=ONE_PAIR_FLOOR,
    )
    assert report["runs"][0][0] == 0
    assert report["numpy_loaded"]
    assert report["pool_started"] == ((os.cpu_count() or 1) > 1)
    assert (tmp_path / "child" / "g6.tt").read_bytes() == data


def test_import_after_numpy_reuses_it(tmp_path):
    # a second, lazy numpy module would run numpy's __init__ again
    done = run_child(
        "import sys, numpy\n"
        "from dispdiff import f2linear\n"
        "print(f2linear.np is numpy is sys.modules['numpy'])\n",
        cwd=tmp_path,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def test_import_without_numpy_names_it(tmp_path):
    done = run_child(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import dispdiff\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n",
        cwd=tmp_path,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "numpy\n", "")


# modules no matrix or search command uses: records are not data classes,
# the thread pool loads only when a table scan starts more than one
# worker, and the table scan only when a table is scanned
UNUSED = ["dataclasses", "inspect", "concurrent.futures", "dispdiff._scan"]
LOADED = f"""
import json, sys
print(json.dumps([m for m in {UNUSED!r} if m in sys.modules]))
"""

STARTUP_COMMANDS = [
    ["construct", "dispersive", "--n", "17", "--out", "f17.gm"],
    ["info", "f17.gm"],
    ["verify", "dispersive", "f17.gm"],
    ["verify", "dispersive", "f17.gm", "--k", "3"],
    ["verify", "diffusive", "f17.gm", "--k", "3"],
    ["explore", "--n", "20", "--m-max", "22"],
]


def test_matrix_and_search_commands_import_only_what_they_use(tmp_path):
    # a module a bare interpreter already holds (a site hook's, say) is
    # not the package's doing
    bare = run_child(LOADED, cwd=tmp_path)
    assert bare.returncode == 0, bare.stderr
    codes = "print(json.dumps([[code, err] for code, _, err in runs]))"
    done = run_child(
        RUN + codes + LOADED, json.dumps(STARTUP_COMMANDS), cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    ran, loaded = map(json.loads, done.stdout.splitlines())
    assert ran == [[0, ""], [0, ""], [0, ""], [1, ""], [1, ""], [0, ""]]
    assert loaded == json.loads(bare.stdout)
