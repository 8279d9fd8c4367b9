"""The benchmark's workloads and the oracles that check every output.

A workload is one pass through a fixed list of `dispdiff` CLI commands.
Each command is an operation: it runs through a runner (a child process,
or `dispdiff.cli.main` in-process) and its exit status and stdout are
checked against an expectation computed here, never by the library. A
mismatch counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# sha256 of `construct diffusive --n 18`: the diffusive permutation table.
G18_SHA256 = "6addcc9e76c68944f466b3c94d43321a30e3e44506da4e53740f809c3376577a"
# sha256 of the stdout of `explore --n 20 --k 1 --m-max 22`: "FOUND m=22"
# and the lexicographically first witness of the search order.
W20_SHA256 = "c2da63fd93d00a5fc8e87ab0849f7e7e16440c156e62ca882e3f9317c151bb08"

Expect = Callable[[int, str], "str | None"]
Runner = Callable[[str, list[str]], tuple[int, str]]


@dataclass
class Pass:
    """One pass through a workload with a given runner. Records the
    outcome of every operation; `errors` holds one line per failed one."""

    runner: Runner
    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    def op(self, kind: str, argv: list, expect: Expect) -> tuple[int, str]:
        argv = [str(a) for a in argv]
        self.attempted += 1
        rc, out = self.runner(kind, argv)
        problem = expect(rc, out)
        if problem is not None:
            self.errors.append(f"{' '.join(argv)}: {problem}")
        return rc, out


def exact(rc: int, text: str) -> Expect:
    def expect(got_rc: int, out: str) -> str | None:
        if got_rc != rc:
            return f"exit {got_rc}, expected {rc}"
        if out != text:
            return f"stdout {out[:200]!r}, expected {text[:200]!r}"
        return None

    return expect


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --- GF(2) arithmetic on generator matrices, independent of dispdiff ----


def gf2_rank(rows: list[int]) -> int:
    # Basis kept in descending order, so each basis vector clears its own
    # leading bit and no later step sets it again.
    basis: list[int] = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def parse_matrix(text: str) -> tuple[int, int, list[str]]:
    lines = text.splitlines()
    n, m = map(int, lines[0].split())
    rows = lines[1:]
    if len(rows) != n or any(len(r) != m or set(r) - {"0", "1"} for r in rows):
        raise ValueError(f"malformed {n}x{m} generator matrix")
    return n, m, rows


def min_dispersive_dim(n: int) -> int:
    """The paper's minimum output dimension of a dispersive map."""
    return n + (2, 1, 0, 1)[n % 4]


def rao_bound(n: int, t: int) -> int:
    """Rao's lower bound on the runs of a binary orthogonal array of
    strength t on n factors (Hedayat-Sloane-Stufken, Thm 2.1). A linear
    k-dispersive map n -> m is such an array with m runs and t = k."""
    e = t // 2
    runs = sum(math.comb(n, i) for i in range(e + 1))
    if t % 2:
        runs += math.comb(n - 1, e)
    return runs


def patterns(n: int, k: int) -> list[int]:
    """XOR patterns in the CLI's enumeration order: by flipped position
    (leftmost first) for k = 1, ascending integer value for k >= 2."""
    if k == 1:
        return [1 << (n - i) for i in range(1, n + 1)]
    return [d for d in range(1, 1 << n) if d.bit_count() <= k]


def image(gens: list[int], n: int, d: int) -> int:
    acc = 0
    for i, g in enumerate(gens):
        if d >> (n - 1 - i) & 1:
            acc ^= g
    return acc


def linear_dispersive_expect(gens: list[int], n: int, m: int, k: int) -> Expect:
    """`verify dispersive --k k` on a linear map, without a table.

    f(x) ^ f(x ^ d) = f(d), so a pattern either fails at every x or at
    none, and the first failing pair in (x, pattern) order is {0, d*}
    for the first failing pattern d*."""
    for d in patterns(n, k):
        w = image(gens, n, d).bit_count()
        if 2 * w != m:
            return exact(1, f"FAIL {{{0:0{n}b},{d:0{n}b}}} {w}\n")
    if gf2_rank(gens) < n:
        return exact(1, "FAIL not injective\n")
    return exact(0, "PASS\n")


def linear_diffusive_expect(gens: list[int], n: int, m: int, k: int) -> Expect:
    """`verify diffusive --k k` on a linear map, without a table: every
    pattern covers 2^(n-1) pairs, each flipping exactly the bits of f(d)."""
    pats = patterns(n, k)
    half = 1 << (n - 1)
    npairs = half * len(pats)
    target = Fraction(npairs, 2)
    sums = [half * sum(image(gens, n, d) >> (m - b) & 1 for d in pats)
            for b in range(1, m + 1)]
    passed = gf2_rank(gens) == n and all(2 * s == npairs for s in sums)
    lines = [f"bit {b}: {s}/{target}\n" for b, s in enumerate(sums, start=1)]
    return exact(0 if passed else 1, "".join(lines) + ("PASS\n" if passed else "FAIL\n"))


def semi_weight_witness(n: int, m: int, text: str) -> str | None:
    """None if `text` is a generator matrix of n independent rows of
    weight m/2 into m bits, the linear dispersive witness condition."""
    try:
        rn, rm, rows = parse_matrix(text)
    except ValueError as exc:
        return str(exc)
    if (rn, rm) != (n, m):
        return f"matrix is {rn}x{rm}, expected {n}x{m}"
    gens = [int(r, 2) for r in rows]
    if any(2 * g.bit_count() != m for g in gens):
        return "a row is not of weight m/2"
    if gf2_rank(gens) != n:
        return "rows are dependent"
    return None


# --- workloads -----------------------------------------------------------


def table_roundtrip(p: Pass, work: Path, seed: int, threads: int) -> None:
    n = 18
    table = work / "g18.tt"

    def construct_ok(rc: int, out: str) -> str | None:
        problem = exact(0, f"m={n}\n")(rc, out)
        if problem is None and sha256_file(table) != G18_SHA256:
            problem = "table file differs from the pinned diffusive table"
        return problem

    p.op("construct", ["construct", "diffusive", "--n", n, "--out", table],
         construct_ok)
    target = n << (n - 2)
    expected = "".join(f"bit {i}: {target}/{target}\n" for i in range(1, n + 1))
    p.op("verify", ["verify", "diffusive", table, "--threads", threads],
         exact(0, expected + "PASS\n"))


def linear_scan(p: Pass, work: Path, seed: int, threads: int) -> None:
    n, m = 17, min_dispersive_dim(17)
    built = work / "f17.gm"

    def construct_ok(rc: int, out: str) -> str | None:
        return exact(0, f"m={m}\n")(rc, out) or semi_weight_witness(
            n, m, built.read_text()
        )

    rc, _ = p.op("construct", ["construct", "dispersive", "--n", n, "--out", built],
                 construct_ok)
    if rc != 0:
        return
    # Permuting inputs and outputs keeps the map dispersive but moves the
    # first violating pattern of the k >= 2 checks; the seed picks both.
    _, _, rows = parse_matrix(built.read_text())
    rng = random.Random(seed)
    row_perm = rng.sample(range(n), n)
    col_perm = rng.sample(range(m), m)
    rows = ["".join(rows[r][c] for c in col_perm) for r in row_perm]
    permuted = work / "p17.gm"
    permuted.write_text(f"{n} {m}\n" + "".join(r + "\n" for r in rows))
    gens = [int(r, 2) for r in rows]
    for prop, k, expect in (
        ("dispersive", 1, linear_dispersive_expect),
        ("dispersive", 3, linear_dispersive_expect),
        ("diffusive", 3, linear_diffusive_expect),
    ):
        p.op("verify", ["verify", prop, permuted, "--k", k, "--threads", 1],
             expect(gens, n, m, k))


def search(p: Pass, work: Path, seed: int, threads: int) -> None:
    n, k, m_max = 5, 3, 8
    assert m_max < rao_bound(n, k), "the refutation case must be below Rao"

    def exhausted(rc: int, out: str) -> str | None:
        if rc != 2 or not re.fullmatch(r"EXHAUSTED \d+ candidates\n", out):
            return f"exit {rc} {out[:80]!r}, expected EXHAUSTED below the Rao bound"
        return None

    p.op("explore", ["explore", "--n", n, "--k", k, "--m-max", m_max], exhausted)

    n, k = 20, 1
    m = min_dispersive_dim(n)

    def found(rc: int, out: str) -> str | None:
        head, _, matrix = out.partition("\n")
        if rc != 0 or head != f"FOUND m={m}":
            return f"exit {rc} {head!r}, expected FOUND m={m}"
        problem = semi_weight_witness(n, m, matrix)
        if problem is None and hashlib.sha256(out.encode()).hexdigest() != W20_SHA256:
            problem = "witness is not the pinned lexicographically first one"
        return problem

    p.op("explore", ["explore", "--n", n, "--k", k, "--m-max", m], found)


def setup_call(p: Pass, work: Path) -> None:
    """The trivial command whose wall time is set-up: interpreter start,
    numpy and dispdiff import, argparse, one tiny file."""
    tiny = work / "tiny.gm"
    tiny.write_text("2 2\n10\n01\n")
    p.op("info", ["info", tiny], exact(0, "generator matrix n=2 m=2 rank=2\n"))


WORKLOADS = {
    "table-roundtrip": table_roundtrip,
    "linear-scan": linear_scan,
    "search": search,
}
