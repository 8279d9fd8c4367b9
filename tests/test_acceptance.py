"""Acceptance suite: one test per criterion, exact tolerances, one
printed pass/fail line each. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import random
import time
from contextlib import redirect_stdout
from itertools import product

import numpy as np
import pytest

import dispdiff as dd
from dispdiff.cli import main

import naive


def report(criterion: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"{criterion}: FAIL")
        raise
    print(f"{criterion}: PASS")


def test_criterion_1_minimum_dimension_table():
    def check():
        start = time.time()
        expected_extra = {0: 2, 1: 1, 2: 0, 3: 1}
        for n in range(1, 18):
            built = dd.build_dispersive(n)
            assert built.output_dim == n + expected_extra[n % 4]
            rep = dd.verify_dispersive(dd.tabulate(built))
            assert rep.passed
            assert rep.pairs_checked == n * 2 ** (n - 1)
            assert rep.first_violation is None
        assert time.time() - start < 10.0

    report("criterion 1 (minimum-dimension dispersive maps, n=1..17)", check)


def test_criterion_2_linear_impossibility_n4():
    def check():
        vecs = [format(v, "04b") for v in range(16) if v.bit_count() == 2]
        assert len(vecs) == 6
        assert naive.rank_closure(vecs) == 3
        assert not any(
            naive.rank_closure(list(t)) == 4 for t in product(vecs, repeat=4)
        )
        start = time.time()
        outcome = dd.search_linear_k_dispersive(4, 1, 4)
        assert time.time() - start < 1.0
        assert not outcome.found

    report("criterion 2 (no linear dispersive map F2^4 -> F2^4)", check)


def test_criterion_3_diffusive_permutations():
    def check():
        start = time.time()
        for n in range(2, 17):
            table = dd.g_table(n)
            assert table.is_injective()
            rep = dd.verify_diffusive(table)
            assert rep.passed
            target = n * 2 ** (n - 2)
            assert rep.target == target
            assert all(s == target for s in rep.per_bit_sums)
            assert rep.pairs_checked == n * 2 ** (n - 1)
        assert time.time() - start < 30.0

    report("criterion 3 (diffusive permutations, n=2..16)", check)


def test_criterion_4_g3_golden_table():
    def check():
        got = [format(v, "03b") for v in dd.g_table(3).values.tolist()]
        assert got == ["000", "001", "110", "111", "010", "100", "011", "101"]
        assert dd.verify_diffusive(dd.g_table(3)).per_bit_sums == (6, 6, 6)

    report("criterion 4 (g_3 golden table)", check)


def test_criterion_5_quadruple_sums():
    def check():
        for n in range(2, 13):
            assert dd.quadruple_sum_check(n) is True

    report("criterion 5 (quadruple sums equal 2, n=2..12)", check)


def test_criterion_6_sum_decomposition():
    def check():
        for n in range(3, 13):
            for i in range(1, n + 1):
                p, q, r, c = dd.decompose_sums(n, i)
                assert p == q == (n - 1) * 2 ** (n - 3)
                assert r == 2 ** (n - 2)
                assert c == p + q + r == n * 2 ** (n - 2)
            p1, q1, r1, _ = dd.decompose_sums(n, 1)
            p2, q2, r2, _ = dd.decompose_sums(n, 2)
            assert p1 == p2 and q1 == q2
            assert r1 + r2 == 2 ** (n - 1)

    report("criterion 6 (p/q/r sum decomposition, n=3..12)", check)


def test_criterion_7_column_transpose_diffusive():
    def check():
        for n in (2, 6, 10, 14):
            rep = dd.verify_diffusive(dd.tabulate(dd.column_diffusive(n)))
            assert rep.passed
            assert all(s == n * 2 ** (n - 2) for s in rep.per_bit_sums)
        rep6 = dd.verify_diffusive(dd.tabulate(dd.column_diffusive(6)))
        assert rep6.per_bit_sums == (96,) * 6
        for n in (4, 8):
            with pytest.raises(ValueError):
                dd.column_diffusive(n)

    report("criterion 7 (column-transpose diffusive maps)", check)


def test_criterion_8_oracle_equivalence():
    def check():
        rng = random.Random(0xD15BE)
        passes = fails = 0
        for case in range(200):
            m = 2 * rng.randint(1, 4)
            n = rng.randint(1, 8)
            gens = []
            for _ in range(n):
                if case % 2:
                    positions = rng.sample(range(m), m // 2)
                    gens.append(sum(1 << p for p in positions))
                else:
                    gens.append(rng.randrange(1 << m))
            mp = dd.LinearMap(n, m, tuple(gens))
            matrix = dd.verify_dispersive(mp)
            assert matrix == dd.verify_dispersive(dd.tabulate(mp))
            passes += matrix.passed
            fails += not matrix.passed
        # both outcomes must actually occur for the agreement to mean much
        assert passes >= 10 and fails >= 10

    report("criterion 8 (matrix and table dispersion reports agree, 200 maps)", check)


def test_criterion_9_sample_space_counting():
    def check():
        for n in range(1, 13):
            for k in range(1, n + 1):
                enumerated = _count_pairs_elementwise(n, k)
                formula = 2 ** (n - 1) * sum(
                    _comb(n, j) for j in range(1, k + 1)
                )
                assert enumerated == formula
                assert dd.pair_count(n, k) == formula
            assert dd.pair_count(n, 1) == n * 2 ** (n - 1)
        # brute-force enumeration cross-check at small n, with uniqueness
        for n in range(1, 8):
            for k in range(1, n + 1):
                pairs = naive.all_pairs(n, k)
                keys = {frozenset(p) for p in pairs}
                assert len(keys) == len(pairs) == dd.pair_count(n, k)

    report("criterion 9 (sample-space cardinalities, n<=12)", check)


def test_criterion_10_explorer_reproduces_table():
    def check():
        for n in range(1, 9):
            out = io.StringIO()
            with redirect_stdout(out):
                status = main(["explore", "--n", str(n), "--m-max", str(n + 4)])
            first = out.getvalue().splitlines()[0]
            assert (status, first) == (0, f"FOUND m={dd.min_output_dim(n)}")
        found = dd.search_linear_k_dispersive(2, 2, 4)
        assert found.found
        assert dd.verify_dispersive(dd.tabulate(found.witness), 2).passed
        empty = dd.search_linear_k_dispersive(2, 2, 2)
        assert not empty.found

    report("criterion 10 (search reproduces the dimension table)", check)


def test_criterion_11_determinism_under_parallelism(monkeypatch):
    # every map here is below the pairs that pay for a worker: split the
    # scans anyway, so that the worker counts differ
    monkeypatch.setattr(dd._scan, "MIN_PAIRS_PER_WORKER", 1)

    def check():
        texts = []
        for threads in (1, 4, 8):
            parts = []
            for n in range(1, 18):
                rep = dd.verify_dispersive(
                    dd.tabulate(dd.build_dispersive(n)), threads=threads
                )
                parts.append(f"n={n} " + dd.format_dispersion_report(rep))
            for n in range(2, 17):
                rep = dd.verify_diffusive(dd.g_table(n), threads=threads)
                parts.append(f"n={n}\n" + dd.format_diffusion_report(rep))
            for n in (2, 6, 10, 14):
                rep = dd.verify_diffusive(
                    dd.tabulate(dd.column_diffusive(n)), threads=threads
                )
                parts.append(f"col n={n}\n" + dd.format_diffusion_report(rep))
            texts.append("\n".join(parts).encode())
        assert texts[0] == texts[1] == texts[2]

    report("criterion 11 (byte-identical reports at 1/4/8 threads)", check)


def _comb(n: int, j: int) -> int:
    import math

    return math.comb(n, j)


def _count_pairs_elementwise(n: int, k: int) -> int:
    """Count pairs by touching each one: for every XOR pattern of weight
    <= k, count the x below their partner, elementwise over the space."""
    xs = np.arange(1 << n, dtype=np.uint64)
    total = 0
    for d in range(1, 1 << n):
        if d.bit_count() > k:
            continue
        top = np.uint64(d.bit_length() - 1)
        total += int(np.count_nonzero((xs >> top) & np.uint64(1) == 0))
    return total
