"""Differential tests of the pair scans against the string oracle, with
the pattern list split over up to four workers."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispdiff import (
    TruthTableMap,
    g_table,
    min_output_dim,
    search_linear_k_dispersive,
    tabulate,
    verify_diffusive,
    verify_dispersive,
)
from dispdiff import _scan
from dispdiff.bitword import diff_patterns

import naive
from peakmem import peak_below
from tablebytes import small_blocks


@st.composite
def scan_cases(draw):
    """(n, k, threads, table). The table is a linear map whose generators
    have weight m/2 with a few entries XORed away from it, so it passes
    at k = 1 only when nothing was perturbed, and most tables fail with
    violations spread over the patterns of several workers."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    threads = draw(st.integers(1, 4))
    m = 2 * draw(st.integers(1, 4))
    semis = [v for v in range(1 << m) if v.bit_count() == m // 2]
    gens = draw(st.lists(st.sampled_from(semis), min_size=n, max_size=n))
    values = []
    for x in range(1 << n):
        y = 0
        for i, g in enumerate(gens):
            if x >> (n - 1 - i) & 1:
                y ^= g
        values.append(y)
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, (1 << n) - 1))
        values[j] ^= draw(st.integers(1, (1 << m) - 1))
    return n, k, threads, TruthTableMap(n, m, np.array(values, dtype=np.uint64))


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_reports_match_oracle_at_any_worker_count(case):
    n, k, threads, table = case
    m = table.output_dim
    as_dict = {
        format(j, f"0{n}b"): format(v, f"0{m}b")
        for j, v in enumerate(table.values.tolist())
    }
    pairs = naive.all_pairs(n, k)
    # four cores on any machine and no floor on a worker's pairs, so up
    # to four workers really run
    with mock.patch.object(_scan.os, "cpu_count", return_value=4), \
            mock.patch.object(_scan, "MIN_PAIRS_PER_WORKER", 1):
        disp = verify_dispersive(table, k, threads=threads)
        diff = verify_diffusive(table, k, threads=threads) if n >= 2 else None

    assert disp.pairs_checked == len(pairs)
    assert disp.passed == naive.is_dispersive(as_dict, n, k)
    viols = naive.dispersion_violations(as_dict, n, k)
    if viols:
        # documented order: smaller element x, then diff_patterns index
        pats = list(diff_patterns(n, k))
        a, b, dist = min(
            viols,
            key=lambda v: (int(v[0], 2), pats.index(int(v[0], 2) ^ int(v[1], 2))),
        )
        x, y = disp.first_violation
        assert (str(x), str(y), disp.violation_distance) == (a, b, dist)
    else:
        assert disp.first_violation is None and disp.violation_distance is None

    if diff is not None:
        assert list(diff.per_bit_sums) == naive.diffusion_sums(as_dict, n, k)
        assert diff.target == len(pairs) // 2


@pytest.mark.parametrize("n", [7, 8, 9])
def test_dispersion_violations_past_one_word_match_oracle(n):
    # linear k-dispersive witnesses with one output bit flipped at one or
    # two entries x >= 64, so a first violation's pattern can have its
    # top bit above a 64-entry word
    rng = random.Random(11 * n)
    for k, m in [(1, min_output_dim(n) + min_output_dim(n) % 2), (2, 12), (3, 24)]:
        witness = search_linear_k_dispersive(n, k, m).witness
        values = tabulate(witness).values.copy()
        for x in rng.sample(range(64, 1 << n), rng.randint(1, 2)):
            values[x] ^= np.uint64(1 << rng.randrange(m))
        table = TruthTableMap(n, m, values)
        as_dict = {
            format(j, f"0{n}b"): format(v, f"0{m}b")
            for j, v in enumerate(values.tolist())
        }
        pats = list(diff_patterns(n, k))
        a, b, dist = min(
            naive.dispersion_violations(as_dict, n, k),
            key=lambda v: (int(v[0], 2), pats.index(int(v[0], 2) ^ int(v[1], 2))),
        )
        for threads in (1, 4):
            with mock.patch.object(_scan.os, "cpu_count", return_value=4), \
                    mock.patch.object(_scan, "MIN_PAIRS_PER_WORKER", 1):
                report = verify_dispersive(table, k, threads=threads)
            assert not report.passed
            x, y = report.first_violation
            assert (str(x), str(y), report.violation_distance) == (a, b, dist)


@pytest.mark.parametrize("shape", [(), (3,)], ids=["1-D", "planes"])
def test_halves_pair_x_with_x_xor_d(shape):
    rng = np.random.default_rng(7)
    for length in (1 << e for e in range(1, 10)):
        a = rng.integers(0, 1 << 63, size=shape + (length,), dtype=np.uint64)
        i = np.arange(length // 2)
        for d in range(1, length):
            t = d.bit_length() - 1
            x = i + (i >> t << t)
            own, partners = _scan._halves(a, d)
            assert np.shares_memory(own, a)
            assert np.shares_memory(partners, a) == (d == 1 << t)
            assert np.array_equal(own.reshape(shape + (-1,)), a[..., x])
            assert np.array_equal(partners.reshape(shape + (-1,)), a[..., x ^ d])


def _workers(n: int, k: int) -> list[int]:
    """Workers per scan of g_table(n)'s pairs at distance 1..k, asked for
    with four threads on four cores."""
    seen = []
    bounds = _scan.chunk_bounds

    def counted(total, workers):
        seen.append(len(bounds(total, workers)))
        return bounds(total, workers)

    table = g_table(n)
    with mock.patch.object(_scan.os, "cpu_count", return_value=4), \
            mock.patch.object(_scan, "chunk_bounds", counted):
        verify_diffusive(table, k, threads=4)
        verify_dispersive(table, k, threads=4)
    return seen


def test_scan_below_the_floor_runs_as_one_chunk():
    # 12 patterns of 2^11 pairs each
    assert _workers(12, 1) == [1, 1]


def test_workers_each_get_the_floor_of_pairs():
    # 171 patterns of 2^17 pairs: 22413312, between one and two floors
    pairs = 171 << 17
    assert pairs // _scan.MIN_PAIRS_PER_WORKER == 1
    assert _workers(18, 2) == [1, 1]
    with mock.patch.object(_scan, "MIN_PAIRS_PER_WORKER", pairs // 3):
        assert _workers(18, 2) == [3, 3]


def _random_table(n: int, m: int) -> TruthTableMap:
    rng = random.Random(n * 100 + m)
    values = [rng.getrandbits(m) for _ in range(1 << n)]
    return TruthTableMap(n, m, np.array(values, dtype=np.uint64))


@pytest.mark.parametrize("m", [1, 2, 63, 64])
@pytest.mark.parametrize("n", range(2, 9))
def test_plane_sums_match_oracle_at_any_worker_count(n, m):
    # tables shorter and longer than one 64-entry word, and widths of one
    # plane group (m <= 24) and of three; the oracle's cost bounds k for
    # the widest tables, which are past a word and in-word swaps at k <= 3
    table = _random_table(n, m)
    as_dict = {
        format(j, f"0{n}b"): format(v, f"0{m}b")
        for j, v in enumerate(table.values.tolist())
    }
    ks = range(1, n + 1) if n <= 6 or m <= 2 else range(1, 4)
    for k in ks:
        expected = naive.diffusion_sums(as_dict, n, k)
        patterns = list(diff_patterns(n, k))
        for threads in range(1, 5):
            with mock.patch.object(_scan.os, "cpu_count", return_value=4), \
                    mock.patch.object(_scan, "MIN_PAIRS_PER_WORKER", 1):
                sums = _scan.bit_sums(table.values, m, patterns, threads)
            assert sums == expected, (k, threads)


@pytest.mark.parametrize("m", [1, 8, 24, 25, 64])
@pytest.mark.parametrize("n", [1, 3, 6, 7, 9])
def test_planes_hold_bit_i_of_entry_x_at_bit_x_of_row_i(n, m):
    values = _random_table(n, m).values.tolist()
    groups = -(-m // _scan._GROUP_ROWS)
    bounds = [m * g // groups for g in range(groups + 1)]
    for first, last in zip(bounds, bounds[1:]):
        planes = _scan._planes(np.array(values, dtype=np.uint64), m, first, last)
        assert planes.shape == (last - first, max(1, (1 << n) // 64))
        for i, row in enumerate(planes.tolist()):
            bits = sum(w << (64 * j) for j, w in enumerate(row))
            bit = m - 1 - first - i  # output bit first + 1 + i
            assert bits == sum((v >> bit & 1) << x for x, v in enumerate(values))


def test_plane_sums_match_oracle_at_odd_block_sizes():
    # three plane groups, each built from blocks of one 64-entry word
    n, m = 10, 64
    table = _random_table(n, m)
    as_dict = {
        format(j, f"0{n}b"): format(v, f"0{m}b")
        for j, v in enumerate(table.values.tolist())
    }
    for k in (1, 2):
        expected = naive.diffusion_sums(as_dict, n, k)
        patterns = list(diff_patterns(n, k))
        for rows in (3, 97):
            with small_blocks(rows):
                assert _scan.bit_sums(table.values, m, patterns) == expected


@pytest.mark.parametrize("rows", [3, 97, 200, 1 << 20])
def test_planes_match_at_any_block_size(rows):
    # 200 rows step three words at a time: 2^11 entries end in a short block
    values = _random_table(11, 64).values
    for first, last in [(0, 21), (21, 42), (42, 64)]:
        expected = _scan._planes(values, 64, first, last)
        with small_blocks(rows):
            planes = _scan._planes(values, 64, first, last)
        assert np.array_equal(planes, expected)


# tracemalloc peaks of the per-bit count that the plane kernel replaced
# (numpy 2.4): at each, the pair differences and one masked copy of them
@pytest.mark.parametrize(
    "n, m, k, parent_peak",
    [(16, 64, 1, 559448), (16, 64, 2, 819544), (18, 18, 1, 2110176)],
    ids=["n16-m64-k1", "n16-m64-k2", "g18-k1"],
)
def test_bit_sums_peaks_below_the_per_bit_count(n, m, k, parent_peak):
    values = (g_table(n) if m == n else _random_table(n, m)).values
    patterns = list(diff_patterns(n, k))
    with peak_below(parent_peak):
        _scan.bit_sums(values, m, patterns)
