"""Differential tests of the pair scans against the string oracle, with
the pattern list split over up to four workers."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dispdiff import TruthTableMap, g_table, verify_diffusive, verify_dispersive
from dispdiff import _scan
from dispdiff.bitword import diff_patterns

import naive


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
    # 136 patterns of 2^15 pairs: 4456448, between one and two floors
    pairs = 136 << 15
    assert pairs // _scan.MIN_PAIRS_PER_WORKER == 1
    assert _workers(16, 2) == [1, 1]
    with mock.patch.object(_scan, "MIN_PAIRS_PER_WORKER", pairs // 3):
        assert _workers(16, 2) == [3, 3]
