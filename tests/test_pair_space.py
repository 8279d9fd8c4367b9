"""Both verifiers take their pair set from one place: k is refused
first for a truth table and a generator matrix alike, then a table scan
is refused above the pair budget; a matrix is decided at any budget,
with the same pair count and pattern order."""

import io

import numpy as np
import pytest

from dispdiff import (
    BitWord,
    LinearMap,
    TruthTableMap,
    build_dispersive,
    column_diffusive,
    parse_map_file,
    tabulate,
    verify_diffusive,
    verify_dispersive,
)
from dispdiff.bitword import diff_patterns

from peakmem import peak_below

WIDE_K_RANGE = "k must be in 1..40, got 99"
K_RANGE = "k must be in 1..6, got 7"
BUDGET = "enumeration of 192 pairs exceeds budget 4"
ONE_BIT = (
    "no diffusive map exists on 1-bit inputs: the required per-bit "
    "sum n * 2^(n-2) is not an integer"
)

WIDE = parse_map_file(io.BytesIO(b"40 2\n" + b"10\n" * 40))
F6 = build_dispersive(6)
ONE_INPUT = [
    TruthTableMap(1, 1, np.array([0, 1], dtype=np.uint64)),
    LinearMap(1, 1, (1,)),
]


def _refusal(verify, map_, k, budget):
    with pytest.raises(ValueError) as info:
        verify(map_, k, budget=budget)
    return str(info.value)


@pytest.mark.parametrize("verify", [verify_dispersive, verify_diffusive])
def test_refusal_order(verify):
    # k first; then the budget, which a matrix does not take
    assert _refusal(verify, WIDE, 99, 0) == WIDE_K_RANGE
    assert verify(WIDE, 40, budget=0) == verify(WIDE, 40, budget=1 << 200)
    assert _refusal(verify, F6, 7, 0) == K_RANGE
    assert verify(F6, 1, budget=4) == verify(F6, 1)
    table = tabulate(F6)
    assert verify(table, 1) == verify(F6, 1, budget=0)
    assert _refusal(verify, table, 7, 0) == K_RANGE
    assert _refusal(verify, table, 1, 4) == BUDGET


@pytest.mark.parametrize("map_", ONE_INPUT, ids=["table", "matrix"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_one_bit_diffusion_is_refused_before_k(map_, k):
    assert _refusal(verify_diffusive, map_, k, 0) == ONE_BIT


def test_wide_matrix_dispersion_is_decided_at_k_equal_n():
    # 2^40 - 1 patterns, were they listed; the third, 3, maps to 00
    with peak_below():
        report = verify_dispersive(WIDE, 40, budget=0)
    assert report.first_violation == (BitWord(40, 0), BitWord(40, 3))
    assert report.violation_distance == 0
    assert not report.passed and not report.injective


def test_wide_matrix_diffusion_is_decided_at_k_equal_n():
    # column 1 meets the 2^39 odd-weight patterns oddly, column 2 none
    with peak_below():
        report = verify_diffusive(WIDE, 40, budget=0)
    assert report.per_bit_sums == (2**78, 0)
    assert not report.passed and not report.injective


@pytest.mark.parametrize("n", range(1, 15))
def test_diff_patterns_match_the_weight_filter(n):
    for k in range(2, n + 2):
        expected = [d for d in range(1, 1 << n) if d.bit_count() <= k]
        assert list(diff_patterns(n, k)) == expected


def test_matrices_at_the_cap_for_k_above_one():
    disp = verify_dispersive(build_dispersive(28), 2)
    assert disp.first_violation == (BitWord(28, 0), BitWord(28, 3))
    assert disp.violation_distance == 2
    assert disp.pairs_checked == 54492397568
    assert not disp.passed and disp.injective
    diff = verify_diffusive(column_diffusive(26), 3)
    assert diff.per_bit_sums == (49727668224,) * 26
    assert diff.target == 49509564416
    assert not diff.passed and diff.injective
