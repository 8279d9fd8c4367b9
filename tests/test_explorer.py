import random
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from dispdiff import (
    BudgetExceededError,
    LinearMap,
    TruthTableMap,
    build_dispersive,
    g_table,
    min_output_dim,
    pair_count,
    rank,
    search_linear_k_dispersive,
    tabulate,
    verify_diffusive,
    verify_dispersive,
)
from dispdiff.bitword import _weight_words, diff_patterns
from dispdiff.cli import main
from dispdiff.explorer import (
    SearchOutcome,
    _rao_bound,
    verify_k_diffusive,
    verify_k_dispersive,
)

import naive
from peakmem import peak_below

# candidates the unrestricted reference may try per case
_REFERENCE_BUDGET = 100_000


def _random_table(rng, n, m):
    values = [rng.randrange(1 << m) for _ in range(1 << n)]
    return TruthTableMap(n, m, np.array(values, dtype=np.uint64))


class TestVerifyKDispersive:
    def test_k1_identical_to_plain(self):
        rng = random.Random(301)
        for _ in range(20):
            n = rng.randint(1, 5)
            table = _random_table(rng, n, 2 * rng.randint(1, 3))
            assert verify_k_dispersive(table, 1) == verify_dispersive(table)

    def test_witness_2_2_4(self):
        witness = LinearMap(2, 4, (0b0011, 0b0101))
        report = verify_dispersive(tabulate(witness), 2)
        assert report.passed
        assert report.pairs_checked == 6

    def test_f6_at_k2_recorded_failure(self):
        report = verify_dispersive(tabulate(build_dispersive(6)), 2)
        assert not report.passed
        assert report.pairs_checked == 672
        x, y = report.first_violation
        assert (str(x), str(y)) == ("000000", "000011")
        assert report.violation_distance == 2

    def test_matches_oracle(self):
        rng = random.Random(307)
        for _ in range(20):
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            table = _random_table(rng, n, 2 * rng.randint(1, 3))
            as_dict = {
                format(j, f"0{n}b"): format(v, f"0{table.output_dim}b")
                for j, v in enumerate(table.values.tolist())
            }
            report = verify_dispersive(table, k)
            assert report.passed == naive.is_dispersive(as_dict, n, k)
            viols = naive.dispersion_violations(as_dict, n, k)
            if not viols:
                assert report.first_violation is None
                assert report.violation_distance is None
                continue
            # documented order: smaller element x, then diff_patterns index
            pats = list(diff_patterns(n, k))
            a, b, dist = min(
                viols,
                key=lambda v: (
                    int(v[0], 2), pats.index(int(v[0], 2) ^ int(v[1], 2))
                ),
            )
            x, y = report.first_violation
            assert (str(x), str(y)) == (a, b)
            assert report.violation_distance == dist

    def test_k_validation(self):
        table = g_table(3)
        with pytest.raises(ValueError):
            verify_dispersive(table, 0)
        with pytest.raises(ValueError):
            verify_dispersive(table, 4)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            verify_dispersive(g_table(4), 2, budget=10)


class TestVerifyKDiffusive:
    def test_k1_identical_to_plain(self):
        rng = random.Random(311)
        for _ in range(20):
            n = rng.randint(2, 5)
            table = _random_table(rng, n, 2 * rng.randint(1, 3))
            assert verify_k_diffusive(table, 1) == verify_diffusive(table)

    def test_g3_k3_recorded_outcome(self):
        report = verify_diffusive(g_table(3), 3)
        assert report.pairs_checked == 28
        assert report.target == Fraction(28, 2) == 14
        assert report.per_bit_sums == (16, 16, 16)
        assert not report.passed

    def test_identity2_k2(self):
        ident = TruthTableMap(2, 2, np.arange(4, dtype=np.uint64))
        report = verify_diffusive(ident, 2)
        assert report.pairs_checked == 6
        assert report.target == Fraction(3)
        assert report.per_bit_sums == (4, 4)
        assert not report.passed

    def test_sums_match_oracle(self):
        rng = random.Random(313)
        for _ in range(15):
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            table = _random_table(rng, n, 2 * rng.randint(1, 3))
            as_dict = {
                format(j, f"0{n}b"): format(v, f"0{table.output_dim}b")
                for j, v in enumerate(table.values.tolist())
            }
            report = verify_diffusive(table, k)
            assert list(report.per_bit_sums) == naive.diffusion_sums(
                as_dict, n, k
            )
            assert type(report.target) is int
            assert report.target == pair_count(n, k) // 2

    def test_pair_counts_even_so_targets_are_integral(self):
        # the 2^(n-1) factor makes every sample space even for n >= 2, so
        # the doubled-sum criterion coincides with an integral half
        for n in range(2, 10):
            for k in range(1, n + 1):
                total = pair_count(n, k)
                assert total % 2 == 0
        assert pair_count(3, 2) == 24

    def test_one_bit_inputs_rejected(self):
        table = TruthTableMap(1, 2, np.array([0, 1], dtype=np.uint64))
        with pytest.raises(ValueError):
            verify_diffusive(table, 1)


class TestSearch:
    def test_found_2_2_4(self):
        outcome = search_linear_k_dispersive(2, 2, 4)
        assert outcome.found
        gens = [format(g, "04b") for g in outcome.witness.generators]
        assert gens == ["0011", "0101"]
        # witness verified through the independent enumerative route
        assert verify_dispersive(tabulate(outcome.witness), 2).passed

    def test_exhausted_2_2_2(self):
        # 4 does not divide 2: the index rule refutes it unsearched
        outcome = search_linear_k_dispersive(2, 2, 2)
        assert not outcome.found
        assert outcome.witness is None
        assert outcome.candidates_examined == 0

    def test_found_1_1_2(self):
        outcome = search_linear_k_dispersive(1, 1, 2)
        assert outcome.found
        assert outcome.witness.generators == (0b01,)

    def test_exhausted_4_1_4(self):
        outcome = search_linear_k_dispersive(4, 1, 4)
        assert outcome == SearchOutcome(False, None, 0)

    def test_matches_brute_force_oracle(self):
        # full scan over all generator tuples for tiny parameters
        for n, k, m in [(1, 1, 2), (2, 1, 2), (2, 2, 4), (3, 1, 4), (2, 2, 2)]:
            outcome = search_linear_k_dispersive(n, k, m)
            brute = _brute_force_first_witness(n, k, m)
            if brute is None:
                assert not outcome.found
            else:
                assert outcome.found
                gens = [format(g, f"0{m}b") for g in outcome.witness.generators]
                assert gens == brute

    def test_deterministic(self):
        a = search_linear_k_dispersive(3, 2, 6)
        b = search_linear_k_dispersive(3, 2, 6)
        assert a == b

    def test_every_witness_passes_generic_verifier(self):
        for n, k, m in [(1, 1, 2), (2, 1, 2), (3, 1, 4), (2, 2, 4), (3, 2, 6)]:
            outcome = search_linear_k_dispersive(n, k, m)
            if outcome.found:
                report = verify_dispersive(tabulate(outcome.witness), k)
                assert report.passed

    def test_budget_cutoff(self):
        # the third candidate crosses the budget, and it raises there
        with pytest.raises(BudgetExceededError) as err:
            search_linear_k_dispersive(3, 3, 8, budget=2)
        assert (err.value.estimate, err.value.budget) == (3, 2)
        assert str(err.value) == "enumeration of 3 candidates at m=8 exceeds budget 2"

    @pytest.mark.parametrize(
        "n, k, m, expected",
        [
            (3, 2, 6, (False, 0)),
            (4, 3, 10, (False, 0)),
            (6, 2, 10, (False, 0)),
            (4, 2, 8, (True, 42)),
            (7, 1, 8, (True, 7)),
        ],
    )
    def test_recorded_outcomes(self, n, k, m, expected):
        outcome = search_linear_k_dispersive(n, k, m)
        got = (outcome.found, outcome.candidates_examined)
        assert got == expected
        if outcome.found:
            assert verify_dispersive(tabulate(outcome.witness), k).passed

    def test_budget_bounds_a_whole_width(self):
        # the candidates are streamed, so budget=1 at m=24 builds nothing
        # of size C(24, 12) before it stops
        with peak_below(), pytest.raises(BudgetExceededError) as err:
            search_linear_k_dispersive(5, 3, 24, budget=1)
        assert err.value.estimate == 2

    @pytest.mark.parametrize("m", range(2, 17, 2))
    def test_candidate_stream_is_ascending_semi_weight(self, m):
        expected = [v for v in range(1 << m) if v.bit_count() == m // 2]
        assert list(_weight_words(m, m // 2)) == expected

    @pytest.mark.parametrize("m", range(2, 13, 2))
    def test_candidate_stream_after_a_word_holds_the_larger_words(self, m):
        words = list(_weight_words(m, m // 2))
        for i, w in enumerate(words):
            assert list(_weight_words(m, m // 2, w)) == words[i + 1:]

    @pytest.mark.parametrize("m", range(2, 11, 2))
    def test_dimension_check_matches_span_rule(self, m):
        # an independent n-tuple of semi-weight words needs m >= n and
        # the semi-weight words to span at least n dimensions
        semis = [
            format(v, f"0{m}b") for v in range(1 << m) if v.bit_count() == m // 2
        ]
        span = naive.rank_closure(semis)
        for n in range(1, m + 3):
            infeasible = m < n or span < n
            assert (m < min_output_dim(n)) == infeasible
            if infeasible:
                outcome = search_linear_k_dispersive(n, 1, m)
                assert outcome == SearchOutcome(False, None, 0)

    @pytest.mark.parametrize(
        "n, cases_settled",
        [(1, 6), (2, 12), (3, 17), (4, 21), (5, 23), (6, 27)],
    )
    def test_matches_unrestricted_search(self, n, cases_settled):
        # the reference tries every ascending weight-m/2 word at every
        # depth; wherever it settles, the canonical search must agree
        settled = 0
        for k in range(1, n + 1):
            for m in range(2, 13, 2):
                expected = naive.first_linear_witness(n, k, m, _REFERENCE_BUDGET)
                if not (expected[0] or expected[2]):
                    continue
                settled += 1
                outcome = search_linear_k_dispersive(n, k, m)
                witness = outcome.witness and [
                    format(g, f"0{m}b") for g in outcome.witness.generators
                ]
                assert (outcome.found, witness) == expected[:2]
        assert settled == cases_settled

    @pytest.mark.parametrize("n", range(2, 8))
    def test_no_k2_witness_when_half_m_is_odd(self, n):
        # two weight-m/2 generators XOR to an even weight, never m/2 odd;
        # the index rule (4 does not divide m) refuses these unsearched
        for k in range(2, n + 1):
            for m in range(2, 15, 4):
                outcome = search_linear_k_dispersive(n, k, m)
                assert outcome == SearchOutcome(False, None, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            search_linear_k_dispersive(2, 1, 3)
        with pytest.raises(ValueError):
            search_linear_k_dispersive(2, 3, 4)
        with pytest.raises(ValueError):
            search_linear_k_dispersive(2, 1, 0)
        # the one width cap is the word width, at every k
        for k in (1, 2):
            with pytest.raises(ValueError, match="cap 64"):
                search_linear_k_dispersive(2, k, 66)

    def test_k2_searches_above_26(self):
        outcome = search_linear_k_dispersive(2, 2, 28)
        assert outcome.found
        assert outcome.witness.generators == (0x3FFF, 0x1FC07F)
        assert outcome.candidates_examined == 112849
        assert verify_dispersive(outcome.witness, 2).passed


def _first_k1_witness(n, m):
    """The lexicographically-first linear 1-dispersive n-tuple at width m
    (m/2 = h): w0 = 2^h - 1; then w0 with one of its ones moved up to
    position h, highest one first (the lowest is left out when h is even:
    the span already holds it); then w0 with its top one moved to each
    position above h."""
    h = m // 2
    w0 = (1 << h) - 1
    words = [w0] + [w0 ^ 1 << i | 1 << h for i in range(h - 1, -(h % 2), -1)]
    words += [w0 ^ 1 << (h - 1) | 1 << j for j in range(h + 1, m)]
    return tuple(words[:n])


class TestSpanJump:
    # k = 1 is searched up to the word width, 64: min_output_dim(63) = 64
    @pytest.mark.parametrize("n", range(1, 64))
    def test_k1_minimum_settles_in_n_candidates(self, n):
        # each depth starts past the words its pivots span, so the first
        # candidate it tries is the next generator
        m = min_output_dim(n)
        outcome = search_linear_k_dispersive(n, 1, m)
        assert outcome.found and outcome.candidates_examined == n
        gens = outcome.witness.generators
        assert gens == _first_k1_witness(n, m)
        assert all(g.bit_count() * 2 == m for g in gens)
        assert rank(gens) == n
        assert verify_dispersive(outcome.witness).passed

    @pytest.mark.parametrize("n", range(1, 64))
    def test_k1_at_the_word_width_settles_in_n_candidates(self, n):
        outcome = search_linear_k_dispersive(n, 1, 64)
        assert outcome.found and outcome.candidates_examined == n
        assert outcome.witness.generators == _first_k1_witness(n, 64)
        assert verify_dispersive(outcome.witness).passed

    @pytest.mark.parametrize("n", range(1, 15))
    def test_k1_witness_matches_unrestricted_search(self, n):
        m = min_output_dim(n)
        found, witness, _ = naive.first_linear_witness(n, 1, m, 10**6)
        assert found
        assert witness == [format(g, f"0{m}b") for g in _first_k1_witness(n, m)]

    @pytest.mark.parametrize(
        "n, m, tail",
        [
            (19, 20, (131583, 262655, 524799)),
            (21, 22, (263167, 525311, 1049599)),
        ],
    )
    def test_recorded_k1_witnesses(self, n, m, tail):
        outcome = search_linear_k_dispersive(n, 1, m)
        assert outcome.witness.generators[-len(tail):] == tail

    def test_frontier_width_in_bounded_memory(self):
        with peak_below():
            outcome = search_linear_k_dispersive(25, 1, 26)
        assert outcome.found and outcome.candidates_examined <= 25


def _gated(n, k, m):
    """True when the search refuses (n, k, m) unsearched at a width the
    dimension theorem allows; with budget=0 a searched width raises at
    its first candidate."""
    try:
        search_linear_k_dispersive(n, k, m, budget=0)
    except BudgetExceededError:
        return False
    return m >= min_output_dim(n)


class TestWidthGates:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_gated_widths_are_the_index_and_rao_refutations(self, n):
        for k in range(1, n + 1):
            for m in range(min_output_dim(n), 65, 2):
                refuted = m % 2**k != 0 or m < naive.rao_bound(n, k)
                assert _gated(n, k, m) == refuted, (n, k, m)

    def test_gated_widths_have_no_reference_witness(self):
        settled = 0
        for n in range(1, 7):
            for k in range(1, n + 1):
                for m in range(2, 13, 2):
                    if not _gated(n, k, m):
                        continue
                    found, _, exhausted = naive.first_linear_witness(
                        n, k, m, _REFERENCE_BUDGET
                    )
                    assert not found, (n, k, m)
                    settled += exhausted
        assert settled == 32

    def test_found_witnesses_pass_the_gates_at_full_strength(self):
        # a witness found at k is often s-dispersive for some s > k; the
        # theorems must hold at s too
        found = 0
        for n in range(1, 7):
            for k in range(1, n + 1):
                for m in range(2, 17, 2):
                    try:
                        outcome = search_linear_k_dispersive(
                            n, k, m, budget=_REFERENCE_BUDGET
                        )
                    except BudgetExceededError:
                        continue
                    if not outcome.found:
                        continue
                    found += 1
                    table = tabulate(outcome.witness)
                    s = max(
                        s for s in range(k, n + 1)
                        if verify_dispersive(table, s).passed
                    )
                    assert m % 2**s == 0 and m >= naive.rao_bound(n, s)
        assert found == 63

    def test_searched_widths_bound_the_work_per_candidate(self):
        # every width the gates admit (the Rao bound in closed form; the
        # test above checks it against naive.rao_bound) has k <= 6; a
        # candidate is tested against the XORs of at most k - 1 of the
        # n - 1 generators before it, and the search holds at most those of n
        tests, held = {}, 0
        for m in range(2, 65, 2):
            for n in range(1, m + 1):
                for k in range(1, n + 1):
                    if m < min_output_dim(n) or m % 2**k or m < _rao_bound(n, k):
                        continue
                    assert k <= 6, (n, k, m)
                    tests[n, k, m] = sum(comb(n - 1, j) for j in range(k))
                    held = max(held, sum(comb(n, j) for j in range(k)))
        most = max(tests.values())
        assert most == 497 and held == 529
        assert [c for c, v in tests.items() if v == most] == [(32, 3, 64)]
        assert not _gated(32, 3, 64)  # the search does reach it

    def test_rao_refutes_6_4_16(self):
        # 2^4 divides 16, but an array of strength 4 on 6 factors needs
        # 1 + 6 + 15 = 22 runs
        assert naive.rao_bound(6, 4) == 22
        outcome = search_linear_k_dispersive(6, 4, 16)
        assert outcome == SearchOutcome(False, None, 0)


def _explore(capsys, n, k, m_max):
    """Exit status and first stdout line of `dispdiff explore`."""
    argv = ["explore", "--n", str(n), "--k", str(k), "--m-max", str(m_max)]
    status = main(argv)
    return status, capsys.readouterr().out.splitlines()[0]


def _counting_matrix(n):
    """The n x 2^n matrix whose column c reads c - 1 in binary, top to
    bottom: every nonzero XOR of its rows has weight 2^(n-1)."""
    m = 2**n
    rows = [
        sum((c >> (n - i) & 1) << (m - 1 - c) for c in range(m))
        for i in range(1, n + 1)
    ]
    return LinearMap(n, m, tuple(rows))


class TestMinLinearDim:
    """Minimal linear widths, found by `dispdiff explore`'s width loop."""

    def test_examples(self, capsys):
        assert _explore(capsys, 2, 1, 6) == (0, "FOUND m=2")
        assert _explore(capsys, 2, 2, 6) == (0, "FOUND m=4")
        assert _explore(capsys, 3, 1, 8) == (0, "FOUND m=4")

    @pytest.mark.parametrize("n", range(1, 26))
    def test_reproduces_dimension_table(self, n, capsys):
        found = _explore(capsys, n, 1, min(n + 4, 26))
        assert found == (0, f"FOUND m={min_output_dim(n)}")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_k_equals_n_minimum_is_2_to_the_n(self, n, capsys):
        # every nonzero XOR of the generators must be semi-weight, so the
        # m columns of the generator matrix cover F2^n evenly and 2^n | m
        assert _explore(capsys, n, n, 2**n) == (0, f"FOUND m={2**n}")

    def test_5_3_minimum_is_16(self, capsys):
        assert _explore(capsys, 5, 3, 16) == (0, "FOUND m=16")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_k_equals_n_minimum_is_the_counting_matrix(self, n, capsys):
        # 2^n divides no smaller width, so explore refutes m <= 2^n - 2
        # unsearched, and the counting matrix meets 2^n; the search finds
        # it too, but at n = 5 only after 195892565 candidates (2 minutes)
        witness = _counting_matrix(n)
        if n == 5:
            rows = (0xFFFF, 0xFF00FF, 0xF0F0F0F, 0x33333333, 0x55555555)
            assert witness.generators == rows
        for k in range(1, n + 1):
            assert verify_dispersive(witness, k).passed, k
        assert _explore(capsys, n, n, 2**n - 2) == (2, "EXHAUSTED 0 candidates")
        if n <= 4:
            assert search_linear_k_dispersive(n, n, 2**n).witness == witness

    def test_none_when_out_of_range(self, capsys):
        assert _explore(capsys, 2, 2, 2) == (2, "EXHAUSTED 0 candidates")

    def test_huge_n_k_are_checked_without_counting_pairs(self):
        with peak_below():
            outcome = search_linear_k_dispersive(10**9, 10**9, 4)
        assert outcome == SearchOutcome(False, None, 0)


def _brute_force_first_witness(n, k, m):
    """Lexicographically-first n-tuple over all of F2^m that is linear
    k-dispersive, by checking the tabulated map directly."""

    def candidates(prefix):
        if len(prefix) == n:
            rows = [format(v, f"0{m}b") for v in prefix]
            table = naive.tabulate_gens(rows, n)
            if naive.is_dispersive(table, n, k):
                return rows
            return None
        for v in range(1, 1 << m):
            hit = candidates(prefix + [v])
            if hit is not None:
                return hit
        return None

    return candidates([])


# minimal linear k-dispersive widths the row search settles in tier-1 time;
# k = n (2^n, the counting matrix) is pinned to n = 6 by
# test_k_equals_n_minimum_is_the_counting_matrix
MIN_LINEAR_WIDTHS = {
    1: [2],
    2: [2, 4],
    3: [4, 4, 8],
    4: [6, 8, 8, 16],
    5: [6, 12, 16, 16],
}


@pytest.mark.parametrize("n", sorted(MIN_LINEAR_WIDTHS))
def test_minimal_linear_widths_are_pinned(n, capsys):
    for k, m in enumerate(MIN_LINEAR_WIDTHS[n], start=1):
        assert _explore(capsys, n, k, m) == (0, f"FOUND m={m}"), (n, k)


def test_readme_width_table_is_the_pinned_widths():
    # the README's table is MIN_LINEAR_WIDTHS, with 2^n at k = n where the
    # search does not reach it; read as text, so no search is run
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [line.strip() for line in readme.read_text(encoding="utf-8").splitlines()]
    start = lines.index("| n | k = 1 | k = 2 | k = 3 | k = 4 | k = 5 |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        n, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        table[int(n)] = [int(cell) for cell in cells if cell]
    expected = {
        n: widths if len(widths) == n else widths + [2**n]
        for n, widths in MIN_LINEAR_WIDTHS.items()
    }
    assert table == expected
