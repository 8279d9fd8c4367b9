import random
from fractions import Fraction

import pytest

from dispdiff import (
    BitWord,
    BudgetExceededError,
    LinearMap,
    PairSpec,
    TruthTableMap,
    dispersive_table,
    g_table,
    min_linear_dim_k,
    min_output_dim,
    pair_count,
    search_linear_k_dispersive,
    tabulate,
    verify_diffusive,
    verify_dispersive,
    verify_k_dispersive,
    verify_k_diffusive,
)
from dispdiff.bitword import diff_patterns
from dispdiff.explorer import SearchOutcome, _semi_weight_words

import naive
from peakmem import peak_below


def _random_table(rng, n, m):
    return TruthTableMap(
        n, m, tuple(BitWord(m, rng.randrange(1 << m)) for _ in range(1 << n))
    )


class TestVerifyKDispersive:
    def test_k1_identical_to_plain(self):
        rng = random.Random(301)
        for _ in range(20):
            n = rng.randint(1, 5)
            table = _random_table(rng, n, 2 * rng.randint(1, 3))
            assert verify_k_dispersive(table, 1) == verify_dispersive(table)

    def test_witness_2_2_4(self):
        witness = LinearMap(
            2, 4, (BitWord.parse("0011"), BitWord.parse("0101"))
        )
        report = verify_k_dispersive(tabulate(witness), 2)
        assert report.passed
        assert report.pairs_checked == 6

    def test_f6_at_k2_recorded_failure(self):
        report = verify_k_dispersive(dispersive_table(6), 2)
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
                format(j, f"0{n}b"): str(w)
                for j, w in enumerate(table.table)
            }
            report = verify_k_dispersive(table, k)
            assert report.passed == naive.is_dispersive(as_dict, n, k)
            viols = naive.dispersion_violations(as_dict, n, k)
            if not viols:
                assert report.first_violation is None
                assert report.violation_distance is None
                continue
            # documented order: smaller element x, then diff_patterns index
            pats = diff_patterns(n, k)
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
            verify_k_dispersive(table, 0)
        with pytest.raises(ValueError):
            verify_k_dispersive(table, 4)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            verify_k_dispersive(g_table(4), 2, budget=10)


class TestVerifyKDiffusive:
    def test_k1_identical_to_plain(self):
        rng = random.Random(311)
        for _ in range(20):
            n = rng.randint(2, 5)
            table = _random_table(rng, n, 2 * rng.randint(1, 3))
            assert verify_k_diffusive(table, 1) == verify_diffusive(table)

    def test_g3_k3_recorded_outcome(self):
        report = verify_k_diffusive(g_table(3), 3)
        assert report.pairs_checked == 28
        assert report.target == Fraction(28, 2) == 14
        assert report.per_bit_sums == (16, 16, 16)
        assert not report.passed

    def test_identity2_k2(self):
        ident = TruthTableMap(
            2, 2, tuple(BitWord(2, v) for v in range(4))
        )
        report = verify_k_diffusive(ident, 2)
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
                format(j, f"0{n}b"): str(w)
                for j, w in enumerate(table.table)
            }
            report = verify_k_diffusive(table, k)
            assert list(report.per_bit_sums) == naive.diffusion_sums(
                as_dict, n, k
            )
            assert type(report.target) is int
            assert report.target == pair_count(PairSpec(n, k)) // 2

    def test_pair_counts_even_so_targets_are_integral(self):
        # the 2^(n-1) factor makes every sample space even for n >= 2, so
        # the doubled-sum criterion coincides with an integral half
        for n in range(2, 10):
            for k in range(1, n + 1):
                total = pair_count(PairSpec(n, k))
                assert total % 2 == 0
        assert pair_count(PairSpec(3, 2)) == 24

    def test_one_bit_inputs_rejected(self):
        table = TruthTableMap(1, 2, (BitWord(2, 0), BitWord(2, 1)))
        with pytest.raises(ValueError):
            verify_k_diffusive(table, 1)


class TestSearch:
    def test_found_2_2_4(self):
        outcome = search_linear_k_dispersive(2, 2, 4)
        assert outcome.found and not outcome.exhausted
        gens = [str(g) for g in outcome.witness.generators]
        assert gens == ["0011", "0101"]
        # witness verified through the independent enumerative route
        assert verify_k_dispersive(tabulate(outcome.witness), 2).passed

    def test_exhausted_2_2_2(self):
        outcome = search_linear_k_dispersive(2, 2, 2)
        assert not outcome.found
        assert outcome.exhausted
        assert outcome.witness is None
        assert outcome.candidates_examined == 6

    def test_found_1_1_2(self):
        outcome = search_linear_k_dispersive(1, 1, 2)
        assert outcome.found
        assert [str(g) for g in outcome.witness.generators] == ["01"]

    def test_exhausted_4_1_4(self):
        outcome = search_linear_k_dispersive(4, 1, 4)
        assert not outcome.found and outcome.exhausted

    def test_matches_brute_force_oracle(self):
        # full scan over all generator tuples for tiny parameters
        for n, k, m in [(1, 1, 2), (2, 1, 2), (2, 2, 4), (3, 1, 4), (2, 2, 2)]:
            outcome = search_linear_k_dispersive(n, k, m)
            brute = _brute_force_first_witness(n, k, m)
            if brute is None:
                assert not outcome.found
            else:
                assert outcome.found
                assert [str(g) for g in outcome.witness.generators] == brute

    def test_deterministic(self):
        a = search_linear_k_dispersive(3, 2, 6)
        b = search_linear_k_dispersive(3, 2, 6)
        assert a == b

    def test_every_witness_passes_generic_verifier(self):
        for n, k, m in [(1, 1, 2), (2, 1, 2), (3, 1, 4), (2, 2, 4), (3, 2, 6)]:
            outcome = search_linear_k_dispersive(n, k, m)
            if outcome.found:
                report = verify_k_dispersive(tabulate(outcome.witness), k)
                assert report.passed

    def test_budget_cutoff(self):
        outcome = search_linear_k_dispersive(3, 3, 6, budget=2)
        assert not outcome.found
        assert not outcome.exhausted
        assert outcome.candidates_examined == 3

    @pytest.mark.parametrize(
        "n, k, m, expected",
        [
            (3, 2, 6, (False, 420, True)),
            (4, 3, 10, (False, 63756, True)),
            (6, 2, 10, (False, 63756, True)),
            (4, 2, 8, (True, 74, False)),
            (7, 1, 8, (True, 68, False)),
        ],
    )
    def test_recorded_outcomes(self, n, k, m, expected):
        outcome = search_linear_k_dispersive(n, k, m)
        got = (outcome.found, outcome.candidates_examined, outcome.exhausted)
        assert got == expected
        if outcome.found:
            assert verify_k_dispersive(tabulate(outcome.witness), k).passed

    def test_budget_bounds_a_whole_width(self):
        # the candidates are streamed, so budget=1 at m=24 builds nothing
        # of size C(24, 12) before it stops
        with peak_below():
            outcome = search_linear_k_dispersive(5, 3, 24, budget=1)
        assert outcome.candidates_examined == 2
        assert not outcome.found and not outcome.exhausted

    @pytest.mark.parametrize("m", range(2, 17, 2))
    def test_candidate_stream_is_ascending_semi_weight(self, m):
        expected = [v for v in range(1 << m) if v.bit_count() == m // 2]
        assert list(_semi_weight_words(m)) == expected

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
                assert outcome == SearchOutcome(False, None, 0, True)

    def test_validation(self):
        with pytest.raises(ValueError):
            search_linear_k_dispersive(2, 1, 3)
        with pytest.raises(ValueError):
            search_linear_k_dispersive(2, 3, 4)
        with pytest.raises(ValueError):
            search_linear_k_dispersive(2, 1, 0)
        with pytest.raises(ValueError):
            search_linear_k_dispersive(2, 1, 30)


class TestMinLinearDim:
    def test_examples(self):
        assert min_linear_dim_k(2, 1, 6) == 2
        assert min_linear_dim_k(2, 2, 6) == 4
        assert min_linear_dim_k(3, 1, 8) == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reproduces_dimension_table(self, n):
        assert min_linear_dim_k(n, 1, n + 4) == min_output_dim(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_k_equals_n_minimum_is_2_to_the_n(self, n):
        # every nonzero XOR of the generators must be semi-weight, so the
        # m columns of the generator matrix cover F2^n evenly and 2^n | m;
        # n = 4 takes minutes and is left out
        assert min_linear_dim_k(n, n, 2**n) == 2**n

    def test_none_when_out_of_range(self):
        assert min_linear_dim_k(2, 2, 2) is None

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            min_linear_dim_k(3, 3, 8, budget=2)

    @pytest.mark.parametrize(
        "n, k, match", [(-1, 99, "n must be >= 1"), (2, 3, "k must be in 1..2")]
    )
    def test_validates_n_and_k_with_no_width_searched(self, n, k, match):
        with pytest.raises(ValueError, match=match):
            min_linear_dim_k(n, k, 0)


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
