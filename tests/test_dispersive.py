import io
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from dispdiff import (
    BitWord,
    LinearMap,
    TruthTableMap,
    build_dispersive,
    even_weight_obstruction_check,
    format_dispersion_report,
    min_output_dim,
    parse_map_file,
    rank,
    semi_weight_generators,
    tabulate,
    verify_dispersive,
)
from dispdiff.bitword import diff_patterns
from dispdiff.cli import main

import naive


def table_as_dict(table: TruthTableMap) -> dict[str, str]:
    n, m = table.input_dim, table.output_dim
    values = table.values.tolist()
    return {format(j, f"0{n}b"): format(v, f"0{m}b") for j, v in enumerate(values)}


class TestMinOutputDim:
    @pytest.mark.parametrize(
        "n,m", [(1, 2), (2, 2), (3, 4), (4, 6), (5, 6), (6, 6), (7, 8), (8, 10)]
    )
    def test_residue_table(self, n, m):
        assert min_output_dim(n) == m

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            min_output_dim(0)


class TestSemiWeightGenerators:
    def test_k2(self):
        assert semi_weight_generators(2) == [0b10, 0b01]

    def test_k4(self):
        assert [format(g, "04b") for g in semi_weight_generators(4)] == [
            "1100",
            "0110",
            "0101",
        ]

    def test_k6(self):
        assert [format(g, "06b") for g in semi_weight_generators(6)] == [
            "111000",
            "011100",
            "001110",
            "001011",
            "001101",
            "100101",
        ]

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14, 16, 18, 20])
    def test_family_properties(self, k):
        gens = semi_weight_generators(k)
        expected_count = k if k == 2 or k % 4 == 2 else k - 1
        assert len(gens) == expected_count
        assert all(2 * g.bit_count() == k for g in gens)
        assert rank(gens) == len(gens)
        # independence cross-checked by a different algorithm
        assert naive.rank_closure([format(g, f"0{k}b") for g in gens]) == len(gens)

    @pytest.mark.parametrize("k", [0, -2, 3, 5])
    def test_rejects_odd_or_nonpositive(self, k):
        with pytest.raises(ValueError):
            semi_weight_generators(k)


class TestBuildDispersive:
    def test_n2_is_identity(self):
        assert build_dispersive(2).generators == (0b10, 0b01)

    def test_n3(self):
        built = build_dispersive(3)
        assert built.output_dim == 4
        assert [format(g, "04b") for g in built.generators] == ["1100", "0110", "0101"]

    def test_n5_prefix_of_k6(self):
        built = build_dispersive(5)
        assert built.output_dim == 6
        assert list(built.generators) == semi_weight_generators(6)[:5]

    def test_n1(self):
        built = build_dispersive(1)
        assert built.output_dim == 2
        assert built.generators == (0b10,)

    def test_larger_even_target(self):
        built = build_dispersive(3, 8)
        assert built.output_dim == 8
        assert verify_dispersive(tabulate(built)).passed

    def test_odd_target_rejected(self):
        with pytest.raises(ValueError):
            build_dispersive(3, 5)

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            build_dispersive(4, 4)


class TestVerifyDispersive:
    def test_constructed_n3(self):
        report = verify_dispersive(tabulate(build_dispersive(3)))
        assert report.passed
        assert report.pairs_checked == 12
        assert report.injective
        assert report.first_violation is None

    def test_identity4_fails(self):
        report = verify_dispersive(tabulate(_identity(4)))
        assert not report.passed
        x, y = report.first_violation
        assert (str(x), str(y)) == ("0000", "1000")
        assert report.violation_distance == 1

    def test_identity2_passes(self):
        report = verify_dispersive(tabulate(_identity(2)))
        assert report.passed

    def test_odd_output_dim_fails(self):
        # no distance is 3/2, so the first pair is the violation
        table = TruthTableMap(1, 3, np.array([0b000, 0b111], dtype=np.uint64))
        report = verify_dispersive(table)
        assert not report.passed and report.injective
        assert report.first_violation == (BitWord(1, 0), BitWord(1, 1))
        assert format_dispersion_report(report) == "FAIL {0,1} 3"

    def test_non_injective_fails(self):
        table = TruthTableMap(1, 2, np.zeros(2, dtype=np.uint64))
        report = verify_dispersive(table)
        assert not report.passed and not report.injective

    def test_matches_oracle_on_random_maps(self):
        rng = random.Random(101)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = 2 * rng.randint(1, 4)
            mp = _random_map(rng, n, m)
            table = tabulate(mp)
            assert verify_dispersive(table).passed == naive.is_dispersive(
                table_as_dict(table), n
            )

    def test_violation_is_first_in_enumeration_order(self):
        rng = random.Random(103)
        for _ in range(30):
            n = rng.randint(2, 5)
            m = 2 * rng.randint(1, 4)
            table = tabulate(_random_map(rng, n, m))
            report = verify_dispersive(table)
            first = _first_violation_oracle(table_as_dict(table), n, m)
            if first is None:
                assert report.first_violation is None
            else:
                x, y = report.first_violation
                assert (str(x), str(y), report.violation_distance) == first


class TestOddOutputDim:
    """With m odd no pair lands at distance m/2, so at every k the first
    pair in enumeration order, {0, first pattern}, is the reported
    violation: a report needs no parity flag of its own."""

    @staticmethod
    def assert_first_pair_fails(map_, image):
        n = map_.input_dim
        for k in range(1, n + 1):
            report = verify_dispersive(map_, k)
            d = next(diff_patterns(n, k))
            assert not report.passed
            assert report.first_violation == (BitWord(n, 0), BitWord(n, d))
            assert report.violation_distance == (image(0) ^ image(d)).bit_count()

    def test_random_tables(self):
        rng = random.Random(109)
        for _ in range(30):
            n = rng.randint(1, 6)
            table = _random_table(rng, n, 2 * rng.randint(0, 4) + 1)
            self.assert_first_pair_fails(table, lambda x: int(table.values[x]))

    def test_random_generator_matrices(self):
        rng = random.Random(127)
        for _ in range(30):
            n = rng.randint(1, 12)
            mp = _random_map(rng, n, 2 * rng.randint(0, 7) + 1)
            self.assert_first_pair_fails(
                mp, lambda x: mp.lookup(BitWord(n, x)).value
            )


class TestVerifyDispersiveLinear:
    def test_constructed_n6(self):
        report = verify_dispersive(build_dispersive(6))
        assert report.passed and report.pairs_checked == 192

    def test_dependent_generators(self):
        mp = _lin(["1100", "0110", "1010"])
        report = verify_dispersive(mp)
        assert not report.passed and not report.injective

    def test_non_semi_weight_generator(self):
        mp = _lin(["1110", "0110"])
        report = verify_dispersive(mp)
        assert not report.passed
        x, y = report.first_violation
        assert (str(x), str(y)) == ("00", "10")
        assert report.violation_distance == 3

    def test_agrees_with_generic_on_random(self):
        rng = random.Random(107)
        for _ in range(100):
            n = rng.randint(1, 6)
            m = 2 * rng.randint(1, 3)
            mp = _random_map(rng, n, m)
            assert verify_dispersive(mp) == verify_dispersive(tabulate(mp))


class TestNormalizeToZero:
    def test_translation_invariance_of_reports(self):
        rng = random.Random(113)
        for _ in range(30):
            n = rng.randint(1, 5)
            table = _random_table(rng, n, 2 * rng.randint(1, 3))
            values = table.values
            shifted = TruthTableMap(n, table.output_dim, values ^ values[0])
            assert verify_dispersive(table) == verify_dispersive(shifted)


class TestEvenWeightObstruction:
    def test_constructed_n3_all_even(self):
        assert even_weight_obstruction_check(tabulate(build_dispersive(3))) is True

    def test_constructed_n7_all_even(self):
        assert even_weight_obstruction_check(tabulate(build_dispersive(7))) is True

    def test_constructed_n6_has_odd_outputs(self):
        # m = 6 steps have odd weight, so images at odd distance from the
        # origin are odd-weight: the parity invariant only binds when m/2
        # is even
        assert even_weight_obstruction_check(tabulate(build_dispersive(6))) is False

    def test_identity2(self):
        assert (
            even_weight_obstruction_check(tabulate(_identity(2))) is False
        )

    def test_outputs_are_shifted_by_the_image_of_zero(self):
        # XOR with an odd-weight word makes every output odd; the check
        # measures each output against f(0), so the verdict is unchanged
        values = tabulate(build_dispersive(3)).values ^ np.uint64(0b0001)
        assert even_weight_obstruction_check(TruthTableMap(3, 4, values)) is True

    def test_rejects_non_dispersive(self):
        with pytest.raises(ValueError):
            even_weight_obstruction_check(tabulate(_identity(4)))

    @pytest.mark.parametrize("n", [3, 7, 11])
    def test_all_even_whenever_half_dim_is_even(self, n):
        # the minimum output dim is 0 mod 4 exactly when n is 3 mod 4
        table = tabulate(build_dispersive(n))
        assert table.output_dim % 4 == 0
        assert even_weight_obstruction_check(table) is True

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_odd_outputs_when_half_dim_is_odd(self, n):
        table = tabulate(build_dispersive(n))
        assert table.output_dim % 4 == 2
        assert even_weight_obstruction_check(table) is False


class TestLinearImpossibilityAtFour:
    def test_no_independent_weight2_quadruple(self):
        vecs = [format(v, "04b") for v in range(16) if v.bit_count() == 2]
        assert len(vecs) == 6
        assert naive.rank_closure(vecs) == 3
        assert not any(
            naive.rank_closure(list(t)) == 4 for t in product(vecs, repeat=4)
        )


class TestNonlinearWitness:
    """A nonlinear 2-dispersive map 7 -> 8, narrower than any linear one."""

    W7_8 = parse_map_file(
        io.BytesIO((Path(__file__).parent / "data" / "w7_8.tt").read_bytes())
    )

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("k", [1, 2])
    def test_restrictions_are_k_dispersive(self, n, k):
        # the first 2^n entries are the map on inputs with a zero prefix
        table = TruthTableMap(n, 8, self.W7_8.values[: 1 << n])
        assert verify_dispersive(table, k).passed

    def test_fails_at_k3(self):
        report = verify_dispersive(self.W7_8, 3)
        assert report.first_violation == (BitWord(7, 0), BitWord(7, 0b1011))
        assert report.violation_distance == 2
        assert report.injective and not report.passed

    def test_injective(self):
        assert self.W7_8.is_injective()
        assert len(set(self.W7_8.values.tolist())) == 128

    def test_linear_minimum_is_wider(self, capsys):
        # the linear minimum at (5, 2) is 12; the restriction above has 8
        status = main(["explore", "--n", "5", "--k", "2", "--m-max", "12"])
        assert status == 0
        assert capsys.readouterr().out.splitlines()[0] == "FOUND m=12"


class TestReportFormatting:
    def test_pass_line(self):
        report = verify_dispersive(tabulate(build_dispersive(3)))
        assert format_dispersion_report(report) == "PASS"

    def test_fail_line(self):
        report = verify_dispersive(tabulate(_identity(4)))
        assert format_dispersion_report(report) == "FAIL {0000,1000} 1"


def _identity(n: int) -> LinearMap:
    return LinearMap(n, n, tuple(1 << (n - i) for i in range(1, n + 1)))


def _lin(rows: list[str]) -> LinearMap:
    return LinearMap(len(rows), len(rows[0]), tuple(int(r, 2) for r in rows))


def _random_map(rng: random.Random, n: int, m: int) -> LinearMap:
    # mix of arbitrary and semi-weight generators so that passing maps
    # actually occur
    gens = []
    for _ in range(n):
        if rng.random() < 0.5:
            gens.append(rng.randrange(1 << m))
        else:
            gens.append(_random_semi(rng, m))
    return LinearMap(n, m, tuple(gens))


def _random_semi(rng: random.Random, m: int) -> int:
    positions = rng.sample(range(m), m // 2)
    return sum(1 << p for p in positions)


def _random_table(rng: random.Random, n: int, m: int) -> TruthTableMap:
    values = [rng.randrange(1 << m) for _ in range(1 << n)]
    return TruthTableMap(n, m, np.array(values, dtype=np.uint64))


def _first_violation_oracle(table, n, m):
    # same enumeration order as the library: x ascending, flipped bit
    # position ascending
    for xv in range(1 << n):
        for i in range(1, n + 1):
            yv = xv ^ (1 << (n - i))
            if xv < yv:
                xs, ys = format(xv, f"0{n}b"), format(yv, f"0{n}b")
                d = naive.dist(table[xs], table[ys])
                if 2 * d != m:
                    return (xs, ys, d)
    return None
