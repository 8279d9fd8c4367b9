import io
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dispdiff import (
    BitWord,
    LinearMap,
    TruthTableMap,
    parse_map_file,
    rank,
    serialize_generator_matrix,
    tabulate,
    transpose,
)

from dispdiff.f2linear import MAX_TABLE_BITS, table_size

import naive
from peakmem import peak_below
from tablebytes import table_bytes


def lin(rows: list[str]) -> LinearMap:
    return LinearMap(len(rows), len(rows[0]), tuple(int(r, 2) for r in rows))


def identity_map(n: int) -> LinearMap:
    return LinearMap(n, n, tuple(1 << (n - i) for i in range(1, n + 1)))


def random_map(rng: random.Random, n: int, m: int) -> LinearMap:
    return LinearMap(n, m, tuple(rng.randrange(1 << m) for _ in range(n)))


F3 = ["1100", "0110", "0101"]


class TestApply:
    def test_identity(self):
        ident = identity_map(4)
        for v in range(16):
            x = BitWord(4, v)
            assert ident.lookup(x) == x

    def test_example(self):
        assert str(lin(F3).lookup(BitWord.parse("101"))) == "1001"

    def test_zero_maps_to_zero(self):
        rng = random.Random(7)
        for _ in range(20):
            m = random_map(rng, rng.randint(1, 6), rng.randint(1, 8))
            out = m.lookup(BitWord(m.input_dim, 0))
            assert out == BitWord(m.output_dim, 0)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            lin(F3).lookup(BitWord.parse("10"))

    def test_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            n, m = rng.randint(1, 6), rng.randint(1, 8)
            mp = random_map(rng, n, m)
            rows = [format(g, f"0{m}b") for g in mp.generators]
            for x in naive.words(n):
                assert str(mp.lookup(BitWord.parse(x))) == naive.apply_gens(
                    rows, x
                )

    def test_linearity_exhaustive(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(1, 6)
            mp = random_map(rng, n, rng.randint(1, 8))
            for a in range(1 << n):
                for b in range(1 << n):
                    fa, fb = (mp.lookup(BitWord(n, v)).value for v in (a, b))
                    assert mp.lookup(BitWord(n, a ^ b)).value == fa ^ fb

    def test_distance_one_bridge(self):
        # a pair differing at input bit i maps to images differing by
        # exactly generator i
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(2, 8)
            mp = random_map(rng, n, rng.randint(1, 8))
            for v in range(1 << n):
                fx = mp.lookup(BitWord(n, v)).value
                for i in range(1, n + 1):
                    fy = mp.lookup(BitWord(n, v ^ (1 << (n - i)))).value
                    assert fx ^ fy == mp.generators[i - 1]


class TestRank:
    def test_identity(self):
        assert rank(identity_map(4).generators) == 4

    def test_constructed_dependency(self):
        assert rank([0b1100, 0b0110, 0b1010]) == 2

    def test_example(self):
        assert rank(lin(F3).generators) == 3

    def test_empty(self):
        assert rank([]) == 0

    def test_matches_closure_oracle(self):
        rng = random.Random(19)
        for _ in range(100):
            w = rng.randint(1, 8)
            rows = [
                format(rng.randrange(1 << w), f"0{w}b")
                for _ in range(rng.randint(0, 8))
            ]
            assert rank([int(r, 2) for r in rows]) == naive.rank_closure(rows)

    def test_row_rank_equals_column_rank(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 8)
            mp = random_map(rng, n, n)
            assert rank(mp.generators) == rank(transpose(mp).generators)

    def test_inputs_not_mutated(self):
        rows = [0b1100, 0b0110, 0b1010]
        snapshot = list(rows)
        rank(rows)
        assert rows == snapshot


class TestTranspose:
    def test_identity(self):
        ident = identity_map(5)
        assert transpose(ident) == ident

    def test_two_by_two(self):
        assert transpose(lin(["11", "01"])) == lin(["10", "11"])

    def test_involution(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(1, 8)
            mp = random_map(rng, n, n)
            assert transpose(transpose(mp)) == mp

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            transpose(lin(F3))


class TestTabulate:
    def test_identity(self):
        table = tabulate(identity_map(2))
        assert table.values.tolist() == [0b00, 0b01, 0b10, 0b11]

    def test_example_entry(self):
        table = tabulate(lin(F3))
        assert len(table.values) == 8
        assert table.values[0b101] == 0b1001

    def test_zero_entry(self):
        rng = random.Random(31)
        for _ in range(10):
            mp = random_map(rng, rng.randint(1, 6), rng.randint(1, 8))
            assert tabulate(mp).values[0] == 0

    def test_matches_apply_everywhere(self):
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randint(1, 8)
            mp = random_map(rng, n, rng.randint(1, 8))
            values = tabulate(mp).values.tolist()
            for j in range(1 << n):
                assert values[j] == mp.lookup(BitWord(n, j)).value

    def test_injective_iff_full_rank(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 6)
            mp = random_map(rng, n, rng.randint(1, 8))
            assert tabulate(mp).is_injective() == (rank(mp.generators) == n)

    def test_table_cap(self):
        assert table_size(MAX_TABLE_BITS) == 1 << 28
        big = identity_map(MAX_TABLE_BITS + 1)
        with peak_below(), pytest.raises(ValueError, match=r"n=29 .* 2\^28 entries"):
            tabulate(big)
        with pytest.raises(ValueError, match=r"n=29 .* 2\^28 entries"):
            parse_map_file(io.BytesIO(b"29 1\n" + b"0" * 29 + b" 1\n"))


class TestTruthTableMap:
    def test_lookup(self):
        table = tabulate(lin(F3))
        assert str(table.lookup(BitWord.parse("101"))) == "1001"
        with pytest.raises(ValueError):
            table.lookup(BitWord.parse("10"))


matrix_st = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.integers(min_value=1, max_value=8).flatmap(
        lambda m: st.builds(
            lambda vals: LinearMap(n, m, tuple(vals)),
            st.lists(
                st.integers(min_value=0, max_value=2**m - 1),
                min_size=n,
                max_size=n,
            ),
        )
    )
)


class TestFileFormats:
    def test_generator_exact_text(self):
        text = serialize_generator_matrix(lin(F3))
        assert text == b"3 4\n1100\n0110\n0101\n"
        assert parse_map_file(io.BytesIO(text)) == lin(F3)

    def test_truth_table_exact_text(self):
        text = table_bytes(tabulate(identity_map(2)))
        assert text == b"2 2\n00 00\n01 01\n10 10\n11 11\n"

    @given(matrix_st)
    def test_generator_roundtrip(self, mp):
        text = serialize_generator_matrix(mp)
        assert parse_map_file(io.BytesIO(text)) == mp
        assert serialize_generator_matrix(parse_map_file(io.BytesIO(text))) == text

    @given(matrix_st)
    def test_table_roundtrip(self, mp):
        table = tabulate(mp)
        text = table_bytes(table)
        assert parse_map_file(io.BytesIO(text)) == table
        assert table_bytes(parse_map_file(io.BytesIO(text))) == text

    def test_sniffing(self):
        gm = serialize_generator_matrix(lin(F3))
        tt = table_bytes(tabulate(lin(F3)))
        assert isinstance(parse_map_file(io.BytesIO(gm)), LinearMap)
        assert isinstance(parse_map_file(io.BytesIO(tt)), TruthTableMap)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "3\n",
            "a b\n100\n",
            "1 3\n10\n",  # wrong row width
            "1 2\n01\n10\n",  # too many rows
            "2 2\n00 00\n01 01\n10 10\n",  # missing entry
            "1 1\n0 0\n2 1\n",  # bad word
            "1 1\n1 0\n0 1\n",  # inputs out of order
            "1 2\n01",  # missing trailing newline
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_map_file(io.BytesIO(bad.encode()))


@pytest.mark.parametrize("n, m", [(0, 2), (65, 2), (2, 0), (2, 65)])
def test_linear_map_dimensions_in_word_range(n, m):
    # a 65-input matrix would serialize to a header parse_map_file refuses
    with pytest.raises(ValueError, match="dimensions must be in 1..64"):
        LinearMap(n, m, (1,) * n)


@pytest.mark.parametrize(
    "gen",
    [4, -1, BitWord(2, 1), 1.0, np.uint64(1)],
    ids=["too-wide", "negative", "bitword", "float", "numpy"],
)
def test_linear_map_generators_are_m_bit_ints(gen):
    # generators are Python ints in 0..2^m - 1; anything else is refused
    # here, not by an AttributeError deep in rank or lookup
    with pytest.raises(ValueError, match="not an int in 0..2\\^2-1"):
        LinearMap(1, 2, (gen,))


def test_linear_map_holds_its_generators_as_a_tuple():
    # records compare and hash by their fields, so a list is stored as
    # the tuple it lists
    from_list, from_tuple = LinearMap(2, 2, [1, 2]), LinearMap(2, 2, (1, 2))
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert type(from_list.generators) is tuple
