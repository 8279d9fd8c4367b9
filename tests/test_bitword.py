import pytest
from hypothesis import given
from hypothesis import strategies as st

from dispdiff import (
    BitWord,
    BudgetExceededError,
    PairSpec,
    distance,
    pair_count,
    weight,
    xor,
)
from dispdiff.bitword import diff_patterns, pair_space

import naive
from peakmem import peak_below


def W(s: str) -> BitWord:
    return BitWord.parse(s)


words_st = st.integers(min_value=1, max_value=16).flatmap(
    lambda w: st.builds(
        BitWord, st.just(w), st.integers(min_value=0, max_value=2**w - 1)
    )
)


class TestBitWord:
    def test_parse_render_roundtrip_examples(self):
        for text in ["0", "1", "1100", "0001", "1" * 64]:
            assert str(W(text)) == text

    @given(words_st)
    def test_parse_render_roundtrip(self, w):
        assert BitWord.parse(str(w)) == w

    @pytest.mark.parametrize("bad", ["", "012", "1 0", "ab", "0b1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            BitWord.parse(bad)

    def test_width_cap(self):
        with pytest.raises(ValueError):
            BitWord(65, 0)
        with pytest.raises(ValueError):
            BitWord(0, 0)
        with pytest.raises(ValueError):
            BitWord(2, 4)

    def test_equality_needs_width(self):
        assert W("01") != W("1")
        assert W("01") == BitWord(2, 1)

    def test_unit(self):
        assert str(BitWord.unit(4, 1)) == "1000"
        assert str(BitWord.unit(4, 4)) == "0001"
        with pytest.raises(ValueError):
            BitWord.unit(4, 5)

    @pytest.mark.parametrize("make", [lambda w: BitWord.unit(w, 1), BitWord.ones])
    def test_huge_width_rejected_before_shifting(self, make):
        with peak_below(), pytest.raises(ValueError, match="width must be in 1..64"):
            make(10**9)


class TestXor:
    def test_examples(self):
        assert xor(W("1010"), W("0110")) == W("1100")
        assert xor(W("111"), W("000")) == W("111")

    def test_self_inverse(self):
        for v in range(16):
            x = BitWord(4, v)
            assert xor(x, x) == BitWord.zeros(4)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            xor(W("10"), W("100"))

    def test_abelian_group_exhaustive(self):
        # commutativity, identity and self-inverse over all of width 8;
        # associativity exhaustively at width 3 and via hypothesis below
        zero = BitWord.zeros(8)
        for a in range(256):
            x = BitWord(8, a)
            assert xor(x, zero) == x
            assert xor(x, x) == zero
        for a in range(256):
            for b in range(a, 256):
                x, y = BitWord(8, a), BitWord(8, b)
                assert xor(x, y) == xor(y, x)
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    x, y, z = (BitWord(3, v) for v in (a, b, c))
                    assert xor(xor(x, y), z) == xor(x, xor(y, z))

    @given(words_st, words_st, words_st)
    def test_associativity(self, x, y, z):
        x, y, z = (BitWord(8, w.value & 0xFF) for w in (x, y, z))
        assert xor(xor(x, y), z) == xor(x, xor(y, z))


class TestWeightDistance:
    def test_weight_examples(self):
        assert weight(W("1011")) == 3
        assert weight(BitWord.zeros(7)) == 0
        assert weight(W("111000")) == 3

    def test_distance_examples(self):
        assert distance(W("000"), W("101")) == 2
        assert distance(W("1100"), W("0110")) == 2
        assert distance(W("1100"), W("1100")) == 0

    def test_distance_is_weight_of_xor(self):
        for a in range(32):
            for b in range(32):
                x, y = BitWord(5, a), BitWord(5, b)
                assert distance(x, y) == weight(xor(x, y))

    def test_metric_exhaustive_width6(self):
        ws = [BitWord(6, v) for v in range(64)]
        for x in ws:
            for y in ws:
                d = distance(x, y)
                assert d == distance(y, x)
                assert (d == 0) == (x == y)
        for a in range(64):
            for b in range(64):
                for c in range(64):
                    ab = (a ^ b).bit_count()
                    bc = (b ^ c).bit_count()
                    ac = (a ^ c).bit_count()
                    assert ac <= ab + bc

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            distance(W("10"), W("100"))


def _pairs(n: int, k: int) -> list[tuple[BitWord, BitWord]]:
    # the pairs the verifiers scan: {x, x ^ d} for each pattern d, counted
    # once at the smaller element; x ascending, then the pattern order
    patterns = diff_patterns(n, k)
    return [
        (BitWord(n, x), BitWord(n, x ^ d))
        for x in range(1 << n)
        for d in patterns
        if x < x ^ d
    ]


class TestPairEnumeration:
    def test_pairspec_validation(self):
        with pytest.raises(ValueError):
            PairSpec(0, 1)
        with pytest.raises(ValueError):
            PairSpec(3, 4)
        with pytest.raises(ValueError):
            PairSpec(3, 0)

    def test_n2_k1_exact(self):
        pairs = {(str(x), str(y)) for x, y in _pairs(2, 1)}
        assert pairs == {("00", "10"), ("00", "01"), ("01", "11"), ("10", "11")}

    def test_n3_k1_count(self):
        assert len(_pairs(3, 1)) == pair_count(PairSpec(3, 1)) == 12

    def test_n2_k2_all_pairs(self):
        pairs = _pairs(2, 2)
        assert len(pairs) == 6 == pair_count(PairSpec(2, 2))
        assert len({frozenset((x.value, y.value)) for x, y in pairs}) == 6

    @pytest.mark.parametrize("n", range(1, 11))
    def test_k1_count_formula(self, n):
        got = _pairs(n, 1)
        assert len(got) == n * 2 ** (n - 1) == pair_count(PairSpec(n, 1))
        keys = {frozenset((x.value, y.value)) for x, y in got}
        assert len(keys) == len(got)
        assert all(distance(x, y) == 1 for x, y in got)

    def test_k1_count_n16(self):
        # k = 1 patterns are the unit words, by flipped bit position
        assert diff_patterns(16, 1) == [1 << (16 - i) for i in range(1, 17)]
        assert pair_count(PairSpec(16, 1)) == 16 * 2**15

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 6), (7, 2)])
    def test_k_counts_match_oracle(self, n, k):
        got = _pairs(n, k)
        expect = naive.all_pairs(n, k)
        assert len(got) == len(expect) == pair_count(PairSpec(n, k))
        got_keys = {frozenset((str(x), str(y))) for x, y in got}
        assert got_keys == {frozenset(p) for p in expect}

    def test_budget_rejected(self):
        assert pair_space(PairSpec(10, 1), 5120) == 5120
        with pytest.raises(BudgetExceededError) as exc:
            pair_space(PairSpec(10, 1), 100)
        assert exc.value.estimate == 10 * 2**9
        assert "5120" in str(exc.value)

    def test_deterministic_order(self):
        a = [(str(x), str(y)) for x, y in _pairs(4, 2)]
        assert a == [(str(x), str(y)) for x, y in _pairs(4, 2)]
        # smaller element ascending, first pairs anchored at 0000
        assert a[0][0] == "0000"
        assert [y for x, y in a[:10]] == [
            format(d, "04b") for d in diff_patterns(4, 2)
        ]
