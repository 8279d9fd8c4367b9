from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dispdiff import BitWord, BudgetExceededError, pair_count, semi_weight_generators
from dispdiff.bitword import diff_patterns, krawtchouk_sum, pair_space

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

    @pytest.mark.parametrize("make", [lambda w: BitWord(w, 0), semi_weight_generators])
    def test_huge_width_rejected_before_shifting(self, make):
        with peak_below(), pytest.raises(ValueError, match="width must be in 1..64"):
            make(10**9)


def _pairs(n: int, k: int) -> list[tuple[BitWord, BitWord]]:
    # the pairs the verifiers scan: {x, x ^ d} for each pattern d, counted
    # once at the smaller element; x ascending, then the pattern order
    patterns = list(diff_patterns(n, k))
    return [
        (BitWord(n, x), BitWord(n, x ^ d))
        for x in range(1 << n)
        for d in patterns
        if x < x ^ d
    ]


class TestPairEnumeration:
    def test_pairspec_validation(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            pair_count(0, 1)
        with pytest.raises(ValueError, match=r"k must be in 1\.\.3, got 4"):
            pair_count(3, 4)
        with pytest.raises(ValueError, match=r"k must be in 1\.\.3, got 0"):
            pair_count(3, 0)

    def test_n2_k1_exact(self):
        pairs = {(str(x), str(y)) for x, y in _pairs(2, 1)}
        assert pairs == {("00", "10"), ("00", "01"), ("01", "11"), ("10", "11")}

    def test_n3_k1_count(self):
        assert len(_pairs(3, 1)) == pair_count(3, 1) == 12

    def test_n2_k2_all_pairs(self):
        pairs = _pairs(2, 2)
        assert len(pairs) == 6 == pair_count(2, 2)
        assert len({frozenset((x.value, y.value)) for x, y in pairs}) == 6

    @pytest.mark.parametrize("n", range(1, 11))
    def test_k1_count_formula(self, n):
        got = _pairs(n, 1)
        assert len(got) == n * 2 ** (n - 1) == pair_count(n, 1)
        keys = {frozenset((x.value, y.value)) for x, y in got}
        assert len(keys) == len(got)
        assert all((x.value ^ y.value).bit_count() == 1 for x, y in got)

    def test_k1_count_n16(self):
        # k = 1 patterns are the unit words, by flipped bit position
        assert list(diff_patterns(16, 1)) == [1 << (16 - i) for i in range(1, 17)]
        assert pair_count(16, 1) == 16 * 2**15

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 6), (7, 2)])
    def test_k_counts_match_oracle(self, n, k):
        got = _pairs(n, k)
        expect = naive.all_pairs(n, k)
        assert len(got) == len(expect) == pair_count(n, k)
        got_keys = {frozenset((str(x), str(y))) for x, y in got}
        assert got_keys == {frozenset(p) for p in expect}

    def test_budget_rejected(self):
        assert pair_space(10, 1, 5120) == 5120
        with pytest.raises(BudgetExceededError) as exc:
            pair_space(10, 1, 100)
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


class TestKrawtchoukSum:
    """krawtchouk_sum(w, n, k) is K_{<=k}(w; n) = sum_{j=1..k} K_j(w; n)."""

    @pytest.mark.parametrize("n", range(30))
    def test_matches_the_explicit_sum(self, n):
        for w in range(n + 1):
            total = 0
            for k in range(n + 1):
                assert krawtchouk_sum(w, n, k) == total
                total += naive.krawtchouk(k + 1, w, n)

    def test_at_weight_0_it_counts_patterns(self):
        # K_j(0; n) = C(n, j), so K_{<=k}(0; n) 2^(n-1) is the pair count
        for n in range(1, 65):
            for k in range(1, n + 1):
                assert pair_count(n, k) == krawtchouk_sum(0, n, k) << (n - 1)

    def test_all_degrees_sum_to_a_point_mass(self):
        # sum_{j=0..n} K_j(w; n) = 2^n [w = 0], and K_0 = 1
        for n in range(65):
            for w in range(n + 1):
                assert krawtchouk_sum(w, n, n) == (1 << n if w == 0 else 0) - 1

    @pytest.mark.parametrize("n", range(13))
    def test_orthogonality(self, n):
        # sum_w C(n, w) K_i(w) K_j(w) = 2^n C(n, i) [i = j]
        def K(j, w):
            # K_0 = 1; K_j is the difference of two consecutive sums
            return krawtchouk_sum(w, n, j) - krawtchouk_sum(w, n, j - 1) if j else 1

        for i in range(n + 1):
            for j in range(n + 1):
                inner = sum(comb(n, w) * K(i, w) * K(j, w) for w in range(n + 1))
                assert inner == ((1 << n) * comb(n, i) if i == j else 0)
