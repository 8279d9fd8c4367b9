import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispdiff import (
    BitWord,
    BudgetExceededError,
    PairSpec,
    alpha,
    beta,
    complement,
    concat,
    distance,
    enumerate_pairs,
    pair_count,
    proj,
    sigma,
    tau,
    weight,
    xor,
    xor_padded,
)

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

    def test_padded_examples(self):
        assert xor_padded(W("10"), W("1")) == W("11")
        assert xor_padded(W("0100"), W("1")) == W("0101")

    @given(words_st, words_st)
    def test_padded_equal_widths_is_xor(self, x, y):
        if x.width == y.width:
            assert xor_padded(x, y) == xor(x, y)
        else:
            assert xor_padded(x, y).width == max(x.width, y.width)

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


class TestStructuralOps:
    def test_concat(self):
        assert concat(W("10"), W("011")) == W("10011")
        assert concat(W("0"), W("11")) == W("011")
        assert concat(W("1"), W("1")) == W("11")

    def test_concat_cap(self):
        with pytest.raises(ValueError):
            concat(BitWord.zeros(40), BitWord.zeros(30))

    def test_alpha_beta(self):
        assert alpha(W("101")) == 1
        assert alpha(W("011")) == 0
        assert alpha(W("1")) == 1
        assert beta(W("101")) == W("01")
        assert beta(W("0111")) == W("111")
        assert beta(W("10")) == W("0")
        with pytest.raises(ValueError):
            beta(W("1"))

    @given(words_st)
    def test_alpha_beta_concat_inverse(self, x):
        if x.width >= 2:
            assert concat(BitWord(1, alpha(x)), beta(x)) == x

    def test_tau(self):
        assert tau(W("110")) == W("101")
        assert tau(W("0111")) == W("0111")
        assert tau(W("01")) == W("10")
        with pytest.raises(ValueError):
            tau(W("0"))

    def test_sigma_examples(self):
        assert sigma(W("0100")) == W("0110")
        # one full cycle over the last two bits
        assert sigma(W("0100")) == W("0110")
        assert sigma(W("0110")) == W("0111")
        assert sigma(W("0111")) == W("0101")
        assert sigma(W("0101")) == W("0100")

    def test_sigma_order_four(self):
        for n in range(2, 11):
            for v in range(1 << n):
                x = BitWord(n, v)
                y = sigma(sigma(sigma(sigma(x))))
                assert y == x

    def test_sigma_cycle_structure(self):
        # sigma decomposes exactly into the 4-cycles (x|00, x|10, x|11, x|01)
        for n in range(2, 11):
            seen = set()
            for prefix in range(1 << (n - 2)):
                base = prefix << 2
                cycle = [base, base | 2, base | 3, base | 1]
                for cur, nxt in zip(cycle, cycle[1:] + cycle[:1]):
                    assert sigma(BitWord(n, cur)) == BitWord(n, nxt)
                seen.update(cycle)
            assert len(seen) == 1 << n

    def test_sigma_matches_oracle(self):
        for n in range(2, 9):
            for s in naive.words(n):
                assert str(sigma(W(s))) == naive.sigma(s)

    def test_beta_sigma_commute(self):
        for n in range(3, 11):
            for v in range(1 << n):
                x = BitWord(n, v)
                assert beta(sigma(x)) == sigma(beta(x))

    def test_sigma_preserves_distance(self):
        for n in (2, 5, 8):
            for a in range(1 << n):
                for b in range(1 << n):
                    x, y = BitWord(n, a), BitWord(n, b)
                    assert distance(sigma(x), sigma(y)) == distance(x, y)

    def test_complement(self):
        assert complement(W("1010")) == W("0101")
        assert complement(BitWord.zeros(5)) == BitWord.ones(5)
        for v in range(32):
            x = BitWord(5, v)
            assert complement(complement(x)) == x

    def test_complement_xor_identities(self):
        for a in range(256):
            for b in range(256):
                x, y = BitWord(8, a), BitWord(8, b)
                assert xor(complement(x), complement(y)) == xor(x, y)
                assert xor(x, complement(y)) == complement(xor(x, y))

    def test_proj(self):
        assert proj(2, W("110")) == 1
        assert proj(1, W("011")) == 0
        assert proj(3, W("001")) == 1
        with pytest.raises(ValueError):
            proj(0, W("01"))
        with pytest.raises(ValueError):
            proj(3, W("01"))


class TestPairEnumeration:
    def test_pairspec_validation(self):
        with pytest.raises(ValueError):
            PairSpec(0, 1)
        with pytest.raises(ValueError):
            PairSpec(3, 4)
        with pytest.raises(ValueError):
            PairSpec(3, 0)

    def test_n2_k1_exact(self):
        pairs = {
            (str(x), str(y)) for x, y in enumerate_pairs(PairSpec(2, 1))
        }
        assert pairs == {("00", "10"), ("00", "01"), ("01", "11"), ("10", "11")}

    def test_n3_k1_count(self):
        assert sum(1 for _ in enumerate_pairs(PairSpec(3, 1))) == 12

    def test_n2_k2_all_pairs(self):
        pairs = list(enumerate_pairs(PairSpec(2, 2)))
        assert len(pairs) == 6
        assert len({frozenset((x.value, y.value)) for x, y in pairs}) == 6

    @pytest.mark.parametrize("n", range(1, 11))
    def test_k1_count_formula(self, n):
        got = list(enumerate_pairs(PairSpec(n, 1)))
        assert len(got) == n * 2 ** (n - 1) == pair_count(PairSpec(n, 1))
        keys = {frozenset((x.value, y.value)) for x, y in got}
        assert len(keys) == len(got)
        assert all(distance(x, y) == 1 for x, y in got)

    def test_k1_count_n16(self):
        count = sum(1 for _ in enumerate_pairs(PairSpec(16, 1)))
        assert count == 16 * 2**15

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 6), (7, 2)])
    def test_k_counts_match_oracle(self, n, k):
        got = list(enumerate_pairs(PairSpec(n, k)))
        expect = naive.all_pairs(n, k)
        assert len(got) == len(expect) == pair_count(PairSpec(n, k))
        got_keys = {frozenset((str(x), str(y))) for x, y in got}
        assert got_keys == {frozenset(p) for p in expect}

    def test_chunk_partition(self):
        spec = PairSpec(5, 2)
        full = [
            (x.value, y.value) for x, y in enumerate_pairs(spec)
        ]
        bounds = [0, 7, 13, 32]
        chunked = []
        for lo, hi in zip(bounds, bounds[1:]):
            chunked.extend(
                (x.value, y.value)
                for x, y in enumerate_pairs(spec, x_range=(lo, hi))
            )
        assert chunked == full

    def test_budget_rejected(self):
        with pytest.raises(BudgetExceededError) as exc:
            list(enumerate_pairs(PairSpec(10, 1), budget=100))
        assert exc.value.estimate == 10 * 2**9
        assert "5120" in str(exc.value)

    def test_deterministic_order(self):
        spec = PairSpec(4, 2)
        a = [(str(x), str(y)) for x, y in enumerate_pairs(spec)]
        b = [(str(x), str(y)) for x, y in enumerate_pairs(spec)]
        assert a == b
        # smaller element ascending, first pairs anchored at 0000
        assert a[0][0] == "0000"


@settings(max_examples=50)
@given(words_st, words_st)
def test_concat_then_split(x, y):
    if x.width + y.width <= 64:
        z = concat(x, y)
        assert z.width == x.width + y.width
        assert str(z) == str(x) + str(y)
