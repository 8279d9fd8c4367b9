import concurrent.futures
import hashlib
import random

import numpy as np
import pytest

from dispdiff import (
    BitWord,
    LinearMap,
    TruthTableMap,
    build_dispersive,
    column_diffusive,
    decompose_sums,
    extend_output,
    format_diffusion_report,
    g_table,
    quadruple_sum_check,
    tabulate,
    verify_diffusive,
    verify_dispersive,
)
from dispdiff.diffusive import _g_words

import naive
from peakmem import peak_below
from tablebytes import small_blocks, table_bytes

G3_GOLDEN = ["000", "001", "110", "111", "010", "100", "011", "101"]
# sha256 of the n=18 table file, as pinned by perfbench/workloads.py
G18_SHA256 = "6addcc9e76c68944f466b3c94d43321a30e3e44506da4e53740f809c3376577a"


class TestGEval:
    """g read off its table, and the closed-form kernel past the table cap."""

    def test_base_case_identity(self):
        table = g_table(2)
        for s in ["00", "01", "10", "11"]:
            assert str(table.lookup(BitWord.parse(s))) == s

    def test_hand_values(self):
        table = g_table(3)
        assert str(table.lookup(BitWord.parse("100"))) == "010"
        assert str(table.lookup(BitWord.parse("111"))) == "101"

    def test_matches_string_oracle(self):
        for n in range(2, 9):
            table = g_table(n)
            for s in naive.words(n):
                assert str(table.lookup(BitWord.parse(s))) == naive.g(s)

    @pytest.mark.parametrize("n", range(9, 65))
    def test_matches_string_oracle_wide(self, n):
        # the prefix-XOR shifts of 8, 16 and 32 first matter at n = 11, 19,
        # 35; g_table stops at n = 28, so the kernel is called directly
        rng = random.Random(n)
        samples = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(40)]
        got = _g_words(n, np.array(samples, dtype=np.uint64)).tolist()
        assert [format(v, f"0{n}b") for v in got] == [
            naive.g(format(v, f"0{n}b")) for v in samples
        ]

    def test_validation(self):
        for n in [1, 0, -1]:
            with pytest.raises(ValueError, match="n must be >= 2"):
                g_table(n)

    def test_recursion_structure(self):
        # 0-prefixed inputs copy the recursive image's leading bit;
        # 1-prefixed inputs complement it after the last-two-bits cycle
        for n in range(3, 8):
            below, g = g_table(n - 1).values.tolist(), g_table(n).values.tolist()
            for v in range(1 << (n - 1)):
                y = below[v]
                assert g[v] == (y >> (n - 2)) << (n - 1) | y
                z = below[int(naive.sigma(format(v, f"0{n - 1}b")), 2)]
                assert g[1 << (n - 1) | v] == (1 ^ z >> (n - 2)) << (n - 1) | z


class TestGTable:
    def test_n2_identity(self):
        assert g_table(2).values.tolist() == [0b00, 0b01, 0b10, 0b11]

    def test_n3_golden(self):
        assert [format(v, "03b") for v in g_table(3).values.tolist()] == G3_GOLDEN

    def test_n4_permutation(self):
        table = g_table(4)
        assert table.is_injective()
        assert len(set(table.values.tolist())) == 16

    @pytest.mark.parametrize("n", range(2, 13))
    def test_permutation(self, n):
        assert g_table(n).is_injective()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_string_oracle(self, n):
        expected = [int(naive.g(s), 2) for s in naive.words(n)]
        assert g_table(n).values.tolist() == expected

    @pytest.mark.parametrize("rows", [3, 97])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_string_oracle_at_odd_block_sizes(self, n, rows):
        expected = [int(naive.g(s), 2) for s in naive.words(n)]
        with small_blocks(rows):
            assert g_table(n).values.tolist() == expected

    def test_n18_file_hash(self):
        data = table_bytes(g_table(18))
        assert hashlib.sha256(data).hexdigest() == G18_SHA256

    def test_n20_peak_memory(self):
        # filled a block at a time, g needs the 8 MiB table and temporaries
        # the size of one block, not of the table
        with peak_below((8 << 20) + (1 << 20)):
            g_table(20)

    @pytest.mark.parametrize("n", [29, 4_000_000_000])
    def test_table_cap(self, n):
        with peak_below(), pytest.raises(ValueError, match=f"n={n} .* 2\\^28"):
            g_table(n)


class TestVerifyDiffusive:
    def test_g2(self):
        report = verify_diffusive(g_table(2))
        assert report.passed
        assert report.per_bit_sums == (2, 2)
        assert report.target == 2
        assert report.pairs_checked == 4

    def test_g3(self):
        report = verify_diffusive(g_table(3))
        assert report.passed
        assert report.per_bit_sums == (6, 6, 6)
        assert report.target == 6
        assert report.pairs_checked == 12

    def test_f3_tabulated_is_not_diffusive(self):
        report = verify_diffusive(tabulate(build_dispersive(3)))
        assert report.per_bit_sums == (4, 12, 4, 4)
        assert report.target == 6
        assert not report.passed

    def test_sums_match_oracle(self):
        for n in range(2, 7):
            table = g_table(n)
            as_dict = {
                format(j, f"0{n}b"): format(v, f"0{n}b")
                for j, v in enumerate(table.values.tolist())
            }
            assert (
                list(verify_diffusive(table).per_bit_sums)
                == naive.diffusion_sums(as_dict, n)
            )

    def test_rejects_one_bit_inputs(self):
        table = TruthTableMap(1, 1, np.array([0, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="not an integer"):
            verify_diffusive(table)

    def test_non_injective_fails(self):
        table = TruthTableMap(2, 2, np.zeros(4, dtype=np.uint64))
        report = verify_diffusive(table)
        assert not report.passed and not report.injective

    def test_checks_all_output_bits_beyond_n(self):
        # a widened map is judged on every output bit, not just the first n
        wide = extend_output(g_table(3), 2)
        report = verify_diffusive(wide)
        assert len(report.per_bit_sums) == 5
        assert report.passed

    def test_huge_thread_count_clamped_to_cpu_count(self, monkeypatch):
        from dispdiff import _scan

        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        table = g_table(4)
        serial = (verify_diffusive(table), verify_dispersive(table, 2))
        # _scan imports the pool only when it starts more than one worker
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(_scan.os, "cpu_count", lambda: 2)
        # g_table(4) is far below the pairs that pay for a worker
        monkeypatch.setattr(_scan, "MIN_PAIRS_PER_WORKER", 1)
        clamped = (
            verify_diffusive(table, threads=100_000),
            verify_dispersive(table, 2, threads=100_000),
        )
        assert clamped == serial
        assert seen == [2, 2]


# the circulant whose rows are the rotations of 11100000: every column has
# weight 3, and 1 + x + x^2 is prime to (1 + x)^8, so it is injective
C8 = LinearMap(8, 8, [int(("11100000" * 2)[8 - i : 16 - i], 2) for i in range(8)])


class TestNonMonotoneDiffusion:
    """k-diffusion is not monotone in k: a map can pass at one k and fail
    at a smaller and at a larger one."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_identity_passes_at_n_minus_1_only(self, n):
        # its columns have weight 1, and K_{<=k}(1; n) vanishes at k = n - 1
        table = TruthTableMap(n, n, np.arange(1 << n, dtype=np.uint64))
        linear = LinearMap(n, n, [1 << (n - i) for i in range(1, n + 1)])
        for k in range(1, n + 1):
            report = verify_diffusive(table, k)
            assert report == verify_diffusive(linear, k)
            assert report.passed == (k == n - 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_odd_columns_pass_at_n_minus_1(self, n):
        # K_{<=n-1}(w; n) = -1 - (-1)^w, so an injective matrix is
        # (n-1)-diffusive iff every column has odd weight
        rng = random.Random(n)
        odd = [v for v in range(1 << n) if v.bit_count() % 2]
        for _ in range(4):
            mp = None
            while mp is None or not mp.is_injective():
                columns = [rng.choice(odd) for _ in range(rng.randint(n, n + 4))]
                mp = LinearMap(n, len(columns), naive.rows_of_columns(n, columns))
            # one column made even by flipping one of its bits, still injective
            flips = [(b, 1 << t) for b in range(len(columns)) for t in range(n)]
            rng.shuffle(flips)
            for b, bit in flips:
                changed = columns[:b] + [columns[b] ^ bit] + columns[b + 1 :]
                even = LinearMap(n, len(changed), naive.rows_of_columns(n, changed))
                if even.is_injective():
                    break
            for linear, passes in ((mp, True), (even, False)):
                report = verify_diffusive(linear, n - 1)
                assert report == verify_diffusive(tabulate(linear), n - 1)
                assert report.injective and report.passed == passes

    def test_circulant_passes_at_2_5_and_7(self):
        # weight 3 is a root of K_{<=k}(w; 8) at k = 2, 5 and 7 only
        table = tabulate(C8)
        for k in range(1, 9):
            report = verify_diffusive(C8, k)
            assert report == verify_diffusive(table, k)
            assert report.passed == (k in (2, 5, 7))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_g_passes_at_1_only(self, n):
        table = g_table(n)
        assert [verify_diffusive(table, k).passed for k in range(1, n + 1)] == [
            k == 1 for k in range(1, n + 1)
        ]


class TestColumnDiffusive:
    def test_n2_identity(self):
        assert column_diffusive(2).generators == (0b10, 0b01)

    def test_n6_exact(self):
        mp = column_diffusive(6)
        assert [format(g, "06b") for g in mp.generators] == [
            "100001",
            "110000",
            "111110",
            "011011",
            "001100",
            "000111",
        ]
        report = verify_diffusive(tabulate(mp))
        assert report.passed
        assert all(s == 96 for s in report.per_bit_sums)

    @pytest.mark.parametrize("n", [4, 8, 3, 5])
    def test_rejected_off_residue(self, n):
        with pytest.raises(ValueError):
            column_diffusive(n)


class TestExtendOutput:
    def test_g2_extended(self):
        ext = extend_output(g_table(2), 1)
        assert ext.values.tolist() == [0b000, 0b010, 0b101, 0b111]

    def test_extra_zero_rejected(self):
        with pytest.raises(ValueError):
            extend_output(g_table(2), 0)

    def test_g3_extended_passes_on_all_bits(self):
        report = verify_diffusive(extend_output(g_table(3), 1))
        assert report.passed
        assert report.per_bit_sums == (6, 6, 6, 6)

    def test_injectivity_preserved(self):
        rng = random.Random(211)
        for _ in range(20):
            n = rng.randint(2, 5)
            outs = rng.sample(range(1 << (n + 1)), 1 << n)
            table = TruthTableMap(n, n + 1, np.array(outs, dtype=np.uint64))
            assert extend_output(table, 2).is_injective()

    def test_width_cap(self):
        table = TruthTableMap(1, 60, np.array([0, 1], dtype=np.uint64))
        with pytest.raises(ValueError):
            extend_output(table, 5)


class TestQuadrupleSums:
    def test_n2_by_hand(self):
        # identity cycle 00 -> 10 -> 11 -> 01: diffs 10, 01, 10, 01
        assert quadruple_sum_check(2) is True

    @pytest.mark.parametrize("n", range(2, 11))
    def test_holds_for_construction(self, n):
        assert quadruple_sum_check(n) is True

    def test_oracle_small(self):
        for n in (2, 3, 4):
            table = {s: naive.g(s) for s in naive.words(n)}
            prefixes = naive.words(n - 2) if n > 2 else [""]
            for prefix in prefixes:
                cyc = [prefix + "00", prefix + "10", prefix + "11", prefix + "01"]
                for j in range(n):
                    total = sum(
                        int(naive.xor(table[cyc[t]], table[cyc[(t + 1) % 4]])[j])
                        for t in range(4)
                    )
                    assert total == 2

    def test_detects_failure(self):
        # the identity on 3 bits is not diffusive, and indeed has a
        # quadruple summing to 0 in bit 1; swap the table in via a stub
        table = {s: s for s in naive.words(3)}
        sums = []
        for prefix in naive.words(1):
            cyc = [prefix + "00", prefix + "10", prefix + "11", prefix + "01"]
            sums.append(
                sum(
                    int(naive.xor(table[cyc[t]], table[cyc[(t + 1) % 4]])[0])
                    for t in range(4)
                )
            )
        assert 2 not in sums


class TestDecomposeSums:
    def test_n3_i2(self):
        assert decompose_sums(3, 2) == (2, 2, 2, 6)

    def test_n4_i1(self):
        assert decompose_sums(4, 1) == (6, 6, 4, 16)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_formulas(self, n):
        for i in range(1, n + 1):
            p, q, r, c = decompose_sums(n, i)
            assert p == q == (n - 1) * 2 ** (n - 3)
            assert r == 2 ** (n - 2)
            assert c == p + q + r == n * 2 ** (n - 2)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_first_two_bits_agree(self, n):
        p1, q1, r1, _ = decompose_sums(n, 1)
        p2, q2, r2, _ = decompose_sums(n, 2)
        assert p1 == p2
        assert q1 == q2
        assert r1 + r2 == 2 ** (n - 1)

    def test_c_equals_full_bit_sum(self):
        for n in (3, 4, 5, 6):
            report = verify_diffusive(g_table(n))
            for i in range(1, n + 1):
                assert decompose_sums(n, i).c == report.per_bit_sums[i - 1]

    def test_oracle_n3(self):
        table = {s: naive.g(s) for s in naive.words(3)}
        for i in (1, 2, 3):
            p = sum(
                int(naive.xor(table["0" + a], table["0" + b])[i - 1])
                for a, b in naive.all_pairs(2)
            )
            q = sum(
                int(naive.xor(table["1" + a], table["1" + b])[i - 1])
                for a, b in naive.all_pairs(2)
            )
            r = sum(
                int(naive.xor(table["0" + x], table["1" + x])[i - 1])
                for x in naive.words(2)
            )
            assert decompose_sums(3, i) == (p, q, r, p + q + r)

    def test_validation(self):
        with pytest.raises(ValueError):
            decompose_sums(2, 1)
        with pytest.raises(ValueError):
            decompose_sums(4, 5)
        with pytest.raises(ValueError):
            decompose_sums(4, 0)


class TestStructuralIdentities:
    def test_oracle_sigma_cycle_structure(self):
        # the recursion's sigma is the product of the 4-cycles
        # (x|00, x|10, x|11, x|01) over each prefix x
        for n in range(2, 11):
            seen = set()
            for prefix in range(1 << (n - 2)):
                base = prefix << 2
                cycle = [base, base | 2, base | 3, base | 1]
                for cur, nxt in zip(cycle, cycle[1:] + cycle[:1]):
                    assert naive.sigma(format(cur, f"0{n}b")) == format(
                        nxt, f"0{n}b"
                    )
                seen.update(cycle)
            assert len(seen) == 1 << n

    @pytest.mark.parametrize("n", range(3, 11))
    def test_conjugation_identity(self, n):
        # images of 1-prefixed pairs equal images of sigma'd 0-prefixed pairs
        half = 1 << (n - 1)
        t = g_table(n).values.tolist()
        via_sigma = [
            t[int(naive.sigma(format(a, f"0{n}b")), 2)] for a in range(half)
        ]
        for a in range(half):
            for b in range(half):
                assert t[half | a] ^ t[half | b] == via_sigma[a] ^ via_sigma[b]

    def test_nonlinear_witness_n3(self):
        t = g_table(3).values.tolist()
        lhs = t[0b101]
        rhs = t[0b100] ^ t[0b001]
        assert lhs == 0b100
        assert rhs == 0b011
        assert lhs != rhs

    @pytest.mark.parametrize("n", range(3, 9))
    def test_nonlinearity_witness_exists(self, n):
        t = g_table(n).values.tolist()
        assert any(
            t[a ^ b] != t[a] ^ t[b]
            for a in range(1 << n)
            for b in range(1 << n)
        )

    @pytest.mark.parametrize("n", [2, 6])
    def test_square_linear_diffusive_iff_columns_semi_weight(self, n):
        rng = random.Random(223)
        for _ in range(40):
            mp = LinearMap(n, n, tuple(rng.randrange(1 << n) for _ in range(n)))
            report = verify_diffusive(tabulate(mp))
            col_weights = [
                sum((g >> (n - i)) & 1 for g in mp.generators)
                for i in range(1, n + 1)
            ]
            expected_sums = tuple(2 ** (n - 1) * w for w in col_weights)
            assert report.per_bit_sums == expected_sums
            semi = all(2 * w == n for w in col_weights)
            assert report.passed == (
                semi and tabulate(mp).is_injective()
            )

    def test_g_is_not_dispersive_for_small_even_n(self):
        # recorded outcome: the diffusive permutation fails the stronger
        # per-pair property already at n=4
        report = verify_dispersive(g_table(4))
        assert not report.passed


class TestReportFormatting:
    def test_pass_text(self):
        text = format_diffusion_report(verify_diffusive(g_table(3)))
        assert text == "bit 1: 6/6\nbit 2: 6/6\nbit 3: 6/6\nPASS"

    def test_fail_text(self):
        table = tabulate(build_dispersive(3))
        text = format_diffusion_report(verify_diffusive(table))
        assert text.splitlines() == [
            "bit 1: 4/6",
            "bit 2: 12/6",
            "bit 3: 4/6",
            "bit 4: 4/6",
            "FAIL",
        ]
