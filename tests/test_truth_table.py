"""The array-backed truth table: construction edges, and differential
checks of every array expression against its per-entry formula."""

import io
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dispdiff import (
    MAX_WIDTH,
    BitWord,
    LinearMap,
    TruthTableMap,
    build_dispersive,
    extend_output,
    g_table,
    parse_map_file,
    quadruple_sum_check,
    tabulate,
)
from dispdiff import diffusive
from peakmem import MB, peak_below
from tablebytes import small_blocks, table_bytes

TABLE_20 = 8 << 20  # bytes of a 2^20-entry uint64 table


def _dims_and_values(max_n: int):
    """(n, m, 2^n entries that fit in m bits), m up to the 64-bit cap."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, MAX_WIDTH).flatmap(
            lambda m: st.tuples(
                st.just(n),
                st.just(m),
                st.lists(
                    st.integers(0, (1 << m) - 1), min_size=1 << n, max_size=1 << n
                ),
            )
        )
    )


tables_st = _dims_and_values(5).map(
    lambda t: TruthTableMap(t[0], t[1], np.array(t[2], dtype=np.uint64))
)

linear_maps_st = st.integers(1, 8).flatmap(
    lambda n: st.integers(1, MAX_WIDTH).flatmap(
        lambda m: st.lists(
            st.integers(0, (1 << m) - 1), min_size=n, max_size=n
        ).map(lambda gens: LinearMap(n, m, tuple(gens)))
    )
)


class TestConstruction:
    def test_values_are_read_only(self):
        table = g_table(3)
        with pytest.raises(ValueError):
            table.values[0] = 1
        assert table.values.dtype == np.uint64

    def test_caller_array_is_copied(self):
        source = np.arange(4, dtype=np.uint64)
        table = TruthTableMap(2, 2, source)
        source[0] = 3
        assert table.values.tolist() == [0, 1, 2, 3]
        assert source.flags.writeable

    def test_builders_adopt_their_array(self):
        # tabulate writes each doubling into the one 8 MiB table it fills;
        # a half-table temporary or a copy into the map would show here
        mp = build_dispersive(20)
        with peak_below(TABLE_20 + MB):
            table = tabulate(mp)
        assert table.values.base is None and not table.values.flags.writeable

    def test_extend_output_holds_one_table(self):
        # the result, filled a block at a time; the input is not traced
        table = g_table(20)
        with peak_below(TABLE_20 + MB):
            wide = extend_output(table, 5)
        assert wide.values.base is None and wide.output_dim == 25

    @pytest.mark.parametrize("rows", [3, 97])
    def test_extend_output_at_odd_block_sizes(self, rows):
        rng = random.Random(rows)
        values = [rng.getrandbits(40) for _ in range(1 << 10)]
        table = TruthTableMap(10, 40, np.array(values, dtype=np.uint64))
        expected = extend_output(table, 24)
        with small_blocks(rows):
            assert extend_output(table, 24) == expected

    def test_injectivity_needs_one_sorted_copy(self):
        # the sorted copy and a bool per neighbour pair, not a uint64 step
        table = g_table(20)
        with peak_below(TABLE_20 + TABLE_20 // 8 + MB):
            assert table.is_injective()

    @pytest.mark.parametrize(
        "m, values",
        [(2, [0, 4]), (1, [2, 1]), (63, [0, 1 << 63])],
    )
    def test_entry_wider_than_output_dim_rejected(self, m, values):
        with pytest.raises(ValueError, match=f"wider than output dim {m}$"):
            TruthTableMap(1, m, np.array(values, dtype=np.uint64))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_signed_entries_must_be_non_negative(self, dtype):
        table = TruthTableMap(1, 2, np.array([0, 3], dtype=dtype))
        assert table.values.tolist() == [0, 3]
        with pytest.raises(ValueError, match="non-negative integer array"):
            TruthTableMap(1, 2, np.array([0, -1], dtype=dtype))

    def test_full_width_entries_accepted(self):
        table = TruthTableMap(1, 64, np.array([0, (1 << 64) - 1], dtype=np.uint64))
        assert str(table.lookup(BitWord(1, 1))) == "1" * 64

    @pytest.mark.parametrize(
        "values",
        [
            np.array([0, -1], dtype=np.int64),
            np.array([0.0, 1.0]),
            np.array([[0], [1]], dtype=np.uint64),
            np.array([0, 1, 0], dtype=np.uint64),
            # an integer array is the only input; BitWords and plain
            # sequences are refused cleanly
            [0, 1],
            range(2),
            (BitWord(2, 0), BitWord(2, 1)),
        ],
    )
    def test_malformed_arrays_rejected(self, values):
        with pytest.raises(ValueError):
            TruthTableMap(1, 2, values)

    @pytest.mark.parametrize("n, m", [(0, 1), (1, 0), (65, 1), (1, 65)])
    def test_dimensions_out_of_range_rejected(self, n, m):
        with pytest.raises(ValueError):
            TruthTableMap(n, m, np.zeros(2, dtype=np.uint64))

    def test_equality_needs_same_output_dim(self):
        values = np.array([0, 1], dtype=np.uint64)
        assert TruthTableMap(1, 2, values) != TruthTableMap(1, 3, values)
        assert TruthTableMap(1, 2, values) == TruthTableMap(1, 2, values.copy())


class TestArrayPaths:
    @given(linear_maps_st)
    def test_tabulate_matches_apply(self, map_):
        n = map_.input_dim
        values = tabulate(map_).values.tolist()
        assert values == [map_.lookup(BitWord(n, j)).value for j in range(1 << n)]

    @given(tables_st)
    def test_serialize_parse_roundtrip(self, table):
        text = table_bytes(table)
        assert parse_map_file(io.BytesIO(text)) == table
        assert text.decode().splitlines()[1:] == [
            f"{format(j, f'0{table.input_dim}b')} {format(v, f'0{table.output_dim}b')}"
            for j, v in enumerate(table.values.tolist())
        ]

    @pytest.mark.parametrize("repeat", [False, True])
    @pytest.mark.parametrize("extra", [3, 4])
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_is_injective_matches_a_set_of_the_values(self, n, extra, repeat):
        # m <= n + 3 marks a 2^m-entry bitmap and sorts nothing; m = n + 4
        # sorts the values
        m = n + extra
        rng = random.Random(n * 10 + extra)
        values = rng.sample(range(1 << m), 1 << n)
        if repeat:
            values[-1] = values[0]
        table = TruthTableMap(n, m, np.array(values, dtype=np.uint64))
        sort = np.sort
        sorts = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "sort", lambda a: sorts.append(a) or sort(a))
            injective = table.is_injective()
        assert injective is (len(set(values)) == len(values))
        assert len(sorts) == (extra == 4)

    @given(tables_st, st.data())
    def test_extend_output_matches_entry_formula(self, table, data):
        m = table.output_dim
        if m == MAX_WIDTH:
            return
        extra = data.draw(st.integers(1, MAX_WIDTH - m))
        ones = (1 << extra) - 1
        expected = [
            (v << extra) | (ones * (v >> (m - 1))) for v in table.values.tolist()
        ]
        extended = extend_output(table, extra)
        assert extended.output_dim == m + extra
        assert extended.values.tolist() == expected


def _quadruple_sums_hold(values: list[int], n: int) -> bool:
    """The cycle identity counted bit by bit, one prefix at a time."""
    for base in range(0, 1 << n, 4):
        a, b, c, d = (values[base | o] for o in (0, 2, 3, 1))
        diffs = (a ^ b, b ^ c, c ^ d, d ^ a)
        for bit in range(n):
            if sum((x >> bit) & 1 for x in diffs) != 2:
                return False
    return True


class TestQuadrupleSumCheck:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_per_bit_count(self, n):
        expected = _quadruple_sums_hold(g_table(n).values.tolist(), n)
        assert quadruple_sum_check(n) is expected is True

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_per_bit_count_on_other_tables(self, n, monkeypatch):
        rng = random.Random(7919 + n)
        real = g_table(n).values.tolist()
        candidates = [real[:], real[:], rng.sample(range(1 << n), 1 << n)]
        candidates += [list(range(1 << n)), [0] * (1 << n)]
        i, j = rng.sample(range(1 << n), 2)
        candidates[0][i], candidates[0][j] = candidates[0][j], candidates[0][i]
        candidates[1][i] ^= 1
        for values in candidates:
            fake = TruthTableMap(n, n, np.array(values, dtype=np.uint64))
            monkeypatch.setattr(diffusive, "g_table", lambda *_a, **_k: fake)
            assert quadruple_sum_check(n) is _quadruple_sums_hold(values, n)


header_ints = st.one_of(
    st.integers(-2, 70).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.integers(4290, 4400).map(lambda k: "9" * k),
    st.text(max_size=4),
)
rows_st = st.lists(
    st.one_of(
        st.text("01", max_size=8),
        st.builds("{} {}".format, st.text("01", max_size=4), st.text("01", max_size=8)),
        st.text(max_size=8),
    ),
    max_size=17,
)


class TestParseMapFile:
    @pytest.mark.parametrize("word", ["0_1", "\t01", "01\t", "\u0661\u0660\u0661"])
    def test_words_int_would_accept_are_rejected(self, word):
        with pytest.raises(ValueError, match="not a binary word"):
            parse_map_file(io.BytesIO(f"1 3\n0 {word}\n1 101\n".encode()))

    @pytest.mark.parametrize("field", ["+2", "02", "0_2", "\u0662"])
    @pytest.mark.parametrize(
        "header, rows",
        [("{} 3", "00 101\n01 011\n10 110\n11 000\n"), ("1 {}", "0 10\n1 01\n")],
        ids=["n", "m"],
    )
    def test_header_fields_int_would_accept_are_rejected(self, field, header, rows):
        data = f"{header.format(2)}\n{rows}".encode()
        parse_map_file(io.BytesIO(data))  # valid when canonical
        with pytest.raises(ValueError, match="bad header line"):
            parse_map_file(io.BytesIO(f"{header.format(field)}\n{rows}".encode()))

    @given(header_ints, header_ints, rows_st, st.booleans())
    def test_returns_a_map_or_raises_value_error(self, n, m, rows, newline):
        text = "\n".join([f"{n} {m}", *rows]) + ("\n" if newline else "")
        try:
            parsed = parse_map_file(io.BytesIO(text.encode()))
        except ValueError:
            return
        assert isinstance(parsed, (LinearMap, TruthTableMap))
