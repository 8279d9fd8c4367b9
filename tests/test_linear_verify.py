"""The verifiers decide a generator matrix from the images of the pair
patterns instead of scanning its table. Differential tests against the
table scan of the same map, and the refusals the table used to give."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from dispdiff import (
    BitWord,
    LinearMap,
    build_dispersive,
    column_diffusive,
    serialize_generator_matrix,
    tabulate,
    verify_diffusive,
    verify_dispersive,
    verify_dispersive_linear,
)
from dispdiff.cli import main

from peakmem import peak_below


@st.composite
def linear_maps(draw):
    """Generator matrices with n in 1..7 and m in 1..10. Rows are free,
    of weight m/2 (or (m +- 1)/2 for odd m), or one row is an XOR of
    others (possibly zero); or the columns have weight n/2, so the map
    can be diffusive."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["free", "semi", "dependent", "columns"]))
    if kind == "columns":
        cols = [v for v in range(1 << n) if abs(2 * v.bit_count() - n) <= 1]
        columns = draw(st.lists(st.sampled_from(cols), min_size=m, max_size=m))
        rows = [
            sum((c >> (n - i) & 1) << (m - b) for b, c in enumerate(columns, start=1))
            for i in range(1, n + 1)
        ]
    else:
        semis = [v for v in range(1 << m) if abs(2 * v.bit_count() - m) <= 1]
        free = st.integers(0, (1 << m) - 1)
        words = st.sampled_from(semis) if kind == "semi" else free
        rows = draw(st.lists(words, min_size=n, max_size=n))
    if kind == "dependent":
        i = draw(st.integers(0, n - 1))
        mask = draw(st.integers(0, (1 << n) - 1))
        rows[i] = 0
        for j in range(n):
            if j != i and mask >> j & 1:
                rows[i] ^= rows[j]
    return LinearMap(n, m, tuple(BitWord(m, r) for r in rows))


@settings(max_examples=400, deadline=None)
@given(linear_maps())
def test_matrix_reports_equal_table_reports(mp):
    table = tabulate(mp)
    for k in range(1, mp.input_dim + 1):
        assert verify_dispersive(mp, k) == verify_dispersive(table, k)
        if mp.input_dim >= 2:
            assert verify_diffusive(mp, k) == verify_diffusive(table, k)
    assert verify_dispersive_linear(mp) == dataclasses.replace(
        verify_dispersive(mp), pairs_checked=0
    )


def test_wide_matrix_is_refused_by_the_table_cap_before_the_budget(tmp_path, capsys):
    path = tmp_path / "wide.gm"
    path.write_text("40 2\n" + "10\n" * 40)
    for prop in ("dispersive", "diffusive"):
        assert main(["verify", prop, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a table on n=40 inputs exceeds the cap of 2^28 entries\n"


def test_matrix_over_budget_is_refused(tmp_path, capsys):
    path = tmp_path / "f6.gm"
    path.write_text(serialize_generator_matrix(build_dispersive(6)))
    for prop in ("dispersive", "diffusive"):
        assert main(["verify", prop, str(path), "--budget", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: enumeration of 192 pairs exceeds budget 4\n"


def test_linear_decider_needs_no_table_or_cap():
    mp = build_dispersive(40)
    with peak_below():
        report = verify_dispersive_linear(mp)
    assert report.passed and report.pairs_checked == 0


def test_matrix_at_the_cap_is_decided_without_its_table():
    # each table would be 2^28 or 2^26 uint64 entries
    dispersive, diffusive = build_dispersive(28), column_diffusive(26)
    with peak_below():
        disp = verify_dispersive(dispersive, budget=1 << 40)
        diff = verify_diffusive(diffusive, budget=1 << 40)
    assert disp.passed and disp.pairs_checked == 28 << 27
    assert diff.passed and diff.per_bit_sums == (26 << 24,) * 26
