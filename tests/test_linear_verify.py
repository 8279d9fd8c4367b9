"""The verifiers decide a generator matrix from the images of the pair
patterns instead of scanning its table. Differential tests against the
table scan of the same map, and the refusals the table used to give."""

import random

import pytest
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

import naive
from peakmem import peak_below


def verdict(report):
    """A dispersion report's fields apart from ``pairs_checked``."""
    return (
        report.passed,
        report.injective,
        report.first_violation,
        report.violation_distance,
    )


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
    return LinearMap(n, m, tuple(rows))


@settings(max_examples=400, deadline=None)
@given(linear_maps())
def test_matrix_reports_equal_table_reports(mp):
    table = tabulate(mp)
    for k in range(1, mp.input_dim + 1):
        assert verify_dispersive(mp, k) == verify_dispersive(table, k)
        if mp.input_dim >= 2:
            assert verify_diffusive(mp, k) == verify_diffusive(table, k)
    linear, enumerated = verify_dispersive_linear(mp), verify_dispersive(mp)
    assert linear.pairs_checked == 0
    assert verdict(linear) == verdict(enumerated)


def test_wide_matrix_is_refused_by_the_budget_not_a_table_cap(tmp_path, capsys):
    path = tmp_path / "wide.gm"
    path.write_text("40 2\n" + "10\n" * 40)
    for prop in ("dispersive", "diffusive"):
        assert main(["verify", prop, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: enumeration of 21990232555520 pairs exceeds budget 268435456\n"


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


@pytest.mark.parametrize("n", range(29, 63))
def test_matrix_above_the_table_cap_matches_the_linear_decider(n):
    mp = build_dispersive(n)
    enumerated = verify_dispersive(mp, 1, budget=1 << 70)
    assert enumerated.pairs_checked == n << (n - 1)
    assert verdict(enumerated) == verdict(verify_dispersive_linear(mp))


def test_matrix_dispersion_stops_at_the_first_failing_pattern():
    # |D_7| of 40 inputs is about 2.2e7 patterns; the third, 3, fails
    mp = build_dispersive(40)
    with peak_below():
        report = verify_dispersive(mp, 7, budget=1 << 200)
    assert report.first_violation == (BitWord(40, 0), BitWord(40, 3))
    assert report.violation_distance == 2
    assert not report.passed and report.injective


def test_matrix_diffusion_needs_no_pattern_list():
    mp = column_diffusive(38)
    with peak_below():
        report = verify_diffusive(mp, 6, budget=1 << 200)
    # pinned from the pattern-image count, which listed |D_6| patterns
    assert report.per_bit_sums == (229965055972605952,) * 38
    assert report.target == 229908912160112640
    assert report.pairs_checked == 459817824320225280
    assert not report.passed and report.injective


def _random_matrix(rng, n, m):
    return LinearMap(n, m, tuple(rng.getrandbits(m) for _ in range(n)))


@pytest.mark.parametrize("seed", range(24))
def test_column_weight_sums_equal_the_pattern_image_count(seed):
    rng = random.Random(seed)
    n = 2 + seed % 13
    mp = _random_matrix(rng, n, rng.randint(1, 24))
    m = mp.output_dim
    table = naive.tabulate_gens([format(g, f"0{m}b") for g in mp.generators], n)
    for k in range(1, n + 1):
        report = verify_diffusive(mp, k, budget=1 << 70)
        assert list(report.per_bit_sums) == naive.pattern_image_sums(table, n, k)


@pytest.mark.parametrize("n", range(2, 65))
def test_no_linear_map_is_diffusive_at_k_equal_n(n):
    # a nonzero column meets 2^(n-1) patterns oddly, so its sum is
    # 2^(2n-2); the target is 2^(n-2) (2^n - 1)
    rng = random.Random(n)
    mp = _random_matrix(rng, n, rng.randint(1, 64))
    report = verify_diffusive(mp, n, budget=1 << 200)
    assert report.target == (1 << (n - 2)) * ((1 << n) - 1)
    for b, s in enumerate(report.per_bit_sums, start=1):
        column = any(g >> (mp.output_dim - b) & 1 for g in mp.generators)
        assert s == (1 << (2 * n - 2) if column else 0)
    assert not report.passed


def test_constructed_62_bit_matrices_verify_from_the_cli(tmp_path, capsys):
    f62, c62 = tmp_path / "f62.gm", tmp_path / "c62.gm"
    assert main(["construct", "dispersive", "--n", "62", "--out", str(f62)]) == 0
    assert main(["construct", "column-diffusive", "--n", "62", "--out", str(c62)]) == 0
    capsys.readouterr()
    budget = ["--budget", "1000000000000000000000"]
    assert main(["verify", "dispersive", str(f62), *budget]) == 0
    assert capsys.readouterr() == ("PASS\n", "")
    assert main(["verify", "diffusive", str(c62), *budget]) == 0
    half = "71481133285624512512"
    lines = [f"bit {i}: {half}/{half}" for i in range(1, 63)] + ["PASS"]
    assert capsys.readouterr() == ("\n".join(lines) + "\n", "")
    for prop, path in (("dispersive", f62), ("diffusive", c62)):
        assert main(["verify", prop, str(path)]) == 1
        assert capsys.readouterr() == (
            "",
            "error: enumeration of 142962266571249025024 pairs exceeds "
            "budget 268435456\n",
        )
