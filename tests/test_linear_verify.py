"""The verifiers decide a generator matrix from the images of the pair
patterns instead of scanning its table. Differential tests against the
table scan of the same map; the pair budget refuses only table scans,
and the matrix dispersion stream stays short for any budget."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispdiff import (
    BitWord,
    BudgetExceededError,
    LinearMap,
    build_dispersive,
    column_diffusive,
    g_table,
    pair_count,
    serialize_generator_matrix,
    tabulate,
    verify_diffusive,
    verify_dispersive,
)
from dispdiff.bitword import diff_patterns
from dispdiff.cli import main
from dispdiff.explorer import _rao_bound

import naive
from peakmem import peak_below
from tablebytes import table_bytes


@st.composite
def linear_maps(draw):
    """Generator matrices with n in 1..7 and m in 1..10. Rows are free,
    of weight m/2 (or (m +- 1)/2 for odd m), or one row is an XOR of
    others (possibly zero); or every column weight is within 1 of n/2,
    or a root of K_{<=k}(w; n) for a drawn k, so the map can be
    k-diffusive."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["free", "semi", "dependent", "columns"]))
    if kind == "columns":
        near = [w for w in range(n + 1) if abs(2 * w - n) <= 1]
        roots = [naive.krawtchouk_roots(n, k) for k in range(1, n + 1)]
        weights = draw(st.sampled_from([near] + [r for r in roots if r]))
        cols = [v for v in range(1 << n) if v.bit_count() in weights]
        columns = draw(st.lists(st.sampled_from(cols), min_size=m, max_size=m))
        rows = naive.rows_of_columns(n, columns)
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
        disp = verify_dispersive(mp, k, budget=0)
        assert disp == verify_dispersive(mp, k) == verify_dispersive(table, k)
        assert disp.pairs_checked == pair_count(mp.input_dim, k)
        if mp.input_dim >= 2:
            diff = verify_diffusive(mp, k, budget=0)
            assert diff == verify_diffusive(mp, k) == verify_diffusive(table, k)


def _verify_lines(capsys, prop, path, *argv):
    """Exit status, stdout and stderr of one ``dispdiff verify``."""
    status = main(["verify", prop, str(path), *argv])
    return (status, *capsys.readouterr())


def test_wide_matrix_is_decided_at_the_default_budget(tmp_path, capsys):
    # 21990232555520 pairs, far above the default budget of 2^28
    path = tmp_path / "wide.gm"
    path.write_text("40 2\n" + "10\n" * 40)
    half = 10995116277760
    expected = {
        "dispersive": "FAIL not injective\n",
        "diffusive": f"bit 1: {2 * half}/{half}\nbit 2: 0/{half}\nFAIL\n",
    }
    for prop, out in expected.items():
        assert _verify_lines(capsys, prop, path) == (1, out, "")
        unlimited = ["--budget", str(1 << 200)]
        assert _verify_lines(capsys, prop, path, *unlimited) == (1, out, "")
    # a table scan of more pairs than the default budget is still refused
    with pytest.raises(BudgetExceededError) as err:
        verify_dispersive(g_table(20), 3)
    assert str(err.value) == "enumeration of 707788800 pairs exceeds budget 268435456"


def test_matrix_is_decided_at_budget_4(tmp_path, capsys):
    f6 = build_dispersive(6)
    matrix, table = tmp_path / "f6.gm", tmp_path / "f6.tt"
    matrix.write_bytes(serialize_generator_matrix(f6))
    table.write_bytes(table_bytes(tabulate(f6)))
    passed = (0, "PASS\n", "")
    assert _verify_lines(capsys, "dispersive", matrix, "--budget", "4") == passed
    refused = (1, "", "error: enumeration of 192 pairs exceeds budget 4\n")
    for prop in ("dispersive", "diffusive"):
        decided = _verify_lines(capsys, prop, matrix, "--budget", "4")
        assert decided == _verify_lines(capsys, prop, matrix)
        assert decided == _verify_lines(capsys, prop, table)
        assert _verify_lines(capsys, prop, table, "--budget", "4") == refused


def test_linear_decider_needs_no_table_or_cap():
    mp = build_dispersive(40)
    with peak_below():
        report = verify_dispersive(mp, budget=0)
    assert report.passed and report.pairs_checked == 40 << 39


def test_matrix_at_the_cap_is_decided_without_its_table():
    # each table would be 2^28 or 2^26 uint64 entries
    dispersive, diffusive = build_dispersive(28), column_diffusive(26)
    with peak_below():
        disp = verify_dispersive(dispersive)
        diff = verify_diffusive(diffusive)
    assert disp.passed and disp.pairs_checked == 28 << 27
    assert diff.passed and diff.per_bit_sums == (26 << 24,) * 26


@pytest.mark.parametrize("n", range(29, 63))
def test_matrix_above_the_table_cap_matches_the_linear_decider(n):
    # one decider: the report does not depend on the budget
    mp = build_dispersive(n)
    report = verify_dispersive(mp, 1, budget=0)
    assert report.passed and report.pairs_checked == n << (n - 1)
    assert report == verify_dispersive(mp) == verify_dispersive(mp, 1, budget=1 << 70)


def test_matrix_dispersion_stops_at_the_first_failing_pattern():
    # |D_7| of 40 inputs is about 2.2e7 patterns; the third, 3, fails
    mp = build_dispersive(40)
    with peak_below():
        report = verify_dispersive(mp, 7, budget=0)
    assert report.first_violation == (BitWord(40, 0), BitWord(40, 3))
    assert report.violation_distance == 2
    assert not report.passed and report.injective


def test_matrix_diffusion_needs_no_pattern_list():
    mp = column_diffusive(38)
    with peak_below():
        report = verify_diffusive(mp, 6, budget=0)
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
    # 142962266571249025024 pairs, and no --budget needed
    for prop, path, out in (
        ("dispersive", f62, "PASS\n"),
        ("diffusive", c62, "\n".join(lines) + "\n"),
    ):
        assert _verify_lines(capsys, prop, path) == (0, out, "")


def _count_patterns(monkeypatch):
    """Count the patterns the matrix dispersion stream reads."""
    read = [0]

    def counting(n, k):
        for d in diff_patterns(n, k):
            read[0] += 1
            yield d

    monkeypatch.setattr("dispdiff.dispersive.diff_patterns", counting)
    return read


def _rm_word(a, c=0):
    """The [64, 6] first-order Reed-Muller word a.x + c: bit x is its value
    at x in F2^6."""
    return sum((((a & x).bit_count() + c) & 1) << x for x in range(64))


LINEAR_RM = LinearMap(63, 64, tuple(_rm_word(a) for a in range(1, 64)))
AFFINE_RM = LinearMap(32, 64, tuple(_rm_word(a, 1) for a in range(32, 64)))
# rows 31, 47 and 48: a.x for a = 31 ^ 47 ^ 48 = 0 has weight 0
RM_K3_PAIR = (BitWord(63, 0), BitWord(63, 1 << 32 | 1 << 16 | 1 << 15))


@pytest.mark.parametrize(
    "mp, k, read, pair",
    [
        (LINEAR_RM, 2, 2016, None),
        (LINEAR_RM, 3, 5642, RM_K3_PAIR),
        (AFFINE_RM, 3, 5488, None),
    ],
    ids=["linear-k2", "linear-k3", "affine-k3"],
)
def test_reed_muller_streams_are_pinned(monkeypatch, mp, k, read, pair):
    # every XOR of up to k rows is a nonzero word a.x (+ 1) of weight 32
    # until the pinned pair; 63 or 32 rows of rank 6 or 7 are not injective
    count = _count_patterns(monkeypatch)
    with peak_below():
        report = verify_dispersive(mp, k, budget=0)
    assert count[0] == read
    assert report.first_violation == pair and not report.injective
    assert report.violation_distance == (None if pair is None else 0)


def _stream_limit(n, k, m):
    """The most patterns a matrix dispersion stream reads on n rows and m
    columns. At k = 1, n. For k >= 2 the stream ascends, and if every
    pattern below 2^t passes, the last t rows carry an orthogonal array
    of strength min(k, t) on m runs, so m is at least its Rao bound."""
    if k == 1:
        return n
    t = max(t for t in range(n + 1) if _rao_bound(t, min(k, t)) <= m)
    return sum(comb(min(t + 1, n), j) for j in range(1, k + 1))


def test_stream_limit_is_at_most_6017():
    limits = {
        _stream_limit(n, k, 64) for n in range(1, 65) for k in range(1, n + 1)
    }
    assert max(limits) == 6017 == _stream_limit(33, 3, 64)


@pytest.mark.parametrize("seed", range(24))
def test_random_matrix_streams_stay_below_the_rao_limit(monkeypatch, seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 64), 2 * rng.randint(1, 32)
    rows = [
        sum(1 << p for p in rng.sample(range(m), m // 2))
        if rng.random() < 0.7
        else rng.getrandbits(m)
        for _ in range(n)
    ]
    mp = LinearMap(n, m, tuple(rows))
    count = _count_patterns(monkeypatch)
    for k in sorted({1, 2, 3, rng.randint(1, n)} & set(range(1, n + 1))):
        count[0] = 0
        verify_dispersive(mp, k, budget=0)
        assert count[0] <= min(_stream_limit(n, k, m), 6017)
