"""Dispersive maps: every single-bit input flip changes exactly half the
output bits.

The minimum feasible output dimension for input width n is n+2, n+1, n,
n+1 as n is 0, 1, 2, 3 mod 4.  The construction is linear: pick n
independent generators of weight m/2, so a flip of input bit i XORs
generator i into the output.  Pairs at distance 1..k (k = 1 is the
single-flip property) are checked by an exhaustive scan of a truth table,
or from the rank and pattern images of a generator matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _scan
from .bitword import (
    DEFAULT_PAIR_BUDGET,
    BitWord,
    BudgetExceededError,
    PairSpec,
    _check_width,
    diff_patterns,
    flip_patterns,
    pair_count,
)
from .f2linear import LinearMap, TruthTableMap, _images, rank, table_size, tabulate


@dataclass(frozen=True)
class DispersionReport:
    passed: bool
    output_dim_even: bool
    injective: bool
    first_violation: tuple[BitWord, BitWord] | None
    violation_distance: int | None
    pairs_checked: int


def min_output_dim(n: int) -> int:
    """Smallest output dimension admitting a dispersive map from n bits."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n + (2, 1, 0, 1)[n % 4]


def semi_weight_generators(k: int) -> list[BitWord]:
    """A maximal independent family of width-k words of weight k/2.

    k = 2 yields the two identity rows. For k >= 4 the family has k - 1
    members when k is 0 mod 4 and k members when k is 2 mod 4: the first
    k/2 are runs of k/2 ones starting at positions 1..k/2, the next ones
    patch a basis vector into the last run, and the final member (only for
    k = 2 mod 4) closes the family back through the first run.
    """
    if k < 2 or k % 2:
        raise ValueError(f"k must be even and >= 2, got {k}")
    _check_width(k)
    if k == 2:
        return [BitWord.unit(2, 1), BitWord.unit(2, 2)]
    half = k // 2
    e = [1 << (k - i) for i in range(1, k + 1)]
    v = [0] * (k + 1)
    run = 0
    for j in range(1, half + 1):
        run ^= e[j - 1]
    for i in range(1, half + 1):
        v[i] = run
        if i < half:
            run ^= e[i - 1] ^ e[i + half - 1]
    for i in range(half + 1, k):
        v[i] = e[i - 1] ^ v[half] ^ e[k - 1]
    count = k - 1
    if k % 4 == 2:
        v[k] = e[k - 1] ^ v[1] ^ v[(k + 2) // 4]
        count = k
    return [BitWord(k, v[i]) for i in range(1, count + 1)]


def build_dispersive(n: int, target_m: int | None = None) -> LinearMap:
    """A dispersive linear map from n bits into target_m (default: the
    minimum feasible, even, dimension). Takes the lowest-indexed n
    members of the semi-weight family at that width."""
    minimum = min_output_dim(n)
    m = minimum if target_m is None else target_m
    if m % 2:
        raise ValueError(f"output dimension must be even, got {m}")
    if m < minimum:
        raise ValueError(
            f"output dimension {m} below minimum {minimum} for n={n}"
        )
    gens = semi_weight_generators(m)
    if len(gens) < n:
        raise ValueError(
            f"only {len(gens)} independent semi-weight generators at width {m}, need {n}"
        )
    return LinearMap(n, m, tuple(gens[:n]))


def _dispersion_report(
    n: int,
    m: int,
    injective: bool,
    violation: tuple[int, int, int] | None,
    pairs_checked: int,
) -> DispersionReport:
    """The report for a map whose first failing pair, if any, is x and
    x ^ d at output distance dist, given as violation = (x, d, dist)."""
    pair = dist = None
    if violation is not None:
        x, d, dist = violation
        pair = (BitWord(n, x), BitWord(n, x ^ d))
    even = m % 2 == 0
    return DispersionReport(
        passed=even and injective and violation is None,
        output_dim_even=even,
        injective=injective,
        first_violation=pair,
        violation_distance=dist,
        pairs_checked=pairs_checked,
    )


def _linear_dispersion(
    map_: LinearMap, patterns: list[int], npairs: int
) -> DispersionReport:
    """f(x) ^ f(x ^ d) = f(d), so the first failing pair of a linear map is
    {0, d} for the first pattern d whose image is not of weight m/2."""
    n, m = map_.input_dim, map_.output_dim
    weights = (f.bit_count() for f in _images(map_, patterns))
    viol = next(((0, d, w) for d, w in zip(patterns, weights) if 2 * w != m), None)
    return _dispersion_report(n, m, rank(map_.generators) == n, viol, npairs)


def verify_dispersive(
    map_: LinearMap | TruthTableMap,
    k: int = 1,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    threads: int = 1,
) -> DispersionReport:
    """Check dispersion over every input pair at distance 1..k.

    Passes iff the output dimension is even, the map is injective, and
    each pair lands at output distance exactly m/2. The first failing
    pair in (x, diff_patterns index) order is reported. More pairs than
    ``budget`` raise BudgetExceededError. A generator matrix is decided
    from its pattern images, with the report and refusals of its table.
    """
    n, m = map_.input_dim, map_.output_dim
    linear = isinstance(map_, LinearMap)
    if linear:
        table_size(n)
    npairs = pair_count(PairSpec(n, k))
    if npairs > budget:
        raise BudgetExceededError(npairs, budget)
    patterns = diff_patterns(n, k)
    if linear:
        return _linear_dispersion(map_, patterns, npairs)
    values = _scan.table_values(map_)
    injective = map_.is_injective()
    viol = _scan.first_distance_violation(values, m, patterns, threads=threads)
    return _dispersion_report(n, m, injective, viol, npairs)


def verify_dispersive_linear(map_: LinearMap) -> DispersionReport:
    """Decide dispersion for a linear map without enumerating pairs.

    A linear map is dispersive iff its generators are independent (rank n,
    hence injective) and every generator has weight m/2 (a flip of input
    bit i changes the output by exactly generator i). A wrong-weight
    generator i is reported as the violating pair {0, e_i}. No budget
    or table cap applies, and ``pairs_checked`` is 0.
    """
    return _linear_dispersion(map_, flip_patterns(map_.input_dim), 0)


def normalize_to_zero(table: TruthTableMap) -> TruthTableMap:
    """XOR every output with the image of the all-zeros input, so zero
    maps to zero. Pairwise output distances are unchanged."""
    shift = table.values[0]
    if shift == 0:
        return table
    return TruthTableMap(table.input_dim, table.output_dim, table.values ^ shift)


def even_weight_obstruction_check(
    table: TruthTableMap,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    threads: int = 1,
) -> bool:
    """For a dispersive map, whether every normalized output has even
    weight, the parity invariant that forbids square dispersive maps
    when n is 0 mod 4 (only 2^(n-1) even-weight targets exist).

    Holds when m/2 is even, since each single-flip step then changes an
    even number of output bits. Rejects maps that are not dispersive;
    ``budget`` caps the pairs of that dispersion check.
    """
    report = verify_dispersive(table, budget=budget, threads=threads)
    if not report.passed:
        raise ValueError("map is not dispersive; obstruction check undefined")
    return not np.any(np.bitwise_count(normalize_to_zero(table).values) & 1)


def dispersive_table(n: int, target_m: int | None = None) -> TruthTableMap:
    """Tabulated form of build_dispersive(n, target_m)."""
    return tabulate(build_dispersive(n, target_m))


def format_dispersion_report(report: DispersionReport) -> str:
    """One summary line: PASS, or FAIL with the first violating pair."""
    if report.passed:
        return "PASS"
    if report.first_violation is not None:
        x, y = report.first_violation
        return f"FAIL {{{x},{y}}} {report.violation_distance}"
    if not report.output_dim_even:
        return "FAIL odd output dimension"
    return "FAIL not injective"
