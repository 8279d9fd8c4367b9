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

from . import _scan
from .bitword import DEFAULT_PAIR_BUDGET, MAX_WIDTH, BitWord, Record, pair_count
from .bitword import _check_pairs, _check_width, diff_patterns, pair_space
from .f2linear import LinearMap, TruthTableMap, np


class DispersionReport(Record):
    passed: bool
    injective: bool
    first_violation: tuple[BitWord, BitWord] | None
    violation_distance: int | None
    pairs_checked: int


def min_output_dim(n: int) -> int:
    """Smallest output dimension admitting a dispersive map from n bits."""
    _check_pairs(n, 1)
    return n + (2, 1, 0, 1)[n % 4]


def semi_weight_generators(m: int) -> list[int]:
    """A maximal independent family of width-m words of weight m/2, as ints.

    With half = m/2 and positions 1..m from the left: the runs of half
    ones starting at positions 1..half, then for i in half+1..m-1 the
    positions half..m with position i removed, then (m = 2 mod 4 only)
    1 XOR member 1 XOR member (m+2)/4. That is m - 1 members when m is
    0 mod 4 and m when m is 2 mod 4; m = 2 gives the ints 2 and 1.
    """
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    _check_width(m)
    half, run = m // 2, (1 << m // 2) - 1
    gens = [run << (half - i) for i in range(half)]
    gens += [((run << 1) | 1) ^ (1 << (m - i)) for i in range(half + 1, m)]
    if m % 4 == 2:
        gens.append(1 ^ gens[0] ^ gens[(m + 2) // 4 - 1])
    return gens


def build_dispersive(n: int, target_m: int | None = None) -> LinearMap:
    """A dispersive linear map from n bits into target_m (default: the
    minimum feasible, even, dimension). Takes the lowest-indexed n
    members of the semi-weight family at that width, which has m of them
    when m is 2 mod 4 and m - 1 >= n otherwise (m >= min_output_dim(n)
    >= n, and m = n only when n is 2 mod 4)."""
    minimum = min_output_dim(n)
    if minimum > MAX_WIDTH:
        raise ValueError(
            f"n={n} needs output dimension {minimum}, "
            f"above the width cap {MAX_WIDTH}"
        )
    m = minimum if target_m is None else target_m
    if m % 2:
        raise ValueError(f"output dimension must be even, got {m}")
    if m < minimum:
        raise ValueError(
            f"output dimension {m} below minimum {minimum} for n={n}"
        )
    return LinearMap(n, m, semi_weight_generators(m)[:n])


def verify_dispersive(
    map_: LinearMap | TruthTableMap,
    k: int = 1,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    threads: int = 1,
) -> DispersionReport:
    """Check dispersion over every input pair at distance 1..k.

    Passes iff the map is injective and each pair lands at output
    distance exactly m/2, so never when m is odd. The first failing
    pair in (x, pattern) order is reported. A table scan's refusals are
    ``pair_space``'s. A generator matrix gets its table's report from a
    stream of pattern images stopped at the first failure, and ``budget``
    does not apply: if every pattern below 2^t passes, the m columns on
    the last t rows form an orthogonal array of strength min(k, t), so m
    is at least its Rao bound (Hedayat-Sloane-Stufken, Thm 2.1). With
    m <= 64 that gives t <= 63 at k = 2, 32 at k = 3 and 10 at k = 4, so
    at most sum_{j<=k} C(t+1, j) <= 6017 patterns are read, and n at k = 1.
    """
    n = map_.input_dim
    if isinstance(map_, LinearMap):
        npairs = pair_count(n, k)
        # f(x) ^ f(x ^ d) = f(d): the first failing pair is {0, d}
        m = map_.output_dim
        weights = ((d, map_._image(d).bit_count()) for d in diff_patterns(n, k))
        viol = next(((0, d, w) for d, w in weights if 2 * w != m), None)
    else:
        npairs = pair_space(n, k, budget)
        values = _scan.table_values(map_)
        viol = _scan.first_distance_violation(
            values, map_.output_dim, list(diff_patterns(n, k)), threads=threads
        )
    pair = dist = None
    if viol is not None:  # the pair x, x ^ d at output distance dist
        x, d, dist = viol
        pair = (BitWord(n, x), BitWord(n, x ^ d))
    injective = map_.is_injective()
    return DispersionReport(
        passed=injective and viol is None,
        injective=injective,
        first_violation=pair,
        violation_distance=dist,
        pairs_checked=npairs,
    )


def even_weight_obstruction_check(table: TruthTableMap) -> bool:
    """For a dispersive map, whether every output XORed with the image
    of 0 has even weight, the parity invariant that forbids square
    dispersive maps when n is 0 mod 4 (only 2^(n-1) even-weight targets
    exist).

    Holds when m/2 is even, since each single-flip step then changes an
    even number of output bits. Rejects maps that are not dispersive.
    """
    if not verify_dispersive(table).passed:
        raise ValueError("map is not dispersive; obstruction check undefined")
    values = table.values
    return not np.any(np.bitwise_count(values ^ values[0]) & 1)


def format_dispersion_report(report: DispersionReport) -> str:
    """One summary line: PASS, or FAIL with the first violating pair."""
    if report.passed:
        return "PASS"
    if report.first_violation is not None:
        x, y = report.first_violation
        return f"FAIL {{{x},{y}}} {report.violation_distance}"
    return "FAIL not injective"
