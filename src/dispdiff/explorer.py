"""Desk-scale search for linear k-dispersive maps.

The k-dispersive condition quantifies over pairs at distance up to k
instead of exactly 1.  The search looks for linear witnesses only:
generator n-tuples over the target space, in lexicographic order of
generator values, pruned by the requirement that every XOR of 1..k
generators is semi-weight and that the generators stay independent.
Exhaustion therefore refutes only linear existence; the nonlinear space
is astronomically larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bitword import DEFAULT_PAIR_BUDGET, BitWord, BudgetExceededError, PairSpec
from .dispersive import DispersionReport, min_output_dim, verify_dispersive
from .diffusive import DiffusionReport, verify_diffusive
# The search ranks nothing; _rank_ints stays bound here only because
# perfbench/tracing.py wraps it and tests/test_bench_bindings.py checks that.
from .f2linear import LinearMap, TruthTableMap, _rank_ints, _reduce

# Each search depth streams up to C(m, m/2) candidates (10.4M at m = 26),
# so this cap bounds time; search memory does not grow with m.
MAX_SEARCH_WIDTH = 26


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    witness: LinearMap | None
    candidates_examined: int
    exhausted: bool


def verify_k_dispersive(
    map_: LinearMap | TruthTableMap,
    k: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    threads: int = 1,
) -> DispersionReport:
    """verify_dispersive with k required; ``budget`` counts pairs."""
    return verify_dispersive(map_, k, budget=budget, threads=threads)


def verify_k_diffusive(
    map_: LinearMap | TruthTableMap,
    k: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    threads: int = 1,
) -> DiffusionReport:
    """verify_diffusive with k required; ``budget`` counts pairs."""
    return verify_diffusive(map_, k, budget=budget, threads=threads)


def _semi_weight_words(m: int) -> Iterator[int]:
    """Weight-m/2 words of F2^m, ascending (Gosper's hack: carry the lowest
    run of ones one place up and drop the rest of that run to the bottom)."""
    v = (1 << m // 2) - 1
    top = 1 << m
    while v < top:
        yield v
        low = v & -v
        carried = v + low
        v = carried | ((carried ^ v) >> 2) // low


def search_linear_k_dispersive(
    n: int,
    k: int,
    m: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> SearchOutcome:
    """Scan generator n-tuples over F2^m for a linear k-dispersive map.

    Candidates per position are the weight-m/2 vectors in ascending
    integer order, streamed one at a time; a partial tuple survives only
    while every XOR of up to k of its generators is again semi-weight and
    the generators are independent. The first witness in this order is
    returned, so results are reproducible. ``budget`` caps the candidate
    vectors tested, and with them all the work and memory of the width;
    hitting it returns exhausted=False. Below ``min_output_dim(n)`` the
    dimension theorem rules out any dispersive map, so nothing is examined.
    """
    PairSpec(n, k)  # validates n and k
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if m > MAX_SEARCH_WIDTH:
        raise ValueError(
            f"m={m} beyond search width cap {MAX_SEARCH_WIDTH}"
        )
    if m < min_output_dim(n):
        return SearchOutcome(False, None, 0, True)

    half = m // 2
    chosen: list[int] = []
    # XORs of the subsets of chosen with size <= k-1, grown incrementally;
    # a candidate v extends the tuple only if v ^ s is semi-weight for all
    # of them (size 0 covers v itself).
    sub_xors: list[tuple[int, int]] = [(0, 0)]
    pivots: dict[int, int] = {}
    examined = 0

    def dfs() -> list[int] | None:
        nonlocal examined
        depth = len(chosen)
        for v in _semi_weight_words(m):
            examined += 1
            if examined > budget:
                return None
            for _, s in sub_xors:
                if (v ^ s).bit_count() != half:
                    break
            else:
                residue = _reduce(v, pivots)
                if not residue:
                    continue
                chosen.append(v)
                added = [
                    (size + 1, s ^ v) for size, s in sub_xors if size < k - 1
                ]
                sub_xors.extend(added)
                pivots[residue.bit_length() - 1] = residue
                if depth + 1 == n:
                    return list(chosen)
                hit = dfs()
                if hit is not None or examined > budget:
                    return hit
                del pivots[residue.bit_length() - 1]
                del sub_xors[len(sub_xors) - len(added):]
                chosen.pop()
        return None

    witness_values = dfs()
    if witness_values is not None:
        witness = LinearMap(
            n, m, tuple(BitWord(m, v) for v in witness_values)
        )
        return SearchOutcome(True, witness, examined, False)
    return SearchOutcome(False, None, examined, examined <= budget)


def min_linear_dim_k(
    n: int,
    k: int,
    m_max: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> int | None:
    """Smallest even m <= m_max with a linear k-dispersive witness, or
    None when every such m exhausts empty. ``budget`` caps the candidates
    tested at each width; a cutoff aborts (the minimum would be unproven)
    rather than skipping the width."""
    PairSpec(n, k)  # validates n and k, even if no width is searched
    for m in range(2, m_max + 1, 2):
        outcome = search_linear_k_dispersive(n, k, m, budget=budget)
        if outcome.found:
            return m
        if not outcome.exhausted:
            raise BudgetExceededError(
                outcome.candidates_examined, budget, what=f"candidates at m={m}"
            )
    return None
