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

from .bitword import DEFAULT_PAIR_BUDGET, BitWord, BudgetExceededError, PairSpec
from .dispersive import DispersionReport, verify_dispersive
from .diffusive import DiffusionReport, verify_diffusive
from .f2linear import LinearMap, TruthTableMap, _rank_ints, _reduce

# Enumerating candidate generators walks all of F2^m once; beyond this
# width the candidate list itself is out of desk range.
MAX_SEARCH_WIDTH = 26


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    witness: LinearMap | None
    candidates_examined: int
    exhausted: bool


def verify_k_dispersive(
    table: TruthTableMap,
    k: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    threads: int = 1,
) -> DispersionReport:
    """verify_dispersive with k required; ``budget`` counts pairs."""
    return verify_dispersive(table, k, budget=budget, threads=threads)


def verify_k_diffusive(
    table: TruthTableMap,
    k: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    threads: int = 1,
) -> DiffusionReport:
    """verify_diffusive with k required; ``budget`` counts pairs."""
    return verify_diffusive(table, k, budget=budget, threads=threads)


def search_linear_k_dispersive(
    n: int,
    k: int,
    m: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> SearchOutcome:
    """Scan generator n-tuples over F2^m for a linear k-dispersive map.

    Candidates per position are the weight-m/2 vectors in ascending
    integer order; a partial tuple survives only while every XOR of up to
    k of its generators is again semi-weight and the generators are
    independent. The first witness in this order is returned, so results
    are reproducible. ``budget`` caps the number of candidate vectors
    tested; hitting it returns exhausted=False.

    Two sound short-circuits keep hopeless spaces fast: fewer output than
    input dimensions can never be injective, and if the span of all
    semi-weight vectors has dimension below n no independent n-tuple can
    exist inside it (for m/2 even they all lie in the even-weight
    hyperplane).
    """
    PairSpec(n, k)  # validates n and k
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if m > MAX_SEARCH_WIDTH:
        raise ValueError(
            f"m={m} beyond search width cap {MAX_SEARCH_WIDTH}"
        )
    if m < n:
        return SearchOutcome(False, None, 0, True)

    half = m // 2
    semis = [v for v in range(1, 1 << m) if v.bit_count() == half]
    if _rank_ints(semis) < n:
        return SearchOutcome(False, None, 0, True)

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
        for v in semis:
            examined += 1
            if examined > budget:
                return None
            if any((v ^ s).bit_count() != half for _, s in sub_xors):
                continue
            residue = _reduce(v, pivots)
            if not residue:
                continue
            chosen.append(v)
            added = [
                (size + 1, s ^ v) for size, s in sub_xors if size + 1 <= k - 1
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
