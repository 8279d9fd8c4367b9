"""Desk-scale search for linear k-dispersive maps.

The k-dispersive condition quantifies over pairs at distance up to k
instead of exactly 1.  The search looks for linear witnesses only:
canonical generator n-tuples over the target space (why they suffice is
in ``search_linear_k_dispersive``), pruned by the requirement that every
XOR of 1..k generators is semi-weight and that the generators stay
independent. Exhaustion refutes only linear existence; the nonlinear
space is astronomically larger.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitword import DEFAULT_PAIR_BUDGET, BudgetExceededError
from .bitword import _check_pairs, _weight_words
from .dispersive import DispersionReport, min_output_dim, verify_dispersive
from .diffusive import DiffusionReport, verify_diffusive
# The search ranks nothing; _rank_ints stays bound here only because
# perfbench/tracing.py wraps it and tests/test_bench_bindings.py checks that.
from .f2linear import LinearMap, TruthTableMap, _reduce, rank as _rank_ints

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


def search_linear_k_dispersive(
    n: int,
    k: int,
    m: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> SearchOutcome:
    """Scan canonical generator n-tuples over F2^m for a linear
    k-dispersive map.

    The first generator is w0 = 2^(m/2) - 1, the smallest weight-m/2
    word; each later one is a weight-m/2 word greater than the one before,
    in ascending integer order, streamed one at a time. A partial tuple
    survives only while every XOR of up to k of its generators is again
    semi-weight and the generators are independent.

    The witness returned is still the lexicographically-first one over
    all n-tuples, so results are reproducible. Sorting a witness's
    generators gives a witness (an input permutation) that is no larger,
    and independent generators are distinct, so the first witness
    ascends strictly. A column permutation keeps every weight, and one
    sends any generator of a witness to w0; sorted, that witness starts
    with w0, the smallest candidate, so the first witness does too.
    Exhaustion therefore still refutes linear existence.

    ``candidates_examined`` counts the candidates of this reduced space.
    ``budget`` caps them, and with them all the work and memory of the
    width; hitting it returns exhausted=False. Below ``min_output_dim(n)``
    the dimension theorem rules out any dispersive map, so nothing is
    examined.
    """
    _check_pairs(n, k)
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if m > MAX_SEARCH_WIDTH:
        raise ValueError(
            f"m={m} beyond search width cap {MAX_SEARCH_WIDTH}"
        )
    if m < min_output_dim(n):
        return SearchOutcome(False, None, 0, True)

    half = m // 2
    w0 = (1 << half) - 1
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
        for v in _weight_words(m, half, chosen[-1]) if chosen else (w0,):
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

    witness = dfs()
    if witness is not None:
        return SearchOutcome(True, LinearMap(n, m, tuple(witness)), examined, False)
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
    _check_pairs(n, k)  # even if no width is searched
    for m in range(2, m_max + 1, 2):
        outcome = search_linear_k_dispersive(n, k, m, budget=budget)
        if outcome.found:
            return m
        if not outcome.exhausted:
            raise BudgetExceededError(
                outcome.candidates_examined, budget, what=f"candidates at m={m}"
            )
    return None
