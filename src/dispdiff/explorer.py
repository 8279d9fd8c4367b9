"""Desk-scale search for linear k-dispersive maps.

The k-dispersive condition quantifies over pairs at distance up to k
instead of exactly 1.  The search looks for linear witnesses only:
canonical generator n-tuples over the target space (why they suffice is
in ``search_linear_k_dispersive``), pruned by the requirement that every
XOR of 1..k generators is semi-weight and that the generators stay
independent. Two theorems settle work before it is done: the m columns
of a linear k-dispersive map form an orthogonal array of strength k, so
widths that its index or the Rao bound rule out are refused unsearched;
and once the generators span every weight-m/2 word below 2^t, no
candidate below 2^t is tried. A candidate budget is the one bound on
its work, at every width up to the word width. Exhaustion refutes only
linear existence; the nonlinear space is astronomically larger.
"""

from __future__ import annotations

from math import comb

from .bitword import DEFAULT_PAIR_BUDGET, MAX_WIDTH, BudgetExceededError, Record
from .bitword import _check_pairs, _weight_words
from .dispersive import DispersionReport, min_output_dim, verify_dispersive
from .diffusive import DiffusionReport, verify_diffusive
# The search ranks nothing; _rank_ints stays bound here only because
# perfbench/tracing.py wraps it and tests/test_bench_bindings.py checks that.
from .f2linear import LinearMap, TruthTableMap, _reduce, rank as _rank_ints


class SearchOutcome(Record):
    found: bool
    witness: LinearMap | None
    candidates_examined: int


def _rao_bound(n: int, k: int) -> int:
    """Rao's lower bound on the runs of a binary orthogonal array of
    strength k on n factors (Hedayat-Sloane-Stufken, Thm 2.1)."""
    e = k // 2
    runs = sum(comb(n, i) for i in range(e + 1))
    return runs + comb(n - 1, e) if k % 2 else runs


def verify_k_dispersive(
    map_: LinearMap | TruthTableMap,
    k: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    threads: int = 1,
) -> DispersionReport:
    """verify_dispersive with k required. Not exported: the CLI calls it
    because perfbench/tracing.py wraps it, until ROADMAP item 6."""
    return verify_dispersive(map_, k, budget=budget, threads=threads)


def verify_k_diffusive(
    map_: LinearMap | TruthTableMap,
    k: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    threads: int = 1,
) -> DiffusionReport:
    """verify_diffusive with k required. Not exported: the CLI calls it
    because perfbench/tracing.py wraps it, until ROADMAP item 6."""
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

    Each depth skips the candidates its pivots already span. Let W_t be
    the span of the weight-m/2 words below 2^t, for t > m/2: all of F2^t
    when m/2 is odd, its even-weight half when m/2 is even. The chosen
    generators have weight m/2, so their span meets F2^t inside W_t, in
    as many dimensions as there are pivots below t. Once that count
    reaches dim W_t, every candidate below 2^t is dependent, so the depth
    starts past the largest weight-m/2 word below 2^t, for the largest
    such t. That is one step per depth and nothing per candidate.

    ``candidates_examined`` counts the candidates of this reduced space.
    ``budget`` caps them, and with them all the work and memory of the
    width: the candidate past it raises ``BudgetExceededError``, so an
    outcome that is not found refutes the width. Nothing is examined at a
    width that a theorem rules out: below ``min_output_dim(n)`` no
    dispersive map exists. Nor does a linear one when 2^k does not
    divide m, or m is below the Rao bound: a generator matrix's m columns
    are the runs of a binary orthogonal array of strength k, since every
    XOR d of 1..k generators is semi-weight, which makes the column
    Walsh sum at d vanish (Hedayat-Sloane-Stufken, ch. 2).

    So the budget is the one bound on work, and only m past the word
    width is refused, at every k. The gates admit only k <= 6 at m <= 64,
    so ``sub_xors`` holds at most sum_{j<k} C(n, j) <= 529 XORs, and each
    candidate is tested against at most sum_{j<k} C(n-1, j) <= 497 of
    them, both at (32, 3, 64). At the 1.6-2.0M candidates/s measured at
    m = 32 and 64 (2 vCPUs, Python 3.11), the default budget of 2^28
    stops any width within about 2-3 minutes.
    """
    _check_pairs(n, k)
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if m > MAX_WIDTH:
        raise ValueError(f"m={m} beyond search width cap {MAX_WIDTH}")
    # a width below min_output_dim(n) >= n returns first: k <= n <= m <= 64
    if m < min_output_dim(n) or m % (1 << k) or m < _rao_bound(n, k):
        return SearchOutcome(False, None, 0)

    half = m // 2
    w0 = (1 << half) - 1
    chosen: list[int] = []
    # XORs of the subsets of chosen with size <= k-1, grown incrementally;
    # a candidate v extends the tuple only if v ^ s is semi-weight for all
    # of them (size 0 covers v itself).
    sub_xors: list[tuple[int, int]] = [(0, 0)]
    pivots: dict[int, int] = {}
    examined = 0

    def dfs(pivot_mask: int) -> list[int] | None:
        nonlocal examined
        depth = len(chosen)
        if chosen:
            # the largest t whose low t bit positions hold dim W_t pivots:
            # all t of them, or all but one when half is even
            run = pivot_mask if half % 2 else pivot_mask | (pivot_mask + 1)
            t = (run ^ (run + 1)).bit_length() - 1
            # w0 << (t - half) is the largest weight-half word below 2^t
            start = max(chosen[-1], w0 << max(t - half, 0))
            stream = _weight_words(m, half, start)
        else:
            stream = (w0,)
        for v in stream:
            examined += 1
            if examined > budget:
                raise BudgetExceededError(examined, budget, f"candidates at m={m}")
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
                lead = residue.bit_length() - 1
                pivots[lead] = residue
                if depth + 1 == n:
                    return list(chosen)
                hit = dfs(pivot_mask | 1 << lead)
                if hit is not None:
                    return hit
                del pivots[lead]
                del sub_xors[len(sub_xors) - len(added):]
                chosen.pop()
        return None

    witness = dfs(0)
    if witness is not None:
        return SearchOutcome(True, LinearMap(n, m, witness), examined)
    return SearchOutcome(False, None, examined)
