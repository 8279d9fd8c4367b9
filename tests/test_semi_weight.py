"""The semi-weight generator family in closed form, and the dispersive
maps built from it."""

import hashlib

import pytest

from dispdiff import (
    build_dispersive,
    min_output_dim,
    rank,
    semi_weight_generators,
    verify_dispersive,
)

import naive

EVEN_WIDTHS = range(2, 65, 2)


def test_family_hash_is_pinned():
    text = "".join(
        " ".join(format(g, f"0{k}b") for g in semi_weight_generators(k)) + "\n"
        for k in EVEN_WIDTHS
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f998fe692463a8ee56133f03a943f1cc2c7712955aedb79b2166a4fb05cc7c8c"
    )


@pytest.mark.parametrize("k", EVEN_WIDTHS)
def test_family_is_independent_and_semi_weight(k):
    gens = semi_weight_generators(k)
    count = k if k % 4 == 2 else k - 1
    assert len(gens) == count
    assert all(0 <= g < 1 << k and g.bit_count() == k // 2 for g in gens)
    assert rank(gens) == count
    if k <= 20:  # the span closure holds 2^count words
        assert naive.rank_closure([format(g, f"0{k}b") for g in gens]) == count


def test_family_always_has_n_members_to_give():
    # why build_dispersive needs no family-size check
    for n in range(1, 65):
        for m in range(min_output_dim(n), 65, 2):
            assert len(semi_weight_generators(m)) >= n, (n, m)


@pytest.mark.parametrize("n", range(1, 63))
def test_built_map_is_dispersive(n):
    assert verify_dispersive(build_dispersive(n)).passed
