"""The package's exported names: each resolves, none twice, and the
paper-notation word primitives stay out (``g`` is evaluated in closed
form, and ``tests/naive.py`` holds the string recursion). Inside the
library words are ints, so no word algebra stays either: ``BitWord``
only validates, parses and prints."""

import pytest

import dispdiff
import dispdiff.bitword

REMOVED = [
    "alpha",
    "beta",
    "tau",
    "sigma",
    "_tau_int",
    "proj",
    "concat",
    "xor_padded",
    "complement",
    "enumerate_pairs",
    "xor",
    "weight",
    "distance",
    "PairSpec",
    "_patterns",
    "dispersive_table",
    "normalize_to_zero",
    "g_eval",
    "min_linear_dim_k",
    "apply",
    "verify_dispersive_linear",
    "verify_k_dispersive",
    "verify_k_diffusive",
    "parse_truth_table",
    "parse_generator_matrix",
]


def test_every_exported_name_resolves():
    for name in dispdiff.__all__:
        assert hasattr(dispdiff, name), name


def test_no_name_is_exported_twice():
    assert len(set(dispdiff.__all__)) == len(dispdiff.__all__)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_primitive_is_gone(name):
    assert not hasattr(dispdiff, name)
    assert not hasattr(dispdiff.bitword, name)


@pytest.mark.parametrize("name", ["zeros", "ones", "unit", "__xor__"])
def test_bitword_has_no_word_algebra(name):
    assert not hasattr(dispdiff.BitWord, name)
