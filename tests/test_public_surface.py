"""The package's exported names: each resolves, none twice, and the
paper-notation word primitives stay out (``g`` is evaluated in closed
form, and ``tests/naive.py`` holds the string recursion)."""

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
