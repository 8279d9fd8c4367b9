"""The frozen-record base the package's result and map types share:
construction, immutability, equality, hashing and repr, and the
``__post_init__`` hook that perfbench/tracing.py patches on the class."""

import numpy as np
import pytest

from dispdiff import (
    BitWord,
    DiffusionReport,
    DispersionReport,
    LinearMap,
    TruthTableMap,
)
from dispdiff.bitword import Record
from dispdiff.explorer import SearchOutcome


def report(**changes):
    fields = dict(
        passed=True,
        injective=True,
        first_violation=None,
        violation_distance=None,
        pairs_checked=12,
    )
    return DispersionReport(**{**fields, **changes})


class TestConstruction:
    def test_fields_are_the_class_annotations_in_order(self):
        assert BitWord._fields == ("width", "value")
        assert SearchOutcome._fields == ("found", "witness", "candidates_examined")
        assert DispersionReport._fields == (
            "passed", "injective", "first_violation", "violation_distance",
            "pairs_checked",
        )
        assert DiffusionReport._fields == (
            "passed", "injective", "per_bit_sums", "target", "pairs_checked"
        )

    def test_positional_and_keyword_construction_agree(self):
        assert BitWord(3, 5) == BitWord(width=3, value=5) == BitWord(3, value=5)
        assert report() == DispersionReport(True, True, None, None, 12)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((3,), {}),  # missing
            ((), {"width": 3}),  # missing
            ((3, 5, 7), {}),  # extra positional
            ((3, 5), {"colour": 1}),  # unknown keyword
            ((3,), {"width": 3, "value": 5}),  # width twice
        ],
    )
    def test_missing_extra_or_repeated_field_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match="takes the fields width, value"):
            BitWord(*args, **kwargs)

    def test_post_init_runs_on_every_construction(self):
        with pytest.raises(ValueError):
            BitWord(value=4, width=2)
        with pytest.raises(ValueError):
            LinearMap(2, 2, (1,))

    def test_patched_post_init_is_called(self, monkeypatch):
        # perfbench/tracing.py counts BitWords by patching the class hook
        calls = []
        original = BitWord.__post_init__

        def counted(word):
            calls.append(word.value)
            original(word)

        monkeypatch.setattr(BitWord, "__post_init__", counted)
        BitWord(4, 9)
        BitWord.parse("101")
        with pytest.raises(ValueError):
            BitWord(1, 2)
        assert calls == [9, 5, 2]

    def test_post_init_may_swap_a_field_in(self):
        # TruthTableMap stores a read-only uint64 copy of its input
        values = np.arange(4, dtype=np.int32)
        table = TruthTableMap(2, 2, values)
        assert table.values.dtype == np.uint64
        assert not table.values.flags.writeable
        assert table.values is not values


class TestImmutability:
    @pytest.mark.parametrize(
        "record, name",
        [
            (BitWord(3, 5), "value"),
            (report(), "passed"),
            (LinearMap(1, 2, (1,)), "generators"),
            (TruthTableMap(1, 1, np.arange(2)), "values"),
            (BitWord(3, 5), "new_attribute"),
        ],
    )
    def test_assignment_and_deletion_raise(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)


class TestEqualityAndHash:
    def test_equal_fields_equal_records_equal_hashes(self):
        assert report() == report()
        assert hash(report()) == hash(report())
        assert report() != report(pairs_checked=13)
        assert LinearMap(2, 2, (1, 2)) == LinearMap(2, 2, (1, 2))
        assert LinearMap(2, 2, (1, 2)) != LinearMap(2, 2, (2, 1))

    def test_records_of_different_classes_never_equal(self):
        class Pair(Record):
            width: int
            value: int

        assert Pair._fields == BitWord._fields
        assert Pair(3, 5) != BitWord(3, 5)
        assert BitWord(3, 5) != (3, 5)

    def test_bitword_hashes_by_its_fields(self):
        assert hash(BitWord(3, 5)) == hash(BitWord.parse("101"))
        seen = {BitWord(3, 5): "a", BitWord(4, 5): "b"}
        assert seen[BitWord.parse("101")] == "a"
        assert seen[BitWord.parse("0101")] == "b"
        assert len({BitWord(2, 1), BitWord.parse("01")}) == 1

    def test_truth_table_compares_by_values_and_is_unhashable(self):
        a = TruthTableMap(2, 2, np.array([0, 1, 2, 3]))
        b = TruthTableMap(2, 2, np.array([0, 1, 2, 3], dtype=np.uint8))
        assert a == b
        assert a != TruthTableMap(2, 3, np.array([0, 1, 2, 3]))
        with pytest.raises(TypeError):
            hash(a)


class TestRepr:
    def test_report_repr_lists_fields_in_order(self):
        assert repr(report(first_violation=(BitWord(1, 0), BitWord(1, 1)))) == (
            "DispersionReport(passed=True, injective=True, "
            "first_violation=(BitWord('0'), BitWord('1')), violation_distance=None, "
            "pairs_checked=12)"
        )
        assert repr(SearchOutcome(True, LinearMap(1, 2, (1,)), 1)) == (
            "SearchOutcome(found=True, witness=LinearMap(input_dim=1, "
            "output_dim=2, generators=(1,)), candidates_examined=1)"
        )

    def test_bitword_keeps_its_own_repr(self):
        assert repr(BitWord(4, 5)) == "BitWord('0101')"
