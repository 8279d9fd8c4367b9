"""A table file's bytes, for tests that compare or corrupt them:
`serialize_truth_table` writes to a file object. And a patched block
size for the tests of every loop over a table's entries."""

import io
from contextlib import contextmanager
from unittest import mock

from dispdiff import f2linear, serialize_truth_table


def table_bytes(table) -> bytes:
    fh = io.BytesIO()
    serialize_truth_table(table, fh)
    return fh.getvalue()


@contextmanager
def small_blocks(rows: int):
    """rows entries a block in every table loop, so that small tables
    span several blocks and end in a short one."""
    with mock.patch.object(f2linear, "_BLOCK_ROWS", rows):
        yield
