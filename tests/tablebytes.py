"""A table file's bytes, for tests that compare or corrupt them:
`serialize_truth_table` writes to a file object."""

import io

from dispdiff import serialize_truth_table


def table_bytes(table) -> bytes:
    fh = io.BytesIO()
    serialize_truth_table(table, fh)
    return fh.getvalue()
