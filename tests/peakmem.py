"""Peak traced allocation of a block, for tests that a rejected input is
refused before anything of its size is built."""

import tracemalloc
from contextlib import contextmanager

MB = 1 << 20


@contextmanager
def peak_below(limit: int = MB):
    """Fail unless the block's peak Python allocation stays below limit."""
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, f"peak {peak} bytes"
