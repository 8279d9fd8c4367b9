"""In-process tracing of `dispdiff.cli.main` without touching its source.

The library binds names with `from .x import y`, so a call is timed by
rebinding the name in the module that uses it (`cli.g_table`,
`explorer.verify_dispersive`, ...). `_scan` is used as a module and
`TruthTableMap.is_injective` / `BitWord.__post_init__` through the
class, so those are patched in place. Spans are kept in memory and
written out by the caller when the run ends.

Spans are pushed and popped on one stack, so every wrapped function must
be called from the thread that calls `main`; `_scan` hands only its inner
chunk scans to worker threads, and those are not wrapped.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import dispdiff.cli as cli
import dispdiff.explorer as explorer
from dispdiff import _scan
from dispdiff.bitword import BitWord
from dispdiff.f2linear import TruthTableMap

# (owner, attribute, layer). The owner is the module or class whose
# binding the library's call site looks up.
WRAPPED = [
    (cli, "g_table", "diffusive.g_table"),
    (cli, "serialize_truth_table", "f2linear.serialize_truth_table"),
    (cli, "parse_map_file", "f2linear.parse_map_file"),
    (cli, "tabulate", "f2linear.tabulate"),
    (cli, "verify_k_dispersive", "explorer.verify_k"),
    (cli, "verify_k_diffusive", "explorer.verify_k"),
    (cli, "format_dispersion_report", "dispersive.format_report"),
    (cli, "format_diffusion_report", "diffusive.format_report"),
    (cli, "search_linear_k_dispersive", "explorer.search"),
    (explorer, "verify_dispersive", "dispersive.verify"),
    (explorer, "verify_diffusive", "diffusive.verify"),
    (explorer, "_rank_ints", "f2linear.rank"),
    (_scan, "table_values", "_scan.table_values"),
    (_scan, "bit_sums", "_scan.bit_sums"),
    (_scan, "first_distance_violation", "_scan.first_distance_violation"),
    (TruthTableMap, "is_injective", "f2linear.is_injective"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._run = 0

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._run)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        if name in ("_scan.bit_sums", "_scan.first_distance_violation"):
            values, _, pats = args[:3]
            # each pattern pairs half of the table with the other half
            self.counts["_scan.pairs"] += len(values) // 2 * len(pats)
            self.counts["_scan.patterns"] += len(pats)
        elif name == "explorer.search":
            self.counts["explorer.candidates_examined"] += result.candidates_examined

    def main(self, argv: list[str]) -> int:
        """`cli.main(argv)` as one traced run with its own run id."""
        self._run += 1
        return self._wrap("cli", cli.main)(argv)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in WRAPPED]
        post_init = BitWord.__post_init__
        chunk_bounds = _scan.chunk_bounds
        counts = self.counts

        def counted_post_init(word):
            counts["bitword.objects_created"] += 1
            post_init(word)

        def counted_chunk_bounds(total, workers):
            ranges = chunk_bounds(total, workers)
            counts["_scan.chunks"] += len(ranges)
            return ranges

        try:
            for owner, attr, name in WRAPPED:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            BitWord.__post_init__ = counted_post_init
            _scan.chunk_bounds = counted_chunk_bounds
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            BitWord.__post_init__ = post_init
            _scan.chunk_bounds = chunk_bounds

    def self_times(self) -> Counter[str]:
        """Seconds per layer, each span minus the time its children cover."""
        own = Counter({i: s.end - s.start for i, s in enumerate(self.spans)})
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        out: Counter[str] = Counter()
        for i, s in enumerate(self.spans):
            out[s.name] += own[i]
        return out

    def inclusive_times(self) -> Counter[str]:
        out: Counter[str] = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out
