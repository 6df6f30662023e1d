"""Spans and counts recorded from outside the program.

The tracer replaces functions by wrappers in the namespace of the module
that calls them (exactmatch.reduction.brute_tkpm is the brute_tkpm that
decide_em_via_tkpm calls), so the program's files are never edited. The
benchmark itself calls the program through module attributes
(engines.brute_em, cli.main, ...), so its own calls are wrapped the same
way.

Two modes, never mixed, so counting costs no time inside a timed span:
- "spans": each call records (name, start, end, parent, op id) in memory;
  self time is a span's duration minus the durations of its children.
- "counts": each call bumps counters from its arguments and its result;
  nothing is timed.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

from exactmatch import algebraic, campaign, cli, engines, graphs, reduction


def _max(counts: Counter, key: str, value: int) -> None:
    counts[key] = max(counts[key], value)


def _count_gadget(counts, args, result):
    gadget = result[0].graph
    counts["reduction.gadget_vertices"] += gadget.n
    counts["reduction.gadget_edges"] += len(gadget.edges)


def _count_determinant(counts, args, result):
    counts["polynomials.determinant_calls"] += 1
    _max(counts, "polynomials.matrix_order", len(args[0]))
    _max(counts, "polynomials.coeff_bits",
         max((abs(c).bit_length() for c in result.coeffs), default=0))


def _count_trials(counts, args, result):
    counts["algebraic.trials_run"] += result.trials_run


def _count_queries(counts, args, result):
    counts["algebraic.em_queries"] += len(result.queries)


def _count_parse(counts, args, result):
    counts["formats.parse_bytes"] += len(args[0])


def _count_format(counts, args, result):
    counts["formats.format_bytes"] += len(result)


def _count_call(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


_count_engine = _count_call("engines.calls")


# (module, attribute, span name, count hook). A span's layer is the part
# of its name before the dot. format_gadget_map lives in reduction but is
# text formatting, so it is booked to the formats layer.
TARGETS: tuple[tuple[object, str, str, Optional[Callable]], ...] = (
    (engines, "brute_em", "engines.brute_em", _count_engine),
    (engines, "has_perfect_matching", "engines.has_pm", _count_engine),
    (campaign, "brute_em", "engines.brute_em", _count_engine),
    (campaign, "brute_cpm", "engines.brute_cpm", _count_engine),
    (algebraic, "brute_em", "engines.brute_em", _count_engine),
    (cli, "brute_em", "engines.brute_em", _count_engine),
    (reduction, "brute_tkpm", "engines.brute_tkpm", _count_engine),
    (reduction, "gadgetize", "reduction.gadgetize", _count_gadget),
    (cli, "gadgetize", "reduction.gadgetize", _count_gadget),
    (reduction, "decide_em_via_tkpm", "reduction.decide", None),
    (campaign, "decide_em_via_tkpm", "reduction.decide", None),
    (cli, "decide_em_via_tkpm", "reduction.decide", None),
    (graphs, "_build_adjacency", "graphs.adjacency", _count_call("graphs.adjacency_calls")),
    (algebraic, "determinant", "polynomials.determinant", _count_determinant),
    (algebraic, "algebraic_em_decide", "algebraic.em_decide", _count_trials),
    (campaign, "algebraic_em_decide", "algebraic.em_decide", _count_trials),
    (algebraic, "cpm_via_em", "algebraic.cpm_via_em", _count_queries),
    (algebraic, "bcpm_via_em", "algebraic.bcpm_via_em", _count_queries),
    (campaign, "cpm_via_em", "algebraic.cpm_via_em", _count_queries),
    (campaign, "find_bipartition", "algebraic.find_bipartition", None),
    (cli, "parse_em_instance", "formats.parse", _count_parse),
    (cli, "format_matching", "formats.format", _count_format),
    (cli, "format_tkpm_instance", "formats.format", _count_format),
    (cli, "format_gadget_map", "formats.format", _count_format),
    (campaign, "format_em_instance", "formats.format", _count_format),
    (cli, "main", "cli.main", None),
    (campaign, "gen_instance", "generator.gen_instance", _count_call("generator.calls")),
    (campaign, "randomized_campaign", "campaign.randomized", None),
    (campaign, "merge_reports", "campaign.merge", None),
)


class Tracer:
    """Holds the spans and counts of one run, in memory until the end."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, op id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the with-block."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def _timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, hook: Callable, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counts, args, result)
            return result
        return wrapper

    def _counted_matchings(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(graph):
            for matching in fn(graph):
                counts["engines.pm_visited"] += 1
                yield matching
        return wrapper

    @contextmanager
    def installed(self, mode: str):
        """Wrap every target for the duration of the with-block, in
        "spans" or "counts" mode, and restore the originals after. Mode
        "none" wraps nothing."""
        saved = []
        try:
            for module, attr, name, hook in TARGETS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if mode == "spans":
                    setattr(module, attr, self._timed(name, fn))
                elif mode == "counts" and hook is not None:
                    setattr(module, attr, self._counted(hook, fn))
            if mode == "counts":
                # every unbudgeted enumeration runs through this generator
                saved.append((engines, "_iter_unordered", engines._iter_unordered))
                engines._iter_unordered = self._counted_matchings(engines._iter_unordered)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return dict(totals)
