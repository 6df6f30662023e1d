"""Text formats for instances, matchings, and reduction maps.

Instance files are line oriented. Blank lines and lines starting with '#'
are ignored. The first significant line is a header, followed by exactly
one record per edge:

    p em <n> <m> <k>        then m lines    e <u> <v> <r|b>
    p tkpm <n> <m> <k>      then m lines    e <u> <v> <weight>

Numbers (counts, ids, k, weights) are ASCII decimal digits after an
optional '-', which the range and sign checks then report; the other
spellings int() takes ('1_0', '+1', non-ASCII digits) are errors. Vertex
ids are 0-based. Edge endpoints may appear in either order in a
file; they are normalized to u < v on parse, which never changes edge ids.
A matching serializes to a single line "m <count> <edge-id>...".

Text in the exact layout that format_em_instance and format_tkpm_instance
write (the header line, then one "e <digits> <digits> <r|b or digits>\n"
line per edge and nothing else) is read in one pass over the whole body;
any other text is read line by line. Both paths give the same instance,
and the line reader is the only source of error messages, so an error
reads the same either way.

Parsers raise InstanceFormatError with the offending line number for
malformed headers, out-of-range ids, and record-count mismatches. Semantic
invariants (self-loops, parallel edges, k ranges) are left to
graphs.validate and graphs.validate_instance so that callers decide how
strict to be.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import lt
from typing import Iterator, Optional

from .graphs import BLUE, RED, ColoredGraph, EmInstance, Matching, TkpmInstance, WeightedGraph


class InstanceFormatError(ValueError):
    """Raised on malformed instance or matching text; the message carries
    the 1-based line number."""


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_int(token: str, lineno: int, what: str) -> int:
    # int() reads a whitespace-free ASCII token without '_' or '+' only when
    # it is decimal digits after an optional '-'
    if token.isascii() and "_" not in token and "+" not in token:
        try:
            return int(token)
        except ValueError:   # more digits than int() converts
            pass
    raise InstanceFormatError(f"line {lineno}: {what} is not an integer: {token!r}")


def _parse_header(lineno: int, line: str, problem: str) -> tuple[int, int, int]:
    fields = line.split()
    if len(fields) != 5 or fields[0] != "p" or fields[1] != problem:
        raise InstanceFormatError(
            f"line {lineno}: malformed header, expected 'p {problem} <n> <m> <k>'")
    n = _parse_int(fields[2], lineno, "vertex count")
    m = _parse_int(fields[3], lineno, "edge count")
    k = _parse_int(fields[4], lineno, "k")
    if n < 0 or m < 0 or k < 0:
        raise InstanceFormatError(f"line {lineno}: header values must be non-negative")
    return n, m, k


def _parse_edge_records(lines, n: int, m: int, problem: str):
    edges = []
    for lineno, line in lines:
        if len(edges) == m:
            raise InstanceFormatError(f"line {lineno}: unexpected record after {m} edges")
        fields = line.split()
        if len(fields) != 4 or fields[0] != "e":
            raise InstanceFormatError(
                f"line {lineno}: malformed edge record, expected 'e <u> <v> <{'r|b' if problem == 'em' else 'weight'}>'")
        u = _parse_int(fields[1], lineno, "vertex id")
        v = _parse_int(fields[2], lineno, "vertex id")
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceFormatError(f"line {lineno}: vertex id out of range 0..{n - 1}")
        if u > v:
            u, v = v, u
        if problem == "em":
            if fields[3] not in (RED, BLUE):
                raise InstanceFormatError(f"line {lineno}: color must be '{RED}' or '{BLUE}'")
            edges.append((u, v, fields[3]))
        else:
            w = _parse_int(fields[3], lineno, "weight")
            if w < 0:
                raise InstanceFormatError(f"line {lineno}: weight must be non-negative")
            edges.append((u, v, w))
    if len(edges) != m:
        raise InstanceFormatError(
            f"unexpected end of input: expected {m} edge records, found {len(edges)}")
    return edges


# the whole text of a file as the formatters write it
_CANONICAL = {
    "em": re.compile(r"p em [0-9]+ [0-9]+ [0-9]+\n(?:e [0-9]+ [0-9]+ [rb]\n)*"),
    "tkpm": re.compile(r"p tkpm [0-9]+ [0-9]+ [0-9]+\n(?:e [0-9]+ [0-9]+ [0-9]+\n)*"),
}


def _parse_canonical(text: str, problem: str) -> Optional[tuple[int, tuple, int]]:
    """(n, edges, k) of canonical text whose records all pass the line
    reader's checks, else None so that the line reader runs and reports."""
    if _CANONICAL[problem].fullmatch(text) is None:
        return None
    header, _, body = text.partition("\n")
    n, m, k = _parse_header(1, header, problem)
    tokens = body.split()
    if len(tokens) != 4 * m:
        return None
    try:
        us = list(map(int, tokens[1::4]))
        vs = list(map(int, tokens[2::4]))
        payloads = tokens[3::4] if problem == "em" else list(map(int, tokens[3::4]))
    except ValueError:   # more digits than int() converts
        return None
    if not all(map(lt, us, vs)):   # normalize to u < v
        us, vs = list(map(min, us, vs)), list(map(max, us, vs))
    if m and max(vs) >= n:
        return None
    return n, tuple(zip(us, vs, payloads)), k


def _parse_instance(text: str, problem: str) -> tuple[int, tuple, int]:
    canonical = _parse_canonical(text, problem)
    if canonical is not None:
        return canonical
    lines = _significant_lines(text)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise InstanceFormatError(
            f"line 1: empty input, expected a 'p {problem}' header") from None
    n, m, k = _parse_header(lineno, line, problem)
    return n, tuple(_parse_edge_records(lines, n, m, problem)), k


def parse_em_instance(text: str) -> EmInstance:
    """Parse the 'p em' text format into an EmInstance."""
    n, edges, k = _parse_instance(text, "em")
    return EmInstance(ColoredGraph(n, edges), k)


def parse_tkpm_instance(text: str) -> TkpmInstance:
    """Parse the 'p tkpm' text format into a TkpmInstance."""
    n, edges, k = _parse_instance(text, "tkpm")
    return TkpmInstance(WeightedGraph(n, edges), k)


def _format_instance(problem: str, graph, k: int) -> str:
    """The header, then every edge record from one %-format over the
    flattened (u, v, payload) triples; %s prints what str() does."""
    edges = graph.edges
    if set(map(len, edges)) - {3}:
        raise ValueError("every edge must be a (u, v, payload) triple")
    return (f"p {problem} {graph.n} {len(edges)} {k}\n"
            + "e %s %s %s\n" * len(edges) % tuple(chain.from_iterable(edges)))


def format_em_instance(instance: EmInstance) -> str:
    return _format_instance("em", instance.graph, instance.k)


def format_tkpm_instance(instance: TkpmInstance) -> str:
    return _format_instance("tkpm", instance.graph, instance.k)


def format_matching(matching: Matching) -> str:
    """One 'm <count> <edge-id>...' record, ids sorted; a repeated id is
    written as often as it occurs, so the record shows it."""
    ids = sorted(matching)
    return " ".join(["m", str(len(ids))] + [str(i) for i in ids])


def parse_matching(line: str, lineno: int = 1) -> Matching:
    """Parse one 'm <count> <edge-id>...' record into sorted edge ids; an id
    listed twice is an error."""
    fields = line.split()
    if len(fields) < 2 or fields[0] != "m":
        raise InstanceFormatError(f"line {lineno}: malformed matching, expected 'm <count> <ids>'")
    count = _parse_int(fields[1], lineno, "matching size")
    ids = [_parse_int(t, lineno, "edge id") for t in fields[2:]]
    if count != len(ids):
        raise InstanceFormatError(
            f"line {lineno}: matching declares {count} edges but lists {len(ids)}")
    ids.sort()
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise InstanceFormatError(f"line {lineno}: edge id {a} is listed twice")
    return tuple(ids)
