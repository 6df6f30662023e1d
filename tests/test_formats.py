"""Text format tests: instance round trips and line-numbered parse errors."""

import hashlib
import itertools
import random
import re

import pytest

from exactmatch.formats import (
    InstanceFormatError,
    _parse_canonical,
    format_em_instance,
    format_matching,
    format_tkpm_instance,
    parse_em_instance,
    parse_matching,
    parse_tkpm_instance,
)
from exactmatch.generator import GenSpec, gen_instance
from exactmatch.graphs import (
    BLUE,
    RED,
    ColoredGraph,
    EmInstance,
    TkpmInstance,
    WeightedGraph,
    validate,
)


def test_round_trip_em():
    g = ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
    inst = EmInstance(g, 1)
    assert parse_em_instance(format_em_instance(inst)) == inst


def test_round_trip_tkpm():
    g = WeightedGraph(4, ((0, 1, 5), (2, 3, 0)))
    inst = TkpmInstance(g, 2)
    assert parse_tkpm_instance(format_tkpm_instance(inst)) == inst


def random_edges(rng, n, payload):
    """A random simple edge list on n vertices with u < v, in random order."""
    pairs = rng.sample(list(itertools.combinations(range(n), 2)),
                       rng.randint(0, min(60, n * (n - 1) // 2)))
    return tuple((u, v, payload()) for u, v in pairs)


def test_round_trip_seeded_property():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.randint(0, 40)
        colored = EmInstance(ColoredGraph(n, random_edges(rng, n, lambda: rng.choice((RED, BLUE)))),
                             rng.randint(0, n // 2))
        weighted = TkpmInstance(WeightedGraph(n, random_edges(rng, n, lambda: rng.randint(0, 10 ** 6))),
                                rng.randint(0, n))
        assert parse_em_instance(format_em_instance(colored)) == colored
        assert parse_tkpm_instance(format_tkpm_instance(weighted)) == weighted


def test_format_em_instance_bytes_are_pinned():
    text = format_em_instance(gen_instance(GenSpec(n=2000, extra_edges=40, seed=1)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "9b1474e9d2798ef6d16916a2415a78be8a1e975460a4369eee0030cb51218ff1"


def test_round_trip_generated_instances():
    for seed in range(20):
        inst = gen_instance(GenSpec(n=6, extra_edges=4, seed=seed))
        assert parse_em_instance(format_em_instance(inst)) == inst


def test_comments_and_blank_lines_skipped():
    text = "# a comment\n\np em 2 1 1\n  # another\ne 0 1 r\n"
    inst = parse_em_instance(text)
    assert inst.graph.n == 2 and inst.k == 1


def test_endpoints_normalized_on_parse():
    inst = parse_em_instance("p em 2 1 0\ne 1 0 b\n")
    assert inst.graph.edges == ((0, 1, BLUE),)


def test_error_empty_input():
    with pytest.raises(InstanceFormatError, match="line 1: empty input"):
        parse_em_instance("   \n# only comments\n")


def test_error_bad_header():
    with pytest.raises(InstanceFormatError, match="line 1: malformed header"):
        parse_em_instance("p matching 2 1 1\ne 0 1 r\n")
    with pytest.raises(InstanceFormatError, match="line 2: malformed header"):
        parse_em_instance("# hi\np em 2 1\n")
    with pytest.raises(InstanceFormatError, match="non-negative"):
        parse_em_instance("p em -2 1 0\ne 0 1 r\n")


def test_error_bad_color():
    with pytest.raises(InstanceFormatError, match="line 2: color must be 'r' or 'b'"):
        parse_em_instance("p em 2 1 0\ne 0 1 g\n")


def test_error_bad_weight():
    with pytest.raises(InstanceFormatError, match="line 2: weight must be non-negative"):
        parse_tkpm_instance("p tkpm 2 1 0\ne 0 1 -4\n")
    with pytest.raises(InstanceFormatError, match="line 2"):
        parse_tkpm_instance("p tkpm 2 1 0\ne 0 1 r\n")


def test_error_vertex_out_of_range():
    with pytest.raises(InstanceFormatError, match=r"line 2: vertex id out of range 0\.\.1"):
        parse_em_instance("p em 2 1 0\ne 0 2 r\n")


def test_error_underscore_in_vertex_id():
    # int() reads '1_0' as 10
    with pytest.raises(InstanceFormatError, match="line 2: vertex id is not an integer: '1_0'"):
        parse_em_instance("p em 12 1 0\ne 0 1_0 r\n")


def test_error_non_ascii_digit_in_vertex_id():
    # int() reads the Arabic-Indic digit one as 1
    with pytest.raises(InstanceFormatError, match="line 2: vertex id is not an integer"):
        parse_em_instance("p em 2 1 0\ne 0 \u0661 r\n")


@pytest.mark.parametrize("parse, text, what", [
    (parse_em_instance, "p em 2 1 0\ne 0 +1 r\n", "line 2: vertex id"),
    (parse_em_instance, "p em 2 1 +1\ne 0 1 r\n", "line 1: k"),
    (parse_tkpm_instance, "p tkpm 2 1 0\ne 0 1 +1\n", "line 2: weight"),
    (parse_matching, "m +1 0", "line 1: matching size"),
], ids=["vertex id", "k", "weight", "matching size"])
def test_error_plus_sign(parse, text, what):
    with pytest.raises(InstanceFormatError, match=rf"{what} is not an integer: '\+1'"):
        parse(text)


def test_minus_sign_reaches_the_range_checks():
    with pytest.raises(InstanceFormatError, match=r"line 2: vertex id out of range 0\.\.1"):
        parse_em_instance("p em 2 1 0\ne -1 1 r\n")
    with pytest.raises(InstanceFormatError, match="line 1: matching size is not an integer: '--1'"):
        parse_matching("m --1")


@pytest.mark.parametrize("parse, text, what", [
    (parse_em_instance, "p em 2 1 0\ne 0 " + "1" * 5000 + " r\n", "line 2: vertex id"),
    (parse_tkpm_instance, "p tkpm 2 1 0\ne 0 1 " + "1" * 5000 + "\n", "line 2: weight"),
], ids=["vertex id", "weight"])
def test_error_more_digits_than_int_converts(parse, text, what):
    # int() refuses a digit string longer than sys.get_int_max_str_digits()
    with pytest.raises(InstanceFormatError, match=f"{what} is not an integer"):
        parse(text)


def test_error_too_many_edges():
    with pytest.raises(InstanceFormatError, match="line 3: unexpected record after 1 edges"):
        parse_em_instance("p em 4 1 0\ne 0 1 r\ne 2 3 b\n")


def test_error_too_few_edges():
    with pytest.raises(InstanceFormatError, match="expected 2 edge records, found 1"):
        parse_em_instance("p em 4 2 0\ne 0 1 r\n")


def test_error_malformed_edge_record():
    with pytest.raises(InstanceFormatError, match="line 2: malformed edge record"):
        parse_em_instance("p em 2 1 0\nedge 0 1 r\n")


def test_parse_leaves_semantic_checks_to_validate():
    # the parser accepts a self-loop; validate is the layer that names it
    inst = parse_em_instance("p em 2 1 0\ne 1 1 r\n")
    assert validate(inst.graph) == "self-loop at edge 0"


def test_matching_format_and_parse():
    text = format_matching((3, 0, 2))
    assert text == "m 3 0 2 3"
    assert parse_matching(text) == (0, 2, 3)


def test_matching_empty():
    assert parse_matching(format_matching(())) == ()


def test_matching_count_mismatch():
    with pytest.raises(InstanceFormatError, match="declares 2 edges but lists 1"):
        parse_matching("m 2 0\n")
    with pytest.raises(InstanceFormatError, match="declares 1 edges but lists 2"):
        parse_matching("m 1 0 4\n")


def test_matching_repeated_id():
    assert format_matching((0, 0)) == "m 2 0 0"
    assert format_matching((3, 1, 3)) == "m 3 1 3 3"
    with pytest.raises(InstanceFormatError, match="line 1: edge id 0 is listed twice"):
        parse_matching("m 2 0 0")
    with pytest.raises(InstanceFormatError, match="line 4: edge id 3 is listed twice"):
        parse_matching(format_matching((3, 1, 3)), lineno=4)


def test_matching_underscore_in_edge_id():
    # int() reads '1_0' as 10
    with pytest.raises(InstanceFormatError, match="line 1: edge id is not an integer: '1_0'"):
        parse_matching("m 1 1_0")


def test_matching_bad_prefix():
    with pytest.raises(InstanceFormatError, match="malformed matching"):
        parse_matching("x 1 0")


@pytest.mark.parametrize("text, lineno, message", [
    ("m -1", 1, "line 1: matching size must be non-negative"),
    ("m -1 0", 3, "line 3: matching size must be non-negative"),
    ("m 1 -1", 1, "line 1: edge id must be non-negative"),
    ("m 2 4 -3", 2, "line 2: edge id must be non-negative"),
    ("m 3 -1", 1, "line 1: edge id must be non-negative"),
], ids=["count", "count with an id", "id", "second id", "id before the count check"])
def test_matching_rejects_a_negative_number(text, lineno, message):
    with pytest.raises(InstanceFormatError) as caught:
        parse_matching(text, lineno=lineno)
    assert str(caught.value) == message


def test_format_em_instance_layout():
    g = ColoredGraph(2, ((0, 1, RED),))
    text = format_em_instance(EmInstance(g, 1))
    assert text.splitlines() == ["p em 2 1 1", "e 0 1 r"]


@pytest.mark.parametrize("edges", [
    ((0, 1), (2, 3, RED, "x")),
    ((0, 1, RED, "x"),),
], ids=["mixed arity", "one quadruple"])
def test_format_rejects_an_edge_that_is_not_a_triple(edges):
    # the field count of the edges together would fit a mixed-arity list
    with pytest.raises(ValueError, match="triple"):
        format_em_instance(EmInstance(ColoredGraph(4, edges), 0))


# Text in the formatters' layout is read in bulk, anything else line by
# line; "# x\n" in front forces the line reader onto the same records.

def canonical_text(rng, problem, m_max=40):
    """Seeded text in the formatters' layout, but with endpoints in either
    order and leading zeros on some numbers."""
    def number(x):
        return "0" * rng.choice((0, 0, 0, 1, 3)) + str(x)
    n = rng.randint(0, 30)
    pairs = rng.sample(list(itertools.combinations(range(n), 2)),
                       rng.randint(0, min(m_max, n * (n - 1) // 2)))
    lines = [f"p {problem} {n} {len(pairs)} {rng.randint(0, n // 2)}\n"]
    for pair in pairs:
        u, v = rng.sample(pair, 2)
        payload = rng.choice((RED, BLUE)) if problem == "em" else number(rng.randint(0, 10 ** 6))
        lines.append(f"e {number(u)} {number(v)} {payload}\n")
    return "".join(lines)


@pytest.mark.parametrize("problem, parse", [
    ("em", parse_em_instance), ("tkpm", parse_tkpm_instance)], ids=["em", "tkpm"])
def test_bulk_and_line_readers_agree_on_canonical_text(problem, parse):
    rng = random.Random(18)
    texts = [f"p {problem} 0 0 0\n", f"p {problem} 6 0 3\n"]
    texts += [canonical_text(rng, problem, m_max=rng.choice((0, 40))) for _ in range(200)]
    assert any(re.search(r" 0[0-9]", t) for t in texts)   # leading zeros were drawn
    for text in texts:
        assert _parse_canonical(text, problem) is not None
        assert _parse_canonical("# x\n" + text, problem) is None
        inst = parse(text)
        assert inst == parse("# x\n" + text)
        assert all(u < v for u, v, _ in inst.graph.edges)


@pytest.mark.parametrize("text", [
    "p em 4 2 0\ne 0 1 r\ne 2 3 b",
    "p em 4 2 0\r\ne 0 1 r\r\ne 2 3 b\r\n",
    "p em 4 2 0\ne\t0\t1\tr\ne 2 3 b\n",
], ids=["no final newline", "crlf", "tabs"])
def test_other_layouts_are_read_by_line(text):
    assert _parse_canonical(text, "em") is None
    assert parse_em_instance(text) == parse_em_instance("p em 4 2 0\ne 0 1 r\ne 2 3 b\n")


DIGITS_5000 = "0" * 4999 + "3"


def _shift_line(message):
    """The message for the same text one line further down."""
    if not message.startswith("line "):
        return message
    number, rest = message[5:].split(":", 1)
    return f"line {int(number) + 1}:{rest}"


@pytest.mark.parametrize("parse, text, message", [
    (parse_em_instance, "p em 4 2 0\ne 0 1 r\ne 2 " + DIGITS_5000 + " b\n",
     f"line 3: vertex id is not an integer: {DIGITS_5000!r}"),
    (parse_tkpm_instance, "p tkpm 4 2 0\ne 0 1 7\ne 2 3 " + DIGITS_5000 + "\n",
     f"line 3: weight is not an integer: {DIGITS_5000!r}"),
    (parse_em_instance, "p em " + DIGITS_5000 + " 1 0\ne 0 1 r\n",
     f"line 1: vertex count is not an integer: {DIGITS_5000!r}"),
    (parse_em_instance, "p em 4 2 0\ne 0 1\nr\ne 2 3 b\n",
     "line 2: malformed edge record, expected 'e <u> <v> <r|b>'"),
    (parse_em_instance, "p em 4 2 0\ne 0 1 r\ne 2 4 b",
     "line 3: vertex id out of range 0..3"),
    (parse_em_instance, "p em 4 2 0\r\ne 0 1 r\r\ne 2 4 b\r\n",
     "line 3: vertex id out of range 0..3"),
    (parse_em_instance, "p em 4 2 0\ne\t0\t1\tr\ne 2 4 b\n",
     "line 3: vertex id out of range 0..3"),
    (parse_em_instance, "p em 4 2 0\ne 0 1 r\ne 2 4 b\n",
     "line 3: vertex id out of range 0..3"),
    (parse_tkpm_instance, "p tkpm 4 2 0\ne 0 1 3\ne 4 2 0\n",
     "line 3: vertex id out of range 0..3"),
    (parse_em_instance, "p em 4 2 0\ne 0 1 r\n",
     "unexpected end of input: expected 2 edge records, found 1"),
    (parse_em_instance, "p em 4 1 0\ne 0 1 r\ne 2 3 b\n",
     "line 3: unexpected record after 1 edges"),
], ids=["5000-digit id", "5000-digit weight", "5000-digit count", "split record",
        "no final newline", "crlf", "tabs", "id out of range", "tkpm id out of range",
        "too few records", "too many records"])
def test_errors_read_the_same_on_either_path(parse, text, message):
    # the line reader words every error, whichever path the text starts on
    for variant in (text, "# x\n" + text):
        with pytest.raises(InstanceFormatError) as caught:
            parse(variant)
        expected = message if variant is text else _shift_line(message)
        assert str(caught.value) == expected

