"""The text layer: both parsers against the eager oracles of
``tests.helpers`` on mutated text, and the label checks counted."""

import random
import re

import pytest

from ribbongraphs import links, ribbon
from ribbongraphs.errors import RibbonGraphError
from ribbongraphs.links import VirtualLinkDiagram, parse_gauss, serialize_gauss
from ribbongraphs.ribbon import parse_ribbon_graph, serialize_ribbon_graph

from .helpers import (
    eager_parse_gauss,
    eager_parse_ribbon_graph,
    random_diagram,
    random_graph,
    sized_diagram,
    sized_graph,
)

# Labels and ids beyond 1..e, so that a reserved character or an odd
# space lands inside multi-character and non-ASCII names too.
NAMES = ["1", "2", "10", "a", "bc", "é", "∞", "x_y", "Z9"]
SPACES = [" ", "  ", "   ", "\t", " \t", "\xa0", "\u2003", "\x1f"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
RESERVED = ":'#,"
MUTATIONS = ("none", "delete", "duplicate", "swap", "flip", "reserved", "glue", "header", "line", "bare")
FLIPS = {"+": "-", "-": "+", "O": "U", "U": "O"}

# What an outcome shows: the phrase of the error raised, the parsers' own
# and those left to the constructors, or that the text parsed.
RIBBON_KINDS = {
    "parsed",
    "unrecognized line",
    "second edges: line",
    "expected label:sign",
    "sign must be",
    "invalid edge label",
    "declared twice",
    "circle: before edges:",
    "invalid occurrence",
    "not declared",
    "missing edges: line",
    "empty input",
    "occurs",
}
GAUSS_KINDS = {
    "parsed",
    "unrecognized line",
    "expected (O|U)",
    "invalid crossing id",
    "with the other sign",
    "met",
    "passed",
}


def graph_words(rng: random.Random) -> tuple[str, list[list[str]]]:
    g = random_graph(rng, max_edges=6)
    g = g.relabel(dict(zip(g.edge_labels, rng.sample(NAMES, g.num_edges))))
    return "ribbon-graph v1", [l.split() for l in serialize_ribbon_graph(g).splitlines()]


def diagram_words(rng: random.Random) -> tuple[str, list[list[str]]]:
    d = random_diagram(rng, max_crossings=4)
    name = dict(zip(d.crossing_ids, rng.sample(NAMES, d.num_crossings)))
    d = VirtualLinkDiagram(
        [[(name[p.crossing], p.over) for p in comp] for comp in d.components],
        {name[c]: s for c, s in d.signs.items()},
    )
    return "gauss v1", [l.split() for l in serialize_gauss(d).splitlines()]


def mutated(rng: random.Random, header: str, lines: list[list[str]]) -> str:
    """One or two mutations of the words of a valid text, rendered with
    random spaces, line breaks, blank lines and comments."""
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(MUTATIONS)
        spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        if kind == "bare":  # empty, comment-only or header-only input
            lines = rng.choice([[], [["#", "edges:", "a:+"]], [header.split()]])
            continue
        if kind == "header":  # a header on a later line, or a second one
            lines.insert(rng.randint(min(1, len(lines)), len(lines)), header.split())
        if kind == "line" and lines:  # a second copy of a line, anywhere
            lines.insert(rng.randint(0, len(lines)), list(rng.choice(lines)))
        if not spots:
            continue
        i, j = rng.choice(spots)
        if kind == "delete":
            del lines[i][j]
        elif kind == "duplicate":
            lines[i].insert(j, lines[i][j])
        elif kind == "swap":
            k, m = rng.choice(spots)
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        elif kind == "flip":  # the role or sign a token opens or ends with
            word = lines[i][j]
            k = rng.choice([0, len(word) - 1])
            lines[i][j] = word[:k] + FLIPS.get(word[k], word[k]) + word[k + 1 :]
        elif kind == "reserved":
            word = lines[i][j]
            at = rng.randint(0, len(word))
            lines[i][j] = word[:at] + rng.choice(RESERVED) + word[at:]
        elif kind == "glue" and len(lines[i]) > 1:  # a keyword and its first token
            lines[i][:2] = [lines[i][0] + lines[i][1]]
    out = []
    for words in lines:
        if rng.random() < 0.2:
            out.append(rng.choice(["", rng.choice(SPACES), "# note: a'b,c"]))
        line = rng.choice(["", "", rng.choice(SPACES)])
        if words == header.split() and rng.random() < 0.9:
            line += header + rng.choice(SPACES)  # a header only with its one space
        else:
            line += "".join(word + rng.choice(SPACES) for word in words)
        if rng.random() < 0.2:
            line += "#" + rng.choice(["", " x:+ y'", "#", " circle: 1"])
        out.append(line)
    return "".join(line + rng.choice(BREAKS) for line in out)


def outcome(parse, text: str):
    try:
        return parse(text)
    except RibbonGraphError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def kind_of(result, kinds: set[str]) -> str:
    if not isinstance(result, tuple):
        return "parsed"
    message = result[1].split(": ", 1)[1] if result[2] else result[1]
    return next(k for k in sorted(kinds) if k in message)


@pytest.mark.parametrize(
    "words, parse, oracle, kinds",
    [
        (graph_words, parse_ribbon_graph, eager_parse_ribbon_graph, RIBBON_KINDS),
        (diagram_words, parse_gauss, eager_parse_gauss, GAUSS_KINDS),
    ],
    ids=["rg", "gauss"],
)
def test_every_outcome_matches_the_eager_oracle(words, parse, oracle, kinds):
    # The same graph or diagram, or the same exception type, message,
    # line and column as the oracle, on 2000 mutated texts per format;
    # among them, every error either can raise on text.
    rng = random.Random(2026)
    seen = set()
    for _ in range(2000):
        text = mutated(rng, *words(rng))
        want = outcome(oracle, text)
        assert outcome(parse, text) == want, text
        seen.add(kind_of(want, kinds))
    assert seen == kinds


class CountingPattern:
    """A stand-in for a compiled pattern that counts its searches."""

    def __init__(self, pattern: re.Pattern):
        self.pattern, self.searches = pattern, 0

    def search(self, text: str):
        self.searches += 1
        return self.pattern.search(text)


def test_each_label_is_checked_once_by_parser_and_once_by_constructor(monkeypatch):
    # The parser checks a label where it is declared, or a crossing id at
    # its first pass, and the constructor checks each once more: 2e
    # searches for e edges, 2n for n crossings.
    rng = random.Random(12)
    graph = serialize_ribbon_graph(sized_graph(rng, 12, 5))
    diagram = serialize_gauss(sized_diagram(rng, 24, 2))
    counter = CountingPattern(ribbon._LABEL_BAD)
    monkeypatch.setattr(ribbon, "_LABEL_BAD", counter)
    monkeypatch.setattr(links, "_LABEL_BAD", counter)
    parse_ribbon_graph(graph)
    assert counter.searches == 2 * 12
    counter.searches = 0
    parse_gauss(diagram)
    assert counter.searches == 2 * 24
