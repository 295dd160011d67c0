"""Every subcommand on fuzzed text ends in a handled exit code, and the
two parsers either reject fuzzed text or round-trip it."""

import contextlib
import io
import sys

import pytest

from ribbongraphs import cli
from ribbongraphs.errors import RibbonGraphError
from ribbongraphs.links import parse_gauss, serialize_gauss
from ribbongraphs.ribbon import parse_ribbon_graph, serialize_ribbon_graph

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# Whole inputs and pieces of both text formats, comments, odd
# whitespace and non-ASCII text.  Only six edge labels and four
# crossing ids occur, so even an exhaustive verify stays small.
FUZZ_GRAPHS = [
    "",
    "edges: a:+ b:-\ncircle: a b a' b\n",
    "edges: a:- b:+ c:+ # é\n\tcircle: a b\x0bcircle: b' a c c'\n",
    "ribbon-graph v1\r\nedges: 1:+\r\ncircle: 1 # loop\r\ncircle: 1'",
    "edges: ∞:+ d:-\u2028circle: ∞ d ∞ d\x0ccircle:\n",
]
FUZZ_DIAGRAMS = [
    "",
    "component: O1+ U1+\n",
    "gauss v1\ncomponent: O1+ O2- U1+ U2-\n# é\n",
    "component: O1+ U2+\r\ncomponent: O2+ U1+ # Hopf\x85component:",
    "component:\tO∞- U3+\x0bcomponent: O3+\u00a0U∞-\n",
]
FUZZ_PIECES = [
    "a", "b", "1", "a'", "a:+", "b:-", "1:-", "a:*", "edges:", "circle:",
    "component:", "gauss v1", "ribbon-graph v1", "O1+", "U1+", "O3-", "Ox",
    "U", "#", ":", "'", "+", "-", "é", "∞", "\u00a0", "\u2003", "\u2028",
    "\x00", " ", "\t", "\n", "\r", "\x0b", "\x0c",
]
FUZZ_ARGS = [
    ["stats"], ["dual"], ["dual", "--edges", "a,b"], ["dual", "--edges", "é"],
    ["poly"], ["tutte"], ["invariant"], ["duals"],
    ["verify"], ["verify", "--mode", "lemmas"],
    ["verify", "--samples", "3", "--seed", "5"],
    ["verify", "--samples", "0"], ["verify", "--samples", "x"],
    ["bracket"], ["jones"], ["stategraph"],
    ["stategraph", "--state", "all-B"], ["stategraph", "--state", "01"],
    ["stategraph", "--state", "∞"],
]


def fuzz_text(args: list[str]):
    """A whole input, mostly of the format ``args`` reads, with pieces of
    either format spliced in at random places."""
    links = args[0] in ("bracket", "jones", "stategraph")
    own = FUZZ_DIAGRAMS if links else FUZZ_GRAPHS
    splice = st.tuples(st.integers(0, 80), st.sampled_from(FUZZ_PIECES))

    def build(case):
        text, pieces = case
        for at, piece in pieces:
            text = text[:at] + piece + text[at:]
        return text

    whole = st.sampled_from(own * 3 + FUZZ_GRAPHS + FUZZ_DIAGRAMS)
    return st.tuples(whole, st.lists(splice, max_size=4)).map(build)


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from(FUZZ_ARGS).flatmap(
        lambda args: st.tuples(st.just(args), fuzz_text(args))
    ))
    def test_every_subcommand_exits_cleanly(self, case):
        # Every input ends in a handled exit code, and only a success
        # writes to stdout.
        args, text = case
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([args[0], "-", *args[1:]])
                except SystemExit as exc:
                    assert exc.code == 2, err.getvalue()
                    code = 2
        finally:
            sys.stdin = stdin
        assert code in (0, 2, 3), (code, err.getvalue())
        assert code == 0 or out.getvalue() == ""


# Labels and crossing ids hold no whitespace, ``:``, ``'`` or ``#``, as
# the formats require, but may hold NUL, non-ASCII letters and the
# characters of signs and passes.
ID_TEXT = st.text(alphabet="abz019_.+-OUé∞Ω\x00", min_size=1, max_size=3)


def spliced(text: str, draw) -> str:
    """``text`` with up to three pieces spliced in or spans cut out."""
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(FUZZ_PIECES)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 6)) :]
    return text


def cut(draw, items: list, parts: int) -> list[list]:
    """``items`` in ``parts`` consecutive runs, some of them empty."""
    bounds = sorted(draw(st.integers(0, len(items))) for _ in range(parts - 1))
    bounds = [0, *bounds, len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@st.composite
def ribbon_texts(draw):
    """A valid ``.rg`` text of up to 40 edges with random spacing, header
    and comments, then possibly damaged; (text, damaged)."""
    n = draw(st.integers(0, 40))
    labels = draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True))
    occs = draw(st.permutations(labels * 2))
    space = st.sampled_from([" ", "  ", "\t", " \t"])
    edges = "".join(f"{draw(space)}{l}:{draw(st.sampled_from('+-'))}" for l in labels)
    lines = ["ribbon-graph v1"] if draw(st.booleans()) else []
    lines.append(f"edges:{edges} # {len(labels)} edges")
    for circle in cut(draw, occs, draw(st.integers(1, 8))):
        flags = [draw(st.sampled_from(["", "'"])) for _ in circle]
        toks = "".join(draw(space) + l + flag for l, flag in zip(circle, flags))
        lines += [f"circle:{toks}", draw(st.sampled_from(["", "# note", "   "]))]
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    damaged = spliced(text, draw)
    return damaged, damaged != text


@st.composite
def gauss_texts(draw):
    """A valid gauss text of up to 40 crossings, then possibly damaged."""
    n = draw(st.integers(0, 40))
    ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True))
    signs = {cid: draw(st.sampled_from("+-")) for cid in ids}
    passes = draw(st.permutations([(cid, r) for cid in ids for r in "OU"]))
    lines = ["gauss v1"] if draw(st.booleans()) else []
    for strand in cut(draw, passes, draw(st.integers(1, 6))):
        lines.append("component: " + " ".join(f"{r}{c}{signs[c]}" for c, r in strand))
    text = "\n".join(lines)
    damaged = spliced(text, draw)
    return damaged, damaged != text


class TestParserFuzz:
    # Each input either raises a package error or parses to an object
    # that the serializer writes back to text parsing to the same object.

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=ribbon_texts())
    def test_ribbon_parser_round_trips(self, case):
        text, damaged = case
        try:
            g = parse_ribbon_graph(text)
        except RibbonGraphError:
            assert damaged, text
            return
        assert parse_ribbon_graph(serialize_ribbon_graph(g)) == g

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=gauss_texts())
    def test_gauss_parser_round_trips(self, case):
        text, damaged = case
        try:
            d = parse_gauss(text)
        except RibbonGraphError:
            assert damaged, text
            return
        assert parse_gauss(serialize_gauss(d)) == d
