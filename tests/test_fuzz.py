"""Every subcommand on fuzzed text ends in a handled exit code."""

import contextlib
import io
import sys

import pytest

from ribbongraphs import cli

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
