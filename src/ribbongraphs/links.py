"""Virtual link diagrams as signed Gauss codes, and their state sums.

A diagram is a set of oriented closed strands, each a cyclic sequence of
passes through classical crossings; every crossing is met exactly twice,
once over and once under, and carries a sign.  Virtual crossings are never
stored: everything computed here (brackets, Jones, state graphs) only
depends on the code, and virtual moves do not change it.

Each classical crossing splits in two ways.  With the crossing drawn so
its four strand ends sit in the plane, the A-splitting joins the two
angles swept counterclockwise from the over-strand; operationally, at a
positive crossing the A-splitting is the one that respects strand
orientation, and at a negative crossing that is the B-splitting.  A state
chooses a splitting per crossing; tracing the resulting closed curves and
placing a band at each crossing turns the state into a signed ribbon
graph whose edges are the crossings (sign +1 for A, -1 for B).
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Mapping, NamedTuple

from .br import BR_MAX_EDGES, _subgraph_profiles
from .errors import (
    DanglingCrossing,
    InvalidLabel,
    InvalidState,
    NegativeExponentNonUnit,
    RoleConflict,
    TooManyCrossings,
    UnknownSign,
)
from .polynomial import RING_ABD, RING_T, Laurent
from .ribbon import Occurrence, SignedRibbonGraph, _LABEL_BAD, _new
from .ribbon import _SIGNS, _error, _read_lines, _write_lines

__all__ = [
    "Pass",
    "VirtualLinkDiagram",
    "parse_gauss",
    "serialize_gauss",
    "writhe",
    "resolve_state",
    "kauffman_bracket",
    "jones",
    "seifert_state",
    "all_A_state",
    "all_B_state",
    "state_ribbon_graph",
]


class Pass(NamedTuple):
    """One visit of a strand to a crossing."""

    crossing: str
    over: bool

    def token(self, sign: int) -> str:
        return ("O" if self.over else "U") + self.crossing + ("+" if sign > 0 else "-")


class VirtualLinkDiagram:
    """Oriented virtual link diagram modulo virtual moves.

    Args:
        components: iterable of strands, each an iterable of ``Pass``
            (or bare ``(crossing, over)`` pairs); a strand may be empty.
        signs: map from crossing id to +1 or -1.

    Raises:
        DanglingCrossing: a crossing id is not met exactly twice.
        RoleConflict: a crossing is met twice in the same role.
        UnknownSign: a met crossing has no sign, or a sign is not the int +-1.
        InvalidLabel: a crossing id is not a str, is empty or has a reserved character.
    """

    __slots__ = ("components", "signs")

    components: tuple[tuple[Pass, ...], ...]
    signs: dict[str, int]

    def __init__(
        self,
        components: Iterable[Iterable[Pass | tuple[str, bool]]],
        signs: Mapping[str, int],
    ):
        fixed = tuple([tuple([_new(Pass, (p[0], bool(p[1]))) for p in c]) for c in components])
        roles: dict[str, list[bool]] = {}
        try:
            for comp in fixed:
                for cid, over in comp:
                    roles.setdefault(cid, []).append(over)
            ids = roles  # each id once, in first-seen order
        except TypeError:  # an unhashable id: every pass in order, up to it
            ids = [cid for comp in fixed for cid, _ in comp]
        for cid in ids:
            if not isinstance(cid, str) or not cid or _LABEL_BAD.search(cid):
                raise InvalidLabel(f"invalid crossing id {cid!r}")
        for cid, seen in roles.items():
            if len(seen) != 2:
                raise DanglingCrossing(f"crossing {cid!r} met {len(seen)} times, expected 2")
            if seen[0] == seen[1]:
                word = "over" if seen[0] else "under"
                raise RoleConflict(f"crossing {cid!r} passed {word} twice")
            if cid not in signs:
                raise UnknownSign(f"no sign given for crossing {cid!r}")
        for cid, sign in signs.items():
            if cid not in roles:
                raise DanglingCrossing(f"crossing {cid!r} met 0 times, expected 2")
            if type(sign) is not int or sign not in (1, -1):  # no bool, no float
                raise UnknownSign(f"sign of crossing {cid!r} must be +1 or -1")
        object.__setattr__(self, "components", fixed)
        object.__setattr__(self, "signs", {c: signs[c] for c in sorted(roles)})

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("VirtualLinkDiagram instances are immutable")

    @property
    def crossing_ids(self) -> tuple[str, ...]:
        """Crossing ids in lexicographic order, as ``signs`` keeps them."""
        return tuple(self.signs)

    @property
    def num_crossings(self) -> int:
        return len(self.signs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VirtualLinkDiagram)
            and self.components == other.components
            and self.signs == other.signs
        )

    def __hash__(self) -> int:
        return hash((self.components, tuple(sorted(self.signs.items()))))

    def __repr__(self) -> str:
        body = " / ".join(
            " ".join(p.token(self.signs[p.crossing]) for p in comp) or "(empty)"
            for comp in self.components
        )
        return f"VirtualLinkDiagram({body!r})"


def writhe(d: VirtualLinkDiagram) -> int:
    """Sum of the crossing signs."""
    return sum(d.signs.values())


def resolve_state(
    d: VirtualLinkDiagram, state: Mapping[str, str]
) -> tuple[tuple[Occurrence, ...], ...]:
    """Split every crossing per ``state`` and trace the closed curves.

    Returns the state's closed curves, each the cyclic sequence of
    crossings it passes, as ``Occurrence``s whose flags record the band
    arrow against the curve's traversal.  A component with no crossings
    is an empty curve, listed after the others.

    ``state`` maps each crossing id to "A" or "B".  The A-splitting at a
    positive crossing (and the B-splitting at a negative one) joins each
    incoming strand end to an outgoing one; the other choice joins the
    two incoming ends together.  Band arrows run from the under-strand
    end to the over-strand end on both arcs of an A-splitting, and from
    over to under for B.

    The strand ends of crossing j are 4j..4j+3, over-in, over-out,
    under-in, under-out, over the sorted ids.  One pass pairs each exit
    with the next entry along its strand.  A walk starts at each least
    end not yet passed and steps along that pairing to an end c, then
    turns through the splitting to c ^ 3 if it respects orientation,
    else to c ^ 2.  Each step emits c's crossing, flagged Against when
    the band arrow points at c.

    Raises:
        InvalidState: ``state`` does not choose A or B at some crossing.
    """
    ids = d.crossing_ids
    for cid in ids:
        if state.get(cid) not in ("A", "B"):
            raise InvalidState(f"state does not choose A or B at {cid!r}")
    index = {cid: j for j, cid in enumerate(ids)}
    strand = [0] * (4 * len(ids))
    for comp in d.components:
        for p, q in zip(comp, comp[1:] + comp[:1]):
            out_end = 4 * index[p.crossing] + (1 if p.over else 3)
            in_end = 4 * index[q.crossing] + (0 if q.over else 2)
            strand[out_end], strand[in_end] = in_end, out_end
    is_a = [state[cid] == "A" for cid in ids]
    turn = [3 if (d.signs[cid] > 0) == a else 2 for cid, a in zip(ids, is_a)]
    seen = [False] * len(strand)
    circles = []
    for start in range(len(strand)):
        if seen[start]:
            continue
        circle = []
        at = start
        while True:
            c = strand[at]
            seen[at] = seen[c] = True
            j = c >> 2
            circle.append(_new(Occurrence, (ids[j], (c & 2 == 0) == is_a[j])))
            at = c ^ turn[j]
            if at == start:
                break
        circles.append(tuple(circle))
    circles += [() for comp in d.components if not comp]
    return tuple(circles)


def _bracket_terms(g: SignedRibbonGraph) -> dict[tuple[int, int, int], int]:
    """The engine's sum of A^(e-|F|) B^|F| d^(f(F)-1) over the spanning
    subgraphs F of ``g``, on states without the component partition."""
    return _subgraph_profiles(g, (-1, 1, 0), (-1, 1, 0), (0, 0, 1), (0, 0, 0), (g.num_edges, 0, -1))


def kauffman_bracket(d: VirtualLinkDiagram) -> Laurent:
    """State sum of A^alpha B^beta d^(delta-1) over all splittings.

    Computed through the all-A state graph G, by :func:`_bracket_terms`:
    the state that splits the crossings of an edge set F by B and the rest
    by A traces exactly the boundary components of the spanning subgraph F
    of G, one edge per crossing.

    Raises:
        TooManyCrossings: more than ``BR_MAX_EDGES`` crossings, the
            limit of that histogram.
    """
    n = d.num_crossings
    if n > BR_MAX_EDGES:
        raise TooManyCrossings(
            f"{n} crossings exceed the state-sum guard of {BR_MAX_EDGES} "
            f"(2^{n} states)"
        )
    return Laurent(RING_ABD, _bracket_terms(state_ribbon_graph(d, all_A_state(d))))


def jones(d: VirtualLinkDiagram) -> Laurent:
    """Jones polynomial in t: the bracket at A=t^(-1/4), B=t^(1/4),
    d=-t^(1/2)-t^(-1/2), times (-1)^w t^(3w/4), as a map on exponent keys:
    d^m = (-1)^m sum_j C(m, j) t^((m-2j)/2), so the bracket term c A^a B^b d^m
    adds (-1)^(m+w) C(m, j) c at the key b - a + 3w + 2(m - 2j), j = 0..m.
    d^(-1), the bracket with no strands, raises NegativeExponentNonUnit."""
    w = writhe(d)
    terms: dict[tuple[int], int] = {}
    for (a, b, m), coeff in kauffman_bracket(d).terms.items():
        if m < 0:
            raise NegativeExponentNonUnit(f"the loop value has no inverse for d^({m})")
        coeff *= -1 if (m + w) & 1 else 1
        for j in range(m + 1):
            key = (b - a + 3 * w + 2 * (m - 2 * j),)
            terms[key] = terms.get(key, 0) + comb(m, j) * coeff
    return Laurent(RING_T, terms)


def seifert_state(d: VirtualLinkDiagram) -> dict[str, str]:
    """The orientation-respecting state: A at positive crossings, B at
    negative ones."""
    return {cid: ("A" if s > 0 else "B") for cid, s in d.signs.items()}


def all_A_state(d: VirtualLinkDiagram) -> dict[str, str]:
    return {cid: "A" for cid in d.signs}


def all_B_state(d: VirtualLinkDiagram) -> dict[str, str]:
    return {cid: "B" for cid in d.signs}


def state_ribbon_graph(
    d: VirtualLinkDiagram, state: Mapping[str, str]
) -> SignedRibbonGraph:
    """Ribbon graph of a state: state curves become vertices, crossings
    become edges signed +1 for an A-splitting and -1 for B."""
    circles = resolve_state(d, state)  # validates the state first
    signs = {cid: (1 if state[cid] == "A" else -1) for cid in d.crossing_ids}
    return SignedRibbonGraph._derived(circles, signs)


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------


def parse_gauss(text: str) -> VirtualLinkDiagram:
    """Parse the gauss text format.

    Format: optional header line ``gauss v1``; one ``component:`` line
    per strand with whitespace-separated tokens ``(O|U)<id><+|->``; an
    empty component line is a 0-crossing unknot component.  ``#`` starts
    a comment.  Empty input denotes the single-component unknot.

    Raises:
        ParseError: malformed tokens or clashing signs, with line/column.
        DanglingCrossing, RoleConflict, UnknownSign: invalid diagrams.
    """
    components: list[list[tuple[str, bool]]] = []
    signs: dict[str, int] = {}
    for keyword, lineno, tokens in _read_lines(text, "gauss v1", ("component:",)):
        if keyword != "component:":  # the header
            continue
        comp: list[tuple[str, bool]] = []
        for tok in tokens:
            cid, sign = tok[1:-1], _SIGNS.get(tok[-1])
            if cid not in signs and sign and len(tok) > 2 and not _LABEL_BAD.search(cid):
                signs[cid] = sign  # a new id, checked once
            if signs.get(cid, 0) != sign or tok[0] not in "OU":
                raise _error(_pass_message(tok), text, lineno, keyword, len(comp))
            comp.append((cid, tok[0] == "O"))
        components.append(comp)
    if not components:
        components.append([])
    return VirtualLinkDiagram(components, signs)


def _pass_message(token: str) -> str:
    if len(token) < 3 or token[0] not in "OU" or token[-1] not in "+-":
        return f"expected (O|U)<id><+|->, got {token!r}"
    if _LABEL_BAD.search(token[1:-1]):
        return f"invalid crossing id {token[1:-1]!r}"
    return f"crossing {token[1:-1]!r} already declared with the other sign"


def serialize_gauss(d: VirtualLinkDiagram) -> str:
    """Canonical gauss text for a diagram."""
    comps = [[p.token(d.signs[p.crossing]) for p in comp] for comp in d.components]
    return _write_lines("gauss v1", [("component:", toks) for toks in comps])
