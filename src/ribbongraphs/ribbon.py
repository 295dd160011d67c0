"""Signed ribbon graphs as arrow presentations.

A ribbon graph is stored as a list of circles (the vertex discs), each
carrying a cyclic sequence of labeled arrow occurrences.  Every edge label
occurs exactly twice across all circles; gluing a band between the two
arrows of each label, guided by the arrow directions, rebuilds the surface.
A sign function on edge labels rides along.

An occurrence records its arrow direction relative to the listed traversal
order of its circle: Along means the arrow agrees with the listing, Against
means it opposes it.  Two presentations describe the same ribbon graph when
they differ by relabeling, circle permutation and rotation, reversing a
circle while flipping all its flags (move M1), or flipping both flags of a
single edge (move M2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    DuplicateLabelCount,
    InvalidLabel,
    InvalidMove,
    ParseError,
    UnknownEdge,
    UnknownSign,
)

__all__ = [
    "Occurrence",
    "GraphStats",
    "SignedRibbonGraph",
    "parse_ribbon_graph",
    "serialize_ribbon_graph",
    "components",
    "is_orientable",
    "stats",
    "canonical_form",
    "is_isomorphic",
]

_LABEL_BAD = re.compile(r"[\s:'#,]")


class Occurrence(NamedTuple):
    """One end of an edge on a circle.

    ``against`` is True when the arrow opposes the circle's listed
    traversal order (the Against flag), False when it agrees (Along).
    """

    label: str
    against: bool = False

    def token(self) -> str:
        return self.label + ("'" if self.against else "")


@dataclass(frozen=True)
class GraphStats:
    """Numerical profile of a signed ribbon graph.

    ``chi_closed`` is the Euler characteristic v - e + f of the closed
    surface obtained by capping boundary circles with discs;
    ``genus_or_crosscap`` is its genus (2k - chi)/2 when orientable and
    its crosscap number 2k - chi otherwise.
    """

    v: int
    e: int
    k: int
    r: int
    n: int
    f: int
    orientable: bool
    chi_closed: int
    genus_or_crosscap: int


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label or _LABEL_BAD.search(label):
        raise InvalidLabel(f"invalid edge label {label!r}")
    return label


class SignedRibbonGraph:
    """Immutable arrow presentation with a sign on every edge.

    Args:
        circles: iterable of circles, each an iterable of ``Occurrence``
            (or bare ``(label, against)`` pairs).
        signs: map from edge label to +1 or -1.

    Raises:
        InvalidLabel: a label is not a string, is empty or holds a
            reserved character.
        DuplicateLabelCount: a label does not occur exactly twice.
        UnknownSign: an occurring label has no sign, or a sign is not +-1.
    """

    __slots__ = ("circles", "signs", "_table")

    circles: tuple[tuple[Occurrence, ...], ...]
    signs: dict[str, int]

    def __init__(
        self,
        circles: Iterable[Iterable[Occurrence | tuple[str, bool]]],
        signs: Mapping[str, int],
    ):
        # tuple() of a list, not of a generator: a generator's tuple is
        # allocated at a guessed size and resized, and the interpreter's
        # free lists then keep up to 2000 blocks per circle length.
        fixed = tuple(
            [tuple([Occurrence(o[0], bool(o[1])) for o in c]) for c in circles]
        )
        counts: dict[str, int] = {}
        for circle in fixed:
            for label, _ in circle:
                counts[label] = counts.get(label, 0) + 1
        for label in counts:  # once per label, in first-seen order
            _check_label(label)
        for label, count in counts.items():
            if count != 2:
                raise DuplicateLabelCount(
                    f"label {label!r} occurs {count} times, expected 2"
                )
            if label not in signs:
                raise UnknownSign(f"no sign given for edge {label!r}")
        for label, sign in signs.items():
            if counts.get(label, 0) != 2:
                raise DuplicateLabelCount(
                    f"label {label!r} occurs 0 times, expected 2"
                )
            if sign not in (1, -1):
                raise UnknownSign(f"sign of edge {label!r} must be +1 or -1")
        object.__setattr__(self, "circles", fixed)
        object.__setattr__(self, "signs", {l: signs[l] for l in sorted(counts)})
        object.__setattr__(self, "_table", None)

    @classmethod
    def _derived(
        cls, circles: tuple[tuple[Occurrence, ...], ...], signs: dict[str, int]
    ) -> "SignedRibbonGraph":
        """A graph that an operation on valid graphs built, without the
        checks: ``circles`` already holds ``Occurrence`` tuples with bool
        flags, every label twice, and ``signs`` maps each label to +-1 in
        label order.  Labels and signs come from a checked graph or
        diagram, and the operation pairs every occurrence it emits, so the
        checks could not fail; they take nearly as long as the operation."""
        g = object.__new__(cls)
        object.__setattr__(g, "circles", circles)
        object.__setattr__(g, "signs", signs)
        object.__setattr__(g, "_table", None)
        return g

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("SignedRibbonGraph instances are immutable")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.circles)

    @property
    def num_edges(self) -> int:
        return len(self.signs)

    @property
    def edge_labels(self) -> tuple[str, ...]:
        """All edge labels in lexicographic order."""
        return tuple(sorted(self.signs))

    def sign(self, label: str) -> int:
        """The sign of edge ``label``; ``UnknownEdge`` if it is not an edge."""
        if label not in self.signs:
            raise UnknownEdge(f"not an edge of the graph: {label!r}")
        return self.signs[label]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SignedRibbonGraph)
            and self.circles == other.circles
            and self.signs == other.signs
        )

    def __hash__(self) -> int:
        return hash((self.circles, tuple(sorted(self.signs.items()))))

    def __repr__(self) -> str:
        body = " / ".join(
            " ".join(o.token() for o in circle) or "(empty)"
            for circle in self.circles
        )
        return f"SignedRibbonGraph({body!r}, signs={self.signs!r})"

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------

    def _move_circle(self, index: int, move) -> "SignedRibbonGraph":
        """The graph with circle ``index`` replaced by ``move`` of it."""
        circles = list(self.circles)
        if not 0 <= index < len(circles):
            raise InvalidMove(f"circle index {index} is outside 0..{len(circles) - 1}")
        circles[index] = move(circles[index])
        return SignedRibbonGraph(circles, self.signs)

    def m1(self, index: int) -> "SignedRibbonGraph":
        """Reverse circle ``index`` and flip every flag on it; ``InvalidMove``
        if ``index`` is not in 0..v-1."""
        return self._move_circle(
            index, lambda c: tuple(Occurrence(o.label, not o.against) for o in c[::-1])
        )

    def m2(self, label: str) -> "SignedRibbonGraph":
        """Flip both flags of edge ``label``.

        Raises:
            UnknownEdge: ``label`` is not an edge of the graph.
        """
        self.sign(label)  # raises UnknownEdge for a label the graph lacks
        circles = tuple(
            tuple(
                Occurrence(o.label, not o.against) if o.label == label else o
                for o in circle
            )
            for circle in self.circles
        )
        return SignedRibbonGraph(circles, self.signs)

    def rotate(self, index: int, shift: int) -> "SignedRibbonGraph":
        """Move the listing start of circle ``index`` forward by ``shift``;
        ``InvalidMove`` if ``index`` is not in 0..v-1."""
        return self._move_circle(
            index, lambda c: c and c[shift % len(c) :] + c[: shift % len(c)]
        )

    def permute_circles(self, order: Sequence[int]) -> "SignedRibbonGraph":
        """Reorder circles; ``order[i]`` is the old index placed at i."""
        if sorted(order) != list(range(len(self.circles))):
            raise InvalidMove("not a permutation of circle indices")
        return SignedRibbonGraph(
            tuple(self.circles[i] for i in order), self.signs
        )

    def relabel(self, mapping: Mapping[str, str]) -> "SignedRibbonGraph":
        """Rename edges; labels absent from ``mapping`` keep their names."""
        full = {l: mapping.get(l, l) for l in self.signs}
        if len(set(full.values())) != len(full):
            raise InvalidMove("relabeling is not injective")
        circles = tuple(
            tuple(Occurrence(full[o.label], o.against) for o in circle)
            for circle in self.circles
        )
        return SignedRibbonGraph(
            circles, {full[l]: s for l, s in self.signs.items()}
        )


# ----------------------------------------------------------------------
# connectivity, boundary, orientability
# ----------------------------------------------------------------------


def _flat(g: SignedRibbonGraph) -> tuple[list, list, list, list, list]:
    """The occurrence table of ``g``, from one pass over its circles.

    Occurrence i, in circle-major order, has label ``labels[i]``, Against
    flag ``flags[i]``, circle ``home[i]`` and the other end of its edge at
    ``partner[i]``.  Its corners are 2i (tail) and 2i+1 (head); the arc
    matching ``sigma`` pairs the corner after each occurrence with the
    corner before the next one on its circle, along the free arc between.

    The first call for ``g`` builds the table and keeps it on ``g``; every
    later call returns the same lists, so no caller may mutate them.
    """
    if g._table is not None:
        return g._table
    labels, flags, home = [], [], []
    partner = [0] * (2 * len(g.signs))
    sigma = [0] * (4 * len(g.signs))
    first: dict[str, int] = {}
    i = 0
    for ci, circle in enumerate(g.circles):
        home += [ci] * len(circle)
        # the corner after the previous occurrence; at the first, after the last
        out = 2 * (i + len(circle)) - 1 - (circle[-1][1] if circle else 0)
        for label, against in circle:
            j = first.setdefault(label, i)
            partner[i], partner[j] = j, i
            inn = 2 * i + against
            sigma[out], sigma[inn] = inn, out
            out = inn ^ 1
            labels.append(label)
            flags.append(against)
            i += 1
    object.__setattr__(g, "_table", (labels, flags, home, partner, sigma))
    return g._table


def _runs(g: SignedRibbonGraph) -> list[range]:
    """The numbers of the occurrences on each circle in the table of
    :func:`_flat`."""
    ends = list(accumulate([len(circle) for circle in g.circles]))
    return [range(end - len(circle), end) for circle, end in zip(g.circles, ends)]


def _walk(g: SignedRibbonGraph) -> tuple[list[list[int]], bool]:
    """Components and orientability of ``g``, from its table :func:`_flat`.

    A walk starts at each circle not yet reached, in ascending order, and
    crosses every edge at its occurrences on the circles it reaches.  It
    gives each circle a reversal o with d1 xor d2 xor o(c1) xor o(c2) = 0
    for every edge, where d are the edge's Against flags; an edge that
    breaks this equation is the obstruction to orientability.  The
    components come as lists of circles in walk order, listed by their
    least circle.
    """
    _, flags, home, partner, _ = _flat(g)
    runs = _runs(g)
    reversal: list[int | None] = [None] * len(runs)
    groups: list[list[int]] = []
    orientable = True
    for root in range(len(runs)):
        if reversal[root] is not None:
            continue
        reversal[root] = 0
        group = [root]
        for c in group:  # grows as the walk reaches new circles
            for i in runs[c]:
                j = partner[i]
                o = reversal[c] ^ flags[i] ^ flags[j]
                if reversal[home[j]] is None:
                    reversal[home[j]] = o
                    group.append(home[j])
                elif reversal[home[j]] != o:
                    orientable = False
        groups.append(group)
    return groups, orientable


def components(g: SignedRibbonGraph) -> tuple[tuple[int, ...], ...]:
    """Partition circle indices into connected components.

    Circles are connected when a chain of shared edge labels joins them;
    the component count k is the length of the returned partition.  The
    groups are listed by their smallest circle, each in ascending order.
    """
    return tuple(tuple(sorted(group)) for group in _walk(g)[0])


def is_orientable(g: SignedRibbonGraph) -> bool:
    """Whether all circle arrows can be chosen coherently: whether a walk
    over the circles can reverse them so that every edge has one Along
    and one Against flag (see :func:`_walk`)."""
    return _walk(g)[1]


def _trace(first, second, starts) -> list[list[int]]:
    """Cycles of the alternating walk over two perfect matchings.

    ``first`` and ``second`` are lists holding each point's partner.
    Each cycle starts at the first point of ``starts`` not yet seen,
    leaves it along ``first``, and is returned as its list of points:
    even positions step along ``first``, odd ones along ``second``.
    Boundary components, partial duals and state curves are all traced
    here.
    """
    seen: set[int] = set()
    cycles: list[list[int]] = []
    for start in starts:
        if start in seen:
            continue
        cycle: list[int] = []
        at = start
        while True:
            nxt = first[at]
            cycle += (at, nxt)
            at = second[nxt]
            if at == start:
                break
        seen.update(cycle)
        cycles.append(cycle)
    return cycles


def _bands(g: SignedRibbonGraph, inside: list[bool]) -> list[int]:
    """The side matching on corners for the bands of the occurrences i of
    ``g`` with ``inside[i]`` (both ends of an edge, or neither): across
    each it pairs 2i with 2j+1 and 2i+1 with 2j, j the partner of i; at
    every other occurrence it pairs the occurrence's own two corners.
    """
    partner = _flat(g)[3]
    tau = [c ^ 1 for c in range(2 * len(partner))]
    for i, j in enumerate(partner):
        if inside[i]:
            tau[2 * i], tau[2 * i + 1] = 2 * j + 1, 2 * j
    return tau


def stats(g: SignedRibbonGraph) -> GraphStats:
    """Numerical profile of ``g``.  Its f counts the boundary components:
    the cycles (:func:`_trace`) of the arc matching and the sides of all
    edges, plus one per empty circle."""
    v, e = g.num_vertices, g.num_edges
    groups, orientable = _walk(g)
    k = len(groups)
    _, _, _, partner, sigma = _flat(g)
    f = len(_trace(sigma, _bands(g, [True] * len(partner)), range(len(sigma))))
    f += g.circles.count(())
    chi = v - e + f
    return GraphStats(
        v=v,
        e=e,
        k=k,
        r=v - k,
        n=e - (v - k),
        f=f,
        orientable=orientable,
        chi_closed=chi,
        genus_or_crosscap=(2 * k - chi) // 2 if orientable else 2 * k - chi,
    )


# ----------------------------------------------------------------------
# isomorphism
# ----------------------------------------------------------------------


def _rooted_code(g, rings, signs, root, best):
    """Code of one component of ``g`` read from ``root``, an (occurrence,
    reversed) pair, or None as soon as it exceeds ``best``.  Occurrence i
    has sign ``signs[i]`` (``signs`` is None under ``ignore_signs``), and
    ``rings[c]`` lists the occurrences of circle c twice over, so that one
    slice reads the circle from any start either way."""
    _, flags, home, partner, _ = _flat(g)
    queue = [root]
    placed = {home[root[0]]}
    first: list = [None] * len(partner)  # (number, flag) left at the unread end
    code: list[int] = []
    number = 0
    tied = bool(best)
    for start, rev in queue:
        ring = rings[home[start]]
        m = len(ring) >> 1
        k = start - ring[0]
        lo = len(code)
        code.append(-m)
        for i in ring[k + m : k : -1] if rev else ring[k : k + m]:
            flag = flags[i] ^ rev
            hit = first[i]
            if hit is not None:
                code += (hit[0], hit[1] ^ flag)
                continue
            j = partner[i]
            first[j] = (number, flag)
            code.append(number)
            number += 1
            if signs is not None:
                code.append(signs[i])
            if home[j] not in placed:
                placed.add(home[j])
                queue.append((j, flags[j] ^ flag))
        if tied:
            segment, ref = code[lo:], best[lo : len(code)]
            if segment > ref:
                return None
            tied = segment == ref
    return code


def canonical_form(
    g: SignedRibbonGraph, ignore_signs: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Complete invariant under relabeling, rotation, permutation, M1 and M2.

    Each connected component is coded from each root occurrence, read in
    both directions, by a breadth-first walk over its circles.  Edges are
    numbered in the order they are first seen, and each newly reached
    circle is oriented so that the edge it was entered by has flag XOR 0.
    A circle emits ``-len(circle)``, then per occurrence the edge number,
    followed by the sign on the first occurrence (unless ``ignore_signs``)
    and by the XOR of the two flags as read on the second.  A component
    keeps its least code; the form is the sorted tuple of component codes,
    an empty circle coding as ``()``.  An occurrence's key is the length m
    of its circle, the length of its partner's circle, min(d, m - d) for a
    loop with ends d apart (else -1) and its sign (0 under ``ignore_signs``);
    the roots are the occurrences of the key fewest in the component hold
    (ties to the least key).  That choice, and abandoning a root once its
    code exceeds the best, are invariant under isomorphism.
    """
    labels, _, home, partner, _ = _flat(g)
    runs = _runs(g)
    rings = [list(run) * 2 for run in runs]
    signs = None if ignore_signs else [g.signs[label] for label in labels]
    codes = []
    for group in _walk(g)[0]:
        keys: dict[tuple, list[int]] = {}
        for i in [i for c in group for i in runs[c]]:
            j = partner[i]
            m = len(runs[home[i]])
            gap = abs(j - i) if home[i] == home[j] else -1
            sign = signs[i] if signs else 0
            key = (m, len(runs[home[j]]), gap if 2 * gap <= m else m - gap, sign)
            keys.setdefault(key, []).append(i)
        # the least (count, key) group; none on an empty circle, coded ()
        roots = min([(len(r), k, r) for k, r in keys.items()], default=(0, (), []))[2]
        best: list[int] = []
        for root in [(i, rev) for i in roots for rev in (0, 1)]:
            code = _rooted_code(g, rings, signs, root, best)
            best = code or best
        codes.append(tuple(best))
    return tuple(sorted(codes))


def _presentation(g: SignedRibbonGraph) -> tuple:
    """The sorted circles of ``g``, each read from an occurrence of its least
    label whichever way reads least: forward from an Along occurrence, or
    backward with its flags flipped (move M1) from an Against one."""
    read = [()] * g.circles.count(())
    for c in filter(None, g.circles):
        least = min([label for label, _ in c])
        reads = []
        for i, (label, against) in enumerate(c):
            if label == least and against:
                reads.append(tuple([(l, not a) for l, a in c[i::-1] + c[:i:-1]]))
            elif label == least:
                reads.append(c[i:] + c[:i])
        read.append(min(reads))
    return tuple(sorted(read))


def is_isomorphic(
    g: SignedRibbonGraph, h: SignedRibbonGraph, ignore_signs: bool = False
) -> bool:
    """Equivalence under relabeling, rotation, permutation, M1 and M2.

    Signs must transport along the label bijection unless ``ignore_signs``.
    The two graphs are isomorphic exactly when their canonical forms
    (:func:`canonical_form`) are equal.
    """
    return canonical_form(g, ignore_signs) == canonical_form(h, ignore_signs)


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\S+")


def _read_lines(text: str, header: str, keywords: tuple[str, ...]) -> Iterator:
    """Yield (keyword, line, column, tokens) per content line of either text
    format, each token a (text, 1-based column) pair.  ``#`` starts a
    comment, blank lines are skipped, the first content line may be
    ``header`` (yielded with no tokens), and any other line opens with one
    of ``keywords``.  Lazy, so a caller's error wins over later lines."""
    first = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        col = len(line) - len(line.lstrip()) + 1
        if first and stripped == header:
            yield header, lineno, col, []
        else:
            keyword = next((k for k in keywords if stripped.startswith(k)), None)
            if keyword is None:
                raise ParseError(f"unrecognized line {stripped.split()[0]!r}", lineno, col)
            body = _TOKEN_RE.finditer(line, col - 1 + len(keyword))
            yield keyword, lineno, col, [(m.group(), m.start() + 1) for m in body]
        first = False


def _write_lines(header: str, lines: Iterable[tuple[str, list[str]]]) -> str:
    """``header``, then a ``keyword token ...`` line per (keyword, tokens)."""
    return "\n".join([header, *(" ".join([k, *toks]) for k, toks in lines)]) + "\n"


def parse_ribbon_graph(text: str) -> SignedRibbonGraph:
    """Parse the ``.rg`` text format.

    Format: optional header line ``ribbon-graph v1``; one line
    ``edges: <label>:<+|-> ...``; one ``circle:`` line per vertex whose
    tokens are labels, with a trailing ``'`` marking an Against flag.
    ``#`` starts a comment anywhere; blank lines are skipped.

    Raises:
        ParseError: malformed syntax, with line and column.
        DuplicateLabelCount, UnknownSign: label/sign inconsistencies.
    """
    signs: dict[str, int] | None = None
    circles: list[list[Occurrence]] = []
    keyword = None
    lines = _read_lines(text, "ribbon-graph v1", ("edges:", "circle:"))
    for keyword, lineno, col, tokens in lines:
        if keyword == "edges:":
            if signs is not None:
                raise ParseError("second edges: line", lineno, col)
            signs = {}
            for tok, col in tokens:
                label, sep, sign_txt = tok.rpartition(":")
                if not sep or not label:
                    raise ParseError(f"expected label:sign, got {tok!r}", lineno, col)
                if sign_txt not in ("+", "-"):
                    raise ParseError(f"sign must be + or -, got {sign_txt!r}", lineno, col)
                if _LABEL_BAD.search(label):
                    raise ParseError(f"invalid edge label {label!r}", lineno, col)
                if label in signs:
                    raise ParseError(f"edge {label!r} declared twice", lineno, col)
                signs[label] = 1 if sign_txt == "+" else -1
        elif keyword == "circle:":
            if signs is None:
                raise ParseError("circle: before edges:", lineno, col)
            circle: list[Occurrence] = []
            for tok, col in tokens:
                against = tok.endswith("'")
                label = tok[:-1] if against else tok
                if not label or _LABEL_BAD.search(label):
                    raise ParseError(f"invalid occurrence {tok!r}", lineno, col)
                if label not in signs:
                    raise ParseError(f"edge {label!r} not declared", lineno, col)
                circle.append(Occurrence(label, against))
            circles.append(circle)
    if signs is None:  # no line but the header, if that, was read
        raise ParseError("missing edges: line" if keyword else "empty input", 1, 1)
    return SignedRibbonGraph(circles, signs)


def serialize_ribbon_graph(g: SignedRibbonGraph) -> str:
    """Canonical ``.rg`` text; labels sorted, flags as trailing quotes."""
    edges = [f"{l}:{'+' if g.signs[l] > 0 else '-'}" for l in g.edge_labels]
    circles = [("circle:", [o.token() for o in circle]) for circle in g.circles]
    return _write_lines("ribbon-graph v1", [("edges:", edges), *circles])
