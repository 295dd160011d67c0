"""Generalized duality for signed ribbon graphs.

The partial dual with respect to an edge subset E' re-glues the vertex
discs along the boundary of the spanning subgraph carrying only the E'
ribbons.  Concretely: trace the boundary of that subgraph with the corner
walk of :func:`ribbongraphs.ribbon.boundary_components`, but let the free
arcs carry the occurrences of edges outside E' as marks.  Every boundary
cycle becomes a vertex circle of the dual; marks are re-emitted as they
are swept (flag flipped when their arc is run backward) and every ribbon
side of an E' edge emits a fresh occurrence of that edge.  Signs flip on
E' and survive elsewhere.

Deletion, contraction, edge classification, and enumeration of the whole
orbit of duals are built on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import TooManyEdges, UnknownEdge
from .ribbon import Occurrence, SignedRibbonGraph, canonical_form, components

__all__ = [
    "partial_dual",
    "delete_edge",
    "contract_edge",
    "EdgeClass",
    "classify_edge",
    "OrbitClass",
    "dual_orbit",
    "DUAL_ORBIT_MAX_EDGES",
]

DUAL_ORBIT_MAX_EDGES = 20


def _require_edges(g: SignedRibbonGraph, edges: Iterable[str]) -> set[str]:
    subset = set(edges)
    unknown = subset - set(g.signs)
    if unknown:
        raise UnknownEdge(f"not edges of the graph: {sorted(unknown)}")
    return subset


def partial_dual(g: SignedRibbonGraph, edges: Iterable[str]) -> SignedRibbonGraph:
    """Dual of ``g`` with respect to the edge subset ``edges``.

    Circles containing no subset occurrence pass through verbatim, so the
    dual with respect to the empty set is ``g`` itself.  Traced circles
    come first, ordered by their smallest corner (corners numbered 2i and
    2i+1 for the tail and head of global occurrence i); untouched circles
    follow in their original order.  Subset edge signs are flipped.

    Raises:
        UnknownEdge: a requested edge is not in the graph.
    """
    subset = _require_edges(g, edges)

    # arc/side adjacency on the corners of subset occurrences only
    arc: dict[int, tuple[int, tuple[Occurrence, ...], bool]] = {}
    side: dict[int, tuple[int, str, bool]] = {}
    touched: set[int] = set()
    ends: dict[str, list[int]] = {}
    base = 0
    for ci, circle in enumerate(g.circles):
        m = len(circle)
        sel = [pos for pos, o in enumerate(circle) if o.label in subset]
        if sel:
            touched.add(ci)
            for which, pos in enumerate(sel):
                occ = circle[pos]
                ends.setdefault(occ.label, []).append(base + pos)
                nxt_pos = sel[(which + 1) % len(sel)]
                nxt = circle[nxt_pos]
                src = 2 * (base + pos) + (0 if occ.against else 1)
                dst = 2 * (base + nxt_pos) + (1 if nxt.against else 0)
                marks: list[Occurrence] = []
                q = (pos + 1) % m
                while q != nxt_pos:
                    marks.append(circle[q])
                    q = (q + 1) % m
                arc[src] = (dst, tuple(marks), True)
                arc[dst] = (src, tuple(marks), False)
        base += m
    for label, (i1, i2) in ends.items():
        # new-arrow direction runs head corner -> tail corner
        for h, t in ((2 * i1 + 1, 2 * i2), (2 * i2 + 1, 2 * i1)):
            side[h] = (t, label, True)
            side[t] = (h, label, False)

    new_circles: list[tuple[Occurrence, ...]] = []
    seen: set[int] = set()
    for start in sorted(arc):
        if start in seen:
            continue
        out: list[Occurrence] = []
        at = start
        use_arc = True
        while True:
            seen.add(at)
            if use_arc:
                nxt, marks, forward = arc[at]
                if forward:
                    out.extend(marks)
                else:
                    out.extend(
                        Occurrence(o.label, not o.against) for o in reversed(marks)
                    )
            else:
                nxt, label, agrees = side[at]
                out.append(Occurrence(label, not agrees))
            at = nxt
            use_arc = not use_arc
            if at == start:
                break
        new_circles.append(tuple(out))
    for ci, circle in enumerate(g.circles):
        if ci not in touched:
            new_circles.append(circle)
    signs = {l: -s if l in subset else s for l, s in g.signs.items()}
    return SignedRibbonGraph(new_circles, signs)


def delete_edge(g: SignedRibbonGraph, edge: str) -> SignedRibbonGraph:
    """Remove the ribbon of ``edge``; circles keep their other arrows."""
    _require_edges(g, [edge])
    circles = tuple(
        tuple(o for o in circle if o.label != edge) for circle in g.circles
    )
    return SignedRibbonGraph(
        circles, {l: s for l, s in g.signs.items() if l != edge}
    )


def contract_edge(g: SignedRibbonGraph, edge: str) -> SignedRibbonGraph:
    """Contract ``edge``: dualize on it, then delete it there."""
    return delete_edge(partial_dual(g, {edge}), edge)


@dataclass(frozen=True)
class EdgeClass:
    """Classification of one edge.

    ``kind`` is "bridge", "loop", or "ordinary"; for loops the two extra
    fields say whether the loop is orientable (equal flags) and trivial
    (cutting its vertex along the chord between its two gaps, after
    removing the loop, disconnects the graph).
    """

    kind: str
    orientable: bool | None = None
    trivial: bool | None = None


def classify_edge(g: SignedRibbonGraph, edge: str) -> EdgeClass:
    """Sort ``edge`` into bridge / loop / ordinary, with loop refinements.

    Raises:
        UnknownEdge: the edge is not in the graph.
    """
    _require_edges(g, [edge])
    spots = [
        (ci, pos)
        for _, ci, pos, occ in g.occurrences()
        if occ.label == edge
    ]
    (c1, p1), (c2, p2) = spots
    if c1 == c2:
        circle = g.circles[c1]
        inner = circle[p1 + 1 : p2]
        outer = circle[p2 + 1 :] + circle[:p1]
        split_circles = (
            g.circles[:c1]
            + (inner, outer)
            + g.circles[c1 + 1 :]
        )
        split = SignedRibbonGraph(
            split_circles, {l: s for l, s in g.signs.items() if l != edge}
        )
        return EdgeClass(
            kind="loop",
            orientable=circle[p1].against == circle[p2].against,
            trivial=len(components(split)) > len(components(g)),
        )
    if len(components(delete_edge(g, edge))) > len(components(g)):
        return EdgeClass(kind="bridge")
    return EdgeClass(kind="ordinary")


@dataclass(frozen=True)
class OrbitClass:
    """One unsigned-isomorphism class in the orbit of all partial duals."""

    subset: tuple[str, ...]
    graph: SignedRibbonGraph
    size: int


def dual_orbit(
    g: SignedRibbonGraph, max_edges: int = DUAL_ORBIT_MAX_EDGES
) -> tuple[OrbitClass, ...]:
    """Partial duals over all edge subsets, up to unsigned isomorphism.

    Returns one class per isomorphism type, in first-seen bitmask order
    over the sorted label list, holding the first subset, its dual, and
    the number of subsets landing in the class.  Duals are grouped by
    their unsigned :func:`ribbongraphs.ribbon.canonical_form`.

    Raises:
        TooManyEdges: more than ``max_edges`` edges.
    """
    labels = g.edge_labels
    e = len(labels)
    if e > max_edges:
        raise TooManyEdges(
            f"{e} edges exceed the orbit guard of {max_edges} (2^{e} partial duals)"
        )
    classes: dict[tuple, OrbitClass] = {}
    for mask in range(1 << e):
        subset = tuple(l for i, l in enumerate(labels) if mask >> i & 1)
        dual = partial_dual(g, subset)
        key = canonical_form(dual, ignore_signs=True)
        old = classes.get(key, OrbitClass(subset, dual, 0))
        classes[key] = OrbitClass(old.subset, old.graph, old.size + 1)
    return tuple(classes.values())
