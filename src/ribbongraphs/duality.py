"""Generalized duality for signed ribbon graphs.

The partial dual with respect to an edge subset E' re-glues the vertex
discs along the boundary of the spanning subgraph carrying only the E'
ribbons.  :func:`ribbongraphs.ribbon._dual_circles` walks its circles
straight off the occurrence table ``_flat``, along the free arcs of the
vertex circles and across the band sides of the E' edges, sweeping each
other occurrence as a mark.  A mark keeps its flag when swept forward and
flips it when swept backward, and each ribbon side of an E' edge emits a
fresh occurrence of that edge.  Circles without E' occurrences survive
verbatim.  Signs flip on E' and survive elsewhere.

Enumeration of the whole orbit of duals, up to isomorphism, is built
on top.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import TooManyEdges, UnknownEdge
from .ribbon import SignedRibbonGraph, _dual_circles, _flat, canonical_form

__all__ = [
    "partial_dual",
    "OrbitClass",
    "dual_orbit",
    "DUAL_ORBIT_MAX_EDGES",
]

DUAL_ORBIT_MAX_EDGES = 20


def partial_dual(g: SignedRibbonGraph, edges: Iterable[str]) -> SignedRibbonGraph:
    """Dual of ``g`` with respect to the edge subset ``edges``.

    Circles containing no subset occurrence pass through verbatim, so the
    dual with respect to the empty set is ``g`` itself.  Traced circles
    come first, ordered by their smallest corner of a subset occurrence
    (corners numbered 2i and 2i+1 for the tail and head of global
    occurrence i); untouched circles follow in their original order.
    Subset edge signs are flipped.

    A bare ``str`` names one edge, not a set of one-character labels.  The
    caller's iterable is never changed.

    Raises:
        UnknownEdge: a requested edge is not in the graph.
    """
    subset = {edges} if isinstance(edges, str) else set(edges)
    if not subset <= g.signs.keys():
        raise UnknownEdge(f"not edges of the graph: {sorted(subset - g.signs.keys())}")
    inside = list(map(subset.__contains__, _flat(g)[0]))
    signs = g.signs.copy()
    for label in subset:
        signs[label] = -signs[label]
    return SignedRibbonGraph._derived(_dual_circles(g, inside), signs)


class OrbitClass(NamedTuple):
    """One unsigned-isomorphism class in the orbit of all partial duals."""

    subset: tuple[str, ...]
    graph: SignedRibbonGraph
    size: int


def dual_orbit(g: SignedRibbonGraph) -> tuple[OrbitClass, ...]:
    """Partial duals over all edge subsets, up to unsigned isomorphism.

    Returns one class per isomorphism type, in first-seen bitmask order
    over the sorted label list, holding the first subset, its dual, and
    the number of subsets landing in the class.  Duals are grouped by
    their unsigned :func:`ribbongraphs.ribbon.canonical_form`.

    Raises:
        TooManyEdges: more than ``DUAL_ORBIT_MAX_EDGES`` edges.
    """
    labels = g.edge_labels
    e = len(labels)
    if e > DUAL_ORBIT_MAX_EDGES:
        raise TooManyEdges(
            f"{e} edges exceed the orbit guard of {DUAL_ORBIT_MAX_EDGES} "
            f"(2^{e} partial duals)"
        )
    classes: dict[tuple, list] = {}  # form to [first subset, its dual, size]
    for mask in range(1 << e):
        subset = tuple(l for i, l in enumerate(labels) if mask >> i & 1)
        dual = partial_dual(g, subset)
        key = canonical_form(dual, ignore_signs=True)
        found = classes.get(key)
        if found is None:
            classes[key] = [subset, dual, 1]
        else:
            found[2] += 1
    return tuple(OrbitClass(*found) for found in classes.values())
