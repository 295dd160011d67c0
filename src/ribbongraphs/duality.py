"""Generalized duality for signed ribbon graphs.

The partial dual with respect to an edge subset E' re-glues the vertex
discs along the boundary of the spanning subgraph carrying only the E'
ribbons.  Its circles are the cycles that :func:`ribbongraphs.ribbon._trace`
finds over two corner matchings read off the occurrence table ``_flat``:
the free arcs along the vertex circles, and the band sides of the E'
edges, with each occurrence of an edge outside E' paired across itself,
so that the walk sweeps it as a mark.
Every cycle becomes a vertex circle of the dual, and every step across an
occurrence emits one: a mark keeps its flag when swept forward and flips
it when swept backward, and each ribbon side of an E' edge emits a fresh
occurrence of that edge.  Circles without E' occurrences survive
verbatim.  Signs flip on E' and survive elsewhere.

Enumeration of the whole orbit of duals, up to isomorphism, is built
on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import TooManyEdges, UnknownEdge
from .ribbon import (
    Occurrence,
    SignedRibbonGraph,
    _bands,
    _flat,
    _trace,
    canonical_form,
)

__all__ = [
    "partial_dual",
    "OrbitClass",
    "dual_orbit",
    "DUAL_ORBIT_MAX_EDGES",
]

DUAL_ORBIT_MAX_EDGES = 20

# Builds an Occurrence from a (label, flag) pair in C, without the
# NamedTuple's Python-level __new__, which takes over half as long again.
_new = tuple.__new__


def partial_dual(g: SignedRibbonGraph, edges: Iterable[str]) -> SignedRibbonGraph:
    """Dual of ``g`` with respect to the edge subset ``edges``.

    Circles containing no subset occurrence pass through verbatim, so the
    dual with respect to the empty set is ``g`` itself.  Traced circles
    come first, ordered by their smallest corner of a subset occurrence
    (corners numbered 2i and 2i+1 for the tail and head of global
    occurrence i); untouched circles follow in their original order.
    Subset edge signs are flipped.

    Raises:
        UnknownEdge: a requested edge is not in the graph.
    """
    subset = set(edges)
    if unknown := subset - g.signs.keys():
        raise UnknownEdge(f"not edges of the graph: {sorted(unknown)}")
    return _dual(g, _flat(g), subset)


def _dual(g: SignedRibbonGraph, flat: tuple, subset: set[str]) -> SignedRibbonGraph:
    """:func:`partial_dual` of ``g``, whose table :func:`_flat` is ``flat``,
    with respect to ``subset``, a set of its edge labels."""
    labels, _, home, partner, sigma = flat
    inside = [label in subset for label in labels]
    starts = [c for c in range(len(sigma)) if inside[c >> 1]]
    new_circles = [
        tuple(
            [
                _new(Occurrence, (labels[c >> 1], (c & 1) != inside[c >> 1]))
                for c in cycle[1::2]
            ]
        )
        for cycle in _trace(sigma, _bands(partner, inside), starts)
    ]
    touched = {home[c >> 1] for c in starts}
    new_circles += [c for ci, c in enumerate(g.circles) if ci not in touched]
    signs = {l: -s if l in subset else s for l, s in g.signs.items()}
    return SignedRibbonGraph._derived(tuple(new_circles), signs)


@dataclass(frozen=True)
class OrbitClass:
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
    flat = _flat(g)
    classes: dict[tuple, OrbitClass] = {}
    for mask in range(1 << e):
        subset = tuple(l for i, l in enumerate(labels) if mask >> i & 1)
        dual = _dual(g, flat, set(subset))
        key = canonical_form(dual, ignore_signs=True)
        old = classes.get(key, OrbitClass(subset, dual, 0))
        classes[key] = OrbitClass(old.subset, old.graph, old.size + 1)
    return tuple(classes.values())
