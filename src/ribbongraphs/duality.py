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
on top.  Since (G^X)^A = G^(X△A), the subsets X whose dual is G again,
labels kept, form a group L under △, and the dual on A△X is the dual on
A again for every X in L; the orbit is walked over the cosets of L.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import TooManyEdges, UnknownEdge
from .ribbon import SignedRibbonGraph, _dual_circles, _flat, _labeled_form, canonical_form

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


def _stabilizer(g: SignedRibbonGraph) -> list[int]:
    """Masks over ``g.edge_labels`` (bit i for the i-th label) spanning
    a subgroup of the labeled stabilizer L of ``g``: every twisted loop and
    every pair of edges X whose dual has the circle lengths of ``g`` and
    its form, coloured by label rank, unless X is spanned already.  The
    masks are kept in reduced echelon form over GF(2): each has its own
    leading (highest) bit, set in no other mask.  Any subgroup of L walks
    the orbit exactly."""
    labels = g.edge_labels
    e = len(labels)
    # a single edge keeps the circle count only as a loop whose two flags
    # differ: any other edge merges two circles or splits one
    occ, flags, home, partner, _, _ = _flat(g)
    twisted = {
        occ[i] for i, j in enumerate(partner) if home[i] == home[j] and flags[i] != flags[j]
    }
    singles = [1 << i for i, label in enumerate(labels) if label in twisted]
    lengths = sorted(map(len, g.circles))
    own = _labeled_form(g)
    basis: list[int] = []
    for x in singles + [1 << i | 1 << j for j in range(e) for i in range(j)]:
        for b in basis:
            if x & 1 << b.bit_length() - 1:
                x ^= b
        if not x:
            continue
        dual = partial_dual(g, [l for i, l in enumerate(labels) if x >> i & 1])
        # equal forms imply equal circle lengths; most duals fail the
        # cheap test, which cuts the search's time to a third
        if sorted(map(len, dual.circles)) != lengths or _labeled_form(dual) != own:
            continue
        top = 1 << x.bit_length() - 1
        basis = [b ^ x if b & top else b for b in basis] + [x]
    return basis


def dual_orbit(g: SignedRibbonGraph) -> tuple[OrbitClass, ...]:
    """Partial duals over all edge subsets, up to unsigned isomorphism.

    Returns one class per isomorphism type, in first-seen bitmask order
    over the sorted label list, holding the first subset, its dual, and
    the number of subsets landing in the class.  Duals are grouped by
    their unsigned :func:`ribbongraphs.ribbon.canonical_form`.

    Each class is a union of cosets A△L of a group L of subsets whose
    duals give ``g`` back with its labels (:func:`_stabilizer`, searched
    anew in each call over single edges and pairs).  So one partial dual
    and one form are taken per coset, on its least mask, the one with no
    leading bit of L set, and the class grows by |L| for each.

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
    basis = _stabilizer(g)
    lead = sum(1 << b.bit_length() - 1 for b in basis)
    size = 1 << len(basis)
    classes: dict[tuple, list] = {}  # form to [first subset, its dual, size]
    mask, end = 0, 1 << e
    while mask < end:
        subset = tuple(l for i, l in enumerate(labels) if mask >> i & 1)
        dual = partial_dual(g, subset)
        key = canonical_form(dual, ignore_signs=True)
        found = classes.get(key)
        if found is None:
            classes[key] = [subset, dual, size]
        else:
            found[2] += size
        mask = ((mask | lead) + 1) & ~lead  # the next mask with no leading bit
    return tuple(OrbitClass(*found) for found in classes.values())
