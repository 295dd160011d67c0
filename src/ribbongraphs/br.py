"""The signed Bollobás–Riordan polynomial and its specializations.

R is a state sum over the 2^e spanning subgraphs: a spanning subgraph
keeps every circle and a subset of the edges, and each one contributes
the monomial

    x^(r(G) - r(F) + s(F)) * y^(n(F) - s(F)) * z^(k(F) - f(F) + n(F))

where s(F) is half the difference between the negative-edge counts of F
and of its complement.  The half-integer bookkeeping lives in the doubled
exponent keys of the polynomial ring.

No subgraph is rebuilt: one depth-first sweep includes or excludes each
edge in turn and updates |F|, k(F), f(F) and the negative-edge count of
F as it goes.  R maps the histogram of these profiles to its terms, and
:func:`ribbongraphs.links.kauffman_bracket` sums the same histogram for
the all-A state graph of a diagram.

No deletion-contraction recursion is used to produce values; the various
reduction identities are exercised by the test suite instead.
"""

from __future__ import annotations

from .errors import FractionalExponent, NegativeExponentNonUnit, TooManyEdges
from .polynomial import RING_XY, RING_XYZ, Laurent, restrict_duality_surface
from .ribbon import SignedRibbonGraph, _bands, _flat, components

__all__ = [
    "bollobas_riordan",
    "tutte_via_br",
    "duality_invariant",
    "BR_MAX_EDGES",
]

BR_MAX_EDGES = 24


def _subgraph_profiles(g: SignedRibbonGraph) -> dict[tuple[int, int, int, int], int]:
    """Histogram of (|F|, k(F), f(F), negative edges in F) over all 2^e
    spanning subgraphs F, from one depth-first include/exclude sweep.

    The boundary components of F are the cycles that
    :func:`ribbongraphs.ribbon._trace` would find over the arc matching
    ``sigma`` of the occurrence table :func:`ribbongraphs.ribbon._flat`
    and the side matching ``tau`` of F's bands.  The sweep never traces
    them whole: including the edge with corners a, b and c, d trades tau's
    pairs ab, cd for bc, da; walking on from b, the first of a, c, d met
    shows that this joins two boundary components, splits one, or
    neither.  Components of F come from a union-find without path
    compression, undone on backtrack.
    """
    labels, _, home, partner, sigma = _flat(g)
    tau = _bands(g, [False] * len(partner))
    # one edge per first occurrence i, so in first-seen label order
    edges = [
        (2 * i, 2 * i + 1, 2 * j, 2 * j + 1, home[i], home[j], int(g.signs[labels[i]] < 0))
        for i, j in enumerate(partner)
        if i < j
    ]
    v = g.num_vertices
    # The package's one union-find, since the sweep undoes each union as
    # it backtracks; the components of a whole graph come from a walk
    # over its circles instead (ribbon._walk).
    parent = list(range(v))
    size, k, f, neg = 0, v, v, 0
    hist = {(size, k, f, neg): 1}
    # depth-first over the included edges, innermost last, each with
    # what undoing it needs: (edge, attached root, change of f, of k)
    stack: list[tuple[int, int, int, int]] = []
    j = 0
    while True:
        if j < len(edges):
            a, b, c, d, u, w, minus = edges[j]
            x = sigma[b]
            while x != a and x != c and x != d:
                x = sigma[tau[x]]
            tau[a], tau[b], tau[c], tau[d] = d, c, b, a
            while parent[u] != u:
                u = parent[u]
            while parent[w] != w:
                w = parent[w]
            parent[u] = w
            df, dk = (x == c) - (x == a), int(u != w)
            stack.append((j, u, df, dk))
            size, k, f, neg = size + 1, k - dk, f + df, neg + minus
            key = (size, k, f, neg)
            hist[key] = hist.get(key, 0) + 1
        elif stack:
            j, u, df, dk = stack.pop()
            a, b, c, d, _, _, minus = edges[j]
            tau[a], tau[b], tau[c], tau[d] = b, a, d, c
            parent[u] = u
            size, k, f, neg = size - 1, k + dk, f - df, neg - minus
        else:
            return hist
        j += 1


def bollobas_riordan(g: SignedRibbonGraph) -> Laurent:
    """The signed three-variable polynomial of ``g`` by state sum.

    Raises:
        TooManyEdges: more than ``BR_MAX_EDGES`` edges.
    """
    e = g.num_edges
    if e > BR_MAX_EDGES:
        raise TooManyEdges(
            f"{e} edges exceed the state-sum guard of {BR_MAX_EDGES} (2^{e} subsets)"
        )
    v = g.num_vertices
    hist = _subgraph_profiles(g)
    r_g = v - next(k for size, k, _, _ in hist if size == e)  # F = E has k(G)
    neg_total = sum(1 for sign in g.signs.values() if sign < 0)
    terms: dict[tuple[int, int, int], int] = {}
    for (size, k, f, neg), count in hist.items():
        r = v - k
        n = size - r
        s2 = 2 * neg - neg_total
        key = (2 * (r_g - r) + s2, 2 * n - s2, k - f + n)
        terms[key] = terms.get(key, 0) + count
    return Laurent(RING_XYZ, terms)


def tutte_via_br(g: SignedRibbonGraph) -> Laurent:
    """Tutte polynomial of the underlying signed graph: R(x-1, y-1, 1).

    The shift needs nonnegative integer powers of x and y in R, which
    every all-positive graph has.  Negative edges can give half-integer
    or negative powers; some sign patterns still shift cleanly.

    Raises:
        FractionalExponent, NegativeExponentNonUnit: R has a power of x
            or y the shift cannot take; the message names the negative
            edges.
    """
    p = bollobas_riordan(g)
    one = Laurent.const(RING_XYZ, 1)
    p = p.substitute("z", one)
    x = Laurent.monomial(RING_XYZ, (2, 0, 0))
    y = Laurent.monomial(RING_XYZ, (0, 2, 0))
    try:
        p = p.substitute("x", x - 1)
        p = p.substitute("y", y - 1)
    except (FractionalExponent, NegativeExponentNonUnit) as err:
        negative = " ".join(l for l in g.edge_labels if g.signs[l] < 0)
        raise type(err)(
            "the Tutte shift R(x-1, y-1, 1) needs nonnegative integer "
            f"exponents of x and y, and the negative edges {negative} "
            f"break it: {err}"
        ) from err
    return p.project(RING_XY, (0, 1))


def duality_invariant(g: SignedRibbonGraph) -> Laurent:
    """The duality-stable transform: restrict x^k y^v z^(v+1) R to xyz²=1.

    Partial duals of ``g`` with respect to any edge subset share this
    two-variable polynomial.
    """
    k, v = len(components(g)), g.num_vertices
    prefactor = Laurent.monomial(RING_XYZ, (2 * k, 2 * v, v + 1))
    return restrict_duality_surface(prefactor * bollobas_riordan(g))
