"""The signed Bollobás–Riordan polynomial and its specializations.

R is a state sum over the 2^e spanning subgraphs: a spanning subgraph
keeps every circle and a subset of the edges, and each one contributes
the monomial

    x^(r(G) - r(F) + s(F)) * y^(n(F) - s(F)) * z^(k(F) - f(F) + n(F))

where s(F) is half the difference between the negative-edge counts of F
and of its complement.  The half-integer bookkeeping lives in the doubled
exponent keys of the polynomial ring.

No subgraph is rebuilt: a depth-first sweep includes or excludes each
edge in turn and updates |F|, k(F), f(F) and the negative-edge count of
F as it goes.  The edges are first split into join blocks, the pieces
that one-point joins and disjoint unions build the graph from, and each
block is swept on its own.  R is multiplicative over both compositions
(Bollobás and Riordan, Math. Ann. 323, 2002), and so is the histogram of
these profiles, so the blocks' histograms convolve into the graph's and
a graph of blocks with e_b edges takes sum 2^e_b subsets in place of
2^e.  R maps the histogram to its terms, and
:func:`ribbongraphs.links.kauffman_bracket` sums the same histogram for
the all-A state graph of a diagram.  ``BR_MAX_EDGES`` still limits the
edge count, not that sum.

No deletion-contraction recursion is used to produce values; the various
reduction identities are exercised by the test suite instead.
"""

from __future__ import annotations

from .errors import FractionalExponent, NegativeExponentNonUnit, TooManyEdges
from .polynomial import RING_XY, RING_XYZ, Laurent, restrict_duality_surface
from .ribbon import SignedRibbonGraph, _flat, _runs, components

__all__ = [
    "bollobas_riordan",
    "tutte_via_br",
    "duality_invariant",
    "BR_MAX_EDGES",
]

BR_MAX_EDGES = 24

# Below this many edges one sweep over them all takes less time than
# finding the join blocks and convolving a sweep of each; on random
# graphs of 2 to 9 edges the split first wins at 6.
_SPLIT_MIN_EDGES = 6


def _interlaced(seq: list[int]) -> tuple[int, int] | None:
    """Two block ids whose places alternate in the cyclic sequence ``seq``,
    ``x y x y``, or None.

    A scan from the start keeps the ids begun and not yet finished in the
    order they began.  Meeting an id begun earlier with a later unfinished
    id on top shows the alternation; none is missed, since an alternation
    read from any starting place is still one.
    """
    last = {x: n for n, x in enumerate(seq)}
    open_: list[int] = []
    for n, x in enumerate(seq):
        while open_ and last[open_[-1]] < n:
            open_.pop()
        if x not in open_:
            open_.append(x)
        elif open_[-1] != x:
            return x, open_[-1]
    return None


def _join_blocks(g: SignedRibbonGraph) -> list[list[int]]:
    """The edges of ``g`` split into join blocks, each edge named by its
    first occurrence in the table :func:`ribbongraphs.ribbon._flat`.

    The blocks start as the biconnected components of the multigraph of
    circles and edges, found by one depth-first search over the circles
    (Hopcroft–Tarjan low points), with each loop in a block of its own.
    Two blocks whose occurrences alternate on a shared circle cannot be
    pulled apart there, so they merge until no two alternate.  Then g is
    built from its blocks by one-point joins and disjoint unions alone.
    """
    _, _, home, partner, _ = _flat(g)
    runs = _runs(g)
    block = [-1] * len(partner)  # block id of each occurrence
    order, low = [0] * len(runs), [0] * len(runs)
    met: list[int] = []  # occurrences of edges met and not yet in a block
    count = ids = 0
    for root, run in enumerate(runs):
        if order[root] or not run:
            continue
        count += 1
        order[root] = low[root] = count
        # (circle, its occurrence the search came in by, occurrences left)
        path = [(root, -1, iter(run))]
        while path:
            c, via, left = path[-1]
            for i in left:
                d = home[partner[i]]
                if i == via or d == c:  # back along the tree edge, or a loop
                    continue
                if not order[d]:
                    met.append(i)
                    count += 1
                    order[d] = low[d] = count
                    path.append((d, partner[i], iter(runs[d])))
                    break
                if order[d] < order[c]:  # an edge back to an ancestor
                    met.append(i)
                    low[c] = min(low[c], order[d])
            else:
                path.pop()
                if path:
                    p = path[-1][0]
                    low[p] = min(low[p], low[c])
                    if low[c] >= order[p]:  # p cuts c's subtree off
                        while True:
                            i = met.pop()
                            block[i] = block[partner[i]] = ids
                            if i == partner[via]:
                                break
                        ids += 1
    for i, j in enumerate(partner):
        if block[i] < 0:  # a loop
            block[i] = block[j] = ids
            ids += 1
    while True:
        for run in runs:
            pair = len(run) > 3 and _interlaced([block[i] for i in run])
            if pair:
                x, y = pair
                block = [x if b == y else b for b in block]
                break
        else:
            break
    blocks: dict[int, list[int]] = {}
    for i, j in enumerate(partner):
        if i < j:
            blocks.setdefault(block[i], []).append(i)
    return list(blocks.values())


def _subgraph_profiles(g: SignedRibbonGraph) -> dict[tuple[int, int, int, int], int]:
    """Histogram of (|F|, k(F), f(F), negative edges in F) over all 2^e
    spanning subgraphs F, from one depth-first include/exclude sweep per
    join block (:func:`_join_blocks`).

    Each sweep toggles only its block's edges on the table of ``g`` and
    keeps every other band excluded.  R is multiplicative over one-point
    joins and disjoint unions, and so is this histogram: a subgraph is
    one subgraph F_b of each of the m blocks, |F| and the negative edges
    add, and since every sweep counts all v circles of g, empty ones
    included, k(F) = sum k(F_b) - (m-1)v and f(F) = sum f(F_b) - (m-1)v.
    So the blocks' histograms are convolved with those offsets.  A graph
    of fewer than ``_SPLIT_MIN_EDGES`` edges is swept as one block.
    """
    labels, _, home, partner, sigma = _flat(g)
    if len(partner) < 2 * _SPLIT_MIN_EDGES:
        blocks = [[i for i, j in enumerate(partner) if i < j]]
    else:
        blocks = _join_blocks(g)
    v = g.num_vertices
    tau = [c ^ 1 for c in range(len(sigma))]  # every band excluded
    # The package's one union-find, since the sweep undoes each union as
    # it backtracks; the components of a whole graph come from a walk
    # over its circles instead (ribbon._walk).
    parent = list(range(v))
    hist = None
    for block in blocks:
        edges = [
            (2 * i, 2 * i + 1, 2 * partner[i], 2 * partner[i] + 1,
             home[i], home[partner[i]], int(g.signs[labels[i]] < 0))
            for i in block
        ]
        part = _sweep(edges, sigma, tau, parent, v)
        if hist is None:
            hist = part
            continue
        joined: dict[tuple[int, int, int, int], int] = {}
        for (size, k, f, neg), count in hist.items():
            for (size2, k2, f2, neg2), count2 in part.items():
                key = (size + size2, k + k2 - v, f + f2 - v, neg + neg2)
                joined[key] = joined.get(key, 0) + count * count2
        hist = joined
    return hist


def _sweep(edges, sigma, tau, parent, v) -> dict[tuple[int, int, int, int], int]:
    """Histogram of (|F|, k(F), f(F), negative edges in F) over the spanning
    subgraphs F of the bands ``edges``, from one depth-first include/exclude
    sweep.  ``tau`` and ``parent`` come in with no band included and go
    back out that way.

    The boundary components of F are the cycles of the alternating walk
    over the arc matching ``sigma`` of the occurrence table
    :func:`ribbongraphs.ribbon._flat` and the side matching ``tau`` of F's
    bands, which pairs corners 2i and 2i+1 where F excludes i's edge.  The
    sweep never traces them whole: including the edge with corners a, b
    and c, d trades tau's pairs ab, cd for bc, da; walking on from b, the
    first of a, c, d met shows that this joins two boundary components,
    splits one, or neither.  Components of F come from a union-find
    without path compression, undone on backtrack.
    """
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
