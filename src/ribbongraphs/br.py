"""The signed Bollobás–Riordan polynomial and its specializations.

R is a state sum over the 2^e spanning subgraphs: a spanning subgraph
keeps every circle and a subset of the edges, and each one contributes
the monomial

    x^(r(G) - r(F) + s(F)) * y^(n(F) - s(F)) * z^(k(F) - f(F) + n(F))

where s(F) is half the difference between the negative-edge counts of F
and of its complement.  The half-integer bookkeeping lives in the doubled
exponent keys of the polynomial ring.

No subgraph is rebuilt and no deletion-contraction recursion runs.  One
frontier engine, :func:`_subgraph_profiles`, sums each caller's exponent
key at every size: the caller names what an edge of either sign, a
boundary cycle and a component of F add to its key.  So R, the duality
invariant and, through the all-A state graph of a diagram, the bracket of
:mod:`ribbongraphs.links` come out keyed; only R reads k(F), and the
others run on states without the component partition.  Tutte is a map on
R's keys: it sums them over z and expands each power of x and of y by the
binomial theorem, so no Laurent arithmetic runs.  The cost follows the
frontier width of the plan made before any state exists, not 2^e.  R is
multiplicative over disjoint unions and one-point joins (Bollobás and
Riordan, Math. Ann. 323, 2002), but the width is zero between the parts
of a union only if the order finishes one first, and never between those
of a join, which two arcs link.  ``BR_MAX_EDGES`` limits the edge count.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .errors import FractionalExponent, NegativeExponentNonUnit, TooManyEdges
from .polynomial import RING_XY, RING_XYZ, Laurent
from .ribbon import SignedRibbonGraph, _flat, _walk

__all__ = [
    "bollobas_riordan",
    "tutte_via_br",
    "duality_invariant",
    "BR_MAX_EDGES",
]

BR_MAX_EDGES = 24


def _outcome(inner: tuple[int, ...], tau: tuple[int, ...]) -> tuple[int, tuple]:
    """How deciding one edge rewires its four corners 0-3 (a, b, c, d).

    ``inner[y]`` is the corner among the four that y reaches through the
    decided bands, or -1 when that path leaves them; ``tau`` pairs the
    corners across the band (include: ad, bc; exclude: ab, cd).  Returns
    the boundary cycles that close among the four and the pairs (y, z)
    of corners whose outer ends the walk now joins.  The walks from the
    corners whose path leaves come first, so every later one is a cycle.
    """
    pairs, closed, seen = [], 0, set()
    for y in (*[y for y in range(4) if inner[y] < 0], *range(4)):
        if y not in seen:
            z = tau[y]
            while inner[z] >= 0 and inner[z] != y:
                seen.update((z, inner[z]))
                z = tau[inner[z]]
            seen.update((y, z))
            if inner[z] < 0:
                pairs.append((y, z))
            else:
                closed += 1
    return closed, tuple(pairs)


# One entry per matching of the four corners among themselves, 10 in
# all: the outcomes of including and of excluding the edge.
_OUTCOMES = {
    inner: (_outcome(inner, (3, 2, 1, 0)), _outcome(inner, (1, 0, 3, 2)))
    for inner in product(range(-1, 4), repeat=4)
    if all(z < 0 or (z != y and inner[z] == y) for y, z in enumerate(inner))
}


def _edges(g: SignedRibbonGraph) -> list[tuple[int, ...]]:
    """The edges of ``g`` by first occurrence i, each as its corners 2i,
    2i + 1, 2j, 2j + 1 in the table :func:`_flat` (j the second
    occurrence), the circles of i and j, and 1 if it is negative."""
    labels, _, home, partner, _ = _flat(g)
    return [
        (2 * i, 2 * i + 1, 2 * j, 2 * j + 1, home[i], home[j], int(g.signs[labels[i]] < 0))
        for i, j in enumerate(partner)
        if i < j
    ]


def _edge_order(edges: list[tuple], sigma: list[int]) -> list[int]:
    """The order in which :func:`_subgraph_profiles` decides ``edges``,
    planned before any state exists.  Next comes the edge with the most
    corners whose arc leads to an edge already decided, or to itself.  A
    tie goes to the edge whose arcs lead to the highest-scored undecided
    edges, by the sum of their scores, and then to the lowest occurrence."""
    where = [0] * len(sigma)  # the edge of each corner
    for n, (a, _, c, _, _, _, _) in enumerate(edges):
        where[a] = where[a + 1] = where[c] = where[c + 1] = n
    # the edges that each edge's arcs lead to: m is near n as often as n is near m
    near = [(where[sigma[a]], where[sigma[b]], where[sigma[c]], where[sigma[d]])
            for a, b, c, d, _, _, _ in edges]
    score = [ends.count(n) for n, ends in enumerate(near)]
    # rank = 32 * score + the scores of the other undecided edges that the
    # arcs lead to, at most 4 * 4; a decided edge ranks below 0
    rank = [32 * s for s in score]
    for m, s in enumerate(score):
        for k in near[m]:
            if k != m:
                rank[k] += s
    order = []
    for _ in edges:
        n = rank.index(max(rank))  # the first of equals
        order.append(n)
        rank[n] = -1
        for m in near[n]:
            if rank[m] >= 0:  # m scores one more, and n's score leaves its sum
                score[m] += 1
                rank[m] += 32 - score[n]
                for k in near[m]:
                    if k != m and rank[k] >= 0:
                        rank[k] += 1
    return order


def _plan(g: SignedRibbonGraph) -> tuple[list[int], list[tuple], list[int]]:
    """The steps of :func:`_subgraph_profiles` on ``g``, from the graph
    alone: the order of :func:`_edge_order`, and a frontier slot per corner
    from the step that decides its arc's other end to the step that decides
    its own edge.  Returns each corner's slot; per step the edge's corners,
    circles, closed circles and sign bit, then per corner its slot or -1
    and its arc's end, and the slots it frees; and the frontier width
    (slots in use) after each step."""
    sigma, edges = _flat(g)[4], _edges(g)
    order = _edge_order(edges, sigma)
    due = [0] * len(sigma)  # the step that decides each corner's edge
    last = [-1] * len(g.circles)  # the step that decides each circle's last occurrence
    for t, n in enumerate(order):
        a, _, c, _, u, w, _ = edges[n]
        due[a] = due[a + 1] = due[c] = due[c + 1] = last[u] = last[w] = t
    closes: list[list[int]] = [[] for _ in order]  # per step, the circles it closes
    for x, t in enumerate(last):
        if t >= 0:
            closes[t].append(x)
    slot, free, wide, steps, widths = [-1] * len(sigma), [], 0, [], []
    for t, n in enumerate(order):
        a, b, c, d, u, w, minus = edges[n]
        # per corner, its slot or -1 and its arc's end
        probe = (slot[a], sigma[a], slot[b], sigma[b], slot[c], sigma[c], slot[d], sigma[d])
        cleared = []  # the slots it frees; a child rewrites any it takes again
        for x in (a, b, c, d):
            s, y = slot[x], sigma[x]
            if s >= 0:  # x leaves the frontier
                free.append(s)
                cleared.append(s)
            elif due[y] > t:  # y joins the frontier
                slot[y] = free.pop() if free else wide
                wide += slot[y] == wide
        steps.append(((a, b, c, d, u, w, closes[t], minus), probe, cleared))
        widths.append(wide - len(free))
    return slot, steps, widths


def _subgraph_profiles(
    g: SignedRibbonGraph, positive, negative, cycle, component, start
) -> dict[tuple[int, ...], int]:
    """Histogram of the caller's exponent key over all 2^e spanning
    subgraphs F: ``start``, plus ``positive`` per positive edge of F,
    ``negative`` per negative one, ``cycle`` per boundary cycle and
    ``component`` per component, each a vector as long as the key, which
    has 2 fields (the invariant) or 3 (R and the bracket).  Frontier
    dynamic programming on the boundary walk, as Sekine, Imai and Tani
    (ISAAC 1995) compute the Tutte polynomial, on the steps of
    :func:`_plan`.  A state is the matching the decided bands induce on the
    frontier and, only if ``component`` is nonzero, the partition of the
    circles in play into components, each named by its least circle.  Its
    histogram counts packed keys, as an offset and a dict that states share
    until a merge copies one."""
    slot, plan, _ = _plan(g)
    v, e = g.num_vertices, len(plan)
    # no partial sum of a field leaves +-reach (at most e edges, v + e boundary
    # cycles and v components), so a bias of 2^(width-1) keeps each field in place
    reach = max(abs(s) + e * max(abs(p), abs(n)) + (v + e) * abs(f) + v * abs(k)
                for p, n, f, k, s in zip(positive, negative, cycle, component, start))
    width = reach.bit_length() + 1
    fields, bias = range(0, width * len(start), width), 1 << width - 1
    *gains, per_cycle, per_component, off = (  # each packed into one integer
        sum(x << at for x, at in zip(vector, fields))
        for vector in (positive, negative, cycle, component, [x + bias for x in start])
    )
    outcomes = {inner: ((i * per_cycle, p), (x * per_cycle, q))  # closed cycles packed
                for inner, ((i, p), (x, q)) in _OUTCOMES.items()}
    empty = g.circles.count(())  # each a closed component and boundary cycle
    off, track = off + empty * (per_cycle + per_component), any(component)
    slots = (0,) * (max(slot, default=-1) + 1)  # every slot of the plan, a free one 0
    states: dict = {(slots, (-1,) * v if track else ()): (off, {0: 1})}
    inner = [-1] * len(slot)  # 0-3 at the corners of the edge being decided
    for (a, b, c, d, u, w, done, minus), (sa, ya, sb, yb, sc, yc, sd, yd), clear in plan:
        inner[a], inner[b], inner[c], inner[d] = 0, 1, 2, 3
        gain = gains[minus]
        nxt: dict = {}
        owned = set()  # keys of nxt whose dict was copied at this step
        moved: dict = {} if track else {(): (((), gain), ((), 0))}  # partition -> in, out
        for (m, comp), (off, hist) in states.items():
            ends = (  # the corners' far ends
                m[sa] if sa >= 0 else ya,
                m[sb] if sb >= 0 else yb,
                m[sc] if sc >= 0 else yc,
                m[sd] if sd >= 0 else yd,
            )
            base = list(m)
            for s in clear:  # free slots hold 0
                base[s] = 0
            steps = moved.get(comp)
            if steps is None:  # the same for every state with this partition
                steps = moved[comp] = []
                for include in (1, 0):
                    lab = list(comp)
                    lab[u] = u if lab[u] < 0 else lab[u]  # met now: on its own
                    lab[w] = w if lab[w] < 0 else lab[w]
                    if include and lab[u] != lab[w]:
                        lo, hi = sorted((lab[u], lab[w]))
                        lab = [lo if x == hi else x for x in lab]
                    shut = 0
                    for x in done:
                        name, lab[x] = lab[x], -1
                        if name == x and x in lab:  # its next least circle is its name
                            heir = lab.index(x)
                            lab = [heir if y == x else y for y in lab]
                        elif name == x:  # none of its circles is left: it closes
                            shut += 1
                    steps.append((tuple(lab), gain * include + shut * per_component))
            both = outcomes[inner[ends[0]], inner[ends[1]], inner[ends[2]], inner[ends[3]]]
            for (closed, pairs), (comp2, at) in zip(both, steps):
                new = base.copy()
                for y, z in pairs:
                    new[slot[ends[y]]] = ends[z]
                    new[slot[ends[z]]] = ends[y]
                key = (tuple(new), comp2)
                at += off + closed
                old = nxt.get(key)
                if old is None:
                    nxt[key] = (at, hist)
                    continue
                at0, big = old
                if key not in owned:  # fold into a copy of the first
                    owned.add(key)
                    big = big.copy()
                    nxt[key] = (at0, big)
                at -= at0
                get = big.get
                for h, count in hist.items():
                    h += at
                    big[h] = get(h, 0) + count
        states = nxt
        inner[a] = inner[b] = inner[c] = inner[d] = -1
    ((off, hist),) = states.values()
    # no field borrows from the next, so the top one needs no mask
    mask, top = (1 << width) - 1, fields[-1]
    if len(start) == 2:  # the invariant
        return {(((x := h + off) & mask) - bias, (x >> top) - bias): n for h, n in hist.items()}
    return {(((x := h + off) & mask) - bias, (x >> width & mask) - bias, (x >> top) - bias): n
            for h, n in hist.items()}


def _r_terms(g: SignedRibbonGraph, restrict: bool) -> dict[tuple[int, ...], int]:
    """R's terms by doubled exponent key (a, b, c), or with ``restrict``
    those of x^k y^v z^(v+1) R on xyz² = 1, k = k(G) and N negative edges.
    F adds a = 2k(F) + 2neg(F) - 2k - N, b = 2|F| + 2k(F) - 2neg(F) + N - 2v
    and c = 2k(F) - f(F) + |F| - v; z = x^(-1/2) y^(-1/2) takes (a, b, c)
    to (a + 2k - c - v - 1, b + v - c - 1), where k(F) cancels."""
    e = g.num_edges
    if e > BR_MAX_EDGES:
        raise TooManyEdges(
            f"{e} edges exceed the state-sum guard of {BR_MAX_EDGES} (2^{e} subsets)"
        )
    v, minus = g.num_vertices, sum(1 for sign in g.signs.values() if sign < 0)
    if restrict:  # f(F) - |F| + 2neg(F) - N - 1, f(F) + |F| - 2neg(F) + N - 1
        return _subgraph_profiles(g, (-1, 1), (1, -1), (1, 1), (0, 0), (-minus - 1, minus - 1))
    start = (-2 * len(_walk(g)[0]) - minus, minus - 2 * v, -v)
    return _subgraph_profiles(g, (0, 2, 1), (2, 0, 1), (0, 0, -1), (2, 2, 2), start)


def bollobas_riordan(g: SignedRibbonGraph) -> Laurent:
    """The signed three-variable polynomial of ``g`` by state sum.

    Raises:
        TooManyEdges: more than ``BR_MAX_EDGES`` edges.
    """
    return Laurent(RING_XYZ, _r_terms(g, False))


def tutte_via_br(g: SignedRibbonGraph) -> Laurent:
    """Tutte polynomial of the underlying signed graph: R(x-1, y-1, 1), as
    a map on R's doubled keys (a, b, c).  z = 1 sums the counts over c,
    none cancelling, and then x and y shift in turn by the binomial
    theorem: a term n x^A adds (-1)^(A-i) C(A, i) n at x^i, i = 0..A.

    The shift needs nonnegative integer powers of x and y in R, which
    every all-positive graph has; negative edges can break it.

    Raises:
        TooManyEdges: more than ``BR_MAX_EDGES`` edges.
        FractionalExponent, NegativeExponentNonUnit: R has a half-integer
            power of x, the least of which the message names, or else a
            negative one; or else the same holds of y.  The message names
            the negative edges too.
    """
    terms: dict[tuple[int, int], int] = {}
    for (a, b, _), n in _r_terms(g, False).items():
        terms[a, b] = terms.get((a, b), 0) + n
    # each pass shifts the first variable and moves it last, so the pass
    # for y finds y first and leaves the keys as (x, y)
    for name in "xy":
        odd = [a for a, _ in terms if a & 1]
        if odd or any(a < 0 for a, _ in terms):
            error, reason = (
                (FractionalExponent, f"{name} occurs with exponent {min(odd)}/2")
                if odd
                else (NegativeExponentNonUnit, f"{name} - 1 is not a unit monomial")
            )
            negative = " ".join(l for l in g.edge_labels if g.signs[l] < 0)
            raise error(
                "the Tutte shift R(x-1, y-1, 1) needs nonnegative integer "
                f"exponents of x and y, and the negative edges {negative} "
                f"break it: {reason}"
            )
        shifted: dict[tuple[int, int], int] = {}
        for (a, b), n in terms.items():
            power = a >> 1
            for i in range(power + 1):
                at = (b, 2 * i)
                shifted[at] = shifted.get(at, 0) + (-1) ** (power - i) * comb(power, i) * n
        terms = shifted
    return Laurent(RING_XY, terms)


def duality_invariant(g: SignedRibbonGraph) -> Laurent:
    """x^k y^v z^(v+1) R restricted to xyz² = 1 (k components, v circles),
    which every partial dual of ``g`` shares, summed by the engine in its
    own key: k(F) adds 2 to each of R's a, b and c, so it cancels in the
    restriction's a - c and b - c, and the states carry no component
    partition.  Raises TooManyEdges as :func:`bollobas_riordan` does."""
    return Laurent(RING_XY, _r_terms(g, True))
