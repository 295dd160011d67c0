"""Corpus builders and oracles shared across the test modules.

Random objects are drawn from explicitly seeded ``random.Random``
instances so every test run sees the same corpus.  Builders that promise
an edge of a particular class (bridge, trivial loop, ...) assert the
promise via ``classify_edge`` at construction time.

The oracles recompute by the slow, obvious route what the package
computes by a fast one; the scripts under ``scripts/`` import some of
them too.  Deletion, contraction, edge classification and the two
compositions of graphs live here as well: the reduction identities of
R and its multiplicativity are checked with them, and nothing in the
package computes by them.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from ribbongraphs import br, duality, ribbon
from ribbongraphs.duality import partial_dual
from ribbongraphs.errors import (
    FractionalExponent,
    NegativeExponentNonUnit,
    ParseError,
    UnknownEdge,
)
from ribbongraphs.links import (
    Pass,
    VirtualLinkDiagram,
    parse_gauss,
    resolve_state,
    serialize_gauss,
)
from ribbongraphs.polynomial import (
    RING_ABD,
    RING_T,
    RING_XY,
    RING_XYZ,
    Laurent,
    Ring,
    restrict_duality_surface,
)
from ribbongraphs.ribbon import (
    _LABEL_BAD,
    Occurrence,
    SignedRibbonGraph,
    _flat,
    _runs,
    components,
    parse_ribbon_graph,
    serialize_ribbon_graph,
    stats,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_graph(name: str) -> SignedRibbonGraph:
    return parse_ribbon_graph((FIXTURES / name).read_text(encoding="utf-8"))


def load_diagram(name: str) -> VirtualLinkDiagram:
    return parse_gauss((FIXTURES / name).read_text(encoding="utf-8"))


def all_subsets(g: SignedRibbonGraph):
    labels = sorted(g.signs)
    for mask in range(1 << len(labels)):
        yield frozenset(l for i, l in enumerate(labels) if mask >> i & 1)


def random_graph(rng: random.Random, max_edges: int = 6) -> SignedRibbonGraph:
    """A uniform-ish signed ribbon graph: labels 1..e scattered over a
    random number of circles (empty circles allowed), random flags and
    signs."""
    e = rng.randint(0, max_edges)
    v = rng.randint(1, e + 1)
    occs = [str(i + 1) for i in range(e)] * 2
    rng.shuffle(occs)
    cuts = sorted(rng.randint(0, len(occs)) for _ in range(v - 1))
    circles, prev = [], 0
    for cut in cuts + [len(occs)]:
        circles.append(tuple((l, rng.random() < 0.5) for l in occs[prev:cut]))
        prev = cut
    signs = {str(i + 1): rng.choice((1, -1)) for i in range(e)}
    return SignedRibbonGraph(circles, signs)


def graph_corpus(seed: int, count: int, max_edges: int = 6):
    rng = random.Random(seed)
    return [random_graph(rng, max_edges) for _ in range(count)]


def bouquet(e: int) -> SignedRibbonGraph:
    """One circle carrying ``e`` positive trivial loops, each the two
    adjacent occurrences of its edge."""
    labels = [f"e{i}" for i in range(e)]
    return SignedRibbonGraph(
        [[(l, False) for l in labels for _ in range(2)]], dict.fromkeys(labels, 1)
    )


def sized_graph(rng: random.Random, e: int, v: int) -> SignedRibbonGraph:
    """A random signed ribbon graph with exactly ``e`` edges on exactly
    ``v`` non-empty circles, 1 <= v <= 2e, drawn the way the benchmark's
    generator ``perfbench/gen.ribbon_text`` draws its inputs."""
    occs = [str(i + 1) for i in range(e)] * 2
    rng.shuffle(occs)
    bounds = [0, *sorted(rng.sample(range(1, 2 * e), v - 1)), 2 * e]
    circles = [
        [(l, rng.random() < 0.5) for l in occs[a:b]] for a, b in zip(bounds, bounds[1:])
    ]
    return SignedRibbonGraph(circles, {str(i + 1): rng.choice((1, -1)) for i in range(e)})


def dual_corpus(seed: int = 97) -> list[tuple[SignedRibbonGraph, frozenset[str]]]:
    """3300 (graph, subset) pairs for checking partial duals: 2400 sized
    graphs with 1..12 edges, 600 random graphs with up to 8 edges (empty
    circles among them) and 300 bouquets with up to 12 loops, each paired
    with its empty, its full or a random edge subset."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(2400):
        e = rng.randint(1, 12)
        graphs.append(sized_graph(rng, e, rng.randint(1, 2 * e)))
    graphs += [random_graph(rng, 8) for _ in range(600)]
    graphs += [bouquet(rng.randint(0, 12)) for _ in range(300)]
    pairs = []
    for g in graphs:
        pick = rng.random()
        if pick < 0.1:
            subset = frozenset()
        elif pick < 0.2:
            subset = frozenset(g.signs)
        else:
            subset = frozenset(l for l in g.signs if rng.random() < 0.5)
        pairs.append((g, subset))
    return pairs


# ----------------------------------------------------------------------
# deletion, contraction, edge classes and compositions
# ----------------------------------------------------------------------


def occurrences(g: SignedRibbonGraph) -> Iterator[tuple[int, int, int, Occurrence]]:
    """Yield (global index, circle index, position, occurrence)."""
    i = 0
    for ci, circle in enumerate(g.circles):
        for pos, occ in enumerate(circle):
            yield i, ci, pos, occ
            i += 1


def _require_edge(g: SignedRibbonGraph, edge: str) -> None:
    if edge not in g.signs:
        raise UnknownEdge(f"not an edge of the graph: {edge!r}")


def delete_edge(g: SignedRibbonGraph, edge: str) -> SignedRibbonGraph:
    """Remove the ribbon of ``edge``; circles keep their other arrows."""
    _require_edge(g, edge)
    circles = [[o for o in circle if o.label != edge] for circle in g.circles]
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
    """Sort ``edge`` into bridge / loop / ordinary, with loop refinements."""
    _require_edge(g, edge)
    spots = [(ci, pos) for _, ci, pos, occ in occurrences(g) if occ.label == edge]
    (c1, p1), (c2, p2) = spots
    if c1 == c2:
        circle = g.circles[c1]
        inner = circle[p1 + 1 : p2]
        outer = circle[p2 + 1 :] + circle[:p1]
        split = SignedRibbonGraph(
            g.circles[:c1] + (inner, outer) + g.circles[c1 + 1 :],
            {l: s for l, s in g.signs.items() if l != edge},
        )
        return EdgeClass(
            kind="loop",
            orientable=circle[p1].against == circle[p2].against,
            trivial=len(components(split)) > len(components(g)),
        )
    if len(components(delete_edge(g, edge))) > len(components(g)):
        return EdgeClass(kind="bridge")
    return EdgeClass(kind="ordinary")


def _fresh_relabel(h: SignedRibbonGraph, occupied: set[str]) -> SignedRibbonGraph:
    mapping: dict[str, str] = {}
    used = set(occupied)
    for label in h.edge_labels:
        new = label
        i = 2
        while new in used:
            new = f"{label}.{i}"
            i += 1
        mapping[label] = new
        used.add(new)
    return h.relabel(mapping)


def disjoint_union(g: SignedRibbonGraph, h: SignedRibbonGraph) -> SignedRibbonGraph:
    """Place two graphs side by side, renaming clashing edge labels of h."""
    h = _fresh_relabel(h, set(g.signs))
    return SignedRibbonGraph(g.circles + h.circles, {**g.signs, **h.signs})


def one_point_join(
    g: SignedRibbonGraph,
    h: SignedRibbonGraph,
    pos_g: tuple[int, int],
    pos_h: tuple[int, int],
) -> SignedRibbonGraph:
    """Merge one vertex of each graph at chosen insertion gaps.

    ``pos_g`` and ``pos_h`` are (circle index, gap index) pairs; gap i
    lies before the occurrence at position i, so a circle of length m
    has gaps 0..m.  Clashing h labels are renamed as in disjoint_union.
    A gap outside its graph raises ``IndexError``.
    """
    cg, gapg = pos_g
    ch, gaph = pos_h
    if not (0 <= cg < len(g.circles)) or not (0 <= gapg <= len(g.circles[cg])):
        raise IndexError(f"no gap {pos_g} in the first graph")
    if not (0 <= ch < len(h.circles)) or not (0 <= gaph <= len(h.circles[ch])):
        raise IndexError(f"no gap {pos_h} in the second graph")
    h = _fresh_relabel(h, set(g.signs))
    spliced = h.circles[ch][gaph:] + h.circles[ch][:gaph]
    joined = g.circles[cg][:gapg] + spliced + g.circles[cg][gapg:]
    circles = (
        g.circles[:cg]
        + (joined,)
        + g.circles[cg + 1 :]
        + h.circles[:ch]
        + h.circles[ch + 1 :]
    )
    return SignedRibbonGraph(circles, {**g.signs, **h.signs})


# ----------------------------------------------------------------------
# guaranteed edge classes
# ----------------------------------------------------------------------


def _fresh_label(g: SignedRibbonGraph) -> str:
    i = len(g.signs) + 1
    while str(i) in g.signs:
        i += 1
    return str(i)


def _insert(circle: tuple, pos: int, piece: list) -> tuple:
    return circle[:pos] + tuple(piece) + circle[pos:]


def _rebuild(g, circles, extra_signs) -> SignedRibbonGraph:
    return SignedRibbonGraph(circles, {**g.signs, **extra_signs})


def with_trivial_loop(
    g: SignedRibbonGraph, rng: random.Random, sign: int, orientable: bool
) -> tuple[SignedRibbonGraph, str]:
    """Insert an adjacent loop pair on a random circle.  Equal flags give
    a trivial orientable loop, opposite flags a trivial non-orientable
    one."""
    label = _fresh_label(g)
    ci = rng.randrange(len(g.circles))
    pos = rng.randint(0, len(g.circles[ci]))
    piece = [(label, False), (label, not orientable)]
    circles = list(g.circles)
    circles[ci] = _insert(circles[ci], pos, piece)
    out = _rebuild(g, circles, {label: sign})
    cls = classify_edge(out, label)
    assert cls.kind == "loop" and cls.trivial and cls.orientable == orientable
    return out, label


def with_nontrivial_loop(
    g: SignedRibbonGraph, rng: random.Random, sign: int, orientable: bool
) -> tuple[SignedRibbonGraph, str]:
    """Append an interleaved two-loop circle; the first loop is a
    nontrivial loop of the requested orientability class."""
    label = _fresh_label(g)
    signs = {label: sign}
    circles = list(g.circles)
    other = label + "c"
    while other in g.signs:
        other += "c"
    signs[other] = rng.choice((1, -1))
    circles.append(
        (
            (label, False),
            (other, False),
            (label, not orientable),
            (other, rng.random() < 0.5),
        )
    )
    out = _rebuild(g, circles, signs)
    cls = classify_edge(out, label)
    assert cls.kind == "loop" and not cls.trivial and cls.orientable == orientable
    return out, label


def with_bridge(
    g: SignedRibbonGraph, rng: random.Random, sign: int
) -> tuple[SignedRibbonGraph, str]:
    """Hang a fresh vertex off a random circle by a new edge."""
    label = _fresh_label(g)
    ci = rng.randrange(len(g.circles))
    pos = rng.randint(0, len(g.circles[ci]))
    circles = list(g.circles)
    circles[ci] = _insert(circles[ci], pos, [(label, False)])
    circles.append(((label, rng.random() < 0.5),))
    out = _rebuild(g, circles, {label: sign})
    assert classify_edge(out, label).kind == "bridge"
    return out, label


def with_ordinary(
    g: SignedRibbonGraph, rng: random.Random, sign: int
) -> tuple[SignedRibbonGraph, str]:
    """Attach a fresh vertex by two parallel edges; each is ordinary."""
    label = _fresh_label(g)
    twin = label + "p"
    while twin in g.signs:
        twin += "p"
    ci = rng.randrange(len(g.circles))
    pos = rng.randint(0, len(g.circles[ci]))
    circles = list(g.circles)
    circles[ci] = _insert(circles[ci], pos, [(label, False), (twin, False)])
    circles.append(((label, rng.random() < 0.5), (twin, rng.random() < 0.5)))
    out = _rebuild(g, circles, {label: sign, twin: rng.choice((1, -1))})
    assert classify_edge(out, label).kind == "ordinary"
    return out, label


# ----------------------------------------------------------------------
# connected all-positive genus-0 family
# ----------------------------------------------------------------------


def plane_graph(rng: random.Random, grows: int = 4) -> SignedRibbonGraph:
    """A connected all-positive ribbon graph of genus 0, grown from a
    single vertex by bridges, trivial loops, and parallel doublings.
    Each growth step is checked to preserve the plane embedding."""
    g = SignedRibbonGraph([()], {})
    for _ in range(grows):
        move = rng.choice(("bridge", "loop", "double"))
        if move == "bridge":
            g, _ = with_bridge(g, rng, 1)
        elif move == "loop":
            g, _ = with_trivial_loop(g, rng, 1, True)
        else:
            g = _double_edge(g, rng) or g
        s = stats(g)
        assert s.k == 1 and s.orientable and s.genus_or_crosscap == 0, g
    return g


def _double_edge(g: SignedRibbonGraph, rng: random.Random):
    """Add an edge parallel to an existing plain edge, keeping genus 0.
    Both relative insertion orders are tried; one of them stays planar."""
    spots: dict[str, list[tuple[int, int]]] = {}
    for ci, circle in enumerate(g.circles):
        for pos, (label, against) in enumerate(circle):
            if not against:
                spots.setdefault(label, []).append((ci, pos))
    plain = [l for l, ps in spots.items() if len(ps) == 2]
    if not plain:
        return None
    label = rng.choice(sorted(plain))
    (c1, p1), (c2, p2) = spots[label]
    twin = _fresh_label(g)
    for flip in (False, True):
        circles = [list(c) for c in g.circles]
        circles[c1].insert(p1 + 1, (twin, False))
        offset = 1 if c1 == c2 and p2 > p1 else 0
        circles[c2].insert(p2 + offset + (0 if flip else 1), (twin, False))
        candidate = SignedRibbonGraph(
            [tuple(c) for c in circles], {**g.signs, twin: 1}
        )
        s = stats(candidate)
        if s.k == 1 and s.orientable and s.genus_or_crosscap == 0:
            return candidate
    return None


def plane_corpus(seed: int, count: int, grows: int = 4):
    rng = random.Random(seed)
    return [plane_graph(rng, grows) for _ in range(count)]


# ----------------------------------------------------------------------
# graphs that split into join blocks
# ----------------------------------------------------------------------


def split_graph(rng: random.Random, max_edges: int = 12) -> SignedRibbonGraph:
    """A random graph grown from a ``random_graph`` piece by up to six
    steps, each a one-point join or disjoint union with another piece, a
    bridge to a new circle or a trivial loop, while it has at most
    ``max_edges`` edges.  Pieces may have empty circles."""
    g = random_graph(rng, 4)
    for _ in range(rng.randint(1, 6)):
        move = rng.choice(("join", "union", "bridge", "loop"))
        sign = rng.choice((1, -1))
        if move == "bridge":
            h, _ = with_bridge(g, rng, sign)
        elif move == "loop":
            h, _ = with_trivial_loop(g, rng, sign, rng.random() < 0.5)
        elif move == "union":
            h = disjoint_union(g, random_graph(rng, 4))
        else:
            piece = random_graph(rng, 4)
            cg, ch = rng.randrange(len(g.circles)), rng.randrange(len(piece.circles))
            h = one_point_join(
                g,
                piece,
                (cg, rng.randint(0, len(g.circles[cg]))),
                (ch, rng.randint(0, len(piece.circles[ch]))),
            )
        if h.num_edges > max_edges:
            break
        g = h
    return g


def two_edge_block(rng: random.Random) -> SignedRibbonGraph:
    """A random graph of two edges that is one join block: two parallel
    edges between two circles, or two interlaced loops on one circle."""
    flags = [rng.random() < 0.5 for _ in range(4)]
    signs = {"a": rng.choice((1, -1)), "b": rng.choice((1, -1))}
    ends = [("a", flags[0]), ("b", flags[1]), ("a", flags[2]), ("b", flags[3])]
    if rng.random() < 0.5:
        return SignedRibbonGraph([ends[:2], ends[2:]], signs)
    return SignedRibbonGraph([ends], signs)


def forest(e: int) -> SignedRibbonGraph:
    """A path of ``e`` positive bridges on e + 1 circles."""
    labels = [f"e{i}" for i in range(e)]
    circles = [[(l, False) for l in labels[max(i - 1, 0) : i + 1]] for i in range(e + 1)]
    return SignedRibbonGraph(circles, dict.fromkeys(labels, 1))


# ----------------------------------------------------------------------
# link diagram corpus
# ----------------------------------------------------------------------


def random_diagram(rng: random.Random, max_crossings: int = 4) -> VirtualLinkDiagram:
    n = rng.randint(0, max_crossings)
    tokens = [(str(i + 1), True) for i in range(n)]
    tokens += [(str(i + 1), False) for i in range(n)]
    rng.shuffle(tokens)
    parts = rng.randint(1, 2)
    cut = rng.randint(0, len(tokens)) if parts == 2 else len(tokens)
    components = [tokens[:cut], tokens[cut:]] if parts == 2 else [tokens]
    signs = {str(i + 1): rng.choice((1, -1)) for i in range(n)}
    return VirtualLinkDiagram(components, signs)


def diagram_corpus(seed: int, count: int, max_crossings: int = 4):
    rng = random.Random(seed)
    return [random_diagram(rng, max_crossings) for _ in range(count)]


def cli_corpus() -> list[tuple[str, list[str], str]]:
    """(case name, argv reading standard input, input text) for the seeded
    stdout corpus of ``scripts/write_goldens.py``: every subcommand.
    ``stats``, ``dual`` on every other sorted edge label, ``duals``,
    ``poly``, ``tutte``, ``invariant`` and ``verify`` in both modes run on
    200 graphs with at most 7 edges (empty circles included; ``tutte``
    exits 2 on a graph with a negative edge), ``bracket``, ``jones``
    and ``stategraph`` on 100 diagrams with at most 6 crossings, and
    ``verify --mode lemmas`` on 12 graphs with 13 or 14 edges, which
    draws 48 subsets with the graph's number as the seed."""
    runs = []
    for gi, g in enumerate(graph_corpus(2026, 200, max_edges=7)):
        text = serialize_ribbon_graph(g)
        commands = {
            "stats": ["stats"],
            "dual": ["dual", "--edges", ",".join(g.edge_labels[::2])],
            "duals": ["duals"],
            "poly": ["poly"],
            "tutte": ["tutte"],
            "invariant": ["invariant"],
            "verify-lemmas": ["verify", "--mode", "lemmas"],
            "verify-duality": ["verify", "--mode", "duality"],
        }
        for name, command in commands.items():
            runs.append((f"g{gi:03}.{name}", [command[0], "-", *command[1:]], text))
    for di, d in enumerate(diagram_corpus(2026, 100, max_crossings=6)):
        text = serialize_gauss(d)
        for command in ("bracket", "jones", "stategraph"):
            runs.append((f"d{di:03}.{command}", [command, "-"], text))
    large = [g for g in graph_corpus(1314, 200, max_edges=14) if g.num_edges >= 13]
    for gi, g in enumerate(large[:12]):
        argv = ["verify", "-", "--mode", "lemmas", "--samples", "48", "--seed", str(gi)]
        runs.append((f"s{gi:02}.verify-lemmas", argv, serialize_ribbon_graph(g)))
    return runs


def braid_word_closure(strands: int, word: Sequence[int]) -> VirtualLinkDiagram:
    """Closure of a braid word: a classical diagram.

    Letter +-(i + 1) crosses the strands at positions i and i + 1, the
    left one passing over for a positive letter (sign +1) and under for
    a negative one (sign -1); the n-th letter is crossing ``str(n)``,
    counted from 1.  Closing up joins each end to the start at its
    position, so the components are the cycles of the braid's
    permutation.  A strand no letter touches is an empty component."""
    at = list(range(strands))  # the strand at each position
    passes: list[list[tuple[str, bool]]] = [[] for _ in range(strands)]
    signs = {}
    for n, letter in enumerate(word):
        i, sign = abs(letter) - 1, (1 if letter > 0 else -1)
        cid = str(n + 1)
        passes[at[i]].append((cid, sign > 0))
        passes[at[i + 1]].append((cid, sign < 0))
        at[i], at[i + 1] = at[i + 1], at[i]
        signs[cid] = sign
    ends = {s: p for p, s in enumerate(at)}  # strand s ends where s' starts
    components, seen = [], set()
    for start in range(strands):
        if start in seen:
            continue
        comp, s = [], start
        while s not in seen:
            seen.add(s)
            comp += passes[s]
            s = ends[s]
        components.append(comp)
    return VirtualLinkDiagram(components, signs)


def braid_closure(
    rng: random.Random, max_crossings: int = 6, max_strands: int = 3
) -> VirtualLinkDiagram:
    """Closure (:func:`braid_word_closure`) of a random braid word."""
    strands = rng.randint(1, max_strands)
    word = []
    for _ in range(rng.randint(0, max_crossings) if strands > 1 else 0):
        i, sign = rng.randrange(strands - 1), rng.choice((1, -1))
        word.append(sign * (i + 1))
    return braid_word_closure(strands, word)


def over_then_under(n: int) -> VirtualLinkDiagram:
    """One strand passing over crossings 0..n-1, then under them in the
    same order, every crossing positive."""
    ids = [str(i) for i in range(n)]
    return VirtualLinkDiagram(
        [[(c, True) for c in ids] + [(c, False) for c in ids]], dict.fromkeys(ids, 1)
    )


def random_link(
    rng: random.Random, max_crossings: int = 9, max_strands: int = 4
) -> VirtualLinkDiagram:
    """Like ``random_diagram``, with up to ``max_strands`` strands cut at
    independent points, so strands may be empty."""
    n = rng.randint(0, max_crossings)
    tokens = [(str(i + 1), over) for i in range(n) for over in (True, False)]
    rng.shuffle(tokens)
    cuts = [rng.randint(0, len(tokens)) for _ in range(rng.randrange(max_strands))]
    bounds = [0] + sorted(cuts) + [len(tokens)]
    components = [tokens[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    signs = {str(i + 1): rng.choice((1, -1)) for i in range(n)}
    return VirtualLinkDiagram(components, signs)


def sized_diagram(rng: random.Random, n: int, c: int) -> VirtualLinkDiagram:
    """A random diagram with exactly ``n`` crossings, each passed once
    over and once under, on exactly ``c`` non-empty strands, 1 <= c <= 2n,
    drawn the way the benchmark's generator ``perfbench/gen.gauss_text``
    draws its inputs."""
    passes = [(str(i + 1), over) for i in range(n) for over in (True, False)]
    rng.shuffle(passes)
    bounds = [0, *sorted(rng.sample(range(1, 2 * n), c - 1)), 2 * n]
    signs = {str(i + 1): rng.choice((1, -1)) for i in range(n)}
    return VirtualLinkDiagram([passes[a:b] for a, b in zip(bounds, bounds[1:])], signs)


# ----------------------------------------------------------------------
# abstract-graph counting oracles
# ----------------------------------------------------------------------


def _edge_ends(g: SignedRibbonGraph) -> dict[str, tuple[int, int]]:
    ends: dict[str, list[int]] = {}
    for ci, circle in enumerate(g.circles):
        for label, _ in circle:
            ends.setdefault(label, []).append(ci)
    return {l: (p[0], p[1]) for l, p in ends.items()}


def _components_count(v: int, edges) -> int:
    parent = list(range(v))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    k = v
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            k -= 1
    return k


def count_subgraphs(g: SignedRibbonGraph) -> dict[str, int]:
    """Brute-force counts over all spanning subgraphs of the underlying
    abstract multigraph: spanning trees, spanning forests (acyclic),
    connected spanning subgraphs, and all subgraphs."""
    ends = _edge_ends(g)
    labels = sorted(ends)
    v = len(g.circles)
    k_g = _components_count(v, ends.values())
    counts = {"trees": 0, "forests": 0, "connected": 0, "all": 0}
    for mask in range(1 << len(labels)):
        chosen = [ends[l] for i, l in enumerate(labels) if mask >> i & 1]
        k = _components_count(v, chosen)
        rank = v - k
        nullity = len(chosen) - rank
        counts["all"] += 1
        if nullity == 0:
            counts["forests"] += 1
            if k == k_g:
                counts["trees"] += 1
        if k == 1:
            counts["connected"] += 1
    return counts


def _determinant(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: every division is exact, so no fraction arises."""
    m, sign, prev = [row[:] for row in rows], 1, 1
    n = len(m)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def spanning_tree_count(g: SignedRibbonGraph) -> int:
    """The maximal spanning forests of the circle/edge multigraph of ``g``
    by Kirchhoff's matrix-tree theorem: per component, the determinant of
    its Laplacian with the row and column of one circle removed; the
    product over components.  Loops add nothing to a Laplacian."""
    ends = [(a, b) for a, b in _edge_ends(g).values() if a != b]
    total = 1
    for part in components(g):
        index = {x: i for i, x in enumerate(part[1:])}  # the first circle's row removed
        laplacian = [[0] * len(index) for _ in index]
        for a, b in ends:
            for x, y in ((a, b), (b, a)):
                if x in index:
                    laplacian[index[x]][index[x]] += 1
                    if y in index:
                        laplacian[index[x]][index[y]] -= 1
        total *= _determinant(laplacian)
    return total


def _gf2_basis(vectors: Iterable[int]) -> dict[int, int]:
    """A basis over GF(2) of the span of ``vectors`` (ints as bit
    vectors), one vector per leading bit."""
    basis: dict[int, int] = {}
    for x in vectors:
        while x and x.bit_length() in basis:
            x ^= basis[x.bit_length()]
        if x:
            basis[x.bit_length()] = x
    return basis


def bicycle_dimension(g: SignedRibbonGraph) -> int:
    """dim B of the bicycle space of the circle/edge multigraph of ``g``:
    the cut space over GF(2) met with its orthogonal complement, the cycle
    space.  The circles' stars span the cut space (a loop lies in none),
    and B is the kernel of the Gram matrix of a basis of it, so
    dim B = rank of the cut space - rank of that Gram matrix."""
    stars = [0] * g.num_vertices
    for bit, (a, b) in enumerate(_edge_ends(g).values()):
        stars[a] ^= 1 << bit
        stars[b] ^= 1 << bit
    cuts = list(_gf2_basis(stars).values())
    gram = [sum((bin(x & y).count("1") & 1) << j for j, y in enumerate(cuts)) for x in cuts]
    return len(cuts) - len(_gf2_basis(gram))


# ----------------------------------------------------------------------
# isomorphism oracle
# ----------------------------------------------------------------------


def _oriented(circle: tuple[Occurrence, ...], flip: bool, shift: int):
    if flip:
        circle = tuple(Occurrence(o.label, not o.against) for o in reversed(circle))
    return circle[shift:] + circle[:shift]


def backtrack_isomorphic(
    g: SignedRibbonGraph, h: SignedRibbonGraph, ignore_signs: bool = False
) -> bool:
    """Equivalence under relabeling, rotation, permutation, M1 and M2, by
    backtracking over circle assignments with per-circle reversal and
    rotation.  The reference for ``ribbon.is_isomorphic``; recursive and
    exponential, so only for graphs with at most a dozen edges."""
    if g.num_vertices != h.num_vertices or g.num_edges != h.num_edges:
        return False
    if sorted(len(c) for c in g.circles) != sorted(len(c) for c in h.circles):
        return False
    if not ignore_signs and sorted(g.signs.values()) != sorted(h.signs.values()):
        return False
    sg, sh = stats(g), stats(h)
    if (sg.k, sg.f, sg.orientable) != (sh.k, sh.f, sh.orientable):
        return False

    order = sorted(range(len(g.circles)), key=lambda i: -len(g.circles[i]))
    used = [False] * len(h.circles)

    def place(
        rank: int, phi: dict[str, str], tau: dict[str, bool], taken: set[str]
    ) -> bool:
        if rank == len(order):
            return True
        gi = order[rank]
        gcircle = g.circles[gi]
        length = len(gcircle)
        empty_done = False
        for hj, hcircle in enumerate(h.circles):
            if used[hj] or len(hcircle) != length:
                continue
            if length == 0:
                if empty_done:
                    continue
                empty_done = True  # empty circles are interchangeable
            used[hj] = True
            for flip in (False, True):
                for shift in range(max(length, 1)):
                    phi2, tau2, taken2 = dict(phi), dict(tau), set(taken)
                    ok = True
                    for og, oh in zip(_oriented(gcircle, flip, shift), hcircle):
                        mapped = phi2.get(og.label)
                        if mapped is None:
                            if oh.label in taken2:
                                ok = False
                                break
                            if not ignore_signs and g.signs[og.label] != h.signs[oh.label]:
                                ok = False
                                break
                            phi2[og.label] = oh.label
                            taken2.add(oh.label)
                            tau2[og.label] = og.against ^ oh.against
                        elif mapped != oh.label or tau2[og.label] != (
                            og.against ^ oh.against
                        ):
                            ok = False
                            break
                    if ok and place(rank + 1, phi2, tau2, taken2):
                        used[hj] = False
                        return True
                    if length == 0:
                        break  # no rotations or flips to try
                if length == 0:
                    break
            used[hj] = False
        return False

    return place(0, {}, {}, set())


def _tuple_rooted_code(circles, partner, signs, root, best):
    """Code of one component read from ``root``, a (circle, position,
    reversed) triple, or None as soon as it exceeds ``best``; ``partner``
    maps each (circle, position) to the other end of its edge."""
    queue = [root]
    placed = {root[0]}
    seen: dict[str, tuple[int, int]] = {}  # label -> (number, first flag)
    code: list[int] = []
    tied = bool(best)
    for ci, start, rev in queue:
        circle = circles[ci]
        m = len(circle)
        lo = len(code)
        code.append(-m)
        for step in range(m):
            pos = (start - step if rev else start + step) % m
            label, against = circle[pos]
            flag = against ^ rev
            hit = seen.get(label)
            if hit is not None:
                code += (hit[0], hit[1] ^ flag)
                continue
            code.append(len(seen))
            seen[label] = (len(seen), flag)
            if signs is not None:
                code.append(signs[label])
            cj, pj = partner[ci, pos]
            if cj not in placed:
                placed.add(cj)
                queue.append((cj, pj, circles[cj][pj].against ^ flag))
        if tied:
            segment, ref = code[lo:], best[lo : len(code)]
            if segment > ref:
                return None
            tied = segment == ref
    return code


def _tuple_partners(g: SignedRibbonGraph) -> dict[tuple[int, int], tuple[int, int]]:
    ends: dict[str, list[tuple[int, int]]] = {}
    for _, ci, pos, occ in occurrences(g):
        ends.setdefault(occ.label, []).append((ci, pos))
    partner = {a: b for a, b in ends.values()}
    partner.update((b, a) for a, b in ends.values())
    return partner


def tuple_canonical_form(
    g: SignedRibbonGraph, ignore_signs: bool = False
) -> tuple[tuple[int, ...], ...]:
    """``ribbon.canonical_form`` as it was with occurrences keyed by
    (circle, position) tuples.  The reference for the form over flat
    occurrence numbers: the two must give equal tuples."""
    circles = g.circles
    signs = None if ignore_signs else g.signs
    partner = _tuple_partners(g)
    codes = [()] * circles.count(())
    for comp in components(g):
        keyed: dict[tuple, list[tuple[int, int]]] = {}
        for ci in comp:
            m = len(circles[ci])
            for pos, (label, _) in enumerate(circles[ci]):
                cj, pj = partner[ci, pos]
                gap = abs(pj - pos) if ci == cj else -1
                sign = signs[label] if signs else 0
                key = (m, len(circles[cj]), min(gap, m - gap), sign)
                keyed.setdefault(key, []).append((ci, pos))
        if not keyed:
            continue  # an empty circle, coded above
        _, tops = min(keyed.items(), key=lambda item: (len(item[1]), item[0]))
        best: list[int] = []
        for root in [(ci, pos, rev) for ci, pos in tops for rev in (0, 1)]:
            best = _tuple_rooted_code(circles, partner, signs, root, best) or best
        codes.append(tuple(best))
    return tuple(sorted(codes))


def length_class_form(
    g: SignedRibbonGraph, ignore_signs: bool = False
) -> tuple[tuple[int, ...], ...]:
    """The canonical form with the earlier root rule: every occurrence on
    the circles of the length class that holds the fewest occurrences
    (ties to the longer length) is a root.  The reference for the root
    rule of ``ribbon.canonical_form``: the codes differ, but the two must
    split any set of graphs into the same classes."""
    circles = g.circles
    signs = None if ignore_signs else g.signs
    partner = _tuple_partners(g)
    codes: list[tuple[int, ...]] = []
    for comp in components(g):
        held = Counter(len(circles[ci]) for ci in comp)
        root_len = min(held, key=lambda m: (held[m] * m, -m))
        tops = [ci for ci in comp if len(circles[ci]) == root_len]
        best: list[int] = []  # stays empty for an empty circle
        for root in product(tops, range(root_len), (0, 1)):
            best = _tuple_rooted_code(circles, partner, signs, root, best) or best
        codes.append(tuple(best))
    return tuple(sorted(codes))


def chord_ring(
    e: int,
    step: int,
    reach: int,
    flags: Sequence[tuple[bool, bool]] = ((False, False),),
    signs: Sequence[int] = (1,),
) -> SignedRibbonGraph:
    """One circle of 2e occurrences where edge i has its ends at
    positions ``step * i`` and ``step * i + reach`` (mod 2e): with step 2
    and odd reach, or step 1 and reach e, every position is filled once.
    Edge i takes the flags and sign at i modulo the lengths of ``flags``
    and ``signs``, so turning the circle by ``step`` times those lengths
    maps the graph to itself and whole orbits of occurrences look alike."""
    m = 2 * e
    circle: list = [None] * m
    for i in range(e):
        first, second = flags[i % len(flags)]
        circle[step * i % m] = (f"c{i}", first)
        circle[(step * i + reach) % m] = (f"c{i}", second)
    assert None not in circle, (e, step, reach)
    return SignedRibbonGraph(
        [circle], {f"c{i}": signs[i % len(signs)] for i in range(e)}
    )


# ----------------------------------------------------------------------
# cycles of two matchings, and the oracles traced by them
# ----------------------------------------------------------------------


def _trace(first, second, starts) -> list[list[int]]:
    """Cycles of the alternating walk over two perfect matchings.

    ``first`` and ``second`` are lists holding each point's partner.
    Each cycle starts at the first point of ``starts`` not yet seen,
    leaves it along ``first``, and is returned as its list of points:
    even positions step along ``first``, odd ones along ``second``.
    The oracles :func:`traced_state`, :func:`traced_partial_dual` and
    :func:`boundary_components` trace their curves here.
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


def _strand_edges(d: VirtualLinkDiagram) -> tuple[list[int], int]:
    """Pair strand ends; ends are numbered 4j.. 4j+3 per sorted crossing:
    over-in, over-out, under-in, under-out.  Every end is paired."""
    index = {cid: j for j, cid in enumerate(d.crossing_ids)}
    strand = [0] * (4 * len(index))
    empties = 0
    for comp in d.components:
        if not comp:
            empties += 1
            continue
        for i, p in enumerate(comp):
            q = comp[(i + 1) % len(comp)]
            out_end = 4 * index[p.crossing] + (1 if p.over else 3)
            in_end = 4 * index[q.crossing] + (0 if q.over else 2)
            strand[out_end] = in_end
            strand[in_end] = out_end
    return strand, empties


def traced_state(d: VirtualLinkDiagram, state) -> tuple[tuple[Occurrence, ...], ...]:
    """The curves of a state as the cycles (:func:`_trace`) of the strand
    matching (:func:`_strand_edges`) and the splitting matching, each odd
    step of a cycle emitting the crossing it lands on.  The reference for
    :func:`ribbongraphs.links.resolve_state`, which took over from this
    path with one walk, in the same circle order and with the same flags;
    ``state`` must choose A or B at every crossing."""
    ids = d.crossing_ids
    strand, empties = _strand_edges(d)
    # ends 4j..4j+3 are over-in, over-out, under-in, under-out: the
    # orientation-respecting splitting pairs end c with c ^ 3, the other
    # with c ^ 2
    is_a = [state[cid] == "A" for cid in ids]
    smooth = [
        c ^ (3 if (d.signs[ids[c >> 2]] > 0) == is_a[c >> 2] else 2)
        for c in range(4 * len(ids))
    ]
    circles = [
        tuple(
            [
                Occurrence(ids[c >> 2], (c & 2 == 0) == is_a[c >> 2])
                for c in cycle[1::2]
            ]
        )
        for cycle in _trace(strand, smooth, range(len(strand)))
    ]
    circles.extend(() for _ in range(empties))
    return tuple(circles)


# ----------------------------------------------------------------------
# partial-duality oracle
# ----------------------------------------------------------------------


def traced_partial_dual(g: SignedRibbonGraph, edges) -> SignedRibbonGraph:
    """Partial dual from the cycles (:func:`_trace`) of the arc matching
    and the side matching of the subset (``label_bands``), each odd step
    of a cycle emitting the occurrence it lands on.  The reference for
    ``ribbon._dual_circles``, the walk that ``duality.partial_dual`` took
    over from this path, with the same circle order and arrow flags."""
    subset = set(edges)
    labels, _, home, _, sigma = _flat(g)
    inside = [label in subset for label in labels]
    starts = [c for c in range(len(sigma)) if inside[c >> 1]]
    new_circles = [
        [Occurrence(labels[c >> 1], (c & 1) != inside[c >> 1]) for c in cycle[1::2]]
        for cycle in _trace(sigma, label_bands(labels, subset), starts)
    ]
    touched = {home[c >> 1] for c in starts}
    new_circles += [c for ci, c in enumerate(g.circles) if ci not in touched]
    signs = {l: -s if l in subset else s for l, s in g.signs.items()}
    return SignedRibbonGraph(new_circles, signs)


def arc_partial_dual(g: SignedRibbonGraph, edges) -> SignedRibbonGraph:
    """Partial dual by walking reduced arcs: each arc runs from one subset
    occurrence to the next on its circle and carries the occurrences in
    between as marks.  The reference for ``duality.partial_dual``, with
    the same circle order and arrow flags."""
    subset = set(edges)
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


def mask_orbit(g: SignedRibbonGraph) -> tuple[duality.OrbitClass, ...]:
    """The reference for ``duality.dual_orbit``, with the same classes in
    the same order: one partial dual and one unsigned canonical form for
    every one of the 2^e subsets, in bitmask order over the sorted labels."""
    labels = g.edge_labels
    classes: dict[tuple, list] = {}
    for mask in range(1 << len(labels)):
        subset = tuple(l for i, l in enumerate(labels) if mask >> i & 1)
        dual = partial_dual(g, subset)
        key = ribbon.canonical_form(dual, ignore_signs=True)
        classes.setdefault(key, [subset, dual, 0])[2] += 1
    return tuple(duality.OrbitClass(*found) for found in classes.values())


def labeled_stabilizer(g: SignedRibbonGraph) -> set[int]:
    """Every mask X over the sorted labels (bit i for label i) whose
    partial dual equals ``g`` up to rotation, circle order, M1 and M2,
    labels kept and signs ignored: some set T of edges flipped by M2 gives
    ``g`` the presentation (``ribbon._presentation``) of its dual on X."""
    labels = g.edge_labels
    flipped = set()
    for mask in range(1 << len(labels)):
        flip = {l for i, l in enumerate(labels) if mask >> i & 1}
        circles = [[(l, a != (l in flip)) for l, a in c] for c in g.circles]
        flipped.add(ribbon._presentation(SignedRibbonGraph(circles, g.signs), {}))
    return {
        mask
        for mask in range(1 << len(labels))
        if ribbon._presentation(
            partial_dual(g, [l for i, l in enumerate(labels) if mask >> i & 1]), {}
        )
        in flipped
    }


# ----------------------------------------------------------------------
# state-sum oracles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SubgraphStats:
    """Profile of one spanning subgraph.

    ``s2`` is twice the sign correction s(F), always an integer:
    the count of negative edges inside F minus the count outside.
    """

    k: int
    r: int
    n: int
    f: int
    s2: int


def subgraph_stats(g: SignedRibbonGraph, subset: Iterable[str]) -> SubgraphStats:
    """Stats of the spanning subgraph keeping only ``subset`` edges, by
    rebuilding it: the per-subset reference for the histogram of ``br``."""
    keep = set(subset)
    sub = stats(
        SignedRibbonGraph(
            [[o for o in circle if o.label in keep] for circle in g.circles],
            {label: g.signs[label] for label in keep},
        )
    )
    s2 = sum(1 if l in keep else -1 for l, sign in g.signs.items() if sign < 0)
    return SubgraphStats(k=sub.k, r=sub.r, n=sub.n, f=sub.f, s2=s2)


class SubsetEngine:
    """Stats of one spanning subgraph per bitmask, rebuilt from scratch:
    the per-mask reference for the subgraph histogram of ``br``.

    Corner ids follow the convention of :mod:`ribbongraphs.ribbon`
    (2i and 2i+1 for the tail and head of global occurrence i), but
    only the corners of subset edges take part in a given sweep.
    """

    def __init__(self, g: SignedRibbonGraph):
        self.v = g.num_vertices
        self.labels = g.edge_labels
        index = {l: i for i, l in enumerate(self.labels)}
        self.neg_mask = 0
        for l, i in index.items():
            if g.signs[l] < 0:
                self.neg_mask |= 1 << i
        self.neg_total = bin(self.neg_mask).count("1")
        # per circle: (global occurrence index, edge index, against)
        self.circle_occs: list[list[tuple[int, int, bool]]] = []
        self.edge_ends: list[list[int]] = [[] for _ in self.labels]
        self.occ_circle: dict[int, int] = {}
        i = 0
        for ci, circle in enumerate(g.circles):
            row = []
            for occ in circle:
                ei = index[occ.label]
                row.append((i, ei, occ.against))
                self.edge_ends[ei].append(i)
                self.occ_circle[i] = ci
                i += 1
            self.circle_occs.append(row)

    def sweep(self, mask: int) -> SubgraphStats:
        """Stats of the spanning subgraph selected by ``mask`` bits."""
        e_f = bin(mask).count("1")
        s2 = 2 * bin(mask & self.neg_mask).count("1") - self.neg_total
        k_f = _components_count(
            self.v,
            [
                (self.occ_circle[ends[0]], self.occ_circle[ends[1]])
                for ei, ends in enumerate(self.edge_ends)
                if mask >> ei & 1
            ],
        )
        link: dict[int, int] = {}
        empty_circles = 0
        for row in self.circle_occs:
            sel = [t for t in row if mask >> t[1] & 1]
            if not sel:
                empty_circles += 1
                continue
            m = len(sel)
            for which, (gi, _, against) in enumerate(sel):
                gj, _, against_j = sel[(which + 1) % m]
                src = 2 * gi + (0 if against else 1)
                dst = 2 * gj + (1 if against_j else 0)
                link[src] = dst
                link[dst] = src
        # boundary cycles: arcs in `link`, sides from edge ends
        side: dict[int, int] = {}
        for ei, ends in enumerate(self.edge_ends):
            if mask >> ei & 1:
                i1, i2 = ends
                side[2 * i1 + 1] = 2 * i2
                side[2 * i2] = 2 * i1 + 1
                side[2 * i2 + 1] = 2 * i1
                side[2 * i1] = 2 * i2 + 1
        cycles = 0
        seen: set[int] = set()
        for start in link:
            if start in seen:
                continue
            cycles += 1
            at = start
            use_arc = True
            while True:
                seen.add(at)
                at = link[at] if use_arc else side[at]
                use_arc = not use_arc
                if at == start:
                    break
        r_f = self.v - k_f
        return SubgraphStats(
            k=k_f, r=r_f, n=e_f - r_f, f=cycles + empty_circles, s2=s2
        )


def _pieces(circles: list[list[str]]) -> list[list[list[str]]]:
    """Circles of labels grouped into connected pieces."""
    groups: list[tuple[set[str], list[list[str]]]] = []
    for circle in circles:
        labels, members = set(circle), [circle]
        for group in [group for group in groups if group[0] & labels]:
            groups.remove(group)
            labels |= group[0]
            members += group[1]
        groups.append((labels, members))
    return [members for _, members in groups]


def join_blocks(g: SignedRibbonGraph) -> set[frozenset[str]]:
    """The edge sets of the join blocks of ``g`` by brute force: the
    reference for :func:`split_blocks`.

    Cutting a circle at two gaps into two circles, one arc each, pulls
    apart the two sides of a one-point join made there.  On each circle
    of a connected piece every pair of gaps is tried, the first cut that
    disconnects the piece is kept, and each new piece is cut again, until
    no cut disconnects any piece.  Empty circles carry no block."""
    blocks = set()
    todo = _pieces([[o.label for o in circle] for circle in g.circles if circle])
    while todo:
        piece = todo.pop()
        for ci, circle in enumerate(piece):
            rest = piece[:ci] + piece[ci + 1 :]
            m = len(circle)
            cuts = (
                _pieces(rest + [circle[p:q], circle[q:] + circle[:p]])
                for p in range(m)
                for q in range(p + 1, m)
            )
            parts = next((parts for parts in cuts if len(parts) > 1), None)
            if parts:
                todo += parts
                break
        else:
            blocks.add(frozenset(l for circle in piece for l in circle))
    return blocks


def interlaced(seq: list[int]) -> tuple[int, int] | None:
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


def split_blocks(g: SignedRibbonGraph) -> list[list[int]]:
    """The edges of ``g`` split into join blocks, each edge named by its
    first occurrence in the table ``ribbon._flat``: the finder of the
    split sweep that the frontier engine of ``br`` replaced.

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
            pair = len(run) > 3 and interlaced([block[i] for i in run])
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


def sweep_profiles(edges, sigma, tau, parent, v) -> dict[tuple[int, int, int, int], int]:
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
    without path compression, undone on backtrack.  ``br`` ran this sweep
    over all the edges of graphs under 8 edges, before its frontier engine
    took every size.
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


def frontier_profiles(g: SignedRibbonGraph) -> dict[tuple[int, int, int, int], int]:
    """Histogram of (|F|, k(F), f(F), negative edges in F) over the spanning
    subgraphs F of ``g``, from the frontier engine ``br._subgraph_profiles``
    with one unit increment per field.  The engine takes keys of at most 3
    fields, so |F| and the negative edges share one, |F| + (e + 1)·neg,
    decoded here.  No command reads this view: each passes the engine its
    own exponent key.  :func:`r_terms_of` and :func:`bracket_terms_of` map it
    to those keys."""
    e = g.num_edges
    units = (1, 0, 0), (e + 2, 0, 0), (0, 0, 1), (0, 1, 0)
    hist = br._subgraph_profiles(g, *units, (0, 0, 0))
    return {(x % (e + 1), k, f, x // (e + 1)): n for (x, k, f), n in hist.items()}


def r_terms_of(
    g: SignedRibbonGraph, hist: dict[tuple[int, int, int, int], int], restrict: bool
) -> dict[tuple[int, ...], int]:
    """R's terms by doubled exponent key (a, b, c), or with ``restrict``
    the duality invariant's, mapped from a histogram of (|F|, k(F), f(F),
    negative edges) by R's exponent formulas: the oracle for the keys that
    ``br._r_terms`` hands the engine.  k(G) is read off the F = E entry,
    and xyz² = 1 takes (a, b, c) to (a + 2k(G) - c - v - 1, b + v - c - 1)."""
    e, v = g.num_edges, g.num_vertices
    k_g = next(k for size, k, _, _ in hist if size == e)
    neg_total = sum(1 for sign in g.signs.values() if sign < 0)
    terms: dict[tuple[int, ...], int] = {}
    for (size, k, f, neg), count in hist.items():
        n = size - v + k
        s2 = 2 * neg - neg_total
        a, b, c = 2 * (k - k_g) + s2, 2 * n - s2, k - f + n
        key = (a + 2 * k_g - c - v - 1, b + v - c - 1) if restrict else (a, b, c)
        terms[key] = terms.get(key, 0) + count
    return terms


def bracket_terms_of(
    g: SignedRibbonGraph, hist: dict[tuple[int, int, int, int], int]
) -> dict[tuple[int, int, int], int]:
    """The bracket's terms A^(e-|F|) B^|F| d^(f(F)-1), mapped from a
    histogram of (|F|, k(F), f(F), negative edges): the oracle for the key
    that ``links.kauffman_bracket`` hands the engine on its all-A state
    graph, e = n."""
    terms: dict[tuple[int, int, int], int] = {}
    for (size, _, f, _), count in hist.items():
        key = (g.num_edges - size, size, f - 1)
        terms[key] = terms.get(key, 0) + count
    return terms


def split_profiles(g: SignedRibbonGraph) -> dict[tuple[int, int, int, int], int]:
    """The histogram of :func:`frontier_profiles` by the split sweep: one
    :func:`sweep_profiles` per join block (:func:`split_blocks`), convolved.

    Each sweep toggles only its block's edges on the table of ``g`` and
    keeps every other band excluded.  R is multiplicative over one-point
    joins and disjoint unions, and so is this histogram: a subgraph is
    one subgraph F_b of each of the m blocks, |F| and the negative edges
    add, and since every sweep counts all v circles of g, empty ones
    included, k(F) = sum k(F_b) - (m-1)v and f(F) = sum f(F_b) - (m-1)v.
    """
    labels, _, home, partner, sigma = _flat(g)
    v = g.num_vertices
    tau = [c ^ 1 for c in range(len(sigma))]  # every band excluded
    parent = list(range(v))
    hist = {(0, v, v, 0): 1}
    for block in split_blocks(g):
        edges = [
            (2 * i, 2 * i + 1, 2 * partner[i], 2 * partner[i] + 1,
             home[i], home[partner[i]], int(g.signs[labels[i]] < 0))
            for i in block
        ]
        part = sweep_profiles(edges, sigma, tau, parent, v)
        joined: dict[tuple[int, int, int, int], int] = {}
        for (size, k, f, neg), count in hist.items():
            for (size2, k2, f2, neg2), count2 in part.items():
                key = (size + size2, k + k2 - v, f + f2 - v, neg + neg2)
                joined[key] = joined.get(key, 0) + count * count2
        hist = joined
    return hist


def subset_profiles(g: SignedRibbonGraph) -> dict[tuple[int, int, int, int], int]:
    """The histogram of :func:`frontier_profiles` by one
    :class:`SubsetEngine` rebuild per subset."""
    engine = SubsetEngine(g)
    hist: dict[tuple[int, int, int, int], int] = {}
    for mask in range(1 << g.num_edges):
        st = engine.sweep(mask)
        key = (bin(mask).count("1"), st.k, st.f, (st.s2 + engine.neg_total) // 2)
        hist[key] = hist.get(key, 0) + 1
    return hist


def product_duality_invariant(g: SignedRibbonGraph) -> Laurent:
    """The duality invariant by polynomial arithmetic, as ``br`` computed
    it before it mapped R's exponent keys: the monomial x^k y^v z^(v+1),
    with k from a :func:`ribbongraphs.ribbon.components` walk, times R,
    restricted to xyz^2 = 1 by ``restrict_duality_surface``."""
    k, v = len(components(g)), g.num_vertices
    prefactor = Laurent.monomial(RING_XYZ, (2 * k, 2 * v, v + 1))
    return restrict_duality_surface(prefactor * br.bollobas_riordan(g))


def product_tutte(g: SignedRibbonGraph, r: Laurent) -> Laurent:
    """R(x-1, y-1, 1) by polynomial arithmetic, with R given as ``r``, as
    ``br`` computed the Tutte polynomial before it mapped R's exponent
    keys: ``Laurent.substitute`` of z, then x, then y, and z dropped from
    the keys.  A shift it cannot take raises what ``br.tutte_via_br``
    raises, except that a FractionalExponent names the first half-integer
    power in the term order of the substitutions, not the least."""
    p = r.substitute("z", Laurent.const(RING_XYZ, 1))
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
    assert all(c == 0 for _, _, c in p.terms)
    return Laurent(RING_XY, {(a, b): n for (a, b, _), n in p.terms.items()})


def subset_sum_br(g: SignedRibbonGraph) -> Laurent:
    """R(x, y, z) by one :class:`SubsetEngine` rebuild per subset."""
    engine = SubsetEngine(g)
    g_stats = stats(g)
    terms: dict[tuple[int, int, int], int] = {}
    for mask in range(1 << g.num_edges):
        st = engine.sweep(mask)
        key = (
            2 * (g_stats.r - st.r) + st.s2,
            2 * st.n - st.s2,
            st.k - st.f + st.n,
        )
        terms[key] = terms.get(key, 0) + 1
    return Laurent(RING_XYZ, terms)


def all_states(d: VirtualLinkDiagram):
    """Every splitting state of ``d``, by bitmask over the sorted ids."""
    ids = d.crossing_ids
    for mask in range(1 << len(ids)):
        yield {cid: ("B" if mask >> i & 1 else "A") for i, cid in enumerate(ids)}


def state_counts(d: VirtualLinkDiagram, state) -> tuple[int, int, int]:
    """(alpha, beta, delta) of a state: its A- and B-splittings, and the
    number of curves that :func:`ribbongraphs.links.resolve_state` traces."""
    alpha = sum(1 for cid in d.crossing_ids if state[cid] == "A")
    delta = len(resolve_state(d, state))
    return alpha, d.num_crossings - alpha, delta


def state_sum_bracket(d: VirtualLinkDiagram) -> Laurent:
    """Kauffman bracket by tracing the curves of every state."""
    terms: dict[tuple[int, int, int], int] = {}
    for state in all_states(d):
        alpha, beta, delta = state_counts(d, state)
        key = (alpha, beta, delta - 1)
        terms[key] = terms.get(key, 0) + 1
    return Laurent(RING_ABD, terms)


def jones_from_bracket(bracket: Laurent, w: int) -> Laurent:
    """Jones polynomial of a diagram of writhe ``w`` from its bracket:
    A=t^(-1/4), B=t^(1/4), d=-t^(1/2)-t^(-1/2), times (-1)^w t^(3w/4),
    by polynomial products and powers of the loop value, one bracket
    term at a time."""
    loop = Laurent(RING_T, {(2,): -1, (-2,): -1})
    total = Laurent.zero(RING_T)
    for (a, b, dd), coeff in bracket.terms.items():
        total = total + Laurent(RING_T, {(b - a,): coeff}) * loop**dd
    return total * Laurent(RING_T, {(3 * w,): (-1) ** (w & 1)})


# ----------------------------------------------------------------------
# occurrence tables
# ----------------------------------------------------------------------


def arc_matching(g: SignedRibbonGraph) -> tuple[list[int], list[str]]:
    """The arc matching on corners and the label of each occurrence, built
    circle by circle: the oracle for ``sigma`` and the labels of
    ``ribbon._flat``.

    Occurrence i (in circle-major order) has corners 2i (tail) and 2i+1
    (head).  The arc matching ``sigma`` pairs the corner after each
    occurrence with the corner before the next one on its circle, along
    the free arc of the vertex disc between them.
    """
    sigma: list[int] = []
    labels: list[str] = []
    for circle in g.circles:
        base = len(labels)
        m = len(circle)
        sigma += [0] * (2 * m)
        for pos, occ in enumerate(circle):
            nxt = circle[(pos + 1) % m]
            a = 2 * (base + pos) + (0 if occ.against else 1)
            b = 2 * (base + (pos + 1) % m) + (1 if nxt.against else 0)
            sigma[a], sigma[b] = b, a
            labels.append(occ.label)
    return sigma, labels


def label_bands(labels: list[str], subset) -> list[int]:
    """The side matching on corners for the edges in ``subset``, pairing
    occurrences by label.  It pinned ``ribbon._bands`` until the table walk
    replaced that, and stands in for it in ``traced_partial_dual`` and
    ``boundary_components``.

    Across the band of a subset edge with occurrences i1 and i2 it pairs
    2i1+1 with 2i2 and 2i2+1 with 2i1; at every other occurrence it pairs
    the occurrence's own two corners.
    """
    tau = [c ^ 1 for c in range(2 * len(labels))]
    other: dict[str, int] = {}
    for i, label in enumerate(labels):
        if label in subset:
            j = other.setdefault(label, i)
            if j != i:
                tau[2 * j + 1], tau[2 * i] = 2 * i, 2 * j + 1
                tau[2 * i + 1], tau[2 * j] = 2 * j, 2 * i + 1
    return tau


def table_builds(monkeypatch) -> list[SignedRibbonGraph]:
    """The graphs whose occurrence tables the package builds from now on,
    in build order: a call of ``ribbon._flat`` builds one when it returns
    another table than the one its graph kept, if any."""
    builds: list[SignedRibbonGraph] = []
    flat = ribbon._flat

    def counted(g):
        kept = g._table
        table = flat(g)
        if table is not kept:
            builds.append(g)
        return table

    for module in (ribbon, duality, br):
        monkeypatch.setattr(module, "_flat", counted)
    return builds


def parity_union_find(
    g: SignedRibbonGraph, flags: list[bool], home: list[int], partner: list[int]
) -> tuple[list[int], bool]:
    """Root circle of each circle's component, and orientability, from the
    table of ``ribbon._flat``: the oracle for ``ribbon._walk``.

    A parity union-find over circles joins the two circles of every edge
    and seeks a reversal o per circle with d1 xor d2 xor o(c1) xor o(c2)
    = 0 for every edge, where d are its Against flags; an edge closing a
    cycle of the wrong parity is the obstruction to orientability.
    """
    parent = list(range(len(g.circles)))
    parity = [0] * len(g.circles)
    orientable = True
    for i, j in enumerate(partner):
        if j > i:  # each edge once, at its second occurrence
            continue
        d = flags[i] ^ flags[j]
        if home[i] == home[j]:  # a loop: both ends on one circle
            orientable = orientable and not d
            continue
        ends: list[int] = []
        for a in (home[i], home[j]):  # find, with path halving carrying parity
            p = 0
            while parent[a] != a:
                up = parent[a]
                parity[a] ^= parity[up]
                parent[a] = parent[up]
                p ^= parity[a]
                a = parent[a]
            ends += (a, p)
        ra, pa, rb, pb = ends
        if ra != rb:
            parent[ra] = rb
            parity[ra] = pa ^ pb ^ d
        elif pa ^ pb != d:
            orientable = False
    roots = []
    for a in range(len(parent)):
        while parent[a] != a:
            a = parent[a]
        roots.append(a)
    return roots, orientable


# ----------------------------------------------------------------------
# boundary walks
# ----------------------------------------------------------------------

TAIL = "tail"
HEAD = "head"


class Corner(NamedTuple):
    """Tail or head endpoint of one arrow occurrence.

    ``occurrence`` is the global occurrence index in circle-major order.
    """

    occurrence: int
    kind: str  # TAIL or HEAD


@dataclass(frozen=True)
class BoundaryWalk:
    """One boundary component as an alternating corner/element walk.

    ``elements[i]`` is what is traversed after ``corners[i]``: an
    ``("arc", circle_index)`` free arc or a ``("side", label)`` ribbon
    side.  An isolated vertex yields the walk with no corners and the
    single element ``("vertex", circle_index)``.
    """

    corners: tuple[Corner, ...]
    elements: tuple[tuple[str, int | str], ...]


def boundary_components(g: SignedRibbonGraph) -> tuple[BoundaryWalk, ...]:
    """Trace the boundary of the surface; one walk per component.

    The boundary components are the cycles (:func:`_trace`) of the
    arc matching, along the circles, and the side matching, along the
    edge bands (``label_bands``): as many as the circles that ``stats``
    counts for f.  Walks start at their smallest corner and leave it
    along the arc.  Isolated vertices append their own cornerless walks.
    """
    labels, _, home, _, sigma = _flat(g)
    walks = [
        BoundaryWalk(
            tuple([Corner(c >> 1, HEAD if c & 1 else TAIL) for c in cycle]),
            tuple(
                [
                    ("side", labels[c >> 1]) if step & 1 else ("arc", home[c >> 1])
                    for step, c in enumerate(cycle)
                ]
            ),
        )
        for cycle in _trace(sigma, label_bands(labels, g.signs), range(len(sigma)))
    ]
    for ci, circle in enumerate(g.circles):
        if not circle:
            walks.append(BoundaryWalk((), (("vertex", ci),)))
    return tuple(walks)


# ----------------------------------------------------------------------
# polynomial text and variable maps
# ----------------------------------------------------------------------

MonomialImage = tuple[int, Sequence[Union[int, Fraction]]]

# x -> x, y -> y, z -> x^(-1/2) y^(-1/2): the restriction to x*y*z^2 = 1
# as a monomial map, the reference for ``restrict_duality_surface``
SURFACE_IMAGES: list[MonomialImage] = [
    (1, (1, 0)),
    (1, (0, 1)),
    (1, (Fraction(-1, 2), Fraction(-1, 2))),
]


def monomial_map(
    p: Laurent, target: Ring, images: Sequence[MonomialImage]
) -> Laurent:
    """Apply a multiplicative substitution sending each variable of
    ``p`` to a signed monomial of ``target``.

    ``images[i]`` is ``(coeff, exponents)`` with ``coeff`` +-1 and actual
    (unscaled) exponents per target variable.  Exponent arithmetic is done
    in exact fractions; the result must land on the target lattice.
    """
    for coeff, _ in images:
        if coeff not in (1, -1):
            raise ValueError("monomial images must have coefficient +1 or -1")
    out: dict[tuple[int, ...], int] = {}
    width = len(target.names)
    for key, coeff in p.terms.items():
        src = [Fraction(u, s) for u, s in zip(key, p.ring.scales)]
        dst = [Fraction(0)] * width
        sign = 1
        for e, (im_coeff, im_exps) in zip(src, images):
            if e == 0:
                continue
            if im_coeff == -1:
                if e.denominator != 1:
                    raise FractionalExponent(
                        f"cannot raise a negative monomial to power {e}"
                    )
                if e.numerator % 2:
                    sign = -sign
            for j, im_e in enumerate(im_exps):
                dst[j] += e * Fraction(im_e)
        new_key = []
        for j, e in enumerate(dst):
            scaled = e * target.scales[j]
            if scaled.denominator != 1:
                raise FractionalExponent(
                    f"image exponent {e} of {target.names[j]} is off-lattice"
                )
            new_key.append(int(scaled))
        k = tuple(new_key)
        new = out.get(k, 0) + sign * coeff
        if new:
            out[k] = new
        else:
            out.pop(k, None)
    return Laurent(target, out)


def permute_vars(p: Laurent, perm: Sequence[int]) -> Laurent:
    """Move the exponent of old variable ``perm[i]`` into slot i."""
    if tuple(p.ring.scales[i] for i in perm) != p.ring.scales:
        raise ValueError("permutation must preserve exponent scales")
    return Laurent(
        p.ring,
        {tuple(key[i] for i in perm): c for key, c in p.terms.items()},
    )


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[\^*+()/-]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and not text[pos:].strip():
            break
        if not m.group(0).strip():
            pos = m.end()
            continue
        if m.lastgroup is None:
            raise ParseError(f"unexpected character {text[pos]!r}", 1, pos + 1)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup) + 1))
        pos = m.end()
    rest = text[pos:].strip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", 1, pos + 1)
    return tokens
def parse_poly(text: str, ring: Ring) -> Laurent:
    """Parse the output of :meth:`Laurent.render`.

    Grammar: terms joined by + or -; a term is *-separated factors; a factor
    is an integer, a variable, or a variable with ^E where E is a bare
    nonnegative integer or a parenthesized integer or fraction.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 1, 1)
    idx = 0

    def peek() -> tuple[str, str, int] | None:
        return tokens[idx] if idx < len(tokens) else None

    def take() -> tuple[str, str, int]:
        nonlocal idx
        tok = peek()
        if tok is None:
            last = tokens[-1]
            raise ParseError("unexpected end of input", 1, last[2])
        idx += 1
        return tok

    def parse_exponent(col: int) -> Fraction:
        kind, val, c = take()
        if kind == "int":
            return Fraction(int(val))
        if kind == "op" and val == "(":
            sign = 1
            kind, val, c = take()
            if kind == "op" and val == "-":
                sign = -1
                kind, val, c = take()
            if kind != "int":
                raise ParseError("expected integer exponent", 1, c)
            num = int(val)
            den = 1
            tok = peek()
            if tok and tok[0] == "op" and tok[1] == "/":
                take()
                kind, val, c = take()
                if kind != "int":
                    raise ParseError("expected denominator", 1, c)
                den = int(val)
                if den == 0:
                    raise ParseError("zero denominator", 1, c)
            kind, val, c = take()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", 1, c)
            return Fraction(sign * num, den)
        raise ParseError("expected exponent", 1, col)

    terms: dict[tuple[int, ...], int] = {}
    width = len(ring.names)
    while True:
        sign = 1
        tok = peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            take()
            sign = -1 if tok[1] == "-" else 1
        coeff = sign
        key = [Fraction(0)] * width
        saw_int = False
        while True:
            kind, val, col = take()
            if kind == "int":
                coeff *= int(val)
                saw_int = True
            elif kind == "name":
                if val not in ring.names:
                    raise ParseError(f"unknown variable {val!r}", 1, col)
                i = ring.names.index(val)
                exp = Fraction(1)
                tok = peek()
                if tok and tok[0] == "op" and tok[1] == "^":
                    take()
                    exp = parse_exponent(col)
                key[i] += exp
            else:
                raise ParseError(f"unexpected token {val!r}", 1, col)
            tok = peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                take()
                continue
            break
        if not saw_int and all(u == 0 for u in key) and coeff in (1, -1):
            # a bare sign with no factors is malformed, e.g. "x + "
            last = tokens[idx - 1] if idx else (None, None, 1)
            raise ParseError("empty term", 1, last[2])
        scaled = []
        for u, s, name in zip(key, ring.scales, ring.names):
            su = u * s
            if su.denominator != 1:
                raise ParseError(f"exponent {u} of {name} is off-lattice", 1, 1)
            scaled.append(int(su))
        k = tuple(scaled)
        terms[k] = terms.get(k, 0) + coeff
        tok = peek()
        if tok is None:
            break
        if not (tok[0] == "op" and tok[1] in "+-"):
            raise ParseError(f"unexpected token {tok[1]!r}", 1, tok[2])
    return Laurent(ring, terms)


# ----------------------------------------------------------------------
# eager text readers: the parsers as they were before columns were deferred
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\S+")


def eager_read_lines(text: str, header: str, keywords: tuple[str, ...]) -> Iterator:
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


def eager_parse_ribbon_graph(text: str) -> SignedRibbonGraph:
    """The ``.rg`` parser over :func:`eager_read_lines`, which checks every
    token in turn with its column at hand: the oracle of
    ``parse_ribbon_graph``, which finds a column only for an error."""
    signs: dict[str, int] | None = None
    circles: list[list[Occurrence]] = []
    keyword = None
    lines = eager_read_lines(text, "ribbon-graph v1", ("edges:", "circle:"))
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


def eager_parse_gauss(text: str) -> VirtualLinkDiagram:
    """The gauss parser over :func:`eager_read_lines`: the oracle of
    ``parse_gauss``."""
    components: list[list[Pass]] = []
    signs: dict[str, int] = {}
    for keyword, lineno, _, tokens in eager_read_lines(text, "gauss v1", ("component:",)):
        if keyword != "component:":  # the header
            continue
        comp: list[Pass] = []
        for tok, col in tokens:
            if len(tok) < 3 or tok[0] not in "OU" or tok[-1] not in "+-":
                raise ParseError(
                    f"expected (O|U)<id><+|->, got {tok!r}", lineno, col
                )
            cid = tok[1:-1]
            if _LABEL_BAD.search(cid):
                raise ParseError(f"invalid crossing id {cid!r}", lineno, col)
            sign = 1 if tok[-1] == "+" else -1
            if cid in signs and signs[cid] != sign:
                raise ParseError(
                    f"crossing {cid!r} already declared with the other sign",
                    lineno,
                    col,
                )
            signs[cid] = sign
            comp.append(Pass(cid, tok[0] == "O"))
        components.append(comp)
    if not components:
        components.append([])
    return VirtualLinkDiagram(components, signs)
