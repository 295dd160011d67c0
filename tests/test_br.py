"""Signed three-variable polynomial, its transforms, and subgraph stats."""

import random
import re
import time
from collections import Counter

import pytest

from ribbongraphs import br, links
from ribbongraphs.br import (
    BR_MAX_EDGES,
    bollobas_riordan,
    duality_invariant,
    tutte_via_br,
)
from ribbongraphs.duality import partial_dual
from ribbongraphs.errors import FractionalExponent, NegativeExponentNonUnit, TooManyEdges
from ribbongraphs.polynomial import (
    RING_XY,
    RING_XYZ,
    Laurent,
    restrict_duality_surface,
)
from ribbongraphs.links import all_A_state, kauffman_bracket, state_ribbon_graph
from ribbongraphs.ribbon import (
    SignedRibbonGraph,
    _flat,
    components,
    parse_ribbon_graph,
    stats,
)

from .helpers import (
    FIXTURES,
    SURFACE_IMAGES,
    all_subsets,
    bicycle_dimension,
    bouquet,
    braid_closure,
    bracket_terms_of,
    chord_ring,
    count_subgraphs,
    delete_edge,
    disjoint_union,
    forest,
    frontier_profiles,
    graph_corpus,
    join_blocks,
    load_graph,
    monomial_map,
    occurrences,
    one_point_join,
    plane_corpus,
    product_duality_invariant,
    product_tutte,
    r_terms_of,
    random_link,
    sized_diagram,
    sized_graph,
    spanning_tree_count,
    split_blocks,
    split_graph,
    split_profiles,
    subgraph_stats,
    subset_profiles,
    subset_sum_br,
    two_edge_block,
)


def theta():
    return SignedRibbonGraph(
        [[("a", False), ("b", False), ("c", False)],
         [("a", False), ("b", False), ("c", False)]],
        {"a": 1, "b": 1, "c": 1},
    )


def graph(*circles: str, negative: str = "") -> SignedRibbonGraph:
    """A graph from one string per circle, an apostrophe marking an
    Against occurrence, every edge positive unless in ``negative``."""
    rows = [[(t.rstrip("'"), t.endswith("'")) for t in c.split()] for c in circles]
    labels = {l for row in rows for l, _ in row}
    return SignedRibbonGraph(rows, {l: -1 if l in negative else 1 for l in labels})


def split_families() -> list[SignedRibbonGraph]:
    """Graphs that split into join blocks, or barely do not: bouquets,
    chord rings, grown composites, all-A state graphs of links and braid
    closures, and hand cases.  Every one has at most 12 edges."""
    rng = random.Random(101)
    graphs = [bouquet(e) for e in range(13)]
    graphs += [
        chord_ring(e, step, reach, flags, signs)
        for e in (3, 5, 6, 8)
        for step, reach in ((2, 1), (2, 3), (1, e))
        for flags in (((False, False),), ((False, True), (True, True)))
        for signs in ((1,), (1, -1))
    ]
    graphs += [split_graph(rng) for _ in range(100)]
    diagrams = [random_link(rng, 10) for _ in range(60)]
    diagrams += [braid_closure(rng, 10, 4) for _ in range(60)]
    graphs += [state_ribbon_graph(d, all_A_state(d)) for d in diagrams]
    graphs += [
        # one circle cuts two blocks of parallel edges off; interlaced
        # on it, they are one block, and in sequence two
        graph("a x b y", "a b", "x y"),
        graph("a b x y", "a b", "x y"),
        graph("a b'", "b a c", "c", "", negative="c"),  # parallel, a bridge
        graph("a b a b"),
        graph("a a' b b"),
        graph("a b b a", ""),
        graph("a b c a' b c'"),  # a and c interlaced, b interlaced with both
        graph("a b a c d c b d"),  # a-b and c-d alternate, b-d join them
    ]
    return graphs


def triangle():
    return SignedRibbonGraph(
        [[("a", False), ("b", False)],
         [("b", False), ("c", False)],
         [("c", False), ("a", False)]],
        {"a": 1, "b": 1, "c": 1},
    )


class TestSubgraphStats:
    def test_klein_table(self):
        g = load_graph("klein.rg")
        rows = {
            (): (2, 0, 0, 2, -2),
            ("1",): (2, 0, 1, 2, -2),
            ("2",): (1, 1, 0, 1, 0),
            ("3",): (1, 1, 0, 1, 0),
            ("1", "2"): (1, 1, 1, 1, 0),
            ("1", "3"): (1, 1, 1, 1, 0),
            ("2", "3"): (1, 1, 1, 2, 2),
            ("1", "2", "3"): (1, 1, 2, 1, 2),
        }
        for subset, expected in rows.items():
            st = subgraph_stats(g, subset)
            assert (st.k, st.r, st.n, st.f, st.s2) == expected

    def test_matches_rebuilt_subgraph(self):
        # Deleting the complement and measuring must agree with the sweep.
        for g in graph_corpus(47, 20, max_edges=5):
            for subset in all_subsets(g):
                st = subgraph_stats(g, subset)
                sub = g
                for e in g.edge_labels:
                    if e not in subset:
                        sub = delete_edge(sub, e)
                direct = stats(sub)
                assert (st.k, st.r, st.n, st.f) == (
                    direct.k,
                    direct.r,
                    direct.n,
                    direct.f,
                )

    def test_sign_balance(self):
        for g in graph_corpus(53, 20, max_edges=5):
            for subset in all_subsets(g):
                inside = sum(1 for e in subset if g.sign(e) < 0)
                outside = sum(
                    1 for e in g.edge_labels if e not in subset and g.sign(e) < 0
                )
                assert subgraph_stats(g, subset).s2 == inside - outside

    def test_full_subset_is_graph_stats(self):
        g = load_graph("klein.rg")
        st = subgraph_stats(g, g.edge_labels)
        whole = stats(g)
        assert (st.k, st.r, st.n, st.f) == (whole.k, whole.r, whole.n, whole.f)


def block_labels(g: SignedRibbonGraph) -> set[frozenset[str]]:
    """The join blocks that the split sweep cuts ``g`` into, as label sets."""
    labels = _flat(g)[0]
    found = [frozenset(labels[i] for i in block) for block in split_blocks(g)]
    assert sorted(l for block in found for l in block) == sorted(g.signs)
    return set(found)


class TestJoinBlocks:
    def test_matches_brute_force(self):
        rng = random.Random(97)
        corpus = graph_corpus(97, 300, max_edges=12)
        corpus += [
            sized_graph(rng, e, rng.randint(1, 2 * e)) for e in range(1, 13) for _ in range(25)
        ]
        corpus += split_families()
        assert any(() in g.circles for g in corpus)
        split = 0
        for g in corpus:
            found = block_labels(g)
            assert found == join_blocks(g), g
            split += len(found) > 1
        assert 0.3 < split / len(corpus) < 0.9

    def test_hand_cases(self):
        assert block_labels(graph("a x b y", "a b", "x y")) == {frozenset("abxy")}
        assert block_labels(graph("a b x y", "a b", "x y")) == {
            frozenset("ab"), frozenset("xy")
        }
        assert block_labels(graph("a b a b")) == {frozenset("ab")}
        assert block_labels(graph("a a b b")) == {frozenset("a"), frozenset("b")}
        assert block_labels(graph("a b c", "a b c")) == {frozenset("abc")}
        assert block_labels(graph("a b", "b c", "c a", "")) == {frozenset("abc")}
        assert block_labels(graph("a b a c d c b d")) == {frozenset("abcd")}
        assert block_labels(graph("", "")) == set()


def block_chain(rng: random.Random, count: int) -> SignedRibbonGraph:
    """``count`` random two-edge blocks, each joined at one point to a
    random corner of the chain before it."""
    chain = two_edge_block(rng)
    for _ in range(count - 1):
        c = rng.randrange(len(chain.circles))
        at = (c, rng.randint(0, len(chain.circles[c])))
        chain = one_point_join(chain, two_edge_block(rng), at, (0, 0))
    return chain


def shift_outcome(shift, *args):
    """The Tutte polynomial ``shift(*args)`` and its render, or the type
    and message of the error the shift raises."""
    try:
        t = shift(*args)
    except (FractionalExponent, NegativeExponentNonUnit) as err:
        return type(err), str(err)
    return t, t.render()


def assert_tutte_matches(g: SignedRibbonGraph, r: Laurent) -> bool:
    """Hold ``tutte_via_br(g)`` to ``product_tutte(g, r)``: the same
    polynomial and render, or the same error type and message, except
    that a FractionalExponent names the least half-integer power in ``r``
    of the variable it names.  True when that exponent is another than
    the product path's, which names the first in its term order."""
    got = shift_outcome(tutte_via_br, g)
    want = product = shift_outcome(product_tutte, g, r)
    if product[0] is FractionalExponent:
        head, name, _ = re.fullmatch(r"(.*: ([xy]) occurs with exponent )(\S+)", product[1]).groups()
        i = "xy".index(name)
        want = (product[0], f"{head}{min(key[i] for key in r.terms if key[i] % 2)}/2")
    assert got == want, g
    return got != product


def all_a(diagram) -> SignedRibbonGraph:
    return state_ribbon_graph(diagram, all_A_state(diagram))


def frontier_corpus() -> list[SignedRibbonGraph]:
    """Seeded graphs of up to 14 edges for the frontier engine: random
    graphs, sized ones with one circle or many, the split families,
    bouquets, forests, chord rings, plane graphs, and the all-A state
    graphs of braid closures and of random Gauss codes."""
    rng = random.Random(113)
    corpus = graph_corpus(113, 300, max_edges=12)
    corpus += [sized_graph(rng, e, 1) for e in range(8, 15) for _ in range(3)]
    corpus += [
        sized_graph(rng, e, rng.randint(2, 2 * e)) for e in range(8, 15) for _ in range(6)
    ]
    corpus += split_families()
    corpus += [bouquet(e) for e in range(8, 15)]
    corpus += [chord_ring(e, 2, 2 * e // 3 | 1, ((False, True),), (1, -1)) for e in range(8, 15)]
    corpus += plane_corpus(113, 60, grows=6)
    corpus += [all_a(braid_closure(rng, 14, 5)) for _ in range(40)]
    corpus += [all_a(sized_diagram(rng, n, rng.randint(1, 3))) for n in range(4, 15) for _ in range(4)]
    # either side of the 8 edges where the sweep of all subsets once
    # handed over to the engine
    rng = random.Random(127)
    corpus += [sized_graph(rng, e, rng.randint(1, 2 * e)) for e in (7, 8) for _ in range(12)]
    corpus += [bouquet(7), bouquet(8), forest(7), forest(8)]
    corpus += [all_a(sized_diagram(rng, n, 1)) for n in (7, 8) for _ in range(6)]
    return corpus


def wrong_callers(g: SignedRibbonGraph, hist: dict) -> list[str]:
    """The engine's callers whose own key on ``g`` differs from the 4-field
    histogram ``hist`` mapped through the exponent formulas.  R carries
    the component partition; the invariant and the bracket do not."""
    runs = (
        ("R", br._r_terms(g, False), r_terms_of(g, hist, False)),
        ("invariant", br._r_terms(g, True), r_terms_of(g, hist, True)),
        ("bracket", links._bracket_terms(g), bracket_terms_of(g, hist)),
    )
    return [name for name, got, want in runs if got != want]


class TestFrontier:
    """The frontier engine of ``br._subgraph_profiles``, in its 4-field
    view and with each caller's key, against the split sweep
    (``split_profiles``) and one rebuild per subset."""

    def test_matches_split_sweep_and_subsets(self):
        corpus = frontier_corpus()
        sizes = {g.num_edges for g in corpus}
        assert set(range(15)) <= sizes
        assert any(() in g.circles for g in corpus)
        assert any(len(components(g)) >= 3 for g in corpus)
        assert sum(g.num_vertices == 1 and g.num_edges >= 12 for g in corpus) >= 6
        checked = 0
        for g in corpus:
            hist, want = frontier_profiles(g), split_profiles(g)
            assert hist == want, g
            assert sum(hist.values()) == 2**g.num_edges
            assert wrong_callers(g, want) == [], g
            if g.num_edges <= 9 or g.num_edges <= 11 and checked < 40:
                checked += g.num_edges > 9
                assert hist == subset_profiles(g), g
        assert checked == 40

    def test_any_edge_order(self, monkeypatch):
        # The plan holds for whatever order decides the edges: with seeded
        # random permutations in place of _edge_order, the 4-field
        # histogram is the split sweep's and, up to 9 edges, one rebuild
        # per subset's, and each caller's key maps from it, so both the
        # path that carries the partition and the one that drops it hold.
        rng = random.Random(139)

        def shuffled(edges, sigma):
            order = list(range(len(edges)))
            rng.shuffle(order)
            return order

        monkeypatch.setattr(br, "_edge_order", shuffled)
        for g in frontier_corpus():
            want = split_profiles(g)
            for _ in range(3):
                assert frontier_profiles(g) == want, g
            assert wrong_callers(g, want) == [], g
            if g.num_edges <= 9:
                assert frontier_profiles(g) == subset_profiles(g), g

    @pytest.mark.parametrize(
        "caller, field, value",
        [
            ("invariant", "component", (0, 1)),  # also carries the partition
            ("invariant", "cycle", (1, 0)),
            ("R", "cycle", (0, 0, 0)),
            ("bracket", "cycle", (0, 0, 0)),
        ],
    )
    def test_a_wrong_increment_is_caught(self, monkeypatch, caller, field, value):
        # Mutation check: one faulty increment in one caller's key, and
        # the differential check above names that caller.
        engine = br._subgraph_profiles

        def faulty(g, *steps):
            component, start = steps[3:]
            if {2: "invariant", 3: "R" if any(component) else "bracket"}.get(len(start)) == caller:
                steps = list(steps)
                steps[("positive", "negative", "cycle", "component", "start").index(field)] = value
            return engine(g, *steps)

        monkeypatch.setattr(br, "_subgraph_profiles", faulty)
        monkeypatch.setattr(links, "_subgraph_profiles", faulty)  # bound at import
        caught = [g for g in graph_corpus(151, 40) if caller in wrong_callers(g, split_profiles(g))]
        assert len(caught) >= 10

    def test_fields_hold_at_the_guard(self):
        # The packed key carries negative increments and a start bias, so
        # at the 24-edge guard no field may spill into its neighbour: R,
        # the invariant, the bracket and the Tutte shift of R all equal
        # the exponent maps of the 4-field histogram, on graphs that
        # stretch one field each: 24 loops on one circle, 25 circles, 24
        # negative edges, and circles with no occurrence.
        rng = random.Random(157)
        chain = block_chain(rng, 12)
        negative = SignedRibbonGraph(chain.circles, dict.fromkeys(chain.signs, -1))
        empties = SignedRibbonGraph([*block_chain(rng, 12).circles, (), (), ()], dict(chain.signs))
        graphs = [bouquet(BR_MAX_EDGES), forest(BR_MAX_EDGES), negative, empties]
        assert all(g.num_edges == BR_MAX_EDGES for g in graphs)
        assert empties.circles.count(()) == 3 and set(negative.signs.values()) == {-1}
        for g in graphs:
            hist = frontier_profiles(g)
            assert hist == split_profiles(g), g
            r = bollobas_riordan(g)
            assert r.terms == r_terms_of(g, hist, False), g
            assert duality_invariant(g).terms == r_terms_of(g, hist, True), g
            assert links._bracket_terms(g) == bracket_terms_of(g, hist), g
            assert sum(r.terms.values()) == 2**BR_MAX_EDGES
            assert sum(duality_invariant(g).terms.values()) == 2**BR_MAX_EDGES
            assert_tutte_matches(g, Laurent(RING_XYZ, r_terms_of(g, hist, False)))
        # the shift of the all-negative chain raises, so its error path is held too
        assert shift_outcome(tutte_via_br, negative)[0] is NegativeExponentNonUnit

    def test_edge_order_is_a_deterministic_permutation(self):
        # Every edge is decided once, in an order fixed by the graph alone:
        # the same again, and the same for an equal graph built afresh.
        for g in frontier_corpus():
            edges = br._edges(g)
            order = br._edge_order(edges, _flat(g)[4])
            assert sorted(order) == list(range(len(edges))), g
            assert br._edge_order(edges, _flat(g)[4]) == order, g
            h = SignedRibbonGraph(g.circles, dict(g.signs))
            assert br._edge_order(br._edges(h), _flat(h)[4]) == order, g

    def test_edge_order_breaks_ties_by_lookahead(self):
        # On the circle 1 2 3 3 4 4 2 1, the arcs of edges 1, 3 and 4 each
        # lead twice to the edge itself.  The other arcs of 3 and of 4 lead
        # to each other (score 2) and to 2 (score 0), those of 1 only to 2,
        # so 3 goes first and not 1, the lowest occurrence.  Then 4 scores
        # 3, and 1 and 2 tie at 2 with equal lookahead, so 1 goes before 2.
        g = parse_ribbon_graph("edges: 1:+ 2:+ 3:+ 4:-\ncircle: 1 2 3 3 4 4 2 1\n")
        labels, edges = _flat(g)[0], br._edges(g)
        order = br._edge_order(edges, _flat(g)[4])
        assert [labels[edges[n][0] >> 1] for n in order] == ["3", "4", "1", "2"]

    def test_planned_widths(self):
        # The plan's width after step t is, by definition, the number of
        # corners whose arc's far end is decided by step t and whose own
        # edge is not.  Those corners hold distinct slots, and once every
        # edge is decided the frontier is empty.
        for g in frontier_corpus():
            sigma, edges = _flat(g)[4], br._edges(g)
            due = [0] * len(sigma)  # the step that decides each corner's edge
            for t, n in enumerate(br._edge_order(edges, sigma)):
                for x in edges[n][:4]:
                    due[x] = t
            slot, steps, widths = br._plan(g)
            assert len(steps) == len(widths) == len(edges), g
            for t, width in enumerate(widths):
                frontier = [x for x in range(len(sigma)) if due[sigma[x]] <= t < due[x]]
                assert width == len(frontier) == len({slot[x] for x in frontier}), g
                assert min((slot[x] for x in frontier), default=0) >= 0, g
            assert widths == [] or widths[-1] == 0, g

    def test_guard_size_in_time(self):
        # At the 24-edge guard the frontier stays narrow: R and the
        # bracket each finish in well under 2 s of process time, where the
        # whole sweep would take 2^24 subsets.
        rng = random.Random(131)
        graphs = [sized_graph(rng, BR_MAX_EDGES, 1) for _ in range(3)]
        graphs.append(chord_ring(BR_MAX_EDGES, 2, 7))
        for g in graphs:
            start = time.process_time()
            p = bollobas_riordan(g)
            assert time.process_time() - start < 2.0, g
            assert sum(p.terms.values()) == 2**BR_MAX_EDGES
        for strands in (1, 2, 3):
            diagram = sized_diagram(rng, BR_MAX_EDGES, strands)
            start = time.process_time()
            p = kauffman_bracket(diagram)
            assert time.process_time() - start < 2.0, diagram
            assert sum(p.terms.values()) == 2**BR_MAX_EDGES


class TestBollobasRiordan:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("klein.rg", "x*y*z^2 + y^2*z + 2*y*z + x + y + 2"),
            ("torus.rg", "y^2*z^2 + 2*y + 1"),
            ("annulus.rg", "y + 1"),
            ("mobius.rg", "y*z + 1"),
            ("bridge.rg", "x + 1"),
            ("isolated.rg", "1"),
        ],
    )
    def test_goldens(self, name, expected):
        assert bollobas_riordan(load_graph(name)).render() == expected

    def test_negative_bridge_half_powers(self):
        g = SignedRibbonGraph([[("b", False)], [("b", False)]], {"b": -1})
        assert bollobas_riordan(g).render() == "x^(1/2)*y^(1/2) + x^(1/2)*y^(-1/2)"

    def test_edgeless(self):
        g = SignedRibbonGraph([[], [], []], {})
        assert bollobas_riordan(g) == Laurent.const(RING_XYZ, 1)

    def test_multiplicative_under_unions(self):
        # twelve two-edge blocks joined in a chain: 2^24 subsets, but the
        # planned frontier never holds more than six corners (nor empties
        # before the last step: two arcs link the parts of each join), so
        # no layer holds more than a few states
        rng = random.Random(59)
        blocks = [two_edge_block(rng) for _ in range(12)]
        chain = blocks[0]
        for block in blocks[1:]:
            c = rng.randrange(len(chain.circles))
            chain = one_point_join(
                chain, block, (c, rng.randint(0, len(chain.circles[c]))), (0, 0)
            )
        assert chain.num_edges == BR_MAX_EDGES and len(block_labels(chain)) == 12
        start = time.process_time()
        product = Laurent.const(RING_XYZ, 1)
        for block in blocks:
            product = product * bollobas_riordan(block)
        assert bollobas_riordan(chain) == product
        assert time.process_time() - start < 0.5

        corpus = graph_corpus(59, 12, max_edges=4)
        for g, h in zip(corpus[::2], corpus[1::2]):
            rg, rh = bollobas_riordan(g), bollobas_riordan(h)
            assert bollobas_riordan(disjoint_union(g, h)) == rg * rh
            cg = rng.randrange(len(g.circles))
            ch = rng.randrange(len(h.circles))
            join = one_point_join(
                g,
                h,
                (cg, rng.randint(0, len(g.circles[cg]))),
                (ch, rng.randint(0, len(h.circles[ch]))),
            )
            assert bollobas_riordan(join) == rg * rh

    def test_matches_subset_engine_oracle(self):
        # The subgraph histogram against one rebuild per subset, on graphs
        # larger than the other tests use.
        rng = random.Random(73)
        corpus = graph_corpus(73, 300, max_edges=10)
        corpus += [sized_graph(rng, e, rng.randint(1, 2 * e)) for e in (11, 12) for _ in range(15)]
        corpus += split_families()
        sizes = [g.num_edges for g in corpus]
        assert 0 in sizes and 12 in sizes
        assert any(() in g.circles for g in corpus)
        assert any(len(components(g)) >= 3 for g in corpus)
        for g in corpus:
            fast, slow = bollobas_riordan(g), subset_sum_br(g)
            assert fast == slow, g
            assert fast.render() == slow.render()

    def test_term_count_bound(self):
        g = load_graph("klein.rg")
        p = bollobas_riordan(g)
        assert sum(p.terms.values()) == 2**g.num_edges

    def test_guard(self):
        # one edge over the constant; the guard trips before the
        # histogram, and counts edges, not the frontier engine's states
        message = r"^25 edges exceed the state-sum guard of 24 \(2\^25 subsets\)$"
        for g in (bouquet(BR_MAX_EDGES + 1), forest(BR_MAX_EDGES + 1)):
            with pytest.raises(TooManyEdges, match=message):
                bollobas_riordan(g)
        assert BR_MAX_EDGES == 24


def product_path_corpus() -> list[SignedRibbonGraph]:
    """Graphs on which the exponent-key maps meet their product paths:
    random graphs to e = 12, the benchmark's cells, the fixtures, the
    graph with no circles (R = 1 and k = v = 0, so the invariant restricts
    z alone), empty circles and graphs of several components."""
    rng = random.Random(131)
    corpus = graph_corpus(131, 250, max_edges=12)
    for e, v in ((10, 8), (11, 6), (12, 1)):
        corpus += [sized_graph(rng, e, v) for _ in range(6)]
    corpus += [load_graph(path.name) for path in sorted(FIXTURES.glob("*.rg"))]
    none = parse_ribbon_graph("edges:")
    corpus += [none, SignedRibbonGraph([(), ()], {}), bouquet(3), forest(4)]
    for a, b in zip(corpus[:80:2], corpus[1:80:2]):
        if a.num_edges + b.num_edges <= 12:
            corpus.append(disjoint_union(a, b))
    assert max(g.num_edges for g in corpus) == 12
    assert sum(() in g.circles for g in corpus) > 20
    assert sum(len(components(g)) >= 3 for g in corpus) > 20
    return corpus


class TestDualityInvariant:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("torus.rg", "2*y + 1 + x^(-1)*y"),
            ("annulus.rg", "y + 1"),
            ("mobius.rg", "1 + x^(-1/2)*y^(1/2)"),
            ("bridge.rg", "x^(1/2)*y^(1/2) + x^(-1/2)*y^(1/2)"),
            (
                "klein.rg",
                "x^(1/2)*y^(1/2) + x^(-1/2)*y^(3/2) + x^(-1)*y^2"
                " + 3*x^(-1/2)*y^(1/2) + 2*x^(-1)*y",
            ),
        ],
    )
    def test_goldens(self, name, expected):
        assert duality_invariant(load_graph(name)).render() == expected

    def test_direct_restriction_matches_monomial_map(self):
        # The key map (a, b, c) -> (a - c, b - c) against the general
        # Fraction-based monomial map, on R and on the shifted R that
        # duality_invariant restricts.
        collisions = 0
        corpus = graph_corpus(83, 300, max_edges=10)
        assert max(g.num_edges for g in corpus) == 10
        for g in corpus:
            s = stats(g)
            r = bollobas_riordan(g)
            shift = Laurent.monomial(RING_XYZ, (2 * s.k, 2 * s.v, s.v + 1))
            for p in (r, shift * r):
                fast = restrict_duality_surface(p)
                slow = monomial_map(p, RING_XY, SURFACE_IMAGES)
                assert fast == slow, g
                assert fast.render() == slow.render()
                # R has positive coefficients, so fewer terms means keys met
                collisions += len(fast.terms) < len(p.terms)
        assert collisions > 0

    def test_matches_product_path(self):
        # The exponent-key map against the product x^k y^v z^(v+1) R and
        # the restriction it replaced, k from a components walk.
        none = parse_ribbon_graph("edges:")
        for g in product_path_corpus():
            fast, slow = duality_invariant(g), product_duality_invariant(g)
            assert fast == slow, g
            assert fast.render() == slow.render()
        assert none.num_vertices == 0
        assert duality_invariant(none).render() == "x^(-1/2)*y^(-1/2)"

    def test_no_polynomial_products(self, monkeypatch):
        # The invariant is read off R's exponent keys: with the Laurent
        # product and power disabled it still computes every fixture.
        names = [path.name for path in sorted(FIXTURES.glob("*.rg"))]
        expected = [product_duality_invariant(load_graph(name)) for name in names]

        def refuse(*args):
            raise AssertionError("a Laurent product or power was computed")

        for op in ("__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(Laurent, op, refuse)
        with pytest.raises(AssertionError):
            Laurent.const(RING_XY, 1) * Laurent.const(RING_XY, 1)
        for name, want in zip(names, expected):
            assert duality_invariant(load_graph(name)) == want, name

    def test_stable_under_partial_duals(self):
        for name in ("torus.rg", "klein.rg", "mobius.rg"):
            g = load_graph(name)
            inv = duality_invariant(g)
            for subset in all_subsets(g):
                assert duality_invariant(partial_dual(g, subset)) == inv


class TestTutte:
    def test_parallel_and_cycle(self):
        assert tutte_via_br(theta()).render() == "y^2 + x + y"
        assert tutte_via_br(triangle()).render() == "x^2 + x + y"

    def test_loops_and_bridges(self):
        assert tutte_via_br(load_graph("torus.rg")).render() == "y^2"
        assert tutte_via_br(load_graph("bridge.rg")).render() == "x"
        assert tutte_via_br(load_graph("isolated.rg")).render() == "1"

    def test_classic_evaluations(self):
        # T(1,1) counts spanning trees, T(2,2) all spanning subgraphs.
        t = tutte_via_br(theta())
        one = (1, 1)
        assert t.evaluate(one) == 3
        assert t.evaluate((2, 2)) == 8
        assert t.evaluate((2, 1)) == 4  # forests
        assert t.evaluate((1, 2)) == 7  # connected spanning subgraphs

    def test_embedding_independent(self):
        # Two embeddings of the same underlying graph share the Tutte
        # polynomial even when their surfaces differ.
        flat = SignedRibbonGraph(
            [[("a", False), ("a", False), ("b", False), ("b", False)]],
            {"a": 1, "b": 1},
        )
        twisted = SignedRibbonGraph(
            [[("a", False), ("b", False), ("a", False), ("b", False)]],
            {"a": 1, "b": 1},
        )
        assert stats(flat).genus_or_crosscap != stats(twisted).genus_or_crosscap
        assert tutte_via_br(flat) == tutte_via_br(twisted)

    def test_signed_graph_rejected(self):
        g = SignedRibbonGraph([[("b", False)], [("b", False)]], {"b": -1})
        with pytest.raises(FractionalExponent):
            tutte_via_br(g)

    def test_matches_product_path(self):
        # The map on R's keys against the substitutions it replaced, in
        # value and render, on the duality invariant's corpus; its signed
        # graphs hold the error path too.
        shifted = 0
        for g in product_path_corpus():
            assert_tutte_matches(g, bollobas_riordan(g))
            shifted += isinstance(shift_outcome(tutte_via_br, g)[0], Laurent)
        assert shifted > 40

    def test_signed_graphs_raise_as_the_product_path(self):
        # Seeded signed graphs with each way the shift fails: an odd count
        # of negative edges gives half-integer powers, and an even count
        # negative powers of x only or of y only.  The error's type and
        # text are the product path's, but for the exponent a
        # FractionalExponent names: the least, where the product path
        # named the first in its term order, so some messages differ.
        rng = random.Random(163)
        corpus = [sized_graph(rng, e, rng.randint(1, 2 * e)) for e in range(1, 10) for _ in range(60)]
        cases, renamed = Counter(), 0
        for g in corpus:
            r = bollobas_riordan(g)
            minus = sum(sign < 0 for sign in g.signs.values())
            x, y = (any(key[i] < 0 for key in r.terms) for i in (0, 1))
            cases["odd" if minus % 2 else "x only" if x and not y else "y only" if y and not x else "other"] += 1
            renamed += assert_tutte_matches(g, r)
        assert min(cases["odd"], cases["x only"], cases["y only"]) >= 20, cases
        assert renamed > 0

    def test_matches_networkx(self):
        # networkx computes T of the underlying multigraph, circles as
        # vertices and edge labels as edges, by its own recursion.
        nx = pytest.importorskip("networkx")
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        seen = set()
        for g in graph_corpus(89, 100, max_edges=10):
            g = SignedRibbonGraph(g.circles, dict.fromkeys(g.signs, 1))
            multigraph = nx.MultiGraph()
            multigraph.add_nodes_from(range(g.num_vertices))
            ends: dict[str, list[int]] = {}
            for _, ci, _, occ in occurrences(g):
                ends.setdefault(occ.label, []).append(ci)
            multigraph.add_edges_from(ends.values())
            expected = sympy.Poly(nx.tutte_polynomial(multigraph), x, y).as_dict()
            got = {
                (i // 2, j // 2): coeff
                for (i, j), coeff in tutte_via_br(g).terms.items()
            }
            assert got == {key: int(c) for key, c in expected.items()}, g
            if any(u == w for u, w in ends.values()):
                seen.add("loop")
            if len(set(map(frozenset, ends.values()))) < len(ends):
                seen.add("parallel")
            if nx.number_connected_components(multigraph) > 1:
                seen.add("components")
            if () in g.circles:
                seen.add("empty circle")
        assert seen == {"loop", "parallel", "components", "empty circle"}

    @staticmethod
    def tree_and_bicycle_sums(g: SignedRibbonGraph) -> tuple[int, int]:
        # T(1,1) and T(-1,-1) off R's keys (a, b, c): R(x-1, y-1, 1) on an
        # all-positive graph is the sum of n (x-1)^(a/2) (y-1)^(b/2).
        terms = br._r_terms(g, False)
        trees = sum(n for (a, b, _), n in terms.items() if a == b == 0)
        return trees, sum(n * (-2) ** ((a + b) // 2) for (a, b, _), n in terms.items())

    def test_tree_and_bicycle_oracles(self):
        # The two oracles against brute force on small graphs: Kirchhoff
        # against counted maximal spanning forests, and Rosenstiehl and
        # Read's T(-1,-1) = (-1)^e (-2)^dim B against R.
        dims = set()
        for g in graph_corpus(211, 120, max_edges=8):
            g = SignedRibbonGraph(g.circles, dict.fromkeys(g.signs, 1))
            assert spanning_tree_count(g) == count_subgraphs(g)["trees"], g
            trees, at_minus_one = self.tree_and_bicycle_sums(g)
            assert trees == spanning_tree_count(g), g
            dims.add(bicycle_dimension(g))
            assert at_minus_one == (-1) ** g.num_edges * (-2) ** bicycle_dimension(g), g
        assert len(dims) >= 3, dims

    def test_tree_and_bicycle_counts_past_the_guard(self, monkeypatch):
        # R of all-positive graphs with 32-40 edges, beyond any 2^e sum,
        # against two identities that cost none (Kirchhoff's matrix-tree
        # theorem; the bicycle theorem of Rosenstiehl and Read, Ann.
        # Discrete Math. 3, 1978).  About 2 s.
        monkeypatch.setattr(br, "BR_MAX_EDGES", 64)
        for e in (32, 34, 36, 38, 40):
            for s in (0, 1):
                g = sized_graph(random.Random(1000 * e + s), e, e // 2)
                g = SignedRibbonGraph(g.circles, dict.fromkeys(g.signs, 1))
                trees, at_minus_one = self.tree_and_bicycle_sums(g)
                assert trees == spanning_tree_count(g), (e, s)
                assert at_minus_one == (-1) ** e * (-2) ** bicycle_dimension(g), (e, s)


class TestMainDualityTheorem:
    def test_invariant_equal_across_all_duals(self):
        for g in graph_corpus(61, 10, max_edges=5):
            inv = duality_invariant(g)
            for subset in all_subsets(g):
                assert duality_invariant(partial_dual(g, subset)) == inv

    def test_monomial_correction_between_duals(self):
        # x^k(G) y^v(G) z^(v(G)+1) R(G) and the dual's counterpart agree
        # on the surface; off the surface the raw polynomials differ.
        g = load_graph("torus.rg")
        d = partial_dual(g, {"1"})
        assert bollobas_riordan(g) != bollobas_riordan(d)
        assert duality_invariant(g) == duality_invariant(d)
