"""Partial duality, contraction, deletion, edge classes, orbits."""

import random
import re

import pytest

from ribbongraphs import duality
from ribbongraphs.duality import DUAL_ORBIT_MAX_EDGES, dual_orbit, partial_dual
from ribbongraphs.errors import TooManyEdges, UnknownEdge
from ribbongraphs.links import (
    all_A_state,
    all_B_state,
    parse_gauss,
    seifert_state,
    serialize_gauss,
    state_ribbon_graph,
    VirtualLinkDiagram,
)
from ribbongraphs.ribbon import (
    Occurrence,
    SignedRibbonGraph,
    is_isomorphic,
    _flat,
    parse_ribbon_graph,
    serialize_ribbon_graph,
    stats,
)

from .helpers import (
    EdgeClass,
    all_subsets,
    arc_partial_dual,
    bouquet,
    chord_ring,
    classify_edge,
    contract_edge,
    delete_edge,
    diagram_corpus,
    dual_corpus,
    graph_corpus,
    labeled_stabilizer,
    load_graph,
    mask_orbit,
    sized_graph,
    subgraph_stats,
    table_builds,
    traced_partial_dual,
    with_bridge,
    with_nontrivial_loop,
    with_ordinary,
    with_trivial_loop,
)


class TestPartialDual:
    def test_empty_subset_is_identity(self):
        for g in graph_corpus(3, 25):
            assert partial_dual(g, set()) == g

    def test_matches_reduced_arc_oracle(self):
        rng = random.Random(2024)
        seen = set()
        for g in graph_corpus(77, 3000, max_edges=8):
            labels = g.edge_labels
            subset = [l for l in labels if rng.random() < 0.5]
            got, want = partial_dual(g, subset), arc_partial_dual(g, subset)
            assert serialize_ribbon_graph(got) == serialize_ribbon_graph(want)
            assert got == want
            seen.add("e=0" if not labels else "e>0")
            if labels:
                seen.add({0: "empty", len(labels): "full"}.get(len(subset), "part"))
            if any(not circle for circle in g.circles):
                seen.add("empty circle")
        assert seen == {"e=0", "e>0", "empty", "full", "part", "empty circle"}

    def test_matches_traced_oracle(self):
        # The table walk against the _trace path it replaced, on sized
        # graphs up to e = 12, bouquets and graphs with empty circles,
        # with empty, full and partial subsets.
        seen = set()
        for g, subset in dual_corpus():
            got, want = partial_dual(g, subset), traced_partial_dual(g, subset)
            assert got == want and repr(got) == repr(want)
            assert all(type(o.against) is bool for c in got.circles for o in c)
            seen.add({0: "empty", len(g.signs): "full"}.get(len(subset), "part"))
            seen.add(f"e={g.num_edges}")
            if () in g.circles:
                seen.add("empty circle")
            if len(g.circles) == 1 and all(o.label.startswith("e") for o in g.circles[0]):
                seen.add("bouquet")
        assert {"empty", "full", "part", "e=0", "e=12", "empty circle", "bouquet"} <= seen

    def test_torus_single_edge(self):
        g = load_graph("torus.rg")
        d = partial_dual(g, {"1"})
        assert d == SignedRibbonGraph(
            [[("2", True), ("1", False)], [("2", False), ("1", True)]],
            {"1": -1, "2": 1},
        )

    def test_torus_all_edges(self):
        g = load_graph("torus.rg")
        d = partial_dual(g, {"1", "2"})
        assert d.signs == {"1": -1, "2": -1}
        assert is_isomorphic(d, g, ignore_signs=True)

    def test_bridge_becomes_trivial_loop(self):
        d = partial_dual(load_graph("bridge.rg"), {"b"})
        assert d == SignedRibbonGraph([[("b", False), ("b", False)]], {"b": -1})
        assert classify_edge(d, "b") == EdgeClass(
            kind="loop", orientable=True, trivial=True
        )

    def test_mobius_self_dual(self):
        g = load_graph("mobius.rg")
        d = partial_dual(g, {"e"})
        assert is_isomorphic(d, g, ignore_signs=True)
        assert not stats(d).orientable

    def test_unknown_edge(self):
        with pytest.raises(UnknownEdge):
            partial_dual(load_graph("torus.rg"), {"zz"})

    def test_a_bare_string_names_one_edge(self):
        # set("12") would be {"1", "2"}: two other edges, or none at all.
        g = parse_ribbon_graph("edges: 1:+ 2:+ 12:+\ncircle: 1 2 12 1 2 12\n")
        assert partial_dual(g, "12") == partial_dual(g, {"12"})
        assert partial_dual(g, "12") != partial_dual(g, {"1", "2"})
        with pytest.raises(UnknownEdge, match=r"\['ab'\]"):
            partial_dual(g, "ab")

    def test_every_iterable_names_the_same_edges(self):
        # Any iterable (a one-shot generator too) is copied once into a
        # set, and a str is one edge: all give the same dual, with the
        # signs in label order.
        g = parse_ribbon_graph("edges: 1:+ 2:- 12:+ b:-\ncircle: 1 2 12 b' 1 2' 12 b\n")
        for labels in (["12"], ["1", "12"], ["b", "2", "1"], list(g.signs)):
            forms = [list(labels), tuple(labels), set(labels), frozenset(labels)]
            forms.append(label for label in labels)
            if len(labels) == 1:
                forms.append(labels[0])
            want = partial_dual(g, set(labels))
            for edges in forms:
                got = partial_dual(g, edges)
                assert got == want and repr(got) == repr(want), type(edges)
                assert list(got.signs) == list(g.signs) == sorted(g.signs)
                assert {l for l in g.signs if got.signs[l] != g.signs[l]} == set(labels)

    def test_the_callers_set_is_kept(self):
        g = load_graph("klein.rg")
        chosen, frozen = {"1", "3"}, frozenset({"2"})
        partial_dual(g, chosen)
        partial_dual(g, frozen)
        assert chosen == {"1", "3"} and frozen == frozenset({"2"})
        assert g == load_graph("klein.rg")

    def test_unknown_edges_are_named_sorted(self):
        # Eight unknown labels, so that no set order is sorted by chance.
        g = load_graph("torus.rg")
        unknown = ["zz", "q", "aa", "m7", "b", "x", "c", "k"]
        message = re.escape(str(sorted(unknown)))
        for edges in (
            {*unknown, "1"},
            frozenset(unknown),
            [*unknown, "2"],
            tuple(unknown[::-1]),
            (label for label in unknown),
        ):
            with pytest.raises(UnknownEdge, match=message):
                partial_dual(g, edges)
        with pytest.raises(UnknownEdge, match=r"\['zz'\]"):
            partial_dual(g, "zz")

    def test_signs_flip_only_on_subset(self):
        g = load_graph("klein.rg")
        d = partial_dual(g, {"1", "3"})
        assert d.signs == {"1": -1, "2": -1, "3": 1}

    def test_orientability_and_connectivity_preserved(self):
        # Proper subsets may change the surface, but never orientability,
        # connectivity, or the edge count; the full dual keeps the surface.
        for g in graph_corpus(7, 20, max_edges=5):
            base = stats(g)
            for subset in all_subsets(g):
                st = stats(partial_dual(g, subset))
                assert st.orientable == base.orientable
                assert st.k == base.k
                assert st.e == base.e
            full = stats(partial_dual(g, g.edge_labels))
            assert full.chi_closed == base.chi_closed

    def test_vertex_count_from_subgraph_boundary(self):
        # Dualizing E' turns the boundary of the spanning subgraph
        # (V, E') into the new vertex set.
        for g in graph_corpus(11, 20, max_edges=5):
            for subset in all_subsets(g):
                d = partial_dual(g, subset)
                assert d.num_vertices == subgraph_stats(g, subset).f


def assert_as_checked(g: SignedRibbonGraph) -> None:
    """``g``, built without the constructor's checks, equals its rebuild
    through them: same circles, signs and repr, ``Occurrence`` tuples with
    bool flags (``==`` takes 1 for True), and signs in the same order.
    Neither has built its occurrence table yet."""
    checked = SignedRibbonGraph(g.circles, g.signs)
    assert g._table is None and checked._table is None
    assert g == checked
    assert repr(g) == repr(checked)
    assert list(g.signs.items()) == list(checked.signs.items())
    assert type(g.circles) is tuple
    for circle in g.circles:
        assert type(circle) is tuple
        for occ in circle:
            assert type(occ) is Occurrence and type(occ.against) is bool, g


class TestDerivedGraphs:
    def test_labels_keep_label_order(self):
        # edge_labels and crossing_ids read the signs in the order they are
        # kept, so the constructors, partial duals and state graphs must
        # keep them sorted as strings: "10" before "2".
        g = parse_ribbon_graph("edges: 2:+ 10:- 1:+ b:- a:+\ncircle: 2 10 1' b\ncircle: a 2 10' a' 1 b\n")
        order = ("1", "10", "2", "a", "b")
        for subset in all_subsets(g):
            h = partial_dual(g, subset)
            assert h.edge_labels == tuple(h.signs) == order, subset
            assert partial_dual(h, subset).edge_labels == order, subset
        d = VirtualLinkDiagram([[("3", True), ("10", False), ("2", True)],
                                [("10", True), ("2", False), ("3", False)]],
                               {"3": 1, "2": -1, "10": 1})
        assert d.crossing_ids == tuple(d.signs) == ("10", "2", "3")
        bits = {"10": "B", "2": "A", "3": "B"}
        for state in (seifert_state(d), all_A_state(d), all_B_state(d), bits):
            h = state_ribbon_graph(d, state)
            assert h.edge_labels == tuple(h.signs) == ("10", "2", "3"), state
            assert partial_dual(h, ["2", "3"]).edge_labels == ("10", "2", "3"), state

    def test_equal_values_hash_equal(self):
        # The hashes read the signs in the order they are kept, unsorted,
        # so equal graphs and diagrams built by different paths must keep
        # them in one order.
        def same(a, b):
            assert a == b and hash(a) == hash(b) and list(a.signs) == list(b.signs)

        rng = random.Random(3493)
        for g in graph_corpus(3493, 200, max_edges=8):
            same(g, SignedRibbonGraph(g.circles, dict(reversed(g.signs.items()))))
            same(g, partial_dual(g, ()))
            same(g, parse_ribbon_graph(serialize_ribbon_graph(g)))
        for d in diagram_corpus(3494, 200, max_crossings=11):
            same(d, VirtualLinkDiagram(d.components, dict(reversed(d.signs.items()))))
            same(d, parse_gauss(serialize_gauss(d)))
            bits = {cid: rng.choice("AB") for cid in d.crossing_ids}
            for state in (seifert_state(d), all_A_state(d), all_B_state(d), bits):
                h = state_ribbon_graph(d, state)
                same(h, parse_ribbon_graph(serialize_ribbon_graph(h)))
                same(h, SignedRibbonGraph(h.circles, dict(reversed(h.signs.items()))))

    def test_partial_duals(self):
        rng = random.Random(3490)
        graphs = graph_corpus(3490, 600, max_edges=10)
        graphs += [bouquet(e) for e in range(1, 9)]
        assert any(() in g.circles for g in graphs)
        for g in graphs:
            for _ in range(3):
                assert_as_checked(
                    partial_dual(g, [l for l in g.signs if rng.random() < 0.5])
                )
            assert_as_checked(partial_dual(g, g.signs))

    def test_state_graphs(self):
        # ids 1..11 sort as strings ("10" before "2"), as the signs must
        rng = random.Random(3492)
        for d in diagram_corpus(3492, 300, max_crossings=11):
            bits = {cid: rng.choice("AB") for cid in d.crossing_ids}
            for state in (seifert_state(d), all_A_state(d), all_B_state(d), bits):
                assert_as_checked(state_ribbon_graph(d, state))


class TestDualityLemmas:
    def test_involution_up_to_iso(self):
        for g in graph_corpus(13, 15, max_edges=4):
            for subset in all_subsets(g):
                again = partial_dual(partial_dual(g, subset), subset)
                assert is_isomorphic(again, g)

    def test_composition_one_edge_at_a_time(self):
        for g in graph_corpus(19, 15, max_edges=4):
            for subset in all_subsets(g):
                step = g
                for e in sorted(subset):
                    step = partial_dual(step, {e})
                assert is_isomorphic(step, partial_dual(g, subset))

    def test_symmetric_difference(self):
        rng = random.Random(29)
        for g in graph_corpus(29, 15, max_edges=5):
            labels = list(g.edge_labels)
            a = {l for l in labels if rng.random() < 0.5}
            b = {l for l in labels if rng.random() < 0.5}
            lhs = partial_dual(partial_dual(g, a), b)
            rhs = partial_dual(g, a ^ b)
            assert is_isomorphic(lhs, rhs)


class TestDeleteContract:
    def test_delete_removes_ribbon(self):
        g = load_graph("klein.rg")
        d = delete_edge(g, "2")
        assert d.edge_labels == ("1", "3")
        assert [o.token() for o in d.circles[0]] == ["1", "1'", "3"]

    def test_contract_is_dual_then_delete(self):
        for g in graph_corpus(37, 20, max_edges=5):
            for e in g.edge_labels:
                assert contract_edge(g, e) == delete_edge(partial_dual(g, {e}), e)

    def test_contract_bridge_merges(self):
        c = contract_edge(load_graph("bridge.rg"), "b")
        assert c == SignedRibbonGraph([[]], {})

    def test_contract_loop_splits(self):
        c = contract_edge(load_graph("torus.rg"), "1")
        assert c.num_vertices == 2
        assert c.num_edges == 1

    def test_swap_identities(self):
        # Contraction and deletion slide past duality on other edges:
        # (G/e)^(E') = G^(E'+e) - e = G^(E')/e and the deletion twin.
        rng = random.Random(41)
        for g in graph_corpus(41, 15, max_edges=5):
            labels = list(g.edge_labels)
            if not labels:
                continue
            e = rng.choice(labels)
            rest = [l for l in labels if l != e]
            subset = {l for l in rest if rng.random() < 0.5}
            with_e = subset | {e}
            for lhs, mid, rhs in [
                (
                    partial_dual(contract_edge(g, e), subset),
                    delete_edge(partial_dual(g, with_e), e),
                    contract_edge(partial_dual(g, subset), e),
                ),
                (
                    partial_dual(delete_edge(g, e), subset),
                    contract_edge(partial_dual(g, with_e), e),
                    delete_edge(partial_dual(g, subset), e),
                ),
            ]:
                assert is_isomorphic(lhs, mid)
                assert is_isomorphic(mid, rhs)

    def test_unknown_edges(self):
        g = load_graph("torus.rg")
        with pytest.raises(UnknownEdge):
            delete_edge(g, "zz")
        with pytest.raises(UnknownEdge):
            contract_edge(g, "zz")


class TestClassifyEdge:
    def test_fixture_classes(self):
        assert classify_edge(load_graph("bridge.rg"), "b") == EdgeClass("bridge")
        assert classify_edge(load_graph("annulus.rg"), "e") == EdgeClass(
            "loop", orientable=True, trivial=True
        )
        assert classify_edge(load_graph("mobius.rg"), "e") == EdgeClass(
            "loop", orientable=False, trivial=True
        )
        assert classify_edge(load_graph("torus.rg"), "1") == EdgeClass(
            "loop", orientable=True, trivial=False
        )
        ex = load_graph("klein.rg")
        assert classify_edge(ex, "1") == EdgeClass(
            "loop", orientable=False, trivial=False
        )
        assert classify_edge(ex, "2") == EdgeClass("ordinary")
        assert classify_edge(ex, "3") == EdgeClass("ordinary")

    def test_builders_give_announced_classes(self):
        rng = random.Random(43)
        for g in graph_corpus(43, 8, max_edges=4):
            for sign in (1, -1):
                h, e = with_bridge(g, rng, sign)
                assert classify_edge(h, e).kind == "bridge"
                h, e = with_ordinary(g, rng, sign)
                assert classify_edge(h, e).kind == "ordinary"
                for orientable in (True, False):
                    h, e = with_trivial_loop(g, rng, sign, orientable)
                    assert classify_edge(h, e) == EdgeClass(
                        "loop", orientable=orientable, trivial=True
                    )
                    h, e = with_nontrivial_loop(g, rng, sign, orientable)
                    assert classify_edge(h, e) == EdgeClass(
                        "loop", orientable=orientable, trivial=False
                    )


class TestDualOrbit:
    def test_torus_orbit(self):
        orbit = dual_orbit(load_graph("torus.rg"))
        assert [(c.subset, c.size) for c in orbit] == [((), 2), (("1",), 2)]

    def test_klein_orbit(self):
        orbit = dual_orbit(load_graph("klein.rg"))
        assert [(c.subset, c.size) for c in orbit] == [
            ((), 1),
            (("1",), 1),
            (("2",), 2),
            (("1", "2"), 2),
            (("2", "3"), 1),
            (("1", "2", "3"), 1),
        ]

    def test_isolated_orbit(self):
        orbit = dual_orbit(load_graph("isolated.rg"))
        assert len(orbit) == 1
        assert orbit[0].subset == ()
        assert orbit[0].size == 1

    def test_sizes_cover_all_subsets(self):
        for name in ("annulus.rg", "mobius.rg", "bridge.rg", "klein.rg"):
            g = load_graph(name)
            orbit = dual_orbit(g)
            assert sum(c.size for c in orbit) == 2**g.num_edges

    def test_representatives_match_their_subsets(self):
        g = load_graph("klein.rg")
        for cls in dual_orbit(g):
            assert partial_dual(g, cls.subset) == cls.graph

    def test_one_table_per_orbit(self, monkeypatch):
        # dual_orbit builds g's occurrence table once and dualises from it;
        # the form of each dual builds the dual's, and its walk over the
        # circles reads it again.  The search for L takes the form of each
        # single and pair whose dual keeps g's circle lengths: on the
        # Klein fixture one of six, and L is trivial, so all 2^3 subsets
        # follow; on the torus {1, 2}, which is L, and two cosets follow.
        for name, searched, cosets in (("klein.rg", 1, 8), ("torus.rg", 1, 2)):
            g = load_graph(name)
            builds = table_builds(monkeypatch)
            dual_orbit(g)
            assert [h is g for h in builds].count(True) == 1
            assert len({id(h) for h in builds}) == len(builds) == 1 + searched + cosets

    def test_guard(self):
        # one edge over the constant; the guard trips before any dual
        with pytest.raises(TooManyEdges, match=r"\(2\^21 partial duals\)$"):
            dual_orbit(bouquet(DUAL_ORBIT_MAX_EDGES + 1))
        assert DUAL_ORBIT_MAX_EDGES == 20


def orbit_corpus() -> list[SignedRibbonGraph]:
    """300 seeded graphs with up to 8 edges, empty circles among them,
    then bouquets and chord rings, whose automorphisms join cosets."""
    graphs = graph_corpus(311, 300, max_edges=8)
    graphs += [bouquet(e) for e in range(8)]
    for e in range(2, 7):
        for flags in (((False, False),), ((False, True),), ((False, False), (True, False))):
            graphs += [chord_ring(e, 2, reach, flags) for reach in range(1, 2 * e, 2)]
            graphs.append(chord_ring(e, 1, e, flags))
    return graphs


def span(basis: list[int]) -> set[int]:
    group = {0}
    for b in basis:
        group |= {x ^ b for x in group}
    return group


class TestCosetWalk:
    """dual_orbit walks one least mask per coset of the subgroup of the
    labeled stabilizer L that ``duality._stabilizer`` spans, against the
    walk over every mask (``mask_orbit``) and a brute-force L."""

    def test_matches_mask_walk(self):
        graphs = orbit_corpus()
        assert len(graphs) >= 300
        stabilized = 0
        for g in graphs:
            got = dual_orbit(g)
            assert got == mask_orbit(g), g  # subset, graph and size
            stabilized += bool(duality._stabilizer(g))
        assert stabilized > 100

    def test_generators_span_the_labeled_stabilizer(self):
        graphs = [g for g in orbit_corpus() if g.num_edges <= 6]
        assert len(graphs) > 200
        orders = set()
        for g in graphs:
            group = labeled_stabilizer(g)
            assert all(x ^ y in group for x in group for y in group)
            basis = duality._stabilizer(g)
            leads = [1 << b.bit_length() - 1 for b in basis]
            assert all(b & lead == (b == c) * lead for b in basis for c, lead in zip(basis, leads))
            assert set(basis) <= group
            assert span(basis) == group, g
            orders.add(len(group))
        assert {1, 2, 4, 8} <= orders

    def test_only_twisted_loops_keep_the_circle_count(self):
        # The search tries no other single edge: a non-loop merges two
        # circles and an untwisted loop splits one, so no such dual is g.
        twisted = 0
        for g in orbit_corpus():
            occ, flags, home, partner, _, _ = _flat(g)
            for i, j in enumerate(partner):
                if i < j:
                    kept = len(partial_dual(g, occ[i]).circles) == len(g.circles)
                    assert kept == (home[i] == home[j] and flags[i] != flags[j]), (g, occ[i])
                    twisted += kept
        assert twisted > 100

    def test_singles_and_pairs_span_it_at_8_to_10_edges(self):
        # Graphs drawn as the benchmark draws them, past the sizes above.
        rng = random.Random(173)
        orders = []
        for e in (8, 9, 10):
            for _ in range(8):
                g = sized_graph(rng, e, rng.randint(e // 2, e))
                group, basis = labeled_stabilizer(g), duality._stabilizer(g)
                assert set(basis) <= group and span(basis) == group, g
                orders.append(len(group))
        assert sum(order > 1 for order in orders) >= 8, orders

    def test_walk_needs_a_subgroup(self, monkeypatch):
        # Any subgroup of L walks the orbit exactly, the trivial one too;
        # one generator outside L merges duals that differ.
        search = duality._stabilizer
        drop = [True]

        def mutant(g):
            basis = search(g)
            if drop[0]:
                return basis[:-1]
            leads = sum(1 << b.bit_length() - 1 for b in basis)
            free = [1 << i for i in range(g.num_edges) if not leads >> i & 1]
            return basis + free[:1]  # a single outside L, with a leading bit of its own

        monkeypatch.setattr(duality, "_stabilizer", mutant)
        tried = wrong = 0
        for g in orbit_corpus():
            if g.num_edges > 6:
                continue
            want = mask_orbit(g)
            drop[0] = True
            assert dual_orbit(g) == want
            drop[0] = False
            if len(search(g)) < g.num_edges:
                tried += 1
                wrong += dual_orbit(g) != want
        assert wrong == tried > 150
