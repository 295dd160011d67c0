"""Partial duality, contraction, deletion, edge classes, orbits."""

import random

import pytest

from ribbongraphs.duality import DUAL_ORBIT_MAX_EDGES, dual_orbit, partial_dual
from ribbongraphs.errors import TooManyEdges, UnknownEdge
from ribbongraphs.links import (
    all_A_state,
    all_B_state,
    seifert_state,
    state_ribbon_graph,
)
from ribbongraphs.ribbon import (
    Occurrence,
    SignedRibbonGraph,
    is_isomorphic,
    serialize_ribbon_graph,
    stats,
)

from .helpers import (
    EdgeClass,
    all_subsets,
    arc_partial_dual,
    bouquet,
    classify_edge,
    contract_edge,
    delete_edge,
    diagram_corpus,
    graph_corpus,
    load_graph,
    subgraph_stats,
    table_builds,
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
        # dual_orbit builds g's occurrence table once and dualises every
        # subset from it; the canonical form of each dual builds the dual's,
        # and its walk over the circles reads it again.
        g = load_graph("klein.rg")
        builds = table_builds(monkeypatch)
        classes = dual_orbit(g)
        assert [h is g for h in builds].count(True) == 1
        assert len({id(h) for h in builds}) == len(builds) == 1 + (1 << g.num_edges)
        assert len(classes) == 6

    def test_guard(self):
        # one edge over the constant; the guard trips before any dual
        with pytest.raises(TooManyEdges, match=r"\(2\^21 partial duals\)$"):
            dual_orbit(bouquet(DUAL_ORBIT_MAX_EDGES + 1))
        assert DUAL_ORBIT_MAX_EDGES == 20
