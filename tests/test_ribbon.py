"""Arrow presentations: moves, stats, isomorphism, serialization."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbongraphs import ribbon
from ribbongraphs.br import bollobas_riordan
from ribbongraphs.duality import dual_orbit, partial_dual
from ribbongraphs.errors import (
    DuplicateLabelCount,
    InvalidLabel,
    InvalidMove,
    ParseError,
    RibbonGraphError,
    UnknownEdge,
    UnknownSign,
)
from ribbongraphs.ribbon import (
    Occurrence,
    SignedRibbonGraph,
    canonical_form,
    components,
    is_isomorphic,
    is_orientable,
    parse_ribbon_graph,
    serialize_ribbon_graph,
    stats,
)

from .helpers import (
    FIXTURES,
    arc_matching,
    backtrack_isomorphic,
    boundary_components,
    bouquet,
    chord_ring,
    disjoint_union,
    dual_corpus,
    graph_corpus,
    length_class_form,
    load_graph,
    occurrences,
    one_point_join,
    parity_union_find,
    plane_corpus,
    random_graph,
    sized_graph,
    tuple_canonical_form,
)


def scramble(g: SignedRibbonGraph, rng: random.Random) -> SignedRibbonGraph:
    """Apply a burst of presentation moves that preserve the graph."""
    for _ in range(rng.randrange(4, 12)):
        choice = rng.randrange(4)
        if choice == 0 and g.circles:
            g = g.m1(rng.randrange(len(g.circles)))
        elif choice == 1 and g.signs:
            g = g.m2(rng.choice(sorted(g.signs)))
        elif choice == 2 and g.circles:
            g = g.rotate(rng.randrange(len(g.circles)), rng.randrange(8))
        elif g.circles:
            order = list(range(len(g.circles)))
            rng.shuffle(order)
            g = g.permute_circles(order)
    mapping = {l: f"w{i}" for i, l in enumerate(sorted(g.signs))}
    return g.relabel(mapping)


class TestConstruction:
    def test_occurrence_counts_enforced(self):
        with pytest.raises(DuplicateLabelCount):
            SignedRibbonGraph([[("a", False)]], {"a": 1})
        with pytest.raises(DuplicateLabelCount):
            SignedRibbonGraph(
                [[("a", False), ("a", False), ("a", True)]], {"a": 1}
            )

    def test_signs_enforced(self):
        with pytest.raises(UnknownSign):
            SignedRibbonGraph([[("a", False), ("a", False)]], {})
        with pytest.raises(UnknownSign):
            SignedRibbonGraph([[("a", False), ("a", False)]], {"a": 2})

    def test_stray_sign_rejected(self):
        with pytest.raises(DuplicateLabelCount):
            SignedRibbonGraph([[]], {"ghost": 1})

    def test_bad_labels_rejected(self):
        for label in ("", "a b", "a'", "#x", "a:b", "a,b"):
            with pytest.raises(InvalidLabel):
                SignedRibbonGraph(
                    [[(label, False), (label, False)]], {label: 1}
                )

    def test_comma_in_label_is_a_parse_error(self):
        # --edges and the subsets that duals and verify print are
        # comma-separated, so a label holding a comma would read as two.
        with pytest.raises(ParseError) as err:
            parse_ribbon_graph("edges: a,b:+ c:-\ncircle: a,b c a,b c\n")
        assert str(err.value).endswith("invalid edge label 'a,b'")
        assert (err.value.line, err.value.col) == (1, 8)
        with pytest.raises(ParseError) as err:
            parse_ribbon_graph("edges: a:+\ncircle: a a,\n")
        assert (err.value.line, err.value.col) == (2, 11)

    def test_bad_label_is_a_package_error(self):
        with pytest.raises(InvalidLabel) as err:
            SignedRibbonGraph([[("a b", False), ("a b", False)]], {"a b": 1})
        assert isinstance(err.value, RibbonGraphError)
        assert isinstance(err.value, ValueError)

    def test_non_string_label_is_invalid(self):
        with pytest.raises(InvalidLabel) as err:
            SignedRibbonGraph([[(1, False), (1, True)]], {1: 1})
        assert str(err.value) == "invalid edge label 1"
        with pytest.raises(InvalidLabel) as err:
            load_graph("torus.rg").relabel({"1": 5})
        assert str(err.value) == "invalid edge label 5"

    def test_unhashable_label_is_invalid(self):
        # A list label cannot be counted in a dict or put in a set, so it
        # is rejected before either happens, by the constructor and by
        # relabel alike.
        with pytest.raises(InvalidLabel) as err:
            SignedRibbonGraph([[(["a"], False), (["a"], True)]], {})
        assert str(err.value) == "invalid edge label ['a']"
        with pytest.raises(InvalidLabel) as err:
            load_graph("torus.rg").relabel({"1": ["x"]})
        assert str(err.value) == "invalid edge label ['x']"

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0])
    def test_non_integer_sign_rejected(self, sign):
        # equal to 1 or -1, but a graph holding one would print it
        with pytest.raises(UnknownSign):
            SignedRibbonGraph([[("a", False), ("a", True)]], {"a": sign})

    def test_label_checked_before_counts(self):
        # Every label is checked, in first-seen order, before any count or
        # sign: a bad label wins over a missing occurrence, a missing
        # sign and a stray sign.
        circles = [[("a", False)], [("b c", False), ("x y", False), ("b c", False)]]
        with pytest.raises(InvalidLabel) as err:
            SignedRibbonGraph(circles, {"a": 1, "b c": 1, "ghost": 1})
        assert str(err.value) == "invalid edge label 'b c'"
        with pytest.raises(DuplicateLabelCount) as err:
            SignedRibbonGraph([[("a", False)], [("b", False)] * 2], {"a": 1, "b": 1})
        assert str(err.value) == "label 'a' occurs 1 times, expected 2"

    def test_immutable(self):
        g = load_graph("torus.rg")
        with pytest.raises(AttributeError):
            g.circles = ()

    def test_accessors(self):
        g = load_graph("klein.rg")
        assert g.num_vertices == 2
        assert g.num_edges == 3
        assert g.edge_labels == ("1", "2", "3")
        assert g.sign("1") == 1
        assert g.sign("3") == -1
        tokens = [occ.token() for _, _, _, occ in occurrences(g)]
        assert tokens == ["1", "2", "1'", "3", "2", "3"]


class TestStats:
    @pytest.mark.parametrize(
        "name, expected",
        [
            # (v, e, k, r, n, f, orientable, chi_closed, genus_or_crosscap)
            ("klein.rg", (2, 3, 1, 1, 2, 1, False, 0, 2)),
            ("torus.rg", (1, 2, 1, 0, 2, 1, True, 0, 1)),
            ("annulus.rg", (1, 1, 1, 0, 1, 2, True, 2, 0)),
            ("mobius.rg", (1, 1, 1, 0, 1, 1, False, 1, 1)),
            ("bridge.rg", (2, 1, 1, 1, 0, 1, True, 2, 0)),
            ("isolated.rg", (1, 0, 1, 0, 0, 1, True, 2, 0)),
        ],
    )
    def test_fixture_profiles(self, name, expected):
        st_ = stats(load_graph(name))
        got = (
            st_.v,
            st_.e,
            st_.k,
            st_.r,
            st_.n,
            st_.f,
            st_.orientable,
            st_.chi_closed,
            st_.genus_or_crosscap,
        )
        assert got == expected

    def test_two_isolated_vertices(self):
        g = SignedRibbonGraph([[], []], {})
        st_ = stats(g)
        assert (st_.v, st_.e, st_.k, st_.f) == (2, 0, 2, 2)
        assert st_.chi_closed == 4
        assert st_.genus_or_crosscap == 0

    def test_rank_nullity_euler_relations(self):
        for g in graph_corpus(17, 40):
            st_ = stats(g)
            assert st_.r == st_.v - st_.k
            assert st_.n == st_.e - st_.r
            assert st_.chi_closed == st_.v - st_.e + st_.f
            if st_.orientable:
                assert (2 * st_.k - st_.chi_closed) % 2 == 0
                assert st_.genus_or_crosscap >= 0
            else:
                assert st_.genus_or_crosscap >= 1

    def test_faces_are_full_dual_vertices(self):
        # f(G) = v(G^E): G has as many boundary components as its full
        # dual has circles, an empty circle counting once on each side,
        # and as many as the oracle traces.
        for g, _ in dual_corpus():
            f = stats(g).f
            assert f == len(partial_dual(g, g.signs).circles)
            assert f == len(boundary_components(g))

    def test_components_of_two_pieces(self):
        g = SignedRibbonGraph(
            [[("a", False), ("a", False)], [("b", False)], [("b", True)]],
            {"a": 1, "b": -1},
        )
        assert components(g) == ((0,), (1, 2))
        # groups by smallest circle, each ascending, although the walk
        # from circle 0 reaches circle 2 first
        g = SignedRibbonGraph(
            [[("a", False)], [("b", False), ("b", True)], [("a", True)]],
            {"a": 1, "b": -1},
        )
        assert components(g) == ((0, 2), (1,))
        g = SignedRibbonGraph(
            [[("a", False), ("b", False)], [("b", True)], [("a", True)]],
            {"a": 1, "b": -1},
        )
        assert components(g) == ((0, 1, 2),)


class TestBoundary:
    def test_annulus_two_walks(self):
        walks = boundary_components(load_graph("annulus.rg"))
        assert len(walks) == 2

    def test_mobius_single_walk(self):
        walks = boundary_components(load_graph("mobius.rg"))
        assert len(walks) == 1
        sides = [e for e in walks[0].elements if e[0] == "side"]
        assert len(sides) == 2  # both sides of the band on one walk

    def test_isolated_vertex_walk(self):
        walks = boundary_components(load_graph("isolated.rg"))
        assert walks[0].corners == ()
        assert walks[0].elements == (("vertex", 0),)

    def test_corner_conservation(self):
        # Every occurrence contributes one tail and one head corner.
        for g in graph_corpus(23, 25):
            walks = boundary_components(g)
            corners = [c for w in walks for c in w.corners]
            assert len(corners) == len(set(corners))
            assert len(corners) == 2 * sum(len(c) for c in g.circles)


class TestOccurrenceTable:
    """``ribbon._flat`` against the circle-by-circle oracles it replaced:
    ``arc_matching`` for ``sigma`` and the labels, and ``occurrences`` for
    flags, circles and partners."""

    @staticmethod
    def corpus():
        graphs = graph_corpus(61, 1000, max_edges=8) + [bouquet(e) for e in range(6)]
        # the shapes the table must get right are all in it
        assert any(g.num_edges == 0 for g in graphs)
        assert any(() in g.circles and g.num_edges for g in graphs)
        assert any(len(components(g)) < len(g.circles) for g in graphs)
        return graphs

    def test_matches_oracles(self):
        loops = 0
        for g in self.corpus():
            labels, flags, home, partner, sigma, runs = ribbon._flat(g)
            assert (sigma, labels) == arc_matching(g)
            occs = list(occurrences(g))
            assert flags == [occ.against for _, _, _, occ in occs]
            assert home == [ci for _, ci, _, _ in occs]
            # circle c's run holds its occurrences, in their positions on it
            assert len(runs) == len(g.circles) and sum(map(len, runs)) == len(occs)
            assert all(runs[ci][pos] == i for i, ci, pos, _ in occs)
            ends: dict[str, list[int]] = {}
            for i, _, _, occ in occs:
                ends.setdefault(occ.label, []).append(i)
            for i, j in ends.values():
                assert (partner[i], partner[j]) == (j, i)
                loops += home[i] == home[j]
            assert len(partner) == len(occs)
        assert loops > 1000

    def test_kept_and_never_written(self):
        # A graph builds its table on first use and keeps it; every pass
        # after that reads the same lists, and none writes to them.
        rng = random.Random(73)
        graphs = graph_corpus(73, 300, max_edges=6) + [bouquet(e) for e in range(6)]
        assert any(() in g.circles and g.num_edges for g in graphs)
        passes = (
            stats,
            components,
            is_orientable,
            canonical_form,
            lambda g: canonical_form(g, ignore_signs=True),
            lambda g: ribbon._presentation(g, {}),
            bollobas_riordan,
            lambda g: partial_dual(g, [l for l in g.signs if rng.random() < 0.5]),
            dual_orbit,
        )
        for g in graphs:
            table = ribbon._flat(g)
            fresh = SignedRibbonGraph(g.circles, g.signs)
            for run in passes:
                run(g)
                assert ribbon._flat(g) is table
                assert table == ribbon._flat(fresh)
            # the kept table is not part of the graph's value
            assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)


class TestCircleWalk:
    """``ribbon._walk`` against the parity union-find it replaced,
    ``parity_union_find``: the same components, listed by least circle,
    and the same orientability."""

    def test_matches_union_find(self):
        rng = random.Random(67)
        graphs = graph_corpus(67, 1000, max_edges=8) + [bouquet(e) for e in range(6)]
        for g in list(graphs):  # each again with its circles reordered
            order = list(range(len(g.circles)))
            rng.shuffle(order)
            graphs.append(g.permute_circles(order))
        shapes = dict.fromkeys(
            ("no edges", "empty circle", "twisted loop", "odd cycle", "out of order"), 0
        )
        for g in graphs:
            _, flags, home, partner, _, _ = ribbon._flat(g)
            groups, orientable = ribbon._walk(g)
            roots, want = parity_union_find(g, flags, home, partner)
            classes: dict[int, list[int]] = {}
            for c, root in enumerate(roots):
                classes.setdefault(root, []).append(c)
            expected = sorted(classes.values())
            assert [sorted(group) for group in groups] == expected
            assert [group[0] for group in groups] == [c[0] for c in expected]
            assert orientable == want
            twisted = any(home[i] == home[j] and flags[i] != flags[j] for i, j in enumerate(partner))
            shapes["no edges"] += g.num_edges == 0
            shapes["empty circle"] += () in g.circles
            shapes["twisted loop"] += twisted
            shapes["odd cycle"] += not orientable and not twisted
            shapes["out of order"] += any(group != sorted(group) for group in groups)
        assert min(shapes.values()) >= 20, shapes


class TestOrientability:
    def test_oriented_examples(self):
        assert is_orientable(load_graph("torus.rg"))
        assert is_orientable(load_graph("annulus.rg"))
        assert not is_orientable(load_graph("mobius.rg"))
        assert not is_orientable(load_graph("klein.rg"))

    def test_m_moves_preserve_orientability(self):
        rng = random.Random(5)
        for g in graph_corpus(5, 30):
            assert is_orientable(scramble(g, rng)) == is_orientable(g)


class TestMoves:
    def test_m1_reverses_and_flips(self):
        g = load_graph("torus.rg")
        h = g.m1(0)
        assert h.circles[0] == tuple(
            Occurrence(l, True) for l in ("2", "1", "2", "1")
        )
        assert is_isomorphic(g, h)

    def test_m2_flips_one_label(self):
        g = load_graph("torus.rg")
        h = g.m2("1")
        assert [o.token() for o in h.circles[0]] == ["1'", "2", "1'", "2"]
        assert is_isomorphic(g, h)
        with pytest.raises(UnknownEdge, match="^not an edge of the graph: 'zz'$"):
            g.m2("zz")

    def test_rotate_empty_circle(self):
        g = load_graph("isolated.rg")
        assert g.rotate(0, 3) == g

    def test_unknown_label_and_circle(self):
        # A negative circle index is refused too, not read from the end.
        g = load_graph("torus.rg")
        with pytest.raises(UnknownEdge, match="^not an edge of the graph: 'zz'$"):
            g.sign("zz")
        for index in (1, 5, -1):
            with pytest.raises(InvalidMove, match=f"^circle index {index} is outside 0..0$"):
                g.m1(index)
            with pytest.raises(InvalidMove, match=f"^circle index {index} is outside 0..0$"):
                g.rotate(index, 1)
        assert g.rotate(0, -1) == g.rotate(0, 3)

    def test_permute_validates(self):
        g = load_graph("bridge.rg")
        with pytest.raises(ValueError):
            g.permute_circles([0, 0])
        with pytest.raises(InvalidMove, match="^not a permutation of circle indices$"):
            g.permute_circles([1])

    def test_relabel_injective(self):
        g = load_graph("torus.rg")
        with pytest.raises(ValueError):
            g.relabel({"1": "2"})
        with pytest.raises(InvalidMove, match="^relabeling is not injective$") as err:
            g.relabel({"2": "1"})
        assert isinstance(err.value, RibbonGraphError)
        h = g.relabel({"1": "a"})
        assert h.edge_labels == ("2", "a")
        assert h.sign("a") == 1


class TestIsomorphism:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_scramble_is_isomorphic(self, seed):
        rng = random.Random(seed)
        for g in graph_corpus(seed, 2, max_edges=5):
            assert is_isomorphic(g, scramble(g, rng))

    def test_signs_must_transport(self):
        plus = SignedRibbonGraph([[("b", False)], [("b", False)]], {"b": 1})
        minus = SignedRibbonGraph([[("b", False)], [("b", False)]], {"b": -1})
        assert not is_isomorphic(plus, minus)
        assert is_isomorphic(plus, minus, ignore_signs=True)

    def test_reversal_reachable_by_moves(self):
        # Reversing every circle while keeping flags equals M1 on every
        # circle followed by M2 on every edge, so it never leaves the
        # isomorphism class.
        g = SignedRibbonGraph(
            [[("a", False), ("b", False), ("a", True), ("b", False)]],
            {"a": 1, "b": 1},
        )
        reversed_ = SignedRibbonGraph([tuple(reversed(g.circles[0]))], g.signs)
        via_moves = g.m1(0).m2("a").m2("b")
        assert via_moves == reversed_
        assert is_isomorphic(g, reversed_)

    def test_distinct_profiles(self):
        assert not is_isomorphic(load_graph("annulus.rg"), load_graph("mobius.rg"))
        assert not is_isomorphic(load_graph("torus.rg"), load_graph("bridge.rg"))

    def test_matches_backtracking_oracle(self):
        # Isomorphic pairs come from presentation moves, relabelling and
        # double partial duals; near misses flip one flag or one sign of
        # such a copy, so cheap invariants often still agree; single
        # partial duals and unrelated graphs fill in the rest.
        rng = random.Random(2007)
        verdicts = {True: 0, False: 0}
        for i in range(3000):
            g = random_graph(rng, max_edges=8)
            subset = [l for l in g.signs if rng.random() < 0.5]
            kind = i % 5
            if kind == 0:
                h = scramble(g, rng)
            elif kind == 1:
                h = scramble(partial_dual(partial_dual(g, subset), subset), rng)
            elif kind == 2:
                h = _near_miss(scramble(g, rng), rng)
            elif kind == 3:
                h = partial_dual(g, subset)
            else:
                h = random_graph(rng, max_edges=8)
            for ignore_signs in (False, True):
                want = backtrack_isomorphic(g, h, ignore_signs)
                assert is_isomorphic(g, h, ignore_signs) == want, (g, h, ignore_signs)
                verdicts[want] += 1
        assert min(verdicts.values()) > 1500, verdicts

    def test_symmetric_graphs_match_backtracking_oracle(self, monkeypatch):
        # Bouquets and one-circle graphs that a turn of the circle maps
        # to themselves: whole orbits of occurrences share a root key, so
        # the root class stays large and pruning among equal codes does
        # the work.  Each is compared with scrambled copies, near misses
        # and the other rings of its size.
        rng = random.Random(3490)
        rings = [bouquet(e) for e in range(1, 7)]
        for e in range(2, 7):
            for step, reach in [(2, r) for r in range(1, e + 1, 2)] + [(1, e)]:
                for flags in (
                    ((False, False),),
                    ((False, True),),
                    ((False, False), (True, False)),
                ):
                    for signs in ((1,), (1, -1)):
                        rings.append(chord_ring(e, step, reach, flags, signs))
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return rooted_code(*args)

        rooted_code = ribbon._rooted_code
        monkeypatch.setattr(ribbon, "_rooted_code", counted)
        verdicts = {True: 0, False: 0}
        for g in rings:
            # without signs every occurrence has the same key: all 2e
            # occurrences are roots, each read both ways
            calls[0] = 0
            canonical_form(g, ignore_signs=True)
            assert calls[0] == 4 * g.num_edges, g
            others = [h for h in rings if h.num_edges == g.num_edges]
            for h in (
                scramble(g, rng),
                _near_miss(scramble(g, rng), rng),
                scramble(rng.choice(others), rng),
            ):
                for ignore_signs in (False, True):
                    want = backtrack_isomorphic(g, h, ignore_signs)
                    assert is_isomorphic(g, h, ignore_signs) == want, (g, h)
                    verdicts[want] += 1
        assert min(verdicts.values()) > 150, verdicts

    def test_partition_matches_length_class_oracle(self):
        # The root rule changes the codes but never the classes: on
        # seeded duals (e <= 8) and scrambled copies, both forms split the
        # graphs alike, with and without signs.
        rng = random.Random(711)
        graphs = []
        for g in graph_corpus(7110, 60, max_edges=8):
            for _ in range(6):
                dual = partial_dual(g, [l for l in g.signs if rng.random() < 0.5])
                graphs += [dual, scramble(dual, rng), _near_miss(dual, rng)]
        for ignore_signs in (False, True):
            pairs = {
                (canonical_form(h, ignore_signs), length_class_form(h, ignore_signs))
                for h in graphs
            }
            classes = len({new for new, _ in pairs})
            assert classes == len({old for _, old in pairs}) == len(pairs)
            assert classes < len(graphs) / 2

    def test_matches_tuple_keyed_form(self):
        # The form read over flat occurrence numbers is the earlier one
        # keyed by (circle, position) tuples, value for value and type for
        # type (repr tells 1 from True): seeded duals (e <= 10), bouquets
        # and the symmetric rings, with and without signs.
        rng = random.Random(3491)
        graphs = [bouquet(e) for e in range(1, 7)]
        for e in range(2, 7):
            for step, reach in [(2, r) for r in range(1, e + 1, 2)] + [(1, e)]:
                for flags in (
                    ((False, False),),
                    ((False, True),),
                    ((False, False), (True, False)),
                ):
                    for signs in ((1,), (1, -1)):
                        graphs.append(chord_ring(e, step, reach, flags, signs))
        for g in graph_corpus(3491, 1000, max_edges=10):
            for _ in range(3):
                graphs.append(partial_dual(g, [l for l in g.signs if rng.random() < 0.5]))
        assert sum(1 for h in graphs if () in h.circles) > 100
        for h in graphs:
            for ignore_signs in (False, True):
                got = canonical_form(h, ignore_signs)
                want = tuple_canonical_form(h, ignore_signs)
                assert repr(got) == repr(want), h

    def test_form_of_pieces(self):
        torus, mobius = load_graph("torus.rg"), load_graph("mobius.rg")
        assert canonical_form(SignedRibbonGraph([(), ()], {})) == ((), ())
        assert canonical_form(disjoint_union(torus, mobius)) == canonical_form(
            disjoint_union(mobius, torus)
        )
        assert canonical_form(torus) != canonical_form(torus, ignore_signs=True)

    def test_long_path_graph(self):
        # 1200 circles in a row: the search this replaced recursed once
        # per circle and ran out of stack, or searched without end.
        n = 1200
        rng = random.Random(1200)
        circles = [
            tuple((f"e{j}", rng.random() < 0.5) for j in (i - 1, i) if 0 <= j < n - 1)
            for i in range(n)
        ]
        g = SignedRibbonGraph(circles, {f"e{i}": rng.choice((1, -1)) for i in range(n - 1)})
        subset = [f"e{i}" for i in range(0, n - 1, 3)]
        twice = partial_dual(partial_dual(g, subset), subset)
        moved = g.m1(5).permute_circles(list(reversed(range(n))))
        for h in (twice, moved):
            start = time.process_time()
            assert is_isomorphic(h, g)
            assert time.process_time() - start < 1.0
        assert not is_isomorphic(partial_dual(g, subset), g)

    def test_signed_necklace_abandons_roots(self):
        # 1200 circles in a cycle, each holding one end of the edge before
        # it and one of the edge after.  Every occurrence has the same key
        # but its sign, so about 2400 roots are read.  Mixed signs part
        # their codes within a few circles, and a root is abandoned once
        # its code exceeds the best: about 0.05 s, against 2-3 s if every
        # root were read around the whole cycle.
        n = 1200
        rng = random.Random(1200)
        labels = [f"n{i}" for i in range(n)]
        circles = [
            [(labels[i - 1], rng.random() < 0.5), (labels[i], rng.random() < 0.5)]
            for i in range(n)
        ]
        g = SignedRibbonGraph(circles, {l: rng.choice((1, -1)) for l in labels})
        start = time.process_time()
        form = canonical_form(g)
        assert time.process_time() - start < 1.0
        assert canonical_form(g.m1(7).permute_circles(list(reversed(range(n))))) == form


def least_readings(g: SignedRibbonGraph, flip: bool = True, flags: bool = True) -> tuple:
    """``ribbon._presentation`` as first stated: per circle the least of
    the (at most four) readings from an occurrence of its least label,
    forward or backward with its flags flipped, and the circles sorted.
    ``flip=False`` reads backward without flipping the flags and
    ``flags=False`` reads every flag as Along: two faulty variants."""
    read = []
    for c in g.circles:
        c = tuple((label, against and flags) for label, against in c)
        back = tuple((label, against != flip) for label, against in c[::-1])
        least = min([label for label, _ in c], default=None)
        starts = [(r, i) for r in (c, back) for i in range(len(r)) if r[i][0] == least]
        read.append(min([r[i:] + r[:i] for r, i in starts], default=()))
    return tuple(sorted(read))


def shuffle_presentation(g: SignedRibbonGraph, rng: random.Random) -> SignedRibbonGraph:
    """A burst of the moves a presentation reads through: rotate,
    permute_circles and m1."""
    for _ in range(rng.randrange(1, 8)):
        choice = rng.randrange(3)
        if choice == 0:
            g = g.rotate(rng.randrange(len(g.circles)), rng.randrange(9))
        elif choice == 1:
            g = g.m1(rng.randrange(len(g.circles)))
        else:
            order = list(range(len(g.circles)))
            rng.shuffle(order)
            g = g.permute_circles(order)
    return g


class TestPresentation:
    """``ribbon._presentation``, which ``verify --mode lemmas`` compares
    before any canonical form: it must not change under rotation, circle
    order and M1, and graphs with equal presentations (and equal signs)
    must have equal canonical forms (signed forms)."""

    @staticmethod
    def corpus() -> list[SignedRibbonGraph]:
        graphs = graph_corpus(71, 2000, max_edges=5) + [bouquet(e) for e in range(1, 6)]
        graphs += plane_corpus(71, 100)
        twisted = [  # both ends of an edge on one circle, with opposite flags
            g
            for g in graphs
            if any((label, not against) in c for c in g.circles for label, against in c)
        ]
        assert len(twisted) >= 500
        assert sum(() in g.circles for g in graphs) >= 500
        return graphs

    @staticmethod
    def faults(present, graphs) -> tuple[int, int]:
        """How many move bursts changed a presentation, and how many
        partial duals share a presentation (and signs) with an earlier
        one of a different unsigned (signed) form, among all partial
        duals of ``graphs``; forms are computed only for shared keys."""
        rng = random.Random(73)
        moved = clashes = 0
        first: dict[tuple, SignedRibbonGraph] = {}  # the first dual per key
        forms: dict[tuple, tuple] = {}
        for g in graphs:
            moved += present(shuffle_presentation(g, rng)) != present(g)
            labels = g.edge_labels
            for mask in range(1 << len(labels)):
                dual = partial_dual(g, [l for i, l in enumerate(labels) if mask >> i & 1])
                key = present(dual)
                for ignore in (True, False):
                    k = (ignore, key) if ignore else (ignore, key, *dual.signs.items())
                    if first.setdefault(k, dual) is not dual:
                        if k not in forms:
                            forms[k] = canonical_form(first[k], ignore)
                        clashes += canonical_form(dual, ignore) != forms[k]
        return moved, clashes

    def test_invariant_and_sound(self):
        graphs = self.corpus()
        for g in graphs:
            assert ribbon._presentation(g, {}) == least_readings(g)
        for g, subset in dual_corpus():  # and on partial duals with up to 12 edges
            dual = partial_dual(g, subset)
            assert ribbon._presentation(dual, {}) == least_readings(dual)
        assert self.faults(lambda g: ribbon._presentation(g, {}), graphs) == (0, 0)

    def test_faulty_variants_fail(self):
        graphs = self.corpus()[:400]
        moved, clashes = self.faults(lambda g: least_readings(g, flip=False), graphs)
        assert moved > 0 and clashes > 0
        moved, clashes = self.faults(lambda g: least_readings(g, flags=False), graphs)
        assert clashes > 0

    def test_one_memo_reads_every_dual(self):
        # verify --mode lemmas keeps one reads dict over a run: a circle
        # read for one graph presents every later graph holding it as a
        # fresh reading would, and graphs with the same circles share their
        # readings.  A moved copy of a dual reads its moved circles afresh.
        rng = random.Random(29)
        graphs = [sized_graph(rng, e, rng.randint(1, 2 * e)) for e in range(1, 8) for _ in range(4)]
        graphs += [bouquet(e) for e in range(6)]
        graphs += [g for g in graph_corpus(29, 300, max_edges=5) if () in g.circles][:30]
        reads: dict = {}
        hits = 0
        for g in graphs:
            labels = g.edge_labels
            for mask in range(1 << len(labels)):
                dual = partial_dual(g, {l for i, l in enumerate(labels) if mask >> i & 1})
                moved = shuffle_presentation(dual, rng)
                for x in (dual, moved):
                    hits += sum(c in reads for c in x.circles)
                    got = ribbon._presentation(x, reads)
                    assert got == ribbon._presentation(x, {}) == least_readings(x)
                same = dual.permute_circles(range(len(dual.circles))[::-1])
                again = ribbon._presentation(same, reads)
                first = ribbon._presentation(dual, reads)
                assert sorted(map(id, again)) == sorted(map(id, first))
        assert hits > len(reads) > 1000
        assert {len(g.signs) for g in graphs} == set(range(8))
        assert sum(() in g.circles for g in graphs) >= 30

    def test_flags_tell_loops_apart(self):
        plain = parse_ribbon_graph("edges: a:+\ncircle: a a\n")
        twisted = parse_ribbon_graph("edges: a:+\ncircle: a a'\n")
        assert ribbon._presentation(plain, {}) != ribbon._presentation(twisted, {})
        assert ribbon._presentation(plain.m1(0), {}) == ribbon._presentation(plain, {})


def _near_miss(g: SignedRibbonGraph, rng: random.Random) -> SignedRibbonGraph:
    """Flip one occurrence flag (changing one edge's twist) or one sign."""
    if not g.signs:
        return g
    if rng.random() < 0.5:
        label = rng.choice(sorted(g.signs))
        return SignedRibbonGraph(g.circles, {**g.signs, label: -g.signs[label]})
    ci = rng.choice([i for i, circle in enumerate(g.circles) if circle])
    circle = list(g.circles[ci])
    pos = rng.randrange(len(circle))
    circle[pos] = Occurrence(circle[pos].label, not circle[pos].against)
    circles = list(g.circles)
    circles[ci] = tuple(circle)
    return SignedRibbonGraph(circles, g.signs)


class TestUnions:
    def test_disjoint_union_freshens_collisions(self):
        g = load_graph("annulus.rg")
        u = disjoint_union(g, g)
        assert u.num_vertices == 2
        assert u.num_edges == 2
        assert "e" in u.signs and "e.2" in u.signs
        assert len(components(u)) == 2

    def test_one_point_join_counts(self):
        g = load_graph("annulus.rg")
        j = one_point_join(g, g, (0, 0), (0, 0))
        assert j.num_vertices == 1
        assert j.num_edges == 2
        assert len(components(j)) == 1
        st_ = stats(j)
        assert st_.f == 3  # two annuli sharing a disc

    def test_one_point_join_position_range(self):
        g = load_graph("annulus.rg")
        with pytest.raises(IndexError, match=r"^no gap \(0, 5\) in the first graph$"):
            one_point_join(g, g, (0, 5), (0, 0))


class TestSerialization:
    def test_parse_golden(self):
        g = load_graph("klein.rg")
        assert [o.token() for o in g.circles[0]] == ["1", "2", "1'", "3"]
        assert [o.token() for o in g.circles[1]] == ["2", "3"]
        assert g.signs == {"1": 1, "2": -1, "3": -1}

    def test_round_trip_corpus(self):
        for g in graph_corpus(31, 40):
            assert parse_ribbon_graph(serialize_ribbon_graph(g)) == g

    def test_header_optional_comments_ignored(self):
        text = "# scratch\nedges: a:+\n\ncircle: a a'  # inline note\n"
        g = parse_ribbon_graph(text)
        assert g == SignedRibbonGraph([[("a", False), ("a", True)]], {"a": 1})

    def test_serializer_emits_header(self):
        out = serialize_ribbon_graph(load_graph("isolated.rg"))
        lines = out.splitlines()
        assert lines[0] == "ribbon-graph v1"
        assert lines[1] == "edges:"
        assert lines[2] == "circle:"

    def test_edges_line_required_first(self):
        with pytest.raises(ParseError):
            parse_ribbon_graph("circle: a a\n")

    def test_unknown_token_position(self):
        with pytest.raises(ParseError) as exc:
            parse_ribbon_graph("edges: a:+\ncircle: a a?\n")
        assert exc.value.line == 2

    def test_sign_errors(self):
        with pytest.raises(ParseError):
            parse_ribbon_graph("edges: a:*\ncircle: a a\n")

    def test_undeclared_edge(self):
        with pytest.raises(ParseError):
            parse_ribbon_graph("edges: a:+\ncircle: a a b b\n")

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError):
            parse_ribbon_graph("edges: a:+ a:-\ncircle: a a\n")
