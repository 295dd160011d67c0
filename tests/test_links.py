"""Gauss codes, bracket and Jones, state ribbon graphs."""

import random
from fractions import Fraction
from itertools import product

import pytest

from ribbongraphs.br import BR_MAX_EDGES, bollobas_riordan, tutte_via_br
from ribbongraphs.duality import partial_dual
from ribbongraphs.errors import (
    DanglingCrossing,
    InvalidLabel,
    InvalidState,
    NegativeExponentNonUnit,
    ParseError,
    RibbonGraphError,
    RoleConflict,
    TooManyCrossings,
    UnknownSign,
)
from ribbongraphs.links import (
    Pass,
    VirtualLinkDiagram,
    all_A_state,
    all_B_state,
    jones,
    kauffman_bracket,
    parse_gauss,
    resolve_state,
    seifert_state,
    serialize_gauss,
    state_ribbon_graph,
    writhe,
)
from ribbongraphs.polynomial import RING_ABD, RING_T, RING_XYZ, Laurent
from ribbongraphs.ribbon import SignedRibbonGraph, is_isomorphic, stats

from .helpers import (
    FIXTURES,
    all_states,
    braid_closure,
    braid_word_closure,
    diagram_corpus,
    jones_from_bracket,
    load_diagram,
    monomial_map,
    over_then_under,
    random_link,
    sized_diagram,
    state_counts,
    state_sum_bracket,
    subgraph_stats,
    traced_state,
)

A = Laurent.monomial(RING_ABD, (1, 0, 0))
B = Laurent.monomial(RING_ABD, (0, 1, 0))
d = Laurent.monomial(RING_ABD, (0, 0, 1))


def tq(q: int) -> Laurent:
    """Monomial t^(q/4)."""
    return Laurent.monomial(RING_T, (q,))


def _insert(diag, spots, signs):
    """``diag`` with each (strand, position, passes) of ``spots`` spliced
    in, positions counted in the original strand, and ``signs`` added."""
    components = [list(comp) for comp in diag.components]
    for strand, pos, passes in sorted(spots, key=lambda s: s[:2], reverse=True):
        components[strand][pos:pos] = passes
    return VirtualLinkDiagram(components, {**diag.signs, **signs})


def _spot(diag, rng):
    strand = rng.randrange(len(diag.components))
    return strand, rng.randint(0, len(diag.components[strand]))


def reidemeister_1(diag, rng):
    """Add a kink: over and under passes of a fresh crossing next to each
    other, in either order, with either sign."""
    over_first, sign = rng.random() < 0.5, rng.choice((1, -1))
    strand, pos = _spot(diag, rng)
    passes = [("k", over_first), ("k", not over_first)]
    moved = _insert(diag, [(strand, pos, passes)], {"k": sign})
    return moved, ("R1", over_first, sign)


def reidemeister_2(diag, rng):
    """Push one arc over another: fresh crossings a, b of opposite signs,
    passed over next to each other at one spot and under next to each
    other, in either order, at another."""
    same_order, sign = rng.random() < 0.5, rng.choice((1, -1))
    (s1, p1), (s2, p2) = _spot(diag, rng), _spot(diag, rng)
    over = [("a", True), ("b", True)]
    under = [("a", False), ("b", False)][:: 1 if same_order else -1]
    spots = [(s1, p1, over), (s2, p2, under)]
    moved = _insert(diag, rng.sample(spots, 2), {"a": sign, "b": -sign})
    return moved, ("R2", same_order, s1 == s2)


def bracket_via_graph(diag, state):
    """Right side of the bracket identity, from the state graph."""
    g = state_ribbon_graph(diag, state)
    s = stats(g)
    shifted = Laurent.monomial(
        RING_XYZ, (2 * s.k, 2 * s.v, s.v + 1)
    ) * bollobas_riordan(g)
    images = [
        (1, (Fraction(1), Fraction(-1), Fraction(1))),  # x -> A d / B
        (1, (Fraction(-1), Fraction(1), Fraction(1))),  # y -> B d / A
        (1, (Fraction(0), Fraction(0), Fraction(-1))),  # z -> 1 / d
    ]
    return Laurent.monomial(RING_ABD, (s.e, 0, 0)) * monomial_map(
        shifted, RING_ABD, images
    )


class TestParsing:
    def test_round_trip(self):
        diag = load_diagram("two_crossing.gauss")
        assert serialize_gauss(diag) == "gauss v1\ncomponent: O1- O2- U1- U2-\n"
        assert parse_gauss(serialize_gauss(diag)) == diag

    def test_empty_input_is_unknot(self):
        diag = parse_gauss("")
        assert diag.components == ((),)
        assert serialize_gauss(diag) == "gauss v1\ncomponent:\n"

    def test_header_and_comments_optional(self):
        bare = parse_gauss("component: O1+ U2+ # tail\ncomponent: U1+ O2+")
        framed = parse_gauss("gauss v1\n\n# c\ncomponent: O1+ U2+\ncomponent: U1+ O2+\n")
        assert bare == framed

    def test_accessors(self):
        diag = load_diagram("hopf.gauss")
        assert diag.crossing_ids == ("1", "2")
        assert diag.num_crossings == 2
        assert diag.signs == {"1": 1, "2": 1}
        assert diag.components[0][0] == Pass("1", True)

    def test_hash_and_repr(self):
        diag = load_diagram("hopf.gauss")
        again = parse_gauss(serialize_gauss(diag))
        assert hash(again) == hash(diag) and len({diag, again}) == 1
        assert repr(diag) == "VirtualLinkDiagram('O1+ U2+ / O2+ U1+')"
        assert repr(parse_gauss("component: O1+ U1+\ncomponent:")) == (
            "VirtualLinkDiagram('O1+ U1+ / (empty)')"
        )

    @pytest.mark.parametrize(
        "text, exc",
        [
            ("component: O1+", DanglingCrossing),
            ("component: O1+ U1+ O2+ U2+ U2+ O2+", DanglingCrossing),
            ("component: O1+ O1+", RoleConflict),
            ("component: X1+", ParseError),
            ("component: O1", ParseError),
            ("circles: O1+ U1+", ParseError),
            ("component: O1+ U1-", ParseError),
        ],
    )
    def test_rejects(self, text, exc):
        with pytest.raises(exc):
            parse_gauss(text)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_gauss("component: O1+ Q2*")
        assert (err.value.line, err.value.col) == (1, 16)

    def test_comma_in_crossing_id_rejected(self):
        # Crossing ids become the edge labels of state graphs, which may
        # not hold a comma.
        with pytest.raises(InvalidLabel, match="^invalid crossing id '1,2'$"):
            VirtualLinkDiagram([[Pass("1,2", True), Pass("1,2", False)]], {"1,2": 1})
        with pytest.raises(ParseError) as err:
            parse_gauss("component: O1,2+ U1,2+")
        assert str(err.value).endswith("invalid crossing id '1,2'")
        assert (err.value.line, err.value.col) == (1, 12)

    def test_bad_crossing_id_is_a_package_error(self):
        with pytest.raises(InvalidLabel) as err:
            VirtualLinkDiagram([[Pass("a b", True), Pass("a b", False)]], {"a b": 1})
        assert isinstance(err.value, RibbonGraphError)
        assert isinstance(err.value, ValueError)

    def test_id_checked_before_counts(self):
        # Every crossing id is checked, in first-seen order, before any
        # count, role or sign: a bad id wins over a dangling crossing, a
        # role conflict, a missing sign and a stray sign.
        comps = [[("1", True)], [("a b", True), ("x y", True), ("a b", True)]]
        with pytest.raises(InvalidLabel) as err:
            VirtualLinkDiagram(comps, {"1": 1, "a b": 1, "ghost": 1})
        assert str(err.value) == "invalid crossing id 'a b'"
        with pytest.raises(InvalidLabel) as err:
            VirtualLinkDiagram([[("1", True), ("", False)]], {"1": 1})
        assert str(err.value) == "invalid crossing id ''"
        with pytest.raises(DanglingCrossing) as err:
            VirtualLinkDiagram([[("1", True)], [("2", True)] * 2], {"1": 1, "2": 1})
        assert str(err.value) == "crossing '1' met 1 times, expected 2"

    def test_stray_and_bad_signs(self):
        met = [[("1", True), ("1", False)]]
        with pytest.raises(DanglingCrossing) as err:
            VirtualLinkDiagram(met, {"1": 1, "2": -1})
        assert str(err.value) == "crossing '2' met 0 times, expected 2"
        with pytest.raises(UnknownSign) as err:
            VirtualLinkDiagram(met, {"1": 2})
        assert str(err.value) == "sign of crossing '1' must be +1 or -1"

    def test_constructor_needs_signs(self):
        with pytest.raises(UnknownSign):
            VirtualLinkDiagram([[Pass("1", True), Pass("1", False)]], {})

    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, "+", None])
    def test_sign_must_be_the_int_one_or_minus_one(self, sign):
        # as in SignedRibbonGraph: a bool would be kept as True, and a
        # float would reach the writhe parity in jones
        met = [[("1", True), ("1", False)]]
        with pytest.raises(UnknownSign) as err:
            VirtualLinkDiagram(met, {"1": sign})
        assert str(err.value) == "sign of crossing '1' must be +1 or -1"

    @pytest.mark.parametrize("cid", [1, 1.5, b"1", ("1",), ["1"]])
    def test_crossing_id_must_be_a_string(self, cid):
        # not quietly turned into the string "1" that the signs name, and
        # an unhashable id is an InvalidLabel too, not a bare TypeError
        with pytest.raises(InvalidLabel) as err:
            VirtualLinkDiagram([[(cid, True), Pass(cid, False)]], {"1": 1})
        assert str(err.value) == f"invalid crossing id {cid!r}"


class TestStates:
    def test_kink_states(self):
        kink = load_diagram("kink.gauss")
        assert writhe(kink) == 1
        assert seifert_state(kink) == {"1": "A"}
        assert all_A_state(kink) == {"1": "A"}
        assert all_B_state(kink) == {"1": "B"}

    def test_seifert_follows_local_writhe(self):
        mixed = parse_gauss("component: O1+ U2- U1+ O2-")
        assert writhe(mixed) == 0
        assert seifert_state(mixed) == {"1": "A", "2": "B"}

    def test_resolve_counts(self):
        kink = load_diagram("kink.gauss")
        assert state_counts(kink, {"1": "A"}) == (1, 0, 2)
        assert state_counts(kink, {"1": "B"}) == (0, 1, 1)

    def test_bad_state_is_a_package_error(self):
        kink = load_diagram("kink.gauss")
        trefoil = load_diagram("trefoil.gauss")
        # missing, unknown and partial states; state_ribbon_graph reads the
        # state's signs only after resolve_state has checked it
        bad = ((kink, {}), (kink, {"1": "C"}), (trefoil, {"1": "A"}))
        for resolve, (diag, state) in product((resolve_state, state_ribbon_graph), bad):
            with pytest.raises(InvalidState) as err:
                resolve(diag, state)
            assert isinstance(err.value, RibbonGraphError)
            assert isinstance(err.value, ValueError)

    def test_empty_component_counts_as_circle(self):
        diag = parse_gauss("")
        assert state_counts(diag, {}) == (0, 0, 1)

    def test_matches_traced_oracle(self):
        # The one walk of resolve_state against the two-matching trace it
        # replaced: the same circles in the same order, with the same flags.
        rng = random.Random(25)
        pairs = []
        for diag in diagram_corpus(25, 150, max_crossings=6):
            pairs += [(diag, state) for state in all_states(diag)]
        links = (random_link(rng, 11) for _ in range(400))
        sized = [diag for diag in links if diag.num_crossings >= 9][:80]
        words = [
            [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(n)]
            for n in range(25)
            for _ in range(4)
        ]
        braids = [braid_word_closure(4, word) for word in words]
        empty = [
            parse_gauss("component:\ncomponent: O1+ U2- O2- U1+\ncomponent:"),
            parse_gauss("component: O1- U1-\ncomponent:"),
            VirtualLinkDiagram([], {}),
        ]
        for diag in sized + braids + empty:
            ids = diag.crossing_ids
            for _ in range(20 if ids else 1):
                pairs.append((diag, {cid: rng.choice("AB") for cid in ids}))
        for diag, state in pairs:
            got, want = resolve_state(diag, state), traced_state(diag, state)
            assert got == want and repr(got) == repr(want), (diag, state)
            assert all(type(o.against) is bool for circle in got for o in circle)
        assert len(pairs) >= 5000
        assert {0, 6, 9, 11, 24} <= {diag.num_crossings for diag, _ in pairs}
        assert sum(() in resolve_state(diag, state) for diag, state in pairs) > 100
        assert resolve_state(VirtualLinkDiagram([], {}), {}) == ()


class TestStateRibbonGraphs:
    def test_kink_graphs(self):
        kink = load_diagram("kink.gauss")
        ga = state_ribbon_graph(kink, all_A_state(kink))
        gb = state_ribbon_graph(kink, all_B_state(kink))
        assert ga == SignedRibbonGraph([[("1", False)], [("1", False)]], {"1": 1})
        assert gb == SignedRibbonGraph([[("1", True), ("1", True)]], {"1": -1})

    def test_trefoil_seifert_graph(self):
        tre = load_diagram("trefoil.gauss")
        sg = state_ribbon_graph(tre, seifert_state(tre))
        st = stats(sg)
        assert (st.v, st.e, st.k, st.f, st.orientable) == (2, 3, 1, 3, True)
        assert st.genus_or_crosscap == 0
        # two vertices with three parallel edges; its Tutte polynomial
        assert tutte_via_br(sg).render() == "y^2 + x + y"

    def test_state_circles_match_subgraph_boundaries(self):
        for name in ("kink", "two_crossing", "trefoil", "hopf"):
            diag = load_diagram(f"{name}.gauss")
            ids = diag.crossing_ids
            base = seifert_state(diag)
            g = state_ribbon_graph(diag, base)
            for mask in range(1 << len(ids)):
                subset = frozenset(c for i, c in enumerate(ids) if mask >> i & 1)
                flipped = {
                    c: (("B" if base[c] == "A" else "A") if c in subset else base[c])
                    for c in ids
                }
                assert len(resolve_state(diag, flipped)) == subgraph_stats(g, subset).f

    def test_state_graphs_are_partial_duals(self):
        for name in ("two_crossing", "trefoil", "hopf", "worked_example"):
            diag = load_diagram(f"{name}.gauss")
            ids = diag.crossing_ids
            g = state_ribbon_graph(diag, all_A_state(diag))
            for mask in range(1 << len(ids)):
                subset = frozenset(c for i, c in enumerate(ids) if mask >> i & 1)
                other = {c: ("B" if c in subset else "A") for c in ids}
                h = state_ribbon_graph(diag, other)
                assert is_isomorphic(partial_dual(g, subset), h)


class TestBracket:
    def test_goldens(self):
        assert kauffman_bracket(load_diagram("kink.gauss")) == A * d + B
        assert kauffman_bracket(parse_gauss("component: O1- U1-")) == A + B * d
        assert kauffman_bracket(parse_gauss("")) == Laurent.const(RING_ABD, 1)
        assert kauffman_bracket(parse_gauss("gauss v1\ncomponent:\ncomponent:\n")) == d
        two = kauffman_bracket(load_diagram("two_crossing.gauss"))
        assert two.render() == "A^2*d + 2*A*B + B^2"
        tre = kauffman_bracket(load_diagram("trefoil.gauss"))
        assert tre == A**3 * d + 3 * A * A * B + 3 * A * B * B * d + B**3 * d * d
        hopf = kauffman_bracket(load_diagram("hopf.gauss"))
        assert hopf == A * A * d + 2 * A * B + B * B * d
        three = kauffman_bracket(load_diagram("three_crossing.gauss"))
        assert three == (
            A**3 + 3 * A * A * B * d + 2 * A * B * B + A * B * B * d * d + B**3 * d
        )
        worked = kauffman_bracket(load_diagram("worked_example.gauss"))
        assert worked == (
            A**3 * d + 3 * A * A * B + 2 * A * B * B + A * B * B * d + B**3 * d
        )

    def test_matches_state_sum_oracle(self):
        # The bracket through the subgraph histogram of the all-A state graph
        # against one traced state at a time, and Jones from each.
        rng = random.Random(79)
        corpus = [parse_gauss("")] + [random_link(rng, 9) for _ in range(300)]
        assert max(diag.num_crossings for diag in corpus) == 9
        assert any(len(diag.components) >= 3 for diag in corpus)
        assert sum(() in diag.components for diag in corpus) > 10
        # ten crossings, past the edge count from which the frontier
        # engine computes the histogram of the all-A state graph
        tens = [random_link(rng, 10) for _ in range(300)]
        corpus += [diag for diag in tens if diag.num_crossings == 10]
        for _ in range(25):
            word = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(10)]
            corpus.append(braid_word_closure(4, word))
        assert sum(diag.num_crossings == 10 for diag in corpus) >= 40
        for diag in corpus:
            fast, slow = kauffman_bracket(diag), state_sum_bracket(diag)
            assert fast == slow, diag
            assert fast.render() == slow.render()
            slow_jones = jones_from_bracket(slow, writhe(diag))
            assert jones(diag).render() == slow_jones.render(), diag

    def test_no_strands(self):
        diag = VirtualLinkDiagram([], {})
        assert kauffman_bracket(diag) == state_sum_bracket(diag) == d**-1

    def test_guard(self):
        # the bracket reads R's subgraph histogram, so R's constant limits it
        message = r"^25 crossings exceed the state-sum guard of 24 \(2\^25 states\)$"
        with pytest.raises(TooManyCrossings, match=message):
            kauffman_bracket(over_then_under(BR_MAX_EDGES + 1))
        assert BR_MAX_EDGES == 24


class TestJones:
    def test_goldens(self):
        assert jones(load_diagram("kink.gauss")).render() == "1"
        assert jones(parse_gauss("component: O1- U1-")).render() == "1"
        assert jones(load_diagram("trefoil.gauss")).render() == "t + t^3 - t^4"
        assert jones(load_diagram("hopf.gauss")).render() == "-t^(1/2) - t^(5/2)"
        assert (
            jones(load_diagram("two_crossing.gauss")).render()
            == "-t^(-5/2) + t^(-3/2) + t^(-1)"
        )
        assert jones(load_diagram("three_crossing.gauss")).render() == "1"
        assert (
            jones(load_diagram("worked_example.gauss")).render()
            == "t^(-2) - t^(-1) - t^(-1/2) + 1 + t^(1/2)"
        )

    def test_no_strands_raises(self):
        # the bracket is d^(-1) and the loop value has no inverse; the
        # expansion over j = 0..m would otherwise return 0
        diag = VirtualLinkDiagram([], {})
        with pytest.raises(NegativeExponentNonUnit, match=r"d\^\(-1\)"):
            jones(diag)
        with pytest.raises(NegativeExponentNonUnit):
            jones_from_bracket(kauffman_bracket(diag), 0)

    def test_matches_product_path_at_bench_sizes(self):
        # The exponent-key expansion against polynomial products of the
        # loop value on the traced state sum, at the benchmark's cells,
        # on the fixtures and on split unions of unknots with a diagram.
        rng = random.Random(191)
        corpus = [
            sized_diagram(rng, n, c)
            for n, c in ((9, 2), (10, 1), (11, 1))
            for _ in range(6)
        ]
        corpus += [load_diagram(path.name) for path in sorted(FIXTURES.glob("*.gauss"))]
        for empties in range(1, 4):
            corpus.append(VirtualLinkDiagram([[]] * empties, {}))
            base = sized_diagram(rng, 6, 2)
            split = [*base.components, *[[]] * empties]
            corpus.append(VirtualLinkDiagram(split, base.signs))
        assert max(diag.num_crossings for diag in corpus) == 11
        for diag in corpus:
            slow = jones_from_bracket(state_sum_bracket(diag), writhe(diag))
            assert jones(diag).render() == slow.render(), diag

    def test_no_polynomial_products(self, monkeypatch):
        # Jones is read off the bracket's exponent keys: with the Laurent
        # product and power disabled it still computes every fixture.
        diags = [load_diagram(path.name) for path in sorted(FIXTURES.glob("*.gauss"))]
        expected = [jones_from_bracket(state_sum_bracket(x), writhe(x)) for x in diags]

        def refuse(*args):
            raise AssertionError("a Laurent product or power was computed")

        for op in ("__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(Laurent, op, refuse)
        with pytest.raises(AssertionError):
            tq(1) ** 2
        for diag, want in zip(diags, expected):
            assert jones(diag) == want, diag

    def test_writhe_normalization(self):
        # A single positive kink must cancel exactly (Jones of unknot).
        kinked = parse_gauss("component: O1+ U1+ O2+ U2+")
        assert jones(kinked) == Laurent.const(RING_T, 1)

    def test_reidemeister_invariance(self):
        # Jones is unchanged by a seeded R1 or R2 move, on braid closures
        # (classical) and random codes (mostly virtual), n <= 8 after.
        rng = random.Random(2718)
        bases = [braid_closure(rng, 6, 3) for _ in range(110)]
        bases += [random_link(rng, 6, 3) for _ in range(110)]
        seen = set()
        for base in bases:
            for move in (reidemeister_1, reidemeister_2):
                moved, kind = move(base, rng)
                assert moved.num_crossings <= 8
                assert jones(moved) == jones(base), (base, moved)
                seen.add(kind)
        both = (True, False)
        r1 = {("R1", over_first, sign) for over_first in both for sign in (1, -1)}
        r2 = {("R2", same, one_strand) for same in both for one_strand in both}
        assert seen == r1 | r2

    def test_reidemeister_3(self):
        # Jones is unchanged by the braid relation s_i s_i+1 s_i =
        # s_i+1 s_i s_i+1 inside a seeded word u ... v, in its all-positive
        # and all-negative forms and the mixed form s_i s_i+1 s_i^-1 =
        # s_i+1^-1 s_i s_i+1.  Letters are +-(i + 1) for s_i^+-1.  As a
        # control, inverting the last letter of the right side, which is
        # no relation, changes Jones on most words.
        forms = [((1, 2, 1), (2, 1, 2)), ((-1, -2, -1), (-2, -1, -2))]
        forms.append(((1, 2, -1), (-2, 1, 2)))
        rng = random.Random(31415)
        changed = [0] * len(forms)
        for _ in range(150):
            strands = rng.randint(3, 4)
            i = rng.randrange(strands - 2)
            u, v = (
                [
                    rng.choice((1, -1)) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(0, 3))
                ]
                for _ in range(2)
            )

            def close(letters):
                shifted = [l + i if l > 0 else l - i for l in letters]
                return braid_word_closure(strands, u + shifted + v)

            for k, (left, right) in enumerate(forms):
                base = jones(close(left))
                assert jones(close(right)) == base, (strands, u, i, left, v)
                changed[k] += jones(close(right[:2] + (-right[2],))) != base
        assert all(c > 150 // 2 for c in changed), changed


class TestBracketIdentity:
    def test_every_state_of_fixture_diagrams(self):
        names = (
            "kink",
            "two_crossing",
            "three_crossing",
            "worked_example",
            "trefoil",
            "hopf",
        )
        for name in names:
            diag = load_diagram(f"{name}.gauss")
            br = kauffman_bracket(diag)
            for state in all_states(diag):
                assert bracket_via_graph(diag, state) == br

    def test_random_diagrams(self):
        for diag in diagram_corpus(67, 12, max_crossings=3):
            br = kauffman_bracket(diag)
            for state in all_states(diag):
                assert bracket_via_graph(diag, state) == br


class TestJonesFromStateGraph:
    def test_prefactor_form(self):
        # Jones equals the writhe prefactor times the bracket identity
        # with A = t^(-1/4), B = t^(1/4), d = -t^(1/2) - t^(-1/2), with
        # loop-value powers cleared to keep everything polynomial.
        D = Laurent(RING_T, {(2,): -1, (-2,): -1})
        for name in ("two_crossing", "trefoil", "hopf", "worked_example"):
            diag = load_diagram(f"{name}.gauss")
            w = writhe(diag)
            e = diag.num_crossings
            for state in (seifert_state(diag), all_A_state(diag), all_B_state(diag)):
                g = state_ribbon_graph(diag, state)
                gstats = stats(g)
                r, k = gstats.r, gstats.k
                terms = bollobas_riordan(g).terms
                lowest = min(
                    k - 1 + (a2 + b2) // 2 - c for (a2, b2, c) in terms
                )
                clear = max(0, -lowest)
                lhs = jones(diag) * D**clear
                rhs = Laurent.zero(RING_T)
                for (a2, b2, c), coeff in terms.items():
                    rhs += (
                        coeff
                        * tq(b2 - a2)
                        * D ** (clear + k - 1 + (a2 + b2) // 2 - c)
                    )
                sign = -1 if w % 2 else 1
                rhs *= sign * tq(3 * w - e + 2 * r)
                assert lhs == rhs, (name, state)


class TestClassicalReducedBracket:
    def test_single_variable_form(self):
        # For a connected classical diagram the reduced bracket in A alone
        # matches the all-A state graph polynomial, powers of the loop
        # value cleared on both sides.
        E = Laurent(RING_ABD, {(2, 0, 0): -1, (-2, 0, 0): -1})
        for name in ("kink", "trefoil", "hopf"):
            diag = load_diagram(f"{name}.gauss")
            g = state_ribbon_graph(diag, all_A_state(diag))
            gstats = stats(g)
            assert gstats.k == 1
            assert all(s > 0 for s in g.signs.values())
            terms = bollobas_riordan(g).terms
            gamma = max((c for (_, _, c) in terms), default=0)
            bracket = kauffman_bracket(diag)
            lhs = Laurent.zero(RING_ABD)
            for (alpha, beta, delta), coeff in bracket.terms.items():
                lhs += (
                    coeff
                    * Laurent.monomial(RING_ABD, (alpha - beta, 0, 0))
                    * E ** (delta + gamma)
                )
            x_img = Laurent(RING_ABD, {(4, 0, 0): -1}) - Laurent.const(RING_ABD, 1)
            y_img = Laurent(RING_ABD, {(-4, 0, 0): -1}) - Laurent.const(RING_ABD, 1)
            rhs = Laurent.zero(RING_ABD)
            for (a2, b2, c), coeff in terms.items():
                assert a2 % 2 == 0 and b2 % 2 == 0 and c >= 0
                rhs += (
                    coeff
                    * x_img ** (a2 // 2)
                    * y_img ** (b2 // 2)
                    * E ** (gamma - c)
                )
            rhs *= Laurent.monomial(
                RING_ABD, (diag.num_crossings + 2 - 2 * gstats.v, 0, 0)
            )
            assert lhs == rhs, name
