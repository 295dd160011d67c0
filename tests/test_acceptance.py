"""Acceptance criteria, one test per criterion.

Every check is exact; nothing is approximate and nothing is skipped.
Each test prints one ``criterion NN: PASS|FAIL`` line before asserting,
and the lines are replayed as a summary section after the run (see
conftest), so the scoreboard is visible even under output capture.
"""

import random
import time
from fractions import Fraction

import pytest

from ribbongraphs.br import bollobas_riordan, duality_invariant, tutte_via_br
from ribbongraphs.duality import dual_orbit, partial_dual
from ribbongraphs.links import jones, kauffman_bracket, state_ribbon_graph
from ribbongraphs.polynomial import (
    RING_ABD,
    RING_T,
    RING_XY,
    RING_XYZ,
    Laurent,
    restrict_duality_surface,
)
from ribbongraphs.ribbon import SignedRibbonGraph, is_isomorphic, stats

from .helpers import (
    all_subsets,
    contract_edge,
    count_subgraphs,
    delete_edge,
    diagram_corpus,
    graph_corpus,
    load_diagram,
    load_graph,
    monomial_map,
    parse_poly,
    permute_vars,
    plane_corpus,
    subgraph_stats,
    with_bridge,
    with_nontrivial_loop,
    with_ordinary,
    with_trivial_loop,
)

X = Laurent.monomial(RING_XYZ, (2, 0, 0))
Y = Laurent.monomial(RING_XYZ, (0, 2, 0))
Z = Laurent.monomial(RING_XYZ, (0, 0, 1))
ONE = Laurent.const(RING_XYZ, 1)


SCOREBOARD: list[str] = []


def report(number: int, ok: bool, detail: str) -> bool:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    SCOREBOARD.append(line)
    print(line)
    return ok


@pytest.fixture(scope="module")
def corpus():
    """The shared random-graph corpus for the duality criteria."""
    return graph_corpus(271828, 100, max_edges=6)


def flip_all_signs(g: SignedRibbonGraph) -> SignedRibbonGraph:
    return SignedRibbonGraph(g.circles, {l: -s for l, s in g.signs.items()})


def natural_dual(g: SignedRibbonGraph) -> SignedRibbonGraph:
    return flip_all_signs(partial_dual(g, g.edge_labels))


def swap_xy(p: Laurent) -> Laurent:
    return permute_vars(p, (1, 0, 2))


def test_criterion_01_golden_polynomial():
    g = load_graph("klein.rg")
    golden = X + 2 * ONE + Y + X * Y * Z * Z + 2 * Y * Z + Y * Y * Z
    table = {
        (): (2, 0, 0, 2, -2),
        ("1",): (2, 0, 1, 2, -2),
        ("2",): (1, 1, 0, 1, 0),
        ("3",): (1, 1, 0, 1, 0),
        ("1", "2"): (1, 1, 1, 1, 0),
        ("1", "3"): (1, 1, 1, 1, 0),
        ("2", "3"): (1, 1, 1, 2, 2),
        ("1", "2", "3"): (1, 1, 2, 1, 2),
    }
    rows_ok = True
    for subset, expected in table.items():
        st = subgraph_stats(g, subset)
        rows_ok = rows_ok and (st.k, st.r, st.n, st.f, st.s2) == expected
    poly_ok = bollobas_riordan(g) == golden
    ok = report(1, poly_ok and rows_ok, "golden polynomial and subgraph table")
    assert ok


def unsigned_r(g: SignedRibbonGraph) -> Laurent:
    return bollobas_riordan(SignedRibbonGraph(g.circles, {l: 1 for l in g.signs}))


def test_criterion_02_dual_orbit_counts():
    # Classes are counted over all 2^e subsets, the empty one (G itself)
    # included, as the dual_orbit docstring defines them.  The reference
    # once wanted 5 for klein: that is the count of classes other than
    # G's own.  Six is proved independently of is_isomorphic: the
    # all-positive R of the six representatives are pairwise distinct,
    # and R is an isomorphism invariant, so no two of them can merge.
    ok = True
    details = []
    for name, want in (("torus.rg", 2), ("klein.rg", 6)):
        g = load_graph(name)
        # CPU time of this process: load from other processes on a shared
        # host cannot push a ~2 ms orbit past the bound.
        t0 = time.process_time()
        orbit = dual_orbit(g)
        seconds = time.process_time() - t0
        distinct = len({unsigned_r(c.graph) for c in orbit})
        ok = ok and len(orbit) == want and distinct == want and seconds < 1.0
        ok = ok and sum(c.size for c in orbit) == 1 << g.num_edges
        details.append(
            f"{name[:-3]}={len(orbit)} with {distinct} distinct R (want {want})"
        )
    ok = report(2, ok, "orbit classes: " + ", ".join(details))
    assert ok


def test_criterion_03_duality_theorem(corpus):
    checked = 0
    ok = True
    for g in corpus:
        base = duality_invariant(g)
        for subset in all_subsets(g):
            checked += 1
            if duality_invariant(partial_dual(g, subset)) != base:
                ok = False
    ok = report(3, ok and len(corpus) >= 100, f"invariant equal on {checked} duals")
    assert ok


def test_criterion_04_duality_lemmas(corpus):
    rng = random.Random(314159)
    ok = True
    for g in corpus:
        base = stats(g)
        labels = list(g.edge_labels)
        pool = [frozenset(), frozenset(labels)] + [
            frozenset(l for l in labels if rng.random() < 0.5) for _ in range(6)
        ]
        previous = None
        for subset in pool:
            h = partial_dual(g, subset)
            hs = stats(h)
            ok = ok and is_isomorphic(partial_dual(h, subset), g)
            step = g
            for label in sorted(subset):
                step = partial_dual(step, {label})
            ok = ok and is_isomorphic(step, h)
            ok = ok and hs.k == base.k and hs.orientable == base.orientable
            if previous is not None:
                chained = partial_dual(partial_dual(g, previous), subset)
                ok = ok and is_isomorphic(chained, partial_dual(g, previous ^ subset))
            previous = subset
        if labels:
            e = rng.choice(labels)
            others = frozenset(l for l in labels if l != e and rng.random() < 0.5)
            with_e = others | {e}
            ok = ok and is_isomorphic(
                partial_dual(contract_edge(g, e), others),
                delete_edge(partial_dual(g, with_e), e),
            )
            ok = ok and is_isomorphic(
                delete_edge(partial_dual(g, with_e), e),
                contract_edge(partial_dual(g, others), e),
            )
            ok = ok and is_isomorphic(
                partial_dual(delete_edge(g, e), others),
                contract_edge(partial_dual(g, with_e), e),
            )
            ok = ok and is_isomorphic(
                contract_edge(partial_dual(g, with_e), e),
                delete_edge(partial_dual(g, others), e),
            )
    ok = report(4, ok, "involution, composition, difference, swaps")
    assert ok


def _check_relation(g, e, lhs_of):
    r_g = bollobas_riordan(g)
    r_del = bollobas_riordan(delete_edge(g, e))
    r_con = bollobas_riordan(contract_edge(g, e))
    return lhs_of(r_g, r_del, r_con)


def test_criterion_05_contraction_deletion():
    rng = random.Random(161803)
    base_graphs = graph_corpus(161803, 50, max_edges=4)
    xy_neg = Laurent.monomial(RING_XYZ, (-1, 1, 0))  # x^(-1/2) y^(1/2)
    xy_pos = Laurent.monomial(RING_XYZ, (1, -1, 0))  # x^(1/2) y^(-1/2)
    yz = Laurent.monomial(RING_XYZ, (0, 2, 1))
    xz = Laurent.monomial(RING_XYZ, (2, 0, 1))
    y_over_x = Laurent.monomial(RING_XY, (-2, 2))
    cases = []

    def ordinary(sign):
        def check(g, e):
            return _check_relation(
                g,
                e,
                lambda rg, rd, rc: rg == (rc + rd)
                if sign > 0
                else rg == xy_neg * rd + xy_pos * rc,
            )

        return check

    def bridge(sign):
        def check(g, e):
            return _check_relation(
                g,
                e,
                lambda rg, rd, rc: rg == (X + ONE) * rc
                if sign > 0
                else rg == xy_pos * (Y + ONE) * rc,
            )

        return check

    def trivial_loop(sign, orientable):
        def check(g, e):
            if orientable:
                factor = (Y + ONE) if sign > 0 else xy_neg * (X + ONE)
            else:
                factor = (yz + ONE) if sign > 0 else xy_neg * (xz + ONE)
            return _check_relation(g, e, lambda rg, rd, rc: rg == factor * rd)

        return check

    def nonorientable_loop(sign):
        def check(g, e):
            if sign > 0:
                return _check_relation(
                    g, e, lambda rg, rd, rc: rg == rd + yz * rc
                )
            return _check_relation(
                g, e, lambda rg, rd, rc: rg == xy_neg * (rd + xz * rc)
            )

        return check

    def restricted_orientable_loop(sign):
        def check(g, e):
            lhs = restrict_duality_surface(bollobas_riordan(g))
            rd = bollobas_riordan(delete_edge(g, e))
            rc = bollobas_riordan(contract_edge(g, e))
            if sign > 0:
                rhs = restrict_duality_surface(rd) + y_over_x * restrict_duality_surface(rc)
            else:
                rhs = restrict_duality_surface(yz * (rd + rc))
            return lhs == rhs

        return check

    for sign in (1, -1):
        cases.append((lambda g, s=sign: with_ordinary(g, rng, s), ordinary(sign)))
        cases.append((lambda g, s=sign: with_bridge(g, rng, s), bridge(sign)))
        for orientable in (True, False):
            cases.append(
                (
                    lambda g, s=sign, o=orientable: with_trivial_loop(g, rng, s, o),
                    trivial_loop(sign, orientable),
                )
            )
        cases.append(
            (
                lambda g, s=sign: with_nontrivial_loop(g, rng, s, False),
                nonorientable_loop(sign),
            )
        )
        cases.append(
            (
                lambda g, s=sign: with_nontrivial_loop(g, rng, s, True),
                restricted_orientable_loop(sign),
            )
        )
    assert len(cases) == 12
    ok = True
    for build, check in cases:
        hits = 0
        for g in base_graphs:
            h, e = build(g)
            hits += 1
            if not check(h, e):
                ok = False
        ok = ok and hits >= 50
    ok = report(5, ok, "twelve contraction-deletion equation families x 50")
    assert ok


def test_criterion_06_symmetries(corpus):
    ok = True
    for g in corpus[:60]:
        st = stats(g)
        power = st.n - st.r
        lhs = bollobas_riordan(flip_all_signs(g))
        rhs = Laurent.monomial(RING_XYZ, (-power, power, 0)) * swap_xy(
            bollobas_riordan(g)
        )
        ok = ok and lhs == rhs
    for g in corpus[:40]:
        st = stats(g)
        two_g = 2 * st.k - st.chi_closed
        lhs = Laurent.monomial(RING_XY, (two_g, 0)) * restrict_duality_surface(
            bollobas_riordan(g)
        )
        rhs = Laurent.monomial(RING_XY, (0, two_g)) * restrict_duality_surface(
            swap_xy(bollobas_riordan(natural_dual(g)))
        )
        ok = ok and lhs == rhs
    plane = plane_corpus(602214, 20, grows=5)
    ok = ok and len(plane) >= 20
    for g in plane:
        t_g = tutte_via_br(g)
        t_dual = tutte_via_br(natural_dual(g))
        ok = ok and t_g == permute_vars(t_dual, (1, 0))
    ok = report(6, ok, "sign flip, natural duality, plane Tutte duality")
    assert ok


def test_criterion_07_link_goldens():
    A = Laurent.monomial(RING_ABD, (1, 0, 0))
    B = Laurent.monomial(RING_ABD, (0, 1, 0))
    d = Laurent.monomial(RING_ABD, (0, 0, 1))
    two = load_diagram("two_crossing.gauss")
    three = load_diagram("three_crossing.gauss")
    bracket2_ok = kauffman_bracket(two) == A * A * d + 2 * A * B + B * B
    jones2 = jones(two)
    # At A=t^(-1/4), B=t^(1/4), d=-t^(1/2)-t^(-1/2) the bracket
    # A^2*d + 2*A*B + B^2 becomes -t^(-1) + 1 + t^(1/2), whose exponent
    # gaps are 1 then 1/2.  The writhe factor (-1)^w t^(3w/4) is a
    # monomial and keeps those gaps; a mirror only reverses their order.
    # The old reference t^(-3/2) + t^(-1) - t^(-1/2) has gaps 1/2, 1/2,
    # so no diagram with this bracket has it.  This diagram has writhe
    # -2, a factor of t^(-3/2).
    jones2_want = parse_poly("-t^(-5/2) + t^(-3/2) + t^(-1)", RING_T)
    jones2_ok = jones2 == jones2_want
    bracket3_ok = kauffman_bracket(three) == (
        A**3 + 3 * A * A * B * d + 2 * A * B * B + A * B * B * d * d + B**3 * d
    )
    jones3_ok = jones(three) == Laurent.const(RING_T, 1)
    ok = report(
        7,
        bracket2_ok and jones2_ok and bracket3_ok and jones3_ok,
        f"2x bracket={'ok' if bracket2_ok else 'bad'}, "
        f"2x jones={'ok' if jones2_ok else repr(jones2.render())}, "
        f"3x bracket={'ok' if bracket3_ok else 'bad'}, "
        f"3x jones={'ok' if jones3_ok else 'bad'}",
    )
    assert ok


def link_corpus():
    fixtures = [
        load_diagram(f"{name}.gauss")
        for name in (
            "kink",
            "two_crossing",
            "three_crossing",
            "worked_example",
            "trefoil",
            "hopf",
        )
    ]
    return fixtures + diagram_corpus(173205, 10, max_crossings=4)


def test_criterion_08_bracket_identity():
    images = [
        (1, (Fraction(1), Fraction(-1), Fraction(1))),
        (1, (Fraction(-1), Fraction(1), Fraction(1))),
        (1, (Fraction(0), Fraction(0), Fraction(-1))),
    ]
    ok = True
    checked = 0
    for diag in link_corpus():
        assert diag.num_crossings <= 5
        br = kauffman_bracket(diag)
        ids = diag.crossing_ids
        for mask in range(1 << len(ids)):
            state = {c: ("B" if mask >> i & 1 else "A") for i, c in enumerate(ids)}
            g = state_ribbon_graph(diag, state)
            s = stats(g)
            shifted = Laurent.monomial(
                RING_XYZ, (2 * s.k, 2 * s.v, s.v + 1)
            ) * bollobas_riordan(g)
            rhs = Laurent.monomial(RING_ABD, (s.e, 0, 0)) * monomial_map(
                shifted, RING_ABD, images
            )
            checked += 1
            ok = ok and rhs == br
    ok = report(8, ok, f"bracket identity over {checked} states")
    assert ok


def test_criterion_09_state_graphs_are_duals():
    rng = random.Random(141421)
    ok = True
    for diag in link_corpus():
        ids = diag.crossing_ids
        for _ in range(10):
            s1 = {c: rng.choice("AB") for c in ids}
            s2 = {c: rng.choice("AB") for c in ids}
            diff = frozenset(c for c in ids if s1[c] != s2[c])
            g1 = state_ribbon_graph(diag, s1)
            g2 = state_ribbon_graph(diag, s2)
            ok = ok and is_isomorphic(partial_dual(g1, diff), g2)
    ok = report(9, ok, "state graphs related by partial duality, signed")
    assert ok


def test_criterion_10_specialization_counts():
    # R here carries x^(r(G)-r(F)+s(F)) with s(F)=0 on all-positive plane
    # graphs, and T = R(x-1, y-1, 1) (see tutte_via_br).  So trees,
    # forests and connected spanning subgraphs are T(1,1), T(2,1) and
    # T(1,2), and all spanning subgraphs are T(2,2) = R(1,1,1) = 2^e.
    # The old point R(2,1,1) sums 2^(r(G)-r(F)) instead.
    plane = plane_corpus(223606, 20, grows=5)
    assert len(plane) >= 20
    ok = True
    wrong = None
    for g in plane:
        counts = count_subgraphs(g)
        r = bollobas_riordan(g)
        point = {
            "trees": (0, 0, 1),
            "forests": (1, 0, 1),
            "connected": (0, 1, 1),
            "all": (1, 1, 1),
        }
        for name, at in point.items():
            value = r.evaluate(tuple(Fraction(c) for c in at))
            if value != counts[name]:
                ok = False
                if wrong is None:
                    wrong = f"{name}: R{at}={value} vs count={counts[name]}"
    ok = report(10, ok, wrong or "four evaluations match brute-force counts")
    assert ok
