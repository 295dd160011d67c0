#!/usr/bin/env python3
"""Pin the worked-example ribbon graph by exhaustive search.

The reference worked example is a signed ribbon graph with two vertices
and three edges, signs (1:+, 2:-, 3:-), published only as a picture, but
its table of spanning-subgraph data (k, r, n, f, s per subset) and its
polynomial x + 2 + y + x*y*z^2 + 2*y*z + y^2*z are given in full.  This
script enumerates every arrow presentation on two circles with those
signs, keeps the ones reproducing the whole table, and shows they form a
single isomorphism class.  The canonical representative (lexicographically
smallest serialization) is written to fixtures/klein.rg.

Run from the repository root:  python3 scripts/find_klein_fixture.py
"""

from __future__ import annotations

import os
import sys
from itertools import permutations

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from ribbongraphs.br import bollobas_riordan
from ribbongraphs.duality import dual_orbit
from ribbongraphs.ribbon import SignedRibbonGraph, canonical_form, serialize_ribbon_graph
from tests.helpers import subgraph_stats

SIGNS = {"1": 1, "2": -1, "3": -1}

# Expected (k, r, n, f, s2) per edge subset, with s2 = 2*s to stay integral.
# The two-element rows are symmetric under swapping edges 2 and 3.
TABLE = {
    frozenset(): (2, 0, 0, 2, -2),
    frozenset("1"): (2, 0, 1, 2, -2),
    frozenset("2"): (1, 1, 0, 1, 0),
    frozenset("3"): (1, 1, 0, 1, 0),
    frozenset("12"): (1, 1, 1, 1, 0),
    frozenset("13"): (1, 1, 1, 1, 0),
    frozenset("23"): (1, 1, 1, 2, 2),
    frozenset("123"): (1, 1, 2, 1, 2),
}

GOLDEN_RENDER = "x*y*z^2 + y^2*z + 2*y*z + x + y + 2"


def candidates():
    tokens = ("1", "1", "2", "2", "3", "3")
    seen_words = set()
    for perm in permutations(tokens):
        if perm in seen_words:
            continue
        seen_words.add(perm)
        for split in range(1, 6):
            first, second = perm[:split], perm[split:]
            for mask in range(1 << 6):
                flags = [(mask >> i) & 1 == 1 for i in range(6)]
                circles = (
                    tuple(zip(first, flags[:split])),
                    tuple(zip(second, flags[split:])),
                )
                try:
                    yield SignedRibbonGraph(circles, SIGNS)
                except Exception:
                    continue


def matches_table(g: SignedRibbonGraph) -> bool:
    for subset, row in TABLE.items():
        s = subgraph_stats(g, subset)
        if (s.k, s.r, s.n, s.f, s.s2) != row:
            return False
    return True


def main() -> int:
    survivors = []
    total = 0
    for g in candidates():
        total += 1
        if matches_table(g):
            survivors.append(g)
    print(f"candidates examined: {total}")
    print(f"table matches: {len(survivors)}")

    classes = {canonical_form(g) for g in survivors}
    print(f"isomorphism classes: {len(classes)}")
    if len(classes) != 1:
        print("search is inconclusive; not writing a fixture", file=sys.stderr)
        return 1

    winner = min(serialize_ribbon_graph(g) for g in survivors)
    graph = survivors[0]
    poly = bollobas_riordan(graph).render()
    print(f"polynomial: {poly}")
    assert poly == GOLDEN_RENDER, poly

    orbit = dual_orbit(graph)
    print(f"partial-dual isomorphism classes (all subsets): {len(orbit)}")
    print(f"  excluding the empty subset's class: {len(orbit) - 1}")
    for cls in orbit:
        members = ",".join(sorted("".join(sorted(s)) for s in [cls.subset]) )
        print(f"  representative subset {{{members}}} size={cls.size}")

    out = os.path.join(os.path.dirname(__file__), "..", "fixtures", "klein.rg")
    comment = (
        "# Two-vertex, three-edge worked example with signs (1:+, 2:-, 3:-).\n"
        "# Pinned by scripts/find_klein_fixture.py: exhaustive search over\n"
        "# all two-circle arrow presentations on these signed edges, keeping\n"
        "# those whose eight spanning-subgraph rows (k, r, n, f, s) match the\n"
        "# reference table; all matches form one isomorphism class and this\n"
        "# is its lexicographically smallest serialization.\n"
    )
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(comment + winner)
    print(f"wrote {os.path.normpath(out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
