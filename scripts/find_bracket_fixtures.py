#!/usr/bin/env python3
"""Find Gauss codes matching the reference bracket polynomials.

The reference text pictures three small virtual knots, giving their
Kauffman brackets and Jones polynomials but no codes, plus a worked
ribbon-graph construction on a three-crossing diagram.  This script
enumerates every one-component signed Gauss code with two or three
crossings and keeps the codes reproducing the reference data:

  two_crossing.gauss    bracket A^2*d + 2*A*B + B^2
  three_crossing.gauss  bracket A^3 + 3*A^2*B*d + 2*A*B^2 + A*B^2*d^2 + B^3*d
                        and Jones 1
  worked_example.gauss  the state (A at 1, B at 2 and 3) yields a state
                        ribbon graph isomorphic, signs included, to the
                        worked-example fixture fixtures/klein.rg

The worked-example condition pins the third pictured knot: every code
satisfying it has bracket A^3*d + 3*A^2*B + 2*A*B^2 + A*B^2*d + B^3*d and
Jones t^(-2) - t^(-1) - t^(-1/2) + 1 + t^(1/2), the published values.
Each fixture is the lexicographically smallest serialization over all
rotations and relabelings of the matches (for the worked example, over
relabelings that keep the distinguished splitting at crossing 1).

The two-crossing search also demonstrates that no code attains both the
reference bracket and its published companion Jones value; the Jones
polynomial matching that bracket is -t^(-5/2) + t^(-3/2) + t^(-1).

Run from the repository root after find_klein_fixture.py:
  python3 scripts/find_bracket_fixtures.py
"""

from __future__ import annotations

import os
import sys
from itertools import permutations, product

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from ribbongraphs.links import (
    VirtualLinkDiagram,
    jones,
    kauffman_bracket,
    serialize_gauss,
    state_ribbon_graph,
)
from ribbongraphs.polynomial import RING_ABD, RING_T, Laurent
from ribbongraphs.ribbon import is_isomorphic, parse_ribbon_graph
from tests.helpers import parse_poly

A = Laurent.monomial(RING_ABD, (1, 0, 0))
B = Laurent.monomial(RING_ABD, (0, 1, 0))
d = Laurent.monomial(RING_ABD, (0, 0, 1))

TARGET_2 = A * A * d + 2 * A * B + B * B
COMPANION_JONES_2 = parse_poly("t^(-3/2) + t^(-1) - t^(-1/2)", RING_T)
TARGET_3 = A**3 + 3 * A * A * B * d + 2 * A * B * B + A * B * B * d * d + B**3 * d
TARGET_WORKED = A**3 * d + 3 * A * A * B + 2 * A * B * B + A * B * B * d + B**3 * d
COMPANION_JONES_WORKED = parse_poly(
    "t^(-2) - t^(-1) - t^(-1/2) + 1 + t^(1/2)", RING_T
)
WORKED_STATE = {"1": "A", "2": "B", "3": "B"}


def knot_codes(n: int):
    """All one-component diagrams with crossings 1..n, each over once and
    under once, with every sign vector."""
    tokens = [(str(i), True) for i in range(1, n + 1)]
    tokens += [(str(i), False) for i in range(1, n + 1)]
    head, rest = tokens[0], tokens[1:]
    for tail in permutations(rest):
        comp = (head,) + tail
        for signs in product((1, -1), repeat=n):
            yield VirtualLinkDiagram(
                [comp], {str(i + 1): s for i, s in enumerate(signs)}
            )


def rotations_relabeled(diag: VirtualLinkDiagram):
    """Every rotation of a knot code, crossings renamed 1,2,... in order
    of first appearance."""
    comp = diag.components[0]
    for shift in range(len(comp)):
        rotated = comp[shift:] + comp[:shift]
        names: dict[str, str] = {}
        for p in rotated:
            names.setdefault(p.crossing, str(len(names) + 1))
        yield VirtualLinkDiagram(
            [[(names[p.crossing], p.over) for p in rotated]],
            {names[c]: s for c, s in diag.signs.items()},
        )


def canonical(diag: VirtualLinkDiagram) -> VirtualLinkDiagram:
    return min(rotations_relabeled(diag), key=serialize_gauss)


def write_fixture(name: str, diag: VirtualLinkDiagram, comment: str) -> None:
    out = os.path.join(os.path.dirname(__file__), "..", "fixtures", name)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(comment + serialize_gauss(diag))
    print(f"wrote {os.path.normpath(out)}")


def main() -> int:
    fixtures_dir = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    example = parse_ribbon_graph(
        open(os.path.join(fixtures_dir, "klein.rg"), encoding="utf-8").read()
    )

    # ---- two crossings -------------------------------------------------
    hits2 = [h for h in knot_codes(2) if kauffman_bracket(h) == TARGET_2]
    print(f"two-crossing bracket matches: {len(hits2)}")
    print(f"  their Jones values: {sorted({jones(h).render() for h in hits2})}")
    attained = sum(1 for h in hits2 if jones(h) == COMPANION_JONES_2)
    print(
        "  matches also attaining the published companion Jones "
        f"{COMPANION_JONES_2.render()!r}: {attained}"
    )
    best2 = min((canonical(h) for h in hits2), key=serialize_gauss)
    write_fixture(
        "two_crossing.gauss",
        best2,
        "# One-component two-crossing code whose bracket is the reference\n"
        "# value A^2*d + 2*A*B + B^2; found by scripts/find_bracket_fixtures.py\n"
        "# (exhaustive search over all two-crossing signed Gauss codes),\n"
        "# smallest serialization among the matches.  No two-crossing code\n"
        "# attains both this bracket and the published companion Jones value;\n"
        "# the Jones of this code is -t^(-5/2) + t^(-3/2) + t^(-1).\n",
    )

    # ---- first three-crossing knot ------------------------------------
    one = Laurent.const(RING_T, 1)
    hits3 = [h for h in knot_codes(3) if kauffman_bracket(h) == TARGET_3]
    print(f"three-crossing bracket matches: {len(hits3)}")
    with_jones = [h for h in hits3 if jones(h) == one]
    print(f"  of those, with Jones 1: {len(with_jones)}")
    best3 = min((canonical(h) for h in with_jones), key=serialize_gauss)
    write_fixture(
        "three_crossing.gauss",
        best3,
        "# One-component three-crossing code whose bracket is the reference\n"
        "# value A^3 + 3*A^2*B*d + 2*A*B^2 + A*B^2*d^2 + B^3*d and whose\n"
        "# Jones polynomial is 1; found by scripts/find_bracket_fixtures.py\n"
        "# (exhaustive search over all three-crossing signed Gauss codes),\n"
        "# smallest serialization among the matches.\n",
    )

    # ---- worked ribbon-graph construction diagram ----------------------
    worked = []
    for h in knot_codes(3):
        if is_isomorphic(state_ribbon_graph(h, WORKED_STATE), example):
            worked.append(h)
    print(f"worked-example state-graph matches: {len(worked)}")
    brackets = {kauffman_bracket(h).render() for h in worked}
    jones_vals = {jones(h).render() for h in worked}
    print(f"  their brackets: {sorted(brackets)}")
    print(f"  their Jones values: {sorted(jones_vals)}")
    assert all(kauffman_bracket(h) == TARGET_WORKED for h in worked)
    assert all(jones(h) == COMPANION_JONES_WORKED for h in worked)
    labeled = [
        r
        for h in worked
        for r in rotations_relabeled(h)
        if is_isomorphic(state_ribbon_graph(r, WORKED_STATE), example)
    ]
    best_worked = min(labeled, key=serialize_gauss)
    write_fixture(
        "worked_example.gauss",
        best_worked,
        "# One-component three-crossing code whose state with an A-splitting\n"
        "# at crossing 1 and B-splittings at crossings 2 and 3 has a state\n"
        "# ribbon graph isomorphic, signs included, to fixtures/klein.rg;\n"
        "# found by scripts/find_bracket_fixtures.py (exhaustive search over\n"
        "# all three-crossing signed Gauss codes), smallest serialization\n"
        "# among the relabelings preserving that condition.  Every match has\n"
        "# bracket A^3*d + 3*A^2*B + 2*A*B^2 + A*B^2*d + B^3*d and Jones\n"
        "# t^(-2) - t^(-1) - t^(-1/2) + 1 + t^(1/2), the reference values of\n"
        "# the third pictured knot.\n",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
