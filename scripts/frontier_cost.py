#!/usr/bin/env python3
"""Time the frontier engine against the sweep of all 2^e subsets, per
input size.

For each cell, a seeded set of graphs goes through
``br._subgraph_profiles`` and through the depth-first sweep over all
2^e subsets that it replaced, ``tests.helpers.sweep_profiles``, run on
the same occurrence table.  Graphs come from ``tests.helpers.sized_graph``
(e edges on v circles, e = 2-16) and from the all-A state graphs of
``tests.helpers.sized_diagram`` (n crossings on one or two strands,
n = 4-14).  Each figure is the best of three passes, in microseconds
per graph; ``ratio`` is frontier over sweep.  The per-size costs are
what a guard on the engine's work would be calibrated from.

Run from the repository root:  python3 scripts/frontier_cost.py
(about a minute on a 2-core host).
"""

from __future__ import annotations

import os
import random
import sys
import time

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from ribbongraphs import br
from ribbongraphs.links import all_A_state, state_ribbon_graph
from ribbongraphs.ribbon import _flat
from tests.helpers import sized_diagram, sized_graph, sweep_profiles

SEED = 2007


def whole_sweep(g) -> dict:
    """The histogram of ``br._subgraph_profiles`` by one sweep over all
    the edges of ``g``, with the edge list built as the engine builds it."""
    labels, _, home, partner, sigma = _flat(g)
    v = g.num_vertices
    edges = [
        (2 * i, 2 * i + 1, 2 * j, 2 * j + 1, home[i], home[j], int(g.signs[labels[i]] < 0))
        for i, j in enumerate(partner)
        if i < j
    ]
    tau = [c ^ 1 for c in range(len(sigma))]  # every band excluded
    return sweep_profiles(edges, sigma, tau, list(range(v)), v)


def per_graph_us(graphs, profiles) -> float:
    """Best of three passes of ``profiles`` over ``graphs``, in µs per
    graph."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for g in graphs:
            profiles(g)
        best = min(best, time.perf_counter() - start)
    return best / len(graphs) * 1e6


def row(name: str, graphs) -> None:
    for g in graphs:
        _flat(g)  # the tables are built outside the timing
    sweep = per_graph_us(graphs, whole_sweep)
    frontier = per_graph_us(graphs, br._subgraph_profiles)
    print(f"{name:<20} {len(graphs):>6} {sweep:>12.0f} {frontier:>12.0f} {frontier / sweep:>7.2f}")


def main() -> None:
    rng = random.Random(SEED)
    print(f"{'cell':<20} {'graphs':>6} {'sweep_us':>12} {'frontier_us':>12} {'ratio':>7}")
    for e in range(2, 17):
        count = 40 if e <= 10 else 12 if e <= 13 else 3
        for v in sorted({1, max(1, e // 2), e, 2 * e * 3 // 4}):
            row(f"e={e} v={v}", [sized_graph(rng, e, v) for _ in range(count)])
    for n in range(4, 15):
        count = 40 if n <= 10 else 12 if n <= 12 else 3
        for strands in (1, 2):
            diagrams = [sized_diagram(rng, n, strands) for _ in range(count)]
            row(f"all-A n={n} c={strands}", [state_ribbon_graph(d, all_A_state(d)) for d in diagrams])


if __name__ == "__main__":
    main()
