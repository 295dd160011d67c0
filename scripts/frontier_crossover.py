#!/usr/bin/env python3
"""Time the subset sweep against the frontier engine, per input size.

For each cell, a seeded set of graphs goes through
``br._subgraph_profiles`` twice: once with the sweep over all 2^e
subsets forced, once with the frontier engine forced.  Graphs come from
``tests.helpers.sized_graph`` (e edges on v circles, e = 2-16) and from
the all-A state graphs of ``tests.helpers.sized_diagram`` (n crossings
on one or two strands, n = 4-14).  Each figure is the best of three
passes, in microseconds per graph; ``ratio`` is frontier over sweep.
``br._FRONTIER_MIN_EDGES`` is the least edge count from which the engine
wins on the random graphs.

Run from the repository root:  python3 scripts/frontier_crossover.py
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
from tests.helpers import sized_diagram, sized_graph

SEED = 2007


def per_graph_us(graphs, threshold: int) -> float:
    """Best of three passes of the profiles of ``graphs``, in µs per
    graph, with ``_FRONTIER_MIN_EDGES`` set to ``threshold``."""
    kept, br._FRONTIER_MIN_EDGES = br._FRONTIER_MIN_EDGES, threshold
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for g in graphs:
                br._subgraph_profiles(g)
            best = min(best, time.perf_counter() - start)
    finally:
        br._FRONTIER_MIN_EDGES = kept
    return best / len(graphs) * 1e6


def row(name: str, graphs) -> None:
    for g in graphs:
        _flat(g)  # the tables are built outside the timing
    sweep = per_graph_us(graphs, sys.maxsize)
    frontier = per_graph_us(graphs, 0)
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
    print(f"_FRONTIER_MIN_EDGES = {br._FRONTIER_MIN_EDGES}")


if __name__ == "__main__":
    main()
