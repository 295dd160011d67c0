#!/usr/bin/env python3
"""Time the frontier engine per caller and input size, against the sweep
of all 2^e subsets up to 16 edges, and print the frontier widths of its
plan.

The engine runs with each caller's exponent key: R
(``br.bollobas_riordan``), which carries the component partition in its
states, and the duality invariant (``br.duality_invariant``) and the
bracket (``links._bracket_terms``, which ``links.kauffman_bracket`` runs
on its all-A state graph), which do not.  R's and the invariant's times
include the ``Laurent`` that wraps their terms.

Small cells: for each, a seeded set of graphs goes through the engine
once per caller and through the depth-first sweep over all 2^e subsets
that it replaced, ``tests.helpers.sweep_profiles``, run on the same
occurrence table.  Graphs come from ``tests.helpers.sized_graph``
(e edges on v circles, e = 2-16) and from the all-A state graphs of
``tests.helpers.sized_diagram`` (n crossings on one or two strands,
n = 4-14).  Each figure is the best of three passes, in microseconds
per graph; ``ratio`` is R over sweep, and ``plan/R``, ``plan/inv`` and
``plan/bracket`` are the share of each caller's engine call that its plan
(``br._plan``, the same for every caller) takes.

Large families, at e = n = 16, 20, 24 and 28: the all-A state graphs of
one-strand diagrams, one-circle graphs, and graphs on v = e/2 circles,
a few seeds each.  Each graph gets its own line: its engine time per
caller (best of three, ms), the sweep's up to 16 edges, and, read off
the engine's plan (``br._plan``), the widest frontier and the state-free
proxy sum of 2^(w/2) over the planned width w after each step; each family
and size ends with the median time per caller.  A guard on the engine's
work would be calibrated from these figures, so the script lifts
``br.BR_MAX_EDGES`` to time R and the invariant past it.

Run from the repository root:  python3 scripts/frontier_cost.py
(a minute or two on a 2-core host).
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from ribbongraphs import br
from ribbongraphs.links import _bracket_terms, all_A_state, state_ribbon_graph
from ribbongraphs.ribbon import _flat
from tests.helpers import sized_diagram, sized_graph, sweep_profiles

SEED = 2007
SWEEP_MAX_EDGES = 16
LARGE_SEEDS = 4
CALLERS = {
    "R": br.bollobas_riordan,
    "inv": br.duality_invariant,
    "bracket": _bracket_terms,
}


def whole_sweep(g) -> dict:
    """The histogram of (|F|, k(F), f(F), negative edges) by one sweep
    over all the edges of ``g``, on the engine's edge list."""
    sigma = _flat(g)[4]
    tau = [c ^ 1 for c in range(len(sigma))]  # every band excluded
    return sweep_profiles(br._edges(g), sigma, tau, list(range(g.num_vertices)), g.num_vertices)


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
    times = [per_graph_us(graphs, caller) for caller in CALLERS.values()]
    plan = per_graph_us(graphs, br._plan)
    cells = "".join(f" {t:>10.0f}" for t in times)
    shares = "".join(f" {plan / t:>{len(name) + 5}.2f}" for name, t in zip(CALLERS, times))
    print(f"{name:<20} {len(graphs):>6} {sweep:>10.0f}{cells} {times[0] / sweep:>7.2f}{shares}")


def large(name: str, graphs) -> None:
    times = []
    for seed, g in enumerate(graphs, 1):
        _flat(g)
        widths = br._plan(g)[2]
        times.append([per_graph_us([g], caller) / 1000 for caller in CALLERS.values()])
        sweep = f"{per_graph_us([g], whole_sweep) / 1000:.1f}" if g.num_edges <= SWEEP_MAX_EDGES else "-"
        proxy = sum(2 ** (w / 2) for w in widths)
        cells = "".join(f" {t:>10.1f}" for t in times[-1])
        print(f"{name:<16} {seed:>4}{cells} {sweep:>10} {max(widths):>6} {proxy:>8.0f}")
    medians = "".join(f" {statistics.median(column):>10.1f}" for column in zip(*times))
    print(f"{name:<16} {'all':>4}{medians} median")


def main() -> None:
    br.BR_MAX_EDGES = 10**6  # the large families pass the guard of 24 edges
    rng = random.Random(SEED)
    callers = "".join(f" {name + '_us':>10}" for name in CALLERS)
    shares = "".join(f" plan/{name}" for name in CALLERS)
    print(f"{'cell':<20} {'graphs':>6} {'sweep_us':>10}{callers} {'ratio':>7}{shares}")
    for e in range(2, SWEEP_MAX_EDGES + 1):
        count = 40 if e <= 10 else 12 if e <= 13 else 3
        for v in sorted({1, max(1, e // 2), e, 2 * e * 3 // 4}):
            row(f"e={e} v={v}", [sized_graph(rng, e, v) for _ in range(count)])
    for n in range(4, 15):
        count = 40 if n <= 10 else 12 if n <= 12 else 3
        for strands in (1, 2):
            diagrams = [sized_diagram(rng, n, strands) for _ in range(count)]
            row(f"all-A n={n} c={strands}", [state_ribbon_graph(d, all_A_state(d)) for d in diagrams])
    print()
    callers = "".join(f" {name + '_ms':>10}" for name in CALLERS)
    print(f"{'family':<16} {'seed':>4}{callers} {'sweep_ms':>10} {'peak_w':>6} {'proxy':>8}")
    for e in (16, 20, 24, 28):
        diagrams = [sized_diagram(rng, e, 1) for _ in range(LARGE_SEEDS)]
        large(f"all-A n={e} c=1", [state_ribbon_graph(d, all_A_state(d)) for d in diagrams])
        large(f"e={e} v=1", [sized_graph(rng, e, 1) for _ in range(LARGE_SEEDS)])
        large(f"e={e} v={e // 2}", [sized_graph(rng, e, e // 2) for _ in range(LARGE_SEEDS)])


if __name__ == "__main__":
    main()
