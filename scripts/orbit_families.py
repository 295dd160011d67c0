#!/usr/bin/env python3
"""Print the labeled stabilizer L that ``dual_orbit`` walks the orbit
over, and the time the walk takes, per input and per family.

For each graph, a line gives its cell, |L| (``2^rank`` of the basis
that ``duality._stabilizer`` finds over twisted loops and pairs), the
cosets of L (``2^e / |L|``: the partial duals and forms taken), the
classes of the orbit, and the ``dual_orbit`` time in milliseconds,
stabilizer search included (the median of 3 calls, in process time).
Each group ends with the graph count, cosets, classes and summed time
of its two families, |L| = 1 and |L| > 1.

Inputs:

* the 48 ``dual_orbit`` inputs of the benchmark's ``orbit`` workload,
  the first 8 cycles of the pool of seed 1, drawn in the pool's order by
  ``perfbench/gen.ribbon_text`` (the ``verify --mode lemmas`` cells draw
  their text too and are skipped);
* ``gen.ribbon_text(Random(s), e, e // 2)`` for s = 1-6 at e = 12 and
  s = 1-4 at e = 14, the inputs of the ``duals`` rows of BENCH_30.json.

Run from the repository root:  python3 scripts/orbit_families.py
(about half a minute on a 2-core host).
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from gen import ribbon_text  # noqa: E402
from workloads import _orbit_cells  # noqa: E402

from ribbongraphs import duality  # noqa: E402
from ribbongraphs.ribbon import parse_ribbon_graph  # noqa: E402


REPEAT = 3  # timed calls per graph
SEEDS = {12: range(1, 7), 14: range(1, 5)}


def orbit_inputs() -> list[tuple[str, str]]:
    """(cell, text) of each ``dual_orbit`` operation in the first 8
    cycles of the orbit pool of seed 1."""
    rng = random.Random("orbit/1")
    inputs = []
    for _ in range(8):
        for kind, e, v in _orbit_cells():
            text = ribbon_text(rng, e, min(v, 2 * e))
            if kind == "dual_orbit":
                inputs.append((f"e={e},v={v}", text))
    return inputs


def measure(text: str) -> tuple[int, int, int, float]:
    """|L|, cosets, classes and the median ``dual_orbit`` time (ms)."""
    g = parse_ribbon_graph(text)
    order = 1 << len(duality._stabilizer(g))
    times = []
    for _ in range(REPEAT):
        g = parse_ribbon_graph(text)  # a fresh graph keeps no table
        start = time.process_time()
        classes = duality.dual_orbit(g)
        times.append(1000 * (time.process_time() - start))
    return order, (1 << g.num_edges) // order, len(classes), statistics.median(times)


def report(group: str, inputs: list[tuple[str, str]]) -> None:
    families: dict[str, list[tuple[int, int, float]]] = {"|L|=1": [], "|L|>1": []}
    for cell, text in inputs:
        order, cosets, classes, ms = measure(text)
        print(f"{group:6} {cell:10} |L|={order:<4} cosets={cosets:<6} "
              f"classes={classes:<6} {ms:9.1f} ms")
        families["|L|=1" if order == 1 else "|L|>1"].append((cosets, classes, ms))
    for family, rows in families.items():
        cosets, classes, ms = (sum(column) for column in zip(*rows)) if rows else (0, 0, 0.0)
        print(f"{group:6} {family:10} graphs={len(rows):<4} cosets={cosets:<6} "
              f"classes={classes:<6} {ms:9.1f} ms")


def main() -> None:
    report("orbit", orbit_inputs())
    for e, seeds in SEEDS.items():
        report(f"e={e}", [(f"e={e},s={s}", ribbon_text(random.Random(s), e, e // 2))
                          for s in seeds])


if __name__ == "__main__":
    main()
