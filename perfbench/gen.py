"""Seeded input generators with exact sizes.

Each generator draws from a ``random.Random`` passed in by the caller and
returns the text the program reads, so the program only ever sees the
generated inputs.  Sizes are hit exactly: a ribbon graph has exactly ``e``
edges on exactly ``v`` circles, a Gauss code exactly ``n`` crossings on
exactly ``c`` strands, every strand and circle non-empty.
"""

from __future__ import annotations

import random


def _cut(rng: random.Random, items: list, parts: int) -> list[list]:
    """Split ``items`` into ``parts`` non-empty consecutive runs."""
    cuts = sorted(rng.sample(range(1, len(items)), parts - 1))
    bounds = [0] + cuts + [len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def ribbon_text(rng: random.Random, e: int, v: int, positive: bool = False) -> str:
    """A random signed ribbon graph in ``.rg`` text: labels ``1..e``, each
    occurring twice with a random flag, spread over ``v`` circles."""
    if not 1 <= v <= 2 * e:
        raise ValueError(f"cannot spread {e} edges over {v} non-empty circles")
    occs = [str(i + 1) for i in range(e)] * 2
    rng.shuffle(occs)
    signs = " ".join(
        f"{i + 1}:{'+' if positive or rng.random() < 0.5 else '-'}" for i in range(e)
    )
    lines = ["ribbon-graph v1", "edges: " + signs]
    for circle in _cut(rng, occs, v):
        lines.append(
            "circle: " + " ".join(l + ("'" if rng.random() < 0.5 else "") for l in circle)
        )
    return "\n".join(lines) + "\n"


def gauss_text(rng: random.Random, n: int, c: int) -> str:
    """A random virtual link diagram in gauss text: crossings ``1..n``,
    each passed once over and once under, spread over ``c`` strands."""
    if not 1 <= c <= 2 * n:
        raise ValueError(f"cannot spread {n} crossings over {c} non-empty strands")
    signs = {str(i + 1): rng.choice("+-") for i in range(n)}
    passes = [("O" if over else "U") + cid for cid in signs for over in (True, False)]
    rng.shuffle(passes)
    lines = ["gauss v1"]
    for strand in _cut(rng, passes, c):
        lines.append("component: " + " ".join(p + signs[p[1:]] for p in strand))
    return "\n".join(lines) + "\n"
