"""Command-line interface.

One subcommand per operation; ``-`` reads the input from standard input.
Output is assembled in full before anything is printed, so error paths
never emit partial results.  Exit codes: 0 success, 1 verification
failure, 2 malformed input or unknown edge, 3 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Sequence

from .br import bollobas_riordan, duality_invariant, tutte_via_br
from .duality import dual_orbit, partial_dual
from .errors import RibbonGraphError, TooManyCrossings, TooManyEdges, UnknownEdge
from .links import (
    all_A_state,
    all_B_state,
    jones,
    kauffman_bracket,
    parse_gauss,
    seifert_state,
    state_ribbon_graph,
)
from .ribbon import (
    SignedRibbonGraph,
    canonical_form,
    parse_ribbon_graph,
    serialize_ribbon_graph,
    stats,
)

VERIFY_EXHAUSTIVE_MAX_EDGES = 12
VERIFY_DEFAULT_SAMPLES = 200


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> SignedRibbonGraph:
    return parse_ribbon_graph(_read_text(path))


def _parse_edge_list(g: SignedRibbonGraph, text: str) -> frozenset[str]:
    labels = frozenset(part.strip() for part in text.split(",") if part.strip())
    for label in labels:
        if label not in g.signs:
            raise UnknownEdge(f"unknown edge {label!r}")
    return labels


def cmd_stats(args: argparse.Namespace) -> tuple[int, str]:
    s = stats(_load_graph(args.file))
    lines = [
        f"v={s.v}",
        f"e={s.e}",
        f"k={s.k}",
        f"r={s.r}",
        f"n={s.n}",
        f"f={s.f}",
        f"orientable={'true' if s.orientable else 'false'}",
        f"chi={s.chi_closed}",
        ("genus=" if s.orientable else "crosscap=") + str(s.genus_or_crosscap),
    ]
    return 0, "\n".join(lines) + "\n"


def cmd_dual(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args.file)
    subset = _parse_edge_list(g, args.edges)
    return 0, serialize_ribbon_graph(partial_dual(g, subset))


def cmd_poly(args: argparse.Namespace) -> tuple[int, str]:
    return 0, bollobas_riordan(_load_graph(args.file)).render() + "\n"


def cmd_tutte(args: argparse.Namespace) -> tuple[int, str]:
    return 0, tutte_via_br(_load_graph(args.file)).render() + "\n"


def cmd_invariant(args: argparse.Namespace) -> tuple[int, str]:
    return 0, duality_invariant(_load_graph(args.file)).render() + "\n"


def cmd_duals(args: argparse.Namespace) -> tuple[int, str]:
    classes = dual_orbit(_load_graph(args.file))
    lines = [f"classes={len(classes)}"]
    for cls in classes:
        subset = ",".join(sorted(cls.subset))
        lines.append("")
        lines.append(f"# subset={subset} size={cls.size}")
        lines.append(serialize_ribbon_graph(cls.graph).rstrip("\n"))
    return 0, "\n".join(lines) + "\n"


def _verify_duality(g: SignedRibbonGraph, subsets) -> tuple[bool, list[str]]:
    base = duality_invariant(g)
    for subset in subsets:
        if duality_invariant(partial_dual(g, subset)) != base:
            return False, [f"FAIL duality subset={','.join(sorted(subset)) or '{}'}"]
    return True, []


def _verify_lemmas(g: SignedRibbonGraph, subsets) -> tuple[bool, list[str]]:
    lines: list[str] = []
    ok = True
    base = stats(g)
    form = canonical_form(g)
    previous: frozenset[str] | None = None
    previous_dual = g
    for subset in subsets:
        h = partial_dual(g, subset)
        h_form = canonical_form(h)
        name = ",".join(sorted(subset)) or "{}"
        if canonical_form(partial_dual(h, subset)) != form:
            ok = False
            lines.append(f"FAIL involution subset={name}")
        step = g
        for label in sorted(subset):
            step = partial_dual(step, {label})
        if canonical_form(step) != h_form:
            ok = False
            lines.append(f"FAIL composition subset={name}")
        hs = stats(h)
        if hs.k != base.k:
            ok = False
            lines.append(f"FAIL components subset={name}")
        if hs.orientable != base.orientable:
            ok = False
            lines.append(f"FAIL orientability subset={name}")
        if previous is not None:
            chained = partial_dual(previous_dual, subset)
            direct = partial_dual(g, previous ^ subset)
            if canonical_form(chained) != canonical_form(direct):
                ok = False
                lines.append(f"FAIL symmetric-difference subset={name}")
        previous, previous_dual = subset, h
    return ok, lines


def _subset_pool(g: SignedRibbonGraph, samples: int, seed: int):
    labels = sorted(g.signs)
    if len(labels) <= VERIFY_EXHAUSTIVE_MAX_EDGES:
        for mask in range(1 << len(labels)):
            yield frozenset(l for i, l in enumerate(labels) if mask >> i & 1)
        return
    rng = random.Random(seed)
    for _ in range(samples):
        yield frozenset(l for l in labels if rng.random() < 0.5)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args.file)
    subsets = list(_subset_pool(g, args.samples, args.seed))
    if args.mode == "duality":
        ok, lines = _verify_duality(g, subsets)
        label = "duality"
    else:
        ok, lines = _verify_lemmas(g, subsets)
        label = "lemmas"
    lines.append(f"{'PASS' if ok else 'FAIL'} {label} checked={len(subsets)}")
    return (0 if ok else 1), "\n".join(lines) + "\n"


def cmd_bracket(args: argparse.Namespace) -> tuple[int, str]:
    return 0, kauffman_bracket(parse_gauss(_read_text(args.file))).render() + "\n"


def cmd_jones(args: argparse.Namespace) -> tuple[int, str]:
    return 0, jones(parse_gauss(_read_text(args.file))).render() + "\n"


def cmd_stategraph(args: argparse.Namespace) -> tuple[int, str]:
    d = parse_gauss(_read_text(args.file))
    selector = args.state
    if selector == "seifert":
        state = seifert_state(d)
    elif selector == "all-A":
        state = all_A_state(d)
    elif selector == "all-B":
        state = all_B_state(d)
    else:
        ids = d.crossing_ids
        if len(selector) != len(ids) or set(selector) - {"0", "1"}:
            raise RibbonGraphError(
                "state must be seifert, all-A, all-B, or a 0/1 string "
                f"of length {len(ids)} over the sorted crossing ids "
                "(0 = A-splitting, 1 = B-splitting)"
            )
        state = {cid: ("B" if bit == "1" else "A") for cid, bit in zip(ids, selector)}
    return 0, serialize_ribbon_graph(state_ribbon_graph(d, state))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbongraphs",
        description="Signed ribbon graphs, partial duality, and link state sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file, or - for standard input")
        p.set_defaults(func=func)
        return p

    add("stats", cmd_stats, "print v, e, k, r, n, f, orientability, chi, genus")
    p = add("dual", cmd_dual, "partial dual with respect to a set of edges")
    p.add_argument(
        "--edges",
        default="",
        help="comma-separated edge labels (empty for the identity dual)",
    )
    add("poly", cmd_poly, "two-variable-plus-genus polynomial of the graph")
    add("tutte", cmd_tutte, "Tutte polynomial via the x,y shift at z=1")
    add("invariant", cmd_invariant, "duality-invariant restricted polynomial")
    add("duals", cmd_duals, "isomorphism classes among all partial duals")
    p = add("verify", cmd_verify, "check duality identities, exit 1 on failure")
    p.add_argument("--mode", choices=("duality", "lemmas"), default="duality")
    p.add_argument(
        "--samples",
        type=_positive_int,
        default=VERIFY_DEFAULT_SAMPLES,
        help="random subsets to draw when the graph has more than "
        f"{VERIFY_EXHAUSTIVE_MAX_EDGES} edges",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    add("bracket", cmd_bracket, "Kauffman bracket of a Gauss-code diagram")
    add("jones", cmd_jones, "Jones polynomial of a Gauss-code diagram")
    p = add("stategraph", cmd_stategraph, "ribbon graph of a splitting state")
    p.add_argument(
        "--state",
        default="seifert",
        help="seifert, all-A, all-B, or a 0/1 bitstring over sorted "
        "crossing ids (0 = A, 1 = B)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, output = args.func(args)
    except (TooManyEdges, TooManyCrossings) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (RibbonGraphError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
