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
from itertools import count, islice
from typing import Iterator, Sequence

from .br import BR_MAX_EDGES, bollobas_riordan, duality_invariant, tutte_via_br
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
    _labeled_form,
    _presentation,
    _walk,
    parse_ribbon_graph,
    serialize_ribbon_graph,
    stats,
)

VERIFY_DEFAULT_SAMPLES = 200
VERIFY_EXHAUSTIVE_EDGES = 12  # verify checks all 2^e subsets up to this e


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> SignedRibbonGraph:
    return parse_ribbon_graph(_read_text(path))


def _parse_edge_list(g: SignedRibbonGraph, text: str) -> frozenset[str]:
    labels = frozenset(part.strip() for part in text.split(",") if part.strip())
    for label in sorted(labels):  # the least unknown label is named
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


def cmd_polynomial(args: argparse.Namespace) -> tuple[int, str]:
    # the functions are looked up at call time, so a rebinding of them in
    # this module (by a tracer or a test) is seen
    parse, compute = {
        "poly": (parse_ribbon_graph, bollobas_riordan),
        "tutte": (parse_ribbon_graph, tutte_via_br),
        "invariant": (parse_ribbon_graph, duality_invariant),
        "bracket": (parse_gauss, kauffman_bracket),
        "jones": (parse_gauss, jones),
    }[args.command]
    return 0, compute(parse(_read_text(args.file))).render() + "\n"


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
    # Each lemma is an identity of labeled graphs.  Checks compare (graph,
    # presentation) pairs: the signs must be equal, and then equal
    # presentations mean that two graphs differ by rotation, circle order and
    # M1 alone.  Only other pairs compare labeled forms.  An exhaustive run
    # reads each distinct circle once, into ``reads``; a sampled run, whose
    # subsets share few circles, keeps them for one subset only.
    reads: dict[tuple, tuple] = {}

    def presented(x: SignedRibbonGraph) -> tuple:
        return x, _presentation(x, reads)

    def same(a: tuple, b: tuple) -> bool:
        if a[0].signs != b[0].signs:
            return False
        return a[1] == b[1] or _labeled_form(a[0]) == _labeled_form(b[0])

    base = presented(g)
    groups, orientable = _walk(g)
    # The composition chain of a subset dualises g on one edge at a time, in
    # label order, from the stored chain of its longest stored prefix (in mask
    # order one label shorter: one call per subset).  Chains are stored while
    # they hold fewer edges than the largest exhaustive run stores, 2^(h-1)
    # chains of h = VERIFY_EXHAUSTIVE_EDGES.  In mask order the chains with the
    # last label, which no later subset extends, come after all the others.
    chains = {frozenset(): g}
    most = VERIFY_EXHAUSTIVE_EDGES
    room = (most << most - 1) // max(g.num_edges, 1)
    # The presented duals on the runs labels[:i]: each previous △ subset is one.
    labels = g.edge_labels
    run_duals = dict.fromkeys(frozenset(labels[:i]) for i in range(len(labels) + 1))
    lines: list[str] = []
    previous: frozenset[str] | None = None
    previous_dual = g
    sampled = g.num_edges > VERIFY_EXHAUSTIVE_EDGES
    for subset in subsets:
        if sampled:
            reads.clear()
        missing, prefix = [], subset
        while prefix not in chains:
            missing.append(max(prefix))
            prefix = prefix - {missing[-1]}
        chain = chains[prefix]
        for label in reversed(missing):
            prefix = prefix | {label}
            chain = partial_dual(chain, {label})
            if len(chains) < room:
                chains[prefix] = chain
        h = partial_dual(g, subset)
        dual = presented(h)
        if subset in run_duals:
            run_duals[subset] = dual
        h_groups, h_orientable = _walk(h)  # one group per component
        checks = {
            "involution": same(presented(partial_dual(h, subset)), base),
            "composition": same(presented(chain), dual),
            "components": len(h_groups) == len(groups),
            "orientability": h_orientable == orientable,
        }
        if previous is not None:
            chained = presented(partial_dual(previous_dual, subset))
            diff = previous ^ subset
            direct = run_duals.get(diff) or presented(partial_dual(g, diff))
            checks["symmetric-difference"] = same(chained, direct)
        if not all(checks.values()):
            name = ",".join(sorted(subset)) or "{}"
            lines += [f"FAIL {c} subset={name}" for c, ok in checks.items() if not ok]
        previous, previous_dual = subset, h
    return not lines, lines


def _subset_pool(
    g: SignedRibbonGraph, samples: int, seed: int
) -> tuple[int, Iterator[frozenset[str]]]:
    """How many subsets ``verify`` checks, and a lazy iterator over them:
    all 2^e in mask order when e <= ``VERIFY_EXHAUSTIVE_EDGES``, otherwise the first
    ``samples`` distinct seeded draws (fewer than the 2^e > 2^12 subsets)."""
    labels = g.edge_labels
    if len(labels) <= VERIFY_EXHAUSTIVE_EDGES:
        masks = range(1 << len(labels))
        return len(masks), (
            frozenset(l for i, l in enumerate(labels) if m >> i & 1) for m in masks
        )
    rng = random.Random(seed)
    draws = (frozenset(l for l in labels if rng.random() < 0.5) for _ in count())
    seen: set[frozenset[str]] = set()  # set.add returns None: repeats are skipped
    fresh = (s for s in draws if s not in seen and not seen.add(s))
    return samples, islice(fresh, samples)


def _sample_count(text: str) -> int:
    most = 1 << VERIFY_EXHAUSTIVE_EDGES  # the subsets of the largest exhaustive run
    if not 1 <= int(text) <= most:
        raise argparse.ArgumentTypeError(f"must be from 1 to {most}, got {text}")
    return int(text)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args.file)
    count, subsets = _subset_pool(g, args.samples, args.seed)
    e = g.num_edges
    # duality mode reads one subgraph histogram of each checked dual
    if args.mode == "duality" and count << e > 1 << BR_MAX_EDGES:
        raise TooManyEdges(
            f"{count} subsets × 2^{e} subgraphs exceed the state-sum guard "
            f"of 2^{BR_MAX_EDGES}"
        )
    check = _verify_duality if args.mode == "duality" else _verify_lemmas
    ok, lines = check(g, subsets)
    lines.append(f"{'PASS' if ok else 'FAIL'} {args.mode} checked={count}")
    return (0 if ok else 1), "\n".join(lines) + "\n"


def cmd_stategraph(args: argparse.Namespace) -> tuple[int, str]:
    d = parse_gauss(_read_text(args.file))
    selector = args.state
    named = {"seifert": seifert_state, "all-A": all_A_state, "all-B": all_B_state}
    if selector in named:
        state = named[selector](d)
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
    add("poly", cmd_polynomial, "two-variable-plus-genus polynomial of the graph")
    add("tutte", cmd_polynomial, "Tutte polynomial via the x,y shift at z=1")
    add("invariant", cmd_polynomial, "duality-invariant restricted polynomial")
    add("duals", cmd_duals, "isomorphism classes among all partial duals")
    p = add("verify", cmd_verify, "check duality identities, exit 1 on failure")
    p.add_argument("--mode", choices=("duality", "lemmas"), default="duality")
    p.add_argument(
        "--samples",
        type=_sample_count,
        default=VERIFY_DEFAULT_SAMPLES,
        help=f"random subsets to draw, 1 to {1 << VERIFY_EXHAUSTIVE_EDGES}, when the "
        f"graph has more than {VERIFY_EXHAUSTIVE_EDGES} edges",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    add("bracket", cmd_polynomial, "Kauffman bracket of a Gauss-code diagram")
    add("jones", cmd_polynomial, "Jones polynomial of a Gauss-code diagram")
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
