"""The four workloads: their operations, inputs and exact checks.

A workload is a cycle of *cells* (operation kind plus input size); its
pool repeats the cycle with a fresh seeded input in every slot, so each
run of a workload sees the same mix of kinds and sizes in the same
order and only the inputs differ between seeds.  That stratification is
what keeps the run-to-run spread small.

Every operation is checked against an identity that comes from the
mathematics, not from the code under test:

* the coefficient sum of R(x, y, z) and of the duality invariant is 2^e
  (every spanning subgraph contributes one monomial with coefficient 1);
* the Tutte polynomial T(x, y) = R(x-1, y-1, 1) takes the value 2^e at
  (2, 2);
* the Kauffman bracket coefficient sum is 2^n (one term per state);
* the Jones polynomial at t = 1 is (-2)^(c-1) for a c-component link;
* ``dual_orbit`` class sizes sum to 2^e;
* ``verify`` exits 0 and reports ``PASS`` over all 2^e subsets;
* partial duality keeps the number of components and flips exactly the
  signs of the chosen edges; a state graph's edge signs are +1 for A
  and -1 for B;
* ``stats`` reports the input's v and e, the component count found by
  a separate union-find over the input text, and v - e + f as chi.

Text outputs are checked with the small parsers below, never with the
program's own parsers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from gen import gauss_text, ribbon_text

# Operations call through the module attribute at call time, so the
# tracer's rebinding of these names takes effect.
from ribbongraphs import br, cli, duality, links
from ribbongraphs.links import parse_gauss
from ribbongraphs.ribbon import parse_ribbon_graph, serialize_ribbon_graph

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Cycles in a pool: enough that a run of 30 s at this commit sees no
# input twice (cli-small excepted: its inputs are tiny and fixtures
# repeat anyway).  Longer runs wrap around the pool.
POOL_CYCLES = {"br-large": 84, "bracket-large": 72, "orbit": 24, "cli-small": 12}

REFERENCE_SEED = 0


class Op(NamedTuple):
    kind: str
    size: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    digest: Callable[[object], str]


# ----------------------------------------------------------------------
# independent readers of the text formats
# ----------------------------------------------------------------------


def rg_shape(text: str) -> tuple[dict[str, int], list[list[str]]]:
    """Signs and per-circle labels of ``.rg`` text."""
    signs: dict[str, int] = {}
    circles: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("edges:"):
            for tok in line[len("edges:"):].split():
                label, _, sign = tok.rpartition(":")
                signs[label] = 1 if sign == "+" else -1
        elif line.startswith("circle:"):
            circles.append([tok.rstrip("'") for tok in line[len("circle:"):].split()])
    return signs, circles


def gauss_shape(text: str) -> tuple[dict[str, int], int]:
    """Crossing signs and strand count of gauss text."""
    signs: dict[str, int] = {}
    strands = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("component:"):
            strands += 1
            for tok in line[len("component:"):].split():
                signs[tok[1:-1]] = 1 if tok[-1] == "+" else -1
    return signs, max(strands, 1)


def count_components(circles: list[list[str]]) -> int:
    parent = list(range(len(circles)))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    first: dict[str, int] = {}
    for ci, labels in enumerate(circles):
        for label in labels:
            if label in first:
                parent[find(first[label])] = find(ci)
            else:
                first[label] = ci
    return len({find(ci) for ci in range(len(circles))})


_TERM_SEP = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"([A-Za-z]+)(?:\^(?:(\d+)|\((-?\d+)(?:/(\d+))?\)))?$")


def poly_terms(text: str) -> list[tuple[int, dict[str, Fraction]]]:
    """(coefficient, exponents) per term of a rendered polynomial."""
    text = text.strip()
    if text == "0":
        return []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = _TERM_SEP.split(text)
    terms = []
    for i in range(0, len(parts), 2):
        s = sign if i == 0 else (1 if parts[i - 1] == "+" else -1)
        factors = parts[i].split("*")
        coeff = int(factors.pop(0)) if factors[0].isdigit() else 1
        exps: dict[str, Fraction] = {}
        for factor in factors:
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError(f"unreadable factor {factor!r}")
            name, plain, num, den = m.groups()
            exps[name] = Fraction(int(plain or num or 1), int(den or 1))
        terms.append((s * coeff, exps))
    return terms


def coeff_sum_text(text: str) -> int:
    return sum(c for c, _ in poly_terms(text))


def evaluate_text(text: str, point: dict[str, int]) -> Fraction:
    total = Fraction(0)
    for coeff, exps in poly_terms(text):
        value = Fraction(coeff)
        for name, exp in exps.items():
            if exp.denominator != 1:
                raise ValueError(f"fractional exponent {exp} of {name}")
            value *= Fraction(point[name]) ** int(exp)
        total += value
    return total


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def _expect(what: str, got, want) -> "str | None":
    return None if got == want else f"{what}: got {got}, want {want}"


def check_laurent_sum(want: int):
    return lambda p: _expect("coefficient sum", sum(p.terms.values()), want)


def check_orbit(e: int):
    return lambda classes: _expect("class sizes", sum(c.size for c in classes), 1 << e)


def check_cli(kind: str, text: str, argv: list[str]):
    """Check of one subcommand's (exit code, stdout) on input ``text``."""
    if kind in ("bracket", "jones", "stategraph"):
        signs, strands = gauss_shape(text)
        n = len(signs)
    else:
        signs, circles = rg_shape(text)
        e = len(signs)

    def check(out) -> "str | None":
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        if kind in ("poly", "invariant"):
            return _expect("coefficient sum", coeff_sum_text(stdout), 1 << e)
        if kind == "tutte":
            return _expect("T(2,2)", evaluate_text(stdout, {"x": 2, "y": 2}), 1 << e)
        if kind == "bracket":
            return _expect("coefficient sum", coeff_sum_text(stdout), 1 << n)
        if kind == "jones":
            return _expect("V(1)", coeff_sum_text(stdout), (-2) ** (strands - 1))
        if kind == "duals":
            sizes = [int(s) for s in re.findall(r"size=(\d+)", stdout)]
            head = int(stdout.split("\n", 1)[0].removeprefix("classes="))
            return _expect("classes", len(sizes), head) or _expect(
                "class sizes", sum(sizes), 1 << e
            )
        if kind.startswith("verify"):
            mode = argv[argv.index("--mode") + 1]
            return _expect("verdict", stdout.splitlines()[-1], f"PASS {mode} checked={1 << e}")
        if kind == "stats":
            got = dict(line.split("=", 1) for line in stdout.split())
            k = count_components(circles)
            v = len(circles)
            f = int(got["f"])
            return (
                _expect("v", int(got["v"]), v)
                or _expect("e", int(got["e"]), e)
                or _expect("k", int(got["k"]), k)
                or _expect("r", int(got["r"]), v - k)
                or _expect("chi", int(got["chi"]), v - e + f)
            )
        if kind == "dual":
            chosen = set(argv[argv.index("--edges") + 1].split(",")) - {""}
            dsigns, dcircles = rg_shape(stdout)
            want = {l: -s if l in chosen else s for l, s in signs.items()}
            return _expect("signs", dsigns, want) or _expect(
                "components", count_components(dcircles), count_components(circles)
            )
        if kind == "stategraph":
            state = argv[argv.index("--state") + 1]
            ids = sorted(signs)
            if state == "seifert":
                want = dict(signs)
            elif state == "all-A":
                want = dict.fromkeys(ids, 1)
            elif state == "all-B":
                want = dict.fromkeys(ids, -1)
            else:
                want = {cid: 1 if bit == "0" else -1 for cid, bit in zip(ids, state)}
            dsigns, dcircles = rg_shape(stdout)
            occurrences = sorted(l for c in dcircles for l in c)
            return _expect("signs", dsigns, want) or _expect(
                "occurrences", occurrences, sorted(ids * 2)
            )
        raise ValueError(f"no check for {kind}")

    return check


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


def run_cli(argv: list[str], text: str) -> tuple[int, str]:
    """``cli.main`` in process with ``text`` on stdin; returns (exit, stdout)."""
    stdin = sys.stdin
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _render(p) -> str:
    return _sha(p.render())


def _orbit_digest(classes) -> str:
    return _sha(
        "".join(f"{c.subset}{c.size}{serialize_ribbon_graph(c.graph)}" for c in classes)
    )


def _cli_digest(out) -> str:
    return _sha(f"{out[0]}\n{out[1]}")


def cli_op(kind: str, argv: list[str], text: str, size: str) -> Op:
    return Op(
        kind, size, lambda: run_cli(argv, text), check_cli(kind, text, argv), _cli_digest
    )


def br_op(kind: str, text: str, e: int, v: int) -> Op:
    g = parse_ribbon_graph(text)
    return Op(kind, f"e={e},v={v}", lambda: getattr(br, kind)(g),
              check_laurent_sum(1 << e), _render)


def link_op(kind: str, text: str, n: int, c: int) -> Op:
    d = parse_gauss(text)
    want = 1 << n if kind == "kauffman_bracket" else (-2) ** (c - 1)
    return Op(kind, f"n={n},c={c}", lambda: getattr(links, kind)(d),
              check_laurent_sum(want), _render)


def orbit_op(kind: str, text: str, e: int, v: int) -> Op:
    size = f"e={e},v={v}"
    if kind == "dual_orbit":
        g = parse_ribbon_graph(text)
        return Op(kind, size, lambda: duality.dual_orbit(g), check_orbit(e), _orbit_digest)
    return cli_op(kind, ["verify", "-", "--mode", "lemmas"], text, size)


# One shape per size: each size then forms one tight latency cluster
# holding a third of the operations, so the median falls inside the
# middle cluster and p90 inside the top one, never on the gap between
# two clusters where a small shift in the mix would move it a lot.
def _br_cells():
    return [(k, e, v) for e, v in ((10, 8), (11, 6), (12, 1))
            for k in ("bollobas_riordan", "duality_invariant")]


def _bracket_cells():
    return [(k, n, c) for n, c in ((9, 2), (10, 1), (11, 1))
            for k in ("kauffman_bracket", "jones")]


def _orbit_cells():
    # At e=7, graphs on one to three circles spread dual_orbit time over
    # 0.1-0.8 s (coefficient of variation 0.75), which would swamp the
    # run-to-run spread; four to six circles keep it near 0.35.
    return [(k, e, v) for e, v in ((6, 1), (6, 3), (6, 5), (7, 4), (7, 5), (7, 6))
            for k in ("dual_orbit", "verify-lemmas")]


GRAPH_KINDS = ("stats", "dual", "poly", "tutte", "invariant", "duals",
               "verify-duality", "verify-lemmas")
LINK_KINDS = ("bracket", "jones", "stategraph")
STATES = ("seifert", "all-A", "all-B", "bits")


def _cli_argv(kind: str, text: str, rng: random.Random) -> list[str]:
    if kind == "dual":
        labels = sorted(rg_shape(text)[0])
        chosen = [l for l in labels if rng.random() < 0.5]
        return ["dual", "-", "--edges", ",".join(chosen)]
    if kind.startswith("verify"):
        return ["verify", "-", "--mode", kind.split("-")[1]]
    if kind == "stategraph":
        state = rng.choice(STATES)
        if state == "bits":
            state = "".join(rng.choice("01") for _ in gauss_shape(text)[0])
        return ["stategraph", "-", "--state", state]
    return [kind, "-"]


def _cli_cycle(rng: random.Random) -> list[Op]:
    """One cycle of cli-small: every subcommand on every fixture of its
    format and on fresh seeded inputs with e, n = 1..4."""
    graphs = [(p.name, p.read_text()) for p in sorted(FIXTURES.glob("*.rg"))]
    links = [(p.name, p.read_text()) for p in sorted(FIXTURES.glob("*.gauss"))]
    ops = []
    for kind in GRAPH_KINDS:
        inputs = list(graphs)
        for e in (1, 2, 3, 4):
            v = rng.randint(1, e + 1)
            inputs.append((f"e={e},v={v}", ribbon_text(rng, e, v, positive=kind == "tutte")))
        ops += [cli_op(kind, _cli_argv(kind, t, rng), t, size) for size, t in inputs]
    for kind in LINK_KINDS:
        inputs = list(links)
        for n in (1, 2, 3, 4):
            c = rng.randint(1, 2)
            inputs.append((f"n={n},c={c}", gauss_text(rng, n, c)))
        ops += [cli_op(kind, _cli_argv(kind, t, rng), t, size) for size, t in inputs]
    return ops


def _cycle(workload: str, rng: random.Random, scale=None) -> list[Op]:
    """One cycle of cells.  ``scale`` maps a cell size to a smaller one,
    for the harness self-check."""
    shrink = scale or (lambda x: x)
    if workload == "br-large":
        cells = [(k, shrink(e), v) for k, e, v in _br_cells()]
        return [br_op(k, ribbon_text(rng, e, min(v, 2 * e)), e, min(v, 2 * e))
                for k, e, v in cells]
    if workload == "bracket-large":
        cells = [(k, shrink(n), c) for k, n, c in _bracket_cells()]
        return [link_op(k, gauss_text(rng, n, c), n, c) for k, n, c in cells]
    if workload == "orbit":
        cells = [(k, shrink(e), v) for k, e, v in _orbit_cells()]
        return [orbit_op(k, ribbon_text(rng, e, min(v, 2 * e)), e, min(v, 2 * e))
                for k, e, v in cells]
    if workload == "cli-small":
        return _cli_cycle(rng)
    raise KeyError(workload)


def pool(workload: str, seed: int, scale=None) -> list[Op]:
    """The timed operations of one run, generated from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return [op for _ in range(POOL_CYCLES[workload]) for op in _cycle(workload, rng, scale)]


def warmup(workload: str) -> list[Op]:
    """One operation per kind on tiny fixed inputs, so lazy imports,
    compiled regexes and first-call paths are warm before timing."""
    rng = random.Random(f"{workload}/warmup")
    ops = _cycle(workload, rng, scale=lambda x: 3)
    seen, out = set(), []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out


def reference(workload: str) -> list[Op]:
    """Fixed corpus whose output digests are compared with those
    recorded at the seed commit: one cycle at a fixed seed."""
    return _cycle(workload, random.Random(f"{workload}/reference/{REFERENCE_SEED}"))
