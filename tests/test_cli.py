"""Command-line interface: outputs, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from unittest import mock

import pytest

import ribbongraphs
from ribbongraphs import cli, ribbon
from ribbongraphs.duality import partial_dual
from ribbongraphs.links import serialize_gauss
from ribbongraphs.polynomial import RING_ABD, RING_T, RING_XY, Laurent
from ribbongraphs.ribbon import (
    SignedRibbonGraph,
    parse_ribbon_graph,
    serialize_ribbon_graph,
)

from .helpers import (
    FIXTURES,
    bouquet,
    braid_word_closure,
    cli_corpus,
    forest,
    graph_corpus,
    parse_poly,
    sized_graph,
    table_builds,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def counting(calls: list, function):
    """``function``, appending the arguments of each call to ``calls``."""

    def counted(*args):
        calls.append(args)
        return function(*args)

    return counted


GOLDENS = FIXTURES.parent / "tests" / "goldens"
GOLDEN_CASES = json.loads((GOLDENS / "cases.json").read_text(encoding="utf-8"))


class TestStats:
    def test_torus_block(self, capsys):
        code, out, err = run(capsys, "stats", fixture("torus.rg"))
        assert code == 0
        assert err == ""
        assert out == (
            "v=1\ne=2\nk=1\nr=0\nn=2\nf=1\norientable=true\nchi=0\ngenus=1\n"
        )

    def test_crosscap_line_when_nonorientable(self, capsys):
        code, out, _ = run(capsys, "stats", fixture("mobius.rg"))
        assert code == 0
        assert "crosscap=1" in out
        assert "genus=" not in out

    def test_stdin_dash(self, capsys, monkeypatch):
        text = (FIXTURES / "torus.rg").read_text()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "stats", "-")
        assert code == 0
        assert out.startswith("v=1\n")


class TestDual:
    def test_output_parses_back(self, capsys):
        code, out, _ = run(capsys, "dual", fixture("torus.rg"), "--edges", "1")
        assert code == 0
        g = parse_ribbon_graph(out)
        assert g.num_vertices == 2
        assert g.signs == {"1": -1, "2": 1}

    def test_empty_subset_is_identity(self, capsys):
        code, out, _ = run(capsys, "dual", fixture("klein.rg"))
        assert code == 0
        assert parse_ribbon_graph(out) == parse_ribbon_graph(
            (FIXTURES / "klein.rg").read_text()
        )

    def test_unknown_edge_exit_2(self, capsys):
        code, out, err = run(capsys, "dual", fixture("torus.rg"), "--edges", "9")
        assert code == 2
        assert out == ""
        assert "unknown edge" in err

    def test_comma_label_refused_at_parse(self, capsys, monkeypatch):
        # A label holding a comma is a parse error, not a list of edges
        # that --edges would then find unknown.
        text = "edges: a,b:+ c:-\ncircle: a,b c a,b c\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, "dual", "-", "--edges", "a,b")
        assert (code, out) == (2, "")
        assert err == "error: line 1, col 8: invalid edge label 'a,b'\n"

    def test_least_unknown_edge_named_under_any_hash_seed(self):
        # Of several unknown labels the least is named, in a fresh
        # process whatever the seed of string hashing.
        package_root = os.path.dirname(os.path.dirname(ribbongraphs.__file__))
        errors = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [package_root, env.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-m", "ribbongraphs.cli", "dual"]
                + [fixture("torus.rg"), "--edges", "p,q,r,s"],
                capture_output=True,
                text=True,
                env=env,
            )
            assert (proc.returncode, proc.stdout) == (2, "")
            errors.add(proc.stderr)
        assert errors == {"error: unknown edge 'p'\n"}


class TestPolynomials:
    def test_poly_golden(self, capsys):
        code, out, _ = run(capsys, "poly", fixture("klein.rg"))
        assert code == 0
        assert out == "x*y*z^2 + y^2*z + 2*y*z + x + y + 2\n"

    def test_tutte(self, capsys):
        code, out, _ = run(capsys, "tutte", fixture("bridge.rg"))
        assert (code, out) == (0, "x\n")

    def test_invariant(self, capsys):
        code, out, _ = run(capsys, "invariant", fixture("annulus.rg"))
        assert (code, out) == (0, "y + 1\n")

    def test_tutte_signed_graph_exit_2(self, capsys, tmp_path):
        path = tmp_path / "neg.rg"
        path.write_text("edges: b:-\ncircle: b\ncircle: b\n")
        code, out, err = run(capsys, "tutte", str(path))
        assert code == 2
        assert out == ""

    def test_tutte_names_negative_edges(self, capsys, tmp_path):
        # One negative edge puts s(F) = +-1/2 into every power of x in R,
        # so the shift x -> x - 1 has no integer power to take.
        path = tmp_path / "one_negative.rg"
        path.write_text(
            "edges: a:+ knot7:- c:+\ncircle: a knot7 c\ncircle: c knot7 a\n"
        )
        code, out, err = run(capsys, "tutte", str(path))
        assert code == 2
        assert out == ""
        assert "nonnegative integer exponents" in err
        assert "negative edges knot7 " in err

    def test_tutte_names_least_half_power(self, capsys, tmp_path):
        # A negative twisted loop: R = x^(1/2) y^(1/2) z + x^(-1/2) y^(1/2),
        # whose first term in the engine's order is not the least power of
        # x; the message names the least, whatever that order.
        text = "edges: 1:-\ncircle: 1' 1\n"
        r = ribbongraphs.bollobas_riordan(parse_ribbon_graph(text))
        assert next(iter(r.terms))[0] != min(a for a, _, _ in r.terms)
        path = tmp_path / "twisted_loop.rg"
        path.write_text(text)
        code, out, err = run(capsys, "tutte", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: the Tutte shift R(x-1, y-1, 1) needs nonnegative integer exponents"
            " of x and y, and the negative edges 1 break it: x occurs with exponent -1/2\n"
        )

    @pytest.mark.parametrize(
        "command, name, path",
        [
            ("poly", "bollobas_riordan", "klein.rg"),
            ("tutte", "tutte_via_br", "bridge.rg"),
            ("invariant", "duality_invariant", "annulus.rg"),
            ("bracket", "kauffman_bracket", "trefoil.gauss"),
            ("jones", "jones", "trefoil.gauss"),
        ],
    )
    def test_computed_through_the_cli_attribute(self, capsys, monkeypatch, command, name, path):
        # Each subcommand looks its function up in cli when it runs, so a
        # rebinding there, a tracer's or a test's, sees the one call.
        code, out, _ = run(capsys, command, fixture(path))
        calls: list = []
        monkeypatch.setattr(cli, name, counting(calls, getattr(cli, name)))
        assert run(capsys, command, fixture(path)) == (code, out, "")
        assert (code, len(calls)) == (0, 1)

    @pytest.mark.parametrize("command", ["poly", "tutte", "invariant"])
    def test_guard_exit_3(self, capsys, tmp_path, command):
        # the frontier engine needs one state per step for a forest, and
        # the guard still counts its edges
        for shape in (bouquet, forest):
            path = tmp_path / "big.rg"
            path.write_text(serialize_ribbon_graph(shape(25)))
            code, out, err = run(capsys, command, str(path))
            assert code == 3
            assert out == ""
            assert "25 edges exceed the state-sum guard of 24 (2^25 subsets)" in err


class TestDuals:
    def test_torus_classes(self, capsys):
        code, out, _ = run(capsys, "duals", fixture("torus.rg"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "classes=2"
        assert "# subset= size=2" in lines
        assert "# subset=1 size=2" in lines

    def test_deterministic(self, capsys):
        first = run(capsys, "duals", fixture("klein.rg"))
        second = run(capsys, "duals", fixture("klein.rg"))
        assert first == second
        assert first[1].splitlines()[0] == "classes=6"

    def test_guard_exit_3(self, capsys, tmp_path):
        labels = [f"e{i}" for i in range(21)]
        decl = " ".join(f"{l}:+" for l in labels)
        circle = " ".join(l for l in labels for _ in range(1, 3))
        path = tmp_path / "big.rg"
        path.write_text(f"edges: {decl}\ncircle: {circle}\n")
        code, out, err = run(capsys, "duals", str(path))
        assert code == 3
        assert out == ""
        assert "exceed" in err
        assert "21 edges exceed the orbit guard of 20 (2^21 partial duals)" in err


class TestVerify:
    def test_duality_mode(self, capsys):
        code, out, _ = run(capsys, "verify", fixture("torus.rg"))
        assert code == 0
        assert out == "PASS duality checked=4\n"

    def test_lemmas_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify", fixture("klein.rg"), "--mode", "lemmas"
        )
        assert code == 0
        assert out == "PASS lemmas checked=8\n"

    def test_lemmas_build_two_tables_per_subset(self, capsys, monkeypatch, tmp_path):
        # Each graph keeps the occurrence table it builds: the dual checked
        # for a subset builds one for its involution and its walk, the
        # composition chains about half of one, and g one for the run.
        g = next(g for g in graph_corpus(7, 100, max_edges=7) if g.num_edges == 7)
        path = tmp_path / "g.rg"
        path.write_text(serialize_ribbon_graph(g))
        builds = table_builds(monkeypatch)
        code, out, _ = run(capsys, "verify", str(path), "--mode", "lemmas")
        assert (code, out) == (0, "PASS lemmas checked=128\n")
        assert len({id(h) for h in builds}) == len(builds) <= 2 * 128

    def test_failure_exits_1(self, capsys, monkeypatch):
        # Forcing the invariant to disagree exercises the failure path.
        calls = iter(range(100))
        monkeypatch.setattr(
            cli,
            "duality_invariant",
            lambda g: Laurent.const(RING_XY, next(calls)),
        )
        code, out, _ = run(capsys, "verify", fixture("torus.rg"))
        assert code == 1
        assert out.splitlines()[-1] == "FAIL duality checked=4"

    def test_sampling_flags_accepted(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            fixture("torus.rg"),
            "--samples",
            "5",
            "--seed",
            "7",
        )
        assert code == 0  # 2 edges: exhaustive, flags are inert

    @pytest.mark.parametrize("samples", ["0", "-3", "4097"])
    def test_samples_below_one_exit_2(self, capsys, tmp_path, samples):
        # Above 12 edges verify samples subsets; none would pass
        # vacuously, and no more than the 2^12 of an exhaustive run.
        labels = [f"e{i}" for i in range(13)]
        decl = " ".join(f"{l}:+" for l in labels)
        path = tmp_path / "big.rg"
        path.write_text(f"edges: {decl}\ncircle: {' '.join(labels * 2)}\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", str(path), "--samples", samples])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--samples" in captured.err

    def test_sampled_subsets_are_distinct(self):
        # 4096 draws with replacement from the 8192 subsets of 13 edges
        # hold only 3208 distinct ones at seed 0; the pool skips repeats
        # and keeps the first-drawn order, so checked= counts distinct
        # subsets and runs without repeats check what they always did.
        labels = [f"e{i:02d}" for i in range(13)]
        circle = [(l, False) for l in labels * 2]
        g = SignedRibbonGraph([circle], dict.fromkeys(labels, 1))
        count, subsets = cli._subset_pool(g, 4096, 0)
        drawn = list(subsets)
        assert count == len(drawn) == len(set(drawn)) == 4096
        rng = random.Random(0)
        raw = [frozenset(l for l in labels if rng.random() < 0.5) for _ in range(8000)]
        assert drawn == list(dict.fromkeys(raw))[:4096]

    def test_exhaustive_threshold_is_its_own(self, capsys, monkeypatch):
        # verify checks all 2^e subsets up to 12 edges and draws samples
        # above; that threshold, the --samples bound and its help text
        # stay put when the state-sum guard moves.
        def graph(e):
            labels = [f"e{i:02d}" for i in range(e)]
            return SignedRibbonGraph([[(l, False) for l in labels * 2]], dict.fromkeys(labels, 1))

        def verify_help():
            with pytest.raises(SystemExit):
                cli.main(["verify", "--help"])
            return capsys.readouterr().out

        before = verify_help()
        assert "1 to 4096, when the graph has more than 12 edges" in " ".join(before.split())
        for limit in (16, 24, 30):
            monkeypatch.setattr(cli, "BR_MAX_EDGES", limit)
            assert cli._subset_pool(graph(12), 200, 0)[0] == 4096
            assert cli._subset_pool(graph(13), 200, 0)[0] == 200
            assert cli._sample_count("4096") == 4096
            with pytest.raises(argparse.ArgumentTypeError):
                cli._sample_count("4097")
            assert verify_help() == before

    def test_duality_guard_exit_3(self, capsys, tmp_path):
        # 200 samples, each one histogram of 2^17 subgraphs, exceed 2^24; the
        # guard trips before any subset is drawn or checked.
        labels = [f"e{i}" for i in range(17)]
        decl = " ".join(f"{l}:+" for l in labels)
        path = tmp_path / "big.rg"
        path.write_text(f"edges: {decl}\ncircle: {' '.join(labels * 2)}\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 3
        assert out == ""
        assert "200 subsets × 2^17 subgraphs exceed the state-sum guard of 2^24" in err


def faulty_partial_dual(g, edges):
    """``partial_dual`` with two deterministic faults, each a function of
    its input alone: on 3-edge subsets the first arrow of the longest
    circle is flipped, which can change the orientability and the
    isomorphism class; on 2-edge subsets a longest circle of at least four
    arrows is cut in half, which can disconnect the dual."""
    dual = partial_dual(g, edges)
    size = len(set(edges))
    longest = max(dual.circles, key=len)
    at = dual.circles.index(longest)
    if size == 3:
        flipped = (longest[0]._replace(against=not longest[0].against),)
        pieces = (flipped + longest[1:],)
    elif size == 2 and len(longest) >= 4:
        pieces = (longest[: len(longest) // 2], longest[len(longest) // 2 :])
    else:
        return dual
    circles = dual.circles[:at] + pieces + dual.circles[at + 1 :]
    return SignedRibbonGraph(circles, dual.signs)


LEMMA_GATE = FIXTURES.parent / "tests" / "lemma_gate.out"
SAMPLED_GATE_SHA256 = "872469e680cef261bbb50e9d0c797dc89ecf02d3c4a22cd7331923d88b5ed74e"


def lemma_gate_text() -> str:
    """``verify --mode lemmas`` with :func:`faulty_partial_dual` on a
    seeded corpus of graphs with 3 to 7 edges: per graph a ``##`` line,
    its ``.rg`` text as comments, then the run's exit code and stdout.

    ``tests/lemma_gate.out`` holds this text.  Rewrite it only when the
    lemma output is meant to change, from the repository root:
      PYTHONPATH=src python -c "from tests.test_cli import *; ..."
    with ``LEMMA_GATE.write_text(lemma_gate_text())`` for the dots.
    """
    graphs = [g for g in graph_corpus(4071, 40, max_edges=7) if g.num_edges >= 3]
    blocks = []
    with mock.patch.object(cli, "partial_dual", faulty_partial_dual):
        for i, g in enumerate(graphs[:10]):
            text = serialize_ribbon_graph(g)
            out = io.StringIO()
            with mock.patch.object(sys, "stdin", io.StringIO(text)):
                with contextlib.redirect_stdout(out):
                    code = cli.main(["verify", "-", "--mode", "lemmas"])
            comment = "".join(f"# {line}\n" for line in text.splitlines())
            blocks.append(f"## graph {i} exit={code}\n{comment}{out.getvalue()}")
    return "".join(blocks)


def sampled_gate_runs() -> list[str]:
    """Exit code and stdout of each sampled ``verify --mode lemmas`` run
    of ``cli_corpus`` (12 graphs with 13 or 14 edges, 48 subsets each)
    with :func:`faulty_partial_dual`.  The runs compare with
    ``partial_dual(g, previous △ subset)``, which no exhaustive run
    reaches."""
    outs = []
    with mock.patch.object(cli, "partial_dual", faulty_partial_dual):
        for case, argv, text in cli_corpus():
            if case.startswith("s"):
                out = io.StringIO()
                with mock.patch.object(sys, "stdin", io.StringIO(text)):
                    with contextlib.redirect_stdout(out):
                        code = cli.main(argv)
                outs.append(f"{code}\n{out.getvalue()}")
    return outs


class TestLemmaGate:
    """The lemma checks of ``verify`` must keep catching a broken
    ``partial_dual``: the FAIL lines are pinned from the program as it
    was before the checks reused forms, written by ``lemma_gate_text``."""

    def test_fail_lines_pinned(self):
        forms: list = []
        with mock.patch.object(cli, "_labeled_form", counting(forms, cli._labeled_form)):
            got = lemma_gate_text()
        assert forms  # a mismatch of presentations falls back on forms
        assert got == LEMMA_GATE.read_text(encoding="utf-8")
        fired = {line.split()[1] for line in got.splitlines() if "subset=" in line}
        assert fired == {
            "involution",
            "composition",
            "components",
            "orientability",
            "symmetric-difference",
        }
        assert got.count(" exit=1\n") == got.count("## graph")

    def test_each_run_reads_into_its_own_memo(self):
        # A lemma run reads each circle once into a memo of its own.  Back to
        # back runs on graphs sharing circles (signs negated, circle order
        # reversed, one circle rotated) give the verdicts and lines of runs
        # that read every circle afresh, with partial_dual sound or faulty.
        runs = []
        for g in [g for g in graph_corpus(4071, 40, max_edges=7) if g.num_edges >= 3][:4]:
            runs += [
                g,
                SignedRibbonGraph(g.circles, {l: -s for l, s in g.signs.items()}),
                g.permute_circles(range(len(g.circles))[::-1]),
                g.rotate(0, 1),
            ]
        memos: list = []

        def shared(x, reads):
            memos.append(reads)
            return ribbon._presentation(x, reads)

        def fresh(x, reads):
            return ribbon._presentation(x, {})

        for dual in (partial_dual, faulty_partial_dual):
            verdicts = {}
            for present in (shared, fresh):
                with mock.patch.object(cli, "partial_dual", dual):
                    with mock.patch.object(cli, "_presentation", present):
                        verdicts[present] = [
                            cli._verify_lemmas(g, cli._subset_pool(g, 200, 0)[1]) for g in runs
                        ]
            assert verdicts[shared] == verdicts[fresh]
            assert {ok for ok, _ in verdicts[shared]} == {dual is partial_dual}
        memo_ids = [id(reads) for reads in memos]
        assert len(set(memo_ids)) == 2 * len(runs)  # one memo per run, kept alive in memos
        assert memo_ids == sorted(memo_ids, key=memo_ids.index)  # each used in one run alone

    def test_a_sampled_run_reads_each_subset_afresh(self):
        # Subsets drawn at random share few circles, so above the exhaustive
        # bound the memo holds one subset's circles alone: it is empty at the
        # base presentation and at the first presentation of every subset.
        # An exhaustive run empties it only once, before the base.
        rng = random.Random(41)
        small = sized_graph(rng, 6, 4)
        large = sized_graph(rng, cli.VERIFY_EXHAUSTIVE_EDGES + 2, 8)
        for g, samples, emptied in ((small, 0, 1), (large, 40, 41)):
            sizes: list[int] = []

            def present(x, reads):
                sizes.append(len(reads))
                return ribbon._presentation(x, reads)

            count, subsets = cli._subset_pool(g, samples, 0)
            with mock.patch.object(cli, "_presentation", present):
                ok, lines = cli._verify_lemmas(g, subsets)
            assert (ok, lines) == (True, [])
            assert sizes.count(0) == emptied
            assert len(sizes) > 4 * count

    def test_sign_fault_fails(self):
        # A presentation holds no signs, so a dual wrong in one sign alone
        # must fail through the signs compared with it.
        def sign_fault(g, edges):
            dual = partial_dual(g, edges)
            if len(set(edges)) != 2:
                return dual
            label = min(edges)
            return SignedRibbonGraph(dual.circles, {**dual.signs, label: -dual.signs[label]})

        g = parse_ribbon_graph((FIXTURES / "torus.rg").read_text(encoding="utf-8"))
        with mock.patch.object(cli, "partial_dual", sign_fault):
            got = cli._verify_lemmas(g, cli._subset_pool(g, 200, 0)[1])
        assert got == (
            False,
            [
                "FAIL symmetric-difference subset=2",
                "FAIL composition subset=1,2",
                "FAIL symmetric-difference subset=1,2",
            ],
        )

    def test_label_swap_fails(self):
        # Each lemma is an identity of labeled graphs.  This fault swaps two
        # labels of one sign on subsets of two or more edges that hold both
        # or neither, so its duals keep their signs and unlabeled forms, and
        # only a comparison that keeps labels fails them.  On these graphs
        # the swap is no labeled symmetry of some dual.
        def swap_fault(g, edges):
            dual, subset = partial_dual(g, edges), set(edges)
            both = ("1" in subset) == ("2" in subset)
            if len(subset) < 2 or not both or g.signs["1"] != g.signs["2"]:
                return dual
            swap = {"1": "2", "2": "1"}
            circles = [[(swap.get(l, l), a) for l, a in c] for c in dual.circles]
            return SignedRibbonGraph(circles, dual.signs)

        for circles in ("3' / 1' / 3 2 1 2'", "2 3 1' 2' 1 3", "1 / 2 1' 3' 2 3'"):
            text = "edges: 1:- 2:- 3:-\n" + "".join(f"circle: {c}\n" for c in circles.split(" / "))
            g = parse_ribbon_graph(text)
            assert cli._verify_lemmas(g, cli._subset_pool(g, 200, 0)[1]) == (True, [])
            with mock.patch.object(cli, "partial_dual", swap_fault):
                ok, lines = cli._verify_lemmas(g, cli._subset_pool(g, 200, 0)[1])
            assert not ok and "FAIL composition subset=1,2" in lines, circles

    def test_exhaustive_runs_make_four_duals_per_subset(self):
        # A sound exhaustive run calls partial_dual 4 times per subset (h,
        # the involution, one chain step and the chained dual) but twice on
        # the empty set, which has no chain step and no previous subset, and
        # e - 1 more times for the direct duals of runs labels[:i] that are
        # not yet checked when a symmetric difference needs them.
        rng = random.Random(4)
        for e in range(7, cli.VERIFY_EXHAUSTIVE_EDGES + 1):
            g = sized_graph(rng, e, e // 2)
            calls: list = []
            with mock.patch.object(cli, "partial_dual", counting(calls, partial_dual)):
                got = cli._verify_lemmas(g, cli._subset_pool(g, 200, 0)[1])
            assert got == (True, [])
            assert len(calls) == 4 * 2**e + e - 3, e

    def test_sampled_fail_lines_pinned(self):
        # The sha256 of the FAIL lines, written from the program as it
        # was before the checks compared presentations.
        outs = sampled_gate_runs()
        assert len(outs) == 12 and all(out.startswith("1\n") for out in outs)
        assert {line.split()[1] for out in outs for line in out.splitlines()[1:-1]} == {
            "involution",
            "composition",
            "components",
            "symmetric-difference",
        }
        got = hashlib.sha256("".join(outs).encode("utf-8")).hexdigest()
        assert got == SAMPLED_GATE_SHA256


class TestLinksCommands:
    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "bracket", fixture("two_crossing.gauss"))
        assert (code, out) == (0, "A^2*d + 2*A*B + B^2\n")

    def test_jones(self, capsys):
        code, out, _ = run(capsys, "jones", fixture("trefoil.gauss"))
        assert (code, out) == (0, "t + t^3 - t^4\n")

    def test_stategraph_default_seifert(self, capsys):
        code, out, _ = run(capsys, "stategraph", fixture("trefoil.gauss"))
        assert code == 0
        g = parse_ribbon_graph(out)
        assert g.num_vertices == 2
        assert set(g.signs.values()) == {1}

    def test_stategraph_all_b(self, capsys):
        code, out, _ = run(
            capsys, "stategraph", fixture("kink.gauss"), "--state", "all-B"
        )
        assert code == 0
        g = parse_ribbon_graph(out)
        assert g.signs == {"1": -1}

    def test_stategraph_bitstring(self, capsys):
        code_a, out_a, _ = run(
            capsys, "stategraph", fixture("hopf.gauss"), "--state", "00"
        )
        code_b, out_b, _ = run(
            capsys, "stategraph", fixture("hopf.gauss"), "--state", "all-A"
        )
        assert code_a == code_b == 0
        assert out_a == out_b
        code_m, out_m, _ = run(
            capsys, "stategraph", fixture("hopf.gauss"), "--state", "10"
        )
        assert code_m == 0
        g = parse_ribbon_graph(out_m)
        assert g.signs == {"1": -1, "2": 1}

    def test_stategraph_bad_selector(self, capsys):
        code, out, err = run(
            capsys, "stategraph", fixture("hopf.gauss"), "--state", "012"
        )
        assert code == 2
        assert out == ""
        assert "0/1 string" in err

    def test_braid_closures_at_the_guard(self, capsys, tmp_path):
        # Closures of seeded 4-strand braid words with 20-24 crossings, up
        # to the guard of 24.  Two identities need no second state sum:
        # the bracket in A, B and d sums to its 2^n states, and
        # V(1) = (-2)^(c-1) for a link of c components.
        rng = random.Random(149)
        path = tmp_path / "braid.gauss"
        for n in (20, 21, 22, 23, 24, 24):
            word = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(n)]
            diagram = braid_word_closure(4, word)
            path.write_text(serialize_gauss(diagram))
            code, out, err = run(capsys, "bracket", str(path))
            assert (code, err) == (0, ""), word
            assert sum(parse_poly(out, RING_ABD).terms.values()) == 2**n, word
            code, out, err = run(capsys, "jones", str(path))
            assert (code, err) == (0, ""), word
            c = len(diagram.components)
            assert sum(parse_poly(out, RING_T).terms.values()) == (-2) ** (c - 1), word

    def test_bracket_guard_exit_3(self, capsys, tmp_path):
        tokens = []
        for i in range(25):
            tokens.append(f"O{i}+")
        for i in range(25):
            tokens.append(f"U{i}+")
        path = tmp_path / "big.gauss"
        path.write_text("component: " + " ".join(tokens) + "\n")
        code, out, err = run(capsys, "bracket", str(path))
        assert code == 3
        assert out == ""
        assert "25 crossings exceed the state-sum guard of 24 (2^25 states)" in err


class TestErrorPlumbing:
    def test_missing_file_exit_2(self, capsys):
        code, out, err = run(capsys, "stats", "/nonexistent/g.rg")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_graph_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.rg"
        path.write_text("edges: a:+\ncircle: a b\n")
        code, out, err = run(capsys, "stats", str(path))
        assert code == 2
        assert "not declared" in err

    def test_entry_raises_system_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["ribbongraphs", "poly", fixture("torus.rg")])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0

    def test_installed_script(self):
        # The console script in a separate process: the installed
        # executable when there is one, otherwise the [project.scripts]
        # target run the way the generated wrapper runs it.
        script = shutil.which("ribbongraphs")
        env = None
        if script is not None:
            command = [script]
        else:
            tomllib = pytest.importorskip("tomllib")
            with open(FIXTURES.parent / "pyproject.toml", "rb") as fh:
                target = tomllib.load(fh)["project"]["scripts"]["ribbongraphs"]
            module, _, attr = target.partition(":")
            command = [
                sys.executable,
                "-c",
                f"import sys; from {module} import {attr}; sys.exit({attr}())",
            ]
            package_root = os.path.dirname(os.path.dirname(ribbongraphs.__file__))
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [package_root, env.get("PYTHONPATH")])
            )
        proc = subprocess.run(
            command + ["stats", fixture("annulus.rg")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "f=2" in proc.stdout


class TestGoldens:
    """Every subcommand on every fixture, against the stdout and exit
    code recorded by ``scripts/write_goldens.py``."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_stdout_byte_identical(self, case, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        code, out, _ = run(capsys, *GOLDEN_CASES[case]["argv"])
        assert code == GOLDEN_CASES[case]["exit"]
        assert out.encode("utf-8") == (GOLDENS / f"{case}.out").read_bytes()

    def test_no_laurent_arithmetic(self, capsys, monkeypatch):
        # Every polynomial a command prints is an exponent map of the
        # subgraph histogram: with Laurent's arithmetic patched to raise,
        # every golden still replays.
        def refuse(*args):
            raise AssertionError("a command did Laurent arithmetic")

        for op in ("__mul__", "__rmul__", "__pow__", "substitute", "inverse_unit",
                   "__add__", "__radd__", "__sub__", "__neg__"):
            monkeypatch.setattr(Laurent, op, refuse)
        with pytest.raises(AssertionError):
            Laurent.const(RING_XY, 1) + 1
        monkeypatch.chdir(FIXTURES)
        for case in sorted(GOLDEN_CASES):
            code, out, _ = run(capsys, *GOLDEN_CASES[case]["argv"])
            assert code == GOLDEN_CASES[case]["exit"], case
            assert out.encode("utf-8") == (GOLDENS / f"{case}.out").read_bytes(), case

    def test_seeded_corpus_digests(self, capsys, monkeypatch):
        # The sha256 of exit code and stdout of every run of the seeded
        # corpus.  The parser is built once: argparse would take over half
        # of the time, and it reads no state between calls.
        want = json.loads((GOLDENS / "corpus.json").read_text(encoding="utf-8"))
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        forms: list = []
        monkeypatch.setattr(cli, "_labeled_form", counting(forms, cli._labeled_form))
        got = {}
        for case, argv, text in cli_corpus():
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code, out, _ = run(capsys, *argv)
            got[case] = hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()
        assert got.keys() == want.keys()
        assert [case for case in want if got[case] != want[case]] == []
        # Presentations decide every check of the lemma runs, sampled ones
        # included: they compute no canonical form.
        assert forms == []
