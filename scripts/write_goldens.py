#!/usr/bin/env python3
"""Write the CLI stdout golden corpus under tests/goldens/.

Every subcommand runs on every fixture of its input kind: ``stats``,
``dual`` (with every other sorted edge label), ``poly``, ``tutte``,
``invariant``, ``duals`` and ``verify`` in both modes on each ``.rg``
file; ``bracket``, ``jones`` and ``stategraph`` with each selector kind
(seifert, all-A, all-B and the bitstring 1010...) on each ``.gauss``
file.  Each case's stdout is written byte for byte to ``<case>.out``,
and ``cases.json`` records its arguments and exit code.

``corpus.json`` holds, per run of the seeded corpus
``tests.helpers.cli_corpus`` (1912 runs on standard input), the
sha256 of its exit code and stdout, so that a refactor can show its
output byte-identical on far more inputs than the fixtures.
``tests/test_cli.py::TestGoldens`` replays both and compares.

Regenerate only when a change of output is intended, from the
repository root:
  python3 scripts/write_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ribbongraphs import cli  # noqa: E402
from ribbongraphs.links import parse_gauss  # noqa: E402
from ribbongraphs.ribbon import parse_ribbon_graph  # noqa: E402
from tests.helpers import cli_corpus  # noqa: E402

FIXTURES = ROOT / "fixtures"
GOLDENS = ROOT / "tests" / "goldens"


def cases() -> list[tuple[str, list[str]]]:
    """(case name, argv with the fixture as a bare file name)."""
    out: list[tuple[str, list[str]]] = []
    for path in sorted(FIXTURES.glob("*.rg")):
        name = path.name
        labels = parse_ribbon_graph(path.read_text(encoding="utf-8")).edge_labels
        for command in ("stats", "poly", "tutte", "invariant", "duals"):
            out.append((f"{name}.{command}", [command, name]))
        out.append((f"{name}.dual", ["dual", name, "--edges", ",".join(labels[::2])]))
        for mode in ("duality", "lemmas"):
            out.append((f"{name}.verify-{mode}", ["verify", name, "--mode", mode]))
    for path in sorted(FIXTURES.glob("*.gauss")):
        name = path.name
        n = parse_gauss(path.read_text(encoding="utf-8")).num_crossings
        for command in ("bracket", "jones"):
            out.append((f"{name}.{command}", [command, name]))
        selectors = {"seifert": "seifert", "all-A": "all-A", "all-B": "all-B",
                     "bits": ("10" * n)[:n]}
        for kind, state in selectors.items():
            out.append((f"{name}.stategraph-{kind}", ["stategraph", name, "--state", state]))
    return out


def run_case(argv: list[str], stdin: str = "") -> tuple[int, str]:
    """Exit code and stdout of ``cli.main`` run from the fixtures folder
    with ``stdin`` as standard input."""
    stdout = io.StringIO()
    here, saved = os.getcwd(), sys.stdin
    os.chdir(FIXTURES)
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(here)
        sys.stdin = saved
    return code, stdout.getvalue()


def digest(code: int, out: str) -> str:
    """sha256 of a run's exit code line followed by its stdout."""
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()


def main() -> None:
    GOLDENS.mkdir(exist_ok=True)
    index = {}
    for case, argv in cases():
        code, out = run_case(argv)
        (GOLDENS / f"{case}.out").write_bytes(out.encode("utf-8"))
        index[case] = {"argv": argv, "exit": code}
    (GOLDENS / "cases.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
    corpus = {case: digest(*run_case(argv, text)) for case, argv, text in cli_corpus()}
    (GOLDENS / "corpus.json").write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(index)} cases and {len(corpus)} digests to {GOLDENS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
