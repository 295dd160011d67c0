#!/usr/bin/env python3
"""Write the CLI stdout golden corpus under tests/goldens/.

Every subcommand runs on every fixture of its input kind: ``stats``,
``dual`` (with every other sorted edge label), ``poly``, ``tutte``,
``invariant``, ``duals`` and ``verify`` in both modes on each ``.rg``
file; ``bracket``, ``jones`` and ``stategraph`` with each selector kind
(seifert, all-A, all-B and the bitstring 1010...) on each ``.gauss``
file.  Each case's stdout is written byte for byte to ``<case>.out``,
and ``cases.json`` records its arguments and exit code.
``tests/test_cli.py::TestGoldens`` replays the cases and compares.

Regenerate only when a change of output is intended, from the
repository root:
  python3 scripts/write_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ribbongraphs import cli  # noqa: E402
from ribbongraphs.links import parse_gauss  # noqa: E402
from ribbongraphs.ribbon import parse_ribbon_graph  # noqa: E402

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


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``cli.main`` run from the fixtures folder."""
    stdout = io.StringIO()
    here = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    return code, stdout.getvalue()


def main() -> None:
    GOLDENS.mkdir(exist_ok=True)
    index = {}
    for case, argv in cases():
        code, out = run_case(argv)
        (GOLDENS / f"{case}.out").write_bytes(out.encode("utf-8"))
        index[case] = {"argv": argv, "exit": code}
    (GOLDENS / "cases.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(index)} cases to {GOLDENS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
