"""The public surface: the README's table, each module's ``__all__`` and
the package root agree, and names moved into the tests stay out of the
package."""

import ast
import importlib
import importlib.util
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ribbongraphs
from ribbongraphs import br

from . import helpers

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# (old home, name, its name in tests.helpers, or None when callers use
# a replacement: Laurent.monomial, the tuple of state curves that
# resolve_state now returns, BR_MAX_EDGES for the bracket, the builtin
# IndexError that the helpers' one_point_join raises, canonical_form
# and the circle walk for the form-and-orientability pair of _form, and
# the frontier engine, which now runs at every size, for the crossover
# constants _SPLIT_MIN_EDGES and _FRONTIER_MIN_EDGES, and the map on R's
# keys in tutte_via_br, which drops z itself, for Laurent.project, and
# the one walk inside resolve_state for the strand matching _strand_edges)
REMOVED = [
    ("polynomial", "monomial", None),
    ("polynomial", "parse_poly", "parse_poly"),
    ("polynomial", "_TOKEN", "_TOKEN"),
    ("polynomial", "_tokenize", "_tokenize"),
    ("polynomial", "_RESTRICT_IMAGES", "SURFACE_IMAGES"),
    ("polynomial", "MonomialImage", "MonomialImage"),
    ("polynomial.Laurent", "monomial_map", "monomial_map"),
    ("polynomial.Laurent", "permute_vars", "permute_vars"),
    ("polynomial.Laurent", "project", None),
    ("br", "subgraph_stats", "subgraph_stats"),
    ("br", "SubgraphStats", "SubgraphStats"),
    ("br", "_join_blocks", "split_blocks"),
    ("br", "_interlaced", "interlaced"),
    ("br", "_SPLIT_MIN_EDGES", None),
    ("br", "_sweep", "sweep_profiles"),
    ("br", "_FRONTIER_MIN_EDGES", None),
    ("links", "StateExpansion", None),
    ("links", "BRACKET_MAX_CROSSINGS", None),
    ("links", "_strand_edges", None),
    ("ribbon", "boundary_components", "boundary_components"),
    ("ribbon", "BoundaryWalk", "BoundaryWalk"),
    ("ribbon", "Corner", "Corner"),
    ("ribbon", "TAIL", "TAIL"),
    ("ribbon", "HEAD", "HEAD"),
    ("ribbon", "disjoint_union", "disjoint_union"),
    ("ribbon", "one_point_join", "one_point_join"),
    ("ribbon", "_fresh_relabel", "_fresh_relabel"),
    ("ribbon", "_arcs", "arc_matching"),
    ("ribbon", "_bands", "label_bands"),
    ("ribbon", "_circle_union", "parity_union_find"),
    ("ribbon", "_form", None),
    ("ribbon", "_trace", "_trace"),
    ("ribbon.SignedRibbonGraph", "occurrences", "occurrences"),
    ("duality", "delete_edge", "delete_edge"),
    ("duality", "contract_edge", "contract_edge"),
    ("duality", "EdgeClass", "EdgeClass"),
    ("duality", "classify_edge", "classify_edge"),
    ("errors", "PositionOutOfRange", None),
]


def readme_rows() -> list[tuple[str, list[str]]]:
    """(module, names) per row of the README's "Public names" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Public names\n", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        m = re.fullmatch(r"\| `(\w+)` \| (.+) \|", line)
        if m:
            rows.append((m.group(1), re.findall(r"`(\w+)`", m.group(2))))
    return rows


def test_root_all_is_readme_list():
    rows = readme_rows()
    modules = ["ribbon", "duality", "polynomial", "br", "links", "errors"]
    assert [module for module, _ in rows] == modules
    assert ribbongraphs.__all__ == [name for _, names in rows for name in names]


@pytest.mark.parametrize("module, names", readme_rows())
def test_readme_names_resolve(module, names):
    home = importlib.import_module(f"ribbongraphs.{module}")
    assert home.__all__ == names
    for name in names:
        assert getattr(ribbongraphs, name) is getattr(home, name)


@pytest.mark.parametrize("home, name, moved_to", REMOVED)
def test_removed_names_are_gone(home, name, moved_to):
    module, _, cls = home.partition(".")
    owner = importlib.import_module(f"ribbongraphs.{module}")
    if cls:
        owner = getattr(owner, cls)
    assert not hasattr(owner, name)
    assert not hasattr(ribbongraphs, name)
    if moved_to is not None:
        assert hasattr(helpers, moved_to)


def test_traced_names_exist():
    # perfbench/spans.py looks up every name of its TARGETS when its tracer
    # is built, a module attribute or, as "Laurent.<name>", a method of
    # Laurent, so removing one of them breaks a traced bench run.
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    for layer, names in targets.items():
        home = importlib.import_module(f"ribbongraphs.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            assert hasattr(getattr(home, owner) if owner else home, attr), (layer, name)


def test_errors_are_package_errors():
    # Every error the package raises is a RibbonGraphError; those raised
    # for a bad argument value are ValueErrors too, so callers catching
    # ValueError keep working, and no module raises a bare ValueError,
    # KeyError or IndexError.
    errors = importlib.import_module("ribbongraphs.errors")
    classes = {name: getattr(errors, name) for name in errors.__all__}
    assert all(issubclass(cls, errors.RibbonGraphError) for cls in classes.values())
    assert {name for name, cls in classes.items() if issubclass(cls, ValueError)} == {
        "InvalidLabel",
        "InvalidState",
        "InvalidMove",
        "RingMismatch",
    }
    for path in Path(ribbongraphs.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        for bare in ("ValueError", "KeyError", "IndexError"):
            assert f"raise {bare}" not in text, (path.name, bare)


def sites(name: str) -> list[tuple[str, str | None]]:
    """(module, innermost function) of every use of ``name`` in the
    package: a bare or attribute reference, or the string itself, as
    ``setattr`` would take it; imports and the definition are no uses."""
    found = []
    for path in sorted(Path(ribbongraphs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (
                (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Constant) and node.value == name)
            ):
                inner = max(
                    (f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                    key=lambda f: f.lineno,
                    default=None,
                )
                found.append((path.stem, inner and inner.name))
    return sorted(found, key=str)


def test_derived_graphs_only_from_operations():
    # SignedRibbonGraph._derived skips the constructor's checks, so only
    # operations whose output is valid by construction may reach it; the
    # parsers and the presentation moves keep them.
    assert sites("_derived") == [
        ("duality", "partial_dual"),
        ("links", "state_ribbon_graph"),
    ]


def test_one_line_reader_for_both_formats():
    # One grammar: both parsers read lines, comments, headers and
    # keywords through the one shared reader, and nothing else does.
    assert sites("_read_lines") == [("links", "parse_gauss"), ("ribbon", "parse_ribbon_graph")]


def test_each_walk_keeps_its_callers():
    # One walk over the occurrence table gives the circles of partial
    # duals and, as those of the full dual, the boundary count f; its two
    # callers are pinned.  The curves of link states are walked inside
    # resolve_state, and the two-matching kernel _trace that traced them
    # is a test oracle now, so none is left in the package.
    assert sites("_dual_circles") == [("duality", "partial_dual"), ("ribbon", "stats")]
    assert sites("_trace") == []


def test_the_lemma_gate_patches_every_partial_dual():
    # tests/lemma_gate.out is written with cli.partial_dual patched to a
    # faulty one, so the gate holds only while every partial dual that the
    # CLI takes is a call through that module name; the one walk behind it
    # keeps its two callers (test_each_walk_keeps_its_callers).  The reading
    # memo of _presentation lives in the lemma run, through its helper
    # presented.
    tree = ast.parse((Path(ribbongraphs.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    called = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "partial_dual"]
    assert uses and all(node in called for node in uses)  # never bound to another name
    assert {site for site in sites("partial_dual") if site[0] == "cli"} == {
        ("cli", "cmd_dual"),
        ("cli", "_verify_duality"),
        ("cli", "_verify_lemmas"),
    }
    assert {module for module, _ in sites("partial_dual")} == {"cli", "duality"}
    assert sites("_presentation") == [("cli", "presented")]
    assert set(sites("presented")) == {("cli", "_verify_lemmas")}


def test_the_engine_is_planned_in_one_place():
    # The order, the slots and the widths come from br._plan alone, which
    # the engine, the cost script and the tests read; each caller's key is
    # set in one place, the bracket's in links._bracket_terms.
    assert sites("_edge_order") == [("br", "_plan")]
    assert sites("_plan") == [("br", "_subgraph_profiles")]
    assert set(sites("_subgraph_profiles")) == {("br", "_r_terms"), ("links", "_bracket_terms")}


def load_script(script: Path, monkeypatch):
    """The module of ``script``, loaded with its imports run; its
    ``__main__`` guard keeps the rest from running."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"scripts_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda path: path.name
)
def test_script_loads(script, monkeypatch):
    # The scripts import private names of the package and oracles of
    # tests.helpers, so renaming or removing such a name fails here.
    load_script(script, monkeypatch)


def test_frontier_cost_prints_the_planned_peak(monkeypatch, capsys):
    # The cost script's large-family lines run every caller on each graph
    # and print its widest frontier, read off the engine's plan.
    script = load_script(ROOT / "scripts" / "frontier_cost.py", monkeypatch)
    rng = random.Random(167)
    graphs = [helpers.sized_graph(rng, 9, 1), helpers.sized_graph(rng, 9, 5)]
    script.large("smoke", graphs)
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [["smoke", "1"], ["smoke", "2"], ["smoke", "all"]]
    assert [int(line[-2]) for line in lines[:2]] == [max(br._plan(g)[2]) for g in graphs]


def test_import_loads_no_dataclasses():
    # The package's records are NamedTuples, so a fresh import loads
    # neither dataclasses nor the inspect machinery it pulls in.
    src = str(Path(ribbongraphs.__file__).resolve().parent.parent)
    code = "import sys, ribbongraphs; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_records_are_tuples():
    # stats and dual_orbit return tuples: they unpack, index and compare
    # equal to plain tuples
    g = ribbongraphs.SignedRibbonGraph([[("a", False), ("a", False)]], {"a": 1})
    stats = ribbongraphs.stats(g)
    assert stats == (1, 1, 1, 0, 1, 2, True, 2, 0)
    v, e, *_ = stats
    assert (v, e, stats[5]) == (stats.v, stats.e, stats.f)
    classes = ribbongraphs.dual_orbit(g)
    assert classes[0] == ((), g, 1)
    assert [size for _, _, size in classes] == [1, 1]
