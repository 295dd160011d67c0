"""The public surface: the README's table, each module's ``__all__`` and
the package root agree, and names moved into the tests stay out of the
package."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import ribbongraphs

from . import helpers

README = Path(__file__).resolve().parent.parent / "README.md"

# (old home, name, its name in tests.helpers, or None when callers use
# a replacement: Laurent.monomial, the tuple of state curves that
# resolve_state now returns, BR_MAX_EDGES for the bracket, the builtin
# IndexError that the helpers' one_point_join raises, and canonical_form
# and the circle walk for the form-and-orientability pair of _form)
REMOVED = [
    ("polynomial", "monomial", None),
    ("polynomial", "parse_poly", "parse_poly"),
    ("polynomial", "_TOKEN", "_TOKEN"),
    ("polynomial", "_tokenize", "_tokenize"),
    ("polynomial", "_RESTRICT_IMAGES", "SURFACE_IMAGES"),
    ("polynomial", "MonomialImage", "MonomialImage"),
    ("polynomial.Laurent", "monomial_map", "monomial_map"),
    ("polynomial.Laurent", "permute_vars", "permute_vars"),
    ("br", "subgraph_stats", "subgraph_stats"),
    ("br", "SubgraphStats", "SubgraphStats"),
    ("links", "StateExpansion", None),
    ("links", "BRACKET_MAX_CROSSINGS", None),
    ("ribbon", "boundary_components", "boundary_components"),
    ("ribbon", "BoundaryWalk", "BoundaryWalk"),
    ("ribbon", "Corner", "Corner"),
    ("ribbon", "TAIL", "TAIL"),
    ("ribbon", "HEAD", "HEAD"),
    ("ribbon", "disjoint_union", "disjoint_union"),
    ("ribbon", "one_point_join", "one_point_join"),
    ("ribbon", "_fresh_relabel", "_fresh_relabel"),
    ("ribbon", "_arcs", "arc_matching"),
    ("ribbon", "_circle_union", "parity_union_find"),
    ("ribbon", "_form", None),
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


def test_derived_graphs_only_from_operations():
    # SignedRibbonGraph._derived skips the constructor's checks, so only
    # operations whose output is valid by construction may reach it; the
    # parsers and the presentation moves keep them.
    sites = []
    for path in sorted(Path(ribbongraphs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "_derived") or (
                isinstance(node, ast.Constant) and node.value == "_derived"
            ):
                inner = max(
                    (f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                    key=lambda f: f.lineno,
                    default=None,
                )
                sites.append((path.stem, inner and inner.name))
    assert sorted(sites, key=str) == [
        ("duality", "partial_dual"),
        ("links", "state_ribbon_graph"),
    ]
