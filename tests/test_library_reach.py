"""Every public name is reached by the library, a demo, a traced span or the paper.

A name in ``hirotaweb.__all__`` stays when another library module refers to
it, a demo does, ``perfbench/layers.py`` reads a span under it (read as
``test_trace_names`` reads the spans), or it is kept below with its reason:
a paper object, a result type or a documented format.  A second route that
nothing reaches belongs in ``tests/`` as an oracle (``reference_exterior``
holds the ones that left), so a public name that regrows without a caller
fails here.
"""

import ast
from pathlib import Path

import pytest

import hirotaweb
from test_trace_names import SPANS

ROOT = Path(__file__).resolve().parent.parent

KEPT = {
    "CauchyInterpolant": "the result type of cauchy_interpolant",
    "FlatnessVerdict": "the result type of flatness_check",
    "PropertyCheck": "the result type of structural_properties' checks",
    "TripleCheck": "the result type of verify_hirota's per-triple checks",
    "interpolant_matches_oracle": "the verdict the oracle command reads off each instance",
    "row_matrix": "the interpolation matrix whose maximal minors are the paper's determinants",
    "poly_to_json": "the documented JSON form of one polynomial",
}


def _referenced(path: Path) -> set[str]:
    """The names a source file reads, imports or looks up as attributes."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


LIBRARY = {path.stem: _referenced(path) for path in (ROOT / "src" / "hirotaweb").glob("*.py")
           if path.stem != "__init__"}
DEMOS = set().union(*(_referenced(path) for path in (ROOT / "demos").glob("*.py")))
TRACED = {span.split(".")[1] for span in SPANS}


def _reach(name: str) -> list[str]:
    home = getattr(hirotaweb, name).__module__.rsplit(".", 1)[-1]
    reach = [module for module, names in LIBRARY.items() if module != home and name in names]
    if name in DEMOS:
        reach.append("a demo")
    if name in TRACED:
        reach.append("a traced span")
    return reach


def test_the_scans_see_the_library_and_the_demos():
    assert {"webs", "forms", "cli"} <= set(LIBRARY) and "WebSpec" in DEMOS
    assert "verify_hirota" in TRACED


@pytest.mark.parametrize("name", sorted(hirotaweb.__all__))
def test_every_public_name_is_reached_or_kept(name):
    assert _reach(name) or name in KEPT, f"{name}: no library module, demo or span reaches it"


def test_kept_names_are_public():
    assert set(KEPT) <= set(hirotaweb.__all__)
