"""Module boundaries: which files may import the numeric libraries."""

from __future__ import annotations

import ast
from pathlib import Path

import ternpow.orbit
import ternpow.precision

PACKAGE = Path(ternpow.precision.__file__).parent

# certified enclosures come from precision.py; gaps.py keeps its float sweep
# and cli.py its mpf serializer until the three-gap spectrum is exact.
# numpy is not a declared dependency, so no module may import it.
ALLOWED = {
    "mpmath": {"precision.py", "orbit/gaps.py", "cli.py"},
    "sympy": {"cantor/dimension.py", "acceptance.py"},
    "numpy": set(),
}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_numeric_libraries_stay_behind_their_modules():
    importers = {lib: set() for lib in ALLOWED}
    for path in PACKAGE.rglob("*.py"):
        roots = _imported_roots(path)
        for lib in ALLOWED:
            if lib in roots:
                importers[lib].add(path.relative_to(PACKAGE).as_posix())
    assert "precision.py" in importers["mpmath"]  # the walk sees imports
    assert "cantor/dimension.py" in importers["sympy"]  # and imports in functions
    for lib, allowed in ALLOWED.items():
        assert importers[lib] <= allowed, lib


def test_precision_exports_no_interval_objects():
    for name in (
        "iv_prec",
        "exact_mpf",
        "mpf_to_fraction",
        "fraction_to_iv",
        "alpha0_iv",
        "log3_iv",
        "iv_endpoints",
        "alpha0_mpf",
        "ulp",
    ):
        assert not hasattr(ternpow.precision, name), name


def test_leading_exports_no_window_objects():
    for name in ("LeadingInterval", "leading_interval", "LeadingClassification", "classify_leading"):
        assert not hasattr(ternpow, name), name
        assert not hasattr(ternpow.orbit, name), name


def test_scan_reads_growth_from_the_built_machine():
    tree = ast.parse((PACKAGE / "cantor" / "search.py").read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "has_growth" in names  # the walk sees the search module's imports
    assert not names & {"trim", "growth_components"}
