"""Module boundaries: which files may import the numeric libraries."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import ternpow.cantor.automaton
import ternpow.cantor.search
import ternpow.cli
import ternpow.orbit
import ternpow.orbit.construction
import ternpow.orbit.gaps
import ternpow.precision
import ternpow.sieve
import ternpow.ternary

PACKAGE = Path(ternpow.precision.__file__).parent

# certified enclosures are integer series in precision.py, and the three-gap
# enclosures integer expressions of them; gaps.py keeps mpmath only for the
# exact dyadic points of its brute-force sweep.  The characteristic
# polynomial is integer arithmetic in cantor/dimension.py, so sympy is a test
# oracle only, and numpy is not a declared dependency: no module may import
# either.
ALLOWED = {
    "mpmath": {"orbit/gaps.py"},
    "sympy": set(),
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


def test_imports_inside_functions_are_seen(tmp_path):
    module = tmp_path / "late.py"
    module.write_text("def f():\n    import sympy.polys\n    from mpmath import mp\n")
    assert _imported_roots(module) == {"sympy", "mpmath"}


def test_numeric_libraries_stay_behind_their_modules():
    importers = {lib: set() for lib in ALLOWED}
    for path in PACKAGE.rglob("*.py"):
        roots = _imported_roots(path)
        for lib in ALLOWED:
            if lib in roots:
                importers[lib].add(path.relative_to(PACKAGE).as_posix())
    assert "orbit/gaps.py" in importers["mpmath"]  # the walk sees imports
    for lib, allowed in ALLOWED.items():
        assert importers[lib] <= allowed, lib
    # and no module reads mpmath's private float or interval tuples
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not attrs & {"_mpf_", "_mpi_"}, path


def test_runtime_dependencies_are_the_imported_libraries():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]}
    imported = set().union(*map(_imported_roots, PACKAGE.rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"ternpow"}
    assert third_party == declared


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
        "precision_cap",
        "_iv_prec",
        "_endpoints",
        "_exact_mpf",
        "_fraction_to_iv",
    ):
        assert not hasattr(ternpow.precision, name), name


def test_gaps_exports_no_float_helpers():
    # the spectrum is exact: no rounded theta, ulp tolerance or fixed precision
    for name in ("alpha0_mpf", "ulp", "DEFAULT_GAP_PRECISION"):
        assert not hasattr(ternpow.orbit.gaps, name), name


def _uses(path: Path, module: str, names: set[str]) -> list[int]:
    """Lines that read module.name, or import a name from module, for a
    name in ``names``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == module
            and node.attr in names
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            if any(alias.name in names for alias in node.names):
                lines.append(node.lineno)
    return lines


_FLOAT_LOGS = {"log", "log2", "log10", "log1p"}


def test_float_logs_only_seed_the_exact_floor():
    # a printed log is read from a certified enclosure; the one float log is
    # the first guess of math_floor_log3, which exact comparisons correct
    callers = {
        path.relative_to(PACKAGE).as_posix(): lines
        for path in PACKAGE.rglob("*.py")
        if (lines := _uses(path, "math", _FLOAT_LOGS))
    }
    assert set(callers) == {"precision.py"}, callers
    assert len(callers["precision.py"]) == 1


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


# settings reach a command through argv only: no module reads a variable
_ENVIRONMENT_NAMES = {"environ", "getenv", "putenv"}


def test_no_module_reads_the_environment(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\ncap = os.environ.get('CAP')\n")
    assert _uses(probe, "os", _ENVIRONMENT_NAMES) == [2]  # the walk sees os.environ
    readers = {
        path.relative_to(PACKAGE).as_posix(): lines
        for path in PACKAGE.rglob("*.py")
        if (lines := _uses(path, "os", _ENVIRONMENT_NAMES))
    }
    assert readers == {}


def test_sieve_exports_no_chain_memo():
    assert not hasattr(ternpow.sieve, "_CHAIN_CACHE")


def test_replaced_paths_are_gone():
    # the greedy walk and the survivor-tree count each have one implementation
    assert not hasattr(ternpow.sieve, "_count_in_range")
    greedy_fields = dataclasses.fields(ternpow.cantor.search.GreedyElement)
    assert "backtracks" not in {f.name for f in greedy_fields}
    params = inspect.signature(ternpow.cantor.search.greedy_element).parameters
    assert not {"pure_greedy", "state_limit"} & set(params)
    automaton = ternpow.cantor.automaton
    assert not hasattr(automaton.CarryAutomaton, "step")
    assert not hasattr(automaton.CarryAutomaton, "out_degree")
    assert not hasattr(automaton.MultiplierSet, "is_normalized")
    construction = ternpow.orbit.construction
    for name in ("DEFAULT_SCAN_LIMIT", "DEFAULT_BIT_LIMIT"):
        assert not hasattr(construction, name), name
    assert "scan_limit" not in inspect.signature(construction.find_lk).parameters
    build = inspect.signature(construction.construct_theorem12).parameters
    assert not {"scan_limit", "bit_limit", "explicit_digits"} & set(build)
    # digit-2-free integers have one coding: nth_free and count_free_upto
    gone = ("next_omitting", "prev_omitting", "count_omitting_upto", "digits_to_int")
    for name in gone:
        assert not hasattr(ternpow.ternary, name), name
        assert not hasattr(ternpow, name), name
    assert not hasattr(ternpow.sieve, "residue_survivors")
    assert not hasattr(ternpow, "residue_survivors")
    assert not hasattr(ternpow.cantor.search, "_free_integers_ascending")
    # one witness search: the exact decision, whose misses are proofs
    for name in ("theorem17_search", "MAX_SEARCH_N"):
        assert not hasattr(ternpow.cantor.search, name), name
        assert not hasattr(ternpow, name), name
    witness_fields = dataclasses.fields(ternpow.cantor.search.WitnessResult)
    assert not {"exhausted", "checked_up_to"} & {f.name for f in witness_fields}
    # one {1, M} carry search, in the automaton module
    assert not hasattr(ternpow.cantor.search, "_carry_distances")
    # stdout depends on argv alone: no run config, and the scan is serial
    assert not hasattr(ternpow.cli, "RunConfig")
    scan = inspect.signature(ternpow.cantor.search.scan_problems).parameters
    assert not {"workers", "limit"} & set(scan)
    pools = {"concurrent", "multiprocessing"}
    for path in PACKAGE.rglob("*.py"):
        assert not _imported_roots(path) & pools, path


def test_cli_serializes_without_asdict():
    names = {
        alias.name
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        for alias in node.names
    }
    assert "fields" in names  # the walk sees the dataclasses import
    assert "asdict" not in names


def test_traced_functions_exist():
    # the span tracer wraps these functions by name at their modules
    path = PACKAGE.parent.parent / "perfbench" / "layers.py"
    tree = ast.parse(path.read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert "survivor_chain" in targets["sieve"]
    for layer, names in targets.items():
        module = importlib.import_module(f"ternpow.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
