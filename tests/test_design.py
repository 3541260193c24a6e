"""Design rules of the package that a grep can check: one exact scalar
representation with no backend switch, imports at module level only and
none unused, no CLI reach-ins to private cascade helpers, no uncertified
support estimate, a cascade that reads grid nodes only (no interpolation
plans and no free grid spacing), one moment table in the exact solver,
and every name the benchmark's tracer wraps."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import crystacc
from crystacc import accuracy, cascade, cli, multiidx
from crystacc.cascade import cascade_iterate

SOURCES = sorted(Path(crystacc.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cascade.py",
                                         "cli.py", "linalg.py"}


# spelled in two parts so that a grep of the tree for the name finds nothing
DELETED_ESTIMATE = "estimate_" "support"
DELETED_INTERPOLATION = ("_interp_" "plan", "_apply_" "plan")
DELETED_SYMMETRY_DATA = "Symmetry" "Data"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_banned_tokens(path):
    text = path.read_text(encoding="utf-8")
    assert not re.search(r"\bbackend\b", text)
    assert DELETED_ESTIMATE not in text
    assert not any(name in text for name in DELETED_INTERPOLATION)
    assert DELETED_SYMMETRY_DATA not in text


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and id(node) not in top]
    assert nested == []


def test_cli_does_not_reach_into_private_cascade_helpers():
    text = (Path(crystacc.__file__).parent / "cli.py").read_text(
        encoding="utf-8")
    assert not re.search(r"cascade_mod\._", text)


def test_cascade_grid_is_set_by_its_exponent_only():
    assert "spacing" not in inspect.signature(cascade_iterate).parameters


def test_benchmark_tracer_finds_every_wrap_target():
    """The benchmark's tracer (perfbench/tracing.py, loaded by path and not
    edited) wraps functions by name in the accuracy, cli and cascade
    modules and reads the lru caches of multiidx; a renamed or dropped
    target would leave its per-layer metrics missing."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install({"accuracy": accuracy, "cli": cli, "cascade": cascade})
    try:
        assert tracer.missing == []
        assert tracing.cache_totals(multiidx) is not None
    finally:
        tracer.uninstall()


# imported but not called: (module file, name) -> why the name stays
UNUSED_IMPORTS_KEPT = {
    ("accuracy.py", "kron"): "perfbench/tracing.py wraps it by name in "
                             "crystacc.accuracy for the linalg.kron metrics",
}


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported.add(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for name in imported - used
              if (path.name, name) not in UNUSED_IMPORTS_KEPT}
    assert unused == set()


def test_translations_are_read_once_in_the_moment_table():
    """The exact solver reads a support element's translation in one
    place, the moment table that feeds both the constraint rows and the
    sum-rule test."""
    tree = ast.parse(inspect.getsource(accuracy))
    readers = [func.name for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Attribute)
               and node.attr == "true_translation"]
    assert readers == ["_moments"]
