"""Names that other code reaches by string or from outside the package.

A deleted function can leave a stale `__all__` entry behind, which only
fails on `from sbc.<module> import *`.  The benchmark's scripts import sbc
names inside functions, so a deleted one would only fail when that workload
runs.  perfbench/tracer.py's string list is checked in test_tracer_names.py.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sbc
import sbc.group_core
import sbc.subgroups

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(sbc.__path__)))
def test_star_import_resolves(module) -> None:
    exec(f"from sbc.{module} import *", {})


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _sbc_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every name the script imports from sbc and every
    attribute it reads off an sbc module it imported."""
    tree = ast.parse(path.read_text())
    names, modules = set(), {}  # modules: local dotted name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sbc":
                    parts = alias.name.split(".")
                    for i in range(1, len(parts) + 1):
                        modules[".".join(parts[:i])] = ".".join(parts[:i])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sbc":
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "sbc":  # from sbc import <module>
                    modules[alias.asname or alias.name] = f"sbc.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node.value) in modules:
            names.add((modules[_dotted(node.value)], node.attr))
    return names


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")  # a submodule not imported yet
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("script", ["worker.py", "selfcheck.py"])
def test_benchmark_scripts_sbc_names_resolve(script) -> None:
    names = _sbc_names(PERFBENCH / script)
    if script == "worker.py":  # the parse finds both kinds of use
        assert ("sbc.automorphisms", "sylow_aut_subgroup") in names
        assert ("sbc.classify", "crosscheck_count_report") in names
    missing = sorted(f"{m}.{n}" for m, n in names if not _resolves(m, n))
    assert names and missing == []


SCALAR_MODULES = {"automorphisms", "holomorph", "subgroups"}


def _module_level_imports(tree: ast.Module):
    """Every import statement outside function and class bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node) -> set[str]:
    """Last name part of every module an import statement may load."""
    if isinstance(node, ast.Import):
        return {alias.name.rpartition(".")[2] for alias in node.names}
    names = {node.module.rpartition(".")[2]} if node.module else set()
    return names | {alias.name for alias in node.names}  # from . import <module>


@pytest.mark.parametrize("module", ["classify", "cli", "families", "oracle", "skewbrace"])
def test_engine_does_not_import_the_scalar_model(module) -> None:
    # verify's algebra-identities check in cli imports it inside a function
    tree = ast.parse(Path(sbc.__file__).with_name(f"{module}.py").read_text())
    found = [
        (node.lineno, name)
        for node in _module_level_imports(tree)
        for name in sorted(_imported_modules(node) & SCALAR_MODULES)
    ]
    assert found == []


def test_shared_types_live_in_group_core() -> None:
    assert sbc.subgroups.GroupType is sbc.group_core.GroupType
