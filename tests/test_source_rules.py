"""Source rules of the package: one cache (RCache), no module-global state,
no stale export.

Results are memoized only in an RCache that the caller creates and passes,
so no function may carry a functools cache, and no module may bind a
mutable container to a name that reads as a variable.  Constants are
UPPER_CASE; dunder names such as __all__ are the language's own.  Every
name a module lists in __all__ must exist, so a deleted function cannot
stay exported.
"""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qkzkit").glob("*.py"))
CACHE_DECORATORS = {"lru_cache", "cache"}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _name(node):
    """Last dotted component of a Name, Attribute or Call target."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def functools_caches(tree):
    return [f"{fn.name} (line {fn.lineno})" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for dec in fn.decorator_list if _name(dec) in CACHE_DECORATORS]


def global_containers(tree):
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        container = isinstance(value, CONTAINER_NODES) or \
            (isinstance(value, ast.Call) and _name(value) in CONTAINER_CALLS)
        for target in targets:
            for node in ast.walk(target):
                if container and isinstance(node, ast.Name) and node.id != node.id.upper() \
                        and not (node.id.startswith("__") and node.id.endswith("__")):
                    found.append(f"{node.id} (line {stmt.lineno})")
    return found


def test_sources_found():
    assert any(p.name == "rsolve.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_functools_cache(path):
    assert functools_caches(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_mutable_state(path):
    assert global_containers(ast.parse(path.read_text())) == []


def _exports(path):
    """The names of the module's __all__, or None when it has none."""
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    return None


EXPORTING = [p for p in SOURCES if _exports(p) is not None]


def test_exporting_modules_found():
    assert {p.name for p in EXPORTING} >= {"__init__.py", "idsuite.py", "reduction.py"}


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_exported_names_resolve(path):
    name = "qkzkit" if path.stem == "__init__" else f"qkzkit.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in _exports(path) if not hasattr(module, n)] == []


@pytest.mark.parametrize("source, caches, containers", [
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): return x\n", 1, 0),
    ("from functools import cache\n@cache\ndef f(x): return x\n", 1, 0),
    ("_store = {}\n", 0, 1),
    ("seen: list = []\n", 0, 1),
    ("pool = set()\n", 0, 1),
    ("SHIFT = {'e0': -2.0}\nTAGS = ('e0',)\nlimit = 3\n__all__ = ['f']\n", 0, 0),
    ("def f():\n    local = {}\n    return local\n", 0, 0),
])
def test_rules_fire_on_planted_code(source, caches, containers):
    tree = ast.parse(source)
    assert (len(functools_caches(tree)), len(global_containers(tree))) == (caches, containers)
