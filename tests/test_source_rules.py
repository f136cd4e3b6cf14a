"""Source rules of the package: one cache (RCache), no module-global state,
no stale export, no assert statement, one SVD in the R solver, one factor
request and one permutation application for the factor strings.

Results are memoized only in an RCache that the caller creates and passes,
so no function may carry a functools cache, and no module may bind a
mutable container to a name that reads as a variable.  Constants are
UPPER_CASE; dunder names such as __all__ are the language's own.  Every
name a module lists in __all__ must exist, so a deleted function cannot
stay exported.  `python -O` strips assert statements, so a runtime check
raises instead.  The R solver gets its coefficients from component ratios;
its one SVD is the gap test of the highest-weight kernels in
`_chain_kernels`, so a normwise nullvector solve cannot come back beside it.
In `qkz` and `reduction` every qKZ, reduction and transport operator is a
factor string: only `rcheck_factors` requests factors (solve_intertwiner,
with the resonant closed form) and only `apply_factors` applies a string
(the one use of permuted_matmul), so no second factor loop can come back.
The identity checks of `idsuite`, `qkz` and `reduction` take their
residuals from `tensorops.relative_residual` and call no norm of their own,
so no second residual rule (a 0/0 guard among them) can come back; and no
public function there takes a per-call tolerance, since each report's
tolerance is written where the report is made.
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


def assert_statements(tree):
    return [f"line {node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def calls_outside(tree, name, allowed):
    """Uses of `name` (an attribute, a bare name or an import of it) outside
    the functions named in allowed.  An import counts as inside when an
    allowed function uses the bare name that it binds."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in allowed
              for node in ast.walk(fn)}
    bare = {id(node) for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == name}
    imported_for_inside = bool(bare & inside)
    return [f"line {node.lineno}" for node in ast.walk(tree) if id(node) not in inside and (
        (isinstance(node, ast.Attribute) and node.attr == name) or id(node) in bare or
        (isinstance(node, ast.ImportFrom) and not imported_for_inside
         and any(a.name == name for a in node.names)))]


def named_calls(tree, name):
    """Calls of `name`, as an attribute (np.linalg.norm) or a bare name."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node) == name]


TOLERANCE_PARAMS = {"tol", "tol_op", "tol_e2e"}


def tolerance_parameters(tree):
    """Parameters named tol, tol_op or tol_e2e of the public functions."""
    return [f"{fn.name}({arg.arg})" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("_")
            for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if arg.arg in TOLERANCE_PARAMS]


def test_sources_found():
    assert any(p.name == "rsolve.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_functools_cache(path):
    assert functools_caches(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_mutable_state(path):
    assert global_containers(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(ast.parse(path.read_text())) == []


def test_rsolve_svd_only_in_chain_kernels():
    path = next(p for p in SOURCES if p.name == "rsolve.py")
    assert calls_outside(ast.parse(path.read_text()), "svd", ("_chain_kernels",)) == []


FACTOR_STRING_SOURCES = [p for p in SOURCES if p.name in ("qkz.py", "reduction.py")]


def test_factor_string_sources_found():
    assert len(FACTOR_STRING_SOURCES) == 2


@pytest.mark.parametrize("path", FACTOR_STRING_SOURCES, ids=lambda p: p.name)
def test_factors_requested_only_in_rcheck_factors(path):
    tree = ast.parse(path.read_text())
    assert calls_outside(tree, "solve_intertwiner", ("rcheck_factors",)) == []


@pytest.mark.parametrize("path", FACTOR_STRING_SOURCES, ids=lambda p: p.name)
def test_permutations_applied_only_in_apply_factors(path):
    tree = ast.parse(path.read_text())
    assert calls_outside(tree, "permuted_matmul", ("apply_factors",)) == []


CHECK_SOURCES = [p for p in SOURCES if p.name in ("idsuite.py", "qkz.py", "reduction.py")]


def test_check_sources_found():
    assert len(CHECK_SOURCES) == 3


@pytest.mark.parametrize("path", CHECK_SOURCES, ids=lambda p: p.name)
def test_checks_call_no_norm(path):
    assert named_calls(ast.parse(path.read_text()), "norm") == []


@pytest.mark.parametrize("path", CHECK_SOURCES, ids=lambda p: p.name)
def test_checks_take_no_tolerance(path):
    assert tolerance_parameters(ast.parse(path.read_text())) == []


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


@pytest.mark.parametrize("source, asserts", [
    ("def f(a, b):\n    assert a == b\n    return a\n", 1),
    ("class C:\n    def f(self):\n        assert self\n        assert not None, 'msg'\n", 2),
    ("def f(a, b):\n    if a != b:\n        raise ValueError('a != b')\n    return a\n", 0),
])
def test_assert_rule_fires_on_planted_code(source, asserts):
    assert len(assert_statements(ast.parse(source))) == asserts


@pytest.mark.parametrize("source, outside", [
    ("def _chain_kernels(A):\n    return np.linalg.svd(A, compute_uv=False)\n", 0),
    ("def _solve(K):\n    return np.linalg.svd(K)\n", 1),
    ("from numpy.linalg import svd\n", 1),
    ("def _chain_kernels(A):\n    return np.linalg.svd(A)\nsv = np.linalg.svd(B)\n", 1),
])
def test_svd_rule_fires_on_planted_code(source, outside):
    assert len(calls_outside(ast.parse(source), "svd", ("_chain_kernels",))) == outside


@pytest.mark.parametrize("source, outside", [
    ("from .rsolve import solve_intertwiner\n"
     "def rcheck_factors(chain, infos, cache):\n    return solve_intertwiner(infos, cache)\n", 0),
    # a second request function, with the import it uses
    ("from .rsolve import solve_intertwiner\n"
     "def _factors(case, pairs, cache):\n"
     "    return solve_intertwiner(pairs, cache, check_invertible=False)\n", 2),
    ("from .rsolve import make_request, solve_intertwiner\n"
     "def rcheck_factors(chain, infos, cache):\n    return solve_intertwiner(infos, cache)\n"
     "def _factors(pairs):\n    return solve_intertwiner(pairs, None, False)\n", 1),
    ("from . import rsolve\ndef _factors(pairs):\n    return rsolve.solve_intertwiner(pairs)\n", 1),
    ("from .rsolve import solve_intertwiner as solve\n", 1),
])
def test_request_rule_fires_on_planted_code(source, outside):
    tree = ast.parse(source)
    assert len(calls_outside(tree, "solve_intertwiner", ("rcheck_factors",))) == outside


APPLIER = ("from .tensorops import permuted_matmul\n"
           "def apply_factors(chain, steps, M):\n    return permuted_matmul(sigma, chain.dims, M)\n")


@pytest.mark.parametrize("source, outside", [
    (APPLIER, 0),
    # a factor loop of its own beside apply_factors
    (APPLIER + "def rhs_operator(case, M):\n    return permuted_matmul(swap, case.dims, M)\n", 1),
    ("from . import tensorops\n"
     "def transport_phi(chain, M):\n    return tensorops.permuted_matmul(s, chain.dims, M)\n", 1),
    ("from .tensorops import permuted_matmul\napply = permuted_matmul\n", 2),
])
def test_permutation_rule_fires_on_planted_code(source, outside):
    tree = ast.parse(source)
    assert len(calls_outside(tree, "permuted_matmul", ("apply_factors",))) == outside


@pytest.mark.parametrize("source, calls", [
    ("resid = relative_residual(left, right)\n", 0),
    ("resid = float(np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-300))\n", 2),
    ("from numpy.linalg import norm\ndef f(a):\n    return norm(a)\n", 1),
    # a loop variable named norm is no call
    ("for k1, k2, norm in pairs:\n    make_request(k1, k2, norm)\n", 0),
])
def test_norm_rule_fires_on_planted_code(source, calls):
    assert len(named_calls(ast.parse(source), "norm")) == calls


@pytest.mark.parametrize("source, found", [
    ("def check_ybe(m, kinds, samples, tol=1e-9, cache=None):\n    return m\n", 1),
    ("def theorem_check_general(case, zetas, *, tol_op=1e-9, tol_e2e=1e-8):\n"
     "    return case\n", 2),
    ("class C:\n    def check(self, tol):\n        return tol\n", 1),
    # a private helper and a literal at the report are allowed
    ("def _combined_report(name, tol):\n    return name\n", 0),
    ("def check_rpr(case, seed=0):\n    return make('rpr', {}, 0.0, 1e-9)\n", 0),
])
def test_tolerance_rule_fires_on_planted_code(source, found):
    assert len(tolerance_parameters(ast.parse(source))) == found
