"""Source rules of the package: one cache (RCache), no module-global state,
no stale export, no assert statement, one SVD in the R solver, one factor
request and one permutation and two-site application for the factor
strings, one Kronecker product and one reader of the template's images.

Templates are shared only in an RCache that the caller creates and
passes, and solved results live in the call that solved them, so no
function may carry a functools cache, and no module may bind a mutable
container to a name that reads as a variable.  Constants are
UPPER_CASE; dunder names such as __all__ are the language's own.  Every
name a module lists in __all__ must exist, so a deleted function cannot
stay exported.  `python -O` strips assert statements, so a runtime check
raises instead.  The R solver gets its coefficients from component ratios;
its one SVD is the gap test of the highest-weight kernels in
`_chain_kernels`, so a normwise nullvector solve cannot come back beside it.
Its stack solve `_solve` has one caller, `solve_requests`, which makes one
stack per spin, q and grading, so a second stack path (one stack per module
pair, say) cannot come back beside it.  The spin template's build is the
one place that builds modules (`eval_module`, in `CommutantTemplate.__init__`)
and commutant bases (`_commutant_basis`, in `CommutantTemplate._build_frame`),
so a per-pair build cannot come back beside the stacked pass.
In `qkz` and `reduction` every qKZ, reduction and transport operator is a
factor string, and only `apply_factors` applies a string, through the string
kernel `tensorops.string_matmul`; no module of the package calls the kernel
elsewhere (its one-step calls `embedded_matmul`, `site_matmul` and
`permuted_matmul` aside), nor embedded_matmul outside `qkz.apply_factors`,
nor do `qkz` and `reduction` call permuted_matmul outside it, so no second
factor loop can come back and no check applies a two-site factor or a
permutation (or a dense product of them) of its own.  A leftover import of
an applier counts as a use.
`tensorops.kron` is the one Kronecker product (no `np.kron` in the
package), `tensorops.partial_transpose` the one partial transpose (the
modules of the checks move no axes of their own but in `psi_extract`),
and only `CommutantTemplate.generator_images` reads the template's stored
image parts (`images`), so no second densify of them can come back.  In `qkz`,
`reduction`, `idsuite` and `cli` only the record solve `solve_records`
solves R-operators (solve_requests, solve_intertwiner or r_matrix); the
record runner `run_records` and, once per run, the suite's `_run_groups`
call it, and the records read their factors by name through the factor
reader that it returns, so no check can keep a request list beside the
factor data it applies, no record can solve a second time and no check
group can solve on its own; `cli` keeps one single request by design, the
`rmat` dump.  Outside `rsolve` only that reader reads a solved result
(`read_result`, in `solve_records`), and `cli` does not import it, so no
second read rule can come back beside the reader.
The identity checks of `cli`, `reps`, `idsuite`, `qkz` and `reduction`
take their residuals from `tensorops.relative_residual` (or its stack,
`relative_residuals`, and the fits `scalar_ratio` and `scalar_ratios`) and
call no norm of their own, so no second residual rule (a 0/0 guard among them) can come
back; nor do they take an absolute one, the abs of a difference or the
max of an abs, outside a comparison (an argument guard such as
abs(z - w) < tol is no residual).  The one measure left on that rule is
the crossing report's scalar_spread, reported beside its residual and not
gated.  In `cli`, `idsuite`, `qkz` and `reps` the one-slice calls
`relative_residual` and `scalar_ratio` are made outside every loop and
comprehension (nor mapped), so the residuals of samples, slices or tags
are one stacked call and a per-sample residual loop cannot come back.
No public function there takes a per-call tolerance, since each
report's tolerance is written where the report is made.  Only `cli` keeps time: its
group runner `_run_groups` times each check group, and no other function or
module reads the clock (or imports `time`), so no check carries a timer.
Every public function, class, method and property of the package is read
by program code (the package or `perfbench/*.py`) somewhere other than at
its definition, so library surface that only tests reach cannot grow back;
the names kept without a program reader are listed with their reasons.  The
rule goes by name: a method is read once any attribute of that name is
read, and an import or an `__all__` entry re-exports a name, it reads none.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qkzkit").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
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


def _functions(tree):
    """(name, node) of every function of a tree, and of each method also as
    (Class.method, node)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)))


def calls_outside(tree, name, allowed):
    """Uses of `name` (an attribute, a bare name or an import of it) outside
    the functions named in allowed (a method as Class.method).  An import
    counts as inside when an allowed function uses the bare name that it
    binds."""
    inside = {id(node) for fn_name, fn in _functions(tree) if fn_name in allowed
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


def timing_uses(tree):
    """Imports of the time module (plain or from) and calls of perf_counter."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Import) and any(a.name == "time" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "time")
            or (isinstance(node, ast.Call) and _name(node) == "perf_counter")]


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_stacks_solved_only_in_solve_requests(path):
    allowed = ("solve_requests",) if path.name == "rsolve.py" else ()
    assert calls_outside(ast.parse(path.read_text()), "_solve", allowed) == []


# the spin template's build: the one place that builds the modules (V and V*
# once per spin) and the commutant bases (all four module pairs in one pass)
TEMPLATE_BUILD = {"eval_module": ("CommutantTemplate.__init__",),
                  "_commutant_basis": ("CommutantTemplate._build_frame",)}


@pytest.mark.parametrize("name", sorted(TEMPLATE_BUILD))
@pytest.mark.parametrize("path", PROGRAM, ids=lambda p: p.name)
def test_modules_and_bases_built_only_by_the_spin_template(path, name):
    allowed = TEMPLATE_BUILD[name] if path.name == "rsolve.py" else ()
    assert calls_outside(ast.parse(path.read_text()), name, allowed) == []


FACTOR_STRING_SOURCES = [p for p in SOURCES if p.name in ("qkz.py", "reduction.py")]
REQUEST_SOURCES = [p for p in SOURCES
                   if p.name in ("qkz.py", "reduction.py", "idsuite.py", "cli.py")]
REQUEST_NAMES = ("solve_requests", "solve_intertwiner", "r_matrix", "solve_records")
# the functions that may request R-operators, by module and name: the record
# solve, and the record runner and the suite's group runner that call it; in
# cli the rmat dump of one operator
REQUEST_CALLERS = {
    ("qkz.py", "solve_requests"): ("solve_records",),
    ("qkz.py", "solve_records"): ("run_records",),
    ("cli.py", "solve_records"): ("_run_groups",),
    ("cli.py", "r_matrix"): ("cmd_rmat",),
}


# the functions outside rsolve that may read a solved result: the factor reader
READ_CALLERS = {"qkz.py": ("solve_records",)}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "rsolve.py"],
                         ids=lambda p: p.name)
def test_results_read_only_by_the_factor_reader(path):
    allowed = READ_CALLERS.get(path.name, ())
    assert calls_outside(ast.parse(path.read_text()), "read_result", allowed) == []


def test_factor_string_sources_found():
    assert len(FACTOR_STRING_SOURCES) == 2 and len(REQUEST_SOURCES) == 4


@pytest.mark.parametrize("name", REQUEST_NAMES)
@pytest.mark.parametrize("path", REQUEST_SOURCES, ids=lambda p: p.name)
def test_factors_requested_only_in_solve_records(path, name):
    tree = ast.parse(path.read_text())
    assert calls_outside(tree, name, REQUEST_CALLERS.get((path.name, name), ())) == []


@pytest.mark.parametrize("path", FACTOR_STRING_SOURCES, ids=lambda p: p.name)
def test_permutations_applied_only_in_apply_factors(path):
    tree = ast.parse(path.read_text())
    assert calls_outside(tree, "permuted_matmul", ("apply_factors",)) == []


# the one function of each module that may apply a two-site factor to a block
TWO_SITE_APPLIERS = {"qkz.py": ("apply_factors",)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_two_site_factors_applied_only_in_apply_factors(path):
    tree = ast.parse(path.read_text())
    assert calls_outside(tree, "embedded_matmul", TWO_SITE_APPLIERS.get(path.name, ())) == []


# the functions of each module that may call the string kernel: the string
# applier, and the kernel's one-step calls
STRING_APPLIERS = {"qkz.py": ("apply_factors",),
                   "tensorops.py": ("embedded_matmul", "site_matmul", "permuted_matmul")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_strings_applied_only_in_apply_factors(path):
    tree = ast.parse(path.read_text())
    assert calls_outside(tree, "string_matmul", STRING_APPLIERS.get(path.name, ())) == []


def numpy_krons(tree):
    """Calls of np.kron or numpy.kron, and imports of kron from numpy."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "kron" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy"))
            or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(a.name == "kron" for a in node.names))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_kron(path):
    assert numpy_krons(ast.parse(path.read_text())) == []


# a partial transpose is a reshape and an axis move: the check modules move
# no axes but in `reduction.psi_extract` (the mirror of its 2n-site tensor's
# slots), so every partial transpose goes through tensorops.partial_transpose
AXIS_MOVES = ("transpose", "swapaxes", "moveaxis", "permute_dims")
AXIS_MOVERS = {"reduction.py": ("psi_extract",)}
AXIS_MOVE_SOURCES = [p for p in SOURCES if p.name in ("cli.py", "idsuite.py", "qkz.py",
                                                      "reduction.py")]


def axis_moves(tree, allowed):
    """Uses of an axis move outside the functions named in allowed."""
    return [found for name in AXIS_MOVES for found in calls_outside(tree, name, allowed)]


@pytest.mark.parametrize("path", AXIS_MOVE_SOURCES, ids=lambda p: p.name)
def test_partial_transposes_only_through_partial_transpose(path):
    assert len(AXIS_MOVE_SOURCES) == 4
    assert axis_moves(ast.parse(path.read_text()), AXIS_MOVERS.get(path.name, ())) == []


def test_crossing_transposes_through_partial_transpose():
    tree = ast.parse((ROOT / "src" / "qkzkit" / "idsuite.py").read_text())
    crossing = next(fn for name, fn in _functions(tree) if name == "check_crossing")
    assert len(named_calls(crossing, "partial_transpose")) == 2


def attribute_reads(tree, name, allowed):
    """Reads (not stores) of the attribute `name` outside the functions named
    in allowed (a method as Class.method)."""
    inside = {id(node) for fn_name, fn in _functions(tree) if fn_name in allowed
              for node in ast.walk(fn)}
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.ctx, ast.Load) and id(node) not in inside]


IMAGE_READER = ("CommutantTemplate.generator_images",)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_template_images_read_only_by_generator_images(path):
    assert attribute_reads(ast.parse(path.read_text()), "images", IMAGE_READER) == []


CHECK_SOURCES = [p for p in SOURCES
                 if p.name in ("cli.py", "reps.py", "idsuite.py", "qkz.py", "reduction.py")]
ABS_NAMES = {"abs", "absolute"}
# functions whose absolute measure is no report residual: the crossing scalar_spread
ABSOLUTE_ALLOWED = ("check_crossing",)


def _is_abs(node):
    return isinstance(node, ast.Call) and _name(node) in ABS_NAMES


def absolute_residuals(tree, allowed=()):
    """The abs (builtin or numpy) of a difference and the max of an abs, outside
    a comparison and outside the functions named in allowed."""
    skip = {id(node) for outer in ast.walk(tree)
            if isinstance(outer, ast.Compare) or (
                isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
                and outer.name in allowed)
            for node in ast.walk(outer)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip or not isinstance(node, ast.Call):
            continue
        diff = _is_abs(node) and bool(node.args) and isinstance(node.args[0], ast.BinOp) \
            and isinstance(node.args[0].op, ast.Sub)
        peak = _name(node) in ("max", "amax") and (
            (isinstance(node.func, ast.Attribute) and _is_abs(node.func.value))
            or any(_is_abs(arg) for arg in node.args))
        if diff or peak:
            found.append(f"line {node.lineno}")
    return found


def test_check_sources_found():
    assert len(CHECK_SOURCES) == 5


@pytest.mark.parametrize("path", CHECK_SOURCES, ids=lambda p: p.name)
def test_checks_call_no_norm(path):
    assert named_calls(ast.parse(path.read_text()), "norm") == []


@pytest.mark.parametrize("path", CHECK_SOURCES, ids=lambda p: p.name)
def test_checks_take_no_absolute_residual(path):
    assert absolute_residuals(ast.parse(path.read_text()), ABSOLUTE_ALLOWED) == []


@pytest.mark.parametrize("path", CHECK_SOURCES, ids=lambda p: p.name)
def test_checks_take_no_tolerance(path):
    assert tolerance_parameters(ast.parse(path.read_text())) == []


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)
ONE_SLICE_CALLS = ("relative_residual", "scalar_ratio")
STACKED_SOURCES = [p for p in SOURCES if p.name in ("cli.py", "idsuite.py", "qkz.py", "reps.py")]


def one_slice_calls_in_loops(tree):
    """Calls of relative_residual or scalar_ratio inside a loop or a
    comprehension, and either one mapped."""
    looped = {node for loop in ast.walk(tree) if isinstance(loop, LOOPS)
              for node in ast.walk(loop)
              if isinstance(node, ast.Call) and _name(node) in ONE_SLICE_CALLS}
    mapped = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and _name(node) == "map" and any(_name(arg) in ONE_SLICE_CALLS
                                                for arg in node.args)}
    return sorted(f"line {node.lineno}" for node in looped | mapped)


@pytest.mark.parametrize("path", STACKED_SOURCES, ids=lambda p: p.name)
def test_one_slice_residuals_are_not_looped(path):
    assert len(STACKED_SOURCES) == 4
    assert one_slice_calls_in_loops(ast.parse(path.read_text())) == []


# the count and m positions of each sample-set draw, and the other draws of a stream
SET_DRAWS = {"draw_generic_zetas": (1, 2), "draw_generic_sets": (2, 3)}
OTHER_DRAWS = ("random_zeta", "random", "_zsample")


def _per_iteration(loop):
    """The parts of a loop evaluated on every iteration: the body of a for or
    while loop, the element, conditions and inner iterables of a comprehension."""
    if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
        return loop.body + loop.orelse
    elts = [loop.key, loop.value] if isinstance(loop, ast.DictComp) else [loop.elt]
    return elts + [cond for gen in loop.generators for cond in gen.ifs] + \
        [gen.iter for gen in loop.generators[1:]]


def repeated_set_draws(tree):
    """Sample-set draws that a loop makes on every iteration with the same
    (count, m): neither argument reads a variable of that loop or of a loop
    inside it, and no other draw of the iteration comes between, so the draws
    of consecutive iterations could be one draw_generic_sets call."""
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, LOOPS):
            continue
        nodes = [node for part in _per_iteration(loop) for node in ast.walk(part)]
        calls = [node for node in nodes if isinstance(node, ast.Call)]
        if any(_name(call) in OTHER_DRAWS for call in calls):
            continue
        targets = [loop.target] if isinstance(loop, (ast.For, ast.AsyncFor)) else \
            [gen.target for gen in getattr(loop, "generators", ())]
        targets += [node.target for node in nodes if isinstance(node, (ast.For, ast.AsyncFor))]
        targets += [gen.target for node in nodes for gen in getattr(node, "generators", ())]
        bound = {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
        for call in calls:
            args = [call.args[i] for i in SET_DRAWS.get(_name(call), ()) if i < len(call.args)]
            if _name(call) in SET_DRAWS and not bound & {
                    n.id for arg in args for n in ast.walk(arg) if isinstance(n, ast.Name)}:
                found.add(f"line {call.lineno}")
    return sorted(found)


def test_cli_draws_each_run_of_sample_sets_at_once():
    assert repeated_set_draws(ast.parse(next(p for p in SOURCES
                                             if p.name == "cli.py").read_text())) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_cli_keeps_time(path):
    assert timing_uses(ast.parse(path.read_text())) == []


def test_cli_reads_the_clock_only_in_the_group_runner():
    tree = ast.parse(next(p for p in SOURCES if p.name == "cli.py").read_text())
    assert named_calls(tree, "perf_counter")
    assert calls_outside(tree, "perf_counter", ("_run_groups",)) == []


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


@pytest.mark.parametrize("source, name, outside", [
    ("from .reps import eval_module\nclass CommutantTemplate:\n    def __init__(self, m, ctx):\n"
     "        self.reps = [eval_module(k, m, g, ctx) for k in KINDS]\n", "eval_module", 0),
    ("class CommutantTemplate:\n    def _build_frame(self, frame):\n"
     "        return _commutant_basis(ins, outs, self.m, self.a, self.b)\n",
     "_commutant_basis", 0),
    # a module built beside the template: per module pair in the cache, or in a helper
    ("from .reps import eval_module\nclass CommutantTemplate:\n    def __init__(self, m, ctx):\n"
     "        self.reps = [eval_module(k, m, g, ctx) for k in KINDS]\nclass RCache:\n"
     "    def template(self, req):\n        return eval_module(req.kind1, req.m, g, req.ctx)\n",
     "eval_module", 1),
    ("from .reps import eval_module\ndef _modules(req):\n    return eval_module(req.kind1, 1, g, c)\n",
     "eval_module", 2),
    ("from . import reps\nrep = reps.eval_module('V', 1, g, ctx)\n", "eval_module", 1),
    # a basis built per module pair, in another method of the template or in the solve
    ("class CommutantTemplate:\n    def _build_frame(self, frame):\n"
     "        return _commutant_basis(ins, outs, self.m, self.a, self.b)\n"
     "    def pair_frame(self, pair, frame):\n"
     "        return _commutant_basis(ins[pair], outs[pair], self.m, self.a, self.b)\n",
     "_commutant_basis", 1),
    ("def _raw_nullvector(reqs, template, pair):\n    return rsolve._commutant_basis(i, o, m, a, b)\n",
     "_commutant_basis", 1),
])
def test_template_build_rule_fires_on_planted_code(source, name, outside):
    assert len(calls_outside(ast.parse(source), name, TEMPLATE_BUILD[name])) == outside


@pytest.mark.parametrize("source, outside", [
    ("def solve_requests(reqs, cache):\n    return _solve(reqs, template, pair)\n", 0),
    # a second stack path beside it
    ("def solve_requests(reqs, cache):\n    return _solve(reqs, template, pair)\n"
     "def _solve_pair(reqs, template, pair):\n    return _solve(reqs, template, [pair] * len(reqs))\n",
     1),
    ("from . import rsolve\ndef solve_records(reqs):\n    return rsolve._solve(reqs, t, p)\n", 1),
])
def test_stack_rule_fires_on_planted_code(source, outside):
    assert len(calls_outside(ast.parse(source), "_solve", ("solve_requests",))) == outside


@pytest.mark.parametrize("source, outside", [
    ("from .rsolve import solve_requests\n"
     "def solve_records(records, cache):\n    return solve_requests(reqs, cache)\n", 0),
    # a second request function, with the import it uses
    ("from .rsolve import solve_requests\n"
     "def _factors(case, pairs, cache):\n    return solve_requests(pairs, cache)\n", 2),
    ("from .rsolve import make_request, solve_requests\n"
     "def solve_records(records, cache):\n    return solve_requests(reqs, cache)\n"
     "def _factors(pairs):\n    return solve_requests(pairs, None)\n", 1),
    ("from . import rsolve\ndef _factors(pairs):\n    return rsolve.solve_requests(pairs)\n", 1),
    ("from .rsolve import solve_requests as solve\n", 1),
])
def test_request_rule_fires_on_planted_code(source, outside):
    tree = ast.parse(source)
    assert len(calls_outside(tree, "solve_requests", ("solve_records",))) == outside


@pytest.mark.parametrize("module, name, source, outside", [
    # a check of idsuite that solves its own factors, beside its record
    ("idsuite.py", "solve_intertwiner", "from .rsolve import make_request, solve_intertwiner\n"
     "def check_ybe(m, kinds, samples, cache):\n"
     "    return solve_intertwiner(reqs, cache, check_invertible=False)\n", 2),
    ("idsuite.py", "r_matrix", "from .rsolve import r_matrix\n"
     "def check_initial_condition(m, kind, zeta, cache):\n"
     "    return r_matrix(kind, zeta, kind, zeta, m, g, ctx, cache=cache)\n", 2),
    ("idsuite.py", "solve_intertwiner", "from .qkz import run_records\n"
     "def _pair(m):\n    return run_records([rec])\n", 0),
    # a group runner of cli's own, beside qkz.solve_records
    ("cli.py", "solve_intertwiner", "from .rsolve import RCache, solve_intertwiner\n"
     "def _run_records(records, cache):\n    solve_intertwiner(reqs, cache)\n", 2),
    ("cli.py", "r_matrix", "from .rsolve import r_matrix\n"
     "def cmd_rmat(config):\n    return r_matrix(k1, z1, k2, z2, m, g, ctx)\n", 0),
    # a lattice probe of its own, beside the run's one solve
    ("cli.py", "r_matrix", "from .rsolve import r_matrix\n"
     "def _chk_degenerate_detection(config, ctx, g):\n"
     "    return r_matrix('V', z, 'V', 1.0, 1, g, ctx)\n"
     "def cmd_rmat(config):\n    return r_matrix(k1, z1, k2, z2, m, g, ctx)\n", 1),
    ("cli.py", "r_matrix", "from .rsolve import r_matrix\n"
     "def cmd_rmat(config):\n    return r_matrix(k1, z1, k2, z2, m, g, ctx)\n"
     "def _chk_unitarity(config, ctx, g):\n"
     "    return r_matrix('V', z1, 'V', z2, 1, g, ctx)\n", 1),
    ("qkz.py", "solve_requests", "from .rsolve import solve_requests\n"
     "def solve_records(records, cache):\n    results = solve_requests(reqs, cache)\n", 0),
    # a factor applier that solves again, beside the record solve
    ("qkz.py", "solve_requests", "from .rsolve import solve_requests\n"
     "def solve_records(records, cache):\n    results = solve_requests(reqs, cache)\n"
     "def apply_factors(chain, steps, factor, block):\n"
     "    return solve_requests(reqs, cache)\n", 1),
    # the record runner solves through the record solve, not beside it
    ("qkz.py", "solve_records", "def run_records(records, cache):\n"
     "    factor = solve_records(records, cache)\n"
     "    return [rec.evaluate(factor) for rec in records]\n", 0),
    ("qkz.py", "solve_requests", "from .rsolve import solve_requests\n"
     "def run_records(records, cache):\n    results = solve_requests(reqs, cache)\n", 2),
    # the suite's one solve, and a check group that solves its own records
    ("cli.py", "solve_records", "def _run_groups(names, config):\n"
     "    factor = qkz.solve_records(records)\n", 0),
    ("cli.py", "solve_records", "def _run_groups(names, config):\n"
     "    factor = qkz.solve_records(records)\n"
     "def _chk_ybe(config, ctx, g):\n"
     "    return qkz.solve_records(records)\n", 1),
    ("qkz.py", "solve_intertwiner", "from .rsolve import solve_intertwiner\n"
     "def apply_factors(chain, steps, factor, block):\n"
     "    return solve_intertwiner(reqs, cache)\n", 2),
    # a side that solves its own factors
    ("qkz.py", "solve_intertwiner", "from .rsolve import solve_intertwiner\n"
     "class Side:\n    def apply(self, chain, factor, block):\n"
     "        return solve_intertwiner(reqs, cache)\n", 2),
    ("qkz.py", "solve_requests", "from . import rsolve\n"
     "class Side:\n    def apply(self, chain, factor, block):\n"
     "        return rsolve.solve_requests(reqs)\n", 1),
])
def test_request_rule_fires_on_planted_code_by_module(module, name, source, outside):
    allowed = REQUEST_CALLERS.get((module, name), ())
    assert len(calls_outside(ast.parse(source), name, allowed)) == outside


@pytest.mark.parametrize("module, source, outside", [
    ("qkz.py", "from .rsolve import read_result\n"
     "def solve_records(records, cache):\n"
     "    def factor(chain, info, check_invertible=True):\n"
     "        return read_result(results[at[info]], check_invertible).Rcheck\n"
     "    return factor\n", 0),
    # a second read of the results, beside the reader
    ("qkz.py", "from .rsolve import read_result\n"
     "def solve_records(records, cache):\n    return read_result(results[0])\n"
     "def apply_factors(chain, steps, solved, block):\n"
     "    return read_result(solved[0]).Rcheck\n", 1),
    ("cli.py", "from .rsolve import r_matrix, read_result\n", 1),
    # a record of cli's own that reads the solved results
    ("cli.py", "from .rsolve import read_result\n"
     "class _LatticeProbes:\n    def evaluate(self, solved):\n"
     "        return read_result(solved[0])\n", 2),
    ("reduction.py", "from . import rsolve\n"
     "def check_rpr(case, i, zetas):\n    return rsolve.read_result(res)\n", 1),
])
def test_read_rule_fires_on_planted_code(module, source, outside):
    allowed = READ_CALLERS.get(module, ())
    assert len(calls_outside(ast.parse(source), "read_result", allowed)) == outside


APPLIER = ("from .tensorops import permuted_matmul\n"
           "def apply_factors(chain, steps, M):\n    return permuted_matmul(sigma, chain.dims, M)\n")


@pytest.mark.parametrize("source, outside", [
    (APPLIER, 0),
    # a factor loop of its own beside apply_factors
    (APPLIER + "def rhs_operator(case, M):\n    return permuted_matmul(swap, case.dims, M)\n", 1),
    ("from . import tensorops\n"
     "def transport_phi(chain, M):\n    return tensorops.permuted_matmul(s, chain.dims, M)\n", 1),
    ("from .tensorops import permuted_matmul\napply = permuted_matmul\n", 2),
    # a leftover import beside the string kernel, which a second loop could call
    ("from .tensorops import permuted_matmul, string_matmul\n"
     "def apply_factors(chain, steps, factor, M):\n"
     "    return string_matmul(steps, chain.dims, M)\n", 1),
])
def test_permutation_rule_fires_on_planted_code(source, outside):
    tree = ast.parse(source)
    assert len(calls_outside(tree, "permuted_matmul", ("apply_factors",))) == outside


TWO_SITE_APPLIER = ("from .tensorops import embedded_matmul\n"
                    "def apply_factors(chain, steps, factor, M):\n"
                    "    return embedded_matmul(op, i, j, chain.dims, M)\n")


@pytest.mark.parametrize("source, outside", [
    (TWO_SITE_APPLIER, 0),
    # a check that applies its own factors beside apply_factors
    (TWO_SITE_APPLIER + "def check_rpr(case, read):\n"
     "    return embedded_matmul(front, 0, 1, case.dims, phi)\n", 1),
    ("from .tensorops import embedded_matmul\n"
     "def measure(read):\n    return embedded_matmul(front, 0, 1, dims, phi)\n", 2),
    # a dense route of its own
    ("from . import tensorops\nclass Side:\n    def apply(self, chain, factor, block):\n"
     "        return tensorops.embedded_matmul(op, 0, 1, chain.dims, block)\n", 1),
    # a leftover import beside the string kernel
    ("from .tensorops import embedded_matmul, string_matmul\n"
     "def apply_factors(chain, steps, factor, M):\n"
     "    return string_matmul(steps, chain.dims, M)\n", 1),
])
def test_two_site_rule_fires_on_planted_code(source, outside):
    tree = ast.parse(source)
    assert len(calls_outside(tree, "embedded_matmul", ("apply_factors",))) == outside


STRING_APPLIER = ("from .tensorops import string_matmul\n"
                  "def apply_factors(chain, steps, factor, M):\n"
                  "    return string_matmul(_slot_steps(chain, steps, factor), chain.dims, M)\n")


@pytest.mark.parametrize("module, source, outside", [
    ("qkz.py", STRING_APPLIER, 0),
    # a check that applies its own factor or permutation through the kernel
    ("qkz.py", STRING_APPLIER + "def check_rpr(case, read):\n"
     "    return string_matmul([(front, (0, 1))], case.dims, phi)\n", 1),
    ("reduction.py", "from .tensorops import string_matmul\n"
     "def measure(read):\n    return string_matmul([(None, swap)], dims, phi)\n", 2),
    ("idsuite.py", "from . import tensorops\ndef transport_phi(chain, M):\n"
     "    return tensorops.string_matmul(steps, chain.dims, M)\n", 1),
    ("qkz.py", "from .tensorops import string_matmul\napply = string_matmul\n", 2),
    # the kernel's one-step calls, and a dense product of its own beside them
    ("tensorops.py", "def permuted_matmul(sigma, site_dims, M):\n"
     "    return string_matmul([(None, sigma)], site_dims, M)\n", 0),
    ("tensorops.py", "def string_op(steps, site_dims):\n"
     "    return string_matmul(steps, site_dims, np.eye(prod(site_dims)))\n", 1),
])
def test_string_rule_fires_on_planted_code(module, source, outside):
    allowed = STRING_APPLIERS.get(module, ())
    assert len(calls_outside(ast.parse(source), "string_matmul", allowed)) == outside


@pytest.mark.parametrize("source, found", [
    ("CC = np.kron(C1, C2)\n", 1),
    ("import numpy\nCC = numpy.kron(C1, C2)\n", 1),
    ("from numpy import kron\n", 1),
    ("twists = (np.kron(O, one), np.kron(one, O))\n", 2),
    # the package's own helper is no numpy kron
    ("from .tensorops import kron\nCC = kron(C1, C2)\n", 0),
    ("CC = tensorops.kron(C1, C2)\n", 0),
])
def test_kron_rule_fires_on_planted_code(source, found):
    assert len(numpy_krons(ast.parse(source))) == found


@pytest.mark.parametrize("module, source, found", [
    ("idsuite.py", "def measure(read, probe):\n"
     "    return partial_transpose(R[:, [0, 5]], 'second', dd)\n", 0),
    # a partial transpose of its own, by a method or a numpy function
    ("idsuite.py", "def measure(read, probe):\n"
     "    return R.reshape(d, d, d, d).transpose(2, 1, 0, 3).reshape(d * d, -1)\n", 1),
    ("idsuite.py", "import numpy as np\ndef _crossing_sample(R, d):\n"
     "    return np.swapaxes(R.reshape(-1, d, d, d, d), 1, 3)\n", 1),
    ("qkz.py", "from numpy import moveaxis\ndef evaluate(T):\n    return moveaxis(T, 0, 2)\n", 2),
    ("reduction.py", "def psi_extract(case, T):\n    return T.transpose(order)\n", 0),
    ("reduction.py", "def check_rpr(case, T):\n    return T.transpose(order)\n", 1),
])
def test_axis_move_rule_fires_on_planted_code(module, source, found):
    assert len(axis_moves(ast.parse(source), AXIS_MOVERS.get(module, ()))) == found


IMAGE_STORE = ("class CommutantTemplate:\n    def __init__(self, m, ctx):\n"
               "        self.images = at, gen, v1, v2\n"
               "    def generator_images(self, z1p, z2p, pair):\n"
               "        at, gen, v1, v2 = self.images\n")


@pytest.mark.parametrize("source, found", [
    (IMAGE_STORE, 0),
    # a second densify of the stored parts, in the frame build or in the solve
    (IMAGE_STORE + "    def _build_frame(self, frame):\n        at, _, v1, v2 = self.images\n", 1),
    ("def _solve(reqs, template, pair):\n    return template.images[2][pair]\n", 1),
    # a local name that reads like it is no attribute read
    ("def _build_frame(self, frame):\n    images = np.isfinite(M)\n    return images\n", 0),
])
def test_image_rule_fires_on_planted_code(source, found):
    assert len(attribute_reads(ast.parse(source), "images", IMAGE_READER)) == found


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
    ("for a, b in pairs:\n    worst = worst_of((worst, relative_residual(a, b)))\n", 1),
    ("res = [tensorops.relative_residual(a, b) for a, b in zip(ops[0], ops[1])]\n", 1),
    ("scal, resids = zip(*(scalar_ratio(A, B) for A, B in forms))\n", 1),
    ("fits = list(map(scalar_ratio, As, Bs))\n", 1),
    ("while k:\n    k = relative_residual(a, b) + relative_residual(b, a)\n", 2),
    # the stacked calls, in a loop or not, and a one-slice call outside any
    ("res = relative_residuals(np.array(refs), np.array(others))\n", 0),
    ("res = [r for a, b in pairs for r in relative_residuals(ops[a], ops[b])]\n", 0),
    ("e2e = relative_residual(extract(x), extract(y))\n", 0),
])
def test_one_slice_rule_fires_on_planted_code(source, found):
    assert len(one_slice_calls_in_loops(ast.parse(source))) == found


@pytest.mark.parametrize("source, found", [
    ("for kinds in K:\n    s = [draw_generic_zetas(rng, 3, m, g, ctx) for _ in range(n)]\n", 1),
    ("for kinds in K:\n    s = idsuite.draw_generic_sets(rng, n, 3, m, g, ctx)\n", 1),
    ("while k:\n    k = draw_generic_zetas(rng, 2, m, g, ctx)\n", 1),
    ("for mode in M:\n    z = draw_generic_zetas(rng, 2, m, g, ctx)\n    r(mode, z)\n", 1),
    # a count or m of the loop, another draw between, and a draw of the iterable
    ("for m in (1, 2):\n    s = draw_generic_sets(rng, n, 2, m, g, ctx)\n", 0),
    ("for mode in M:\n    for n in (1, 2):\n        z = draw_generic_zetas(rng, n, m, g, ctx)\n",
     0),
    ("for norm in N:\n    z = draw_generic_sets(rng, 4, 2, m, g, ctx)\n"
     "    w = idsuite.random_zeta(rng)\n", 0),
    ("for mode, z in zip(M, draw_generic_sets(rng, 2, 2, m, g, ctx)):\n    r(mode, z)\n", 0),
    ("s = [tuple(z) for z in draw_generic_sets(rng, n, 2, m, g, ctx)]\n", 0),
])
def test_set_draw_rule_fires_on_planted_code(source, found):
    assert len(repeated_set_draws(ast.parse(source))) == found


@pytest.mark.parametrize("source, found", [
    ("worst = worst_of((worst, np.abs(acc - target).max()))\n", 2),
    ("resid = abs(kappa(z) * kappa(1 / z) - 1.0)\n", 1),
    ("worst = worst_of([worst, *(np.abs(t).max() for t in terms)])\n", 1),
    ("resid = np.max(np.abs(vals))\n", 1),
    ("resid = numpy.absolute(a - b)\n", 1),
    ("def check_crossing(s):\n    return np.abs(s - s.mean()).max()\n", 0),
    ("def check_self_dual(s):\n    return np.abs(s - s.mean()).max()\n", 2),
    # argument guards in a comparison, a relative residual and a modulus are none
    ("near = abs(z - point) < 1e-3 * max(abs(point), 1e-6)\n", 0),
    ("same = k1 == k2 and abs(z1 - z2) <= tol * max(1.0, abs(z1))\n", 0),
    ("resid = relative_residual(1.0, kappa(z) * kappa(1 / z))\n", 0),
    ("z = (0.1 + 0.7 * r) * abs(q) ** l\n", 0),
])
def test_absolute_residual_rule_fires_on_planted_code(source, found):
    assert len(absolute_residuals(ast.parse(source), ABSOLUTE_ALLOWED)) == found


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


@pytest.mark.parametrize("source, found", [
    ("import time\ndef check(m):\n    t0 = time.perf_counter()\n    return t0\n", 2),
    ("from time import perf_counter\nstart = perf_counter()\n", 2),
    ("import time as clock\n", 1),
    ("import numpy as np, time\n", 1),
    # a name that only reads like time is no timer
    ("from .report import VerificationReport\nwall_time = 0.0\ntimes = (1, 2)\n", 0),
])
def test_timing_rule_fires_on_planted_code(source, found):
    assert len(timing_uses(ast.parse(source))) == found


# public names that no program code reads, each kept for a reason
UNREAD_ALLOWED = {
    "q_pochhammer": "one product scanned alone: the reference for _poch_ratio in test_scalars",
    "permutation_op": "the dense reference for permuted_matmul, priced in perfbench/spans.COSTS",
    "permuted_matmul": "a one-step string_matmul kept by name: perfbench/spans.COSTS prices it "
                       "and test_traced_names pins it",
}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree):
    """The public functions and classes of a module and the public methods and
    properties of its classes."""
    return [d.name for node in tree.body
            for d in (node, *(node.body if isinstance(node, ast.ClassDef) else ()))
            if isinstance(d, DEFINITIONS) and not d.name.startswith("_")]


def read_names(trees):
    """The names that the trees read, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def unread_definitions(defining, program, allowed=()):
    """The public definitions of the trees in defining that no tree of program reads."""
    read = read_names(program)
    return [name for tree in defining for name in public_definitions(tree)
            if name not in read and name not in allowed]


def test_program_sources_found():
    assert {p.parent.name for p in PROGRAM} == {"qkzkit", "perfbench"}


def test_every_public_name_is_read_by_the_program():
    program = [ast.parse(p.read_text()) for p in PROGRAM]
    assert unread_definitions(program[:len(SOURCES)], program, UNREAD_ALLOWED) == []


def test_allowed_names_are_defined_and_unread():
    # an allowed name that the program reads, or that is gone, leaves the list
    program = [ast.parse(p.read_text()) for p in PROGRAM]
    assert sorted(unread_definitions(program[:len(SOURCES)], program)) == sorted(UNREAD_ALLOWED)


@pytest.mark.parametrize("source, reader, unread", [
    ("def helper(x):\n    return x\n", "", ["helper"]),
    ("def helper(x):\n    return x\n", "y = helper(1)\n", []),
    ("def helper(x):\n    return x\n", "from . import m\ny = m.helper\n", []),
    # an import, an export, a string and a store read nothing
    ("def helper(x):\n    return x\n", "from .m import helper\n__all__ = ['helper']\n",
     ["helper"]),
    ("def helper(x):\n    return x\n", "COSTS = {'m.helper': 0}\nhelper = None\n", ["helper"]),
    ("class Cache:\n    def get(self, k):\n        return k\n    def clear(self):\n"
     "        return None\n    @property\n    def size(self):\n        return 0\n"
     "    def _drop(self):\n        return None\n", "c = Cache()\nc.get(1)\n",
     ["clear", "size"]),
    ("def permutation_op(sigma, dims):\n    return sigma\n", "", []),
])
def test_unread_rule_fires_on_planted_code(source, reader, unread):
    trees = [ast.parse(source), ast.parse(reader)]
    assert unread_definitions(trees[:1], trees, UNREAD_ALLOWED) == unread
