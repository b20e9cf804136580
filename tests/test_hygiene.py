"""Source hygiene checks that need no linter."""

import ast
import collections
import functools
import importlib
from pathlib import Path

import numpy as np
import pytest

from multiwit.algebra import Members, Polynomial, VariableGrouping, _Compiled

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    p for p in (ROOT / "src" / "multiwit").glob("*.py") if p.name != "__init__.py"
)

# Public names that no other library code calls, kept because they are the
# toolkit's own entry points: monodromy breakup is called by users (the
# demos, the octa-chain benchmark workflow) and by nothing inside it,
# track_path, `track_many` on one start point, by users and by the traced
# benchmark, which wraps it by name, and solve_zero_dim, `solve_zero_dims`
# on one system and its own square-up, by users and the acceptance tests,
# and wrapped by name too.
ENTRY_POINTS = {"breakup", "track_path", "solve_zero_dim"}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            # a quoted annotation names its types inside the string
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _defined_names(node: ast.stmt) -> set[str]:
    """Names a module-level statement defines: a function, a class or an
    assigned constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _references(node: ast.stmt) -> set[str]:
    """Names a statement refers to outside what it defines: Name and
    Attribute nodes, import aliases and the names in quoted annotations."""
    refs = _used_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs |= {alias.name for alias in sub.names}
    return refs - _defined_names(node)


@functools.cache
def _statements() -> list[tuple[str, int, set[str], set[str]]]:
    """(module, line, names defined, names referenced) per module-level
    statement of every module."""
    return [(path.name, node.lineno, _defined_names(node), _references(node))
            for path in SOURCES for node in ast.parse(path.read_text()).body]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_name_is_used(path):
    statements = _statements()
    unused = [f"{name} (line {line})"
              for mod, line, defined, _ in statements if mod == path.name
              for name in sorted(defined - ENTRY_POINTS)
              if not any(name in refs for _, _, _, refs in statements)]
    assert not unused, (f"{path.name} defines names nothing in src/multiwit uses: "
                        f"{', '.join(unused)}")


TRACKER_ENTRIES = {"Homotopy", "track_many", "track_path"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "tracker.py"],
                         ids=lambda p: p.name)
def test_only_the_tracker_tracks(path):
    # every homotopy goes through tracker.track_slice_motion, so through its
    # one failed-path policy
    called = [(getattr(node.func, "id", None) or getattr(node.func, "attr", None), node.lineno)
              for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]
    calls = [f"{name} (line {line})" for name, line in called if name in TRACKER_ENTRIES]
    assert not calls, f"{path.name} tracks paths outside the tracker: {', '.join(calls)}"


def test_tracker_has_one_solve_entry():
    # every linear solve in the library goes through tracker._solve, and a
    # singular Jacobian is classified by the tracker's finiteness tests, not
    # caught; only the CLI's top level maps numpy's errors to an exit code
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{node.lineno} {ast.unparse(node.func)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.solve"]
        found += [f"{path.name}:{node.lineno} except {ast.unparse(node.type)}"
                  for node in ast.walk(tree)
                  if path.name != "cli.py" and isinstance(node, ast.ExceptHandler)
                  and node.type is not None and "LinAlgError" in ast.unparse(node.type)]
    assert not found, f"linear solves outside tracker._solve: {', '.join(found)}"


def test_one_newton_loop():
    # the tracker tests a residual in one place: the Newton loop that the
    # corrector, the start correction, the t = 0 sharpening and
    # newton_refine share, with no flag that makes it behave otherwise
    tree = ast.parse((ROOT / "src" / "multiwit" / "tracker.py").read_text())
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "relative_residual"}
    assert callers == {"_newton"}
    (newton,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                 and fn.name == "_newton"]
    params = [arg.arg for arg in newton.args.args + newton.args.kwonlyargs]
    assert params == ["h", "x", "t", "m", "tol", "max_iters"]


def test_kernel_has_one_path():
    # every table, with members or without, is built and evaluated one way:
    # each batch row reads its member's row of the coefficient table, and a
    # member form's gradient is terms of the table, not constants added later
    tree = ast.parse((ROOT / "src" / "multiwit" / "algebra.py").read_text())
    (compiled,) = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "_Compiled"]
    methods = {fn.name: fn for fn in compiled.body if isinstance(fn, ast.FunctionDef)}
    reads = [f"_Compiled.evaluate:{node.lineno}" for node in ast.walk(methods["evaluate"])
             if isinstance(node, ast.Attribute)
             and node.attr == "members" and ast.unparse(node.value) == "self"]
    assert not reads, f"the kernel reads self.members: {', '.join(reads)}"
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    plain = _Compiled([[(x * y - 1, 1, 0)], [(x + y, 1, -1)]], 2)
    members = _Compiled([[(x * y - 1, 1, 0)], []], 2,
                        Members(forms=np.array([[[1, 2, 3]], [[4, 5, 6]]], dtype=complex)))
    for table in (plain, members):
        kept = [name for name in ("slots", "jacobian") if hasattr(table, name)]
        assert not kept, f"_Compiled keeps slot-constant tables: {kept}"


def _index_arrays(value) -> list:
    """The bytes of every integer array in an attribute value, looking
    into tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        return [value.tobytes()] if value.dtype.kind in "iu" else []
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (tuple, list)):
        return [b for v in value for b in _index_arrays(v)]
    return []


def test_kernel_evaluates_along_the_row_axis():
    # a batch is evaluated as (B, .) arrays: every take and reduceat of
    # `evaluate` runs along the member table's axis 0 or the batch's axis 1,
    # and no table keeps per-point copies of its index arrays for the
    # batches it has evaluated
    tree = ast.parse((ROOT / "src" / "multiwit" / "algebra.py").read_text())
    (compiled,) = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "_Compiled"]
    methods = {fn.name: fn for fn in compiled.body if isinstance(fn, ast.FunctionDef)}
    assert "_rows" not in methods, "_Compiled flattens batches in _rows"
    calls = [node for node in ast.walk(methods["evaluate"]) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr in ("take", "reduceat")]
    off = [f"_Compiled.evaluate:{node.lineno}" for node in calls
           if {kw.arg: ast.unparse(kw.value) for kw in node.keywords}.get("axis")
           != ("0" if ast.unparse(node.args[0]) == "member" else "1")]
    assert calls and not off, f"a take or reduceat off the row axis: {', '.join(off)}"
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    rng = np.random.default_rng(3)
    for table in (_Compiled([[(x * y - 1, 1, 0)], [(x + y, 1, -1)]], 2),
                  _Compiled([[(x * y - 1, 1, 0)], []], 2,
                            Members(forms=np.array([[[1, 2, 3]], [[4, 5, 6]]], dtype=complex)))):
        before = sorted(_index_arrays(vars(table)))
        for count in (5, 2, 7):
            table.evaluate(rng.normal(size=(count, 2)) + 0j, rng.uniform(size=count), True,
                           rng.integers(0, 2, size=count))
        assert sorted(_index_arrays(vars(table))) == before, "_Compiled keeps per-batch indices"


def test_products_sum_only_slots_with_terms():
    # a start product's gradient is one flat list of terms added into their
    # slots by one call: `add` has no loop, there is no layer schedule, and
    # no constant-1 owner pads the slots that no form touches; a product of
    # constant forms, which touches no slot, still builds and evaluates
    tree = ast.parse((ROOT / "src" / "multiwit" / "algebra.py").read_text())
    (products,) = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "_Products"]
    (add,) = [fn for fn in products.body if isinstance(fn, ast.FunctionDef) and fn.name == "add"]
    loops = [node.lineno for node in ast.walk(add) if isinstance(node, (ast.For, ast.While))]
    assert not loops, f"_Products.add loops at lines {loops}"
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    forms = np.array([[[1, 0, 2], [0, 3, 4], [0, 0, 5], [0, 0, 6], [0, 0, 7]]], dtype=complex)
    for counts, factors in (((2, 3), forms), ((3,), forms[:, 2:])):
        table = _Compiled([[(x * y - 1, 1, 0)]] + [[] for _ in counts], 2,
                          Members(factors, counts))
        assert not hasattr(table.products, "layers"), "_Products keeps a layer schedule"
        assert table.owners == 2 * table.width + factors.shape[1], "a table pads with owners"
        _, _, J, dt = table.evaluate(np.array([[2.0, 3.0]], dtype=complex), 1.0)
        assert dt[0, -1] == 210 and not J[0, -1].any()


def test_nothing_tracks_one_path_at_a_time():
    # inside the library every homotopy's paths move together through
    # track_many; track_path, its one-path case, is for callers outside
    calls = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
             and "track_path" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not calls, f"track_path called inside the library: {', '.join(calls)}"


def _per_element(node: ast.AST) -> list[ast.AST]:
    """The parts of a loop or comprehension that run once per element: not
    the iterable it starts from or a loop's else block, which run once."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.target, *node.body]
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        first, *others = node.generators
        elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        return [*elts, first.target, *first.ifs, *others]
    return []


def test_nothing_refines_one_point_at_a_time():
    # a homotopy's endpoints are refined together, by one newton_refine call
    # on all of them, never by a call per endpoint
    calls = sorted({f"{path.name}:{call.lineno}" for path in SOURCES
                    for loop in ast.walk(ast.parse(path.read_text()))
                    for part in _per_element(loop) for call in ast.walk(part)
                    if isinstance(call, ast.Call) and "newton_refine" in
                    (getattr(call.func, "id", None), getattr(call.func, "attr", None))})
    assert not calls, f"newton_refine called per element of a loop: {', '.join(calls)}"


def test_nothing_profiles_one_point_at_a_time():
    # the tangent space of many points is read by one local_multidimension
    # call on their stack, never by a call per point
    calls = sorted({f"{path.name}:{call.lineno}" for path in SOURCES
                    for loop in ast.walk(ast.parse(path.read_text()))
                    for part in _per_element(loop) for call in ast.walk(part)
                    if isinstance(call, ast.Call) and "local_multidimension" in
                    (getattr(call.func, "id", None), getattr(call.func, "attr", None))})
    assert not calls, f"local_multidimension called per element of a loop: {', '.join(calls)}"


def test_a_system_is_squared_up_once_per_solve():
    # a square-up is drawn once, where it is kept: by the witness collection
    # for all its keys, by solve_zero_dim for its one slicing and by nid's
    # component build; no solver draws one per key or inside a loop
    calls = sorted(f"{path.stem}.{fn.name}" for path in SOURCES
                   for fn in ast.walk(ast.parse(path.read_text()))
                   if isinstance(fn, ast.FunctionDef) for call in ast.walk(fn)
                   if isinstance(call, ast.Call) and "square_up" in
                   (getattr(call.func, "id", None), getattr(call.func, "attr", None)))
    assert calls == ["nid.build_component", "startsys.solve_zero_dim",
                     "witness.compute_witness_collection"], calls
    looped = [f"{path.name}:{call.lineno}" for path in SOURCES
              for loop in ast.walk(ast.parse(path.read_text()))
              for part in _per_element(loop) for call in ast.walk(part)
              if isinstance(call, ast.Call) and "square_up" in
              (getattr(call.func, "id", None), getattr(call.func, "attr", None))]
    assert not looped, f"square_up called per element of a loop: {', '.join(looped)}"


def test_only_dimension_takes_ranks():
    # every numerical rank is decided in dimension.py, by _stable_rank
    named = [f"{path.name}:{node.lineno}" for path in SOURCES if path.name != "dimension.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if "_stable_rank" in (getattr(node, "id", None), getattr(node, "attr", None))
             or isinstance(node, ast.ImportFrom)
             and "_stable_rank" in [alias.name for alias in node.names]]
    assert not named, f"_stable_rank named outside dimension.py: {', '.join(named)}"


def test_the_witness_collection_takes_nothing_from_dimension():
    # whether a solved point is kept is newton_refine's nonsingularity test
    # alone; the collection reads no tangent space of its own
    tree = ast.parse((ROOT / "src" / "multiwit" / "witness.py").read_text())
    found = [f"line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and ("dimension" in (node.module or "").split(".")
                  or "dimension" in [alias.name for alias in node.names])
             or isinstance(node, ast.Import)
             and any("dimension" in alias.name.split(".") for alias in node.names)]
    assert not found, f"witness.py imports from dimension.py: {', '.join(found)}"


def _float_magnitude(node: ast.expr) -> float | None:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return abs(node.value)
    return None


def test_no_tiny_float_literal_is_compared():
    # a threshold below 1e-6 decides something numerical, so it is a named
    # module constant, as tracker.SINGULAR_TOL is, not a bare literal
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Compare)
             for operand in [node.left, *node.comparators]
             if 0 < (_float_magnitude(operand) or 0) < 1e-6]
    assert not found, f"comparisons with a bare float below 1e-6: {', '.join(found)}"


def test_monodromy_has_one_loop():
    # breakup and growth share one loop: one function in monodromy.py runs
    # MAX_LOOPS loops or calls monodromy_permutation
    tree = ast.parse((ROOT / "src" / "multiwit" / "monodromy.py").read_text())

    def loops(fn):
        return any(
            isinstance(node, ast.For) and ast.unparse(node.iter) == "range(MAX_LOOPS)"
            or isinstance(node, ast.Call) and ast.unparse(node.func) == "monodromy_permutation"
            for node in ast.walk(fn))

    looping = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and loops(fn)]
    assert len(looping) == 1, f"monodromy loops in {looping}"


# A method nothing in src/multiwit calls, kept as the plain reference that
# tests check the residual scale against; the benchmark's tracer also wraps
# it by name.
REFERENCE_METHODS = {"PolySystem.residual_scale"}


def _methods() -> list[tuple[str, str, ast.FunctionDef]]:
    """(module, Class.method, node) for every non-dunder method or property
    of a class at module level."""
    return [(path.name, f"{cls.name}.{node.name}", node)
            for path in SOURCES for cls in ast.parse(path.read_text()).body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _reference_counts(tree: ast.AST) -> collections.Counter:
    """How often each name is read as a Name or an attribute in `tree`."""
    return collections.Counter(
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(tree) if isinstance(n, (ast.Attribute, ast.Name)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_method_is_used(path):
    everywhere = sum((_reference_counts(ast.parse(p.read_text())) for p in SOURCES),
                     collections.Counter())
    unused = [f"{qualified} (line {node.lineno})"
              for mod, qualified, node in _methods() if mod == path.name
              if qualified not in REFERENCE_METHODS
              # a call from inside the method itself does not count
              and everywhere[node.name] <= _reference_counts(node)[node.name]]
    assert not unused, (f"{path.name} has methods nothing in src/multiwit calls: "
                        f"{', '.join(unused)}")


def _tolerance_parameter(name: str) -> bool:
    return name in ("opts", "tol", "max_iters") or name.endswith("_tol")


def test_no_tolerance_parameters():
    # tolerances are module constants: no public function or method takes one
    found = [f"{path.name}:{node.lineno} {node.name}({arg.arg})"
             for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not node.name.startswith("_")
             for arg in (node.args.posonlyargs + node.args.args + node.args.kwonlyargs)
             if _tolerance_parameter(arg.arg)]
    assert not found, f"public functions take tolerance parameters: {', '.join(found)}"


def test_no_gamma_parameters():
    # tracker.track_slice_motion draws each homotopy's gamma from the stream
    # its caller passes; only the Homotopy it builds takes a gamma
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        scopes = [("", tree)] + [(f"{c.name}.", c) for c in tree.body
                                 if isinstance(c, ast.ClassDef)]
        found += [f"{path.name}:{node.lineno} {prefix}{node.name}"
                  for prefix, scope in scopes for node in scope.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and (node.name == "__init__" or not node.name.startswith("_"))
                  and f"{prefix}{node.name}" != "Homotopy.__init__"
                  and "gamma" in [arg.arg for arg in (node.args.posonlyargs + node.args.args
                                                      + node.args.kwonlyargs)]]
    assert not found, f"public functions take a gamma: {', '.join(found)}"


def _spanned() -> dict:
    """bench/tracing.py's SPANNED table, read without importing the bench."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SPANNED" for t in node.targets)]
    return ast.literal_eval(value)


def test_benchmark_spanned_names_resolve():
    # the traced benchmark wraps these by name; a missing one breaks --trace 1
    missing = [f"{module}.{name}"
               for module, names in _spanned().values()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, f"bench/tracing.py spans names the library lacks: {missing}"


def _dataclass_fields() -> list[str]:
    """"module:Class.field" for every field of a dataclass in src/multiwit."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", None) == "dataclass"

    return [f"{path.name}:{cls.name}.{node.target.id}"
            for path in SOURCES for cls in ast.parse(path.read_text()).body
            if isinstance(cls, ast.ClassDef) and any(map(is_dataclass, cls.decorator_list))
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def test_every_dataclass_field_is_read():
    # a field nothing reads as `.field` in the library, the benchmark or the
    # tools is a value kept for the tests alone, or a copy of one kept elsewhere
    read = {node.attr
            for folder in ("src", "bench", "tools") for path in (ROOT / folder).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [field for field in _dataclass_fields() if field.rsplit(".", 1)[1] not in read]
    assert not unread, f"dataclass fields nothing reads: {', '.join(unread)}"
