"""Ratchet on src code that nothing runs.

The traffic is what the program serves: cli_reports.main on every golden
argv, on a --flip-sign build, on the failing `verify jacobi` and `verify
compat` inputs and on one usage error, then one call of each library name tests/test_acceptance.py
imports, used as the acceptance tests use it, at k <= 2.  Under
sys.setprofile every function, method, dunder and property getter defined
in src/artifact must run, and every field of a src NamedTuple must be read
by name (or all of them through _asdict), unless ORACLES names it with a
reason.  An ORACLES entry must exist and must not run or be read, so a
stale entry fails too.  Names are "module.Class.member" and
"module.outer.inner"; the methods NamedTuple generates have no source in
src and are not checked.

What a run cannot see is checked statically: every module-level name is
referenced by other src code or imported by the acceptance tests, every
name a module imports is referenced in it, every parameter is read in its
function's body, protocol dunders aside, every attribute a src class sets
on self is loaded by src or the acceptance tests, unless UNREAD_ATTRIBUTES
names it, only exact_core splits a rational into integers or names
ZeroDivisionError, the assembly does no Poly arithmetic, and every
exception class src defines is caught by name in src.
"""

import ast
import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "artifact"

ORACLES = {
    "exact_core.Poly.__setattr__": "the immutability guard; only a test assigns to a Poly",
    "exact_core.Poly.__repr__": "debugging and assertion messages",
    "curve_ring.CurveModel.__repr__": "debugging and assertion messages",
    "bracket_forge.TensorNotInSectionSpace.__init__":
        "the strict rejection, forced only by test_bracket_build_rejection_exits_one",
    "bracket_forge.BracketTensor.__repr__": "debugging and assertion messages",
    "helix_k0.generic_poisson_rank": "the closed form rank scans are tested against",
}

# Attributes a src class sets on self that no src code and no acceptance
# test loads, each with a one-line reason.
UNREAD_ATTRIBUTES = {
    "bracket_forge.TensorNotInSectionSpace.pair":
        "the rejection's witness: its message states it, and tests compare it",
}

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)

BUILD_EVEN = ["bracket", "build", "--parity", "even", "--k", "2",
              "--Q", "0,0,0", "--P", "a0-only"]
FAMILY_ODD = ["bracket", "family", "--parity", "odd", "--k", "1"]
# The argv of every file under tests/golden, in an order that writes each
# artifact before a command reads it.
GOLDEN_ARGV = [
    BUILD_EVEN,
    BUILD_EVEN + ["--json"],
    FAMILY_ODD + ["--json"],
    ["verify", "jacobi", "--in", "tensor.json", "--json"],
    ["verify", "compat", "--family", "family.json", "--jobs", "2", "--json"],
    ["verify", "independence", "--family", "family.json", "--json"],
    ["verify", "linearity", "--parity", "even", "--k", "2", "--samples", "2", "--seed", "7",
     "--json"],
    ["rank", "scan", "--in", "tensor.json", "--samples", "12", "--seed", "42", "--json"],
    ["szego", "check", "--parity", "even", "--Q", "0,0,0", "--P", "1,0,0,0,1", "--json"],
    ["szego", "check", "--parity", "odd", "--c", "0", "--Q", "0,0,0", "--P", "1,0,1,2",
     "--json"],
    ["helix", "--range=-5..5"],
    ["helix", "--range=-3..3", "--json", "--out", "helix.json"],
    ["helix", "solve", "--d", "7", "--r", "3", "--json"],
]


def _cli_traffic():
    """The golden argv, a --flip-sign build, the failing inputs
    test_cli_reports builds for verify jacobi and verify compat, and a
    usage error, in the cwd."""
    from artifact.cli_reports import main
    for argv in GOLDEN_ARGV:
        assert main(argv) == 0, argv
    assert main(BUILD_EVEN + ["--flip-sign", "--out", "flipped.json"]) == 0
    tensor = json.loads(Path("tensor.json").read_text())
    tensor["pi"][0]["q"][0]["val"] = "1/1"
    Path("bad.json").write_text(json.dumps(tensor))
    assert main(["verify", "jacobi", "--in", "bad.json", "--json"]) == 1
    assert main(["bracket", "family", "--parity", "even", "--k", "2"]) == 0
    family = json.loads(Path("family.json").read_text())
    family["basis"][1]["pi"][0]["q"][0]["val"] = "7"
    Path("bad.json").write_text(json.dumps(family))
    assert main(["verify", "compat", "--family", "bad.json", "--json"]) == 1
    with pytest.raises(SystemExit) as usage:
        main(["bracket", "build", "--parity", "even"])
    assert usage.value.code == 2


def _acceptance_traffic():
    """One call of each name tests/test_acceptance.py imports, as it uses it."""
    from fractions import Fraction

    from artifact.bracket_forge import build_family, build_tensor
    from artifact.curve_ring import CurveModel, verify_szego_residues
    from artifact.exact_core import Poly
    from artifact.helix_k0 import fib, helix_class, solve_biham_params
    from artifact.poisson_verify import (RatioBracketValue, independence_rank, jacobi_check,
                                         rank_scan, ratio_bracket)

    constant = build_tensor(CurveModel.even(2, 0, [1]))
    n, x = constant.n, 3
    e0, e1, ex = ([int(i == j) for i in range(n)] for j in (0, 1, x))
    val = ratio_bracket(constant, e0, ex, e1, ex)
    num = Poly(val.vars, {(1, 0, 0, 2): -4, (3, 0, 0, 0): 4})
    assert val.equals(RatioBracketValue(num, ((tuple(map(Fraction, ex)), 3),), val.vars))
    odd = CurveModel.odd(1, 1, [1, -2, 3], [2, 1, -1, 3])
    tensor = build_tensor(odd)
    assert jacobi_check(tensor)["holds"]
    assert (tensor - tensor).is_zero and not (tensor + tensor).is_zero
    assert independence_rank(build_family("odd", 1)) == 9
    assert rank_scan(constant, 2, 42).generic_rank == 2
    assert verify_szego_residues(odd).at_infinity == (Fraction(1, 2),) * 2
    assert helix_class(-1).rank == fib(3)
    assert solve_biham_params(7, 3) is not None


def _namedtuples():
    """module.Class -> class, for every NamedTuple src defines."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"artifact.{path.stem}")
        for name, cls in vars(module).items():
            if (isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
                    and cls.__module__ == module.__name__):
                found[f"{path.stem}.{name}"] = cls
    return found


@contextmanager
def _recording_fields(read):
    """Swap each src NamedTuple field descriptor for a property that adds
    its name to read and delegates to tuple.__getitem__, and each _asdict
    for one that adds all fields; the originals come back on exit."""
    saved = []

    def getter(name, index):
        def get(self):
            read.add(name)
            return tuple.__getitem__(self, index)
        return property(get)

    def as_dict(names, original):
        def wrapper(self):
            read.update(names)
            return original(self)
        return wrapper

    try:
        for qual, cls in _namedtuples().items():
            names = [f"{qual}.{field}" for field in cls._fields]
            saved += [(cls, attr, cls.__dict__[attr]) for attr in cls._fields + ("_asdict",)]
            for index, field in enumerate(cls._fields):
                setattr(cls, field, getter(names[index], index))
            cls._asdict = as_dict(names, cls.__dict__["_asdict"])
        yield
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


def _run_traffic(tmp_path):
    """(path, first line) of every code object the traffic calls, and the
    qualified name of every NamedTuple field it reads."""
    seen, read = {}, set()

    def record(frame, event, arg):
        if event == "call":
            seen[id(frame.f_code)] = frame.f_code

    with pytest.MonkeyPatch.context() as mp, _recording_fields(read):
        mp.chdir(tmp_path)
        mp.delenv("ARTIFACT_OUT_DIR", raising=False)
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            _cli_traffic()
            _acceptance_traffic()
        finally:
            sys.setprofile(previous)
    ran = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in seen.values()}
    return ran, read


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    return _run_traffic(tmp_path_factory.mktemp("traffic"))


@pytest.fixture(scope="module")
def ran(traffic):
    return traffic[0]


def _unread_fields(read):
    return {f"{qual}.{field}" for qual, cls in _namedtuples().items()
            for field in cls._fields} - read


def _modules():
    return [(path.stem, path, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


class _Functions(ast.NodeVisitor):
    """Every def, at any depth: qualified name -> (path, first line, node).
    A decorated def's code starts at its first decorator."""

    def __init__(self, module, path):
        self.stack, self.path, self.found = [module], path, {}

    def visit_ClassDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        first = min([d.lineno for d in node.decorator_list] + [node.lineno])
        self.found[".".join(self.stack)] = (self.path, first, node)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def _functions():
    found = {}
    for module, path, tree in _modules():
        visitor = _Functions(module, path.resolve())
        visitor.visit(tree)
        found.update(visitor.found)
    return found


def _acceptance_api():
    tree = ast.parse((TESTS / "test_acceptance.py").read_text())
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("artifact") for alias in node.names}


def _unrun(ran):
    return {name for name, (path, first, _) in _functions().items() if (path, first) not in ran}


def test_every_src_function_runs(ran):
    """Every function, method, dunder and property getter in src runs under
    the CLI and acceptance traffic, or is a named oracle."""
    assert _unrun(ran) - set(ORACLES) == set()


def test_oracles_exist_and_do_not_run(traffic):
    """Each ORACLES entry carries a one-line reason and names a function
    the traffic does not run, or a NamedTuple field it does not read."""
    ran, read = traffic
    assert all(reason.strip() and "\n" not in reason for reason in ORACLES.values())
    assert set(ORACLES) - _unrun(ran) - _unread_fields(read) == set()


def test_traffic_calls_the_acceptance_api():
    """The acceptance traffic imports exactly what the acceptance tests do."""
    tree = ast.parse(Path(__file__).read_text())
    traffic = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_acceptance_traffic")
    used = {alias.name for node in ast.walk(traffic) if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("artifact") for alias in node.names}
    assert used == _acceptance_api()


def _referenced(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _assigned(node):
    """Non-dunder names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not _dunder(name)}


def test_every_src_definition_is_reached_from_src():
    """No top-level definition or assigned name is referenced only from
    outside src, unless the acceptance tests import it or it is an oracle."""
    tops = [node for _, _, tree in _modules() for node in tree.body]
    refs = [_referenced(node) for node in tops]
    names = [({node.name} if isinstance(node, DEFS) else set()) | _assigned(node)
             for node in tops]
    unreached = {name for node, bound in zip(tops, names) for name in bound
                 if not any(name in used for other, used in zip(tops, refs)
                            if other is not node)}
    top_oracles = {key.split(".")[1] for key in ORACLES if key.count(".") == 1}
    assert unreached - _acceptance_api() - top_oracles == set()


def test_every_import_is_used():
    """Each name a src module imports, __future__ aside, is referenced in
    the function that imports it, or in the module for a module-level
    import (an import statement itself binds no Name)."""
    unused = set()
    for module, _, tree in _modules():
        for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, FUNCS)]:
            used = _referenced(scope)
            unused |= {f"{module}:{node.lineno} {name}" for node in ast.walk(scope)
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       and getattr(node, "module", None) != "__future__"
                       for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                       if name not in used}
    assert unused == set()


def test_every_namedtuple_field_is_read_by_src(traffic):
    """A field the traffic never reads, by name or through _asdict, is dead
    weight, unless it is an oracle."""
    assert _unread_fields(traffic[1]) - set(ORACLES) == set()


def test_every_parameter_is_read():
    """Each parameter is read in its function's body; the dunders whose
    signature the protocol fixes (all but __init__) are exempt."""
    unread = set()
    for name, (_, _, node) in _functions().items():
        if _dunder(node.name) and node.name != "__init__":
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        loads = {n.id for stmt in node.body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread |= {f"{name}({param})" for param in params if param not in loads}
    assert unread == set()


def test_only_exact_core_splits_rationals():
    """Outside exact_core no src module calls math.lcm or reads .numerator
    or .denominator: clearing denominators has one implementation,
    exact_core.clear_denominators."""
    split = set()
    for module, _, tree in _modules():
        if module == "exact_core":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("lcm", "numerator", "denominator"):
                split.add(f"{module}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                split |= {f"{module}:{node.lineno} import {alias.name}"
                          for alias in node.names if alias.name == "lcm"}
    assert split == set()


def test_only_exact_core_names_zero_division():
    """Outside exact_core no src module names ZeroDivisionError: rat
    refuses a zero denominator with ValueError, so a reader of outside
    input has no second error to catch or wrap."""
    named = {f"{module}:{node.lineno}" for module, _, tree in _modules()
             if module != "exact_core" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "ZeroDivisionError"}
    assert named == set()


def test_only_the_model_bounds_coefficient_lists():
    """cli_reports names neither Q_LEN nor P_LEN, by import, name or
    attribute: CurveModel is the one reader that bounds the lengths of Q
    and P, and the command line passes its lists through unchecked."""
    tree = next(tree for module, _, tree in _modules() if module == "cli_reports")
    limits = {"Q_LEN", "P_LEN"}
    named = {f"cli_reports:{node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id in limits)
             or (isinstance(node, ast.Attribute) and node.attr in limits)
             or (isinstance(node, ast.alias) and node.name in limits)}
    assert named == set()


def test_every_exception_class_is_caught_by_src():
    """Each class src defines on an ...Error base is named in some src
    except clause: a failure no caller tells apart raises a stock
    exception where it is found, not a type of its own."""
    defined, caught = set(), set()
    for _, _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    name.endswith("Error") for base in node.bases for name in _referenced(base)):
                defined.add(node.name)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _referenced(node.type)
    assert defined - caught == set()


def test_assembly_does_no_poly_arithmetic():
    """bracket_forge imports neither Poly nor poly_divmod_linear, reads a
    curve model's Q and P only as plain sequences (no attribute or method
    of theirs), and never its tau_poly or R; and no src module defines or
    calls coeffs_univar: the assembly is a linear map of plain coefficient
    lists, and a model keeps its lists as they are."""
    tree = next(tree for module, _, tree in _modules() if module == "bracket_forge")
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    poly = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            poly |= {f"{node.lineno} import {alias.name}" for alias in node.names
                     if alias.name in ("Poly", "poly_divmod_linear")}
        elif isinstance(node, ast.Name) and node.id in ("Poly", "poly_divmod_linear"):
            poly.add(f"{node.lineno} {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in ("Q", "P", "tau_poly", "R"):
            if node.attr in ("tau_poly", "R") or isinstance(parents[node], ast.Attribute):
                poly.add(f"{node.lineno} .{node.attr}")
    for module, _, tree in _modules():
        poly |= {f"{module}:{node.lineno} coeffs_univar" for node in ast.walk(tree)
                 if (isinstance(node, FUNCS) and node.name == "coeffs_univar")
                 or (isinstance(node, ast.Attribute) and node.attr == "coeffs_univar")}
    assert poly == set()


def _set_attributes():
    """module.Class.name of every attribute a src class sets on self, by
    assignment or by object.__setattr__(self, "name", value)."""
    found = set()
    for module, _, tree in _modules():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    found.add(f"{module}.{cls.name}.{node.attr}")
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "__setattr__" and len(node.args) == 3
                      and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
                      and isinstance(node.args[1], ast.Constant)):
                    found.add(f"{module}.{cls.name}.{node.args[1].value}")
    return found


def test_every_set_attribute_is_read():
    """Each attribute a src class sets on self is loaded, as an attribute of
    anything, somewhere in src or in tests/test_acceptance.py, or is listed
    in UNREAD_ATTRIBUTES; a stale entry fails too."""
    trees = [tree for _, _, tree in _modules()]
    trees.append(ast.parse((TESTS / "test_acceptance.py").read_text()))
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {name for name in _set_attributes() if name.rsplit(".", 1)[1] not in loaded}
    assert all(reason.strip() and "\n" not in reason for reason in UNREAD_ATTRIBUTES.values())
    assert unread == set(UNREAD_ATTRIBUTES)
