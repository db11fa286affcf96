"""Ratchet on src code that nothing runs.

The traffic is what the program serves: cli_reports.main on every golden
argv, on a --flip-sign build, on the failing `verify jacobi` and `verify
compat` inputs and on one usage error, then one call of each library name tests/test_acceptance.py
imports, used as the acceptance tests use it, at k <= 2.  Under
sys.setprofile every function, method, dunder and property getter defined
in src/artifact must run, unless ORACLES names it with a reason.  An
ORACLES entry must exist and must not run (a NamedTuple field: must not be
read by src), so a stale entry fails too.  Names are "module.Class.method"
and "module.outer.inner"; the members NamedTuple generates have no source
in src and are not checked.

What a run cannot see is checked statically: every module-level name is
referenced by other src code or imported by the acceptance tests, every
NamedTuple field is read by src (an attribute of its name is loaded, or
its class reads _asdict), and every parameter is read in its function's
body, protocol dunders aside.  Fields are matched by attribute name alone.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "artifact"

ORACLES = {
    "exact_core.Poly.__setattr__": "the immutability guard; only a test assigns to a Poly",
    "exact_core.Poly.__pow__": "pole powers in the curve-function and assembly routes",
    "exact_core.Poly.__repr__": "debugging and assertion messages",
    "exact_core.Poly.eval_all": "compares routes at rational points",
    "exact_core.Poly.with_context": "moves polynomials between the contexts of the test routes",
    "curve_ring.CurveModel.__eq__": "the curve-function route checks two elements share a model",
    "curve_ring.CurveModel.__repr__": "debugging and assertion messages",
    "bracket_forge.TensorNotInSectionSpace.__init__":
        "the strict rejection, forced only by test_bracket_build_rejection_exits_one",
    "bracket_forge.BracketTensor.form": "the signed entry the chart route descends",
    "bracket_forge.BracketTensor.__eq__": "tests compare routes and round trips",
    "bracket_forge.BracketTensor.__repr__": "debugging and assertion messages",
    "bracket_forge.FamilyBasis.__eq__": "tests compare round trips",
    "poisson_verify.rank_at_point": "the one-point entry to the kernel rank_scan runs",
    "poisson_verify.RankReport.points": "the determinism test reads the drawn points",
    "poisson_verify.RankReport.ranks": "the determinism test reads the ranks per point",
    "helix_k0.generic_poisson_rank": "the closed form rank scans are tested against",
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


def _run_traffic(tmp_path):
    """(path, first line) of every code object the traffic calls."""
    seen = {}

    def record(frame, event, arg):
        if event == "call":
            seen[id(frame.f_code)] = frame.f_code

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        mp.delenv("ARTIFACT_OUT_DIR", raising=False)
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            _cli_traffic()
            _acceptance_traffic()
        finally:
            sys.setprofile(previous)
    return {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in seen.values()}


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    return _run_traffic(tmp_path_factory.mktemp("traffic"))


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


def _fields():
    """Qualified name -> field name of every NamedTuple field, with the
    fields of a class that reads _asdict counted as read."""
    fields, read = {}, set()
    for module, _, tree in _modules():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases)):
                continue
            as_dict = any(isinstance(n, ast.Attribute) and n.attr == "_asdict"
                          for n in ast.walk(cls))
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = f"{module}.{cls.name}.{stmt.target.id}"
                    fields[name] = stmt.target.id
                    if as_dict:
                        read.add(name)
    return fields, read


def _unread_fields():
    fields, read = _fields()
    loads = {n.attr for _, _, tree in _modules() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return {name for name, attr in fields.items() if name not in read and attr not in loads}


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


def test_oracles_exist_and_do_not_run(ran):
    """Each ORACLES entry carries a one-line reason and names a function
    the traffic does not run, or a NamedTuple field src does not read."""
    assert all(reason.strip() and "\n" not in reason for reason in ORACLES.values())
    assert set(ORACLES) - _unrun(ran) - _unread_fields() == set()


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


def test_every_namedtuple_field_is_read_by_src():
    """A field nothing in src reads is dead weight, unless it is an oracle."""
    assert _unread_fields() - set(ORACLES) == set()


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
