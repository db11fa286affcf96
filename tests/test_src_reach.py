"""Ratchet on code that only tests reach.

Every top-level function, class and module-level assigned name (dunders
such as __version__ aside) in src/artifact must be referenced by some
other src code, and every non-dunder method must be reached as an
attribute from src code outside its own body, unless it is a named test
oracle or a leftover still waiting to be deleted or wired in.  A new
test-only helper therefore has to be added to ORACLES on purpose.
Methods are named "Class.method".

Methods are matched by attribute name alone, so a method that shares its
name with one src does call elsewhere (every to_json, say) counts as
reached even when no src code calls it on its own class.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "artifact"

# Kept on purpose as references for the tests.  rank_at_point is the
# one-point entry to the rank kernel that rank_scan runs on a tensor
# cleared once; BracketTensor.form is the signed entry the chart route
# descends, and Poly.eval_all and RatioBracketValue.equals compare routes.
ORACLES = {"ratio_bracket", "generic_poisson_rank", "rank_at_point",
           "CurveModel.defining_poly", "BracketTensor.form", "Poly.eval_all",
           "RatioBracketValue.equals"}
# Reached only from tests, to be deleted or wired in.
PENDING = set()

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _referenced(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _modules():
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def _assigned(node):
    """Non-dunder names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _methods(trees):
    """(qualified name, node) of every non-dunder method."""
    return [(f"{cls.name}.{node.name}", node) for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, FUNCS) and not (node.name.startswith("__")
                                                and node.name.endswith("__"))]


def test_every_src_definition_is_reached_from_src():
    """No top-level definition or assigned name is referenced only from
    outside src."""
    tops = [node for tree in _modules() for node in tree.body]
    refs = [_referenced(node) for node in tops]
    names = [({node.name} if isinstance(node, DEFS) else set()) | _assigned(node)
             for node in tops]
    unreached = {name for node, bound in zip(tops, names) for name in bound
                 if not any(name in used for other, used in zip(tops, refs)
                            if other is not node)}
    assert unreached - ORACLES - PENDING == set()


def test_every_src_method_is_reached_from_src():
    """No method is called only from outside src (or only by itself)."""
    trees = _modules()
    attrs = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    unreached = set()
    for name, node in _methods(trees):
        own = {id(n) for n in ast.walk(node)}
        if not any(a.attr == node.name and id(a) not in own for a in attrs):
            unreached.add(name)
    assert unreached - ORACLES - PENDING == set()


def test_allowlist_names_still_exist():
    """A deleted oracle or leftover leaves the allowlist with it."""
    trees = _modules()
    defined = {node.name for tree in trees for node in tree.body if isinstance(node, DEFS)}
    defined |= {name for name, _ in _methods(trees)}
    assert ORACLES | PENDING <= defined
