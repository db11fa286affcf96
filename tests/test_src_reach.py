"""Ratchet on code that only tests reach.

Every top-level function and class in src/artifact must be referenced by
some other src code, unless it is a named test oracle or a leftover still
waiting to be deleted or wired in.  A new test-only helper therefore has
to be added to ORACLES on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "artifact"

# Kept on purpose as references for the tests.  rank_at_point is the
# one-point entry to the rank kernel that rank_scan runs on a tensor
# cleared once.
ORACLES = {"reduce", "ratio_bracket", "euler_tensor", "membership_extract", "defining_poly",
           "generic_poisson_rank", "rank_at_point"}
# Reached only from tests, to be deleted or wired in.
PENDING = {"reconstruct_tensor", "truncated_five_term", "element_from_coords"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _modules():
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def test_every_src_definition_is_reached_from_src():
    """No top-level definition is referenced only from outside src."""
    tops = [node for tree in _modules() for node in tree.body]
    refs = [_referenced(node) for node in tops]
    unreached = {node.name for node in tops if isinstance(node, DEFS)
                 and not any(node.name in used for other, used in zip(tops, refs)
                             if other is not node)}
    assert unreached - ORACLES - PENDING == set()


def test_allowlist_names_still_exist():
    """A deleted oracle or leftover leaves the allowlist with it."""
    defined = {node.name for tree in _modules() for node in ast.walk(tree)
               if isinstance(node, DEFS)}
    assert ORACLES | PENDING <= defined
