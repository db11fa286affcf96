"""Builds at n = 3 and n = 4 against the classical closed forms of
q_{3,1} and q_{4,1}: the Jacobian bracket of a plane cubic and the
Sklyanin bracket of two quadrics (closed_form_route)."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

sympy = pytest.importorskip("sympy")

from artifact.bracket_forge import build_family, build_tensor  # noqa: E402
from artifact.curve_ring import CurveModel  # noqa: E402

from closed_form_route import (X, cone, even_quadric, jacobian_bracket,  # noqa: E402
                               normalized_lift, odd_cubic, sklyanin_bracket, span_rank)

SEED = 42


def _draw(rng, count):
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(count)]


def _monomials(degree, n):
    return [sympy.Mul(*combo) for combo in combinations_with_replacement(X[:n], degree)]


def test_odd_k1_is_the_jacobian_bracket_of_the_moved_cubic():
    """Odd k = 1 is, projectively, the Jacobian bracket of C'_1:
    (t + 3c + 2) x^2 = 3 (Q x + P), and not that of C's own cubic."""
    rng = random.Random(SEED)
    for _ in range(4):
        c, Q, P = _draw(rng, 1)[0], _draw(rng, 3), _draw(rng, 4)
        if not any(Q + P):
            P[0] = Fraction(1)
        build = normalized_lift(build_tensor(CurveModel.odd(1, c, Q, P)))
        moved = odd_cubic(3 * c + 2, [3 * q for q in Q], [3 * p for p in P])
        assert build and build == normalized_lift(jacobian_bracket(moved)), (c, Q, P)
        assert build != normalized_lift(jacobian_bracket(odd_cubic(c, Q, P))), (c, Q, P)


def test_even_k2_is_the_sklyanin_bracket():
    """Even k = 2 is, projectively, the Sklyanin bracket of the cone and
    the quadric that cuts the curve out of it."""
    rng = random.Random(SEED)
    for _ in range(4):
        Q, P = _draw(rng, 3), _draw(rng, 5)
        build = normalized_lift(build_tensor(CurveModel.even(2, Q, P)))
        closed = sklyanin_bracket(cone(), even_quadric(Q, P))
        assert build and build == normalized_lift(closed), (Q, P)


def test_odd_k1_family_is_the_cubics_through_the_blown_up_point():
    """The nine members span exactly the Jacobian brackets of the cubics
    through [0:0:1], the anticanonical curves of F_1: together with the
    brackets of the nine cubic monomials other than X2^3 they have rank 9,
    and X2^3 adds one."""
    members = list(build_family("odd", 1).tensors)
    through = [jacobian_bracket(m) for m in _monomials(3, 3) if m != X[2] ** 3]
    assert len(through) == 9
    assert span_rank(members + through) == 9
    assert span_rank(members + through + [jacobian_bracket(X[2] ** 3)]) == 10


def test_even_k2_family_is_the_sklyanin_brackets_on_the_cone():
    """The nine members span exactly the Sklyanin brackets with the cone
    fixed: with those of the ten quadratic monomials they have rank 9."""
    members = list(build_family("even", 2).tensors)
    on_cone = [sklyanin_bracket(cone(), m) for m in _monomials(2, 4)]
    assert len(on_cone) == 10
    assert span_rank(members + on_cone) == 9
