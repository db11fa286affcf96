"""Tests for the exact arithmetic kernel, and for the repeated linear
division, the evaluation and the re-embedding that the curve-function
oracle builds on it."""

import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from artifact.curve_ring import CurveModel
from artifact.exact_core import (
    Poly,
    poly_divmod_linear,
    rat,
    rat_str,
)

from curve_route import derivative, eval_all, poly_div_linear_power, with_context

SEED = 42


def _rand_poly(rng, variables, nterms=3, max_exp=3, max_num=9):
    terms = {}
    for _ in range(nterms):
        expo = tuple(rng.randrange(0, max_exp + 1) for _ in variables)
        terms[expo] = Fraction(rng.randrange(-max_num, max_num + 1), rng.randrange(1, 4))
    return Poly(variables, terms)


def test_rational_coercion_and_serialization():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(7) == Fraction(7)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(5) == "5/1"
    assert rat_str(Fraction(-1, 2)) == "-1/2"
    assert rat_str(0) == "0/1"
    assert rat(" 7/2 ") == Fraction(7, 2) and rat("+4/6") == Fraction(2, 3) and rat("-3") == -3
    assert rat("3/007") == Fraction(3, 7)
    for text in ("1e3", "3.5", "1/2/3", "0x10", "1_000", "2/-3", "", "1/0", "0/00", "-3/000"):
        with pytest.raises(ValueError):
            rat(text)
    # Fraction would compute 10**4000000 here; rat refuses before any work.
    started = time.perf_counter()
    with pytest.raises(ValueError):
        rat("1e4000000")
    assert time.perf_counter() - started < 1


def test_rat_refuses_inexact_and_symbolic_values():
    """Only ints, Fractions and p/q strings are read: a binary float or a
    Decimal would carry a value the caller did not write, a bool is a
    truth value, not a coefficient, and a Poly is not a number."""
    for value in (0.1, 0.5, Decimal("0.5"), True, False, Poly.var(("t",), "t"),
                  Poly.const(("t",), 1)):
        with pytest.raises(ValueError):
            rat(value)
    for Q in ([0.1, 0, 0], [True, 0, 0], ["1/0", 0, 0]):
        with pytest.raises(ValueError):
            CurveModel.even(2, Q, [1, 0, 0, 0, 1])


def test_poly_product_univariate():
    t = Poly.var(("t",), "t")
    assert (t + 1) * (t - 1) == t ** 2 - 1


def test_poly_product_bivariate():
    vs = ("t1", "t2")
    t1 = Poly.var(vs, "t1")
    t2 = Poly.var(vs, "t2")
    assert (t1 ** 2 * t2 + t2) * t1 == t1 ** 3 * t2 + t1 * t2


def test_poly_derivative_basic():
    t = Poly.var(("t", "a0"), "t")
    a0 = Poly.var(("t", "a0"), "a0")
    assert derivative(t ** 4, "t") == 4 * t ** 3
    assert derivative(a0, "t") == Poly(("t", "a0"))


def test_poly_derivative_difference_quotient_oracle():
    """d/dt of t^3 + 2t, checked against exact difference quotients.

    For a polynomial p, the synthetic-division quotient q(t) of
    p(t) - p(t0) by (t - t0) satisfies q(t0) = p'(t0) exactly.
    """
    t = Poly.var(("t",), "t")
    p = t ** 3 + 2 * t
    dp = derivative(p, "t")
    assert dp == 3 * t ** 2 + 2
    for t0 in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(7, 5)):
        q, r = poly_divmod_linear(p - eval_all(p, {"t": t0}), "t", Poly.const(("t",), t0))
        assert r.is_zero
        assert eval_all(q, {"t": t0}) == eval_all(dp, {"t": t0})


def test_poly_ring_axioms_randomized():
    rng = random.Random(SEED)
    vs = ("t1", "t2")
    one = Poly.const(vs, 1)
    for _ in range(1000):
        a = _rand_poly(rng, vs)
        b = _rand_poly(rng, vs)
        c = _rand_poly(rng, vs)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a + (-a) == Poly(vs)
        assert (a * 0).terms == {}
        # Evaluation at a rational point is a ring map to Q, independent of
        # how the ring combines terms.
        pt = {v: Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for v in vs}
        assert eval_all(a * b, pt) == eval_all(a, pt) * eval_all(b, pt)
        assert eval_all(a + b, pt) == eval_all(a, pt) + eval_all(b, pt)
        assert eval_all(-a, pt) == -eval_all(a, pt)


def test_poly_with_context_rename_and_eval():
    vs = ("t", "c")
    t = Poly.var(vs, "t")
    c = Poly.var(vs, "c")
    p = t ** 2 + c
    assert eval_all(p, {"t": Fraction(2), "c": Fraction(-1)}) == 3
    bv = ("t1", "t2")
    t1, t2 = Poly.var(bv, "t1"), Poly.var(bv, "t2")
    q = with_context(t ** 2 + 3 * t, bv, {"t": "t1"})
    assert q == t1 ** 2 + 3 * t1
    mixed = t1 ** 2 * t2 + 5 * t2 ** 3
    assert with_context(mixed, bv, {"t1": "t2", "t2": "t1"}) == t2 ** 2 * t1 + 5 * t1 ** 3
    # exponents sent to one target add: the diagonal restriction
    merged = with_context(mixed + t1 * t2 ** 2 - t1 ** 3, ("t",), {"t1": "t", "t2": "t"})
    assert merged == 6 * Poly.var(("t",), "t") ** 3
    assert with_context(t1 - t2, ("t",), {"t1": "t", "t2": "t"}).is_zero
    # c is used and has no target; unused variables are dropped
    with pytest.raises(ValueError, match=re.escape("c has no target in ('t1', 't2')")):
        with_context(p, bv, {"t": "t1"})
    assert with_context(t ** 2, bv, {"t": "t2"}) == t2 ** 2


def test_poly_context_mismatch_raises():
    """Arithmetic across variable contexts raises; comparison answers False,
    across contexts and against a bool, and reads an int as a constant."""
    a = Poly.var(("t",), "t")
    b = Poly.var(("s",), "s")
    with pytest.raises(ValueError, match=re.escape("variable contexts differ: ('t',) vs ('s',)")):
        a + b
    assert (a == b) is False and (a != b) is True
    assert (a == True) is False and (a != True) is True  # noqa: E712
    assert (Poly.const(("t",), 1) == True) is False  # noqa: E712
    assert Poly.const(("t",), 1) == 1 and Poly.const(("t",), 0) == 0


def test_poly_refuses_foreign_operands():
    """An operand that is neither a Poly nor an int or Fraction raises
    TypeError on either side of +, - and *, and an int on the left still
    reaches the reflected operator, so sum() starts from 0."""
    p = Poly.var(("t",), "t") + 1
    for combine in (lambda: p + "a", lambda: "a" + p, lambda: None * p, lambda: p - [1],
                    lambda: p * 2.5):
        with pytest.raises(TypeError):
            combine()
    assert sum([p, p], 0) == 2 * p


def test_poly_refuses_bad_exponents():
    """An exponent tuple of the wrong width and a negative power raise
    ValueError naming the fault."""
    with pytest.raises(ValueError, match=re.escape("exponent (1, 2) does not fit variables ('t',)")):
        Poly(("t",), {(1, 2): 1})
    with pytest.raises(ValueError, match="^negative power$"):
        Poly.var(("t",), "t") ** -1


def test_poly_is_immutable():
    """Assigning to either slot of a Poly raises, and the Poly keeps its value."""
    p = Poly.var(("t",), "t") ** 2
    for name, value in (("terms", {}), ("vars", ("s",))):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, name, value)
    assert p == Poly.var(("t",), "t") ** 2 and p.vars == ("t",)


def test_poly_with_context_embedding():
    p = Poly.var(("t",), "t") ** 2
    q = with_context(p, ("t", "x"))
    assert q == Poly.var(("t", "x"), "t") ** 2
    r = Poly.var(("t", "x"), "x")
    with pytest.raises(ValueError, match=re.escape("x has no target in ('t',)")):
        with_context(r, ("t",))


def test_exact_div_linear_difference_of_squares():
    vs = ("t1", "t2")
    t1 = Poly.var(vs, "t1")
    t2 = Poly.var(vs, "t2")
    assert poly_divmod_linear(t1 ** 2 - t2 ** 2, "t1", t2) == (t1 + t2, Poly(vs))


def test_exact_div_linear_multiply_back():
    vs = ("t1", "t2")
    t1 = Poly.var(vs, "t1")
    t2 = Poly.var(vs, "t2")
    p = t1 ** 3 * t2 - t1 * t2 ** 3
    q, r = poly_divmod_linear(p, "t1", t2)
    assert q == t1 * t2 * (t1 + t2) and r.is_zero
    assert q * (t1 - t2) == p


def test_exact_div_linear_remainder_raises():
    vs = ("t1", "t2")
    t1 = Poly.var(vs, "t1")
    t2 = Poly.var(vs, "t2")
    _, r = poly_divmod_linear(t1 - t2 + 1, "t1", t2)
    assert r == Poly.const(vs, 1)
    with pytest.raises(ValueError):
        poly_divmod_linear(t1 - t2, "t1", t1 + t2)


def test_exact_div_linear_randomized_roundtrip():
    rng = random.Random(SEED)
    vs = ("t1", "t2")
    t1 = Poly.var(vs, "t1")
    t2 = Poly.var(vs, "t2")
    for _ in range(200):
        p = _rand_poly(rng, vs)
        assert poly_divmod_linear(p * (t1 - t2), "t1", t2) == (p, Poly(vs))


def test_poly_divmod_linear():
    t = Poly.var(("t", "c"), "t")
    c = Poly.var(("t", "c"), "c")
    p = (t - 2) * (t ** 2 + c) + 5
    q, r = poly_divmod_linear(p, "t", Poly.const(("t", "c"), 2))
    assert q == t ** 2 + c
    assert r == Poly.const(("t", "c"), 5)


def test_poly_zero_paths_are_the_general_ones():
    """A zero dividend divides to (0, 0), and the zero Poly has degree -1
    and prints as 0, through the same code as any other Poly."""
    vs = ("t", "c")
    zero = Poly(vs)
    assert poly_divmod_linear(zero, "t", Poly.var(vs, "c")) == (zero, zero)
    assert zero.degree_in("t") == -1 and zero.degree_in("c") == -1
    assert str(zero) == "0"


def test_poly_scalar_product():
    """Scalars multiply as constant Polys on either side; a bool is refused."""
    t = Poly.var(("t", "c"), "t")
    p = t ** 2 - 3 * t + Poly.var(("t", "c"), "c")
    assert (p * 0).is_zero and (0 * p).is_zero
    assert p * Fraction(1, 2) == Fraction(1, 2) * p
    assert (p * Fraction(1, 2)).coeff((1, 0)) == Fraction(-3, 2)
    for flag in (True, False):
        with pytest.raises(ValueError):
            p * flag


def test_poly_div_linear_power():
    t = Poly.var(("t",), "t")
    p = (t + 1) ** 2 * (t ** 2 - 3) + (2 * t - 7)
    q, r = poly_div_linear_power(p, "t", -1, 2)
    assert q == t ** 2 - 3
    assert r == 2 * t - 7
    assert q * (t + 1) ** 2 + r == p

