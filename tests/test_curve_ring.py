"""Tests for curve models, reduction, derivation, kernel and residues.

Reduction, the derivation and membership are those of the curve-function
oracle; the kernel tests read the closed-form grid of bracket_forge and
the w-basis route of the assembly oracle."""

import random
from fractions import Fraction

import pytest

from artifact.bracket_forge import TensorNotInSectionSpace, _kernel_grid
from artifact.curve_ring import (CurveModel, DegenerateDivisor, dimension, section_slots,
                                 verify_szego_residues)
from artifact.exact_core import Poly

from assembly_route import BiCurveElement, mult_kernel_antisym, own_curve, szego_kernel
from curve_route import (CurveElement, DivisionByNonUnit, NotInSpace, basis_elements,
                         coeffs_univar, curve_derivation, defining_poly, derivative,
                         element_from_coords, membership_extract, one, reduce, t_elem, t_poly,
                         with_context, x_elem)

SEED = 42

TX = ("t", "x")


def _t(ctx=TX):
    return Poly.var(ctx, "t")


def _x(ctx=TX):
    return Poly.var(ctx, "x")


def _even_model(k=2):
    # x^2 = Q x + P with nontrivial Q to exercise the w-shift
    return CurveModel.even(k, [1, 2], [3, -1, 0, 0, 1])


def _odd_model(k=1):
    return CurveModel.odd(k, 1, [0, 2, -1], [-1, 1, 0, 3])


def _rand_tx_poly(rng, max_tdeg=3, max_xdeg=2):
    terms = {}
    for _ in range(4):
        terms[(rng.randrange(max_tdeg + 1), rng.randrange(max_xdeg + 1))] = Fraction(
            rng.randrange(-6, 7), rng.randrange(1, 4))
    return Poly(TX, terms)


def test_dimension_is_the_one_shape_rule():
    """dimension is 2k even, 2k + 1 odd, and refuses any other parity or a
    k that is not an int >= 1; models and the section basis read it."""
    assert [dimension(parity, k) for parity in ("even", "odd") for k in (1, 2, 3)] == [
        2, 4, 6, 3, 5, 7]
    for parity, k in (("flat", 2), ("even", 0), ("odd", -1), ("even", True), ("odd", 1.0)):
        with pytest.raises(ValueError):
            dimension(parity, k)
        with pytest.raises(ValueError):
            CurveModel(parity, k, 0, 0)
        with pytest.raises(ValueError):
            section_slots(parity, k)
    assert len(section_slots("odd", 3)) == 7


def test_reduce_even_square_is_constant():
    model = CurveModel.even(1, 0, 5)
    e = reduce(model, _x() ** 2)
    assert e.beta.is_zero
    assert e.alpha == Poly.const(model.tvars, 5)
    assert e.denom_power == 0


def test_reduce_multiplicative_identity():
    model = _even_model()
    assert reduce(model, _x()) == x_elem(model)
    assert reduce(model, _x()) * one(model) == x_elem(model)


def test_curve_element_refuses_foreign_operands():
    """A CurveElement combines only with a CurveElement, an int or a
    Fraction, on its right: a Poly on either side, a str, or an int on
    the left raises TypeError, and == with another type is False."""
    model = _even_model()
    t = Poly.var(("t",), "t")
    for combine, message in ((lambda: t * one(model), "cannot combine a Poly with CurveElement"),
                             (lambda: one(model) * t, "cannot combine a CurveElement with Poly"),
                             (lambda: one(model) + "a", "cannot combine a CurveElement with str"),
                             (lambda: 2 * one(model), "unsupported operand")):
        with pytest.raises(TypeError, match=message):
            combine()
    assert one(model) + 1 == CurveElement(model, 2)
    assert (one(model) == "x") is False


def test_reduce_odd_square_has_simple_pole():
    model = CurveModel.odd(1, 0, 0, 5)
    e = reduce(model, _x() ** 2)
    assert e.alpha == Poly.const(model.tvars, 5)
    assert e.beta.is_zero
    assert e.denom_power == 1
    # z-substitution oracle: t x^2 - 5 dies on the curve
    relation = _t() * _x() ** 2 - 5
    assert reduce(model, relation).is_zero


def test_reduce_is_ring_homomorphism_randomized():
    rng = random.Random(SEED)
    for model in (_even_model(), _odd_model()):
        for _ in range(250):
            p = _rand_tx_poly(rng)
            q = _rand_tx_poly(rng)
            assert reduce(model, p) * reduce(model, q) == reduce(model, p * q)


def test_reduce_division_by_pole_factor():
    model = _odd_model()
    tau = _t(model.tvars) + 1
    e = reduce(model, 7, denominator=tau)
    assert e.alpha == Poly.const(model.tvars, 7) and e.denom_power == 1
    # a denominator carrying any other linear factor is rejected
    with pytest.raises(DivisionByNonUnit):
        reduce(model, 1, denominator=_t(model.tvars))
    with pytest.raises(DivisionByNonUnit):
        reduce(_even_model(), 1, denominator=_t(("t",)))
    half = reduce(model, 1, denominator=2)
    assert half.alpha == Poly.const(model.tvars, Fraction(1, 2))


def test_derivation_generator_rules_even():
    model = CurveModel.even(1, 0, 5)
    dt = curve_derivation(t_elem(model))
    assert dt == CurveElement(model, 0, 2)  # 2x when Q = 0
    assert curve_derivation(one(model)).is_zero


def test_derivation_square_rule_even():
    model = _even_model()
    ctx = TX
    got = curve_derivation(t_elem(model) * t_elem(model))
    expected = reduce(model, 2 * _t(ctx) * (2 * _x(ctx) - with_context(t_poly(model.Q), ctx)))
    assert got == expected


def test_derivation_generator_rules_odd():
    model = _odd_model()
    ctx = TX
    Q, P = (with_context(t_poly(part), ctx) for part in (model.Q, model.P))
    tau = _t(ctx) + Poly.const(ctx, model.c)
    assert curve_derivation(t_elem(model)) == reduce(model, 2 * tau * _x(ctx) - Q)
    dx_expected = derivative(P, "t") + derivative(Q, "t") * _x(ctx) - _x(ctx) ** 2
    assert curve_derivation(x_elem(model)) == reduce(model, dx_expected)


def test_derivation_matches_gradient_route():
    rng = random.Random(SEED)
    for model in (_even_model(), _odd_model()):
        F = defining_poly(model)
        Fx = derivative(F, "x")
        Ft = derivative(F, "t")
        for _ in range(12):
            p = _rand_tx_poly(rng)
            lhs = curve_derivation(reduce(model, p))
            rhs = reduce(model, Fx * derivative(p, "t") - Ft * derivative(p, "x"))
            assert lhs == rhs


def test_derivation_leibniz_randomized():
    rng = random.Random(SEED)
    for model in (_even_model(), _odd_model()):
        for _ in range(20):
            a = reduce(model, _rand_tx_poly(rng))
            b = reduce(model, _rand_tx_poly(rng))
            assert curve_derivation(a * b) == curve_derivation(a) * b + a * curve_derivation(b)


def test_derivation_tangent_to_curve():
    for model in (_even_model(), _odd_model()):
        F = defining_poly(model)
        assert reduce(model, F).is_zero
        # chain rule: F_t D(t) + F_x D(x) must die on the curve
        dt = curve_derivation(t_elem(model))
        dx = curve_derivation(x_elem(model))
        total = reduce(model, derivative(F, "t")) * dt + reduce(model, derivative(F, "x")) * dx
        assert total.is_zero


def _on(model, e):
    """e as an element of model, the same curve at another k."""
    return CurveElement(model, e.alpha, e.beta, e.denom_power)


def test_derivation_raises_section_level_even():
    for k in (1, 2, 3):
        target = _even_model(k + 1)
        for e in basis_elements(_even_model(k)):
            membership_extract(_on(target, curve_derivation(e)))  # must not raise


def test_derivation_raises_section_level_odd():
    """Odd parity: D(t^i) moves up a level directly; D(t^j x) does so only
    after adding back t^j x^2, which carries the second-order pole that D
    creates at the distinguished point over t = -c."""
    ctx = TX
    for k in (1, 2, 3):
        model = _odd_model(k + 1)
        basis = [_on(model, e) for e in basis_elements(_odd_model(k))]
        for e in basis[: k + 1]:
            membership_extract(curve_derivation(e))
        for j, e in enumerate(basis[k + 1:]):
            pole_fix = reduce(model, _t(ctx) ** j * _x(ctx) ** 2)
            membership_extract(curve_derivation(e) + pole_fix)
        # the raw derivative of an x-type element genuinely leaves the chain
        with pytest.raises(NotInSpace):
            membership_extract(curve_derivation(basis[k + 1]))


def _numerator_grid(model):
    """Kernel grid of the pair (t, 1): S (t1 - t2) = w1 + w2 in x-coordinates."""
    return _kernel_grid((0, 1), (0, 0), own_curve(model)[0])


def test_szego_numerator_even():
    # Q = 0: the numerator is x1 + x2
    model = CurveModel.even(1, 0, 5)
    assert _numerator_grid(model) == {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): 1}
    num = szego_kernel(model)
    one = Poly.const(("t1", "t2"), 1)
    assert num.c10 == one and num.c01 == one
    assert num.c00.is_zero and num.c11.is_zero


def test_szego_numerator_even_with_shift():
    # Q = 2t makes the numerator x1 - t1 + x2 - t2
    model = CurveModel.even(1, [0, 2], [0, 0, 0, 0, 1])
    assert _numerator_grid(model) == {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): 1,
                                      ((0, 1), (0, 0)): -1, ((0, 0), (0, 1)): -1}


def test_szego_numerator_odd():
    # c = 1, Q = 2t - t^2: w1 + w2 = (t1+1) x1 + (t2+1) x2 - Q(t1)/2 - Q(t2)/2
    # has no pole in x-coordinates
    model = _odd_model()
    assert _numerator_grid(model) == {
        ((1, 1), (0, 0)): 1, ((1, 0), (0, 0)): 1, ((0, 0), (1, 1)): 1, ((0, 0), (1, 0)): 1,
        ((0, 1), (0, 0)): -1, ((0, 0), (0, 1)): -1,
        ((0, 2), (0, 0)): Fraction(1, 2), ((0, 0), (0, 2)): Fraction(1, 2)}


def test_mult_kernel_antisym_diagonal_pair_vanishes():
    model = _even_model()
    s = reduce(model, _t() ** 2 + 3 * _x())
    assert mult_kernel_antisym(s, s).is_zero


def test_mult_kernel_antisym_one_t():
    model = CurveModel.even(1, 0, 7)
    out = mult_kernel_antisym(one(model), t_elem(model))
    # (w1+w2)(t2-t1)/(t1-t2) = -w1-w2, i.e. -x1-x2 at Q=0
    assert out == szego_kernel(model).scale(-1)


def test_mult_kernel_antisym_one_x_dies():
    model = CurveModel.even(1, 0, 5)
    out = mult_kernel_antisym(one(model), x_elem(model))
    assert out.is_zero


def test_mult_kernel_antisym_bilinear_antisymmetric():
    rng = random.Random(SEED)
    for model in (_even_model(), _odd_model(2)):
        basis = basis_elements(model)
        for _ in range(5):
            pick = rng.sample(range(len(basis)), 3)
            a, b, c = (basis[i] for i in pick)
            lam = Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
            mu_ab = mult_kernel_antisym(a, b)
            assert (mu_ab + mult_kernel_antisym(b, a)).is_zero
            lhs = mult_kernel_antisym(a + CurveElement(model, lam) * b, c)
            rhs = mult_kernel_antisym(a, c) + mult_kernel_antisym(b, c).scale(lam)
            assert lhs == rhs


def test_membership_basis_vector():
    model = _even_model(2)
    assert membership_extract(t_elem(model) * t_elem(model)) == [0, 0, 1, 0]


def test_membership_degree_overflow():
    model = _even_model(2)
    with pytest.raises(NotInSpace):
        membership_extract(t_elem(model) ** 3)


def test_membership_odd_pole_and_x():
    model = CurveModel.odd(1, 0, 0, [1, 0, 0, 2])
    assert membership_extract(x_elem(model)) == [0, 0, 1]
    bad = reduce(model, Poly(TX, {(0, 0): 5, (2, 1): 1}), denominator=_t(("t",)))
    with pytest.raises(NotInSpace):
        membership_extract(bad)


def test_membership_roundtrip_randomized():
    rng = random.Random(SEED)
    for model in (_even_model(3), _odd_model(2)):
        n = dimension(model.parity, model.k_param)
        for _ in range(10):
            coords = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)]
            e = element_from_coords(model, coords)
            assert membership_extract(e) == coords


def _labels(slots):
    """Basis names as a strict rejection states them, (1, s) for each s."""
    return ["1"] + [TensorNotInSectionSpace(0, b, {}, slots).pair[4:-1]
                    for b in range(1, len(slots))]


def test_section_space_shapes():
    """section_slots orders the basis 1, t, ..., t^k, x, t x, ...; a
    rejection names basis monomials in that order."""
    even = section_slots("even", 2)
    assert even == {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 3}
    assert _labels(even) == ["1", "t", "t^2", "x"]
    odd = section_slots("odd", 2)
    assert list(odd) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert _labels(odd) == ["1", "t", "t^2", "x", "t*x"]
    assert TensorNotInSectionSpace(3, 4, {}, odd).pair == "(x, t*x)"
    assert len(section_slots("even", 1)) == 2


def test_residue_certificate_quartic():
    model = CurveModel.even(2, 0, [1, 0, 0, 0, 1])
    cert = verify_szego_residues(model)
    assert cert.diagonal == 1
    assert cert.at_infinity == (Fraction(1, 2), Fraction(1, 2))


def test_residue_degenerate_divisor():
    with pytest.raises(DegenerateDivisor):
        verify_szego_residues(CurveModel.even(1, 0, 3))


def test_residue_random_nondegenerate():
    """A model keeps tau = (1,) and no c (even) or tau = (c, 1) (odd, c = 0
    kept as 0), and R = tau P + Q^2/4 read off those lists; every curve
    with a t^4 term in R has the normalized residues."""
    assert CurveModel("even", 1, 0, 0, c=0).c is None
    assert CurveModel.odd(1, 0, 0, 0).tau == (0, 1) and CurveModel.odd(1, 0, 0, 0).c == 0
    rng = random.Random(SEED)
    for parity in ("even", "odd"):
        done = 0
        while done < 10:
            q = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
            pdeg = 5 if parity == "even" else 4
            p = [Fraction(rng.randrange(-4, 5)) for _ in range(pdeg)]
            if parity == "even":
                model = CurveModel.even(2, q, p)
                assert model.tau == (1,) and model.c is None
            else:
                c = Fraction(rng.randrange(-2, 3))
                model = CurveModel.odd(2, c, q, p)
                assert model.tau == (c, 1) and isinstance(model.c, Fraction)
            assert model.R == t_poly(model.tau) * t_poly(p) + t_poly(q) ** 2 * Fraction(1, 4)
            if not model.R.coeff((4,)):
                continue
            cert = verify_szego_residues(model)
            assert cert.diagonal == 1
            assert cert.at_infinity[0] == cert.at_infinity[1] == Fraction(1, 2)
            done += 1


def test_residues_at_infinity_agree_with_sympy():
    """Both points over t = infinity, each branch s = +-1 on its own, with
    sqrt(a) a free symbol r and t2 symbolic: sympy expands
    (w1 + w2)/(2 w1) dt1/(t2 - t1) at t1 = 1/u, w1 = s r h(u)/u^2, and the
    residue is 1/2 with no w2 part, as the closed-form certificate states.
    The curves include a non-square t^4 coefficient a = 2/3 and an odd
    curve at k = 1 with c != 0."""
    sympy = pytest.importorskip("sympy")
    u, t2, w2, r = sympy.symbols("u t2 w2 r")
    models = (CurveModel.even(2, [1, -2, 3], [Fraction(1, 2), 0, -1, 2, -3]),
              CurveModel.even(2, 0, [2, 0, 0, 0, 5]),
              CurveModel.odd(2, 1, [0, 1, Fraction(2, 3)], [1, -1, 2, 5]),
              CurveModel.odd(3, -2, [1, 0, -1], [0, 3, 0, -2]),
              CurveModel.even(1, [0, 1, 0], [Fraction(-1, 3), 2, 0, 1, Fraction(2, 3)]),
              CurveModel.odd(1, Fraction(-1, 2), [2, 0, 1], [1, 3, 0, -2]))
    for model in models:
        R = [sympy.Rational(c.numerator, c.denominator) for c in coeffs_univar(model.R, "t")]
        h = sympy.sqrt(sum(c * u ** (4 - i) for i, c in enumerate(R)) / R[4])
        for s in (1, -1):
            w1 = s * r * h / u ** 2
            form = (w1 + w2) / (2 * w1) * (-1 / u ** 2) / (t2 - 1 / u)
            res = sympy.expand(sympy.series(form, u, 0, 1).removeO().coeff(u, -1))
            assert sympy.simplify(res.coeff(w2, 0)) == sympy.Rational(1, 2), (model, s)
            assert sympy.simplify(res.coeff(w2, 1)) == 0, (model, s)
        assert verify_szego_residues(model).at_infinity == (Fraction(1, 2), Fraction(1, 2))


def test_bicurve_arithmetic_consistency():
    model = _odd_model()
    a = reduce(model, _rand_tx_poly(random.Random(7)))
    b = reduce(model, _rand_tx_poly(random.Random(8)))
    prod = BiCurveElement.from_sections(a, b)
    swapped = BiCurveElement.from_sections(b, a).swap_slots()
    assert prod == swapped
    assert (prod - prod).is_zero
