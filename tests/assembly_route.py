"""Reference route for the bracket assembly, kept as a test oracle.

The library assembles each pair's form by bilinearity: the kernel term is
read off per pair, and each derivation image is read once and added to
two rows.  This module keeps the per-pair route it is cross-checked
against: for every basis pair it sums the five two-point terms as
BiCurveElements, pole orders lifted, and reads the summed grid once.  The
kernel term is the general w-basis product of the Szego numerator with
s1(1) s2(2) - s2(1) s1(2), both built with from_sections.  It also keeps
the odd recentering correction in its first form, two zero-curve
assemblies.
"""

from fractions import Fraction
from typing import Dict

from artifact.bracket_forge import (BracketTensor, FormDict, PairKey, TensorNotInSectionSpace,
                                    _basis_slots, _overflow_details, _pair_grid)
from artifact.curve_ring import (BiCurveElement, CurveElement, CurveModel, SectionSpace,
                                 _cancel_poles, curve_derivation, szego_kernel)
from artifact.exact_core import NonzeroRemainder, Poly


_W_KEYS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _coeffs(e: BiCurveElement):
    return e.c00, e.c10, e.c01, e.c11


def bicurve_product(x: BiCurveElement, y: BiCurveElement) -> BiCurveElement:
    """x * y in the w-basis, with w_i^2 = R(t_i)."""
    model = x.model
    R = {1: x._slot_poly(model.R, "t1"), 2: x._slot_poly(model.R, "t2")}
    acc = {key: Poly(x.bivars) for key in _W_KEYS}
    for (u1, v1), p in zip(_W_KEYS, _coeffs(x)):
        for (u2, v2), q in zip(_W_KEYS, _coeffs(y)):
            prod = p * q
            u, v = u1 + u2, v1 + v2
            if u == 2:
                prod, u = prod * R[1], 0
            if v == 2:
                prod, v = prod * R[2], 0
            acc[(u, v)] = acc[(u, v)] + prod
    return BiCurveElement(model, acc[(0, 0)], acc[(1, 0)], acc[(0, 1)], acc[(1, 1)],
                          x.m1 + y.m1, x.m2 + y.m2)


def raw_kernel_numerator(s1: CurveElement, s2: CurveElement) -> BiCurveElement:
    """(w1 + w2) * (s1(1) s2(2) - s2(1) s1(2)) by the general product."""
    raw = BiCurveElement.from_sections(s1, s2) - BiCurveElement.from_sections(s2, s1)
    return bicurve_product(szego_kernel(s1.model), raw)


def mult_kernel_antisym(s1: CurveElement, s2: CurveElement) -> BiCurveElement:
    """The raw numerator divided by (t1 - t2), coefficient by coefficient."""
    num = raw_kernel_numerator(s1, s2)
    parts, left = _cancel_poles([num.c00, num.c10, num.c01, num.c11], "t1",
                                Poly.var(num.bivars, "t2"), 1)
    if left:
        raise NonzeroRemainder(f"{num} does not vanish on the diagonal t1 = t2")
    return BiCurveElement(num.model, *parts, m1=num.m1, m2=num.m2)


def pair_matrix(bi: BiCurveElement, space: SectionSpace, truncate: bool,
                pair_label: str) -> Dict[PairKey, Fraction]:
    """Coefficient grid of bi over basis x basis.  Strict mode rejects a
    pole remainder or a slot past the basis, truncating mode drops it."""
    grid, problems = _pair_grid(bi, not truncate)
    slots = _basis_slots(space)
    if not truncate:
        problems += _overflow_details(grid, slots)
        if problems:
            raise TensorNotInSectionSpace(pair_label, problems)
    return {(slots[s1], slots[s2]): val for (s1, s2), val in grid.items()
            if s1 in slots and s2 in slots}


def symmetrize(matrix: Dict[PairKey, Fraction]) -> FormDict:
    form: FormDict = {}
    for (u, v), val in matrix.items():
        key = (u, v) if u <= v else (v, u)
        form[key] = form.get(key, Fraction(0)) + val
    return {key: val for key, val in form.items() if val}


def five_term_forms(space: SectionSpace, truncate: bool) -> Dict[PairKey, FormDict]:
    """Forms of n*S(s_a^s_b) + s_a (x) D(s_b) + D(s_b) (x) s_a - s_b (x) D(s_a)
    - D(s_a) (x) s_b, one summed BiCurveElement per pair."""
    labels = space.labels()
    basis = space.basis_elements()
    derivs = [curve_derivation(e) for e in basis]
    pi: Dict[PairKey, FormDict] = {}
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            T = mult_kernel_antisym(basis[a], basis[b]).scale(space.dim)
            T = T + BiCurveElement.from_sections(basis[a], derivs[b])
            T = T + BiCurveElement.from_sections(derivs[b], basis[a])
            T = T - BiCurveElement.from_sections(basis[b], derivs[a])
            T = T - BiCurveElement.from_sections(derivs[a], basis[b])
            form = symmetrize(pair_matrix(T, space, truncate, f"({labels[a]}, {labels[b]})"))
            if form:
                pi[(a, b)] = form
    return pi


def odd_shift_two_assemblies(k: int) -> BracketTensor:
    """(2/(2k+1)) * (W(1,0,0) - 2 W(0,0,0)), W(c, Q, P) the truncated
    five-term forms of the odd curve, each W assembled by this route."""
    def W(c: int) -> BracketTensor:
        space = SectionSpace(CurveModel.odd(k, c, 0, 0))
        return BracketTensor("odd", k, space.dim, five_term_forms(space, truncate=True))
    return (W(1) - W(0).scale(2)).scale(Fraction(2, 2 * k + 1))
