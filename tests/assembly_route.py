"""Reference routes for the bracket assembly, kept as test oracles.

The library assembles each pair's form by bilinearity: the kernel term is
read off x-coordinates per pair, each x-block's quotient by t1 - t2 read
in closed form, and each derivation image is read once, in closed form,
and added to two rows.  This module keeps the routes it is cross-checked
against.  On the curve functions and the derivation of curve_route:
two-point functions in the w-basis (BiCurveElement), the kernel term as
the general w-basis product of the Szego numerator w1 + w2 with
s1(1) s2(2) - s2(1) s1(2), divided by t1 - t2, and for every basis pair
the five two-point terms summed with pole orders lifted, converted to
x-blocks and read once after dividing by (t1+c)^m1 (t2+c)^m2.  On
x-coordinates: the kernel term as x-blocks of Poly products, each divided
by t1 - t2 by synthetic division (division_kernel_grid).  It also keeps the
raw truncated odd assembly and the odd recentering correction in its
first form, two zero-curve assemblies.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from artifact.bracket_forge import (_BLOCK_TAGS, BracketTensor, FormDict, Grid, PairKey, Slot,
                                    TensorNotInSectionSpace, _overflow_details)
from artifact.curve_ring import CurveModel, SectionSpace
from artifact.exact_core import Poly, poly_divmod_linear

from curve_route import (CurveElement, basis_elements, check_models, curve_derivation,
                         poly_div_linear_power)


_W_KEYS = ((0, 0), (1, 0), (0, 1), (1, 1))
_BIVARS = ("t1", "t2")


class NonzeroRemainder(ArithmeticError):
    """A division by t1 - t2 left a remainder."""


def w_parts(e: CurveElement) -> Tuple[Poly, Poly, int]:
    """(alpha_w, beta_w, m) with the numerator of e written as alpha_w + beta_w * w."""
    return e.alpha + e.beta * e.model.Q * Fraction(1, 2), e.beta, e.denom_power


class BiCurveElement:
    """Function on the product of the curve with itself, in the w-basis.

    Represents (c00 + c10 w1 + c01 w2 + c11 w1 w2) / ((t1+c)^m1 (t2+c)^m2)
    with the cij polynomials in (t1, t2) and w_i^2 = R(t_i).  The pole
    orders are the ones the element was built with, not minimal ones:
    poles are cancelled once, when coordinates are read off its x-blocks.
    Equality compares the functions.
    """

    __slots__ = ("model", "c00", "c10", "c01", "c11", "m1", "m2")

    def __init__(self, model: CurveModel, c00: Poly, c10: Poly, c01: Poly, c11: Poly,
                 m1: int = 0, m2: int = 0):
        self.model = model
        if model.parity == "even" and (m1 or m2):
            raise ValueError("even parity carries no pole orders")
        self.c00, self.c10, self.c01, self.c11 = c00, c10, c01, c11
        self.m1, self.m2 = m1, m2

    @property
    def bivars(self) -> Tuple[str, ...]:
        return ("t1", "t2")

    @property
    def coeffs(self) -> Tuple[Poly, Poly, Poly, Poly]:
        return self.c00, self.c10, self.c01, self.c11

    @classmethod
    def from_sections(cls, e1: CurveElement, e2: CurveElement) -> "BiCurveElement":
        """The product e1(slot 1) * e2(slot 2)."""
        check_models(e1.model, e2.model)
        model = e1.model
        bivars = ("t1", "t2")
        a1, b1, m1 = w_parts(e1)
        a2, b2, m2 = w_parts(e2)
        A1, B1 = (p.with_context(bivars, {"t": "t1"}) for p in (a1, b1))
        A2, B2 = (p.with_context(bivars, {"t": "t2"}) for p in (a2, b2))
        return cls(model, A1 * A2, B1 * A2, A1 * B2, B1 * B2, m1, m2)

    def slot_poly(self, p: Poly, var: str) -> Poly:
        return p.with_context(self.bivars, {"t": var})

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.coeffs)

    def lift(self, m1: int, m2: int) -> List[Poly]:
        """The coefficients over the pole orders (m1, m2)."""
        d1, d2 = m1 - self.m1, m2 - self.m2
        if d1 < 0 or d2 < 0:
            raise ValueError("cannot lower pole orders")
        tau = self.model.tau_poly()
        factor = self.slot_poly(tau, "t1") ** d1 * self.slot_poly(tau, "t2") ** d2
        return [p * factor for p in self.coeffs]

    def __add__(self, other: "BiCurveElement") -> "BiCurveElement":
        check_models(self.model, other.model)
        m1 = max(self.m1, other.m1)
        m2 = max(self.m2, other.m2)
        return BiCurveElement(self.model, *(a + b for a, b in zip(self.lift(m1, m2),
                                                                   other.lift(m1, m2))),
                              m1=m1, m2=m2)

    def __sub__(self, other: "BiCurveElement") -> "BiCurveElement":
        return self + other.scale(-1)

    def scale(self, factor) -> "BiCurveElement":
        return BiCurveElement(self.model, *(p * Fraction(factor) for p in self.coeffs),
                              m1=self.m1, m2=self.m2)

    def swap_slots(self) -> "BiCurveElement":
        swap = {"t1": "t2", "t2": "t1"}
        return BiCurveElement(self.model, *(p.with_context(self.bivars, swap) for p in
                                            (self.c00, self.c01, self.c10, self.c11)),
                              m1=self.m2, m2=self.m1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiCurveElement):
            return NotImplemented
        if self.model != other.model:
            return False
        m1, m2 = max(self.m1, other.m1), max(self.m2, other.m2)
        return self.lift(m1, m2) == other.lift(m1, m2)

    def __repr__(self) -> str:
        core = f"c00={self.c00}, c10={self.c10}, c01={self.c01}, c11={self.c11}"
        return f"BiCurveElement({core}, poles=({self.m1},{self.m2}))"


def szego_kernel(model: CurveModel) -> BiCurveElement:
    """Numerator w1 + w2 of the kernel S = (w1 + w2)/(t1 - t2)."""
    bivars = ("t1", "t2")
    zero = Poly(bivars)
    one = Poly.const(bivars, 1)
    return BiCurveElement(model, zero, one, one, zero)


def bicurve_product(x: BiCurveElement, y: BiCurveElement) -> BiCurveElement:
    """x * y in the w-basis, with w_i^2 = R(t_i)."""
    model = x.model
    R = {1: x.slot_poly(model.R, "t1"), 2: x.slot_poly(model.R, "t2")}
    acc = {key: Poly(x.bivars) for key in _W_KEYS}
    for (u1, v1), p in zip(_W_KEYS, x.coeffs):
        for (u2, v2), q in zip(_W_KEYS, y.coeffs):
            prod = p * q
            u, v = u1 + u2, v1 + v2
            if u == 2:
                prod, u = prod * R[1], 0
            if v == 2:
                prod, v = prod * R[2], 0
            acc[(u, v)] = acc[(u, v)] + prod
    return BiCurveElement(model, *(acc[key] for key in _W_KEYS), m1=x.m1 + y.m1, m2=x.m2 + y.m2)


def raw_kernel_numerator(s1: CurveElement, s2: CurveElement) -> BiCurveElement:
    """(w1 + w2) * (s1(1) s2(2) - s2(1) s1(2)) by the general product."""
    raw = BiCurveElement.from_sections(s1, s2) - BiCurveElement.from_sections(s2, s1)
    return bicurve_product(szego_kernel(s1.model), raw)


def mult_kernel_antisym(s1: CurveElement, s2: CurveElement) -> BiCurveElement:
    """S * (s1(1) s2(2) - s2(1) s1(2)): the raw numerator divided by
    (t1 - t2), coefficient by coefficient."""
    num = raw_kernel_numerator(s1, s2)
    t2 = Poly.var(num.bivars, "t2")
    parts = []
    for p in num.coeffs:
        q, r = poly_divmod_linear(p, "t1", t2)
        if not r.is_zero:
            raise NonzeroRemainder(f"{num} does not vanish on the diagonal t1 = t2")
        parts.append(q)
    return BiCurveElement(num.model, *parts, m1=num.m1, m2=num.m2)


def bicurve_x_blocks(bi: BiCurveElement) -> Tuple[Poly, Poly, Poly, Poly]:
    """Numerator blocks (A, B, C, D) of bi in slotwise x-coordinates, with
    bi = (A + B x1 + C x2 + D x1 x2) / ((t1+c)^m1 (t2+c)^m2), from
    w_i = (t_i+c) x_i - Q(t_i)/2 (odd) or x_i - Q(t_i)/2 (even)."""
    model = bi.model
    half = Fraction(1, 2)
    Q1 = bi.slot_poly(model.Q, "t1")
    Q2 = bi.slot_poly(model.Q, "t2")
    A = bi.c00 - bi.c10 * Q1 * half - bi.c01 * Q2 * half + bi.c11 * Q1 * Q2 * Fraction(1, 4)
    B = bi.c10 - bi.c11 * Q2 * half
    C = bi.c01 - bi.c11 * Q1 * half
    D = bi.c11
    if model.parity == "odd":
        tau1 = bi.slot_poly(model.tau_poly(), "t1")
        tau2 = bi.slot_poly(model.tau_poly(), "t2")
        B, C, D = B * tau1, C * tau2, D * tau1 * tau2
    return A, B, C, D


def pair_grid(bi: BiCurveElement) -> Tuple[Grid, List[str]]:
    """Coefficient grid of bi, read off its x-blocks, out-of-basis slots
    kept, and the nonzero pole remainders.  Each block is divided once by
    (t1+c)^m1 (t2+c)^m2; the (t1, t2) exponents of the quotient are the
    t-powers of the two slots."""
    root = -bi.model.c
    grid: Grid = {}
    problems: List[str] = []
    for ((u, v), tag), block in zip(_BLOCK_TAGS.items(), bicurve_x_blocks(bi)):
        q, r1 = poly_div_linear_power(block, "t1", root, bi.m1)
        q, r2 = poly_div_linear_power(q, "t2", root, bi.m2)
        problems += [f"slot-{slot} pole remainder in {tag} block: {r}"
                     for slot, r in ((1, r1), (2, r2)) if not r.is_zero]
        for (i, j), val in q.terms.items():
            grid[((u, i), (v, j))] = val
    return grid, problems


def pair_matrix(bi: BiCurveElement, space: SectionSpace, truncate: bool,
                pair_label: str) -> Dict[PairKey, Fraction]:
    """Coefficient grid of bi over basis x basis.  Strict mode rejects a
    pole remainder or a slot past the basis, truncating mode drops it."""
    grid, problems = pair_grid(bi)
    slots = space.slots
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
    basis = basis_elements(space)
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


def division_kernel_grid(sa: Slot, sb: Slot, model: CurveModel) -> Grid:
    """Grid of K = S (s_a(1) s_b(2) - s_b(1) s_a(2)) for the slots (u, i) and
    (v, j), from the x-blocks of (w1 + w2) M as Poly products over (t1, t2),
    with tau_l x_l^2 = Q_l x_l + P_l, each block divided once by t1 - t2 by
    synthetic division with the Poly root t2."""
    (u, i), (v, j) = sa, sb
    sides = [[p.with_context(_BIVARS, {"t": var}) for p in (model.tau_poly(), model.Q, model.P)]
             for var in _BIVARS]
    const = (sides[0][1] + sides[1][1]) * Fraction(-1, 2)
    product = {(u, v): Poly(_BIVARS, {(i, j): 1})}
    product[(v, u)] = product.get((v, u), Poly(_BIVARS)) - Poly(_BIVARS, {(j, i): 1})
    blocks: Dict[Tuple[int, int], Poly] = {}

    def add(key: Tuple[int, int], p: Poly) -> None:
        blocks[key] = blocks[key] + p if key in blocks else p

    for key, m in product.items():
        add(key, const * m)
        for slot, (tau, Q, P) in enumerate(sides):
            up = key[:slot] + (1,) + key[slot + 1:]
            if key[slot]:
                add(up, Q * m)
                add(key[:slot] + (0,) + key[slot + 1:], P * m)
            else:
                add(up, tau * m)
    grid: Grid = {}
    for (x1, x2), block in blocks.items():
        q, r = poly_divmod_linear(block, "t1", Poly.var(_BIVARS, "t2"))
        if not r.is_zero:
            raise NonzeroRemainder(f"{_BLOCK_TAGS[(x1, x2)]} block of the kernel of slots "
                                   f"{sa}, {sb} does not vanish on t1 = t2")
        for (a, b), val in q.terms.items():
            grid[((x1, a), (x2, b))] = val
    return grid


def truncated_five_term(model: CurveModel) -> BracketTensor:
    """Literal five-term assembly W(c, Q, P) of an odd curve with pole parts
    and excess monomials dropped, by the per-pair route.  It is the raw
    ingredient of the odd build, not itself a Poisson tensor in general."""
    if model.parity != "odd":
        raise ValueError("the truncated assembly needs an odd curve")
    space = SectionSpace(model)
    return BracketTensor("odd", space.k, space.dim, five_term_forms(space, truncate=True))


def odd_shift_two_assemblies(k: int) -> BracketTensor:
    """(2/(2k+1)) * (W(1,0,0) - 2 W(0,0,0)), W(c, Q, P) the truncated
    five-term forms of the odd curve, each W assembled by this route."""
    def W(c: int) -> BracketTensor:
        return truncated_five_term(CurveModel.odd(k, c, 0, 0))
    return (W(1) - W(0).scale(2)).scale(Fraction(2, 2 * k + 1))
