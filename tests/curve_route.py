"""Reference route for curve functions and the derivation, kept as a test oracle.

The library reads the derivation image of each basis slot t^i x^u in
closed form (bracket_forge._derivation_image).  This module keeps the
general route it is cross-checked against: curve functions in a unique
normal form (CurveElement), reduction of raw polynomial expressions in t
and x, the defining polynomial F(t, x) of a model (defining_poly), the
canonical derivation extended by Leibniz and the quotient rule, and the
reading of coordinates, in the section basis (membership_extract) or
slot by slot with the pole remainders (section_coords).  It also keeps the
Poly helpers only the test routes use: viewing a model's coefficient tuple
as a polynomial in t (t_poly) and reading one back (coeffs_univar),
re-embedding a polynomial in another variable tuple (with_context),
evaluating it at a rational point (eval_all) and differentiating it in one
variable (derivative).

Curve functions are alpha + beta * x in the even parity and
(alpha + beta * z) / (t+c)^m with z = (t+c) x and m minimal in the odd
parity; z satisfies z^2 = Q z + (t+c) P.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from artifact.curve_ring import Coefficients, CurveModel, dimension
from artifact.exact_core import Poly, RationalLike, poly_divmod_linear, rat

Slot = Tuple[int, int]


def t_poly(value: Coefficients) -> Poly:
    """A scalar or an ascending coefficient list, such as a model's Q or P,
    as a polynomial in t."""
    if isinstance(value, (list, tuple)):
        return Poly(CurveModel.tvars, {(power,): c for power, c in enumerate(value)})
    return Poly.const(CurveModel.tvars, rat(value))


def coeffs_univar(p: Poly, name: str) -> List[Fraction]:
    """Ascending dense coefficient list of p; p must involve no variable
    other than name."""
    slot = p.vars.index(name)
    for expo in p.terms:
        if any(e and i != slot for i, e in enumerate(expo)):
            raise ValueError(f"{p} is not univariate in {name}")
    out = [Fraction(0)] * (p.degree_in(name) + 1)
    for expo, c in p.terms.items():
        out[expo[slot]] = c
    return out or [Fraction(0)]


def eval_all(p: Poly, point: Dict[str, RationalLike]) -> Fraction:
    """Full evaluation of p at a rational point."""
    acc = Fraction(0)
    vals = {n: rat(v) for n, v in point.items()}
    for expo, c in p.terms.items():
        term = c
        for slot, power in enumerate(expo):
            if power:
                term *= vals[p.vars[slot]] ** power
        acc += term
    return acc


def derivative(p: Poly, name: str) -> Poly:
    """The partial derivative of p in the variable name."""
    slot = p.vars.index(name)
    terms = {}
    for expo, c in p.terms.items():
        power = expo[slot]
        if power:
            reduced = expo[:slot] + (power - 1,) + expo[slot + 1:]
            terms[reduced] = terms.get(reduced, Fraction(0)) + c * power
    return Poly(p.vars, terms)


def with_context(p: Poly, variables: Sequence[str],
                 rename: Optional[Dict[str, str]] = None) -> Poly:
    """Re-embed p into another variable tuple.

    Each variable goes to the variable of the same name, or to
    rename[name]; exponents sent to one target add, so renaming t1 and
    t2 to t restricts to the diagonal.  A variable p uses must have a
    target.
    """
    variables = tuple(variables)
    rename = rename or {}
    positions = []
    for slot, name in enumerate(p.vars):
        target = rename.get(name, name)
        if target in variables:
            positions.append(variables.index(target))
        else:
            if any(e[slot] for e in p.terms):
                raise ValueError(f"{name} has no target in {variables}")
            positions.append(None)
    terms = {}
    for expo, c in p.terms.items():
        new = [0] * len(variables)
        for slot, power in enumerate(expo):
            if power:
                new[positions[slot]] += power
        terms[tuple(new)] = terms.get(tuple(new), Fraction(0)) + c
    return Poly(variables, terms)


class NotInSpace(ValueError):
    """An element does not lie in the requested section space."""


class DivisionByNonUnit(ArithmeticError):
    """A denominator other than a power of (t+c) was requested."""


def poly_div_linear_power(p: Poly, name: str, root: RationalLike, m: int) -> Tuple[Poly, Poly]:
    """Write p = Q * (name - root)^m + R with deg_name(R) < m; returns (Q, R).

    Used for extracting the polynomial part of p / (name - root)^m; R is
    the obstruction.
    """
    if m < 0:
        raise ValueError("negative power")
    root = Poly.const(p.vars, rat(root))
    rem_total = Poly(p.vars)
    factor = Poly.const(p.vars, 1)
    linear = Poly.var(p.vars, name) - root
    q = p
    for _ in range(m):
        q, r = poly_divmod_linear(q, name, root)
        rem_total = rem_total + r * factor
        factor = factor * linear
    return q, rem_total


def check_models(a: CurveModel, b: CurveModel) -> None:
    """Two elements share a model: to_json holds every field of one."""
    if a is not b and a.to_json() != b.to_json():
        raise ValueError("elements belong to different curve models")


def cancel_poles(numerators: List[Poly], var: str, root: RationalLike,
                 m: int) -> Tuple[List[Poly], int]:
    """Divide every numerator by (var - root) while all of them divide
    exactly, at most m times; returns the quotients and the order left."""
    while m > 0:
        quotients = []
        for p in numerators:
            q, r = poly_divmod_linear(p, var, Poly.const(p.vars, root))
            if not r.is_zero:
                return numerators, m
            quotients.append(q)
        numerators = quotients
        m -= 1
    return numerators, m


class CurveElement:
    """A curve function in normal form.

    Even: alpha + beta * x with denom_power = 0.  Odd: the fraction
    (alpha + beta * z) / (t+c)^m with z = (t+c) x and m minimal.
    """

    __slots__ = ("model", "alpha", "beta", "denom_power")

    def __init__(self, model: CurveModel, alpha: Union[Poly, Coefficients],
                 beta: Union[Poly, Coefficients] = 0, denom_power: int = 0):
        self.model = model
        # A Poly is re-embedded in t; anything else is read as coefficients.
        alpha, beta = (with_context(p, model.tvars) if isinstance(p, Poly) else t_poly(p)
                       for p in (alpha, beta))
        if denom_power < 0:
            raise ValueError("denom_power must be nonnegative")
        if model.parity == "even" and denom_power:
            raise ValueError("even elements carry no (t+c) denominator")
        if alpha.is_zero and beta.is_zero:
            denom_power = 0
        (self.alpha, self.beta), self.denom_power = cancel_poles(
            [alpha, beta], "t", -(model.c or 0), denom_power)

    @property
    def is_zero(self) -> bool:
        return self.alpha.is_zero and self.beta.is_zero

    def lift(self, m: int) -> Tuple[Poly, Poly]:
        """Numerator pair rescaled to denominator (t+c)^m."""
        d = m - self.denom_power
        if d < 0:
            raise ValueError("cannot lower a denominator")
        if d == 0:
            return self.alpha, self.beta
        tau = t_poly(self.model.tau) ** d
        return self.alpha * tau, self.beta * tau

    def _coerce(self, other) -> "CurveElement":
        if isinstance(other, CurveElement):
            check_models(self.model, other.model)
            return other
        if isinstance(other, Poly):
            return CurveElement(self.model, other)
        if isinstance(other, (int, Fraction)):
            return CurveElement(self.model, rat(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "CurveElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = max(self.denom_power, other.denom_power)
        a1, b1 = self.lift(m)
        a2, b2 = other.lift(m)
        return CurveElement(self.model, a1 + a2, b1 + b2, m)

    __radd__ = __add__

    def __neg__(self) -> "CurveElement":
        return CurveElement(self.model, -self.alpha, -self.beta, self.denom_power)

    def __sub__(self, other) -> "CurveElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CurveElement":
        return (-self) + other

    def __mul__(self, other) -> "CurveElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, a2, b2 = self.alpha, self.beta, other.alpha, other.beta
        # (a1 + b1 z)(a2 + b2 z) with z = tau x, so z^2 = Q z + tau P
        const = a1 * a2 + b1 * b2 * t_poly(self.model.tau) * t_poly(self.model.P)
        lin = a1 * b2 + a2 * b1 + b1 * b2 * t_poly(self.model.Q)
        return CurveElement(self.model, const, lin, self.denom_power + other.denom_power)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CurveElement":
        if n < 0:
            raise ValueError("negative power")
        out = one(self.model)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.alpha == other.alpha and self.beta == other.beta
                and self.denom_power == other.denom_power)

    def x_parts(self) -> Tuple[Poly, Poly, int]:
        """(A, B, m) with the element equal to (A + B * x) / (t+c)^m."""
        if self.model.parity == "even":
            return self.alpha, self.beta, 0
        return self.alpha, self.beta * t_poly(self.model.tau), self.denom_power

    def __str__(self) -> str:
        gen = "x" if self.model.parity == "even" else "z"
        if self.beta.is_zero:
            core = str(self.alpha)
        elif self.alpha.is_zero:
            core = f"({self.beta})*{gen}"
        else:
            core = f"({self.alpha}) + ({self.beta})*{gen}"
        if self.denom_power:
            tau = f"(t + {self.model.c})" if self.model.c else "t"
            return f"[{core}] / {tau}^{self.denom_power}"
        return core

    def __repr__(self) -> str:
        return f"CurveElement({self})"


def zero(model: CurveModel) -> CurveElement:
    return CurveElement(model, 0)


def one(model: CurveModel) -> CurveElement:
    return CurveElement(model, 1)


def t_elem(model: CurveModel, power: int = 1) -> CurveElement:
    return CurveElement(model, Poly.var(model.tvars, "t") ** power)


def x_elem(model: CurveModel) -> CurveElement:
    if model.parity == "even":
        return CurveElement(model, 0, 1)
    return CurveElement(model, 0, 1, denom_power=1)


def defining_poly(model: CurveModel) -> Poly:
    """F(t, x) = tau x^2 - Q x - P over ("t", "x"), so the curve is F = 0;
    tau is 1 (even) or t + c (odd)."""
    ctx = ("t", "x")
    x = Poly.var(ctx, "x")
    tau, Q, P = (with_context(p, ctx)
                 for p in (t_poly(model.tau), t_poly(model.Q), t_poly(model.P)))
    return tau * x * x - Q * x - P


def reduce(model: CurveModel, numerator: Union[Poly, RationalLike],
           denominator: Union[Poly, RationalLike, None] = None) -> CurveElement:
    """Normal form of a raw polynomial expression in t and x.

    The numerator may be a Poly over any variable tuple containing the
    variables it uses (t and x).  An optional
    denominator must be a nonzero rational multiple of a power of (t+c)
    in the odd parity, or a nonzero rational in the even parity;
    anything else raises DivisionByNonUnit.
    """
    ctx = ("t", "x")
    if isinstance(numerator, Poly):
        numerator = with_context(numerator, ctx)
    else:
        numerator = Poly.const(ctx, rat(numerator))
    buckets = numerator.as_univar("x")
    x = x_elem(model)
    out = zero(model)
    if buckets:
        # Horner in x over the t-coefficient ring
        for power in range(max(buckets), -1, -1):
            coeff = buckets.get(power)
            term = CurveElement(model, with_context(coeff, model.tvars)) if coeff else zero(model)
            out = out * x + term
    if denominator is None:
        return out
    if isinstance(denominator, Poly):
        den = with_context(denominator, model.tvars)
    else:
        den = Poly.const(model.tvars, rat(denominator))
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    m = 0
    if model.parity == "odd":
        m = den.degree_in("t")
        (den,), left = cancel_poles([den], "t", -model.c, m)
        m -= left
    if any(any(expo) for expo in den.terms):
        raise DivisionByNonUnit(f"denominator {denominator} is not a unit times (t+c)^m")
    unit = den.coeff((0,) * len(den.vars))
    if not unit:
        raise DivisionByNonUnit("denominator has zero unit part")
    inv = Fraction(1) / unit
    return CurveElement(model, out.alpha * inv, out.beta * inv, out.denom_power + m)


def curve_derivation(e: CurveElement) -> CurveElement:
    """The canonical derivation, extended by Leibniz and the quotient rule.

    Generator rules: D(t) = 2x - Q and D(x) = P' + Q'x in the even
    parity; D(t) = 2(t+c)x - Q and D(x) = P' + Q'x - x^2 in the odd one.
    """
    model = e.model
    a, b, m = e.alpha, e.beta, e.denom_power
    Q, P = t_poly(model.Q), t_poly(model.P)
    da = derivative(a, "t")
    db = derivative(b, "t")
    dQ = derivative(Q, "t")
    dP = derivative(P, "t")
    if model.parity == "even":
        const = -da * Q + 2 * db * P + b * dP
        lin = 2 * da + db * Q + b * dQ
        return CurveElement(model, const, lin)
    tau = t_poly(model.tau)
    const = tau * (2 * db * tau * P + b * P + b * tau * dP - da * Q) - m * (2 * b * tau * P - a * Q)
    lin = tau * (2 * da + db * Q + b * dQ) - m * (2 * a + b * Q)
    return CurveElement(model, const, lin, m + 1)


def basis_elements(model: CurveModel) -> List[CurveElement]:
    """The section basis 1, t, ..., t^k, x, t x, ..., t^(dim - k - 2) x of
    the model's level k."""
    k = model.k_param
    out = [t_elem(model, i) for i in range(k + 1)]
    cur = x_elem(model)
    for _ in range(dimension(model.parity, k) - k - 1):
        out.append(cur)
        cur = cur * t_elem(model)
    return out


def element_from_coords(model: CurveModel, coords: Sequence[RationalLike]) -> CurveElement:
    basis = basis_elements(model)
    if len(coords) != len(basis):
        raise ValueError(f"expected {len(basis)} coordinates")
    out = zero(model)
    for c, e in zip(coords, basis):
        c = rat(c)
        if c:
            out = out + CurveElement(model, c) * e
    return out


def membership_extract(e: CurveElement) -> List[Fraction]:
    """Coordinates of e in the section basis of its model's level k;
    NotInSpace when it fails.

    Works through the x-representation: the element must equal
    a(t) + b(t) x with deg a <= k and deg b <= k-2 (even) or k-1 (odd),
    after the (t+c)^m pole cancels exactly.
    """
    model = e.model
    k, dim = model.k_param, dimension(model.parity, model.k_param)
    A, B, m = e.x_parts()
    if m:
        root = -model.c
        A, ra = poly_div_linear_power(A, "t", root, m)
        B, rb = poly_div_linear_power(B, "t", root, m)
        bad = [str(r) for r in (ra, rb) if not r.is_zero]
        if bad:
            raise NotInSpace(f"pole part does not cancel: remainder(s) {', '.join(bad)}")
    coords = [Fraction(0)] * dim
    for poly, offset, dmax, tag in ((A, 0, k, ""), (B, k + 1, dim - k - 2, "*x")):
        if poly.is_zero:
            continue
        try:
            cs = coeffs_univar(poly, "t")
        except ValueError:
            raise NotInSpace(f"coefficients of {poly} are not numeric in t")
        excess = [f"t^{i}{tag}" for i, cf in enumerate(cs) if cf and i > dmax]
        if excess:
            raise NotInSpace(f"terms outside the basis: {', '.join(excess)}")
        for i, cf in enumerate(cs):
            if cf:
                coords[offset + i] = cf
    return coords


def section_coords(e: CurveElement) -> Tuple[Dict[Slot, Fraction], Optional[str]]:
    """Coordinates of e by slot (u, i) for t^i x^u, each x-block divided
    by (t+c)^m, with a description of the nonzero pole remainders, if any."""
    A, B, m = e.x_parts()
    coords: Dict[Slot, Fraction] = {}
    poles = []
    for u, block in ((0, A), (1, B)):
        q, r = poly_div_linear_power(block, "t", -(e.model.c or 0), m)
        if not r.is_zero:
            poles.append(f"{'x' if u else '1'} block {r}")
        for (i,), val in q.terms.items():
            coords[(u, i)] = val
    return coords, ", ".join(poles) or None
