"""Genus-one plane curve models and their exact function arithmetic.

Two chart parities are supported.  The even model is the affine curve
x^2 = Q(t) x + P(t) with deg Q <= 2, deg P <= 4; the odd model is
(t+c) x^2 = Q(t) x + P(t) with deg P <= 3.  In the odd parity the
combination z := (t+c) x satisfies z^2 = Q z + (t+c) P, so both parities
reduce to w^2 = R(t) for w := x - Q/2 (even) or w := z - Q/2 (odd),
where R := P + Q^2/4 resp. (t+c) P + Q^2/4.

Curve functions are kept in a unique normal form: alpha + beta * x in the
even parity and (alpha + beta * z) / (t+c)^m with m minimal in the odd
parity.  The module also provides the canonical derivation, the section
spaces used downstream, and the residue certificate for the algebraic
Szego kernel S = (w1 + w2)/(t1 - t2), whose residues are proved in closed
form.  The kernel term of the bracket assembly is read off x-coordinates
in closed form by bracket_forge.

Curve coefficients may involve extra symbolic parameters (the `params`
tuple of the model); the residue certificate and coordinate extraction
require a fully numeric curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exact_core import (
    Poly,
    RationalLike,
    poly_div_linear_power,
    poly_divmod_linear,
    rat,
    rat_str,
)


class NotInSpace(ValueError):
    """An element does not lie in the requested section space."""


class DivisionByNonUnit(ArithmeticError):
    """A denominator other than a power of (t+c) was requested."""


class DegenerateDivisor(ValueError):
    """The divisor at infinity is not a pair of distinct points."""


PolyLike = Union[Poly, Sequence[RationalLike], RationalLike]


def _coerce_t_poly(value: PolyLike, tvars: Tuple[str, ...]) -> Poly:
    if isinstance(value, Poly):
        return value.with_context(tvars)
    if isinstance(value, (list, tuple)):
        return Poly.from_coeffs(value, tvars, "t")
    return Poly.const(tvars, rat(value))


class CurveModel:
    """One plane curve in either parity, with its derived data.

    `k_param` selects the default section space (dimension 2k even,
    2k+1 odd).  `params` lists extra symbolic coefficient variables.
    """

    def __init__(self, parity: str, k_param: int, Q: PolyLike, P: PolyLike,
                 c: Optional[RationalLike] = None, params: Sequence[str] = ()):
        if parity not in ("even", "odd"):
            raise ValueError(f"unknown parity {parity!r}")
        if k_param < 1:
            raise ValueError("k_param must be a positive integer")
        self.parity = parity
        self.k_param = int(k_param)
        self.params = tuple(params)
        self.tvars = ("t",) + self.params
        self.Q = _coerce_t_poly(Q, self.tvars)
        self.P = _coerce_t_poly(P, self.tvars)
        if self.Q.degree_in("t") > 2:
            raise ValueError("deg Q must be at most 2")
        pmax = 4 if parity == "even" else 3
        if self.P.degree_in("t") > pmax:
            raise ValueError(f"deg P must be at most {pmax} in the {parity} parity")
        if parity == "even":
            if c not in (None, 0):
                raise ValueError("the even parity has no pole parameter c")
            self.c = Fraction(0)
        else:
            self.c = rat(0 if c is None else c)
        quarter = Fraction(1, 4)
        if parity == "even":
            # z stands for x itself; z^2 = Q z + P
            self._zz = self.P
            self.R = self.P + self.Q * self.Q * quarter
        else:
            tau = self.tau_poly()
            self._zz = tau * self.P
            self.R = tau * self.P + self.Q * self.Q * quarter

    @classmethod
    def even(cls, k_param: int, Q: PolyLike, P: PolyLike, params: Sequence[str] = ()) -> "CurveModel":
        return cls("even", k_param, Q, P, params=params)

    @classmethod
    def odd(cls, k_param: int, c: RationalLike, Q: PolyLike, P: PolyLike,
            params: Sequence[str] = ()) -> "CurveModel":
        return cls("odd", k_param, Q, P, c=c, params=params)

    def tau_poly(self) -> Poly:
        """The linear factor t + c (odd parity pole locus)."""
        return Poly.var(self.tvars, "t") + Poly.const(self.tvars, self.c)

    def zero(self) -> "CurveElement":
        return CurveElement(self, 0)

    def one(self) -> "CurveElement":
        return CurveElement(self, 1)

    def t_elem(self, power: int = 1) -> "CurveElement":
        return CurveElement(self, Poly.var(self.tvars, "t", power))

    def x_elem(self) -> "CurveElement":
        if self.parity == "even":
            return CurveElement(self, 0, 1)
        return CurveElement(self, 0, 1, denom_power=1)

    def defining_poly(self) -> Poly:
        """F(t, x) with F = x^2 - Qx - P (even) or (t+c)x^2 - Qx - P (odd)."""
        ctx = ("t", "x") + self.params
        x = Poly.var(ctx, "x")
        Q = self.Q.with_context(ctx)
        P = self.P.with_context(ctx)
        if self.parity == "even":
            return x * x - Q * x - P
        tau = Poly.var(ctx, "t") + Poly.const(ctx, self.c)
        return tau * x * x - Q * x - P

    def _require_numeric(self, what: str) -> None:
        if self.params:
            raise ValueError(f"{what} requires a numeric curve, got parameters {self.params}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurveModel):
            return NotImplemented
        return (self.parity == other.parity and self.k_param == other.k_param
                and self.Q == other.Q and self.P == other.P and self.c == other.c)

    def __repr__(self) -> str:
        core = f"parity={self.parity}, k={self.k_param}, Q={self.Q}, P={self.P}"
        if self.parity == "odd":
            core += f", c={self.c}"
        return f"CurveModel({core})"

    def to_json(self) -> Dict[str, object]:
        self._require_numeric("serialization")
        pmax = 4 if self.parity == "even" else 3
        qs = self.Q.coeffs_univar("t") + [Fraction(0)] * 3
        ps = self.P.coeffs_univar("t") + [Fraction(0)] * (pmax + 1)
        out: Dict[str, object] = {
            "parity": self.parity,
            "k": self.k_param,
            "Q": [rat_str(q) for q in qs[:3]],
            "P": [rat_str(p) for p in ps[: pmax + 1]],
        }
        if self.parity == "odd":
            out["c"] = rat_str(self.c)
        return out


def _check_models(a: "CurveModel", b: "CurveModel") -> None:
    if a is not b and a != b:
        raise ValueError("elements belong to different curve models")


def _cancel_poles(numerators: List[Poly], var: str, root: RationalLike,
                  m: int) -> Tuple[List[Poly], int]:
    """Divide every numerator by (var - root) while all of them divide
    exactly, at most m times; returns the quotients and the order left."""
    while m > 0:
        quotients = []
        for p in numerators:
            q, r = poly_divmod_linear(p, var, root)
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

    def __init__(self, model: CurveModel, alpha: PolyLike, beta: PolyLike = 0, denom_power: int = 0):
        self.model = model
        alpha = _coerce_t_poly(alpha, model.tvars)
        beta = _coerce_t_poly(beta, model.tvars)
        if denom_power < 0:
            raise ValueError("denom_power must be nonnegative")
        if model.parity == "even" and denom_power:
            raise ValueError("even elements carry no (t+c) denominator")
        if alpha.is_zero and beta.is_zero:
            denom_power = 0
        (self.alpha, self.beta), self.denom_power = _cancel_poles(
            [alpha, beta], "t", -model.c, denom_power)

    @property
    def is_zero(self) -> bool:
        return self.alpha.is_zero and self.beta.is_zero

    def _lift(self, m: int) -> Tuple[Poly, Poly]:
        """Numerator pair rescaled to denominator (t+c)^m."""
        d = m - self.denom_power
        if d < 0:
            raise ValueError("cannot lower a denominator")
        if d == 0:
            return self.alpha, self.beta
        tau = self.model.tau_poly() ** d
        return self.alpha * tau, self.beta * tau

    def _coerce(self, other) -> "CurveElement":
        if isinstance(other, CurveElement):
            _check_models(self.model, other.model)
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
        a1, b1 = self._lift(m)
        a2, b2 = other._lift(m)
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
        # (a1 + b1 z)(a2 + b2 z) with z^2 = Q z + _zz
        const = a1 * a2 + b1 * b2 * self.model._zz
        lin = a1 * b2 + a2 * b1 + b1 * b2 * self.model.Q
        return CurveElement(self.model, const, lin, self.denom_power + other.denom_power)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CurveElement":
        if n < 0:
            raise ValueError("negative power")
        out = self.model.one()
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
        return self.alpha, self.beta * self.model.tau_poly(), self.denom_power

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


def reduce(model: CurveModel, numerator: Union[Poly, RationalLike],
           denominator: Union[Poly, RationalLike, None] = None) -> CurveElement:
    """Normal form of a raw polynomial expression in t and x.

    The numerator may be a Poly over any variable tuple containing the
    variables it uses (t, x and the model parameters).  An optional
    denominator must be a nonzero rational multiple of a power of (t+c)
    in the odd parity, or a nonzero rational in the even parity;
    anything else raises DivisionByNonUnit.
    """
    ctx = ("t", "x") + model.params
    if isinstance(numerator, Poly):
        numerator = numerator.with_context(ctx)
    else:
        numerator = Poly.const(ctx, rat(numerator))
    buckets = numerator.as_univar("x")
    x = model.x_elem()
    out = model.zero()
    if buckets:
        # Horner in x over the t-coefficient ring
        for power in range(max(buckets), -1, -1):
            coeff = buckets.get(power)
            term = CurveElement(model, coeff.with_context(model.tvars)) if coeff else model.zero()
            out = out * x + term
    if denominator is None:
        return out
    if isinstance(denominator, Poly):
        den = denominator.with_context(model.tvars)
    else:
        den = Poly.const(model.tvars, rat(denominator))
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    m = 0
    if model.parity == "odd":
        m = den.degree_in("t")
        (den,), left = _cancel_poles([den], "t", -model.c, m)
        m -= left
    if den.total_degree() > 0:
        raise DivisionByNonUnit(f"denominator {denominator} is not a unit times (t+c)^m")
    unit = den.constant_value()
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
    Q, P = model.Q, model.P
    da = a.derivative("t")
    db = b.derivative("t")
    dQ = Q.derivative("t")
    dP = P.derivative("t")
    if model.parity == "even":
        const = -da * Q + 2 * db * P + b * dP
        lin = 2 * da + db * Q + b * dQ
        return CurveElement(model, const, lin)
    tau = model.tau_poly()
    const = tau * (2 * db * tau * P + b * P + b * tau * dP - da * Q) - m * (2 * b * tau * P - a * Q)
    lin = tau * (2 * da + db * Q + b * dQ) - m * (2 * a + b * Q)
    return CurveElement(model, const, lin, m + 1)


class SectionSpace:
    """Ordered basis of the level-k section space of a curve model.

    Even basis: 1, t, ..., t^k, x, t x, ..., t^(k-2) x (dimension 2k).
    Odd basis:  1, t, ..., t^k, x, t x, ..., t^(k-1) x (dimension 2k+1).
    """

    def __init__(self, model: CurveModel, k: Optional[int] = None):
        self.model = model
        self.k = model.k_param if k is None else k
        if self.k < 1:
            raise ValueError("section level k must be positive")
        self.x_deg_max = self.k - 2 if model.parity == "even" else self.k - 1
        self.dim = (self.k + 1) + (self.x_deg_max + 1)

    def labels(self) -> List[str]:
        out = ["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, self.k + 1)]
        for j in range(self.x_deg_max + 1):
            out.append("x" if j == 0 else ("t*x" if j == 1 else f"t^{j}*x"))
        return out

    def basis_elements(self) -> List[CurveElement]:
        model = self.model
        out = [CurveElement(model, Poly.var(model.tvars, "t", i) if i else 1) for i in range(self.k + 1)]
        x = model.x_elem()
        t = model.t_elem()
        cur = x
        for j in range(self.x_deg_max + 1):
            out.append(cur)
            cur = cur * t
        return out

    def element_from_coords(self, coords: Sequence[RationalLike]) -> CurveElement:
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates")
        basis = self.basis_elements()
        out = self.model.zero()
        for c, e in zip(coords, basis):
            c = rat(c)
            if c:
                out = out + CurveElement(self.model, c) * e
        return out


def membership_extract(e: CurveElement, space: SectionSpace) -> List[Fraction]:
    """Coordinates of e in the section basis; NotInSpace when it fails.

    Works through the x-representation: the element must equal
    a(t) + b(t) x with deg a <= k and deg b <= k-2 (even) or k-1 (odd),
    after the (t+c)^m pole cancels exactly.
    """
    _check_models(e.model, space.model)
    model = e.model
    A, B, m = e.x_parts()
    if m:
        root = -model.c
        A, ra = poly_div_linear_power(A, "t", root, m)
        B, rb = poly_div_linear_power(B, "t", root, m)
        bad = [str(r) for r in (ra, rb) if not r.is_zero]
        if bad:
            raise NotInSpace(f"pole part does not cancel: remainder(s) {', '.join(bad)}")
    coords = [Fraction(0)] * space.dim
    for poly, offset, dmax, tag in ((A, 0, space.k, ""), (B, space.k + 1, space.x_deg_max, "*x")):
        if poly.is_zero:
            continue
        try:
            cs = poly.coeffs_univar("t")
        except ValueError:
            raise NotInSpace(f"coefficients of {poly} are not numeric in t")
        excess = [f"t^{i}{tag}" for i, cf in enumerate(cs) if cf and i > dmax]
        if excess:
            raise NotInSpace(f"terms outside the basis: {', '.join(excess)}")
        for i, cf in enumerate(cs):
            if cf:
                coords[offset + i] = cf
    return coords


@dataclass(frozen=True)
class ResidueCertificate:
    """Outcome of the Szego kernel residue checks for one curve."""

    parity: str
    diagonal: Fraction
    at_infinity: Tuple[Fraction, Fraction]


def verify_szego_residues(model: CurveModel) -> ResidueCertificate:
    """Certify the normalization of the Szego kernel on one curve.

    The residue of S = (w1 + w2)/(t1 - t2) along the diagonal is 1, and at
    each of the two points over t = infinity it is 1/2.  Both values hold
    on every curve whose R has a nonzero t^4 coefficient a (two distinct
    points at infinity), so that is the one condition checked; a = 0
    raises DegenerateDivisor.

    Proof.  The kernel is read against dt1/(2 w1).  On the diagonal
    w1 = w2 = w, the numerator is 2w, so the residue of
    (w1 + w2)/(2 w1) dt1/(t1 - t2) at t1 = t2 is 2w/2w = 1.  At infinity
    put t = 1/u.  On the branch s = +-1, w1 = s sqrt(a) h(u)/u^2 with h in
    Q[[u]] and h(0) = 1, because h^2 = R(1/u) u^4 / a has constant term 1.
    With the measure dt1/(t2 - t1) = du/(u (1 - t2 u)), the w1-part
    w1/(2 w1) * measure is du/(2u (1 - t2 u)), whose residue is exactly 1/2
    on each branch.  The w2-part w2 u/(2 s sqrt(a) h(u) (1 - t2 u)) du has
    valuation >= 1 in u, so its residue is 0.
    """
    model._require_numeric("residue certification")
    if not model.R.coeff((4,)):
        raise DegenerateDivisor("t^4 coefficient of R vanishes; divisor at infinity degenerates")
    half = Fraction(1, 2)
    return ResidueCertificate(model.parity, Fraction(1), (half, half))
