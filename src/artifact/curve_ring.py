"""Genus-one plane curve models, their section spaces and the Szego
residue certificate.

Two chart parities are supported.  The even model is the affine curve
x^2 = Q(t) x + P(t) with deg Q <= 2, deg P <= 4; the odd model is
(t+c) x^2 = Q(t) x + P(t) with deg P <= 3.  In the odd parity the
combination z := (t+c) x satisfies z^2 = Q z + (t+c) P, so both parities
reduce to w^2 = R(t) for w := x - Q/2 (even) or w := z - Q/2 (odd),
where R := P + Q^2/4 resp. (t+c) P + Q^2/4.

The module keeps no type for curve functions: bracket_forge reads both
terms of the bracket assembly, the algebraic Szego kernel
S = (w1 + w2)/(t1 - t2) and the canonical derivation, off x-coordinates
of basis monomials in closed form.  The residues of S are proved in
closed form here.

Curves are numeric: Q and P have rational coefficients in t.  The module
owns the shape rules every other module reads: Q_LEN and P_LEN count the
coefficients of Q and P, and dimension(parity, k) is the size of the
level-k section space.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exact_core import Poly, RationalLike, rat, rat_str


class DegenerateDivisor(ValueError):
    """The divisor at infinity is not a pair of distinct points."""


PolyLike = Union[Poly, Sequence[RationalLike], RationalLike]

# Coefficients of Q (deg <= 2) and of P (deg <= 4 even, <= 3 odd).
Q_LEN = 3
P_LEN = {"even": 5, "odd": 4}


def dimension(parity: str, k: int) -> int:
    """Dimension of the level-k section space: 2k even, 2k + 1 odd.

    ValueError on an unknown parity or a k that is not an int >= 1."""
    if parity not in P_LEN:
        raise ValueError(f"unknown parity {parity!r}")
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return 2 * k + (parity == "odd")


def _coerce_t_poly(value: PolyLike, tvars: Tuple[str, ...]) -> Poly:
    if isinstance(value, Poly):
        return value.with_context(tvars)
    if isinstance(value, (list, tuple)):
        return Poly.from_coeffs(value, tvars, "t")
    return Poly.const(tvars, rat(value))


class CurveModel:
    """One plane curve in either parity, with its derived data.

    `k_param` selects the section space (see dimension).
    Q and P are numeric polynomials in t.
    """

    tvars = ("t",)

    def __init__(self, parity: str, k_param: int, Q: PolyLike, P: PolyLike,
                 c: Optional[RationalLike] = None):
        dimension(parity, k_param)  # raises on a bad parity or k
        self.parity = parity
        self.k_param = k_param
        self.Q = _coerce_t_poly(Q, self.tvars)
        self.P = _coerce_t_poly(P, self.tvars)
        if self.Q.degree_in("t") >= Q_LEN:
            raise ValueError(f"deg Q must be at most {Q_LEN - 1}")
        if self.P.degree_in("t") >= P_LEN[parity]:
            raise ValueError(f"deg P must be at most {P_LEN[parity] - 1} in the {parity} parity")
        if parity == "even":
            if c not in (None, 0):
                raise ValueError("the even parity has no pole parameter c")
            self.c = Fraction(0)
        else:
            self.c = rat(0 if c is None else c)
        self.R = self.tau_poly() * self.P + self.Q * self.Q * Fraction(1, 4)

    @classmethod
    def even(cls, k_param: int, Q: PolyLike, P: PolyLike) -> "CurveModel":
        return cls("even", k_param, Q, P)

    @classmethod
    def odd(cls, k_param: int, c: RationalLike, Q: PolyLike, P: PolyLike) -> "CurveModel":
        return cls("odd", k_param, Q, P, c=c)

    def tau_poly(self) -> Poly:
        """tau of the curve tau x^2 = Q x + P: 1 (even) or the linear
        factor t + c (odd), whose zero is the pole locus."""
        if self.parity == "even":
            return Poly.const(self.tvars, 1)
        return Poly.var(self.tvars, "t") + Poly.const(self.tvars, self.c)

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
        p_len = P_LEN[self.parity]
        qs = self.Q.coeffs_univar("t") + [Fraction(0)] * Q_LEN
        ps = self.P.coeffs_univar("t") + [Fraction(0)] * p_len
        out: Dict[str, object] = {
            "parity": self.parity,
            "k": self.k_param,
            "Q": [rat_str(q) for q in qs[:Q_LEN]],
            "P": [rat_str(p) for p in ps[:p_len]],
        }
        if self.parity == "odd":
            out["c"] = rat_str(self.c)
        return out


class SectionSpace:
    """Ordered basis of the level-k section space of a curve model.

    Even basis: 1, t, ..., t^k, x, t x, ..., t^(k-2) x (dimension 2k).
    Odd basis:  1, t, ..., t^k, x, t x, ..., t^(k-1) x (dimension 2k+1).
    slots maps the slot (u, i) of the monomial t^i x^u to its basis index,
    in basis order; it is the one copy of that order.
    """

    def __init__(self, model: CurveModel):
        self.model = model
        self.k = model.k_param
        self.dim = dimension(model.parity, self.k)
        self.x_deg_max = self.dim - self.k - 2
        keys = [(0, i) for i in range(self.k + 1)] + [(1, j) for j in range(self.x_deg_max + 1)]
        self.slots: Dict[Tuple[int, int], int] = {slot: index for index, slot in enumerate(keys)}

    def labels(self) -> List[str]:
        """Names of the basis monomials: 1, t, t^2, ..., x, t*x, t^2*x, ..."""
        names = []
        for u, i in self.slots:
            parts = ("" if i == 0 else "t" if i == 1 else f"t^{i}", "x" * u)
            names.append("*".join(part for part in parts if part) or "1")
        return names


class ResidueCertificate(NamedTuple):
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
    if not model.R.coeff((4,)):
        raise DegenerateDivisor("t^4 coefficient of R vanishes; divisor at infinity degenerates")
    half = Fraction(1, 2)
    return ResidueCertificate(model.parity, Fraction(1), (half, half))
