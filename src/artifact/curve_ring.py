"""Genus-one plane curve models, the section basis and the Szego residue
certificate.

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

Curves are numeric: a model keeps tau, Q and P of tau x^2 = Q x + P as
tuples of their rational coefficients in t, tau = (1,) even or (c, 1)
odd (c is None in the even parity, which has no pole), and forms the
polynomial R only when it is read.  The module owns the shape rules
every other module reads: Q_LEN and P_LEN bound the coefficients of Q and
P (only the model checks them: shorter lists are padded with zeros), and
section_slots(parity, k) orders the level-k section basis, of size
dimension(parity, k), that all its curves share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

from .exact_core import Poly, RationalLike, rat, rat_str


class DegenerateDivisor(ValueError):
    """The divisor at infinity is not a pair of distinct points."""


# Q or P as given: one coefficient, or an ascending list of them.
Coefficients = Union[Sequence[RationalLike], RationalLike]

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


class CurveModel:
    """One plane curve in either parity, with its derived data.

    `k_param` selects the section space (see dimension).  Q and P are the
    ascending coefficient tuples of numeric polynomials in t, of lengths
    Q_LEN and P_LEN[parity]: a scalar or a short list is padded with
    zeros, and a longer list is refused: the one check of those lengths.
    """

    tvars = ("t",)

    def __init__(self, parity: str, k_param: int, Q: Coefficients, P: Coefficients,
                 c: Optional[RationalLike] = None):
        dimension(parity, k_param)  # raises on a bad parity or k
        self.parity = parity
        self.k_param = k_param
        q, p = ([rat(v) for v in (x if isinstance(x, (list, tuple)) else [x])] for x in (Q, P))
        for name, coeffs, size, where in (("Q", q, Q_LEN, ""),
                                          ("P", p, P_LEN[parity], f" in the {parity} parity")):
            if len(coeffs) > size:
                raise ValueError(f"deg {name} must be at most {size - 1}{where}: "
                                 f"got {len(coeffs)} coefficients, at most {size} allowed")
            coeffs += [Fraction(0)] * (size - len(coeffs))
        self.Q, self.P = tuple(q), tuple(p)
        if parity == "even":
            if c not in (None, 0):
                raise ValueError("the even parity has no pole parameter c")
            self.c, self.tau = None, (Fraction(1),)
        else:
            self.c = rat(0 if c is None else c)
            self.tau = (self.c, Fraction(1))

    @classmethod
    def even(cls, k_param: int, Q: Coefficients, P: Coefficients) -> "CurveModel":
        return cls("even", k_param, Q, P)

    @classmethod
    def odd(cls, k_param: int, c: RationalLike, Q: Coefficients, P: Coefficients) -> "CurveModel":
        return cls("odd", k_param, Q, P, c=c)

    @property
    def R(self) -> Poly:
        """R = tau P + Q^2/4 of w^2 = R(t), formed when read."""
        tau, q, p = (Poly(self.tvars, {(i,): v for i, v in enumerate(part)})
                     for part in (self.tau, self.Q, self.P))
        return tau * p + q * q * Fraction(1, 4)

    def __repr__(self) -> str:
        return f"CurveModel({self.to_json()})"

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "parity": self.parity,
            "k": self.k_param,
            "Q": [rat_str(v) for v in self.Q],
            "P": [rat_str(v) for v in self.P],
        }
        if self.c is not None:
            out["c"] = rat_str(self.c)
        return out


def section_slots(parity: str, k: int) -> Dict[Tuple[int, int], int]:
    """{slot (u, i) of t^i x^u: basis index} of the level-k section basis,
    in basis order: the one copy of that order.

    Even basis: 1, t, ..., t^k, x, t x, ..., t^(k-2) x (dimension 2k).
    Odd basis:  1, t, ..., t^k, x, t x, ..., t^(k-1) x (dimension 2k+1).
    """
    x_deg_max = dimension(parity, k) - k - 2
    keys = [(0, i) for i in range(k + 1)] + [(1, j) for j in range(x_deg_max + 1)]
    return {slot: index for index, slot in enumerate(keys)}


class ResidueCertificate(NamedTuple):
    """Outcome of the Szego kernel residue checks for one curve."""

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
    return ResidueCertificate(Fraction(1), (half, half))
