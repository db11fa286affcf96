"""Exact arithmetic kernel: rationals and sparse multivariate polynomials
with rational coefficients, with synthetic division by linear factors.

Everything here is immutable after construction and exact; there is no
floating point in this module or anywhere downstream of it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational.

    ValueError on anything else, a bool or a zero denominator included:
    Fraction would also read bools, floats, Decimals, decimal strings and
    exponents, the last with 10**exp computed with no digit limit."""
    if isinstance(value, Fraction):
        return value
    if (isinstance(value, int) and not isinstance(value, bool)) or (
            isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", value.strip())):
        return Fraction(value)
    raise ValueError(f"cannot read {value!r} as an integer or p/q")


def rat_str(value: RationalLike) -> str:
    """Serialize a rational as "p/q" in lowest terms with q > 0."""
    q = rat(value)
    return f"{q.numerator}/{q.denominator}"


def clear_denominators(values: Iterable[Union[int, Fraction]]) -> Tuple[int, List[int]]:
    """The lcm d of the denominators and the values times d, as ints."""
    values = list(values)
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


class Poly:
    """Sparse polynomial with rational coefficients over a fixed tuple of
    variables.

    Terms live in a dict mapping exponent tuples to nonzero coefficients;
    zero coefficients are never stored.  The variable tuple is part of the
    identity of the ring: mixing contexts raises ValueError rather than
    guessing an embedding, and an operand that is neither a Poly nor an
    int or Fraction raises TypeError.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Optional[Dict[Tuple[int, ...], RationalLike]] = None):
        object.__setattr__(self, "vars", tuple(variables))
        clean: Dict[Tuple[int, ...], Fraction] = {}
        if terms:
            width = len(self.vars)
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != width:
                    raise ValueError(f"exponent {expo} does not fit variables {self.vars}")
                c = rat(coeff)
                if c:
                    clean[expo] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, variables: Sequence[str], value: RationalLike) -> "Poly":
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "Poly":
        variables = tuple(variables)
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return cls(variables, {tuple(expo): Fraction(1)})

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, name: str) -> int:
        slot = self.vars.index(name)
        return max((e[slot] for e in self.terms), default=-1)

    def coeff(self, expo: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def as_univar(self, name: str) -> Dict[int, "Poly"]:
        """View as a polynomial in `name` with Poly coefficients (same
        context, exponent of `name` cleared)."""
        slot = self.vars.index(name)
        buckets: Dict[int, Dict[Tuple[int, ...], Fraction]] = {}
        for expo, c in self.terms.items():
            power = expo[slot]
            reduced = expo[:slot] + (0,) + expo[slot + 1:]
            buckets.setdefault(power, {})[reduced] = c
        return {p: Poly(self.vars, t) for p, t in buckets.items()}

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError(f"variable contexts differ: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.vars, other)
        raise TypeError(f"cannot combine a Poly with {type(other).__name__}")

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            terms[expo] = terms.get(expo, 0) + c
        return Poly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(map(add, e1, e2))
                terms[expo] = terms.get(expo, 0) + c1 * c2
        return Poly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = self if n else Poly.const(self.vars, 1)
        for _ in range(n - 1):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        grlex = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        for expo, c in grlex:
            factors = []
            for slot, power in enumerate(expo):
                if power == 1:
                    factors.append(self.vars[slot])
                elif power > 1:
                    factors.append(f"{self.vars[slot]}^{power}")
            body = "*".join(factors)
            if not body:
                piece = str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = f"-{body}"
            else:
                piece = f"{c}*{body}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def poly_divmod_linear(p: Poly, name: str, root: Poly) -> Tuple[Poly, Poly]:
    """Divide by the monic linear factor (name - root).

    The root is a Poly of p's context free of `name`.  Synthetic division
    on the `name`-coefficients (which may involve the other variables).
    Returns (quotient, remainder); the remainder is free of `name`.
    """
    if root.degree_in(name) > 0:
        raise ValueError(f"root {root} involves {name}")
    buckets = p.as_univar(name)
    top = max(buckets, default=0)
    zero = Poly(p.vars)
    acc = zero
    slot = p.vars.index(name)
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for power in range(top, 0, -1):
        acc = buckets.get(power, zero) + acc * root
        # acc is free of `name`: setting its exponent places each term.
        for expo, c in acc.terms.items():
            terms[expo[:slot] + (power - 1,) + expo[slot + 1:]] = c
    remainder = buckets.get(0, zero) + acc * root
    return Poly(p.vars, terms), remainder
