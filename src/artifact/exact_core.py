"""Exact arithmetic kernel: rationals and sparse multivariate polynomials
with rational coefficients, with synthetic division by linear factors.

Everything here is immutable after construction and exact; there is no
floating point in this module or anywhere downstream of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

RationalLike = Union[Fraction, int, str]


class VariableContextMismatch(ValueError):
    """Arithmetic between polynomials over different variable tuples."""


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def rat_str(value: RationalLike) -> str:
    """Serialize a rational as "p/q" in lowest terms with q > 0."""
    q = rat(value)
    return f"{q.numerator}/{q.denominator}"


def _grlex_key(expo: Tuple[int, ...]) -> Tuple:
    return (sum(expo), expo)


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
    identity of the ring: mixing contexts raises VariableContextMismatch
    rather than guessing an embedding.
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

    @classmethod
    def _raw(cls, variables: Tuple[str, ...], terms: Dict[Tuple[int, ...], Fraction]) -> "Poly":
        """Poly over `variables` taking `terms` as they are: tuple exponents
        of the right width and nonzero Fraction coefficients."""
        out = object.__new__(cls)
        object.__setattr__(out, "vars", variables)
        object.__setattr__(out, "terms", terms)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, variables: Sequence[str], value: RationalLike) -> "Poly":
        variables = tuple(variables)
        v = rat(value)
        if not v:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): v})

    @classmethod
    def var(cls, variables: Sequence[str], name: str, power: int = 1) -> "Poly":
        variables = tuple(variables)
        expo = [0] * len(variables)
        expo[variables.index(name)] = power
        return cls(variables, {tuple(expo): Fraction(1)})

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[RationalLike], variables: Sequence[str], name: Optional[str] = None) -> "Poly":
        """Univariate polynomial from an ascending coefficient list."""
        variables = tuple(variables)
        name = name if name is not None else variables[0]
        slot = variables.index(name)
        terms = {}
        for power, c in enumerate(coeffs):
            expo = [0] * len(variables)
            expo[slot] = power
            terms[tuple(expo)] = rat(c)
        return cls(variables, terms)

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        slot = self.vars.index(name)
        return max(e[slot] for e in self.terms)

    def coeff(self, expo: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def sorted_terms(self) -> List[Tuple[Tuple[int, ...], Fraction]]:
        """Terms in descending graded-lex order (canonical iteration order)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def coeffs_univar(self, name: Optional[str] = None) -> List[Fraction]:
        """Ascending dense coefficient list; the polynomial must involve no
        variable other than `name`."""
        name = name if name is not None else self.vars[0]
        slot = self.vars.index(name)
        for expo in self.terms:
            if any(e and i != slot for i, e in enumerate(expo)):
                raise ValueError(f"{self} is not univariate in {name}")
        deg = self.degree_in(name)
        out = [Fraction(0)] * (deg + 1)
        for expo, c in self.terms.items():
            out[expo[slot]] = c
        return out if out else [Fraction(0)]

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
                raise VariableContextMismatch(f"{self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.vars, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            s = terms.get(expo, Fraction(0)) + c
            if s:
                terms[expo] = s
            else:
                terms.pop(expo, None)
        return Poly._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return Poly._raw(self.vars, {e: k * c for e, k in self.terms.items()} if c else {})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Integer numerators over each operand's common denominator; one
        # Fraction per output term.
        den1, nums1 = clear_denominators(self.terms.values())
        den2, nums2 = clear_denominators(other.terms.values())
        sums: Dict[Tuple[int, ...], int] = {}
        for e1, n1 in zip(self.terms, nums1):
            for e2, n2 in zip(other.terms, nums2):
                expo = tuple(map(add, e1, e2))
                sums[expo] = sums.get(expo, 0) + n1 * n2
        den = den1 * den2
        return Poly._raw(self.vars, {e: Fraction(s, den) for e, s in sums.items() if s})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = self if n else Poly.const(self.vars, 1)
        for _ in range(n - 1):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # -- calculus, evaluation and renaming ------------------------------

    def derivative(self, name: str) -> "Poly":
        slot = self.vars.index(name)
        terms = {}
        for expo, c in self.terms.items():
            p = expo[slot]
            if p:
                reduced = expo[:slot] + (p - 1,) + expo[slot + 1:]
                terms[reduced] = terms.get(reduced, Fraction(0)) + c * p
        return Poly(self.vars, terms)

    def eval_all(self, point: Dict[str, RationalLike]) -> Fraction:
        """Full evaluation at a rational point."""
        acc = Fraction(0)
        vals = {n: rat(v) for n, v in point.items()}
        for expo, c in self.terms.items():
            term = c
            for slot, power in enumerate(expo):
                if power:
                    term *= vals[self.vars[slot]] ** power
            acc += term
        return acc

    def with_context(self, variables: Sequence[str], rename: Optional[Dict[str, str]] = None) -> "Poly":
        """Re-embed into another variable tuple.

        Each variable goes to the variable of the same name, or to
        rename[name]; exponents sent to one target add, so renaming t1 and
        t2 to t restricts to the diagonal.  A variable this polynomial uses
        must have a target.
        """
        variables = tuple(variables)
        rename = rename or {}
        positions = []
        for slot, name in enumerate(self.vars):
            target = rename.get(name, name)
            if target in variables:
                positions.append(variables.index(target))
            else:
                if any(e[slot] for e in self.terms):
                    raise VariableContextMismatch(f"{name} has no target in {variables}")
                positions.append(None)
        terms = {}
        for expo, c in self.terms.items():
            new = [0] * len(variables)
            for slot, power in enumerate(expo):
                if power:
                    new[positions[slot]] += power
            terms[tuple(new)] = terms.get(tuple(new), Fraction(0)) + c
        return Poly(variables, terms)

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo, c in self.sorted_terms():
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


def poly_divmod_linear(p: Poly, name: str, root: Union[Poly, RationalLike]) -> Tuple[Poly, Poly]:
    """Divide by the monic linear factor (name - root).

    The root is a rational or a Poly of p's context free of `name`.
    Synthetic division on the `name`-coefficients (which may involve the
    other variables).  Returns (quotient, remainder); the remainder is free
    of `name`.
    """
    if isinstance(root, Poly):
        if root.degree_in(name) > 0:
            raise ValueError(f"root {root} involves {name}")
    else:
        root = rat(root)
    buckets = p.as_univar(name)
    if not buckets:
        return Poly(p.vars), Poly(p.vars)
    top = max(buckets)
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
    return Poly._raw(p.vars, terms), remainder
