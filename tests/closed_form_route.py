"""Closed-form brackets at n = 3 and n = 4, kept as test oracles.

For small n the Feigin-Odesskii brackets q_{n,1}(C) have classical closed
forms that owe nothing to the library's assembly:

- q_{3,1}(C) of a plane cubic f = 0 is the Jacobian bracket
  {x_i, x_j} = eps_ijk d_k f;
- q_{4,1}(C) of C = {g1 = g2 = 0} in P^3 is the Sklyanin bracket
  {x_i, x_j} = eps_ijkl d_k g1 d_l g2 (Sklyanin, Funct. Anal. Appl. 16,
  1982; Odesskii, Russian Math. Surveys 57, 2002).

The coordinates are the sections in section_slots order: (1, t, x) for
odd k = 1 and (1, t, t^2, x) for even k = 2.  There the curve
(t + c) x^2 = Q x + P is the cubic odd_cubic, and x^2 = Q x + P is cut out
of the quadric cone g1 = X0 X2 - X1^2, the image of F_2, by the quadric
even_quadric.  Brackets are compared projectively, as lifts scaled by
their first coefficient (normalized_lift).  Needs sympy.
"""

from fractions import Fraction
from typing import Dict, Sequence, Tuple

import sympy

from artifact.bracket_forge import BracketTensor
from artifact.exact_core import RationalLike
from artifact.poisson_verify import _lift, _matrix_rank

X = sympy.symbols("X0:4")
Row = Dict[Tuple[Tuple[int, int], Tuple[int, int]], int]


def odd_cubic(c: RationalLike, Q: Sequence[RationalLike], P: Sequence[RationalLike]) -> sympy.Expr:
    """The curve (t + c) x^2 = Q x + P of odd k = 1 in the coordinates (1, t, x)."""
    x0, x1, x2 = X[:3]
    c, (q0, q1, q2), (p0, p1, p2, p3) = sympy.sympify((c, tuple(Q), tuple(P)))
    return ((x1 + c * x0) * x2 ** 2 - x2 * (q0 * x0 ** 2 + q1 * x0 * x1 + q2 * x1 ** 2)
            - (p0 * x0 ** 3 + p1 * x0 ** 2 * x1 + p2 * x0 * x1 ** 2 + p3 * x1 ** 3))


def cone() -> sympy.Expr:
    """The quadric cone X0 X2 = X1^2 that (1, t, t^2) sweeps out."""
    return X[0] * X[2] - X[1] ** 2


def even_quadric(Q: Sequence[RationalLike], P: Sequence[RationalLike]) -> sympy.Expr:
    """The quadric that cuts x^2 = Q x + P of even k = 2 out of the cone,
    in the coordinates (1, t, t^2, x)."""
    x0, x1, x2, x3 = X
    (q0, q1, q2), (p0, p1, p2, p3, p4) = sympy.sympify((tuple(Q), tuple(P)))
    return (x3 ** 2 - x3 * (q0 * x0 + q1 * x1 + q2 * x2)
            - (p0 * x0 ** 2 + p1 * x0 * x1 + p2 * x0 * x2 + p3 * x1 * x2 + p4 * x2 ** 2))


def _tensor(parity: str, k: int, n: int, entry) -> BracketTensor:
    """The tensor whose (a, b) form is the quadratic polynomial entry(a, b)."""
    pi = {}
    for a in range(n):
        for b in range(a + 1, n):
            form = {}
            for expo, coeff in sympy.Poly(sympy.expand(entry(a, b)), *X[:n]).terms():
                if coeff:
                    u, v = (i for i, e in enumerate(expo) for _ in range(e))
                    form[(u, v)] = Fraction(int(coeff.p), int(coeff.q))
            pi[(a, b)] = form
    return BracketTensor(parity, k, n, pi)


def jacobian_bracket(f: sympy.Expr) -> BracketTensor:
    """{x_i, x_j} = eps_ijk d_k f of a cubic f, as an odd k = 1 tensor."""
    return _tensor("odd", 1, 3, lambda a, b: sum(
        sympy.LeviCivita(a, b, c) * sympy.diff(f, X[c]) for c in range(3)))


def sklyanin_bracket(g1: sympy.Expr, g2: sympy.Expr) -> BracketTensor:
    """{x_i, x_j} = eps_ijkl d_k g1 d_l g2 of two quadrics, as an even k = 2 tensor."""
    return _tensor("even", 2, 4, lambda a, b: sum(
        sympy.LeviCivita(a, b, c, d) * sympy.diff(g1, X[c]) * sympy.diff(g2, X[d])
        for c in range(4) for d in range(4)))


def _lifted_row(T: BracketTensor) -> Row:
    """The lift of T as one integer row keyed by (pair, monomial)."""
    return {(pair, mono): val for pair, form in _lift(T)[1].items()
            for mono, val in form.items()}


def normalized_lift(T: BracketTensor) -> Dict:
    """The lift of T divided by its first coefficient: equal for two
    tensors exactly when they agree projectively up to a nonzero factor.
    Empty for a radial T."""
    row = _lifted_row(T)
    first = row[min(row)] if row else 1
    return {key: Fraction(val, first) for key, val in row.items()}


def span_rank(tensors: Sequence[BracketTensor]) -> int:
    """Dimension of the span of the tensors as projective bivectors."""
    rows = [_lifted_row(T) for T in tensors]
    keys = sorted({key for row in rows for key in row})
    return _matrix_rank([[row.get(key, 0) for key in keys] for row in rows])
