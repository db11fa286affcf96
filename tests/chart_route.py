"""Reference route for the projective checks, kept as a test oracle.

The library reads the Jacobi verdict and the independence rank off the
divergence-free lift pi~ = pi - (1/n) E ^ div pi over ints, and forms
E ^ only for the failure witness.  This module keeps the slower routes
they are cross-checked against: chart descent to the ratio coordinates
u_a = x_a/x_m over Fractions, the chart Jacobiator by the Leibniz rule,
the E ^ Jac(pi) wedge of the raw tensor on every component a < b < c < d,
the lift as the Fraction sum pi + E ^ (-div pi/n) of two tensors, and the
point rank on the dense n x n bracket matrix.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from artifact.bracket_forge import BracketTensor, FormDict
from artifact.exact_core import Poly, RationalLike, clear_denominators, rat
from artifact.poisson_verify import (IntForms, IntPoly, ZeroVector, _integer_forms,
                                     _integer_jacobiator, _matrix_rank, _point_rank)


def _chart_context(n: int, m: int) -> Tuple[str, ...]:
    return tuple(f"u{a}" for a in range(n) if a != m)


def _form_poly(form: FormDict, ctx: Tuple[str, ...], slot_of: Dict[int, int]) -> Poly:
    """The quadratic form with x_i -> ctx[slot_of[i]]; a coordinate missing
    from slot_of is set to 1, as x_m is on chart m."""
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for (u, v), val in form.items():
        expo = [0] * len(ctx)
        for idx in (u, v):
            if idx in slot_of:
                expo[slot_of[idx]] += 1
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + val
    return Poly(ctx, terms)


@dataclass(frozen=True)
class ChartBracket:
    """Structure functions of a descended bracket on one affine chart."""

    m: int
    n: int
    vars: Tuple[str, ...]
    funcs: Dict[Tuple[int, int], Poly]

    def structure(self, a: int, b: int) -> Poly:
        """{u_a, u_b} as a chart polynomial, sign included."""
        if a == b:
            return Poly(self.vars)
        if a < b:
            return self.funcs.get((a, b), Poly(self.vars))
        return -self.funcs.get((b, a), Poly(self.vars))

    @property
    def indices(self) -> List[int]:
        return [a for a in range(self.n) if a != self.m]


def descend_to_chart(T: BracketTensor, m: int) -> ChartBracket:
    """Bracket of the ratio coordinates u_a = x_a/x_m on chart m."""
    if not 0 <= m < T.n:
        raise ValueError(f"chart index {m} out of range")
    ctx = _chart_context(T.n, m)
    slot_of = {a: i for i, a in enumerate(idx for idx in range(T.n) if idx != m)}
    funcs: Dict[Tuple[int, int], Poly] = {}
    for a in range(T.n):
        if a == m:
            continue
        u_a = Poly.var(ctx, f"u{a}")
        for b in range(a + 1, T.n):
            if b == m:
                continue
            u_b = Poly.var(ctx, f"u{b}")
            poly = _form_poly(T.form(a, b), ctx, slot_of)
            poly = poly - u_a * _form_poly(T.form(m, b), ctx, slot_of)
            poly = poly + u_b * _form_poly(T.form(m, a), ctx, slot_of)
            if not poly.is_zero:
                funcs[(a, b)] = poly
    return ChartBracket(m, T.n, ctx, funcs)


def _chart_bracket_of(cb: ChartBracket, i: int, F: Poly) -> Poly:
    """{u_i, F} by the Leibniz rule from the structure functions."""
    out = Poly(cb.vars)
    for j in cb.indices:
        if j == i:
            continue
        dF = F.derivative(f"u{j}")
        if dF.is_zero:
            continue
        out = out + dF * cb.structure(i, j)
    return out


def jacobiator(cb: ChartBracket) -> Dict[Tuple[int, int, int], Poly]:
    """Jacobi obstruction J(u_a, u_b, u_c) on the chart for every a < b < c."""
    idxs = cb.indices
    table: Dict[Tuple[int, int, int], Poly] = {}
    for a, b, c in combinations(idxs, 3):
        J = _chart_bracket_of(cb, a, cb.structure(b, c))
        J = J + _chart_bracket_of(cb, b, cb.structure(c, a))
        J = J + _chart_bracket_of(cb, c, cb.structure(a, b))
        table[(a, b, c)] = J
    return table


def all_charts_jacobi_zero(T: BracketTensor) -> bool:
    """The chart Jacobiator vanishes on every standard chart."""
    return all(J.is_zero for m in range(T.n)
               for J in jacobiator(descend_to_chart(T, m)).values())


def chart_witness(T: BracketTensor) -> Optional[dict]:
    """First nonzero chart-0 Jacobiator entry in sorted order, or None."""
    J = jacobiator(descend_to_chart(T, 0))
    for key in sorted(J):
        if not J[key].is_zero:
            return {"chart": 0, "triple": key, "obstruction": str(J[key])}
    return None


def wedge_certificate(T: BracketTensor) -> bool:
    """E ^ Jac(pi) = 0 tested on every component a < b < c < d, on the raw
    tensor: the reference for the E ^ route that the library no longer
    takes for its verdict.  A triple missing from the Jacobiator is zero."""
    jac = dict(_integer_jacobiator(_integer_forms(T)[1], T.n))
    for quad in combinations(range(T.n), 4):
        wedge: IntPoly = {}
        for pos, a in enumerate(quad):
            sign = -1 if pos % 2 else 1
            shift = 8 ** a
            for mono, val in jac.get(quad[:pos] + quad[pos + 1:], {}).items():
                key = mono + shift
                wedge[key] = wedge.get(key, 0) + sign * val
        if any(wedge.values()):
            return False
    return True


def chart_rank(tensors: Sequence[BracketTensor], charts: Iterable[int] = (0,)) -> int:
    """Rank of the members' structure functions on the given charts, stacked
    into one Fraction row per member."""
    charts = tuple(charts)
    rows = [{(m, a, b, expo): val
             for m in charts
             for (a, b), poly in descend_to_chart(T, m).funcs.items()
             for expo, val in poly.terms.items()}
            for T in tensors]
    keys = sorted({key for row in rows for key in row})
    return _matrix_rank([[row.get(key, Fraction(0)) for key in keys] for row in rows])


def rank_at_point(T: BracketTensor, phi: Sequence) -> int:
    """The library's point rank of T at phi, on the integer forms of T."""
    return _point_rank(_integer_forms(T)[1], T.n, phi)


def euler_tensor(template: BracketTensor, matrix: Sequence[Sequence[RationalLike]]) -> BracketTensor:
    """Radial modification E ^ X for the linear field X_a = sum matrix[a][c] x_c.

    (E ^ X)^{ab} = x_a X_b - x_b X_a, so each nonzero matrix[b][c] adds
    x_a x_c to the (a, b) entry for every a != b.  Its lift is zero.
    """
    n = template.n
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix shape must match the tensor size")
    pi: Dict[Tuple[int, int], FormDict] = {}
    for b, row in enumerate(matrix):
        for c, val in enumerate(row):
            if not val:
                continue
            val = rat(val)
            for a in range(n):
                if a != b:
                    form = pi.setdefault((min(a, b), max(a, b)), {})
                    key = (min(a, c), max(a, c))
                    form[key] = form.get(key, Fraction(0)) + (val if a < b else -val)
    return BracketTensor(template.parity, template.k, template.n, pi, {"kind": "radial"})


def lift_via_euler(T: BracketTensor) -> Tuple[int, IntForms]:
    """The library's _lift by the Fraction route: the dense matrix of div pi,
    the tensor E ^ (-div pi/n) added to T, and the sum cleared to ints.  A
    term v x_u x_w of pi^{dc} adds v to div[c][w] if u = d and to div[c][u]
    if w = d."""
    n = T.n
    div: List[List[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), form in T.pi.items():
        for (u, w), v in form.items():
            for d, c, val in ((a, b, v), (b, a, -v)):
                if u == d:
                    div[c][w] += val
                if w == d:
                    div[c][u] += val
    return _integer_forms(T + euler_tensor(T, [[-x / n for x in row] for row in div]))


def dense_point_rank(forms: IntForms, n: int, phi: Sequence[RationalLike]) -> int:
    """The library's _point_rank on the dense n x n bracket matrix, every
    index of the hyperplane transverse to phi kept."""
    point = [rat(x) for x in phi]
    if not any(point):
        raise ZeroVector("rank evaluation needs a nonzero point")
    pt = clear_denominators(point)[1]
    M = [[0] * n for _ in range(n)]
    for (a, b), form in forms.items():
        val = sum(c * pt[u] * pt[v] for (u, v), c in form.items())
        M[a][b], M[b][a] = val, -val
    p = next(i for i, x in enumerate(pt) if x)
    others = [i for i in range(n) if i != p]
    return _matrix_rank([[pt[p] * M[i][j] - pt[j] * M[i][p] - pt[i] * M[p][j] for j in others]
                         for i in others])
