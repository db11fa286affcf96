"""Certification of bracket tensors: Jacobi, compatibility, ranks.

All checks run over exact rationals or integers.  A quadratic bivector pi
on the coordinate space descends to a Poisson bivector on projective
space exactly when the 4-vector E ^ [pi, pi] vanishes, E being the Euler
field: at a point x != 0, E ^ w = 0 says that w lies in x ^ (bivectors),
the kernel of the pushforward.  One integer routine reads the components
(E ^ V)^{0I} of a multivector V, and three checks share it: the Jacobi
and compatibility certificates (V the Jacobiator), the failure witness
(the first nonzero component at x_0 = 1, which is the Jacobiator of the
bracket on the affine chart x_0 = 1) and the independence rank (V = pi,
whose components at x_0 = 1 are the structure functions on that chart).
Modifications of a tensor along the radial direction (Euler terms) are
invisible to every check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exact_core import Poly, RationalLike, clear_denominators, poly_divmod_linear, rat, rat_str
from .bracket_forge import BracketTensor, FamilyBasis, FormDict


class ZeroVector(ValueError):
    """A nonzero coordinate vector was required."""


def _form_poly(form: FormDict, ctx: Tuple[str, ...]) -> Poly:
    """The quadratic form with x_i -> ctx[i]."""
    return Poly(ctx, {tuple((u == i) + (v == i) for i in range(len(ctx))): val
                      for (u, v), val in form.items()})


class RankReport(NamedTuple):
    """Outcome of a pointwise rank scan of one bracket tensor."""

    seed: int
    points: Tuple[Tuple[Fraction, ...], ...]
    ranks: Tuple[int, ...]
    histogram: Dict[int, int]
    generic_rank: int
    flagged: Tuple[int, ...]
    pencil_drops: Tuple[dict, ...]

    def csv_rows(self) -> List[str]:
        rows = ["rank,count"]
        for r, c in sorted(self.histogram.items()):
            rows.append(f"{r},{c}")
        return rows


# An integer polynomial is a dict from packed monomials to ints: the
# monomial prod x_i^e_i is keyed by sum e_i * 8**i, so multiplying two
# monomials adds their keys.  Exponents stay below 8 up to degree 4.
IntPoly = Dict[int, int]


def _integer_forms(T: BracketTensor) -> Tuple[int, Dict[Tuple[int, int], Dict[Tuple[int, int], int]]]:
    """The common denominator D of all coefficients, and every form of T times D."""
    den, ints = clear_denominators(val for form in T.pi.values() for val in form.values())
    ints = iter(ints)
    return den, {pair: {uv: next(ints) for uv in form} for pair, form in T.pi.items()}


def _packed(forms: Dict[Tuple[int, int], Dict[Tuple[int, int], int]]) -> Dict[Tuple[int, int], IntPoly]:
    """Integer forms as packed polynomials."""
    return {pair: {8 ** u + 8 ** v: val for (u, v), val in form.items()}
            for pair, form in forms.items()}


def _gradient(poly: IntPoly, n: int) -> Dict[int, IntPoly]:
    """d -> the linear form d poly / d x_d of a quadratic poly."""
    grad: Dict[int, IntPoly] = {}
    for mono, val in poly.items():
        for d in range(n):
            power = (mono >> (3 * d)) & 7
            if power:
                lin = grad.setdefault(d, {})
                rest = mono - 8 ** d
                lin[rest] = lin.get(rest, 0) + power * val
    return grad


def _integer_jacobiator(T: BracketTensor) -> Tuple[int, Dict[Tuple[int, int, int], IntPoly]]:
    """D and Jac(D pi) = D^2 Jac(pi), D the common denominator of T.

    Jac(pi)^{abc} = sum_d pi^{ad} d_d pi^{bc} + cyclic in (a, b, c) is the
    Jacobiator of pi; it is kept for every a < b < c.
    """
    n = T.n
    den, forms = _integer_forms(T)
    rows: List[Dict[int, IntPoly]] = [{} for _ in range(n)]
    for (a, b), poly in _packed(forms).items():
        rows[a][b] = poly
        rows[b][a] = {mono: -val for mono, val in poly.items()}
    grads = {(b, c): _gradient(poly, n)
             for b in range(n) for c, poly in rows[b].items() if b < c}
    jac: Dict[Tuple[int, int, int], IntPoly] = {}
    for a, b, c in combinations(range(n), 3):
        acc = jac[(a, b, c)] = {}
        for i, pair, sign in ((a, (b, c), 1), (b, (a, c), -1), (c, (a, b), 1)):
            row = rows[i]
            for d, lin in grads.get(pair, {}).items():
                quad = row.get(d)
                if quad is None:
                    continue
                for m1, v1 in quad.items():
                    for m2, v2 in lin.items():
                        key = m1 + m2
                        acc[key] = acc.get(key, 0) + sign * v1 * v2
    return den, jac


def _chart0_wedge(V: Dict[Tuple[int, ...], IntPoly], n: int,
                  q: int) -> Iterator[Tuple[Tuple[int, ...], IntPoly]]:
    """(E ^ V)^{(0,) + I} for every q-subset I of {1..n-1}, in sorted order.

    V is a q-vector keyed by sorted index tuples, a missing key being zero;
    (E ^ V)^J = sum_pos (-1)^pos x_{J[pos]} V^{J without J[pos]}.  Zero
    coefficients are dropped.
    """
    for I in combinations(range(1, n), q):
        J = (0,) + I
        acc: IntPoly = {}
        for pos, a in enumerate(J):
            sign = -1 if pos % 2 else 1
            shift = 8 ** a
            for mono, val in V.get(J[:pos] + J[pos + 1:], {}).items():
                key = mono + shift
                acc[key] = acc.get(key, 0) + sign * val
        yield I, {mono: val for mono, val in acc.items() if val}


def _first_obstruction(T: BracketTensor) -> Optional[Tuple[Tuple[int, ...], IntPoly, int]]:
    """(a, b, c), the first nonzero (E ^ Jac(D pi))^{0abc} in sorted order,
    and D^2; None when every such component vanishes."""
    den, jac = _integer_jacobiator(T)
    return next(((abc, poly, den * den) for abc, poly in _chart0_wedge(jac, T.n, 3) if poly),
                None)


def schouten_certificate(T: BracketTensor) -> bool:
    """True when E ^ Jac(pi) vanishes identically.

    The vanishing of E ^ Jac(pi) is the Jacobi identity of the bracket
    that pi induces on projective space.  The tensor is scaled by its
    common denominator, which leaves the zero test unchanged, and the
    identity is checked over ints on the components (0, a, b, c) alone:
    W = E ^ Jac satisfies E ^ W = 0, that is
    x_0 W^{abcd} = x_a W^{0bcd} - x_b W^{0acd} + x_c W^{0abd} - x_d W^{0abc},
    so W vanishes exactly when its 0-components do.
    """
    return _first_obstruction(T) is None


def _first_jacobi_witness(T: BracketTensor) -> Optional[dict]:
    """First nonzero Jacobiator entry on chart 0, or None when T certifies.

    On the chart x_0 = 1, du_a = dx_a - u_a dx_0, so the chart Jacobiator
    J(u_a, u_b, u_c) is (E ^ Jac(pi))^{0abc} at x_0 = 1, x_a = u_a.  Setting
    x_0 = 1 maps the quartic monomials one to one, so the first nonzero
    0-component gives the first nonzero chart entry.
    """
    found = _first_obstruction(T)
    if found is None:
        return None
    triple, poly, scale = found
    ctx = tuple(f"u{a}" for a in range(1, T.n))
    terms = {tuple((mono >> (3 * a)) & 7 for a in range(1, T.n)): Fraction(val, scale)
             for mono, val in poly.items()}
    return {"chart": 0, "triple": triple, "obstruction": str(Poly(ctx, terms))}


def jacobi_check(T: BracketTensor) -> dict:
    """Jacobi verdict from E ^ [pi, pi] = 0, with a chart witness on failure."""
    witness = _first_jacobi_witness(T)
    return {"holds": witness is None, "witness": witness}


def compatibility_check(T1: BracketTensor, T2: BracketTensor) -> dict:
    """Jacobi certificate of T1 + T2, with a chart witness on failure."""
    witness = _first_jacobi_witness(T1 + T2)
    return {"compatible": witness is None, "witness": witness}


def independence_rank(F: FamilyBasis) -> int:
    """Rank of the family as projective bivectors.

    Stacks the integer coefficients of (E ^ pi)^{0ab} of every member, each
    cleared by its own denominator, into a matrix (one row per member) and
    computes its exact rank.  At x_0 = 1 these components are the structure
    functions of chart 0, and setting x_0 = 1 maps the cubic monomials one
    to one, so this is the chart-0 rank.  A combination of members whose
    descent vanishes on the dense chart 0 vanishes on every chart, so one
    chart gives the projective rank.
    """
    rows = [{(ab, mono): val
             for ab, poly in _chart0_wedge(_packed(_integer_forms(T)[1]), T.n, 2)
             for mono, val in poly.items()}
            for T in F.tensors]
    keys = sorted({key for row in rows for key in row})
    return _matrix_rank([[row.get(key, 0) for key in keys] for row in rows])


def _matrix_rank(matrix: Sequence[Sequence[Union[int, Fraction]]]) -> int:
    """Exact rank by fraction-free elimination over ints.

    Each row is first scaled by the lcm of its denominators.  Eliminating
    with pivot row `top` replaces a row whose entry f in the pivot column
    is nonzero by lead*row - f*top, divided by its content; rows with a
    zero there are left untouched.  Nonzero scalings keep the rank.
    """
    work = [clear_denominators(row)[1] for row in matrix if any(row)]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        lead = top[col]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f:
                row = [lead * x - f * y for x, y in zip(work[r], top)]
                g = gcd(*row)
                work[r] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def rank_at_point(T: BracketTensor, phi: Sequence[RationalLike]) -> int:
    """Rank of the bracket matrix at phi, restricted transverse to phi.

    Evaluates M_ab = pi_ab(phi), restricts the antisymmetric form to the
    hyperplane of vectors orthogonal to phi (in the pairing sense), and
    returns the exact rank there; radial directions never contribute.
    The tensor and the point are scaled to ints by their common
    denominators, and the restriction by the pivot coordinate, none of
    which changes the rank.
    """
    return _point_rank(_integer_forms(T)[1], T.n, phi)


def _point_rank(forms: Dict[Tuple[int, int], Dict[Tuple[int, int], int]], n: int,
                phi: Sequence[RationalLike]) -> int:
    """rank_at_point on the integer forms of a tensor, cleared once per tensor."""
    point = [rat(x) for x in phi]
    if len(point) != n:
        raise ValueError("point size differs from the tensor size")
    if not any(point):
        raise ZeroVector("rank evaluation needs a nonzero point")
    pt = clear_denominators(point)[1]
    M = [[0] * n for _ in range(n)]
    for (a, b), form in forms.items():
        val = sum(c * pt[u] * pt[v] for (u, v), c in form.items())
        M[a][b], M[b][a] = val, -val
    p = next(i for i, x in enumerate(pt) if x)
    others = [i for i in range(n) if i != p]
    restricted = [[pt[p] * M[i][j] - pt[j] * M[i][p] - pt[i] * M[p][j] for j in others]
                  for i in others]
    return _matrix_rank(restricted)


def _random_point(rng: random.Random, n: int) -> Tuple[Fraction, ...]:
    while True:
        point = tuple(Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
                      for _ in range(n))
        if any(point):
            return point


def rank_scan(T: BracketTensor, samples: int, seed: int) -> RankReport:
    """Deterministic random rank survey of one tensor.

    Samples rational points, tabulates ranks, flags samples that fall
    more than one even step below the observed generic value, and probes
    a few random pencils for rank drops.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    points = tuple(_random_point(rng, T.n) for _ in range(samples))
    forms = _integer_forms(T)[1]
    ranks = tuple(_point_rank(forms, T.n, p) for p in points)
    histogram: Dict[int, int] = {}
    for r in ranks:
        histogram[r] = histogram.get(r, 0) + 1
    generic = max(ranks)
    flagged = tuple(i for i, r in enumerate(ranks) if r < generic - 2)
    drops: List[dict] = []
    for _ in range(3):
        base = _random_point(rng, T.n)
        direction = _random_point(rng, T.n)
        for step in range(7):
            s = Fraction(step, 1)
            probe = tuple(b + s * d for b, d in zip(base, direction))
            if not any(probe):
                continue
            r = _point_rank(forms, T.n, probe)
            if r < generic:
                drops.append({"s": rat_str(s), "rank": r,
                              "point": [rat_str(x) for x in probe]})
    return RankReport(seed, points, ranks, histogram, generic, flagged, tuple(drops))


def _phi_context(n: int) -> Tuple[str, ...]:
    return tuple(f"phi{i}" for i in range(n))


def _linear_poly(coeffs: Sequence[Fraction], ctx: Tuple[str, ...]) -> Poly:
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            expo = [0] * len(ctx)
            expo[i] = 1
            terms[tuple(expo)] = c
    return Poly(ctx, terms)


def _bracket_of_linear(T: BracketTensor, f: Sequence[Fraction],
                       g: Sequence[Fraction], ctx: Tuple[str, ...]) -> Poly:
    out = Poly(ctx)
    for (a, b), form in T.pi.items():
        factor = f[a] * g[b] - f[b] * g[a]
        if factor:
            out = out + _form_poly(form, ctx) * factor
    return out


def _divide_linear_form(p: Poly, coeffs: Sequence[Fraction],
                        ctx: Tuple[str, ...]) -> Optional[Poly]:
    """Exact quotient of p by the linear form, or None.

    With pivot the last nonzero coefficient, the form is
    lead * (phi_pivot - root) for root = -sum_{i != pivot} (c_i/lead) phi_i.
    """
    pivot = max(i for i, c in enumerate(coeffs) if c)
    lead = coeffs[pivot]
    root = _linear_poly([-c / lead if i != pivot else 0 for i, c in enumerate(coeffs)], ctx)
    quotient, remainder = poly_divmod_linear(p, ctx[pivot], root)
    return quotient * (1 / lead) if remainder.is_zero else None


class RatioBracketValue(NamedTuple):
    """Bracket of two ratio functions, as numerator over form powers.

    den_factors lists (linear form coefficients, power) with each form
    normalized to a monic leading coefficient; the numerator absorbs the
    rescaling and every removable factor is cancelled.
    """

    num: Poly
    den_factors: Tuple[Tuple[Tuple[Fraction, ...], int], ...]
    vars: Tuple[str, ...]

    def den_poly(self) -> Poly:
        out = Poly.const(self.vars, 1)
        for coeffs, power in self.den_factors:
            for _ in range(power):
                out = out * _linear_poly(coeffs, self.vars)
        return out

    def equals(self, other: "RatioBracketValue") -> bool:
        return (self.num * other.den_poly()) == (other.num * self.den_poly())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __str__(self) -> str:
        if self.num.is_zero:
            return "0"
        dens = " * ".join(
            f"({_linear_poly(c, self.vars)})^{p}" if p > 1 else f"({_linear_poly(c, self.vars)})"
            for c, p in self.den_factors)
        return f"({self.num}) / ({dens})" if dens else str(self.num)


def ratio_bracket(T: BracketTensor, f_num: Sequence[RationalLike],
                  f_den: Sequence[RationalLike], g_num: Sequence[RationalLike],
                  g_den: Sequence[RationalLike]) -> RatioBracketValue:
    """Bracket of the degree-zero ratios f_num/f_den and g_num/g_den.

    Expands {f/h, g/e} = ({f,g} h e - g {f,e} h - f {h,g} e + f g {h,e})
    over h^2 e^2 and cancels removable linear factors; the result only
    depends on the projective bracket (Euler modifications drop out).
    """
    ctx = _phi_context(T.n)
    f = [rat(x) for x in f_num]
    h = [rat(x) for x in f_den]
    g = [rat(x) for x in g_num]
    e = [rat(x) for x in g_den]
    for vec, tag in ((h, "first"), (e, "second")):
        if len(vec) != T.n or not any(vec):
            raise ZeroVector(f"{tag} denominator must be a nonzero form")
    if len(f) != T.n or len(g) != T.n:
        raise ValueError("numerator forms must match the tensor size")
    fp = _linear_poly(f, ctx)
    hp = _linear_poly(h, ctx)
    gp = _linear_poly(g, ctx)
    ep = _linear_poly(e, ctx)
    num = (_bracket_of_linear(T, f, g, ctx) * hp * ep
           - _bracket_of_linear(T, f, e, ctx) * hp * gp
           - _bracket_of_linear(T, h, g, ctx) * ep * fp
           + _bracket_of_linear(T, h, e, ctx) * fp * gp)
    factors: List[Tuple[Tuple[Fraction, ...], int]] = []
    for coeffs in (h, e):
        pivot = max(i for i, c in enumerate(coeffs) if c)
        lead = coeffs[pivot]
        monic = tuple(c / lead for c in coeffs)
        num = num * (Fraction(1) / lead ** 2)
        merged = False
        for idx, (known, power) in enumerate(factors):
            if known == monic:
                factors[idx] = (known, power + 2)
                merged = True
                break
        if not merged:
            factors.append((monic, 2))
    if num.is_zero:
        return RatioBracketValue(num, (), ctx)
    reduced: List[Tuple[Tuple[Fraction, ...], int]] = []
    for coeffs, power in factors:
        while power > 0:
            candidate = _divide_linear_form(num, coeffs, ctx)
            if candidate is None:
                break
            num = candidate
            power -= 1
        if power:
            reduced.append((coeffs, power))
    return RatioBracketValue(num, tuple(reduced), ctx)


def euler_tensor(template: BracketTensor, matrix: Sequence[Sequence[RationalLike]]) -> BracketTensor:
    """Radial modification E ^ X for the linear field X_a = sum matrix[a][c] x_c.

    Produces a tensor of the template's shape whose chart descent vanishes;
    adding it to any tensor must leave every projective check unchanged.
    """
    n = template.n
    rows = [[rat(x) for x in row] for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix shape must match the tensor size")
    pi: Dict[Tuple[int, int], FormDict] = {}
    for a in range(n):
        for b in range(a + 1, n):
            form: FormDict = {}
            for c in range(n):
                if rows[b][c]:
                    key = (min(a, c), max(a, c))
                    form[key] = form.get(key, Fraction(0)) + rows[b][c]
                if rows[a][c]:
                    key = (min(b, c), max(b, c))
                    form[key] = form.get(key, Fraction(0)) - rows[a][c]
            form = {key: val for key, val in form.items() if val}
            if form:
                pi[(a, b)] = form
    prov = {"kind": "radial", "matrix": [[rat_str(x) for x in row] for row in rows]}
    return BracketTensor(template.parity, template.k, template.n, pi, prov)
