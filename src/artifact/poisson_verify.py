"""Certification of bracket tensors: Jacobi, compatibility, ranks.

All checks run over exact rationals or integers, and every verdict and
the independence rank read one normal form of a quadratic bivector pi,
its divergence-free lift pi~ = pi - (1/n) E ^ div pi.  E is the Euler
field and (div pi)^c = sum_d d_d pi^{dc}, a linear vector field.

Theorem.  pi descends to a Poisson bivector on projective space exactly
when Jac(pi~) = 0, Jac(pi)^{abc} = sum_d pi^{ad} d_d pi^{bc} + cyclic
being [pi, pi]/2; and pi~ = 0 exactly when pi is radial, pi = E ^ X.

Proof.  For V of polynomial degree p and multivector degree q, Koszul's
identity reads div(E ^ V) + E ^ div V = (n + p - q) V.  For V = pi it
gives pi~ = div(E ^ pi)/n, which vanishes for pi = E ^ X, while pi~ = 0
says pi = E ^ div pi/n.  For V = div pi, as div div = 0, it gives
div pi~ = 0.  As [E, pi] = 0, E ^ Jac(pi~) = E ^ Jac(pi), whose vanishing
is the projective Jacobi identity (at x != 0, E ^ w = 0 says w lies in
x ^ (bivectors), the kernel of the pushforward).  Conversely, if J =
Jac(pi~) has E ^ J = 0, then div J = +-[div pi~, pi~] = 0, since div
differentiates the Schouten bracket, and Koszul with p = q = 3 gives
n J = 0.  (Polishchuk, Algebraic geometry of Poisson brackets, J. Math.
Sci. 84, 1997; Eisenbud, Commutative Algebra, section 17.)

E ^ is formed only for the failure witness: the first nonzero
(E ^ Jac(pi~))^{0abc} at x_0 = 1 is the first nonzero Jacobiator entry
on the chart x_0 = 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exact_core import Poly, RationalLike, clear_denominators, poly_divmod_linear, rat
from .bracket_forge import BracketTensor, FamilyBasis, FormDict


class ZeroVector(ValueError):
    """A nonzero coordinate vector was required."""


def _form_poly(form: FormDict, ctx: Tuple[str, ...]) -> Poly:
    """The quadratic form with x_i -> ctx[i]."""
    return Poly(ctx, {tuple((u == i) + (v == i) for i in range(len(ctx))): val
                      for (u, v), val in form.items()})


class RankReport(NamedTuple):
    """Outcome of a pointwise rank scan of one bracket tensor."""

    histogram: Dict[int, int]
    generic_rank: int
    flagged: int
    pencil_drops: int

    def csv_rows(self) -> List[str]:
        rows = ["rank,count"]
        for r, c in sorted(self.histogram.items()):
            rows.append(f"{r},{c}")
        return rows


# An integer polynomial is a dict from packed monomials to ints: the
# monomial prod x_i^e_i is keyed by sum e_i * 8**i, so multiplying two
# monomials adds their keys.  Exponents stay below 8 up to degree 4.
IntPoly = Dict[int, int]
IntForms = Dict[Tuple[int, int], Dict[Tuple[int, int], int]]


def _integer_forms(T: BracketTensor) -> Tuple[int, IntForms]:
    """The common denominator D of all coefficients, and every form of T times D."""
    den, ints = clear_denominators(val for form in T.pi.values() for val in form.values())
    ints = iter(ints)
    return den, {pair: {uv: next(ints) for uv in form} for pair, form in T.pi.items()}


def _lift(T: BracketTensor) -> Tuple[int, IntForms]:
    """s and the forms of s pi~, s the lowest common denominator of the lift.

    On the integer forms F = D pi, a term v x_u x_w of F^{dc} adds v to the
    sparse div[c][w] if u = d and to div[c][u] if w = d.  Then n D pi~^{ab}
    = n F^{ab} - x_a div^b + x_b div^a, and the gcd with n D divides out."""
    den, forms = _integer_forms(T)
    n = T.n
    div: Dict[int, Dict[int, int]] = {}
    for (a, b), form in forms.items():
        for (u, w), v in form.items():
            for d, c, val in ((a, b, v), (b, a, -v)):
                for x, y in ((u, w), (w, u)):
                    if x == d:
                        row = div.setdefault(c, {})
                        row[y] = row.get(y, 0) + val
    out = {pair: {uv: n * v for uv, v in form.items()} for pair, form in forms.items()}
    for b, row in div.items():
        for c, v in row.items():
            for a in range(n) if v else ():
                if a != b:
                    form = out.setdefault((min(a, b), max(a, b)), {})
                    uv = (min(a, c), max(a, c))
                    form[uv] = form.get(uv, 0) + (v if a > b else -v)
    g = gcd(n * den, *(v for form in out.values() for v in form.values()))
    return n * den // g, {pair: {uv: v // g for uv, v in form.items() if v}
                          for pair, form in out.items() if any(form.values())}


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


def _integer_jacobiator(forms: IntForms, n: int) -> Iterator[Tuple[Tuple[int, int, int], IntPoly]]:
    """The nonzero Jac(pi)^{abc}, a < b < c in sorted order, of integer
    forms, packed first.  Every term needs the rows of a, b and c, so only
    triples of indices with a nonempty row are walked."""
    packed = {pair: {8 ** u + 8 ** v: val for (u, v), val in form.items()}
              for pair, form in forms.items()}
    rows: List[Dict[int, IntPoly]] = [{} for _ in range(n)]
    for (a, b), poly in packed.items():
        rows[a][b] = poly
        rows[b][a] = {mono: -val for mono, val in poly.items()}
    grads = {pair: _gradient(poly, n) for pair, poly in packed.items()}
    for a, b, c in combinations([i for i in range(n) if rows[i]], 3):
        acc: IntPoly = {}
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
        acc = {mono: val for mono, val in acc.items() if val}
        if acc:
            yield (a, b, c), acc


def schouten_certificate(T: BracketTensor) -> bool:
    """True when the Jacobiator of the lift, cleared to ints, is empty: the
    Jacobi identity on projective space.  It stops at the first entry."""
    return next(_integer_jacobiator(_lift(T)[1], T.n), None) is None


def jacobi_check(T: BracketTensor) -> dict:
    """Jacobi verdict from Jac(pi~) = 0, with the first nonzero Jacobiator
    entry on chart 0 as witness on failure.

    On the chart x_0 = 1, du_a = dx_a - u_a dx_0, so the chart Jacobiator
    J(u_a, u_b, u_c) is (E ^ Jac(pi~))^{0abc} at x_0 = 1, x_a = u_a, and the
    quartic monomials map one to one.  A nonzero Jac(pi~) has a nonzero
    0-component, as W = E ^ Jac vanishes with them: E ^ W = 0 gives
    x_0 W^{abcd} = x_a W^{0bcd} - x_b W^{0acd} + x_c W^{0abd} - x_d W^{0abc}.
    W^{0abc} can be nonzero only on a key abc of Jac or on a triple holding
    j and l of a key 0jl, so only those triples are walked, in sorted order.
    """
    scale, forms = _lift(T)
    jac = dict(_integer_jacobiator(forms, T.n))
    if not jac:
        return {"holds": True, "witness": None}
    candidates = {triple for triple in jac if triple[0]}
    for _, i, j in (triple for triple in jac if not triple[0]):
        candidates.update(tuple(sorted((i, j, x))) for x in range(1, T.n) if x not in (i, j))
    for a, b, c in sorted(candidates):
        acc: IntPoly = {}
        for x, triple, sign in ((0, (a, b, c), 1), (a, (0, b, c), -1),
                                (b, (0, a, c), 1), (c, (0, a, b), -1)):
            for mono, val in jac.get(triple, {}).items():
                key = mono + 8 ** x
                acc[key] = acc.get(key, 0) + sign * val
        if any(acc.values()):
            ctx = tuple(f"u{i}" for i in range(1, T.n))
            terms = {tuple((mono >> (3 * i)) & 7 for i in range(1, T.n)):
                     Fraction(val, scale * scale) for mono, val in acc.items() if val}
            witness = {"chart": 0, "triple": (a, b, c), "obstruction": str(Poly(ctx, terms))}
            return {"holds": False, "witness": witness}
    return {"holds": False, "witness": None}


def independence_rank(F: FamilyBasis) -> int:
    """Rank of the family as projective bivectors: the lift is linear and
    vanishes exactly on radial bivectors, so it is the rank of the lifts.
    Each member's lifted integer coefficients, keyed by (pair, monomial),
    make one row."""
    rows = [{(pair, mono): val for pair, form in _lift(T)[1].items()
             for mono, val in form.items()}
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


def _point_rank(forms: IntForms, n: int, phi: Sequence[RationalLike]) -> int:
    """Rank of the bracket matrix at phi, restricted transverse to phi.

    Evaluates M_ab = pi_ab(phi) on the integer forms of a tensor, restricts
    the antisymmetric form to the hyperplane of vectors orthogonal to phi
    (in the pairing sense), and returns the exact rank there; radial
    directions never contribute.  The restricted entry of two indices in no
    pair of a form is 0, and that of such a j and an active i is -pt_j M_ip,
    so those rows and columns are multiples of one: the active indices, plus
    one inactive index with pt_j != 0, give the same rank.  The coordinates
    read are scaled to ints by their common denominator, and the restriction
    by the pivot coordinate p, neither of which changes the rank.
    """
    point = [rat(x) for x in phi]
    if len(point) != n:
        raise ValueError("point size differs from the tensor size")
    if not any(point):
        raise ZeroVector("rank evaluation needs a nonzero point")
    p = next(i for i, x in enumerate(point) if x)
    active = {i for pair in forms for i in pair}
    idx = sorted(active - {p})
    idx += [j for j, x in enumerate(point) if x and j != p and j not in active][:1]
    read = {p, *idx, *(i for form in forms.values() for uv in form for i in uv)}
    pt = dict(zip(read, clear_denominators(point[i] for i in read)[1]))
    M: Dict[Tuple[int, int], int] = {}
    for (a, b), form in forms.items():
        M[a, b] = sum(c * pt[u] * pt[v] for (u, v), c in form.items())
        M[b, a] = -M[a, b]
    restricted = [[pt[p] * M.get((i, j), 0) - pt[j] * M.get((i, p), 0) - pt[i] * M.get((p, j), 0)
                   for j in idx] for i in idx]
    return _matrix_rank(restricted)


def _random_point(rng: random.Random, n: int) -> Tuple[Fraction, ...]:
    while True:
        point = tuple(Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
                      for _ in range(n))
        if any(point):
            return point


def rank_scan(T: BracketTensor, samples: int, seed: int) -> RankReport:
    """Deterministic random rank survey of one tensor.

    Samples rational points, tabulates ranks, counts samples that fall
    more than one even step below the observed generic value, and counts
    the points of a few random pencils where the rank drops.
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
    flagged = sum(r < generic - 2 for r in ranks)
    drops = 0
    for _ in range(3):
        base = _random_point(rng, T.n)
        direction = _random_point(rng, T.n)
        for step in range(7):
            probe = tuple(x + d for x, d in zip(probe, direction)) if step else base
            if any(probe) and _point_rank(forms, T.n, probe) < generic:
                drops += 1
    return RankReport(histogram, generic, flagged, drops)


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


def ratio_bracket(T: BracketTensor, f_num: Sequence[RationalLike],
                  f_den: Sequence[RationalLike], g_num: Sequence[RationalLike],
                  g_den: Sequence[RationalLike]) -> RatioBracketValue:
    """Bracket of the degree-zero ratios f_num/f_den and g_num/g_den.

    Expands {f/h, g/e} = ({f,g} h e - g {f,e} h - f {h,g} e + f g {h,e})
    over h^2 e^2 and cancels removable linear factors; the result only
    depends on the projective bracket (Euler modifications drop out).
    """
    ctx = tuple(f"phi{i}" for i in range(T.n))
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
    factors: Dict[Tuple[Fraction, ...], int] = {}
    for coeffs in (h, e):
        pivot = max(i for i, c in enumerate(coeffs) if c)
        lead = coeffs[pivot]
        monic = tuple(c / lead for c in coeffs)
        num = num * (Fraction(1) / lead ** 2)
        factors[monic] = factors.get(monic, 0) + 2
    if num.is_zero:
        return RatioBracketValue(num, (), ctx)
    reduced: List[Tuple[Tuple[Fraction, ...], int]] = []
    for coeffs, power in factors.items():
        while power > 0:
            candidate = _divide_linear_form(num, coeffs, ctx)
            if candidate is None:
                break
            num = candidate
            power -= 1
        if power:
            reduced.append((coeffs, power))
    return RatioBracketValue(num, tuple(reduced), ctx)
