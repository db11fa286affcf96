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
from itertools import chain, combinations
from math import gcd
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Set, Tuple, Union

from .exact_core import Poly, RationalLike, clear_denominators, poly_divmod_linear, rat
from .bracket_forge import BracketTensor, FamilyBasis


class RankReport(NamedTuple):
    """Outcome of a pointwise rank scan of one bracket tensor."""

    histogram: Dict[int, int]
    generic_rank: int
    flagged: int
    pencil_drops: int


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


def _lift(T: BracketTensor) -> Tuple[int, IntForms, Set[int]]:
    """s, the forms of s pi~ and S, the indices of T's pairs; s is pi~'s lowest denominator.

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
    support = {i for pair in forms for i in pair}
    g = gcd(n * den, *(v for form in out.values() for v in form.values()))
    return n * den // g, {pair: {uv: v // g for uv, v in form.items() if v}
                          for pair, form in out.items() if any(form.values())}, support


def _integer_jacobiator(forms: IntForms,
                        support: Set[int]) -> Iterator[Tuple[Tuple[int, int, int], IntPoly]]:
    """The nonzero Jac(pi~)^{abc}, a < b < c, of the integer
    forms of a lift with support S.  One pass packs each form into the rows
    of its pair, signed, and forms its gradient: val x_u x_v adds val x_v to
    d_u and val x_u to d_v.  Every term needs the rows of a, b and c, and
    two of them in S, so only those triples are walked: |S|^2 n, not C(n, 3).

    Lemma: Jac(pi~)^{abc} = 0 if b, c are not in S.  Proof: pi^{bd} = pi^{cd}
    = 0, so X = div pi has X^b = X^c = 0, pi~^{bc} = 0, pi~^{bd} = -x_b X^d/n,
    pi~^{ca} = -x_c X^a/n and pi~^{ab} = x_b X^a/n.  The second cyclic term
    is sum_d x_b X^d d_d(x_c X^a)/n^2 = x_b x_c X(X^a)/n^2, the third is its
    negative, and the first has d_d pi~^{bc} = 0."""
    rows: Dict[int, Dict[int, IntPoly]] = {}
    grads: Dict[Tuple[int, int], Dict[int, IntPoly]] = {}
    for (a, b), form in forms.items():
        rows.setdefault(a, {})[b] = quad = {}
        grads[a, b] = grad = {}
        for (u, v), val in form.items():
            quad[8 ** u + 8 ** v] = val
            for d, w in ((u, v), (v, u)):
                lin = grad.setdefault(d, {})
                lin[8 ** w] = lin.get(8 ** w, 0) + val
        rows.setdefault(b, {})[a] = {mono: -val for mono, val in quad.items()}
    inner, outer = sorted(rows.keys() & support), rows.keys() - support
    triples = chain(combinations(inner, 3), (tuple(sorted((i, j, o)))
                                             for i, j in combinations(inner, 2) for o in outer))
    for a, b, c in triples:
        acc: IntPoly = {}
        for i, pair, sign in ((a, (b, c), 1), (b, (a, c), -1), (c, (a, b), 1)):
            row = rows[i]
            for d, lin in grads.get(pair, {}).items():
                for m1, v1 in row.get(d, {}).items():
                    for m2, v2 in lin.items():
                        key = m1 + m2
                        acc[key] = acc.get(key, 0) + sign * v1 * v2
        acc = {mono: val for mono, val in acc.items() if val}
        if acc:
            yield (a, b, c), acc


def schouten_certificate(T: BracketTensor) -> bool:
    """True when the Jacobiator of the lift, cleared to ints, is empty: the
    Jacobi identity on projective space.  It stops at the first entry."""
    return next(_integer_jacobiator(*_lift(T)[1:]), None) is None


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
    scale, forms, support = _lift(T)
    jac = dict(_integer_jacobiator(forms, support))
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


def _matrix_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination.

    Eliminating with pivot row `top` replaces a row whose entry f in the
    pivot column is nonzero by lead*row - f*top, divided by its content;
    rows with a zero there are left untouched.  Nonzero scalings keep the
    rank.
    """
    work = [row for row in matrix if any(row)]
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


def _point_rank(forms: IntForms, n: int, coordinate: Callable[[int], Union[int, Fraction]]) -> int:
    """Rank of the bracket matrix at phi_i = coordinate(i), restricted transverse to phi.

    For M_ab = pi_ab(phi) antisymmetric and phi != 0, the rank of M on the
    vectors orthogonal to phi is rank [[0, -phi^T], [phi, M]] - 2; radial
    directions never contribute.  An index in no pair of a form has the
    bordered row (phi_j, 0, ..., 0), so the active indices, plus one
    inactive index with phi_j != 0, give the same rank.  Coordinates are
    read on demand, only at those indices and the indices of the forms, and
    scaled to ints by their common denominator, which keeps the rank.  The
    caller guarantees phi != 0.
    """
    active = {i for pair in forms for i in pair}
    border = next((j for j in range(n) if j not in active and coordinate(j)), None)
    idx = sorted(active) + ([] if border is None else [border])
    read = {*idx, *(i for form in forms.values() for uv in form for i in uv)}
    pt = dict(zip(read, clear_denominators(coordinate(i) for i in read)[1]))
    M: Dict[Tuple[int, int], int] = {}
    for (a, b), form in forms.items():
        M[a, b] = sum(c * pt[u] * pt[v] for (u, v), c in form.items())
        M[b, a] = -M[a, b]
    bordered = [[0] + [-pt[j] for j in idx]]
    bordered += [[pt[i]] + [M.get((i, j), 0) for j in idx] for i in idx]
    return _matrix_rank(bordered) - 2


def _random_point(rng: random.Random, n: int) -> Tuple[Fraction, ...]:
    while True:
        point = tuple(Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
                      for _ in range(n))
        if any(point):
            return point


def rank_scan(T: BracketTensor, samples: int, seed: int) -> RankReport:
    """Deterministic random rank survey of one tensor.

    Draws and ranks rational points one at a time, tabulates the ranks,
    counts samples more than one even step below the observed generic
    value, and counts the points of a few random pencils where it drops.
    Every point is drawn in full, for the RNG order, but a pencil point
    base + step * direction is formed only on the coordinates read.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    forms = _integer_forms(T)[1]
    histogram: Dict[int, int] = {}
    for _ in range(samples):
        r = _point_rank(forms, T.n, _random_point(rng, T.n).__getitem__)
        histogram[r] = histogram.get(r, 0) + 1
    generic = max(histogram)
    flagged = sum(c for r, c in histogram.items() if r < generic - 2)
    drops = 0
    for _ in range(3):
        base = _random_point(rng, T.n)
        direction = _random_point(rng, T.n)
        for step in range(7):
            def probe(i: int) -> Fraction:
                return base[i] + step * direction[i]
            if any(probe(i) for i in range(T.n)) and _point_rank(forms, T.n, probe) < generic:
                drops += 1
    return RankReport(histogram, generic, flagged, drops)


def _linear_poly(coeffs: Sequence[Fraction], ctx: Tuple[str, ...]) -> Poly:
    return Poly(ctx, {tuple(int(i == j) for j in range(len(ctx))): c
                      for i, c in enumerate(coeffs)})


def _bracket_of_linear(T: BracketTensor, f: Sequence[Fraction],
                       g: Sequence[Fraction], ctx: Tuple[str, ...]) -> Poly:
    """{f, g} = sum over pairs a < b of (f_a g_b - f_b g_a) pi^{ab}, x_i -> ctx[i]."""
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for (a, b), form in T.pi.items():
        factor = f[a] * g[b] - f[b] * g[a]
        for (u, v), val in form.items() if factor else ():
            expo = tuple((u == i) + (v == i) for i in range(len(ctx)))
            terms[expo] = terms.get(expo, 0) + factor * val
    return Poly(ctx, terms)


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
            out = out * _linear_poly(coeffs, self.vars) ** power
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
    for vec, tag in ((f, "first numerator"), (h, "first denominator"),
                     (g, "second numerator"), (e, "second denominator")):
        if len(vec) != T.n:
            raise ValueError(f"{tag} has {len(vec)} coefficients, the tensor needs {T.n}")
    for vec, tag in ((h, "first"), (e, "second")):
        if not any(vec):
            raise ValueError(f"{tag} denominator must be a nonzero form")
    # f/h = (f/l)/(h/l) for l the last nonzero coefficient of h, so both
    # denominator forms are monic from the start.
    lead_h = next(c for c in reversed(h) if c)
    lead_e = next(c for c in reversed(e) if c)
    f, h = [c / lead_h for c in f], [c / lead_h for c in h]
    g, e = [c / lead_e for c in g], [c / lead_e for c in e]
    fp = _linear_poly(f, ctx)
    hp = _linear_poly(h, ctx)
    gp = _linear_poly(g, ctx)
    ep = _linear_poly(e, ctx)
    num = (_bracket_of_linear(T, f, g, ctx) * hp * ep
           - _bracket_of_linear(T, f, e, ctx) * hp * gp
           - _bracket_of_linear(T, h, g, ctx) * ep * fp
           + _bracket_of_linear(T, h, e, ctx) * fp * gp)
    factors: Dict[Tuple[Fraction, ...], int] = {}
    for coeffs in (tuple(h), tuple(e)):
        factors[coeffs] = factors.get(coeffs, 0) + 2
    reduced: List[Tuple[Tuple[Fraction, ...], int]] = []
    for coeffs, power in factors.items():
        pivot = max(i for i, c in enumerate(coeffs) if c)
        root = Poly.var(ctx, ctx[pivot]) - _linear_poly(coeffs, ctx)
        while power:
            quotient, remainder = poly_divmod_linear(num, ctx[pivot], root)
            if not remainder.is_zero:
                break
            num = quotient
            power -= 1
        if power:
            reduced.append((coeffs, power))
    return RatioBracketValue(num, tuple(reduced), ctx)
