"""Tests for chart descent, Jacobi checks, compatibility, ranks, ratios."""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from artifact import poisson_verify
from artifact.bracket_forge import BracketTensor, FamilyBasis, build_family, build_tensor
from artifact.curve_ring import CurveModel
from artifact.exact_core import Poly
from artifact.helix_k0 import generic_poisson_rank
from artifact.poisson_verify import (
    RatioBracketValue,
    ZeroVector,
    _divide_linear_form,
    independence_rank,
    jacobi_check,
    rank_scan,
    ratio_bracket,
    schouten_certificate,
)

from chart_route import (all_charts_jacobi_zero, chart_rank, chart_witness, descend_to_chart,
                         euler_tensor, jacobiator, rank_at_point, wedge_certificate)

F = Fraction

SEED = 42


def _zero_like(parity, k, n):
    return BracketTensor(parity, k, n, {})


def _poly(ctx, spec):
    return Poly(ctx, {expo: F(v) for expo, v in spec.items()})


@lru_cache(maxsize=None)
def _family(parity, k):
    return build_family(parity, k)


def _bumped(T, val):
    """T plus val on its first stored coefficient, or on (0,1):(0,0) if T = 0."""
    pair = min(T.pi, default=(0, 1))
    mono = min(T.pi.get(pair, {}), default=(0, 0))
    return T + BracketTensor(T.parity, T.k, T.n, {pair: {mono: F(val)}})


def test_descend_zero_tensor():
    """The zero tensor descends to the zero chart bracket."""
    cb = descend_to_chart(_zero_like("even", 2, 4), 0)
    assert cb.funcs == {}
    assert cb.vars == ("u1", "u2", "u3")


def test_descend_chart_index_validation():
    """Chart index outside the coordinate range is rejected."""
    with pytest.raises(ValueError):
        descend_to_chart(_zero_like("even", 2, 4), 4)


def test_even_chart_formula_k2_k3():
    """{u0, u1} = -2k u0 + 2k a0 u0^3 on the x-coordinate chart."""
    for k, a0 in ((2, F(1)), (2, F(5)), (3, F(3))):
        T = build_tensor(CurveModel.even(k, 0, [a0]))
        cb = descend_to_chart(T, k + 1)
        lead = [0] * len(cb.vars)
        cubic = list(lead)
        lead[0] = 1
        cubic[0] = 3
        want = _poly(cb.vars, {tuple(lead): -2 * k, tuple(cubic): 2 * k * a0})
        assert cb.structure(0, 1) == want


def test_odd_chart_formula_k1_k2_k3():
    """{u0, u1} = -2u0 - (2k-1)u1 + (2k+1) a0 u0^3 on the x chart."""
    for k, a0 in ((1, F(1)), (2, F(2)), (3, F(3))):
        T = build_tensor(CurveModel.odd(k, 0, 0, [a0]))
        cb = descend_to_chart(T, k + 1)
        e0 = [0] * len(cb.vars)
        e1 = list(e0)
        e3 = list(e0)
        e0[0] = 1
        e1[1] = 1
        e3[0] = 3
        want = _poly(cb.vars, {tuple(e0): -2, tuple(e1): -(2 * k - 1),
                               tuple(e3): (2 * k + 1) * a0})
        assert cb.structure(0, 1) == want


def test_descend_rehomogenize_pointwise():
    """Chart values match the tensor pairing on transverse vector pairs."""
    rng = random.Random(SEED)
    T = build_tensor(CurveModel.even(2, [1, 0, -1], [2, 1, 0, 0, 3]))
    n, m = T.n, 3
    cb = descend_to_chart(T, m)
    checked = 0
    while checked < 20:
        phi = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        support = [j for j in range(n) if j != m and phi[j]]
        if not phi[m] or not support:
            continue
        pair = []
        for _ in range(2):
            s = [F(rng.randint(-9, 9)) for _ in range(n)]
            s[m] = F(0)
            j = support[0]
            s[j] = F(0)
            s[j] = -sum(s[i] * phi[i] for i in range(n)) / phi[j]
            pair.append(s)
        s, s2 = pair
        point = {f"u{a}": phi[a] / phi[m] for a in range(n) if a != m}
        chart_side = sum(
            cb.structure(a, b).eval_all(point) * (s[a] * s2[b] - s[b] * s2[a])
            for a in range(n) for b in range(a + 1, n)
            if a != m and b != m) * phi[m] ** 2
        tensor_side = F(0)
        for (a, b), form in T.pi.items():
            val = sum(cf * phi[u] * phi[v] for (u, v), cf in form.items())
            tensor_side += val * (s[a] * s2[b] - s[b] * s2[a])
        assert chart_side == tensor_side
        checked += 1


def test_jacobiator_trivial_on_two_coordinates():
    """A single chart coordinate admits no triples at all."""
    T = BracketTensor("even", 1, 2, {(0, 1): {(0, 0): F(1)}})
    J = jacobiator(descend_to_chart(T, 0))
    assert J == {}


def test_jacobi_passes_for_built_tensors():
    """Exact chart Jacobi identity for sample curves of both parities."""
    assert all_charts_jacobi_zero(build_tensor(CurveModel.even(2, [1, -1, 2], [3, 1, 0, 0, 2])))
    assert all_charts_jacobi_zero(build_tensor(CurveModel.odd(2, -1, [2, 0, 1], [1, 2, 0, 3])))


def test_jacobiator_flags_perturbation():
    """A single +1 coefficient bump breaks Jacobi with a named triple."""
    T = build_tensor(CurveModel.even(2, 0, [1]))
    bump = BracketTensor("even", 2, 4, {(0, 1): {(2, 2): F(1)}})
    broken = T + bump
    offenders = []
    for m in range(broken.n):
        J = jacobiator(descend_to_chart(broken, m))
        offenders.extend(key for key, poly in J.items() if not poly.is_zero)
    assert offenders
    assert all(len(key) == 3 for key in offenders)


def test_jacobiator_agrees_with_sympy():
    """Dual-route check of the chart Jacobiator against sympy calculus."""
    sympy = pytest.importorskip("sympy")
    T = build_tensor(CurveModel.even(2, 0, [1]))
    bump = BracketTensor("even", 2, 4, {(0, 1): {(1, 2): F(2)}, (2, 3): {(0, 0): F(1)}})
    broken = T + bump
    cb = descend_to_chart(broken, 2)
    syms = {name: sympy.Symbol(name) for name in cb.vars}

    def lift(poly):
        expr = sympy.Integer(0)
        for expo, cf in poly.terms.items():
            term = sympy.Rational(cf.numerator, cf.denominator)
            for name, power in zip(poly.vars, expo):
                if power:
                    term *= syms[name] ** power
            expr += term
        return expr

    def bracket(i, expr):
        out = sympy.Integer(0)
        for j in cb.indices:
            if j != i:
                out += sympy.diff(expr, syms[f"u{j}"]) * lift(cb.structure(i, j))
        return out

    mine = jacobiator(cb)
    for (a, b, c), poly in mine.items():
        reference = (bracket(a, lift(cb.structure(b, c)))
                     + bracket(b, lift(cb.structure(c, a)))
                     + bracket(c, lift(cb.structure(a, b))))
        assert sympy.expand(reference - lift(poly)) == 0


def test_compatibility_self_and_perturbed():
    """T with itself passes; T against a broken tensor reports a witness."""
    T = build_tensor(CurveModel.even(2, [0, 1, 0], [1, 0, 2, 0, 0]))
    res = jacobi_check(T + T)
    assert res["holds"] and res["witness"] is None
    bump = BracketTensor("even", 2, 4, {(0, 1): {(2, 2): F(1)}})
    res = jacobi_check(T + (T + bump))
    assert not res["holds"]
    assert set(res["witness"]) == {"chart", "triple", "obstruction"}


def test_compatibility_size_mismatch():
    """Tensors on different coordinate spaces cannot be summed."""
    with pytest.raises(ValueError):
        _zero_like("even", 2, 4) + _zero_like("even", 3, 6)


def test_jacobi_verdict_reads_the_whole_jacobiator(monkeypatch):
    """A nonzero Jacobiator fails even when every 0-component cancels.
    With m = x0^2 x1, J012 = x2 m and J013 = x3 m leave only
    (0,1,2,3) = x2 J013 - x3 J012 = 0, so no chart-0 witness exists."""
    m = 2 * 8 ** 0 + 8 ** 1
    jac = {(0, 1, 2): {m + 8 ** 2: 1}, (0, 1, 3): {m + 8 ** 3: 1}}
    monkeypatch.setattr(poisson_verify, "_integer_jacobiator",
                        lambda forms, n: iter(jac.items()))
    assert jacobi_check(_zero_like("even", 2, 4)) == {"holds": False, "witness": None}


def test_independence_ranks():
    """Nine independent members for even k=2 and odd k=1."""
    assert independence_rank(build_family("even", 2)) == 9
    assert independence_rank(build_family("odd", 1)) == 9


def test_independence_even_k1_recorded():
    """On the line the whole family collapses; recorded value is 0."""
    assert independence_rank(build_family("even", 1)) == 0


def test_rank_at_point_basics():
    """Zero tensor, zero vector, and size validation."""
    Z = _zero_like("even", 2, 4)
    assert rank_at_point(Z, [1, 0, 0, 0]) == 0
    with pytest.raises(ZeroVector):
        rank_at_point(Z, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        rank_at_point(Z, [1, 0])


def test_generic_rank_values():
    """Observed generic rank is the degree minus gcd(degree, 2)."""
    rng = random.Random(SEED + 3)

    def pt(n):
        return [F(rng.randint(1, 50), rng.randint(1, 9)) for _ in range(n)]

    T = build_tensor(CurveModel.even(2, [1, 0, -1], [2, 1, 0, 0, 3]))
    assert rank_at_point(T, pt(T.n)) == 2
    T = build_tensor(CurveModel.even(3, [1, 2, 0], [1, 0, 0, 1, 1]))
    assert rank_at_point(T, pt(T.n)) == 4
    T = build_tensor(CurveModel.odd(2, 1, [0, 1, 1], [2, 0, 1, 1]))
    assert rank_at_point(T, pt(T.n)) == 4
    T = build_tensor(CurveModel.odd(1, 0, 0, [1]))
    assert rank_at_point(T, pt(T.n)) == 2


def test_rank_scan_histogram_and_determinism():
    """Scan concentrates at the generic rank and is reproducible.  On
    x_0^2 d_1 ^ d_2, of rank 0 exactly on x_0 = 0, the histogram depends on
    the points drawn, so a rerun must repeat them and another seed differs."""
    T = build_tensor(CurveModel.even(2, [1, 0, -1], [2, 1, 0, 0, 3]))
    report = rank_scan(T, 50, SEED)
    assert report.histogram == {2: 50}
    assert report.generic_rank == 2
    assert report.flagged == 0
    assert rank_scan(T, 50, SEED) == report
    assert report.csv_rows() == ["rank,count", "2,50"]
    square = BracketTensor("even", 2, 4, {(1, 2): {(0, 0): 1}})
    report = rank_scan(square, 3000, 0)
    assert report.histogram == {2: 2999, 0: 1}
    assert rank_scan(square, 3000, 0) == report
    assert rank_scan(square, 3000, 1) != report


def test_rank_scan_zero_tensor():
    """Scanning the zero tensor reports rank zero everywhere."""
    report = rank_scan(_zero_like("even", 2, 4), 5, SEED)
    assert report.histogram == {0: 5}
    assert report.generic_rank == 0


def test_rank_scan_validates_samples():
    """At least one sample point is required."""
    with pytest.raises(ValueError):
        rank_scan(_zero_like("even", 2, 4), 0, SEED)


def test_ratio_bracket_even_identity():
    """{l1/l3, l2/l3} = -2k l1/l3 + 2k a0 (l1/l3)^3 for even k=2."""
    a0 = F(5)
    T = build_tensor(CurveModel.even(2, 0, [a0]))
    e0, e1, e3 = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]
    val = ratio_bracket(T, e0, e3, e1, e3)
    ctx = val.vars
    want = RatioBracketValue(
        _poly(ctx, {(1, 0, 0, 2): -4, (3, 0, 0, 0): 4 * a0}),
        (((F(0), F(0), F(0), F(1)), 3),), ctx)
    assert val.equals(want)
    assert val.den_factors == want.den_factors


def test_ratio_bracket_odd_identity():
    """{l1/l3, l2/l3} = -2 l1/l3 - (2k-1) l2/l3 + (2k+1) a0 (l1/l3)^3."""
    for k, a0 in ((1, F(2)), (2, F(1))):
        T = build_tensor(CurveModel.odd(k, 0, 0, [a0]))
        n = T.n
        x_index = k + 1
        e0 = [int(i == 0) for i in range(n)]
        e1 = [int(i == 1) for i in range(n)]
        e3 = [int(i == x_index) for i in range(n)]
        val = ratio_bracket(T, e0, e3, e1, e3)
        ctx = val.vars

        def mono(power0, power1, powerx):
            expo = [0] * n
            expo[0], expo[1], expo[x_index] = power0, power1, powerx
            return tuple(expo)

        want = RatioBracketValue(
            _poly(ctx, {mono(1, 0, 2): -2, mono(0, 1, 2): -(2 * k - 1),
                        mono(3, 0, 0): (2 * k + 1) * a0}),
            ((tuple(F(int(i == x_index)) for i in range(n)), 3),), ctx)
        assert val.equals(want)
        assert val.den_factors == want.den_factors


def test_divide_linear_form_exact_quotient():
    """Division by a linear form with a non-unit pivot and other terms:
    the quotient of L * q is q, and L * q + 1 does not divide."""
    rng = random.Random(SEED + 5)
    ctx = ("x0", "x1", "x2", "x3")
    for _ in range(20):
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
        coeffs.append(F(rng.choice([-2, 3, 5]), 2))
        form = sum((Poly.var(ctx, name) * c for name, c in zip(ctx, coeffs)), Poly(ctx))
        q = _poly(ctx, {tuple(rng.randint(0, 2) for _ in ctx): F(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(4)})
        assert _divide_linear_form(form * q, coeffs, ctx) == q
        assert _divide_linear_form(form * q + 1, coeffs, ctx) is None


def test_ratio_bracket_antisymmetry_and_scaling():
    """Self-brackets vanish; common rescaling of a ratio changes nothing."""
    T = build_tensor(CurveModel.even(2, 0, [3]))
    e0, e1, e3 = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]
    assert ratio_bracket(T, e0, e3, e0, e3).num.is_zero
    base = ratio_bracket(T, e0, e3, e1, e3)
    scaled = ratio_bracket(T, [2, 0, 0, 0], [0, 0, 0, 2], e1, e3)
    assert scaled.equals(base)


def _uncancelled_ratio(T, ctx, f, h, g, e):
    """{f/h, g/e} as N / (h^2 e^2), nothing cancelled, with each form made
    monic in its last nonzero coefficient.  N = {f,g} h e - g {f,e} h
    - f {h,g} e + f g {h,e}, each bracket of linear forms summed off T.form."""
    def linear(v):
        return sum((Poly.var(ctx, name) * c for name, c in zip(ctx, v)), Poly(ctx))

    def bracket(a, b):
        out = Poly(ctx)
        for i, j in combinations(range(T.n), 2):
            for (u, v), val in T.form(i, j).items():
                out = out + Poly.var(ctx, ctx[u]) * Poly.var(ctx, ctx[v]) * (
                    val * (a[i] * b[j] - a[j] * b[i]))
        return out

    fp, hp, gp, ep = map(linear, (f, h, g, e))
    num = (bracket(f, g) * hp * ep - bracket(f, e) * hp * gp
           - bracket(h, g) * ep * fp + bracket(h, e) * fp * gp)
    leads = [next(x for x in reversed(v) if x) for v in (h, e)]
    monic = [tuple(F(c, lead) for c in v) for v, lead in zip((h, e), leads)]
    return RatioBracketValue(num * (F(1) / (leads[0] ** 2 * leads[1] ** 2)),
                             ((monic[0], 2), (monic[1], 2)), ctx), monic


@pytest.mark.parametrize("model, f, h, g, e", [
    (CurveModel.even(2, [1, -2, 3], [2, 1, -1, 3, 1]),
     [1, 2, 0, -1], [0, 1, 1, 3], [2, -1, 1, 0], [1, 0, -2, -2]),
    (CurveModel.odd(2, 1, [1, -2, 3], [2, 1, -1, 3]),
     [1, 2, 0, -1, 1], [0, 1, 1, 2, 3], [2, -1, 1, 0, 1], [1, 0, -2, 0, -2]),
], ids=["even", "odd"])
def test_ratio_bracket_two_denominators(model, f, h, g, e):
    """With two different denominator forms h != e (leads 3 and -2), the
    ratio bracket equals the uncancelled quotient N / (h^2 e^2), and
    den_factors lists h's form before e's where neither cancels."""
    T = build_tensor(model)
    val = ratio_bracket(T, f, h, g, e)
    want, (h_hat, e_hat) = _uncancelled_ratio(T, val.vars, f, h, g, e)
    assert h_hat != e_hat
    assert val.equals(want)
    assert [form for form, _ in val.den_factors] == [h_hat, e_hat]
    swapped = ratio_bracket(T, g, e, f, h)
    assert [form for form, _ in swapped.den_factors] == [e_hat, h_hat]
    assert swapped.equals(RatioBracketValue(-want.num, want.den_factors, want.vars))


def test_ratio_bracket_rejects_zero_denominator():
    """A vanishing denominator form is refused."""
    T = build_tensor(CurveModel.even(2, 0, [3]))
    with pytest.raises(ZeroVector):
        ratio_bracket(T, [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1])


def test_radial_terms_are_invisible():
    """Euler modifications drop out of every projective observable."""
    rng = random.Random(SEED + 4)
    T = build_tensor(CurveModel.even(2, [1, 1, 0], [0, 2, 0, 1, 1]))
    X = [[rng.randint(-3, 3) for _ in range(T.n)] for _ in range(T.n)]
    lifted = T + euler_tensor(T, X)
    for m in range(T.n):
        assert descend_to_chart(lifted, m).funcs == descend_to_chart(T, m).funcs
    phi = [F(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(T.n)]
    assert rank_at_point(lifted, phi) == rank_at_point(T, phi)
    e0, e1, e3 = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]
    assert ratio_bracket(lifted, e0, e3, e1, e3).equals(
        ratio_bracket(T, e0, e3, e1, e3))


def test_euler_tensor_validates_shape():
    """The radial field matrix must be square of the tensor size."""
    T = build_tensor(CurveModel.even(2, 0, [1]))
    with pytest.raises(ValueError):
        euler_tensor(T, [[0] * 3 for _ in range(3)])


@pytest.mark.parametrize("parity,k", [("even", 1), ("even", 2), ("even", 3),
                                      ("odd", 1), ("odd", 2), ("odd", 3)])
def test_certificate_matches_chart_route(parity, k):
    """Jac(pi~) = 0 agrees with E ^ [pi, pi] = 0 and the all-chart
    Jacobiator, pass and fail."""
    members = _family(parity, k).tensors
    summed = members[1] + members[4]
    cases = [summed] + [_bumped(summed, val) for val in (1, -2, F(1, 3))]
    verdicts = []
    for T in cases:
        verdict = jacobi_check(T)
        assert verdict["holds"] == all_charts_jacobi_zero(T) == wedge_certificate(T)
        assert verdict["witness"] == chart_witness(T)
        assert jacobi_check(members[1] + (T - members[1])) == verdict
        verdicts.append(verdict["holds"])
    assert verdicts[0]
    if k >= 2:
        assert not any(verdicts[1:])


def test_certificate_ignores_radial_terms_and_scale():
    """Euler modifications and rational rescaling leave the verdict alone."""
    T = build_tensor(CurveModel.odd(2, 1, [1, 0, 2], [0, 1, 1, 2]))
    X = [[(a * 3 + b) % 5 - 2 for b in range(T.n)] for a in range(T.n)]
    assert schouten_certificate(T + euler_tensor(T, X))
    broken = _bumped(T, 1).scale(F(2, 7))
    assert not schouten_certificate(broken)


def test_failing_witness_walks_only_candidate_triples():
    """x_198 x_199 d_196 ^ d_197 + x_196 x_197 d_198 ^ d_199 at n = 200 fails
    on four indices; its witness comes without walking C(199, 3) triples."""
    T = BracketTensor("even", 100, 200, {(196, 197): {(198, 199): 1},
                                         (198, 199): {(196, 197): 1}})
    start = time.perf_counter()
    verdict = jacobi_check(T)
    assert time.perf_counter() - start < 0.5
    assert verdict == {"holds": False, "witness": {"chart": 0, "triple": (196, 197, 198),
                                                   "obstruction": "u196*u197*u198"}}


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_family_certifies_at_k5(parity):
    """All nine members and all 36 pair sums certify at k = 5."""
    family = build_family(parity, 5)
    assert all(jacobi_check(T)["holds"] for T in family.tensors)
    for T1, T2 in combinations(family.tensors, 2):
        assert jacobi_check(T1 + T2)["holds"]


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_family_certifies_at_k8(parity):
    """At k = 8 every member and all 36 pair sums certify, and the nine
    members have projective rank 9."""
    family = build_family(parity, 8)
    assert all(schouten_certificate(T) for T in family.tensors)
    assert all(schouten_certificate(T1 + T2) for T1, T2 in combinations(family.tensors, 2))
    assert independence_rank(family) == 9


@pytest.mark.parametrize("parity,k", [("even", 1), ("even", 2), ("even", 3),
                                      ("odd", 1), ("odd", 2), ("odd", 3)])
def test_independence_rank_matches_all_charts(parity, k):
    """Chart 0 alone gives the rank of every chart stacked together."""
    family = _family(parity, k)
    members = family.tensors
    dependent = FamilyBasis(parity, k, members[:8] + (members[1] + members[2].scale(2),),
                            family.labels)
    n = members[0].n
    X = [[(a * 3 + b) % 5 - 2 for b in range(n)] for a in range(n)]
    radial = FamilyBasis(parity, k, members[:8] + (members[1] + euler_tensor(members[1], X),),
                         family.labels)
    for fam in (family, dependent, radial):
        assert independence_rank(fam) == chart_rank(fam.tensors, range(n))
    if (parity, k) != ("even", 1):
        assert independence_rank(dependent) == independence_rank(radial) == 8


@pytest.mark.parametrize("parity,k", [("even", 4), ("even", 5), ("even", 6),
                                      ("odd", 4), ("odd", 5), ("odd", 6)])
def test_rank_scan_reaches_feigin_odesskii_rank(parity, k):
    """Every scanned point has the generic rank n - gcd(n, 2) of q_{n,1}."""
    model = CurveModel.even(k, 0, [1]) if parity == "even" else CurveModel.odd(k, 0, 0, [1])
    T = build_tensor(model)
    assert rank_scan(T, 20, SEED).histogram == {generic_poisson_rank(T.n, 1): 20}
