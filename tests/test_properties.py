"""Property tests: exact division, polynomial products, curve normal form,
coordinate extraction from two-point sections, the bilinear assembly, the
closed-form kernel and the closed-form derivation images against their
general references, the Szego residue verdict, tensor JSON, the integer
divergence-free lift, the Jacobi certificate on it, the integer rank
kernel, the sparse point rank and the rank scan, on inputs drawn by
hypothesis.

Examples are few and derandomized so that the suite stays quick and
reproducible; every property is exact, so one counterexample is a bug.
"""

import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact.bracket_forge import (BracketTensor, FamilyBasis, TensorNotInSectionSpace,
                                    _derivation_image, _five_term_forms,
                                    _kernel_grid, build_family, build_tensor)
from artifact.curve_ring import (CurveModel, DegenerateDivisor, ResidueCertificate, dimension,
                                 section_slots, verify_szego_residues)
from artifact.exact_core import Poly, clear_denominators, poly_divmod_linear
from artifact import poisson_verify
from artifact.poisson_verify import (_integer_forms, _integer_jacobiator, _lift,
                                     _matrix_rank, independence_rank, jacobi_check, rank_scan,
                                     schouten_certificate)

import assembly_route
from assembly_route import (BiCurveElement, division_kernel_grid, mult_kernel_antisym, own_curve,
                            pair_grid, pair_matrix, truncated_five_term)
from chart_route import (_form_poly, all_charts_jacobi_zero, chart_rank, chart_witness,
                         dense_point_rank, euler_tensor, form, lift_via_euler, rank_at_point, reference_rank_scan,
                         wedge_certificate)
from curve_route import (CurveElement, NotInSpace, basis_elements, curve_derivation,
                         derivative, element_from_coords, eval_all, membership_extract,
                         reduce, section_coords, t_poly)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)
FEW = settings(max_examples=10, deadline=None, derandomize=True)

VS = ("t", "s")

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
small_ints = st.integers(min_value=-3, max_value=3)


def polys(variables, max_exp=3, free_of=None):
    """Sparse polynomials over `variables`, optionally without `free_of`."""
    width = len(variables)
    slot = variables.index(free_of) if free_of else None
    expo = st.tuples(*[st.just(0) if i == slot else st.integers(0, max_exp)
                       for i in range(width)])
    return st.dictionaries(expo, rationals, max_size=5).map(lambda t: Poly(variables, t))


@PROPERTY
@given(p=polys(VS), root=st.one_of(rationals.map(lambda c: Poly.const(VS, c)),
                                   polys(VS, free_of="t")))
def test_divmod_reconstructs(p, root):
    """q * (t - root) + r == p with r free of t, for constant and other roots."""
    q, r = poly_divmod_linear(p, "t", root)
    assert r.degree_in("t") <= 0
    assert q * (Poly.var(VS, "t") - root) + r == p


@PROPERTY
@given(c=rationals, alpha=polys(("t",)), beta=polys(("t",)),
       m=st.integers(0, 2), j=st.integers(0, 2))
def test_curve_element_normal_form(c, alpha, beta, m, j):
    """Extra (t+c) factors in numerator and denominator cancel to one form."""
    model = CurveModel.odd(1, c, [1, 0, 2], [0, 1, 0, 3])
    e = CurveElement(model, alpha, beta, m)
    tau = t_poly(model.tau) ** j
    assert CurveElement(model, alpha * tau, beta * tau, m + j) == e
    if e.denom_power:
        root = Poly.const(("t",), -c)
        divisible = [poly_divmod_linear(p, "t", root)[1].is_zero for p in (e.alpha, e.beta)]
        assert not all(divisible)


@st.composite
def curves(draw, parities=("even", "odd"), max_k=2):
    """A small numeric curve of a drawn parity."""
    parity = draw(st.sampled_from(parities))
    k = draw(st.integers(1, max_k))
    Q = draw(st.lists(small_ints, min_size=3, max_size=3))
    if parity == "even":
        return CurveModel.even(k, Q, draw(st.lists(small_ints, min_size=5, max_size=5)))
    P = draw(st.lists(small_ints, min_size=4, max_size=4))
    return CurveModel.odd(k, draw(rationals), Q, P)


def _grid(bi, truncate):
    """pair_matrix of bi, or "rejected" when strict mode refuses it."""
    try:
        return pair_matrix(bi, truncate, 0, 1)
    except (TensorNotInSectionSpace, assembly_route.NonzeroRemainder):
        return "rejected"


@st.composite
def five_term_pairs(draw):
    """The five-term element of one basis pair of a small odd curve, as
    the assembly builds it, lifted by extra (t1+c)^j1 (t2+c)^j2."""
    model = draw(curves(parities=("odd",)))
    basis = basis_elements(model)
    a, b = sorted(draw(st.lists(st.integers(0, len(basis) - 1), min_size=2, max_size=2,
                                unique=True)))
    sa, sb = basis[a], basis[b]
    da, db = curve_derivation(sa), curve_derivation(sb)
    bi = (mult_kernel_antisym(sa, sb).scale(len(basis))
          + BiCurveElement.from_sections(sa, db) + BiCurveElement.from_sections(db, sa)
          - BiCurveElement.from_sections(sb, da) - BiCurveElement.from_sections(da, sb))
    j1, j2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    m1, m2 = bi.m1 + j1, bi.m2 + j2
    return bi, BiCurveElement(model, *bi.lift(m1, m2), m1=m1, m2=m2)


@PROPERTY
@given(case=five_term_pairs())
def test_extra_poles_change_nothing(case):
    """Non-minimal pole orders are the same function and the same grid;
    strict mode rejects on both sides or neither."""
    bi, lifted = case
    assert lifted == bi
    for truncate in (False, True):
        assert _grid(lifted, truncate) == _grid(bi, truncate)


@PROPERTY
@given(model=curves(), data=st.data())
def test_pair_matrix_matches_slotwise_extraction(model, data):
    """The one-pass grid of e1(x)e2 is the outer product of the slot-wise
    coordinates that membership_extract reads, odd poles included."""
    n = dimension(model.parity, model.k_param)
    coords = st.lists(small_ints, min_size=n, max_size=n)
    e1 = element_from_coords(model, data.draw(coords))
    e2 = element_from_coords(model, data.draw(coords))
    c1, c2 = membership_extract(e1), membership_extract(e2)
    outer = {(u, v): x * y for u, x in enumerate(c1) for v, y in enumerate(c2) if x * y}
    bi = BiCurveElement.from_sections(e1, e2)
    for truncate in (False, True):
        assert pair_matrix(bi, truncate, 0, 1) == outer


@PROPERTY
@example(parity="even", k=2, c=0, q=[0, 0, 2], p=[1, 0, 3, 0, -1], top="drawn")
@example(parity="odd", k=1, c=Fraction(1, 2), q=[1, 0, -2], p=[0, 1, 0, 5, 0], top="cancel")
@given(parity=st.sampled_from(("even", "odd")), k=st.integers(1, 4), c=rationals,
       q=st.lists(rationals, min_size=3, max_size=3),
       p=st.lists(rationals, min_size=5, max_size=5),
       top=st.sampled_from(("drawn", "zero", "cancel")))
def test_szego_verdict_is_nonzero_top_coefficient(parity, k, c, q, p, top):
    """The certificate refuses exactly the curves whose R has no t^4 term,
    a = P_top + Q_2^2/4, and states residues (1, (1/2, 1/2)) on the rest.
    "zero" forces P_top = Q_2 = 0; "cancel" sets P_top = -Q_2^2/4."""
    p = p[:5 if parity == "even" else 4]
    if top == "zero":
        q[2] = p[-1] = Fraction(0)
    elif top == "cancel":
        p[-1] = -Fraction(q[2]) ** 2 / 4
    model = CurveModel(parity, k, q, p, c if parity == "odd" else None)
    if p[-1] + Fraction(q[2]) ** 2 / 4:
        half = Fraction(1, 2)
        assert verify_szego_residues(model) == ResidueCertificate(1, (half, half))
    else:
        with pytest.raises(DegenerateDivisor, match=r"t\^4 coefficient of R vanishes"):
            verify_szego_residues(model)


coefficients = st.one_of(small_ints, rationals)


@st.composite
def assembly_curves(draw):
    """A curve of drawn parity at k <= 3 with integer or rational
    coefficients, odd ones with c != 0."""
    k = draw(st.integers(1, 3))
    Q = draw(st.lists(coefficients, min_size=3, max_size=3))
    if draw(st.booleans()):
        return CurveModel.even(k, Q, draw(st.lists(coefficients, min_size=5, max_size=5)))
    P = draw(st.lists(coefficients, min_size=4, max_size=4))
    return CurveModel.odd(k, draw(rationals.filter(bool)), Q, P)


def _forms_or_rejection(assemble):
    try:
        return assemble()
    except TensorNotInSectionSpace as exc:
        return exc.pair, exc.details


@PROPERTY
@given(model=assembly_curves())
def test_bilinear_assembly_matches_per_pair_route(model):
    """Reading each closed-form derivation image once gives the per-pair
    route's forms in the mode of the parity, truncating odd and strict
    even, and in strict mode its rejection: the same first pair and
    details."""
    slots, truncate = section_slots(model.parity, model.k_param), model.parity == "odd"
    assert (_forms_or_rejection(lambda: _five_term_forms(slots, *own_curve(model)))
            == _forms_or_rejection(lambda: assembly_route.five_term_forms(model, truncate)))


@PROPERTY
@given(model=assembly_curves(), data=st.data())
def test_closed_form_kernel_matches_general_product(model, data):
    """The closed-form kernel grids of the basis pairs, summed bilinearly
    over the coordinates of two drawn sections, give the grid of the
    general w-basis product of the Szego numerator with s1(1) s2(2) -
    s2(1) s1(2), divided by t1 - t2."""
    keys = list(section_slots(model.parity, model.k_param))
    coords = st.lists(small_ints, min_size=len(keys), max_size=len(keys))
    c1, c2 = (data.draw(coords) for _ in range(2))
    kernel = _closed_kernel(model)
    summed = {}
    for a, x in enumerate(c1):
        for b, y in enumerate(c2):
            if x * y:
                for key, val in kernel(keys[a], keys[b]).items():
                    summed[key] = summed.get(key, 0) + x * y * val
    s1, s2 = (element_from_coords(model, c) for c in (c1, c2))
    grid, poles = pair_grid(mult_kernel_antisym(s1, s2))
    assert poles == []
    assert {key: val for key, val in summed.items() if val} == grid


def _closed_kernel(model):
    """The library's closed-form kernel grids of the model's own curve, read
    at scale 1 off its rational tau, Q/2 and P.  The library never puts an
    x-slot before a t-slot; that pair is read as the negated transpose of
    the swapped one, since K(s_b, s_a) = -K(s_a, s_b)."""
    curve = own_curve(model)[0]

    def kernel(sa, sb):
        if sa[0] > sb[0]:
            return {(s2, s1): -val for (s1, s2), val in _kernel_grid(sb, sa, curve).items()}
        return _kernel_grid(sa, sb, curve)
    return kernel


def _shifted(grid):
    return {((u, i + 1), (v, j + 1)): val for ((u, i), (v, j)), val in grid.items()}


# m + 1/d with d >= 2 is never an integer.
non_integers = st.builds(lambda m, d: m + Fraction(1, d), st.integers(-5, 4), st.integers(2, 4))


@st.composite
def kernel_curves(draw, max_k=4, coeffs=rationals, poles=None):
    """A curve of drawn parity at k <= max_k with Q and P drawn from coeffs
    and c from poles; by default c is drawn from coeffs, 0 and -1."""
    k = draw(st.integers(1, max_k))
    Q = draw(st.lists(coeffs, min_size=3, max_size=3))
    if draw(st.booleans()):
        return CurveModel.even(k, Q, draw(st.lists(coeffs, min_size=5, max_size=5)))
    c = draw(st.one_of(st.sampled_from((0, -1)), coeffs) if poles is None else poles)
    return CurveModel.odd(k, c, Q, draw(st.lists(coeffs, min_size=4, max_size=4)))


def _kernel_tensor(model, tau, half_q, p):
    """K: the kernel grid of every basis pair a < b of the model's level on
    the curve tau x^2 = 2 half_q x + p (ascending coefficient lists in t),
    read on basis x basis and symmetrized, as the assembly reads it."""
    slots = section_slots(model.parity, model.k_param)
    keys, n = list(slots), len(slots)
    pi = {}
    for a in range(n):
        for b in range(a + 1, n):
            form = pi.setdefault((a, b), {})
            for (s1, s2), val in _kernel_grid(keys[a], keys[b], (tau, half_q, p)).items():
                if s1 in slots and s2 in slots:
                    key = tuple(sorted((slots[s1], slots[s2])))
                    form[key] = form.get(key, 0) + val
    return BracketTensor(model.parity, model.k_param, n, pi)


@PROPERTY
@example(model=CurveModel.even(4, [1, -2, 3], [2, 1, -1, 3, 1]))
@example(model=CurveModel.odd(4, 1, [1, -2, 3], [2, 1, -1, 3]))
@example(model=CurveModel.odd(3, Fraction(1, 2), 0, 0))
@given(model=kernel_curves(coeffs=coefficients))
def test_projective_bracket_is_the_kernel_term(model):
    """The derivation part of a build is radial, so the lift of a build is
    n times the lift of its kernel term K alone, read with the tau the
    build uses.  Odd, tau = t + c - (2/n)(t - 1) = ((n-2)/n)(t + c'), so
    the lift is (n - 2) = 2k - 1 times that of the uncorrected kernel on
    C'_k: (t + c') x^2 = s (Q x + P), s = (2k+1)/(2k-1), c' = s c + 2/(2k-1)."""
    k, c = model.k_param, model.c
    n = dimension(model.parity, k)
    half_q, p = [q / 2 for q in model.Q], model.P
    tau = [c + Fraction(2, n), 1 - Fraction(2, n)] if model.parity == "odd" else [1]
    build = build_tensor(model)
    assert _lift(build - _kernel_tensor(model, tau, half_q, p).scale(n))[1] == {}
    if model.parity == "odd":
        s = Fraction(2 * k + 1, 2 * k - 1)
        moved = _kernel_tensor(model, [s * c + Fraction(2, 2 * k - 1), 1],
                               [s * v for v in half_q], [s * v for v in p])
        assert _lift(moved)[1]
        assert _lift(build - moved.scale(2 * k - 1))[1] == {}


@PROPERTY
@example(model=CurveModel.even(4, 0, 0))
@example(model=CurveModel.odd(4, 0, 0, 0))
@example(model=CurveModel.odd(3, -1, 0, 0))
@example(model=CurveModel.odd(2, Fraction(-1, 3), [Fraction(1, 2), 0, -2], [3, Fraction(2, 3), 0, 1]))
@given(model=kernel_curves())
def test_kernel_grid_matches_w_basis_route(model):
    """On every basis pair, the closed-form x-coordinate kernel grid equals
    the grid the w-basis route reads after its (t+c) pole division, with
    no pole remainder.  The swapped pair gives the transposed, negated
    grid, and K(t s, t s') is K(s, s') shifted by ((0, 1), (0, 1))."""
    basis = basis_elements(model)
    keys = list(section_slots(model.parity, model.k_param))
    kernel = _closed_kernel(model)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            grid = kernel(keys[a], keys[b])
            assert pair_grid(mult_kernel_antisym(basis[a], basis[b])) == (grid, []), (a, b)
            swapped = kernel(keys[b], keys[a])
            assert swapped == {(s2, s1): -val for (s1, s2), val in grid.items()}, (a, b)
            (u, i), (v, j) = keys[a], keys[b]
            assert kernel((u, i + 1), (v, j + 1)) == _shifted(grid), (a, b)


@PROPERTY
@example(model=CurveModel.even(4, 0, 0))
@example(model=CurveModel.odd(4, 0, 0, 0))
@example(model=CurveModel.odd(3, -1, 0, 0))
@example(model=CurveModel.odd(2, Fraction(-1, 3), [Fraction(1, 2), 0, -2], [3, Fraction(2, 3), 0, 1]))
@given(model=kernel_curves())
def test_kernel_grid_matches_division_route(model):
    """On every ordered pair of basis slots, and on the pair shifted to
    (i + 1, j + 1), the closed-form quotients by t1 - t2 give the grid of
    the Poly blocks divided by synthetic division."""
    kernel = _closed_kernel(model)
    keys = list(section_slots(model.parity, model.k_param))
    for (u, i) in keys:
        for (v, j) in keys:
            for sa, sb in (((u, i), (v, j)), ((u, i + 1), (v, j + 1))):
                assert kernel(sa, sb) == division_kernel_grid(sa, sb, model), (sa, sb)


@lru_cache(maxsize=None)
def _odd_shift_two_assemblies(k):
    return assembly_route.odd_shift_two_assemblies(k)


@FEW
@example(model=CurveModel.odd(5, Fraction(-1, 3), [1, Fraction(1, 2), -2], [0, 3, Fraction(2, 5), 1]))
@example(model=CurveModel.odd(1, -1, 0, 0))
@given(model=kernel_curves(max_k=5).filter(lambda m: m.parity == "odd"))
def test_odd_build_is_truncated_assembly_plus_shift(model):
    """The one odd assembly on tau - (2/(2k+1)) (t - 1) is the per-pair
    route's truncated assembly W(c, Q, P) plus its recentering correction
    (2/(2k+1)) (W(1,0,0) - 2 W(0,0,0)), each W assembled separately."""
    k = model.k_param
    assert build_tensor(model) == truncated_five_term(model) + _odd_shift_two_assemblies(k)


@PROPERTY
@example(model=CurveModel.even(6, 0, 0))
@example(model=CurveModel.odd(6, 0, 0, 0))
@example(model=CurveModel.odd(5, -1, 0, 0))
@example(model=CurveModel.odd(4, Fraction(2, 3), 0, 0))
@example(model=CurveModel.odd(3, -1, [1, 0, 2], [Fraction(1, 2), 0, -1, 3]))
@example(model=CurveModel.odd(5, Fraction(-3, 2), [Fraction(1, 3), -1, 2], [2, Fraction(-1, 2), 0, 3]))
@given(model=kernel_curves(max_k=6, poles=st.one_of(small_ints, non_integers)))
def test_derivation_image_matches_curve_route(model):
    """On every basis slot, the closed-form derivation image read off the
    curve's own lists (tau, Q/2, P) and pole equals the oracle's
    curve_derivation read slot by slot, inside and outside the basis, and
    membership_extract refuses that derivative exactly when it has a pole
    or a slot past the basis.  The image of an odd slot t^j x drops the
    pole part (-c)^j (Q(-c) x + P(-c))/(t + c): D is exactly the image plus
    that part, and the part is nonzero exactly when the oracle reports a
    pole.  Poles are drawn rational, integer or not."""
    slots = section_slots(model.parity, model.k_param)
    c = model.c
    curve = own_curve(model)
    for slot, e in zip(slots, basis_elements(model)):
        image = _derivation_image(slot, *curve)
        derivative = curve_derivation(e)
        expected, pole = section_coords(derivative)
        assert image == expected, slot
        try:
            coords = membership_extract(derivative)
        except NotInSpace as exc:
            refusal = "pole" if str(exc).startswith("pole part") else "overflow"
            assert refusal == ("pole" if pole else "overflow" if set(image) - set(slots) else None)
        else:
            assert pole is None and coords == [image.get(s, 0) for s in slots], slot
        u, j = slot
        odd_x = model.parity == "odd" and u == 1
        dropped = [(-c) ** j * eval_all(t_poly(p), {"t": -c}) if odd_x else 0
                   for p in (model.P, model.Q)]
        assert (pole is not None) == any(dropped), slot
        read = reduce(model, Poly(("t", "x"), {(i, u): val for (u, i), val in image.items()}))
        if any(dropped):
            part = Poly(("t", "x"), {(0, 0): dropped[0], (0, 1): dropped[1]})
            read = read - reduce(model, part, denominator=t_poly(model.tau))
        assert derivative == read, slot


@st.composite
def tensors(draw, max_k=2):
    parity = draw(st.sampled_from(["even", "odd"]))
    k = draw(st.integers(1, max_k))
    n = 2 * k + (parity == "odd")
    index = st.integers(0, n - 1)
    pairs = st.tuples(index, index).filter(lambda ab: ab[0] < ab[1])
    monos = st.tuples(index, index).map(lambda uv: tuple(sorted(uv)))
    forms = st.dictionaries(monos, rationals, max_size=3)
    return BracketTensor(parity, k, n, draw(st.dictionaries(pairs, forms, max_size=6)))


@PROPERTY
@given(T=tensors())
def test_form_is_antisymmetric(T):
    """The (b, a) form is the negated (a, b) form."""
    for a in range(T.n):
        for b in range(T.n):
            assert form(T, b, a) == {m: -v for m, v in form(T, a, b).items()}


@PROPERTY
@given(T=tensors())
def test_tensor_json_canonical(T):
    """JSON round trip is the identity and the text ignores insertion order."""
    text = json.dumps(T.to_json())
    back = BracketTensor.from_json(json.loads(text))
    assert back == T and json.dumps(back.to_json()) == text
    reordered = {pair: dict(reversed(list(form.items())))
                 for pair, form in reversed(list(T.pi.items()))}
    assert json.dumps(BracketTensor(T.parity, T.k, T.n, reordered).to_json()) == text


@lru_cache(maxsize=None)
def _family(parity, k):
    return build_family(parity, k)


SMALL_FAMILIES = (("even", 2), ("odd", 1), ("odd", 2))
K3_FAMILIES = (("even", 2), ("even", 3), ("odd", 2), ("odd", 3))


@st.composite
def family_spans(draw, shapes=SMALL_FAMILIES):
    """An integer combination of the members of a small family."""
    members = _family(*draw(st.sampled_from(shapes))).tensors
    out = members[0].scale(draw(small_ints))
    for member in members[1:]:
        out = out + member.scale(draw(small_ints))
    return out


@st.composite
def with_radial(draw, tensor_strategy):
    T = draw(tensor_strategy)
    X = draw(st.lists(st.lists(small_ints, min_size=T.n, max_size=T.n),
                      min_size=T.n, max_size=T.n))
    return T, X


@PROPERTY
@given(case=with_radial(st.one_of(tensors(), family_spans())))
def test_certificate_ignores_radial_terms(case):
    """Adding E ^ X never changes the verdict Jac(pi~) = 0."""
    T, X = case
    assert schouten_certificate(T + euler_tensor(T, X)) == schouten_certificate(T)


@PROPERTY
@given(T=family_spans())
def test_family_span_is_poisson(T):
    """Every combination of pairwise compatible members certifies."""
    assert schouten_certificate(T)


@st.composite
def bumped_family_spans(draw, shapes=SMALL_FAMILIES):
    """A family span, plus a drawn value on one drawn coefficient."""
    T = draw(family_spans(shapes))
    index = st.integers(0, T.n - 1)
    pair = draw(st.tuples(index, index).filter(lambda ab: ab[0] < ab[1]))
    mono = tuple(sorted(draw(st.tuples(index, index))))
    bump = BracketTensor(T.parity, T.k, T.n, {pair: {mono: draw(rationals)}})
    return T + bump


def _lifted(T):
    """The divergence-free lift of T as a tensor."""
    scale, forms, _ = _lift(T)
    return BracketTensor(T.parity, T.k, T.n, {pair: {uv: Fraction(val, scale)
                                                     for uv, val in form.items()}
                                              for pair, form in forms.items()})


def _divergence(T):
    """(div pi)^c = sum_d d pi^{dc} / d x_d, by Poly derivatives."""
    ctx = tuple(f"x{i}" for i in range(T.n))
    identity = {i: i for i in range(T.n)}
    return [sum((derivative(_form_poly(form(T, d, c), ctx, identity), ctx[d])
                 for d in range(T.n)), Poly(ctx)) for c in range(T.n)]


@st.composite
def lift_cases(draw):
    """A member or a pair sum of a family of either parity at k <= 4, or the
    build of a curve with rational coefficients."""
    kind = draw(st.sampled_from(["member", "pair", "curve"]))
    if kind == "curve":
        return build_tensor(draw(kernel_curves()))
    members = _family(draw(st.sampled_from(["even", "odd"])), draw(st.integers(1, 4))).tensors
    i, j = draw(st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True))
    return members[i] if kind == "member" else members[i] + members[j]


@PROPERTY
@given(T=lift_cases())
def test_lift_matches_euler_route(T):
    """The one integer pass gives the lift of the Fraction route, pi plus
    the tensor E ^ (-div pi/n) cleared to ints: the same lowest common
    denominator and the same forms."""
    assert _lift(T)[:2] == lift_via_euler(T)


@FEW
@given(case=with_radial(st.one_of(family_spans(), bumped_family_spans())))
def test_certificate_matches_all_charts(case):
    """The lift verdict Jac(pi~) = 0 holds exactly when E ^ Jac(pi) = 0 and
    when every chart Jacobiator vanishes.  The lift is divergence free and
    idempotent, and the lift of a radial tensor E ^ X is zero."""
    T, X = case
    assert schouten_certificate(T) == wedge_certificate(T) == all_charts_jacobi_zero(T)
    lifted = _lifted(T)
    assert all(p.is_zero for p in _divergence(lifted))
    assert _lift(lifted)[:2] == _lift(T)[:2]
    assert _lift(euler_tensor(T, X))[1] == {}


@FEW
@given(T=st.one_of(family_spans(K3_FAMILIES), bumped_family_spans(K3_FAMILIES)))
def test_chart0_components_match_chart_route(T):
    """The lift gives the chart route's answers: the verdict of the C(n, 4)
    wedge, the chart-0 Jacobiator witness read off (E ^ Jac(pi~))^{0abc},
    and the chart-0 rank of a family with T in place of its last member."""
    family = _family(T.parity, T.k)
    verdict = jacobi_check(T)
    assert verdict == {"holds": wedge_certificate(T), "witness": chart_witness(T)}
    assert schouten_certificate(T) == verdict["holds"]
    first = family.tensors[0]
    assert jacobi_check(first + (T - first)) == verdict
    swapped = FamilyBasis(T.parity, T.k, family.tensors[:8] + (T,), family.labels)
    assert independence_rank(swapped) == chart_rank(swapped.tensors)


@st.composite
def sparse_tensors(draw):
    """One to four terms on a tensor of either parity at k = 2..6, so that
    most indices are in no pair."""
    parity = draw(st.sampled_from(["even", "odd"]))
    k = draw(st.integers(2, 6))
    n = dimension(parity, k)
    index = st.integers(0, n - 1)
    pairs = st.tuples(index, index).filter(lambda ab: ab[0] < ab[1])
    monos = st.tuples(index, index).map(lambda uv: tuple(sorted(uv)))
    pi = {}
    for pair, mono, val in draw(st.lists(st.tuples(pairs, monos, rationals.filter(bool)),
                                         min_size=1, max_size=4)):
        pi.setdefault(pair, {})[mono] = val
    return BracketTensor(parity, k, n, pi)


@PROPERTY
@example(T=BracketTensor("odd", 6, 13, {(0, 1): {(0, 1): 1}}))
@example(T=BracketTensor("even", 3, 6, {(0, 1): {(0, 1): 1}, (0, 2): {(1, 3): 1}}))
@given(T=sparse_tensors())
def test_support_walk_matches_full_walk(T):
    """Walking only the triples with two indices in the lift's support S
    gives the Jacobiator of the walk over every triple, entry for entry,
    and jacobi_check the same verdict and witness.  The first example
    passes; the second fails on the triple (1, 2, 3), 3 not in S."""
    _, forms, support = _lift(T)
    full = dict(_integer_jacobiator(forms, set(range(T.n))))
    assert dict(_integer_jacobiator(forms, support)) == full
    verdict = jacobi_check(T)
    assert verdict["holds"] == (not full)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poisson_verify, "_integer_jacobiator",
                   lambda forms, _: _integer_jacobiator(forms, set(range(T.n))))
        assert jacobi_check(T) == verdict


def _schoolbook_product(p, q):
    """Reference product: Fraction coefficients summed term by term."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            terms[expo] = terms.get(expo, Fraction(0)) + c1 * c2
    return {expo: c for expo, c in terms.items() if c}


PVS = ("t", "s", "u")


@PROPERTY
@given(a=polys(PVS, max_exp=2), b=polys(PVS, max_exp=2), cancel=st.booleans())
def test_poly_product_matches_schoolbook(a, b, cancel):
    """Integer-numerator products equal the Fraction schoolbook product.

    With `cancel`, the operands are a + b and a - b, whose cross terms
    cancel to zero coefficients that must not be stored.
    """
    p, q = (a + b, a - b) if cancel else (a, b)
    product = p * q
    assert product.terms == _schoolbook_product(p, q)
    assert all(type(c) is Fraction and c for c in product.terms.values())
    if cancel:
        assert product == a * a - b * b


def _fraction_rank(matrix):
    """Reference rank: Gaussian elimination over Fractions."""
    work = [[Fraction(x) for x in row] for row in matrix if any(row)]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] / work[rank][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


@st.composite
def low_rank_matrices(draw):
    """A product of sparse m x r and r x c rational factors, with zero rows
    and columns spliced in."""
    m, r, c = draw(st.integers(1, 6)), draw(st.integers(0, 4)), draw(st.integers(1, 7))
    entries = st.one_of(st.just(Fraction(0)), rationals)
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    rows = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*right)]
            if r else [Fraction(0)] * c for row in left]
    for _ in range(draw(st.integers(0, 2))):
        col = draw(st.integers(0, c))
        rows = [row[:col] + [Fraction(0)] + row[col:] for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * len(rows[0]))
    return rows


@PROPERTY
@given(matrix=low_rank_matrices())
def test_matrix_rank_matches_fraction_elimination(matrix):
    """Fraction-free elimination of the rows cleared to ints gives the
    Fraction rank."""
    assert _matrix_rank([clear_denominators(row)[1] for row in matrix]) == _fraction_rank(matrix)


def _fraction_rank_at_point(T, phi):
    """Reference rank_at_point: Fraction evaluation and the pivot restriction."""
    point = [Fraction(x) for x in phi]
    n = T.n
    M = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), form in T.pi.items():
        val = sum((c * point[u] * point[v] for (u, v), c in form.items()), Fraction(0))
        M[a][b], M[b][a] = val, -val
    p = next(i for i, x in enumerate(point) if x)
    others = [i for i in range(n) if i != p]
    return _fraction_rank([[M[i][j] - point[j] / point[p] * M[i][p]
                            - point[i] / point[p] * M[p][j] for j in others]
                           for i in others])


nonzero_rationals = rationals.filter(bool)


@st.composite
def tensors_with_points(draw):
    """A drawn or family tensor and a nonzero point whose first nonzero
    coordinate sits at a drawn index."""
    T = draw(st.one_of(tensors(), family_spans()))
    lead = draw(st.integers(0, T.n - 1))
    rest = draw(st.lists(rationals, min_size=T.n - lead - 1, max_size=T.n - lead - 1))
    return T, [Fraction(0)] * lead + [draw(nonzero_rationals)] + rest


@PROPERTY
@given(case=tensors_with_points())
def test_rank_at_point_matches_fraction_route(case):
    """The library's bordered integer rank equals the Fraction rank of the
    pivot restriction, which the library no longer uses."""
    T, phi = case
    assert rank_at_point(T, phi) == _fraction_rank_at_point(T, phi)


@PROPERTY
@given(case=tensors_with_points(), q=nonzero_rationals, lam=nonzero_rationals)
def test_rank_at_point_ignores_scaling(case, q, lam):
    """Rescaling the tensor or the point leaves the rank unchanged."""
    T, phi = case
    assert rank_at_point(T.scale(q), [lam * x for x in phi]) == rank_at_point(T, phi)


@st.composite
def sparse_embeddings(draw):
    """A drawn tensor with its indices spread over a larger n, and a nonzero
    point, often zero on inactive indices, whose first nonzero coordinate
    (the pivot) sits at a drawn index, active or not."""
    T = draw(tensors())
    k = T.k + draw(st.integers(1, 3))
    n = 2 * k + (T.parity == "odd")
    pos = sorted(draw(st.lists(st.integers(0, n - 1), min_size=T.n, max_size=T.n, unique=True)))
    pi = {(pos[a], pos[b]): {(pos[u], pos[v]): val for (u, v), val in form.items()}
          for (a, b), form in T.pi.items()}
    lead = draw(st.integers(0, n - 1))
    rest = draw(st.lists(st.one_of(st.just(Fraction(0)), rationals),
                         min_size=n - lead - 1, max_size=n - lead - 1))
    return BracketTensor(T.parity, k, n, pi), [Fraction(0)] * lead + [draw(nonzero_rationals)] + rest


@PROPERTY
@given(case=sparse_embeddings())
def test_point_rank_matches_dense_route(case):
    """The active indices bordered by one inactive index give the rank of
    the dense n x n restriction."""
    T, phi = case
    assert rank_at_point(T, phi) == dense_point_rank(_integer_forms(T)[1], T.n, phi)


@PROPERTY
@given(T=st.one_of(tensors(), family_spans(), sparse_embeddings().map(lambda case: case[0])),
       samples=st.integers(1, 4), seed=st.integers(0, 2))
def test_rank_scan_matches_reference_scan(T, samples, seed):
    """The scan, pencil counts included, equals the reference scan that
    forms every point in full and ranks it on the dense matrix."""
    assert rank_scan(T, samples, seed) == reference_rank_scan(T, samples, seed)
