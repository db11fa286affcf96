"""Tests for bracket tensor assembly, corrections, families and JSON."""

import json
import random
from fractions import Fraction
from math import comb

import pytest

from artifact import bracket_forge
from artifact.bracket_forge import (
    BracketTensor,
    FamilyBasis,
    TensorNotInSectionSpace,
    _five_term_forms,
    build_family,
    build_tensor,
)
from artifact.curve_ring import CurveModel, SectionSpace

import assembly_route
import curve_route
from assembly_route import truncated_five_term

F = Fraction

SEED = 42


def _clean(forms):
    out = {}
    for pair, form in forms.items():
        kept = {key: F(val) for key, val in form.items() if val}
        if kept:
            out[pair] = kept
    return out


def _frozen_even_k2(a0):
    # hand-derived grid for x^2 = a0 on the basis (1, t, t^2, x)
    return _clean({
        (0, 1): {(0, 3): -4},
        (0, 2): {(1, 3): -8},
        (1, 2): {(2, 3): -4},
        (1, 3): {(0, 0): 4 * a0},
        (2, 3): {(0, 1): 8 * a0},
    })


def _frozen_odd_k1_literal(c, q, p):
    # hand-derived truncated five-term grid for (t+c) x^2 = Q x + P
    # on the basis (1, t, x); q and p are the curve coefficient lists
    return _clean({
        (0, 1): {(0, 0): q[0], (0, 1): q[1], (0, 2): -2 * c},
        (0, 2): {(2, 2): 3, (0, 2): -3 * q[1] + 2 * c * q[2],
                 (1, 2): -3 * q[2],
                 (0, 0): -3 * p[1] + 2 * (c * p[2] - c * c * p[3]),
                 (0, 1): -6 * p[2] + 2 * (p[2] + c * p[3]),
                 (1, 1): -3 * p[3]},
        (1, 2): {(0, 0): 3 * p[0], (1, 1): 2 * c * p[3] - p[2],
                 (2, 2): -c, (0, 1): 2 * c * (p[2] - c * p[3]),
                 (1, 2): 2 * c * q[2] - q[1], (0, 2): 2 * q[0]},
    })


def test_even_k2_frozen_grid():
    """The even k=2 tensor on x^2 = a0 matches the hand-derived grid."""
    for a0 in (F(1), F(5), F(-2)):
        T = build_tensor(CurveModel.even(2, 0, [a0]))
        assert T.pi == _frozen_even_k2(a0)
        assert T.parity == "even" and T.k == 2 and T.n == 4
        assert (0, 3) not in T.pi


def test_even_k1_tensor_vanishes():
    """On the two-section space the five terms cancel identically."""
    T = build_tensor(CurveModel.even(1, [1, 2, -1], [4, 0, 0, 1, 2]))
    assert T.is_zero


def _truncated_both_routes(model):
    """W(c, Q, P) by the per-pair oracle, after checking that the library
    assembly on the curve's own tau gives the same forms."""
    W = truncated_five_term(model)
    assert _five_term_forms(SectionSpace(model), model.tau_poly()) == W.pi
    return W


def test_odd_k1_truncated_literal_matches_frozen():
    """Truncated five-term grids agree with the k=1 hand formulas on both
    routes; an even curve, whose assembly is strict, is refused."""
    rng = random.Random(SEED)
    for _ in range(4):
        c = F(rng.randint(-2, 2))
        q = [F(rng.randint(-3, 3)) for _ in range(3)]
        p = [F(rng.randint(-3, 3)) for _ in range(4)]
        W = _truncated_both_routes(CurveModel.odd(1, c, q, p))
        assert W.pi == _frozen_odd_k1_literal(c, q, p)
    with pytest.raises(ValueError, match="needs an odd curve"):
        truncated_five_term(CurveModel.even(1, 0, 0))


def test_odd_k1_literal_corner_values():
    """Zero-curve and moved-point grids used by the recentering shift."""
    zeros_q = [F(0)] * 3
    zeros_p = [F(0)] * 4
    W0 = _truncated_both_routes(CurveModel.odd(1, 0, 0, 0))
    assert W0.pi == _frozen_odd_k1_literal(F(0), zeros_q, zeros_p)
    W1 = _truncated_both_routes(CurveModel.odd(1, 1, 0, 0))
    assert W1.pi == _frozen_odd_k1_literal(F(1), zeros_q, zeros_p)


def test_odd_k1_recentred_tensor():
    """Pole-corrected odd tensor at (c, Q, P) = (0, 0, a0)."""
    for a0 in (F(1), F(5), F(-3)):
        T = build_tensor(CurveModel.odd(1, 0, 0, [a0]))
        assert T.pi == _clean({
            (0, 1): {(0, 2): F(-4, 3)},
            (0, 2): {(2, 2): 1},
            (1, 2): {(0, 0): 3 * a0, (2, 2): F(-2, 3)},
        })


def test_build_never_rejects_its_own_assembly():
    """build_tensor succeeds for random curves, both parities, k <= 3."""
    rng = random.Random(SEED + 1)
    for k in (1, 2, 3):
        for _ in range(2):
            Q = [rng.randint(-3, 3) for _ in range(3)]
            P = [rng.randint(-3, 3) for _ in range(5)]
            assert build_tensor(CurveModel.even(k, Q, P)).n == 2 * k
        for _ in range(2):
            c = rng.randint(-2, 2)
            Q = [rng.randint(-3, 3) for _ in range(3)]
            P = [rng.randint(-3, 3) for _ in range(4)]
            assert build_tensor(CurveModel.odd(k, c, Q, P)).n == 2 * k + 1


def test_form_sign_convention():
    """form(b, a) is the negation of form(a, b); the diagonal is empty."""
    T = build_tensor(CurveModel.even(2, [1, 0, 2], [0, 1, 0, 0, 3]))
    for (a, b), form in T.pi.items():
        flipped = T.form(b, a)
        assert flipped == {key: -val for key, val in form.items()}
    assert T.form(1, 1) == {}


@pytest.mark.parametrize("k", [2, 3])
def test_strict_mode_rejects_doubled_derivation(monkeypatch, k):
    """With D replaced by 2 D the even overflow no longer cancels: the
    bilinear route on doubled closed-form images and the per-pair route
    on the doubled oracle derivation name the same first pair and details."""
    closed_form = bracket_forge._derivation_image

    def doubled_image(slot, model, tau):
        return {s: 2 * val for s, val in closed_form(slot, model, tau).items()}

    def doubled(e):
        return curve_route.curve_derivation(e) * 2

    monkeypatch.setattr(bracket_forge, "_derivation_image", doubled_image)
    monkeypatch.setattr(assembly_route, "curve_derivation", doubled)
    model = CurveModel.even(k, [1, -1, 2], [3, 1, 0, 0, 2])
    with pytest.raises(TensorNotInSectionSpace) as new:
        build_tensor(model)
    with pytest.raises(TensorNotInSectionSpace) as old:
        assembly_route.five_term_forms(SectionSpace(model), truncate=False)
    assert (new.value.pair, new.value.details) == (old.value.pair, old.value.details)
    assert new.value.pair == f"(1, t^{k})"
    assert all(" block outside the basis" in d for d in new.value.details)


def test_affine_linearity_cross_difference():
    """B(v+v') - B(v) - B(v') + B(0) = 0 in (Q, P) at fixed c."""
    rng = random.Random(SEED + 2)
    for k in (1, 2, 3):
        Q1, Q2 = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
        P1, P2 = ([rng.randint(-3, 3) for _ in range(5)] for _ in range(2))
        total = build_tensor(CurveModel.even(
            k, [a + b for a, b in zip(Q1, Q2)], [a + b for a, b in zip(P1, P2)]))
        cross = (total - build_tensor(CurveModel.even(k, Q1, P1))
                 - build_tensor(CurveModel.even(k, Q2, P2))
                 + build_tensor(CurveModel.even(k, 0, 0)))
        assert cross.is_zero
        for c in (F(0), F(2)):
            Q1, Q2 = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
            P1, P2 = ([rng.randint(-3, 3) for _ in range(4)] for _ in range(2))
            total = build_tensor(CurveModel.odd(
                k, c, [a + b for a, b in zip(Q1, Q2)], [a + b for a, b in zip(P1, P2)]))
            cross = (total - build_tensor(CurveModel.odd(k, c, Q1, P1))
                     - build_tensor(CurveModel.odd(k, c, Q2, P2))
                     + build_tensor(CurveModel.odd(k, c, 0, 0)))
            assert cross.is_zero


def test_moved_point_direction_is_linear():
    """B(c, 0, 0) - B(0, 0, 0) scales linearly in c."""
    for k in (1, 2):
        b0 = build_tensor(CurveModel.odd(k, 0, 0, 0))
        step = build_tensor(CurveModel.odd(k, 1, 0, 0)) - b0
        assert build_tensor(CurveModel.odd(k, 3, 0, 0)) - b0 == step.scale(3)


def _shifted_coeffs(coeffs, mu):
    """Ascending coefficients of p(t - mu) from those of p(t)."""
    out = [F(0)] * len(coeffs)
    for i, c in enumerate(coeffs):
        for e in range(i + 1):
            out[e] += c * comb(i, e) * (-mu) ** (i - e)
    return out


def _unipotent(space, mu):
    """Rows t^i x^u -> (t + mu)^i x^u of the basis, as {index: coefficient}."""
    slots = space.slots
    return [{slots[(u, e)]: comb(i, e) * mu ** (i - e) for e in range(i + 1)}
            for (u, i) in slots]


def _push_forward(T, space, mu):
    """T, given on coordinates t'^i x^u, rewritten on t^i x^u = (t' - mu)^i x^u:
    {y_a, y_b} = sum A_ac A_bd pi_cd(y'), with y = A y' and y' = A^-1 y."""
    A, A_inv = _unipotent(space, -mu), _unipotent(space, mu)
    pi = {}
    for a in range(T.n):
        for b in range(a + 1, T.n):
            form = pi.setdefault((a, b), {})
            for c, x in A[a].items():
                for d, y in A[b].items():
                    for (g, h), val in T.form(c, d).items():
                        for e, z in A_inv[g].items():
                            for f, w in A_inv[h].items():
                                key = (min(e, f), max(e, f))
                                form[key] = form.get(key, 0) + x * y * z * w * val
    return BracketTensor(T.parity, T.k, T.n, pi)


@pytest.mark.parametrize("mu", [F(1), F(1, 2)])
def test_even_build_is_natural_under_translation(mu):
    """The curve x^2 = Q(t - mu) x + P(t - mu) is x^2 = Q x + P moved by
    t' = t + mu; its tensor, pushed forward by t^i x^u -> (t' - mu)^i x^u,
    is the tensor of the unmoved curve."""
    Q, P = [1, -2, F(3, 2)], [2, 1, -1, 3, F(1, 3)]
    for k in range(1, 5):
        moved = CurveModel.even(k, _shifted_coeffs(Q, mu), _shifted_coeffs(P, mu))
        pushed = _push_forward(build_tensor(moved), SectionSpace(moved), mu)
        assert pushed == build_tensor(CurveModel.even(k, Q, P)), k


def test_family_shapes_and_labels():
    """Nine members with the documented direction labels."""
    fam = build_family("even", 2)
    assert len(fam.tensors) == 9
    assert fam.labels == ("const", "Q:t^0", "Q:t^1", "Q:t^2",
                          "P:t^0", "P:t^1", "P:t^2", "P:t^3", "P:t^4")
    famo = build_family("odd", 1)
    assert len(famo.tensors) == 9
    assert famo.labels == ("const", "c", "Q:t^0", "Q:t^1", "Q:t^2",
                           "P:t^0", "P:t^1", "P:t^2", "P:t^3")
    with pytest.raises(ValueError):
        build_family("neither", 2)


def test_family_reconstruction_even():
    """The family combined with the curve's coefficients is the direct build."""
    fam = build_family("even", 2)
    q, p = [2, -1, 3], [1, 4, 0, -2, 5]
    combo = sum((m.scale(x) for x, m in zip(q + p, fam.tensors[1:])), fam.tensors[0])
    assert combo == build_tensor(CurveModel.even(2, q, p))


def test_family_reconstruction_odd_linear_locus():
    """The odd combination is exact at c = 0 and on the c axis, where the
    truncated assembly is linear in the curve data."""
    fam = build_family("odd", 1)
    for c, q, p in ((0, [1, -2, 4], [3, 1, -1, 2]), (5, [0, 0, 0], [0, 0, 0, 0])):
        combo = sum((m.scale(x) for x, m in zip([c] + q + p, fam.tensors[1:])),
                    fam.tensors[0])
        assert combo == build_tensor(CurveModel.odd(1, c, q, p))


def test_tensor_linear_algebra():
    """Scaling and addition behave like a vector space."""
    T = build_tensor(CurveModel.even(2, 0, [7]))
    assert (T + T) == T.scale(2)
    assert (T - T).is_zero
    assert T.scale(F(1, 2)).scale(2) == T


def test_json_roundtrip_and_stability():
    """Serialization is lossless and byte-stable."""
    T = build_tensor(CurveModel.odd(2, 1, [0, 2, -1], [-1, 1, 0, 3]))
    payload = T.to_json()
    again = BracketTensor.from_json(payload)
    assert again == T
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        build_tensor(CurveModel.odd(2, 1, [0, 2, -1], [-1, 1, 0, 3])).to_json(),
        sort_keys=True)
    pairs = [(entry["a"], entry["b"]) for entry in payload["pi"]]
    assert pairs == sorted(pairs)
    for entry in payload["pi"]:
        monos = [(item["u"], item["v"]) for item in entry["q"]]
        assert monos == sorted(monos)
        assert all("/" in item["val"] for item in entry["q"])


def test_tensor_rejects_unreadable_entries():
    """Shape, pair order and monomial range are checked at construction."""
    form = {(0, 0): F(1)}
    for args in (("even", 2, 5, {}), ("odd", 2, 4, {}), ("flat", 2, 4, {}),
                 ("even", 2, 4, {(1, 0): form}), ("even", 2, 4, {(0, 4): form}),
                 ("even", 2, 4, {(0, 1): {(2, 1): F(1)}}),
                 ("even", 2, 4, {(0, 1): {(0, 4): F(1)}})):
        with pytest.raises(ValueError):
            BracketTensor(*args)
    fam = build_family("odd", 1)
    with pytest.raises(ValueError):
        FamilyBasis("odd", 1, fam.tensors[:8], fam.labels[:8])
    with pytest.raises(ValueError):
        FamilyBasis("odd", 2, fam.tensors, fam.labels)


def test_family_json_shape():
    """Family serialization carries the basis and the labels."""
    fam = build_family("even", 1)
    data = fam.to_json()
    assert data["parity"] == "even" and data["k"] == 1
    assert len(data["basis"]) == 9
    assert data["labels"][0] == "const"


def test_symbolic_model_is_rejected():
    """Curves are numeric: a coefficient in another variable is refused
    when the model is constructed."""
    from artifact.exact_core import Poly
    with pytest.raises(ValueError):
        CurveModel.even(1, 0, Poly.var(("t", "a0"), "a0"))
