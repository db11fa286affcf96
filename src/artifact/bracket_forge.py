"""Assembly of quadratic antisymmetric bracket tensors from curve data.

A bracket tensor on the dual of a section space stores, for every pair of
coordinates (a, b) with a < b, a symmetric quadratic form in the coordinates.
The forms come from a five-term combination of the multiplication kernel and
the canonical derivation.  Both terms are read off x-coordinates of basis
monomials t^i x^u in closed form, so the library holds no type for curve
functions.  Reading coordinates is linear, so the assembly uses
bilinearity: the kernel term of each pair is read with one division of each
x-block by t1 - t2 and no pole, and the n derivation images are read once
each and added to the rows of the two coordinates of the pair.

For even parity the five-term combination lands in the tensor square of the
section space exactly, and the assembly is strict.  For odd parity the
derivation picks up a double pole at the distinguished point over the moved
branch point, so the raw combination does not land there; the assembly
truncates, dropping the pole parts and the out-of-range monomials, and the
builder recenters the result with a fixed curve-independent correction.
The recentred tensor agrees, after the chart descent, with the closed-form
chart brackets, and it is what every downstream check certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_core import NonzeroRemainder, Poly, RationalLike, poly_divmod_linear, rat, rat_str
from .curve_ring import CurveModel, SectionSpace

PairKey = Tuple[int, int]
FormDict = Dict[Tuple[int, int], Fraction]


class TensorNotInSectionSpace(ValueError):
    """The assembled pair tensor has a component outside the section basis."""

    def __init__(self, pair: str, details: Sequence[str]):
        self.pair = pair
        self.details = tuple(details)
        super().__init__(f"pair {pair}: " + "; ".join(self.details))


class BracketTensor:
    """Antisymmetric tensor of symmetric quadratic forms.

    pi maps (a, b) with a < b to {(u, v) with u <= v: coefficient}; the
    form for (b, a) is the negation.  Equality ignores provenance.
    """

    def __init__(self, parity: str, k: int, n: int,
                 pi: Dict[PairKey, FormDict], provenance: Optional[dict] = None):
        if parity not in ("even", "odd"):
            raise ValueError(f"unknown parity {parity!r}")
        if n != 2 * k + (parity == "odd"):
            raise ValueError(f"{parity} tensor at k={k} cannot have n={n}")
        for (a, b), form in pi.items():
            if not 0 <= a < b < n:
                raise ValueError(f"pair ({a}, {b}) is not 0 <= a < b < {n}")
            for u, v in form:
                if not 0 <= u <= v < n:
                    raise ValueError(f"pair ({a}, {b}): monomial ({u}, {v}) "
                                     f"is not 0 <= u <= v < {n}")
        self.parity = parity
        self.k = k
        self.n = n
        self.pi = {pair: {mono: val for mono, val in form.items() if val}
                   for pair, form in pi.items()}
        self.pi = {pair: form for pair, form in self.pi.items() if form}
        self.provenance = dict(provenance or {})

    def form(self, a: int, b: int) -> FormDict:
        """Quadratic form of the (a, b) bracket entry, sign included."""
        if a == b:
            return {}
        if a < b:
            return dict(self.pi.get((a, b), {}))
        return {mono: -val for mono, val in self.pi.get((b, a), {}).items()}

    @property
    def is_zero(self) -> bool:
        return not self.pi

    def _combine(self, other: "BracketTensor", factor: Fraction) -> "BracketTensor":
        if not isinstance(other, BracketTensor):
            raise TypeError("expected a BracketTensor")
        if (self.parity, self.k, self.n) != (other.parity, other.k, other.n):
            raise ValueError("tensor shapes differ")
        pi: Dict[PairKey, FormDict] = {pair: dict(form) for pair, form in self.pi.items()}
        for pair, form in other.pi.items():
            target = pi.setdefault(pair, {})
            for mono, val in form.items():
                target[mono] = target.get(mono, Fraction(0)) + factor * val
        return BracketTensor(self.parity, self.k, self.n, pi,
                             {"combination": "linear"})

    def __add__(self, other: "BracketTensor") -> "BracketTensor":
        return self._combine(other, Fraction(1))

    def __sub__(self, other: "BracketTensor") -> "BracketTensor":
        return self._combine(other, Fraction(-1))

    def scale(self, factor: RationalLike) -> "BracketTensor":
        factor = rat(factor)
        pi = {pair: {mono: factor * val for mono, val in form.items()}
              for pair, form in self.pi.items()}
        return BracketTensor(self.parity, self.k, self.n, pi,
                             {"combination": "scaled"})

    def __eq__(self, other) -> bool:
        if not isinstance(other, BracketTensor):
            return NotImplemented
        return ((self.parity, self.k, self.n) == (other.parity, other.k, other.n)
                and self.pi == other.pi)

    def __repr__(self) -> str:
        return f"BracketTensor({self.parity}, k={self.k}, n={self.n}, pairs={len(self.pi)})"

    def to_json(self) -> dict:
        pairs = []
        for a, b in sorted(self.pi):
            q = [{"u": u, "v": v, "val": rat_str(val)}
                 for (u, v), val in sorted(self.pi[(a, b)].items())]
            pairs.append({"a": a, "b": b, "q": q})
        return {"parity": self.parity, "k": self.k, "n": self.n,
                "curve": self.provenance, "pi": pairs}

    @classmethod
    def from_json(cls, data: dict) -> "BracketTensor":
        """Inverse of to_json; ValueError on any entry it cannot read."""
        pi: Dict[PairKey, FormDict] = {}
        for entry in data["pi"]:
            pair = (_json_int(entry["a"]), _json_int(entry["b"]))
            if pair in pi:
                raise ValueError(f"pair {pair} listed twice")
            form: FormDict = {}
            for item in entry["q"]:
                mono = (_json_int(item["u"]), _json_int(item["v"]))
                if mono in form:
                    raise ValueError(f"pair {pair}: monomial {mono} listed twice")
                form[mono] = _json_rational(item["val"])
            pi[pair] = form
        return cls(data["parity"], _json_int(data["k"]), _json_int(data["n"]), pi,
                   data.get("curve"))


def _json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"index {value!r} is not an integer")
    return value


def _json_rational(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"coefficient {value!r} is neither an integer nor a rational string")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"coefficient {value!r} has a zero denominator") from exc


@dataclass(frozen=True)
class FamilyBasis:
    """The nine-member basis of an anticanonical bracket family."""

    parity: str
    k: int
    tensors: Tuple[BracketTensor, ...]
    labels: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tensors) != 9 or len(self.labels) != 9:
            raise ValueError(f"a family has nine members and nine labels, got "
                             f"{len(self.tensors)} and {len(self.labels)}")
        shapes = {(t.parity, t.k, t.n) for t in self.tensors}
        if len(shapes) != 1 or next(iter(shapes))[:2] != (self.parity, self.k):
            raise ValueError(f"members do not share the family's shape "
                             f"({self.parity}, k={self.k}): {sorted(shapes)}")

    def to_json(self) -> dict:
        return {"parity": self.parity, "k": self.k,
                "basis": [t.to_json() for t in self.tensors],
                "labels": list(self.labels)}

    @classmethod
    def from_json(cls, data: dict) -> "FamilyBasis":
        """Inverse of to_json; ValueError on any entry it cannot read."""
        tensors = tuple(BracketTensor.from_json(item) for item in data["basis"])
        labels = data["labels"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError(f"labels {labels!r} are not a list of strings")
        return cls(data["parity"], _json_int(data["k"]), tensors, tuple(labels))


# A slot of a two-point grid: (power of x, power of t).  The basis index
# of slot (u, i) is i, or k + 1 + i for u = 1, when i is in range.
Slot = Tuple[int, int]
Grid = Dict[Tuple[Slot, Slot], Fraction]

_BLOCK_TAGS = {(0, 0): "1x1", (1, 0): "x1", (0, 1): "x2", (1, 1): "x1*x2"}
_BIVARS = ("t1", "t2")
_T2 = Poly.var(_BIVARS, "t2")
# -(Q1 + Q2)/2 and (tau_l, Q_l, P_l) for slots l = 1, 2, over (t1, t2).
KernelCurve = Tuple[Poly, Tuple[Tuple[Poly, Poly, Poly], ...]]


def _basis_slots(space: SectionSpace) -> Dict[Slot, int]:
    """Slot -> basis index, in basis order."""
    slots = {(0, i): i for i in range(space.k + 1)}
    slots.update({(1, j): space.k + 1 + j for j in range(space.x_deg_max + 1)})
    return slots


def _kernel_curve(model: CurveModel) -> KernelCurve:
    """The curve tau x^2 = Q x + P in both slots, over (t1, t2), with tau = 1
    (even) or t + c (odd): the constant -(Q1 + Q2)/2 of w1 + w2, and
    (tau_l, Q_l, P_l) for slots l = 1, 2."""
    sides = tuple(tuple(p.with_context(_BIVARS, {"t": var})
                        for p in (model.tau_poly(), model.Q, model.P))
                  for var in _BIVARS)
    return (sides[0][1] + sides[1][1]) * Fraction(-1, 2), sides


def _kernel_grid(sa: Slot, sb: Slot, curve: KernelCurve) -> Grid:
    """Grid of K = S (s_a(1) s_b(2) - s_b(1) s_a(2)) for the monomials
    s_a = t^i x^u and s_b = t^j x^v of slots (u, i) and (v, j), read off
    x-coordinates in closed form; curve is _kernel_curve of the model.

    With w = tau x - Q/2, S = (w1 + w2)/(t1 - t2) and M the antisymmetric
    product, (w1 + w2) M = (tau1 x1 + tau2 x2 - (Q1 + Q2)/2) M.  An x_l^2
    arises only as tau_l x_l * x_l = Q_l x_l + P_l, so the product has
    polynomial x-blocks in (t1, t2) and no pole.  Each block vanishes on
    t1 = t2, hence is divisible by t1 - t2.  With m = t1^i t2^j - t1^j t2^i:
    (u, v) = (0, 0): M = m, blocks -(Q1 + Q2)/2 m, tau1 m (x1), tau2 m (x2).
    (u, v) = (1, 1): M = m x1 x2, product m (P2 x1 + P1 x2 + (Q1 + Q2)/2 x1 x2).
    (u, v) = (0, 1): with p = t1^i t2^j, q = t1^j t2^i, M = p x2 - q x1, blocks
    p P2 - q P1, q (Q2 - Q1)/2 (x1), p (Q2 - Q1)/2 (x2), tau1 p - tau2 q (x1 x2);
    on t1 = t2, p = q, P1 = P2 and tau1 = tau2.
    (u, v) = (1, 0) is the negated swap of (0, 1).  Each block is divided
    once by t1 - t2; the (t1, t2) exponents of the quotient are the
    t-powers of the two slots.
    """
    (u, i), (v, j) = sa, sb
    product = {(u, v): Poly(_BIVARS, {(i, j): 1})}
    product[(v, u)] = product.get((v, u), Poly(_BIVARS)) - Poly(_BIVARS, {(j, i): 1})
    const, sides = curve
    blocks: Dict[Tuple[int, int], Poly] = {}

    def add(key: Tuple[int, int], p: Poly) -> None:
        blocks[key] = blocks[key] + p if key in blocks else p

    for key, m in product.items():
        add(key, const * m)
        for slot, (tau, Q, P) in enumerate(sides):
            up = key[:slot] + (1,) + key[slot + 1:]
            if key[slot]:
                add(up, Q * m)
                add(key[:slot] + (0,) + key[slot + 1:], P * m)
            else:
                add(up, tau * m)
    grid: Grid = {}
    for (x1, x2), block in blocks.items():
        q, r = poly_divmod_linear(block, "t1", _T2)
        if not r.is_zero:
            raise NonzeroRemainder(f"{_BLOCK_TAGS[(x1, x2)]} block of the kernel of slots "
                                   f"{sa}, {sb} does not vanish on t1 = t2")
        for (a, b), val in q.terms.items():
            grid[((x1, a), (x2, b))] = val
    return grid


def _derivation_image(slot: Slot, model: CurveModel) -> Dict[Slot, Fraction]:
    """D(t^i x^u) by slot, for slot (u, i), read in closed form; in the odd
    parity the pole part at t = -c is dropped.

    On tau x^2 = Q x + P, with tau = 1 (even) or t + c (odd), the
    derivation is D(t) = 2 tau x - Q and D(x) = P' + Q' x - tau' x^2.  So
    D(t^i) = i t^(i-1) (2 tau x - Q), and as 2 tau x^2 - Q x = Q x + 2P,
    D(t^j x) = j t^(j-1) (Q x + 2P) + t^j (P' + Q' x) - tau' t^j x^2.
    Even, tau' = 0.  Odd, tau' t^j x^2 = t^j (Q x + P)/(t + c): its
    polynomial part is kept, and its pole part
    (-c)^j (Q(-c) x + P(-c))/(t + c) is dropped.
    """
    u, i = slot
    Q, P = model.Q, model.P
    s = Poly.var(model.tvars, "t", i)
    ds = s.derivative("t")
    if u == 0:
        blocks = [-ds * Q, 2 * ds * model.tau_poly()]
    else:
        blocks = [2 * ds * P + s * P.derivative("t"), ds * Q + s * Q.derivative("t")]
        if model.parity == "odd":
            blocks = [block - poly_divmod_linear(s * p, "t", -model.c)[0]
                      for block, p in zip(blocks, (P, Q))]
    return {(x, e): val for x, block in enumerate(blocks) for (e,), val in block.terms.items()}


def _overflow_details(grid: Grid, slots: Dict[Slot, int]) -> List[str]:
    """The nonzero entries of grid outside basis x basis, in block order."""
    out = sorted((2 * v + u, i, j) for ((u, i), (v, j)), val in grid.items()
                 if val and not ((u, i) in slots and (v, j) in slots))
    return [f"term t1^{i}*t2^{j} of the {_BLOCK_TAGS[(b % 2, b // 2)]} block outside the basis"
            for b, i, j in out]


def _five_term_forms(space: SectionSpace) -> Dict[PairKey, FormDict]:
    """Forms of n*S(s_a^s_b) + s_a (x) D(s_b) + D(s_b) (x) s_a - s_b (x) D(s_a)
    - D(s_a) (x) s_b over every basis pair a < b, D the canonical derivation.

    Reading a grid is linear and the derivation terms factor over the
    basis, so each D(s_b) is read once: symmetrized, the pair's form is n
    times the symmetrized kernel grid, plus 2 D(s_b) in row a, minus
    2 D(s_a) in row b.  The odd parity truncates: its derivation images
    carry no pole part, and out-of-basis slots are dropped.  The even
    parity is strict: it rejects a pair whose summed grid has an entry
    outside the basis, where kernel and derivation overflow may cancel;
    neither term has a pole there.
    """
    n = space.dim
    strict = space.model.parity == "even"
    labels = space.labels()
    slots = _basis_slots(space)
    keys = list(slots)
    images = [_derivation_image(s, space.model) for s in keys]
    inside = [{slots[s]: val for s, val in image.items() if s in slots} for image in images]
    outside = [{s: val for s, val in image.items() if s not in slots} for image in images]
    curve = _kernel_curve(space.model)
    pi: Dict[PairKey, FormDict] = {}
    for a in range(n):
        for b in range(a + 1, n):
            grid = _kernel_grid(keys[a], keys[b], curve)
            form: FormDict = {}
            for (s1, s2), val in grid.items():
                if s1 in slots and s2 in slots:
                    u, v = slots[s1], slots[s2]
                    key = (u, v) if u <= v else (v, u)
                    form[key] = form.get(key, 0) + n * val
            for row, image, sign in ((a, inside[b], 2), (b, inside[a], -2)):
                for u, val in image.items():
                    key = (row, u) if row <= u else (u, row)
                    form[key] = form.get(key, 0) + sign * val
            if strict:
                overflow = {key: n * val for key, val in grid.items()
                            if not (key[0] in slots and key[1] in slots)}
                for row, image, sign in ((keys[a], outside[b], 1), (keys[b], outside[a], -1)):
                    for s, val in image.items():
                        for key in ((row, s), (s, row)):
                            overflow[key] = overflow.get(key, 0) + sign * val
                problems = _overflow_details(overflow, slots)
                if problems:
                    raise TensorNotInSectionSpace(f"({labels[a]}, {labels[b]})", problems)
            form = {key: val for key, val in form.items() if val}
            if form:
                pi[(a, b)] = form
    return pi


def truncated_five_term(model: CurveModel, k: Optional[int] = None) -> BracketTensor:
    """Literal five-term assembly of an odd curve with pole parts and
    excess monomials dropped.

    This is the raw ingredient of the odd builder, exposed for dual-route
    consistency checks; it is not itself a Poisson tensor in general.
    """
    if model.parity != "odd":
        raise ValueError("the truncated assembly needs an odd curve")
    model._require_numeric("bracket construction")
    space = SectionSpace(model, k)
    forms = _five_term_forms(space)
    prov = dict(model.to_json())
    prov["assembly"] = "five-term, truncated"
    return BracketTensor(model.parity, space.k, space.dim, forms, prov)


_ODD_SHIFT_CACHE: Dict[int, BracketTensor] = {}


def _odd_shift(k: int) -> BracketTensor:
    """Curve-independent recentering correction for the odd assembly.

    With W(c, Q, P) the truncated five-term forms, the correction is
    (2/(2k+1)) * (W(1,0,0) - 2 W(0,0,0)); adding it to W(c, Q, P) matches
    the closed-form chart brackets and restores the Jacobi identity.  As
    W(c,0,0) is affine in c, the correction is -(2/(2k+1)) * W(-1,0,0),
    one assembly per k.
    """
    if k not in _ODD_SHIFT_CACHE:
        moved = truncated_five_term(CurveModel.odd(k, -1, 0, 0))
        _ODD_SHIFT_CACHE[k] = moved.scale(Fraction(-2, 2 * k + 1))
    return _ODD_SHIFT_CACHE[k]


def build_tensor(model: CurveModel, k: Optional[int] = None) -> BracketTensor:
    """Bracket tensor of the curve on the level-k coordinate space.

    Even parity: strict five-term assembly (every component must land in
    the section basis, otherwise TensorNotInSectionSpace).  Odd parity:
    truncated five-term assembly plus the fixed recentering correction.
    """
    if model.parity == "odd":
        base = truncated_five_term(model, k)
        out = base + _odd_shift(base.k)
        out.provenance = dict(model.to_json(), assembly="five-term, pole-corrected")
        return out
    model._require_numeric("bracket construction")
    space = SectionSpace(model, k)
    prov = dict(model.to_json(), assembly="five-term")
    return BracketTensor(model.parity, space.k, space.dim, _five_term_forms(space), prov)


def _unit_coeffs(i: int, size: int) -> List[int]:
    out = [0] * size
    out[i] = 1
    return out


def build_family(parity: str, k: int) -> FamilyBasis:
    """Nine-tensor basis of the bracket family at level k.

    Index 0 is the tensor of the zero curve data; the rest are unit
    directions: for odd parity the moved-branch-point direction first,
    then the three Q monomials, then the P monomials (five even, four odd).
    """
    b0 = build_tensor(CurveModel(parity, k, 0, 0))
    p_len = 5 if parity == "even" else 4
    directions = [("c", CurveModel.odd(k, 1, 0, 0))] if parity == "odd" else []
    directions += [(f"Q:t^{i}", CurveModel(parity, k, _unit_coeffs(i, 3), 0)) for i in range(3)]
    directions += [(f"P:t^{j}", CurveModel(parity, k, 0, _unit_coeffs(j, p_len)))
                   for j in range(p_len)]
    tensors = [b0] + [build_tensor(model) - b0 for _, model in directions]
    labels = ["const"] + [label for label, _ in directions]
    for tensor, label in zip(tensors, labels):
        tensor.provenance = {"family": parity, "k": k, "direction": label}
    return FamilyBasis(parity, k, tuple(tensors), tuple(labels))
