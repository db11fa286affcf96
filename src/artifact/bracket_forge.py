"""Assembly of quadratic antisymmetric bracket tensors from curve data.

A bracket tensor on the dual of a section space stores, for every pair of
coordinates (a, b) with a < b, a symmetric quadratic form in the coordinates.
The forms come from a five-term combination of the multiplication kernel and
the canonical derivation.  Both terms are read off x-coordinates of basis
monomials t^i x^u in closed form, so the library holds no type for curve
functions.  Reading coordinates is linear, so the assembly uses
bilinearity: the kernel term of each pair is read per pair, and the n
derivation images are read once each and added to the rows of the two
coordinates of the pair.

Every x-block of the kernel numerator is a sum of (curve coefficient)
(monomial) B(a, b), B(a, b) = t1^a t2^b - t1^b t2^a, and for a > b

    B(a, b)/(t1 - t2) = sum_{r=0}^{a-b-1} t1^(a-1-r) t2^(b+r),

so the kernel term needs no polynomial product and no division, and the
block list sits in _kernel_grid.  The curve data and the derivation
images are cleared to integers once per build; each pair's form is summed
in ints and each output coefficient is one Fraction.

For even parity the five-term combination lands in the tensor square of the
section space exactly, and the assembly is strict.  For odd parity the
derivation picks up a double pole at the distinguished point over the moved
branch point, so the raw combination does not land there; the assembly
truncates, dropping the pole parts and the out-of-range monomials, and is
recentred by a fixed curve-independent correction folded into the same
assembly (build_tensor).  The recentred tensor agrees, after the chart
descent, with the closed-form chart brackets, and it is what every
downstream check certifies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exact_core import Poly, RationalLike, poly_divmod_linear, rat, rat_str
from .curve_ring import P_LEN, Q_LEN, CurveModel, SectionSpace, dimension

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
        if n != dimension(parity, k):
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
        for entry in _json_list(data["pi"], "pi"):
            pair = (_json_int(entry["a"]), _json_int(entry["b"]))
            if pair in pi:
                raise ValueError(f"pair {pair} listed twice")
            form: FormDict = {}
            for item in _json_list(entry["q"], f"pair {pair}: q"):
                mono = (_json_int(item["u"]), _json_int(item["v"]))
                if mono in form:
                    raise ValueError(f"pair {pair}: monomial {mono} listed twice")
                form[mono] = _json_rational(item["val"])
            pi[pair] = form
        return cls(data["parity"], _json_int(data["k"]), _json_int(data["n"]), pi,
                   data.get("curve"))


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} is a {type(value).__name__}, not a list")
    return value


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


class FamilyBasis:
    """The nine-member basis of an anticanonical bracket family."""

    def __init__(self, parity: str, k: int, tensors: Tuple[BracketTensor, ...],
                 labels: Tuple[str, ...]) -> None:
        if len(tensors) != 9 or len(labels) != 9:
            raise ValueError(f"a family has nine members and nine labels, got "
                             f"{len(tensors)} and {len(labels)}")
        shapes = {(t.parity, t.k, t.n) for t in tensors}
        if len(shapes) != 1 or next(iter(shapes))[:2] != (parity, k):
            raise ValueError(f"members do not share the family's shape "
                             f"({parity}, k={k}): {sorted(shapes)}")
        self.parity = parity
        self.k = k
        self.tensors = tensors
        self.labels = labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, FamilyBasis):
            return NotImplemented
        return ((self.parity, self.k, self.tensors, self.labels)
                == (other.parity, other.k, other.tensors, other.labels))

    def to_json(self) -> dict:
        return {"parity": self.parity, "k": self.k,
                "basis": [t.to_json() for t in self.tensors],
                "labels": list(self.labels)}

    @classmethod
    def from_json(cls, data: dict) -> "FamilyBasis":
        """Inverse of to_json; ValueError on any entry it cannot read."""
        tensors = tuple(BracketTensor.from_json(item)
                        for item in _json_list(data["basis"], "basis"))
        labels = data["labels"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError(f"labels {labels!r} are not a list of strings")
        return cls(data["parity"], _json_int(data["k"]), tensors, tuple(labels))


# A slot of a two-point grid: (power of x, power of t).  SectionSpace.slots
# gives the basis index of each slot in range.
Slot = Tuple[int, int]
Scalar = Union[int, Fraction]
Grid = Dict[Tuple[Slot, Slot], Scalar]
# tau, Q/2 and P of the curve tau x^2 = Q x + P: ascending coefficient
# lists in t, all times one scale.
KernelCurve = Tuple[List[int], List[int], List[int]]

_BLOCK_TAGS = {(0, 0): "1x1", (1, 0): "x1", (0, 1): "x2", (1, 1): "x1*x2"}


def _kernel_curve(model: CurveModel, tau: Poly) -> Tuple[int, KernelCurve]:
    """(D, curve) with curve = D (tau, Q/2, P) of the curve tau x^2 = Q x + P
    as int coefficient lists and D = 2 lcm of the denominators, so the
    grids _kernel_grid reads off curve are D times the kernel's."""
    parts = [p.coeffs_univar("t") for p in (tau, model.Q, model.P)]
    den = 2 * math.lcm(*(val.denominator for part in parts for val in part))
    tau_d, half_q, p_d = ([val.numerator * (scale // val.denominator) for val in part]
                          for part, scale in zip(parts, (den, den // 2, den)))
    return den, (tau_d, half_q, p_d)


def _add_quotient(block: Dict[Tuple[int, int], int], coeff: int, a: int, b: int,
                  e1: int = 0, e2: int = 0) -> None:
    """block += coeff t1^e1 t2^e2 B(a, b)/(t1 - t2), B(a, b) = t1^a t2^b - t1^b t2^a.

    For a > b the quotient is sum_{r=0}^{a-b-1} t1^(a-1-r) t2^(b+r), and
    B(b, a) = -B(a, b)."""
    if a < b:
        a, b, coeff = b, a, -coeff
    for r in range(a - b):
        key = (e1 + a - 1 - r, e2 + b + r)
        block[key] = block.get(key, 0) + coeff


def _kernel_grid(sa: Slot, sb: Slot, curve: KernelCurve) -> Grid:
    """Grid of K = S (s_a(1) s_b(2) - s_b(1) s_a(2)) for the monomials
    s_a = t^i x^u and s_b = t^j x^v of slots (u, i) and (v, j), read off
    x-coordinates in closed form, times the scale of curve (_kernel_curve).

    With w = tau x - Q/2, S = (w1 + w2)/(t1 - t2) and M the antisymmetric
    product, (w1 + w2) M = (tau1 x1 + tau2 x2 - (Q1 + Q2)/2) M.  An x_l^2
    arises only as tau_l x_l * x_l = Q_l x_l + P_l, so every x-block of the
    product is a sum of (curve coefficient) (monomial) B(a, b), and its
    quotient by t1 - t2 is read off _add_quotient.  With tau_l, Q_l and P_l
    the coefficients of t^l, the blocks are:
    (u, v) = (0, 0): -1/2 sum Q_l (t1^l + t2^l) B(i, j) (1),
      sum tau_l t1^l B(i, j) (x1), sum tau_l t2^l B(i, j) (x2).
    (u, v) = (1, 1): sum P_l t2^l B(i, j) (x1), sum P_l t1^l B(i, j) (x2),
      1/2 sum Q_l (t1^l + t2^l) B(i, j) (x1 x2).
    (u, v) = (0, 1): sum P_l B(i, j + l) (1), -1/2 sum Q_l t1^j t2^i B(l, 0)
      (x1), -1/2 sum Q_l t1^i t2^j B(l, 0) (x2), sum tau_l B(i + l, j) (x1 x2).
    (u, v) = (1, 0) is the negated transpose of (0, 1).  The (t1, t2)
    exponents of a quotient are the t-powers of the two slots.
    """
    (u, i), (v, j) = sa, sb
    if (u, v) == (1, 0):
        return {(s2, s1): -val for (s1, s2), val in _kernel_grid(sb, sa, curve).items()}
    tau, half_q, p = curve
    blocks: Dict[Tuple[int, int], Dict[Tuple[int, int], int]] = {key: {} for key in _BLOCK_TAGS}
    if u != v:
        for l, val in enumerate(p):
            _add_quotient(blocks[(0, 0)], val, i, j + l)
        for l, q in enumerate(half_q):
            _add_quotient(blocks[(1, 0)], -q, l, 0, j, i)
            _add_quotient(blocks[(0, 1)], -q, l, 0, i, j)
        for l, val in enumerate(tau):
            _add_quotient(blocks[(1, 1)], val, i + l, j)
    else:
        # x1 takes tau_l t1^l (u = 0) or P_l t2^l (u = 1), x2 the mirror.
        sym, sign, side = (blocks[(1, 1)], 1, p) if u else (blocks[(0, 0)], -1, tau)
        for l, q in enumerate(half_q):
            _add_quotient(sym, sign * q, i, j, l, 0)
            _add_quotient(sym, sign * q, i, j, 0, l)
        for l, val in enumerate(side):
            _add_quotient(blocks[(1, 0)], val, i, j, *((0, l) if u else (l, 0)))
            _add_quotient(blocks[(0, 1)], val, i, j, *((l, 0) if u else (0, l)))
    return {((x1, a), (x2, b)): val for (x1, x2), block in blocks.items()
            for (a, b), val in block.items() if val}


def _derivation_image(slot: Slot, model: CurveModel, tau: Poly) -> Dict[Slot, Fraction]:
    """D(t^i x^u) by slot, for slot (u, i), read in closed form on the curve
    tau x^2 = Q x + P; in the odd parity the pole part at t = -c is dropped.

    The derivation is D(t) = 2 tau x - Q and D(x) = P' + Q' x - tau' x^2.
    So D(t^i) = i t^(i-1) (2 tau x - Q), and as 2 tau x^2 - Q x = Q x + 2P,
    D(t^j x) = j t^(j-1) (Q x + 2P) + t^j (P' + Q' x) - tau' t^j x^2.
    Even, tau' = 0.  Odd, tau' t^j x^2 = t^j (Q x + P)/(t + c): its
    polynomial part is kept, and its pole part
    (-c)^j (Q(-c) x + P(-c))/(t + c) is dropped.  Only D(t^i) reads tau.
    """
    u, i = slot
    Q, P = model.Q, model.P
    s = Poly.var(model.tvars, "t", i)
    ds = s.derivative("t")
    if u == 0:
        blocks = [-ds * Q, 2 * ds * tau]
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


def _five_term_forms(space: SectionSpace, tau: Poly) -> Dict[PairKey, FormDict]:
    """Forms of n*S(s_a^s_b) + s_a (x) D(s_b) + D(s_b) (x) s_a - s_b (x) D(s_a)
    - D(s_a) (x) s_b over every basis pair a < b, D the canonical derivation,
    on the curve tau x^2 = Q x + P of the space's Q and P.

    Reading a grid is linear and the derivation terms factor over the
    basis, so each D(s_b) is read once: symmetrized, the pair's form is n
    times the symmetrized kernel grid, plus 2 D(s_b) in row a, minus
    2 D(s_a) in row b.  Kernel grids and images are ints over one common
    denominator, and each output coefficient is one Fraction.
    The odd parity truncates: its derivation images carry no pole part,
    and out-of-basis slots are dropped.  The even parity is strict: it
    rejects a pair whose summed grid has an entry outside the basis, where
    kernel and derivation overflow may cancel; neither term has a pole there.
    """
    n = space.dim
    strict = space.model.parity == "even"
    labels = space.labels()
    slots = space.slots
    keys = list(slots)
    images = [_derivation_image(s, space.model, tau) for s in keys]
    kernel_den, curve = _kernel_curve(space.model, tau)
    den = math.lcm(kernel_den, *(val.denominator for image in images for val in image.values()))
    kernel_scale = n * (den // kernel_den)
    images = [{s: val.numerator * (den // val.denominator) for s, val in image.items()}
              for image in images]
    inside = [{slots[s]: val for s, val in image.items() if s in slots} for image in images]
    outside = [{s: val for s, val in image.items() if s not in slots} for image in images]
    pi: Dict[PairKey, FormDict] = {}
    for a in range(n):
        for b in range(a + 1, n):
            grid = _kernel_grid(keys[a], keys[b], curve)
            form: Dict[PairKey, int] = {}
            for (s1, s2), val in grid.items():
                if s1 in slots and s2 in slots:
                    u, v = slots[s1], slots[s2]
                    key = (u, v) if u <= v else (v, u)
                    form[key] = form.get(key, 0) + kernel_scale * val
            for row, image, sign in ((a, inside[b], 2), (b, inside[a], -2)):
                for u, val in image.items():
                    key = (row, u) if row <= u else (u, row)
                    form[key] = form.get(key, 0) + sign * val
            if strict:
                overflow = {key: kernel_scale * val for key, val in grid.items()
                            if not (key[0] in slots and key[1] in slots)}
                for row, image, sign in ((keys[a], outside[b], 1), (keys[b], outside[a], -1)):
                    for s, val in image.items():
                        for key in ((row, s), (s, row)):
                            overflow[key] = overflow.get(key, 0) + sign * val
                problems = _overflow_details(overflow, slots)
                if problems:
                    raise TensorNotInSectionSpace(f"({labels[a]}, {labels[b]})", problems)
            form = {key: Fraction(val, den) for key, val in form.items() if val}
            if form:
                pi[(a, b)] = form
    return pi


def build_tensor(model: CurveModel) -> BracketTensor:
    """Bracket tensor of the curve on its level-k coordinate space.

    Even parity: strict five-term assembly (every component must land in
    the section basis, otherwise TensorNotInSectionSpace).  Odd parity:
    the truncated five-term assembly W(c, Q, P) plus the fixed recentering
    correction -(2/(2k+1)) W(-1, 0, 0), built as one assembly.  W is linear
    in (tau, Q, P) at a fixed pole t = -c, its pole part vanishes for
    Q = P = 0 and truncation is linear, so the sum is W with tau replaced
    by tau - (2/(2k+1)) (t - 1) and the pole kept at t = -c.  With the
    correction the odd tensor matches the closed-form chart brackets and
    satisfies the Jacobi identity.
    """
    space = SectionSpace(model)
    tau, assembly = model.tau_poly(), "five-term"
    if model.parity == "odd":
        tau = tau - (Poly.var(model.tvars, "t") - 1) * Fraction(2, space.dim)
        assembly = "five-term, pole-corrected"
    return BracketTensor(model.parity, space.k, space.dim, _five_term_forms(space, tau),
                         dict(model.to_json(), assembly=assembly))


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
    directions = [("c", CurveModel.odd(k, 1, 0, 0))] if parity == "odd" else []
    directions += [(f"Q:t^{i}", CurveModel(parity, k, _unit_coeffs(i, Q_LEN), 0))
                   for i in range(Q_LEN)]
    directions += [(f"P:t^{j}", CurveModel(parity, k, 0, _unit_coeffs(j, P_LEN[parity])))
                   for j in range(P_LEN[parity])]
    tensors = [b0] + [build_tensor(model) - b0 for _, model in directions]
    labels = ["const"] + [label for label, _ in directions]
    for tensor, label in zip(tensors, labels):
        tensor.provenance = {"family": parity, "k": k, "direction": label}
    return FamilyBasis(parity, k, tuple(tensors), tuple(labels))
