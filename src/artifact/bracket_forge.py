"""Assembly of quadratic antisymmetric bracket tensors from curve data.

A bracket tensor on the dual of a section space stores, for every pair of
coordinates (a, b) with a < b, a symmetric quadratic form in the coordinates.
The forms come from a five-term combination of the multiplication kernel and
the canonical derivation, both read off x-coordinates of basis monomials
t^i x^u in closed form from the lists (tau, Q/2, P) of tau x^2 = Q x + P,
with no Poly arithmetic.  Reading coordinates is linear, so the n
derivation images are read once each, and each pair is summed in one slot
grid, its kernel term plus two images.

The one assembly, _five_term_forms, is linear in the lists at a fixed
pole.  Family member i, first defined as build(C_i) - build(0) with C_i
the unit curve, is the assembly at the difference of the lists, as every
C_i has its pole at t = 0.  So a build has span coordinates (1, c, Q, P):
exactly if even, or odd with c = 0 or Q = P = 0, and on the lift always.

Every x-block of the kernel numerator is a sum of (curve coefficient)
(monomial) B(a, b), B(a, b) = t1^a t2^b - t1^b t2^a, and for a > b

    B(a, b)/(t1 - t2) = sum_{r=0}^{a-b-1} t1^(a-1-r) t2^(b+r),

so the kernel term needs no polynomial product and no division, and the
block list sits in _kernel_grid.  The curve lists and the derivation
images are cleared to integers together, by one clear_denominators per
assembly; each pair's grid is summed in ints and each output coefficient
is one Fraction.

For even parity the five-term combination lands in the tensor square of the
section space exactly, and the assembly is strict.  For odd parity the
derivation picks up a double pole at the distinguished point over the moved
branch point; the assembly truncates, dropping the pole parts and the
out-of-range monomials, and a fixed curve-independent correction folded
into the same assembly (build_tensor) recentres it to the tensor that
agrees with the chart brackets and that every downstream check certifies.

The projective bracket is the kernel term alone.  Read as linear forms,
the derivation part of pair (a, b) is 2 x_a D(s_b) - 2 x_b D(s_a), that is
E ^ X with X^b = 2 D(s_b) and E the Euler field; truncation only drops
slots of an image, so the odd part is radial too.  The lift
pi~ = pi - (1/n) E ^ div pi of poisson_verify is linear and kills radial
bivectors, so lift(pi) = n lift(K), K the kernel grids read on basis x
basis: no verdict or rank reads the derivation term, which only makes the
raw even tensor land in the basis.  The kernel grid is linear in
(tau, Q/2, P), and the odd tau = t + c - (2/n)(t - 1) is ((n-2)/n)(t + c'),
c' = s c + 2/(2k-1) with s = n/(n-2) = (2k+1)/(2k-1).  So the odd bracket
is, projectively, the uncorrected kernel bracket of the curve
C'_k: (t + c') x^2 = s (Q x + P).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exact_core import RationalLike, clear_denominators, rat, rat_str
from .curve_ring import P_LEN, Q_LEN, CurveModel, dimension, section_slots

PairKey = Tuple[int, int]
FormDict = Dict[Tuple[int, int], Fraction]


class TensorNotInSectionSpace(ValueError):
    """The assembled pair tensor has a component outside the section basis.

    pair names the basis pair a < b, details each nonzero entry of its slot
    grid outside basis x basis, in block order."""

    def __init__(self, a: int, b: int, grid: Grid, slots: Dict[Slot, int]):
        out = sorted((2 * v + u, i, j) for ((u, i), (v, j)), val in grid.items()
                     if val and not ((u, i) in slots and (v, j) in slots))
        keys = list(slots)
        names = ["*".join(filter(None, (f"t^{i}" if i > 1 else "t" * i, "x" * u))) or "1"
                 for u, i in (keys[a], keys[b])]
        self.pair = pair = f"({names[0]}, {names[1]})"
        self.details = tuple(f"term t1^{i}*t2^{j} of the {_BLOCK_TAGS[(x % 2, x // 2)]} block "
                             "outside the basis" for x, i, j in out)
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
        self.pi = {pair: kept for pair, form in pi.items()
                   if (kept := {mono: val for mono, val in form.items() if val})}
        self.provenance = dict(provenance or {})

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
        return BracketTensor(self.parity, self.k, self.n, {})._combine(self, rat(factor))

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
                form[mono] = rat(item["val"])
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


# A slot of a two-point grid: (power of x, power of t).  section_slots
# gives the basis index of each slot in range.
Slot = Tuple[int, int]
Scalar = Union[int, Fraction]
Grid = Dict[Tuple[Slot, Slot], Scalar]
# tau, Q/2 and P of the curve tau x^2 = Q x + P: ascending coefficient
# lists in t, all times one scale.
KernelCurve = Tuple[Sequence[Scalar], Sequence[Scalar], Sequence[Scalar]]

_BLOCK_TAGS = {(0, 0): "1x1", (1, 0): "x1", (0, 1): "x2", (1, 1): "x1*x2"}


def _add_quotient(grid: Grid, xs: Tuple[int, int], coeff: Scalar, a: int, b: int,
                  e1: int = 0, e2: int = 0) -> None:
    """grid += coeff t1^e1 t2^e2 B(a, b)/(t1 - t2) in the x-block xs = (x1, x2),
    B(a, b) = t1^a t2^b - t1^b t2^a.  For a > b the quotient is
    sum_{r=0}^{a-b-1} t1^(a-1-r) t2^(b+r), and B(b, a) = -B(a, b)."""
    if a < b:
        a, b, coeff = b, a, -coeff
    x1, x2 = xs
    for r in range(a - b):
        key = ((x1, e1 + a - 1 - r), (x2, e2 + b + r))
        grid[key] = grid.get(key, 0) + coeff


def _kernel_grid(sa: Slot, sb: Slot, curve: KernelCurve) -> Grid:
    """Grid of K = S (s_a(1) s_b(2) - s_b(1) s_a(2)) for the monomials
    s_a = t^i x^u and s_b = t^j x^v of slots (u, i) and (v, j), u <= v, read
    off x-coordinates in closed form, times the scale of curve: _five_term_forms
    passes the pairs in slot order, t-slots first, and the curve cleared to
    ints together with the derivation images.

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
    The (t1, t2) exponents of a quotient are the t-powers of the two slots.
    """
    (u, i), (v, j) = sa, sb
    tau, half_q, p = curve
    grid: Grid = {}
    if u != v:
        for l, val in enumerate(p):
            _add_quotient(grid, (0, 0), val, i, j + l)
        for l, q in enumerate(half_q):
            _add_quotient(grid, (1, 0), -q, l, 0, j, i)
            _add_quotient(grid, (0, 1), -q, l, 0, i, j)
        for l, val in enumerate(tau):
            _add_quotient(grid, (1, 1), val, i + l, j)
    else:
        # x1 takes tau_l t1^l (u = 0) or P_l t2^l (u = 1), x2 the mirror.
        sym, sign, side = ((1, 1), 1, p) if u else ((0, 0), -1, tau)
        for l, q in enumerate(half_q):
            _add_quotient(grid, sym, sign * q, i, j, l, 0)
            _add_quotient(grid, sym, sign * q, i, j, 0, l)
        for l, val in enumerate(side):
            _add_quotient(grid, (1, 0), val, i, j, *((0, l) if u else (l, 0)))
            _add_quotient(grid, (0, 1), val, i, j, *((l, 0) if u else (0, l)))
    return {key: val for key, val in grid.items() if val}


def _derivation_image(slot: Slot, curve: KernelCurve, c: Optional[Scalar]) -> Dict[Slot, Scalar]:
    """D(t^i x^u) by slot, for slot (u, i), read in closed form off the
    lists (tau, Q/2, P); for a pole c (odd) the pole part at -c is dropped.

    The derivation is D(t) = 2 tau x - Q and D(x) = P' + Q' x - tau' x^2.
    So D(t^i) = i t^(i-1) (2 tau x - Q), and as 2 tau x^2 - Q x = Q x + 2P,
    D(t^j x) = j t^(j-1) (Q x + 2P) + t^j (P' + Q' x) - tau' t^j x^2: the
    coefficient of t^(j+l-1) is (2j + l) P_l in x^0 and (j + l) Q_l in x^1.
    Even, tau' = 0.  Odd, tau' t^j x^2 = t^j (Q x + P)/(t + c), and of each
    t^m/(t + c) the polynomial part sum_{r<m} (-c)^r t^(m-1-r) is kept.
    """
    u, i = slot
    tau, half_q, p = curve
    image: Dict[Slot, Scalar] = defaultdict(int)
    if u == 0:
        for x, part, scale in ((0, half_q, -2 * i), (1, tau, 2 * i)):
            for l, val in enumerate(part):
                image[(x, i + l - 1)] += scale * val
    else:
        for x, part in ((0, p), (1, [2 * q for q in half_q])):
            for l, val in enumerate(part):
                image[(x, i + l - 1)] += ((2 - x) * i + l) * val
                for r in range(i + l if c is not None else 0):
                    image[(x, i + l - 1 - r)] -= (-c) ** r * val
    return {s: val for s, val in image.items() if val}


def _five_term_forms(slots: Dict[Slot, int], curve: KernelCurve,
                     c: Optional[Scalar]) -> Dict[PairKey, FormDict]:
    """Forms of n*S(s_a^s_b) + s_a (x) D(s_b) + D(s_b) (x) s_a - s_b (x) D(s_a)
    - D(s_a) (x) s_b over every basis pair a < b, D the canonical derivation,
    on the curve of the lists (tau, Q/2, P), pole at t = -c (odd) or none
    (c None, even).

    Reading a grid is linear, so each D(s) is read once, and each pair is
    summed in one slot grid: n times the kernel grid, plus D(s_b) at
    (s_a, s) and (s, s_a), minus D(s_a) at (s_b, s) and (s, s_b), for every
    slot s of the image.  The curve lists and the images are cleared
    together by one clear_denominators; grids are linear in the curve, so
    its part is also scaled by n, and each grid is summed in ints.  One pass
    reads the grid: an entry on basis x basis adds to the symmetrized form;
    one off it is dropped in the odd parity, which truncates (its images
    carry no pole part), and rejects the pair in the even parity, which is
    strict: there kernel and derivation overflow may cancel, and neither
    term has a pole.
    """
    n = len(slots)
    keys = list(slots)
    images = [_derivation_image(s, curve, c) for s in keys]
    den, ints = clear_denominators(val for part in (*curve, *map(dict.values, images)) for val in part)
    ints = iter(ints)
    curve = tuple([n * next(ints) for _ in part] for part in curve)
    images = [{s: next(ints) for s in image} for image in images]
    pi: Dict[PairKey, FormDict] = {}
    for a in range(n):
        for b in range(a + 1, n):
            grid = _kernel_grid(keys[a], keys[b], curve)
            for row, image, sign in ((keys[a], images[b], 1), (keys[b], images[a], -1)):
                for s, val in image.items():
                    for key in ((row, s), (s, row)):
                        grid[key] = grid.get(key, 0) + sign * val
            form: Dict[PairKey, int] = {}
            for (s1, s2), val in grid.items():
                if s1 in slots and s2 in slots:
                    u, v = slots[s1], slots[s2]
                    key = (u, v) if u <= v else (v, u)
                    form[key] = form.get(key, 0) + val
                elif c is None and val:
                    raise TensorNotInSectionSpace(a, b, grid, slots)
            form = {key: Fraction(val, den) for key, val in form.items() if val}
            if form:
                pi[(a, b)] = form
    return pi


def _tau(tau: Sequence[Scalar], n: int) -> List[Scalar]:
    """tau - (2/n) (tau - tau(1)): the recentering correction of build_tensor
    folded into tau, [c + 2/n, 1 - 2/n] for the odd t + c, 1 for the even 1."""
    s = Fraction(2, n)
    out = [(1 - s) * v for v in tau]
    out[0] += s * sum(tau)
    return out


def build_tensor(model: CurveModel) -> BracketTensor:
    """Bracket tensor of the curve on its level-k coordinate space.

    Even parity, no pole: strict five-term assembly (every component must
    land in the section basis, otherwise TensorNotInSectionSpace).  Odd
    parity: the truncated five-term assembly W(c, Q, P) plus the fixed
    recentering correction -(2/n) W(-1, 0, 0), as one assembly: W is linear
    in the lists at the pole t = -c and its pole part vanishes for Q = P = 0,
    so the sum is W at tau - (2/n) (tau - tau(1)) (_tau), which leaves the
    even tau = 1 as it is.  With it the odd tensor satisfies Jacobi.
    """
    slots = section_slots(model.parity, model.k_param)
    curve = (_tau(model.tau, len(slots)), [q / 2 for q in model.Q], model.P)
    return BracketTensor(model.parity, model.k_param, len(slots),
                         _five_term_forms(slots, curve, model.c),
                         dict(model.to_json(), assembly="five-term" if model.c is None
                              else "five-term, pole-corrected"))


def build_family(parity: str, k: int) -> FamilyBasis:
    """Nine-tensor basis of the bracket family at level k.

    Index 0 is the tensor of the zero curve data; the rest are unit
    directions: for odd parity the moved-branch-point direction first,
    then the three Q monomials, then the P monomials (five even, four odd).
    Each is one assembly at the pole t = 0 (odd), on lists: const has the
    tau of build_tensor at c = 0; c has tau = [1], as with Q = P = 0
    moving c moves only tau; the rest a unit Q (1/2 in Q/2) or P.
    """
    slots = section_slots(parity, k)
    c = None if parity == "even" else 0
    members = [("const", (_tau([1] if c is None else [c, 1], len(slots)), [], []))]
    members += [("c", ([1], [], []))] if parity == "odd" else []
    members += [(f"Q:t^{i}", ([], [0] * i + [Fraction(1, 2)], [])) for i in range(Q_LEN)]
    members += [(f"P:t^{j}", ([], [], [0] * j + [1])) for j in range(P_LEN[parity])]
    tensors = tuple(BracketTensor(parity, k, len(slots), _five_term_forms(slots, curve, c),
                                  {"family": parity, "k": k, "direction": label})
                    for label, curve in members)
    return FamilyBasis(parity, k, tensors, tuple(label for label, _ in members))
