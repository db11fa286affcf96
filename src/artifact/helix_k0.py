"""Exact lattice bookkeeping for exceptional-bundle classes.

Everything here is integer arithmetic: Fibonacci-indexed helix classes on
the plane, the parameter solver for the bihamiltonian ladder, and the
generic Poisson rank of the associated bracket.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional


class K0Class(NamedTuple):
    """Lattice class carrying rank, degree, and Euler characteristic."""

    rank: int
    degree: int = 0
    chi: int = 0

    def __sub__(self, other: "K0Class") -> "K0Class":
        return K0Class(self.rank - other.rank, self.degree - other.degree,
                       self.chi - other.chi)

    def scale(self, factor: int) -> "K0Class":
        return K0Class(factor * self.rank, factor * self.degree, factor * self.chi)


LINE_BUNDLE_1 = K0Class(rank=1, degree=1, chi=3)
LINE_BUNDLE_2 = K0Class(rank=1, degree=2, chi=6)


def fib(n: int) -> int:
    """Fibonacci number with f0 = 0, f1 = 1, by fast doubling:
    f(2m) = f(m) (2 f(m+1) - f(m)) and f(2m+1) = f(m)^2 + f(m+1)^2."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    a, b = 0, 1  # f(m), f(m+1) for m the leading bits of n read so far
    for bit in f"{n:b}":
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def _fib_signed(n: int) -> int:
    # f(-n) = (-1)^(n+1) f(n), the unique extension of the recurrence
    if n >= 0:
        return fib(n)
    value = fib(-n)
    return value if (-n) % 2 == 1 else -value


def helix_class(n: int) -> K0Class:
    """Class of the n-th helix bundle, seeded by the two line bundles.

    [E_n] = f(2n) [E_1] - f(2n-2) [E_0] with the signed Fibonacci
    extension, which covers both directions of the helix at once.
    """
    a = _fib_signed(2 * n)
    b = _fib_signed(2 * (n - 1))
    return LINE_BUNDLE_2.scale(a) - LINE_BUNDLE_1.scale(b)


def solve_biham_params(d: int, r: int) -> Optional[dict]:
    """Witness (m, k, sign, n) for the rank-r degree-d ladder, or None.

    r must be odd and positive with d > r; the solver finds r = 2m - 1
    and d = (2k - 1) r + sign (d even, n = 0) or d = (2k - 2) r + sign
    (d odd, n = 1).  No witness exists unless d is congruent to +-1
    modulo r, in which case None is returned.
    """
    if r <= 0 or r % 2 == 0:
        raise ValueError("rank parameter must be odd and positive")
    if d <= r:
        raise ValueError("degree must exceed the rank parameter")
    if (d - 1) % r == 0:
        sign = 1
    elif (d + 1) % r == 0:
        sign = -1
    else:
        return None
    q = (d - sign) // r
    if d % 2 == 0:
        n, k = 0, (q + 1) // 2
    else:
        n, k = 1, q // 2 + 1
    return {"m": (r + 1) // 2, "k": k, "sign": sign, "n": n}


def generic_poisson_rank(d: int, r: int) -> int:
    """Generic rank d - gcd(d, r + 1) of the associated bracket."""
    if d <= 0 or r <= 0:
        raise ValueError("degree and rank must be positive")
    return d - math.gcd(d, r + 1)
