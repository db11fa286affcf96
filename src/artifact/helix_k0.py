"""Exact lattice bookkeeping for exceptional-bundle classes.

Everything here is integer arithmetic: Fibonacci-indexed helix classes on
the plane, the parameter solver for the bihamiltonian ladder, and the
generic Poisson rank of the associated bracket.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional


class K0Class(NamedTuple):
    """Lattice class carrying rank and Euler characteristic."""

    rank: int
    chi: int


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


def helix_class(n: int) -> K0Class:
    """Class (f(|2n - 1|), 3 f(|2n + 1|)) of the n-th helix bundle.

    Seeded by the line bundles E_0 = (rank 1, chi 3) and E_1 = (1, 6), the
    class is f(2n) E_1 - f(2n - 2) E_0 under the signed extension
    f(-m) = (-1)^(m+1) f(m): rank f(2n) - f(2n - 2) = f(2n - 1) and chi
    6 f(2n) - 3 f(2n - 2) = 3 f(2n + 1).  Both indices are odd, and
    f(-m) = f(m) for odd m, so |index| gives either side of 0.
    """
    return K0Class(fib(abs(2 * n - 1)), 3 * fib(abs(2 * n + 1)))


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
    n = d % 2
    k = ((d - sign) // r + 1 + n) // 2
    return {"m": (r + 1) // 2, "k": k, "sign": sign, "n": n}


def generic_poisson_rank(d: int, r: int) -> int:
    """Generic rank d - gcd(d, r + 1) of the associated bracket."""
    if d <= 0 or r <= 0:
        raise ValueError("degree and rank must be positive")
    return d - math.gcd(d, r + 1)
