"""Integer-lattice checks: helix classes, parameter solving, generic rank."""

import pytest

from artifact.helix_k0 import (
    K0Class,
    LINE_BUNDLE_1,
    LINE_BUNDLE_2,
    fib,
    generic_poisson_rank,
    helix_class,
    solve_biham_params,
)


def _fib_oracle(n):
    """Independent recursive-with-memo Fibonacci for cross-checking."""
    memo = {0: 0, 1: 1}

    def go(m):
        if m not in memo:
            memo[m] = go(m - 1) + go(m - 2)
        return memo[m]

    return go(n)


def test_fib_small_and_frozen_values():
    """First Fibonacci numbers plus the two frozen spot values."""
    assert [fib(i) for i in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fib(6) == 8
    assert fib(30) == 832040


def test_fib_matches_independent_oracle():
    """Iterative fib agrees with a memoized recursive oracle up to 60."""
    for n in range(61):
        assert fib(n) == _fib_oracle(n)


def test_fib_rejects_negative_index():
    """Negative indices are a usage error for the public function."""
    with pytest.raises(ValueError):
        fib(-1)


def test_helix_class_spot_values():
    """Frozen ranks and Euler characteristics at n = 0, -1, -3."""
    assert helix_class(0) == K0Class(rank=1, degree=1, chi=3)
    e_minus_1 = helix_class(-1)
    assert (e_minus_1.rank, e_minus_1.chi) == (2, 3)
    e_minus_3 = helix_class(-3)
    assert (e_minus_3.rank, e_minus_3.chi) == (13, 15)
    assert helix_class(1) == K0Class(rank=1, degree=2, chi=6)


def test_helix_class_closed_forms_both_directions():
    """rank and chi follow odd-index Fibonacci laws for 1 <= n <= 8."""
    for n in range(1, 9):
        back = helix_class(-n)
        assert back.rank == fib(2 * n + 1)
        assert back.chi == 3 * fib(2 * n - 1)
        fwd = helix_class(n)
        assert fwd.rank == fib(2 * n - 1)
        assert fwd.chi == 3 * fib(2 * n + 1)


def test_helix_class_three_term_recurrence():
    """class(n+1) = 3 class(n) - class(n-1) across the whole window."""
    for n in range(-8, 8):
        lhs = helix_class(n + 1)
        rhs = helix_class(n).scale(3) - helix_class(n - 1)
        assert lhs == rhs


def test_helix_class_seed_combination():
    """Backward classes expand as f(2n+2) E0 - f(2n) E1 for n >= 0."""
    for n in range(0, 9):
        expect = LINE_BUNDLE_1.scale(fib(2 * n + 2)) - LINE_BUNDLE_2.scale(fib(2 * n))
        assert helix_class(-n) == expect


def test_solver_frozen_examples():
    """Known parameter triples for degree-rank inputs (7,3) and (10,3)."""
    assert solve_biham_params(7, 3) == {"m": 2, "k": 2, "sign": 1, "n": 1}
    assert solve_biham_params(10, 3) == {"m": 2, "k": 2, "sign": 1, "n": 0}


def test_solver_resolves_minus_one_residue():
    """d = 8, r = 3 sits at -1 mod 3 and gets the minus-branch witness."""
    assert solve_biham_params(8, 3) == {"m": 2, "k": 2, "sign": -1, "n": 0}


def test_solver_no_solution_off_residues():
    """Degrees away from +-1 mod r yield no witness."""
    assert solve_biham_params(12, 3) is None
    assert solve_biham_params(18, 5) is None


def test_solver_input_validation():
    """Even or nonpositive rank and too-small degree are rejected."""
    with pytest.raises(ValueError):
        solve_biham_params(9, 4)
    with pytest.raises(ValueError):
        solve_biham_params(9, -3)
    with pytest.raises(ValueError):
        solve_biham_params(3, 3)


def test_solver_exhaustive_congruence_window():
    """For r in {3, 5, 7} and d <= 50 a witness exists iff d = +-1 mod r."""
    for r in (3, 5, 7):
        for d in range(r + 1, 51):
            result = solve_biham_params(d, r)
            expect = d % r in (1, r - 1)
            assert (result is not None) == expect
            if result is None:
                continue
            assert result["m"] == (r + 1) // 2
            assert result["sign"] in (1, -1)
            k, sign, n = result["k"], result["sign"], result["n"]
            assert n == (d % 2 == 1)
            if n == 0:
                assert d == (2 * k - 1) * r + sign
            else:
                assert d == (2 * k - 2) * r + sign


def test_generic_poisson_rank_matches_curve_construction():
    """d - gcd(d, r+1) reproduces the observed bracket ranks at r = 1."""
    assert generic_poisson_rank(4, 1) == 2
    assert generic_poisson_rank(6, 1) == 4
    assert generic_poisson_rank(3, 1) == 2
    assert generic_poisson_rank(5, 1) == 4
    assert generic_poisson_rank(5, 2) == 4
    with pytest.raises(ValueError):
        generic_poisson_rank(0, 1)
