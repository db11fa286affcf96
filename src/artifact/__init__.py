"""Exact-arithmetic engine for quadratic Poisson brackets built from plane
genus-one curve data, with certification utilities and helix K-theory
arithmetic.

Submodules:

- exact_core: rationals, sparse polynomials, synthetic division (no
  floating point anywhere).
- curve_ring: curve models, section spaces, the Szego residue
  certificate (residues in closed form, valid exactly when the divisor at
  infinity is two distinct points); no type for curve functions.
- bracket_forge: bracket tensors on the section spaces, with the Szego
  kernel term and the derivation images read off x-coordinates of basis
  monomials in closed form, the nine-member anticanonical families,
  serialization.
- poisson_verify: Jacobi and compatibility certificates, independence
  rank, pointwise rank scans, ratio brackets.
- helix_k0: Fibonacci helix classes, the modular solvability test for
  bihamiltonian parameters, the generic Poisson rank.
- cli_reports: command line front end producing deterministic artifacts.
"""

__version__ = "0.1.0"
