"""Exact-arithmetic equivariant bundle calculus.

Modules:

* :mod:`equibundle.exact_core` -- rationals, prime fields, Laurent and
  multivariate polynomials, and unit-determinant Laurent matrices.
* :mod:`equibundle.projline` -- bundles on the projective line, Birkhoff
  factorization, splitting types, and the section-count oracle.
* :mod:`equibundle.graded` -- graded modules over graded polynomial algebras,
  graded Nakayama, lifting of graded maps.
* :mod:`equibundle.filtered` -- filtered modules, associated graded data,
  filtration splitting over fields and nilpotent extensions.
* :mod:`equibundle.hensel` -- henselian-pair predicates for finite-dimensional
  algebras and idempotent lifting.
* :mod:`equibundle.topospace` -- finite posets as finite spectral spaces:
  connected components, clopen subsets, and the pi0 criteria.
* :mod:`equibundle.io` -- document formats: parsing and canonical printing.
* :mod:`equibundle.cli` -- the command-line interface.
"""
