"""Scalar representation: over F_p every scalar the library hands back is a
plain ``int`` in [0, p), never a negative or unreduced residue.

Randomized through the ``rng`` fixture, so ``EQUIBUNDLE_SEED`` moves it.
"""

import pytest

from equibundle.exact_core import (
    GF,
    LaurentMatrix,
    LaurentPoly,
    Polynomial,
    invert_matrix,
    row_reduce,
)
from equibundle.filtered import EpsRing, split_filtration
from equibundle.graded import (
    GradedAlgebra,
    GradedModulePresentation,
    nakayama_zero_test,
)
from equibundle.hensel import from_univariate_quotient, jacobson_radical, lift_idempotent
from equibundle.projline import birkhoff_factorize
from fraction_kernel import nullspace
from radical_reference import unit_vector
from test_exact_core import random_scalar_matrix
from test_filtered import random_filtered
from test_hensel import random_nilpotent_instance, random_quotient
from test_projline import planted_bundle, random_bundle

FIELDS = [GF(5), GF(2**31 - 1)]
IDS = ["F5", "F2^31-1"]


def assert_residues(values, p):
    values = list(values)
    bad = [v for v in values if type(v) is not int or not 0 <= v < p]
    assert not bad, bad[:5]
    return len(values)


def matrix_scalars(matrix):
    yield matrix.det_unit_exponent()[1]
    for row in matrix.rows:
        for entry in row:
            yield from (c for _, c in entry.terms())


def polynomial_scalars(poly):
    return (c for _, c in poly.terms())


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_kernel_returns_residues(rng, field):
    p = field.p
    for nrows, ncols in [(1, 1), (3, 5), (6, 2), (5, 5), (8, 8)]:
        for _ in range(10):
            rows = random_scalar_matrix(rng, field, nrows, ncols)
            # an unreduced input (a multiple of p added anywhere) must give
            # the same answer: the kernel reduces at its boundary
            shifted = [[v + p * rng.randint(-2, 2) for v in row] for row in rows]
            rref, pivots = row_reduce(field, rows)
            assert row_reduce(field, shifted) == (rref, pivots)
            assert_residues((v for row in rref for v in row), p)
            basis = nullspace(field, rows, ncols)
            assert nullspace(field, shifted, ncols) == basis
            assert_residues((v for vec in basis for v in vec), p)
            if nrows == ncols:
                inverse = invert_matrix(field, rows)
                assert invert_matrix(field, shifted) == inverse
                assert_residues((v for row in inverse or () for v in row), p)


def scalar_diagonal(rng, field, n):
    """diag(c_1, ..., c_n) with random units, so that determinants are not 1."""
    zero = LaurentPoly.zero(field)
    return LaurentMatrix(field, [[LaurentPoly.monomial(field, rng.randint(2, field.p - 1), 0)
                                  if i == j else zero for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_birkhoff_factors_are_residues(rng, field):
    for k in range(12):
        n = rng.randint(1, 4)
        if k % 2:
            g = random_bundle(rng, field, n)
        else:
            g = planted_bundle(rng, field, sorted(
                (rng.randint(-2, 2) for _ in range(n)), reverse=True))
        bundle = (scalar_diagonal(rng, field, n) @ g) @ scalar_diagonal(rng, field, n)
        f = birkhoff_factorize(bundle)
        for matrix in (bundle, f.A, f.D, f.B):
            assert assert_residues(matrix_scalars(matrix), field.p)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_radical_and_idempotent_are_residues(rng, field):
    for d in range(1, 8):
        algebra = from_univariate_quotient(field, random_quotient(rng, field, d))
        assert assert_residues(algebra.modulus, field.p) == d + 1
        units = [unit_vector(algebra, i) for i in range(d)]
        assert_residues((v for a in units for b in units for v in algebra.mul(a, b)), field.p)
        assert_residues(jacobson_radical(algebra), field.p)
    for _ in range(8):
        algebra, candidate = random_nilpotent_instance(rng, field)
        assert assert_residues(algebra.generator, field.p)
        assert_residues((v for vec in algebra.ideal for v in vec), field.p)
        lift = lift_idempotent(algebra, candidate)
        assert_residues(lift.element, field.p)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_splitting_basis_is_residues(rng, field):
    for order in (1, 2, 3):
        ring = EpsRing(field, order)
        for _ in range(4):
            f = random_filtered(rng, ring, sorted(rng.randint(0, 3) for _ in range(3)))
            basis = split_filtration(f).basis
            assert_residues((c for col in basis for v in col for c in v), field.p)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_nakayama_witness_is_residues(rng, field):
    alg = GradedAlgebra(field, ("x", "y"), (1, 2))
    for _ in range(8):
        # column j holds a unit at generator j and random terms at earlier
        # generators, so the scalar block is unitriangular and E = 0
        degrees = sorted(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        columns = []
        for j, m in enumerate(degrees):
            col = [alg.zero()] * len(degrees)
            col[j] = Polynomial.constant(field, 2, rng.randint(1, field.p - 1))
            for k in range(j):
                monomials = alg.monomials_of_degree(m - degrees[k])
                if monomials and rng.random() < 0.7:
                    col[k] = Polynomial.monomial(field, 2, rng.choice(monomials),
                                                 rng.randint(-3, 3))
            columns.append(tuple(col))
        module = GradedModulePresentation(alg, tuple(degrees), tuple(columns))
        witness = nakayama_zero_test(module).witness
        assert assert_residues((c for row in witness.combination for c in row), field.p)
        assert_residues((c for row in witness.coefficient_matrix for poly in row
                         for c in polynomial_scalars(poly)), field.p)
