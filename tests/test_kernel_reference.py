"""The integer elimination kernel against the Fraction kernel it replaced.

Over Q the kernel holds primitive integer rows and normalizes only where a
caller reads values; ``fraction_kernel`` keeps the kernel that held Fractions
throughout.  Every rank, echelon form, kernel basis, inverse, h0 table and
Birkhoff factorization must come out the same, value for value, on matrices
with non-integral rational entries.  Over F_p nothing changed; the same
comparisons run there too.  The Bareiss determinant on term dicts and the h0
rows built only at the exponents that occur are compared against the dense
determinant and the span-indexed rows that ``fraction_kernel`` keeps.
"""

from fractions import Fraction

import pytest

import fraction_kernel as ref
from equibundle.exact_core import (
    GF,
    QQ,
    LaurentMatrix,
    LaurentPoly,
    _eliminate,
    _laurent_determinant,
    _normalized,
    _primitive,
    invert_matrix,
    matrix_rank,
    row_reduce,
    span_test,
)
from equibundle.projline import (
    _bound,
    _coefficient_rows,
    _column_reduce,
    birkhoff_factorize,
    h0_table,
)
from test_projline import planted_bundle as integer_planted_bundle

FIELDS = [QQ, GF(5), GF(2**31 - 1)]
IDS = ["Q", "F5", "F2^31-1"]


def scalar(rng, field, spread=9):
    """A random scalar, with a denominator up to 6 over Q."""
    if field.p:
        return field(rng.randint(0, field.p - 1))
    return Fraction(rng.randint(-spread, spread), rng.randint(1, 6))


def planted_matrix(rng, field, nrows, ncols, rank):
    """A dense nrows x ncols product of random nrows x rank and rank x ncols
    factors: rank at most `rank`, and generically equal to it."""
    left = [[scalar(rng, field) for _ in range(rank)] for _ in range(nrows)]
    right = [[scalar(rng, field) for _ in range(ncols)] for _ in range(rank)]
    return [[field(sum((a * b for a, b in zip(row, col)), field.zero)) for col in zip(*right)]
            for row in left]


def sparse_matrix(rng, field, nrows, ncols):
    return [[scalar(rng, field) if rng.random() < 0.3 else field.zero for _ in range(ncols)]
            for _ in range(nrows)]


def typed(rows):
    """Rows with the type of every entry, so that 1 and Fraction(1) differ."""
    return [[(type(v), v) for v in row] for row in rows]


def planted_bundle(rng, field, degrees):
    """A * D * B with D = diag(t^-d) and 2n elementary factors with rational
    coefficients in A (over k[1/t]) and in B (over k[t])."""
    n = len(degrees)

    def unimodular(sign):
        out = LaurentMatrix.monomial_diagonal(field, [0] * n)
        for k in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            rows = [[LaurentPoly.one(field) if a == b else LaurentPoly.zero(field)
                     for b in range(n)] for a in range(n)]
            coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            rows[i][j] = LaurentPoly.monomial(field, coeff, sign * (k % 2))
            out = out @ LaurentMatrix(field, rows)
        return out

    d = LaurentMatrix.monomial_diagonal(field, [-x for x in degrees])
    return (unimodular(-1) @ d) @ unimodular(+1)


class TestScalarLinearAlgebra:
    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_planted_dense_matrices(self, rng, field):
        # dense planted rank up to 16, with more rows and columns than rank
        for rank in range(1, 17):
            nrows, ncols = rank + rng.randint(0, 4), rank + rng.randint(0, 4)
            rows = planted_matrix(rng, field, nrows, ncols, rank)
            want = ref.row_reduce(field, rows)
            got = row_reduce(field, rows)
            assert typed(got[0]) == typed(want[0]) and got[1] == want[1], (rank, nrows, ncols)
            assert matrix_rank(field, rows) == len(want[1])
            assert len(ref.nullspace(field, rows, ncols)) == ncols - matrix_rank(field, rows)

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_random_sparse_matrices(self, rng, field):
        for k in range(120):
            nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
            rows = sparse_matrix(rng, field, nrows, ncols)
            want = ref.row_reduce(field, rows)
            got = row_reduce(field, rows)
            assert typed(got[0]) == typed(want[0]) and got[1] == want[1], k
            assert matrix_rank(field, rows) == ref.matrix_rank(field, rows), k
            assert len(ref.nullspace(field, rows, ncols)) == ncols - matrix_rank(field, rows), k
            vec = [scalar(rng, field) for _ in range(ncols)]
            assert span_test(field, rows)(vec) == ref.span_test(field, rows)(vec), k

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_inverses(self, rng, field):
        for n in range(1, 17):
            # full rank generically; rank n - 1 on every third size
            rows = planted_matrix(rng, field, n, n, n - (n % 3 == 0))
            want = ref.invert_matrix(field, rows)
            got = invert_matrix(field, rows)
            assert (got is None) == (want is None), n
            if want is not None:
                assert typed(got) == typed(want), n


class TestBulkElimination:
    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_pivots_of_h0_systems(self, rng, field):
        # the h0 system of a rational bundle, eliminated on integer rows and on
        # Fractions: the same pivots in the same order, equal once normalized
        p = field.p
        for n in range(1, 7):
            degrees = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
            g = planted_bundle(rng, field, degrees)
            twist = rng.randint(-2, 2)
            top = _bound(g, twist) + 1
            rows = [row for block in ref._coefficient_rows(g, twist, top).values()
                    for row in block if row]
            want = ref._eliminate([dict(row) for row in rows], p)
            got = _eliminate([_primitive(dict(row), p) for row in rows], p)
            assert [(col, _normalized(row, col, p)) for col, row in got] == want, n
            # the builder's own integer rows give the same pivot columns
            built = [row for block in _coefficient_rows(g, twist, top).values()
                     for row in block if row]
            assert [col for col, _ in _eliminate(built, p)] == [col for col, _ in want], n


class TestProjectiveLine:
    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_h0_tables(self, rng, field):
        for n in range(1, 9):
            degrees = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
            b = planted_bundle(rng, field, degrees)
            window = rng.randint(0, 4)
            assert h0_table(b, window) == ref.h0_table(b, window), (n, window)

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_birkhoff_exponents_and_factors(self, rng, field):
        for n in list(range(1, 9)) + [12, 16]:
            degrees = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
            b = planted_bundle(rng, field, degrees)
            cols, tops, w, w_det = want = ref._column_reduce(b)
            got = _column_reduce(b)
            assert got == want and type(got[3]) is type(w_det), n
            f = birkhoff_factorize(b)
            assert f.exponents == tuple(tops), n
            a_rows = [[cols[j][i].shifted(-tops[j]) for j in range(n)] for i in range(n)]
            assert f.A.rows == tuple(map(tuple, a_rows)), n
            assert f.B.rows == tuple(map(tuple, w)), n
            assert f.D == LaurentMatrix.monomial_diagonal(field, tops), n


def random_laurent_grid(rng, field, n):
    """A random n x n matrix over k[t, 1/t] whose entries are nonzero with one
    probability drawn per matrix, so that the draws run from zero rows and
    singular matrices to dense ones.  A third are units: D * U * L with D a
    monomial diagonal, U upper and L lower unitriangular."""
    density = rng.random()
    zero, one = LaurentPoly.zero(field), LaurentPoly.one(field)

    def entry():
        if rng.random() >= density:
            return zero
        return LaurentPoly(field, {rng.randint(-2, 2): scalar(rng, field)
                                   for _ in range(rng.randint(1, 2))})

    if rng.random() >= 1 / 3:
        return [[entry() for _ in range(n)] for _ in range(n)]
    upper = [[one if i == j else entry() if i < j else zero for j in range(n)] for i in range(n)]
    lower = [[one if i == j else entry() if i > j else zero for j in range(n)] for i in range(n)]
    rows = []
    for row in upper:
        diagonal = LaurentPoly.monomial(field, scalar(rng, field) or field.one, rng.randint(-3, 3))
        rows.append([diagonal * sum((a * b for a, b in zip(row, col)), zero)
                     for col in zip(*lower)])
    return rows


class TestDenseBareiss:
    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_random_matrices(self, rng, field):
        units = singular = 0
        for k in range(1500):
            rows = random_laurent_grid(rng, field, k % 9 + 1)
            det = _laurent_determinant(rows, field)
            assert det == ref._laurent_determinant(rows, field), k
            units += det.is_monomial
            singular += det.is_zero
        assert units > 450 and singular > 100, (units, singular)

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_planted_dense_bundles(self, rng, field):
        for n in (12, 16, 24):
            degrees = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
            rows = integer_planted_bundle(rng, field, degrees).rows
            det = _laurent_determinant(rows, field)
            assert det == ref._laurent_determinant(rows, field), n
            assert det.is_monomial, n


class TestSparseCoefficientRows:
    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_rows_at_the_exponents_that_occur(self, rng, field):
        # the same non-empty row at every exponent as the span-indexed
        # reference, whose blocks run over every exponent up to its maximum;
        # over Q the reference reads g with each row scaled into primitive
        # integers, as the builder scales it
        def primitive_rows(g):
            if field.p:
                return g
            rows = []
            for row in g.rows:
                terms = dict(enumerate(c for entry in row for c in entry._terms.values()))
                scale = Fraction(_primitive(dict(terms), None)[0]) / terms[0]
                rows.append([entry.scaled(scale) for entry in row])
            return LaurentMatrix(field, rows)

        for window in range(7):
            for n in range(1, 7):
                degrees = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
                g = planted_bundle(rng, field, degrees)
                top = _bound(g, window) + 1
                want = {e: list(block) for e, block in
                        ref._coefficient_rows(primitive_rows(g), -window, top).items()
                        if any(block)}
                got = _coefficient_rows(g, -window, top)
                assert got == want, (window, n)
                assert all(type(c) is int for block in got.values() for row in block
                           for c in row.values()), (window, n)
