from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from equibundle.exact_core import (
    GF,
    QQ,
    FieldMismatchError,
    LaurentMatrix,
    LaurentPoly,
    Polynomial,
    UnitDeterminantError,
    _cross,
    _exact_div,
    _is_prime,
    _laurent_determinant,
    invert_matrix,
    matrix_rank,
    row_reduce,
    span_test,
)
from fraction_kernel import nullspace

F5 = GF(5)


def lp(field, *terms):
    """Laurent poly from (coeff, exp) pairs."""
    out = LaurentPoly.zero(field)
    for coeff, exp in terms:
        out = out + LaurentPoly.monomial(field, coeff, exp)
    return out


class TestFieldOps:
    def test_rational_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_prime_field_inverse(self):
        assert F5.inv(F5(2)) == F5(3) == 3

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            F5.inv(F5(0))
        with pytest.raises(ZeroDivisionError):
            F5.inv(10)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(Fraction(0))

    def test_field_mismatch(self):
        # F_p scalars are plain ints, so the containers carry the field check
        F7 = GF(7)
        with pytest.raises(FieldMismatchError):
            lp(F5, (1, 0)) + lp(F7, (1, 0))
        with pytest.raises(FieldMismatchError):
            lp(F5, (1, 0)) * lp(F7, (1, 0))
        x5, x7 = Polynomial.monomial(F5, 1, (1,), 1), Polynomial.monomial(F7, 1, (1,), 1)
        with pytest.raises(FieldMismatchError):
            x5 + x7
        with pytest.raises(FieldMismatchError):
            x5 * x7
        # the same field, but a different number of variables
        x5_of_two = Polynomial.monomial(F5, 2, (1, 0), 1)
        with pytest.raises(FieldMismatchError):
            x5 + x5_of_two
        with pytest.raises(FieldMismatchError):
            x5 * x5_of_two
        # a Fraction into an F_p container, an int into a Q container
        with pytest.raises(FieldMismatchError):
            LaurentPoly(F5, {0: Fraction(1, 2)})
        with pytest.raises(FieldMismatchError):
            Polynomial(F5, 1, {(1,): Fraction(1)})
        with pytest.raises(FieldMismatchError):
            LaurentPoly(QQ, {0: 1})
        with pytest.raises(FieldMismatchError):
            Polynomial(QQ, 1, {(1,): 2})

    def test_non_prime_modulus_rejected(self):
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            GF(2**31 + 11)

    def test_miller_rabin_against_trial_division(self):
        # 13 - 1 = 4 * 3 reaches the squaring loop; 2047, 1,373,653 and
        # 25,326,001 are strong pseudoprimes to base 2 that a later base exposes
        def trial(n):
            return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

        assert [n for n in range(-3, 20_000) if _is_prime(n) != trial(n)] == []
        for n in (2047, 1_373_653, 25_326_001):
            assert not trial(n)
            with pytest.raises(ValueError, match=f"^{n} is not a prime <= 2\\*\\*31$"):
                GF(n)
        assert GF(13).p == 13 and GF(2**31 - 1).p == 2**31 - 1

    def test_rational_conversion(self):
        # a Fraction passes through unchanged; anything else, a Fraction
        # subclass included, becomes an exact Fraction
        class Sub(Fraction):
            pass

        x = Fraction(2, 3)
        assert QQ(x) is x
        for value, expected in ((3, Fraction(3)), ("1/2", Fraction(1, 2)),
                                (Sub(1, 3), Fraction(1, 3))):
            converted = QQ(value)
            assert type(converted) is Fraction and converted == expected

    def test_rational_coercion_into_fp(self):
        assert F5(Fraction(1, 2)) == F5(3)

    def test_prime_field_reads_every_value_exactly(self):
        # a float is the exact rational it holds, as over Q: never truncated
        assert F5(2.5) == F5(Fraction(5, 2)) == 0
        assert F5(0.5) == 3
        assert Polynomial.constant(F5, 1, 0.5) == Polynomial.constant(F5, 1, 3)
        with pytest.raises(ZeroDivisionError):
            GF(2)(0.5)


class TestLaurentPoly:
    def test_difference_of_squares(self):
        f = lp(QQ, (1, 1), (1, -1))   # t + 1/t
        g = lp(QQ, (1, 1), (-1, -1))  # t - 1/t
        assert f * g == lp(QQ, (1, 2), (-1, -2))

    def test_one_is_identity(self):
        f = lp(QQ, (Fraction(2, 3), 4), (1, 0), (-2, -5))
        assert f * LaurentPoly.one(QQ) == f

    def test_zero_absorbs(self):
        g = lp(F5, (3, 2), (1, -1))
        assert (LaurentPoly.zero(F5) * g).is_zero

    def test_zero_poly_extremal_exponents_signal(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero(QQ).min_exp()
        with pytest.raises(ValueError):
            LaurentPoly.zero(QQ).max_exp()

    def test_no_zero_coefficients_stored(self):
        f = lp(QQ, (1, 2), (-1, 2))
        assert f.is_zero and f.support == ()

    def test_mixed_field_rejected(self):
        with pytest.raises(FieldMismatchError):
            lp(QQ, (1, 0)) + lp(F5, (1, 0))


def mp(field, *terms):
    """Polynomial in two variables from (coeff, exponent pair) pairs."""
    out = Polynomial.zero(field, 2)
    for coeff, mono in terms:
        out = out + Polynomial.monomial(field, 2, mono, coeff)
    return out


def poly_triples(field, coeffs):
    """Three polynomials of one kind: Laurent polynomials (int keys) or
    polynomials in two variables (exponent-tuple keys)."""
    exponent = st.integers(min_value=-4, max_value=4)
    laurent = st.lists(st.tuples(coeffs, exponent), max_size=4).map(lambda ts: lp(field, *ts))
    mono = st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    multi = st.lists(st.tuples(coeffs, mono), max_size=4).map(lambda ts: mp(field, *ts))
    return st.one_of(*(st.tuples(kind, kind, kind) for kind in (laurent, multi)))


rational_triples = poly_triples(
    QQ,
    st.builds(Fraction, st.integers(min_value=-9, max_value=9),
              st.integers(min_value=1, max_value=4)),
)
fp_triples = poly_triples(F5, st.integers(min_value=0, max_value=4))


@settings(max_examples=120, deadline=None)
@given(rational_triples)
def test_ring_axioms_rational(triple):
    f, g, h = triple
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f
    assert f * g == g * f


@settings(max_examples=120, deadline=None)
@given(fp_triples)
def test_ring_axioms_prime_field(triple):
    f, g, h = triple
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


class TestLaurentMatrix:
    def test_identity_det(self):
        assert LaurentMatrix.monomial_diagonal(QQ, [0] * 2).det_unit_exponent() == (0, Fraction(1))

    def test_diagonal_det(self):
        m = LaurentMatrix.monomial_diagonal(QQ, [2, -1])
        assert m.det_unit_exponent() == (1, Fraction(1))

    def test_upper_triangular_det(self):
        t = lp(QQ, (1, 1))
        one = LaurentPoly.one(QQ)
        zero = LaurentPoly.zero(QQ)
        tinv = lp(QQ, (1, -1))
        m = LaurentMatrix(QQ, [[t, one], [zero, tinv]])
        assert m.det_unit_exponent() == (0, Fraction(1))

    def test_non_unit_determinant_rejected(self):
        t = lp(QQ, (1, 1))
        one = LaurentPoly.one(QQ)
        # det = t^2 - 1 has two terms
        with pytest.raises(UnitDeterminantError):
            LaurentMatrix(QQ, [[t, one], [one, t]])

    def test_singular_rejected(self):
        one = LaurentPoly.one(QQ)
        with pytest.raises(UnitDeterminantError):
            LaurentMatrix(QQ, [[one, one], [one, one]])

    def test_entry_over_the_wrong_field_rejected(self):
        one, zero = LaurentPoly.one(QQ), LaurentPoly.zero(QQ)
        for entry in (LaurentPoly.one(F5), Fraction(1)):
            with pytest.raises(FieldMismatchError, match="^matrix entry over the wrong field$"):
                LaurentMatrix(QQ, [[one, entry], [zero, one]])

    def test_incompatible_product_rejected(self):
        g = LaurentMatrix.monomial_diagonal(QQ, [1, -1])
        for other in (LaurentMatrix.monomial_diagonal(F5, [1, -1]),
                      LaurentMatrix.monomial_diagonal(QQ, [0, 0, 0])):
            with pytest.raises(FieldMismatchError,
                               match="^cannot multiply incompatible matrices$"):
                g @ other
        with pytest.raises(TypeError):
            g @ 3

    def test_det_exponent_additive(self, rng):
        for _ in range(25):
            m = random_unit_matrix(rng, QQ, 3)
            n = random_unit_matrix(rng, QQ, 3)
            wm, _ = m.det_unit_exponent()
            wn, _ = n.det_unit_exponent()
            wmn, _ = (m @ n).det_unit_exponent()
            assert wmn == wm + wn


def random_unit_matrix(rng, field, n):
    """Random product of monomial-diagonal and elementary matrices."""
    exps = [rng.randint(-2, 2) for _ in range(n)]
    m = LaurentMatrix.monomial_diagonal(field, exps)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        rows = [[LaurentPoly.one(field) if a == b else LaurentPoly.zero(field)
                 for b in range(n)] for a in range(n)]
        rows[i][j] = lp(field, (rng.randint(-2, 2), rng.randint(-2, 2)))
        m = m @ LaurentMatrix(field, rows)
    return m


def minor_expansion_determinant(rows, field):
    """Reference determinant: expansion by minors over column subsets."""
    n = len(rows)
    cache = {}

    def minor(mask):
        if mask == 0:
            return LaurentPoly.one(field)
        if mask not in cache:
            row = n - bin(mask).count("1")
            acc = LaurentPoly.zero(field)
            sign = 1
            for col in range(n):
                if not mask & (1 << col):
                    continue
                entry = rows[row][col]
                if not entry.is_zero:
                    term = entry * minor(mask & ~(1 << col))
                    acc = acc + (term if sign > 0 else -term)
                sign = -sign
            cache[mask] = acc
        return cache[mask]

    return minor((1 << n) - 1)


RATIONAL_COEFFS = [Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3), Fraction(5), Fraction(-1)]


def random_laurent_rows(rng, field, n):
    """Random square grid with negative exponents, sparse entries and, at
    times, a zero row or a repeated row (singular)."""
    def coeff():
        if field == QQ:
            return rng.choice(RATIONAL_COEFFS)
        return rng.randrange(1, field.p)

    rows = [[lp(field, *[(coeff(), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))])
             for _ in range(n)] for _ in range(n)]
    roll = rng.random()
    if n > 1 and roll < 0.1:
        rows[rng.randrange(n)] = [LaurentPoly.zero(field)] * n
    elif n > 1 and roll < 0.2:
        i, j = rng.sample(range(n), 2)
        rows[i] = list(rows[j])
    return rows


def _matmul_reference(x, y):
    """Reference: the product that sums a * b entry by entry through
    LaurentPoly + and *; returns the rows and the carried (w, c)."""
    n = x.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentPoly.zero(x.field)
            for l in range(n):
                a = x.rows[i][l]
                b = y.rows[l][j]
                if not a.is_zero and not b.is_zero:
                    acc = acc + a * b
            row.append(acc)
        rows.append(tuple(row))
    (wx, cx), (wy, cy) = x.det_unit_exponent(), y.det_unit_exponent()
    return tuple(rows), (wx + wy, x.field(cx * cy))


def elementary_pair(rng, field, n):
    """An elementary matrix over k[t, 1/t] and its inverse."""
    i, j = rng.sample(range(n), 2)
    terms = [(rng.randint(1, 3), rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))]
    pair = []
    for sign in (1, -1):
        rows = [[LaurentPoly.one(field) if a == b else LaurentPoly.zero(field)
                 for b in range(n)] for a in range(n)]
        rows[i][j] = lp(field, *[(sign * c, e) for c, e in terms])
        pair.append(LaurentMatrix(field, rows))
    return pair


class TestMatmulAgainstReference:
    @pytest.mark.parametrize("field", [QQ, F5, GF(2**31 - 1)], ids=["Q", "F5", "F2^31-1"])
    def test_matches_reference(self, rng, field):
        def check(x, y):
            product = x @ y
            assert (product.rows, product.det_unit_exponent()) == _matmul_reference(x, y)
            for row in product.rows:
                for entry in row:
                    for c in entry._terms.values():
                        assert c, "stored zero coefficient"
                        if field.p:
                            assert type(c) is int and 0 <= c < field.p
                        else:
                            assert type(c) is Fraction
            return product

        for k in range(40):
            n = k % 6 + 2
            check(random_unit_matrix(rng, field, n), random_unit_matrix(rng, field, n))
        # a unimodular matrix times its inverse cancels to the identity
        for n in range(2, 7):
            u = u_inv = LaurentMatrix.monomial_diagonal(field, [0] * n)
            for _ in range(2 * n):
                e, e_inv = elementary_pair(rng, field, n)
                u, u_inv = u @ e, e_inv @ u_inv
            assert check(u, u_inv) == LaurentMatrix.monomial_diagonal(field, [0] * n)
            assert check(u_inv, u) == LaurentMatrix.monomial_diagonal(field, [0] * n)


class TestBareissDeterminant:
    @pytest.mark.parametrize("field", [QQ, F5, GF(2**31 - 1)], ids=["Q", "F5", "F2^31-1"])
    def test_matches_minor_expansion(self, rng, field):
        for k in range(70):
            rows = random_laurent_rows(rng, field, k % 7 + 1)
            assert _laurent_determinant(rows, field) == minor_expansion_determinant(rows, field)

    def test_two_term_and_zero_row_determinants(self):
        t = lp(QQ, (1, 1))
        one = LaurentPoly.one(QQ)
        half = lp(QQ, (Fraction(1, 2), -2))
        two_term = [[t, one], [one, half]]  # t^-1 / 2 - 1
        assert _laurent_determinant(two_term, QQ) == lp(QQ, (Fraction(1, 2), -1), (-1, 0))
        zero_row = [[t, one], [LaurentPoly.zero(QQ)] * 2]
        assert _laurent_determinant(zero_row, QQ).is_zero

    def test_rational_determinant_reduces_to_fp(self, rng):
        # an integer matrix: its Q determinant mod p is the F_p determinant
        # of the reduced matrix
        for k in range(30):
            n = k % 6 + 1
            grid = [[[(rng.randint(-9, 9), rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))]
                     for _ in range(n)] for _ in range(n)]
            det_q = _laurent_determinant([[lp(QQ, *e) for e in row] for row in grid], QQ)
            for p in (5, 2**31 - 1):
                field = GF(p)
                det_p = _laurent_determinant([[lp(field, *e) for e in row] for row in grid],
                                             field)
                expected = {e: c.numerator * pow(c.denominator, -1, p) % p
                            for e, c in det_q.terms()}
                assert dict(det_p.terms()) == {
                    e: c for e, c in expected.items() if c}

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            _exact_div({0: 1, 1: 1}, {1: 2}, None)   # (1 + t) / 2t
        with pytest.raises(ArithmeticError):
            _exact_div({0: 1, 2: 1}, {0: 1, 1: 1}, 5)   # (1 + t^2) / (1 + t)
        assert _exact_div({0: 2, 1: 4, 2: 2}, {0: 2, 1: 2}, None) == {0: 1, 1: 1}
        assert _exact_div({0: 1, 1: 2, 2: 1}, {0: 1, 1: 1}, 5) == {0: 1, 1: 1}

    def test_division_with_negative_exponents(self):
        # (t^-3 + 2t^-1 + t) / (t^-2 + t^0) = t^-1 + t over Q and F5
        for p in (None, 5):
            assert _exact_div({-3: 1, -1: 2, 1: 1}, {-2: 1, 0: 1}, p) == {-1: 1, 1: 1}
        # (t^-1 - 1) * (2t^-2 + 3) over Q, divided back by t^-1 - 1
        num = {-3: 2, -2: -2, -1: 3, 0: -3}
        assert _exact_div(num, {-1: 1, 0: -1}, None) == {-2: 2, 0: 3}

    def test_division_is_not_sized_by_the_exponent_span(self):
        # (t^(2N) - 1) / (t^N - 1) = t^N + 1 in two steps
        n = 10**9
        assert _exact_div({2 * n: 1, 0: -1}, {n: 1, 0: -1}, None) == {n: 1, 0: 1}
        assert _exact_div({2 * n: 1, 0: 4}, {n: 1, 0: 4}, 5) == {n: 1, 0: 1}

    def test_term_below_the_floor_is_a_remainder(self):
        # 2t / (1 + 2t): the quotient has no term below t^(1 - 0), so the
        # constant 2 * t^0 * (1 + 2t) is never subtracted; without the floor
        # the next step would hit 1 / 2 instead
        with pytest.raises(ArithmeticError, match="below the quotient"):
            _exact_div({1: 2}, {0: 1, 1: 2}, None)
        with pytest.raises(ArithmeticError, match="below the quotient"):
            _exact_div({5: 1, 3: 1}, {0: 1, 2: 1, 4: 1}, 5)   # (t^5 + t^3) / (1 + t^2 + t^4)

    def test_fp_divisor_with_non_unit_top_coefficient(self):
        # (3 + 2t) * (1 + 4t^-2) mod 5, divided back by 3 + 2t (top 2)
        assert _exact_div({-2: 2, -1: 3, 0: 3, 1: 2}, {0: 3, 1: 2}, 5) == {-2: 4, 0: 1}
        with pytest.raises(ArithmeticError):
            _exact_div({0: 1, 1: 1}, {0: 3, 1: 2}, 5)   # (1 + t) / (3 + 2t)

    def test_cross_product(self):
        # a*b - c*d term by term, zero terms dropped, residues over F_p
        assert _cross({0: 1, 1: 1}, {0: 1, 1: -1}, {1: 1}, {1: -1}, None) == {0: 1}
        assert _cross({1: 2}, {-1: 3}, {0: 1}, {0: 1}, 5) == {}   # 6 - 1 = 5
        assert _cross({1: 2}, {2: 4}, {-3: 4}, {0: 1}, 5) == {3: 3, -3: 1}
        assert _cross({0: 3}, {0: 4}, {}, {}, 7) == {0: 5}
        assert _cross({}, {0: 1}, {2: 1}, {-2: 1}, None) == {0: -1}

    def test_singular_and_non_unit_rejected_over_fp(self):
        one = LaurentPoly.one(F5)
        t = lp(F5, (1, 1))
        with pytest.raises(UnitDeterminantError):
            LaurentMatrix(F5, [[one, lp(F5, (2, 0))], [lp(F5, (3, 0)), one]])  # 1 - 6 = 0
        with pytest.raises(UnitDeterminantError):
            LaurentMatrix(F5, [[t, one], [one, t]])


class TestCarriedDeterminant:
    def test_derived_matrices_carry_the_determinant(self, rng):
        from test_projline import random_unimodular

        from equibundle.projline import birkhoff_factorize

        def check(m):
            det = _laurent_determinant(m.rows, m.field)
            w, c = m.det_unit_exponent()
            assert det == LaurentPoly(m.field, {w: c})

        for field in (QQ, F5, GF(2**31 - 1)):
            for n in (2, 4, 6):
                d = LaurentMatrix.monomial_diagonal(field, [rng.randint(-2, 2) for _ in range(n)])
                # a scalar diagonal through the public constructor, so that
                # the carried coefficients are not all 1
                zero = LaurentPoly.zero(field)
                s = LaurentMatrix(field, [[lp(field, (rng.randint(2, 4), 0)) if i == j else zero
                                           for j in range(n)] for i in range(n)])
                a = random_unimodular(rng, field, n, negative=True, factors=2 * n)
                b = random_unimodular(rng, field, n, negative=False, factors=2 * n)
                ad = a @ d
                g = (ad @ s) @ b
                f = birkhoff_factorize(g)
                for m in (a, d, b, ad, ad @ s, g, f.A, f.D, f.B,
                          LaurentMatrix.monomial_diagonal(field, [0] * n)):
                    check(m)


class TestLinearAlgebra:
    def test_rank_and_nullspace(self):
        rows = [[Fraction(1), Fraction(2), Fraction(3)],
                [Fraction(2), Fraction(4), Fraction(6)]]
        assert matrix_rank(QQ, rows) == 1
        basis = nullspace(QQ, rows, 3)
        assert len(basis) == 2
        for vec in basis:
            assert sum(a * b for a, b in zip(rows[0], vec)) == 0

    def test_invert(self):
        rows = [[F5(2), F5(1)], [F5(1), F5(1)]]
        inv = invert_matrix(F5, rows)
        prod = [[F5(sum(rows[i][k] * inv[k][j] for k in range(2)))
                 for j in range(2)] for i in range(2)]
        assert prod == [[F5(1), F5(0)], [F5(0), F5(1)]]

    def test_invert_singular(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert invert_matrix(QQ, rows) is None

    def test_int_rows_give_exact_fractions_over_q(self):
        def exact(got, expected):
            flat = [v for row in got for v in row]
            assert all(type(v) is Fraction for v in flat)
            assert [list(row) for row in got] == [[Fraction(v) for v in row] for row in expected]

        half = Fraction(1, 2)
        rref, pivots = row_reduce(QQ, [[2, 1, 3], [4, 2, 6]])
        exact(rref, [[1, half, 3 * half], [0, 0, 0]])
        assert pivots == [0]
        exact(nullspace(QQ, [[2, 1, 3]], 3), [[-half, 1, 0], [-3 * half, 0, 1]])
        exact(row_reduce(QQ, [[2, 1], [1, 3]])[0], [[1, 0], [0, 1]])
        fifth = Fraction(1, 5)
        exact(invert_matrix(QQ, [[2, 1], [1, 3]]), [[3 * fifth, -fifth], [-fifth, 2 * fifth]])


def _row_reduce_dense(field, rows):
    """Reference: the dense Gauss-Jordan that the sparse kernel replaced."""
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field(inv * v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [field(a - factor * b) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _nullspace_dense(field, rows, ncols):
    rref, pivots = _row_reduce_dense(field, rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, p in enumerate(pivots):
            vec[p] = field(-rref[r][f])
        basis.append(tuple(vec))
    return basis


def _invert_dense(field, rows):
    n = len(rows)
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(rows)]
    rref, pivots = _row_reduce_dense(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rref[:n]]


def random_scalar_matrix(rng, field, nrows, ncols):
    """Sparse-ish random matrix; about half are rank-deficient products, and
    some rows are zero."""
    def scalar():
        if rng.random() < 0.3:
            return field.zero
        if field == QQ:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return field(rng.randint(-5, 5))

    if nrows and ncols and rng.random() < 0.5:
        k = rng.randint(0, min(nrows, ncols))
        left = [[scalar() for _ in range(k)] for _ in range(nrows)]
        right = [[scalar() for _ in range(ncols)] for _ in range(k)]
        rows = [[field(sum((left[i][l] * right[l][j] for l in range(k)), field.zero))
                 for j in range(ncols)] for i in range(nrows)]
    else:
        rows = [[scalar() for _ in range(ncols)] for _ in range(nrows)]
    for row in rows:
        if rng.random() < 0.15:
            row[:] = [field.zero] * ncols
    return rows


KERNEL_FIELDS = [QQ, F5, GF(2**31 - 1)]
SHAPES = [(0, 0), (1, 0), (3, 0), (1, 1), (2, 5), (3, 8), (6, 2), (9, 4), (5, 5), (8, 8)]


class TestKernelAgainstDenseReference:
    """The sparse kernel against the dense Gauss-Jordan it replaced: the
    reduced echelon form is unique, so the two agree entry for entry."""

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["Q", "F5", "F2^31-1"])
    def test_row_reduce_rank_and_nullspace(self, rng, field):
        for nrows, ncols in SHAPES:
            for _ in range(12):
                rows = random_scalar_matrix(rng, field, nrows, ncols)
                expected = _row_reduce_dense(field, rows)
                assert row_reduce(field, rows) == expected, (nrows, ncols)
                assert matrix_rank(field, rows) == len(expected[1])
                assert nullspace(field, rows, ncols) == _nullspace_dense(field, rows, ncols)
        assert row_reduce(field, []) == ([], [])

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["Q", "F5", "F2^31-1"])
    def test_invert_matrix(self, rng, field):
        seen = set()
        for n in range(0, 7):
            for _ in range(12):
                rows = random_scalar_matrix(rng, field, n, n)
                expected = _invert_dense(field, rows)
                assert invert_matrix(field, rows) == expected
                seen.add(expected is None)
        assert seen == {True, False}

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["Q", "F5", "F2^31-1"])
    def test_span_test_matches_rank(self, rng, field):
        for nrows, ncols in SHAPES:
            spanning = random_scalar_matrix(rng, field, nrows, ncols)
            member = span_test(field, spanning)
            rank = len(_row_reduce_dense(field, spanning)[1])
            for vec in random_scalar_matrix(rng, field, 6, ncols):
                expected = len(_row_reduce_dense(field, spanning + [vec])[1]) == rank
                assert member(vec) == expected

