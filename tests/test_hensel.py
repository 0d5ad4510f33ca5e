import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import radical_reference
from equibundle import hensel
from equibundle.cli import main
from equibundle.exact_core import GF, QQ, Polynomial, row_reduce
from equibundle.graded import GradedAlgebra
from equibundle.hensel import (
    FiniteDimAlgebra,
    from_univariate_quotient,
    is_henselian_pair,
    jacobson_radical,
    lift_idempotent,
    trivially_henselian,
)
from equibundle.io import render_polynomial
from radical_reference import (
    frobenius_kernel,
    is_nilpotent,
    one,
    power,
    radical_basis,
    trace_form,
    unit_vector,
)

F5 = GF(5)
P_LARGE = 2**31 - 1
FIELDS = (QQ, F5, GF(P_LARGE))


def graded(field, degrees):
    return GradedAlgebra(field, tuple(f"x{i}" for i in range(len(degrees))),
                         tuple(degrees))


class TestTriviallyHenselian:
    def test_nonnegative_degrees(self):
        assert trivially_henselian(graded(QQ, (1, 2)))

    def test_nonpositive_degrees(self):
        assert trivially_henselian(graded(QQ, (-1, -2)))

    def test_mixed_degrees(self):
        assert not trivially_henselian(graded(QQ, (1, -1)))


class TestJacobsonRadical:
    def test_product_of_fields(self):
        alg = from_univariate_quotient(QQ, [0, -1, 1])  # x^2 - x
        assert jacobson_radical(alg) == alg.modulus  # (f)/(f) = 0
        assert radical_ideal(alg) == ()

    def test_dual_numbers(self):
        alg = from_univariate_quotient(QQ, [0, 0, 1])  # x^2
        rad = radical_ideal(alg)
        assert len(rad) == 1
        assert is_nilpotent(alg, rad[0])

    def test_cusp_quotient(self):
        # Q[x]/(x^3 - x^2): radical is spanned by x^2 - x (dimension 1)
        alg = from_univariate_quotient(QQ, [0, 0, -1, 1])
        assert jacobson_radical(alg) == (0, -1, 1)
        rad = radical_ideal(alg)
        assert len(rad) == 1
        target = (Fraction(0), Fraction(-1), Fraction(1))  # x^2 - x
        assert alg.in_span(target, rad)
        assert is_nilpotent(alg, target)

    def test_prime_field_radical(self):
        alg = from_univariate_quotient(F5, [0, 0, 1])  # x^2 over F5
        rad = radical_ideal(alg)
        assert len(rad) == 1

    def test_frobenius_handles_etale_case(self):
        # F5[x]/(x^2 - x) is split etale; radical must be zero even though
        # trace arguments degenerate in small characteristic
        alg = from_univariate_quotient(F5, [0, -1, 1])
        assert radical_ideal(alg) == ()


class TestRadicalBranches:
    """The reference takes the trace form where every local length is prime
    to the characteristic and the Frobenius kernel elsewhere; the gcd
    radical takes neither."""

    def test_trace_form_matches_frobenius_reference(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, radical_reference, "trace_form")
        nonzero = 0
        for p in (7, 11, 2**31 - 1):
            field = GF(p)
            for _ in range(4):
                alg = from_univariate_quotient(
                    field, random_quotient(rng, field, rng.randint(1, min(p - 1, 8))))
                radical = radical_basis(alg)
                assert radical == frobenius_kernel(alg)
                assert rref(field, radical_ideal(alg)) == rref(field, radical)
                nonzero += bool(radical)
        assert calls == [None] * 12
        assert nonzero > 0

    @pytest.mark.parametrize("p, quotient, radical_dim", [
        (2, [1, 0, 1], 1),            # x^2 + 1 = (x + 1)^2
        (3, [0, 0, 0, 1], 2),         # x^3
        (5, [-1, 0, 0, 0, 0, 1], 4),  # x^5 - 1 = (x - 1)^5
        (3, [0, -1, 0, 1], 0),        # x^3 - x, split etale
    ])
    def test_small_characteristic_takes_frobenius(self, monkeypatch, p, quotient,
                                                   radical_dim):
        calls = count_calls(monkeypatch, radical_reference, "trace_form")
        field = GF(p)
        alg = from_univariate_quotient(field, quotient)
        reference = radical_basis(alg)
        assert len(radical_ideal(alg)) == len(reference) == radical_dim
        assert rref(field, radical_ideal(alg)) == rref(field, reference)
        assert calls == []

    def test_trace_form_vanishes_in_characteristic_two(self):
        # F2[x]/(x^2 + 1) is local of length 2: every trace is 2 * (...) = 0,
        # so the trace form cannot see the radical when p <= dim.
        alg = from_univariate_quotient(GF(2), [1, 0, 1])
        assert all(not v for row in trace_form(alg) for v in row)


class TestRadicalAgainstReference:
    """The gcd radical against the trace-form and Frobenius radical of
    `radical_reference`: the same dimension, d - deg r, and the same span,
    on random quotients with repeated factors.  Over F2 and F3 most
    quotients have p <= dim, where the reference takes the Frobenius kernel,
    and some have a factor whose multiplicity p divides, which only the
    p-th-root step of the squarefree part finds."""

    @pytest.mark.parametrize("p", [None, 5, P_LARGE, 2, 3],
                             ids=["Q", "F5", "F2^31-1", "F2", "F3"])
    def test_random_quotients(self, rng, p):
        field = QQ if p is None else GF(p)
        frobenius = pth_roots = 0
        for k in range(40):
            d = rng.randint(1, 10)
            quotient = random_quotient(rng, field, d)
            if p is None and k % 2:
                quotient = rational_quotient(rng, d)
            alg = from_univariate_quotient(field, quotient)
            reference = radical_basis(alg)
            radical = jacobson_radical(alg)
            assert radical[-1] == field.one
            assert_field_elements(field, radical)
            assert d + 1 - len(radical) == len(reference), (quotient, radical)
            assert rref(field, radical_ideal(alg)) == rref(field, reference), quotient
            frobenius += bool(p and p <= d)
            f = list(alg.modulus)
            separable = hensel._divmod(f, hensel._gcd(f, hensel._derivative(f, field), field),
                                       field)[0]
            pth_roots += len(separable) < len(radical)
        if p in (2, 3):
            assert frobenius > 20 and pth_roots > 5, (frobenius, pth_roots)


class TestRadicalCertificate:
    """Each check of `jacobson_radical`'s certificate rejects, on its own, a
    wrong candidate for the squarefree part: one that misses a factor of f,
    one that is not squarefree (r' = 0 among them) and one that f does not
    divide.  The true radical passes."""

    @pytest.mark.parametrize("p, quotient, candidate, message", [
        (None, [0, 0, -1, 1], [0, 1], "misses a factor"),           # x for x^2 (x - 1)
        (5, [0, 0, -1, 1], [-1, 1], "misses a factor"),             # x - 1
        (2, [0, 1, 0, 1], [1, 1], "misses a factor"),               # x + 1 for x (x + 1)^2
        (None, [0, 0, -1, 1], [0, 0, -1, 1], "not squarefree"),     # f itself
        (2, [1, 0, 1], [1, 0, 1], "not squarefree"),                # (x + 1)^2, r' = 0
        (3, [0, 0, 0, 1], [0, 0, 0, 1], "not squarefree"),          # x^3, r' = 0
        (None, [0, 0, -1, 1], [0, -1, 0, 1], "does not divide"),    # x (x - 1)(x + 1)
    ])
    def test_rejects_a_wrong_candidate(self, monkeypatch, p, quotient, candidate, message):
        field = QQ if p is None else GF(p)
        alg = from_univariate_quotient(field, quotient)
        true_radical = jacobson_radical(alg)
        monkeypatch.setattr(hensel, "_squarefree_part",
                            lambda f, field: [field(c) for c in candidate])
        with pytest.raises(AssertionError, match=message):
            jacobson_radical(alg)
        monkeypatch.setattr(hensel, "_squarefree_part", lambda f, field: list(true_radical))
        assert jacobson_radical(alg) == true_radical


class TestTrustedQuotient:
    def test_public_constructor_accepts_and_agrees(self, rng):
        # the frozen triple (field, modulus, generator) built directly is the
        # algebra the quotient constructor returns, and multiplies the same
        for field in (QQ, F5, GF(2**31 - 1)):
            for d in range(1, 11):
                quotient = random_quotient(rng, field, d)
                gens = [[rng.randint(-3, 3) for _ in range(rng.randint(1, d + 2))]
                        for _ in range(rng.randint(0, 2))]
                alg = from_univariate_quotient(field, quotient, ideal_generators=gens)
                rebuilt = FiniteDimAlgebra(field=field, modulus=alg.modulus,
                                           generator=alg.generator)
                assert rebuilt == alg
                a, b = (alg.coerce(random_coords(rng, d)) for _ in range(2))
                assert rebuilt.mul(a, b) == alg.mul(a, b)

    def test_table_is_x_to_the_i_plus_j_mod_f(self, rng):
        # reference: each product x^i * x^j divided by f on its own
        def x_power_mod(field, coeffs, k):
            d = len(coeffs) - 1
            vec = [field.zero] * k + [field.one]
            for top in range(k, d - 1, -1):
                lead = vec[top]
                for i in range(d + 1):
                    vec[top - d + i] = field(vec[top - d + i] - lead * coeffs[i])
                vec.pop()
            return tuple(vec) + (field.zero,) * (d - len(vec))

        for field in (QQ, F5, GF(2**31 - 1)):
            for d in range(1, 9):
                quotient = [field(c) for c in random_quotient(rng, field, d)]
                alg = from_univariate_quotient(field, quotient)
                assert tuple(tuple(alg.mul(unit_vector(alg, i), unit_vector(alg, j))
                                   for j in range(d)) for i in range(d)) == tuple(
                    tuple(x_power_mod(field, quotient, i + j) for j in range(d))
                    for i in range(d))


class TestIsNilpotent:
    def test_matches_power_to_the_dimension(self, rng):
        for field in (QQ, F5, GF(2)):
            for d in range(1, 9):
                alg = from_univariate_quotient(field, random_quotient(rng, field, d))
                radical = radical_ideal(alg)
                for _ in range(6):
                    a = alg.coerce([rng.randint(-2, 2) for _ in range(d)])
                    if radical and rng.random() < 0.5:
                        a = radical[rng.randrange(len(radical))]
                    nilpotent = is_nilpotent(alg, a)
                    assert nilpotent == (not any(power(alg, a, d))), (field, d, a)
                    assert nilpotent == alg.in_span(a, radical), (field, d, a)

class TestHenselianPair:
    def test_nilpotent_ideal(self):
        alg = from_univariate_quotient(QQ, [0, 0, 1], ideal_generators=[[0, 1]])
        assert is_henselian_pair(alg)

    def test_split_idempotent_ideal(self):
        # (k x k, k x 0): the ideal contains an idempotent, not henselian
        alg = from_univariate_quotient(QQ, [0, -1, 1], ideal_generators=[[0, 1]])
        assert not is_henselian_pair(alg)

    def test_zero_ideal(self):
        alg = from_univariate_quotient(QQ, [0, -1, 1])
        assert alg.ideal == ()
        assert is_henselian_pair(alg)

    def test_span_test_agrees_with_per_vector_span(self, rng):
        # the divisibility verdict must be the verdict of testing every
        # spanning vector of the ideal on its own against the reference
        # radical, zero generators included
        verdicts = []
        for field in (QQ, GF(7), GF(2**31 - 1)):
            for _ in range(20):
                quotient = random_quotient(rng, field, rng.randint(1, 6))
                base = from_univariate_quotient(field, quotient)
                radical = radical_basis(base)
                gens = [zero_vector(base)] * rng.randint(0, 1)
                for _ in range(rng.randint(0, 3)):
                    if radical and rng.random() < 0.6:
                        vec = zero_vector(base)
                        for r in radical:
                            vec = vec_add(field, vec, base.scale(field(rng.randint(-2, 2)), r))
                    else:
                        vec = tuple(field(rng.randint(-2, 2)) for _ in range(base.dim))
                    gens.append(vec)
                # coordinates are coefficients in x, so each vector generates
                # an ideal, inside the radical when the vector is
                alg = from_univariate_quotient(field, quotient, ideal_generators=gens)
                expected = all(alg.in_span(vec, radical) for vec in alg.ideal)
                assert is_henselian_pair(alg, radical=jacobson_radical(base)) == expected
                assert is_henselian_pair(alg) == expected
                verdicts.append(expected)
        assert True in verdicts and False in verdicts

    def test_empty_radical(self):
        split = from_univariate_quotient(QQ, [0, -1, 1])
        radical = jacobson_radical(split)
        assert radical == split.modulus and radical_ideal(split) == ()
        zero = from_univariate_quotient(QQ, [0, -1, 1], ideal_generators=[[0, 0, 0]])
        whole = from_univariate_quotient(QQ, [0, -1, 1], ideal_generators=[[0], [1], [0, 1]])
        assert zero.generator == split.modulus and whole.generator == (1,)
        assert is_henselian_pair(zero, radical=radical)
        assert not is_henselian_pair(whole, radical=radical)


class TestLiftIdempotent:
    def test_one_lifts_to_one(self):
        alg = from_univariate_quotient(QQ, [0, 0, 1], ideal_generators=[[0, 1]])
        lift = lift_idempotent(alg, one(alg))
        assert lift.element == one(alg)

    def test_zero_lifts_to_zero(self):
        alg = from_univariate_quotient(QQ, [0, 0, 1], ideal_generators=[[0, 1]])
        lift = lift_idempotent(alg, zero_vector(alg))
        assert lift.element == zero_vector(alg)

    def test_perturbed_idempotent_in_dual_extension(self):
        # A = Q[x]/(x^2 (x - 1)^2) with the square-zero ideal (x^2 - x), a
        # first-order thickening of Q[x]/(x^2 - x) = Q x Q; candidate x is
        # idempotent mod the ideal but not in A, and the iteration returns an
        # exact idempotent.
        alg = from_univariate_quotient(QQ, [0, 0, 1, -2, 1],
                                       ideal_generators=[[0, -1, 1]])
        candidate = [0, 1, 0, 0]  # x
        assert alg.mul(alg.coerce(candidate), alg.coerce(candidate)) != alg.coerce(candidate)
        lift = lift_idempotent(alg, candidate)
        e = lift.element
        assert alg.mul(e, e) == e
        assert lift.iterations <= 3
        assert alg.in_span(alg.sub(e, alg.coerce(candidate)), alg.ideal)

    def test_non_nilpotent_ideal_rejected(self):
        alg = from_univariate_quotient(QQ, [0, -1, 1], ideal_generators=[[0, 1]])
        with pytest.raises(ValueError):
            lift_idempotent(alg, one(alg))
        # (x - 1) in Q[x]/(x^2 (x - 1)) is spanned by x - 1, not nilpotent,
        # and x^2 - x, nilpotent: one nilpotent spanning vector is not enough
        alg = from_univariate_quotient(QQ, [0, 0, -1, 1], ideal_generators=[[-1, 1]])
        assert [is_nilpotent(alg, v) for v in alg.ideal] == [False, True]
        with pytest.raises(ValueError, match="not nilpotent"):
            lift_idempotent(alg, one(alg))

    def test_non_idempotent_candidate_rejected(self):
        alg = from_univariate_quotient(QQ, [0, 0, 1], ideal_generators=[[0, 1]])
        with pytest.raises(ValueError):
            lift_idempotent(alg, [2, 0])

    def test_randomized_exactness(self, rng):
        for _ in range(20):
            field = QQ if rng.random() < 0.5 else F5
            alg, candidate = random_nilpotent_instance(rng, field)
            lift = lift_idempotent(alg, candidate)
            e = lift.element
            assert alg.mul(e, e) == e
            assert alg.in_span(alg.sub(e, candidate), alg.ideal)


class TestLiftChecks:
    """`lift_idempotent`'s two checks, each reached by a wrong product that is
    right on squares (so the candidate still passes the entry checks) and
    wrong on the product e^2 * e of each step."""

    def test_slow_iteration_fails_to_converge(self, monkeypatch):
        # e^2 * e := (3 e^2 - x e) / 2 turns each step into e <- x * e: from
        # x in Q[x]/(x^8) that needs 7 steps, and at most 5 are allowed
        alg = from_univariate_quotient(QQ, [0] * 8 + [1], ideal_generators=[[0, 1]])
        x = alg.coerce([0, 1] + [0] * 6)
        true_mul = FiniteDimAlgebra.mul

        def slow(self, a, b):
            if a == b:
                return true_mul(self, a, b)
            return self.scale(Fraction(1, 2),
                              self.sub(self.scale(3, a), true_mul(self, x, b)))

        monkeypatch.setattr(FiniteDimAlgebra, "mul", slow)
        with pytest.raises(AssertionError, match="failed to converge"):
            lift_idempotent(alg, x)

    @pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
    def test_lift_in_another_class_drifts(self, monkeypatch, field):
        # e^2 * e := 3 e^2 / 2 sends the first step to 0, an idempotent, but
        # the candidate 1 + x of k[x]/(x^2) lies in the class of 1
        alg = from_univariate_quotient(field, [0, 0, 1], ideal_generators=[[0, 1]])
        true_mul = FiniteDimAlgebra.mul
        monkeypatch.setattr(FiniteDimAlgebra, "mul", lambda self, a, b: true_mul(self, a, b)
                            if a == b else self.scale(Fraction(3, 2), a))
        with pytest.raises(AssertionError, match="drifted away from its residue class"):
            lift_idempotent(alg, [1, 1])


class TestIdempotentSearch:
    def test_henselian_implies_liftable(self):
        alg = from_univariate_quotient(QQ, [0, 0, 1], ideal_generators=[[0, 1]])
        assert is_henselian_pair(alg)
        space = [zero_vector(alg), one(alg), (Fraction(1), Fraction(2))]
        for vec in [v for v in space if is_idempotent_mod_ideal(alg, v)]:
            lift = lift_idempotent(alg, vec)
            assert alg.mul(lift.element, lift.element) == lift.element

    def test_exhaustive_search_over_f5(self):
        # every residue idempotent of a henselian pair lifts; the whole
        # algebra is searched (5^dim elements)
        from itertools import product

        alg = from_univariate_quotient(F5, [0, 0, 0, 1], ideal_generators=[[0, 1]])
        assert is_henselian_pair(alg)
        space = [tuple(F5(c) for c in coords)
                 for coords in product(range(5), repeat=alg.dim)]
        candidates = [v for v in space if is_idempotent_mod_ideal(alg, v)]
        assert len(candidates) > 2  # not just 0 and 1: the ideal is nontrivial
        for vec in candidates:
            lift = lift_idempotent(alg, vec)
            assert alg.mul(lift.element, lift.element) == lift.element
            assert alg.in_span(alg.sub(lift.element, vec), alg.ideal)


class TestMulAgainstReference:
    """The product, and the reference's trace form, against the ones built
    from the multiplication table of k[x]/(f), each x^i * x^j reduced mod f
    from scratch: every pair of basis vectors, random vectors, and the Gram
    matrix, at d <= 20 on integral and rational moduli."""

    def test_quotients(self, rng):
        lead_above_one = 0
        for field in FIELDS:
            for d in range(1, 21):
                for quotient in (random_quotient(rng, field, d), rational_quotient(rng, d)):
                    alg = from_univariate_quotient(field, quotient)
                    table, _ = _quotient_reference(field, quotient, ())
                    units = [unit_vector(alg, i) for i in range(d)]
                    for i, a in enumerate(units):
                        for j, b in enumerate(units):
                            product = alg.mul(a, b)
                            assert product == table[i][j], (field, quotient, i, j)
                            assert_field_elements(field, product)
                    vectors = [zero_vector(alg)] + [alg.coerce(random_coords(rng, d))
                                                    for _ in range(4)]
                    for a in vectors:
                        for b in [a] + rng.sample(vectors, 2):
                            product = alg.mul(a, b)
                            assert product == _mul_reference(field, table, a, b), (
                                field, quotient, a, b)
                            assert_field_elements(field, product)
                    gram = trace_form(alg)
                    assert gram == _gram_reference(field, table), (field, quotient)
                    for row in gram:
                        assert_field_elements(field, row)
                    lead_above_one += field == QQ and any(
                        Fraction(c).denominator > 1 for c in quotient)
        assert lead_above_one > 10


class TestQuotientAgainstReference:
    def test_table_and_ideal(self, rng):
        for field in FIELDS:
            for d in range(1, 11):
                for quotient in (random_quotient(rng, field, d), rational_quotient(rng, d)):
                    high = random_coords(rng, rng.randint(d + 1, 2 * d + 3))
                    high[-1] = rng.randint(1, 4)  # degree at least d
                    constant = [rng.choice([1, -2, Fraction(3, 4)])]
                    for gens in ([high], [[]], [[0, 0, 0]], [list(quotient)], [constant],
                                 [high, [], list(quotient), random_coords(rng, d)]):
                        alg = from_univariate_quotient(field, quotient, ideal_generators=gens)
                        table, ideal = _quotient_reference(field, quotient, gens)
                        assert alg.modulus == tuple(field(c) for c in quotient)
                        assert_field_elements(field, alg.modulus)
                        assert [[alg.mul(unit_vector(alg, i), unit_vector(alg, j))
                                 for j in range(d)] for i in range(d)] == [
                            list(row) for row in table], (field, quotient)
                        # a basis (one vector per dimension) of the reference span
                        assert len(alg.ideal) == len(ideal), (field, quotient, gens)
                        assert rref(field, alg.ideal) == ideal, (field, quotient, gens)
                        h = alg.generator
                        assert h[-1] == field.one
                        remainder = poly_mod(list(alg.modulus), list(h))
                        assert not any(field(v) for v in remainder), (field, quotient, gens)
                        assert_field_elements(field, h)
                        for vec in alg.ideal:
                            assert_field_elements(field, vec)


class TestPlantedLargeDimension:
    """Planted Q documents k[x]/(prod (x - a)^m) with the ideal (prod (x - a)),
    at dimensions the benchmark does not reach, run through the CLI."""

    @pytest.mark.parametrize("dim", [16, 20])
    def test_hensel_check(self, rng, tmp_path, capsys, dim):
        roots, quotient, radical = planted_quotient(rng, dim)
        report = run_findim(tmp_path, capsys, "hensel-check", quotient, radical)
        assert report["dimension"] == str(dim)
        assert report["radical dimension"] == str(dim - len(roots))
        assert report["henselian pair"] == "yes"

    @pytest.mark.parametrize("dim", [16, 20])
    def test_lift_idempotent(self, rng, tmp_path, capsys, dim):
        roots, quotient, radical = planted_quotient(rng, dim)
        chosen = [rng.randint(0, 1) for _ in roots]
        subset = [a for a, c in zip(roots, chosen) if c]
        candidate = crt_idempotent(QQ, roots, [1] * len(roots), subset, len(roots))
        # the candidate is idempotent mod the ideal, not in the algebra
        noise = poly_mul(radical, [rng.randint(-2, 2) for _ in range(dim - len(roots))])
        candidate = [QQ(a + b) for a, b in zip(list(candidate) + [0] * dim, noise)]
        report = run_findim(tmp_path, capsys, "lift-idempotent", quotient, radical,
                            idempotent=candidate)
        assert report["exact"] == "yes"
        e = [Fraction(t) for t in report["idempotent"].strip("[]").split(", ")]
        assert len(e) == dim
        assert poly_mod(poly_mul(e, e), quotient) == poly_mod(e, quotient)
        assert [poly_eval(e, a) for a in roots] == chosen


class TestTotality:
    """hensel-check on x^d - x^2 = x^2 (x^(d-2) - 1), whose radical is
    spanned by x^(d-1) - x when the characteristic does not divide d - 2.
    The product and the gcds take O(d^2) steps, so d = 400 ends.  And both
    commands on the dense (x - 1)^40 (x + 2)^40 over Q, whose radical took
    seconds to certify by powering its 78 basis vectors."""

    @pytest.mark.parametrize("field, dim, ideal, verdict", [
        ("F2147483647", 400, "1*x^399 - 1*x^1", "yes"),
        ("Q", 200, "1*x^1", "no"),
    ], ids=["F2^31-1-400", "Q-200"])
    def test_hensel_check(self, tmp_path, capsys, field, dim, ideal, verdict):
        path = tmp_path / "algebra.txt"
        path.write_text(f"kind = findim_algebra\nfield = {field}\n"
                        f"quotient = 1*x^{dim} - 1*x^2\nideal = [{ideal}]\n")
        assert main(["hensel-check", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "report = hensel-check", f"dimension = {dim}", "radical dimension = 1",
            f"henselian pair = {verdict}"]

    def test_dense_squarefree_quotient(self, tmp_path, capsys):
        # a fixed squarefree f of degree 120 with small integer coefficients:
        # its remainder sequence runs through every degree, and over
        # Fractions its coefficients grew for seconds
        coefficients = random.Random(1)
        quotient = [coefficients.randint(-9, 9) for _ in range(120)] + [1]
        start = time.perf_counter()
        report = run_findim(tmp_path, capsys, "hensel-check", quotient, [1, 1])
        assert time.perf_counter() - start < 1.0
        assert report == {"report": "hensel-check", "dimension": "120",
                          "radical dimension": "0", "henselian pair": "no"}

    def test_dense_probe_hensel_check(self, tmp_path, capsys):
        start = time.perf_counter()
        report = run_findim(tmp_path, capsys, "hensel-check", DENSE_PROBE, [-2, 1, 1])
        assert time.perf_counter() - start < 1.0
        assert report == {"report": "hensel-check", "dimension": "80",
                          "radical dimension": "78", "henselian pair": "yes"}

    def test_dense_probe_lift_idempotent(self, tmp_path, capsys):
        # (x + 2) / 3 is 1 at the root 1 and 0 at the root -2, so it is
        # idempotent mod the ideal ((x - 1)(x + 2)); the one idempotent it
        # lifts to is 1 mod (x - 1)^40 and 0 mod (x + 2)^40
        candidate = [Fraction(2, 3), Fraction(1, 3)]
        start = time.perf_counter()
        report = run_findim(tmp_path, capsys, "lift-idempotent", DENSE_PROBE, [-2, 1, 1],
                            idempotent=candidate)
        assert time.perf_counter() - start < 1.0
        assert report["exact"] == "yes" and int(report["iterations"]) <= 6
        e = [Fraction(t) for t in report["idempotent"].strip("[]").split(", ")]
        assert len(e) == 80
        assert poly_mod(poly_mul(e, e), DENSE_PROBE) == poly_mod(e, DENSE_PROBE)
        assert (poly_eval(e, 1), poly_eval(e, -2)) == (1, 0)
        assert not any(poly_mod([a - b for a, b in zip(e, candidate + [0] * 78)], [-2, 1, 1]))


def zero_vector(alg):
    return (alg.field.zero,) * alg.dim


def vec_add(field, a, b):
    return tuple(field(x + y) for x, y in zip(a, b))


def is_idempotent_mod_ideal(alg, vec):
    vec = alg.coerce(vec)
    return alg.in_span(alg.sub(alg.mul(vec, vec), vec), alg.ideal)


def random_nilpotent_instance(rng, field):
    """Algebra with roots of multiplicity >= 1 and a nilpotent ideal.

    Built as k[x] / prod (x - a_i)^(e_i); the radical part is generated by
    prod (x - a_i), and an idempotent residue is perturbed by an ideal element.
    """
    if field == QQ:
        roots = rng.sample([-2, -1, 0, 1, 2], rng.randint(1, 2))
    else:
        roots = rng.sample(range(5), rng.randint(1, 2))
    mults = [rng.randint(1, 3) for _ in roots]

    quotient = [field.one]
    radical_gen = [field.one]
    for root, mult in zip(roots, mults):
        linear = [field(-root), field.one]
        radical_gen = poly_mul(radical_gen, linear)
        for _ in range(mult):
            quotient = poly_mul(quotient, linear)
    d = len(quotient) - 1
    # the spanning set for I = (prod (x - a_i)) is nilpotent mod the quotient
    alg = from_univariate_quotient(field, quotient, ideal_generators=[radical_gen])
    # candidate: CRT idempotent (1 on a random subset of roots) + ideal noise
    subset = [r for r in roots if rng.random() < 0.5]
    candidate = crt_idempotent(field, roots, mults, subset, d)
    if alg.ideal and rng.random() < 0.8:
        noise = alg.scale(field(rng.randint(1, 3)), alg.ideal[rng.randrange(len(alg.ideal))])
        candidate = vec_add(field, candidate, noise)
    return alg, candidate


def crt_idempotent(field, roots, mults, subset, dim):
    """Evaluate-and-interpolate an element that is 1 at subset roots, 0 elsewhere."""
    # Lagrange interpolation on the distinct roots, padded to the algebra dim
    coeffs = [field.zero] * dim
    for r in subset:
        others = [s for s in roots if s != r]
        num = [field.one]
        denom = field.one
        for s in others:
            new = [field.zero] * (len(num) + 1)
            for i, c in enumerate(num):
                new[i] = new[i] + c * field(-s)
                new[i + 1] = new[i + 1] + c
            num = new
            denom = denom * (field(r) - field(s))
        inv = field.inv(denom)
        for i, c in enumerate(num):
            coeffs[i] = coeffs[i] + c * inv
    return tuple(coeffs)


def count_calls(monkeypatch, module, name):
    """Record each call of module.<name> in the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def radical_ideal(alg):
    """The basis of the nilradical (r)/(f) that `jacobson_radical` gives."""
    return replace(alg, generator=jacobson_radical(alg)).ideal


def rref(field, vectors):
    """The nonzero rows of the reduced echelon form of the span of vectors."""
    reduced, pivots = row_reduce(field, [list(v) for v in vectors])
    return tuple(tuple(reduced[r]) for r in range(len(pivots)))


def random_quotient(rng, field, d):
    """Monic coefficients, constant first, of a degree-d product of random
    monic factors, one of them repeated whenever d > 1."""
    quotient = [field.one]
    left = d
    while left:
        degree = rng.randint(1, min(2, left))
        factor = [field(rng.randint(-3, 3)) for _ in range(degree)] + [field.one]
        for _ in range(rng.randint(2, max(2, left // degree)) if left >= 2 * degree else 1):
            quotient = poly_mul(quotient, factor)
            left -= degree
    return quotient


def rational_quotient(rng, d):
    """Monic coefficients, constant first, of a degree-d product of monic
    factors with rational coefficients whose denominators are 1-4."""
    quotient = [1]
    while len(quotient) <= d:
        degree = rng.randint(1, min(2, d + 1 - len(quotient)))
        factor = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(degree)]
        quotient = poly_mul(quotient, factor + [1])
    return quotient


def random_coords(rng, n):
    """n coordinates, zero, negative and rational among them (denominators 1-4)."""
    return [rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
            for _ in range(n)]


def assert_field_elements(field, vec):
    if field.p:
        assert all(type(v) is int and 0 <= v < field.p for v in vec), vec
    else:
        assert all(type(v) is Fraction for v in vec), vec


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_mod(a, monic):
    a, d = list(a), len(monic) - 1
    for top in range(len(a) - 1, d - 1, -1):
        lead = a.pop()
        for i in range(d):
            a[top - d + i] -= lead * monic[i]
    return a + [0] * (d - len(a))


def poly_eval(a, x):
    return sum(c * x**k for k, c in enumerate(a))


def dense_probe():
    """(x - 1)^40 (x + 2)^40, constant first."""
    quotient = [1]
    for _ in range(40):
        quotient = poly_mul(poly_mul(quotient, [-1, 1]), [2, 1])
    return quotient


DENSE_PROBE = dense_probe()


def planted_quotient(rng, dim):
    """(roots, f, prod (x - a)) for f = prod (x - a)^m over 1-3 roots in
    +-1..3 whose multiplicities m sum to dim."""
    roots = rng.sample([-3, -2, -1, 1, 2, 3], rng.randint(1, 3))
    mults = [1] * len(roots)
    for _ in range(dim - len(roots)):
        mults[rng.randrange(len(roots))] += 1
    quotient, radical = [1], [1]
    for a, m in zip(roots, mults):
        radical = poly_mul(radical, [-a, 1])
        for _ in range(m):
            quotient = poly_mul(quotient, [-a, 1])
    return roots, quotient, radical


def run_findim(tmp_path, capsys, command, quotient, radical, idempotent=None):
    """Run `command` on a Q findim_algebra document; return its report fields."""
    def text(coeffs):
        poly = Polynomial(QQ, 1, {(k,): QQ(c) for k, c in enumerate(coeffs)})
        return render_polynomial(poly, ("x",))

    lines = ["kind = findim_algebra", "field = Q", f"quotient = {text(quotient)}",
             f"ideal = [{text(radical)}]"]
    if idempotent is not None:
        lines.append(f"idempotent = {text(idempotent)}")
    path = tmp_path / "algebra.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, str(path)]) == 0
    return dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())


def _mul_reference(field, table, a, b):
    """The product as one loop over field elements, straight from the table
    (table[i][j] is e_i * e_j)."""
    out = [field.zero] * len(a)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            coeff = x * y
            for l, s in enumerate(table[i][j]):
                if s:
                    out[l] += coeff * s
    p = field.p
    return tuple(v % p for v in out) if p else tuple(out)


def _gram_reference(field, table):
    """The trace form from the table: Tr(e_k) is the sum of the diagonal
    coordinates of e_k * e_j, and (e_i, e_j) -> Tr(e_i * e_j) is linear."""
    d = len(table)
    traces = [field(sum(table[k][j][j] for j in range(d))) for k in range(d)]
    return [[field(sum(c * t for c, t in zip(table[i][j], traces) if c)) for j in range(d)]
            for i in range(d)]


def _quotient_reference(field, monic_coeffs, ideal_generators):
    """(table, ideal) of k[x]/(f), table[i][j] = x^(i+j) mod f: each x^k and
    each x^s * g reduced mod f from scratch."""
    coeffs = [field(c) for c in monic_coeffs]
    d = len(coeffs) - 1

    def reduce_poly(vec):
        vec = list(vec)
        for top in range(len(vec) - 1, d - 1, -1):
            lead = vec[top]
            if lead:
                for i in range(d + 1):
                    vec[top - d + i] = vec[top - d + i] - lead * coeffs[i]
            vec.pop()
        return tuple(field(v) for v in vec) + (field.zero,) * (d - len(vec))

    powers = [reduce_poly([field.zero] * k + [field.one]) for k in range(2 * d - 1)]
    table = tuple(tuple(powers[i + j] for j in range(d)) for i in range(d))
    ideal_vectors = []
    for gen in ideal_generators:
        base = reduce_poly([field(c) for c in gen])
        for shift in range(d):
            shifted = reduce_poly([field.zero] * shift + list(base))
            if any(shifted):
                ideal_vectors.append(shifted)
    if ideal_vectors:
        reduced, pivots = row_reduce(field, [list(v) for v in ideal_vectors])
        ideal_vectors = [tuple(reduced[r]) for r in range(len(pivots))]
    return table, tuple(ideal_vectors)
