from fractions import Fraction

import pytest

from equibundle import hensel
from equibundle.exact_core import GF, QQ, nullspace
from equibundle.graded import GradedAlgebra
from equibundle.hensel import (
    FiniteDimAlgebra,
    from_univariate_quotient,
    is_henselian_pair,
    jacobson_radical,
    lift_idempotent,
    trivially_henselian,
)

F5 = GF(5)


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
        assert jacobson_radical(alg) == []

    def test_dual_numbers(self):
        alg = from_univariate_quotient(QQ, [0, 0, 1])  # x^2
        rad = jacobson_radical(alg)
        assert len(rad) == 1
        assert alg.is_nilpotent(rad[0])

    def test_cusp_quotient(self):
        # Q[x]/(x^3 - x^2): radical is spanned by x^2 - x (dimension 1)
        alg = from_univariate_quotient(QQ, [0, 0, -1, 1])
        rad = jacobson_radical(alg)
        assert len(rad) == 1
        target = (Fraction(0), Fraction(-1), Fraction(1))  # x^2 - x
        assert alg.in_span(target, rad)
        assert alg.is_nilpotent(target)

    def test_prime_field_radical(self):
        alg = from_univariate_quotient(F5, [0, 0, 1])  # x^2 over F5
        rad = jacobson_radical(alg)
        assert len(rad) == 1

    def test_frobenius_handles_etale_case(self):
        # F5[x]/(x^2 - x) is split etale; radical must be zero even though
        # trace arguments degenerate in small characteristic
        alg = from_univariate_quotient(F5, [0, -1, 1])
        assert jacobson_radical(alg) == []


class TestRadicalBranches:
    def test_trace_form_matches_frobenius_reference(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, "_trace_form")
        nonzero = 0
        for p in (7, 11, 2**31 - 1):
            field = GF(p)
            for _ in range(4):
                alg = from_univariate_quotient(
                    field, random_quotient(rng, field, rng.randint(1, min(p - 1, 8))))
                radical = jacobson_radical(alg)
                assert radical == frobenius_radical(alg)
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
        calls = count_calls(monkeypatch, "_trace_form")
        alg = from_univariate_quotient(GF(p), quotient)
        assert len(jacobson_radical(alg)) == radical_dim
        assert calls == []

    def test_trace_form_vanishes_in_characteristic_two(self):
        # F2[x]/(x^2 + 1) is local of length 2: every trace is 2 * (...) = 0,
        # so the trace form cannot see the radical when p <= dim.
        alg = from_univariate_quotient(GF(2), [1, 0, 1])
        assert all(not v for row in hensel._trace_form(alg) for v in row)


class TestTrustedQuotient:
    def test_public_constructor_accepts_and_agrees(self, rng):
        for field in (QQ, F5, GF(2**31 - 1)):
            for d in range(1, 11):
                quotient = random_quotient(rng, field, d)
                gens = [[rng.randint(-3, 3) for _ in range(rng.randint(1, d + 2))]
                        for _ in range(rng.randint(0, 2))]
                alg = from_univariate_quotient(field, quotient, ideal_generators=gens)
                rebuilt = FiniteDimAlgebra(field=field, dim=alg.dim,
                                           structure=alg.structure, ideal=alg.ideal)
                assert rebuilt == alg


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
                assert alg.structure == tuple(
                    tuple(x_power_mod(field, quotient, i + j) for j in range(d))
                    for i in range(d))


class TestIsNilpotent:
    def test_matches_power_to_the_dimension(self, rng):
        for field in (QQ, F5, GF(2)):
            for d in range(1, 9):
                alg = from_univariate_quotient(field, random_quotient(rng, field, d))
                radical = jacobson_radical(alg)
                for _ in range(6):
                    a = alg.coerce([rng.randint(-2, 2) for _ in range(d)])
                    if radical and rng.random() < 0.5:
                        a = radical[rng.randrange(len(radical))]
                    assert alg.is_nilpotent(a) == (not any(alg.power(a, d))), (field, d, a)

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
        # eliminating the radical once must give the verdict of testing every
        # spanning vector of the ideal on its own, zero vectors included
        verdicts = []
        for field in (QQ, GF(7), GF(2**31 - 1)):
            for _ in range(20):
                quotient = random_quotient(rng, field, rng.randint(1, 6))
                base = from_univariate_quotient(field, quotient)
                radical = jacobson_radical(base)
                gens = []
                for _ in range(rng.randint(0, 3)):
                    if radical and rng.random() < 0.6:
                        vec = base.zero
                        for r in radical:
                            vec = base.add(vec, base.scale(field(rng.randint(-2, 2)), r))
                    else:
                        vec = tuple(field(rng.randint(-2, 2)) for _ in range(base.dim))
                    gens.append(vec)
                # coordinates are coefficients in x, so each vector generates
                # an ideal, inside the radical when the vector is
                ideal = from_univariate_quotient(field, quotient, ideal_generators=gens).ideal
                alg = FiniteDimAlgebra(field=field, dim=base.dim, structure=base.structure,
                                       ideal=[base.zero] * rng.randint(0, 1) + list(ideal))
                expected = all(alg.in_span(vec, radical) for vec in alg.ideal)
                assert is_henselian_pair(alg, radical=radical) == expected
                assert is_henselian_pair(alg) == expected
                verdicts.append(expected)
        assert True in verdicts and False in verdicts

    def test_empty_radical(self):
        split = from_univariate_quotient(QQ, [0, -1, 1])
        assert jacobson_radical(split) == []
        zero = FiniteDimAlgebra(field=QQ, dim=2, structure=split.structure,
                                ideal=[split.zero])
        whole = FiniteDimAlgebra(field=QQ, dim=2, structure=split.structure,
                                 ideal=[split.zero, split.one, split.unit_vector(1)])
        assert is_henselian_pair(zero, radical=[])
        assert not is_henselian_pair(whole, radical=[])


class TestLiftIdempotent:
    def test_one_lifts_to_one(self):
        alg = from_univariate_quotient(QQ, [0, 0, 1], ideal_generators=[[0, 1]])
        lift = lift_idempotent(alg, alg.one)
        assert lift.element == alg.one

    def test_zero_lifts_to_zero(self):
        alg = from_univariate_quotient(QQ, [0, 0, 1], ideal_generators=[[0, 1]])
        lift = lift_idempotent(alg, alg.zero)
        assert lift.element == alg.zero

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
            lift_idempotent(alg, alg.one)
        # (x - 1) in Q[x]/(x^2 (x - 1)) is spanned by 1 - x^2, not nilpotent,
        # and x - x^2, nilpotent: one nilpotent spanning vector is not enough
        alg = from_univariate_quotient(QQ, [0, 0, -1, 1], ideal_generators=[[-1, 1]])
        assert [alg.is_nilpotent(v) for v in alg.ideal] == [False, True]
        with pytest.raises(ValueError, match="not nilpotent"):
            lift_idempotent(alg, alg.one)

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


class TestIdempotentSearch:
    def test_henselian_implies_liftable(self):
        alg = from_univariate_quotient(QQ, [0, 0, 1], ideal_generators=[[0, 1]])
        assert is_henselian_pair(alg)
        space = [alg.zero, alg.one, (Fraction(1), Fraction(2))]
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

    def poly_mul(a, b):
        out = [field.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

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
        candidate = alg.add(candidate, noise)
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


def count_calls(monkeypatch, name):
    """Record each call of hensel.<name> in the returned list."""
    calls = []
    original = getattr(hensel, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(hensel, name, counted)
    return calls


def random_quotient(rng, field, d):
    """Monic coefficients, constant first, of a degree-d product of random
    monic factors, one of them repeated whenever d > 1."""
    def poly_mul(a, b):
        out = [field.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    quotient = [field.one]
    left = d
    while left:
        degree = rng.randint(1, min(2, left))
        factor = [field(rng.randint(-3, 3)) for _ in range(degree)] + [field.one]
        for _ in range(rng.randint(2, max(2, left // degree)) if left >= 2 * degree else 1):
            quotient = poly_mul(quotient, factor)
            left -= degree
    return quotient


def frobenius_radical(alg):
    """Kernel of x -> x^(p^e) with p^e >= dim: the radical in any characteristic p."""
    p = alg.field.p
    q = p
    while q < alg.dim:
        q *= p
    images = [alg.power(alg.unit_vector(i), q) for i in range(alg.dim)]
    rows = [[images[j][i] for j in range(alg.dim)] for i in range(alg.dim)]
    return [tuple(v) for v in nullspace(alg.field, rows, alg.dim)]
