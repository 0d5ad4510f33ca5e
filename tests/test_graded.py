import itertools
from fractions import Fraction

import pytest

from equibundle import graded
from equibundle.exact_core import GF, QQ, Polynomial, matrix_rank
from equibundle.graded import (
    GradedAlgebra,
    GradedModulePresentation,
    graded_iso_test,
    iso_class_graded_free,
    lift_graded_map,
    nakayama_zero_test,
    verify_nakayama_witness,
)

F5 = GF(5)


def algebra(field, degrees, names=None):
    names = names or tuple(f"x{i}" for i in range(len(degrees)))
    return GradedAlgebra(field, tuple(names), tuple(degrees))


def const(alg, c):
    return Polynomial.constant(alg.field, alg.nvars, c)


def var(alg, index):
    """The variable x_index of the algebra, as a polynomial."""
    mono = tuple(int(i == index) for i in range(alg.nvars))
    return Polynomial.monomial(alg.field, alg.nvars, mono, 1)


class TestMessages:
    def test_inhomogeneous_relations_in_document_names(self):
        a, b = (Polynomial.monomial(QQ, 2, mono, 1) for mono in ((1, 0), (0, 1)))
        with pytest.raises(ValueError, match=r"^relation 1\*a\^1 \+ 1\*b\^2 is not homogeneous$"):
            GradedAlgebra(QQ, ("a", "b"), (1, 1), (a + b * b,))
        alg = GradedAlgebra(QQ, ("a", "b"), (1, 2))
        columns = ((a * a, a), (alg.zero(), a + b))
        with pytest.raises(ValueError, match=r"^module_relation 1, entry 1 \(1\*a\^1 \+ 1\*b\^1\) "
                                             r"is not homogeneous$"):
            module(alg, (0, 1), columns)


class TestConnected:
    def test_single_positive(self):
        assert algebra(QQ, (1,)).is_connected()

    def test_mixed(self):
        assert not algebra(QQ, (1, -1)).is_connected()

    def test_gaps_allowed(self):
        assert algebra(QQ, (2, 3)).is_connected()


def module(alg, gen_degrees, relations=()):
    return GradedModulePresentation(alg, tuple(gen_degrees), tuple(relations))


def brute_force_is_zero(mod, bound=None):
    """Independent oracle: all graded components vanish up to the bound."""
    bound = bound if bound is not None else mod.default_degree_bound()
    lo = min(mod.generator_degrees, default=0)
    return all(mod.component_dimension(d) == 0 for d in range(lo, bound + 1))


class TestNakayama:
    def test_zero_module(self):
        alg = algebra(QQ, (1,))
        result = nakayama_zero_test(module(alg, ()))
        assert result.is_zero and result.witness.nilpotency_order == 0

    def test_residue_field_survives(self):
        alg = algebra(QQ, (1,), ("x",))
        mod = module(alg, (0,), [(var(alg, 0),)])  # B/(x)
        result = nakayama_zero_test(mod)
        assert not result.is_zero
        assert result.surviving_degree == 0
        assert mod.component_dimension(0) == 1  # the surviving line

    def test_cascade_with_witness(self):
        # generators in degrees (0, 1), relations e0 = 0 and e1 = x*e0:
        # reduction mod the irrelevant ideal is zero, so E = 0, certified.
        alg = algebra(QQ, (1,), ("x",))
        one = const(alg, 1)
        zero = alg.zero()
        mod = module(alg, (0, 1), [(one, zero), ((-var(alg, 0)), one)])
        result = nakayama_zero_test(mod)
        assert result.is_zero
        verify_nakayama_witness(mod, result.witness)
        assert brute_force_is_zero(mod)  # enumerate components up to degree 5+1

    def test_agrees_with_brute_force_randomized(self, rng):
        for _ in range(40):
            mod = random_module(rng, algebra(QQ, (1, 2, 3), ("x", "y", "z")))
            verdict = nakayama_zero_test(mod)
            assert bool(verdict) == brute_force_is_zero(mod)
            if verdict.is_zero:
                verify_nakayama_witness(mod, verdict.witness)

    def test_rejects_mixed_algebra(self):
        alg = algebra(QQ, (1, -1))
        with pytest.raises(ValueError):
            nakayama_zero_test(module(alg, (0,)))


class TestWitnessChecks:
    """Each check of `verify_nakayama_witness` rejects, on its own, a
    corrupted copy of a true witness whose matrix A is nonzero."""

    @staticmethod
    def cascade(field):
        # generators in degrees (0, 1), relations e0 = 0 and e1 = x*e0
        alg = algebra(field, (1,), ("x",))
        mod = module(alg, (0, 1), [(const(alg, 1), alg.zero()),
                                   (-var(alg, 0), const(alg, 1))])
        witness = nakayama_zero_test(mod).witness
        assert any(not entry.is_zero for row in witness.coefficient_matrix for entry in row)
        return mod, witness

    @pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
    def test_constant_term_in_a(self, field):
        mod, witness = self.cascade(field)
        a = [list(row) for row in witness.coefficient_matrix]
        a[0][0] = a[0][0] + const(mod.algebra, 1)
        corrupted = graded.NakayamaWitness(tuple(map(tuple, a)), witness.combination,
                                           witness.nilpotency_order)
        with pytest.raises(AssertionError, match="has a constant term"):
            verify_nakayama_witness(mod, corrupted)

    @pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
    def test_changed_combination_scalar(self, field):
        mod, witness = self.cascade(field)
        combination = [list(row) for row in witness.combination]
        combination[0][0] = field(combination[0][0] + 1)
        corrupted = graded.NakayamaWitness(witness.coefficient_matrix,
                                           tuple(map(tuple, combination)),
                                           witness.nilpotency_order)
        with pytest.raises(AssertionError, match="does not factor through the relations"):
            verify_nakayama_witness(mod, corrupted)

    @pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
    def test_order_zero_for_nonzero_a(self, field):
        mod, witness = self.cascade(field)
        verify_nakayama_witness(mod, witness)
        with pytest.raises(AssertionError, match="not nilpotent of the stated order"):
            verify_nakayama_witness(mod, graded.NakayamaWitness(
                witness.coefficient_matrix, witness.combination, 0))



def random_module(rng, alg):
    """Random small presentation over a connected algebra."""
    p = rng.randint(1, 4)
    gen_degrees = tuple(sorted(rng.randint(0, 3) for _ in range(p)))
    relations = []
    for _ in range(rng.randint(0, p + 1)):
        delta = rng.randint(0, 4)
        col = []
        for m in gen_degrees:
            want = delta - m
            choices = alg.monomials_of_degree(want) if want >= 0 else []
            if choices and rng.random() < 0.7:
                mono = rng.choice(choices)
                col.append(Polynomial.monomial(alg.field, alg.nvars, mono,
                                               Fraction(rng.choice([-2, -1, 1, 2]))))
            else:
                col.append(alg.zero())
        if any(not e.is_zero for e in col):
            relations.append(tuple(col))
    return module(alg, gen_degrees, relations)


class TestIsoTest:
    def test_identity(self):
        alg = algebra(QQ, (1,))
        free = module(alg, (0,))
        assert graded_iso_test([[const(alg, 1)]], free, (0,))

    def test_multiplication_by_variable(self):
        # x : B(-1) -> B(0) reduces to zero mod the irrelevant ideal.
        alg = algebra(QQ, (1,), ("x",))
        source = module(alg, (1,))
        assert not graded_iso_test([[var(alg, 0)]], source, (0,))

    def test_unimodular_change_of_basis(self, rng):
        alg = algebra(F5, (1, 2), ("x", "y"))
        for _ in range(10):
            degrees = tuple(sorted(rng.randint(0, 3) for _ in range(3)))
            mat, inv = random_homogeneous_unimodular(rng, alg, degrees)
            source = module(alg, degrees)
            assert graded_iso_test(mat, source, degrees)
            prod = matmul_poly(alg, mat, inv)
            for i in range(3):
                for j in range(3):
                    expected = const(alg, 1) if i == j else alg.zero()
                    assert prod[i][j] == expected

    def test_inhomogeneous_rejected(self):
        alg = algebra(QQ, (1,))
        source = module(alg, (0,))
        with pytest.raises(ValueError):
            graded_iso_test([[var(alg, 0)]], source, (0,))


def matmul_poly(alg, a, b):
    n = len(a)
    return [[sum((a[i][l] * b[l][j] for l in range(n)), alg.zero())
             for j in range(n)] for i in range(n)]


def random_homogeneous_unimodular(rng, alg, degrees):
    """Product of homogeneous elementary matrices on the free module; returns (U, U^-1)."""
    n = len(degrees)
    eye = [[const(alg, 1) if i == j else alg.zero() for j in range(n)] for i in range(n)]
    mat = [row[:] for row in eye]
    inv = [row[:] for row in eye]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        want = degrees[j] - degrees[i]  # entry degree for position (i, j)
        if want < 0:
            continue
        choices = alg.monomials_of_degree(want)
        if not choices:
            continue
        poly = Polynomial.monomial(alg.field, alg.nvars, rng.choice(choices),
                                   alg.field(rng.randint(1, 4)))
        elem = [row[:] for row in eye]
        elem[i][j] = poly
        elem_inv = [row[:] for row in eye]
        elem_inv[i][j] = -poly
        mat = matmul_poly(alg, mat, elem)
        inv = matmul_poly(alg, elem_inv, inv)
    return mat, inv


class TestLift:
    def test_identity_lifts_verbatim(self):
        alg = algebra(QQ, (1,))
        source = module(alg, (0,))
        lifted = lift_graded_map([[Fraction(1)]], source, (0,))
        assert lifted[0][0] == const(alg, 1)

    def test_constants_lift_verbatim(self):
        alg = algebra(QQ, (1,))
        source = module(alg, (0, 2))
        lifted = lift_graded_map(
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]], source, (0, 2))
        assert lifted[1][1] == const(alg, 2)

    def test_degree_mismatch_rejected(self):
        alg = algebra(QQ, (1,))
        source = module(alg, (0,))
        with pytest.raises(ValueError):
            lift_graded_map([[Fraction(1)]], source, (1,))

    def test_random_invertible_over_f5(self, rng):
        alg = algebra(F5, (1, 1, 2))
        degrees = (1, 1, 1)
        source = module(alg, degrees)
        for _ in range(10):
            scalars = random_invertible_scalars(rng, F5, 3)
            lifted = lift_graded_map(scalars, source, degrees)
            assert graded_iso_test(lifted, source, degrees)
            # reduction mod the irrelevant ideal reproduces the input exactly
            assert [[e.constant_term for e in row] for row in lifted] == scalars

    def test_reduce_then_lift_identity_on_classes(self):
        for n in range(1, 4):
            for degrees in itertools.combinations_with_replacement(range(-3, 4), n):
                canonical = iso_class_graded_free(degrees)
                # reduction keeps the degree multiset; lifting it back returns it
                assert iso_class_graded_free(canonical) == canonical


def random_invertible_scalars(rng, field, n):
    while True:
        rows = [[field(rng.randint(0, 4)) for _ in range(n)] for _ in range(n)]
        if matrix_rank(field, rows) == n:
            return rows


class TestMinimalPresentations:
    def test_projective_iff_no_minimal_relations(self):
        # relation entries without constant term = minimal presentation; a
        # nonzero minimal relation forces a component-dimension drop below
        # the free module with the same generators, so the module is not free
        alg = algebra(QQ, (1,), ("x",))
        free = module(alg, (0,))
        quotient = module(alg, (0,), [(var(alg, 0),)])
        assert all(e.constant_term == 0 for col in quotient.relations for e in col)
        assert quotient.component_dimension(1) < free.component_dimension(1)
        assert free.component_dimension(1) == 1
        # free modules recover their class; the quotient matches no free class
        assert iso_class_graded_free(free.generator_degrees) == (0,)
        dims_quotient = [quotient.component_dimension(d) for d in range(0, 4)]
        for degrees in [(0,), (1,), (0, 1)]:
            candidate = module(alg, degrees)
            dims_free = [candidate.component_dimension(d) for d in range(0, 4)]
            assert dims_quotient != dims_free


def algebra_component_dimension(alg, degree):
    """Reference: dim_k B_degree of a connected algebra, as the monomials of
    the degree modulo the span of the relations times monomials."""
    monomials = alg.monomials_of_degree(degree)
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for rel in alg.relations:
        d = rel.weighted_degree(alg.degrees)
        if d is None:  # the zero relation relates nothing
            continue
        for mono in alg.monomials_of_degree(degree - d):
            row = [alg.field.zero] * len(monomials)
            shift = Polynomial.monomial(alg.field, alg.nvars, mono, 1)
            for m, c in (shift * rel).terms():
                row[index[m]] = c
            rows.append(row)
    return len(monomials) - matrix_rank(alg.field, rows)


class TestComponentDimension:
    """Algebra relations enter the module count as one-entry relation columns."""

    def test_free_module_matches_algebra_components(self, rng):
        # a free module is a sum of shifted copies of B, whose components the
        # algebra counts on its own
        for field in (QQ, F5):
            for y_degree in (1, 2):
                base = algebra(field, (1, y_degree), ("x", "y"))
                x, y = var(base, 0), var(base, 1)
                for _ in range(4):
                    c = const(base, rng.randint(1, 4))
                    first = x * x * y - c * x * y * y if y_degree == 1 else x * x - c * y
                    alg = GradedAlgebra(field, base.variables, base.degrees,
                                        (first, y * y * y))
                    gens = tuple(rng.randint(-1, 2) for _ in range(rng.randint(1, 3)))
                    mod = module(alg, gens)
                    for d in range(-1, 7):
                        expected = sum(algebra_component_dimension(alg, d - m)
                                       for m in gens)
                        assert mod.component_dimension(d) == expected, (gens, d)

    def test_module_and_algebra_relations_together(self):
        # (k[x, y]/(x^2 - 2xy)) / (y) = k[x]/(x^2)
        base = algebra(F5, (1, 1), ("x", "y"))
        x, y = var(base, 0), var(base, 1)
        alg = GradedAlgebra(F5, base.variables, base.degrees,
                            (x * x - const(base, 2) * x * y,))
        mod = module(alg, (0,), [(y,)])
        assert [mod.component_dimension(d) for d in range(-1, 5)] == [0, 1, 1, 0, 0, 0]

    def test_zero_algebra_relation_relates_nothing(self):
        base = algebra(QQ, (1,), ("x",))
        alg = GradedAlgebra(QQ, base.variables, base.degrees, (base.zero(),))
        mod = module(alg, (0, 2), [(var(base, 0), const(base, 0))])
        plain = module(base, (0, 2), [(var(base, 0), const(base, 0))])
        assert [mod.component_dimension(d) for d in range(5)] == [
            plain.component_dimension(d) for d in range(5)] == [1, 0, 1, 1, 1]


def monomials_by_total_exponent(alg, degree):
    """Reference: every exponent tuple whose exponents sum to at most the
    degree, in lexicographic order, kept if its weighted degree matches."""
    out = []

    def rec(i, remaining_total, acc, value):
        if i == alg.nvars:
            if value == degree:
                out.append(tuple(acc))
            return
        for e in range(remaining_total + 1):
            acc.append(e)
            rec(i + 1, remaining_total - e, acc, value + e * alg.degrees[i])
            acc.pop()

    if degree >= 0:
        rec(0, degree, [], 0)
    return out


def ref_component_dimension(mod, degree):
    """Reference: the dense-row enumeration.  Each relation column (and each
    algebra relation on each generator) times each monomial of the
    complementary degree is expanded as a polynomial product into a dense
    row over the monomial basis, and the rows' rank comes from matrix_rank."""
    alg = mod.algebra
    if not alg.is_connected():
        raise ValueError("component enumeration requires a connected algebra")
    blocks = [monomials_by_total_exponent(alg, degree - m) for m in mod.generator_degrees]
    offsets = [0]
    for block in blocks:
        offsets.append(offsets[-1] + len(block))
    total = offsets[-1]
    if total == 0:
        return 0
    index = [{m: offsets[j] + i for i, m in enumerate(block)}
             for j, block in enumerate(blocks)]
    columns = [([(j, e) for j, e in enumerate(col) if not e.is_zero], delta)
               for col, delta in zip(mod.relations, mod.column_degrees)]
    for rel in alg.relations:
        d = rel.weighted_degree(alg.degrees)
        if d is not None:
            columns += [([(j, rel)], d + m) for j, m in enumerate(mod.generator_degrees)]
    rows = []
    for entries, delta in columns:
        if delta is None:
            continue
        for mono in monomials_by_total_exponent(alg, degree - delta):
            shift = Polynomial.monomial(alg.field, alg.nvars, mono, alg.field.one)
            row = [alg.field.zero] * total
            for j, entry in entries:
                for m, c in (shift * entry).terms():
                    row[index[j][m]] = c
            if any(row):
                rows.append(row)
    if not rows:
        return total
    return total - matrix_rank(alg.field, rows)


def random_homogeneous(rng, alg, degree):
    """A random homogeneous polynomial of the degree with up to three terms
    (zero when the degree has no monomials)."""
    monomials = alg.monomials_of_degree(degree)
    picked = rng.sample(monomials, min(len(monomials), rng.randint(1, 3)))
    terms = {}
    for mono in picked:
        if alg.field.p:
            terms[mono] = rng.randrange(1, alg.field.p)
        else:
            terms[mono] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return Polynomial(alg.field, alg.nvars, terms)


def random_presentation(rng, field):
    """A random presentation with multi-term entries over a connected
    algebra; some carry algebra relations, a zero algebra relation or an
    all-zero relation column."""
    degrees = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    base = algebra(field, degrees)
    relations = [random_homogeneous(rng, base, rng.randint(2, 4))
                 for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        relations.append(base.zero())
    alg = GradedAlgebra(field, base.variables, degrees, tuple(relations))
    gens = tuple(sorted(rng.randint(-1, 3) for _ in range(rng.randint(1, 4))))
    columns = []
    for _ in range(rng.randint(0, len(gens) + 1)):
        delta = rng.randint(min(gens), max(gens) + 3)
        col = tuple(random_homogeneous(rng, alg, delta - m) if rng.random() < 0.7
                    else alg.zero() for m in gens)
        columns.append(col)
    if rng.random() < 0.3:
        columns.append(tuple(alg.zero() for _ in gens))
    return module(alg, gens, columns)


class TestComponentDimensionAgainstReference:
    @pytest.mark.parametrize("field", [QQ, F5, GF(2**31 - 1)], ids=["Q", "F5", "F2^31-1"])
    def test_random_presentations(self, rng, field):
        seen = {"algebra relation": 0, "zero algebra relation": 0, "all-zero column": 0}
        for _ in range(30):
            mod = random_presentation(rng, field)
            alg_relations = mod.algebra.relations
            seen["algebra relation"] += any(not r.is_zero for r in alg_relations)
            seen["zero algebra relation"] += any(r.is_zero for r in alg_relations)
            seen["all-zero column"] += None in mod.column_degrees
            gens = mod.generator_degrees
            for d in range(min(gens) - 2, max(gens) + 7):
                assert mod.component_dimension(d) == ref_component_dimension(mod, d), (
                    mod, d)
        assert all(seen.values()), seen

    def test_non_connected_rejected(self):
        alg = algebra(QQ, (1, -1))
        mod = module(alg, (0,), [(var(alg, 0),)])
        for enumerate_component in (mod.component_dimension,
                                    lambda d: ref_component_dimension(mod, d)):
            with pytest.raises(ValueError):
                enumerate_component(0)


class TestColumnsReadOnce:
    """A module scales each relation column once, however many degrees it
    counts: `_primitive` runs once per column, not once per column and
    degree."""

    @pytest.mark.parametrize("window", [6, 11])
    @pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
    def test_one_scaling_per_column(self, monkeypatch, field, window):
        scaled = []
        primitive = graded._primitive
        monkeypatch.setattr(graded, "_primitive",
                            lambda row, p: scaled.append(row) or primitive(row, p))
        base = algebra(field, (1, 2), ("x", "y"))
        x, y = var(base, 0), var(base, 1)
        half, three = const(base, field(Fraction(1, 2))), const(base, 3)
        alg = GradedAlgebra(field, base.variables, base.degrees,
                            (x * x * y - half * y * y, base.zero()))
        zero = alg.zero()
        # two module columns and an all-zero one, and one nonzero algebra
        # relation on each of the three generators: five relation columns
        mod = module(alg, (0, 1, 1), [(x, three, zero), (zero, zero, zero),
                                      (half * y, x, three * x)])
        dims = [mod.component_dimension(d) for d in range(-1, window - 1)]
        assert len(scaled) == 5
        assert dims == [ref_component_dimension(mod, d) for d in range(-1, window - 1)]
        assert any(dims)


class TestMonomialsOfDegree:
    def test_matches_total_exponent_enumeration(self, rng):
        weights = [(1,), (1, 2), (2, 1, 3), (1, 1, 1), (3, 2, 2, 1), (2, 5)]
        weights += [tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
                    for _ in range(6)]
        for degrees in weights:
            alg = algebra(QQ, degrees)
            for degree in range(-2, 15):
                assert alg.monomials_of_degree(degree) == \
                    monomials_by_total_exponent(alg, degree), (degrees, degree)

    def test_no_variables(self):
        alg = algebra(QQ, ())
        assert [alg.monomials_of_degree(d) for d in (-1, 0, 1)] == [[], [()], []]


class TestIsoClass:
    def test_sorting(self):
        assert iso_class_graded_free((1, 0, 1)) == (0, 1, 1)

    def test_empty(self):
        assert iso_class_graded_free(()) == ()

    def test_bijection_small(self):
        seen = {}
        for n in range(0, 5):
            for degrees in itertools.product(range(-3, 4), repeat=n):
                seen.setdefault(iso_class_graded_free(degrees), set()).add(
                    tuple(sorted(degrees)))
        # each class comes from exactly one sorted multiset
        assert all(len(sources) == 1 for sources in seen.values())
