from collections import Counter
from fractions import Fraction

import pytest

from equibundle import projline
from equibundle.exact_core import (
    GF, QQ, LaurentMatrix, LaurentPoly, _eliminate, _normalized, _primitive,
)
from equibundle.projline import (
    SplittingType,
    _bound,
    _coefficient_rows,
    _column_reduce,
    birkhoff_factorize,
    cocharacter_to_bundle,
    h0_dimension,
    splitting_type,
)
from fraction_kernel import nullspace


def lp(field, *terms):
    out = LaurentPoly.zero(field)
    for coeff, exp in terms:
        out = out + LaurentPoly.monomial(field, coeff, exp)
    return out


def bundle(field, grid):
    rows = [[lp(field, *entry) if entry else LaurentPoly.zero(field) for entry in row]
            for row in grid]
    return LaurentMatrix(field, rows)


def exponent_range(g):
    """Smallest and largest exponent over all nonzero entries of g."""
    exps = [e for row in g.rows for entry in row for e in entry.support]
    return min(exps), max(exps)


def h0_formula(degrees, twist):
    return sum(max(0, d + twist + 1) for d in degrees)


NILPOTENT_UPPER = [[((1, 1),), ((1, 0),)], [(), ((1, -1),)]]  # [[t, 1], [0, 1/t]]


class TestBirkhoff:
    def test_identity_already_factored(self):
        b = LaurentMatrix.monomial_diagonal(QQ, [0] * 2)
        f = birkhoff_factorize(b)
        eye = LaurentMatrix.monomial_diagonal(QQ, [0] * 2)
        assert (f.A, f.D, f.B) == (eye, eye, eye)

    def test_monomial_diagonal_already_factored(self):
        g = LaurentMatrix.monomial_diagonal(QQ, [2, -1])
        f = birkhoff_factorize(g)
        eye = LaurentMatrix.monomial_diagonal(QQ, [0] * 2)
        assert (f.A, f.D, f.B) == (eye, g, eye)

    def test_unipotent_mixing_is_trivial(self):
        # h0 oracle over twists -3..3 agrees with sum(max(0, d+m+1)) at d = (0, 0):
        # frozen values (0, 0, 0, 2, 4, 6, 8).
        b = bundle(QQ, NILPOTENT_UPPER)
        f = birkhoff_factorize(b)
        assert f.D == LaurentMatrix.monomial_diagonal(QQ, [0] * 2)
        assert [h0_dimension(b, m) for m in range(-3, 4)] == [0, 0, 0, 2, 4, 6, 8]

    def test_factorization_is_exact_and_in_subrings(self, rng):
        for _ in range(20):
            b = random_bundle(rng, QQ, rng.randint(1, 3))
            f = birkhoff_factorize(b)
            assert (f.A @ f.D) @ f.B == b
            assert f.A.entries_in_inverse_poly_ring()
            assert f.B.entries_in_poly_ring()
            assert f.A.det_unit_exponent()[0] == 0
            assert f.B.det_unit_exponent()[0] == 0

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2**31 - 1)], ids=["Q", "F5", "F2^31-1"])
    def test_dense_planted_splitting_type(self, rng, field):
        # 2n elementary factors per side; the product is rebuilt through the
        # public constructor, so its determinant is recomputed from scratch
        for n in range(6, 13):
            degrees = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
            g = planted_bundle(rng, field, degrees)
            f = birkhoff_factorize(LaurentMatrix(field, g.rows))
            assert f.splitting_type.degrees == tuple(degrees), (field, n)
            assert (f.A @ f.D) @ f.B == g

    def test_dense_rank16_cli(self, rng, tmp_path, capsys):
        from equibundle.cli import main
        from equibundle.io import LaurentMatrixDoc

        degrees = sorted((rng.randint(-2, 2) for _ in range(16)), reverse=True)
        bundle16 = planted_bundle(rng, QQ, degrees)
        path = tmp_path / "dense16.txt"
        path.write_text(LaurentMatrixDoc(field=QQ, matrix=bundle16).render())
        assert main(["birkhoff", str(path)]) == 0
        out = capsys.readouterr().out
        exponents = out.split("exponents = ")[1].splitlines()[0]
        assert sorted((-int(k) for k in exponents.split(", ")), reverse=True) == degrees


class TestBirkhoffChecks:
    """Each check of `birkhoff_factorize` rejects, on its own, a column
    reduction that lies about its tops or its W; the true one passes."""

    @pytest.mark.parametrize("lie, message", [
        ("top lowered", r"left factor escaped k\[1/t\]"),
        ("t^-1 in W", r"right factor escaped k\[t\]"),
        ("top raised", "outer factor determinant is not constant"),
        ("W off by one", "factorization residual is nonzero"),
    ], ids=["top lowered", "t^-1 in W", "top raised", "W off by one"])
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_rejects_a_lying_reduction(self, rng, monkeypatch, field, lie, message):
        g = planted_bundle(rng, field, [2, 0, -1])
        cols, tops, w, w_det = _column_reduce(g)
        if lie == "top lowered":  # column 0 of A = C * D^-1 then holds t^1
            tops[0] -= 1
        elif lie == "top raised":  # A stays in k[1/t], but det A = t^-1
            tops[0] += 1
        elif lie == "t^-1 in W":
            w[0][0] = w[0][0] + lp(field, (1, -1))
        else:
            w[0][1] = w[0][1] + LaurentPoly.one(field)
        monkeypatch.setattr(projline, "_column_reduce", lambda _: (cols, tops, w, w_det))
        with pytest.raises(AssertionError, match=message):
            birkhoff_factorize(g)
        monkeypatch.undo()
        assert birkhoff_factorize(g).splitting_type.degrees == (2, 0, -1)

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_rejects_a_step_that_keeps_the_top(self, monkeypatch, field):
        # [[1, t], [0, 1]]: both columns have the top vector (1, 0), so the
        # reduction takes one step; a first dependency that names column 1
        # alone leaves that column, and its top, as they are
        g = bundle(field, [[((1, 0),), ((1, 1),)], [None, ((1, 0),)]])
        true, lies = projline._normalized, [lambda vec, col, p: {col: 1}]
        monkeypatch.setattr(projline, "_normalized",
                            lambda *args: (lies.pop() if lies else true)(*args))
        with pytest.raises(AssertionError, match="column step did not lower the top degree"):
            birkhoff_factorize(g)
        assert not lies
        assert birkhoff_factorize(g).splitting_type.degrees == (0, 0)


class TestSplittingType:
    def test_identity_rank3(self):
        b = LaurentMatrix.monomial_diagonal(QQ, [0] * 3)
        assert splitting_type(b).degrees == (0, 0, 0)

    def test_twist_convention(self):
        assert splitting_type(bundle(QQ, [[((1, -1),)]])).degrees == (1,)

    def test_unipotent_mixing(self):
        assert splitting_type(bundle(QQ, NILPOTENT_UPPER)).degrees == (0, 0)

    def test_sorted_output(self):
        g = LaurentMatrix.monomial_diagonal(QQ, [2, -1, 0])
        assert splitting_type(g).degrees == (1, 0, -2)

    def test_round_trip_sampled(self, rng):
        for _ in range(40):
            n = rng.randint(1, 4)
            degrees = tuple(sorted((rng.randint(-5, 5) for _ in range(n)), reverse=True))
            d = SplittingType(degrees)
            assert splitting_type(cocharacter_to_bundle(d)) == d

    def test_degree_identity(self, rng):
        for _ in range(15):
            b = random_bundle(rng, QQ, rng.randint(1, 3))
            w, _ = b.det_unit_exponent()
            assert splitting_type(b).degree == -w

    def test_equivalence_invariance(self, rng):
        for _ in range(10):
            b = random_bundle(rng, QQ, 2)
            t = splitting_type(b)
            a = random_unimodular(rng, QQ, 2, negative=True)
            c = random_unimodular(rng, QQ, 2, negative=False)
            twisted = (a @ b) @ c
            assert splitting_type(twisted) == t

    def test_prime_field(self, rng):
        for _ in range(10):
            b = random_bundle(rng, GF(5), rng.randint(1, 3))
            w, _ = b.det_unit_exponent()
            assert splitting_type(b).degree == -w


class TestCocharacterToBundle:
    def test_trivial(self):
        assert cocharacter_to_bundle(SplittingType((0, 0))) == \
            LaurentMatrix.monomial_diagonal(QQ, [0] * 2)

    def test_convention_forced(self):
        b = cocharacter_to_bundle(SplittingType((1, -1)))
        assert b == LaurentMatrix.monomial_diagonal(QQ, [-1, 1])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SplittingType((0, 1))


class TestH0:
    def test_trivial_rank2(self):
        assert h0_dimension(LaurentMatrix.monomial_diagonal(QQ, [0] * 2)) == 2

    def test_o1_has_two_sections(self):
        assert h0_dimension(bundle(QQ, [[((1, -1),)]])) == 2

    def test_o_minus1_has_none(self):
        assert h0_dimension(bundle(QQ, [[((1, 1),)]])) == 0

    def test_matches_formula_on_random_bundles(self, rng):
        for _ in range(6):
            b = random_bundle(rng, QQ, rng.randint(1, 2))
            d = splitting_type(b).degrees
            for m in range(-3, 4):
                assert h0_dimension(b, m) == h0_formula(d, m)

    def test_matches_formula_on_dense_bundles(self, rng):
        # planted splitting type, mixed by 2n elementary factors per side
        for field in (QQ, GF(5), GF(2**31 - 1)):
            for n in range(3, 7):
                degrees = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
                b = planted_bundle(rng, field, degrees)
                for m in range(-3, 4):
                    assert h0_dimension(b, m) == h0_formula(degrees, m), (field, n, m)


class TestColumnReduce:
    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2**31 - 1)], ids=["Q", "F5", "F2^31-1"])
    def test_matches_reference_on_dense_bundles(self, rng, field):
        # the echelon carried between steps finds the dependency the fresh
        # nullspace found, so every column, top, row of W and det W agree
        for n in range(1, 13):
            degrees = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
            g = planted_bundle(rng, field, degrees)
            got, want = _column_reduce(g), _column_reduce_reference(g)
            assert got == want and type(got[3]) is type(want[3]), (field, n)

    def test_matches_reference_on_monomial_diagonals(self, rng):
        for field in (QQ, GF(5), GF(2**31 - 1)):
            for n in range(1, 7):
                g = LaurentMatrix.monomial_diagonal(field, [rng.randint(-4, 4) for _ in range(n)])
                assert _column_reduce(g) == _column_reduce_reference(g), (field, n)


class TestCoefficientRows:
    def test_matches_reference_rows(self, rng):
        # the rows of all e > twist are those of the one-twist builder, and
        # the rows of one e are those it adds going from twist e to e - 1;
        # over Q the builder scales each row of g by its _primitive factor,
        # so the reference is built from g with its rows scaled the same way
        def rows_of(block):
            return Counter(tuple(sorted(row.items())) for row in block if row)

        def primitive_matrix(g):
            rows = []
            for row in g.rows:
                terms = dict(enumerate(c for entry in row for _, c in entry.terms()))
                scale = Fraction(_primitive(dict(terms), None)[0]) / terms[0]
                rows.append([entry.scaled(scale) for entry in row])
            return LaurentMatrix(g.field, rows)

        for k in range(60):
            field = (QQ, GF(5), GF(2**31 - 1))[k % 3]
            g = random_bundle(rng, field, rng.randint(1, 4))
            if field.p is None:
                # rational rows with content, so that the scaling shows
                scales = [Fraction(rng.choice([1, -2, 6]), rng.randint(1, 4)) for _ in g.rows]
                g = LaurentMatrix(field, [[entry.scaled(s) for entry in row]
                                          for row, s in zip(g.rows, scales)])
            twist = rng.randint(-3, 3)
            bound = rng.randint(0, 6)
            rows = _coefficient_rows(g, twist, bound)
            assert all(type(c) is int for block in rows.values() for row in block
                       for c in row.values()), k
            ref = primitive_matrix(g) if field.p is None else g
            assert rows_of(row for block in rows.values() for row in block) == \
                rows_of(_constraint_rows(ref, twist, bound)), k
            for e in range(twist + 1, max(rows, default=twist) + 2):
                added = (rows_of(_constraint_rows(ref, e - 1, bound))
                         - rows_of(_constraint_rows(ref, e, bound)))
                assert rows_of(rows.get(e, ())) == added, (k, e)


class TestSparseElimination:
    def test_matches_dense_rank_on_random_systems(self, rng):
        # same constraint systems pushed through the dense reducer
        from equibundle.exact_core import matrix_rank

        for k in range(75):
            field = (QQ, GF(5), GF(2**31 - 1))[k % 3]
            n = rng.randint(1, 3)
            g = random_bundle(rng, field, n)
            twist = rng.randint(-2, 2)
            bound = rng.randint(1, 5)
            nvars = n * (bound + 1)
            dense = []
            for i in range(n):
                entries = [g.rows[i][j] for j in range(n)]
                max_e = max((e.max_exp() - twist + bound
                             for e in entries if not e.is_zero), default=0)
                for e in range(1, max_e + 1):
                    row = [field.zero] * nvars
                    for j, entry in enumerate(entries):
                        for exp, coeff in entry.terms():
                            d = e - (exp - twist)
                            if 0 <= d <= bound:
                                row[j * (bound + 1) + d] = row[j * (bound + 1) + d] + coeff
                    if any(row):
                        dense.append(row)
            expected = nvars - matrix_rank(field, dense)
            assert _sections_dimension(g, twist, bound) == expected


class TestPivotOrder:
    def test_heap_matches_linear_scan(self, rng):
        # phase 2 picks rows from a lazy heap; the pivots, in order and row
        # for row, must be those of the linear min scan it replaced

        for k in range(75):
            field = (QQ, GF(5), GF(2**31 - 1))[k % 3]
            p = field.p
            if k % 2:
                g = random_bundle(rng, field, rng.randint(1, 4))
                rows = _constraint_rows(g, rng.randint(-2, 2), rng.randint(1, 6))
            else:
                nvars = rng.randint(2, 30)
                rows = [random_sparse_row(rng, p, nvars) for _ in range(rng.randint(1, 40))]
            # the kernel takes Q rows as primitive integers; each pivot it
            # finds, normalized at its column, is the reference's pivot
            expected = _eliminate_linear_scan([dict(row) for row in rows], p)
            got = _eliminate([_primitive(dict(row), p) for row in rows], p)
            assert [(col, _normalized(row, col, p)) for col, row in got] == expected, k


class TestH0Table:
    def test_matches_from_scratch_at_each_own_bound(self, rng):
        # every twist of the table against a fresh elimination of that
        # twist's own system at the old bound n*span + |m| + 1, which is
        # independent of the cofactor bound the table is computed at
        from equibundle.projline import h0_table

        for field in (QQ, GF(5), GF(2**31 - 1)):
            for n in range(1, 9):
                window = (n + 3 * (field is QQ)) % 7
                degrees = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
                b = planted_bundle(rng, field, degrees)
                e_min, e_max = exponent_range(b)
                span = max(e_max, 0) - min(e_min, 0)
                table = h0_table(b, window)
                assert list(table) == list(range(-window, window + 1))
                for m, dim in table.items():
                    own = _sections_dimension(b, m, n * span + abs(m) + 1)
                    assert dim == own == h0_formula(degrees, m), (field, n, window, m)

    def test_negative_window_is_empty(self):
        from equibundle.projline import h0_table

        assert h0_table(bundle(QQ, NILPOTENT_UPPER), -1) == {}

    def test_fixed_bound_matches_from_scratch(self, rng):
        # at a fixed, possibly too small bound the walk gives each twist's
        # from-scratch dimension, or raises with the dimensions at bound and
        # bound + 1 of the top twist.  Sections at twist m - 1 are sections
        # at twist m, so a twist that is stable makes every lower one
        # stable: only the top twist can fail the check on exact arithmetic.
        from equibundle.projline import _stable_sections_table

        raised = 0
        for _ in range(30):
            for field in (QQ, GF(5)):
                g = random_bundle(rng, field, rng.randint(1, 3))
                high = rng.randint(-2, 3)
                low = high - rng.randint(0, 4)
                bound = rng.randint(0, 6)
                dims = {m: (_sections_dimension(g, m, bound), _sections_dimension(g, m, bound + 1))
                        for m in range(high, low - 1, -1)}
                unstable = [m for m, (dim, recheck) in dims.items() if dim != recheck]
                assert unstable == list(range(high, high - len(unstable), -1))
                if unstable:
                    dim, recheck = dims[high]
                    with pytest.raises(ArithmeticError, match=rf"\({dim} vs {recheck}\)"):
                        _stable_sections_table(g, high, low, bound)
                    raised += 1
                else:
                    expected = {m: dim for m, (dim, _) in dims.items()}
                    assert _stable_sections_table(g, high, low, bound) == expected
        assert raised > 0


class TestSerreDuality:
    """A law of the h0 oracle that needs no planted type and no Birkhoff
    reduction.  Let det g = c*t^w, so deg E = -w, and let the dual E^v have
    the transition matrix (g^T)^-1.  Riemann-Roch and Serre duality on P^1
    give h0(E(m)) - h0(E^v(-m-2)) = -w + n(m + 1), and E^v has the negated
    splitting type of E."""

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2**31 - 1)],
                             ids=["Q", "F5", "F2^31-1"])
    def test_duality_law(self, rng, field):
        from equibundle.projline import h0_table

        bounds_differ = one_side_vanishes = 0
        for n in (1, 1, 2, 2, 3, 3, 4, 4, 6, 8):
            degrees = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
            g, dual = planted_with_dual(rng, field, degrees)
            eye = LaurentMatrix.monomial_diagonal(field, [0] * n)
            assert g @ LaurentMatrix(field, [list(col) for col in zip(*dual.rows)]) == eye
            w = g.det_unit_exponent()[0]
            ours, theirs = h0_table(g, 5), h0_table(dual, 5)
            for m in range(-3, 4):
                assert ours[m] - theirs[-m - 2] == -w + n * (m + 1), (field, degrees, m)
                one_side_vanishes += (ours[m] == 0) != (theirs[-m - 2] == 0)
            assert splitting_type(dual).degrees == tuple(
                -d for d in reversed(splitting_type(g).degrees))
            bounds_differ += _bound(g, 5) != _bound(dual, 5)
        assert bounds_differ and one_side_vanishes


class TestDegreeBound:
    def test_exact_on_line_bundles(self):
        # O(d) is t^(-d): its sections at twist m have degree <= d + m
        for field in (QQ, GF(5)):
            for d in range(-6, 7):
                g = cocharacter_to_bundle(SplittingType((d,)), field)
                for m in range(-6, 7):
                    assert _bound(g, m) == max(d + m, 0), (field, d, m)

    def test_one_entry_t_to_the_n(self):
        # g = [[1, t^n], [0, 1]]: g^-1 = [[1, -t^n], [0, 1]] has top exponent n
        for n in range(0, 7):
            g = bundle(QQ, [[((1, 0),), ((1, n),)], [(), ((1, 0),)]])
            for m in range(-n, 7):
                assert _bound(g, m) == m + n, (n, m)

    def test_min_of_row_and_column_sums(self):
        # diag(t^3, 1, 1) * [[1, 1, 1], [0, 1, 0], [0, 0, 1]] is O(-3)+O+O, so
        # sections at twist m have degree <= m.  Its row tops (3, 0, 0) give
        # that; its column tops (3, 3, 3) give m + 3.  The transpose swaps them.
        t3 = ((1, 3),)
        grid = [[t3, t3, t3], [(), ((1, 0),), ()], [(), (), ((1, 0),)]]
        for rows in (grid, [list(col) for col in zip(*grid)]):
            g = bundle(QQ, rows)
            assert g.det_unit_exponent()[0] == 3
            for m in range(0, 5):
                assert _bound(g, m) == m
                assert _sections_dimension(g, m, m) == h0_formula((0, 0, -3), m)

    def test_below_old_bound_and_same_sections(self, rng):
        # on diagonal and dense planted bundles the cofactor bound is below
        # the old bound n*span + |m| + 1, and counts the same sections
        for field in (QQ, GF(5), GF(2**31 - 1)):
            for n in range(1, 11):
                degrees = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
                diagonal = cocharacter_to_bundle(SplittingType(tuple(degrees)), field)
                for g in (diagonal, planted_bundle(rng, field, degrees)):
                    e_min, e_max = exponent_range(g)
                    span = max(e_max, 0) - min(e_min, 0)
                    m = rng.randint(-3, 3)
                    old = n * span + abs(m) + 1
                    new = _bound(g, m)
                    assert new < old, (field, n, m)
                    dim = _sections_dimension(g, m, new)
                    assert dim == _sections_dimension(g, m, old) == h0_formula(degrees, m), \
                        (field, n, m)


class TestStabilityCheck:
    def test_compares_dimensions_at_bound_and_next(self, rng):
        # the one-elimination check must compare exactly the from-scratch
        # dimensions at bound and bound + 1, and raise iff they differ
        from equibundle.projline import _stable_sections_table

        for _ in range(20):
            for field in (QQ, GF(5)):
                g = random_bundle(rng, field, rng.randint(1, 3))
                twist = rng.randint(-2, 2)
                bound = rng.randint(0, 6)
                dim = _sections_dimension(g, twist, bound)
                recheck = _sections_dimension(g, twist, bound + 1)
                if dim == recheck:
                    assert _stable_sections_table(g, twist, twist, bound)[twist] == dim
                else:
                    with pytest.raises(ArithmeticError, match=rf"\({dim} vs {recheck}\)"):
                        _stable_sections_table(g, twist, twist, bound)[twist]

    def test_too_small_bound_raises(self):
        from equibundle.projline import _stable_sections_table

        g = bundle(QQ, [[((1, -5),)]])  # O(5): six sections, degrees 0..5
        with pytest.raises(ArithmeticError, match="degree bound 1 "):
            _stable_sections_table(g, 0, 0, 1)[0]
        assert _stable_sections_table(g, 0, 0, 5)[0] == 6


def random_unimodular(rng, field, n, negative, factors=None):
    """Product of elementary matrices over k[t] (or k[1/t]), constant det.

    With factors given, that many elementary factors whose exponents
    alternate between 0 and 1; otherwise 1-3 factors with exponents 0-3.
    """
    out = LaurentMatrix.monomial_diagonal(field, [0] * n)
    sign = -1 if negative else 1
    count = rng.randint(1, 3) if factors is None else factors
    for k in range(count):
        if n == 1:
            break
        i, j = rng.sample(range(n), 2)
        rows = [[LaurentPoly.one(field) if a == b else LaurentPoly.zero(field)
                 for b in range(n)] for a in range(n)]
        coeff = rng.choice([1, -1, 2])
        exp = rng.randint(0, 3) if factors is None else k % 2
        rows[i][j] = lp(field, (coeff, sign * exp))
        out = out @ LaurentMatrix(field, rows)
    return out


def planted_bundle(rng, field, degrees):
    """A * D * B with D = diag(t^-d) and 2n elementary factors in A and in B."""
    n = len(degrees)
    d = LaurentMatrix.monomial_diagonal(field, [-x for x in degrees])
    a = random_unimodular(rng, field, n, negative=True, factors=2 * n)
    c = random_unimodular(rng, field, n, negative=False, factors=2 * n)
    return (a @ d) @ c


def planted_with_dual(rng, field, degrees):
    """A bundle g = A * D * C planted as `planted_bundle` plants one, and its
    dual (g^T)^-1 = A' * D^-1 * C': each elementary factor I + c*t^e*e_ij of
    A and C is (I - c*t^e*e_ji) in A' and C', in the same order."""
    n = len(degrees)

    def elementary(i, j, c, e):
        rows = [[LaurentPoly.one(field) if a == b else LaurentPoly.zero(field)
                 for b in range(n)] for a in range(n)]
        rows[i][j] = lp(field, (c, e))
        return LaurentMatrix(field, rows)

    g = LaurentMatrix.monomial_diagonal(field, [-x for x in degrees])
    dual = LaurentMatrix.monomial_diagonal(field, list(degrees))
    for sign in (-1, 1):
        side = dual_side = LaurentMatrix.monomial_diagonal(field, [0] * n)
        for k in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c, e = rng.choice([1, -1, 2]), sign * (k % 2)
            side, dual_side = side @ elementary(i, j, c, e), dual_side @ elementary(j, i, -c, e)
        if sign < 0:
            g, dual = side @ g, dual_side @ dual
        else:
            g, dual = g @ side, dual @ dual_side
    return g, dual


def random_bundle(rng, field, n):
    d = LaurentMatrix.monomial_diagonal(field, [rng.randint(-2, 2) for _ in range(n)])
    a = random_unimodular(rng, field, n, negative=True)
    b = random_unimodular(rng, field, n, negative=False)
    return (a @ d) @ b


def random_sparse_row(rng, p, nvars):
    """A sparse row of native scalars: int residues mod p, or Fractions."""
    row = {}
    for var in rng.sample(range(nvars), rng.randint(0, min(nvars, 6))):
        c = rng.randint(1, p - 1) if p else Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                                    rng.randint(1, 3))
        row[var] = c
    return row


def _top_data(column):
    """Reference: top degree of a nonzero column and its t^top coefficients."""
    top = max(entry.max_exp() for entry in column if not entry.is_zero)
    return top, [entry.coeff(top) for entry in column]


def _column_reduce_reference(g):
    """Reference: the column reduction that re-derives the top data of every
    column and runs a fresh nullspace at each step."""
    field = g.field
    n = g.n
    cols = [[g.rows[i][j] for i in range(n)] for j in range(n)]
    one = LaurentPoly.one(field)
    zero = LaurentPoly.zero(field)
    w = [[one if i == j else zero for j in range(n)] for i in range(n)]
    w_det = field.one
    while True:
        tops = []
        tcs = []
        for col in cols:
            top, tc = _top_data(col)
            tops.append(top)
            tcs.append(tc)
        kernel = nullspace(field, [[tcs[j][i] for j in range(n)] for i in range(n)], n)
        if not kernel:
            return cols, tops, w, w_det
        lam = kernel[0]
        support = [j for j in range(n) if lam[j]]
        pivot = max(support, key=lambda j: (tops[j], j))
        new_col = [zero] * n
        shifts = {}
        for j in support:
            shift = tops[pivot] - tops[j]
            shifts[j] = shift
            for i in range(n):
                if not cols[j][i].is_zero:
                    new_col[i] = new_col[i] + cols[j][i].scaled(lam[j]).shifted(shift)
        cols[pivot] = new_col
        inv_pivot = field.inv(lam[pivot])
        w[pivot] = [entry.scaled(inv_pivot) for entry in w[pivot]]
        w_det = field(w_det * inv_pivot)
        for j in support:
            if j == pivot:
                continue
            factor = lam[j]
            shift = shifts[j]
            w[j] = [
                wj - wp.scaled(factor).shifted(shift)
                for wj, wp in zip(w[j], w[pivot])
            ]


def _constraint_rows(g, twist, bound):
    """Reference: the sections' rows at one twist and bound, one row per
    output coordinate i and exponent e >= 1 of t^(-twist) * g * f."""
    rows = []
    for row in g.rows:
        max_e = max((entry.max_exp() - twist + bound for entry in row if not entry.is_zero),
                    default=0)
        block = [{} for _ in range(max_e)]
        for j, entry in enumerate(row):
            for exp, coeff in entry.terms():
                shift = exp - twist
                for d in range(max(0, 1 - shift), bound + 1):
                    block[d + shift - 1][j * (bound + 1) + d] = coeff
        rows += [row for row in block if row]
    return rows


def _sections_dimension(g, twist, bound):
    """Reference: the section space at one twist and bound, eliminated afresh."""
    p = g.field.p
    rows = [_primitive(row, p) for row in _constraint_rows(g, twist, bound)]
    return g.n * (bound + 1) - len(_eliminate(rows, p))


def _eliminate_linear_scan(rows, p):
    """Reference: the sparse elimination with a linear min scan in phase 2."""
    var_rows = {}
    for idx, row in enumerate(rows):
        for var in row:
            var_rows.setdefault(var, set()).add(idx)
    active = set(range(len(rows)))
    pivots = []
    queue = [idx for idx in active if len(rows[idx]) == 1]
    while queue:
        idx = queue.pop()
        if idx not in active:
            continue
        active.discard(idx)
        var = next(iter(rows[idx]))
        pivots.append((var, {var: 1}))
        for other_idx in var_rows.pop(var, ()):
            if other_idx not in active:
                continue
            other = rows[other_idx]
            other.pop(var, None)
            if len(other) == 1:
                queue.append(other_idx)
            elif not other:
                active.discard(other_idx)
    while active:
        idx = min(active, key=lambda i: (len(rows[i]), i))
        active.discard(idx)
        row = rows[idx]
        if not row:
            continue
        pivot = min(row, key=lambda v: (len(var_rows.get(v, ())), v))
        if p:
            inv = pow(row[pivot], -1, p)
            row = {v: inv * c % p for v, c in row.items()}
        else:
            inv = 1 / row[pivot]
            row = {v: inv * c for v, c in row.items()}
        pivots.append((pivot, row))
        for other_idx in var_rows.pop(pivot, ()):
            if other_idx not in active:
                continue
            other = rows[other_idx]
            factor = other.get(pivot)
            if factor is None:
                continue
            for v, c in row.items():
                acc = other.get(v, 0) - factor * c
                if p:
                    acc %= p
                if acc:
                    if v not in other:
                        var_rows.setdefault(v, set()).add(other_idx)
                    other[v] = acc
                else:
                    del other[v]
                    if v != pivot:
                        var_rows[v].discard(other_idx)
    return pivots
