from fractions import Fraction

import pytest

from equibundle import filtered
from equibundle.exact_core import GF, QQ
from equibundle.filtered import (
    EpsRing,
    FilteredModule,
    FiltrationSplitting,
    associated_graded,
    colimit_module,
    iso_class_filtered,
    mat_identity,
    mat_mul,
    split_filtration,
    validate_filtered,
    verify_splitting,
)
from equibundle.projline import SplittingType

RQ = EpsRing(QQ)          # the rational field itself
RD = EpsRing(QQ, 2)       # dual numbers Q[eps]/(eps^2)
FIELDS = [QQ, GF(5), GF(2**31 - 1)]


def eps(ring):
    """The element eps of k[eps]/(eps^order), order >= 2."""
    return ring((0, 1) + (0,) * (ring.order - 2))


def fm(ring, lo, ranks, maps):
    return FilteredModule(ring=ring, lo=lo, hi=lo + len(ranks) - 1,
                          ranks=tuple(ranks), maps=tuple(maps))


NOT_SPLIT_0 = "invalid filtered module: transition at index 0 is not a split injection"


def rejection(f):
    """The message validate_filtered raises on f, or None if it accepts f."""
    try:
        validate_filtered(f)
    except ValueError as exc:
        return str(exc)
    return None


class TestEpsRing:
    # eps_inv serves the unit-pivot reference below; these tests check it
    def test_inverse(self):
        a = RD((Fraction(2), Fraction(3)))
        inv = eps_inv(RD, a)
        assert RD.mul(a, inv) == RD.one

    def test_nilpotent_not_unit(self):
        with pytest.raises(ZeroDivisionError):
            eps_inv(RD, eps(RD))

    def test_higher_order_inverse(self):
        ring = EpsRing(GF(5), 4)
        a = ring((1, 2, 0, 4))
        assert ring.mul(a, eps_inv(ring, a)) == ring.one


class TestInputChecks:
    def test_eps_element_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^expected 2 coefficients, got 3$"):
            RD((1, 2, 3))

    def test_mat_mul_of_mismatched_shapes(self):
        row = [RQ.one, RQ.one]
        with pytest.raises(ValueError, match="^matrix dimensions do not match$"):
            mat_mul(RQ, [row], [row])

    def test_one_map_per_step(self):
        with pytest.raises(ValueError, match="^one transition map per window step required$"):
            FilteredModule(RQ, 0, 1, (1, 1), ())

    def test_rank_outside_the_window(self):
        # zero below the window, the top rank above it
        f = fm(RQ, 2, [1, 2], [[[RQ.one], [RQ.zero]]])
        assert [f.rank(i) for i in range(6)] == [0, 0, 1, 2, 2, 2]


class TestValidate:
    def test_zero_bundle(self):
        assert rejection(fm(RQ, 0, [0, 0], [[]])) is None

    def test_constant_rank_identity(self):
        assert rejection(fm(RQ, 0, [1, 1], [[[1]]])) is None

    def test_zero_map_rejected(self):
        assert rejection(fm(RQ, 0, [1, 1], [[[0]]])) == NOT_SPLIT_0

    def test_rank_drop_rejected(self):
        assert rejection(fm(RQ, 3, [2, 1], [[[1, 0]]])) == (
            "invalid filtered module: rank drops at step 3")

    def test_eps_twisted_injection_is_split(self):
        # (1, eps): splits because the residue has full column rank
        t = [[RD.one], [eps(RD)]]
        assert rejection(fm(RD, 0, [1, 2], [t])) is None

    def test_eps_only_injection_is_not_split(self):
        assert rejection(fm(RD, 0, [1, 1], [[[eps(RD)]]])) == NOT_SPLIT_0


class TestColimit:
    def test_standard_inclusion(self):
        f = fm(RQ, 0, [1, 2], [[[1], [0]]])
        rank, steps = colimit_module(f)
        assert rank == 2
        assert [(i, len(m[0]) if m else 0) for i, m in steps] == [(0, 1), (1, 2)]

    def test_zero_bundle(self):
        rank, _ = colimit_module(fm(RQ, 0, [0], []))
        assert rank == 0

    def test_random_ranks_preserved(self, rng):
        for _ in range(10):
            f = random_filtered(rng, RQ, [1, 2, 2, 3])
            rank, steps = colimit_module(f)
            assert rank == 3
            for index, image in steps:
                # column count = rank of the filtration step
                assert (len(image[0]) if image else 0) == f.rank(index)


class TestAssociatedGraded:
    def test_constant_filtration(self):
        assert associated_graded(fm(RQ, 0, [1, 1], [[[1]]])) == {0: 1}

    def test_two_steps(self):
        f = fm(RQ, -1, [0, 1, 2], [[[]], [[1], [0]]])
        assert associated_graded(f) == {0: 1, 1: 1}

    def test_total_rank_preserved(self, rng):
        for _ in range(10):
            ranks = sorted(rng.randint(0, 3) for _ in range(3))
            f = random_filtered(rng, RQ, ranks)
            graded = associated_graded(f)
            assert sum(graded.values()) == ranks[-1]


class TestSplitFiltration:
    def test_field_step(self):
        f = fm(RQ, 0, [1, 2], [[[1], [0]]])
        s = split_filtration(f)
        assert s.graded_ranks == {0: 1, 1: 1}

    def test_already_graded_input(self):
        f = fm(RQ, 0, [1, 2], [[[1], [0]]])
        s = split_filtration(f)
        assert s.degrees_by_column == (0, 1)

    def test_eps_twisted_inclusion(self):
        # inclusion (1, eps) over Q[eps]/(eps^2): a splitting exists and the
        # exact partial-sum identity is verified inside split_filtration
        f = fm(RD, 0, [1, 2], [[[RD.one], [eps(RD)]]])
        s = split_filtration(f)
        assert s.graded_ranks == {0: 1, 1: 1}

    def test_grade_then_split_agree(self, rng):
        for _ in range(10):
            f = random_filtered(rng, RQ, sorted(rng.randint(0, 3) for _ in range(3)))
            assert split_filtration(f).graded_ranks == associated_graded(f)

    def test_split_over_dual_numbers_random(self, rng):
        for _ in range(10):
            f = random_filtered(rng, RD, sorted(rng.randint(0, 2) for _ in range(3)))
            assert split_filtration(f).graded_ranks == associated_graded(f)

    def test_incomplete_basis_is_named(self, monkeypatch):
        # a colimit whose image of E_0 is zero offers no column of degree 0
        f = fm(RQ, 0, [1, 2], [[[1], [0]]])
        top_rank, steps = colimit_module(f)
        (index, image), rest = steps[0], steps[1:]
        zeroed = [(index, [[RQ.zero for _ in row] for row in image])] + rest
        monkeypatch.setattr(filtered, "colimit_module", lambda _: (top_rank, zeroed))
        with pytest.raises(AssertionError,
                           match="could not complete the splitting basis at index 0"):
            split_filtration(f)

    def test_split_over_higher_nilpotent_order(self, rng):
        ring = EpsRing(GF(5), 3)
        for _ in range(6):
            f = random_filtered(rng, ring, sorted(rng.randint(0, 2) for _ in range(3)))
            assert split_filtration(f).graded_ranks == associated_graded(f)


class TestResidueVerdicts:
    """The residue-rank verdicts against the unit-pivot retraction as the
    reference."""

    def test_validate_matches_retraction(self, rng):
        seen = set()
        for field in FIELDS:
            for order in (1, 2, 3):
                ring = EpsRing(field, order)
                for _ in range(25):
                    a = rng.randint(1, 3)
                    b = rng.randint(a, 4)
                    t = random_transition(rng, ring, a, b)
                    message = rejection(fm(ring, 0, [a, b], [t]))
                    assert message in (None, NOT_SPLIT_0)
                    verdict = message is None
                    assert verdict == (_retraction_unit_pivots(ring, t) is not None)
                    seen.add(verdict)
        assert seen == {True, False}

    def test_eps_multiple_of_a_split_column_is_rejected(self, rng):
        # Scaling one column of a split injection by eps keeps the map
        # nonzero but drops the residue rank, so it no longer splits.
        for field in FIELDS:
            for order in (2, 3):
                ring = EpsRing(field, order)
                for _ in range(10):
                    a = rng.randint(1, 3)
                    b = rng.randint(a, 4)
                    t = [list(row) for row in random_filtered(rng, ring, [a, b]).maps[0]]
                    col = rng.randrange(a)
                    for row in t:
                        row[col] = ring.mul(eps(ring), row[col])
                    assert any(any(row[col]) for row in t)
                    assert rejection(fm(ring, 0, [a, b], [t])) == NOT_SPLIT_0
                    assert _retraction_unit_pivots(ring, t) is None

    def test_split_basis_matches_retraction_selection(self, rng):
        for field in FIELDS:
            for order in (1, 2, 3):
                ring = EpsRing(field, order)
                for _ in range(6):
                    ranks = sorted(rng.randint(0, 4) for _ in range(4))
                    f = random_filtered(rng, ring, ranks)
                    basis, degrees = retraction_selection(f)
                    s = split_filtration(f)
                    assert s.basis == basis
                    assert s.degrees_by_column == degrees


class TestVerifySplitting:
    """verify_splitting against the two-way containment check it replaced,
    on valid splittings and on seeded wrong ones."""

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=["Q", "F5", "F2"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_rejects_wrong_splittings(self, rng, field, order):
        ring = EpsRing(field, order)
        unit = ring(tuple(rng.randint(1, 4) for _ in range(order)))
        if not unit[0]:  # an even residue over F2
            unit = ring.add(unit, ring.one)
        kinds = set()
        for _ in range(12):
            f = random_filtered(rng, ring, sorted(rng.randint(0, 4) for _ in range(4)))
            s = split_filtration(f)
            assert containment_verdict(f, s)
            degrees = s.degrees_by_column
            pairs = [(lo, hi) for lo in range(len(degrees)) for hi in range(len(degrees))
                     if degrees[lo] < degrees[hi]]
            # adding a lower-degree column into a higher one keeps it valid
            for lo, hi in pairs:
                valid = with_basis(s, add_column(ring, s.basis, hi, lo, unit))
                assert verified(f, valid) and containment_verdict(f, valid)
            mutants = []
            for lo, hi in pairs:
                mutants.append(("higher into lower", with_basis(
                    s, add_column(ring, s.basis, lo, hi, unit))))
                if order > 1:
                    mutants.append(("eps-multiple into lower", with_basis(s, add_column(
                        ring, s.basis, lo, hi, ring.mul(eps(ring), unit)))))
                swapped = list(degrees)
                swapped[lo], swapped[hi] = degrees[hi], degrees[lo]
                mutants.append(("degree labels swapped", FiltrationSplitting(
                    s.graded_ranks, s.basis, tuple(swapped))))
            for c in range(len(s.basis)):
                scale = eps(ring) if order > 1 else ring.zero
                column = [ring.mul(scale, v) for v in s.basis[c]]
                mutants.append(("scaled by eps or zeroed", with_basis(
                    s, s.basis[:c] + (tuple(column),) + s.basis[c + 1:])))
            for kind, wrong in mutants:
                assert not verified(f, wrong) and not containment_verdict(f, wrong), kind
                kinds.add(kind)
        assert kinds == {"higher into lower", "degree labels swapped",
                         "scaled by eps or zeroed"} | (
            {"eps-multiple into lower"} if order > 1 else set())

    @pytest.mark.parametrize("ring", [RQ, RD], ids=["Q", "Q[eps]/(eps^2)"])
    def test_partial_sum_of_the_wrong_rank(self, ring):
        # both columns labelled 1: E_0 has rank 1, but no column has degree <= 0
        f = fm(ring, 0, [1, 2], [((ring.one,), (ring.zero,))])
        s = split_filtration(f)
        verify_splitting(f, s)
        wrong = FiltrationSplitting(s.graded_ranks, s.basis, (1, 1))
        with pytest.raises(AssertionError, match="partial sum has the wrong rank"):
            verify_splitting(f, wrong)

    def test_wrong_shape_is_named(self):
        f = fm(RD, 0, [1, 2], [((RD.one,), (RD.zero,))])
        s = split_filtration(f)
        assert (len(s.basis), s.degrees_by_column) == (2, (0, 1))
        verify_splitting(f, s)
        cases = [
            (FiltrationSplitting(s.graded_ranks, s.basis[:1], s.degrees_by_column),
             "splitting basis has 1 columns of lengths [2] and 2 degrees; the top rank is 2"),
            (with_basis(s, [s.basis[0], s.basis[1][:1]]),
             "splitting basis has 2 columns of lengths [1, 2] and 2 degrees; the top rank is 2"),
            (FiltrationSplitting(s.graded_ranks, s.basis, (0, 1, 1)),
             "splitting basis has 2 columns of lengths [2] and 3 degrees; the top rank is 2"),
        ]
        for wrong, message in cases:
            with pytest.raises(AssertionError) as caught:
                verify_splitting(f, wrong)
            assert str(caught.value) == message


def verified(f, splitting):
    """verify_splitting as a verdict: False when it raises AssertionError."""
    try:
        verify_splitting(f, splitting)
    except AssertionError:
        return False
    return True


def with_basis(splitting, basis):
    return FiltrationSplitting(graded_ranks=splitting.graded_ranks,
                               basis=tuple(tuple(col) for col in basis),
                               degrees_by_column=splitting.degrees_by_column)


def add_column(ring, basis, dst, src, scale):
    """The basis with scale * column src added into column dst."""
    out = [list(col) for col in basis]
    out[dst] = [ring.add(a, ring.mul(scale, b)) for a, b in zip(out[dst], basis[src])]
    return out


def solve_columns(ring, t, rhs):
    """Reference: solve T*X = RHS for a split-injective T; None if some column
    of RHS lies outside the column span of T."""
    retraction = _retraction_unit_pivots(ring, t)
    if retraction is None:
        raise ValueError("coefficient matrix is not split injective")
    candidate = mat_mul(ring, retraction, rhs)
    return candidate if mat_mul(ring, t, candidate) == rhs else None


def containment_verdict(f, splitting):
    """Reference: every partial sum and its filtration step contain each
    other, by two exact solves per step, as verify_splitting once did it."""
    ring = f.ring
    top_rank, steps = colimit_module(f)
    for index, image in steps:
        sub = [col for col, d in zip(splitting.basis, splitting.degrees_by_column)
               if d <= index]
        if len(sub) != f.rank(index):
            return False
        if not sub:
            continue
        sub_matrix = [[col[r] for col in sub] for r in range(top_rank)]
        try:
            if (solve_columns(ring, sub_matrix, image) is None
                    or solve_columns(ring, image, sub_matrix) is None):
                return False
        except ValueError:  # the partial sum is not a split injection
            return False
    return True


class TestIsoClass:
    def test_constant_rank2(self):
        f = fm(RQ, 0, [2, 2], [mat_identity(RQ, 2)])
        assert iso_class_filtered(f) == SplittingType((0, 0))

    def test_two_jumps(self):
        f = fm(RQ, -1, [0, 1, 2], [[[]], [[1], [0]]])
        assert iso_class_filtered(f) == SplittingType((1, 0))

    def test_unipotent_change_of_basis_invariant(self, rng):
        for _ in range(10):
            ranks = sorted(rng.randint(0, 3) for _ in range(3))
            f = random_filtered(rng, RQ, ranks)
            g = conjugate_by_unipotent(rng, f)
            assert iso_class_filtered(f) == iso_class_filtered(g)


def random_invertible(rng, ring, n):
    """Random invertible matrix: unipotent-times-permutation with unit diagonal."""
    mat = mat_identity(ring, n)
    for _ in range(rng.randint(0, 2 * n)):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        elem = mat_identity(ring, n)
        coeffs = [rng.randint(-2, 2) for _ in range(ring.order)]
        elem[i][j] = ring(tuple(Fraction(c) if ring.field == QQ else c for c in coeffs))
        mat = mat_mul(ring, mat, elem)
    return mat


def random_filtered(rng, ring, ranks):
    """Valid filtered module with the given weakly increasing ranks."""
    maps = []
    for a, b in zip(ranks, ranks[1:]):
        std = [[ring.one if i == j else ring.zero for j in range(a)] for i in range(b)]
        u = random_invertible(rng, ring, b)
        maps.append(mat_mul(ring, u, std))
    return fm(ring, rng.randint(-2, 1), list(ranks), maps)


def conjugate_by_unipotent(rng, f):
    """Same filtration read through a random automorphism of every stage."""
    ring = f.ring
    autos = [random_invertible(rng, ring, r) for r in f.ranks]
    maps = []
    for step, mat in enumerate(f.maps):
        t = [list(row) for row in mat]
        # new T = auto_{step+1} * T * auto_step^{-1}; build the inverse by
        # solving on the standard basis columns
        inv = invert(ring, autos[step])
        maps.append(mat_mul(ring, mat_mul(ring, autos[step + 1], t), inv))
    return fm(ring, f.lo, list(f.ranks), maps)


def invert(ring, mat):
    """Inverse of a square invertible matrix: its retraction."""
    out = _retraction_unit_pivots(ring, mat)
    assert out is not None
    return out


def random_transition(rng, ring, a, b):
    """A b x a matrix that is split injective in about two draws of five.

    Entries are sparse with eps-parts; a residue-deficient column is made by
    scaling a combination of the others, or an existing column, by eps.
    """
    def entry():
        if rng.random() < 0.4:
            return ring.zero
        return ring(tuple(rng.randint(-2, 2) for _ in range(ring.order)))

    t = [[entry() for _ in range(a)] for _ in range(b)]
    if a > 1 and rng.random() < 0.4:
        src, dst = rng.sample(range(a), 2)
        scale = ring(tuple(rng.randint(-2, 2) for _ in range(ring.order)))
        if ring.order > 1 and rng.random() < 0.5:
            scale = ring.mul(eps(ring), scale)
        for row in t:
            row[dst] = ring.mul(scale, row[src])
    elif ring.order > 1 and rng.random() < 0.3:
        col = rng.randrange(a)
        for row in t:
            row[col] = ring.mul(eps(ring), row[col])
    return t


def retraction_selection(f):
    """Reference selection: a candidate is kept when the chosen columns plus
    the candidate admit a retraction over the ring."""
    ring = f.ring
    top_rank, steps = colimit_module(f)
    chosen, degrees = [], []
    for index, basis_matrix in steps:
        target = f.rank(index)
        for col_idx in range(len(basis_matrix[0]) if basis_matrix else 0):
            if len(chosen) == target:
                break
            candidate = [basis_matrix[r][col_idx] for r in range(top_rank)]
            trial = chosen + [candidate]
            trial_matrix = [[trial[c][r] for c in range(len(trial))]
                            for r in range(top_rank)]
            if _retraction_unit_pivots(ring, trial_matrix) is not None:
                chosen.append(candidate)
                degrees.append(index)
    return tuple(tuple(col) for col in chosen), tuple(degrees)


def eps_inv(ring, a):
    """Inverse in k[eps]/(eps^m) of an element with invertible constant term,
    by Newton correction degree by degree: out * a = 1 + O(eps^k)."""
    if not a[0]:
        raise ZeroDivisionError("element with nilpotent constant term is not a unit")
    c0_inv = ring.field.inv(a[0])
    out = [c0_inv] + [ring.field.zero] * (ring.order - 1)
    for k in range(1, ring.order):
        acc = ring.field.zero
        for i in range(1, k + 1):
            acc = acc + a[i] * out[k - i]
        out[k] = -c0_inv * acc
    return tuple(out)


def _row_reduce_local(ring, mat):
    """Reference: Gauss-Jordan over the local ring with unit pivots only."""
    mat = [row[:] for row in mat]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next(
            (i for i in range(r, nrows) if mat[i][c][0]), None)  # a unit
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = eps_inv(ring, mat[r][c])
        mat[r] = [ring.mul(inv, v) for v in mat[r]]
        for i in range(nrows):
            if i != r and any(mat[i][c]):
                minus_factor = ring.mul(ring(-1), mat[i][c])
                mat[i] = [ring.add(a, ring.mul(minus_factor, b))
                          for a, b in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _retraction_unit_pivots(ring, t):
    """Reference retraction from unit-pivot elimination of [T | I]."""
    nrows, ncols = len(t), len(t[0]) if t else 0
    aug = [row[:] + [ring.one if i == j else ring.zero for j in range(nrows)]
           for i, row in enumerate(t)]
    reduced, pivots = _row_reduce_local(ring, aug)
    if [c for _, c in pivots if c < ncols] != list(range(ncols)):
        return None
    return [row[ncols:] for row in reduced[:ncols]]

