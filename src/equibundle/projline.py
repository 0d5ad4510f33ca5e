"""Rank-n vector bundles on the projective line via transition matrices.

Conventions, fixed once for the whole package:

* charts U0 = Spec k[t] and Uinf = Spec k[s] with s = 1/t;
* a bundle is an invertible Laurent matrix g on the chart overlap;
* a global section is a pair (f, h) with f a polynomial vector in t,
  h a polynomial vector in s, and h = g*f on the overlap;
* the line bundle O(d) is the 1x1 matrix t^(-d).

Under these conventions O(1) has two independent sections (1, s) and (t, 1),
which pins the sign of the splitting type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from equibundle.exact_core import (
    Field,
    LaurentMatrix,
    LaurentPoly,
    QQ,
    Scalar,
    _add_row,
    _eliminate,
    _reduce,
    nullspace,
)


@dataclass(frozen=True)
class SplittingType:
    """Weakly decreasing integer tuple (d_1 >= ... >= d_n).

    Simultaneously the isomorphism class of a direct sum O(d_1)+...+O(d_n)
    and a conjugacy class of cocharacters of GL_n.
    """

    degrees: tuple[int, ...]

    def __post_init__(self):
        degrees = tuple(int(d) for d in self.degrees)
        if any(degrees[i] < degrees[i + 1] for i in range(len(degrees) - 1)):
            raise ValueError(f"degrees must be weakly decreasing, got {degrees}")
        object.__setattr__(self, "degrees", degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)


class BundleOnP1:
    """A rank-n bundle presented by its transition matrix on the overlap."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: LaurentMatrix):
        self.matrix = matrix

    @property
    def rank(self) -> int:
        return self.matrix.n

    @property
    def field(self) -> Field:
        return self.matrix.field

    def __eq__(self, other):
        if not isinstance(other, BundleOnP1):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"BundleOnP1(rank={self.rank})"


@dataclass(frozen=True)
class BirkhoffFactorization:
    """Exact factorization g = A * D * B.

    A is invertible over k[1/t], B over k[t] (both with constant nonzero
    determinant), and D = diag(t^k_1, ..., t^k_n).  The exponents are kept
    in the column order the reduction produced; the splitting type is the
    sorted view d_i = -k_i.
    """

    A: LaurentMatrix
    D: LaurentMatrix
    B: LaurentMatrix
    exponents: tuple[int, ...]

    @property
    def splitting_type(self) -> SplittingType:
        """d_i = -k_i, weakly decreasing."""
        return SplittingType(tuple(sorted((-k for k in self.exponents), reverse=True)))


def cocharacter_to_bundle(d: SplittingType, field: Field = QQ) -> BundleOnP1:
    """Transition matrix diag(t^-d_1, ..., t^-d_n) of O(d_1)+...+O(d_n)."""
    return BundleOnP1(LaurentMatrix.monomial_diagonal(field, [-di for di in d.degrees]))


def _top_data(column: Sequence[LaurentPoly]) -> tuple[int, list[Scalar]]:
    """Top degree of a nonzero column and its vector of t^top coefficients."""
    top = max(entry.max_exp() for entry in column if not entry.is_zero)
    return top, [entry.coeff(top) for entry in column]


def _column_reduce(g: LaurentMatrix):
    """Right-reduce g over k[t] until the top-coefficient matrix is invertible.

    Returns (columns, tops, w, w_det) with g = C * W exactly, where C has the
    given columns, W is invertible over k[t] with the constant determinant
    w_det, and the top-coefficient vectors of the columns of C are linearly
    independent.
    """
    field = g.field
    n = g.n
    cols = [[g.entry(i, j) for i in range(n)] for j in range(n)]
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
        # Columns of the scalar matrix are the top-coefficient vectors.
        kernel = nullspace(field, [[tcs[j][i] for j in range(n)] for i in range(n)], n)
        if not kernel:
            return cols, tops, w, w_det
        lam = kernel[0]
        support = [j for j in range(n) if lam[j]]
        pivot = max(support, key=lambda j: (tops[j], j))
        # New pivot column: sum of lam_j * t^(top_pivot - top_j) * col_j.
        # This kills the t^top_pivot coefficient vector, so the total top
        # degree strictly decreases; it is a unimodular operation over k[t].
        new_col = [zero] * n
        shifts = {}
        for j in support:
            shift = tops[pivot] - tops[j]
            shifts[j] = shift
            for i in range(n):
                if not cols[j][i].is_zero:
                    new_col[i] = new_col[i] + cols[j][i].scaled(lam[j]).shifted(shift)
        cols[pivot] = new_col
        # Maintain g = C * W: the inverse operation acts on the rows of W.
        # Scaling a row multiplies det W by inv_pivot; the row additions
        # below leave it unchanged.
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


def birkhoff_factorize(bundle: BundleOnP1) -> BirkhoffFactorization:
    """Factor the transition matrix as A * D * B with D = diag(t^k_i).

    The factorization is verified by exact multiplication before returning.
    No factor's determinant is recomputed: det B is the product of the
    reduction's row scalings, det D = t^(sum tops), and det A = det g /
    (det D * det B).  The residual check A * D * B == g is what makes the
    carried determinant of A exact.
    """
    g = bundle.matrix
    field = g.field
    n = g.n
    cols, tops, w, w_det = _column_reduce(g)
    g_exp, g_coeff = g.det_unit_exponent()

    # A = C * D^(-1): strip t^top from each column; entries land in k[1/t].
    a_rows = [[cols[j][i].shifted(-tops[j]) for j in range(n)] for i in range(n)]
    A = LaurentMatrix._with_det(field, a_rows, g_exp - sum(tops),
                                  field(g_coeff * field.inv(w_det)))
    D = LaurentMatrix.monomial_diagonal(field, tops)
    B = LaurentMatrix._with_det(field, w, 0, w_det)

    if not A.entries_in_inverse_poly_ring():
        raise AssertionError("left factor escaped k[1/t]")
    if not B.entries_in_poly_ring():
        raise AssertionError("right factor escaped k[t]")
    # det B is constant by construction; for A this tests sum(tops) == w(g).
    if A.det_unit_exponent()[0] != 0 or B.det_unit_exponent()[0] != 0:
        raise AssertionError("outer factor determinant is not constant")
    if (A @ D) @ B != g:
        raise AssertionError("factorization residual is nonzero")
    return BirkhoffFactorization(A=A, D=D, B=B, exponents=tuple(tops))


def splitting_type(bundle: BundleOnP1) -> SplittingType:
    """Splitting type of the bundle: d_i = -k_i, weakly decreasing."""
    return birkhoff_factorize(bundle).splitting_type


# ---------------------------------------------------------------------------
# Section-count oracle
# ---------------------------------------------------------------------------


def _constraint_rows(g: LaurentMatrix, twist: int, bound: int) -> list[dict]:
    """Sparse rows whose common kernel is the section space at a degree bound.

    Variables are the coefficients f[j, d] for 0 <= d <= bound, numbered
    j * (bound + 1) + d; there is one row per output coordinate i and
    exponent e >= 1 of t^(-twist) * g * f.
    """
    rows: list[dict] = []
    for row in g.rows:
        max_e = max((entry.max_exp() - twist + bound for entry in row if not entry.is_zero),
                    default=0)
        block: list[dict] = [{} for _ in range(max_e)]
        for j, entry in enumerate(row):
            for exp, coeff in entry.terms():
                # row e holds coeff at d = e - (exp - twist); distinct
                # exponents of one entry land in distinct variables
                shift = exp - twist
                for d in range(max(0, 1 - shift), bound + 1):
                    block[d + shift - 1][j * (bound + 1) + d] = coeff
        rows += [row for row in block if row]
    return rows


def _stable_sections_table(g: LaurentMatrix, high: int, low: int, bound: int) -> dict[int, int]:
    """dim of {f in k[t]^n, deg <= bound : t^(-m) * g * f has no positive
    exponent} for each twist m = high, high - 1, ..., low, checked to be
    unchanged at bound + 1, from one elimination.

    The system is eliminated at twist high and bound + 1; each step down to
    twist m - 1 adds the n rows "t^m coefficient of g * f = 0" to the pivots
    one at a time.  The sections at bound are those at bound + 1 whose top
    coefficients f[j, bound + 1] vanish (the rows a larger bound adds involve
    only those), so the dimension at bound is lower by the rank of the unit
    rows f[j, bound + 1] = 0 modulo the pivots, which they never join.  The
    two must agree at twist high, or ArithmeticError is raised.  That one
    check covers every lower twist: the sections at twist m - 1 and bound + 1
    are among those at twist m, so if every section at twist high has
    vanishing top coefficients, so has every section below it, and each
    dimension at bound is the one at bound + 1.
    """
    p = g.field.p
    n, top = g.n, bound + 1
    # over Q the seed rows must hold Fraction(1): _normalized divides by it
    one = g.field.one
    entries = [[entry.terms() for entry in row] for row in g.rows]
    pivots = _eliminate(_constraint_rows(g, high, top), p)
    size = n * (top + 1)
    recheck = size - len(pivots)
    units = [_reduce({j * (top + 1) + top: one}, pivots, p) for j in range(n)]
    dim = recheck - len(_eliminate(units, p))
    if recheck != dim:
        raise ArithmeticError(
            f"section space not stable at degree bound {bound} "
            f"({dim} vs {recheck}); the bound is too small for this input"
        )
    table: dict[int, int] = {}
    for m in range(high, low - 1, -1):
        table[m] = size - len(pivots)
        if m == low:
            break
        for row_terms in entries:
            row = {j * (top + 1) + m - exp: coeff for j, terms in enumerate(row_terms)
                   for exp, coeff in terms if 0 <= m - exp <= top}
            _add_row(row, pivots, p)
    return table


def _bound(g: LaurentMatrix, twist: int) -> int:
    """Degree bound n*(e_max - e_min) + |twist| + 1, exponent window widened to 0."""
    e_min, e_max = g.exponent_range()
    return g.n * (max(e_max, 0) - min(e_min, 0)) + abs(twist) + 1


def h0_table(bundle: BundleOnP1, window: int) -> dict[int, int]:
    """``h0_dimension`` of every twist in -window..window, ascending.

    One elimination serves the whole table.  It is taken at twist +window
    with that twist's bound, which is at least every other twist's own
    bound.  Walking down, the sections at twist m - 1 are those at twist m
    whose g * f also has a vanishing t^m coefficient, so each step adds n
    rows to the same echelon.  The stability check runs once, at the top
    twist, which makes every lower twist stable too.  A negative window
    gives the empty table.
    """
    if window < 0:
        return {}
    g = bundle.matrix
    table = _stable_sections_table(g, window, -window, _bound(g, window))
    return dict(sorted(table.items()))


def h0_dimension(bundle: BundleOnP1, twist: int = 0) -> int:
    """Dimension of the space of global sections of the twisted bundle.

    Computed by exact linear algebra on Laurent coefficients with the degree
    bound n*(e_max - e_min) + |twist| + 1, where the exponent window of the
    transition matrix is normalized to contain 0 (otherwise monomial
    diagonals t^-d would get a window of width zero and sections of degree d
    would be truncated).  One sparse elimination at bound + 1 gives the
    dimension at bound + 1 and, by forcing the t^(bound + 1) coefficients to
    zero, at the bound; the two must agree, or ArithmeticError is raised.
    This is the one-twist case of ``h0_table``'s walk: going down from twist
    m to m - 1 only adds the rows "t^m coefficient of g * f = 0" to the same
    system, so one elimination serves every twist below.
    """
    g = bundle.matrix
    return _stable_sections_table(g, twist, twist, _bound(g, twist))[twist]
