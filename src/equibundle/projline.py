"""Rank-n vector bundles on the projective line via transition matrices.

Conventions, fixed once for the whole package:

* charts U0 = Spec k[t] and Uinf = Spec k[s] with s = 1/t;
* a bundle is an invertible Laurent matrix g on the chart overlap, and
  every function here takes that ``LaurentMatrix`` g itself;
* a global section is a pair (f, h) with f a polynomial vector in t,
  h a polynomial vector in s, and h = g*f on the overlap;
* the line bundle O(d) is the 1x1 matrix t^(-d).

Under these conventions O(1) has two independent sections (1, s) and (t, 1),
which pins the sign of the splitting type.
"""

from __future__ import annotations

from equibundle.exact_core import (
    Field,
    LaurentMatrix,
    LaurentPoly,
    QQ,
    _Value,
    _add_row,
    _as_pivot,
    _eliminate,
    _normalized,
    _primitive,
    _reduce,
)


class SplittingType(_Value):
    """Weakly decreasing integer tuple (d_1 >= ... >= d_n).

    Simultaneously the isomorphism class of a direct sum O(d_1)+...+O(d_n)
    and a conjugacy class of cocharacters of GL_n.
    """

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        degrees = tuple(int(d) for d in degrees)
        if any(degrees[i] < degrees[i + 1] for i in range(len(degrees) - 1)):
            raise ValueError(f"degrees must be weakly decreasing, got {degrees}")
        self.degrees = degrees

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    def __iter__(self):
        return iter(self.degrees)


class BirkhoffFactorization:
    """Exact factorization g = A * D * B.

    A is invertible over k[1/t], B over k[t] (both with constant nonzero
    determinant), and D = diag(t^k_1, ..., t^k_n).  The exponents are kept
    in the column order the reduction produced; the splitting type is the
    sorted view d_i = -k_i.
    """

    def __init__(self, A: LaurentMatrix, D: LaurentMatrix, B: LaurentMatrix,
                 exponents: tuple[int, ...]):
        self.A, self.D, self.B, self.exponents = A, D, B, exponents

    @property
    def splitting_type(self) -> SplittingType:
        """d_i = -k_i, weakly decreasing."""
        return SplittingType(tuple(sorted((-k for k in self.exponents), reverse=True)))


def cocharacter_to_bundle(d: SplittingType, field: Field = QQ) -> LaurentMatrix:
    """Transition matrix diag(t^-d_1, ..., t^-d_n) of O(d_1)+...+O(d_n)."""
    return LaurentMatrix.monomial_diagonal(field, [-di for di in d.degrees])


def _minus_shifted(a: LaurentPoly, factor, b: LaurentPoly, shift: int) -> LaurentPoly:
    """a - factor * t^shift * b, built as one polynomial."""
    if b.is_zero:
        return a
    acc = dict(a._terms)
    for exp, c in b._terms.items():
        acc[exp + shift] = acc.get(exp + shift, 0) - factor * c
    return LaurentPoly(a.field, acc)


def _column_reduce(g: LaurentMatrix):
    """Right-reduce g over k[t] until the top-coefficient matrix is invertible.

    Returns (columns, tops, w, w_det) with g = C * W exactly, where C has the
    given columns, W is invertible over k[t] with the constant determinant
    w_det, and the top-coefficient vectors of the columns of C are linearly
    independent.

    A step replaces one column, so the state carries over: the echelon holds
    the top-coefficient vectors of the leading independent columns, column
    j's with the tracking entry n + j = 1.  The first vector that reduces to
    tracking entries alone gives the dependency lam, normalized to 1 at its
    own column.  The columns before the pivot do not change, so their
    echelon rows stay.
    """
    field = g.field
    p = field.p
    n = g.n
    cols = [list(col) for col in zip(*g.rows)]
    tops = [max(entry.max_exp() for entry in col if not entry.is_zero) for col in cols]
    one = LaurentPoly.one(field)
    zero = LaurentPoly.zero(field)
    w = [[one if i == j else zero for j in range(n)] for i in range(n)]
    w_det = field.one
    echelon: list[tuple[int, dict]] = []

    while True:
        for j in range(len(echelon), n):
            vec = {i: c for i, entry in enumerate(cols[j]) if (c := entry.coeff(tops[j]))}
            vec[n + j] = field.one
            vec = _reduce(_primitive(vec, p), echelon, p)
            col = min(vec)
            if col >= n:
                break
            echelon.append((col, _as_pivot(vec, col, p)))
        else:
            return cols, tops, w, w_det
        lam = {var - n: c for var, c in _normalized(vec, n + j, p).items()}
        pivot = max(lam, key=lambda j: (tops[j], j))
        # New pivot column: sum of lam_j * t^(top_pivot - top_j) * col_j, a
        # unimodular operation over k[t] that kills the t^top_pivot vector.
        # Maintain g = C * W: the inverse operation acts on the rows of W,
        # and scaling the pivot row multiplies det W by inv_pivot.  Each new
        # entry is summed in one {exp: coeff} dict and built once.
        inv_pivot = field.inv(lam[pivot])
        w_det = field(w_det * inv_pivot)
        w_pivot = w[pivot] = [entry.scaled(inv_pivot) for entry in w[pivot]]
        acc_col: list[dict] = [{} for _ in range(n)]
        for j, factor in lam.items():
            shift = tops[pivot] - tops[j]
            for acc, entry in zip(acc_col, cols[j]):
                for exp, c in entry._terms.items():
                    acc[exp + shift] = acc.get(exp + shift, 0) + factor * c
            if j != pivot:
                w[j] = [_minus_shifted(wj, factor, wp, shift) for wj, wp in zip(w[j], w_pivot)]
        new_col = [LaurentPoly(field, acc) for acc in acc_col]
        # the total top degree must strictly decrease, or the loop would not end
        top = max(entry.max_exp() for entry in new_col if not entry.is_zero)
        if top >= tops[pivot]:
            raise AssertionError("column step did not lower the top degree")
        cols[pivot], tops[pivot] = new_col, top
        del echelon[pivot:]


def birkhoff_factorize(g: LaurentMatrix) -> BirkhoffFactorization:
    """Factor the transition matrix g as A * D * B with D = diag(t^k_i).

    The factorization is verified by exact multiplication before returning.
    No factor's determinant is recomputed: det B is the product of the
    reduction's row scalings, det D = t^(sum tops), and det A = det g /
    (det D * det B).  The residual check A * D * B == g is what makes the
    carried determinant of A exact.
    """
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
    # det B is constant by construction; this tests sum(tops) == w(g).
    if A.det_unit_exponent()[0] != 0:
        raise AssertionError("outer factor determinant is not constant")
    # D = diag(t^tops), so A * D shifts column j of the printed A by t^tops[j]
    a_exp, a_coeff = A.det_unit_exponent()
    a_times_d = [[entry.shifted(top) for entry, top in zip(row, tops)] for row in A.rows]
    if LaurentMatrix._with_det(field, a_times_d, a_exp + sum(tops), a_coeff) @ B != g:
        raise AssertionError("factorization residual is nonzero")
    return BirkhoffFactorization(A=A, D=D, B=B, exponents=tuple(tops))


def splitting_type(g: LaurentMatrix) -> SplittingType:
    """Splitting type of the bundle g: d_i = -k_i, weakly decreasing."""
    return birkhoff_factorize(g).splitting_type


# ---------------------------------------------------------------------------
# Section-count oracle
# ---------------------------------------------------------------------------


def _coefficient_rows(g: LaurentMatrix, low: int, top: int) -> dict[int, list[dict]]:
    """The sparse rows "t^e coefficient of g * f = 0" for every e > low that
    some variable reaches, by e: one per output coordinate i, empty where no
    variable of row i reaches t^e.  The coefficient f[j, d], 0 <= d <= top,
    is variable j * (top + 1) + d.  Over Q each row of g is scaled once into
    primitive integers."""
    p = g.field.p
    n, width = g.n, top + 1
    rows: dict[int, list[dict]] = {}
    for i, row in enumerate(g.rows):
        terms = _primitive({(j, exp): c for j, entry in enumerate(row)
                            for exp, c in entry._terms.items()}, p)
        for (j, exp), coeff in terms.items():
            # distinct exponents of one entry land in distinct variables
            base = j * width - exp
            for e in range(max(exp, low + 1), exp + width):
                at_e = rows.get(e) or rows.setdefault(e, [{} for _ in range(n)])
                at_e[i][base + e] = coeff
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
    rows = _coefficient_rows(g, low, top)
    above = sorted(e for e in rows if e > high)
    pivots = _eliminate([row for i in range(n) for e in above if (row := rows[e][i])], p)
    size = n * (top + 1)
    recheck = size - len(pivots)
    units = [_reduce({j * (top + 1) + top: 1}, pivots, p) for j in range(n)]
    dim = recheck - len(_eliminate(units, p))
    if recheck != dim:
        raise ArithmeticError(
            f"section space not stable at degree bound {bound} "
            f"({dim} vs {recheck}); the bound is too small for this input"
        )
    table: dict[int, int] = {}
    for m in range(high, low - 1, -1):
        table[m] = size - len(pivots)
        for row in rows.get(m, ()):
            _add_row(row, pivots, p)
    return table


def _bound(g: LaurentMatrix, twist: int) -> int:
    """Degree bound max(0, m - w + min(R - min(rowtop), C - min(coltop))) at
    twist m, where det g = c * t^w and R, C sum the top exponents of the
    rows and of the columns of g.

    Proof: a section at twist m is f = t^m g^-1 h with h in k[1/t]^n, so
    deg f <= m + e_max(g^-1); and g^-1 = adj(g) / (c * t^w), where the (j, i)
    cofactor drops row i and column j of g, so its top exponent is at most
    the sum of the row tops it keeps and at most that of the column tops.
    """
    rowtop = [max(entry.max_exp() for entry in row if not entry.is_zero) for row in g.rows]
    coltop = [max(entry.max_exp() for entry in col if not entry.is_zero) for col in zip(*g.rows)]
    cofactor_top = min(sum(rowtop) - min(rowtop), sum(coltop) - min(coltop))
    return max(0, twist - g.det_unit_exponent()[0] + cofactor_top)


def h0_table(g: LaurentMatrix, window: int) -> dict[int, int]:
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
    table = _stable_sections_table(g, window, -window, _bound(g, window))
    return dict(sorted(table.items()))


def h0_dimension(g: LaurentMatrix, twist: int = 0) -> int:
    """Dimension of the space of global sections of g twisted by O(twist).

    Computed by exact linear algebra on Laurent coefficients with the degree
    bound max(0, m - w + min(R - min(rowtop), C - min(coltop))) at twist m,
    read off g alone; ``_bound`` states it and proves it.  It is exact on
    line bundles.  One sparse elimination at bound + 1 gives the dimension
    at bound + 1 and, by forcing the t^(bound + 1) coefficients to zero, at
    the bound; the two must agree, or ArithmeticError is raised.
    This is the one-twist case of ``h0_table``'s walk: going down from twist
    m to m - 1 only adds the rows "t^m coefficient of g * f = 0" to the same
    system, so one elimination serves every twist below.
    """
    return _stable_sections_table(g, twist, twist, _bound(g, twist))[twist]
