"""The sparse elimination kernel on Fractions, kept as a reference.

Before the kernel ran on integer rows over Q, every row held Fractions and
every pivot was normalized at its column.  This module keeps that kernel, and
the column reduction and h0 table built on it, as they were, so that tests can
compare the integer kernel against it on Q (and on F_p, where nothing
changed).  It also keeps the Bareiss determinant as it was before it ran on
term dicts: each row shifted into k[t] and held as dense coefficient lists.
Nothing in the package imports it.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from equibundle.exact_core import LaurentPoly
from equibundle.projline import _bound, _minus_shifted


def _normalized(row: dict, col: int, p) -> dict:
    """The row scaled so that its entry at col is 1."""
    if p:
        inv = pow(row[col], -1, p)
        return {v: inv * c % p for v, c in row.items()}
    inv = Fraction(1) / row[col]
    return {v: inv * c for v, c in row.items()}


def _reduce(row: dict, pivots: list[tuple[int, dict]], p) -> dict:
    """What is left of the row after reducing it against the pivots in order."""
    for var, pivot_row in pivots:
        factor = row.get(var)
        if factor is None:
            continue
        for v, c in pivot_row.items():
            acc = row.get(v, 0) - factor * c
            if p:
                acc %= p
            if acc:
                row[v] = acc
            else:
                row.pop(v, None)
    return row


def _add_row(row: dict, pivots: list[tuple[int, dict]], p) -> None:
    """Reduce the row and append what is left, normalized at its leftmost
    column, as a new pivot."""
    row = _reduce(row, pivots, p)
    if row:
        col = min(row)
        pivots.append((col, _normalized(row, col, p)))


def _eliminate(rows: list[dict], p) -> list[tuple[int, dict]]:
    """Sparse Gaussian elimination of a whole system; consumes the rows.

    Returns the pivots in the order found.  Rows and pivot columns are chosen
    for sparsity (shortest row first, then its least used column), which is
    what keeps a large banded system such as the h0 oracle's cheap.
    """
    var_rows: dict[int, set[int]] = {}
    for idx, row in enumerate(rows):
        for var in row:
            var_rows.setdefault(var, set()).add(idx)
    active = set(range(len(rows)))
    pivots: list[tuple[int, dict]] = []

    # Phase 1: a singleton row forces its variable to zero, so eliminating it
    # from other rows is pure deletion; this resolves diagonal-shaped systems
    # in linear time and shrinks the rest.
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

    # Phase 2: general elimination on whatever is left, shortest row first
    # (ties to the lowest index).  Every active row has a heap entry no larger
    # than its length: a row that shrinks is pushed again, and a popped entry
    # whose row has grown since goes back in with its current length.
    heap = [(len(rows[idx]), idx) for idx in active]
    heapify(heap)
    while heap:
        length, idx = heappop(heap)
        if idx not in active:
            continue
        row = rows[idx]
        if len(row) != length:
            heappush(heap, (len(row), idx))
            continue
        active.discard(idx)
        if not row:
            continue
        pivot = min(row, key=lambda v: (len(var_rows.get(v, ())), v))
        row = _normalized(row, pivot, p)
        pivots.append((pivot, row))
        for other_idx in var_rows.pop(pivot, ()):
            if other_idx not in active:
                continue
            other = rows[other_idx]
            factor = other.get(pivot)
            if factor is None:
                continue
            before = len(other)
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
            if len(other) < before:
                heappush(heap, (len(other), other_idx))
    return pivots


def _sparse(row, p) -> dict:
    """A dense row of scalars as a sparse row, reduced mod p over F_p: a
    pivot must never be a multiple of p."""
    if p:
        return {c: r for c, v in enumerate(row) if (r := v % p)}
    return {c: v for c, v in enumerate(row) if v}


def _echelon(field, rows):
    """(p, pivots) of rows of scalars, added one at a time."""
    p = field.p
    pivots: list[tuple[int, dict]] = []
    for row in rows:
        _add_row(_sparse(row, p), pivots, p)
    return p, pivots


def span_test(field, spanning):
    """Predicate: does a vector lie in the span of `spanning`?  The spanning
    set is eliminated once; each vector is reduced against its pivots."""
    p, pivots = _echelon(field, spanning)
    return lambda vec: not _reduce(_sparse(vec, p), pivots, p)


def row_reduce(field, rows):
    """Reduced row echelon form.  Returns (rref rows, pivot column list).

    The rows go through ``_add_row`` one at a time; back-substitution in
    reverse pivot order then clears each pivot column above its pivot.  The
    RREF is unique, so it does not depend on the order of the work.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    p, pivots = _echelon(field, rows)
    for k in range(len(pivots) - 2, -1, -1):
        _reduce(pivots[k][1], pivots[k + 1:], p)
    pivots.sort(key=lambda pivot: pivot[0])
    zero = field.zero
    out = []
    for _, row in pivots:
        dense = [zero] * ncols
        for c, v in row.items():
            dense[c] = v
        out.append(dense)
    out += [[zero] * ncols for _ in range(len(rows) - len(pivots))]
    return out, [col for col, _ in pivots]


def matrix_rank(field, rows) -> int:
    return len(_echelon(field, rows)[1])


def nullspace(field, rows, ncols: int):
    """Basis of the right kernel, as a list of coefficient tuples."""
    rref, pivots = row_reduce(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    p = field.p
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, col in enumerate(pivots):
            vec[col] = -rref[r][f] % p if p else -rref[r][f]
        basis.append(tuple(vec))
    return basis


def invert_matrix(field, rows):
    """Inverse of a square scalar matrix, or None if singular."""
    n = len(rows)
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(rows)]
    rref, pivots = row_reduce(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rref[:n]]


def _column_reduce(g):
    """Right-reduce g over k[t] until the top-coefficient matrix is invertible.

    Returns (columns, tops, w, w_det) with g = C * W exactly, where C has the
    given columns, W is invertible over k[t] with the constant determinant
    w_det, and the top-coefficient vectors of the columns of C are linearly
    independent.

    A step replaces one column, so the state carries over: the echelon holds
    the top-coefficient vectors of the leading independent columns, column
    j's with the tracking entry n + j = 1.  The first vector that reduces to
    tracking entries alone gives the dependency lam, 1 at its own column.
    The columns before the pivot do not change, so their echelon rows stay.
    """
    field = g.field
    p = field.p
    n = g.n
    cols = [[g.rows[i][j] for i in range(n)] for j in range(n)]
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
            vec = _reduce(vec, echelon, p)
            col = min(vec)
            if col >= n:
                break
            echelon.append((col, _normalized(vec, col, p)))
        else:
            return cols, tops, w, w_det
        lam = {var - n: c for var, c in vec.items()}
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


def _coefficient_rows(g, low: int, top: int):
    """The sparse rows "t^e coefficient of g * f = 0" for every e > low, by e:
    one per output coordinate i, empty where no variable reaches t^e.  The
    coefficient f[j, d], 0 <= d <= top, is variable j * (top + 1) + d."""
    width = top + 1
    span = max(e for row in g.rows for entry in row for e in entry._terms) + top - low
    blocks = []
    for row in g.rows:
        # block[k] is the row of e = low + 1 + k
        block: list[dict] = [{} for _ in range(span)]
        for j, entry in enumerate(row):
            base = j * width
            for exp, coeff in entry.terms():
                # distinct exponents of one entry land in distinct variables
                shift = exp - low - 1
                for d in range(max(0, -shift), width):
                    block[d + shift][base + d] = coeff
        blocks.append(block)
    return {low + 1 + k: rows for k, rows in enumerate(zip(*blocks))}


def _stable_sections_table(g, high: int, low: int, bound: int):
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
    one = g.field.one
    rows = _coefficient_rows(g, low, top)
    above = [e for e in rows if e > high]
    pivots = _eliminate([row for i in range(n) for e in above if (row := rows[e][i])], p)
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
        for row in rows.get(m, ()):
            _add_row(row, pivots, p)
    return table


def h0_table(g, window: int) -> dict[int, int]:
    """``projline.h0_table`` on this kernel: the same bound, the same walk."""
    if window < 0:
        return {}
    return dict(sorted(_stable_sections_table(g, window, -window, _bound(g, window)).items()))


def _poly_cross(a: list, b: list, c: list, d: list, p) -> list:
    """a*b - c*d for dense coefficient lists (index = degree), trimmed."""
    out = [0] * (max(len(a) + len(b), len(c) + len(d)) - 1)
    for f, g, sign in ((a, b, 1), (c, d, -1)):
        g_terms = [(j, y) for j, y in enumerate(g) if y]
        for i, x in enumerate(f):
            if x:
                x *= sign
                for j, y in g_terms:
                    out[i + j] += x * y
    if p:
        out = [v % p for v in out]
    while out and not out[-1]:
        out.pop()
    return out


def _poly_exact_div(num: list, den: list, p) -> list:
    """num / den for dense coefficient lists; ArithmeticError unless exact."""
    top = len(den) - 1
    lead = den[-1]
    inv = pow(lead, -1, p) if p else None
    rem = list(num)
    quot = [0] * max(len(num) - top, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + top]
        if not c:
            continue
        if p:
            c = c * inv % p
        else:
            c, r = divmod(c, lead)
            if r:
                raise ArithmeticError("Bareiss division left a remainder")
        quot[k] = c
        for j, d in enumerate(den):
            rem[k + j] -= c * d
    if any(v % p if p else v for v in rem[:top]):
        raise ArithmeticError("Bareiss division left a remainder")
    return quot


def _laurent_determinant(rows, field) -> LaurentPoly:
    """Determinant by fraction-free (Bareiss) elimination over k[t].

    Row i is shifted by t^-r_i, its smallest exponent, into k[t] and held as
    dense coefficient lists of native scalars: int residues over F_p, and
    over Q integers, after scaling the row by the lcm of its denominators.
    Every division in the elimination is then exact, and
    det = t^(sum r_i) * det(shifted) / prod(lcm).
    """
    p = field.p
    shift, scale, mat = 0, 1, []
    for row in rows:
        exps = [e for entry in row for e in entry._terms]
        if not exps:
            return LaurentPoly.zero(field)
        low = min(exps)
        factor = 1 if p else lcm(*(c.denominator for entry in row for c in entry._terms.values()))
        dense = []
        for entry in row:
            coeffs = [0] * (entry.max_exp() - low + 1) if entry._terms else []
            for e, c in entry._terms.items():
                coeffs[e - low] = c if p else c.numerator * (factor // c.denominator)
            dense.append(coeffs)
        mat.append(dense)
        shift += low
        scale *= factor

    n = len(mat)
    sign, prev = 1, [1]
    for k in range(n - 1):
        candidates = [i for i in range(k, n) if mat[i][k]]
        if not candidates:
            return LaurentPoly.zero(field)
        pivot = min(candidates, key=lambda i: len(mat[i][k]))
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        akk, row_k = mat[k][k], mat[k]
        for i in range(k + 1, n):
            row_i = mat[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                entry = _poly_cross(akk, row_i[j], aik, row_k[j], p)
                row_i[j] = _poly_exact_div(entry, prev, p) if prev != [1] else entry
        prev = akk
    det = mat[n - 1][n - 1] if n else [1]
    return LaurentPoly(field, {e + shift: sign * c if p else Fraction(sign * c, scale)
                               for e, c in enumerate(det)})
