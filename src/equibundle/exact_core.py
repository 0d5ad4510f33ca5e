"""Exact scalar, polynomial, and Laurent-matrix arithmetic.

Scalars are native Python numbers: over Q plain :class:`fractions.Fraction`
(always reduced, positive denominator), over F_p plain ``int`` residues in
[0, p).  The field is the one place that knows the representation: ``field(x)``
reduces an int or a Fraction into it, ``field.validate`` rejects a scalar of
the other kind with FieldMismatchError, and ``field.p`` is the characteristic
(None over Q).  Containers validate their coefficients on construction, which
reduces them mod p, and are immutable afterwards, so values can be shared
freely between threads.  Nothing here ever rounds.  Each value class of the
package sets its fields once, in ``__init__``; those compared by value derive
from ``_Value``, whose equality is by the public slots.

Laurent polynomials (``LaurentPoly``) and multivariate polynomials
(``Polynomial``) share one sparse term-dict implementation of their arithmetic.
A ``LaurentMatrix`` checks its determinant by fraction-free (Bareiss)
elimination over k[t, 1/t] on the entries' own term dicts, so nothing in
that check is sized by an exponent span.

Linear algebra over a field runs on one sparse elimination kernel: rows are
reduced against a pivot list, added to it one at a time, or eliminated in
bulk.  Over F_p a pivot row is normalized at its column; over Q rows are
primitive integer vectors updated fraction-free (Bareiss), and only the
callers that read values normalize them.  ``row_reduce``, ``matrix_rank``
and ``invert_matrix`` return the unique reduced echelon form and its
derivatives.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add


class FieldMismatchError(ValueError):
    """Operands belong to different base fields."""


class UnitDeterminantError(ValueError):
    """Determinant of a transition matrix is not a single Laurent term."""


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; bases 2,3,5,7 suffice below 3_215_031_751,
    # which covers the allowed range p <= 2^31.
    if n < 2:
        return False
    for small in (2, 3, 5, 7):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Value:
    """A value whose fields are set once, in ``__init__``: equal, hashed and
    printed by its public slots, in order (a slot named ``_...`` holds data
    derived from them)."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__ if name[0] != "_"])

    def __eq__(self, other):
        if other is self:
            return True
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        names = [name for name in self.__slots__ if name[0] != "_"]
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"


Scalar = Fraction | int


class RationalField:
    """The field of arbitrary-precision rationals; scalars are Fractions."""

    p = None
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, value) -> Fraction:
        return value if type(value) is Fraction else Fraction(value)

    def validate(self, value) -> Fraction:
        if not isinstance(value, Fraction):
            raise FieldMismatchError(f"expected a rational, got {value!r}")
        return value

    def inv(self, value: Fraction) -> Fraction:
        return Fraction(1) / value

    def __repr__(self):
        return "QQ"


class PrimeField(_Value):
    """The prime field F_p for a prime p <= 2**31; scalars are ints in [0, p).

    >>> F5 = PrimeField(5)
    >>> F5.inv(2), F5(-1), F5(Fraction(1, 2))
    (3, 4, 3)
    """

    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p > 2**31 or not _is_prime(p):
            raise ValueError(f"{p} is not a prime <= 2**31")
        self.p = p

    def __call__(self, value) -> int:
        if type(value) is int:  # ahead of the ABC check that Fraction costs
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return self(Fraction(value))  # exactly, as over Q: a float is never truncated

    def validate(self, value) -> int:
        if type(value) is not int:
            raise FieldMismatchError(f"expected an element of F{self.p}, got {value!r}")
        return value % self.p

    def inv(self, value: int) -> int:
        if value % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F{self.p}")
        return pow(value, -1, self.p)

    def __repr__(self):
        return f"GF({self.p})"


Field = RationalField | PrimeField

QQ = RationalField()
GF = PrimeField  # GF(p) is the prime field with p elements


class _Terms:
    """Sparse polynomial: a dict from key to nonzero, validated coefficient.

    A subclass checks its keys on construction and supplies ``_new`` (a result
    of its own shape), ``_times`` (the product of two keys) and ``_ring``
    (what two operands must share: the field, and for Polynomial ``nvars``)."""

    __slots__ = ("field", "_terms")

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, key) -> Scalar:
        return self._terms.get(key, self.field.zero)

    def _ring(self):
        return self.field

    def _check(self, other: "_Terms"):
        if self._ring() != other._ring():
            raise FieldMismatchError(f"cannot combine polynomials over {self._ring()!r} "
                                     f"and {other._ring()!r}")

    # The constructor reduces every coefficient and drops the zeros, so the
    # operations below only accumulate.

    def __add__(self, other):
        self._check(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return self._new(terms)

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        times = self._times
        terms: dict = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = times(k1, k2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return self._new(terms)

    def scaled(self, c):
        c = self.field(c)
        return self._new({k: c * v for k, v in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._ring() == other._ring() and self._terms == other._terms

    def __hash__(self):
        return hash((self._ring(), frozenset(self._terms.items())))


class LaurentPoly(_Terms):
    """Sparse Laurent polynomial: a finite map exponent -> nonzero coefficient.

    >>> f = LaurentPoly(QQ, {1: Fraction(1), -1: Fraction(1)})   # t + 1/t
    >>> g = LaurentPoly(QQ, {1: Fraction(1), -1: Fraction(-1)})  # t - 1/t
    >>> (f * g).support
    (-2, 2)
    """

    __slots__ = ()

    def __init__(self, field: Field, terms: Mapping[int, Scalar]):
        cleaned = {}
        for exp, coeff in terms.items():
            coeff = field.validate(coeff)
            if coeff:
                cleaned[int(exp)] = coeff
        self.field = field
        self._terms = cleaned

    def _new(self, terms: dict) -> "LaurentPoly":
        return LaurentPoly(self.field, terms)

    _times = staticmethod(add)  # t^a * t^b = t^(a + b)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "LaurentPoly":
        return cls(field, {})

    @classmethod
    def one(cls, field: Field) -> "LaurentPoly":
        return cls(field, {0: field.one})

    @classmethod
    def monomial(cls, field: Field, coeff, exp: int) -> "LaurentPoly":
        return cls(field, {exp: field(coeff)})

    # -- structure queries -------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def terms(self) -> Iterable[tuple[int, Scalar]]:
        return sorted(self._terms.items())

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero Laurent polynomial has no minimal exponent")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero Laurent polynomial has no maximal exponent")
        return max(self._terms)

    @property
    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def is_poly_in_t(self) -> bool:
        """True iff no negative exponent occurs (element of k[t])."""
        return self.is_zero or min(self._terms) >= 0

    def is_poly_in_t_inverse(self) -> bool:
        """True iff no positive exponent occurs (element of k[1/t])."""
        return self.is_zero or max(self._terms) <= 0

    def shifted(self, exp: int) -> "LaurentPoly":
        """Multiply by t**exp."""
        return LaurentPoly(self.field, {e + exp: c for e, c in self._terms.items()})

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        body = " + ".join(f"({c})*t^{e}" for e, c in self.terms())
        return f"LaurentPoly({body})"


Monomial = tuple[int, ...]


class Polynomial(_Terms):
    """Sparse multivariate polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("nvars",)

    def __init__(self, field: Field, nvars: int, terms: Mapping[Monomial, Scalar]):
        cleaned = {}
        for mono, coeff in terms.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for {nvars} variables")
            coeff = field.validate(coeff)
            if coeff:
                cleaned[mono] = coeff
        self.field = field
        self.nvars = nvars
        self._terms = cleaned

    def _new(self, terms: dict) -> "Polynomial":
        return Polynomial(self.field, self.nvars, terms)

    @staticmethod
    def _times(m1: Monomial, m2: Monomial) -> Monomial:
        return tuple(map(add, m1, m2))

    def _ring(self):
        return self.field, self.nvars

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "Polynomial":
        return cls(field, nvars, {(0,) * nvars: field(value)})

    @classmethod
    def monomial(cls, field: Field, nvars: int, mono: Monomial, coeff) -> "Polynomial":
        return cls(field, nvars, {tuple(mono): field(coeff)})

    def terms(self):
        return sorted(self._terms.items(), reverse=True)

    @property
    def constant_term(self) -> Scalar:
        return self.coeff((0,) * self.nvars)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in mono) for mono in self._terms)

    def weighted_degree(self, degrees: Sequence[int]) -> int | None:
        """Common weighted degree of all terms, or None if inhomogeneous/zero."""
        seen = {sum(e * d for e, d in zip(mono, degrees)) for mono in self._terms}
        if len(seen) != 1:
            return None
        return seen.pop()

    def is_homogeneous(self, degrees: Sequence[int]) -> bool:
        return self.is_zero or self.weighted_degree(degrees) is not None


# ---------------------------------------------------------------------------
# Sparse elimination over native scalars
# ---------------------------------------------------------------------------
#
# A row is a dict {column: nonzero scalar}; ``p`` is the characteristic, None
# over Q.  A pivot list holds (column, row) pairs in which no row holds the
# column of an earlier pivot, so a further row reduces against them in order.
# Over F_p a row holds residues and a pivot row is normalized at its column.
# Over Q a row holds integers (``_primitive`` scales a rational row once, where
# it is built), an update is fraction-free, other * (a/g) - (f/g) * pivot with
# g = gcd(a, f), a scaled row is divided by its content, and a pivot row is
# primitive.  Scaling by a nonzero integer keeps every zero pattern, so the
# pivots and ranks are those of the rational rows; ``_normalized`` gives the
# rational values where a caller reads them.  ``_add_row`` grows a pivot list
# one row at a time; ``_eliminate`` builds one from a whole system, picking
# pivots for sparsity.


def _primitive(row: dict, p: int | None) -> dict:
    """Over Q, the row of rationals scaled by the lcm of its denominators and
    divided by its content: primitive integers.  Over F_p, the row itself."""
    if p:
        return row
    scale = lcm(*(c.denominator for c in row.values()))
    return _content_free({v: c.numerator * (scale // c.denominator) for v, c in row.items()})


def _content_free(row: dict) -> dict:
    """The integer row divided, in place, by the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        for v in row:
            row[v] //= content
    return row


def _scaled(row: dict, lead: int, factor: int) -> tuple[int, int]:
    """Multiply the row in place by s = lead / g, g = gcd(lead, factor) signed
    like lead; return (s, factor / g), whose pivot multiple clears the column."""
    g = gcd(lead, factor) if lead > 0 else -gcd(lead, factor)
    if lead != g:
        for v in row:
            row[v] *= lead // g
    return lead // g, factor // g


def _as_pivot(row: dict, col: int, p: int | None) -> dict:
    """A reduced row as a pivot at col: normalized over F_p, primitive over Q."""
    return _normalized(row, col, p) if p else _content_free(row)


def _normalized(row: dict, col: int, p: int | None) -> dict:
    """The row scaled so that its entry at col is 1: residues over F_p,
    Fractions over Q."""
    if p:
        inv = pow(row[col], -1, p)
        return {v: inv * c % p for v, c in row.items()}
    lead = row[col]
    return {v: Fraction(c, lead) for v, c in row.items()}


def _reduce(row: dict, pivots: list[tuple[int, dict]], p: int | None) -> dict:
    """What is left of the row after reducing it against the pivots in order;
    over Q a nonzero integer multiple of it."""
    for var, pivot_row in pivots:
        factor = row.get(var)
        if factor is None:
            continue
        scale, factor = (1, factor) if p else _scaled(row, pivot_row[var], factor)
        for v, c in pivot_row.items():
            acc = row.get(v, 0) - factor * c
            if p:
                acc %= p
            if acc:
                row[v] = acc
            else:
                row.pop(v, None)
        if scale != 1 and row:
            _content_free(row)
    return row


def _add_row(row: dict, pivots: list[tuple[int, dict]], p: int | None) -> None:
    """Reduce the row and append what is left, as a pivot at its leftmost
    column."""
    row = _reduce(row, pivots, p)
    if row:
        col = min(row)
        pivots.append((col, _as_pivot(row, col, p)))


def _eliminate(rows: list[dict], p: int | None) -> list[tuple[int, dict]]:
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
        row = _as_pivot(row, pivot, p)
        pivots.append((pivot, row))
        lead, scale = row[pivot], 1
        for other_idx in var_rows.pop(pivot, ()):
            if other_idx not in active:
                continue
            other = rows[other_idx]
            factor = other[pivot]  # var_rows lists exactly the rows holding pivot
            before = len(other)
            if not p:
                scale, factor = _scaled(other, lead, factor)
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
            if scale != 1 and other:
                _content_free(other)
            if len(other) < before:
                heappush(heap, (len(other), other_idx))
    return pivots


def _sparse(row: Sequence[Scalar], p: int | None) -> dict:
    """A dense row of scalars as a sparse row, reduced mod p over F_p (a
    pivot must never be a multiple of p), primitive integers over Q."""
    if p:
        return {c: r for c, v in enumerate(row) if (r := v % p)}
    return _primitive({c: v for c, v in enumerate(row) if v}, p)


def _echelon(field: Field, rows) -> tuple[int | None, list[tuple[int, dict]]]:
    """(p, pivots) of rows of scalars, added one at a time."""
    p = field.p
    pivots: list[tuple[int, dict]] = []
    for row in rows:
        _add_row(_sparse(row, p), pivots, p)
    return p, pivots


def span_test(field: Field, spanning):
    """Predicate: does a vector lie in the span of `spanning`?  The spanning
    set is eliminated once; each vector is reduced against its pivots."""
    p, pivots = _echelon(field, spanning)
    return lambda vec: not _reduce(_sparse(vec, p), pivots, p)


def row_reduce(field: Field, rows: Sequence[Sequence[Scalar]]):
    """Reduced row echelon form.  Returns (rref rows, pivot column list).

    The rows go through ``_add_row`` one at a time; back-substitution in
    reverse pivot order then clears each pivot column above its pivot.  The
    RREF is unique, so it does not depend on the order of the work.  Over Q
    the rows stay integers until each is normalized at its pivot here.
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
    for col, row in pivots:
        dense = [zero] * ncols
        for c, v in (row if p else _normalized(row, col, p)).items():
            dense[c] = v
        out.append(dense)
    out += [[zero] * ncols for _ in range(len(rows) - len(pivots))]
    return out, [col for col, _ in pivots]


def matrix_rank(field: Field, rows: Sequence[Sequence[Scalar]]) -> int:
    return len(_echelon(field, rows)[1])


def invert_matrix(field: Field, rows):
    """Inverse of a square scalar matrix, or None if singular."""
    n = len(rows)
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(rows)]
    rref, pivots = row_reduce(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rref[:n]]


# ---------------------------------------------------------------------------
# Laurent matrices
# ---------------------------------------------------------------------------


def _cross(a: dict, b: dict, c: dict, d: dict, p: int | None) -> dict:
    """a*b - c*d for {exponent: int} term dicts, zero terms dropped."""
    out: dict[int, int] = {}
    for f, g, sign in ((a, b, 1), (c, d, -1)):
        for e1, x in f.items():
            x *= sign
            for e2, y in g.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + x * y
    if p:
        return {e: v % p for e, v in out.items() if v % p}
    return {e: v for e, v in out.items() if v}


def _exact_div(num: dict, den: dict, p: int | None) -> dict:
    """num / den in k[t, 1/t] for term dicts; ArithmeticError unless exact.

    Each step clears the top term left, whose exponent comes from a heap, by
    a quotient term.  A quotient has no term below min(num) - min(den), so a
    term left below min(num) - min(den) + max(den) is a remainder; so, over
    Q, is a coefficient that the top coefficient of den does not divide.
    """
    top = max(den)
    lead = den[top]
    inv = pow(lead, -1, p) if p else None
    rest = [(e - top, c) for e, c in den.items() if e != top]
    floor = min(num) - min(den) + top
    rem = dict(num)
    heap = [-e for e in rem]
    heapify(heap)
    quot = {}
    while rem:
        e = -heappop(heap)
        c = rem.pop(e, 0)
        if not c:
            continue  # a term that cancelled after it was pushed
        if e < floor:
            raise ArithmeticError("Bareiss division left a term below the quotient")
        if p:
            c = c * inv % p
        else:
            c, r = divmod(c, lead)
            if r:
                raise ArithmeticError("Bareiss division left a remainder")
        quot[e - top] = c
        for off, y in rest:
            k = e + off
            old = rem.pop(k, 0)
            v = (old - c * y) % p if p else old - c * y
            if v:
                rem[k] = v
                if not old:
                    heappush(heap, -k)
    return quot


def _laurent_determinant(rows: Sequence[Sequence[LaurentPoly]], field: Field) -> LaurentPoly:
    """Determinant by fraction-free (Bareiss) elimination over k[t, 1/t].

    Each entry is held as its own {exponent: coefficient} term dict of native
    scalars: int residues over F_p, and over Q integers, after scaling the
    row by the lcm of its denominators.  Every division in the elimination
    is then exact, nothing is sized by an exponent span, and
    det = det(scaled) / prod(lcm).
    """
    p = field.p
    scale, mat = 1, []
    for row in rows:
        if not any(entry._terms for entry in row):
            return LaurentPoly.zero(field)
        factor = 1 if p else lcm(*(c.denominator for entry in row for c in entry._terms.values()))
        mat.append([{e: c if p else c.numerator * (factor // c.denominator)
                     for e, c in entry._terms.items()} for entry in row])
        scale *= factor

    n = len(mat)
    sign, prev = 1, {0: 1}
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
                entry = _cross(akk, row_i[j], aik, row_k[j], p)
                row_i[j] = _exact_div(entry, prev, p) if entry and prev != {0: 1} else entry
        prev = akk
    det = mat[n - 1][n - 1] if n else {0: 1}
    return LaurentPoly(field, {e: sign * c if p else Fraction(sign * c, scale)
                               for e, c in det.items()})


class LaurentMatrix(_Value):
    """Invertible square matrix over k[t, 1/t].

    The determinant is required to be a unit c * t^w, i.e., to consist of a
    single nonzero term.  The public constructor computes and checks it;
    matrices the library derives (products, monomial diagonals, Birkhoff
    factors) carry the determinant their construction proves.
    """

    __slots__ = ("field", "n", "rows", "_det_exp", "_det_coeff")

    def __init__(self, field: Field, rows: Sequence[Sequence[LaurentPoly]]):
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            for entry in row:
                if not isinstance(entry, LaurentPoly) or entry.field != field:
                    raise FieldMismatchError("matrix entry over the wrong field")
        det = _laurent_determinant(rows, field)
        if not det.is_monomial:
            raise UnitDeterminantError(
                f"determinant is not a unit of k[t, 1/t]; support {det.support}")
        w = det.min_exp()
        self._assign(field, rows, w, det.coeff(w))

    def _assign(self, field: Field, rows, det_exp: int, det_coeff: Scalar) -> None:
        if len(rows) < 1:
            raise ValueError("matrix rank must be at least 1")
        self.field = field
        self.n = len(rows)
        self.rows = tuple(tuple(row) for row in rows)
        self._det_exp = det_exp
        self._det_coeff = det_coeff

    @classmethod
    def _with_det(cls, field: Field, rows, det_exp: int, det_coeff: Scalar) -> "LaurentMatrix":
        """A derived matrix whose determinant det_coeff * t^det_exp is known."""
        matrix = cls.__new__(cls)
        matrix._assign(field, rows, det_exp, det_coeff)
        return matrix

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial_diagonal(cls, field: Field, exponents: Sequence[int]) -> "LaurentMatrix":
        zero = LaurentPoly.zero(field)
        n = len(exponents)
        rows = [[LaurentPoly.monomial(field, field.one, e) if i == j else zero
                 for j in range(n)] for i, e in enumerate(exponents)]
        return cls._with_det(field, rows, sum(exponents), field.one)

    # -- queries -------------------------------------------------------------

    def det_unit_exponent(self) -> tuple[int, Scalar]:
        """The pair (w, c) with det = c * t^w exactly."""
        return self._det_exp, self._det_coeff

    def entries_in_poly_ring(self) -> bool:
        return all(entry.is_poly_in_t() for row in self.rows for entry in row)

    def entries_in_inverse_poly_ring(self) -> bool:
        return all(entry.is_poly_in_t_inverse() for row in self.rows for entry in row)

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.field != other.field or self.n != other.n:
            raise FieldMismatchError("cannot multiply incompatible matrices")
        # each entry is summed in one {exp: coeff} dict and built once
        cols = list(zip(*other.rows))
        rows = []
        for self_row in self.rows:
            row = []
            for col in cols:
                acc: dict[int, Scalar] = {}
                for a, b in zip(self_row, col):
                    if a._terms and b._terms:
                        for e1, c1 in a._terms.items():
                            for e2, c2 in b._terms.items():
                                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
                row.append(LaurentPoly(self.field, acc))
            rows.append(row)
        return LaurentMatrix._with_det(self.field, rows, self._det_exp + other._det_exp,
                                       self.field(self._det_coeff * other._det_coeff))
