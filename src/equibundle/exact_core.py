"""Exact scalar, Laurent-polynomial, and Laurent-matrix arithmetic.

Scalars are either arbitrary-precision rationals (plain
:class:`fractions.Fraction`, always reduced, positive denominator) or prime
field residues (:class:`FpElement`, always reduced mod p).  Containers are
immutable after construction, so values can be shared freely between threads.
Nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union


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


@dataclass(frozen=True)
class FpElement:
    """Residue in the prime field with p elements.

    >>> a = FpElement(5, 2)
    >>> a.inverse()
    FpElement(p=5, residue=3)
    >>> a + 4
    FpElement(p=5, residue=1)
    """

    p: int
    residue: int

    def __post_init__(self):
        object.__setattr__(self, "residue", self.residue % self.p)

    def _coerce(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot mix F{self.p} and F{other.p} elements"
                )
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        if isinstance(other, Fraction):
            raise FieldMismatchError("cannot mix rational and prime-field scalars")
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.residue + other.residue)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.residue - other.residue)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, other.residue - self.residue)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.residue * other.residue)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(self.p, -self.residue)

    def inverse(self) -> "FpElement":
        if self.residue == 0:
            raise ZeroDivisionError(f"0 is not invertible in F{self.p}")
        return FpElement(self.p, pow(self.residue, -1, self.p))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __bool__(self):
        return self.residue != 0

    def __str__(self):
        return f"{self.residue} mod {self.p}"


Scalar = Union[Fraction, FpElement]


@dataclass(frozen=True)
class RationalField:
    """The field of arbitrary-precision rationals."""

    name = "Q"

    def __call__(self, value) -> Fraction:
        if isinstance(value, FpElement):
            raise FieldMismatchError("prime-field element is not a rational")
        return Fraction(value)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def validate(self, value) -> Fraction:
        if not isinstance(value, Fraction):
            raise FieldMismatchError(f"expected a rational, got {value!r}")
        return value

    def inv(self, value: Fraction) -> Fraction:
        return Fraction(1) / value

    def __repr__(self):
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p for a prime p <= 2**31."""

    p: int

    def __post_init__(self):
        if self.p > 2**31 or not _is_prime(self.p):
            raise ValueError(f"{self.p} is not a prime <= 2**31")

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def __call__(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise FieldMismatchError(f"element of F{value.p} is not in F{self.p}")
            return value
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
            return FpElement(self.p, value.numerator) / FpElement(self.p, value.denominator)
        return FpElement(self.p, int(value))

    @property
    def zero(self) -> FpElement:
        return FpElement(self.p, 0)

    @property
    def one(self) -> FpElement:
        return FpElement(self.p, 1)

    def validate(self, value) -> FpElement:
        if not isinstance(value, FpElement) or value.p != self.p:
            raise FieldMismatchError(f"expected an element of F{self.p}, got {value!r}")
        return value

    def inv(self, value: FpElement) -> FpElement:
        return value.inverse()

    def __repr__(self):
        return f"GF({self.p})"


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def GF(p: int) -> PrimeField:
    """Return the prime field with p elements."""
    return PrimeField(p)


class LaurentPoly:
    """Sparse Laurent polynomial: a finite map exponent -> nonzero coefficient.

    >>> f = LaurentPoly(QQ, {1: Fraction(1), -1: Fraction(1)})   # t + 1/t
    >>> g = LaurentPoly(QQ, {1: Fraction(1), -1: Fraction(-1)})  # t - 1/t
    >>> (f * g).support
    (-2, 2)
    """

    __slots__ = ("field", "_terms")

    def __init__(self, field: Field, terms: Mapping[int, Scalar]):
        cleaned = {}
        for exp, coeff in terms.items():
            coeff = field.validate(coeff)
            if coeff:
                cleaned[int(exp)] = coeff
        self.field = field
        self._terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "LaurentPoly":
        return cls(field, {})

    @classmethod
    def one(cls, field: Field) -> "LaurentPoly":
        return cls(field, {0: field.one})

    @classmethod
    def constant(cls, field: Field, value) -> "LaurentPoly":
        return cls(field, {0: field(value)})

    @classmethod
    def monomial(cls, field: Field, coeff, exp: int) -> "LaurentPoly":
        return cls(field, {exp: field(coeff)})

    # -- structure queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def coeff(self, exp: int) -> Scalar:
        return self._terms.get(exp, self.field.zero)

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

    def is_constant(self) -> bool:
        return self.is_zero or set(self._terms) == {0}

    # -- arithmetic ---------------------------------------------------------

    def _check_field(self, other: "LaurentPoly"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"cannot combine polynomials over {self.field!r} and {other.field!r}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_field(other)
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            acc = terms.get(exp, self.field.zero) + coeff
            if acc:
                terms[exp] = acc
            else:
                terms.pop(exp, None)
        return LaurentPoly(self.field, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.field, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_field(other)
        terms: dict[int, Scalar] = {}
        zero = self.field.zero
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                acc = terms.get(e, zero) + c1 * c2
                if acc:
                    terms[e] = acc
                else:
                    terms.pop(e, None)
        return LaurentPoly(self.field, terms)

    def scaled(self, c) -> "LaurentPoly":
        c = self.field(c)
        return LaurentPoly(self.field, {e: c * v for e, v in self._terms.items()})

    def shifted(self, exp: int) -> "LaurentPoly":
        """Multiply by t**exp."""
        return LaurentPoly(self.field, {e + exp: c for e, c in self._terms.items()})

    def evaluate(self, point) -> Scalar:
        """Evaluate at a nonzero field element (zero allowed if no negative exponents)."""
        point = self.field(point)
        if not point and not self.is_poly_in_t():
            raise ZeroDivisionError("cannot evaluate a pole at t = 0")
        acc = self.field.zero
        for e, c in self._terms.items():
            val = self.field.one
            if e >= 0:
                for _ in range(e):
                    val = val * point
            else:
                inv = self.field.inv(point)
                for _ in range(-e):
                    val = val * inv
            acc = acc + c * val
        return acc

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.field == other.field and self._terms == other._terms

    def __hash__(self):
        return hash((self.field, frozenset(self._terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        body = " + ".join(f"({c})*t^{e}" for e, c in self.terms())
        return f"LaurentPoly({body})"


# ---------------------------------------------------------------------------
# Dense linear algebra over a field (exact Gauss-Jordan)
# ---------------------------------------------------------------------------


def row_reduce(field: Field, rows: Sequence[Sequence[Scalar]]):
    """Reduced row echelon form.  Returns (rref rows, pivot column list)."""
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
        mat[r] = [inv * v for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def matrix_rank(field: Field, rows: Sequence[Sequence[Scalar]]) -> int:
    return len(row_reduce(field, rows)[1])


def nullspace(field: Field, rows: Sequence[Sequence[Scalar]], ncols: int):
    """Basis of the right kernel, as a list of coefficient tuples."""
    rref, pivots = row_reduce(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, p in enumerate(pivots):
            vec[p] = -rref[r][f]
        basis.append(tuple(vec))
    return basis


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


def _laurent_determinant(rows: Sequence[Sequence[LaurentPoly]], field: Field) -> LaurentPoly:
    # Expansion by minors, memoized over column subsets; division-free.
    n = len(rows)
    cache: dict[int, LaurentPoly] = {}

    def minor(mask: int) -> LaurentPoly:
        if mask == 0:
            return LaurentPoly.one(field)
        if mask in cache:
            return cache[mask]
        row = n - bin(mask).count("1")
        acc = LaurentPoly.zero(field)
        sign = 1
        for col in range(n):
            if not mask & (1 << col):
                continue
            entry = rows[row][col]
            if not entry.is_zero:
                sub = minor(mask & ~(1 << col))
                term = entry * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign  # parity of the column's position within the mask
        cache[mask] = acc
        return acc

    return minor((1 << n) - 1)


class LaurentMatrix:
    """Invertible square matrix over k[t, 1/t].

    The determinant is required to be a unit c * t^w, i.e., to consist of a
    single nonzero term; this is checked at construction time and cached.
    """

    __slots__ = ("field", "n", "rows", "_det_exp", "_det_coeff")

    def __init__(self, field: Field, rows: Sequence[Sequence[LaurentPoly]]):
        n = len(rows)
        if n < 1:
            raise ValueError("matrix rank must be at least 1")
        grid = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for entry in row:
                if not isinstance(entry, LaurentPoly) or entry.field != field:
                    raise FieldMismatchError("matrix entry over the wrong field")
            grid.append(tuple(row))
        self.field = field
        self.n = n
        self.rows = tuple(grid)
        det = _laurent_determinant(self.rows, field)
        if det.is_zero or not det.is_monomial:
            raise UnitDeterminantError(
                "determinant is not a unit of k[t, 1/t]; "
                f"support {det.support if not det.is_zero else ()}"
            )
        self._det_exp = det.min_exp()
        self._det_coeff = det.coeff(self._det_exp)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "LaurentMatrix":
        one = LaurentPoly.one(field)
        zero = LaurentPoly.zero(field)
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, field: Field, entries: Sequence[LaurentPoly]) -> "LaurentMatrix":
        zero = LaurentPoly.zero(field)
        n = len(entries)
        return cls(field, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def monomial_diagonal(cls, field: Field, exponents: Sequence[int]) -> "LaurentMatrix":
        return cls.diagonal(
            field, [LaurentPoly.monomial(field, field.one, e) for e in exponents]
        )

    # -- queries -------------------------------------------------------------

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.rows[i][j]

    def det_unit_exponent(self) -> tuple[int, Scalar]:
        """The pair (w, c) with det = c * t^w exactly."""
        return self._det_exp, self._det_coeff

    def exponent_range(self) -> tuple[int, int]:
        """Smallest and largest exponent over all nonzero entries."""
        exps = [e for row in self.rows for entry in row for e in entry.support]
        if not exps:
            raise ValueError("unreachable: an invertible matrix has nonzero entries")
        return min(exps), max(exps)

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
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = LaurentPoly.zero(self.field)
                for l in range(n):
                    a = self.rows[i][l]
                    b = other.rows[l][j]
                    if not a.is_zero and not b.is_zero:
                        acc = acc + a * b
                row.append(acc)
            rows.append(row)
        return LaurentMatrix(self.field, rows)

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"LaurentMatrix(n={self.n}, det=t^{self._det_exp})"
