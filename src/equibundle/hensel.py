"""Henselian-pair predicates for finite-dimensional commutative algebras.

The decidable class: a commutative unital algebra given by structure
constants over an exact field, with a distinguished ideal given by a spanning
set.  For such (artinian) algebras "henselian pair" is equivalent to the
ideal lying in the Jacobson radical (= nilradical), the executable face of
which is idempotent lifting along nilpotent ideals.  Graded algebras that are
concentrated in nonnegative or nonpositive degrees form trivially henselian
pairs with their irrelevant ideal; that predicate is purely combinatorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from equibundle.exact_core import (
    Field,
    Scalar,
    nullspace,
    row_reduce,
    span_test,
)
from equibundle.graded import GradedAlgebra

Vector = tuple[Scalar, ...]


def trivially_henselian(algebra: GradedAlgebra) -> bool:
    """True iff all variable degrees have one sign.

    Then the irrelevant ideal has zero degree-zero part, so the degree-zero
    pair is henselian for free.
    """
    degrees = algebra.degrees
    return all(d > 0 for d in degrees) or all(d < 0 for d in degrees)


@dataclass(frozen=True)
class FiniteDimAlgebra:
    """Commutative unital algebra by structure constants; basis vector 0 is 1.

    structure[i][j] is the coordinate vector of e_i * e_j.  Commutativity,
    associativity, unitality, and closure of the distinguished ideal under
    multiplication are all checked at construction, except for the
    constructions that prove them (see `_trusted`).  Element operations
    reduce mod p over F_p.
    """

    field: Field
    dim: int
    structure: tuple[tuple[Vector, ...], ...]
    ideal: tuple[Vector, ...] = ()

    def __post_init__(self):
        d = self.dim
        if d < 1:
            raise ValueError("algebra dimension must be at least 1")
        table = tuple(
            tuple(tuple(self.field(v) for v in vec) for vec in row)
            for row in self.structure
        )
        if len(table) != d or any(len(row) != d for row in table) or any(
            len(vec) != d for row in table for vec in row
        ):
            raise ValueError("structure constants must form a d x d x d array")
        object.__setattr__(self, "structure", table)
        for i in range(d):
            for j in range(i):
                if table[i][j] != table[j][i]:
                    raise ValueError(f"structure constants not commutative at ({i},{j})")
        for j in range(d):
            if table[0][j] != self.unit_vector(j):
                raise ValueError("basis vector 0 does not act as the unit")
        for i in range(d):
            for j in range(d):
                for l in range(d):
                    left = self.mul(table[i][j], self.unit_vector(l))
                    right = self.mul(self.unit_vector(i), table[j][l])
                    if left != right:
                        raise ValueError(
                            f"structure constants not associative at ({i},{j},{l})")
        ideal = tuple(tuple(self.field(v) for v in vec) for vec in self.ideal)
        object.__setattr__(self, "ideal", ideal)
        in_ideal = span_test(self.field, ideal)
        for vec in ideal:
            for i in range(d):
                if not in_ideal(self.mul(self.unit_vector(i), vec)):
                    raise ValueError("ideal is not closed under multiplication")

    @classmethod
    def _trusted(cls, field: Field, dim: int, structure, ideal) -> "FiniteDimAlgebra":
        """An algebra whose construction proves every check of __init__.

        The table and the ideal must already hold field elements.
        """
        algebra = cls.__new__(cls)
        for name, value in (("field", field), ("dim", dim), ("structure", structure),
                            ("ideal", ideal)):
            object.__setattr__(algebra, name, value)
        return algebra

    # -- element helpers -----------------------------------------------------

    def unit_vector(self, index: int) -> Vector:
        return tuple(self.field.one if i == index else self.field.zero
                     for i in range(self.dim))

    @property
    def one(self) -> Vector:
        return self.unit_vector(0)

    def coerce(self, coords) -> Vector:
        vec = tuple(self.field(v) for v in coords)
        if len(vec) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates")
        return vec

    def sub(self, a: Vector, b: Vector) -> Vector:
        p = self.field.p
        return tuple((x - y) % p if p else x - y for x, y in zip(a, b))

    def scale(self, c, a: Vector) -> Vector:
        c, p = self.field(c), self.field.p
        return tuple(c * x % p if p else c * x for x in a)

    @cached_property
    def _table(self):
        """(den, table): e_i * e_j is the sum of n/den * e_l over the (l, n)
        in table[i][j], with integer n and one common den (1 over F_p)."""
        den = 1 if self.field.p else lcm(
            *(v.denominator for row in self.structure for vec in row for v in vec))
        return den, tuple(
            tuple(tuple((l, n) for l, n in enumerate(self._numerators(vec, den)[1]) if n)
                  for vec in row)
            for row in self.structure)

    def _numerators(self, vec: Vector, den: Optional[int] = None):
        """(den, the integer numerators of vec over den).  den defaults to the
        lcm of the denominators of vec over Q; over F_p it is 1."""
        if self.field.p:
            return 1, vec
        if den is None:
            den = lcm(*(x.denominator for x in vec))
        return den, [x.numerator * (den // x.denominator) for x in vec]

    def mul(self, a: Vector, b: Vector) -> Vector:
        den, table = self._table
        da, na = self._numerators(a)
        db, nb = self._numerators(b)
        out = [0] * self.dim
        right = [(j, y) for j, y in enumerate(nb) if y]
        for i, x in enumerate(na):
            if x:
                row = table[i]
                for j, y in right:
                    coeff = x * y
                    for l, n in row[j]:
                        out[l] += coeff * n
        p = self.field.p
        if p:
            return tuple(v % p for v in out)
        total = da * db * den
        return tuple(Fraction(v, total) for v in out)

    def power(self, a: Vector, exponent: int) -> Vector:
        out = self.one
        base = a
        e = exponent
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def is_nilpotent(self, a: Vector) -> bool:
        """Nilpotency test: a is nilpotent iff a^(2^k) = 0 once 2^k >= dim.
        Squares a until then, stopping early at zero."""
        exponent = 1
        while any(a):
            if exponent >= self.dim:
                return False
            a = self.mul(a, a)
            exponent *= 2
        return True

    def in_span(self, vec: Vector, spanning: Sequence[Vector]) -> bool:
        return span_test(self.field, spanning)(vec)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def from_univariate_quotient(field: Field, monic_coeffs: Sequence,
                             ideal_generators: Sequence[Sequence] = ()) -> FiniteDimAlgebra:
    """k[x]/(f) for monic f, with basis 1, x, ..., x^(deg-1).

    monic_coeffs lists f's coefficients from the constant up, ending with 1.
    Ideal generators are polynomials in x given the same way (any length).
    """
    coeffs = [field(c) for c in monic_coeffs]
    if not coeffs or coeffs[-1] != field.one:
        raise ValueError("quotient polynomial must be monic")
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("quotient polynomial must have positive degree")

    p = field.p

    def step(vec, c=field.zero):
        """x * vec + c mod f, for vec in the basis 1, x, ..., x^(d-1)."""
        top = vec[-1]
        shifted = (c,) + vec[:-1]
        if not top:
            return shifted
        return tuple((s - top * a) % p if p else s - top * a
                     for s, a in zip(shifted, coeffs))

    powers = [(field.one,) + (field.zero,) * (d - 1)]
    for _ in range(2 * d - 2):
        powers.append(step(powers[-1]))
    structure = tuple(tuple(powers[i + j] for j in range(d)) for i in range(d))

    ideal_vectors = []
    for gen in ideal_generators:
        shifted = (field.zero,) * d
        for c in reversed(gen):  # Horner's rule
            shifted = step(shifted, field(c))
        for _ in range(d):
            if any(shifted):
                ideal_vectors.append(shifted)
            shifted = step(shifted)
    if ideal_vectors:
        reduced, pivots = row_reduce(field, [list(v) for v in ideal_vectors])
        ideal_vectors = [tuple(reduced[r]) for r in range(len(pivots))]
    # Every check of the public constructor holds by construction: e_i * e_j
    # is x^(i+j) mod f, so the table is commutative, e_0 = 1 is the unit, and
    # associativity is that of k[x] carried through the ring map mod f.  The
    # span of x^s * g mod f for s < d is the whole ideal g * k[x]/(f), since
    # x^s for s >= d reduces mod f to lower powers, so the ideal is closed.
    return FiniteDimAlgebra._trusted(field, d, structure,
                                     tuple(ideal_vectors))


# ---------------------------------------------------------------------------
# Radical, henselian pairs, idempotent lifting
# ---------------------------------------------------------------------------


def jacobson_radical(algebra: FiniteDimAlgebra) -> list[Vector]:
    """Basis of the nilradical (= Jacobson radical in the artinian case).

    Write A as a product of local factors A_i of length l_i with residue
    fields k_i.  Then Tr_A(x) = sum_i l_i * Tr_{k_i/k}(x mod m_i), and each
    k_i/k is separable (k is Q or a prime field), so the kernel of the trace
    form (u, v) -> Tr_A(uv) is the nilradical whenever no l_i is divisible by
    the characteristic.  That holds over Q, and over F_p whenever p > dim,
    since every l_i <= dim.  For p <= dim the trace form can degenerate (it
    vanishes on F_2[x]/(x^2 + 1)), and the radical is the kernel of the
    (linear) iterated Frobenius x -> x^(p^e) with p^e >= dim.  Every basis
    vector of the result is certified nilpotent by explicit powering.
    """
    d = algebra.dim
    field = algebra.field
    if field.p is None or field.p > d:
        basis = nullspace(field, _trace_form(algebra), d)
    else:
        e = 1
        while field.p**e < d:
            e += 1
        images = [algebra.power(algebra.unit_vector(i), field.p**e) for i in range(d)]
        rows = [[images[j][i] for j in range(d)] for i in range(d)]
        basis = nullspace(field, rows, d)
    for vec in basis:
        if not algebra.is_nilpotent(vec):
            raise AssertionError("radical computation produced a non-nilpotent element")
    return [tuple(v) for v in basis]


def _trace_form(algebra: FiniteDimAlgebra) -> list[list[Scalar]]:
    """Gram matrix of (u, v) -> trace of multiplication by u*v on the basis."""
    d = algebra.dim
    p = algebra.field.p
    den, table = algebra._table
    # den * trace of multiplication by each basis vector e_k
    traces = [sum(n for j in range(d) for l, n in table[k][j] if l == j)
              for k in range(d)]
    gram = []
    for i in range(d):
        row = []
        for j in range(d):
            trace = sum(n * traces[l] for l, n in table[i][j])
            row.append(trace % p if p else Fraction(trace, den * den))
        gram.append(row)
    return gram


def is_henselian_pair(algebra: FiniteDimAlgebra,
                      radical: Optional[Sequence[Vector]] = None) -> bool:
    """True iff the ideal lies in the Jacobson radical.

    For artinian commutative algebras this characterizes henselian pairs (a
    finite product of henselian local rings), and it matches the topological
    criterion on the finite spectrum.  A caller that already holds
    `jacobson_radical(algebra)` passes it as `radical`, which is eliminated
    once; each spanning vector of the ideal is then reduced against it.
    """
    if radical is None:
        radical = jacobson_radical(algebra)
    in_radical = span_test(algebra.field, radical)
    return all(in_radical(vec) for vec in algebra.ideal)


@dataclass(frozen=True)
class IdempotentLift:
    element: Vector
    iterations: int


def lift_idempotent(algebra: FiniteDimAlgebra, candidate) -> IdempotentLift:
    """Lift an idempotent of A/I along the algebra's nilpotent ideal I, exactly.

    `candidate` is any representative with candidate^2 - candidate in I.  In
    a commutative ring an ideal generated by nilpotent elements is nilpotent,
    so I is nilpotent iff each spanning vector is.  Its nilpotency index s is
    at most dim A, since I > I^2 > ... > I^s = 0 strictly decreases from
    dim I < dim A.  The iteration e <- 3e^2 - 2e^3 squares the defect ideal
    each round, so it reaches an exact idempotent in at most
    ceil(log2 s) <= bit_length(dim A) steps; both e^2 = e and
    e = candidate mod I are verified before returning.
    """
    candidate = algebra.coerce(candidate)
    if not all(algebra.is_nilpotent(v) for v in algebra.ideal):
        raise ValueError("ideal is not nilpotent")
    in_ideal = span_test(algebra.field, algebra.ideal)
    defect = algebra.sub(algebra.mul(candidate, candidate), candidate)
    if not in_ideal(defect):
        raise ValueError("candidate is not idempotent modulo the ideal")

    e = candidate
    iterations = 0
    max_iterations = algebra.dim.bit_length() + 1
    while True:
        square = algebra.mul(e, e)
        if square == e:
            break
        if iterations >= max_iterations:
            raise AssertionError("idempotent iteration failed to converge")
        cube = algebra.mul(square, e)
        e = algebra.sub(algebra.scale(3, square), algebra.scale(2, cube))
        iterations += 1
    if not in_ideal(algebra.sub(e, candidate)):
        raise AssertionError("lift drifted away from its residue class")
    return IdempotentLift(element=e, iterations=iterations)

