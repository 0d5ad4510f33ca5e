"""Henselian-pair predicates for finite-dimensional commutative algebras.

The decidable class: a quotient k[x]/(f) of the polynomial ring by a monic f
over an exact field, given by f itself, with a distinguished ideal given by a
spanning set.  A product is the polynomial product reduced mod f, and the
trace of x^k is the k-th power sum of the roots of f, which Newton's
identities give from f's coefficients.  For such (artinian) algebras
"henselian pair" is equivalent to the ideal lying in the Jacobson radical
(= nilradical), the executable face of which is idempotent lifting along
nilpotent ideals.  Graded algebras that are concentrated in nonnegative or
nonpositive degrees form trivially henselian pairs with their irrelevant
ideal; that predicate is purely combinatorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    """k[x]/(f) for a monic f of positive degree d, on the basis 1, x, ...,
    x^(d-1); basis vector 0 is 1.

    `modulus` lists f's coefficients as field elements, constant first and
    ending with 1, and `ideal` spans the distinguished ideal.  Built by
    `from_univariate_quotient`, whose construction proves the ideal closed
    under multiplication.  Element operations reduce mod p over F_p.
    """

    field: Field
    modulus: Vector
    ideal: tuple[Vector, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.modulus) - 1

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

    def _numerators(self, vec: Vector):
        """(den, the integer numerators of vec over den): den is the lcm of
        the denominators of vec over Q, and 1 over F_p."""
        if self.field.p:
            return 1, vec
        den = lcm(*(x.denominator for x in vec))
        return den, [x.numerator * (den // x.denominator) for x in vec]

    def mul(self, a: Vector, b: Vector) -> Vector:
        """The product of a and b in k[x] on integer numerators, reduced mod f
        from the top coefficient down.  Over Q, f's numerators `lead * f`
        end with lead = the lcm of f's denominators: each step that clears a
        top coefficient scales the rest by lead and carries lead into the
        denominator, so the reduction stays on integers."""
        da, na = self._numerators(a)
        db, nb = self._numerators(b)
        lead, f = self._numerators(self.modulus)
        d, p = self.dim, self.field.p
        tail = [(i, c) for i, c in enumerate(f[:d]) if c]
        out = [0] * (2 * d - 1)
        right = [(j, y) for j, y in enumerate(nb) if y]
        for i, x in enumerate(na):
            if x:
                for j, y in right:
                    out[i + j] += x * y
        den = da * db
        for top in range(2 * d - 2, d - 1, -1):
            q = out.pop() % p if p else out.pop()
            if q:
                if lead != 1:
                    out = [lead * v for v in out]
                    den *= lead
                for i, c in tail:
                    out[top - d + i] -= q * c
        if p:
            return tuple(v % p for v in out)
        return tuple(Fraction(v, den) for v in out)

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
    coeffs = tuple(field(c) for c in monic_coeffs)
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
    # The span of x^s * g mod f for s < d is the whole ideal g * k[x]/(f),
    # since x^s for s >= d reduces mod f to lower powers, so it is closed
    # under multiplication.
    return FiniteDimAlgebra(field, coeffs, tuple(ideal_vectors))


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
    """Gram matrix of (u, v) -> trace of multiplication by u*v on the basis.

    The trace of x^k is the power sum s_k of the roots of f, so the matrix is
    the Hankel matrix [s_(i+j)].  For f = sum a_i x^i of degree d, Newton's
    identities give s_0 = d and s_k = -k a_(d-k) - sum_(0<i<k) a_(d-i) s_(k-i),
    with a_(d-i) = 0 for i > d.  They are identities over Z, so they hold in
    every characteristic.
    """
    field, f, d = algebra.field, algebra.modulus, algebra.dim
    terms = [(i, f[d - i]) for i in range(1, d + 1) if f[d - i]]
    sums = [field(d)]
    for k in range(1, 2 * d - 1):
        s = -k * f[d - k] if k <= d else 0
        for i, a in terms:
            if i >= k:
                break
            s -= a * sums[k - i]
        sums.append(field(s))
    return [sums[i:i + d] for i in range(d)]


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

