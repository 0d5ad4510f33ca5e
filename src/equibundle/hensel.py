"""Henselian-pair predicates for finite-dimensional commutative algebras.

The decidable class: a quotient k[x]/(f) of the polynomial ring by a monic f
over an exact field, with a distinguished ideal.  k[x]/(f) is a principal
ideal ring: the ideal generated by g_1, ..., g_k is (h)/(f) for the monic
h = gcd(f, g_1, ..., g_k), which holds it.  For such (artinian) algebras
"henselian pair" is equivalent to the ideal lying in the Jacobson radical
(= nilradical), which is (r)/(f) for r the squarefree part of f; so the pair
is henselian iff r divides h.  Everything is decided by univariate gcds and
divisions; the executable face is idempotent lifting along nilpotent ideals.
Graded algebras that are concentrated in nonnegative or nonpositive degrees
form trivially henselian pairs with their irrelevant ideal; that predicate
is purely combinatorial.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from equibundle.exact_core import (
    Field,
    Scalar,
    _Value,
    _as_pivot,
    _normalized,
    _reduce,
    _sparse,
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


class FiniteDimAlgebra(_Value):
    """k[x]/(f) for a monic f of positive degree d, on the basis 1, x, ...,
    x^(d-1); basis vector 0 is 1.

    `modulus` lists f's coefficients as field elements, constant first and
    ending with 1, and the distinguished ideal is (h)/(f) for the monic
    divisor h of f that `generator` lists the same way.  Built by
    `from_univariate_quotient`.  Element operations reduce mod p over F_p.
    """

    __slots__ = ("field", "modulus", "generator")

    def __init__(self, field: Field, modulus: Vector, generator: Vector):
        self.field, self.modulus, self.generator = field, modulus, generator

    @property
    def dim(self) -> int:
        return len(self.modulus) - 1

    @property
    def ideal(self) -> tuple[Vector, ...]:
        """The basis h, x*h, ..., x^(d - deg h - 1)*h of the ideal."""
        h, zero = self.generator, self.field.zero
        n = self.dim + 1 - len(h)
        return tuple((zero,) * i + h + (zero,) * (n - 1 - i) for i in range(n))

    # -- element helpers -----------------------------------------------------

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

    def in_span(self, vec: Vector, spanning: Sequence[Vector]) -> bool:
        return span_test(self.field, spanning)(vec)


# ---------------------------------------------------------------------------
# Univariate polynomials: lists of field elements, constant first
# ---------------------------------------------------------------------------


def _divmod(num, den, field: Field) -> tuple[list, list]:
    """(quotient, remainder) of num by den, whose top coefficient is
    nonzero; the remainder has deg den coefficients."""
    top = len(den) - 1
    inv = field.inv(den[-1])
    tail = [(j, a) for j, a in enumerate(den[:top]) if a]
    rem = list(num)
    quot = [field.zero] * max(len(num) - top, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = field(rem.pop() * inv)
        if c:
            for j, a in tail:
                rem[k + j] = field(rem[k + j] - c * a)
    return quot, rem


def _gcd(a, b, field: Field) -> list:
    """The monic gcd of a nonzero a and b by Euclid's algorithm, on the
    elimination kernel's sparse rows {degree: coefficient}: a mod b is a
    reduced against the shifts x^k * b.  Over Q each remainder is then a
    primitive integer polynomial (the primitive remainder sequence), so the
    coefficients do not grow as Euclid's do over Fractions."""
    p = field.p
    a, b = _sparse(a, p), _sparse(b, p)
    while b:
        top = max(b)
        b = _as_pivot(b, top, p)
        shifts = [(top + k, {c + k: v for c, v in b.items()})
                  for k in range(max(a) - top, -1, -1)]
        a, b = b, _reduce(a, shifts, p)
    top = max(a)
    monic = _normalized(a, top, p)
    return [monic.get(c, field.zero) for c in range(top + 1)]


def _derivative(a, field: Field) -> list:
    return [field(i * c) for i, c in enumerate(a) if i]


def _squarefree_part(f, field: Field) -> list:
    """The product r of the distinct monic irreducible factors of a monic f.

    With g = gcd(f, f'), f / g is the product of the factors whose
    multiplicity the characteristic does not divide, so it is r over Q.
    Over F_p, g without those factors is s(x)^p = s(x^p) for the s whose
    factors are the others, read off every p-th coefficient (a p-th root;
    F_p is perfect).  Then f / r = g / (the squarefree part of s).
    """
    g = _gcd(f, _derivative(f, field), field)
    r, rest = _divmod(f, g, field)[0], g
    if field.p:
        while len(common := _gcd(rest, r, field)) > 1:
            rest = _divmod(rest, common, field)[0]
        if len(rest) > 1:
            g = _divmod(g, _squarefree_part(rest[::field.p], field), field)[0]
            r = _divmod(f, g, field)[0]
    return r


def _nilpotent_modulo(f, h, field: Field) -> bool:
    """True iff every irreducible factor of f divides h, that is, iff
    (h)/(f) is nilpotent: f_0 = f, f_(i+1) = f_i / gcd(f_i, h) reaches 1
    with every gcd nontrivial."""
    while len(f) > 1 and len(common := _gcd(f, h, field)) > 1:
        f = _divmod(f, common, field)[0]
    return len(f) == 1


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def from_univariate_quotient(field: Field, monic_coeffs: Sequence,
                             ideal_generators: Sequence[Sequence] = ()) -> FiniteDimAlgebra:
    """k[x]/(f) for monic f, with basis 1, x, ..., x^(deg-1).

    monic_coeffs lists f's coefficients from the constant up, ending with 1.
    Ideal generators are polynomials in x given the same way (any length).
    They generate (h)/(f) for h = gcd(f, g_1, ..., g_k); with none, h = f
    and the ideal is zero.
    """
    coeffs = tuple(field(c) for c in monic_coeffs)
    if not coeffs or coeffs[-1] != field.one:
        raise ValueError("quotient polynomial must be monic")
    if len(coeffs) < 2:
        raise ValueError("quotient polynomial must have positive degree")
    h = coeffs
    for gen in ideal_generators:
        h = _gcd(h, [field(c) for c in gen], field)
    return FiniteDimAlgebra(field, coeffs, tuple(h))


# ---------------------------------------------------------------------------
# Radical, henselian pairs, idempotent lifting
# ---------------------------------------------------------------------------


def jacobson_radical(algebra: FiniteDimAlgebra) -> Vector:
    """The monic r with (r)/(f) the nilradical (= Jacobson radical in the
    artinian case), listed as f is; the radical has dimension d - deg r.

    r is the squarefree part of f, and it is certified however it was found:
    r divides f; (a) every irreducible factor of f divides r, so (r)/(f) is
    nilpotent; and (b) gcd(r, r') = 1, so k[x]/(r) is reduced (k is
    perfect) and every nilpotent lies in (r)/(f).  If r' = 0 the gcd is r,
    and (b) rejects it.
    """
    field, f = algebra.field, algebra.modulus
    r = _squarefree_part(f, field)
    if any(_divmod(f, r, field)[1]):
        raise AssertionError(f"radical of degree {len(r) - 1} does not divide the modulus")
    if not _nilpotent_modulo(f, r, field):
        raise AssertionError(f"radical of degree {len(r) - 1} misses a factor of the modulus")
    if len(_gcd(r, _derivative(r, field), field)) > 1:
        raise AssertionError(f"radical of degree {len(r) - 1} is not squarefree")
    return tuple(r)


def is_henselian_pair(algebra: FiniteDimAlgebra,
                      radical: Vector | None = None) -> bool:
    """True iff the ideal (h)/(f) lies in the Jacobson radical (r)/(f), that
    is, iff r divides h.

    For artinian commutative algebras this characterizes henselian pairs (a
    finite product of henselian local rings), and it matches the topological
    criterion on the finite spectrum.  A caller that already holds
    `jacobson_radical(algebra)` passes it as `radical`.
    """
    if radical is None:
        radical = jacobson_radical(algebra)
    return not any(_divmod(algebra.generator, radical, algebra.field)[1])


class IdempotentLift:
    def __init__(self, element: Vector, iterations: int):
        self.element, self.iterations = element, iterations


def lift_idempotent(algebra: FiniteDimAlgebra, candidate) -> IdempotentLift:
    """Lift an idempotent of A/I along the algebra's nilpotent ideal I, exactly.

    `candidate` is any representative with candidate^2 - candidate in I.  I
    is (h)/(f), nilpotent iff every irreducible factor of f divides h, which
    the gcd chain of `jacobson_radical`'s check (a) decides, and a vector
    lies in I iff h divides it.  The nilpotency index s of I is at most
    dim A, since I > I^2 > ... > I^s = 0 strictly decreases from
    dim I < dim A.  The iteration e <- 3e^2 - 2e^3 squares the defect ideal
    each round, so it reaches an exact idempotent in at most
    ceil(log2 s) <= bit_length(dim A) steps; both e^2 = e and
    e = candidate mod I are verified before returning.
    """
    candidate = algebra.coerce(candidate)
    field, h = algebra.field, algebra.generator
    if not _nilpotent_modulo(algebra.modulus, h, field):
        raise ValueError("ideal is not nilpotent")
    defect = algebra.sub(algebra.mul(candidate, candidate), candidate)
    if any(_divmod(defect, h, field)[1]):
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
    if any(_divmod(algebra.sub(e, candidate), h, field)[1]):
        raise AssertionError("lift drifted away from its residue class")
    return IdempotentLift(element=e, iterations=iterations)
