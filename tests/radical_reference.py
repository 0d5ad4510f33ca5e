"""The trace-form and Frobenius radical of k[x]/(f), kept as a reference.

Before the nilradical of k[x]/(f) was found as (r)/(f) for r the squarefree
part of f, it was found by linear algebra: as the kernel of the trace form
(u, v) -> Tr(uv) over Q and over F_p with p > dim, and as the kernel of the
iterated Frobenius x -> x^(p^e), p^e >= dim, over F_p with p <= dim.  Every
basis vector was then certified nilpotent by repeated squaring.  This module
keeps that computation, on the algebra's product and the Fraction kernel,
so that tests can compare the gcd radical against it, together with the
element helpers that only tests need.  Nothing in the package imports it.
"""

from fraction_kernel import nullspace


def unit_vector(algebra, index: int):
    """The basis vector x^index of k[x]/(f)."""
    field = algebra.field
    return tuple(field.one if i == index else field.zero for i in range(algebra.dim))


def one(algebra):
    """The unit 1 = x^0 of k[x]/(f)."""
    return unit_vector(algebra, 0)


def power(algebra, a, exponent: int):
    out, base = one(algebra), a
    while exponent:
        if exponent & 1:
            out = algebra.mul(out, base)
        base = algebra.mul(base, base)
        exponent >>= 1
    return out


def is_nilpotent(algebra, a) -> bool:
    """a is nilpotent iff a^(2^k) = 0 once 2^k >= dim.  Squares a until then,
    stopping early at zero."""
    exponent = 1
    while any(a):
        if exponent >= algebra.dim:
            return False
        a = algebra.mul(a, a)
        exponent *= 2
    return True


def trace_form(algebra):
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


def frobenius_kernel(algebra):
    """Kernel of x -> x^(p^e) with p^e >= dim: the radical in any
    characteristic p."""
    p, d = algebra.field.p, algebra.dim
    q = p
    while q < d:
        q *= p
    images = [power(algebra, unit_vector(algebra, i), q) for i in range(d)]
    rows = [[images[j][i] for j in range(d)] for i in range(d)]
    return [tuple(v) for v in nullspace(algebra.field, rows, d)]


def radical_basis(algebra):
    """Basis of the nilradical: the trace-form kernel where every local
    length is prime to the characteristic (Q, or p > dim), the Frobenius
    kernel otherwise, each vector certified nilpotent."""
    field, d = algebra.field, algebra.dim
    if field.p is None or field.p > d:
        basis = [tuple(v) for v in nullspace(field, trace_form(algebra), d)]
    else:
        basis = frobenius_kernel(algebra)
    for vec in basis:
        if not is_nilpotent(algebra, vec):
            raise AssertionError("radical computation produced a non-nilpotent element")
    return basis
