"""Specialization from Q to F_p: laws of upper semicontinuity.

An integer transition matrix g with det g = c * t^w and p not dividing c
defines a bundle over Q and, reduced mod p, one over F_p.  Every section
system has integer coefficients, and its rank mod p is at most its rank over
Q, so h0_{F_p}(m) >= h0_Q(m) at every twist m, with the same degree -w on
both sides.  The law needs no reference implementation; it pins the integer
rows of the Q kernel against the residues of the F_p kernel.

A monic integer f has a radical of k[x]/(f) that can only grow mod p.  Over
Q, f = prod P_i^(e_i) with monic integer P_i (Gauss), and the squarefree
part r_Q = prod P_i is a monic integer polynomial.  Mod p the same product
holds, so the squarefree part r_p of f mod p is that of r_Q mod p:
deg r_p <= deg r_Q, with equality exactly when r_Q mod p is squarefree.
"""

import pytest

from equibundle.exact_core import GF, QQ, LaurentMatrix, LaurentPoly
from equibundle.hensel import from_univariate_quotient, jacobson_radical
from equibundle.projline import BundleOnP1, h0_table, splitting_type
from test_hensel import poly_mul

P_LARGE = 2**31 - 1


def over(field, grid):
    """The matrix over the field of a grid of {exponent: integer} entries."""
    return LaurentMatrix(field, [[LaurentPoly(field, {e: field(c) for e, c in entry.items()})
                                  for entry in row] for row in grid])


def integer_bundle(rng, n, p):
    """Grids of A, D and B with g = A * D * B: A and B products of 2n
    elementary matrices whose entries are integer Laurent polynomials, some
    coefficients divisible by p, and D = diag(c_i t^k_i) with p not dividing
    any c_i."""
    coeffs = [1, -1, 2, -3, p, -p, 2 * p]

    def elementary():
        i, j = rng.sample(range(n), 2)
        grid = [[{0: 1} if a == b else {} for b in range(n)] for a in range(n)]
        grid[i][j] = {rng.randint(-2, 2): rng.choice(coeffs) for _ in range(rng.randint(1, 2))}
        return grid

    units = [c for c in range(-4, 5) if c % p]
    diagonal = [[{rng.randint(-2, 2): rng.choice(units)} if a == b else {} for b in range(n)]
                for a in range(n)]
    return ([elementary() for _ in range(2 * n)], diagonal, [elementary() for _ in range(2 * n)])


def bundle_over(field, grids):
    left, diagonal, right = grids
    g = over(field, diagonal)
    for grid in left:
        g = over(field, grid) @ g
    for grid in right:
        g = g @ over(field, grid)
    return BundleOnP1(g)


@pytest.mark.parametrize("p", [5, P_LARGE], ids=["F5", "F2^31-1"])
def test_h0_grows_under_reduction_mod_p(rng, p):
    window = 4
    for k in range(30):
        grids = integer_bundle(rng, rng.randint(2, 4), p)
        over_q, over_p = bundle_over(QQ, grids), bundle_over(GF(p), grids)
        assert over_q.matrix.det_unit_exponent()[0] == over_p.matrix.det_unit_exponent()[0]
        h0_q, h0_p = h0_table(over_q, window), h0_table(over_p, window)
        assert all(h0_p[m] >= h0_q[m] for m in h0_q), (k, h0_q, h0_p)
        assert splitting_type(over_q).degree == splitting_type(over_p).degree, k


@pytest.mark.parametrize("p", [5, P_LARGE], ids=["F5", "F2^31-1"])
def test_special_prime_unbalances_the_splitting(p):
    # [[t, p], [0, 1/t]] is O + O over Q and over the other prime, and splits
    # as O(1) + O(-1) mod p: the one twist where h0 jumps is m = -1
    grid = [[{1: 1}, {0: p}], [{}, {-1: 1}]]
    other = GF(P_LARGE if p == 5 else 5)
    for field in (QQ, other):
        b = BundleOnP1(over(field, grid))
        assert splitting_type(b).degrees == (0, 0), field
        assert h0_table(b, 2) == {-2: 0, -1: 0, 0: 2, 1: 4, 2: 6}, field
    b = BundleOnP1(over(GF(p), grid))
    assert splitting_type(b).degrees == (1, -1)
    assert h0_table(b, 2) == {-2: 0, -1: 1, 0: 2, 1: 4, 2: 6}


def monic_integer_polynomial(rng):
    """A product of 1-4 random monic integer factors of degree 1-2, each
    repeated 1-3 times, constant first."""
    f = [1]
    for _ in range(rng.randint(1, 4)):
        factor = [rng.randint(-6, 6) for _ in range(rng.randint(1, 2))] + [1]
        for _ in range(rng.randint(1, 3)):
            f = poly_mul(f, factor)
    return f


def radical_of(field, f):
    return jacobson_radical(from_univariate_quotient(field, f))


@pytest.mark.parametrize("p", [5, P_LARGE], ids=["F5", "F2^31-1"])
def test_radical_grows_under_reduction_mod_p(rng, p):
    strict = 0
    for k in range(60):
        f = monic_integer_polynomial(rng)
        r_q, r_p = radical_of(QQ, f), radical_of(GF(p), f)
        assert len(r_p) <= len(r_q), (k, f, r_q, r_p)
        assert all(c.denominator == 1 for c in r_q), (k, f, r_q)
        # a disagreement comes with the factor of r_Q that p makes repeated
        assert radical_of(GF(p), r_q) == r_p, (k, f, r_q, r_p)
        strict += len(r_p) < len(r_q)
    if p == 5:
        assert strict > 5, strict


@pytest.mark.parametrize("p", [5, P_LARGE], ids=["F5", "F2^31-1"])
def test_special_prime_shrinks_the_squarefree_part(p):
    # x^2 - p is squarefree over Q and over the other prime, and is x^2 mod p
    other = GF(P_LARGE if p == 5 else 5)
    for field in (QQ, other):
        assert radical_of(field, [-p, 0, 1]) == tuple(field(c) for c in (-p, 0, 1)), field
    assert radical_of(GF(p), [-p, 0, 1]) == (0, 1)
