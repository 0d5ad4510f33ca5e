"""Specialization from Q to F_p: the h0 law of upper semicontinuity.

An integer transition matrix g with det g = c * t^w and p not dividing c
defines a bundle over Q and, reduced mod p, one over F_p.  Every section
system has integer coefficients, and its rank mod p is at most its rank over
Q, so h0_{F_p}(m) >= h0_Q(m) at every twist m, with the same degree -w on
both sides.  The law needs no reference implementation; it pins the integer
rows of the Q kernel against the residues of the F_p kernel.
"""

import pytest

from equibundle.exact_core import GF, QQ, LaurentMatrix, LaurentPoly
from equibundle.projline import BundleOnP1, h0_table, splitting_type

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
