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

A graded presentation with integer coefficients has integer relation rows at
every degree, so each graded component can only grow mod p:
dim_{F_p} E_d >= dim_Q E_d.  The Nakayama verdict reads the constant block
of generators by relations at each generator degree; it says zero exactly
when every block has full row rank, which holds mod p exactly when p divides
none of the gcds of the blocks' maximal minors.  So zero over F_p implies
zero over Q.

A transition with integer entries over k[e]/(e^m) is split-injective
exactly when its residue matrix has full column rank, which holds mod p
exactly when p does not divide the gcd of its maximal minors.  So a
transition that is split-injective mod p is split-injective over Q.
"""

import itertools
from math import gcd

import pytest

from equibundle.exact_core import GF, QQ, LaurentMatrix, LaurentPoly, Polynomial
from equibundle.filtered import EpsRing, FilteredModule, validate_filtered
from equibundle.graded import GradedAlgebra, GradedModulePresentation, nakayama_zero_test
from equibundle.hensel import from_univariate_quotient, jacobson_radical
from equibundle.projline import h0_table, splitting_type
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
    return g


@pytest.mark.parametrize("p", [5, P_LARGE], ids=["F5", "F2^31-1"])
def test_h0_grows_under_reduction_mod_p(rng, p):
    window = 4
    for k in range(30):
        grids = integer_bundle(rng, rng.randint(2, 4), p)
        over_q, over_p = bundle_over(QQ, grids), bundle_over(GF(p), grids)
        assert over_q.det_unit_exponent()[0] == over_p.det_unit_exponent()[0]
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
        b = over(field, grid)
        assert splitting_type(b).degrees == (0, 0), field
        assert h0_table(b, 2) == {-2: 0, -1: 0, 0: 2, 1: 4, 2: 6}, field
    b = over(GF(p), grid)
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


def det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def maximal_minor_gcd(rows, width):
    """gcd of the width x width minors of an integer matrix with `width`
    columns: nonzero exactly when the columns are independent over Q, and
    prime to p exactly when they stay independent mod p.  0 if it has fewer
    rows than columns."""
    return gcd(*(det(list(sub)) for sub in itertools.combinations(rows, width)))


def integer_presentation(rng):
    """Shaped like criterion 04's modules: k[x, y, z] with degrees in
    {1, 2, 3}, n = 1-4 generators of degree 0-3 and up to n + 2 relation
    columns of degree 0-4.  An entry is {monomial: integer} with 1-3 terms, coefficients
    in [-10, 10], so reduction mod 5 drops some terms and keeps others."""
    var_degrees = tuple(rng.choice([1, 2, 3]) for _ in range(3))
    shape = GradedAlgebra(QQ, ("x", "y", "z"), var_degrees)
    n = rng.randint(1, 4)
    gen_degrees = tuple(sorted(rng.randint(0, 3) for _ in range(n)))
    columns = []
    for _ in range(rng.randint(0, n + 2)):
        delta = rng.randint(0, 4)
        col = []
        for m in gen_degrees:
            monos = shape.monomials_of_degree(delta - m) if delta >= m else []
            entry = {}
            if monos and rng.random() < 0.7:
                for mono in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
                    entry[mono] = rng.choice([c for c in range(-10, 11) if c])
            col.append(entry)
        columns.append(col)
    return var_degrees, gen_degrees, columns


def presentation_over(field, data):
    var_degrees, gen_degrees, columns = data
    alg = GradedAlgebra(field, ("x", "y", "z"), var_degrees)
    relations = tuple(tuple(Polynomial(field, 3, {mono: field(c) for mono, c in entry.items()})
                            for entry in col) for col in columns)
    return GradedModulePresentation(alg, gen_degrees, relations)


def constant_blocks(data):
    """degree -> the integer block generators x relation columns of that
    degree, read from the constant terms: Nakayama's reduced presentation."""
    _, gen_degrees, columns = data
    blocks = {}
    for d in sorted(set(gen_degrees)):
        gens = [j for j, m in enumerate(gen_degrees) if m == d]
        # a column whose entry at a generator of degree d is a nonzero
        # constant has degree d; reading every column's constant terms at
        # these generators keeps exactly those columns' nonzero entries
        blocks[d] = [[col[j].get((0, 0, 0), 0) for col in columns] for j in gens]
    return blocks


@pytest.mark.parametrize("p", [5, P_LARGE], ids=["F5", "F2^31-1"])
def test_graded_components_grow_under_reduction_mod_p(rng, p):
    strict_dims = strict_verdicts = zero_q = 0
    for k in range(200):
        data = integer_presentation(rng)
        over_q, over_p = presentation_over(QQ, data), presentation_over(GF(p), data)
        lo, bound = min(data[1]), over_q.default_degree_bound()
        assert over_p.default_degree_bound() == bound
        for d in range(lo, bound + 1):
            dim_q, dim_p = over_q.component_dimension(d), over_p.component_dimension(d)
            assert dim_p >= dim_q, (k, d, dim_q, dim_p)
            strict_dims += dim_p > dim_q
        verdict_q, verdict_p = nakayama_zero_test(over_q), nakayama_zero_test(over_p)
        assert verdict_q.is_zero or not verdict_p.is_zero, k
        zero_q += verdict_q.is_zero
        if verdict_q.is_zero:
            # the block of every degree has full row rank over Q, so its
            # minors have a nonzero gcd; a verdict that p turns to "no"
            # comes with the first degree whose gcd p divides
            gcds = {d: maximal_minor_gcd([list(c) for c in zip(*block)], len(block))
                    for d, block in constant_blocks(data).items()}
            assert all(gcds.values()), (k, gcds)
            divided = [d for d, g in gcds.items() if g % p == 0]
            assert verdict_p.is_zero == (not divided), (k, gcds)
            if divided:
                strict_verdicts += 1
                assert verdict_p.surviving_degree == divided[0], (k, gcds)
    assert zero_q > 5, zero_q
    if p == 5:
        assert strict_dims > 5 and strict_verdicts > 0, (strict_dims, strict_verdicts)


@pytest.mark.parametrize("p", [5, P_LARGE], ids=["F5", "F2^31-1"])
def test_special_prime_keeps_a_generator(p):
    # one generator of degree 0 and the relation column [p]: over Q and the
    # other prime the relation kills the generator; mod p it is zero
    data = ((1, 1, 1), (0,), [[{(0, 0, 0): p}]])
    other = GF(P_LARGE if p == 5 else 5)
    for field in (QQ, other):
        module = presentation_over(field, data)
        assert nakayama_zero_test(module).is_zero, field
        assert module.component_dimension(0) == 0, field
    module = presentation_over(GF(p), data)
    verdict = nakayama_zero_test(module)
    assert not verdict.is_zero and verdict.surviving_degree == 0
    assert module.component_dimension(0) == 1 > presentation_over(QQ, data).component_dimension(0)


def integer_filtered(rng, m):
    """lo, hi, ranks and the maps of a filtered module: 1-4 nondecreasing
    ranks from 1-2, each map entry an m-tuple of integers in [-10, 10].  A
    quarter of the maps get a residue column that is an integer multiple of
    another (or zero), so they fail over Q as well."""
    ranks = [rng.randint(1, 2)]
    for _ in range(rng.randint(0, 3)):
        ranks.append(ranks[-1] + rng.randint(0, 1))
    maps = []
    for a, b in zip(ranks, ranks[1:]):
        mat = [[tuple(rng.randint(-10, 10) for _ in range(m)) for _ in range(a)]
               for _ in range(b)]
        if rng.random() < 0.25:
            c = rng.randint(-2, 2) if a > 1 else 0
            for row in mat:
                row[-1] = (c * row[0][0],) + row[-1][1:]
        maps.append(mat)
    lo = rng.randint(-2, 2)
    return lo, lo + len(ranks) - 1, tuple(ranks), maps


def filtered_failure(field, m, data):
    """validate_filtered's message over the field, None if it passes."""
    module = FilteredModule(EpsRing(field, m), *data)
    try:
        validate_filtered(module)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("p", [5, P_LARGE], ids=["F5", "F2^31-1"])
@pytest.mark.parametrize("m", [1, 2])
def test_split_injectivity_descends_from_p_to_q(rng, p, m):
    strict = fails_q = 0
    for k in range(160):
        data = integer_filtered(rng, m)
        failure_q, failure_p = filtered_failure(QQ, m, data), filtered_failure(GF(p), m, data)
        assert failure_p is not None or failure_q is None, (k, failure_q)
        # the gcd of each residue matrix's maximal minors decides both sides:
        # nonzero over Q, and prime to p mod p
        lo, _, _, maps = data
        gcds = [maximal_minor_gcd([[v[0] for v in row] for row in mat], len(mat[0]))
                for mat in maps]
        assert (failure_q is None) == all(gcds), (k, gcds, failure_q)
        fails_q += failure_q is not None
        if failure_q is None:
            divided = [step for step, g in enumerate(gcds) if g % p == 0]
            assert (failure_p is None) == (not divided), (k, gcds, failure_p)
            if divided:
                strict += 1
                assert failure_p.endswith(f"index {lo + divided[0]} is not a split injection")
    assert fails_q > 5, fails_q
    if p == 5:
        assert strict > 5, strict


@pytest.mark.parametrize("p", [5, P_LARGE], ids=["F5", "F2^31-1"])
@pytest.mark.parametrize("m", [1, 2])
def test_special_prime_breaks_split_injectivity(p, m):
    # E_0 -> E_1 is [[p + e]] (just [[p]] when m = 1): a unit over Q and mod
    # the other prime, and e, not split-injective, mod p
    data = (0, 1, (1, 1), [[[(p, 1)[:m]]]])
    other = GF(P_LARGE if p == 5 else 5)
    for field in (QQ, other):
        assert filtered_failure(field, m, data) is None, field
    assert filtered_failure(GF(p), m, data) == (
        "invalid filtered module: transition at index 0 is not a split injection")
