"""Z-graded modules over Z-graded polynomial algebras.

An algebra is presented by variables with nonzero integer degrees and an
optional list of homogeneous relation polynomials; a module by generator
degrees (a shifted free cover) and homogeneous relation columns.  "Connected"
means all variable degrees are positive, so the degree-zero part is the base
field and the irrelevant ideal I (generated by all variables) has trivial
degree-zero part; this is the instance class on which the graded Nakayama
zero test, the lifting of maps along B -> B/IB and the isomorphism test are
certified, always with respect to I.  No Groebner machinery: dimensions of
graded components are computed by exact linear algebra on monomial bases,
which is all the desk scale needs.  A module reads its relation columns
once, at construction, as degrees and terms (over Q scaled into primitive
integers); a column's terms times a monomial of the complementary degree
are one sparse row, and the rows of one degree are eliminated once.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import add

from equibundle.exact_core import (
    Field,
    Polynomial,
    Scalar,
    _Value,
    _eliminate,
    _primitive,
    matrix_rank,
    row_reduce,
)

class GradedAlgebra(_Value):
    """Graded polynomial algebra k[x_1..x_r] with nonzero variable degrees."""

    __slots__ = ("field", "variables", "degrees", "relations")

    def __init__(self, field: Field, variables: tuple[str, ...], degrees: tuple[int, ...],
                 relations: tuple[Polynomial, ...] = ()):
        if len(variables) != len(degrees):
            raise ValueError("one degree per variable required")
        if any(d == 0 for d in degrees):
            raise ValueError("variable degrees must be nonzero")
        for rel in relations:
            if rel.nvars != len(variables) or rel.field != field:
                raise ValueError("relation over the wrong polynomial ring")
            if not rel.is_homogeneous(degrees):
                from equibundle.io import render_polynomial
                raise ValueError(f"relation {render_polynomial(rel, variables)} "
                                 "is not homogeneous")
        self.field, self.variables, self.degrees, self.relations = (
            field, variables, degrees, relations)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.field, self.nvars)

    def one(self) -> Polynomial:
        return Polynomial.constant(self.field, self.nvars, 1)

    def is_connected(self) -> bool:
        return all(d > 0 for d in self.degrees)

    def monomials_of_degree(self, degree: int):
        """All exponent tuples of weighted degree `degree` (connected algebra)."""
        if not self.is_connected():
            raise ValueError("monomial enumeration requires a connected algebra")
        # (exponent prefix, weighted degree left for the remaining variables),
        # extended one variable at a time in lexicographic order
        partial = [((), degree)]
        for w in self.degrees:
            partial = [(acc + (e,), left - e * w)
                       for acc, left in partial for e in range(left // w + 1)]
        return [acc for acc, left in partial if left == 0]


# ---------------------------------------------------------------------------
# Graded modules
# ---------------------------------------------------------------------------


class GradedModulePresentation(_Value):
    """Finite presentation: shifted free cover + homogeneous relation columns.

    Generator j lives in degree generator_degrees[j]; a relation column is a
    vector (r_1, ..., r_p) with r_j homogeneous of degree delta - m_j for a
    single delta (the column degree).  ``column_degrees`` lists those
    degrees, None for an all-zero column.  The columns are read once, at
    construction, into ``_columns``: (degree, {(j, exponents): coefficient})
    for each nonzero relation column, then for each algebra relation rel and
    generator j the one-entry column (j, rel) of degree deg(rel) + m_j.  The
    coefficients of a column are validated and nonzero, so over Q one
    scaling into primitive integers serves every row it gives.
    """

    __slots__ = ("algebra", "generator_degrees", "relations", "column_degrees", "_columns")

    def __init__(self, algebra: GradedAlgebra, generator_degrees: tuple[int, ...],
                 relations: tuple[tuple[Polynomial, ...], ...] = ()):
        degrees, columns = [], []
        for k, col in enumerate(relations):
            if len(col) != len(generator_degrees):
                raise ValueError("relation column length must match generator count")
            seen, terms = set(), {}
            for j, (entry, m) in enumerate(zip(col, generator_degrees)):
                if entry.is_zero:
                    continue
                d = entry.weighted_degree(algebra.degrees)
                if d is None:
                    from equibundle.io import render_polynomial
                    text = render_polynomial(entry, algebra.variables)
                    raise ValueError(f"module_relation {k}, entry {j} ({text}) is not homogeneous")
                seen.add(d + m)
                terms.update({(j, e): c for e, c in entry._terms.items()})
            if len(seen) > 1:
                raise ValueError(f"relation column mixes degrees {sorted(seen)}")
            degrees.append(seen.pop() if seen else None)
            if terms:
                columns.append((degrees[-1], terms))
        for rel in algebra.relations:
            d = rel.weighted_degree(algebra.degrees)
            if d is not None:
                columns += [(d + m, {(j, e): c for e, c in rel._terms.items()})
                            for j, m in enumerate(generator_degrees)]
        self.algebra, self.generator_degrees, self.relations = (
            algebra, generator_degrees, relations)
        self.column_degrees = tuple(degrees)
        self._columns = [(delta, _primitive(terms, algebra.field.p)) for delta, terms in columns]

    def component_dimension(self, degree: int) -> int:
        """dim_k of the graded component in the given degree (connected algebra).

        Coordinate block j holds the monomials of degree `degree - m_j`.
        """
        alg = self.algebra
        if not alg.is_connected():
            raise ValueError("component enumeration requires a connected algebra")
        gens, columns = self.generator_degrees, self._columns
        basis = {d: alg.monomials_of_degree(d) for d in
                 {degree - m for m in gens} | {degree - delta for delta, _ in columns}}
        index, total = [], 0
        for m in gens:
            index.append({mono: total + i for i, mono in enumerate(basis[degree - m])})
            total += len(index[-1])
        if total == 0:
            return 0
        # distinct terms of a column land on distinct coordinates of its row
        rows = [{index[j][tuple(map(add, mono, m))]: c for (j, m), c in terms.items()}
                for delta, terms in columns for mono in basis[degree - delta]]
        return total - len(_eliminate(rows, alg.field.p))

    def default_degree_bound(self) -> int:
        """Enumeration window: max generator degree + 5 (CLI-overridable)."""
        top = max(self.generator_degrees, default=0)
        return top + 5


# ---------------------------------------------------------------------------
# Graded Nakayama
# ---------------------------------------------------------------------------


class NakayamaWitness:
    """Certificate that the module vanishes.

    coefficient_matrix A expresses each generator inside the irrelevant
    ideal: (I - A) factors through the relation columns via the scalar
    combination matrix, and A is nilpotent of order at most the generator
    count, so Cayley-Hamilton collapses everything (the leftover unit is
    1 - a with a = 0 here, the degree-zero part of the ideal being zero).
    """

    def __init__(self, coefficient_matrix, combination, nilpotency_order: int):
        self.coefficient_matrix, self.combination = coefficient_matrix, combination
        self.nilpotency_order = nilpotency_order


class NakayamaResult:
    def __init__(self, is_zero: bool, witness: NakayamaWitness | None = None,
                 surviving_degree: int | None = None):
        self.is_zero, self.witness, self.surviving_degree = is_zero, witness, surviving_degree

    def __bool__(self):
        return self.is_zero


def nakayama_zero_test(module: GradedModulePresentation) -> NakayamaResult:
    """Decide whether E/IE = 0; if so certify E = 0 with an explicit witness.

    I is the irrelevant ideal.  Certified instance class: connected algebra
    (then I has vanishing degree-zero part).  A non-connected algebra is
    rejected: there, containment of I_0 in the Jacobson radical of B_0 has
    no finite certificate here.
    """
    alg = module.algebra
    if not alg.is_connected():
        raise ValueError(
            "zero test certified only over connected algebras "
            "(I_0 in rad(B_0) is not certifiable in this instance class)"
        )

    p = len(module.generator_degrees)
    if p == 0:
        return NakayamaResult(True, NakayamaWitness((), (), 0))

    field = alg.field
    gen_degrees = module.generator_degrees
    # Reduction mod I keeps only the scalar parts of relation entries, and a
    # scalar can only appear where the column degree equals the generator
    # degree; the reduced presentation is block diagonal over degrees.
    combination = [[field.zero] * len(module.relations) for _ in range(p)]
    for degree in sorted(set(gen_degrees)):
        gens_d = [j for j, m in enumerate(gen_degrees) if m == degree]
        cols_d = [l for l, delta in zip(range(len(module.relations)), module.column_degrees)
                  if delta == degree]
        # Row-reduce [M | I] with M the reduced block, generators x relations:
        # M has full row rank iff every pivot falls inside M, the pivots then
        # name relations forming an invertible square block, and the
        # recorded transform is its inverse, the scalar combination.
        g, n = len(gens_d), len(cols_d)
        aug = [[module.relations[l][j].constant_term for l in cols_d]
               + [field.one if i == row_i else field.zero for i in range(g)]
               for row_i, j in enumerate(gens_d)]
        reduced, pivots = row_reduce(field, aug)
        if pivots[g - 1] >= n:
            return NakayamaResult(False, surviving_degree=degree)
        for col_i, c in enumerate(pivots):
            for row_i, j in enumerate(gens_d):
                combination[j][cols_d[c]] = reduced[col_i][n + row_i]

    # A = I - S.R over the polynomial ring; constant parts cancel exactly.
    coefficient = []
    for i in range(p):
        row = []
        for j in range(p):
            acc = alg.one() if i == j else alg.zero()
            for l, s in enumerate(combination[i]):
                if s:
                    acc = acc - module.relations[l][j].scaled(s)
            row.append(acc)
        coefficient.append(tuple(row))
    witness = NakayamaWitness(tuple(coefficient), tuple(tuple(r) for r in combination), p)
    verify_nakayama_witness(module, witness)
    return NakayamaResult(True, witness=witness)


def verify_nakayama_witness(module: GradedModulePresentation, witness: NakayamaWitness) -> None:
    """Exact checks: I - A = S.R, A constant-free, A^p = 0.  Raises on failure."""
    alg = module.algebra
    p = len(module.generator_degrees)
    a = witness.coefficient_matrix
    for i in range(p):
        for j in range(p):
            if a[i][j].constant_term:
                raise AssertionError("witness matrix has a constant term")
            expected = alg.one() if i == j else alg.zero()
            acc = a[i][j]
            for l, s in enumerate(witness.combination[i]):
                if s:
                    acc = acc + module.relations[l][j].scaled(s)
            if acc != expected:
                raise AssertionError("witness does not factor through the relations")
    power = [[alg.one() if i == j else alg.zero() for j in range(p)] for i in range(p)]
    for _ in range(witness.nilpotency_order):
        power = [[_dot(alg, power[i], [a[l][j] for l in range(p)]) for j in range(p)]
                 for i in range(p)]
    if any(not entry.is_zero for row in power for entry in row):
        raise AssertionError("witness matrix is not nilpotent of the stated order")


def _dot(alg, row, col):
    acc = alg.zero()
    for r, c in zip(row, col):
        if not r.is_zero and not c.is_zero:
            acc = acc + r * c
    return acc


# ---------------------------------------------------------------------------
# Lifting along B -> B/IB
# ---------------------------------------------------------------------------


def graded_iso_test(
    matrix: Sequence[Sequence[Polynomial]],
    source: GradedModulePresentation,
    target_degrees: Sequence[int],
) -> bool:
    """True iff the reduction of the map mod the irrelevant ideal is bijective.

    The map goes from the presented module to the graded free module with the
    given generator degrees; by graded Nakayama over a connected algebra this
    certifies bijectivity of the map itself.
    """
    alg = source.algebra
    if not alg.is_connected():
        raise ValueError("isomorphism test requires a connected algebra")
    field = alg.field
    p = len(source.generator_degrees)
    q = len(target_degrees)
    if len(matrix) != q or any(len(row) != p for row in matrix):
        raise ValueError(f"matrix must be {q} x {p}")
    for i, ni in enumerate(target_degrees):
        for j, mj in enumerate(source.generator_degrees):
            entry = matrix[i][j]
            if entry.is_zero:
                continue
            if entry.weighted_degree(alg.degrees) != mj - ni:
                raise ValueError(f"entry ({i},{j}) is not homogeneous of degree {mj - ni}")
    for col in source.relations:
        for i in range(q):
            if not _dot(alg, matrix[i], list(col)).is_zero:
                raise ValueError("matrix does not kill the module relations")

    reduced = [[matrix[i][j].constant_term for j in range(p)] for i in range(q)]
    reduced_relations = [[col[j].constant_term for j in range(p)] for col in source.relations]
    # Bijective on k^p / span(relations) -> k^q.
    if matrix_rank(field, reduced) != q:
        return False
    rel_rank = matrix_rank(field, reduced_relations) if reduced_relations else 0
    return rel_rank == p - q


def lift_graded_map(
    reduced_matrix: Sequence[Sequence[Scalar]],
    source: GradedModulePresentation,
    target_degrees: Sequence[int],
) -> tuple[tuple[Polynomial, ...], ...]:
    """Lift a map given mod the irrelevant ideal to a homogeneous map over B.

    Over a connected algebra the residue ring is the base field, so scalars
    lift verbatim; a nonzero scalar is only legal where source and target
    generator degrees agree.
    """
    alg = source.algebra
    if not alg.is_connected():
        raise ValueError("lifting requires a connected algebra")
    field = alg.field
    p = len(source.generator_degrees)
    q = len(target_degrees)
    if len(reduced_matrix) != q or any(len(row) != p for row in reduced_matrix):
        raise ValueError(f"matrix must be {q} x {p}")
    rows = []
    for i, ni in enumerate(target_degrees):
        row = []
        for j, mj in enumerate(source.generator_degrees):
            value = field.validate(field(reduced_matrix[i][j]))
            if value and mj != ni:
                raise ValueError(
                    f"entry ({i},{j}) = {value} violates homogeneity: "
                    f"degrees {mj} vs {ni}"
                )
            row.append(Polynomial.constant(field, alg.nvars, value))
        rows.append(tuple(row))
    return tuple(rows)


def iso_class_graded_free(degrees: Sequence[int]) -> tuple[int, ...]:
    """Canonical form of a graded free module: the sorted degree multiset."""
    return tuple(sorted(int(d) for d in degrees))
