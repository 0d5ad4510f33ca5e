"""Z-graded modules over Z-graded polynomial algebras.

An algebra is presented by variables with nonzero integer degrees and an
optional list of homogeneous relation polynomials; a module by generator
degrees (a shifted free cover) and homogeneous relation columns.  "Connected"
means all variable degrees are positive, so the degree-zero part is the base
field and the irrelevant ideal has trivial degree-zero part; this is the
instance class on which the zero test and the lifting operations are
certified.  No Groebner machinery: dimensions of graded components are
computed by exact linear algebra on monomial bases, which is all the desk
scale needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from equibundle.exact_core import (
    Field,
    FieldMismatchError,
    Scalar,
    invert_matrix,
    matrix_rank,
    row_reduce,
)

Monomial = tuple[int, ...]


class Polynomial:
    """Sparse multivariate polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("field", "nvars", "_terms")

    def __init__(self, field: Field, nvars: int, terms):
        cleaned = {}
        for mono, coeff in dict(terms).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for {nvars} variables")
            coeff = field.validate(coeff)
            if coeff:
                cleaned[mono] = coeff
        self.field = field
        self.nvars = nvars
        self._terms = cleaned

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "Polynomial":
        return cls(field, nvars, {(0,) * nvars: field(value)})

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int) -> "Polynomial":
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(field, nvars, {mono: field.one})

    @classmethod
    def monomial(cls, field: Field, nvars: int, mono: Monomial, coeff) -> "Polynomial":
        return cls(field, nvars, {tuple(mono): field(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        return sorted(self._terms.items(), reverse=True)

    def coeff(self, mono: Monomial) -> Scalar:
        return self._terms.get(tuple(mono), self.field.zero)

    @property
    def constant_term(self) -> Scalar:
        return self._terms.get((0,) * self.nvars, self.field.zero)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in mono) for mono in self._terms)

    def _check(self, other: "Polynomial"):
        if self.field != other.field or self.nvars != other.nvars:
            raise FieldMismatchError("polynomials over different algebras")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = terms.get(mono, self.field.zero) + coeff
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        return Polynomial(self.field, self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms: dict[Monomial, Scalar] = {}
        zero = self.field.zero
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc = terms.get(mono, zero) + c1 * c2
                if acc:
                    terms[mono] = acc
                else:
                    terms.pop(mono, None)
        return Polynomial(self.field, self.nvars, terms)

    def scaled(self, c) -> "Polynomial":
        c = self.field(c)
        return Polynomial(self.field, self.nvars, {m: c * v for m, v in self._terms.items()})

    def weighted_degree(self, degrees: Sequence[int]) -> Optional[int]:
        """Common weighted degree of all terms, or None if inhomogeneous/zero."""
        seen = {sum(e * d for e, d in zip(mono, degrees)) for mono in self._terms}
        if len(seen) != 1:
            return None
        return seen.pop()

    def is_homogeneous(self, degrees: Sequence[int]) -> bool:
        return self.is_zero or self.weighted_degree(degrees) is not None

    def kill_variables(self, indices) -> "Polynomial":
        """Image under setting the given variables to zero."""
        indices = set(indices)
        terms = {m: c for m, c in self._terms.items()
                 if all(m[i] == 0 for i in indices)}
        return Polynomial(self.field, self.nvars, terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field, self.nvars, self._terms) == (other.field, other.nvars, other._terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self._terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        return "Polynomial(" + " + ".join(f"({c})*x^{m}" for m, c in self.terms()) + ")"


@dataclass(frozen=True)
class GradedAlgebra:
    """Graded polynomial algebra k[x_1..x_r] with nonzero variable degrees."""

    field: Field
    variables: tuple[str, ...]
    degrees: tuple[int, ...]
    relations: tuple[Polynomial, ...] = ()

    def __post_init__(self):
        if len(self.variables) != len(self.degrees):
            raise ValueError("one degree per variable required")
        if any(d == 0 for d in self.degrees):
            raise ValueError("variable degrees must be nonzero")
        for rel in self.relations:
            if rel.nvars != len(self.variables) or rel.field != self.field:
                raise ValueError("relation over the wrong polynomial ring")
            if not rel.is_homogeneous(self.degrees):
                raise ValueError(f"relation {rel!r} is not homogeneous")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.field, self.nvars)

    def one(self) -> Polynomial:
        return Polynomial.constant(self.field, self.nvars, 1)

    def var(self, index: int) -> Polynomial:
        return Polynomial.variable(self.field, self.nvars, index)

    def is_connected(self) -> bool:
        return all(d > 0 for d in self.degrees)

    def monomials_of_degree(self, degree: int, max_total_exponent: Optional[int] = None):
        """All exponent tuples of weighted degree `degree`.

        For a connected algebra the list is finite without any cutoff; for
        mixed signs a total-exponent cutoff is required.
        """
        if max_total_exponent is None:
            if not self.is_connected():
                raise ValueError(
                    "mixed-sign degrees need an explicit total-exponent cutoff"
                )
            if degree < 0:
                return []
            max_total_exponent = degree  # degrees >= 1, so exponents sum <= degree
        out: list[Monomial] = []
        nvars = self.nvars

        def rec(i: int, remaining_total: int, acc: list[int], value: int):
            if i == nvars:
                if value == degree:
                    out.append(tuple(acc))
                return
            for e in range(remaining_total + 1):
                acc.append(e)
                rec(i + 1, remaining_total - e, acc, value + e * self.degrees[i])
                acc.pop()

        rec(0, max_total_exponent, [], 0)
        return out

    def component_dimension(self, degree: int, max_total_exponent: Optional[int] = None) -> int:
        """dim_k of the graded component B_degree (within the cutoff, if any)."""
        monomials = self.monomials_of_degree(degree, max_total_exponent)
        if not self.relations:
            return len(monomials)
        span = self._relation_span(degree, monomials, max_total_exponent)
        return len(monomials) - matrix_rank(self.field, span) if span else len(monomials)

    def _relation_span(self, degree, monomials, max_total_exponent):
        index = {m: i for i, m in enumerate(monomials)}
        rows = []
        for rel in self.relations:
            d = rel.weighted_degree(self.degrees)
            for mono in self.monomials_of_degree(degree - d, max_total_exponent):
                shifted = Polynomial.monomial(self.field, self.nvars, mono, self.field.one) * rel
                row = [self.field.zero] * len(monomials)
                usable = True
                for m, c in shifted.terms():
                    if m not in index:
                        usable = False
                        break
                    row[index[m]] = c
                if usable and any(row):
                    rows.append(row)
        return rows


@dataclass(frozen=True)
class GradedIdeal:
    """Finitely many homogeneous generators of a graded algebra."""

    algebra: GradedAlgebra
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        for gen in self.generators:
            if not gen.is_homogeneous(self.algebra.degrees):
                raise ValueError(f"ideal generator {gen!r} is not homogeneous")

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g.weighted_degree(self.algebra.degrees) for g in self.generators
                     if not g.is_zero)


def irrelevant_ideal(algebra: GradedAlgebra) -> GradedIdeal:
    """The ideal generated by all variables (the irrelevant ideal when connected)."""
    return GradedIdeal(algebra, tuple(algebra.var(i) for i in range(algebra.nvars)))


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointData:
    """Generators of the fixed-point ideal and a presentation of B^0 = B_0/I^0_0.

    The quotient presentation keeps the degree-zero variables, kills (up to
    the recorded exponent cutoff) the minimal degree-zero monomials that
    involve a variable of nonzero degree, and carries the surviving images of
    the algebra relations.
    """

    ideal: GradedIdeal
    zero_degree_variables: tuple[str, ...]
    killed_monomials: tuple[Monomial, ...]
    residual_relations: tuple[Polynomial, ...]
    exponent_cutoff: int


def fixed_point_ideal(algebra: GradedAlgebra, exponent_cutoff: int = 4) -> FixedPointData:
    """Ideal cutting out the fixed locus: generated by everything of nonzero degree."""
    nonzero = [i for i, d in enumerate(algebra.degrees) if d != 0]
    gens = [algebra.var(i) for i in nonzero]
    for rel in algebra.relations:
        d = rel.weighted_degree(algebra.degrees)
        if d is not None and d != 0 and not rel.is_zero:
            gens.append(rel)
    ideal = GradedIdeal(algebra, tuple(gens))

    zero_vars = tuple(algebra.variables[i] for i, d in enumerate(algebra.degrees) if d == 0)
    # Degree-zero monomials involving a nonzero-degree variable die in B^0.
    # Enumerate minimal ones up to the cutoff (minimal: not divisible by a
    # smaller killed monomial).
    killed: list[Monomial] = []
    if not algebra.is_connected() and not all(d < 0 for d in algebra.degrees):
        candidates = [
            m for m in algebra.monomials_of_degree(0, exponent_cutoff)
            if any(m[i] > 0 for i in nonzero)
        ]
        candidates.sort(key=lambda m: (sum(m), m))
        for mono in candidates:
            if not any(all(a >= b for a, b in zip(mono, k)) for k in killed):
                killed.append(mono)
    residual = tuple(
        rel.kill_variables(nonzero)
        for rel in algebra.relations
        if not rel.kill_variables(nonzero).is_zero
    )
    return FixedPointData(
        ideal=ideal,
        zero_degree_variables=zero_vars,
        killed_monomials=tuple(killed),
        residual_relations=residual,
        exponent_cutoff=exponent_cutoff,
    )


# ---------------------------------------------------------------------------
# Graded modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedModulePresentation:
    """Finite presentation: shifted free cover + homogeneous relation columns.

    Generator j lives in degree generator_degrees[j]; a relation column is a
    vector (r_1, ..., r_p) with r_j homogeneous of degree delta - m_j for a
    single delta (the column degree).
    """

    algebra: GradedAlgebra
    generator_degrees: tuple[int, ...]
    relations: tuple[tuple[Polynomial, ...], ...] = ()

    def __post_init__(self):
        degs = []
        for col in self.relations:
            if len(col) != len(self.generator_degrees):
                raise ValueError("relation column length must match generator count")
            degs.append(_column_degree(self.algebra, self.generator_degrees, col))
        object.__setattr__(self, "_column_degrees", tuple(degs))

    @property
    def column_degrees(self) -> tuple[int, ...]:
        return self._column_degrees

    def component_dimension(self, degree: int) -> int:
        """dim_k of the graded component in the given degree (connected algebra)."""
        alg = self.algebra
        if not alg.is_connected():
            raise ValueError("component enumeration requires a connected algebra")
        blocks = [alg.monomials_of_degree(degree - m) for m in self.generator_degrees]
        offsets = [0]
        for block in blocks:
            offsets.append(offsets[-1] + len(block))
        total = offsets[-1]
        if total == 0:
            return 0
        index = [{m: offsets[j] + i for i, m in enumerate(block)}
                 for j, block in enumerate(blocks)]
        rows = []
        # module relations, multiplied by all monomials of the right degree
        for col, delta in zip(self.relations, self.column_degrees):
            if delta is None:  # an all-zero column relates nothing
                continue
            for mono in alg.monomials_of_degree(degree - delta):
                shift = Polynomial.monomial(alg.field, alg.nvars, mono, alg.field.one)
                row = [alg.field.zero] * total
                for j, entry in enumerate(col):
                    if entry.is_zero:
                        continue
                    for m, c in (shift * entry).terms():
                        row[index[j][m]] = c
                if any(row):
                    rows.append(row)
        # algebra relations act coordinatewise
        for rel in alg.relations:
            d = rel.weighted_degree(alg.degrees)
            for j, mj in enumerate(self.generator_degrees):
                for mono in alg.monomials_of_degree(degree - d - mj):
                    shift = Polynomial.monomial(alg.field, alg.nvars, mono, alg.field.one)
                    row = [alg.field.zero] * total
                    for m, c in (shift * rel).terms():
                        row[index[j][m]] = c
                    if any(row):
                        rows.append(row)
        if not rows:
            return total
        return total - matrix_rank(alg.field, rows)

    def default_degree_bound(self) -> int:
        """Enumeration window: max generator degree + 5 (CLI-overridable)."""
        top = max(self.generator_degrees, default=0)
        return top + 5


def _column_degree(algebra, generator_degrees, column):
    degrees = set()
    for entry, m in zip(column, generator_degrees):
        if entry.is_zero:
            continue
        d = entry.weighted_degree(algebra.degrees)
        if d is None:
            raise ValueError("relation entry is not homogeneous")
        degrees.add(d + m)
    if len(degrees) > 1:
        raise ValueError(f"relation column mixes degrees {sorted(degrees)}")
    return degrees.pop() if degrees else None


# ---------------------------------------------------------------------------
# Graded Nakayama
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NakayamaWitness:
    """Certificate that the module vanishes.

    coefficient_matrix A expresses each generator inside the irrelevant
    ideal: (I - A) factors through the relation columns via the scalar
    combination matrix, and A is nilpotent of order at most the generator
    count, so Cayley-Hamilton collapses everything (the leftover unit is
    1 - a with a = 0 here, the degree-zero part of the ideal being zero).
    """

    coefficient_matrix: tuple[tuple[Polynomial, ...], ...]
    combination: tuple[tuple[Scalar, ...], ...]
    nilpotency_order: int


@dataclass(frozen=True)
class NakayamaResult:
    is_zero: bool
    witness: Optional[NakayamaWitness] = None
    surviving_degree: Optional[int] = None

    def __bool__(self):
        return self.is_zero


def nakayama_zero_test(
    module: GradedModulePresentation,
    ideal: Optional[GradedIdeal] = None,
) -> NakayamaResult:
    """Decide whether E/IE = 0; if so certify E = 0 with an explicit witness.

    Certified instance class: connected algebra with I the irrelevant ideal
    (then I has vanishing degree-zero part).  Anything else is rejected: for
    a non-connected algebra, containment of I_0 in the Jacobson radical of
    B_0 has no finite certificate here.
    """
    alg = module.algebra
    if not alg.is_connected():
        raise ValueError(
            "zero test certified only over connected algebras "
            "(I_0 in rad(B_0) is not certifiable in this instance class)"
        )
    if ideal is not None:
        expected = {alg.var(i) for i in range(alg.nvars)}
        if set(ideal.generators) != expected:
            raise ValueError("ideal must be the irrelevant ideal (all variables)")

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
        block = [[module.relations[l][j].constant_term for j in gens_d] for l in cols_d]
        rank = matrix_rank(field, block) if block else 0
        if rank < len(gens_d):
            return NakayamaResult(False, surviving_degree=degree)
        # Pick relations forming an invertible square block M (relations x
        # generators); the scalar combination is its inverse.
        _, pivot_cols = row_reduce(field, [list(r) for r in zip(*block)])
        chosen = [cols_d[c] for c in pivot_cols]
        square = [[module.relations[l][j].constant_term for j in gens_d] for l in chosen]
        inverse = invert_matrix(field, square)
        for row_i, j in enumerate(gens_d):
            for col_i, l in enumerate(chosen):
                combination[j][l] = inverse[row_i][col_i]

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
    check_relations: bool = True,
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
    if check_relations:
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
