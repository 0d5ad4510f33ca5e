"""Filtered modules: the bundle model on the quotient of the line by scaling.

A bundle datum is a finite window of free modules E_lo, ..., E_hi over the
base ring together with transition maps T: E_i -> E_{i+1}, each a split
injection (injective with free cokernel); below the window everything is
zero, above it T is an isomorphism.  The colimit E_inf = E_hi then carries a
filtration by direct summands, the associated graded records the cokernel
ranks, and a splitting is a grading of E_inf whose partial sums reproduce the
filtration exactly.  A datum whose ranks drop or whose transition is not a
split injection raises ``ValueError("invalid filtered module: <reason>")``.

Base rings are exact fields or truncated polynomial rings k[eps]/(eps^m); a
field is the case m = 1.  Every decision is linear algebra over the residue
field k: a map is a split injection when its residue matrix has full column
rank (Nakayama), and a splitting is verified in R^n = k^(n*m), where the
R-span of some columns is the k-span of their eps-shifts.  Degrees increase
along the window; the classical decreasing-filtration picture is this one
read through i -> -i.  The document reader reduces each entry of a map where
it reads it, and the module keeps the entries as read; a module built
directly converts every entry into its ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from equibundle.exact_core import (
    Field,
    Scalar,
    _add_row,
    _reduce,
    _sparse,
    matrix_rank,
)
from equibundle.projline import SplittingType


@dataclass(frozen=True)
class EpsRing:
    """Truncated polynomial ring k[eps]/(eps^order); order 1 is the field itself.

    Elements are coefficient tuples of length `order`, whose first entry is
    the residue; all arithmetic is exact, reduced mod p over F_p, and units
    are exactly the elements with invertible constant term.
    """

    field: Field
    order: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("truncation order must be at least 1")

    def __call__(self, value) -> tuple[Scalar, ...]:
        if isinstance(value, tuple):
            if len(value) != self.order:
                raise ValueError(f"expected {self.order} coefficients, got {len(value)}")
            return tuple(map(self.field, value))
        return (self.field(value),) + (self.field.zero,) * (self.order - 1)

    @property
    def zero(self):
        return (self.field.zero,) * self.order

    @property
    def one(self):
        return (self.field.one,) + (self.field.zero,) * (self.order - 1)

    def add(self, a, b):
        p = self.field.p
        return tuple((x + y) % p if p else x + y for x, y in zip(a, b))

    def mul(self, a, b):
        out = [self.field.zero] * self.order
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if i + j >= self.order:
                    break
                if y:
                    out[i + j] += x * y
        p = self.field.p
        return tuple(v % p for v in out) if p else tuple(out)


Matrix = list  # list of rows; rows are lists of ring elements


def mat_identity(ring: EpsRing, n: int) -> Matrix:
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def mat_mul(ring: EpsRing, a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not match")
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new_row = []
        for j in range(cols):
            acc = ring.zero
            for l in range(inner):
                if any(row[l]) and any(b[l][j]):
                    acc = ring.add(acc, ring.mul(row[l], b[l][j]))
            new_row.append(acc)
        out.append(new_row)
    return out


@dataclass(frozen=True)
class FilteredModule:
    """Window of free modules with split-injective transitions.

    ranks[i] is the rank of E_{lo + i}; maps[i] is the matrix of
    T: E_{lo+i} -> E_{lo+i+1} with shape ranks[i+1] x ranks[i].  Outside the
    window: zero below, identity above.
    """

    ring: EpsRing
    lo: int
    hi: int
    ranks: tuple[int, ...]
    maps: tuple[tuple[tuple, ...], ...]

    def __post_init__(self):
        self._check_and_freeze(self.ring)

    @classmethod
    def _of_ring_elements(cls, ring, lo, hi, ranks, maps) -> "FilteredModule":
        """A module whose map entries are ring elements already, as the
        document reader builds them: every shape is checked, and no entry is
        converted again."""
        module = cls.__new__(cls)
        for name, value in zip(("ring", "lo", "hi", "ranks", "maps"), (ring, lo, hi, ranks, maps)):
            object.__setattr__(module, name, value)
        module._check_and_freeze(None)
        return module

    def _check_and_freeze(self, convert) -> None:
        """Check the window and every map's shape, and store the maps as
        tuples, each entry passed through `convert` unless it is None."""
        if self.hi < self.lo:
            raise ValueError("window must satisfy lo <= hi")
        if len(self.ranks) != self.hi - self.lo + 1:
            raise ValueError("one rank per window index required")
        if any(r < 0 for r in self.ranks):
            raise ValueError("ranks must be nonnegative")
        if len(self.maps) != max(0, self.hi - self.lo):
            raise ValueError("one transition map per window step required")
        frozen = []
        for step, mat in enumerate(self.maps):
            a, b = self.ranks[step], self.ranks[step + 1]
            if len(mat) != b or any(len(row) != a for row in mat):
                raise ValueError(
                    f"map {step} must be {b} x {a} (target rank x source rank)")
            frozen.append(tuple(tuple(row if convert is None else map(convert, row))
                                for row in mat))
        object.__setattr__(self, "maps", tuple(frozen))

    def rank(self, index: int) -> int:
        if index < self.lo:
            return 0
        if index > self.hi:
            return self.ranks[-1]
        return self.ranks[index - self.lo]


def validate_filtered(f: FilteredModule) -> None:
    """Check the bundle conditions; raise ``ValueError("invalid filtered
    module: <reason>")`` at the first that fails.

    A transition is a split injection exactly when its residue matrix has
    full column rank, so the verdict is one rank over the residue field.
    """
    ring = f.ring
    for step in range(len(f.maps)):
        if f.ranks[step] > f.ranks[step + 1]:
            raise ValueError(f"invalid filtered module: rank drops at step {f.lo + step}")
        if f.ranks[step] == 0:
            continue
        residues = [[v[0] for v in row] for row in f.maps[step]]
        if matrix_rank(ring.field, residues) < f.ranks[step]:
            raise ValueError(f"invalid filtered module: transition at index "
                             f"{f.lo + step} is not a split injection")


def colimit_module(f: FilteredModule):
    """(rank of E_inf, list of (index, basis matrix of the image of E_i)).

    The image of E_i in E_inf = E_hi is spanned by the columns of the
    composite of the transitions; each is a direct summand.
    """
    validate_filtered(f)
    top_rank = f.ranks[-1]
    steps = []
    composite = mat_identity(f.ring, top_rank)
    # walk downward: composite holds T_{hi-1} ... T_i
    steps.append((f.hi, composite))
    for step in range(len(f.maps) - 1, -1, -1):
        composite = mat_mul(f.ring, composite, [list(r) for r in f.maps[step]])
        steps.append((f.lo + step, composite))
    steps.reverse()
    return top_rank, steps


def associated_graded(f: FilteredModule) -> dict[int, int]:
    """Degree -> rank of the graded piece (cokernel ranks of the transitions).

    Degree i carries rank(E_i) - rank(E_{i-1}); only nonzero entries are kept.
    Total rank is preserved.
    """
    validate_filtered(f)
    out: dict[int, int] = {}
    previous = 0
    for offset, rank in enumerate(f.ranks):
        jump = rank - previous
        if jump:
            out[f.lo + offset] = jump
        previous = rank
    return out


def graded_to_splitting_type(graded: dict[int, int]) -> SplittingType:
    degrees: list[int] = []
    for degree, rank in sorted(graded.items(), reverse=True):
        degrees.extend([degree] * rank)
    return SplittingType(tuple(degrees))


@dataclass(frozen=True)
class FiltrationSplitting:
    """A grading of E_inf whose partial sums equal the filtration exactly.

    basis columns are grouped by degree: block for degree d spans the new
    directions appearing at filtration index d.
    """

    graded_ranks: dict[int, int]
    basis: tuple[tuple[tuple, ...], ...]  # square matrix over the ring, by columns
    degrees_by_column: tuple[int, ...]


def split_filtration(f: FilteredModule) -> FiltrationSplitting:
    """Split the filtration by a grading, constructively.

    Over the residue field one completes bases step by step; over a truncated
    polynomial ring no nilpotent correction is needed: a candidate column is
    accepted exactly when its residue grows the echelon of the residues of
    the columns chosen so far, which by Nakayama makes the chosen columns a
    split injection, and exactness of the partial sums is verified at the end.
    """
    ring = f.ring
    p = ring.field.p
    colimit = colimit_module(f)
    top_rank, steps = colimit
    chosen: list[list] = []   # columns of the splitting basis, in degree order
    degrees: list[int] = []
    echelon: list[tuple[int, dict]] = []  # pivots of the chosen residues
    for index, basis_matrix in steps:
        target = f.rank(index)
        for col_idx in range(len(basis_matrix[0]) if basis_matrix else 0):
            if len(chosen) == target:
                break
            candidate = [basis_matrix[r][col_idx] for r in range(top_rank)]
            _add_row(_sparse([v[0] for v in candidate], p), echelon, p)
            if len(echelon) > len(chosen):
                chosen.append(candidate)
                degrees.append(index)
        if len(chosen) != target:
            raise AssertionError(
                f"could not complete the splitting basis at index {index}")
    graded: dict[int, int] = {}
    for d in degrees:
        graded[d] = graded.get(d, 0) + 1
    splitting = FiltrationSplitting(
        graded_ranks=graded,
        basis=tuple(tuple(col) for col in chosen),
        degrees_by_column=tuple(degrees),
    )
    verify_splitting(f, splitting, colimit)
    return splitting


def verify_splitting(f: FilteredModule, splitting: FiltrationSplitting,
                     colimit=None) -> None:
    """Exact check that partial sums of the grading equal the filtration.

    Over R = k[eps]/(eps^m), R^n is k^(n*m), and the R-span of some columns
    is the k-span of their shifts eps^0 * b, ..., eps^(m-1) * b.  Walking the
    steps upward, the shifts of every basis column of degree <= the index
    join one echelon over k, and the step lies in the partial sum exactly
    when each of its columns reduces to zero against it.  No inverse is
    computed: the last step is (hi, identity), so its containment shows that
    the n basis columns span R^n, which makes the square basis B invertible.
    Containment then gives equality: the step is a direct summand of rank r
    (a composite of validated split injections), the partial sum is free of
    rank r (its columns are part of the basis B), and a direct summand of a
    free module that sits inside a free module of the same rank is all of
    it.  `colimit` is ``colimit_module(f)`` if the caller already holds it.
    """
    ring = f.ring
    m, p, zero = ring.order, ring.field.p, ring.field.zero
    top_rank, steps = colimit_module(f) if colimit is None else colimit
    basis = splitting.basis
    degrees = splitting.degrees_by_column
    lengths = sorted({len(col) for col in basis})
    if not (len(basis) == len(degrees) == top_rank and lengths in ([], [top_rank])):
        raise AssertionError(f"splitting basis has {len(basis)} columns of lengths {lengths} "
                             f"and {len(degrees)} degrees; the top rank is {top_rank}")

    def shifted(col, s):
        """eps^s * col over k: the eps^j coefficient of entry r at j * n + r."""
        return _sparse([zero] * (s * top_rank) + [v[j] for j in range(m - s) for v in col], p)

    by_degree = sorted(range(top_rank), key=degrees.__getitem__)
    echelon: list[tuple[int, dict]] = []
    added = 0
    for index, image in steps:
        rank = f.rank(index)
        if sum(1 for d in degrees if d <= index) != rank:
            raise AssertionError("partial sum has the wrong rank")
        for c in by_degree[added:rank]:
            for s in range(m):
                _add_row(shifted(basis[c], s), echelon, p)
        added = rank
        if any(_reduce(shifted(col, 0), echelon, p) for col in zip(*image)):
            raise AssertionError("filtration step escapes the partial sum")


def iso_class_filtered(f: FilteredModule) -> SplittingType:
    """Complete isomorphism invariant: degrees with graded multiplicities."""
    return graded_to_splitting_type(associated_graded(f))
