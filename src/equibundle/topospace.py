"""Finite spectral spaces as finite posets under specialization.

Convention: leq[x][y] means y lies in the closure of {x} (x specializes to
y), so closed points are maximal, closed sets are up-closed, and opens are
the generization-closed (down-closed) sets.  Every finite poset satisfies the
basis condition for spectral spaces, quotients by connected components are
discrete, and pro-clopen coincides with clopen; the operations below verify
these coincidences rather than assume them.  Subsets are ``int`` bitmasks
(bit x for point x), and pi0 is computed once per poset, memoized on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Iterable, Iterator

ENUMERATION_LIMIT = 16  # enumerate at most 2^16 subsets, clopen sets or open sets


def _bits(mask: int) -> Iterator[int]:
    """The points of a subset, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_limit(what: str, exponent: int, sets: str) -> None:
    if exponent > ENUMERATION_LIMIT:
        raise ValueError(f"{what} enumerates 2^{exponent} {sets}; "
                         f"the limit is 2^{ENUMERATION_LIMIT}")


def _preimage(mapping: tuple[int, ...], subset: int) -> int:
    return sum(1 << x for x, v in enumerate(mapping) if subset >> v & 1)


def _union(masks, subset: int) -> int:
    """The union of masks[i] over the points i of subset."""
    out = 0
    while subset:
        low = subset & -subset
        out |= masks[low.bit_length() - 1]
        subset ^= low
    return out


def _is_monotone(source: FinitePoset, target: FinitePoset, mapping) -> bool:
    return all(target.up[mapping[x]] >> mapping[y] & 1
               for x in range(source.size) for y in _bits(source.up[x]))


@dataclass(frozen=True)
class FinitePoset:
    size: int
    leq: tuple[tuple[bool, ...], ...]  # leq[x][y]: x specializes to y
    up: tuple[int, ...] = field(init=False, repr=False, compare=False)
    down: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _pi0: Pi0 | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        n = self.size
        # from lists: a tuple grown from a generator is resized, fragmenting memory
        matrix = tuple([tuple([bool(v) for v in row]) for row in self.leq])
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("specialization matrix must be n x n")
        object.__setattr__(self, "leq", matrix)
        up = [sum(1 << y for y, v in enumerate(row) if v) for row in matrix]
        if any(not u >> x & 1 for x, u in enumerate(up)):
            raise ValueError("specialization must be reflexive")
        down = [0] * n
        for x, u in enumerate(up):
            for y in _bits(u):
                down[y] |= 1 << x
                if y != x and up[y] >> x & 1:
                    raise ValueError("mutually specializing distinct points")
                if up[y] & ~u:
                    raise ValueError("specialization must be transitive")
        object.__setattr__(self, "up", tuple(up))
        object.__setattr__(self, "down", tuple(down))

    @classmethod
    def from_relations(cls, size: int, relations: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Build from generating pairs (x, y) meaning x specializes to y."""
        rows = [1 << i for i in range(size)]
        for x, y in relations:
            if not (0 <= x < size and 0 <= y < size):
                raise ValueError(f"relation ({x},{y}) out of range")
            rows[x] |= 1 << y
        for k in range(size):  # Warshall: close through k
            for i in range(size):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
        return cls(size, [[bool(r >> j & 1) for j in range(size)] for r in rows])

    @classmethod
    def antichain(cls, size: int) -> "FinitePoset":
        return cls.from_relations(size, [])

    @classmethod
    def chain(cls, size: int) -> "FinitePoset":
        return cls.from_relations(size, [(i, i + 1) for i in range(size - 1)])

    # up[x] and down[x] contain x: a subset is stable iff it is their union over it
    def is_closed(self, subset: int) -> bool:
        """Closed = stable under specialization (up-closed)."""
        return _union(self.up, subset) == subset

    def is_open(self, subset: int) -> bool:
        """Open = stable under generization (down-closed)."""
        return _union(self.down, subset) == subset

    def is_clopen(self, subset: int) -> bool:
        return self.is_closed(subset) and self.is_open(subset)

    def is_discrete(self) -> bool:
        return all(u == 1 << x for x, u in enumerate(self.up))

    def subsets(self) -> Iterable[int]:
        return range(1 << self.size)


@dataclass(frozen=True)
class Pi0:
    """Connected-component data: partition, index map, discrete quotient."""

    components: tuple[frozenset[int], ...]
    component_of: tuple[int, ...]
    quotient: FinitePoset
    masks: tuple[int, ...]  # the components as subsets

    @property
    def count(self) -> int:
        return len(self.components)


def _components(space: FinitePoset) -> list[int]:
    """Components of the comparability graph, ordered by least point."""
    neighbours = [u | d for u, d in zip(space.up, space.down)]
    remaining = (1 << space.size) - 1
    parts = []
    while remaining:
        part = frontier = remaining & -remaining
        while frontier:
            reached = _union(neighbours, frontier)
            frontier = reached & ~part
            part |= reached
        parts.append(part)
        remaining &= ~part
    return parts


def pi0(space: FinitePoset) -> Pi0:
    """Connected components of the comparability graph; discrete quotient.
    Computed once per poset and memoized on it."""
    if space._pi0 is None:
        masks = _components(space)
        object.__setattr__(space, "_pi0", Pi0(
            components=tuple(frozenset(_bits(m)) for m in masks),
            component_of=tuple([next(i for i, m in enumerate(masks) if m >> x & 1)
                                for x in range(space.size)]),
            quotient=FinitePoset.antichain(len(masks)),
            masks=tuple(masks),
        ))
    return space._pi0


def _clopen_unions(space: FinitePoset) -> list[tuple[int, frozenset[int]]]:
    """The 2^|pi0| unions of connected components, as masks and as sets."""
    data = pi0(space)
    _check_limit("clopen", data.count, "unions of components")
    out = [(0, frozenset())]
    for part, points in zip(data.masks, data.components):
        out += [(m | part, s | points) for m, s in out]
    return out


def clopen_sets(space: FinitePoset) -> list[frozenset[int]]:
    """All clopen subsets = unions of connected components (2^|pi0| of them)."""
    n = space.size
    # equal sizes order by sorted points: the lower least differing point comes
    # first, so the bit-reversed mask is larger
    ordered = sorted(_clopen_unions(space),
                     key=lambda u: (len(u[1]), -int(f"{u[0]:0{n}b}"[::-1], 2)))
    return [points for _, points in ordered]


def _pro_clopen(space: FinitePoset, parts: tuple[int, ...], subset: int) -> bool:
    """Closed and a union of the components `parts`; verified to coincide
    with clopen."""
    closed = space.is_closed(subset)
    verdict = closed and all(part & subset in (0, part) for part in parts)
    if verdict != (closed and space.is_open(subset)):
        raise AssertionError(
            "pro-clopen and clopen disagree on a finite space; impossible")
    return verdict


def lemma_b2_verify(space: FinitePoset) -> bool:
    """Brute-force the three inclusion-preserving bijections along p^{-1}.

    closed subsets of pi0 <-> pro-clopen subsets, singletons <-> minimal
    nonempty pro-clopen subsets, clopen <-> clopen; with inverse given by the
    image under p.
    """
    _check_limit("lemma-b2", space.size, "subsets")
    data = pi0(space)
    quotient, parts = data.quotient, data.masks
    preimage = partial(_union, parts)
    image = partial(_union, [1 << c for c in data.component_of])

    def corresponds(sets_q: set[int], sets_x: set[int]) -> bool:
        return ({preimage(s) for s in sets_q} == sets_x and len(sets_x) == len(sets_q)
                and all(image(preimage(s)) == s for s in sets_q))

    pro_clopens = {s for s in space.subsets() if _pro_clopen(space, parts, s)}
    closed_q = {s for s in quotient.subsets() if quotient.is_closed(s)}
    if not corresponds(closed_q, pro_clopens):
        return False
    # by increasing size, a nonempty set is minimal iff it contains no
    # minimal set found before it
    minimal: list[int] = []
    for s in sorted(pro_clopens, key=int.bit_count):
        if s and not any(m & s == m for m in minimal):
            minimal.append(s)
    if not corresponds({1 << i for i in range(quotient.size)}, set(minimal)):
        return False
    clopens_x = {s for s in space.subsets() if space.is_clopen(s)}
    clopens_q = {s for s in quotient.subsets() if quotient.is_clopen(s)}
    return corresponds(clopens_q, clopens_x)


def non_open_preimage(source: FinitePoset, target: FinitePoset,
                      mapping: tuple[int, ...]) -> int | None:
    """A target point whose principal open has a non-open preimage, or None.

    Every open set is a union of the principal opens down[t] (the minimal
    basis of a finite T0 space), so all preimages of opens are open iff these.
    """
    return next((t for t, open_t in enumerate(target.down)
                 if not source.is_open(_preimage(mapping, open_t))), None)


@dataclass(frozen=True)
class MonotoneMap:
    """Specialization-preserving map; continuity is checked on construction."""

    source: FinitePoset
    target: FinitePoset
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(v) for v in self.mapping)
        if len(mapping) != self.source.size:
            raise ValueError("mapping must cover the source")
        if any(not (0 <= v < self.target.size) for v in mapping):
            raise ValueError("mapping value out of range")
        object.__setattr__(self, "mapping", mapping)
        if not _is_monotone(self.source, self.target, mapping):
            raise ValueError("map does not preserve specialization")
        # continuity = openness of preimages, equivalent to monotonicity here;
        # verified directly so the equivalence is exercised, not assumed
        if non_open_preimage(self.source, self.target, mapping) is not None:
            raise AssertionError("monotone map with a non-open preimage; impossible")

    def preimage(self, subset: int) -> int:
        return _preimage(self.mapping, subset)


def pi0_map(f: MonotoneMap) -> tuple[Pi0, Pi0, tuple[int, ...]]:
    """Induced map on connected components."""
    src, tgt = pi0(f.source), pi0(f.target)
    induced = tuple(tgt.component_of[f.mapping[(part & -part).bit_length() - 1]]
                    for part in src.masks)
    return src, tgt, induced


@dataclass(frozen=True)
class PropB3Report:
    clopen_bijection: bool
    pi0_bijective: bool
    pi0_homeomorphism: bool

    @property
    def all_equivalent(self) -> bool:
        return self.clopen_bijection == self.pi0_bijective == self.pi0_homeomorphism

    def __iter__(self):
        return iter((self.clopen_bijection, self.pi0_bijective, self.pi0_homeomorphism))


def prop_b3_check(f: MonotoneMap) -> PropB3Report:
    """Evaluate the three conditions independently and report them."""
    clopens_y = [m for m, _ in _clopen_unions(f.target)]
    clopens_x = {m for m, _ in _clopen_unions(f.source)}
    preimages = {f.preimage(s) for s in clopens_y}
    clopen_bijection = len(preimages) == len(clopens_y) and preimages == clopens_x
    src, tgt, induced = pi0_map(f)
    bijective = len(set(induced)) == src.count and src.count == tgt.count
    homeomorphism = _is_homeomorphism(src.quotient, tgt.quotient, induced)
    return PropB3Report(clopen_bijection, bijective, homeomorphism)


def _is_homeomorphism(source: FinitePoset, target: FinitePoset,
                      mapping: tuple[int, ...]) -> bool:
    if len(set(mapping)) != source.size or source.size != target.size:
        return False
    _check_limit("the homeomorphism test", source.size, "open sets")
    inverse = sorted(range(source.size), key=mapping.__getitem__)

    def continuous(fn, dom: FinitePoset, cod: FinitePoset) -> bool:
        return all(dom.is_open(_preimage(fn, subset))
                   for subset in cod.subsets() if cod.is_open(subset))

    return continuous(mapping, source, target) and continuous(inverse, target, source)


def homeo_criterion(f: MonotoneMap) -> bool:
    """For maps of discrete spaces: clopen bijectivity, compared against a
    direct homeomorphism test (the finite stand-in for the pro-finite case)."""
    if not f.source.is_discrete() or not f.target.is_discrete():
        raise ValueError("criterion applies to discrete spaces only")
    report = prop_b3_check(f)
    direct = _is_homeomorphism(f.source, f.target, f.mapping)
    if report.clopen_bijection != direct:
        raise AssertionError("clopen criterion disagrees with homeomorphism test")
    return report.clopen_bijection


# ---------------------------------------------------------------------------
# Exhaustive generators (used by the verification suites)
# ---------------------------------------------------------------------------


def all_posets(size: int) -> Iterator[FinitePoset]:
    """All posets on `size` labeled points, up to isomorphism and beyond.

    Enumerates exactly the posets whose labeling is a linear extension
    (relation matrix upper triangular); every isomorphism class appears.
    """
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for mask in range(1 << len(pairs)):
        chosen = [pair for b, pair in enumerate(pairs) if mask >> b & 1]
        poset = FinitePoset.from_relations(size, chosen)
        # keep the chosen relations only if they are already transitive
        if sum(u.bit_count() for u in poset.up) == size + len(chosen):
            yield poset


def all_monotone_maps(source: FinitePoset, target: FinitePoset) -> Iterator[MonotoneMap]:
    for values in product(range(target.size), repeat=source.size):
        if _is_monotone(source, target, values):
            yield MonotoneMap(source, target, values)
