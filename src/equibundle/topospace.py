"""Finite spectral spaces as finite posets under specialization.

Subsets are ``int`` bitmasks (bit x for point x), and the relation is stored
once, as up-set masks: bit y of leq[x] is set iff y lies in the closure of {x}
(x specializes to y).  So closed points are maximal, closed sets are
up-closed, and opens are the generization-closed (down-closed) sets.  Every
finite poset satisfies the basis condition for spectral spaces, quotients by
connected components are discrete, and pro-clopen coincides with clopen; the
operations below verify these coincidences rather than assume them.  A poset
is built from generating relations and closed transitively; a cycle (distinct
points that specialize to each other) is the only invalid input.  pi0 is
memoized on its poset.  Each 2^n enumeration reads a union table, table[s] =
the union of masks[i] over the bits i of s: of up-sets it maps s to its
closure, of down-sets to its generization, of a map's fibers to its preimage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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


def _fibers(mapping, size: int) -> list[int]:
    """The preimages of the points 0 .. size - 1."""
    fibers = [0] * size
    for x, v in enumerate(mapping):
        fibers[v] |= 1 << x
    return fibers


def _union_table(masks) -> list[int]:
    """table[s] = the union of masks[i] over the bits i of s; built by doubling."""
    table = [0]
    for mask in masks:
        table += [t | mask for t in table]
    return table


def _union(masks, subset: int) -> int:
    """The union of masks[i] over the points i of subset."""
    out = 0
    while subset:
        low = subset & -subset
        out |= masks[low.bit_length() - 1]
        subset ^= low
    return out


@dataclass(frozen=True, init=False)
class FinitePoset:
    """Built by ``from_relations``, which closes the relations, or ``antichain``."""

    size: int
    leq: tuple[int, ...]  # up-set masks: bit y of leq[x] iff x specializes to y
    up: tuple[int, ...] = field(repr=False, compare=False)  # the same tuple as leq
    down: tuple[int, ...] = field(repr=False, compare=False)
    _pi0: Pi0 | None = field(repr=False, compare=False, default=None)

    @classmethod
    def _of_masks(cls, up: tuple[int, ...], down: tuple[int, ...]) -> "FinitePoset":
        (poset := object.__new__(cls)).__dict__.update(size=len(up), leq=up, up=up, down=down)
        return poset  # _pi0 reads the class default, None, until pi0 sets it

    @classmethod
    def from_relations(cls, size: int, relations: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Build from generating pairs (x, y) meaning x specializes to y."""
        if size < 0:
            raise ValueError(f"poset size {size} is negative")
        rows = [1 << i for i in range(size)]
        for x, y in relations:
            if not (0 <= x < size and 0 <= y < size):
                raise ValueError(f"relation ({x},{y}) out of range")
            rows[x] |= 1 << y
        for k, row in enumerate(rows):  # Warshall: close through k
            if row == 1 << k:  # nothing above k: the step changes no row
                continue
            for i in range(size):
                if rows[i] >> k & 1:
                    rows[i] |= row
        down = [0] * size
        for x, u in enumerate(rows):  # antisymmetry: down[x] has each z < x below x
            if u & down[x] & ((1 << x) - 1):
                raise ValueError("mutually specializing distinct points")
            for y in _bits(u):
                down[y] |= 1 << x
        return cls._of_masks(tuple(rows), tuple(down))

    @classmethod
    def antichain(cls, size: int) -> "FinitePoset":
        if size < 0:
            raise ValueError(f"poset size {size} is negative")
        masks = tuple([1 << i for i in range(size)])
        return cls._of_masks(masks, masks)

    def is_discrete(self) -> bool:
        return all(u == 1 << x for x, u in enumerate(self.up))

    def subsets(self) -> Iterable[int]:
        return range(1 << self.size)


@dataclass(frozen=True)
class Pi0:
    """Connected-component data: the components as subsets and the index map."""

    masks: tuple[int, ...]  # the components as subsets
    component_of: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.masks)

    @property
    def components(self) -> tuple[frozenset[int], ...]:
        return tuple([frozenset(_bits(m)) for m in self.masks])

    @cached_property
    def quotient(self) -> FinitePoset:
        return FinitePoset.antichain(len(self.masks))

    @cached_property
    def _unions(self) -> list[int]:
        """The 2^count clopen subsets: bit i of the index picks component i."""
        _check_limit("clopen", self.count, "unions of components")
        return _union_table(self.masks)


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
        owner = {x: i for i, m in enumerate(masks) for x in _bits(m)}
        object.__setattr__(space, "_pi0", Pi0(
            tuple(masks), tuple([owner[x] for x in range(space.size)])))
    return space._pi0


def clopen_sets(space: FinitePoset) -> list[tuple[int, ...]]:
    """All clopen subsets = unions of connected components (2^|pi0| of them),
    as sorted point tuples, ordered by size and then by their points."""
    data = pi0(space)
    _check_limit("clopen", data.count, "unions of components")
    sets: list[tuple[int, ...]] = [()]
    for points in [tuple(_bits(part)) for part in data.masks]:
        sets += [tuple(sorted(s + points)) for s in sets]
    sets.sort()
    sets.sort(key=len)  # stable: by size, then by points
    return sets


def _pro_clopens(space: FinitePoset, image: list[int], unions: list[int]) -> set[int]:
    """Closed unions of components, verified clopen; image[s]: the components s meets."""
    up, down = _union_table(space.up), _union_table(space.down)
    closed = [s for s in space.subsets() if up[s] == s]
    pro_clopens = {s for s in closed if unions[image[s]] == s}
    if pro_clopens != {s for s in closed if down[s] == s}:
        raise AssertionError("pro-clopen and clopen disagree on a finite space; impossible")
    return pro_clopens


def lemma_b2_verify(space: FinitePoset) -> bool:
    """Brute-force the three inclusion-preserving bijections along p^{-1}.

    closed subsets of pi0 <-> pro-clopen subsets, singletons <-> minimal
    nonempty pro-clopen subsets, clopen <-> clopen; with inverse given by the
    image under p.
    """
    _check_limit("lemma-b2", space.size, "subsets")
    data = pi0(space)
    quotient, preimage = data.quotient, data._unions
    image = _union_table([1 << c for c in data.component_of])

    def corresponds(sets_q: set[int], sets_x: set[int]) -> bool:
        return ({preimage[s] for s in sets_q} == sets_x and len(sets_x) == len(sets_q)
                and all(image[preimage[s]] == s for s in sets_q))

    # the clopen subsets of X too: _pro_clopens verifies the two coincide
    pro_clopens = _pro_clopens(space, image, preimage)
    up_q, down_q = _union_table(quotient.up), _union_table(quotient.down)
    closed_q = {s for s in quotient.subsets() if up_q[s] == s}
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
    return corresponds({s for s in closed_q if down_q[s] == s}, pro_clopens)


def non_open_preimage(source: FinitePoset, target: FinitePoset,
                      mapping: tuple[int, ...]) -> int | None:
    """A target point whose principal open has a non-open preimage, or None.

    Every open set is a union of the principal opens down[t] (the minimal
    basis of a finite T0 space), so all preimages of opens are open iff these.
    """
    fibers = _fibers(mapping, target.size)
    preimages = [_union(fibers, open_t) for open_t in target.down]
    return next((t for t, p in enumerate(preimages) if _union(source.down, p) != p), None)


@dataclass(frozen=True)
class MonotoneMap:
    """Specialization-preserving map; continuity is checked on construction."""

    source: FinitePoset
    target: FinitePoset
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple([int(v) for v in self.mapping])
        if len(mapping) != self.source.size:
            raise ValueError("mapping must cover the source")
        if any(not (0 <= v < self.target.size) for v in mapping):
            raise ValueError("mapping value out of range")
        object.__setattr__(self, "mapping", mapping)
        images, up = [1 << v for v in mapping], self.target.up  # f(up[x]) <= up[f(x)]
        if any(_union(images, u) & ~up[v] for u, v in zip(self.source.up, mapping)):
            raise ValueError("map does not preserve specialization")
        # continuity = openness of preimages, equivalent to monotonicity here;
        # verified directly so the equivalence is exercised, not assumed
        if non_open_preimage(self.source, self.target, mapping) is not None:
            raise AssertionError("monotone map with a non-open preimage; impossible")


def pi0_map(f: MonotoneMap) -> tuple[Pi0, Pi0, tuple[int, ...]]:
    """Induced map on connected components."""
    src, tgt = pi0(f.source), pi0(f.target)
    induced = tuple([tgt.component_of[f.mapping[(part & -part).bit_length() - 1]]
                     for part in src.masks])
    return src, tgt, induced


@dataclass(frozen=True)
class PropB3Report:
    clopen_bijection: bool
    pi0_bijective: bool
    pi0_homeomorphism: bool

    @property
    def all_equivalent(self) -> bool:
        return self.clopen_bijection == self.pi0_bijective == self.pi0_homeomorphism


def prop_b3_check(f: MonotoneMap) -> PropB3Report:
    """Evaluate the three conditions independently and report them."""
    src, tgt, induced = pi0_map(f)
    clopens_y, clopens_x = tgt._unions, src._unions
    # preimage commutes with union: these are the preimages of clopens_y
    preimages = set(_union_table(_fibers([tgt.component_of[v] for v in f.mapping], tgt.count)))
    clopen_bijection = len(preimages) == len(clopens_y) and preimages == set(clopens_x)
    bijective = len(set(induced)) == src.count and src.count == tgt.count
    homeomorphism = _is_homeomorphism(src.quotient, tgt.quotient, induced)
    return PropB3Report(clopen_bijection, bijective, homeomorphism)


def _is_homeomorphism(source: FinitePoset, target: FinitePoset,
                      mapping: tuple[int, ...]) -> bool:
    if len(set(mapping)) != source.size or source.size != target.size:
        return False
    _check_limit("the homeomorphism test", source.size, "open sets")
    inverse = sorted(range(source.size), key=mapping.__getitem__)
    down_s, down_t = _union_table(source.down), _union_table(target.down)

    def continuous(fn, dom: list[int], cod: list[int]) -> bool:  # open u: cod[u] == u
        preimage = _union_table(_fibers(fn, len(fn)))
        return all(dom[p] == p for u, (g, p) in enumerate(zip(cod, preimage)) if g == u)

    return continuous(mapping, down_s, down_t) and continuous(inverse, down_t, down_s)


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
    """Every monotone map, in lexicographic order: point y goes, in label order,
    above the images of the earlier points below it and below those above it."""
    def extend(values: tuple[int, ...]) -> Iterator[MonotoneMap]:
        y = len(values)
        if y == source.size:
            yield MonotoneMap(source, target, values)
            return
        allowed, earlier = (1 << target.size) - 1, (1 << y) - 1
        for x in _bits(source.down[y] & earlier):
            allowed &= target.up[values[x]]
        for x in _bits(source.up[y] & earlier):
            allowed &= target.down[values[x]]
        for t in _bits(allowed):
            yield from extend(values + (t,))

    yield from extend(())
