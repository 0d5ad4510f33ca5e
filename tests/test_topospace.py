import os
import time
from dataclasses import astuple
from itertools import product

import pytest

from equibundle import topospace
from equibundle.cli import main
from equibundle.topospace import (
    ENUMERATION_LIMIT,
    FinitePoset,
    MonotoneMap,
    all_monotone_maps,
    all_posets,
    clopen_sets,
    homeo_criterion,
    lemma_b2_verify,
    non_open_preimage,
    pi0,
    pi0_map,
    prop_b3_check,
)
from equibundle.topospace import _is_homeomorphism, _pro_clopens, _union_table


def matrix(poset):
    """The relation as a bool matrix, read off the up-set masks: [x][y] iff x
    specializes to y."""
    return tuple(tuple(bool(u >> y & 1) for y in range(poset.size)) for u in poset.leq)


def chain(size):
    """0 specializes to 1, 1 to 2, and so on."""
    return FinitePoset.from_relations(size, [(i, i + 1) for i in range(size - 1)])


def pro_clopens(space):
    """The pro-clopen subsets as lemma_b2_verify finds them, on the space's pi0."""
    data = pi0(space)
    return _pro_clopens(space, _union_table([1 << c for c in data.component_of]), data._unions)


class TestPoset:
    def test_rejects_mutual_specialization(self):
        with pytest.raises(ValueError, match="mutually specializing distinct points"):
            FinitePoset.from_relations(2, [(0, 1), (1, 0)])

    def test_closure_builder(self):
        poset = FinitePoset.from_relations(3, [(0, 1), (1, 2)])
        assert matrix(poset)[0][2]
        assert poset.leq == poset.up == (0b111, 0b110, 0b100)
        assert poset.down == (0b001, 0b011, 0b111)

    def test_antichain_is_the_poset_with_no_relations(self, rng):
        for size in [*range(0, 12), rng.randint(12, 40)]:
            built, closed = FinitePoset.antichain(size), FinitePoset.from_relations(size, ())
            assert built == closed and hash(built) == hash(closed)
            assert built.leq == closed.leq == built.down == closed.down
            assert built.leq == tuple(1 << i for i in range(size))
        for build in (FinitePoset.antichain, lambda size: FinitePoset.from_relations(size, ())):
            with pytest.raises(ValueError, match="poset size -1 is negative"):
                build(-1)

    def test_equal_posets_compare_and_hash_equal(self, rng):
        for n, pairs in random_relabelled_posets(rng, 100):
            poset = FinitePoset.from_relations(n, pairs)
            # the same order from its whole relation, listed in another order
            relation = [(x, y) for x, row in enumerate(matrix(poset))
                        for y, below in enumerate(row) if below]
            rng.shuffle(relation)
            again = FinitePoset.from_relations(n, relation)
            assert again == poset and hash(again) == hash(poset)
            assert again.down == poset.down
            if any(x != y for x, y in relation):  # posets differ where their relations do
                smaller = FinitePoset.from_relations(n, [p for p in pairs if p != pairs[0]])
                assert (smaller == poset) == (matrix(smaller) == matrix(poset))

    def test_opens_are_generization_closed(self):
        poset = chain(2)  # 0 specializes to 1; closed point is 1
        assert _union_table(poset.up)[0b10] == 0b10
        assert _union_table(poset.down)[0b01] == 0b01
        assert _union_table(poset.down)[0b10] != 0b10


class TestPi0:
    def test_antichain(self):
        assert pi0(FinitePoset.antichain(3)).count == 3

    def test_chain(self):
        assert pi0(chain(2)).count == 1

    def test_two_generic_points_one_specialization(self):
        poset = FinitePoset.from_relations(3, [(0, 2), (1, 2)])
        assert pi0(poset).count == 1

    def test_quotient_is_discrete(self):
        poset = FinitePoset.from_relations(4, [(0, 1), (2, 3)])
        assert pi0(poset).quotient.is_discrete()

    def test_functoriality_sampled(self):
        posets = [chain(2), FinitePoset.antichain(2),
                  FinitePoset.from_relations(3, [(0, 2), (1, 2)])]
        for x in posets:
            for y in posets:
                for f in all_monotone_maps(x, y):
                    for z in posets:
                        for g in all_monotone_maps(y, z):
                            gf_map = MonotoneMap(x, z, tuple(g.mapping[v] for v in f.mapping))
                            _, _, gf = pi0_map(gf_map)
                            _, _, f0 = pi0_map(f)
                            _, _, g0 = pi0_map(g)
                            assert gf == tuple(g0[v] for v in f0)


class TestClopen:
    def test_connected_space(self):
        sets = clopen_sets(chain(4))
        assert [frozenset(s) for s in sets] == [frozenset(), frozenset({0, 1, 2, 3})]

    def test_two_components(self):
        poset = FinitePoset.from_relations(3, [(0, 1)])
        assert len(clopen_sets(poset)) == 4

    def test_empty_space(self):
        assert [frozenset(s) for s in clopen_sets(FinitePoset.from_relations(0, ()))] == [frozenset()]

    def test_count_is_power_of_components(self, rng):
        for poset in list(all_posets(4))[:25]:
            assert len(clopen_sets(poset)) == 2 ** pi0(poset).count


class TestProClopen:
    def test_single_component(self):
        poset = FinitePoset.from_relations(3, [(0, 1)])
        assert 0b011 in pro_clopens(poset)

    def test_non_closed_singleton(self):
        poset = chain(2)
        assert 0b01 not in pro_clopens(poset)

    def test_empty(self):
        assert 0 in pro_clopens(chain(3))


class TestLemmaB2:
    def test_antichain3(self):
        assert lemma_b2_verify(FinitePoset.antichain(3))

    def test_chain4(self):
        assert lemma_b2_verify(chain(4))

    def test_exhaustive_small(self):
        for size in range(0, 4):
            for poset in all_posets(size):
                assert lemma_b2_verify(poset)


class TestPropB3:
    def test_identity(self):
        poset = FinitePoset.from_relations(3, [(0, 2), (1, 2)])
        report = prop_b3_check(MonotoneMap(poset, poset, (0, 1, 2)))
        assert astuple(report) == (True, True, True)

    def test_constant_map_from_disconnected(self):
        source = FinitePoset.antichain(2)
        target = FinitePoset.antichain(1)
        report = prop_b3_check(MonotoneMap(source, target, (0, 0)))
        assert astuple(report) == (False, False, False)
        assert report.all_equivalent

    def test_collapse_of_connected(self):
        source = FinitePoset.from_relations(3, [(0, 2), (1, 2)])
        target = FinitePoset.antichain(1)
        report = prop_b3_check(MonotoneMap(source, target, (0, 0, 0)))
        assert astuple(report) == (True, True, True)

    def test_equivalence_exhaustive_tiny(self):
        for sx in range(0, 3):
            for sy in range(1, 3):
                for x in all_posets(sx):
                    for y in all_posets(sy):
                        for f in all_monotone_maps(x, y):
                            assert prop_b3_check(f).all_equivalent


class TestHomeoCriterion:
    def test_bijection_of_discrete(self):
        three = FinitePoset.antichain(3)
        assert homeo_criterion(MonotoneMap(three, three, (2, 0, 1)))

    def test_non_injective(self):
        assert not homeo_criterion(
            MonotoneMap(FinitePoset.antichain(2), FinitePoset.antichain(2), (0, 0)))

    def test_non_surjective(self):
        assert not homeo_criterion(
            MonotoneMap(FinitePoset.antichain(1), FinitePoset.antichain(2), (0,)))

    def test_rejects_non_discrete(self):
        line = chain(2)
        with pytest.raises(ValueError):
            homeo_criterion(MonotoneMap(line, line, (0, 1)))


class TestEnumeration:
    def test_poset_counts(self):
        # posets with a fixed linear extension: 1, 1, 2, 7, 40 for n = 0..4
        assert [sum(1 for _ in all_posets(n)) for n in range(5)] == [1, 1, 2, 7, 40]

    def test_monotone_map_counts_discrete(self):
        x, y = FinitePoset.antichain(2), FinitePoset.antichain(3)
        assert sum(1 for _ in all_monotone_maps(x, y)) == 9

    def test_monotone_maps_match_the_filtered_product(self, rng):
        small = [p for n in range(0, 4) for p in all_posets(n)]
        pairs = [(x, y) for x in small for y in small]
        for _ in range(30):
            x, y = (FinitePoset.from_relations(n, rels) for n, rels in
                    random_relabelled_posets(rng, 2, sizes=(4, 5)))
            pairs.append((x, y))
        for x, y in pairs:
            assert [f.mapping for f in all_monotone_maps(x, y)] == \
                ref_monotone_maps(matrix(x), matrix(y))

    def test_monotone_map_count_over_criterion_08_posets(self):
        posets = [p for n in range(0, 5) for p in all_posets(n)]
        assert sum(1 for x in posets for y in posets for _ in all_monotone_maps(x, y)) == 101_167

    def test_union_table_matches_per_subset_unions(self, rng):
        for n in range(0, 9):
            masks = [rng.getrandbits(12) for _ in range(n)]
            table = _union_table(masks)
            assert len(table) == 1 << n
            for s in range(1 << n):
                expected = 0
                for i in range(n):
                    if s >> i & 1:
                        expected |= masks[i]
                assert table[s] == expected


# ---------------------------------------------------------------------------
# Reference: the frozenset implementation the bitmask one replaced, kept
# verbatim apart from working on a bare leq matrix and testing each subset for
# closedness once (ref_closed_and_clopen).
# ---------------------------------------------------------------------------


def ref_validate(size, leq):
    n = size
    matrix = tuple(tuple(bool(v) for v in row) for row in leq)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("specialization matrix must be n x n")
    for x in range(n):
        if not matrix[x][x]:
            raise ValueError("specialization must be reflexive")
    for x in range(n):
        for y in range(n):
            if x != y and matrix[x][y] and matrix[y][x]:
                raise ValueError("mutually specializing distinct points")
            if matrix[x][y]:
                for z in range(n):
                    if matrix[y][z] and not matrix[x][z]:
                        raise ValueError("specialization must be transitive")


def ref_closure(size, relations):
    leq = [[i == j for j in range(size)] for i in range(size)]
    for x, y in relations:
        leq[x][y] = True
    changed = True
    while changed:
        changed = False
        for x in range(size):
            for y in range(size):
                if leq[x][y]:
                    for z in range(size):
                        if leq[y][z] and not leq[x][z]:
                            leq[x][z] = True
                            changed = True
    return tuple(tuple(row) for row in leq)


def ref_is_closed(leq, subset):
    return all(leq[x][y] <= (y in subset) for x in subset for y in range(len(leq)))


def ref_closed_and_clopen(leq):
    """{subset: (closed, clopen)} for every subset, one closedness test each:
    a subset is clopen iff it and its complement are closed."""
    everything = frozenset(range(len(leq)))
    closed = {s: ref_is_closed(leq, s) for s in ref_subsets(len(leq))}
    return {s: (c, c and closed[everything - s]) for s, c in closed.items()}


def ref_subsets(size):
    for mask in range(1 << size):
        yield frozenset(e for e in range(size) if mask & (1 << e))


def ref_pi0(leq):
    n = len(leq)
    label = [-1] * n
    components = []
    for start in range(n):
        if label[start] != -1:
            continue
        index = len(components)
        stack = [start]
        label[start] = index
        bucket = [start]
        while stack:
            x = stack.pop()
            for y in range(n):
                if label[y] == -1 and (leq[x][y] or leq[y][x]):
                    label[y] = index
                    stack.append(y)
                    bucket.append(y)
        components.append(bucket)
    return tuple(frozenset(b) for b in components), tuple(label)


def ref_clopen_sets(leq):
    parts = ref_pi0(leq)[0]
    out = []
    for mask in range(1 << len(parts)):
        subset = frozenset()
        for i, part in enumerate(parts):
            if mask & (1 << i):
                subset |= part
        out.append(subset)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def ref_monotone_maps(source_leq, target_leq):
    """Every mapping of the product that preserves specialization, in order."""
    n = len(source_leq)
    return [values for values in product(range(len(target_leq)), repeat=n)
            if all(target_leq[values[x]][values[y]]
                   for x in range(n) for y in range(n) if source_leq[x][y])]


def ref_pro_clopen_check(subset, parts, closed, clopen):
    """`parts` are the components of the space, as ref_pi0 gives them;
    `closed` and `clopen` say whether the subset is closed and clopen."""
    subset = frozenset(subset)
    union_of_components = all(part <= subset or not (part & subset) for part in parts)
    verdict = closed and union_of_components
    if verdict != clopen:
        raise AssertionError("pro-clopen and clopen disagree on a finite space; impossible")
    return verdict


def ref_lemma_b2_verify(leq):
    parts, component_of = ref_pi0(leq)
    quotient = tuple(tuple(i == j for j in range(len(parts))) for i in range(len(parts)))

    def preimage(sub_q):
        out = frozenset()
        for i in sub_q:
            out |= parts[i]
        return out

    def image(sub_x):
        return frozenset(component_of[x] for x in sub_x)

    table_x, table_q = ref_closed_and_clopen(leq), ref_closed_and_clopen(quotient)
    pro_clopens = {s for s, flags in table_x.items() if ref_pro_clopen_check(s, parts, *flags)}
    closed_q = {s for s, (closed, _) in table_q.items() if closed}
    mapped = {preimage(s) for s in closed_q}
    if mapped != pro_clopens or len(mapped) != len(closed_q):
        return False
    if any(image(preimage(s)) != s for s in closed_q):
        return False
    minimal = {s for s in pro_clopens if s and not any(t and t < s for t in pro_clopens)}
    if {preimage(frozenset([i])) for i in range(len(parts))} != minimal:
        return False
    clopens_x = {s for s, (_, clopen) in table_x.items() if clopen}
    clopens_q = {s for s, (_, clopen) in table_q.items() if clopen}
    if {preimage(s) for s in clopens_q} != clopens_x:
        return False
    return all(image(preimage(s)) == s for s in clopens_q)


def as_mask(subset):
    return sum(1 << x for x in subset)


def random_relabelled_posets(rng, count, sizes=(0, 10)):
    """Random posets of sizes in the closed range `sizes`, density 0.2-0.6,
    with shuffled labels."""
    out = []
    for _ in range(count):
        n = rng.randint(*sizes)
        density = rng.uniform(0.2, 0.6)
        labels = list(range(n))
        rng.shuffle(labels)
        pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        out.append((n, pairs))
    return out


def first_error(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestAgainstReference:
    def check(self, poset):
        leq = matrix(poset)
        assert all(bool(poset.down[y] >> x & 1) == leq[x][y]
                   for x in range(poset.size) for y in range(poset.size))
        components, component_of = ref_pi0(leq)
        data = pi0(poset)
        assert data.components == components
        assert data.component_of == component_of
        assert data.masks == tuple(as_mask(c) for c in components)
        assert matrix(data.quotient) == tuple(
            tuple(i == j for j in range(len(components))) for i in range(len(components)))
        assert data.quotient is pi0(poset).quotient
        assert [frozenset(s) for s in clopen_sets(poset)] == ref_clopen_sets(leq)
        found = pro_clopens(poset)
        closure, generization = _union_table(poset.up), _union_table(poset.down)
        for subset, (ref_closed, ref_clopen) in ref_closed_and_clopen(leq).items():
            mask = as_mask(subset)
            assert (mask in found) == ref_pro_clopen_check(subset, components,
                                                           ref_closed, ref_clopen)
            closed = closure[mask] == mask
            assert closed == ref_closed
            assert (closed and generization[mask] == mask) == ref_clopen
        assert lemma_b2_verify(poset) == ref_lemma_b2_verify(leq)

    def test_every_small_poset(self):
        for size in range(0, 6):
            for poset in all_posets(size):
                self.check(poset)

    def test_random_relabelled_posets(self, rng):
        for n, pairs in random_relabelled_posets(rng, 200):
            poset = FinitePoset.from_relations(n, pairs)
            assert matrix(poset) == ref_closure(n, pairs)
            self.check(poset)

    def test_from_relations_matches_closure_or_error(self, rng):
        # arbitrary relations, cycles included: the same matrix or the same error
        for _ in range(300):
            n = rng.randint(1, 7)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
            leq = ref_closure(n, pairs)
            expected = first_error(lambda: ref_validate(n, leq))
            assert first_error(lambda: FinitePoset.from_relations(n, pairs)) == expected
            if expected is None:
                assert matrix(FinitePoset.from_relations(n, pairs)) == leq

    def test_pi0_is_memoized_per_poset(self):
        first, second = chain(3), FinitePoset.antichain(3)
        assert pi0(first) is pi0(first)
        assert pi0(second).count == 3 and pi0(first).count == 1


class TestContinuity:
    def test_flipped_chain_has_a_non_open_preimage(self):
        line = chain(3)
        # 0 -> 2, 2 -> 0 reverses specialization: {0} is open, its preimage {2} is not
        assert non_open_preimage(line, line, (2, 1, 0)) == 0
        with pytest.raises(ValueError, match="does not preserve specialization"):
            MonotoneMap(line, line, (2, 1, 0))

    def test_monotone_maps_have_open_preimages(self):
        posets = [p for n in range(0, 4) for p in all_posets(n)]
        for x in posets:
            for y in posets:
                for f in all_monotone_maps(x, y):
                    assert non_open_preimage(x, y, f.mapping) is None

    def test_non_monotone_maps_are_caught_on_principal_opens(self):
        # for each non-monotone mapping some principal open pulls back to a
        # non-open set, so the principal-open test is a real check
        posets = [p for n in range(1, 4) for p in all_posets(n)]
        caught = 0
        for x in posets:
            for y in posets:
                leq_x, leq_y = matrix(x), matrix(y)
                for values in product(range(y.size), repeat=x.size):
                    monotone = all(leq_y[values[a]][values[b]]
                                   for a in range(x.size) for b in range(x.size)
                                   if leq_x[a][b])
                    found = non_open_preimage(x, y, values)
                    assert (found is None) == monotone
                    if monotone:
                        assert MonotoneMap(x, y, values).mapping == values
                    else:
                        with pytest.raises(ValueError, match="does not preserve specialization"):
                            MonotoneMap(x, y, values)
                    caught += found is not None
        assert caught > 100


class TestClopenReport:
    def test_matches_the_reference_on_relabelled_unions(self, rng, tmp_path, capsys):
        for count in list(range(1, 11)) * 2:  # components
            rels, n = [], 0
            for _ in range(count):
                size = rng.randint(1, 3)
                if size == 3 and rng.random() < 0.5:  # a vee above point n
                    rels += [(n + 1, n), (n + 2, n)]
                else:  # a chain
                    rels += [(n + i, n + i + 1) for i in range(size - 1)]
                n += size
            labels = list(range(n))
            rng.shuffle(labels)
            rels = [(labels[x], labels[y]) for x, y in rels]
            path = tmp_path / "poset.txt"
            path.write_text(f"kind = poset\nn = {n}\n"
                            + "".join(f"rel = {x}<{y}\n" for x, y in rels))
            assert main(["clopen", str(path)]) == 0
            expected = ref_clopen_sets(ref_closure(n, rels))
            lines = ["report = clopen", f"count = {len(expected)}"] + [
                f"clopen {i} = {{{', '.join(str(x) for x in sorted(s))}}}"
                for i, s in enumerate(expected)]
            assert capsys.readouterr().out == "\n".join(lines) + "\n"
            assert len(expected) == 2 ** count


class TestComponentSearchOnce:
    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        original = topospace._components

        def counted(space):
            calls.append(space)
            return original(space)

        monkeypatch.setattr(topospace, "_components", counted)
        return calls

    def corpus(self, name):
        return os.path.join(os.path.dirname(__file__), "..", "corpus", name)

    def test_lemma_b2_searches_once(self, searches, capsys):
        assert main(["lemma-b2", self.corpus("poset_two_components.txt")]) == 0
        assert "bijections hold = yes" in capsys.readouterr().out
        assert len(searches) == 1

    def test_prop_b3_searches_once_per_poset(self, searches, capsys):
        assert main(["prop-b3", self.corpus("monotone_map_surjection.txt")]) == 0
        assert "equivalence holds = yes" in capsys.readouterr().out
        assert len(searches) == 2  # the source and the target
        poset = FinitePoset.from_relations(4, [(0, 1), (2, 3)])
        del searches[:]
        assert astuple(prop_b3_check(MonotoneMap(poset, poset, (0, 1, 2, 3)))) == (
            True, True, True)
        assert searches == [poset]


class TestEnumerationLimits:
    def run(self, tmp_path, capsys, command, text):
        path = tmp_path / "doc.txt"
        path.write_text(text)
        start = time.perf_counter()
        code = main([command, str(path)])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        return code, out, err, elapsed

    @pytest.mark.parametrize("command,message", [
        ("lemma-b2", "lemma-b2 enumerates 2^31 subsets; the limit is 2^16"),
        ("clopen", "clopen enumerates 2^31 unions of components; the limit is 2^16"),
    ])
    def test_oversized_antichain_exits_3(self, tmp_path, capsys, command, message):
        code, out, err, elapsed = self.run(tmp_path, capsys, command,
                                           "kind = poset\nn = 31\n")
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("command", ["prop-b3", "homeo-check"])
    def test_oversized_map_exits_3(self, tmp_path, capsys, command):
        mapping = ", ".join(str(x) for x in range(31))
        text = (f"kind = monotone_map\nsource_n = 31\ntarget_n = 31\nmap = {mapping}\n")
        code, out, err, elapsed = self.run(tmp_path, capsys, command, text)
        assert code == 3 and out == ""
        assert "enumerates 2^31" in err and "Traceback" not in err
        assert elapsed < 1.0

    @pytest.mark.parametrize("command,lines", [("lemma-b2", 2), ("clopen", 2 + 2 ** 16)])
    def test_sixteen_point_antichain_is_within_the_limit(self, tmp_path, capsys, command,
                                                          lines):
        # the worst case inside the limit: tables of 2^16 entries, 2^16 clopen sets
        code, out, err, elapsed = self.run(tmp_path, capsys, command, "kind = poset\nn = 16\n")
        assert code == 0 and err == "" and len(out.splitlines()) == lines
        last = "bijections hold = yes" if command == "lemma-b2" else (
            "clopen 65535 = {" + ", ".join(map(str, range(16))) + "}")
        assert out.splitlines()[-1] == last
        assert elapsed < 3.0

    def test_sixteen_point_chain_is_within_the_limit(self, tmp_path, capsys):
        assert ENUMERATION_LIMIT == 16
        rels = "".join(f"rel = {i}<{i + 1}\n" for i in range(15))
        code, out, _, _ = self.run(tmp_path, capsys, "lemma-b2",
                                   "kind = poset\nn = 16\n" + rels)
        assert code == 0 and "bijections hold = yes" in out
        code, _, err, _ = self.run(tmp_path, capsys, "lemma-b2",
                                   "kind = poset\nn = 17\n" + rels)
        assert code == 3 and "2^17 subsets" in err

    def test_homeomorphism_oracle_checks_the_limit(self):
        big = FinitePoset.antichain(ENUMERATION_LIMIT + 1)
        with pytest.raises(ValueError, match="open sets; the limit is 2"):
            _is_homeomorphism(big, big, tuple(range(big.size)))
