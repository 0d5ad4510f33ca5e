"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a single PASS line on success (run with `pytest -s` to see
them); a failed assertion marks the criterion as failed.  Randomized runs are
seeded by EQUIBUNDLE_SEED.
"""

import glob
import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from conftest import make_rng
from test_hensel import random_nilpotent_instance
from test_projline import h0_formula, random_unimodular

from equibundle.cli import main as cli_main
from equibundle.exact_core import GF, QQ, LaurentMatrix, Polynomial
from equibundle.filtered import (
    EpsRing,
    FilteredModule,
    associated_graded,
    iso_class_filtered,
    mat_identity,
    mat_mul,
    split_filtration,
    verify_splitting,
)
from equibundle.graded import (
    GradedAlgebra,
    GradedModulePresentation,
    graded_iso_test,
    iso_class_graded_free,
    lift_graded_map,
    nakayama_zero_test,
    verify_nakayama_witness,
)
from equibundle.hensel import from_univariate_quotient, is_henselian_pair, lift_idempotent
from equibundle.io import parse_document
from equibundle.projline import (
    SplittingType,
    birkhoff_factorize,
    cocharacter_to_bundle,
    h0_dimension,
    splitting_type,
)
from equibundle.topospace import (
    FinitePoset,
    all_monotone_maps,
    all_posets,
    homeo_criterion,
    lemma_b2_verify,
    prop_b3_check,
    _is_homeomorphism,
)

F5 = GF(5)


def report(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def exhaustive_types():
    for n in range(1, 5):
        for degrees in itertools.combinations_with_replacement(range(5, -6, -1), n):
            yield SplittingType(degrees)


@pytest.fixture(scope="module")
def theorem31_family():
    """Exhaustive diagonal bundles plus 200 random A*D*B bundles over Q."""
    rng = make_rng(salt=1)
    exhaustive = [(cocharacter_to_bundle(d), d) for d in exhaustive_types()]
    randoms = []
    sizes = [1] * 3 + [2] * 9 + [3] * 6 + [4] * 2
    for _ in range(200):
        n = rng.choice(sizes)
        exponents = [rng.randint(-2, 2) for _ in range(n)]
        d = LaurentMatrix.monomial_diagonal(QQ, exponents)
        a = random_unimodular(rng, QQ, n, negative=True)
        b = random_unimodular(rng, QQ, n, negative=False)
        expected = SplittingType(tuple(sorted((-k for k in exponents), reverse=True)))
        randoms.append(((a @ d) @ b, expected))
    return exhaustive, randoms


def test_criterion_01_theorem31_bijection(theorem31_family):
    exhaustive, randoms = theorem31_family
    assert len(exhaustive) == 1364
    for bundle, expected in exhaustive:
        assert splitting_type(bundle) == expected
    assert len(randoms) == 200
    for bundle, expected in randoms:
        assert splitting_type(bundle) == expected
        factorization = birkhoff_factorize(bundle)
        assert (factorization.A @ factorization.D) @ factorization.B == bundle
    report(1, "splitting-type bijection at GL_n")


def test_criterion_02_h0_oracle_agreement(theorem31_family):
    exhaustive, randoms = theorem31_family
    for bundle, expected in itertools.chain(exhaustive, randoms):
        degrees = expected.degrees
        for twist in range(-6, 7):
            assert h0_dimension(bundle, twist) == h0_formula(degrees, twist), (
                degrees, twist)
    report(2, "section-count oracle agreement")


def test_criterion_03_degree_invariant(theorem31_family):
    exhaustive, randoms = theorem31_family
    for bundle, _ in itertools.chain(exhaustive, randoms):
        w, _ = bundle.det_unit_exponent()
        assert splitting_type(bundle).degree == -w
    report(3, "degree invariant")


def random_graded_module(rng):
    degrees = tuple(rng.choice([1, 2, 3]) for _ in range(3))
    alg = GradedAlgebra(QQ, ("x", "y", "z"), degrees)
    p = rng.randint(1, 4)
    gen_degrees = tuple(sorted(rng.randint(0, 3) for _ in range(p)))
    relations = []
    for _ in range(rng.randint(0, p + 2)):
        delta = rng.randint(0, 4)
        col = []
        for m in gen_degrees:
            want = delta - m
            choices = alg.monomials_of_degree(want) if want >= 0 else []
            if choices and rng.random() < 0.7:
                mono = rng.choice(choices)
                coeff = QQ(rng.choice([-2, -1, 1, 2]))
                col.append(Polynomial.monomial(QQ, 3, mono, coeff))
            else:
                col.append(alg.zero())
        if any(not entry.is_zero for entry in col):
            relations.append(tuple(col))
    return GradedModulePresentation(alg, gen_degrees, tuple(relations))


def test_criterion_04_graded_nakayama():
    rng = make_rng(salt=4)
    zero_verdicts = 0
    for _ in range(100):
        module = random_graded_module(rng)
        verdict = nakayama_zero_test(module)
        bound = module.default_degree_bound()
        lo = min(module.generator_degrees)
        brute = all(module.component_dimension(d) == 0 for d in range(lo, bound + 1))
        assert bool(verdict) == brute
        if verdict.is_zero:
            zero_verdicts += 1
            verify_nakayama_witness(module, verdict.witness)
    # the sample must exercise the certified branch as well
    assert zero_verdicts >= 1
    report(4, "graded Nakayama with verified witnesses")


def test_criterion_05_lifting_theorem():
    rng = make_rng(salt=5)
    # reduce-then-lift is the identity on iso classes of graded frees
    for n in range(1, 5):
        for degrees in itertools.combinations_with_replacement(range(-3, 4), n):
            cls = iso_class_graded_free(degrees)
            reduced = cls  # reduction keeps the degree multiset over B/IB = k
            assert iso_class_graded_free(reduced) == cls
    # random invertible scalar maps lift to exact isomorphisms
    for field in (F5, QQ):
        alg = GradedAlgebra(field, ("x", "y"), (1, 2))
        source = GradedModulePresentation(alg, (1, 1, 1))
        for _ in range(20):
            scalars = _random_invertible(rng, field, 3)
            lifted = lift_graded_map(scalars, source, (1, 1, 1))
            assert graded_iso_test(lifted, source, (1, 1, 1))
            inverse = _scalar_inverse(field, scalars)
            lifted_inv = lift_graded_map(inverse, source, (1, 1, 1))
            product = [[_poly_dot(alg, lifted[i], [lifted_inv[l][j] for l in range(3)])
                        for j in range(3)] for i in range(3)]
            for i in range(3):
                for j in range(3):
                    expected = (Polynomial.constant(field, 2, 1) if i == j
                                else alg.zero())
                    assert product[i][j] == expected
    report(5, "graded lifting theorem")


def _poly_dot(alg, row, col):
    acc = alg.zero()
    for r, c in zip(row, col):
        acc = acc + r * c
    return acc


def _random_invertible(rng, field, n):
    from equibundle.exact_core import matrix_rank

    while True:
        rows = [[field(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if matrix_rank(field, rows) == n:
            return rows


def _scalar_inverse(field, rows):
    from equibundle.exact_core import invert_matrix

    out = invert_matrix(field, rows)
    assert out is not None
    return out


def canonical_filtered(ring, stype):
    """Window [-2, 2]; rank jumps at each degree of the splitting type."""
    counts = {d: 0 for d in range(-2, 3)}
    for d in stype.degrees:
        counts[d] += 1
    ranks = []
    total = 0
    for d in range(-2, 3):
        total += counts[d]
        ranks.append(total)
    maps = []
    for a, b in zip(ranks, ranks[1:]):
        maps.append(tuple(
            tuple(ring.one if i == j else ring.zero for j in range(a))
            for i in range(b)))
    return FilteredModule(ring=ring, lo=-2, hi=2, ranks=tuple(ranks), maps=tuple(maps))


def all_small_types():
    for n in range(1, 4):
        for degrees in itertools.combinations_with_replacement(range(2, -3, -1), n):
            yield SplittingType(degrees)


def test_criterion_06_filtered_bijection():
    rng = make_rng(salt=6)
    ring_q = EpsRing(QQ)
    ring_eps = EpsRing(QQ, 2)
    seen = set()
    for stype in all_small_types():
        module = canonical_filtered(ring_q, stype)
        recovered = iso_class_filtered(module)
        assert recovered == stype
        assert recovered.degrees not in seen  # injectivity of the enumeration
        seen.add(recovered.degrees)
        splitting = split_filtration(module)
        verify_splitting(module, splitting)
        # the same filtration twisted over the dual numbers still splits
        twisted = _eps_twist(rng, ring_eps, module)
        splitting_eps = split_filtration(twisted)
        verify_splitting(twisted, splitting_eps)
        assert splitting_eps.graded_ranks == splitting.graded_ranks
    assert len(seen) == 55  # ranks 1..3, degrees in [-2, 2]
    report(6, "filtered-module bijection and exact splittings")


def _eps_twist(rng, ring, module):
    """Transport a rational filtered module along random unipotent eps-changes."""
    maps = []
    for step, mat in enumerate(module.maps):
        b = module.ranks[step + 1]
        u = mat_identity(ring, b)
        for _ in range(b):
            if b < 2:
                break
            i, j = rng.sample(range(b), 2)
            elem = mat_identity(ring, b)
            coeffs = [0] * ring.order
            coeffs[-1] = rng.randint(-2, 2)
            elem[i][j] = ring(tuple(coeffs))
            u = mat_mul(ring, u, elem)
        lifted = [[ring(value[0]) for value in row] for row in mat]
        maps.append(tuple(tuple(v for v in row) for row in mat_mul(ring, u, lifted)))
    return FilteredModule(ring=ring, lo=module.lo, hi=module.hi,
                          ranks=module.ranks, maps=tuple(maps))


def test_criterion_07_splitting_uniqueness():
    rng = make_rng(salt=7)
    from test_filtered import conjugate_by_unipotent, random_filtered

    for case in range(100):
        ring = EpsRing(QQ, 2) if case % 2 else EpsRing(QQ)
        ranks = sorted(rng.randint(0, 3) for _ in range(3))
        module = random_filtered(rng, ring, ranks)
        first = split_filtration(module)
        second = split_filtration(conjugate_by_unipotent(rng, module))
        assert first.graded_ranks == second.graded_ranks
        assert first.graded_ranks == associated_graded(module)
    report(7, "splitting uniqueness at the invariant level")


def test_criterion_08_finite_spectral_spaces():
    for size in range(0, 6):
        for poset in all_posets(size):
            assert lemma_b2_verify(poset)
    posets = [p for n in range(0, 5) for p in all_posets(n)]
    checked = 0
    for source in posets:
        for target in posets:
            for f in all_monotone_maps(source, target):
                assert prop_b3_check(f).all_equivalent
                checked += 1
    assert checked > 100_000
    for a in range(0, 6):
        for b in range(0, 6):
            x, y = FinitePoset.antichain(a), FinitePoset.antichain(b)
            for f in all_monotone_maps(x, y):
                assert homeo_criterion(f) == _is_homeomorphism(x, y, f.mapping)
    report(8, "finite spectral space theorem checks")


def test_criterion_09_henselian_predicates():
    rng = make_rng(salt=9)
    for case in range(100):
        field = QQ if case < 50 else F5
        algebra, candidate = random_nilpotent_instance(rng, field)
        lift = lift_idempotent(algebra, candidate)
        e = lift.element
        assert algebra.mul(e, e) == e  # residual exactly zero
        assert algebra.in_span(algebra.sub(e, algebra.coerce(candidate)), algebra.ideal)
    split_pair = from_univariate_quotient(QQ, [0, -1, 1], ideal_generators=[[0, 1]])
    assert not is_henselian_pair(split_pair)
    dual_pair = from_univariate_quotient(QQ, [0, 0, 1], ideal_generators=[[0, 1]])
    assert is_henselian_pair(dual_pair)
    report(9, "henselian predicates and idempotent lifting")


CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "corpus", "*.txt")))

CLI_RUNS = [
    ("classify-p1", "laurent_matrix_unipotent.txt", ("--verify",)),
    ("birkhoff", "laurent_matrix_f5.txt", ()),
    ("h0", "laurent_matrix_o1.txt", ()),
    ("cochar-to-bundle", "splitting_type_basic.txt", ()),
    ("split-filtration", "filtered_module_eps.txt", ("--verify",)),
    ("assoc-graded", "filtered_module_three_steps.txt", ()),
    ("nakayama", "graded_module_zero.txt", ("--verify",)),
    ("lift-map", "graded_module_liftmap.txt", ()),
    ("hensel-check", "graded_algebra_connected.txt", ()),
    ("lift-idempotent", "findim_algebra_cusp.txt", ()),
    ("pi0", "poset_two_components.txt", ()),
    ("clopen", "poset_vee.txt", ()),
    ("lemma-b2", "poset_chain4.txt", ()),
    ("prop-b3", "monotone_map_constant.txt", ()),
    ("homeo-check", "monotone_map_discrete_bijection.txt", ()),
]


def test_criterion_10_cli_determinism(capsys):
    assert len(CORPUS) >= 8
    for path in CORPUS:
        text = open(path).read()
        doc = parse_document(text)
        once = doc.render()
        assert parse_document(once).render() == once
    base = os.path.join(os.path.dirname(__file__), "..", "corpus")
    for command, name, flags in CLI_RUNS:
        argv = [command, os.path.join(base, name), *flags]
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, (command, out1)
        assert out1 == out2  # byte-identical reports
    report(10, "CLI determinism and round-trip")
