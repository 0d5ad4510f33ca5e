import glob
import os

import pytest

from equibundle.cli import main
from equibundle.exact_core import GF, QQ
from equibundle.io import (
    ParseError,
    parse_document,
    parse_laurent,
    parse_polynomial,
    parse_scalar,
    render_laurent,
    render_polynomial,
    render_scalar,
)

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "corpus", "*.txt")))


class TestScalars:
    def test_fraction_forms(self):
        assert render_scalar(parse_scalar("5/10", QQ)) == "1/2"
        assert render_scalar(parse_scalar("-3", QQ)) == "-3"

    def test_mod_form(self):
        assert parse_scalar("7 mod 5", GF(5)) == GF(5)(2)

    def test_mod_form_in_coefficient_position(self):
        poly = parse_laurent("7 mod 5*t^2 + 1*t^0", GF(5))
        assert render_laurent(poly) == "2*t^2 + 1*t^0"

    def test_mod_form_field_mismatch(self):
        with pytest.raises(ParseError):
            parse_scalar("7 mod 5", QQ)
        with pytest.raises(ParseError):
            parse_scalar("7 mod 5", GF(7))

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("pi", QQ)


class TestLaurentGrammar:
    def test_round_trip(self):
        text = "2*t^3 - 1/2*t^-1 + 1*t^0"
        poly = parse_laurent(text, QQ)
        assert render_laurent(poly) == "2*t^3 + 1*t^0 - 1/2*t^-1"
        assert parse_laurent(render_laurent(poly), QQ) == poly

    def test_zero(self):
        assert render_laurent(parse_laurent("0", QQ)) == "0"

    def test_negative_exponent_not_a_separator(self):
        poly = parse_laurent("1*t^-2", QQ)
        assert poly.support == (-2,)

    def test_cancellation(self):
        assert parse_laurent("1*t^1 - 1*t^1", QQ).is_zero


class TestPolynomialGrammar:
    def test_round_trip(self):
        names = ("x", "y")
        poly = parse_polynomial("1*x^2*y^1 - 2/3*y^3 + 4", QQ, names)
        printed = render_polynomial(poly, names)
        assert parse_polynomial(printed, QQ, names) == poly

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_polynomial("1*z^1", QQ, ("x",))


class TestDocumentRoundTrip:
    @pytest.mark.parametrize("path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
    def test_parse_print_fixed_point(self, path):
        text = open(path).read()
        doc = parse_document(text)
        once = doc.render()
        assert parse_document(once).render() == once

    def test_corpus_is_nonempty(self):
        assert len(CORPUS) >= 8  # at least one per kind

    def test_every_kind_represented(self):
        kinds = {parse_document(open(p).read()).kind for p in CORPUS}
        assert kinds == {
            "laurent_matrix", "splitting_type", "graded_algebra", "graded_module",
            "filtered_module", "findim_algebra", "poset", "monotone_map",
        }

    def test_whitespace_normalization(self):
        loose = "kind   =  poset\nn=3\nrel =  0 < 2\nrel = 1<2\n"
        doc = parse_document(loose)
        assert doc.render() == "kind = poset\nn = 3\nrel = 0<2\nrel = 1<2\n"


class TestFuzzRoundTrip:
    def test_random_laurent_matrices(self, rng):
        import sys
        sys.path.insert(0, os.path.dirname(__file__))
        from test_projline import random_bundle

        from equibundle.io import LaurentMatrixDoc

        for _ in range(20):
            field = QQ if rng.random() < 0.5 else GF(5)
            doc = LaurentMatrixDoc(field=field,
                                   matrix=random_bundle(rng, field, rng.randint(1, 3)).matrix)
            text = doc.render()
            reparsed = parse_document(text)
            assert reparsed.matrix == doc.matrix
            assert reparsed.render() == text

    def test_random_posets(self, rng):
        from equibundle.io import PosetDoc
        from equibundle.topospace import FinitePoset

        for _ in range(20):
            n = rng.randint(0, 5)
            pairs = []
            for _ in range(rng.randint(0, n)):
                if n < 2:
                    break
                i, j = sorted(rng.sample(range(n), 2))
                pairs.append((i, j))
            doc = PosetDoc(poset=FinitePoset.from_relations(n, pairs),
                           generators=tuple(pairs))
            text = doc.render()
            reparsed = parse_document(text)
            assert reparsed.poset == doc.poset
            assert reparsed.render() == text

    def test_random_filtered_modules(self, rng):
        import sys
        sys.path.insert(0, os.path.dirname(__file__))
        from test_filtered import random_filtered

        from equibundle.filtered import EpsRing
        from equibundle.io import FilteredModuleDoc

        for _ in range(20):
            ring = EpsRing(QQ, rng.choice([1, 2, 3]))
            module = random_filtered(rng, ring, sorted(rng.randint(0, 3) for _ in range(3)))
            doc = FilteredModuleDoc(module=module)
            text = doc.render()
            reparsed = parse_document(text)
            assert reparsed.module == module
            assert reparsed.render() == text

    def test_random_graded_modules(self, rng):
        import sys
        sys.path.insert(0, os.path.dirname(__file__))
        from test_graded import algebra, random_module

        from equibundle.io import GradedModuleDoc

        for _ in range(20):
            module = random_module(rng, algebra(QQ, (1, 2), names=("x", "y")))
            doc = GradedModuleDoc(module=module)
            text = doc.render()
            reparsed = parse_document(text)
            assert reparsed.module == module
            assert reparsed.render() == text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def corpus_path(name):
    return os.path.join(os.path.dirname(__file__), "..", "corpus", name)


class TestCli:
    def test_classify_deterministic(self, capsys):
        args = ("classify-p1", corpus_path("laurent_matrix_unipotent.txt"), "--verify")
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "splitting type = (0, 0)" in out1

    def test_cached_parser_keeps_no_flags_between_calls(self, capsys):
        path = corpus_path("laurent_matrix_o1.txt")
        code, out = run_cli(capsys, "classify-p1", path, "--verify", "--twist-window", "6")
        assert code == 0
        assert "h0 twist 6 = " in out and "h0 oracle" in out
        code, out = run_cli(capsys, "classify-p1", path)
        assert code == 0
        assert "h0 twist 3 = " in out and "h0 twist 4 = " not in out
        assert "h0 oracle" not in out

    def test_classify_o1_convention(self, capsys):
        code, out = run_cli(capsys, "classify-p1", corpus_path("laurent_matrix_o1.txt"))
        assert code == 0
        assert "splitting type = (1)" in out
        assert "h0 twist 0 = 2" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("kind = laurent_matrix\nfield = Q\nmatrix = [[oops]]\n")
        code, _ = run_cli(capsys, "classify-p1", str(bad))
        assert code == 2

    def test_invalid_matrix_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "kind = laurent_matrix\nfield = Q\n"
            "matrix = [[1*t^1, 1*t^0], [1*t^0, 1*t^1]]\n")
        code, _ = run_cli(capsys, "classify-p1", str(bad))
        assert code == 3

    def test_wrong_kind_exit_2(self, capsys):
        code, _ = run_cli(capsys, "classify-p1", corpus_path("poset_vee.txt"))
        assert code == 2

    def test_arithmetic_error_exit_1(self, capsys, monkeypatch):
        from equibundle import projline

        def unstable(bundle, window):
            raise ArithmeticError("section space not stable at degree bound 3")

        monkeypatch.setattr(projline, "h0_table", unstable)
        for command in ("classify-p1", "h0"):
            code = main([command, corpus_path("laurent_matrix_o1.txt")])
            err = capsys.readouterr().err
            assert code == 1, command
            assert "internal check failed: section space not stable" in err
            assert "Traceback" not in err

    def test_nakayama_verify_zero_relation_column(self, tmp_path, capsys):
        doc = tmp_path / "zero_column.txt"
        doc.write_text(
            "kind = graded_module\nfield = Q\nvariables = x\ndegrees = 1\n"
            "generators = 0\nmodule_relation = [1*x^1]\nmodule_relation = [0]\n")
        code, out = run_cli(capsys, "nakayama", str(doc), "--verify")
        assert code == 0
        assert "module is zero = no" in out
        assert "component enumeration up to degree 5 = agrees" in out

    def test_nakayama_degree_bound_below_surviving_degree(self, tmp_path, capsys):
        # the "no" verdict survives in degree 3; a bound of 2 never sees it
        doc = tmp_path / "g1.txt"
        doc.write_text(
            "kind = graded_module\nfield = Q\nvariables = x\ndegrees = 1\n"
            "generators = 0, 3\nmodule_relation = [1, 0]\n")
        code = main(["nakayama", str(doc), "--verify", "--degree-bound", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "--degree-bound 2 is below degree 3" in captured.err
        code, out = run_cli(capsys, "nakayama", str(doc), "--verify", "--degree-bound", "3")
        assert code == 0
        assert "surviving degree = 3" in out
        assert "component enumeration up to degree 3 = agrees" in out

    def test_nakayama_degree_bound_below_lowest_generator(self, capsys):
        # a "yes" verdict checked over an empty range would agree vacuously
        path = corpus_path("graded_module_zero.txt")
        code = main(["nakayama", path, "--verify", "--degree-bound", "-5"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "--degree-bound -5 is below degree 0" in captured.err
        code, out = run_cli(capsys, "nakayama", path, "--verify", "--degree-bound", "0")
        assert code == 0
        assert "component enumeration up to degree 0 = agrees" in out

    def test_negative_verdict_exits_zero(self, capsys):
        code, out = run_cli(capsys, "prop-b3", corpus_path("monotone_map_constant.txt"))
        assert code == 0
        assert "clopen bijection = no" in out
        assert "pi0 bijective = no" in out
        assert "equivalence holds = yes" in out

    def test_hensel_check_examples(self, capsys):
        code, out = run_cli(capsys, "hensel-check", corpus_path("graded_algebra_connected.txt"))
        assert code == 0 and "trivially henselian = yes" in out
        code, out = run_cli(capsys, "hensel-check", corpus_path("graded_algebra_mixed.txt"))
        assert code == 0 and "trivially henselian = no" in out
        code, out = run_cli(capsys, "hensel-check", corpus_path("graded_algebra_negative.txt"))
        assert code == 0 and "trivially henselian = yes" in out

    def test_hensel_check_findim(self, capsys):
        code, out = run_cli(capsys, "hensel-check", corpus_path("findim_algebra_split.txt"))
        assert code == 0 and "henselian pair = no" in out
        code, out = run_cli(capsys, "hensel-check", corpus_path("findim_algebra_dual.txt"))
        assert code == 0 and "henselian pair = yes" in out

    def test_hensel_check_computes_the_radical_once(self, capsys, monkeypatch):
        from equibundle import hensel

        calls = []
        original = hensel.jacobson_radical

        def counted(algebra):
            calls.append(algebra)
            return original(algebra)

        monkeypatch.setattr(hensel, "jacobson_radical", counted)
        code, out = run_cli(capsys, "hensel-check", corpus_path("findim_algebra_cusp.txt"))
        assert code == 0 and "radical dimension = 1" in out
        assert len(calls) == 1

    def test_pi0_antichain(self, capsys):
        code, out = run_cli(capsys, "pi0", corpus_path("poset_antichain3.txt"))
        assert code == 0 and "components = 3" in out

    def test_cochar_output_reparses(self, capsys, tmp_path):
        code, out = run_cli(capsys, "cochar-to-bundle",
                            corpus_path("splitting_type_basic.txt"))
        assert code == 0
        regenerated = tmp_path / "bundle.txt"
        regenerated.write_text(out)
        code, out2 = run_cli(capsys, "classify-p1", str(regenerated))
        assert code == 0
        assert "splitting type = (2, 0, -1)" in out2

    def test_split_filtration_eps(self, capsys):
        code, out = run_cli(capsys, "split-filtration",
                            corpus_path("filtered_module_eps.txt"), "--verify")
        assert code == 0
        assert "exact = yes" in out
        assert "splitting type = (1, 0)" in out

    def test_split_filtration_verify_flag_changes_nothing(self, capsys):
        # split-filtration always verifies its splitting once
        for name in ("filtered_module_eps.txt", "filtered_module_step.txt",
                     "filtered_module_three_steps.txt"):
            plain = run_cli(capsys, "split-filtration", corpus_path(name))
            verified = run_cli(capsys, "split-filtration", corpus_path(name), "--verify")
            assert plain == verified
            assert plain[0] == 0 and "exact = yes" in plain[1]

    def test_every_command_runs_on_corpus(self, capsys):
        pairs = [
            ("classify-p1", "laurent_matrix_f5.txt"),
            ("birkhoff", "laurent_matrix_mixed.txt"),
            ("h0", "laurent_matrix_identity.txt"),
            ("cochar-to-bundle", "splitting_type_rank1.txt"),
            ("split-filtration", "filtered_module_step.txt"),
            ("assoc-graded", "filtered_module_three_steps.txt"),
            ("nakayama", "graded_module_residue.txt"),
            ("lift-map", "graded_module_liftmap.txt"),
            ("hensel-check", "findim_algebra_cusp.txt"),
            ("lift-idempotent", "findim_algebra_f5.txt"),
            ("pi0", "poset_chain4.txt"),
            ("clopen", "poset_two_components.txt"),
            ("lemma-b2", "poset_antichain3.txt"),
            ("prop-b3", "monotone_map_surjection.txt"),
            ("homeo-check", "monotone_map_discrete_bijection.txt"),
        ]
        for command, name in pairs:
            code, out = run_cli(capsys, command, corpus_path(name))
            assert code == 0, (command, name, out)
