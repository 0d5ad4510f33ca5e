import glob
import os
import shlex
import time
import tracemalloc

import pytest

from fractions import Fraction

from equibundle import cli
from equibundle.cli import COMMANDS, build_parser, main
from equibundle.exact_core import GF, QQ, LaurentPoly, Polynomial
from equibundle.filtered import EpsRing
from equibundle.io import (
    ParseError,
    parse_document,
    parse_eps,
    parse_laurent,
    parse_polynomial,
    parse_scalar,
    render_eps,
    render_laurent,
    render_polynomial,
    render_scalar,
)

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "corpus", "*.txt")))


# ---------------------------------------------------------------------------
# Reference grammar: the per-kind term loops the shared reader and writer
# replaced, kept verbatim (dangling-sign bug included) for the differential
# test below.
# ---------------------------------------------------------------------------


def ref_scalar_magnitude(value):
    if isinstance(value, int):  # an F_p residue, never negative
        return False, str(value)
    return value < 0, render_scalar(-value if value < 0 else value)


def ref_join_terms(parts):
    out = []
    for i, (negative, body) in enumerate(parts):
        if i == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)


def ref_split_terms(text):
    terms = []
    current = ""
    sign = "+"
    for idx, ch in enumerate(text):
        if ch in "+-" and current.strip():
            prev = current.rstrip()[-1:]
            if prev in "^*/":
                current += ch
                continue
            terms.append((sign, current.strip()))
            sign, current = ch, ""
        elif ch in "+-" and not current.strip():
            if current.strip() == "" and not terms and idx == 0:
                sign = ch
            else:
                current += ch
        else:
            current += ch
    if current.strip():
        terms.append((sign, current.strip()))
    if not terms:
        raise ParseError(f"empty term list in {text!r}")
    return [f"{s}{body}" for s, body in terms]


def ref_render_laurent(poly):
    if poly.is_zero:
        return "0"
    parts = []
    for exp, coeff in sorted(poly.terms(), reverse=True):
        negative, body = ref_scalar_magnitude(coeff)
        parts.append((negative, f"{body}*t^{exp}"))
    return ref_join_terms(parts)


def ref_parse_laurent(text, field):
    text = text.strip()
    if text == "0":
        return LaurentPoly.zero(field)
    poly = LaurentPoly.zero(field)
    for term in ref_split_terms(text):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        elif term.startswith("+"):
            term = term[1:]
        if "*t^" in term:
            coeff_text, exp_text = term.split("*t^", 1)
        elif term.startswith("t^"):
            coeff_text, exp_text = "1", term[2:]
        else:
            coeff_text, exp_text = term, "0"
        try:
            exp = int(exp_text)
        except ValueError as exc:
            raise ParseError(f"bad exponent in term {term!r}") from exc
        coeff = parse_scalar(coeff_text, field)
        if sign < 0:
            coeff = -coeff
        poly = poly + LaurentPoly.monomial(field, coeff, exp)
    return poly


def ref_render_polynomial(poly, variables):
    if poly.is_zero:
        return "0"
    parts = []
    for mono, coeff in poly.terms():
        negative, body = ref_scalar_magnitude(coeff)
        factors = [f"{variables[i]}^{e}" for i, e in enumerate(mono) if e]
        parts.append((negative, "*".join([body] + factors)))
    return ref_join_terms(parts)


def ref_parse_polynomial(text, field, variables):
    text = text.strip()
    nvars = len(variables)
    index = {name: i for i, name in enumerate(variables)}
    if text == "0":
        return Polynomial.zero(field, nvars)
    poly = Polynomial.zero(field, nvars)
    for term in ref_split_terms(text):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        elif term.startswith("+"):
            term = term[1:]
        factors = term.split("*")
        coeff_text = factors[0]
        mono = [0] * nvars
        start = 1
        if "^" in coeff_text:
            coeff_text = "1"
            start = 0
        coeff = parse_scalar(coeff_text, field)
        for factor in factors[start:]:
            if "^" not in factor:
                raise ParseError(f"bad monomial factor {factor!r}")
            name, exp_text = factor.split("^", 1)
            if name not in index:
                raise ParseError(f"unknown variable {name!r}")
            try:
                mono[index[name]] += int(exp_text)
            except ValueError as exc:
                raise ParseError(f"bad exponent in {factor!r}") from exc
        if sign < 0:
            coeff = -coeff
        poly = poly + Polynomial.monomial(field, nvars, tuple(mono), coeff)
    return poly


def ref_render_eps(value, ring):
    nonzero = [(j, c) for j, c in enumerate(value) if c]
    if not nonzero:
        return "0"
    parts = []
    for j, coeff in nonzero:
        negative, body = ref_scalar_magnitude(coeff)
        parts.append((negative, body if j == 0 else f"{body}*e^{j}"))
    return ref_join_terms(parts)


def ref_parse_eps(text, ring):
    text = text.strip()
    if text == "0":
        return ring.zero
    coeffs = [ring.field.zero] * ring.order
    for term in ref_split_terms(text):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        elif term.startswith("+"):
            term = term[1:]
        if "*e^" in term:
            coeff_text, exp_text = term.split("*e^", 1)
        elif term.startswith("e^"):
            coeff_text, exp_text = "1", term[2:]
        else:
            coeff_text, exp_text = term, "0"
        try:
            j = int(exp_text)
        except ValueError as exc:
            raise ParseError(f"bad eps exponent in {term!r}") from exc
        if not 0 <= j < ring.order:
            raise ParseError(f"eps exponent {j} outside truncation order {ring.order}")
        coeff = parse_scalar(coeff_text, ring.field)
        coeffs[j] = ring.field(coeffs[j] + (-coeff if sign < 0 else coeff))
    return tuple(coeffs)


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

    def test_integer_path_matches_fraction(self, rng):
        # every string gives Fraction(text)'s scalar, or its exact error; a
        # string that Fraction reads in exponent notation is rejected
        def reference(text, field):
            text = text.strip()
            try:
                value = Fraction(text)
                if "e" in text.lower():
                    return f"bad scalar {text!r}: exponent notation is not accepted"
                return field(value)
            except (ValueError, ZeroDivisionError) as exc:
                return f"bad scalar {text!r}: {exc}"

        texts = ["--3", "²", "٣", "-٣", "1_0", "+3", "1e3", "1.5", " 7", "7", "-7", "-0",
                 "007", "-", "", "3/5", "1/0", "0x10", "9" * 4301, "-" + "9" * 4300]
        alphabet = "0123456789-+/._ e²٣"
        texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
                  for _ in range(400)]
        for field in (QQ, GF(5), GF(2**31 - 1)):
            for text in texts:
                want = reference(text, field)
                try:
                    got = parse_scalar(text, field)
                except ParseError as exc:
                    got = str(exc)
                assert got == want and type(got) is type(want), (field, text)


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

    def test_dangling_sign(self):
        for text in ("1*t^0 +", "1*t^0 -", "2*t^1 - 1*t^0+ "):
            with pytest.raises(ParseError, match="dangling sign"):
                parse_laurent(text, QQ)


class TestPolynomialGrammar:
    def test_round_trip(self):
        names = ("x", "y")
        poly = parse_polynomial("1*x^2*y^1 - 2/3*y^3 + 4", QQ, names)
        printed = render_polynomial(poly, names)
        assert parse_polynomial(printed, QQ, names) == poly

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_polynomial("1*z^1", QQ, ("x",))

    def test_dangling_sign(self):
        for text in ("1*x^1 -", "1*x^1*y^2 + 3 +"):
            with pytest.raises(ParseError, match="dangling sign"):
                parse_polynomial(text, QQ, ("x", "y"))


class TestEpsGrammar:
    def test_round_trip(self):
        ring = EpsRing(GF(5), 3)
        value = parse_eps("1*e^2 + 3 - 1*e^1 + 7 mod 5*e^2", ring)
        assert value == (GF(5)(3), GF(5)(4), GF(5)(3))
        assert render_eps(value, ring) == "3 + 4*e^1 + 3*e^2"

    def test_dangling_sign(self):
        with pytest.raises(ParseError, match="dangling sign"):
            parse_eps("1 + 1*e^1 -", EpsRing(QQ, 2))


TERM_ALPHABET = list("0123456789+-*^/ ") + [" mod 5", "t", "e", "x", "y"]
DANGLING = "dangling sign at the end of "


def random_term(rng):
    coeff = rng.choice(["", "1", "2", "-3", "1/2", "4/6", "7 mod 5", "0", "12", "1/0"])
    factors = [f"{rng.choice('texy')}^{rng.choice(['0', '1', '2', '3', '-1', '-2', ''])}"
               for _ in range(rng.randint(0, 2))]
    return "*".join(([coeff] if coeff else []) + factors) or "1"


def random_term_list(rng):
    """A string over TERM_ALPHABET: either noise, or a list of plausible
    terms with a few characters inserted, deleted or replaced."""
    if rng.random() < 0.25:
        return "".join(rng.choice(TERM_ALPHABET) for _ in range(rng.randint(0, 10)))
    text = random_term(rng)
    for _ in range(rng.randint(0, 3)):
        text += rng.choice([" + ", " - ", "+", "-", " +-"]) + random_term(rng)
    chars = list(text)
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randrange(len(chars))
        op = rng.random()
        if op < 0.4:
            chars.insert(i, rng.choice(TERM_ALPHABET))
        elif op < 0.7 and len(chars) > 1:
            del chars[i]
        else:
            chars[i] = rng.choice(TERM_ALPHABET)
    text = "".join(chars)
    if rng.random() < 0.15:
        text += rng.choice([" +", " -", "+", "- "])
    return rng.choice(["", " "]) + text


def outcome(parse, text, *args):
    try:
        return ("value", parse(text, *args))
    except Exception as exc:  # the exception class and message are compared
        return ("raised", type(exc), str(exc))


def grammars():
    """(name, new parser, reference parser, extra arguments), Q and F5."""
    for field in (QQ, GF(5)):
        yield "laurent", parse_laurent, ref_parse_laurent, (field,)
        yield "polynomial", parse_polynomial, ref_parse_polynomial, (field, ("x", "y"))
        for order in (1, 2, 3):
            yield f"eps{order}", parse_eps, ref_parse_eps, (EpsRing(field, order),)


class TestGrammarAgainstReference:
    def test_random_strings_parse_alike(self, rng):
        seen = {"value": 0, "raised": 0, "dangling": 0}
        for _ in range(600):
            text = random_term_list(rng)
            for name, parse, reference, args in grammars():
                new, old = outcome(parse, text, *args), outcome(reference, text, *args)
                if new[0] == "raised" and new[2].startswith(DANGLING):
                    # the one intended difference: the reference dropped the
                    # trailing sign and read the terms before it
                    stripped = text.strip()
                    assert new[1] is ParseError and stripped[-1] in "+-", (name, text)
                    assert outcome(parse, stripped[:-1], *args) == old, (name, text)
                    seen["dangling"] += 1
                else:
                    assert new == old, (name, text)
                    seen[new[0]] += 1
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("text, parse, reference, args, error", [
        # a negative exponent is rejected at its own term, before a later bad one
        ("1*x^-1 + 1*z^1", parse_polynomial, ref_parse_polynomial, (QQ, ("x",)),
         "bad monomial (-1,) for 1 variables"),
        ("2*x^1*y^-2 - q", parse_polynomial, ref_parse_polynomial, (QQ, ("x", "y")),
         "bad monomial (1, -2) for 2 variables"),
        # an out-of-range eps exponent is rejected before a later bad term
        ("1*e^5 + 1*e^x", parse_eps, ref_parse_eps, (EpsRing(QQ, 2),),
         "eps exponent 5 outside truncation order 2"),
        ("q*e^-1 - w", parse_eps, ref_parse_eps, (EpsRing(GF(5), 3),),
         "eps exponent -1 outside truncation order 3"),
        # within a term: a bad coefficient before a bad factor, but a bad
        # Laurent exponent before a bad coefficient
        ("q*x^z", parse_polynomial, ref_parse_polynomial, (QQ, ("x",)),
         "bad scalar 'q': Invalid literal for Fraction: 'q'"),
        ("q*t^z", parse_laurent, ref_parse_laurent, (QQ,),
         "bad exponent in term 'q*t^z'"),
    ])
    def test_first_bad_term_raises(self, text, parse, reference, args, error):
        new = outcome(parse, text, *args)
        assert new == outcome(reference, text, *args)
        assert new[2] == error

    def test_random_values_render_alike(self, rng):
        def scalar(field):
            if rng.random() < 0.3:
                return field.zero
            return field(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

        for _ in range(300):
            field = rng.choice([QQ, GF(5)])
            poly = LaurentPoly(field, {rng.randint(-4, 4): scalar(field)
                                       for _ in range(rng.randint(0, 4))})
            assert render_laurent(poly) == ref_render_laurent(poly)
            assert parse_laurent(render_laurent(poly), field) == poly
            names = ("x", "y")
            poly = Polynomial(field, 2, {(rng.randint(0, 3), rng.randint(0, 3)): scalar(field)
                                         for _ in range(rng.randint(0, 4))})
            assert render_polynomial(poly, names) == ref_render_polynomial(poly, names)
            assert parse_polynomial(render_polynomial(poly, names), field, names) == poly
            ring = EpsRing(field, rng.randint(1, 3))
            value = tuple(scalar(field) for _ in range(ring.order))
            assert render_eps(value, ring) == ref_render_eps(value, ring)
            assert parse_eps(render_eps(value, ring), ring) == value


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
                                   matrix=random_bundle(rng, field, rng.randint(1, 3)))
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


def parsed(capsys, parse, argv):
    """(exit code, stdout, stderr, namespace) of one parse; the code is None
    when the parse returns."""
    try:
        code, namespace = None, vars(parse(argv))
    except SystemExit as exc:
        code, namespace = exc.code, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


class TestArgvInOnePass:
    # each argv is parsed by main's one pass and by the top-level parser's
    # parse_args, which reads it twice: at the top level and in the subparser
    ARGVS = [
        [], ["-h"], ["--help"], ["frobnicate", "doc.txt"], ["Pi0", "doc.txt"],
        ["classify-p1"], ["classify-p1", "doc.txt"],
        ["classify-p1", "doc.txt", "--twist", "5"],
        ["classify-p1", "doc.txt", "--twist-window="],
        ["classify-p1", "--twist-window=2", "doc.txt", "--verify"],
        ["pi0", "doc.txt", "--field", "F5"], ["pi0", "doc.txt", "extra.txt"],
        ["pi0", "--", "doc.txt"], ["pi0", "--", "--verify"],
        ["pi0", "doc.txt", "--", "--verify"], ["--verify", "pi0", "doc.txt"],
        ["pi0", "-h"], ["h0", "doc.txt", "--he"], ["h0", "doc.txt", "--ver"],
        ["h0", "doc.txt", "-x", "--verify"], ["nakayama", "doc.txt", "--degree-bound", "-1"],
        ["nakayama", "doc.txt", "--degree-bound", "x"],
        ["cochar-to-bundle", "doc.txt", "--field", "F7", "--verify", "--verify"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) or "empty" for a in ARGVS])
    def test_parses_as_parse_args(self, capsys, argv):
        reference = parsed(capsys, build_parser().parse_args, list(argv))
        assert parsed(capsys, cli._parse, list(argv)) == reference
        if reference[0] is not None:  # main exits where parse_args does
            assert parsed(capsys, main, list(argv))[:3] == reference[:3]

    def test_every_outcome_is_reached(self, capsys):
        codes = {parsed(capsys, build_parser().parse_args, argv)[0] for argv in self.ARGVS}
        assert codes == {None, 0, 2}


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

    @pytest.mark.parametrize("command", ["classify-p1", "h0"])
    @pytest.mark.parametrize("window", ["-2", "-1", "abc"])
    def test_bad_twist_window_exits_2(self, capsys, command, window):
        # a negative window gave an empty h0 table, which --verify then
        # reported as agreeing after comparing nothing
        argv = [command, corpus_path("laurent_matrix_o1.txt"), "--verify",
                "--twist-window", window]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--twist-window" in captured.err
        argv[-1] = "0"
        code, out = run_cli(capsys, *argv)
        assert code == 0 and "h0 twist 0 = 2" in out and "h0 twist -1" not in out

    def test_unread_value_flag_exits_2(self, capsys):
        # a command accepts --verify and only the value flags it reads
        cases = [("classify-p1", "laurent_matrix_f5.txt", "--field", "Q"),
                 ("pi0", "poset_vee.txt", "--field", "F7"),
                 ("birkhoff", "laurent_matrix_f5.txt", "--twist-window", "2"),
                 ("nakayama", "graded_module_zero.txt", "--twist-window", "2"),
                 ("h0", "laurent_matrix_o1.txt", "--degree-bound", "2"),
                 ("cochar-to-bundle", "splitting_type_basic.txt", "--degree-bound", "1")]
        for command, name, flag, value in cases:
            with pytest.raises(SystemExit) as exc:
                main([command, corpus_path(name), flag, value, "--verify"])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == "", (command, flag)
            assert f"unrecognized arguments: {flag} {value}" in captured.err
        for command, (_, _, flags) in COMMANDS.items():
            for flag in flags:
                value = "F5" if flag == "--field" else "1"
                args = build_parser().parse_args([command, "doc.txt", flag, value, "--verify"])
                assert args.verify and str(getattr(args, flag[2:].replace("-", "_"))) == value

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

    @pytest.mark.parametrize("command, text", [
        ("birkhoff", "kind = laurent_matrix\nfield = Q\nmatrix = [[1*t^0 +]]\n"),
        ("nakayama", "kind = graded_module\nfield = Q\nvariables = x\ndegrees = 1\n"
                     "generators = 0\nmodule_relation = [1*x^1 -]\n"),
        ("split-filtration", "kind = filtered_module\nfield = Q\nepsilon_power = 2\n"
                             "window = 0, 1\nranks = 1, 1\nmap 0 = [[1 + 1*e^1 -]]\n"),
    ], ids=["laurent", "polynomial", "eps"])
    def test_dangling_sign_exit_2(self, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code = main([command, str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "dangling sign at the end of" in captured.err

    def test_document_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"kind = poset\nn = 2\nrel = 0<1 \xff\n")
        code = main(["pi0", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")

    def test_crlf_document_reads_as_text_mode(self, tmp_path, capsys):
        # bytes are decoded without newline translation; the reader's
        # splitlines sees \r\n and \r as the line ends text mode would give
        path = corpus_path("poset_vee.txt")
        expected = run_cli(capsys, "pi0", path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for newline in ("\r\n", "\r"):
            crlf = tmp_path / "crlf.txt"
            crlf.write_bytes(text.replace("\n", newline).encode())
            assert run_cli(capsys, "pi0", str(crlf)) == expected

    @pytest.mark.parametrize("command, name", [
        ("classify-p1", "laurent_matrix_mixed.txt"),
        ("nakayama", "graded_module_zero.txt"),
    ])
    def test_blank_and_comment_lines_are_ignored(self, tmp_path, capsys, command, name):
        # a comment may come before the kind line and may hold '=', and an
        # indented one is a comment too
        path = corpus_path(name)
        expected = run_cli(capsys, command, path, "--verify")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        commented = tmp_path / name
        commented.write_text("# kind = poset\n\n" + "\n   \n  # field = F5\n".join(lines)
                             + "\n\n# end\n")
        assert expected[0] == 0
        assert run_cli(capsys, command, str(commented), "--verify") == expected

    def test_exponent_notation_exits_2_without_computing_the_power(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        for scalar in ("1e4301", "1e10000000", "2.5E99999999999"):
            bad.write_text(f"kind = laurent_matrix\nfield = Q\nmatrix = [[{scalar}*t^0]]\n")
            start = time.perf_counter()
            code = main(["classify-p1", str(bad)])
            assert time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert f"bad scalar '{scalar}': exponent notation is not accepted" in captured.err

    def test_large_antichain_closes_in_linear_time(self, tmp_path, capsys):
        # the closure skips each point with nothing above it, so an
        # antichain of 4,000 points takes no n^2 steps
        path = tmp_path / "antichain.txt"
        path.write_text("kind = poset\nn = 4000\n")
        start = time.perf_counter()
        code, out = run_cli(capsys, "pi0", str(path))
        assert time.perf_counter() - start < 1.0
        lines = out.splitlines()
        assert code == 0 and lines[:3] == ["report = pi0", "components = 4000",
                                           "component 0 = {0}"]
        assert lines[-1] == "component 3999 = {3999}" and len(lines) == 4002

    @pytest.mark.parametrize("field, matrix, report", [
        ("Q", "[[1*t^0, 1*t^4000000, 0], [0, 1*t^0, 1*t^-4000000], [0, 0, 1*t^0]]",
         ["A = [[1*t^0, 0, 0], [0, 1*t^0, 1*t^-4000000], [0, 0, 1*t^0]]",
          "D = [[1*t^0, 0, 0], [0, 1*t^0, 0], [0, 0, 1*t^0]]",
          "B = [[1*t^0, 1*t^4000000, 0], [0, 1*t^0, 0], [0, 0, 1*t^0]]",
          "exponents = 0, 0, 0"]),
        ("F5", "[[1*t^0, 1*t^1000000000], [0, 1*t^0]]",
         ["A = [[1*t^0, 0], [0, 1*t^0]]", "D = [[1*t^0, 0], [0, 1*t^0]]",
          "B = [[1*t^0, 1*t^1000000000], [0, 1*t^0]]", "exponents = 0, 0"]),
    ], ids=["Q-4e6", "F5-1e9"])
    def test_birkhoff_is_not_sized_by_the_exponent_span(self, tmp_path, capsys,
                                                         field, matrix, report):
        # the determinant runs on the entries' own terms, so a huge exponent
        # costs neither time nor memory
        path = tmp_path / "unipotent.txt"
        path.write_text(f"kind = laurent_matrix\nfield = {field}\nmatrix = {matrix}\n")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out = run_cli(capsys, "birkhoff", str(path))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.splitlines() == ["report = birkhoff", *report, "exact = yes"]
        assert elapsed < 1.0 and peak < 5 * 2**20, (elapsed, peak)

    def test_wrong_kind_exit_2(self, capsys):
        code, _ = run_cli(capsys, "classify-p1", corpus_path("poset_vee.txt"))
        assert code == 2

    def test_arithmetic_error_exit_1(self, capsys, monkeypatch):
        from equibundle import projline

        def unstable(g, window):
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


def readme_cli_examples():
    """The `equibundle ...` lines of the first sh block of README's
    command-line section, each split into argv."""
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path, encoding="utf-8") as handle:
        section = handle.read().split("## Command-line interface", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("equibundle ")]


class TestReadmeExamples:
    def test_every_example_runs_from_the_repo_root(self, capsys, monkeypatch):
        monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
        examples = readme_cli_examples()
        for argv in examples:
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 0 and not captured.err, (argv, captured.err)
            # cochar-to-bundle prints a document; every other command a report
            first = captured.out.splitlines()[0]
            expected = ("kind = laurent_matrix" if argv[0] == "cochar-to-bundle"
                        else f"report = {argv[0]}")
            assert first == expected, (argv, captured.out)
        assert sorted(argv[0] for argv in examples) == sorted(COMMANDS)
