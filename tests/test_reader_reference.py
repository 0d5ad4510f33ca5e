"""The document reader against the reader it replaced.

``reader_reference`` keeps the reader that walked bracket lists one character
at a time and converted every coefficient again after reading it.  On seeded
bracket lists, Laurent, polynomial and truncated-polynomial matrices, scalars
and whole filtered-module documents, the two must give the same values, of
the same types, or raise the same exception class with the same message.
Two differences are intended.  A list whose last comma is directly followed
by its closing bracket (``[1, 2,]``) is a trailing comma, which the reference
read as if the comma were not there.  A scalar in exponent notation (``1e3``)
is a bad scalar, which the reference read with ``Fraction``.
"""

import ast
import importlib.util
import os
import re
import sys
from fractions import Fraction

import pytest

import reader_reference as ref
from equibundle import io
from equibundle.exact_core import GF, QQ
from equibundle.filtered import EpsRing, FilteredModule

HERE = os.path.dirname(os.path.abspath(__file__))
FIELDS = [QQ, GF(5), GF(2**31 - 1)]
IDS = ["Q", "F5", "F2^31-1"]


def _load_generator():
    """perfbench/gen.py, which imports nothing from the package."""
    path = os.path.join(HERE, "..", "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def typed(value):
    """The value with the type of every scalar in it, so that 1 and
    Fraction(1) differ; polynomials by their field and terms."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [typed(v) for v in value])
    if hasattr(value, "_terms"):
        return (type(value).__name__, value.field,
                sorted((k, type(c), c) for k, c in value._terms.items()))
    return (type(value), value)


def outcome(parse, *args):
    try:
        return ("value", typed(parse(*args)))
    except Exception as exc:  # the exception class and message are compared
        return ("raised", type(exc), str(exc))


def is_trailing_comma(new, old, text):
    """The intended difference: the new reader rejects a list that ends in
    `,]`, where the reference read on."""
    if new[0] != "raised" or new[1] is not io.ParseError:
        return False
    message = new[2]
    if not message.startswith("trailing comma in "):
        return False
    quoted = message[len("trailing comma in "):]
    listed = ast.literal_eval(quoted)  # the list text, as repr() quoted it
    return listed.endswith(",]") and listed in text and new != old


def is_exponent_notation(new, old, text):
    """The other intended difference: the new reader rejects a scalar that
    Fraction reads in exponent notation, where the reference read on."""
    if new[0] != "raised" or new[1] is not io.ParseError or new == old:
        return False
    match = re.fullmatch(r"bad scalar (.*): exponent notation is not accepted", new[2])
    if not match:
        return False
    scalar = ast.literal_eval(match[1])
    try:
        Fraction(scalar)
    except ValueError:
        return False
    return "e" in scalar.lower() and scalar in text


# ---------------------------------------------------------------------------
# Bracket lists
# ---------------------------------------------------------------------------


ITEMS = ["1", "-2", "1*t^-1", "", " ", "3/4", "x y", "\t0"]
NOISE = ["[", "]", ",", " ", ",]", "[]"]


def random_list(rng, depth=0):
    items = [random_list(rng, depth + 1) if depth < 3 and rng.random() < 0.4
             else rng.choice(ITEMS) for _ in range(rng.randint(0, 4))]
    separator = rng.choice([",", ", ", " ,", " , "])
    return "[" + rng.choice(["", " "]) + separator.join(items) + rng.choice(["", " "]) + "]"


def random_bracket_text(rng):
    """A well-formed nested list, or one with a bracket, comma or space
    inserted, deleted or replaced, a trailing comma, or its outer brackets
    dropped."""
    text = random_list(rng)
    roll = rng.random()
    if roll < 0.15:
        text = text[:-1] + rng.choice([",]", ", ]", " ,]", ",  ]"])
    elif roll < 0.2:
        text = text[1:-1]
    elif roll < 0.55:
        chars = list(text)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(chars))
            op = rng.random()
            if op < 0.4:
                chars.insert(i, rng.choice(NOISE))
            elif op < 0.7 and len(chars) > 1:
                del chars[i]
            else:
                chars[i] = rng.choice(NOISE)
        text = "".join(chars)
    return rng.choice(["", " "]) + text + rng.choice(["", " "])


class TestBracketLists:
    def test_random_lists_split_alike(self, rng):
        seen = {"value": 0, "raised": 0, "trailing": 0, "nested": 0}
        for _ in range(3000):
            text = random_bracket_text(rng)
            new = outcome(io._split_bracket_list, text)
            old = outcome(ref._split_bracket_list, text)
            if is_trailing_comma(new, old, text):
                # the reference read the list as if the last comma were absent
                assert old[0] == "value" and text.strip().endswith(",]"), text
                seen["trailing"] += 1
                continue
            assert new == old, text
            seen[new[0]] += 1
            if new[0] == "value" and any("[" in item for _, item in new[1][1]):
                seen["nested"] += 1
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("text, error", [
        ("[1, 2,]", "trailing comma in '[1, 2,]'"),
        ("[1, 2, ]", "trailing comma in '[1, 2, ]'"),
        ("[[1], [2],]", "trailing comma in '[[1], [2],]'"),
        ("[[1], [2], ]", "trailing comma in '[[1], [2], ]'"),
        ("[,]", "trailing comma in '[,]'"),
    ])
    def test_trailing_comma_however_spaced(self, text, error):
        with pytest.raises(io.ParseError) as exc:
            io._split_bracket_list(text)
        assert str(exc.value) == error

    @pytest.mark.parametrize("text, items", [
        ("[]", []), ("[ ]", []), ("[1,,2]", ["1", "", "2"]), ("[ , 1]", ["", "1"]),
        ("[[1, [2, 3]], 4]", ["[1, [2, 3]]", "4"]), ("[[], []]", ["[]", "[]"]),
    ])
    def test_items(self, text, items):
        assert io._split_bracket_list(text) == items == ref._split_bracket_list(text)


# ---------------------------------------------------------------------------
# Matrices of Laurent, polynomial and truncated-polynomial entries
# ---------------------------------------------------------------------------


COEFFICIENTS = ["", "1", "2", "-3", "1/2", "4/6", "-5/3", "0", "12", "-10"]
# each wrong in some field, or in all of them
BAD_COEFFICIENTS = ["1/5", "7 mod 5", "3 mod 2147483647", "x mod 5", "1/0", "q"]
MALFORMED = list("[], +-*^/0123456789tex") + [" mod 5", ",]"]


def random_term(rng, letter, exponents):
    """A term of the grammar of `letter`; about one term in forty carries a
    coefficient or an exponent that some field rejects."""
    coeff = rng.choice(BAD_COEFFICIENTS if rng.random() < 0.02 else COEFFICIENTS)
    good, bad = exponents
    exponent = lambda: rng.choice(bad if rng.random() < 0.02 else good)
    roll = rng.random()
    if letter == "x":  # a monomial in x and y
        factors = [f"{rng.choice('xy')}^{exponent()}" for _ in range(rng.randint(0, 2))]
        return "*".join(([coeff] if coeff else []) + factors) or "1"
    if roll < 0.2:
        return f"{letter}^{exponent()}"
    if roll < 0.4 or not coeff:
        return coeff or "1"
    return f"{coeff}*{letter}^{exponent()}"


def random_entry(rng, letter, exponents):
    if rng.random() < 0.2:
        return "0"
    text = rng.choice(["", "-"]) + random_term(rng, letter, exponents)
    for _ in range(rng.randint(0, 3)):
        text += rng.choice([" + ", " - ", "+", "-", " +-", " - -"])
        text += random_term(rng, letter, exponents)
    return text


def random_matrix_text(rng, letter, exponents):
    rows = [[random_entry(rng, letter, exponents) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 3))]
    text = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    if rng.random() < 0.3:
        chars = list(text)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(chars))
            op = rng.random()
            if op < 0.4:
                chars.insert(i, rng.choice(MALFORMED))
            elif op < 0.7:
                del chars[i]
            else:
                chars[i] = rng.choice(MALFORMED)
        text = "".join(chars)
    return text


def matrix_grammars():
    """(id, term letter, exponents, new entry reader, reference entry reader)."""
    for field, name in zip(FIELDS, IDS):
        yield (f"laurent-{name}", "t", (["-3", "-1", "0", "2"], ["x", ""]),
               lambda t, f=field: io.parse_laurent(t, f),
               lambda t, f=field: ref.parse_laurent(t, f))
        yield (f"polynomial-{name}", "x", (["0", "1", "2"], ["-1", "z"]),
               lambda t, f=field: io.parse_polynomial(t, f, ("x", "y")),
               lambda t, f=field: ref.parse_polynomial(t, f, ("x", "y")))
        for order in (1, 2, 3):
            ring = EpsRing(field, order)
            yield (f"eps{order}-{name}", "e", ([str(j) for j in range(order)],
                                                ["-1", str(order), "j"]),
                   lambda t, r=ring: io.parse_eps(t, r),
                   lambda t, r=ring: ref.parse_eps(t, r))


GRAMMARS = list(matrix_grammars())


class TestMatrices:
    @pytest.mark.parametrize("name, letter, exponents, new_entry, old_entry", GRAMMARS,
                             ids=[g[0] for g in GRAMMARS])
    def test_random_matrices_parse_alike(self, rng, name, letter, exponents,
                                         new_entry, old_entry):
        seen = {"value": 0, "raised": 0}
        for _ in range(250):
            text = random_matrix_text(rng, letter, exponents)
            new = outcome(io.parse_matrix, text, new_entry)
            old = outcome(ref.parse_matrix, text, old_entry)
            if is_trailing_comma(new, old, text) or is_exponent_notation(new, old, text):
                continue
            assert new == old, (name, text)
            seen[new[0]] += 1
        assert min(seen.values()) >= 25, seen

    @pytest.mark.parametrize("text", [
        "1*t^-2 - 3*t^-1", "2*t^ +-t^1", "1 - -3*t^0", "-t^-1 +-2", "1*t^- 2", "1 */-2",
    ])
    def test_signs_inside_terms(self, text):
        # a sign after '^' belongs to the exponent, and a sign after a joiner
        # to the next term's coefficient
        assert outcome(io.parse_laurent, text, QQ) == outcome(ref.parse_laurent, text, QQ)

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_repeated_variable_names(self, field):
        # the document reader rejects them, but parse_polynomial reads them
        text = "2*x^1 - x^2 + 3"
        assert outcome(io.parse_polynomial, text, field, ("x", "x")) == \
            outcome(ref.parse_polynomial, text, field, ("x", "x"))

    def test_negative_exponents(self):
        assert io.parse_laurent("1*t^-2 - 3*t^-1", QQ).support == (-2, -1)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


class TestScalars:
    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_scalars_read_alike(self, field):
        texts = ["7 mod 5", "-3 mod 5", " 12 mod 5 ", "7 mod 7", "x mod 5", "1 mod x",
                 "3 mod 2147483647", "-1 mod 2147483647", "1 mod 5 mod 5",
                 "9" * 4300, "9" * 4301, "-" + "9" * 4300, "-" + "9" * 4301,
                 "1/" + "9" * 4301, "0", "-0", "1/5", "-2/10", "1/0", "", "-", "--1"]
        exponents = ["1e3", "-2E-1", "1.5e2", ".5e1", "1_0e1_0", "1e4301", "0e0", "2e+1"]
        ring = EpsRing(field, 2)
        for text in texts + exponents + ["3e", "e", "1e 5", "1e_5", "1/2e3", "1e3e3"]:
            entry = f"{text}*e^1 - 1"
            # in an entry, a sign after the e splits the term
            for new, old, read, rejected in [
                    (outcome(io.parse_scalar, text, field),
                     outcome(ref.parse_scalar, text, field), text, text in exponents),
                    (outcome(io.parse_eps, entry, ring), outcome(ref.parse_eps, entry, ring),
                     entry, text in exponents and not re.search("[eE][-+]", text))]:
                if rejected:
                    assert is_exponent_notation(new, old, read), read
                else:
                    assert new == old, read


# ---------------------------------------------------------------------------
# Whole filtered-module documents
# ---------------------------------------------------------------------------


def reference_module(text):
    """The document read by the reference reader and built by the public
    constructor, which converts every entry."""
    pairs = dict(io._parse_lines(text))
    field = io.parse_field(pairs["field"])
    ring = EpsRing(field, int(pairs.get("epsilon_power", 1)))
    lo, hi = io._int_list(pairs["window"])
    maps = [ref.parse_matrix(pairs[f"map {i}"], lambda t: ref.parse_eps(t, ring))
            for i in range(lo, hi)]
    return FilteredModule(ring=ring, lo=lo, hi=hi,
                          ranks=tuple(io._int_list(pairs["ranks"])), maps=maps)


class TestFilteredDocuments:
    def test_generated_documents_read_alike(self, rng):
        gen = _load_generator()
        count = 0
        for command in ("assoc-graded", "split-filtration"):
            for top in range(1, 10):
                for order in (1, 2, 3):
                    for p in (None, 5, gen.P_LARGE):
                        doc = gen.filtered_doc(rng, command, top, order, p)
                        new = io.parse_document(doc.text).module
                        old = reference_module(doc.text)
                        assert new == old, doc.text
                        assert typed(new.maps) == typed(old.maps), doc.text
                        count += 1
        assert count == 2 * 9 * 3 * 3

    def test_api_callers_are_still_converted(self):
        ring = EpsRing(GF(5), 2)
        module = FilteredModule(ring=ring, lo=0, hi=1, ranks=(1, 2), maps=[[[7], [(6, -1)]]])
        assert module.maps == ((((2, 0),), ((1, 4),)),)
        text = ("kind = filtered_module\nfield = F5\nepsilon_power = 2\nwindow = 0, 1\n"
                "ranks = 1, 2\nmap 0 = [[7], [6 - 1*e^1]]\n")
        assert io.parse_document(text).module == module
