"""Document formats: one UTF-8 text document describes one object.

A document is a list of `key = value` lines; blank lines and lines starting
with `#` are skipped on parse and never printed.  The first key must be
`kind`.  Canonical printing uses a fixed key order per kind, single spaces
around `=` and after commas, and normalizes scalars as follows: rationals as
`p/q` with the `/q` omitted when q = 1, prime-field residues, which are
plain ints, as bare integers in [0, p) (the field header carries p; the
standalone form `p mod N` is accepted on parse).  One writer serves both
kinds: an int has a numerator and a denominator too, and a residue is never
negative.  Laurent, multivariate and truncated polynomials share one
term-list grammar, read by `_parse_terms` and printed by `_render_terms`;
each kind supplies only its term: `c*t^e` with the exponent always written,
`c` or `c*x^a*y^b` with the variables in declared order, and `c` or `c*e^j`
with ascending j.  Signs live in the ` + ` / ` - ` joiners, and a sign with
no term after it is a parse error.  Each coefficient is reduced once, where
the reader builds it.  A list with a trailing comma is an error, however it
is spaced.  Posets are given by their size and generating specialization
pairs `i<j`.

parse(render(doc)) == doc and render(parse(text)) is a fixed point: the
grammar round-trips byte-exactly after one normalization pass.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from fractions import Fraction

from equibundle.exact_core import (
    Field,
    GF,
    LaurentMatrix,
    LaurentPoly,
    Polynomial,
    PrimeField,
    QQ,
    RationalField,
    Scalar,
    _Value,
)
from equibundle.filtered import EpsRing, FilteredModule
from equibundle.graded import GradedAlgebra, GradedModulePresentation
from equibundle.hensel import FiniteDimAlgebra, from_univariate_quotient
from equibundle.projline import SplittingType
from equibundle.topospace import FinitePoset, MonotoneMap


class ParseError(ValueError):
    """Malformed document text (reserved exit code 2 in the CLI)."""


_SIGN = re.compile(r"([+-])")
_GROUP_BRACKET_OR_COMMA = re.compile(r"\[[^\[\]]*\]|[\[\],]")


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def render_field(field: Field) -> str:
    return "Q" if isinstance(field, RationalField) else f"F{field.p}"


def parse_field(text: str) -> Field:
    text = text.strip()
    if text == "Q":
        return QQ
    if text.startswith("F"):
        try:
            return GF(int(text[1:]))
        except ValueError as exc:
            raise ParseError(f"bad field {text!r}: {exc}") from exc
    raise ParseError(f"unknown field {text!r}")


def render_scalar(value: Scalar) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def parse_scalar(text: str, field: Field) -> Scalar:
    text = text.strip()
    if " mod " in text:
        left, right = text.split(" mod ", 1)
        try:
            residue, modulus = int(left), int(right)
        except ValueError as exc:
            raise ParseError(f"bad scalar {text!r}") from exc
        if not isinstance(field, PrimeField) or field.p != modulus:
            raise ParseError(f"scalar {text!r} does not match the field header")
        return field(residue)
    # a plain ASCII integer skips Fraction's regular expression; int and
    # Fraction agree on it, errors included.  Fraction computes the power of
    # exponent notation (1e10000000 takes seconds): a text with an e that float
    # reads, as float reads that notation without the power, is rejected
    digits = text.removeprefix("-")
    try:
        if digits.isascii() and digits.isdigit():
            return field(int(text))
        if ("e" in text or "E" in text) and _is_float(text):
            raise ValueError("exponent notation is not accepted")
        return field(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Term lists: Laurent (c*t^k), multivariate (c*x^a*y^b) and truncated (c*e^j)
# polynomials share one reader and one writer
# ---------------------------------------------------------------------------


def _parse_terms(text: str, field: Field, read_term, context) -> dict:
    """Sum the signed terms of `text` into {key: coefficient}; read_term(term,
    field, context) reads one unsigned term into (key, field element), and a
    sign or a repeated key is field arithmetic, so every value is reduced.
    The text is split on its top-level + and - before any term is read; a
    sign after '^', '*', '/' or a sign that did not split is in the term."""
    text = text.strip()
    terms: dict = {}
    if text == "0":
        return terms
    pieces = _SIGN.split(text)  # the text between the signs, and each sign
    signed = []
    negative, head = False, pieces[0]
    for k in range(1, len(pieces), 2):
        sign, after = pieces[k], pieces[k + 1]
        term = head.strip()
        if term and term[-1] not in "^*/":  # a joiner
            signed.append((negative, term))
            negative, head = sign == "-", after
        elif k == 1 and not head:  # a sign that opens the text
            negative, head = sign == "-", after
        else:  # a sign inside a term, as in 1*t^-2
            head += sign + after
    tail = head.strip()
    if not tail:
        raise ParseError(f"dangling sign at the end of {text!r}" if signed
                         else f"empty term list in {text!r}")
    signed.append((negative, tail))
    p = field.p
    for negative, term in signed:
        key, coeff = read_term(term, field, context)
        if negative:
            coeff = -coeff % p if p else -coeff
        old = terms.get(key)
        if old is not None:
            coeff = (old + coeff) % p if p else old + coeff
        terms[key] = coeff
    return terms


def _read_power(term: str, field: Field, order: int | None) -> tuple[int, Scalar]:
    """`c*t^k`, `t^k` or `c` (exponent 0) in a Laurent entry (order None), or
    `c*e^j`, `e^j` or `c` with 0 <= j < order in a truncated one."""
    marker = "*t^" if order is None else "*e^"
    coeff_text, found, exp_text = term.partition(marker)
    if not found:
        if not term.startswith(marker[1:]):
            return 0, parse_scalar(term, field)
        coeff_text, exp_text = "1", term[2:]
    try:
        exp = int(exp_text)
    except ValueError as exc:
        raise ParseError(f"bad exponent in term {term!r}" if order is None
                         else f"bad eps exponent in {term!r}") from exc
    if order is not None and not 0 <= exp < order:
        raise ParseError(f"eps exponent {exp} outside truncation order {order}")
    return exp, parse_scalar(coeff_text, field)


def _read_monomial(term: str, field: Field, context) -> tuple[tuple[int, ...], Scalar]:
    """`c*x^a*y^b`, `x^a*y^b` (coefficient 1) or `c`; context is the variable
    index and the number of variables."""
    index, nvars = context
    factors = term.split("*")
    coeff_text, start = factors[0], 1
    if "^" in coeff_text:  # a term like x^2 has the implicit coefficient 1
        coeff_text, start = "1", 0
    coeff = parse_scalar(coeff_text, field)
    mono = [0] * nvars
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
    if min(mono, default=0) < 0:
        raise ValueError(f"bad monomial {tuple(mono)} for {nvars} variables")
    return tuple(mono), coeff


def _render_terms(terms, write_term, *context) -> str:
    """Join (key, nonzero coefficient) pairs with the signs in the ` + ` /
    ` - ` joiners; write_term(magnitude, key, *context) prints one term."""
    out = []
    for key, coeff in terms:
        negative = coeff < 0
        body = render_scalar(-coeff if negative else coeff)
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(write_term(body, key, *context))
    return "".join(out) or "0"


def _write_eps(body: str, j: int) -> str:
    return f"{body}*e^{j}" if j else body


def _write_monomial(body: str, mono, variables: Sequence[str]) -> str:
    return "*".join([body] + [f"{variables[i]}^{e}" for i, e in enumerate(mono) if e])


def render_laurent(poly: LaurentPoly) -> str:
    return _render_terms(reversed(poly.terms()), "{}*t^{}".format)


def parse_laurent(text: str, field: Field) -> LaurentPoly:
    return LaurentPoly(field, _parse_terms(text, field, _read_power, None))


def render_polynomial(poly: Polynomial, variables: Sequence[str]) -> str:
    return _render_terms(poly.terms(), _write_monomial, variables)


def parse_polynomial(text: str, field: Field, variables: Sequence[str]) -> Polynomial:
    index = {name: i for i, name in enumerate(variables)}
    return Polynomial(field, len(variables), _parse_terms(
        text, field, _read_monomial, (index, len(variables))))


def render_eps(value: tuple, ring: EpsRing) -> str:
    return _render_terms(((j, c) for j, c in enumerate(value) if c), _write_eps)


def parse_eps(text: str, ring: EpsRing) -> tuple:
    """Each coefficient is reduced where it is read; the tuple is not converted."""
    if text == "0":
        return ring.zero
    coeffs = [ring.field.zero] * ring.order
    for j, coeff in _parse_terms(text, ring.field, _read_power, ring.order).items():
        coeffs[j] = coeff
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def _split_bracket_list(text: str) -> list[str]:
    """The stripped top-level items of `[a, b, ...]`.  A flat list is split at
    its commas; a nested one is scanned at its brackets and commas, passing
    over whole each group with no bracket inside (balanced, no top comma)."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected a bracketed list, got {text!r}")
    inner = text[1:-1]
    if "[" not in inner and "]" not in inner:
        items = inner.split(",")
    else:
        items, depth, start = [], 0, 0
        for mark in _GROUP_BRACKET_OR_COMMA.finditer(inner):
            token = mark.group()
            if token == ",":
                if not depth:
                    items.append(inner[start:mark.start()])
                    start = mark.end()
            elif token == "[":
                depth += 1
            elif token == "]":
                depth -= 1
                if depth < 0:
                    raise ParseError(f"unbalanced brackets in {text!r}")
        if depth:
            raise ParseError(f"unbalanced brackets in {text!r}")
        items.append(inner[start:])
    items = [item.strip() for item in items]
    if items[-1]:
        return items
    if len(items) > 1:
        raise ParseError(f"trailing comma in {text!r}")
    return []  # `[]`


def render_matrix(rows, render_entry) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(render_entry(entry) for entry in row) + "]" for row in rows
    ) + "]"


def parse_matrix(text: str, parse_entry) -> list[list]:
    return [[parse_entry(entry) for entry in _split_bracket_list(row)]
            for row in _split_bracket_list(text)]


def render_laurent_matrix(matrix: LaurentMatrix) -> str:
    return render_matrix(matrix.rows, render_laurent)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def _parse_lines(text: str) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    if not pairs:
        raise ParseError("empty document")
    return pairs


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"bad {what} {text!r}") from exc


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad integer list {text!r}") from exc


def _render_int_list(values) -> str:
    return ", ".join(str(v) for v in values)


class LaurentMatrixDoc(_Value):
    kind = "laurent_matrix"
    __slots__ = ("matrix",)

    def __init__(self, matrix: LaurentMatrix):
        self.matrix = matrix

    def render(self) -> str:
        return (
            f"kind = {self.kind}\n"
            f"field = {render_field(self.matrix.field)}\n"
            f"matrix = {render_laurent_matrix(self.matrix)}\n"
        )


class SplittingTypeDoc(_Value):
    kind = "splitting_type"
    __slots__ = ("degrees",)

    def __init__(self, degrees: SplittingType):
        self.degrees = degrees

    def render(self) -> str:
        return (
            f"kind = {self.kind}\n"
            f"degrees = {_render_int_list(self.degrees.degrees)}\n"
        )


def _algebra_lines(alg: GradedAlgebra) -> list[str]:
    lines = []
    if alg.variables:
        lines.append(f"variables = {', '.join(alg.variables)}")
        lines.append(f"degrees = {_render_int_list(alg.degrees)}")
    for rel in alg.relations:
        lines.append(f"relation = {render_polynomial(rel, alg.variables)}")
    return lines


class GradedAlgebraDoc(_Value):
    kind = "graded_algebra"
    __slots__ = ("algebra",)

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra

    def render(self) -> str:
        alg = self.algebra
        lines = [f"kind = {self.kind}", f"field = {render_field(alg.field)}"]
        lines.extend(_algebra_lines(alg))
        return "\n".join(lines) + "\n"


class GradedModuleDoc(_Value):
    kind = "graded_module"
    __slots__ = ("module", "target_degrees", "matrix")

    def __init__(self, module: GradedModulePresentation,
                 target_degrees: tuple[int, ...] | None = None,
                 matrix: tuple[tuple[Polynomial, ...], ...] | None = None):
        self.module, self.target_degrees, self.matrix = module, target_degrees, matrix

    def render(self) -> str:
        alg = self.module.algebra
        lines = [f"kind = {self.kind}", f"field = {render_field(alg.field)}"]
        lines.extend(_algebra_lines(alg))
        lines.append(f"generators = {_render_int_list(self.module.generator_degrees)}")
        for col in self.module.relations:
            body = ", ".join(render_polynomial(p, alg.variables) for p in col)
            lines.append(f"module_relation = [{body}]")
        if self.target_degrees is not None:
            lines.append(f"target_generators = {_render_int_list(self.target_degrees)}")
        if self.matrix is not None:
            lines.append("matrix = " + render_matrix(
                self.matrix, lambda p: render_polynomial(p, alg.variables)))
        return "\n".join(lines) + "\n"


class FilteredModuleDoc(_Value):
    kind = "filtered_module"
    __slots__ = ("module",)

    def __init__(self, module: FilteredModule):
        self.module = module

    def render(self) -> str:
        f = self.module
        lines = [
            f"kind = {self.kind}",
            f"field = {render_field(f.ring.field)}",
        ]
        if f.ring.order != 1:
            lines.append(f"epsilon_power = {f.ring.order}")
        lines.append(f"window = {f.lo}, {f.hi}")
        lines.append(f"ranks = {_render_int_list(f.ranks)}")
        for step, mat in enumerate(f.maps):
            body = render_matrix(mat, lambda v: render_eps(v, f.ring))
            lines.append(f"map {f.lo + step} = {body}")
        return "\n".join(lines) + "\n"


class FinDimAlgebraDoc(_Value):
    kind = "findim_algebra"
    __slots__ = ("quotient", "ideal", "idempotent")
    _VARS = ("x",)  # the quotient, monic, and the ideal are polynomials in x

    def __init__(self, quotient: Polynomial, ideal: tuple[Polynomial, ...],
                 idempotent: Polynomial | None = None):
        self.quotient, self.ideal, self.idempotent = quotient, ideal, idempotent

    def render(self) -> str:
        lines = [
            f"kind = {self.kind}",
            f"field = {render_field(self.quotient.field)}",
            f"quotient = {render_polynomial(self.quotient, self._VARS)}",
            "ideal = [" + ", ".join(
                render_polynomial(p, self._VARS) for p in self.ideal) + "]",
        ]
        if self.idempotent is not None:
            lines.append(f"idempotent = {render_polynomial(self.idempotent, self._VARS)}")
        return "\n".join(lines) + "\n"

    def _poly_coeffs(self, poly: Polynomial) -> list:
        degree = max((m[0] for m, _ in poly.terms()), default=0)
        return [poly.coeff((i,)) for i in range(degree + 1)]

    def build(self) -> FiniteDimAlgebra:
        return from_univariate_quotient(
            self.quotient.field,
            self._poly_coeffs(self.quotient),
            [self._poly_coeffs(p) for p in self.ideal],
        )

    def idempotent_vector(self, algebra: FiniteDimAlgebra):
        if self.idempotent is None:
            raise ParseError("document carries no idempotent")
        coeffs = self._poly_coeffs(self.idempotent)
        if len(coeffs) > algebra.dim:
            raise ParseError("idempotent degree exceeds the algebra dimension")
        coeffs += [algebra.field.zero] * (algebra.dim - len(coeffs))
        return tuple(coeffs)


class PosetDoc(_Value):
    kind = "poset"
    __slots__ = ("poset", "generators")

    def __init__(self, poset: FinitePoset, generators: tuple[tuple[int, int], ...]):
        self.poset, self.generators = poset, generators

    def render(self) -> str:
        lines = [f"kind = {self.kind}", f"n = {self.poset.size}"]
        for x, y in self.generators:
            lines.append(f"rel = {x}<{y}")
        return "\n".join(lines) + "\n"


class MonotoneMapDoc(_Value):
    kind = "monotone_map"
    __slots__ = ("map", "source_generators", "target_generators")

    def __init__(self, map: MonotoneMap, source_generators: tuple[tuple[int, int], ...],
                 target_generators: tuple[tuple[int, int], ...]):
        self.map, self.source_generators, self.target_generators = (
            map, source_generators, target_generators)

    def render(self) -> str:
        lines = [
            f"kind = {self.kind}",
            f"source_n = {self.map.source.size}",
        ]
        for x, y in self.source_generators:
            lines.append(f"source_rel = {x}<{y}")
        lines.append(f"target_n = {self.map.target.size}")
        for x, y in self.target_generators:
            lines.append(f"target_rel = {x}<{y}")
        lines.append(f"map = {_render_int_list(self.map.mapping)}")
        return "\n".join(lines) + "\n"


Document = (LaurentMatrixDoc | SplittingTypeDoc | GradedAlgebraDoc | GradedModuleDoc
            | FilteredModuleDoc | FinDimAlgebraDoc | PosetDoc | MonotoneMapDoc)


def _parse_relation_pair(text: str) -> tuple[int, int]:
    if "<" not in text:
        raise ParseError(f"bad relation pair {text!r}")
    left, right = text.split("<", 1)
    try:
        return int(left.strip()), int(right.strip())
    except ValueError as exc:
        raise ParseError(f"bad relation pair {text!r}") from exc


class _Fields:
    """Cursor over parsed key/value pairs with single-use and repeat access."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def take(self, key: str, required: bool = True) -> str | None:
        for i, (k, v) in enumerate(self.pairs):
            if k == key:
                del self.pairs[i]
                return v
        if required:
            raise ParseError(f"missing field {key!r}")
        return None

    def take_all(self, key: str) -> list[str]:
        found = [v for k, v in self.pairs if k == key]
        self.pairs = [(k, v) for k, v in self.pairs if k != key]
        return found

    def finish(self):
        if self.pairs:
            raise ParseError(f"unexpected field {self.pairs[0][0]!r}")


def parse_document(text: str) -> Document:
    pairs = _parse_lines(text)
    if pairs[0][0] != "kind":
        raise ParseError("first field must be 'kind'")
    kind = pairs[0][1]
    fields = _Fields(pairs[1:])
    if kind == "laurent_matrix":
        field = parse_field(fields.take("field"))
        rows = parse_matrix(fields.take("matrix"), lambda t: parse_laurent(t, field))
        fields.finish()
        return LaurentMatrixDoc(matrix=LaurentMatrix(field, rows))
    if kind == "splitting_type":
        degrees = _int_list(fields.take("degrees"))
        fields.finish()
        return SplittingTypeDoc(degrees=SplittingType(tuple(degrees)))
    if kind == "graded_algebra":
        algebra = _parse_algebra(fields)
        fields.finish()
        return GradedAlgebraDoc(algebra=algebra)
    if kind == "graded_module":
        algebra = _parse_algebra(fields)
        generators = tuple(_int_list(fields.take("generators")))
        columns = []
        for column_text in fields.take_all("module_relation"):
            entries = _split_bracket_list(column_text)
            columns.append(tuple(
                parse_polynomial(e, algebra.field, algebra.variables) for e in entries))
        target_text = fields.take("target_generators", required=False)
        matrix_text = fields.take("matrix", required=False)
        fields.finish()
        module = GradedModulePresentation(algebra, generators, tuple(columns))
        target = tuple(_int_list(target_text)) if target_text is not None else None
        matrix = None
        if matrix_text is not None:
            matrix = tuple(tuple(row) for row in parse_matrix(
                matrix_text, lambda t: parse_polynomial(t, algebra.field, algebra.variables)))
        return GradedModuleDoc(module=module, target_degrees=target, matrix=matrix)
    if kind == "filtered_module":
        field = parse_field(fields.take("field"))
        order_text = fields.take("epsilon_power", required=False)
        order = _int(order_text, "epsilon power") if order_text is not None else 1
        ring = EpsRing(field, order)
        window = _int_list(fields.take("window"))
        if len(window) != 2:
            raise ParseError("window must be 'lo, hi'")
        lo, hi = window
        ranks = tuple(_int_list(fields.take("ranks")))
        maps = [parse_matrix(fields.take(f"map {index}"), lambda t: parse_eps(t, ring))
                for index in range(lo, hi)]
        fields.finish()
        # shape/validation problems are object-level errors, not parse errors;
        # parse_eps has made every entry a ring element
        module = FilteredModule._of_ring_elements(ring, lo, hi, ranks, maps)
        return FilteredModuleDoc(module=module)
    if kind == "findim_algebra":
        field = parse_field(fields.take("field"))
        variables = ("x",)
        quotient = parse_polynomial(fields.take("quotient"), field, variables)
        ideal_items = _split_bracket_list(fields.take("ideal"))
        ideal = tuple(parse_polynomial(t, field, variables) for t in ideal_items)
        idem_text = fields.take("idempotent", required=False)
        idempotent = (parse_polynomial(idem_text, field, variables)
                      if idem_text is not None else None)
        fields.finish()
        return FinDimAlgebraDoc(quotient=quotient, ideal=ideal, idempotent=idempotent)
    if kind == "poset":
        size = _int(fields.take("n"), "poset size")
        generators = tuple(_parse_relation_pair(t) for t in fields.take_all("rel"))
        fields.finish()
        return PosetDoc(poset=FinitePoset.from_relations(size, generators),
                        generators=generators)
    if kind == "monotone_map":
        source_n = _int(fields.take("source_n"), "source size")
        source_rel = tuple(_parse_relation_pair(t) for t in fields.take_all("source_rel"))
        target_n = _int(fields.take("target_n"), "target size")
        target_rel = tuple(_parse_relation_pair(t) for t in fields.take_all("target_rel"))
        mapping = tuple(_int_list(fields.take("map")))
        fields.finish()
        source = FinitePoset.from_relations(source_n, source_rel)
        target = FinitePoset.from_relations(target_n, target_rel)
        return MonotoneMapDoc(map=MonotoneMap(source, target, mapping),
                              source_generators=source_rel,
                              target_generators=target_rel)
    raise ParseError(f"unknown kind {kind!r}")


def _parse_algebra(fields: _Fields) -> GradedAlgebra:
    field = parse_field(fields.take("field"))
    variables_text = fields.take("variables", required=False)
    if variables_text is None or not variables_text.strip():
        variables: tuple[str, ...] = ()
    else:
        variables = tuple(v.strip() for v in variables_text.split(","))
        for i, name in enumerate(variables):
            if not name.isidentifier():
                raise ParseError(f"bad variable name {name!r}")
            if name in variables[:i]:
                raise ParseError(f"variable {name!r} repeats")
    degrees_text = fields.take("degrees", required=False)
    degrees = tuple(_int_list(degrees_text)) if degrees_text is not None else ()
    relations = tuple(
        parse_polynomial(t, field, variables) for t in fields.take_all("relation"))
    return GradedAlgebra(field, variables, degrees, relations)
