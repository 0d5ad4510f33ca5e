"""The document reader before it read each value in one pass, kept as a
reference.

The reader in ``equibundle.io`` splits a bracket list with ``str.split`` or
one compiled pattern, and reduces each coefficient once, where it is read.
This module keeps the reader it replaced, which walked every bracket list one
character at a time and converted each coefficient again in ``parse_eps``
(and once more in ``FilteredModule``), as it was, so that
``tests/test_reader_reference.py`` can compare the two on values, exception
types and messages.  The one intended difference: this reader accepts a list
whose last comma is directly followed by its closing bracket (``[1, 2,]``).
Nothing in the package imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from equibundle.exact_core import Field, LaurentPoly, Polynomial, PrimeField, Scalar
from equibundle.filtered import EpsRing
from equibundle.io import ParseError


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
    # Fraction agree on it, errors included
    digits = text[1:] if text[:1] == "-" else text
    try:
        return field(int(text) if digits.isascii() and digits.isdigit() else Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {text!r}: {exc}") from exc


def _split_terms(text: str) -> list[tuple[bool, str]]:
    """Split on top-level + and - into (negative?, unsigned term) pairs; a
    sign directly after '^', '*' or '/' belongs to the term."""
    terms = []
    negative = False
    start = 0
    last = ""  # last non-space character of the current term
    for idx, ch in enumerate(text):
        if ch in "+-":
            if last and last not in "^*/":
                terms.append((negative, text[start:idx].strip()))
                negative, start, last = ch == "-", idx + 1, ""
                continue
            if idx == 0:
                negative, start = ch == "-", 1
                continue
        if not ch.isspace():
            last = ch
    if not last:
        raise ParseError(f"dangling sign at the end of {text!r}" if terms
                         else f"empty term list in {text!r}")
    terms.append((negative, text[start:].strip()))
    return terms


def _parse_terms(text: str, field: Field, read_term, *context) -> dict:
    """Sum the signed terms of `text` into {key: coefficient}; read_term(term,
    field, *context) reads one unsigned term into (key, coefficient)."""
    text = text.strip()
    terms: dict = {}
    if text == "0":
        return terms
    for negative, term in _split_terms(text):
        key, coeff = read_term(term, field, *context)
        if negative:
            coeff = -coeff
        old = terms.get(key)
        terms[key] = coeff if old is None else old + coeff
    return terms


def _read_power(term: str, field: Field, letter: str, bad_exponent: str,
                order: Optional[int]) -> tuple[int, Scalar]:
    """`c*t^k`, `t^k` or `c` (exponent 0); `order` bounds an eps exponent."""
    marker = f"*{letter}^"
    if marker in term:
        coeff_text, exp_text = term.split(marker, 1)
    elif term.startswith(marker[1:]):
        coeff_text, exp_text = "1", term[2:]
    else:
        coeff_text, exp_text = term, "0"
    try:
        exp = int(exp_text)
    except ValueError as exc:
        raise ParseError(bad_exponent.format(term)) from exc
    if order is not None and not 0 <= exp < order:
        raise ParseError(f"eps exponent {exp} outside truncation order {order}")
    return exp, parse_scalar(coeff_text, field)


def _read_monomial(term: str, field: Field, index: dict,
                   nvars: int) -> tuple[tuple[int, ...], Scalar]:
    """`c*x^a*y^b`, `x^a*y^b` (coefficient 1) or `c`."""
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



def parse_laurent(text: str, field: Field) -> LaurentPoly:
    return LaurentPoly(field, _parse_terms(
        text, field, _read_power, "t", "bad exponent in term {!r}", None))


def parse_polynomial(text: str, field: Field, variables: Sequence[str]) -> Polynomial:
    index = {name: i for i, name in enumerate(variables)}
    return Polynomial(field, len(variables), _parse_terms(
        text, field, _read_monomial, index, len(variables)))


def parse_eps(text: str, ring: EpsRing) -> tuple:
    terms = _parse_terms(text, ring.field, _read_power, "e",
                         "bad eps exponent in {!r}", ring.order)
    return ring(tuple(terms.get(j, 0) for j in range(ring.order)))


def _split_bracket_list(text: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected a bracketed list, got {text!r}")
    inner = text[1:-1]
    items = []
    depth = 0
    current = ""
    for ch in inner:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
        if ch == "," and depth == 0:
            items.append(current)
            current = ""
        else:
            current += ch
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    if current.strip():
        items.append(current)
    elif current and items:
        raise ParseError(f"trailing comma in {text!r}")
    return [item.strip() for item in items]


def parse_matrix(text: str, parse_entry) -> list[list]:
    rows = []
    for row_text in _split_bracket_list(text):
        entries = _split_bracket_list(row_text) if row_text.strip() != "[]" else []
        rows.append([parse_entry(e) for e in entries])
    return rows
