"""Command-line interface: one input document per run, deterministic reports.

`main` loads the document, checks its kind against the command's entry in
COMMANDS, and prints the report lines the command returns.  A command
accepts `--verify` and only the value flags its entry names; argparse exits
2 on any other flag, as on a malformed value.  Exit codes:
0 = success (a mathematical "no" is still a successful run), 2 = document
parse error, 3 = invalid object (failed validation), 1 = an internal
cross-check failed (including the h0 stability check).  Commands let
ParseError and ValueError from the library reach `main`, which maps them to
2 and 3; CommandError carries the codes the commands decide themselves.
"""

from __future__ import annotations

import argparse
import functools
import sys

from equibundle import filtered, graded, hensel, projline, topospace
from equibundle.io import (
    Document,
    GradedAlgebraDoc,
    LaurentMatrixDoc,
    ParseError,
    parse_document,
    parse_field,
    render_eps,
    render_field,
    render_laurent_matrix,
    render_matrix,
    render_polynomial,
    render_scalar,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_INVALID = 3


class CommandError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(path: str, expected_kinds) -> Document:
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode()  # parsing splits lines as text mode would
    except (OSError, UnicodeDecodeError) as exc:
        raise CommandError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    try:
        doc = parse_document(text)
    except ParseError as exc:
        raise CommandError(f"parse error in {path}: {exc}", EXIT_PARSE) from exc
    except ValueError as exc:
        raise CommandError(f"invalid object in {path}: {exc}", EXIT_INVALID) from exc
    if doc.kind not in expected_kinds:
        raise CommandError(
            f"{path}: expected kind in {expected_kinds}, got {doc.kind!r}", EXIT_PARSE)
    return doc


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# projline commands
# ---------------------------------------------------------------------------


def cmd_classify_p1(doc, args) -> list[str]:
    g = doc.matrix
    factorization = projline.birkhoff_factorize(g)
    stype = factorization.splitting_type
    w, c = g.det_unit_exponent()
    window = args.twist_window
    lines = [
        "report = classify-p1",
        f"rank = {g.n}",
        f"field = {render_field(g.field)}",
        f"splitting type = ({', '.join(str(d) for d in stype)})",
        f"determinant = {render_scalar(c)} * t^{w}",
        f"degree check = {_yesno(stype.degree == -w)}",
        f"birkhoff A = {render_laurent_matrix(factorization.A)}",
        f"birkhoff D = {render_laurent_matrix(factorization.D)}",
        f"birkhoff B = {render_laurent_matrix(factorization.B)}",
        "factorization exact = yes",
    ]
    h0 = projline.h0_table(g, window)
    lines += [f"h0 twist {m} = {dim}" for m, dim in h0.items()]
    if args.verify:
        agree = all(dim == sum(max(0, d + m + 1) for d in stype)
                    for m, dim in h0.items())
        if not agree:
            raise CommandError("h0 oracle disagrees with the splitting type",
                               EXIT_INTERNAL)
        lines.append("h0 oracle agreement = yes")
    return lines


def cmd_birkhoff(doc, args) -> list[str]:
    factorization = projline.birkhoff_factorize(doc.matrix)
    return [
        "report = birkhoff",
        f"A = {render_laurent_matrix(factorization.A)}",
        f"D = {render_laurent_matrix(factorization.D)}",
        f"B = {render_laurent_matrix(factorization.B)}",
        f"exponents = {', '.join(str(k) for k in factorization.exponents)}",
        "exact = yes",
    ]


def cmd_cochar_to_bundle(doc, args) -> list[str]:
    field = parse_field(args.field)
    g = projline.cocharacter_to_bundle(doc.degrees, field)
    return [LaurentMatrixDoc(field=field, matrix=g).render().rstrip("\n")]


def cmd_h0(doc, args) -> list[str]:
    g = doc.matrix
    h0 = projline.h0_table(g, args.twist_window)
    return ["report = h0", f"rank = {g.n}"] + [
        f"h0 twist {m} = {dim}" for m, dim in h0.items()]


# ---------------------------------------------------------------------------
# filtered commands
# ---------------------------------------------------------------------------


def _graded_ranks_line(ranks: dict) -> str:
    inner = ", ".join(f"{d}: {r}" for d, r in sorted(ranks.items()))
    return "{" + inner + "}"


def cmd_split_filtration(doc, args) -> list[str]:
    module = doc.module
    splitting = filtered.split_filtration(module)
    stype = filtered.graded_to_splitting_type(splitting.graded_ranks)
    ring = module.ring
    basis_rows = [
        [splitting.basis[c][r] for c in range(len(splitting.basis))]
        for r in range(len(splitting.basis))
    ]
    return [
        "report = split-filtration",
        f"graded ranks = {_graded_ranks_line(splitting.graded_ranks)}",
        f"degrees by column = {', '.join(str(d) for d in splitting.degrees_by_column)}",
        f"splitting basis = {render_matrix(basis_rows, lambda v: render_eps(v, ring))}",
        f"splitting type = ({', '.join(str(d) for d in stype)})",
        # split_filtration has verified the splitting exactly; --verify adds nothing
        "exact = yes",
    ]


def cmd_assoc_graded(doc, args) -> list[str]:
    ranks = filtered.associated_graded(doc.module)
    return [
        "report = assoc-graded",
        f"graded ranks = {_graded_ranks_line(ranks)}",
        f"total rank = {sum(ranks.values())}",
    ]


# ---------------------------------------------------------------------------
# graded commands
# ---------------------------------------------------------------------------


def cmd_nakayama(doc, args) -> list[str]:
    module = doc.module
    result = graded.nakayama_zero_test(module)
    lines = ["report = nakayama", f"module is zero = {_yesno(result.is_zero)}"]
    variables = module.algebra.variables
    if result.is_zero:
        witness = result.witness
        lines.append(f"witness order = {witness.nilpotency_order}")
        lines.append("witness matrix = " + render_matrix(
            witness.coefficient_matrix, lambda p: render_polynomial(p, variables)))
        lines.append("witness combination = " + render_matrix(
            witness.combination, render_scalar))
        lines.append("unit constant = 1")
    else:
        lines.append(f"surviving degree = {result.surviving_degree}")
    if args.verify:
        bound = args.degree_bound
        if bound is None:
            bound = module.default_degree_bound()
        lo = min(module.generator_degrees, default=0)
        # The enumeration sees a "no" only once it reaches the surviving
        # degree, and a "yes" is vacuous below the lowest generator.
        need = lo if result.is_zero else result.surviving_degree
        if module.generator_degrees and bound < need:
            raise CommandError(
                f"--degree-bound {bound} is below degree {need}, which the "
                "component enumeration must reach", EXIT_INVALID)
        brute = all(module.component_dimension(d) == 0 for d in range(lo, bound + 1))
        if brute != result.is_zero:
            raise CommandError("verdict disagrees with component enumeration",
                               EXIT_INTERNAL)
        lines.append(f"component enumeration up to degree {bound} = agrees")
    return lines


def cmd_lift_map(doc, args) -> list[str]:
    if doc.target_degrees is None or doc.matrix is None:
        raise CommandError(
            "document must carry target_generators and matrix", EXIT_PARSE)
    module = doc.module
    variables = module.algebra.variables
    scalars = []
    for row in doc.matrix:
        scalar_row = []
        for entry in row:
            if not entry.is_constant():
                raise CommandError(
                    "matrix entries must be scalars over the residue field",
                    EXIT_INVALID)
            scalar_row.append(entry.constant_term)
        scalars.append(scalar_row)
    lifted = graded.lift_graded_map(scalars, module, doc.target_degrees)
    is_iso = graded.graded_iso_test(lifted, module, doc.target_degrees)
    return [
        "report = lift-map",
        "lifted matrix = " + render_matrix(
            lifted, lambda p: render_polynomial(p, variables)),
        f"reduction is bijective = {_yesno(is_iso)}",
        f"lift is isomorphism = {_yesno(is_iso)}",
    ]


# ---------------------------------------------------------------------------
# hensel commands
# ---------------------------------------------------------------------------


def cmd_hensel_check(doc, args) -> list[str]:
    if isinstance(doc, GradedAlgebraDoc):
        verdict = hensel.trivially_henselian(doc.algebra)
        return [
            "report = hensel-check",
            f"trivially henselian = {_yesno(verdict)}",
        ]
    algebra = doc.build()
    radical = hensel.jacobson_radical(algebra)
    verdict = hensel.is_henselian_pair(algebra, radical=radical)
    return [
        "report = hensel-check",
        f"dimension = {algebra.dim}",
        f"radical dimension = {algebra.dim + 1 - len(radical)}",
        f"henselian pair = {_yesno(verdict)}",
    ]


def cmd_lift_idempotent(doc, args) -> list[str]:
    algebra = doc.build()
    lift = hensel.lift_idempotent(algebra, doc.idempotent_vector(algebra))
    return [
        "report = lift-idempotent",
        f"iterations = {lift.iterations}",
        "idempotent = [" + ", ".join(render_scalar(v) for v in lift.element) + "]",
        "exact = yes",
    ]


# ---------------------------------------------------------------------------
# topospace commands
# ---------------------------------------------------------------------------


def _subset_lines(label: str, subsets, size: int) -> list[str]:
    """One line per subset, given as sorted points: one str per point."""
    names = [str(x) for x in range(size)]
    return [f"{label} {i} = {{{', '.join([names[x] for x in s])}}}"
            for i, s in enumerate(subsets)]


def cmd_pi0(doc, args) -> list[str]:
    data = topospace.pi0(doc.poset)
    return ["report = pi0", f"components = {data.count}",
            *_subset_lines("component", map(sorted, data.components), doc.poset.size)]


def cmd_clopen(doc, args) -> list[str]:
    sets = topospace.clopen_sets(doc.poset)
    return ["report = clopen", f"count = {len(sets)}",
            *_subset_lines("clopen", sets, doc.poset.size)]


def cmd_lemma_b2(doc, args) -> list[str]:
    verdict = topospace.lemma_b2_verify(doc.poset)
    return ["report = lemma-b2", f"bijections hold = {_yesno(verdict)}"]


def cmd_prop_b3(doc, args) -> list[str]:
    report = topospace.prop_b3_check(doc.map)
    return ["report = prop-b3", f"clopen bijection = {_yesno(report.clopen_bijection)}",
            f"pi0 bijective = {_yesno(report.pi0_bijective)}",
            f"pi0 homeomorphism = {_yesno(report.pi0_homeomorphism)}",
            f"equivalence holds = {_yesno(report.all_equivalent)}"]


def cmd_homeo_check(doc, args) -> list[str]:
    verdict = topospace.homeo_criterion(doc.map)
    return ["report = homeo-check", f"homeomorphism = {_yesno(verdict)}"]


# ---------------------------------------------------------------------------


def _window(text: str) -> int:
    """A twist window: an integer >= 0 (a negative one would compare nothing)."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


# The value flags, by name; a command accepts only those it reads.
_VALUE_FLAGS = {
    "--field": dict(default="Q", help="base field for generated objects (Q or F<p>)"),
    "--twist-window": dict(type=_window, default=3,
                           help="half-width of the twist window for h0 tables (>= 0)"),
    "--degree-bound": dict(type=int, default=None,
                           help="override the graded component enumeration bound"),
}

# command -> (handler(doc, args) -> report lines, the document kinds it reads,
#             the value flags it reads)
COMMANDS = {
    "classify-p1": (cmd_classify_p1, ("laurent_matrix",), ("--twist-window",)),
    "birkhoff": (cmd_birkhoff, ("laurent_matrix",), ()),
    "cochar-to-bundle": (cmd_cochar_to_bundle, ("splitting_type",), ("--field",)),
    "h0": (cmd_h0, ("laurent_matrix",), ("--twist-window",)),
    "split-filtration": (cmd_split_filtration, ("filtered_module",), ()),
    "assoc-graded": (cmd_assoc_graded, ("filtered_module",), ()),
    "nakayama": (cmd_nakayama, ("graded_module",), ("--degree-bound",)),
    "lift-map": (cmd_lift_map, ("graded_module",), ()),
    "hensel-check": (cmd_hensel_check, ("graded_algebra", "findim_algebra"), ()),
    "lift-idempotent": (cmd_lift_idempotent, ("findim_algebra",), ()),
    "pi0": (cmd_pi0, ("poset",), ()),
    "clopen": (cmd_clopen, ("poset",), ()),
    "lemma-b2": (cmd_lemma_b2, ("poset",), ()),
    "prop-b3": (cmd_prop_b3, ("monotone_map",), ()),
    "homeo-check": (cmd_homeo_check, ("monotone_map",), ()),
}


# command -> its subparser, recorded by build_parser
_SUBPARSERS: dict[str, argparse.ArgumentParser] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="equibundle",
        description="Exact bundle classification, graded lifting, filtration "
                    "splitting, henselian predicates, and finite spectral spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in COMMANDS.items():
        cmd = _SUBPARSERS[name] = sub.add_parser(name)
        cmd.add_argument("file", help="input document")
        for flag in flags:
            cmd.add_argument(flag, **_VALUE_FLAGS[flag])
        cmd.add_argument("--verify", action="store_true",
                         help="force the independent oracle re-check")
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """parse_args in one pass: a command's own subparser reads its arguments,
    and the top-level parser reports what is left over, as parse_args would.
    The top-level parser parses only an argv that starts with no command."""
    parser = build_parser()
    if not argv or argv[0] not in _SUBPARSERS:
        return parser.parse_args(argv)
    args, extra = _SUBPARSERS[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    handler, kinds, _ = COMMANDS[args.command]
    try:
        lines = handler(_load(args.file, kinds), args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (AssertionError, ArithmeticError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
