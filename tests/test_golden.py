"""Golden-report guards, run in-process through ``cli.main``.

* Every command on every corpus document, plain and with ``--verify``, must
  give the recorded exit code and stdout digest (``golden_reports.json``).
* Every command on every invalid document below (text, written as UTF-8, or
  bytes), plain and with ``--verify``, must give the recorded exit code,
  stdout digest and stderr digest (``golden_errors.json``).  The documents
  live here, not in ``corpus/``, because every corpus file must round-trip
  through the parser.

To record both files afresh (only when a report or an error message is
meant to change), run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from equibundle.cli import COMMANDS, main

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "..", "corpus")
GOLDEN = os.path.join(HERE, "golden_reports.json")
GOLDEN_ERRORS = os.path.join(HERE, "golden_errors.json")

ERROR_DOCUMENTS = {
    "filtered_not_split_q.txt": (
        "kind = filtered_module\nfield = Q\nwindow = 0, 1\nranks = 2, 2\n"
        "map 0 = [[1, 0], [0, 0]]\n"),
    "filtered_rank_drop_q.txt": (
        "kind = filtered_module\nfield = Q\nwindow = 0, 1\nranks = 2, 1\n"
        "map 0 = [[1, 1]]\n"),
    "filtered_not_split_f5_eps.txt": (
        "kind = filtered_module\nfield = F5\nepsilon_power = 2\nwindow = 0, 1\n"
        "ranks = 1, 2\nmap 0 = [[1*e^1], [0]]\n"),
    "filtered_rank_drop_f5_eps.txt": (
        "kind = filtered_module\nfield = F5\nepsilon_power = 2\nwindow = 0, 1\n"
        "ranks = 2, 1\nmap 0 = [[1, 1*e^1]]\n"),
    "laurent_dangling_sign.txt": (
        "kind = laurent_matrix\nfield = Q\nmatrix = [[1*t^1, 1*t^0 -], [0, 1*t^-1]]\n"),
    "graded_mixed_sign.txt": (
        "kind = graded_module\nfield = Q\nvariables = x, y\ndegrees = 1, -1\n"
        "generators = 0\n"),
    "liftmap_inhomogeneous.txt": (
        "kind = graded_module\nfield = Q\nvariables = x\ndegrees = 1\n"
        "generators = 0, 1\ntarget_generators = 0, 1\nmatrix = [[1, 1], [0, 1]]\n"),
    "liftmap_nonscalar.txt": (
        "kind = graded_module\nfield = Q\nvariables = x\ndegrees = 1\n"
        "generators = 0, 1\ntarget_generators = 0, 1\n"
        "matrix = [[1, 0], [1*x^1, 1]]\n"),
    "liftmap_no_matrix.txt": (
        "kind = graded_module\nfield = Q\nvariables = x\ndegrees = 1\n"
        "generators = 0\n"),
    "findim_not_monic.txt": (
        "kind = findim_algebra\nfield = Q\nquotient = 2*x^2\nideal = [1*x^1]\n"
        "idempotent = 1\n"),
    "findim_not_idempotent.txt": (
        "kind = findim_algebra\nfield = Q\nquotient = 1*x^2\nideal = [1*x^1]\n"
        "idempotent = 2\n"),
    "findim_ideal_not_nilpotent.txt": (
        "kind = findim_algebra\nfield = F5\nquotient = 1*x^2 - 1*x^1\n"
        "ideal = [1*x^1]\nidempotent = 1*x^1\n"),
    "findim_no_idempotent.txt": (
        "kind = findim_algebra\nfield = Q\nquotient = 1*x^2\nideal = [1*x^1]\n"),
    "findim_idempotent_over_degree.txt": (
        "kind = findim_algebra\nfield = Q\nquotient = 1*x^2\nideal = [1*x^1]\n"
        "idempotent = 1*x^3\n"),
    "monotone_map_not_discrete.txt": (
        "kind = monotone_map\nsource_n = 2\nsource_rel = 0<1\ntarget_n = 1\n"
        "map = 0, 0\n"),
    "graded_variable_repeats.txt": (
        "kind = graded_module\nfield = Q\nvariables = x, x\ndegrees = 1, 2\n"
        "generators = 0\nmodule_relation = [x^1]\n"),
    "graded_variable_empty_name.txt": (
        "kind = graded_module\nfield = Q\nvariables = x, \ndegrees = 1, 2\n"
        "generators = 0\n"),
    "graded_relation_inhomogeneous.txt": (
        "kind = graded_module\nfield = Q\nvariables = a, b\ndegrees = 1, 1\n"
        "generators = 0\nrelation = 1*a^1 + 1*b^2\n"),
    "graded_module_relation_inhomogeneous.txt": (
        "kind = graded_module\nfield = F5\nvariables = a, b\ndegrees = 1, 2\n"
        "generators = 0, 1\nmodule_relation = [1*a^2, 1*a^1]\n"
        "module_relation = [0, 1*a^1 + 1*b^1]\n"),
    "poset_negative_size.txt": "kind = poset\nn = -1\n",
    "monotone_map_negative_target.txt": (
        "kind = monotone_map\nsource_n = 1\ntarget_n = -2\nmap = 0\n"),
    "filtered_bad_epsilon_power.txt": (
        "kind = filtered_module\nfield = Q\nepsilon_power = two\nwindow = 0, 0\n"
        "ranks = 1\n"),
    "poset_bad_size.txt": "kind = poset\nn = 2.5\n",
    "monotone_map_bad_source_size.txt": (
        "kind = monotone_map\nsource_n = x\ntarget_n = 1\nmap = 0\n"),
    "monotone_map_bad_target_size.txt": (
        "kind = monotone_map\nsource_n = 1\ntarget_n = one\nmap = 0\n"),
    # the bracket-list reader's messages: a missing ']', an extra ']', a row
    # that is not bracketed and a trailing comma, in either map kind
    "laurent_missing_bracket.txt": (
        "kind = laurent_matrix\nfield = Q\nmatrix = [[1*t^0, 0], [0, 1*t^0]\n"),
    "laurent_extra_bracket.txt": (
        "kind = laurent_matrix\nfield = Q\nmatrix = [[1*t^0, 0]], [0, 1*t^0]]\n"),
    "laurent_unbracketed_row.txt": (
        "kind = laurent_matrix\nfield = F5\nmatrix = [[1*t^0, 0], 0, 1*t^0]\n"),
    "laurent_trailing_comma_spaced.txt": (
        "kind = laurent_matrix\nfield = Q\nmatrix = [[1*t^0, 0], [0, 1*t^0], ]\n"),
    "filtered_missing_bracket.txt": (
        "kind = filtered_module\nfield = F5\nepsilon_power = 2\nwindow = 0, 1\n"
        "ranks = 2, 2\nmap 0 = [[1, 0], [0, 1]\n"),
    "filtered_extra_bracket.txt": (
        "kind = filtered_module\nfield = F5\nepsilon_power = 2\nwindow = 0, 1\n"
        "ranks = 2, 2\nmap 0 = [[1, 0]], [0, 1]]\n"),
    "filtered_unbracketed_row.txt": (
        "kind = filtered_module\nfield = Q\nwindow = 0, 1\nranks = 2, 2\n"
        "map 0 = [[1, 0], 0, 1]\n"),
    "filtered_trailing_comma_spaced.txt": (
        "kind = filtered_module\nfield = F5\nepsilon_power = 2\nwindow = 0, 1\n"
        "ranks = 2, 2\nmap 0 = [[1, 0], [1*e^1, 1], ]\n"),
    # a trailing comma with no space before the closing bracket
    "laurent_trailing_comma.txt": (
        "kind = laurent_matrix\nfield = Q\nmatrix = [[1*t^0, 0], [0, 1*t^0],]\n"),
    "filtered_trailing_comma.txt": (
        "kind = filtered_module\nfield = Q\nwindow = 0, 1\nranks = 2, 2\n"
        "map 0 = [[1, 0,], [0, 1]]\n"),
    "filtered_eps_exponent_over_order.txt": (
        "kind = filtered_module\nfield = F5\nepsilon_power = 2\nwindow = 0, 1\n"
        "ranks = 2, 2\nmap 0 = [[1, 0], [1*e^2, 1]]\n"),
    # exponent notation is a bad scalar, however large the power
    "laurent_exponent_notation.txt": (
        "kind = laurent_matrix\nfield = Q\nmatrix = [[1e4301*t^0]]\n"),
    "filtered_exponent_notation.txt": (
        "kind = filtered_module\nfield = F5\nepsilon_power = 2\nwindow = 0, 1\n"
        "ranks = 1, 1\nmap 0 = [[2E1 + 1*e^1]]\n"),
    # a determinant of huge exponent span is rejected without a dense list
    "laurent_non_unit_huge_span.txt": (
        "kind = laurent_matrix\nfield = Q\nmatrix = [[1*t^0 + 1*t^1000000000]]\n"),
    # the document grammar's generic errors, whatever the kind
    "document_missing_field.txt": "kind = poset\nrel = 0<1\n",
    "document_unexpected_field.txt": "kind = poset\nn = 2\nfoo = 1\n",
    "document_kind_not_first.txt": "n = 2\nkind = poset\n",
    "document_unknown_kind.txt": "kind = banana\nn = 2\n",
    "document_only_comments.txt": "# kind = poset\n\n   \n  # n = 2\n",
    "document_line_without_equals.txt": "kind = poset\nn 3\n",
    "filtered_window_three_values.txt": (
        "kind = filtered_module\nfield = Q\nwindow = 0, 1, 2\nranks = 1, 1, 1\n"),
    "laurent_unknown_field.txt": "kind = laurent_matrix\nfield = G7\nmatrix = [[1*t^0]]\n",
    "splitting_type_bad_integer_list.txt": "kind = splitting_type\ndegrees = 1, x\n",
    "poset_bad_relation_pair.txt": "kind = poset\nn = 2\nrel = 0-1\n",
    # a document that is not UTF-8 cannot be read
    "poset_not_utf8.txt": b"kind = poset\nn = 2\nrel = 0<1\n# \xff\n",
}


def _runs():
    for name in sorted(os.listdir(CORPUS_DIR)):
        if name.endswith(".txt"):
            for command in COMMANDS:
                for extra in ((), ("--verify",)):
                    yield " ".join([command, name, *extra]), \
                        [command, os.path.join(CORPUS_DIR, name), *extra]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(argv) -> dict:
    code, out, _ = _run(argv)
    return {"exit": code, "stdout_sha256": _sha256(out)}


def _record() -> dict:
    return {key: _digest(argv) for key, argv in _runs()}


@contextlib.contextmanager
def _inside(directory: str):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _record_errors() -> dict:
    """Run every command on every invalid document, by relative path so that
    the messages naming the file do not depend on where it was written."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        for name, text in ERROR_DOCUMENTS.items():
            with open(name, "wb") as handle:
                handle.write(text if isinstance(text, bytes) else text.encode())
        for name in sorted(ERROR_DOCUMENTS):
            for command in COMMANDS:
                for extra in ((), ("--verify",)):
                    code, stdout, stderr = _run([command, name, *extra])
                    out[" ".join([command, name, *extra])] = {
                        "exit": code,
                        "stdout_sha256": _sha256(stdout),
                        "stderr_sha256": _sha256(stderr),
                    }
    return out


def _compare(path: str, actual: dict):
    with open(path, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sorted(actual) == sorted(golden)
    changed = [key for key in golden if actual[key] != golden[key]]
    assert not changed, f"{len(changed)} runs changed, e.g. {changed[:5]}"


def test_every_report_matches_golden():
    _compare(GOLDEN, _record())


def test_every_error_run_matches_golden():
    _compare(GOLDEN_ERRORS, _record_errors())


if __name__ == "__main__":
    for path, record in ((GOLDEN, _record), (GOLDEN_ERRORS, _record_errors)):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record(), handle, indent=1, sort_keys=True)
            handle.write("\n")
