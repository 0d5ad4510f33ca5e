"""Golden-report guard: every command on every corpus document, plain and
with ``--verify``, must give the recorded exit code and stdout digest.

The digests live in ``golden_reports.json`` next to this file.  To record
them afresh (only when a report is meant to change), run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os

from equibundle.cli import COMMANDS, main

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "..", "corpus")
GOLDEN = os.path.join(HERE, "golden_reports.json")


def _runs():
    for name in sorted(os.listdir(CORPUS_DIR)):
        if name.endswith(".txt"):
            for command in COMMANDS:
                for extra in ((), ("--verify",)):
                    yield " ".join([command, name, *extra]), \
                        [command, os.path.join(CORPUS_DIR, name), *extra]


def _digest(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _record() -> dict:
    return {key: _digest(argv) for key, argv in _runs()}


def test_every_report_matches_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    actual = _record()
    assert sorted(actual) == sorted(golden)
    changed = [key for key in golden if actual[key] != golden[key]]
    assert not changed, f"{len(changed)} reports changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(_record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
