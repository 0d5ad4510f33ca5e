"""Tests of the benchmark itself: generators, answer checks and tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import contextlib
import io
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import equibundle.cli as cli  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


def run(doc, tmp_path):
    path = tmp_path / "doc.txt"
    path.write_text(doc.text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([doc.command, str(path), *doc.flags])
    return code, out.getvalue()


def traced_counts(doc, tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, out = run(doc, tmp_path)
    finally:
        tracer.uninstall()
    assert code == 0 and doc.check(out) is None
    assert tracer.absent == []
    return tracer.summary()


def test_same_seed_same_documents():
    for make in gen.WORKLOADS.values():
        first = [d.text for d in make(random.Random(7))]
        assert first == [d.text for d in make(random.Random(7))]
        assert first != [d.text for d in make(random.Random(8))]


def test_small_documents_pass_their_checks(tmp_path):
    docs = gen.one_per_command(random.Random(3))
    assert len({d.command for d in docs}) == len(cli.COMMANDS)
    for doc in docs:
        code, out = run(doc, tmp_path)
        assert code == 0
        assert doc.check(out) is None, doc.name


def test_checks_reject_a_wrong_report(tmp_path):
    for doc in gen.one_per_command(random.Random(3)):
        _, out = run(doc, tmp_path)
        lines = out.splitlines()
        # drop the last line that carries a value: a report missing an
        # answer must not pass
        for i in range(len(lines) - 1, -1, -1):
            if " = " in lines[i] and not lines[i].startswith("report"):
                del lines[i]
                break
        assert doc.check("\n".join(lines) + "\n") is not None, doc.name


@pytest.mark.parametrize("n", [2, 3])
def test_classify_counts(tmp_path, n):
    doc = gen.p1_doc(random.Random(n), "dense", n, None)
    counts = traced_counts(doc, tmp_path)
    assert counts["exact_core.LaurentMatrix.calls"] == 11
    assert counts["projline.birkhoff_factorize.calls"] == 2
    assert counts["projline.h0_dimension.calls"] == 14
    assert counts["cli.main.calls"] == 1
    assert counts["cli.build_parser.calls"] == 1
    assert counts["io.parse_document.calls"] == 1


def test_birkhoff_counts(tmp_path):
    doc = gen.p1_doc(random.Random(1), "birkhoff", 3, 5)
    assert traced_counts(doc, tmp_path)["exact_core.LaurentMatrix.calls"] == 6


def test_split_filtration_counts(tmp_path):
    doc = gen.filtered_doc(random.Random(1), "split-filtration", 5, 2, None)
    assert traced_counts(doc, tmp_path)["filtered.validate_filtered.calls"] == 6


def test_prop_b3_counts(tmp_path):
    pool = [(4, gen.random_poset(random.Random(1), 4, 0.4))]
    doc = gen.prop_b3_doc(random.Random(2), pool)
    assert traced_counts(doc, tmp_path)["topospace.pi0.calls"] == 4


def test_lemma_b2_counts(tmp_path):
    doc = gen.lemma_b2_doc(random.Random(4), set())
    n = doc.props["size"]
    assert traced_counts(doc, tmp_path)["topospace.pi0.calls"] == 1 + 2 ** n


def test_uninstall_restores_every_binding():
    import equibundle.exact_core as exact_core
    import equibundle.graded as graded
    before = (cli.parse_document, graded.matrix_rank, exact_core.LaurentMatrix.__init__)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.parse_document is not before[0]
    assert graded.matrix_rank is not before[1]
    tracer.uninstall()
    assert (cli.parse_document, graded.matrix_rank,
            exact_core.LaurentMatrix.__init__) == before


def test_missing_name_is_absent(monkeypatch):
    monkeypatch.setitem(spans.SPANS, "topospace.gone", [("topospace", "no_such_function")])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["equibundle.topospace.no_such_function"]
    assert tracer.summary()["topospace.gone.calls"] == 0


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0, 100, -1, 0], ["b", 10, 40, 0, 0], ["b", 50, 60, 0, 0]]
    assert tracer.self_times() == [60, 30, 10]


def test_parse_importtime():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       500 |        900 |   equibundle.exact_core\n"
        "import time:       300 |       4000 | equibundle.cli\n")
    out = spans.parse_importtime(stderr)
    assert out["import.total_s"] == pytest.approx(0.004)
    assert out["import.exact_core.self_s"] == pytest.approx(0.0005)
