"""equibundle benchmark: seeded documents through the real CLI entry point.

    python3 perfbench/run.py --workload p1 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it,
``info = {...}``, describes the inputs and the report digest.  See
perfbench/README.md.

The process started here only orchestrates.  It starts SETUP_RUNS fresh
interpreters, one at a time: each imports equibundle.cli, generates and writes
the documents and warms up, and the last one then runs the timed loop.  A
single client runs a closed loop: each document starts only after the
previous one has finished.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans as tracing  # noqa: E402

SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170
IMPORTTIME_RUNS = 3
# The reference kernel's median time, in ns, on the 2-core VM the benchmark
# was built on; times are reported at this reference speed (see Loop).
REFERENCE_NS = 500_000
MIN_PASSES = 2

END_TO_END = [("setup_s", "s"), ("doc_p50_ms", "ms"), ("doc_p90_ms", "ms"),
              ("docs_per_s", "1/s"), ("peak_rss_mb", "MB")]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# Child: set up, then run documents
# ---------------------------------------------------------------------------


def write_docs(docs, workdir: Path) -> list[Path]:
    workdir.mkdir(parents=True)
    paths = []
    for i, doc in enumerate(docs):
        path = workdir / f"{i:04d}-{doc.command}.txt"
        path.write_text(doc.text, encoding="utf-8")
        paths.append(path)
    return paths


def run_in_process(cli, doc, path) -> tuple[object, str, str]:
    """One document through ``cli.main``, looked up per call so that the
    tracer's wrapper is seen."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([doc.command, str(path), *doc.flags])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # an escaped exception is a failed document, not a crash
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def reference_kernel() -> int:
    """Fixed pure-Python work that imports nothing from equibundle: rational
    arithmetic, dict updates and string building, the operations the
    documents spend their time on.  It runs before every document."""
    table: dict = {}
    x = Fraction(3, 7)
    parts = []
    for i in range(60):
        x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 3)
        table[i % 13] = table.get(i % 13, 0) + x.numerator % 97
        parts.append(f"{i}*t^{i % 5}")
    return len(" + ".join(parts).split(" + ")) + len(table)


def reference_times(calls: int) -> list[int]:
    out = []
    for _ in range(calls):
        t0 = time.perf_counter_ns()
        reference_kernel()
        out.append(time.perf_counter_ns() - t0)
    return out


def doc_failure(doc, code, out, err) -> str | None:
    if code != 0:
        last = err.strip().splitlines()[-1:]
        return f"exit code {code}: {last[0] if last else 'no message'}"
    if "Traceback" in err:
        return "traceback on stderr"
    return doc.check(out)


class Loop:
    """Closed loop over whole passes of the documents.

    The first pass sets the pass count: the requested seconds divided by the
    first pass's scaled time (below), rounded, and at least two.  Whole passes
    keep the mix of every run the same, and a count taken from the scaled
    time does not change with the machine's load, so neither does the
    number of passes a document's fastest time is taken over.

    The reference kernel runs before every document.  A pass's speed factor
    is REFERENCE_NS over the kernel's median time in that pass, and a
    document's time in a pass is its wall time times that factor: the time
    it would take on a machine where the kernel takes REFERENCE_NS.  This
    cancels the load that other tenants put on a shared machine, which
    changes from minute to minute.  ``best()`` gives each document's fastest
    such time over the passes."""

    def __init__(self, cli, docs, paths):
        self.cli, self.docs, self.paths = cli, docs, paths
        self.wall_ns: list[list[int]] = []  # per pass, per document
        self.reference_ns: list[list[int]] = []  # per pass
        self.attempted = 0
        self.failures: list[str] = []
        self.first_out: list[str] = []

    def run(self, seconds: float, on_doc=None) -> float:
        """Runs the passes; returns the first pass's scaled time in seconds.
        ``seconds`` of 0 runs one pass."""
        n = len(self.docs)
        passes = 1
        while self.attempted < n * passes:
            i = self.attempted
            k = i % n
            if k == 0:
                self.wall_ns.append([])
                self.reference_ns.append([])
            self.reference_ns[-1] += reference_times(1)
            if on_doc:
                on_doc(i)
            t0 = time.perf_counter_ns()
            code, out, err = run_in_process(self.cli, self.docs[k], self.paths[k])
            self.wall_ns[-1].append(time.perf_counter_ns() - t0)
            if i < n:
                self.first_out.append(out)
            failure = doc_failure(self.docs[k], code, out, err)
            if failure is None and i >= n and out != self.first_out[k]:
                failure = "report differs from the first pass"
            if failure:
                self.failures.append(f"{self.docs[k].name} #{k}: {failure}")
            self.attempted += 1
            if self.attempted == n:
                passes = (max(MIN_PASSES, round(seconds / self.first_pass_s()))
                          if seconds else 1)
        return self.first_pass_s()

    def first_pass_s(self) -> float:
        return sum(self.wall_ns[0]) * self.speed_factors()[0] / 1e9

    def speed_factors(self) -> list[float]:
        return [REFERENCE_NS / statistics.median(ref) for ref in self.reference_ns]

    def best(self, scaled: bool = True) -> list[float]:
        factors = self.speed_factors() if scaled else [1.0] * len(self.wall_ns)
        return [min(wall[k] * f for wall, f in zip(self.wall_ns, factors))
                for k in range(len(self.docs))]

    def digest(self) -> str:
        return hashlib.sha256("".join(self.first_out).encode()).hexdigest()[:16]


def setup(workload: str, seed: int, workdir: Path):
    """Everything that precedes the first timed document."""
    import equibundle.cli as cli
    docs = gen.WORKLOADS[workload](random.Random(seed))
    paths = write_docs(docs, workdir)
    # warm-up: one small document of each command this workload uses
    commands = {doc.command for doc in docs}
    warm = [doc for doc in gen.one_per_command(random.Random(seed))
            if doc.command in commands]
    for doc, path in zip(warm, write_docs(warm, workdir / "warm")):
        failure = doc_failure(doc, *run_in_process(cli, doc, path))
        if failure:
            raise RuntimeError(f"warm-up document {doc.name} failed: {failure}")
    return cli, docs, paths


def input_properties(workload: str, docs) -> dict:
    props = {"documents_per_pass": len(docs),
             "commands": dict(Counter(d.command for d in docs))}
    fields = Counter(d.props.get("field") for d in docs if d.props.get("field"))
    if fields:
        props["field_share"] = {k: round(v / sum(fields.values()), 3)
                                for k, v in sorted(fields.items())}
    size = "rank" if workload == "p1" else "size"
    props[f"{size}_histogram"] = dict(sorted(Counter(d.props[size] for d in docs).items()))
    if workload == "p1":
        props["span_histogram"] = dict(sorted(Counter(d.props["span"] for d in docs).items()))
    keyed = [d.props["key"] for d in docs if d.command in ("prop-b3", "homeo-check")]
    if keyed:
        values = [v for pair in keyed for v in pair]
        seen: set = set()
        repeats = 0
        for v in values:
            repeats += v in seen
            seen.add(v)
        props["map_poset_repeat_share"] = round(repeats / len(values), 3)
    return props


def curves(workload: str, docs, by_doc) -> dict:
    """Mean self seconds per layer, by the size property of each document.

    by_doc is keyed by the running document index of the traced loop."""
    def key(doc):
        if workload == "p1":
            return f"rank={doc.props['rank']},span={doc.props['span']}"
        if workload == "algebra":
            return f"{doc.props['kind']},size={doc.props['size']}"
        return f"size={doc.props['size']}"

    sums: dict = {}
    counts: Counter = Counter()
    for i, layers in by_doc.items():
        label = key(docs[i % len(docs)])
        counts[label] += 1
        for layer, seconds in layers.items():
            sums.setdefault(layer, Counter())[label] += seconds
    return {layer: {label: round(s / counts[label], 6) for label, s in sorted(per.items())}
            for layer, per in sorted(sums.items())}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def importtime_split() -> dict:
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import equibundle.cli"], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        samples.append(tracing.parse_importtime(proc.stderr))
    return tracing.median_imports(samples)


def doc_metrics(best_ns: list[float]) -> dict:
    deciles = statistics.quantiles(best_ns, n=10)
    return {"doc_p50_ms": statistics.median(best_ns) / 1e6,
            "doc_p90_ms": deciles[8] / 1e6,
            "docs_per_s": len(best_ns) / (sum(best_ns) / 1e9)}


def untraced(args, cli, docs, paths, info) -> dict:
    loop = Loop(cli, docs, paths)
    loop.run(args.seconds)
    best = loop.best()
    metrics = doc_metrics(best)
    factors = loop.speed_factors()
    info.update(digest=loop.digest(), failures=loop.failures[:5],
                pass_wall_s=[round(sum(w) / 1e9, 3) for w in loop.wall_ns],
                speed_factors=[round(f, 4) for f in factors],
                docs_beyond_p90=sum(1 for t in best if t > metrics["doc_p90_ms"] * 1e6),
                unscaled=doc_metrics(loop.best(scaled=False)))
    return {"attempted": loop.attempted, "failed": len(loop.failures), "metrics": metrics}


def traced(args, cli, docs, paths, info) -> dict:
    """One untraced pass, then one traced pass over the same documents."""
    plain = Loop(cli, docs, paths)
    plain_s = plain.run(0)
    imports = importtime_split()
    traced_loop = Loop(cli, docs, paths)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s = traced_loop.run(0, on_doc=lambda i: setattr(tracer, "doc", i))
    finally:
        tracer.uninstall()
    metrics = tracer.summary()
    metrics.update(imports)
    metrics["trace.overhead_ratio"] = plain_s / traced_s
    metrics["trace.docs"] = traced_loop.attempted
    metrics["src.lines"] = src_lines()
    failures = plain.failures + traced_loop.failures
    if plain.digest() != traced_loop.digest():
        failures.append("traced reports differ from untraced reports")
    info.update(digest=plain.digest(), absent=tracer.absent, failures=failures[:5],
                curves=curves(args.workload, docs, tracer.self_by_doc()))
    return {"attempted": plain.attempted + traced_loop.attempted,
            "failed": len(failures), "metrics": metrics}


def child_main(args) -> int:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # the kernel, timed around set-up, gives set-up its own speed factor
        reference = reference_times(10)
        cli, docs, paths = setup(args.workload, args.seed, workdir)
        reference += reference_times(10)
        print(f"ready {REFERENCE_NS / statistics.median(reference)}", flush=True)
        if args.setup_only:
            return 0
        info = {"workload": args.workload, "seed": args.seed,
                "inputs": input_properties(args.workload, docs)}
        run = traced if args.trace else untraced
        result = run(args, cli, docs, paths, info)
        print("info = " + json.dumps(info, sort_keys=True))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Parent: setup repeats and the final result
# ---------------------------------------------------------------------------


def spawn(args, setup_only: bool) -> tuple[float, float, list[str], float]:
    """Run one child; returns its set-up seconds, the speed factor measured
    during set-up, its lines after set-up, and its peak RSS in MB."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    ready, _, factor = first.partition(" ")
    if code != 0 or ready != "ready":
        raise RuntimeError(f"benchmark child exited with code {code}")
    return setup_s, float(factor), rest, usage.ru_maxrss / 1024


def parent_main(args) -> int:
    if not (SRC / "equibundle" / "cli.py").is_file():
        print(f"error: {SRC / 'equibundle'} not found; run from the root of an "
              "equibundle checkout", file=sys.stderr)
        return 2
    # set-up is timed only for the end-to-end metrics
    setups = [spawn(args, setup_only=True)[:2]
              for _ in range(0 if args.trace else SETUP_RUNS - 1)]
    setup_s, factor, lines, rss = spawn(args, setup_only=False)
    setups.append((setup_s, factor))
    child = json.loads(lines[-1])
    if args.trace:
        names = tracing.per_layer_names()
    else:
        names = END_TO_END
        print(f"unscaled setup_s = {statistics.median(s for s, _ in setups)}")
        child["metrics"].update(setup_s=statistics.median(s * f for s, f in setups),
                                peak_rss_mb=rss)
    for line in lines[:-1]:
        print(line)
    metrics = {name: {"value": child["metrics"].get(name, 0), "unit": unit}
               for name, unit in names}
    print(json.dumps({"correct": child["failed"] == 0, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        return parent_main(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
