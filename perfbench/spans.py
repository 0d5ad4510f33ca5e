"""Spans and counters wrapped around equibundle's public functions from outside.

Each traced name is patched at every binding site: a function imported with
``from ... import`` into another module is a separate global there, so the
tracer replaces every module global that holds the original object, and a
method on its class.  A name that no longer exists is reported as absent,
and every original is put back by ``Tracer.uninstall``.

A span records (name, start, end, parent, document).  Spans stay in memory
until the run ends; ``summary`` turns them into calls and self time, where
self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

# metric prefix -> (module, attribute path) targets recorded as spans
SPANS = {
    "cli.main": [("cli", "main")],
    "cli.build_parser": [("cli", "build_parser")],
    "io.parse_document": [("io", "parse_document")],
    "io.render": [("io", name) for name in (
        "render_eps", "render_field", "render_laurent_matrix", "render_matrix",
        "render_polynomial", "render_scalar")],
    "exact_core.LaurentMatrix": [("exact_core", "LaurentMatrix.__init__")],
    "exact_core.LaurentMatrix.matmul": [("exact_core", "LaurentMatrix.__matmul__")],
    "exact_core.row_reduce": [("exact_core", name) for name in (
        "row_reduce", "nullspace", "matrix_rank", "invert_matrix")],
    "projline.birkhoff_factorize": [("projline", "birkhoff_factorize")],
    "projline.splitting_type": [("projline", "splitting_type")],
    "projline.h0_dimension": [("projline", "h0_dimension")],
    "graded.nakayama_zero_test": [("graded", "nakayama_zero_test")],
    "graded.component_dimension": [
        ("graded", "GradedModulePresentation.component_dimension"),
        ("graded", "GradedAlgebra.component_dimension")],
    "graded.lift_graded_map": [("graded", "lift_graded_map")],
    "graded.graded_iso_test": [("graded", "graded_iso_test")],
    "filtered.validate_filtered": [("filtered", "validate_filtered")],
    "filtered.split_filtration": [("filtered", "split_filtration")],
    "filtered.verify_splitting": [("filtered", "verify_splitting")],
    "filtered.split_injection_retraction": [("filtered", "split_injection_retraction")],
    "hensel.jacobson_radical": [("hensel", "jacobson_radical")],
    "hensel.lift_idempotent": [("hensel", "lift_idempotent")],
    "topospace.pi0": [("topospace", "pi0")],
    "topospace.FinitePoset": [("topospace", "FinitePoset.__init__")],
    "topospace.MonotoneMap": [("topospace", "MonotoneMap.__init__")],
    "topospace.lemma_b2_verify": [("topospace", "lemma_b2_verify")],
    "topospace.prop_b3_check": [("topospace", "prop_b3_check")],
    "topospace.clopen_sets": [("topospace", "clopen_sets")],
}

# metric name -> targets that are only counted: they run millions of times
COUNTS = {
    "exact_core.LaurentPoly.mul.calls": [("exact_core", "LaurentPoly.__mul__")],
    "exact_core.FpElement.new.calls": [("exact_core", "FpElement.__init__")],
    "hensel.FiniteDimAlgebra.mul.calls": [("hensel", "FiniteDimAlgebra.mul")],
}

# generator methods whose yielded items are counted
YIELDS = {"topospace.subsets.yielded": [("topospace", "FinitePoset.subsets")]}

ELIMINATION = "exact_core.row_reduce"
IMPORT_MODULES = ("exact_core", "projline", "graded", "filtered", "hensel",
                  "topospace", "io", "cli")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = []
    for prefix in SPANS:
        names += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
    names.append((f"{ELIMINATION}.cells", "count"))
    names += [(name, "count") for name in COUNTS]
    names += [(name, "count") for name in YIELDS]
    names.append(("topospace.pi0.distinct_ratio", "ratio"))
    names.append(("import.total_s", "s"))
    names += [(f"import.{m}.self_s", "s") for m in IMPORT_MODULES]
    names += [("trace.overhead_ratio", "ratio"), ("trace.docs", "count"),
              ("src.lines", "count")]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.doc = -1
        self.counts: Counter = Counter()
        self.pi0_values: set = set()
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._elimination_depth = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        elimination = name == ELIMINATION
        pi0 = name == "topospace.pi0"

        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.doc]
            stack.append(len(spans))
            spans.append(record)
            if elimination:
                if not self._elimination_depth:
                    rows = args[1]
                    self.counts[f"{ELIMINATION}.cells"] += len(rows) * (
                        len(rows[0]) if rows else 0)
                self._elimination_depth += 1
            if pi0:
                space = args[0]
                self.pi0_values.add((space.size, space.leq))
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if elimination:
                    self._elimination_depth -= 1
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yields(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        package = "equibundle"
        modules = {name: module for name, module in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")}
        for table, make in ((SPANS, self._span), (COUNTS, self._count),
                            (YIELDS, self._yields)):
            for name, targets in table.items():
                for module_name, path in targets:
                    self._patch(modules, f"{package}.{module_name}", path,
                                lambda fn, name=name, make=make: make(name, fn))

    def _patch(self, modules, module_name, path, make):
        module = modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = module
        if owner is not None and owner_name:
            owner = getattr(module, owner_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{path}")
            return
        wrapped = make(original)
        if owner_name:  # a method: the class is its only binding site
            self._set(owner, attr, original, wrapped)
            return
        for other in modules.values():
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, original, wrapped)

    def _set(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span, in nanoseconds, indexed like ``spans``."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, float]:
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for (name, _, _, _, _), ns in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_ns[name] += ns
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        out[f"{ELIMINATION}.cells"] = self.counts[f"{ELIMINATION}.cells"]
        for name in list(COUNTS) + list(YIELDS):
            out[name] = self.counts[name]
        pi0_calls = calls["topospace.pi0"]
        out["topospace.pi0.distinct_ratio"] = (
            len(self.pi0_values) / pi0_calls if pi0_calls else 0.0)
        return out

    def self_by_doc(self) -> dict[int, dict[str, float]]:
        """Per document: layer -> self seconds (the first part of the name)."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, _, _, _, doc), ns in zip(self.spans, self.self_times()):
            out[doc][name.split(".")[0]] += ns / 1e9
        return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self and cumulative seconds from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        module = fields[2].strip()
        if module == "equibundle.cli":
            out["import.total_s"] = int(fields[1]) / 1e6
        if module.startswith("equibundle."):
            short = module[len("equibundle."):]
            if short in IMPORT_MODULES:
                out[f"import.{short}.self_s"] = int(fields[0]) / 1e6
    return out


def median_imports(samples: list[dict[str, float]]) -> dict[str, float]:
    keys = ["import.total_s"] + [f"import.{m}.self_s" for m in IMPORT_MODULES]
    return {key: statistics.median(s.get(key, 0.0) for s in samples) for key in keys}
