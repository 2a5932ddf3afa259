"""Span tracing installed from outside the program.

``Tracer.install`` replaces the names each ``histrel`` module imports from
the layer below with wrappers that record a span (name, start, end, parent
span, call id) and, while counting is on, read counts from the returned
objects. Spans stay in memory until ``write``. A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "cli.main"

# Span name -> per-layer metric that receives its self time.
SELF_TIME_METRIC = {
    ROOT: "cli.self_s",
    "io.ingest_samples": "io.ingest_s",
    "io.solve_profile": "io.solve_profile_s",
    "io.load_profile": "io.load_profile_s",
    "io.score_profile": "io.score_s",
    "io.save": "io.write_s",
    "io.digest": "io.digest_s",
    "game.solve": "game.solve_s",
    "game.lp_build": "game.lp_build_s",
    "game.extract_dual": "game.extract_dual_s",
    "game.make_solution": "game.make_solution_s",
    "game.certify": "game.certify_s",
    "simplex": "simplex.s",
    "reduce": "reduce.s",
    "core.distinct_rows": "core.distinct_rows_s",
    "binary": "binary.s",
}


def _count_simplex(counts, args, result):
    counts["simplex.calls"] += 1
    counts["simplex.pivots"] += result.iterations


def _count_lp(counts, args, result):
    lp, _basis = result
    counts["game.lp_rows"] += len(lp.rows)
    counts["game.lp_cols"] += len(lp.objective)


def _count_reduce(counts, args, result):
    _rows, trace = result
    counts["reduce.calls"] += 1
    counts["reduce.passes"] += max((step.pass_index for step in trace.steps), default=0)
    counts["reduce.eliminated"] += len(trace.steps)
    counts["reduce.single_survivor"] += len(trace.surviving) == 1


def _count_distinct(counts, args, result):
    unique, _origins = result
    counts["core.rows"] += len(args[0])
    counts["core.unique_rows"] += len(unique)


def _count_certify(counts, args, result):
    counts["game.certify_calls"] += 1


def _count_binary(counts, args, result):
    counts["binary.calls"] += 1


# (module, attribute, span name, count hook): the public names each module
# imports from the layer below, plus the io helpers the CLI path runs.
WRAPPED = (
    ("histrel.cli", "ingest_samples", "io.ingest_samples", None),
    ("histrel.cli", "solve_profile", "io.solve_profile", None),
    ("histrel.cli", "load_profile", "io.load_profile", None),
    ("histrel.cli", "score_profile", "io.score_profile", None),
    ("histrel.cli", "save_profile", "io.save", None),
    ("histrel.cli", "save_score_report", "io.save", None),
    ("histrel.io", "digest_histogram_set", "io.digest", None),
    ("histrel.io", "solve_supporting", "game.solve", None),
    ("histrel.io", "solve_covering", "game.solve", None),
    ("histrel.io", "solve_binary", "binary", _count_binary),
    ("histrel.io", "certify", "game.certify", _count_certify),
    ("histrel.io", "make_solution", "game.make_solution", None),
    ("histrel.game", "reduce_fixpoint", "reduce", _count_reduce),
    ("histrel.game", "distinct_rows", "core.distinct_rows", _count_distinct),
    ("histrel.game", "supporting_lp", "game.lp_build", _count_lp),
    ("histrel.game", "covering_lp", "game.lp_build", _count_lp),
    ("histrel.game", "simplex_optimize", "simplex", _count_simplex),
    ("histrel.game", "extract_dual", "game.extract_dual", None),
    ("histrel.game", "make_solution", "game.make_solution", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.counting = False
        self.call_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, function, name: str, hook=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.call_id)
            if hook is not None and self.counting:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        for module_name, attribute, name, hook in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attribute)
            self._installed.append((module, attribute, original))
            setattr(module, attribute, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._installed:
            module, attribute, original = self._installed.pop()
            setattr(module, attribute, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every recorded span."""
        covered = defaultdict(float)
        for name, start, end, parent, _call in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _parent, _call) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def root_times(self) -> list[float]:
        return [end - start for name, start, end, parent, _ in self.spans if parent is None]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, call) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent, "call": call}
                handle.write(json.dumps(record) + "\n")
