"""Benchmark of the ``histrel solve`` and ``histrel score`` commands.

    python3 perfbench/run.py --workload solve-exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``histrel`` is imported from ``src/``. One
process, one closed loop with a single caller: ``histrel.cli.main`` is
called in-process on files written in set-up, and the next call starts when
the previous one returns. Outputs are checked by ``checker`` after the timed
loop. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary goes to stderr.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference speed (see ``at_reference_speed``). ``--trace 1`` alternates
blocks of untraced and traced calls, reports the per-layer metrics and the
traced and untraced call rates, and writes the spans to
``.perfbench-run/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from time import perf_counter

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-run")

SETUPS = 5  # set-up runs per measured run; setup_s is their median
WARMUP_CALLS = 2
MIN_CALLS = 100  # so that ten calls lie beyond the p90
COUNT_CALLS = 8  # first traced calls whose counts are reported
TRACE_BLOCK = 4  # calls per untraced or traced block of a traced run
MAX_STRETCH = 4  # the loop stops at this many times --seconds, whatever MIN_CALLS says
REFERENCE_S = 0.003  # nominal duration of reference_loop(); see at_reference_speed

END_TO_END = {
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "calls_per_s": "1/s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "io.ingest_s": "s",
    "io.solve_profile_s": "s",
    "io.load_profile_s": "s",
    "io.score_s": "s",
    "io.write_s": "s",
    "io.digest_s": "s",
    "io.bytes_written": "count",
    "game.solve_s": "s",
    "game.lp_build_s": "s",
    "game.lp_rows": "count",
    "game.lp_cols": "count",
    "game.extract_dual_s": "s",
    "game.make_solution_s": "s",
    "game.certify_s": "s",
    "game.certify_calls": "count",
    "reduce.s": "s",
    "reduce.passes": "count",
    "reduce.eliminated": "count",
    "reduce.single_survivor_frac": "ratio",
    "core.distinct_rows_s": "s",
    "core.unique_row_frac": "ratio",
    "simplex.s": "s",
    "simplex.calls": "count",
    "simplex.pivots": "count",
    "binary.s": "s",
    "binary.calls": "count",
    "trace.call_ms": "ms",
    "trace.calls_per_s": "1/s",
    "trace.untraced_calls_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly for one seed and one version of the code.
PER_CALL_COUNTS = (
    "simplex.calls",
    "simplex.pivots",
    "game.lp_rows",
    "game.lp_cols",
    "game.certify_calls",
    "reduce.passes",
    "reduce.eliminated",
    "binary.calls",
)


def import_histrel() -> dict:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "histrel", "cli.py")):
        raise SystemExit(f"perfbench: no histrel sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import histrel.cli  # noqa: F401  (loads io, game and the layers below)

    return {name: sys.modules[name] for name in ("histrel.cli", "histrel.io", "histrel.game")}


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def set_up(workload, seed: int, directory: str, main) -> list:
    os.makedirs(directory)
    return workload.setup(random.Random(f"{workload.name}/{seed}"), directory, main)


def call_once(main, calls, index: int, directory: str, tag: str):
    """Runs pool entry ``index``; returns its duration and (call, output,
    exit code)."""
    call = calls[index % len(calls)]
    output = os.path.join(directory, f"out-{tag}-{index}.json")
    argv = call.argv + ["-o", output]
    start = perf_counter()
    code = main(argv)
    return perf_counter() - start, (call, output, code)


def reference_loop() -> float:
    """Seconds taken by a fixed integer loop that shares no code with
    ``histrel``: a probe of how fast this machine runs Python right now."""
    start = perf_counter()
    total = 0
    for i in range(30_000):
        total += (i * 2654435761) % 1_000_003
    return perf_counter() - start


def at_reference_speed(durations: list[float], references: list[float]) -> list[float]:
    """Each duration scaled by ``REFERENCE_S`` over the median of the five
    reference loops timed nearest to it.

    On a shared host the speed of the same code drifts by up to a third over
    minutes, mostly in step for the program and the reference loop, so the
    ratio of the two drifts far less than either. A scaled time is the time
    the call would take on a machine that runs the reference loop in
    ``REFERENCE_S``.
    """
    return [
        duration * REFERENCE_S / statistics.median(references[max(0, i - 2) : i + 3])
        for i, duration in enumerate(durations)
    ]


def timed_loop(main, calls, directory: str, seconds: float):
    """Closed loop: call after call until ``seconds`` have passed and at
    least ``MIN_CALLS`` calls ran, with one reference loop after each call,
    outside its timing. Returns durations, reference times, (call, output,
    exit code) triples and the loop's wall time."""
    durations, references, outputs = [], [], []
    begin = perf_counter()
    while True:
        duration, output = call_once(main, calls, len(durations), directory, "timed")
        durations.append(duration)
        outputs.append(output)
        references.append(reference_loop())
        elapsed = perf_counter() - begin
        if elapsed >= MAX_STRETCH * seconds or (elapsed >= seconds and len(durations) >= MIN_CALLS):
            return durations, references, outputs, elapsed


def check_outputs(outputs) -> tuple[int, list[int], list[str]]:
    """Failed call count, output sizes in bytes, and the first problems."""
    failed, sizes, problems = 0, [], []
    for call, path, code in outputs:
        found = [f"exit code {code}"] if code != 0 else []
        if not found:
            sizes.append(os.path.getsize(path))
            with open(path, encoding="utf-8") as handle:
                found = call.check(json.load(handle))
        if found:
            failed += 1
            problems.extend(f"{' '.join(call.argv)}: {p}" for p in found[:2])
        if os.path.exists(path):
            os.remove(path)
    return failed, sizes, problems[:10]


def warm_up(main, calls, work: str) -> None:
    """A few untimed calls, then the benchmark's own objects are moved out of
    the program's garbage collections."""
    for i in range(WARMUP_CALLS):
        main(calls[i % len(calls)].argv + ["-o", os.path.join(work, "warmup.json")])
    gc.collect()
    gc.freeze()


def measure(workload, seed: int, seconds: float, work: str, main) -> dict:
    setup_times, setup_references = [], []
    for r in range(SETUPS):
        directory = os.path.join(work, f"setup-{r}")
        before = [reference_loop() for _ in range(3)]
        start = perf_counter()
        calls = set_up(workload, seed, directory, main)
        setup_times.append(perf_counter() - start)
        setup_references.append(statistics.median(before + [reference_loop() for _ in range(3)]))
        if r < SETUPS - 1:
            shutil.rmtree(directory)
    warm_up(main, calls, work)
    durations, references, outputs, elapsed = timed_loop(main, calls, work, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, _sizes, problems = check_outputs(outputs)
    scaled = at_reference_speed(durations, references)
    attempted = len(durations)
    values = {
        "call_ms_p50": 1000 * statistics.median(scaled),
        "call_ms_p90": 1000 * percentile(sorted(scaled), 0.9),
        "calls_per_s": attempted / math.fsum(scaled),
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(t * REFERENCE_S / r for t, r in zip(setup_times, setup_references)),
        "peak_rss_mb": peak_rss_mb,
    }
    summary = (
        f"{attempted} calls in {elapsed:.2f} s; unscaled call p50 "
        f"{1000 * statistics.median(durations):.3f} ms, {attempted / math.fsum(durations):.4f} calls/s; "
        f"reference loop median {1000 * statistics.median(references):.3f} ms "
        f"(nominal {1000 * REFERENCE_S:g} ms); unscaled set-ups {['%.3f' % t for t in setup_times]} s"
    )
    return result(attempted, failed, problems, values, END_TO_END, summary)


def measure_traced(workload, seed: int, seconds: float, work: str, modules: dict) -> dict:
    """Alternates blocks of untraced and traced calls on the same pool
    entries, in turn first and second, so that the two call rates compare
    like with like."""
    cli = modules["histrel.cli"]
    calls = set_up(workload, seed, os.path.join(work, "setup"), cli.main)
    warm_up(cli.main, calls, work)
    tracer = spans.Tracer()
    root = tracer.wrap(cli.main, spans.ROOT)

    def traced_main(argv):
        tracer.call_id += 1
        tracer.counting = tracer.call_id <= COUNT_CALLS
        return root(argv)

    durations = {False: [], True: []}
    outputs = {False: [], True: []}
    begin, first = perf_counter(), 0
    while perf_counter() - begin < seconds or first < COUNT_CALLS:
        blocks = ((False, cli.main), (True, traced_main))
        for traced, main in blocks if first % (2 * TRACE_BLOCK) == 0 else blocks[::-1]:
            if traced:
                tracer.install(modules)
            try:
                for index in range(first, first + TRACE_BLOCK):
                    duration, output = call_once(main, calls, index, work, f"traced{int(traced)}")
                    durations[traced].append(duration)
                    outputs[traced].append(output)
            finally:
                tracer.uninstall()
        first += TRACE_BLOCK
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl"))

    failed, _, problems = check_outputs(outputs[False])
    traced_failed, sizes, traced_problems = check_outputs(outputs[True])
    n = len(durations[True])
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name, total in tracer.self_times().items():
        values[spans.SELF_TIME_METRIC[name]] = total / n
    counts, counted = tracer.counts, min(n, COUNT_CALLS)
    for name in PER_CALL_COUNTS:
        values[name] = counts[name] / counted
    values["io.bytes_written"] = sum(sizes[:counted]) / counted
    if counts["reduce.calls"]:
        values["reduce.single_survivor_frac"] = counts["reduce.single_survivor"] / counts["reduce.calls"]
    if counts["core.rows"]:
        values["core.unique_row_frac"] = counts["core.unique_rows"] / counts["core.rows"]
    traced_rate = n / sum(durations[True])
    untraced_rate = len(durations[False]) / sum(durations[False])
    values["trace.call_ms"] = 1000 * statistics.fmean(tracer.root_times())
    values["trace.calls_per_s"] = traced_rate
    values["trace.untraced_calls_per_s"] = untraced_rate
    values["trace.overhead_frac"] = untraced_rate / traced_rate - 1
    self_sum_ms = 1000 * sum(values[m] for m in spans.SELF_TIME_METRIC.values())
    summary = (
        f"{len(durations[False])} untraced and {n} traced calls; self times sum to {self_sum_ms:.3f} ms "
        f"per traced call of {values['trace.call_ms']:.3f} ms; tracing overhead "
        f"{100 * values['trace.overhead_frac']:.2f} % of the call rate"
    )
    return result(2 * n, failed + traced_failed, problems + traced_problems, values, PER_LAYER, summary)


def result(attempted, failed, problems, values, units, summary) -> dict:
    for problem in problems:
        print(f"perfbench: checker: {problem}", file=sys.stderr)
    print(f"perfbench: {summary}", file=sys.stderr)
    for name, unit in units.items():
        print(f"perfbench: {name:32s} {values[name]:16.6f} {unit}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    modules = import_histrel()
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            outcome = measure_traced(workload, args.seed, args.seconds, work, modules)
        else:
            outcome = measure(workload, args.seed, args.seconds, work, modules["histrel.cli"].main)
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
