"""Benchmark for starring: one workload, one process, one thread.

    python3 bench/run.py --workload sweep-f4-exhaustive --seed 1 --seconds 38 --trace 0

Workloads (see workloads.py for why each was chosen): sweep-f4-exhaustive,
sweep-qi-random, invert-mixed.  The program is imported from ../src.

A run first sets the program up several times (a fresh `import starring`
and `import starring.cli`, spec validation and entry resolution, or the
CLI's parser and rings) and reports the median as `setup_s`.  It then
repeats units of the workload until `--seconds` have passed, checks every
output (checks.py) and prints the end-to-end metrics:

* elements_per_s  elements swept (sweeps) or invert calls completed per
                  second of measured time
* latency_p50_ms  median time per operation (nearest rank): one sweep, or
                  one invert call
* latency_p95_ms  95th percentile per operation (nearest rank); with fewer
                  than 200 samples, the highest percentile that has ten
                  beyond it, and never below the median.  The sample count,
                  the percentile and the samples beyond it are printed
* setup_s         median set-up time
* peak_rss_mb     peak resident memory of the process
* error_rate      failed operations / attempted operations; carried by the
                  `failed` and `attempted` keys of the result line

The four timings are divided by the host slowdown that speed.py samples
during the measurement (and between set-ups), so that they read as on an
uncontended host; the wall-clock figures and the slowdown are printed
beside them.

With `--trace 1` the untraced measurement is followed by one traced unit
(tracer.py) and the per-layer metrics are reported instead, with the
traced and untraced elements_per_s side by side as the tracing overhead.
The spans are written to .bench_out/ under the repository root.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status: 0 when every check passed, 1 when one
failed, 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import types

from checks import check_invert, check_report, load_digests, report_digest
from speed import SpeedProbe
from tracer import ENTRY_PREFIX, LAYERS, PACKAGE, Tracer, package_modules
from workloads import WORKLOADS, SweepWorkload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 1
SETUP_REPEATS = 15

_SWEEP_SPANS = [
    "harness.sweep_s", "harness.generate_s", "harness.report_json_s",
    "geninv.bundle_calls", "geninv.mp_inverse_s", "geninv.group_inverse_s",
    "geninv.verify_s", "geninv.derived_builds", "geninv.memo_build_s",
    "classify.is_projection_calls", "theorems.evaluate_calls", "theorems.l31_calls",
    "matrix.mul_calls", "matrix.eq_calls", "matrix.rref_calls", "matrix.try_invert_calls",
    "matrix.star_s", "starfield.scalar_mul_calls", "starfield.scalar_add_calls",
    "starfield.scalar_inv_calls", "starfield.scalar_star_calls",
]

# Metrics that must be non-zero in the traced unit of each workload.  A zero
# means a wrapper missed the binding its caller resolves.  On the sweeps,
# every registry entry must record time too.
REQUIRED_NONZERO = {
    "sweep-f4-exhaustive": _SWEEP_SPANS + [
        "theorems.l28_calls", "theorems.l28_nonvacuous", "harness.sep_elements"],
    "sweep-qi-random": _SWEEP_SPANS,
    "invert-mixed": [
        "cli.main_calls", "cli.self_s", "matrix.parse_s", "starfield.parse_calls",
        "matrix.to_tokens_s", "geninv.bundle_calls", "geninv.mp_inverse_s",
        "geninv.group_inverse_s", "geninv.verify_s", "matrix.rref_calls",
        "matrix.try_invert_calls", "matrix.mul_calls", "matrix.eq_calls",
        "starfield.scalar_mul_calls", "starfield.scalar_add_calls",
        "starfield.scalar_inv_calls", "starfield.scalar_star_calls"],
}


def load_program():
    """Import the program afresh; returns its layer modules by name."""
    for module in package_modules():
        del sys.modules[module.__name__]
    importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return types.SimpleNamespace(**{layer: sys.modules[f"{PACKAGE}.{layer}"]
                                    for layer in LAYERS})


def tail_quantile(n: int) -> float:
    """0.95, or where fewer than 200 samples leave fewer than ten beyond it,
    the highest quantile that has ten beyond it, but never below the median."""
    return min(0.95, max(0.5, 1 - 10 / n))


def nearest_rank(sorted_values, q):
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def measure(workload, prog, state, seconds, probe):
    """Repeat units while another fits in `seconds`; [(unit seconds, results)].

    The host-speed probe samples throughout; its own time is not counted.
    """
    units = []
    with probe:
        clock = probe.clock
        start = clock()
        while not units or clock() - start + units[-1][0] <= seconds:
            t0 = clock()
            results = workload.run_unit(prog, state, clock, len(units))
            units.append((clock() - t0, results))
    return units


def check_results(workload, prog, inputs, seed, results, digests, entry_ids):
    """Check every operation.

    Returns (failed, messages, {stream index: report JSON}); the reports are
    empty for invert-mixed.
    """
    messages, failed = [], 0
    if isinstance(workload, SweepWorkload):
        recorded = not workload.seeded or seed == DEFAULT_SEED
        stream_digests = (dict(enumerate(digests[workload.name]["reports"]))
                          if recorded else {})
        reports = {}
        for k, r in enumerate(results):
            if r.error is not None:
                problems = [r.error]
            else:
                problems = check_report(r.output[1], entry_ids, workload.expected_elements,
                                        workload.expected_pairs, stream_digests.get(r.op_index))
                if not problems and r.op_index not in stream_digests:
                    # later sweeps of the stream must match the first byte for byte
                    stream_digests[r.op_index] = report_digest(r.output[1])
                reports.setdefault(r.op_index, r.output[1])
            failed += bool(problems)
            messages += [f"sweep {k}: {p}" for p in problems]
        return failed, messages, reports
    expected = digests[workload.name]["stdout"] if seed == DEFAULT_SEED else None
    verdicts = {}
    for r in results:
        ring, n, text = inputs[r.op_index]
        if r.error is not None:
            problems = [r.error]
        else:
            # an identical stdout for the same input needs checking only once
            key = (r.op_index, r.exit_code, r.output)
            if key not in verdicts:
                verdicts[key] = check_invert(prog, ring, n, text, r.output, r.exit_code,
                                             expected[r.op_index] if expected else None)
            problems = verdicts[key]
        failed += bool(problems)
        messages += [f"invert {r.op_index} ({ring} n={n}): {p}" for p in problems]
    return failed, messages, {}


def end_to_end(workload, units, setup_times, rss_mb, slowdown, setup_slowdown):
    """The end-to-end metrics, normalized to the reference host speed, and
    the same timings as measured on the wall clock."""
    results = [r for _, unit in units for r in unit]
    latencies = sorted(r.seconds * 1e3 for r in results)
    p50, _ = nearest_rank(latencies, 0.5)
    tail_q = tail_quantile(len(latencies))
    p95, beyond = nearest_rank(latencies, tail_q)
    wall = {
        "elements_per_s": (sum(workload.elements(r) for r in results)
                           / sum(r.seconds for r in results), "elements/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p95_ms": (p95, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    factor = {"elements_per_s": slowdown, "latency_p50_ms": 1 / slowdown,
              "latency_p95_ms": 1 / slowdown, "setup_s": 1 / setup_slowdown}
    metrics = {name: (value * factor[name], unit) for name, (value, unit) in wall.items()}
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics, wall, len(latencies), tail_q, beyond


def evidence(reports) -> list[str]:
    """Evidence gathered over the distinct streams swept, and a warning for
    each gated check that gathered none."""
    docs = [json.loads(text) for text in reports]
    totals = [d["totals"] for d in docs]
    l28 = [d["lemmas"]["L2.8"] for d in docs]
    sep = sum(t["sep"] for t in totals)
    l28_checked = sum(c["checked"] for c in l28)
    nonvacuous = l28_checked - sum(c["vacuous"] for c in l28)
    lines = [f"evidence over {len(docs)} stream(s): elements "
             f"{sum(t['generated'] for t in totals)} | both inverses "
             f"{sum(t['bothInvertible'] for t in totals)} | sep elements {sep} | "
             f"L2.8 checks {l28_checked}, non-vacuous {nonvacuous}, useful ratio "
             f"{nonvacuous / l28_checked if l28_checked else 0.0:.4f} | L3.1 pairs "
             f"{sum(d['lemmas']['L3.1']['checked'] for d in docs)}"]
    if sep == 0:
        lines.append("WARNING: no strongly-EP element in the stream: no entry was "
                     "checked in the direction sep => condition")
    if nonvacuous == 0:
        lines.append(f"WARNING: L2.8 gathered zero evidence ({l28_checked} checks, "
                     "none non-vacuous)")
    return lines


def trace_problems(workload, layer, traced_results, report_json):
    """Traced counts that disagree with what the outputs say happened.

    `report_json` is the traced sweep's report, None for invert-mixed or
    when the traced sweep failed (which the output check already counts).
    """
    sweep = isinstance(workload, SweepWorkload)
    required = REQUIRED_NONZERO[workload.name]
    if sweep:
        required = required + [n for n in layer if n.startswith(ENTRY_PREFIX)]
    problems = [f"{name} recorded zero on {workload.name}"
                for name in required if not layer[name][0]]
    if sweep and report_json is None:
        return problems
    if sweep:
        doc = json.loads(report_json)
        l28 = doc["lemmas"]["L2.8"]
        evaluations = (sum(t["checked"] for t in doc["perTheorem"].values())
                       + sum(t["checked"] for t in doc["informational"].values()))
        expected = {
            "geninv.bundle_calls": doc["totals"]["generated"],
            "theorems.l31_calls": doc["lemmas"]["L3.1"]["checked"],
            "theorems.l28_calls": l28["checked"],
            "theorems.l28_nonvacuous": l28["checked"] - l28["vacuous"],
            "theorems.evaluate_calls": evaluations,
        }
    else:
        expected = {"cli.main_calls": len(traced_results),
                    "geninv.bundle_calls": len(traced_results)}
    problems += [f"{name} = {layer[name][0]}, the outputs say {value}"
                 for name, value in expected.items() if layer[name][0] != value]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    clock = time.perf_counter

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: the program is missing: no {PACKAGE} package under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    inputs = workload.inputs(args.seed)
    setup_times = []
    setup_probe = SpeedProbe()
    try:
        for _ in range(SETUP_REPEATS):
            setup_probe()
            t0 = clock()
            prog = load_program()
            state = workload.set_up(prog, inputs)
            setup_times.append(clock() - t0)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    loaded_from = os.path.dirname(os.path.dirname(prog.harness.__file__))
    if os.path.realpath(loaded_from) != os.path.realpath(SRC):
        print(f"error: {PACKAGE} was imported from {loaded_from}, not {SRC}", file=sys.stderr)
        return 2
    digests = load_digests()
    entry_ids = [e.id for e in prog.theorems.registry()]

    probe = SpeedProbe()
    units = measure(workload, prog, state, args.seconds, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e, wall, samples, tail_q, beyond = end_to_end(
        workload, units, setup_times, rss_mb, probe.slowdown(), setup_probe.slowdown())

    trace_failures = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        missed = tracer.unwrapped_bindings()
        traced = workload.run_unit(prog, state, clock, 0)
        tracer.uninstall()
        trace_failures += [f"binding not wrapped: {m}" for m in missed]
    else:
        traced = []

    results = [r for _, unit in units for r in unit] + traced
    attempted = len(results)
    failed, failures, reports = check_results(
        workload, prog, inputs, args.seed, results, digests, entry_ids)

    unit_name = workload.op_name
    print(f"machine: nproc {os.cpu_count()} | cpus usable {len(os.sched_getaffinity(0))} "
          f"| python {platform.python_version()} ({platform.python_implementation()}) "
          f"| {platform.platform()}")
    if isinstance(workload, SweepWorkload):
        size = f"{workload.expected_elements} elements per sweep, {len(state)} stream(s)"
    else:
        size = f"{len(inputs)} invert calls per batch"
    print(f"inputs: workload {workload.name} | seed {args.seed} | {size} | "
          f"{len(units)} units timed in {sum(s for s, _ in units):.3f} s")
    print("unit seconds: " + " ".join(f"{seconds:.4f}" for seconds, _ in units))
    print(f"setup: {SETUP_REPEATS} set-ups, median {wall['setup_s'][0]:.6f} s, "
          f"first {setup_times[0]:.6f} s on the wall clock")
    print(f"host slowdown against the reference speed: {probe.slowdown():.4f} over "
          f"{len(probe.samples)} probes, {setup_probe.slowdown():.4f} over the set-ups")
    print("wall clock: " + " | ".join(f"{name} {value:.6g} {unit}"
                                      for name, (value, unit) in wall.items()))
    print(f"latency samples: {samples} {unit_name}s; latency_p95_ms is their "
          f"{100 * tail_q:.1f}th percentile, with {beyond} beyond it")
    if reports:
        print("\n".join(evidence(reports.values())))
    print(f"error_rate {failed / attempted} ratio ({failed} failed of {attempted} {unit_name}s)")

    if args.trace:
        traced_rate = (sum(workload.elements(r) for r in traced)
                       / sum(r.seconds for r in traced))
        untraced_rate = wall["elements_per_s"][0]
        traced_report, traced_json = (traced[0].output if reports and traced[0].output
                                      else (None, None))
        totals = traced_report.totals if traced_report else {"sep": 0, "bothInvertible": 0}
        layer = tracer.metrics(entry_ids, totals["sep"], totals["bothInvertible"])
        layer["trace.untraced_elements_per_s"] = (untraced_rate, "elements/s")
        layer["trace.traced_elements_per_s"] = (traced_rate, "elements/s")
        trace_failures += trace_problems(workload, layer, traced, traced_json)
        print(f"tracing overhead: traced {traced_rate:.4f} elements/s vs untraced "
              f"{untraced_rate:.4f} elements/s on the wall clock, a time ratio of "
              f"{untraced_rate / traced_rate:.2f}; {len(tracer.span_end)} spans")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.tsv.gz")
        tracer.write(path, f"workload {workload.name} seed {args.seed}")
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        metrics = layer
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for problem in failures + trace_failures:
        print(f"FAILED: {problem}")

    correct = not failed and not trace_failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
