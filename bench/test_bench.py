"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from checks import check_invert, check_report, report_digest
from speed import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS

sys.path.insert(0, run.SRC)


@pytest.fixture
def prog():
    return run.load_program()


def _small_report(prog):
    spec = prog.harness.GeneratorSpec(prog.harness.Mode.EXHAUSTIVE,
                                      prog.starfield.prime_field(2), 2)
    return prog.harness.sweep(spec, "all").to_json()


def _entry_ids(prog):
    return [e.id for e in prog.theorems.registry()]


def test_clean_report_passes(prog):
    text = _small_report(prog)
    assert check_report(text, _entry_ids(prog), 16, 256, report_digest(text)) == []


@pytest.mark.parametrize("corrupt", [
    lambda d: d["perTheorem"]["T2.1"]["counterexamples"].append(
        {"element": [["1", "0"], ["0", "0"]], "conditionHolds": False, "sepHolds": True}),
    lambda d: d["lemmas"]["L3.1"]["violations"].append({"e": [], "a": []}),
    lambda d: d["perTheorem"]["X1"].__setitem__("consistent", 0),
    lambda d: d["totals"].__setitem__("generated", 15),
    lambda d: d["perTheorem"].pop("T5.4"),
    lambda d: d["lemmas"]["L2.8"].__setitem__("vacuous", 1),
    lambda d: d.pop("lemmas"),
])
def test_corrupted_report_fails(prog, corrupt):
    text = _small_report(prog)
    digest = report_digest(text)
    doc = json.loads(text)
    corrupt(doc)
    assert check_report(json.dumps(doc), _entry_ids(prog), 16, 256, digest)


def test_wall_time_is_outside_the_digest(prog):
    text = _small_report(prog)
    doc = json.loads(text)
    doc["wallTime"] = 123.0
    assert report_digest(json.dumps(doc)) == report_digest(text)


def _invert(prog, capsys, text, ring):
    code = prog.cli.main(["invert", "--matrix", text, "--ring", ring, "--format", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("text,ring", [("1 1; 0 0", "q"), ("0 1; 0 0", "f3"),
                                        ("1+1w 0; 0 0", "f32"), ("1/2+1i 2; 0 -1i", "qi")])
def test_invert_output_passes(prog, capsys, text, ring):
    code, out = _invert(prog, capsys, text, ring)
    assert check_invert(prog, ring, 2, text, out, code, None) == []


@pytest.mark.parametrize("corrupt", [
    lambda d: d["mpInverse"][0].__setitem__(0, "7"),
    lambda d: d.update(hasGroupInverse=False, groupInverse=None),
    lambda d: d.update(hasMpInverse=False, mpInverse=None),
    lambda d: d["groupInverse"][1].__setitem__(0, "1"),
    lambda d: d["input"][1].__setitem__(1, "5"),
    lambda d: d.pop("mpInverse"),
])
def test_corrupted_invert_output_fails(prog, capsys, corrupt):
    code, out = _invert(prog, capsys, "1 1; 0 0", "q")
    doc = json.loads(out)
    corrupt(doc)
    assert check_invert(prog, "q", 2, "1 1; 0 0", json.dumps(doc), code, None)


def test_invert_failure_modes_fail(prog, capsys):
    code, out = _invert(prog, capsys, "1 1; 0 0", "q")
    assert check_invert(prog, "q", 2, "1 1; 0 0", out, 1, None)
    assert check_invert(prog, "q", 2, "1 1; 0 0", out, code, "0" * 16)
    assert check_invert(prog, "q", 2, "1 1; 0 0", "not json", code, None)


def test_tracer_reaches_bindings_imported_by_name(prog):
    geninv_mp = prog.geninv.mp_inverse
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        assert prog.theorems.mp_inverse is not geninv_mp
        assert prog.theorems.mp_inverse is prog.geninv.mp_inverse
        assert prog.harness.evaluate is prog.theorems.evaluate
        spec = prog.harness.GeneratorSpec(prog.harness.Mode.RANDOM, prog.starfield.GAUSSIAN,
                                          2, sample_count=3, seed=4)
        report = prog.harness.sweep(spec, "all")
    finally:
        tracer.uninstall()
    assert prog.geninv.mp_inverse is geninv_mp
    assert prog.theorems.mp_inverse is geninv_mp
    assert tracer.unwrapped_bindings() != []
    layer = tracer.metrics(_entry_ids(prog), report.totals["sep"],
                           report.totals["bothInvertible"])
    assert layer["geninv.derived_builds"][0] == report.totals["bothInvertible"] > 0
    assert layer["geninv.bundle_calls"][0] == 3
    assert layer["theorems.l31_calls"][0] == 9
    assert layer["theorems.evaluate_calls"][0] == 30 * report.totals["bothInvertible"]
    assert all(layer[f"theorems.entry.{i}.self_s"][0] > 0 for i in _entry_ids(prog))


def test_zero_span_is_a_trace_problem(prog):
    workload = WORKLOADS["sweep-qi-random"]
    state = workload.set_up(prog, 3)
    tracer = Tracer()
    tracer.install()
    try:
        results = workload.run_unit(prog, state, time.perf_counter, 0)
    finally:
        tracer.uninstall()
    report = results[0].output[0]
    layer = tracer.metrics(_entry_ids(prog), report.totals["sep"],
                           report.totals["bothInvertible"])
    report_json = results[0].output[1]
    assert run.trace_problems(workload, layer, results, report_json) == []
    layer["geninv.derived_builds"] = (0, "count")
    layer["theorems.l31_calls"] = (399, "count")
    assert len(run.trace_problems(workload, layer, results, report_json)) == 2


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "invert-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("n,q", [(2400, 0.95), (200, 0.95), (100, 0.9), (12, 0.5), (1, 0.5)])
def test_tail_quantile_keeps_ten_samples_beyond(n, q):
    assert run.tail_quantile(n) == pytest.approx(q)


def test_speed_probe_clock_leaves_out_its_samples():
    with SpeedProbe() as probe:
        wall0, clock0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - wall0 < 0.5:
            pass
        wall, clock = time.perf_counter() - wall0, probe.clock() - clock0
    assert len(probe.samples) >= 3
    assert clock == pytest.approx(wall - probe.spent, abs=1e-3)
    assert probe.slowdown() > 0
