"""The pair summary of scripts/bench_pairs.py, on fixed numbers."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "elements_per_s", "better": "higher", "bound": 0.12},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.2},
]


def _run(rate, correct=True, failed=0, attempted=100):
    # one side of a pair, shaped as run_bench returns it
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"elements_per_s": rate, "latency_p50_ms": 1000 / rate}}


def _pairs(parent, change):
    return [{"parent": _run(p), "change": _run(c)} for p, c in zip(parent, change)]


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([4, 1, 3, 2, 5]) == {"median": 3, "q1": 2, "q3": 4}
    assert bench_pairs.quartiles([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5}


def test_clear_gain_is_shown_in_both_directions():
    parent = [20, 21, 19, 20, 22, 20, 21, 19, 20, 20]
    change = [27, 28, 26, 27, 29, 27, 28, 26, 27, 18]  # the last pair lost
    s = bench_pairs.summarize(_pairs(parent, change), METRICS)
    rate, latency = s["elements_per_s"], s["latency_p50_ms"]
    assert rate["change_wins"] == latency["change_wins"] == 9
    assert rate["pairs"] == 10
    assert rate["parent"] == {"median": 20, "q1": 20, "q3": 20.75}
    assert rate["change"]["median"] == 27
    assert rate["ratio_change_over_parent"] == pytest.approx(1.35)
    assert rate["parent_quartile_spread"] == pytest.approx(0.75)
    assert rate["gain_shown"] and latency["gain_shown"]
    assert rate["worse_than_parent_by"] == latency["worse_than_parent_by"] == 0.0
    assert rate["within_bound"] and latency["within_bound"]


def test_eight_wins_of_ten_show_no_gain():
    parent = [20] * 10
    change = [30] * 8 + [10, 20]  # a tie counts for neither side
    s = bench_pairs.summarize(_pairs(parent, change), METRICS)["elements_per_s"]
    assert s["change_wins"] == 8
    assert not s["gain_shown"]


def test_gap_inside_the_parents_spread_shows_no_gain():
    parent = [10, 30, 10, 30, 10, 30, 10, 30, 10, 30]
    change = [p + 1 for p in parent]
    s = bench_pairs.summarize(_pairs(parent, change), METRICS)["elements_per_s"]
    assert s["change_wins"] == 10
    assert s["parent_quartile_spread"] == 20
    assert not s["gain_shown"]


def test_regression_against_bound():
    parent = [100] * 4
    s = bench_pairs.summarize(_pairs(parent, [90] * 4), METRICS)
    assert s["elements_per_s"]["worse_than_parent_by"] == pytest.approx(0.10)
    assert s["elements_per_s"]["within_bound"]
    assert s["latency_p50_ms"]["worse_than_parent_by"] == pytest.approx(1 / 9)
    s = bench_pairs.summarize(_pairs(parent, [85] * 4), METRICS)["elements_per_s"]
    assert s["worse_than_parent_by"] == pytest.approx(0.15)
    assert not s["within_bound"]


def test_wrong_or_failing_runs_show_neither_gain_nor_bound():
    parent = [20, 21, 19, 20, 22, 20, 21, 19, 20, 20]
    change = [27, 28, 26, 27, 29, 27, 28, 26, 27, 28]
    clean = bench_pairs.summarize(_pairs(parent, change), METRICS)
    assert clean["elements_per_s"]["gain_shown"] and clean["elements_per_s"]["within_bound"]
    assert clean["operations"] == {
        "parent": {"correct": True, "attempted": 1000, "failed": 0},
        "change": {"correct": True, "attempted": 1000, "failed": 0},
        "unsound_pairs": []}
    for k, side, run in ((3, "change", _run(27, correct=False)),
                         (5, "parent", _run(20, correct=False)),
                         (7, "change", _run(26, failed=2))):
        pairs = _pairs(parent, change)
        pairs[k][side] = run
        s = bench_pairs.summarize(pairs, METRICS)
        assert s["operations"]["unsound_pairs"] == [k]
        assert s["operations"][side] == {"correct": run["correct"], "attempted": 1000,
                                         "failed": run["failed"]}
        for name in ("elements_per_s", "latency_p50_ms"):
            assert not s[name]["gain_shown"] and not s[name]["within_bound"]
    # the share of failures counts, not their number: twice the operations
    # with twice the failures is no worse
    pairs = _pairs(parent, change)
    pairs[0]["parent"] = _run(20, failed=1)
    pairs[0]["change"] = _run(27, failed=2, attempted=200)
    s = bench_pairs.summarize(pairs, METRICS)
    assert s["operations"]["unsound_pairs"] == []
    assert s["elements_per_s"]["gain_shown"]


def test_report_timing_reads_the_wall_time_and_the_report_digest():
    from starring.harness import GeneratorSpec, Mode, sweep
    from starring.starfield import prime_field

    report = sweep(GeneratorSpec(Mode.EXHAUSTIVE, prime_field(2), 1), "all")
    text = report.to_json() + "\n"  # as `verify --format json` prints it
    assert bench_pairs.report_timing(text) == {"wallTime_s": report.wall_time,
                                               "sha256": report.digest()}
    # a report that differs in wallTime alone has the same digest
    other = text.replace(f'"wallTime": {report.wall_time}', '"wallTime": 12.5')
    assert other != text
    assert bench_pairs.report_timing(other) == {"wallTime_s": 12.5,
                                                "sha256": report.digest()}


def test_run_whole_ring_runs_the_cli_on_a_tree():
    from starring.harness import GeneratorSpec, Mode, sweep
    from starring.starfield import parse_ring, prime_field

    result = bench_pairs.run_whole_ring(bench_pairs.ROOT, "f3", 2)
    spec = GeneratorSpec(Mode.EXHAUSTIVE, prime_field(3), 2)
    assert result["exit"] == 0 and result["wallTime_s"] > 0
    # the child's own high-water mark: an interpreter with the package loaded
    assert 5 < result["peak_rss_mb"] < 500
    assert result["sha256"] == sweep(spec, "all").digest()
    with pytest.raises(RuntimeError, match="exit 2"):
        bench_pairs.run_whole_ring(bench_pairs.ROOT, "f1", 2)  # no field F_1
    # each named ring is the one its flags select: M_3(F_2), M_2(F_5),
    # M_2(F_7), M_2(F_9) and M_2(F_11)
    sizes = {name: parse_ring(ring).size() ** (dim * dim)
             for name, (ring, dim) in bench_pairs.WHOLE_RINGS.items()}
    assert sizes == {"M_3(F_2)": 512, "M_2(F_5)": 625, "M_2(F_7)": 2401, "M_2(F_9)": 6561,
                     "M_2(F_11)": 14641}


def _ring_run(wall, rss, digest="d", exit_code=0):
    # one run of a whole ring, shaped as run_whole_ring returns it
    return {"exit": exit_code, "wallTime_s": wall, "sha256": digest, "peak_rss_mb": rss}


def test_ring_summary_takes_the_medians_and_keeps_every_run():
    runs = [_ring_run(9.8, 40.0), _ring_run(12.8, 41.5), _ring_run(10.1, 39.0)]
    s = bench_pairs.ring_summary(runs)
    assert s["wallTime_s"] == 10.1 and s["peak_rss_mb"] == 40.0
    assert s["sha256"] == "d" and s["exit"] == 0
    assert s["runs"] == runs
    # two digests among the runs: none is the side's
    s = bench_pairs.ring_summary([_ring_run(1.0, 1.0), _ring_run(2.0, 1.0, digest="e",
                                                                 exit_code=1)])
    assert s["sha256"] is None and s["exit"] == 1 and s["wallTime_s"] == 1.5


def test_whole_rings_run_three_times_per_side_alternating(monkeypatch):
    calls = []
    walls = iter(range(1, 1000))

    def fake_run(tree, ring, dim):
        calls.append((tree, ring))
        return _ring_run(float(next(walls)), 30.0, digest=ring)

    monkeypatch.setattr(bench_pairs, "run_whole_ring", fake_run)
    rings = bench_pairs.run_whole_rings({"parent": "P", "change": "C"})
    assert bench_pairs.SIDE_RUNS == 3
    first = bench_pairs.WHOLE_RINGS["M_3(F_2)"][0]
    # per ring, the parent goes first, then the change, then the parent again
    assert calls[:6] == [("P", first), ("C", first), ("C", first), ("P", first),
                         ("P", first), ("C", first)]
    assert len(calls) == 6 * len(bench_pairs.WHOLE_RINGS)
    before, after = rings["before"]["M_3(F_2)"], rings["after"]["M_3(F_2)"]
    assert [r["wallTime_s"] for r in before["runs"]] == [1.0, 4.0, 5.0]
    assert [r["wallTime_s"] for r in after["runs"]] == [2.0, 3.0, 6.0]
    assert before["wallTime_s"] == 4.0 and after["wallTime_s"] == 3.0
    assert rings["digests_equal"]
    # a side whose report differs from the other's
    monkeypatch.setattr(bench_pairs, "run_whole_ring",
                        lambda tree, ring, dim: _ring_run(1.0, 30.0, digest=tree + ring))
    assert not bench_pairs.run_whole_rings({"parent": "P", "change": "C"})["digests_equal"]


def test_traced_units_alternate_and_take_each_metrics_median():
    calls, units = [], iter(range(1, 7))

    def traced(tree):
        calls.append(tree)
        k = next(units)
        return {"correct": k != 4, "attempted": 10, "failed": 0,
                "metrics": {"matrix.mul_s": float(k), "matrix.mul_calls": 100}}

    runs = bench_pairs.alternating({"parent": "P", "change": "C"}, traced)
    assert calls == ["P", "C", "C", "P", "P", "C"]
    parent, change = (bench_pairs.trace_summary(runs[side]) for side in ("parent", "change"))
    assert [r["metrics"]["matrix.mul_s"] for r in parent["runs"]] == [1.0, 4.0, 5.0]
    assert parent["metrics"] == {"matrix.mul_s": 4.0, "matrix.mul_calls": 100}
    assert change["metrics"] == {"matrix.mul_s": 3.0, "matrix.mul_calls": 100}
    # one unit that ran incorrectly makes its side incorrect
    assert not parent["correct"] and change["correct"]
