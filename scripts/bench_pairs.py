#!/usr/bin/env python3
"""Run bench/run.py in alternating parent/change pairs and summarize them.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_n.json \\
        --workload sweep-qi-random --pairs 10 --first-seed 21
    python3 scripts/bench_pairs.py --parent REV --out BENCH_n.json --trace --battery

The parent side is commit REV, extracted with `git archive` into a temporary
directory outside the repository, which is removed at the end; the change
side is the checkout this script lives in.  Both sides run their own
bench/run.py with the same arguments, one process at a time, at the run
length bench/run.py sets by default (BENCHMARK.json's `run_seconds`, which
the output records).

* `--workload W` (repeatable) runs N pairs on W, seeds first-seed ..
  first-seed + N - 1, the parent going first in even-numbered pairs and the
  change in odd-numbered ones.  Each workload's runs and summary replace
  that workload's entry in the output.
* `--trace` runs a traced seed-1 unit of every BENCHMARK.json workload
  SIDE_RUNS times per side, alternating the sides and the side that goes
  first, and records every unit's per-layer metrics and each side's median
  of each.
* `--battery` runs scripts/run_verification.py on each side and records
  every report digest, its wall time and the total.  It also runs
  `starring verify --exhaustive --format json` for each whole ring in
  WHOLE_RINGS, which the battery does not sweep, SIDE_RUNS times per side,
  alternating as `--trace` does, and records under "whole_rings" each
  run's `wallTime`, the sha256 of its report without the `wallTime` line
  and its process's peak RSS, each side's median `wallTime` and peak RSS,
  and whether every run of both sides has one digest.

The output JSON is read first if it exists, so several invocations build up
one file.  For every workload and end-to-end metric the summary gives each
side's median and quartiles, the pairs the change won (ties count for
neither), whether a gain is shown (the change wins at least nine tenths of
the pairs and its median beats the parent's by more than the distance
between the parent's quartiles) and whether the change's median stays
within the metric's BENCHMARK.json bound of the parent's.  Both verdicts are
false when any pair ran incorrectly or the change failed a larger share of
its operations; the summary's "operations" entry records why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
BATTERY_ROW = re.compile(r"^(\S+)\s+elements .*wallTime\s+([\d.]+)s\s+sha256 ([0-9a-f]{64})")
BATTERY_TOTAL = re.compile(r"^total wall time ([\d.]+)s; (.*)$")
#: the whole rings timed with the battery: name -> (--ring, --dim)
WHOLE_RINGS = {"M_3(F_2)": ("f2", 3), "M_2(F_5)": ("f5", 2), "M_2(F_7)": ("f7", 2),
               "M_2(F_9)": ("f32", 2), "M_2(F_11)": ("f11", 2)}
#: runs per side of each whole ring and each traced unit: one run cannot
#: resolve a 10-20% change on a host whose speed drifts between runs
SIDE_RUNS = 3


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    values = sorted(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, end_to_end) -> dict:
    """Per end-to-end metric: both sides' spread, wins and the two verdicts;
    under "operations", each side's checks and failures over all pairs.

    `pairs` holds {"parent": run, "change": run} per pair, each run as
    `run_bench` returns it; `end_to_end` is the BENCHMARK.json list of
    metrics with their `better` direction and `bound`.  A pair in which
    either run printed `correct: false`, or the change failed a larger share
    of its operations than the parent, is listed in "unsound_pairs" and
    makes every metric's `gain_shown` and `within_bound` false: the speed of
    wrong or failing work shows nothing.
    """
    unsound = [k for k, p in enumerate(pairs)
               if not (p["parent"]["correct"] and p["change"]["correct"])
               or p["change"]["failed"] * p["parent"]["attempted"]
               > p["parent"]["failed"] * p["change"]["attempted"]]
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [p[side]["metrics"][name] for p in pairs]
                 for side in ("parent", "change")}
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        sign = 1 if higher else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        spread = parent["q3"] - parent["q1"]
        gap = sign * (change["median"] - parent["median"])
        worse_by = max(0.0, -gap / parent["median"]) if parent["median"] else 0.0
        out[name] = {
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "pairs": len(pairs),
            "ratio_change_over_parent": (change["median"] / parent["median"]
                                         if parent["median"] else None),
            "parent_quartile_spread": spread,
            "gain_shown": not unsound and 10 * wins >= 9 * len(pairs) and gap > spread,
            "bound": metric["bound"],
            "worse_than_parent_by": worse_by,
            "within_bound": not unsound and worse_by <= metric["bound"],
        }
    out["operations"] = {
        side: {"correct": all(p[side]["correct"] for p in pairs),
               "attempted": sum(p[side]["attempted"] for p in pairs),
               "failed": sum(p[side]["failed"] for p in pairs)}
        for side in ("parent", "change")}
    out["operations"]["unsound_pairs"] = unsound
    return out


def run_bench(tree: pathlib.Path, workload: str, seed: int, trace: bool) -> dict:
    """One bench/run.py process in `tree` at its own default run length; the
    JSON object of its last line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "1" if trace else "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"bench/run.py failed in {tree} (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def run_battery(tree: pathlib.Path) -> dict:
    """scripts/run_verification.py in `tree`: per-report digests and times."""
    with tempfile.TemporaryDirectory() as out_dir:
        proc = subprocess.run(
            [sys.executable, "scripts/run_verification.py", "--out-dir", out_dir],
            cwd=tree, capture_output=True, text=True)
    reports, total = {}, None
    for line in proc.stdout.splitlines():
        if row := BATTERY_ROW.match(line):
            reports[row[1]] = {"wallTime_s": float(row[2]), "sha256": row[3]}
        elif match := BATTERY_TOTAL.match(line):
            total = match
    if total is None:
        raise RuntimeError(f"battery failed in {tree} (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return {"exit": proc.returncode, "total_s": float(total[1]), "verdict": total[2],
            "reports": reports}


def report_timing(text: str) -> dict:
    """The `wallTime` of a `verify --format json` report and the sha256 of
    the report without its `wallTime` line, as `VerificationReport.digest`
    computes it."""
    kept = "\n".join(ln for ln in text.splitlines() if not ln.startswith('  "wallTime": '))
    return {"wallTime_s": json.loads(text)["wallTime"],
            "sha256": hashlib.sha256(kept.encode()).hexdigest()}


def run_whole_ring(tree: pathlib.Path, ring: str, dim: int) -> dict:
    """One exhaustive `starring verify` of M_dim(ring) on the sources in
    `tree`: its exit status, `wallTime`, digest and peak RSS.  The child is
    reaped with os.wait4, whose resource usage is that child's alone, so
    `peak_rss_mb` is the sweep's own high-water mark, entry tables
    included."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "starring.cli", "verify", "--ring", ring, "--dim", str(dim),
             "--exhaustive", "--format", "json"],
            cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
            stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"verify --ring {ring} --dim {dim} failed in {tree} "
                           f"(exit {proc.returncode}):\n{stderr[-2000:]}")
    # ru_maxrss is in KiB on Linux
    return {"exit": proc.returncode, **report_timing(stdout),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 2)}


def ring_summary(runs) -> dict:
    """One side's runs of one whole ring, as `run_whole_ring` returns them:
    the median `wallTime` and peak RSS, the highest exit status, the digest
    when every run has the same one (else None), and the runs themselves."""
    digests = {run["sha256"] for run in runs}
    return {"exit": max(run["exit"] for run in runs),
            "sha256": digests.pop() if len(digests) == 1 else None,
            "wallTime_s": statistics.median(run["wallTime_s"] for run in runs),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
            "runs": list(runs)}


def alternating(trees: dict, run) -> dict:
    """run(tree) SIDE_RUNS times per side, the sides alternating and the
    parent going first in even-numbered rounds: each side's results, in
    order."""
    runs = {"parent": [], "change": []}
    for k in range(SIDE_RUNS):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(run(trees[side]))
    return runs


def trace_summary(runs) -> dict:
    """One side's traced units of one workload, as `run_bench` returns
    them: whether every unit ran correctly, each metric's median and the
    units themselves."""
    return {"correct": all(run["correct"] for run in runs),
            "metrics": {name: statistics.median(run["metrics"][name] for run in runs)
                        for name in runs[0]["metrics"]},
            "runs": list(runs)}


def run_whole_rings(trees: dict) -> dict:
    """Each of WHOLE_RINGS, its runs `alternating`: per side ("before" the
    parent, "after" the change) and ring, its `ring_summary`, and whether
    every run of both sides has one digest."""
    runs = {name: alternating(trees, lambda tree, ring=ring, dim=dim:
                              run_whole_ring(tree, ring, dim))
            for name, (ring, dim) in WHOLE_RINGS.items()}
    rings = {key: {name: ring_summary(runs[name][side]) for name in WHOLE_RINGS}
             for key, side in (("before", "parent"), ("after", "change"))}
    rings["digests_equal"] = all(
        len({run["sha256"] for side in sides.values() for run in side}) == 1
        for sides in runs.values())
    return rings


def extract(rev: str, dest: pathlib.Path) -> str:
    """Write the files of commit `rev` into `dest`; return its full hash."""
    full = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", full], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {full} failed")
    return full


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write (and extend)")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=21)
    parser.add_argument("--trace", action="store_true",
                        help="record traced seed-1 units per workload on each side")
    parser.add_argument("--battery", action="store_true",
                        help="record the battery digests and times on each side")
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in config["workloads"]]
    unknown = [w for w in args.workload if w not in known]
    if unknown or args.pairs < 1:
        parser.error(f"unknown workload(s) {unknown}" if unknown else "--pairs must be >= 1")
    out_path = pathlib.Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}

    def save():
        out_path.write_text(json.dumps(doc, indent=2) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = pathlib.Path(tmp)
        trees = {"parent": parent_tree, "change": ROOT}
        doc["parent_commit"] = extract(args.parent, parent_tree)
        doc["host"] = (f"{os.cpu_count()} CPUs, {platform.platform()}, "
                       f"{platform.python_implementation()} {platform.python_version()}")
        doc.setdefault("end_to_end", {})
        for workload in args.workload:
            pairs = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, False)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['elements_per_s']:.2f}"
                    for side in ("parent", "change")), flush=True)
            doc["end_to_end"][workload] = {
                "seconds": config["run_seconds"],
                "pairs": pairs,
                "summary": summarize(pairs, config["end_to_end"]),
            }
            save()
        if args.trace:
            doc["traced_seed1"] = {}
            for workload in known:
                runs = alternating(trees, lambda tree: run_bench(tree, workload, 1, True))
                doc["traced_seed1"][workload] = {side: trace_summary(runs[side])
                                                 for side in runs}
            save()
        if args.battery:
            battery = {"before": run_battery(parent_tree), "after": run_battery(ROOT)}
            battery["digests_equal"] = (
                {k: v["sha256"] for k, v in battery["before"]["reports"].items()}
                == {k: v["sha256"] for k, v in battery["after"]["reports"].items()})
            doc["battery"] = battery
            doc["whole_rings"] = run_whole_rings(trees)
            save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
