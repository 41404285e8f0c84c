"""Acceptance battery.

One test per criterion, each printing a single pass/fail line (visible with
`pytest -s tests/test_acceptance.py`).  Expensive sweeps are shared through
module-scoped fixtures; their wall times are measured where the criteria
demand runtime bounds.
"""

import json
import random
import time

import pytest

from starring.classify import is_sep
from starring.cli import main
from starring.geninv import (
    InverseBundle,
    derived_elements,
    group_inverse,
    mp_inverse,
    verify_group,
    verify_penrose,
)
from starring.harness import BATTERY, Mode, generate, sweep
from starring.matrix import Matrix
from starring.starfield import RATIONAL
from starring.theorems import Kind, Verdict, evaluate, registry, registry_map

EXHAUSTIVE_SPECS = {name: spec for name, spec in BATTERY.items()
                    if spec.mode is Mode.EXHAUSTIVE}
EXPECTED_SIZES = {"exhaustive-f2-dim2": 16, "exhaustive-f3-dim2": 81,
                  "exhaustive-f4-dim2": 256}
RANDOM_SPECS = {name: spec for name, spec in BATTERY.items()
                if spec.mode is Mode.RANDOM}
# VerificationReport.digest() of each battery report swept below: the
# sha256 without the wallTime line that scripts/run_verification.py prints
BATTERY_DIGESTS = {
    "exhaustive-f2-dim2":
        "d78d4dff88869ffc40e105e4f9037cdcb62daf475c106d20337e157d387c6e56",
    "exhaustive-f3-dim2":
        "8e83bd521900293b5da6c38bc6fb20623ee7264dfe7814ff7ff367c3b4eee4ca",
    "exhaustive-f4-dim2":
        "bba9a77a085bc5188bd48ffd5d7d5ac21a068191315cb8a38fc23a82d9839576",
    "random-q-dim2":
        "8369d482f3a0d005087e3009307a07e5b01df3ef09d6a7b3e67a3b3fb5e778c9",
    "random-q-dim3":
        "e315fe83dd52625545cb38aa880b553641df08aec79744efd71e509f4f6ad22e",
    "random-qi-dim2":
        "1d9620b916617e92553c96f7b159a65d8dd66f760636cb26f552730c91db334d",
    "random-qi-dim3":
        "41c3b86d63130ea4c18f1865c25fc8e1832473f77b25c80cf022f76691755e57",
}
SEP_SPEC = BATTERY["constructed-sep-qi-dim3"]
EP_SPEC = BATTERY["constructed-ep-qi-dim3"]


def _report(num, name, ok):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def exhaustive_runs():
    t0 = time.perf_counter()
    reports = {name: sweep(spec, "all") for name, spec in EXHAUSTIVE_SPECS.items()}
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def random_runs():
    t0 = time.perf_counter()
    reports = {name: sweep(spec, "all") for name, spec in RANDOM_SPECS.items()}
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def exhaustive_bundles():
    return {name: [InverseBundle.compute(m) for m in generate(spec)]
            for name, spec in EXHAUSTIVE_SPECS.items()}


@pytest.fixture(scope="module")
def random_bundles():
    return {name: [InverseBundle.compute(m) for m in generate(spec)]
            for name, spec in RANDOM_SPECS.items()}


@pytest.fixture(scope="module")
def constructed_bundles():
    return ([InverseBundle.compute(m) for m in generate(SEP_SPEC)],
            [InverseBundle.compute(m) for m in generate(EP_SPEC)])


def test_criterion_1_exhaustive_finite_ring_soundness(exhaustive_runs):
    ok = False
    try:
        reports, elapsed = exhaustive_runs
        for name, report in reports.items():
            assert report.totals["generated"] == EXPECTED_SIZES[name]
            for tid, tallies in report.per_theorem.items():
                assert tallies["counterexamples"] == [], (name, tid)
            assert report.counterexample_count() == 0, name
        assert elapsed < 60.0, f"exhaustive sweeps took {elapsed:.1f}s"
        ok = True
    finally:
        _report(1, "exhaustive finite-ring soundness", ok)


def test_criterion_2_randomized_rational_soundness(random_runs):
    ok = False
    try:
        reports, elapsed = random_runs
        for name, report in reports.items():
            assert report.totals["generated"] == 500
            for tid, tallies in report.per_theorem.items():
                assert tallies["counterexamples"] == [], (name, tid)
            assert report.counterexample_count() == 0, name
        assert elapsed < 300.0, f"random sweeps took {elapsed:.1f}s"
        ok = True
    finally:
        _report(2, "randomized rational/Gaussian soundness", ok)


def test_battery_report_bytes(exhaustive_runs, random_runs):
    reports = {**exhaustive_runs[0], **random_runs[0]}
    assert {name: r.digest() for name, r in reports.items()} == BATTERY_DIGESTS


def test_criterion_3_forward_and_backward_direction(constructed_bundles):
    ok = False
    try:
        sep_bundles, ep_bundles = constructed_bundles
        assert len(sep_bundles) == 50 and len(ep_bundles) == 50
        entries = registry()
        for b in sep_bundles:
            assert is_sep(b)
            for entry in entries:
                case = evaluate(entry, b)
                assert case.condition_holds, entry.id
                assert case.verdict is Verdict.CONSISTENT
        gated_sep = [e for e in entries if e.kind is Kind.SEP and e.gated]
        for b in ep_bundles:
            assert not is_sep(b)
            for entry in gated_sep:
                case = evaluate(entry, b)
                assert not case.condition_holds, entry.id
                assert case.verdict is Verdict.CONSISTENT
        ok = True
    finally:
        _report(3, "constructed SEP satisfy / EP-only falsify every condition", ok)


def test_criterion_4_inverse_oracles(exhaustive_bundles, random_bundles,
                                     constructed_bundles):
    ok = False
    try:
        pools = list(exhaustive_bundles.values()) + list(random_bundles.values())
        pools += list(constructed_bundles)
        for bundles in pools:
            for b in bundles:
                if b.has_mp:
                    assert verify_penrose(b.a, b.mp) == (True,) * 4
                if b.has_group:
                    assert verify_group(b.a, b.group) == (True,) * 3

        # uniqueness: a second, independently built candidate must coincide
        rng = random.Random(777)
        checked = 0
        while checked < 200:
            a = Matrix(RATIONAL, [[RATIONAL.rational(rng.randint(-3, 3),
                                                     rng.randint(1, 3))
                                   for _ in range(2)] for _ in range(2)])
            mp = mp_inverse(a)
            if mp is None or a.is_zero():
                continue
            candidate = group_inverse(a.star() * a) * a.star()
            assert all(verify_penrose(a, candidate))
            assert candidate == mp
            checked += 1
        ok = True
    finally:
        _report(4, "Penrose/group equations exact; MP uniqueness x200", ok)


def test_criterion_5_derived_closed_forms(exhaustive_bundles, random_bundles):
    ok = False
    try:
        for bundles in list(exhaustive_bundles.values()) + list(random_bundles.values()):
            for b in bundles:
                if not (b.has_mp and b.has_group):
                    continue
                der = derived_elements(b)  # raises on closed-form mismatch
                assert der["mp_of_group"] == b.mp * (b.a ** 3) * b.mp
                ag_star = (b.a * b.group).star()
                assert der["group_of_mp"] == ag_star * b.a * ag_star
        ok = True
    finally:
        _report(5, "derived-element closed forms agree with direct inverses", ok)


def test_criterion_6_lemma_suite(exhaustive_runs, random_runs):
    ok = False
    try:
        for reports, _ in (exhaustive_runs, random_runs):
            for name, report in reports.items():
                duality = report.lemmas["L3.1"]
                assert duality["checked"] <= 10_000
                assert duality["violations"] == [], name
                sandwich = report.lemmas["L2.8"]
                assert sandwich["violations"] == [], name
        ok = True
    finally:
        _report(6, "lemma checks hold on all sampled pairs", ok)


def test_criterion_7_byte_identical_reports(capsys, tmp_path):
    ok = False
    try:
        invocations = [
            ["verify", "--ring", "f3", "--dim", "2", "--exhaustive",
             "--entries", "all", "--format", "json"],
            ["verify", "--ring", "qi", "--dim", "2", "--random", "--seed", "7",
             "--count", "50", "--entries", "all", "--format", "json"],
        ]
        for argv in invocations:
            rc1 = main(list(argv))
            out1 = capsys.readouterr().out
            rc2 = main(list(argv))
            out2 = capsys.readouterr().out
            assert rc1 == rc2 == 0
            strip = lambda s: "\n".join(
                ln for ln in s.splitlines() if "wallTime" not in ln)
            assert strip(out1) == strip(out2)
            assert json.loads(out1)["wallTime"] >= 0.0
        ok = True
    finally:
        _report(7, "verify reports byte-identical modulo wallTime", ok)


def test_criterion_8_duplicate_expression_identity(exhaustive_bundles,
                                                   random_bundles):
    ok = False
    try:
        c27 = registry_map()["C2.7"]
        c210 = registry_map()["C2.10"]
        evaluated = 0
        for bundles in list(exhaustive_bundles.values()) + list(random_bundles.values()):
            for b in bundles:
                if b.has_mp and b.has_group:
                    one, two = evaluate(c27, b), evaluate(c210, b)
                    assert one.condition_holds == two.condition_holds
                    assert one.verdict == two.verdict
                    evaluated += 1
        assert evaluated > 0
        ok = True
    finally:
        _report(8, "C2.7 and C2.10 agree on 100% of evaluated elements", ok)
