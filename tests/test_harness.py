"""Generation, sweep orchestration, reports, and determinism."""

import dataclasses
import hashlib
import json
import sys
import threading

import pytest

import starring.harness as harness_mod
import starring.theorems as theorems_mod
from starring.classify import classify
from starring.geninv import InverseBundle, verify_group, verify_penrose
from starring.harness import (
    EXHAUSTIVE_BUDGET,
    BudgetExceededError,
    GeneratorSpec,
    InvalidSpecError,
    Mode,
    PAIR_BUDGET,
    REPORT_SCHEMA,
    UnknownEntryError,
    generate,
    resolve_entries,
    sweep,
)
from starring.matrix import Matrix
from starring.starfield import GAUSSIAN, RATIONAL, prime_field, quad_ext_field
from starring.theorems import Kind, evaluate, registry, registry_map

F2 = prime_field(2)
F3 = prime_field(3)
F4 = quad_ext_field(2)
F5 = prime_field(5)


# -- generation -------------------------------------------------------------------

def test_exhaustive_counts_and_distinctness():
    for field, expected in ((F2, 16), (F3, 81), (F4, 256)):
        elems = list(generate(GeneratorSpec(Mode.EXHAUSTIVE, field, 2)))
        assert len(elems) == expected
        assert len(set(elems)) == expected


def test_exhaustive_is_lexicographic():
    elems = list(generate(GeneratorSpec(Mode.EXHAUSTIVE, F2, 2)))
    assert elems[0].to_tokens() == [["0", "0"], ["0", "0"]]
    assert elems[1].to_tokens() == [["0", "0"], ["0", "1"]]
    assert elems[-1].to_tokens() == [["1", "1"], ["1", "1"]]


def test_exhaustive_budget():
    with pytest.raises(BudgetExceededError):
        GeneratorSpec(Mode.EXHAUSTIVE, F5, 3).validate()  # 5^9 > 10^6
    assert 5 ** 9 > EXHAUSTIVE_BUDGET


def test_invalid_specs():
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(Mode.EXHAUSTIVE, RATIONAL, 2).validate()
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(Mode.RANDOM, RATIONAL, 2, sample_count=5).validate()
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(Mode.RANDOM, RATIONAL, 2, sample_count=0, seed=1).validate()
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(Mode.RANDOM, RATIONAL, 9, sample_count=5, seed=1).validate()
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(Mode.CONSTRUCTED_PI, RATIONAL, 1, sample_count=5, seed=1).validate()


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_constructed_ep_unsatisfiable_on_norm_one_fields(field):
    # every invertible scalar has norm 1 there, so no non-unitary core exists
    with pytest.raises(InvalidSpecError):
        GeneratorSpec(Mode.CONSTRUCTED_EP, field, 2,
                      sample_count=5, seed=1).validate()
    GeneratorSpec(Mode.CONSTRUCTED_EP, F5, 2, sample_count=5, seed=1).validate()


def test_stream_determinism():
    for mode, kwargs in [
        (Mode.RANDOM, dict(sample_count=40, seed=7)),
        (Mode.CONSTRUCTED_SEP, dict(sample_count=40, seed=7)),
        (Mode.CONSTRUCTED_EP, dict(sample_count=40, seed=7)),
        (Mode.CONSTRUCTED_PI, dict(sample_count=40, seed=7)),
    ]:
        spec = GeneratorSpec(mode, GAUSSIAN, 3, **kwargs)
        assert list(generate(spec)) == list(generate(spec))
    different = GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=40, seed=8)
    base = GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=40, seed=7)
    assert list(generate(different)) != list(generate(base))


def test_random_entry_bounds():
    for m in generate(GeneratorSpec(Mode.RANDOM, RATIONAL, 2,
                                    sample_count=60, seed=3)):
        for row in m.rows:
            for e in row:
                assert abs(e.value.numerator) <= 3
                assert 1 <= e.value.denominator <= 3


@pytest.mark.parametrize("field", [GAUSSIAN, RATIONAL, F5])
def test_constructed_streams_classify_as_promised(field):
    n = 3
    sep_spec = GeneratorSpec(Mode.CONSTRUCTED_SEP, field, n, sample_count=20, seed=5)
    for m in generate(sep_spec):
        assert classify(InverseBundle.compute(m)).is_sep

    ep_spec = GeneratorSpec(Mode.CONSTRUCTED_EP, field, n, sample_count=20, seed=5)
    for m in generate(ep_spec):
        c = classify(InverseBundle.compute(m))
        assert c.is_ep and not c.is_pi and not c.is_sep

    pi_spec = GeneratorSpec(Mode.CONSTRUCTED_PI, field, n, sample_count=20, seed=5)
    for m in generate(pi_spec):
        c = classify(InverseBundle.compute(m))
        assert c.is_pi and not c.group_invertible and not m.is_zero()


# -- sweeping ------------------------------------------------------------------------

def test_entry_resolution():
    assert [e.id for e in resolve_entries("all")][:3] == ["T2.1", "T2.2", "T2.3"]
    assert [e.id for e in resolve_entries(["T2.5", "X3"])] == ["T2.5", "X3"]
    with pytest.raises(UnknownEntryError):
        resolve_entries(["T9.9"])


FROZEN_MEMBERSHIP = {
    # produced by the exhaustive oracle, cross-checked by the brute-force
    # equation search in test_geninv; regression values
    "F2": dict(generated=16, mpInvertible=11, groupInvertible=13,
               bothInvertible=9, sep=5),
    "F3": dict(generated=81, mpInvertible=81, groupInvertible=73,
               bothInvertible=73, sep=17),
    "F4": dict(generated=256, mpInvertible=193, groupInvertible=241,
               bothInvertible=187, sep=25),
}


@pytest.mark.parametrize("field,name", [(F2, "F2"), (F3, "F3"), (F4, "F4")])
def test_exhaustive_sweep_membership_and_soundness(field, name):
    report = sweep(GeneratorSpec(Mode.EXHAUSTIVE, field, 2), "all")
    assert report.totals == FROZEN_MEMBERSHIP[name]
    assert report.counterexample_count() == 0
    both = report.totals["bothInvertible"]
    for tid, tallies in report.per_theorem.items():
        expected = report.totals["mpInvertible"] if tid == "X3" else both
        assert tallies["checked"] == expected
        assert tallies["consistent"] == expected
        assert tallies["counterexamples"] == []
    assert report.informational["T3.4e"]["checked"] == both
    assert report.lemmas["L3.1"]["violations"] == []
    assert report.lemmas["L2.8"]["violations"] == []


def test_pair_budget_respected():
    report = sweep(GeneratorSpec(Mode.EXHAUSTIVE, F4, 2), ["T2.1"])
    assert report.lemmas["L3.1"]["checked"] == PAIR_BUDGET  # 256^2 > budget
    small = sweep(GeneratorSpec(Mode.EXHAUSTIVE, F2, 2), ["T2.1"])
    assert small.lemmas["L3.1"]["checked"] == 16 * 16


def test_sweep_entry_subset():
    report = sweep(GeneratorSpec(Mode.EXHAUSTIVE, F2, 2), ["T2.3", "X3"])
    assert set(report.per_theorem) == {"T2.3", "X3"}
    assert report.informational == {}
    assert report.entry_ids == ["T2.3", "X3"]


def test_sweep_constructed_sep_counts():
    spec = GeneratorSpec(Mode.CONSTRUCTED_SEP, GAUSSIAN, 2,
                         sample_count=30, seed=21)
    report = sweep(spec, "all")
    assert report.totals["sep"] == report.totals["generated"] == 30
    assert report.counterexample_count() == 0
    for tallies in report.per_theorem.values():
        assert tallies["consistent"] == tallies["checked"]


def test_report_shape_and_determinism():
    spec = GeneratorSpec(Mode.RANDOM, RATIONAL, 2, sample_count=100, seed=42)
    first = sweep(spec, ["T2.5"])
    second = sweep(spec, ["T2.5"])

    doc = first.to_dict()
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["spec"]["ring"] == "q" and doc["spec"]["seed"] == 42
    assert doc["spec"]["entries"] == ["T2.5"]
    assert set(doc) == {"schema", "spec", "totals", "perTheorem",
                        "informational", "lemmas", "wallTime"}
    assert first.totals["generated"] == 100

    a = json.loads(first.to_json())
    b = json.loads(second.to_json())
    assert a.pop("wallTime") != "" and b.pop("wallTime") != ""
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_json_embeds_scalar_grammar():
    spec = GeneratorSpec(Mode.EXHAUSTIVE, F2, 2)
    doc = sweep(spec, ["T2.1"]).to_dict()
    assert doc["totals"]["generated"] == 16
    assert doc["perTheorem"]["T2.1"]["counterexamples"] == []


# sha256 of to_json() without its wallTime line, each recorded before the
# change it guards (the single-walk sweep, the per-field classes, the integer
# Q(i) rules and the once-per-stream scalar pools); the bytes must not move
PINNED_REPORTS = [
    (GeneratorSpec(Mode.EXHAUSTIVE, F2, 2),
     "d78d4dff88869ffc40e105e4f9037cdcb62daf475c106d20337e157d387c6e56"),
    (GeneratorSpec(Mode.EXHAUSTIVE, F3, 2),
     "8e83bd521900293b5da6c38bc6fb20623ee7264dfe7814ff7ff367c3b4eee4ca"),
    (GeneratorSpec(Mode.RANDOM, RATIONAL, 2, sample_count=50, seed=7),
     "988d3969c23410cee6f20fada23a37bb683dd88e98ef685e0142ce21fa11558c"),
    (GeneratorSpec(Mode.CONSTRUCTED_PI, GAUSSIAN, 3, sample_count=10, seed=303),
     "458bdb11226616542101837e8658856c7a6a6349d5800d85e29b5a526fabf3c9"),
    (GeneratorSpec(Mode.EXHAUSTIVE, F4, 2),
     "bba9a77a085bc5188bd48ffd5d7d5ac21a068191315cb8a38fc23a82d9839576"),
    (GeneratorSpec(Mode.CONSTRUCTED_SEP, quad_ext_field(3), 2, sample_count=10, seed=5),
     "94cd8a122598a9cb5c7ebb05e0a05797bb4af1eab6cd5cf551abcab78c4cf520"),
    (GeneratorSpec(Mode.RANDOM, GAUSSIAN, 2, sample_count=20, seed=103),
     "029e64336b0c841f09ed0c29379bec414f87d370821ec46dd166dd0f7d992992"),
    (GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=10, seed=104),
     "1c1c14966e45bee9a48802d3e694d2491238d64e89134a436c6575940062e714"),
    (GeneratorSpec(Mode.CONSTRUCTED_EP, quad_ext_field(5), 2, sample_count=10, seed=9),
     "72d7d463149448708d7b923c07eb28bf6f46d3bb871293e8c0f20bcaffa062b0"),
]


@pytest.mark.parametrize("spec,digest", PINNED_REPORTS,
                         ids=["exhaustive-f2", "exhaustive-f3", "random-q",
                              "constructed-pi-qi", "exhaustive-f4",
                              "constructed-sep-f9", "random-qi",
                              "random-qi-dim3", "constructed-ep-f25"])
def test_report_bytes_pinned(spec, digest, monkeypatch):
    calls = []

    def counted_generate(s):
        calls.append(s)
        return generate(s)

    monkeypatch.setattr(harness_mod, "generate", counted_generate)
    assert _report_digest(sweep(spec, "all")) == digest
    assert calls == [spec]  # the stream is walked once


def _report_digest(report) -> str:
    kept = "\n".join(ln for ln in report.to_json().splitlines()
                     if not ln.startswith('  "wallTime": '))
    return hashlib.sha256(kept.encode()).hexdigest()


def _memo_is_open(m: Matrix) -> bool:
    return m * m is m * m and m.star() is m.star()


# -- the per-element product memo ------------------------------------------------------

@pytest.mark.parametrize("spec", [
    GeneratorSpec(Mode.EXHAUSTIVE, F3, 2),
    GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=10, seed=104),
], ids=["exhaustive-f3", "random-qi-dim3"])
def test_memoized_verdicts_equal_memo_free_evaluation(spec, monkeypatch):
    swept = {}

    def recording_evaluate(entry, bundle):
        assert _memo_is_open(bundle.a)
        case = evaluate(entry, bundle)
        swept[(len(swept), entry.id)] = case
        return case

    monkeypatch.setattr(harness_mod, "evaluate", recording_evaluate)
    sweep(spec, "all")

    fresh = {}
    for m in generate(spec):
        b = InverseBundle.compute(m)
        assert not _memo_is_open(m)
        for entry in registry():
            if b.has_mp and (entry.kind is Kind.PI or b.has_group):
                fresh[(len(fresh), entry.id)] = evaluate(entry, b)
    assert fresh and swept == fresh


def test_memo_closed_after_failing_entry(monkeypatch):
    x1 = registry_map()["X1"]
    seen = []

    def boom(b):
        seen.append(_memo_is_open(b.a))
        raise RuntimeError("entry failed")

    monkeypatch.setattr(theorems_mod, "_ENTRIES",
                        (dataclasses.replace(x1, condition=boom),))
    with pytest.raises(RuntimeError, match="entry failed"):
        sweep(GeneratorSpec(Mode.EXHAUSTIVE, F2, 2), ["X1"])
    assert seen == [True]
    a = Matrix.from_ints(F3, [[1, 2], [0, 1]])
    assert a * a is not a * a
    assert a.star() is not a.star()


def test_threads_sweep_concurrently():
    # exhaustive F_2 and F_3, random Q and random Q(i): more threads than CPUs
    picked = PINNED_REPORTS[:3] + PINNED_REPORTS[6:7]
    digests = [None] * len(picked)

    def run(k):
        digests[k] = _report_digest(sweep(picked[k][0], "all"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(picked))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert digests == [digest for _, digest in picked]
    a = Matrix.from_ints(F3, [[1, 2], [0, 1]])
    assert not _memo_is_open(a)  # no thread's memo leaked into this one


def test_scalar_pools_built_once_per_stream(monkeypatch):
    builds = {"_unitary_scalars": 0, "_non_unitary_scalars": 0}

    def counted(name):
        build = getattr(harness_mod, name)

        def wrapper(field):
            builds[name] += 1
            return build(field)
        return wrapper

    for name in builds:
        monkeypatch.setattr(harness_mod, name, counted(name))
    spec = GeneratorSpec(Mode.CONSTRUCTED_EP, quad_ext_field(5), 2,
                         sample_count=20, seed=1)
    assert len(list(generate(spec))) == 20
    assert builds == {"_unitary_scalars": 1, "_non_unitary_scalars": 1}
