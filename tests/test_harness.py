"""Generation, sweep orchestration, reports, and determinism."""

import contextlib
import dataclasses
import itertools
import json
import random
import sys
import threading
import time
import tracemalloc

import pytest

import starring.harness as harness_mod
import starring.matrix as matrix_mod
import starring.theorems as theorems_mod
from starring.classify import classify, is_projection, projection_verdicts
from starring.geninv import (InverseBundle, group_inverse, mp_inverse, verify_group,
                             verify_penrose)
from starring.harness import (
    BATTERY,
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
from starring.matrix import Matrix, product_memo
from starring.starfield import GAUSSIAN, RATIONAL, Scalar, prime_field, quad_ext_field
from starring.theorems import Kind, Verdict, evaluate, registry, registry_map

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


def _index_digit_element(field, dim, index):
    """Element number `index` read as dim^2 base-q digits, entry (0,0) the
    most significant: the reference decoding of the exhaustive order."""
    q = field.size()
    digits = []
    for _ in range(dim * dim):
        index, d = divmod(index, q)
        digits.append(d)
    digits.reverse()
    scalars = [field.element_at(d) for d in digits]
    return Matrix(field, [scalars[i * dim:(i + 1) * dim] for i in range(dim)])


@pytest.mark.parametrize("field,dim", [(F2, 1), (F2, 2), (F3, 1), (F3, 2),
                                       (F4, 1), (F4, 2), (F2, 3)])
def test_exhaustive_order_matches_index_digits(field, dim):
    elems = list(generate(GeneratorSpec(Mode.EXHAUSTIVE, field, dim)))
    total = field.size() ** (dim * dim)
    assert elems == [_index_digit_element(field, dim, k) for k in range(total)]
    # the stream's matrices share one raw value object per field element
    assert len({id(v) for m in elems for row in m.values for v in row}) == field.size()


def test_exhaustive_stream_memory_per_element():
    # a sweep holds its whole stream, so the budget's memory is this figure
    # times the element count: a matrix keeps only its raw values, shared
    # with the other elements, and no Scalar view
    tracemalloc.start()
    try:
        held = list(itertools.islice(generate(GeneratorSpec(Mode.EXHAUSTIVE,
                                                            prime_field(31), 2)), 20000))
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == 20000
    assert size / len(held) < 0.30 * 1024


def test_exhaustive_budget():
    with pytest.raises(BudgetExceededError):
        GeneratorSpec(Mode.EXHAUSTIVE, F5, 3).validate()  # 5^9 > 10^6
    assert 5 ** 9 > EXHAUSTIVE_BUDGET


@pytest.mark.parametrize("mode", [Mode.CONSTRUCTED_SEP, Mode.CONSTRUCTED_EP,
                                  Mode.CONSTRUCTED_PI])
def test_constructed_budget_refuses_large_fields(mode):
    # a constructed stream takes fields of at most the budget's size;
    # F_{1009^2} has 1,018,081 elements, just past it
    big = quad_ext_field(1009)
    assert big.size() > EXHAUSTIVE_BUDGET
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="1018081"):
        GeneratorSpec(mode, big, 2, sample_count=1, seed=1).validate()
    assert time.perf_counter() - t0 < 5
    # the largest prime under the budget is still accepted without a walk
    GeneratorSpec(mode, prime_field(999983), 2, sample_count=1, seed=1).validate()
    random_spec = GeneratorSpec(Mode.RANDOM, big, 2, sample_count=3, seed=1)
    assert len(list(generate(random_spec))) == 3


def test_constructed_stream_lists_no_scalar_pool():
    # one constructed-ep element over F_{997^2}, 994,009 elements: the norm-1
    # group is generated and the other units are read by index, where
    # listing them took about 100 MB
    spec = GeneratorSpec(Mode.CONSTRUCTED_EP, quad_ext_field(997), 2, sample_count=1, seed=1)
    tracemalloc.start()
    try:
        element, = generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert element.to_tokens() == [["0+0w", "0+0w"], ["0+0w", "599+242w"]]


def test_sample_count_budget():
    # a sweep holds its whole stream in memory
    with pytest.raises(BudgetExceededError, match="budget"):
        GeneratorSpec(Mode.RANDOM, RATIONAL, 6, 10**12, 1).validate()
    with pytest.raises(BudgetExceededError):
        GeneratorSpec(Mode.CONSTRUCTED_SEP, GAUSSIAN, 2, EXHAUSTIVE_BUDGET + 1, 1).validate()
    GeneratorSpec(Mode.RANDOM, RATIONAL, 6, EXHAUSTIVE_BUDGET, 1).validate()


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
    # the text of --entries: comma-separated, stripped, no ID meaning all
    assert [e.id for e in resolve_entries(" T2.5, X3 ,")] == ["T2.5", "X3"]
    assert resolve_entries("") == resolve_entries(" , ") == registry()
    with pytest.raises(UnknownEntryError, match="'X9'"):
        resolve_entries("X1, X9")


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
# Q(i) rules, the once-per-stream scalar pools and the sampling rules moved
# onto the field classes); the bytes must not move
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
    (GeneratorSpec(Mode.CONSTRUCTED_EP, RATIONAL, 2, sample_count=10, seed=21),
     "ad35b799cd79296ccfaa01b93bde4858269469a06ff1caec8083ec34832a21e7"),
    (GeneratorSpec(Mode.CONSTRUCTED_SEP, prime_field(7), 2, sample_count=10, seed=22),
     "27cb4e52e836603b9404d064c596398bcdeb2ef9a5c5953cec48121783c19edc"),
    (GeneratorSpec(Mode.CONSTRUCTED_EP, GAUSSIAN, 2, sample_count=10, seed=23),
     "a720d3d77779ff0c585c7cff4be278b3b2a634ecf62869da04758d7305fc5ccd"),
    (GeneratorSpec(Mode.RANDOM, quad_ext_field(3), 2, sample_count=20, seed=24),
     "f9533939ee16bed7f76dc6bd6e949b0eed0cc88acd39c26ced483b0a808f76b6"),
]


@pytest.mark.parametrize("spec,digest", PINNED_REPORTS,
                         ids=["exhaustive-f2", "exhaustive-f3", "random-q",
                              "constructed-pi-qi", "exhaustive-f4",
                              "constructed-sep-f9", "random-qi",
                              "random-qi-dim3", "constructed-ep-f25",
                              "constructed-ep-q", "constructed-sep-f7",
                              "constructed-ep-qi", "random-f9"])
def test_report_bytes_pinned(spec, digest, monkeypatch):
    calls = []

    def counted_generate(s):
        calls.append(s)
        return generate(s)

    monkeypatch.setattr(harness_mod, "generate", counted_generate)
    assert sweep(spec, "all").digest() == digest
    assert calls == [spec]  # the stream is walked once


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
        digests[k] = sweep(picked[k][0], "all").digest()

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


@pytest.mark.parametrize("spec", [
    GeneratorSpec(Mode.EXHAUSTIVE, F2, 2),
    GeneratorSpec(Mode.RANDOM, RATIONAL, 2, sample_count=20, seed=7),
], ids=["exhaustive-f2", "random-q"])
def test_one_memo_per_element_holds_its_l31_pairs(spec, monkeypatch):
    opened = []
    open_memo = harness_mod.product_memo
    check = harness_mod.check_left_right_duality

    def counted_memo():
        opened.append(None)
        return open_memo()

    e_memos = []  # for each L3.1 check, the number of the memo it ran in

    def duality(e, a):
        assert _memo_is_open(e)
        e_memos.append(len(opened) - 1)
        return check(e, a)

    monkeypatch.setattr(harness_mod, "product_memo", counted_memo)
    monkeypatch.setattr(harness_mod, "check_left_right_duality", duality)
    report = sweep(spec, "all")
    assert len(opened) == report.totals["generated"]
    # each pair runs in the memo of its e's element, in stream order
    pairs = harness_mod._l31_pairs(spec, report.totals["generated"])
    assert e_memos == sorted(i for i, _ in pairs)


def test_memo_recalls_differences_and_negations():
    a = Matrix.from_ints(F3, [[1, 2], [0, 1]])
    b = Matrix.from_ints(F3, [[2, 2], [1, 0]])
    with product_memo():
        assert a - b is a - b
        assert -a is -a
        assert a - b == Matrix.from_ints(F3, [[2, 0], [2, 1]])
        assert -a == Matrix.from_ints(F3, [[2, 1], [0, 2]])
        assert b - a == Matrix.from_ints(F3, [[1, 0], [1, 2]])
    for first, second in ((a - b, a - b), (-a, -a)):
        assert first == second and first is not second


def test_memo_recalls_equal_operands_by_value(monkeypatch):
    multiply = Matrix._product
    products = []

    def product(self, other):
        products.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(Matrix, "_product", product)
    x1 = Matrix.from_ints(F3, [[1, 2], [0, 1]])
    x2 = Matrix.from_ints(F3, [[1, 2], [0, 1]])
    y = Matrix.from_ints(F3, [[2, 2], [1, 0]])
    assert x1 == x2 and x1 is not x2
    with product_memo():
        assert x1 * y is x2 * y
        assert x1.star() is x2.star() and -x1 is -x2 and x1 - y is x2 - y
    assert products == [(x1, y)]


def test_memo_recalls_row_reductions(monkeypatch):
    reduce = Matrix._reduction
    reductions = []

    def counted(self):
        reductions.append(self)
        return reduce(self)

    monkeypatch.setattr(Matrix, "_reduction", counted)
    a = Matrix.from_ints(F3, [[1, 2], [2, 1]])
    twin = Matrix.from_ints(F3, [[1, 2], [2, 1]])
    plain, again = a.rref(), a.rref()
    # outside a memo nothing is cached: each call reduces afresh
    assert again == plain and again is not plain and len(reductions) == 2
    # a has rank 1, so each inverse reduces a for its factorization and
    # inverts its 1x1 core (F* A G* = [1], G F = [2]) by one more reduction
    mp_inverse(a), group_inverse(a)
    assert reductions[2:] == [a, Matrix.from_ints(F3, [[1]]),
                              a, Matrix.from_ints(F3, [[2]])]
    with product_memo():
        # both inverses factor a through one reduction, which an equal
        # matrix shares; each 1x1 core is reduced once
        assert mp_inverse(a) == a and group_inverse(a) == a
        assert twin.rref() is a.rref() and a.rref() == plain
        assert len(reductions) == 9
        assert a.rank() == 1 and Matrix.identity(F3, 2).rank() == 2
        assert len(reductions) == 10
        # rref, try_invert and both inverses of an invertible matrix read
        # that one reduction of [A | I]
        i2 = Matrix.identity(F3, 2)
        assert i2.try_invert() is mp_inverse(i2) is group_inverse(i2) == i2
        assert a.try_invert() is None and len(reductions) == 10
    assert a.rref() is not a.rref() and len(reductions) == 12


def test_memo_keeps_fields_and_operations_apart():
    # Fraction(k) and the int k hash alike, so these two matrices do too
    q = Matrix.from_ints(RATIONAL, [[1, 2], [0, 1]])
    f3 = Matrix.from_ints(F3, [[1, 2], [0, 1]])
    assert hash(q) == hash(f3) and q != f3

    def results():
        return [op(m) for m in (q, f3) for op in (
            lambda m: m * m, Matrix.star, Matrix.__neg__, lambda m: m - m)]

    plain = results()
    with product_memo():
        memoized = results()
    assert memoized == plain
    assert [m.field for m in memoized] == [RATIONAL] * 4 + [F3] * 4
    assert memoized[0] == Matrix.from_ints(RATIONAL, [[1, 4], [0, 1]])
    assert memoized[4] == Matrix.from_ints(F3, [[1, 1], [0, 1]])


def test_l31_products_taken_once_per_e_and_pair(monkeypatch):
    # the four products of an L3.1 pair are only compared, so none is built:
    # e e is read from e's memo, where X1 took it, and the other three are
    # read entry by entry on raw values up to the first entry that differs;
    # the difference a - e is built as rows, not as a memoized Matrix
    spec = GeneratorSpec(Mode.RANDOM, RATIONAL, 2, sample_count=20, seed=7)
    check, multiply, difference, dot = (harness_mod.check_left_right_duality,
                                        Matrix._product, Matrix._difference,
                                        type(RATIONAL).dot)
    inside = []
    counts = {"products": 0, "differences": 0, "dots": 0}
    verdicts = []

    def duality(e, a):
        inside.append(True)
        try:
            verdict = check(e, a)
        finally:
            inside.pop()
        verdicts.append((e, a, verdict))
        return verdict

    def product(self, other):
        counts["products"] += bool(inside)
        return multiply(self, other)

    def counted_difference(self, other):
        counts["differences"] += bool(inside)
        return difference(self, other)

    def counted_dot(self, xs, ys):
        counts["dots"] += bool(inside)
        return dot(self, xs, ys)

    monkeypatch.setattr(harness_mod, "check_left_right_duality", duality)
    monkeypatch.setattr(Matrix, "_product", product)
    monkeypatch.setattr(Matrix, "_difference", counted_difference)
    monkeypatch.setattr(type(RATIONAL), "dot", counted_dot)
    assert sweep(spec, ["X1"]).lemmas["L3.1"]["checked"] == 400
    assert counts["products"] == counts["differences"] == 0
    # the 400 checks read 1422 entries; building the three products in full
    # once per distinct pair (a e = e e on the diagonal), 723 products of 4
    # entries, costs 2892.  1342 while a memo held a e and a - e: no memo
    # entry is read or kept per pair now, so a e on the 15 distinct diagonal
    # pairs is read (60 entries) and the 154 repeated pairs are decided
    # again (507 entries, 487 before)
    assert counts["dots"] == 1422
    monkeypatch.undo()
    assert len(verdicts) == 400
    for e, a, verdict in verdicts:
        d = a - e
        holds = (e * e == a * e) == (d * d == d * a)
        assert verdict is (Verdict.CONSISTENT if holds else Verdict.COUNTEREXAMPLE)


# -- the projection table ------------------------------------------------------------

# the module, not the function the package rebinds its name to
classify_mod = sys.modules["starring.classify"]


def _count_full_tests(monkeypatch) -> list:
    """A list that grows by one at each projection test run in full."""
    tested, test = [], classify_mod._tested_projection

    def counted(e):
        tested.append(e)
        return test(e)

    monkeypatch.setattr(classify_mod, "_tested_projection", counted)
    return tested


@pytest.mark.parametrize("spec", [GeneratorSpec(Mode.EXHAUSTIVE, F4, 2),
                                  GeneratorSpec(Mode.EXHAUSTIVE, F2, 3)],
                         ids=["m2-f4", "m3-f2"])
def test_one_full_projection_test_per_ring_element(spec, monkeypatch):
    ring = list(generate(spec))
    outside = [is_projection(m) for m in ring]
    tested = _count_full_tests(monkeypatch)
    inside = []
    evaluate_entry = harness_mod.evaluate

    def evaluate(entry, bundle):
        if not inside:  # fresh matrices, equal to the stream's by value
            inside.extend(is_projection(m) for m in generate(spec))
        return evaluate_entry(entry, bundle)

    monkeypatch.setattr(harness_mod, "evaluate", evaluate)
    report = sweep(spec, "all")
    assert inside == outside
    # the table's own tests, one per element: every later test, the entries'
    # "in PE" claims, L2.8's and the ones above, is a lookup
    assert len(tested) == len(ring) == report.totals["generated"] == len(set(ring))


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_projection_table_dropped_when_the_sweep_ends(fail, monkeypatch):
    spec = GeneratorSpec(Mode.EXHAUSTIVE, F2, 2)
    e = Matrix.from_ints(F2, [[1, 0], [0, 0]])  # a projection in the stream
    tested = _count_full_tests(monkeypatch)
    seen = []

    def evaluate(entry, bundle):
        before = len(tested)
        seen.append(is_projection(e) and len(tested) == before)  # a lookup
        if fail:
            raise RuntimeError("entry failed")
        return theorems_mod.evaluate(entry, bundle)

    monkeypatch.setattr(harness_mod, "evaluate", evaluate)
    if fail:
        with pytest.raises(RuntimeError, match="entry failed"):
            sweep(spec, "all")
    else:
        sweep(spec, "all")
    assert seen and all(seen)
    assert classify_mod._VERDICTS.get() is None
    before = len(tested)
    assert is_projection(e) and len(tested) == before + 1


def test_projection_table_keys_on_the_field():
    # equal integers over F_3 and F_5: equal raw values, so equal hashes, but
    # 8 = 2 in F_3 and 8 = 3 in F_5, so only the first is idempotent
    p3 = Matrix.from_ints(F3, [[2, 2], [2, 2]])
    p5 = Matrix.from_ints(F5, [[2, 2], [2, 2]])
    assert p3.values == p5.values and hash(p3) == hash(p5) and p3 != p5
    with projection_verdicts([p3, p5, p3]) as verdicts:
        assert verdicts == {p3: True, p5: False}
        assert list(verdicts) == [p3, p5]
    for stream, other, verdict in (([p3], p5, False), ([p5], p3, True)):
        with projection_verdicts(stream) as verdicts:
            assert is_projection(other) is verdict
            assert len(verdicts) == 1  # a test outside the stream stores nothing


def test_a_sweep_in_another_thread_shares_no_table(monkeypatch):
    spec = GeneratorSpec(Mode.EXHAUSTIVE, F2, 2)
    e = Matrix.from_ints(F2, [[1, 0], [0, 0]])  # a projection in its stream
    tested = _count_full_tests(monkeypatch)
    in_sweep, checked = threading.Event(), threading.Event()
    evaluate_entry = harness_mod.evaluate

    def evaluate(entry, bundle):
        if not in_sweep.is_set():  # hold the sweep, its table open, once
            in_sweep.set()
            checked.wait(timeout=60)
        return evaluate_entry(entry, bundle)

    monkeypatch.setattr(harness_mod, "evaluate", evaluate)
    digests = []
    thread = threading.Thread(target=lambda: digests.append(sweep(spec, "all").digest()))
    thread.start()
    try:
        assert in_sweep.wait(timeout=60)
        assert classify_mod._VERDICTS.get() is None
        assert matrix_mod._TABLE.get() is None  # the sweep's entry table is its own
        before = len(tested)
        assert is_projection(e) and len(tested) == before + 1
    finally:
        checked.set()
        thread.join(timeout=120)
    assert not thread.is_alive()
    assert digests == [dict(PINNED_REPORTS)[spec]]


def _count_entries(monkeypatch, fields, active=lambda: True) -> dict:
    """Counts of product entries taken while active(): "read", each read of
    a slot of an entry table's dots and each run of a field's dot outside
    such a table, and "computed", each run of the dot of one of `fields`."""
    counts = {"read": 0, "computed": 0}
    lookup = list.__getitem__

    def counted_lookup(self, key):
        counts["read"] += active()
        return lookup(self, key)

    def counted(dot):
        def wrapper(self, xs, ys):
            if active():
                counts["computed"] += 1
                # inside a table, the slot read that found no dot counted it
                counts["read"] += matrix_mod.entry_table(self) is None
            return dot(self, xs, ys)
        return wrapper

    monkeypatch.setattr(matrix_mod._DotRow, "__getitem__", counted_lookup)
    for field in fields:
        monkeypatch.setattr(type(field), "dot", counted(type(field).dot))
    return counts


def test_entry_products_shared_through_the_memo(monkeypatch):
    # every product the registry entries take or compare, over all of M_2(F_3):
    # a statement read in another association order, or a loop that takes a
    # product per member that it could take once, changes this count
    spec = GeneratorSpec(Mode.EXHAUSTIVE, prime_field(3), 2)
    evaluate_entry = harness_mod.evaluate
    inside = []

    def evaluate(entry, bundle):
        inside.append(True)
        try:
            return evaluate_entry(entry, bundle)
        finally:
            inside.pop()

    monkeypatch.setattr(harness_mod, "evaluate", evaluate)
    counts = _count_entries(monkeypatch, [spec.field], lambda: bool(inside))
    report = sweep(spec, "all")
    assert report.totals["bothInvertible"] == 73 and report.totals["sep"] == 17
    # 11,008 with one hand-written function per entry and no product kept
    # from a comparison; 10,772 with C2.10 read left to right like C2.7;
    # 10,872 while invertible elements took their inverses through the
    # factorization formulas: the entries' own dots were 228 fewer, since
    # they found in the memo products the formulas had taken (a* a among
    # them, F* A for an invertible a, whose F is a), and the derived builds
    # inside evaluate took 140 more, in the formulas for a^# and a^+; 10,960
    # while every projection test inside evaluate ran in full: the sweep's
    # projection table now answers each "in PE" claim on a ring element,
    # so the 3,696 dots of those repeated tests are gone; 7,264 while a
    # product that is only compared was read from the table one entry at a
    # time up to the first that differs: it is now read whole, each row one
    # pick from the table's row of dots
    assert counts["read"] == 10848
    # the sweep's entry table computes each distinct (row, col) dot once, and
    # the projection table, bundles and derived elements have computed all
    # of them before an entry reads one; 7,264, one per entry read, before
    # the table
    assert counts["computed"] == 0


def test_gauss_jordan_runs_per_sweep(monkeypatch):
    # one reduction of [A | I] per distinct matrix in an element's memo serves
    # its rank, factorization and inverse: an invertible element and its
    # inverse (reduced for the derived elements) take one pass each.  960 and
    # 1,305 when rref and try_invert each ran their own pass and invertible
    # elements took their inverses through the factorization formulas.  A
    # sweep with an entry table reduces each distinct matrix once for the
    # whole sweep instead.
    eliminate = matrix_mod._gauss_jordan
    runs = []

    def counted(rows, ncols):
        runs.append(ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(matrix_mod, "_gauss_jordan", counted)
    rng = random.Random(1)  # the eight streams of bench sweep-qi-random, seed 1
    specs = [GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=20,
                           seed=rng.randrange(2**32)) for _ in range(8)]
    totals = [sweep(spec, "all").totals for spec in specs]
    assert sum(t["bothInvertible"] for t in totals) == 160
    assert len(runs) == 320
    runs.clear()
    report = sweep(GeneratorSpec(Mode.EXHAUSTIVE, F4, 2), "all")
    assert report.totals["bothInvertible"] == 187
    # the entry table keeps each reduction for the sweep: the 255 nonzero
    # 2 x 2 elements and the 4 values of a 1 x 1 core, F* A G* or G F, each
    # reduced once.  566 while each element's memo kept its own reductions
    # (423 of 2 x 2 matrices, since a^+ and a^# are reduced again for the
    # derived elements, and 143 of 1 x 1 cores)
    assert len(runs) == 259
    assert runs.count(2) == 255 and runs.count(1) == 4


def test_dot_runs_per_sweep(monkeypatch):
    # every product entry a sweep builds or compares is read once, from the
    # sweep's entry table or from a call of its field's dot, so the entries
    # read pin the arithmetic a sweep asks for: a faster matrix layer must
    # reach the same verdicts with exactly as many entries
    counts = _count_entries(monkeypatch, [F4, GAUSSIAN])
    sweep(GeneratorSpec(Mode.EXHAUSTIVE, F4, 2), "all")
    # 95,016 while each of the sweep's 5,554 projection tests ran in full;
    # the projection table leaves one full test per element of the ring
    # (84,475).  L3.1 takes e e once per e, where the memo did not hold it
    # yet, rather than reading it entry by entry for each of e's partners
    # (82,298).  L2.8 takes its sandwiches around a a^+ and a^+ a, which the
    # element's memo keeps: each (a, x) builds P x, Q x and (Q x) P and
    # compares (P x) Q without building it, where it built five products
    # (77,710).  Each read was one entry, up to the first that differs, of
    # a product that is only compared; the table is now read a row at a
    # time, each row one pick from the table's row of dots: a compared
    # product is read whole, and L3.1 reads its four products up to the
    # first row that differs, e e among them, which it took from e's memo.
    # 89,728 of these reads are L3.1's, for its 10,000 pairs
    assert counts["read"] == 138085
    # the entry table computes each of the 16 x 16 pairs of a row and a
    # column of F_4^2, and 16 of rows and columns of length 1, once; each
    # read was a dot of its own (82,298) before the table
    assert counts["computed"] == 272
    counts.update(read=0, computed=0)
    rng = random.Random(1)  # the eight streams of bench sweep-qi-random, seed 1
    for _ in range(8):
        sweep(GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=20,
                            seed=rng.randrange(2**32)), "all")
    # no table over Q(i), so every entry read is a dot computed.  No matrix
    # these sweeps test for being a projection, past their own streams,
    # equals a stream value; 70,405 while the memo kept each L3.1 pair's
    # a e and a - e (a pair drawn twice is now decided again), and 71,944
    # while a matrix tested in full was tested again each time an entry
    # asked: the element's memo now keeps its verdict
    assert counts["read"] == counts["computed"] == 66184


# -- the entry table -------------------------------------------------------------


def _tables_seen(monkeypatch) -> list:
    """A list that grows by the open entry table, or None, at each L3.1 check."""
    seen, check = [], harness_mod.check_left_right_duality

    def duality(e, a):
        seen.append(matrix_mod._TABLE.get())
        return check(e, a)

    monkeypatch.setattr(harness_mod, "check_left_right_duality", duality)
    return seen


@pytest.mark.parametrize("spec, opens", [
    (GeneratorSpec(Mode.EXHAUSTIVE, F3, 2), True),
    (GeneratorSpec(Mode.RANDOM, F5, 2, sample_count=625, seed=1), True),
    (GeneratorSpec(Mode.RANDOM, F5, 2, sample_count=624, seed=1), False),
    (GeneratorSpec(Mode.RANDOM, GAUSSIAN, 2, sample_count=20, seed=1), False),
    (GeneratorSpec(Mode.EXHAUSTIVE, F4, 1), False),
], ids=["m2-f3-exhaustive", "f5-625", "f5-624", "qi", "n1-f4"])
def test_entry_table_opens_for_streams_of_every_row_pair(spec, opens, monkeypatch):
    # q^(2n) pairs of rows of length n over F_q, at most as many as the
    # stream's elements; never over Q(i), nor at n = 1 (q^2 > q elements)
    seen = _tables_seen(monkeypatch)
    sweep(spec, ["X1"])
    assert seen and len(set(map(id, seen))) == 1
    table = seen[0]
    assert (table is not None) is opens
    if opens:
        assert table.field is spec.field


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_entry_table_dropped_when_the_sweep_ends(fail, monkeypatch):
    spec = GeneratorSpec(Mode.EXHAUSTIVE, F2, 2)
    seen = _tables_seen(monkeypatch)

    def evaluate(entry, bundle):
        if fail:
            raise RuntimeError("entry failed")
        return theorems_mod.evaluate(entry, bundle)

    monkeypatch.setattr(harness_mod, "evaluate", evaluate)
    if fail:
        with pytest.raises(RuntimeError, match="entry failed"):
            sweep(spec, "all")
    else:
        sweep(spec, "all")
        assert seen and seen[0].field is F2
    assert matrix_mod._TABLE.get() is None


@pytest.mark.parametrize("spec, dots", [(GeneratorSpec(Mode.EXHAUSTIVE, F3, 2), 90),
                                        (GeneratorSpec(Mode.EXHAUSTIVE, F4, 2), 272),
                                        (GeneratorSpec(Mode.EXHAUSTIVE, F2, 3), 84)],
                         ids=["m2-f3", "m2-f4", "m3-f2"])
def test_entry_table_size_bound(spec, dots, monkeypatch):
    # rows and columns of length r <= n: at most the sum of q^(2r) pairs per
    # kind, below 4/3 q^(2n); the dots fill it, the shorter rows of the
    # full-rank factors included
    seen = _tables_seen(monkeypatch)
    sweep(spec, "all")
    filled = {kind: sum(len(row) - row.count(None)
                        for plane in seen[0].planes.values() if plane is not None
                        for row in getattr(plane, kind))
              for kind in ("dots", "differences")}  # the slots read, over every plane
    q, n = spec.field.size(), spec.dim
    assert filled["dots"] == dots == sum(q ** (2 * r) for r in range(1, n + 1))
    assert filled["differences"] <= q ** (2 * n)
    assert 3 * max(filled["dots"], filled["differences"]) <= 4 * q ** (2 * n)


def _stream_seen(monkeypatch) -> list:
    """A list that the next sweep's stream fills, its own matrix objects."""
    seen, draw = [], harness_mod.generate

    def generate(spec):
        for m in draw(spec):
            seen.append(m)
            yield m

    monkeypatch.setattr(harness_mod, "generate", generate)
    return seen


def _results_seen(monkeypatch, operations) -> dict:
    """Per operation, a list that grows by each result it returns."""
    results = {name: [] for name in operations}
    for name in operations:
        def recorded(*args, _name=name, _operation=getattr(Matrix, name)):
            result = _operation(*args)
            results[_name].append(result)
            return result
        monkeypatch.setattr(Matrix, name, recorded)
    return results


@pytest.mark.parametrize("spec", [GeneratorSpec(Mode.EXHAUSTIVE, F3, 2),
                                  GeneratorSpec(Mode.EXHAUSTIVE, F4, 2),
                                  GeneratorSpec(Mode.EXHAUSTIVE, F2, 3)],
                         ids=["m2-f3", "m2-f4", "m3-f2"])
def test_square_results_are_the_stream_objects(spec, monkeypatch):
    # inside a tabled sweep, every n x n matrix an operation returns is the
    # stream's own object of that value, fresh or from a memo alike
    stream = _stream_seen(monkeypatch)
    results = _results_seen(monkeypatch, ["__mul__", "star", "__sub__", "__neg__",
                                          "try_invert", "_product", "_adjoint"])
    sweep(spec, "all")
    by_value = {m.values: m for m in stream}
    assert len(by_value) == len(stream) == spec.field.size() ** (spec.dim ** 2)
    n = spec.dim
    for name, returned in results.items():
        square = [m for m in returned if m is not None and m.nrows == m.ncols == n]
        assert square, name
        assert all(m is by_value[m.values] for m in square), name


@pytest.mark.parametrize("spec", [
    GeneratorSpec(Mode.RANDOM, GAUSSIAN, 2, sample_count=20, seed=1),
    GeneratorSpec(Mode.EXHAUSTIVE, F4, 1),
    GeneratorSpec(Mode.RANDOM, F5, 2, sample_count=624, seed=1),
], ids=["qi", "n1-f4", "f5-624"])
def test_nothing_interned_without_a_table(spec, monkeypatch):
    # every product computed is a new object, though values repeat across
    # the elements' memos, and none is a stream object
    stream = _stream_seen(monkeypatch)
    computed = _results_seen(monkeypatch, ["_product"])["_product"]
    sweep(spec, "all")
    assert len({(m.field, m.values) for m in computed}) < len(computed)
    assert len(set(map(id, computed))) == len(computed)
    assert set(map(id, stream)).isdisjoint(map(id, computed))


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_intern_map_dropped_when_the_sweep_ends(fail, monkeypatch):
    spec = GeneratorSpec(Mode.EXHAUSTIVE, F2, 2)
    x, y = Matrix.from_ints(F2, [[1, 1], [0, 1]]), Matrix.from_ints(F2, [[1, 0], [1, 1]])
    seen = []

    def evaluate(entry, bundle):
        # the product is taken afresh, past the memo, and is one object
        seen.append(Matrix._product(x, y) is Matrix._product(x, y))
        if fail:
            raise RuntimeError("entry failed")
        return theorems_mod.evaluate(entry, bundle)

    monkeypatch.setattr(harness_mod, "evaluate", evaluate)
    if fail:
        with pytest.raises(RuntimeError, match="entry failed"):
            sweep(spec, "all")
    else:
        sweep(spec, "all")
    assert seen and all(seen)
    assert matrix_mod._TABLE.get() is None
    assert Matrix._product(x, y) is not Matrix._product(x, y)


def test_a_sweep_in_another_thread_interns_for_itself(monkeypatch):
    spec = GeneratorSpec(Mode.EXHAUSTIVE, F3, 2)
    x, y = Matrix.from_ints(F3, [[1, 2], [0, 1]]), Matrix.from_ints(F3, [[2, 0], [1, 1]])
    in_sweep, checked = threading.Event(), threading.Event()
    evaluate_entry = harness_mod.evaluate
    tables = []

    def evaluate(entry, bundle):
        if not in_sweep.is_set():  # hold the sweep, its table open, once
            tables.append(matrix_mod._TABLE.get())
            assert Matrix._product(x, y) is Matrix._product(x, y)
            in_sweep.set()
            checked.wait(timeout=60)
        return evaluate_entry(entry, bundle)

    monkeypatch.setattr(harness_mod, "evaluate", evaluate)
    thread = threading.Thread(target=lambda: sweep(spec, "all"))
    thread.start()
    try:
        assert in_sweep.wait(timeout=60)
        interned = len(tables[0].matrices)
        assert matrix_mod._TABLE.get() is None
        assert Matrix._product(x, y) is not Matrix._product(x, y)
        assert len(tables[0].matrices) == interned  # this thread added nothing
    finally:
        checked.set()
        thread.join(timeout=120)
    assert not thread.is_alive()


@pytest.mark.parametrize("spec", [GeneratorSpec(Mode.EXHAUSTIVE, F2, 2),
                                  GeneratorSpec(Mode.EXHAUSTIVE, F3, 2),
                                  GeneratorSpec(Mode.EXHAUSTIVE, F4, 2),
                                  GeneratorSpec(Mode.EXHAUSTIVE, F2, 3)],
                         ids=["m2-f2", "m2-f3", "m2-f4", "m3-f2"])
def test_tabled_and_untabled_reports_are_the_same_bytes(spec, monkeypatch):
    seen = _tables_seen(monkeypatch)
    tabled = sweep(spec, "all")
    assert seen and seen[0] is not None
    monkeypatch.setattr(harness_mod, "dot_table", lambda field: contextlib.nullcontext())
    seen.clear()
    plain = sweep(spec, "all")
    assert set(seen) == {None}

    def without_wall_time(report):
        return [ln for ln in report.to_json().splitlines() if '"wallTime"' not in ln]

    assert without_wall_time(tabled) == without_wall_time(plain)
    assert tabled.digest() == plain.digest()


def _sweep_without_cache_layers(spec, monkeypatch):
    """The sweep of spec with the product memo, the projection table and the
    entry table all switched off: every product, adjoint, reduction and
    projection test is computed afresh by the field's rules."""
    with monkeypatch.context() as patched:
        patched.setattr(harness_mod, "product_memo", contextlib.nullcontext)
        patched.setattr(harness_mod, "dot_table", lambda field: contextlib.nullcontext())
        patched.setattr(harness_mod, "projection_verdicts",
                        lambda stream: contextlib.nullcontext({m: is_projection(m)
                                                               for m in stream}))
        memos, tables, verdict_tables = [], [], []

        def evaluate(entry, bundle):
            memos.append(matrix_mod._MEMO.get())
            tables.append(matrix_mod._TABLE.get())
            verdict_tables.append(classify_mod._VERDICTS.get())
            return theorems_mod.evaluate(entry, bundle)

        patched.setattr(harness_mod, "evaluate", evaluate)
        report = sweep(spec, "all")
    assert memos and set(memos) == set(tables) == set(verdict_tables) == {None}
    return report


@pytest.mark.parametrize("spec", [
    BATTERY["exhaustive-f2-dim2"], BATTERY["exhaustive-f3-dim2"], BATTERY["exhaustive-f4-dim2"],
    GeneratorSpec(Mode.EXHAUSTIVE, F2, 3), GeneratorSpec(Mode.RANDOM, RATIONAL, 2, 20, 7),
], ids=["m2-f2", "m2-f3", "m2-f4", "m3-f2", "random-q"])
def test_cache_layers_change_no_report_bytes(spec, monkeypatch):
    cached = sweep(spec, "all")
    plain = _sweep_without_cache_layers(spec, monkeypatch)

    def without_wall_time(report):
        return [ln for ln in report.to_json().splitlines() if '"wallTime"' not in ln]

    assert without_wall_time(cached) == without_wall_time(plain)
    assert cached.digest() == plain.digest()


def _fresh_reduction(field, values):
    """The reduction of a matrix by a Gauss-Jordan run of its own, as raw
    values: (rows of its rref, pivots, rows of its inverse or None)."""
    (reduced, rank, pivots), inverse = Matrix._unchecked(field, values)._reduction()
    assert rank == len(pivots)
    return reduced.values, pivots, None if inverse is None else inverse.values


@pytest.mark.parametrize("spec", [GeneratorSpec(Mode.EXHAUSTIVE, F3, 2),
                                  GeneratorSpec(Mode.EXHAUSTIVE, F4, 2)],
                         ids=["m2-f3", "m2-f4"])
def test_reductions_read_from_the_table_equal_fresh_ones(spec, monkeypatch):
    reduce = Matrix._reduction
    runs, reads = [], []

    def counted(self):
        runs.append(self.values)
        return reduce(self)

    rref, try_invert = Matrix.rref, Matrix.try_invert

    def read_rref(self):
        result = rref(self)
        reads.append(("rref", self.values, result))
        return result

    def read_inverse(self):
        result = try_invert(self)
        reads.append(("inverse", self.values, result))
        return result

    monkeypatch.setattr(Matrix, "_reduction", counted)
    monkeypatch.setattr(Matrix, "rref", read_rref)
    monkeypatch.setattr(Matrix, "try_invert", read_inverse)
    seen = _tables_seen(monkeypatch)
    report = sweep(spec, "all")
    monkeypatch.undo()
    assert report.digest() == dict(PINNED_REPORTS)[spec]
    table = seen[0]
    # one Gauss-Jordan run per distinct matrix, each kept in the table
    assert len(runs) == len(set(runs)) == len(table.reductions)
    for values, (reduced, pivots, inverse) in table.reductions.items():
        assert (reduced, pivots, inverse) == _fresh_reduction(spec.field, values)
    # every rref and inverse the sweep read is that of a fresh reduction
    assert reads
    for kind, values, result in reads:
        fresh_reduced, fresh_pivots, fresh_inverse = _fresh_reduction(spec.field, values)
        if kind == "rref":
            reduced, rank, pivots = result
            assert (reduced.values, rank, pivots) == (fresh_reduced, len(fresh_pivots),
                                                     fresh_pivots)
            assert reduced.field is spec.field
        else:
            assert (None if result is None else result.values) == fresh_inverse


@pytest.mark.parametrize("spec", [
    GeneratorSpec(Mode.RANDOM, RATIONAL, 2, sample_count=20, seed=1),
    GeneratorSpec(Mode.RANDOM, GAUSSIAN, 2, sample_count=20, seed=1),
    GeneratorSpec(Mode.EXHAUSTIVE, F4, 1),
], ids=["q", "qi", "n1-f4"])
def test_sweeps_without_a_table_keep_reductions_in_the_memo(spec, monkeypatch):
    # no entry table opens over Q, Q(i) or at n = 1, so no reduction is
    # kept past its element's memo
    missing = []
    fill = matrix_mod._Reductions.__missing__

    def counted(self, key):
        missing.append(key)
        return fill(self, key)

    monkeypatch.setattr(matrix_mod._Reductions, "__missing__", counted)
    seen = _tables_seen(monkeypatch)
    sweep(spec, "all")
    assert seen and set(seen) == {None} and missing == []


def test_reduction_table_per_thread_and_dropped(monkeypatch):
    # a sweep in another thread keeps its reductions to itself, and once it
    # ends, reductions are taken afresh outside a memo
    spec = GeneratorSpec(Mode.EXHAUSTIVE, F3, 2)
    a = Matrix.from_ints(F3, [[1, 2], [2, 1]])
    in_sweep, checked = threading.Event(), threading.Event()
    evaluate_entry = harness_mod.evaluate
    tables = []

    def evaluate(entry, bundle):
        table = matrix_mod._TABLE.get()
        if not in_sweep.is_set() and table.reductions:  # past the zero element
            tables.append(table)
            in_sweep.set()
            checked.wait(timeout=60)
        return evaluate_entry(entry, bundle)

    monkeypatch.setattr(harness_mod, "evaluate", evaluate)
    thread = threading.Thread(target=lambda: sweep(spec, "all"))
    thread.start()
    try:
        assert in_sweep.wait(timeout=60)
        filled = len(tables[0].reductions)
        assert filled and matrix_mod._TABLE.get() is None
        assert a.rref() is not a.rref() and a.rank() == 1
        assert len(tables[0].reductions) == filled  # this thread added nothing
    finally:
        checked.set()
        thread.join(timeout=120)
    assert not thread.is_alive()
    assert matrix_mod._TABLE.get() is None
    assert a.rref()[0] is not a.rref()[0]


def test_target_classes_tested_once_per_bundle(monkeypatch):
    # evaluate and the sweep's sep total read each bundle's SEP and PI
    # verdicts from the bundle; 5,610 runs of is_sep on M_2(F_4) while each
    # evaluation tested the class again
    calls = {"sep": [], "pi": []}
    classify_sep, classify_pi = theorems_mod.is_sep, theorems_mod.is_pi

    def is_sep(b):
        calls["sep"].append(b)
        return classify_sep(b)

    def is_pi(b):
        calls["pi"].append(b)
        return classify_pi(b)

    monkeypatch.setattr(theorems_mod, "is_sep", is_sep)
    monkeypatch.setattr(theorems_mod, "is_pi", is_pi)
    report = sweep(GeneratorSpec(Mode.EXHAUSTIVE, F4, 2), "all")
    totals = report.totals
    for kind, bundles in calls.items():
        assert len(bundles) == len(set(map(id, bundles)))  # at most once each
    assert len(calls["sep"]) == totals["bothInvertible"] == 187
    assert len(calls["pi"]) == totals["mpInvertible"]
    assert sum(classify_sep(b) for b in calls["sep"]) == totals["sep"] == 25


@pytest.mark.parametrize("rule, pair", [("sub", (0, 1)), ("dot", ((1, 2), (0, 1)))])
def test_faulty_rule_shows_through_the_table(rule, pair, monkeypatch):
    # a rule wrong on one pair of values reaches the L3.1 verdicts through
    # the table exactly as it does through the field's own loops
    spec = GeneratorSpec(Mode.EXHAUSTIVE, F3, 2)
    field_class = type(F3)
    right = getattr(field_class, rule)

    def wrong(self, x, y):
        value = right(self, x, y)
        return (value + 1) % self.p if self is F3 and (x, y) == pair else value

    if rule == "sub":  # elimination keeps the true rule, or the bundles fail
        monkeypatch.setattr(Scalar, "__sub__", lambda s, o: Scalar(
            s.field, right(s.field, s.value, o.value)))
    monkeypatch.setattr(field_class, rule, wrong)
    seen = _tables_seen(monkeypatch)
    tabled = sweep(spec, ["X1"])
    assert seen[0] is not None and seen[0].field is F3
    monkeypatch.setattr(harness_mod, "dot_table", lambda field: contextlib.nullcontext())
    seen.clear()
    plain = sweep(spec, ["X1"])
    assert set(seen) == {None}
    violations = tabled.lemmas["L3.1"]["violations"]
    assert violations and violations == plain.lemmas["L3.1"]["violations"]
    assert tabled.digest() == plain.digest()


def test_projection_verdicts_kept_in_the_element_memo(monkeypatch):
    # a matrix outside the projection table is tested in full once per
    # element: the element's memo keeps its verdict under ("PE", x).  3,360
    # full tests inside the element loops while every such test ran again
    test = classify_mod._tested_projection
    in_loop = []  # per full test: whether it ran inside an element's memo

    def counted(e):
        in_loop.append(matrix_mod._MEMO.get() is not None)
        return test(e)

    monkeypatch.setattr(classify_mod, "_tested_projection", counted)
    rng = random.Random(1)  # the eight streams of bench sweep-qi-random, seed 1
    for _ in range(8):
        sweep(GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=20,
                            seed=rng.randrange(2**32)), "all")
    # the projection tables' own tests, one per stream value, run before the loop
    assert len(in_loop) == 160 + 800
    assert sum(in_loop) == 800
    with product_memo():
        e = Matrix.from_ints(F3, [[1, 0], [0, 0]])
        assert is_projection(e) and is_projection(Matrix.from_ints(F3, [[1, 0], [0, 0]]))
        assert matrix_mod._MEMO.get()[("PE", e)] is True
    assert len(in_loop) == 961


def test_scalar_pools_built_once_per_stream(monkeypatch):
    field = quad_ext_field(5)
    builds = {"unitary_scalars": 0, "non_unitary_scalars": 0}

    def counted(name):
        build = getattr(type(field), name)

        def wrapper(self):
            builds[name] += 1
            return build(self)
        return wrapper

    for name in builds:
        monkeypatch.setattr(type(field), name, counted(name))
    spec = GeneratorSpec(Mode.CONSTRUCTED_EP, field, 2, sample_count=20, seed=1)
    assert len(list(generate(spec))) == 20
    assert builds == {"unitary_scalars": 1, "non_unitary_scalars": 1}
