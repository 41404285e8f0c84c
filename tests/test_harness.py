"""Generation, sweep orchestration, reports, and determinism."""

import dataclasses
import json
import random
import sys
import threading
import time

import pytest

import starring.harness as harness_mod
import starring.matrix as matrix_mod
import starring.theorems as theorems_mod
from starring.classify import classify
from starring.geninv import (InverseBundle, group_inverse, mp_inverse, verify_group,
                             verify_penrose)
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
from starring.matrix import Matrix, product_memo
from starring.starfield import GAUSSIAN, RATIONAL, prime_field, quad_ext_field
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
    # the stream's matrices share one scalar object per field element
    assert len({id(e) for m in elems for row in m.rows for e in row}) == field.size()


def test_exhaustive_budget():
    with pytest.raises(BudgetExceededError):
        GeneratorSpec(Mode.EXHAUSTIVE, F5, 3).validate()  # 5^9 > 10^6
    assert 5 ** 9 > EXHAUSTIVE_BUDGET


@pytest.mark.parametrize("mode", [Mode.CONSTRUCTED_SEP, Mode.CONSTRUCTED_EP,
                                  Mode.CONSTRUCTED_PI])
def test_constructed_budget_refuses_large_fields(mode):
    # a constructed stream walks its field for the scalar pools; F_{1009^2}
    # has 1,018,081 elements, just past the budget
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
    # read entry by entry up to the first entry that differs
    spec = GeneratorSpec(Mode.RANDOM, RATIONAL, 2, sample_count=20, seed=7)
    check, multiply, dot = (harness_mod.check_left_right_duality, Matrix._product,
                            type(RATIONAL).dot)
    inside = []
    counts = {"products": 0, "dots": 0}
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

    def counted_dot(self, xs, ys):
        counts["dots"] += bool(inside)
        return dot(self, xs, ys)

    monkeypatch.setattr(harness_mod, "check_left_right_duality", duality)
    monkeypatch.setattr(Matrix, "_product", product)
    monkeypatch.setattr(type(RATIONAL), "dot", counted_dot)
    assert sweep(spec, ["X1"]).lemmas["L3.1"]["checked"] == 400
    assert counts["products"] == 0
    # the 400 checks read 1342 entries; building the three products in full
    # once per distinct pair (a e = e e on the diagonal), 723 products of 4
    # entries, costs 2892
    assert counts["dots"] == 1342
    monkeypatch.undo()
    assert len(verdicts) == 400
    for e, a, verdict in verdicts:
        d = a - e
        holds = (e * e == a * e) == (d * d == d * a)
        assert verdict is (Verdict.CONSISTENT if holds else Verdict.COUNTEREXAMPLE)


def test_entry_products_shared_through_the_memo(monkeypatch):
    # every product the registry entries take or compare, over all of M_2(F_3):
    # a statement read in another association order, or a loop that takes a
    # product per member that it could take once, changes this count
    spec = GeneratorSpec(Mode.EXHAUSTIVE, prime_field(3), 2)
    evaluate_entry, dot = harness_mod.evaluate, type(spec.field).dot
    inside = []
    dots = []

    def evaluate(entry, bundle):
        inside.append(True)
        try:
            return evaluate_entry(entry, bundle)
        finally:
            inside.pop()

    def counted_dot(self, xs, ys):
        if inside:
            dots.append(1)
        return dot(self, xs, ys)

    monkeypatch.setattr(harness_mod, "evaluate", evaluate)
    monkeypatch.setattr(type(spec.field), "dot", counted_dot)
    report = sweep(spec, "all")
    assert report.totals["bothInvertible"] == 73 and report.totals["sep"] == 17
    # 11,008 with one hand-written function per entry and no product kept
    # from a comparison; 10,772 with C2.10 read left to right like C2.7;
    # 10,872 while invertible elements took their inverses through the
    # factorization formulas: the entries' own dots were 228 fewer, since
    # they found in the memo products the formulas had taken (a* a among
    # them, F* A for an invertible a, whose F is a), and the derived builds
    # inside evaluate took 140 more, in the formulas for a^# and a^+
    assert len(dots) == 10960


def test_gauss_jordan_runs_per_sweep(monkeypatch):
    # one reduction of [A | I] per distinct matrix in an element's memo serves
    # its rank, factorization and inverse: an invertible element and its
    # inverse (reduced for the derived elements) take one pass each.  960 and
    # 1,305 when rref and try_invert each ran their own pass and invertible
    # elements took their inverses through the factorization formulas.
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
    assert len(runs) == 566


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
