"""Registry contents, entry evaluation, and the two lemma checks."""

import re

import pytest

import starring.harness as harness_mod
import starring.matrix as matrix_mod
import starring.theorems as theorems_mod
from starring.classify import is_projection, is_sep
from starring.geninv import InverseBundle, derived_elements, mp_inverse, verify_penrose
from starring.harness import GeneratorSpec, Mode, _l31_pairs, generate, sweep
from starring.matrix import Matrix, ShapeError, product_memo
from starring.starfield import (GAUSSIAN, RATIONAL, FieldMismatchError, prime_field,
                                quad_ext_field)
from starring.theorems import (
    _MP_OF,
    _operand,
    _read,
    Kind,
    Verdict,
    check_left_right_duality,
    check_projection_sandwich,
    evaluate,
    registry,
    registry_map,
)

F3 = prime_field(3)

GATED_IDS = [
    "T2.1", "T2.2", "T2.3", "C2.4", "T2.5", "C2.6b", "C2.6c", "C2.7",
    "C2.9", "C2.10",
    "T3.2", "T3.3b", "T3.3c", "T3.3d", "T3.4b", "T3.4c", "T3.4d",
    "T3.5", "T3.6",
    "T4.1", "T4.2", "T4.3",
    "T5.1", "T5.2", "T5.3", "T5.4",
    "X1", "X2", "X3",
]


def frac_matrix(grid):
    return Matrix(RATIONAL, [[RATIONAL.rational(*e) if isinstance(e, tuple)
                              else RATIONAL.from_int(e) for e in row]
                             for row in grid])


def test_registry_ids_frozen():
    entries = registry()
    assert [e.id for e in entries if e.gated] == GATED_IDS
    assert [e.id for e in entries if not e.gated] == ["T3.4e"]
    assert len(entries) == 30


def test_registry_kinds():
    table = registry_map()
    assert table["X3"].kind is Kind.PI
    assert all(e.kind is Kind.SEP for e in registry() if e.id != "X3")
    assert all(e.statement for e in registry())


def test_registry_lookup():
    table = registry_map()
    assert table["T2.5"].id == "T2.5"
    assert "a^+ a^3 a* a^+" in table["T2.5"].statement
    assert "T9.9" not in table


def test_sections():
    table = registry_map()
    assert table["T2.1"].section == "2"
    assert table["C2.10"].section == "2"
    assert table["T3.4e"].section == "3"
    assert table["X1"].section == "x"


# -- evaluation -------------------------------------------------------------------

def test_evaluate_identity_consistent_everywhere():
    b = InverseBundle.compute(Matrix.identity(RATIONAL, 2))
    for entry in registry():
        case = evaluate(entry, b)
        assert case.condition_holds and case.sep_holds
        assert case.verdict is Verdict.CONSISTENT


def test_evaluate_t2_1_on_ep_only_element():
    a = frac_matrix([[2, 0], [0, 0]])
    b = InverseBundle.compute(a)
    # direct route: a (a^#)* a^+ a^# = diag(2 * 1/2 * 1/2 * 1/2, 0)
    product = a * b.group.star() * b.mp * b.group
    assert product == frac_matrix([[(1, 4), 0], [0, 0]])
    assert not is_projection(product)

    case = evaluate(registry_map()["T2.1"], b)
    assert not case.condition_holds and not case.sep_holds
    assert case.verdict is Verdict.CONSISTENT


def test_evaluate_t5_1_on_unitary_involution():
    a = Matrix.from_ints(RATIONAL, [[0, 1], [1, 0]])
    b = InverseBundle.compute(a)
    assert b.mp == a and b.group == a and b.star == a
    case = evaluate(registry_map()["T5.1"], b)
    assert case.condition_holds and case.sep_holds
    assert case.verdict is Verdict.CONSISTENT


def test_evaluate_preconditions():
    shift = InverseBundle.compute(Matrix.from_ints(RATIONAL, [[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        evaluate(registry_map()["T2.1"], shift)
    # X3 needs only the MP inverse
    case = evaluate(registry_map()["X3"], shift)
    assert case.condition_holds and case.sep_holds  # PI truth value here
    assert case.verdict is Verdict.CONSISTENT


def test_duplicate_entries_agree_everywhere():
    c27 = registry_map()["C2.7"]
    c210 = registry_map()["C2.10"]
    for m in generate(GeneratorSpec(Mode.EXHAUSTIVE, F3, 2)):
        b = InverseBundle.compute(m)
        if b.has_mp and b.has_group:
            a, c = evaluate(c27, b), evaluate(c210, b)
            assert a.condition_holds == c.condition_holds
            assert a.verdict == c.verdict


def test_t4_1_holds_whenever_x1_holds():
    x1 = registry_map()["X1"]
    t41 = registry_map()["T4.1"]
    for m in generate(GeneratorSpec(Mode.EXHAUSTIVE, F3, 2)):
        b = InverseBundle.compute(m)
        if b.has_mp and b.has_group and evaluate(x1, b).condition_holds:
            assert evaluate(t41, b).condition_holds


def test_forward_direction_constructed_sep():
    spec = GeneratorSpec(Mode.CONSTRUCTED_SEP, GAUSSIAN, 2,
                         sample_count=25, seed=11)
    for m in generate(spec):
        b = InverseBundle.compute(m)
        assert is_sep(b)
        for entry in registry():
            case = evaluate(entry, b)
            assert case.condition_holds, entry.id
            assert case.verdict is Verdict.CONSISTENT


def test_backward_direction_constructed_ep_only():
    spec = GeneratorSpec(Mode.CONSTRUCTED_EP, GAUSSIAN, 2,
                         sample_count=25, seed=12)
    for m in generate(spec):
        b = InverseBundle.compute(m)
        assert not is_sep(b)
        for entry in registry():
            if entry.kind is Kind.SEP and entry.gated:
                case = evaluate(entry, b)
                assert not case.condition_holds, entry.id
                assert case.verdict is Verdict.CONSISTENT


def test_x3_on_partial_isometries_outside_group():
    spec = GeneratorSpec(Mode.CONSTRUCTED_PI, RATIONAL, 3,
                         sample_count=25, seed=13)
    x3 = registry_map()["X3"]
    for m in generate(spec):
        b = InverseBundle.compute(m)
        assert b.has_mp and not b.has_group
        case = evaluate(x3, b)
        assert case.condition_holds and case.sep_holds
        assert case.verdict is Verdict.CONSISTENT


# -- lemma checks --------------------------------------------------------------------

def test_sandwich_consistent_case():
    i2 = Matrix.identity(RATIONAL, 2)
    x = Matrix.from_ints(RATIONAL, [[1, 0], [0, 0]])
    assert check_projection_sandwich(i2, x) is Verdict.CONSISTENT


def test_sandwich_vacuous_case():
    a = frac_matrix([[2, 0], [0, 0]])
    x = Matrix.identity(RATIONAL, 2)
    # a a^+ x a^+ a = diag(1, 0) != x, so the hypothesis fails
    assert check_projection_sandwich(a, x) is Verdict.VACUOUS


def test_sandwich_unitary_case():
    a = Matrix.from_ints(RATIONAL, [[0, 1], [1, 0]])
    x = frac_matrix([[(1, 2), (1, 2)], [(1, 2), (1, 2)]])
    assert check_projection_sandwich(a, x) is Verdict.CONSISTENT


def test_sandwich_preconditions():
    a = Matrix.from_ints(prime_field(2), [[1, 1], [0, 0]])  # no MP inverse
    x = Matrix.identity(prime_field(2), 2)
    with pytest.raises(ValueError):
        check_projection_sandwich(a, x)
    with pytest.raises(ValueError):
        check_projection_sandwich(Matrix.identity(RATIONAL, 2),
                                  frac_matrix([[1, 1], [0, 0]]))


def test_sandwich_accepts_bundle():
    b = InverseBundle.compute(Matrix.identity(RATIONAL, 2))
    x = Matrix.from_ints(RATIONAL, [[1, 0], [0, 0]])
    assert check_projection_sandwich(b, x) is Verdict.CONSISTENT


def _literal_sandwich(b, x):
    # L2.8 with each product taken left to right, as the statement reads
    a, d = b.a, b.mp
    if x != a * d * x * d * a:
        return Verdict.VACUOUS
    inner = d * a * x * a * d
    return Verdict.CONSISTENT if is_projection(inner) else Verdict.COUNTEREXAMPLE


@pytest.mark.parametrize("spec", [
    GeneratorSpec(Mode.EXHAUSTIVE, F3, 2),
    GeneratorSpec(Mode.EXHAUSTIVE, quad_ext_field(2), 2),
    harness_mod.BATTERY["constructed-sep-qi-dim3"],
], ids=["m2-f3", "m2-f4", "constructed-sep-qi-dim3"])
def test_sandwich_agrees_with_the_literal_order(spec):
    # every (a, x) of the stream, outside a memo and in one memo per a as a
    # sweep opens it: the sandwiches around a a^+ and a^+ a give the
    # verdicts of the chain of products the statement spells
    stream = list(generate(spec))
    projections = [x for x in dict.fromkeys(stream) if is_projection(x)]
    verdicts = []
    for a in stream:
        b = InverseBundle.compute(a)
        if not b.has_mp:
            continue
        want = [_literal_sandwich(b, x) for x in projections]
        assert [check_projection_sandwich(b, x) for x in projections] == want
        with product_memo():
            memo_b = InverseBundle.compute(a)
            assert [check_projection_sandwich(memo_b, x) for x in projections] == want
        verdicts += want
    assert Verdict.CONSISTENT in verdicts  # non-vacuous checks were made


def test_duality_trivial_cases():
    a = frac_matrix([[1, 2], [3, 4]])
    z = Matrix.zeros(RATIONAL, 2)
    assert check_left_right_duality(a, a) is Verdict.CONSISTENT
    assert check_left_right_duality(z, a) is Verdict.CONSISTENT


def test_duality_exhaustive_f3_pairs():
    elems = list(generate(GeneratorSpec(Mode.EXHAUSTIVE, F3, 2)))
    assert len(elems) == 81
    violations = sum(
        check_left_right_duality(e, a) is Verdict.COUNTEREXAMPLE
        for e in elems for a in elems)
    assert violations == 0


def built_duality(e, a):
    """L3.1's verdict from built products: e e = a e exactly when
    d d = d a, with d = a - e."""
    d = a - e
    holds = (e * e == a * e) == (d * d == d * a)
    return Verdict.CONSISTENT if holds else Verdict.COUNTEREXAMPLE


def l31_pairs(spec):
    """The (e, a) pairs a sweep of spec feeds to L3.1, grouped by e as the
    sweep checks them."""
    stream = list(generate(spec))
    partners = {}
    for i, j in _l31_pairs(spec, len(stream)):
        partners.setdefault(i, []).append(stream[j])
    return [(stream[i], partners[i]) for i in sorted(partners)]


@pytest.mark.parametrize("spec, count", [
    (GeneratorSpec(Mode.EXHAUSTIVE, F3, 2), 81 * 81),
    (GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=20, seed=104), 400),
], ids=["exhaustive-f3", "random-qi-dim3"])
def test_duality_agrees_with_built_products(spec, count):
    # the check on raw values reaches the verdict that built products give,
    # with no memo and with one memo per e, as a sweep opens; in the memo it
    # leaves e e alone: no difference and no other product is kept
    pairs = l31_pairs(spec)
    assert sum(len(partners) for _, partners in pairs) == count
    for e, partners in pairs:
        expected = [built_duality(e, a) for a in partners]
        assert [check_left_right_duality(e, a) for a in partners] == expected
        with product_memo():
            assert [check_left_right_duality(e, a) for a in partners] == expected
            assert list(matrix_mod._MEMO.get()) == [(e, e)]


def test_duality_rejects_mismatched_operands():
    # fields and shapes are checked as a - e checks them; a square e e is
    # needed too
    e = Matrix.identity(F3, 2)
    for a, error in ((Matrix.identity(prime_field(5), 2), FieldMismatchError),
                     (Matrix.identity(F3, 3), ShapeError)):
        with pytest.raises(error):
            a - e
        with pytest.raises(error):
            check_left_right_duality(e, a)
    wide = Matrix.from_ints(F3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ShapeError):
        check_left_right_duality(wide, wide)


def test_duality_finds_a_faulty_difference(monkeypatch):
    # F_3's sub made wrong on one pair of values, 2 - 1 = 0, breaks the
    # difference d = a - e: for e = diag(1, 0) and a = diag(2, 0), e e = a e
    # fails while the faulty d = 0 makes d d = d a hold
    sub = F3.sub

    def faulty_sub(x, y):
        return 0 if (x, y) == (2, 1) else sub(x, y)

    e, a = Matrix.from_ints(F3, [[1, 0], [0, 0]]), Matrix.from_ints(F3, [[2, 0], [0, 0]])
    assert check_left_right_duality(e, a) is Verdict.CONSISTENT
    monkeypatch.setattr(F3, "sub", faulty_sub)
    assert check_left_right_duality(e, a) is Verdict.COUNTEREXAMPLE
    monkeypatch.undo()

    # a sweep's elimination subtracts too, and its inverse checks raise on
    # the fault, so the fault is on only while L3.1 runs
    check = harness_mod.check_left_right_duality

    def faulty_duality(e, a):
        with monkeypatch.context() as fault:
            fault.setattr(F3, "sub", faulty_sub)
            return check(e, a)

    monkeypatch.setattr(harness_mod, "check_left_right_duality", faulty_duality)
    violations = sweep(GeneratorSpec(Mode.EXHAUSTIVE, F3, 2), ["X1"]).lemmas["L3.1"]["violations"]
    assert {"e": e.to_tokens(), "a": a.to_tokens()} in violations
    # each one has an entry where a holds 2 and e holds 1
    for v in violations:
        assert ("2", "1") in zip(sum(v["a"], []), sum(v["e"], []))


# -- MP inverses of the derived members -----------------------------------------

# the six members C2.4 ranges over, and the derived_elements name of each
CORE_SIX = dict(zip(
    re.search(r"\{(.+)\}", registry_map()["C2.4"].statement)[1].split(", "),
    ("a", "group", "mp", "star", "mp_star", "group_star")))


def reader_value(text, b):
    """The value on b of one operand, through the source the statement
    reader writes for it."""
    return eval(_operand(text, False), vars(theorems_mod), {"b": b})


@pytest.mark.parametrize("spec", [
    GeneratorSpec(Mode.EXHAUSTIVE, F3, 2),
    GeneratorSpec(Mode.EXHAUSTIVE, quad_ext_field(2), 2),
    GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=10, seed=104),
], ids=["exhaustive-f3", "exhaustive-f4", "random-qi-dim3"])
def test_member_mp_closed_forms_match_direct_inverse(spec):
    # the reader's x^+ table, from the Penrose symmetries, for each of the
    # six members, against the direct MP inverse
    assert set(_MP_OF) == set(CORE_SIX)
    checked = 0
    for m in generate(spec):
        b = InverseBundle.compute(m)
        if not (b.has_mp and b.has_group):
            continue
        elems = derived_elements(b)
        for text, name in CORE_SIX.items():
            x, x_mp = reader_value(text, b), reader_value(_MP_OF[text], b)
            assert x == elems[name], (text, m)
            assert x_mp == mp_inverse(x), (text, m)
            assert all(verify_penrose(x, x_mp)), (text, m)
        checked += 1
    assert checked > 0


# -- the statement reader ----------------------------------------------------------

@pytest.mark.parametrize("statement,message", [
    ("sep <=> a b in PE", "unknown atom"),
    ("sep <=> a^+ a^1 in PE", "unknown atom"),
    ("sep <=> (a a^+ in PE", "unbalanced parenthesis"),
    ("sep <=> a a^+) in PE", "unbalanced parenthesis"),
    ("sep <=> a^+ a^2 is a middle a-idempotent", "unknown claim form"),
    ("sep <=> a and a^+ are right a-equivalent", "unknown claim form"),
    ("sep <=> x* in PE for some x in {a}", "unknown atom"),
    ("ep <=> a a* in PE", "unknown target"),
    ("informational: sep a a* in PE", "' <=> '"),
    ("sep <=> x x^+ in PE", "outside its loop"),
    ("sep <=> (a a)^k in PE for some x in {a}", "outside its loop"),
    ("sep <=> (a a)^+ in PE", "no ^+ form"),
    ("sep <=> (a^+)^# ^# in PE", "unknown atom"),
    ("sep <=> x x^+ in PE for some x in {a a}", "no x^+ form"),
    ("sep <=> x in PE for some x in {a, a^+", "unbalanced brace"),
    ("sep <=> a - in PE", "minus sign"),
    ("sep <=> a - - a^+ in PE", "minus sign"),
])
def test_reader_rejects_malformed_statements(statement, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _read(statement)


def test_c2_10_takes_its_products_right_to_left(monkeypatch):
    # C2.10 has C2.7's statement, read in the other association order, so
    # it still takes a* a^# after C2.7 has left its products in the memo
    m = frac_matrix([[1, 1], [0, 0]])
    taken = []
    product = Matrix._product

    def recorded(self, other):
        taken.append((self, other))
        return product(self, other)

    monkeypatch.setattr(Matrix, "_product", recorded)
    with product_memo():
        b = InverseBundle.compute(m)
        assert b.has_mp and b.has_group
        first = evaluate(registry_map()["C2.7"], b)
        assert (b.star, b.group) not in taken
        taken.clear()
        second = evaluate(registry_map()["C2.10"], b)
    assert (b.star, b.group) in taken
    assert first.condition_holds == second.condition_holds
