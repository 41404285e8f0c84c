"""Registry contents, entry evaluation, and the two lemma checks."""

import pytest

from starring.classify import is_projection, is_sep
from starring.geninv import InverseBundle, derived_elements, mp_inverse, verify_penrose
from starring.harness import GeneratorSpec, Mode, generate
from starring.matrix import Matrix
from starring.starfield import GAUSSIAN, RATIONAL, prime_field, quad_ext_field
from starring.theorems import (
    _CORE_SIX,
    Kind,
    Verdict,
    check_left_right_duality,
    check_projection_sandwich,
    _member_mp,
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


# -- MP inverses of the derived members -----------------------------------------

@pytest.mark.parametrize("spec", [
    GeneratorSpec(Mode.EXHAUSTIVE, F3, 2),
    GeneratorSpec(Mode.EXHAUSTIVE, quad_ext_field(2), 2),
    GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=10, seed=104),
], ids=["exhaustive-f3", "exhaustive-f4", "random-qi-dim3"])
def test_member_mp_closed_forms_match_direct_inverse(spec):
    checked = 0
    for m in generate(spec):
        b = InverseBundle.compute(m)
        if not (b.has_mp and b.has_group):
            continue
        elems = derived_elements(b)
        for name in _CORE_SIX:
            x, x_mp = elems[name], _member_mp(b, name)
            assert x_mp == mp_inverse(x), (name, m)
            assert all(verify_penrose(x, x_mp)), (name, m)
        checked += 1
    assert checked > 0
