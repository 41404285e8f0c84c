"""Registry of executable strongly-EP characterizations.

Each entry pairs a stable ID with a decidable condition on a bundle whose
element has both a group and an MP inverse.  For a biconditional entry the
condition must hold exactly when the element is strongly EP (entry X3 targets
the partial-isometry class instead); an element where the two sides disagree
is a counterexample, which a correct build never produces.

Entry T3.4e is informational: its source statement is ambiguous, so it is
evaluated and reported but excluded from gating.  The two lemma checks are
universal identities exposed as standalone functions; L3.1 needs no
invertibility at all.

Notation used in statement strings: a* adjoint, a^+ MP inverse (a-dagger
elsewhere in the docs), a^# group inverse, PE the set of projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .classify import (
    are_left_equivalent_for,
    is_left_idempotent_for,
    is_pi,
    is_projection,
    is_right_idempotent_for,
    is_sep,
)
# mp_inverse is not called here any more; the name stays bound because the
# benchmark's tracer test (bench/test_bench.py) checks that the tracer
# rebinds a function this module imports by name, and it names this one.
from .geninv import InverseBundle, derived_elements, mp_inverse  # noqa: F401
from .matrix import Matrix, products_equal


class Kind(Enum):
    SEP = "biconditional-with-SEP"
    PI = "biconditional-with-PI"


class Verdict(Enum):
    CONSISTENT = "consistent"
    COUNTEREXAMPLE = "counterexample"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class TheoremEntry:
    id: str
    kind: Kind
    statement: str
    condition: Callable[[InverseBundle], bool] = field(repr=False)
    gated: bool = True

    @property
    def section(self) -> str:
        return "x" if self.id.startswith("X") else self.id[1]


@dataclass(frozen=True)
class TheoremCase:
    """One evaluation: for entry X3 sep_holds records the PI truth value."""

    theorem_id: str
    element: Matrix
    condition_holds: bool
    sep_holds: bool
    verdict: Verdict


# -- shared bundle products ----------------------------------------------------
# Inside a sweep every product below is computed once per element by the
# product memo, which keys on its operands by value; only what is built from
# more than a product, difference, negation or adjoint is cached on b.

def _skew(b):
    """a (a^#)* a^+, the recurring left side of the core identity X1."""
    return b.a * b.group.star() * b.mp


def _straight(b):
    """a^+ a^2, the recurring right side of the core identity X1."""
    return b.mp * (b.a * b.a)


def _gram(b):
    """a a* a^+ a^+ a^2, the projector candidate of T2.3 and T4.2."""
    return b.a * b.star * b.mp * b.mp * (b.a * b.a)


# The MP inverse of each of the six core derived members.  The Penrose
# equations are symmetric in the pair (x, x^+) and invariant under the
# involution, so (x^+)^+ = x and (x*)^+ = (x^+)*: each is b.mp, which passed
# the bundle's Penrose check, mp_of_group, which derived_elements checked
# against its closed form, or a member or adjoint of these.
_MEMBER_MP = {
    "a": lambda b: b.mp,
    "group": lambda b: derived_elements(b)["mp_of_group"],
    "mp": lambda b: b.a,
    "star": lambda b: b.mp.star(),
    "mp_star": lambda b: b.star,
    "group_star": lambda b: derived_elements(b)["mp_of_group"].star(),
}


# members x with x x^+ = a a^+ (resp. x x^+ = a^+ a) among the derived six
_RANGE_MATES_OF_A = ("a", "group", "mp_star")
_RANGE_MATES_OF_ADJOINT = ("mp", "star", "group_star")
_CORE_SIX = ("a", "group", "mp", "star", "mp_star", "group_star")


def _exists_projection_witness(b, members, build) -> bool:
    """Whether build(x, x^+) is a projection for some x among the named
    derived members; every one of them has an MP inverse, given by
    _MEMBER_MP.  Range mates share one x x^+ (or x^+ x) by value, and the
    sweep's product memo keys on operands by value, so the products built
    on it are taken once."""
    elems = derived_elements(b)
    return any(is_projection(build(elems[name], _MEMBER_MP[name](b)))
               for name in members)


# -- conditions ----------------------------------------------------------------

def _t2_1(b):
    return is_projection(_skew(b) * b.group)


def _t2_2(b):
    return is_projection(b.mp * b.a * b.mp.star() * b.mp)


def _t2_3(b):
    return is_projection(_gram(b))


def _c2_4(b):
    left = b.a * b.star * b.mp
    return _exists_projection_witness(
        b, _CORE_SIX, lambda x, x_mp: left * (x * x_mp) * b.a)


def _t2_5(b):
    return is_projection(b.mp * (b.a * b.a * b.a) * b.star * b.mp)


def _c2_6b(b):
    tail = b.a * b.a * b.star * b.mp
    return _exists_projection_witness(
        b, _RANGE_MATES_OF_ADJOINT, lambda x, x_mp: x * x_mp * tail)


def _c2_6c(b):
    tail = b.a * b.a * b.star * b.mp
    return _exists_projection_witness(
        b, _RANGE_MATES_OF_A, lambda x, x_mp: x_mp * x * tail)


def _c2_7(b):
    return is_projection(b.a * b.a * b.star * b.group)


def _c2_10(b):
    # same expression as C2.7, registered separately; kept as its own
    # function so the duplicate-identity acceptance check is not a tautology
    return is_projection(b.a * b.a * b.star * b.group)


def _c2_9(b):
    return is_projection(b.mp * (b.a * b.a * b.a) * b.star * b.group * b.a * b.mp)


def _t3_2(b):
    return is_left_idempotent_for(_skew(b), _straight(b))


def _t3_3b(b):
    return is_right_idempotent_for(_skew(b), _straight(b))


def _t3_3c(b):
    return is_left_idempotent_for(_straight(b), _skew(b))


def _t3_3d(b):
    return is_right_idempotent_for(_straight(b), _skew(b))


def _diff(b):
    return _skew(b) - _straight(b)


def _t3_4b(b):
    return is_right_idempotent_for(_diff(b), -_straight(b))


def _t3_4c(b):
    return is_left_idempotent_for(_diff(b), -_straight(b))


def _t3_4d(b):
    return is_right_idempotent_for(-_diff(b), -_skew(b))


def _t3_4e(b):
    return is_left_idempotent_for(-_diff(b), -_skew(b))


def _t3_5(b):
    return is_right_idempotent_for(_skew(b), b.a)


def _t3_6(b):
    return is_left_idempotent_for(_straight(b), b.mp.star())


def _t4_1(b):
    # the squares are T4.3's operands, so they are built; the cubes are
    # compared entry by entry as the squares times the base
    w, u = _skew(b), _straight(b)
    w2, u2 = w ** 2, u ** 2
    return w2 == u2 and products_equal((w2, w), (u2, u))


def _t4_2(b):
    return all(is_projection(_gram(b) ** k) for k in (2, 3))


def _t4_3(b):
    return all(is_left_idempotent_for(_skew(b) ** k, _straight(b) ** k)
               for k in (2, 3))


def _t5_1(b):
    return are_left_equivalent_for(_skew(b), _straight(b), b.a)


def _t5_2(b):
    w, u = _skew(b), _straight(b)
    return any(are_left_equivalent_for(w, u, x) for x in derived_elements(b).values())


def _t5_3(b):
    u = _straight(b)
    return are_left_equivalent_for(_skew(b), u, u)


def _t5_4(b):
    return are_left_equivalent_for(_skew(b), _straight(b), b.mp * b.a * b.group)


def _x1(b):
    return _skew(b) == _straight(b)


def _x2(b):
    return products_equal(b.mp, (b.star * b.mp, b.a))


def _x3(b):
    return is_projection(b.a * b.star)


_SIX = "{a, a^#, a^+, a*, (a^+)*, (a^#)*}"
_EIGHT = "{a, a^#, a^+, a*, (a^+)*, (a^#)*, (a^#)^+, (a^+)^#}"

_ENTRIES = (
    TheoremEntry("T2.1", Kind.SEP, "sep <=> a (a^#)* a^+ a^# in PE", _t2_1),
    TheoremEntry("T2.2", Kind.SEP, "sep <=> a^+ a (a^+)* a^+ in PE", _t2_2),
    TheoremEntry("T2.3", Kind.SEP, "sep <=> a a* a^+ a^+ a^2 in PE", _t2_3),
    TheoremEntry("C2.4", Kind.SEP,
                 f"sep <=> a a* a^+ x x^+ a in PE for some x in {_SIX}", _c2_4),
    TheoremEntry("T2.5", Kind.SEP, "sep <=> a^+ a^3 a* a^+ in PE", _t2_5),
    TheoremEntry("C2.6b", Kind.SEP,
                 "sep <=> x x^+ a^2 a* a^+ in PE for some x in {a^+, a*, (a^#)*}", _c2_6b),
    TheoremEntry("C2.6c", Kind.SEP,
                 "sep <=> x^+ x a^2 a* a^+ in PE for some x in {a, a^#, (a^+)*}", _c2_6c),
    TheoremEntry("C2.7", Kind.SEP, "sep <=> a^2 a* a^# in PE", _c2_7),
    TheoremEntry("C2.9", Kind.SEP, "sep <=> a^+ a^3 a* a^# a a^+ in PE", _c2_9),
    TheoremEntry("C2.10", Kind.SEP, "sep <=> a^2 a* a^# in PE", _c2_10),
    TheoremEntry("T3.2", Kind.SEP,
                 "sep <=> a (a^#)* a^+ is a left (a^+ a^2)-idempotent", _t3_2),
    TheoremEntry("T3.3b", Kind.SEP,
                 "sep <=> a (a^#)* a^+ is a right (a^+ a^2)-idempotent", _t3_3b),
    TheoremEntry("T3.3c", Kind.SEP,
                 "sep <=> a^+ a^2 is a left (a (a^#)* a^+)-idempotent", _t3_3c),
    TheoremEntry("T3.3d", Kind.SEP,
                 "sep <=> a^+ a^2 is a right (a (a^#)* a^+)-idempotent", _t3_3d),
    TheoremEntry("T3.4b", Kind.SEP,
                 "sep <=> a (a^#)* a^+ - a^+ a^2 is a right (-a^+ a^2)-idempotent", _t3_4b),
    TheoremEntry("T3.4c", Kind.SEP,
                 "sep <=> a (a^#)* a^+ - a^+ a^2 is a left (-a^+ a^2)-idempotent", _t3_4c),
    TheoremEntry("T3.4d", Kind.SEP,
                 "sep <=> a^+ a^2 - a (a^#)* a^+ is a right (-a (a^#)* a^+)-idempotent", _t3_4d),
    TheoremEntry("T3.4e", Kind.SEP,
                 "informational: sep <=> a^+ a^2 - a (a^#)* a^+ is a left "
                 "(-a (a^#)* a^+)-idempotent", _t3_4e, gated=False),
    TheoremEntry("T3.5", Kind.SEP,
                 "sep <=> a (a^#)* a^+ is a right a-idempotent", _t3_5),
    TheoremEntry("T3.6", Kind.SEP,
                 "sep <=> a^+ a^2 is a left ((a^+)*)-idempotent", _t3_6),
    TheoremEntry("T4.1", Kind.SEP,
                 "sep <=> (a (a^#)* a^+)^k = (a^+ a^2)^k for k = 2, 3", _t4_1),
    TheoremEntry("T4.2", Kind.SEP,
                 "sep <=> (a a* a^+ a^+ a^2)^k in PE for k = 2, 3", _t4_2),
    TheoremEntry("T4.3", Kind.SEP,
                 "sep <=> (a (a^#)* a^+)^k is a left ((a^+ a^2)^k)-idempotent "
                 "for k = 2, 3", _t4_3),
    TheoremEntry("T5.1", Kind.SEP,
                 "sep <=> a (a^#)* a^+ and a^+ a^2 are left a-equivalent", _t5_1),
    TheoremEntry("T5.2", Kind.SEP,
                 f"sep <=> a (a^#)* a^+ and a^+ a^2 are left x-equivalent "
                 f"for some x in {_EIGHT}", _t5_2),
    TheoremEntry("T5.3", Kind.SEP,
                 "sep <=> a (a^#)* a^+ and a^+ a^2 are left (a^+ a^2)-equivalent", _t5_3),
    TheoremEntry("T5.4", Kind.SEP,
                 "sep <=> a (a^#)* a^+ and a^+ a^2 are left (a^+ a a^#)-equivalent", _t5_4),
    TheoremEntry("X1", Kind.SEP, "sep <=> a (a^#)* a^+ = a^+ a^2", _x1),
    TheoremEntry("X2", Kind.SEP, "sep <=> a^+ = a* a^+ a", _x2),
    TheoremEntry("X3", Kind.PI, "partial isometry <=> a a* in PE", _x3),
)


def registry() -> list[TheoremEntry]:
    """All registry entries in their fixed ID order."""
    return list(_ENTRIES)


def registry_map() -> dict[str, TheoremEntry]:
    return {e.id: e for e in _ENTRIES}


def evaluate(entry: TheoremEntry, b: InverseBundle) -> TheoremCase:
    """Evaluate one entry on one bundle and compare against the target class."""
    if entry.kind is Kind.PI:
        if not b.has_mp:
            raise ValueError(f"{entry.id} needs an MP-invertible element")
        target = is_pi(b)
    else:
        if not (b.has_mp and b.has_group):
            raise ValueError(f"{entry.id} needs a group-and-MP-invertible element")
        target = is_sep(b)
    cond = bool(entry.condition(b))
    verdict = Verdict.CONSISTENT if cond == target else Verdict.COUNTEREXAMPLE
    return TheoremCase(entry.id, b.a, cond, target, verdict)


# -- universal lemma checks ------------------------------------------------------

LEMMA_STATEMENTS = {
    "L3.1": "e is a left a-idempotent <=> a - e is a right a-idempotent",
    "L2.8": "x in PE and x = a a^+ x a^+ a  ==>  a^+ a x a a^+ in PE",
}


def check_left_right_duality(e: Matrix, a: Matrix) -> Verdict:
    """L3.1: a universal ring identity relating the two one-sided notions."""
    holds = is_left_idempotent_for(e, a) == is_right_idempotent_for(a - e, a)
    return Verdict.CONSISTENT if holds else Verdict.COUNTEREXAMPLE


def check_projection_sandwich(a, x: Matrix) -> Verdict:
    """L2.8 on (a, x): a must be MP-invertible and x a projection.

    Accepts either a Matrix or a precomputed InverseBundle for a.  When the
    hypothesis x = a a^+ x a^+ a fails the implication is vacuous.
    """
    if isinstance(a, InverseBundle):
        bundle = a
    else:
        bundle = InverseBundle.compute(a)
    if not bundle.has_mp:
        raise ValueError("lemma L2.8 needs an MP-invertible element")
    if not is_projection(x):
        raise ValueError("lemma L2.8 needs a projection for x")
    a_m, d = bundle.a, bundle.mp
    if not products_equal(x, (a_m * d * x * d, a_m)):
        return Verdict.VACUOUS
    inner = d * a_m * x * a_m * d
    return Verdict.CONSISTENT if is_projection(inner) else Verdict.COUNTEREXAMPLE
