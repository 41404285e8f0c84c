"""Registry of executable strongly-EP characterizations.

Each entry is a stable ID and its statement, which a private reader turns
into the entry's condition once, at import.  For a biconditional entry the
condition must hold exactly when the element is strongly EP (X3 targets the
partial-isometry class instead); an element where the two sides disagree is
a counterexample, which a correct build never produces.  Entry T3.4e is
informational: its source statement is ambiguous, so it is evaluated and
reported but not gated.  The two lemma checks are universal identities
exposed as standalone functions; L3.1 needs no invertibility at all.

Notation: a* adjoint, a^+ MP inverse (a-dagger elsewhere in the docs), a^#
group inverse, PE the set of projections.  The reader knows these forms:

    statement := ["informational: "] ("sep" | "partial isometry") " <=> " claim
                 [" for some x in {" expr {", " expr} "}" | " for k = " n {", " n}]
    claim     := expr " in PE" | expr " = " expr
               | expr " is a " ("left" | "right") " " factor "-idempotent"
               | expr " and " expr " are left " factor "-equivalent"
    expr      := ["-"] product {" - " product}
    product   := factor {" " factor}
    factor    := atom | "(" expr ")" ["*" | "^k"]
    atom      := "a" ["*" | "^+" | "^#" | "^2" | "^3"] | "x" ["^+"] | "(a^#)^+" | "(a^+)^#"

Products are taken left to right (C2.10 takes C2.7's right to left, so that
the two agreeing is not a tautology), and what does not depend on x or k is
computed once, before the loop.  x^+ of a member comes from the Penrose
symmetries (_MP_OF).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import chain, groupby
from typing import Callable, NamedTuple

# The conditions call the relation predicates, is_projection, products_equal
# and derived_elements by name through this module's globals, at call time.
from .classify import (  # noqa: F401
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
from .matrix import (Matrix, entries_agree, entry_table, picker, product_entries,  # noqa: F401
                     products_equal)


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


class TheoremCase(NamedTuple):
    """One evaluation: for entry X3 sep_holds records the PI truth value."""

    theorem_id: str
    element: Matrix
    condition_holds: bool
    sep_holds: bool
    verdict: Verdict


# -- statements ----------------------------------------------------------------

_RIGHT_TO_LEFT = True  # a row's optional third field: read its products right to left

_STATEMENTS = (
    ("T2.1", "sep <=> a (a^#)* a^+ a^# in PE"),
    ("T2.2", "sep <=> a^+ a (a^+)* a^+ in PE"),
    ("T2.3", "sep <=> a a* a^+ a^+ a^2 in PE"),
    ("C2.4", "sep <=> a a* a^+ x x^+ a in PE for some x in {a, a^#, a^+, a*, (a^+)*, (a^#)*}"),
    ("T2.5", "sep <=> a^+ a^3 a* a^+ in PE"),
    ("C2.6b", "sep <=> x x^+ a^2 a* a^+ in PE for some x in {a^+, a*, (a^#)*}"),
    ("C2.6c", "sep <=> x^+ x a^2 a* a^+ in PE for some x in {a, a^#, (a^+)*}"),
    ("C2.7", "sep <=> a^2 a* a^# in PE"),
    ("C2.9", "sep <=> a^+ a^3 a* a^# a a^+ in PE"),
    ("C2.10", "sep <=> a^2 a* a^# in PE", _RIGHT_TO_LEFT),  # a^2 (a* a^#)
    ("T3.2", "sep <=> a (a^#)* a^+ is a left (a^+ a^2)-idempotent"),
    ("T3.3b", "sep <=> a (a^#)* a^+ is a right (a^+ a^2)-idempotent"),
    ("T3.3c", "sep <=> a^+ a^2 is a left (a (a^#)* a^+)-idempotent"),
    ("T3.3d", "sep <=> a^+ a^2 is a right (a (a^#)* a^+)-idempotent"),
    ("T3.4b", "sep <=> a (a^#)* a^+ - a^+ a^2 is a right (-a^+ a^2)-idempotent"),
    ("T3.4c", "sep <=> a (a^#)* a^+ - a^+ a^2 is a left (-a^+ a^2)-idempotent"),
    ("T3.4d", "sep <=> a^+ a^2 - a (a^#)* a^+ is a right (-a (a^#)* a^+)-idempotent"),
    ("T3.4e", "informational: sep <=> a^+ a^2 - a (a^#)* a^+ is a left "
              "(-a (a^#)* a^+)-idempotent"),
    ("T3.5", "sep <=> a (a^#)* a^+ is a right a-idempotent"),
    ("T3.6", "sep <=> a^+ a^2 is a left ((a^+)*)-idempotent"),
    ("T4.1", "sep <=> (a (a^#)* a^+)^k = (a^+ a^2)^k for k = 2, 3"),
    ("T4.2", "sep <=> (a a* a^+ a^+ a^2)^k in PE for k = 2, 3"),
    ("T4.3", "sep <=> (a (a^#)* a^+)^k is a left ((a^+ a^2)^k)-idempotent for k = 2, 3"),
    ("T5.1", "sep <=> a (a^#)* a^+ and a^+ a^2 are left a-equivalent"),
    ("T5.2", "sep <=> a (a^#)* a^+ and a^+ a^2 are left x-equivalent for some x in "
             "{a, a^#, a^+, a*, (a^+)*, (a^#)*, (a^#)^+, (a^+)^#}"),
    ("T5.3", "sep <=> a (a^#)* a^+ and a^+ a^2 are left (a^+ a^2)-equivalent"),
    ("T5.4", "sep <=> a (a^#)* a^+ and a^+ a^2 are left (a^+ a a^#)-equivalent"),
    ("X1", "sep <=> a (a^#)* a^+ = a^+ a^2"),
    ("X2", "sep <=> a^+ = a* a^+ a"),
    ("X3", "partial isometry <=> a a* in PE"),
)


# -- the reader ------------------------------------------------------------------
# The reader writes each operand as Python source: an atom as its _ATOMS
# entry, a product of factors with Python's left-to-right *.  _FACTOR reads
# a minus sign, an atom or a parenthesized operand, nested at most twice.

_FACTOR = re.compile(r"-|[ax](?:\^[+#23]|\*)?|\((?:[^()]|\([^()]*\))*\)(?:\*|\^[+#k])?")
_ATOMS = {
    "a": "b.a", "a*": "b.star", "a^+": "b.mp", "a^#": "b.group", "a^2": "(b.a * b.a)",
    "a^3": "(b.a * b.a * b.a)", "x": "x", "x^+": "x_mp",
    "(a^#)^+": 'derived_elements(b)["mp_of_group"]',
    "(a^+)^#": 'derived_elements(b)["group_of_mp"]',
}
# x^+ of each member a loop may range over, by the Penrose symmetries
# (x^+)^+ = x and (x*)^+ = (x^+)*
_MP_OF = {"a": "a^+", "a^+": "a", "a^#": "(a^#)^+", "a*": "(a^+)*", "(a^+)*": "a*",
          "(a^#)*": "((a^#)^+)*"}
_TARGETS = {"sep": Kind.SEP, "partial isometry": Kind.PI}
_CLAIMS = {  # each operand a {}
    "{} in PE": "is_projection({})",
    "{} is a left {}-idempotent": "is_left_idempotent_for({}, {})",
    "{} is a right {}-idempotent": "is_right_idempotent_for({}, {})",
    "{} and {} are left {}-equivalent": "are_left_equivalent_for({}, {}, {})",
    "{} = {}": "products_equal({}, {})",
}


def _join(factors, right_to_left):
    if right_to_left:
        return reduce(lambda r, f: f"{f} * ({r})", reversed(factors[:-1]), factors[-1])
    return " * ".join(factors)


def _varies(text):
    return "x" in text or "^k" in text


def _factor(piece, right_to_left, hoist):
    if piece in _ATOMS:
        return _ATOMS[piece]
    if piece[0] != "(":
        raise ValueError(f"unknown atom {piece!r}")
    inner, post = piece[1:piece.rindex(")")], piece[piece.rindex(")") + 1:]
    if post not in ("", "*", "^k"):
        raise ValueError(f"no {post} form for {piece!r}")
    source = _operand(inner, right_to_left, hoist if _varies(inner) else None)
    if post == "^k":  # the base is computed once, before the loop over k
        return f"{hoist(source) if hoist and not _varies(inner) else f'({source})'} ** k"
    return f"({source}).star()" if post == "*" else f"({source})"


def _operand(text, right_to_left, hoist=None, pair=False):
    """The source of one operand.  Inside a loop, hoist(source) names a run of
    factors that varies with neither x nor k, so it is computed once; with
    pair, one product of several factors is written as the pair of its last
    multiplication, which products_equal compares without building it."""
    pieces = _FACTOR.findall(text)
    if "".join(pieces).replace(" ", "") != text.replace(" ", "") or not pieces:
        raise ValueError(f"unknown atom or unbalanced parenthesis in {text!r}")
    negated, terms = pieces[0] == "-", [[]]
    for piece in pieces[negated:]:
        if piece == "-":
            terms.append([])
        else:
            terms[-1].append(piece)
    if not all(terms):
        raise ValueError(f"a minus sign without a product in {text!r}")
    if pair and len(terms) == 1 and not negated and len(terms[0]) > 1:
        f = [_factor(p, right_to_left, hoist) for p in terms[0]]
        return (f"({f[0]}, {_join(f[1:], True)})" if right_to_left
                else f"({_join(f[:-1], False)}, {f[-1]})")
    products = []
    for term in terms:
        runs = []
        for varies, run in groupby(term, _varies):
            factors = [_factor(p, right_to_left, hoist) for p in run]
            source = _join(factors, right_to_left)
            if hoist and not varies:
                source = hoist(source)
            elif runs and len(factors) > 1:
                source = f"({source})"
            runs.append(source)
        products.append(" * ".join(runs))
    if negated:
        products[0] = f"-({products[0]})"
    return " - ".join(products)


def _operands(form, text):
    """The texts that fill the {} of form to make text, or None."""
    *separators, last = form.split("{}")[1:]
    texts = []
    for separator in separators:
        head, found, text = text.partition(separator)
        texts.append(head if found else "")
    texts.append(text[:len(text) - len(last)] if text.endswith(last) else "")
    return texts if all(texts) else None


def _read(statement, right_to_left=False):
    """The kind, the gating and the body of the condition of one statement;
    raises ValueError on a form the reader does not know."""
    gated = not statement.startswith("informational: ")
    target, arrow, claim = statement.removeprefix("informational: ").partition(" <=> ")
    if not arrow or target not in _TARGETS:
        raise ValueError(f"unknown target {target!r} in {statement!r}" if arrow
                         else f"no ' <=> ' in {statement!r}")
    claim, some_x, members = claim.partition(" for some x in {")
    claim, each_k, ks = claim.partition(" for k = ")
    if some_x and not members.endswith("}"):
        raise ValueError(f"unbalanced brace in {statement!r}")
    if "x" in members or "x" in claim and not some_x or "^k" in claim and not each_k:
        raise ValueError(f"x or k outside its loop in {statement!r}")
    form = next((f for f in _CLAIMS if _operands(f, claim)), None)
    if form is None:
        raise ValueError(f"unknown claim form {claim!r} in {statement!r}")
    names, lines = {}, []

    def hoist(source):
        if source.replace(".", "").isidentifier():
            return source
        if source not in names:
            names[source] = f"t{len(names)}"
            lines.append(f"    {names[source]} = {source}")
        return names[source]

    loop = hoist if some_x or each_k else None
    test = _CLAIMS[form].format(*(_operand(t, right_to_left, loop, form == "{} = {}")
                                  for t in _operands(form, claim)))
    if some_x:
        members, with_mp = members[:-1].split(", "), "x^+" in claim
        if with_mp and (unknown := set(members) - _MP_OF.keys()):
            raise ValueError(f"no x^+ form for {sorted(unknown)} in {statement!r}")
        each = ", ".join(f"({_operand(m, right_to_left)}, {_operand(_MP_OF[m], right_to_left)})"
                         if with_mp else _operand(m, right_to_left) for m in members)
        test = f"any({test} for {'x, x_mp' if with_mp else 'x'} in ({each},))"
    elif each_k:
        test = f"all({test} for k in {tuple(int(k) for k in ks.split(', '))})"
    return _TARGETS[target], gated, "\n".join([*lines, f"    return {test}"])


def _read_all(rows):
    """The entries of a statement table, their conditions compiled at once."""
    read = [(row[0], row[1], "_" + row[0].replace(".", "_"), *_read(*row[1:]))
            for row in rows]
    source = "\n".join(f"def {name}(b):\n{body}" for *_, name, _, _, body in read)
    conditions = {}
    exec(compile(source, "<statements>", "exec"), globals(), conditions)
    return tuple(TheoremEntry(entry_id, kind, statement, conditions[name], gated)
                 for entry_id, statement, name, kind, gated, _ in read)


_ENTRIES = _read_all(_STATEMENTS)


def registry() -> list[TheoremEntry]:
    """All registry entries in their fixed ID order."""
    return list(_ENTRIES)


def registry_map() -> dict[str, TheoremEntry]:
    return {e.id: e for e in _ENTRIES}


def target_holds(kind: Kind, b: InverseBundle) -> bool:
    """Whether b is in the class that entries of this kind target: is_pi(b)
    for Kind.PI, is_sep(b) for Kind.SEP.  Kept in the bundle, so each class
    is tested once per bundle however many entries ask, and read from
    `b.kept` on every later ask."""
    verdict = b.kept.get(kind)
    if verdict is None:
        verdict = b.kept[kind] = (is_pi if kind is Kind.PI else is_sep)(b)
    return verdict


def evaluate(entry: TheoremEntry, b: InverseBundle) -> TheoremCase:
    """Evaluate one entry on one bundle and compare against the target class."""
    if entry.kind is Kind.PI:
        if not b.has_mp:
            raise ValueError(f"{entry.id} needs an MP-invertible element")
    elif not (b.has_mp and b.has_group):
        raise ValueError(f"{entry.id} needs a group-and-MP-invertible element")
    target = target_holds(entry.kind, b)
    cond = bool(entry.condition(b))
    verdict = Verdict.CONSISTENT if cond == target else Verdict.COUNTEREXAMPLE
    return TheoremCase(entry.id, b.a, cond, target, verdict)


# -- universal lemma checks ------------------------------------------------------

LEMMA_STATEMENTS = {
    "L3.1": "e is a left a-idempotent <=> a - e is a right a-idempotent",
    "L2.8": "x in PE and x = a a^+ x a^+ a  ==>  a^+ a x a a^+ in PE",
}


def check_left_right_duality(e: Matrix, a: Matrix) -> Verdict:
    """L3.1: a universal ring identity relating the two one-sided notions.

    Decided on raw values: e e = a e, and d d = d a with d = a - e, each read
    in row order up to the first entry that differs; each side is computed
    by the field's rules, independently of the other, and no memo entry is
    made for the pair.  Inside an entry table for the field, when e and a
    are square of one size, the four products are read from the table a
    row at a time, and the rows and columns of d from its differences, by
    the numbers of the rows and columns that e and a keep in `_ids`,
    numbered by the table on first use.  Otherwise e e is the product e * e,
    so an open memo supplies it or keeps it for e's next partner, d is built
    as rows, and the other products are computed entry by entry.  Operands
    of different fields or shapes raise what a - e raises.
    """
    field, n = e.field, len(e.values)
    table = entry_table(field)
    if (table is not None and a.field is field
            and n == len(e.values[0]) == len(a.values) == len(a.values[0])):
        e_ids, a_ids = e._ids or table.ids(e), a._ids or table.ids(a)
    else:
        e_ids = a_ids = None
    if e_ids is None or a_ids is None:
        d = a.difference_rows(e)
        left = entries_agree(chain.from_iterable((e * e).values),
                             product_entries(field, a.values, e.columns))
        right = entries_agree(product_entries(field, d, tuple(zip(*d))),
                              product_entries(field, d, a.columns))
    else:
        plane, (e_rows, e_cols, e_pick), (a_rows, a_cols, a_pick) = table.planes[n], e_ids, a_ids
        # d's rows and columns: those of a less those of e
        d_rows, d_cols = plane.differences_of(a_rows, e_rows), plane.differences_of(a_cols, e_cols)
        left = plane.products_agree(e_rows, e_cols, e_pick, a_rows, e_cols, e_pick)
        right = plane.products_agree(d_rows, d_cols, picker(d_cols), d_rows, a_cols, a_pick)
    return Verdict.CONSISTENT if left == right else Verdict.COUNTEREXAMPLE


def check_projection_sandwich(a, x: Matrix) -> Verdict:
    """L2.8 on (a, x): a must be MP-invertible and x a projection.

    Accepts either a Matrix or a precomputed InverseBundle for a.  When the
    hypothesis x = a a^+ x a^+ a fails the implication is vacuous.  Inside a
    sweep, x is a stream value, so the test that it is a projection is a
    lookup in the sweep's projection table; it stays, since a caller outside
    a sweep may pass any matrix.

    Both sandwiches are taken around P = a a^+ and Q = a^+ a, which the
    element's memo keeps across its x: the hypothesis as (P x) Q, compared
    without building it, and the conclusion's element as (Q x) P.  By
    associativity these are the statement's products.
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
    p, q = a_m * d, d * a_m
    if not products_equal(x, (p * x, q)):
        return Verdict.VACUOUS
    return Verdict.CONSISTENT if is_projection(q * x * p) else Verdict.COUNTEREXAMPLE
