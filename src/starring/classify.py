"""Predicates for the element classes and relations under study.

The class predicates consume an InverseBundle rather than computing inverses
themselves, so existence failures surface in exactly one place (the harness
filter).  All tests are exact equalities of canonical forms.  The relation
predicates and `is_projection` compare products through `products_equal`,
so a product that is only compared is read entry by entry up to the first
that differs, never built.

Inside a `projection_verdicts(stream)` block, `is_projection` answers from a
table that holds one verdict per distinct value of the stream, built when
the block opens by one full test of each.  A matrix equal to a stream value,
whichever object it is, is a lookup; any other is tested in full, and the
table does not grow.  The table is per context, like the product memo, and
is dropped when the block exits, whether it returns or raises.  A sweep
opens one over its stream: over an exhaustive stream every matrix the sweep
tests is a ring element, so it makes one full test per element.

An open product memo keeps the verdict of each full test under ("PE", x),
so within one memo, as a sweep opens per element, a matrix outside the
table is tested in full once however often it is asked about.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .geninv import InverseBundle
from .matrix import Matrix, products_equal, recall


@dataclass(frozen=True)
class Classification:
    is_projection: bool
    is_ep: bool
    is_pi: bool
    is_sep: bool
    mp_invertible: bool
    group_invertible: bool

    def __post_init__(self):
        if self.is_sep and not (self.is_ep and self.is_pi
                                and self.mp_invertible and self.group_invertible):
            raise ValueError("sep forces ep, pi and both memberships")
        if self.is_projection and not self.is_sep:
            raise ValueError("a projection is always sep")


# The verdict table of this context's open `projection_verdicts` block: one
# verdict per distinct stream value, keyed by value (Matrix equality asks for
# the same field, so equal raw values over two fields are two keys).
_VERDICTS: ContextVar[dict | None] = ContextVar("starring_projection_verdicts",
                                                default=None)


def is_projection(e: Matrix) -> bool:
    """e is a self-adjoint idempotent.

    Inside a `projection_verdicts` block, the verdict of a matrix equal to a
    stream value is read from the block's table.  Any other matrix is tested
    in full, once per open product memo, which keeps the verdict under
    ("PE", e): the one-sided forms e = e e* and e = e* e are each equivalent
    to the definition; all three are evaluated and must agree, as an
    internal consistency check on the involution.  The definition tests
    e* = e, which takes no product, before e e = e.
    """
    verdicts = _VERDICTS.get()
    if verdicts is not None:
        verdict = verdicts.get(e)
        if verdict is not None:
            return verdict
    return recall(("PE", e), _tested_projection, e)


def _tested_projection(e: Matrix) -> bool:
    e_star = e.star()
    direct = e_star == e and products_equal((e, e), e)
    via_right = products_equal(e, (e, e_star))
    via_left = products_equal(e, (e_star, e))
    if not (direct == via_right == via_left):
        raise AssertionError(f"projection characterizations disagree on {e!r}")
    return direct


@contextmanager
def projection_verdicts(stream):
    """Test each distinct value of `stream` once for being a projection, and
    let `is_projection` read those verdicts until the block exits.

    Yields the table, from each distinct stream value, in first-occurrence
    order, to its verdict.  Blocks nest, the inner table replacing the outer
    one; each thread has its own.
    """
    verdicts = {}
    token = _VERDICTS.set(verdicts)
    try:
        for m in stream:
            if m not in verdicts:
                verdicts[m] = is_projection(m)
        yield verdicts
    finally:
        _VERDICTS.reset(token)


def _require(b: InverseBundle, mp: bool, group: bool):
    if mp and not b.has_mp:
        raise ValueError("element has no MP inverse")
    if group and not b.has_group:
        raise ValueError("element has no group inverse")


def is_ep(b: InverseBundle) -> bool:
    """Group inverse and MP inverse coincide."""
    _require(b, mp=True, group=True)
    return b.group == b.mp


def is_pi(b: InverseBundle) -> bool:
    """Partial isometry: the adjoint is the MP inverse."""
    _require(b, mp=True, group=False)
    return b.star == b.mp


def is_sep(b: InverseBundle) -> bool:
    """Strongly EP: adjoint, MP inverse and group inverse all coincide."""
    _require(b, mp=True, group=True)
    return b.star == b.mp and b.mp == b.group


def classify(b: InverseBundle) -> Classification:
    """Lenient classification; absent inverses yield False memberships."""
    pi = b.has_mp and is_pi(b)
    ep = b.has_mp and b.has_group and is_ep(b)
    return Classification(
        is_projection=is_projection(b.a),
        is_ep=ep,
        is_pi=pi,
        is_sep=ep and pi,
        mp_invertible=b.has_mp,
        group_invertible=b.has_group,
    )


def is_left_idempotent_for(e: Matrix, a: Matrix) -> bool:
    """e^2 = a e."""
    return products_equal((e, e), (a, e))


def is_right_idempotent_for(e: Matrix, a: Matrix) -> bool:
    """e^2 = e a."""
    return products_equal((e, e), (e, a))


def are_left_equivalent_for(b: Matrix, c: Matrix, a: Matrix) -> bool:
    """a b = a c."""
    return products_equal((a, b), (a, c))


def are_right_equivalent_for(b: Matrix, c: Matrix, a: Matrix) -> bool:
    """b a = c a."""
    return products_equal((b, a), (c, a))
