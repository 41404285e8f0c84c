"""Predicates for the element classes and relations under study.

The class predicates consume an InverseBundle rather than computing inverses
themselves, so existence failures surface in exactly one place (the harness
filter).  All tests are exact equalities of canonical forms.  The relation
predicates and `is_projection` compare products through `products_equal`,
so a product that is only compared is read entry by entry up to the first
that differs, never built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geninv import InverseBundle
from .matrix import Matrix, products_equal


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


def is_projection(e: Matrix) -> bool:
    """e is a self-adjoint idempotent.

    The one-sided forms e = e e* and e = e* e are each equivalent to the
    definition; all three are evaluated and must agree, as an internal
    consistency check on the involution.  The definition tests e* = e, which
    takes no product, before e e = e.
    """
    e_star = e.star()
    direct = e_star == e and products_equal((e, e), e)
    via_right = products_equal(e, (e, e_star))
    via_left = products_equal(e, (e_star, e))
    if not (direct == via_right == via_left):
        raise AssertionError(f"projection characterizations disagree on {e!r}")
    return direct


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
