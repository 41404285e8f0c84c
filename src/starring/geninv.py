"""Moore-Penrose and group inverses, with equation-level oracles.

An invertible A has A^+ = A^# = A^-1 (Penrose 1955), read from the same
Gauss-Jordan reduction of [A | I] that gives its rank.  A singular nonzero A
takes a full-rank factorization A = F G:

* MP inverse: M = F* A G* is invertible exactly when A is MP-invertible,
  and then A^+ = G* M^-1 F*.
* group inverse: G F is invertible exactly when rank(A^2) = rank(A),
  and then A^# = F (G F)^-2 G.

Over the rationals and Gaussian rationals the MP inverse always exists;
over finite fields either inverse can genuinely fail to exist, and absence
is reported as a value, never an exception.  Every bundle re-verifies the
defining equations at construction, so downstream theorem checks inherit a
ground-truth guarantee.
"""

from __future__ import annotations

from .matrix import Matrix


class InverseVerificationError(RuntimeError):
    """A computed inverse failed its own defining equations (internal bug)."""


class ClosedFormMismatch(RuntimeError):
    """A directly computed derived inverse disagrees with its closed form."""


def verify_penrose(a: Matrix, x: Matrix):
    """Per-equation verdicts for the four MP equations of the pair (a, x)."""
    ax = a * x
    xa = x * a
    return (
        ax * a == a,
        xa * x == x,
        ax.star() == ax,
        xa.star() == xa,
    )


def verify_group(a: Matrix, x: Matrix):
    """Per-equation verdicts for the three group-inverse equations."""
    ax = a * x
    xa = x * a
    return (
        ax * a == a,
        xa * x == x,
        ax == xa,
    )


def mp_inverse(a: Matrix) -> Matrix | None:
    """The MP inverse, or None when it does not exist (finite fields only)."""
    if a.is_zero():
        return a
    fact = a.full_rank_factorize()
    if fact.rank == a.n:
        return a.try_invert()
    f_star = fact.f.star()
    g_star = fact.g.star()
    m = f_star * a * g_star
    m_inv = m.try_invert()
    if m_inv is None:
        return None
    return g_star * m_inv * f_star


def group_inverse(a: Matrix) -> Matrix | None:
    """The group inverse, or None when rank(A^2) < rank(A)."""
    if a.is_zero():
        return a
    fact = a.full_rank_factorize()
    if fact.rank == a.n:
        return a.try_invert()
    gf = fact.g * fact.f
    gf_inv = gf.try_invert()
    if gf_inv is None:
        return None
    return fact.f * gf_inv * gf_inv * fact.g


class InverseBundle:
    """An element together with its adjoint and optional MP/group inverses.

    `cached` keeps, per bundle, the one shared value that registry entries
    build from more than a product, difference, negation or adjoint: the
    derived elements, which take MP and group inverses.  Everything else they
    share is left to the product memo that `sweep` opens per element before
    it computes the bundle.
    """

    __slots__ = ("a", "star", "mp", "group", "has_mp", "has_group", "_memo")

    def __init__(self, a: Matrix, star: Matrix, mp: Matrix | None, group: Matrix | None):
        self.a = a
        self.star = star
        self.mp = mp
        self.group = group
        self.has_mp = mp is not None
        self.has_group = group is not None
        self._memo = {}

    @classmethod
    def compute(cls, a: Matrix) -> "InverseBundle":
        a.n  # square only
        mp = mp_inverse(a)
        if mp is not None and not all(verify_penrose(a, mp)):
            raise InverseVerificationError(f"MP equations fail for {a!r}")
        group = group_inverse(a)
        if group is not None and not all(verify_group(a, group)):
            raise InverseVerificationError(f"group equations fail for {a!r}")
        return cls(a, a.star(), mp, group)

    def cached(self, key, factory):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = factory()
            return value

    def __repr__(self):
        tags = [t for t, ok in (("mp", self.has_mp), ("group", self.has_group)) if ok]
        return f"<bundle {self.a!r} [{' '.join(tags) or 'plain'}]>"


def derived_elements(b: InverseBundle) -> dict[str, Matrix]:
    """The eight named elements built from a, its inverses, and their adjoints.

    mp_of_group is the MP inverse of the group inverse, group_of_mp the group
    inverse of the MP inverse.  Both are computed directly and cross-checked
    against their closed forms

        mp_of_group = a^+ a^3 a^+        group_of_mp = (a a^#)* a (a a^#)*

    which hold whenever both inverses exist; any disagreement means the
    inverse machinery itself is broken, so it raises rather than reports.
    """
    if not (b.has_mp and b.has_group):
        raise ValueError("derived elements require both the MP and group inverse")

    def build():
        a, d, g = b.a, b.mp, b.group
        closed_mp_of_group = d * (a * a * a) * d
        ag_star = (a * g).star()
        closed_group_of_mp = ag_star * a * ag_star

        mp_of_group = mp_inverse(g)
        if mp_of_group != closed_mp_of_group:
            raise ClosedFormMismatch(
                f"MP inverse of the group inverse deviates from a^+ a^3 a^+ for {a!r}")
        group_of_mp = group_inverse(d)
        if group_of_mp != closed_group_of_mp:
            raise ClosedFormMismatch(
                f"group inverse of the MP inverse deviates from (a a^#)* a (a a^#)* for {a!r}")

        return {
            "a": a,
            "group": g,
            "mp": d,
            "star": b.star,
            "mp_star": d.star(),
            "group_star": g.star(),
            "mp_of_group": mp_of_group,
            "group_of_mp": group_of_mp,
        }

    return b.cached("derived", build)
