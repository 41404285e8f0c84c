"""MP and group inverses against equation-level and search oracles."""

import functools
import random
import re
from fractions import Fraction

import pytest

from starring.geninv import (
    InverseBundle,
    derived_elements,
    group_inverse,
    mp_inverse,
    verify_group,
    verify_penrose,
)
from starring.harness import GeneratorSpec, Mode, generate
from starring.matrix import Matrix
from starring.starfield import GAUSSIAN, RATIONAL, prime_field, quad_ext_field

F2 = prime_field(2)
F3 = prime_field(3)
F4 = quad_ext_field(2)

A_IDEMPOTENT = Matrix.from_ints(RATIONAL, [[1, 1], [0, 0]])
A_SHIFT = Matrix.from_ints(RATIONAL, [[0, 1], [0, 0]])


def frac_matrix(grid):
    return Matrix(RATIONAL, [[RATIONAL.rational(*e) if isinstance(e, tuple)
                              else RATIONAL.from_int(e) for e in row]
                             for row in grid])


DIAG_2_0 = frac_matrix([[2, 0], [0, 0]])
ROTATION = frac_matrix([[(3, 5), (4, 5)], [(-4, 5), (3, 5)]])


# -- MP inverse -----------------------------------------------------------------

def test_mp_of_rank_one_idempotent():
    x = mp_inverse(A_IDEMPOTENT)
    assert all(verify_penrose(A_IDEMPOTENT, x))
    assert x == frac_matrix([[(1, 2), 0], [(1, 2), 0]])


def test_mp_conventions():
    i2 = Matrix.identity(RATIONAL, 2)
    assert mp_inverse(i2) == i2
    z = Matrix.zeros(RATIONAL, 2)
    assert mp_inverse(z) == z
    assert group_inverse(z) == z


def test_mp_of_shift():
    x = mp_inverse(A_SHIFT)
    assert all(verify_penrose(A_SHIFT, x))
    assert x == Matrix.from_ints(RATIONAL, [[0, 0], [1, 0]])


def test_mp_nonexistence_over_finite_field():
    # rank(A A*) < rank(A) over F_2 for this element
    a = Matrix.from_ints(F2, [[1, 1], [0, 0]])
    assert (a * a.star()).rank() < a.rank()
    assert mp_inverse(a) is None


# -- group inverse ------------------------------------------------------------------

def test_group_of_idempotent_is_itself():
    x = group_inverse(A_IDEMPOTENT)
    assert all(verify_group(A_IDEMPOTENT, x))
    assert x == A_IDEMPOTENT


def test_group_absent_for_nilpotent():
    assert (A_SHIFT * A_SHIFT).rank() == 0 < A_SHIFT.rank()
    assert group_inverse(A_SHIFT) is None


def test_group_of_diagonal():
    x = group_inverse(DIAG_2_0)
    assert all(verify_group(DIAG_2_0, x))
    assert x == frac_matrix([[(1, 2), 0], [0, 0]])


# -- equation oracles ------------------------------------------------------------

def test_verify_penrose_identity():
    i2 = Matrix.identity(RATIONAL, 2)
    assert verify_penrose(i2, i2) == (True, True, True, True)


def test_verify_penrose_flags_non_symmetric_products():
    # the idempotent is its own (1)-(2) inverse but A^2 = A is not self-adjoint
    assert verify_penrose(A_IDEMPOTENT, A_IDEMPOTENT) == (True, True, False, False)


def test_verify_group_flags_commutation():
    # x here is the MP inverse of the shift, so equations 1-2 hold and only
    # a x = x a can fail; the group inverse itself does not exist
    x = Matrix.from_ints(RATIONAL, [[0, 0], [1, 0]])
    assert verify_group(A_SHIFT, x) == (True, True, False)
    assert verify_group(DIAG_2_0, frac_matrix([[(1, 2), 0], [0, 0]])) == (True, True, True)


# -- bundles ----------------------------------------------------------------------

def test_bundle_flags():
    b = InverseBundle.compute(A_SHIFT)
    assert b.has_mp and not b.has_group
    assert b.star == A_SHIFT.star()
    b2 = InverseBundle.compute(DIAG_2_0)
    assert b2.has_mp and b2.has_group


def test_bundle_requires_square():
    fact = A_IDEMPOTENT.full_rank_factorize()
    with pytest.raises(Exception):
        InverseBundle.compute(fact.f)


# -- derived elements ----------------------------------------------------------------

def test_derived_identity():
    b = InverseBundle.compute(Matrix.identity(RATIONAL, 2))
    der = derived_elements(b)
    assert set(der) == {"a", "group", "mp", "star", "mp_star", "group_star",
                        "mp_of_group", "group_of_mp"}
    assert all(m == b.a for m in der.values())


def test_derived_diag_closed_form():
    b = InverseBundle.compute(DIAG_2_0)
    der = derived_elements(b)
    # a^+ a^3 a^+ = diag(1/2 * 8 * 1/2, 0) = diag(2, 0)
    assert der["mp_of_group"] == DIAG_2_0
    assert der["mp_of_group"] == b.mp * (b.a ** 3) * b.mp
    assert der["group_of_mp"] == DIAG_2_0


def test_derived_orthogonal_rotation():
    b = InverseBundle.compute(ROTATION)
    t = ROTATION.star()
    assert b.mp == t and b.group == t and b.star == t
    assert derived_elements(b)["group_of_mp"] == ROTATION


def test_derived_requires_both_inverses():
    with pytest.raises(ValueError):
        derived_elements(InverseBundle.compute(A_SHIFT))


# -- dual-route exhaustive oracle ---------------------------------------------------

@pytest.mark.parametrize("field", [F2, F3])
def test_exhaustive_search_agrees_with_computation(field):
    """Brute-force equation search over all of M_2: existence, uniqueness,
    values, and both rank criteria must match the factorization route."""
    elems = list(generate(GeneratorSpec(Mode.EXHAUSTIVE, field, 2)))
    for a in elems:
        mp_found = [x for x in elems if all(verify_penrose(a, x))]
        gr_found = [x for x in elems if all(verify_group(a, x))]
        assert len(mp_found) <= 1 and len(gr_found) <= 1

        mp = mp_inverse(a)
        assert mp_found == ([mp] if mp is not None else [])
        gr = group_inverse(a)
        assert gr_found == ([gr] if gr is not None else [])

        r = a.rank()
        assert (gr is not None) == ((a * a).rank() == r)
        assert (mp is not None) == ((a * a.star()).rank() == r == (a.star() * a).rank())


def test_rank_criteria_on_f4():
    # F_4 via the rank route only; the search oracle runs on F_2/F_3 above
    for a in generate(GeneratorSpec(Mode.EXHAUSTIVE, F4, 2)):
        r = a.rank()
        assert (group_inverse(a) is not None) == ((a * a).rank() == r)
        assert (mp_inverse(a) is not None) == (
            (a * a.star()).rank() == r == (a.star() * a).rank())


# -- uniqueness and involution interplay -----------------------------------------------

def _factorization_inverses(a):
    """G* (F* A G*)^-1 F* and F (G F)^-2 G from a's full-rank factorization."""
    fact = a.full_rank_factorize()
    f, g = fact.f, fact.g
    mp = g.star() * (f.star() * a * g.star()).try_invert() * f.star()
    gf_inv = (g * f).try_invert()
    return mp, f * gf_inv * gf_inv * g


@pytest.mark.parametrize("spec, invertible", [
    (GeneratorSpec(Mode.EXHAUSTIVE, F3, 2), 48),
    (GeneratorSpec(Mode.EXHAUSTIVE, F4, 2), 180),
    (GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, sample_count=20, seed=104), 20),
], ids=["M2(F3)", "M2(F4)", "random-Q(i)-dim3"])
def test_invertible_inverses_match_factorization_formulas(spec, invertible):
    # an invertible element takes both inverses from its reduction of [A | I];
    # the factorization formulas stay an oracle for them
    inverses = [(a, a.try_invert()) for a in generate(spec)]
    inverses = [(a, inverse) for a, inverse in inverses if inverse is not None]
    assert len(inverses) == invertible  # |GL_2(F_q)| = (q^2 - 1)(q^2 - q)
    for a, inverse in inverses:
        mp, group = _factorization_inverses(a)
        assert mp == group == inverse == mp_inverse(a) == group_inverse(a), a


def rand_matrix(field, n, rng):
    if field is RATIONAL:
        return Matrix(field, [[field.rational(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(n)] for _ in range(n)])
    return Matrix(field, [[field.gaussian(rng.randint(-3, 3), rng.randint(-3, 3),
                                          rng.randint(1, 3), rng.randint(1, 3))
                           for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
def test_uniqueness_via_independent_route(field):
    """Any candidate passing the Penrose oracle must equal mp_inverse(A).

    The second candidate comes from a different computation entirely:
    X = (A* A)^# A*, built from the group inverse of the Gram product.
    """
    rng = random.Random(4242)
    checked = 0
    while checked < 200:
        a = rand_matrix(field, rng.choice([2, 3]), rng)
        mp = mp_inverse(a)
        if mp is None:
            continue
        gram_group = group_inverse(a.star() * a)
        if a.is_zero():
            continue
        candidate = gram_group * a.star()
        assert all(verify_penrose(a, candidate))
        assert candidate == mp
        checked += 1


@pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
def test_mp_involution_identities(field):
    # (a^+)^+ = a and (a*)^+ = (a^+)* whenever a^+ exists
    rng = random.Random(99)
    for _ in range(100):
        a = rand_matrix(field, rng.choice([2, 3]), rng)
        mp = mp_inverse(a)
        assert mp is not None  # characteristic zero: always exists
        assert mp_inverse(mp) == a
        assert mp_inverse(a.star()) == mp.star()


def test_mp_involution_identities_exhaustive_f2():
    for a in generate(GeneratorSpec(Mode.EXHAUSTIVE, F2, 2)):
        mp = mp_inverse(a)
        if mp is not None:
            assert mp_inverse(mp) == a
            assert mp_inverse(a.star()) == mp.star()


# -- Greville oracle ------------------------------------------------------------------
# T. N. E. Greville, "Some applications of the pseudoinverse of a matrix",
# SIAM Review 2 (1960): A^+ built one column at a time.  It computes on
# lists of (re, im) Fraction pairs and shares no code with starring's
# arithmetic, so it also checks the scalars that Penrose re-verification
# relies on.

_C_ZERO = (Fraction(0), Fraction(0))
_QI_TOKEN = re.compile(r"([+-]?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)i")


def _c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _m_mul(a, b):
    return [[functools.reduce(lambda s, t: (s[0] + t[0], s[1] + t[1]),
                              (_c_mul(x, y) for x, y in zip(row, col)), _C_ZERO)
             for col in zip(*b)] for row in a]


def _m_sub(a, b):
    return [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _m_adjoint(a):
    return [[(x[0], -x[1]) for x in col] for col in zip(*a)]


def _m_scale(a, r):
    return [[(x[0] * r, x[1] * r) for x in row] for row in a]


def _col_pinv(c):
    # c^+ = c*/(c* c) for a nonzero column c, and the zero row for c = 0
    norm = _m_mul(_m_adjoint(c), c)[0][0][0]
    return _m_scale(_m_adjoint(c), 1 / norm) if norm else [[_C_ZERO] * len(c)]


def greville_mp(a):
    """The MP inverse of a (list of rows of (re, im) pairs), column-recursively."""
    cols = [[[x] for x in col] for col in zip(*a)]
    a_k, p_k = cols[0], _col_pinv(cols[0])
    for col in cols[1:]:
        d = _m_mul(p_k, col)
        c = _m_sub(col, _m_mul(a_k, d))
        if any(x != _C_ZERO for row in c for x in row):
            b = _col_pinv(c)
        else:
            dd = _m_mul(_m_adjoint(d), d)[0][0][0]
            b = _m_scale(_m_mul(_m_adjoint(d), p_k), 1 / (1 + dd))
        p_k = _m_sub(p_k, _m_mul(d, b)) + b
        a_k = [row + c_row for row, c_row in zip(a_k, col)]
    return p_k


def _read_token(token):
    m = _QI_TOKEN.fullmatch(token)
    if m:
        return (Fraction(m.group(1)), Fraction(m.group(2)))
    return (Fraction(token), Fraction(0))


def _token(x, field):
    if field is RATIONAL:
        return str(x[0])
    return f"{x[0]}{'-' if x[1] < 0 else '+'}{abs(x[1])}i"


@pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN], ids=["Q", "Q(i)"])
def test_mp_matches_greville_oracle(field):
    rng = random.Random(1960)

    def part():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def entry():
        return (part(), part() if field is GAUSSIAN else Fraction(0))

    seen = set()
    for n in range(1, 5):
        for _ in range(12):
            # rank at most r as an n x r by r x n product; a zeroed column
            # sends Greville's recursion through its other branch
            r = rng.randint(0, n)
            left = [[entry() for _ in range(r)] for _ in range(n)]
            right = [[entry() for _ in range(n)] for _ in range(r)]
            grid = _m_mul(left, right) if r else [[_C_ZERO] * n for _ in range(n)]
            if rng.random() < 0.3:
                j = rng.randrange(n)
                grid = [[_C_ZERO if k == j else x for k, x in enumerate(row)] for row in grid]
            a = Matrix(field, [[field.parse(_token(x, field)) for x in row] for row in grid])
            got = mp_inverse(a)
            assert got is not None
            assert [[_read_token(t) for t in row] for row in got.to_tokens()] == greville_mp(grid)
            seen.add((n, a.rank()))
    # every dimension met a singular and a full-rank matrix
    assert all((n, n) in seen and any((n, k) in seen for k in range(n)) for n in range(1, 5))
