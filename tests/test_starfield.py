"""Scalar arithmetic, involution axioms, and the text grammar."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from starring.starfield import (
    FieldDescriptor,
    FieldKind,
    FieldMismatchError,
    GAUSSIAN,
    PRIME_TEST_LIMIT,
    RATIONAL,
    ScalarParseError,
    is_prime,
    prime_field,
    quad_ext_field,
)

F2 = prime_field(2)
F3 = prime_field(3)
F7 = prime_field(7)
F11 = prime_field(11)
F4 = quad_ext_field(2)
F9 = quad_ext_field(3)
F25 = quad_ext_field(5)

ALL_FIELDS = [RATIONAL, GAUSSIAN, F3, F7, F4, F9]


def scalars(field):
    """Hypothesis strategy for scalars of one field."""
    if field.kind is FieldKind.RATIONAL:
        return st.builds(field.rational, st.integers(-9, 9), st.integers(1, 9))
    if field.kind is FieldKind.GAUSSIAN_RATIONAL:
        return st.builds(field.gaussian,
                         st.integers(-9, 9), st.integers(-9, 9),
                         st.integers(1, 9), st.integers(1, 9))
    return st.builds(field.element_at, st.integers(0, field.size() - 1))


def field_and_pair():
    return st.one_of([
        st.tuples(st.just(f), scalars(f), scalars(f)) for f in ALL_FIELDS
    ])


# -- frozen examples ----------------------------------------------------------

def test_rational_add():
    assert (RATIONAL.rational(1, 2) + RATIONAL.rational(1, 3)).token() == "5/6"


def test_prime_mul_wraps():
    two = F3.from_int(2)
    assert (two * two).token() == "1"


def test_quadext_mul_matches_polynomial_oracle():
    # Independent oracle: derive the modulus by brute force, multiply the
    # polynomials a+b*x and c+d*x, and reduce x^2 = -b0*x - c0 by hand.
    p = 2
    b0, c0 = next((b, c) for b in range(p) for c in range(p)
                  if all((x * x + b * x + c) % p for x in range(p)))

    def oracle(u, v):
        (a, b), (c, d) = u, v
        lin = a * d + b * c
        quad = b * d
        return ((a * c - quad * c0) % p, (lin - quad * b0) % p)

    omega = F4.residue_pair(0, 1)
    assert oracle((0, 1), (0, 1)) == (1, 1)
    assert (omega * omega).value == (1, 1)
    for u in F4.elements():
        for v in F4.elements():
            assert (u * v).value == oracle(u.value, v.value)


def test_scalar_inv_examples():
    assert RATIONAL.rational(2, 3).inv().token() == "3/2"
    assert F3.from_int(2).inv().token() == "2"
    assert GAUSSIAN.gaussian(1, 1).inv().token() == "1/2-1/2i"


BIG = 10**40
_gaussian_part = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
_gaussian_parts = st.tuples(_gaussian_part, _gaussian_part)


def _parts(s):
    # (re, im) of a Q(i) scalar, once its raw triple (p, q, d), meaning
    # (p + q*i)/d, is checked canonical: integers, d > 0, gcd(p, q, d) = 1
    p, q, d = s.value
    assert all(type(k) is int for k in (p, q, d))
    assert d > 0 and math.gcd(p, q, d) == 1
    return Fraction(p, d), Fraction(q, d)


@given(_gaussian_parts, _gaussian_parts)
def test_gaussian_rules_match_fraction_formulas(x, y):
    # Oracle: the textbook formulas, one Fraction operation at a time.
    (a, b), (c, d) = x, y
    u = GAUSSIAN.gaussian(a.numerator, b.numerator, a.denominator, b.denominator)
    v = GAUSSIAN.gaussian(c.numerator, d.numerator, c.denominator, d.denominator)
    assert _parts(u) == (a, b) and _parts(v) == (c, d)
    assert _parts(u + v) == (a + c, b + d)
    assert _parts(u - v) == (a - c, b - d)
    assert _parts(-u) == (-a, -b)
    assert _parts(u.star()) == (a, -b)
    assert _parts(u * v) == (a * c - b * d, a * d + b * c)
    # sums over one denominator, whose results must still be reduced
    assert _parts(u + u) == (2 * a, 2 * b)
    assert _parts(u + u.star()) == (2 * a, 0)
    assert _parts(u - u) == (0, 0)
    if a or b:
        n = a * a + b * b
        assert _parts(u.inv()) == (a / n, -b / n)
    for s, (re, im) in ((u, x), (u * v, (a * c - b * d, a * d + b * c))):
        assert s.token() == f"{re}{'-' if im < 0 else '+'}{abs(im)}i"
        assert GAUSSIAN.parse(s.token()) == s


def test_inv_of_zero_raises():
    for f in ALL_FIELDS:
        with pytest.raises(ZeroDivisionError):
            f.zero().inv()


def test_star_examples():
    assert GAUSSIAN.gaussian(3, 4, 5, 5).star().token() == "3/5-4/5i"
    assert F11.from_int(7).star() == F11.from_int(7)
    assert F4.residue_pair(0, 1).star().token() == "1+1w"


@pytest.mark.parametrize("field", [F4, F9, F25])
def test_frobenius_is_pth_power(field):
    # star must agree with literal repeated multiplication s * s * ... (p times)
    for s in field.elements():
        power = s
        for _ in range(field.p - 1):
            power = power * s
        assert s.star() == power


@pytest.mark.parametrize("field", [F4, F9, F25])
def test_frobenius_fixes_exactly_prime_subfield(field):
    fixed = {s.value for s in field.elements() if s.star() == s}
    assert fixed == {(x, 0) for x in range(field.p)}


def test_f9_modulus_is_smallest_lexicographic():
    # over F_3 the first irreducible monic quadratic in (b, c) order is x^2 + 1
    assert (F9.ext_b, F9.ext_c) == (0, 1)
    assert (F4.ext_b, F4.ext_c) == (1, 1)


def test_modulus_matches_brute_force_search():
    # Euler's criterion must pick the same (b, c) as trying every root
    for p in (n for n in range(200) if is_prime(n)):
        brute = next((b, c) for b in range(p) for c in range(p)
                     if all((x * x + b * x + c) % p for x in range(p)))
        field = quad_ext_field(p)
        assert (field.ext_b, field.ext_c) == brute, p


# -- algebraic properties ------------------------------------------------------

@given(field_and_pair())
def test_star_is_involutive_antihomomorphism(data):
    _, x, y = data
    assert x.star().star() == x
    assert (x + y).star() == x.star() + y.star()
    assert (x * y).star() == x.star() * y.star()


@given(field_and_pair())
def test_star_commutes_with_inverse(data):
    _, x, _ = data
    if not x.is_zero():
        assert x.inv().star() == x.star().inv()


@given(field_and_pair())
def test_field_laws(data):
    field, x, y = data
    assert x + y == y + x
    assert x * y == y * x
    assert (x - y) + y == x
    if not x.is_zero():
        assert x * x.inv() == field.one()


@given(field_and_pair())
def test_token_round_trip(data):
    field, x, _ = data
    assert field.parse(x.token()) == x


def test_parse_reduces_to_canonical_form():
    assert F3.parse("5") == F3.from_int(2)
    assert F3.parse("-1") == F3.from_int(2)
    assert RATIONAL.parse("4/6") == RATIONAL.rational(2, 3)
    assert GAUSSIAN.parse("2/4+2/2i") == GAUSSIAN.gaussian(1, 1, 2, 1)
    assert F4.parse("1w") == F4.residue_pair(0, 1)
    assert F4.parse("1") == F4.residue_pair(1, 0)


@pytest.mark.parametrize("field,token", [
    (RATIONAL, "1.5"),
    (RATIONAL, "x"),
    (RATIONAL, "1/0"),
    (GAUSSIAN, "1+i+1"),
    (F3, "1/2"),
    (F4, "1+2"),
    (F4, "w+1"),
])
def test_parse_rejects_bad_tokens(field, token):
    with pytest.raises(ScalarParseError):
        field.parse(token)


def test_descriptor_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        F3.one() + F7.one()
    with pytest.raises(FieldMismatchError):
        RATIONAL.one() * GAUSSIAN.one()


def test_descriptor_validation():
    for bad in (0, 1, 4, 9):
        with pytest.raises(ValueError):
            FieldDescriptor(FieldKind.PRIME, bad)
        with pytest.raises(ValueError):
            FieldDescriptor(FieldKind.QUAD_EXT, bad)
    with pytest.raises(ValueError):
        FieldDescriptor(FieldKind.RATIONAL, 3)


def test_descriptor_interning():
    assert prime_field(3) is prime_field(3)
    assert quad_ext_field(2) is quad_ext_field(2)
    assert prime_field(3) is not prime_field(7)
    for field in ALL_FIELDS:
        assert pickle.loads(pickle.dumps(field)) is field
        assert copy.deepcopy(field.one()).field is field


def test_enumeration_order():
    assert [s.token() for s in F3.elements()] == ["0", "1", "2"]
    assert [s.value for s in F4.elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert F9.size() == 9 and F3.size() == 3 and RATIONAL.size() is None


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_scalar_pools_partition_invertibles(field):
    units, others = field.unitary_scalars(), field.non_unitary_scalars()
    one = field.one()
    assert field.has_non_unitary_scalar() is bool(others)
    if field.size() is None:
        # fixed pools over Q and Q(i): invertible, split by the norm u star(u)
        assert units and others
        for u in units + others:
            assert not u.is_zero() and u * u.inv() == one
        assert all(u * u.star() == one for u in units)
        assert all(u * u.star() != one for u in others)
        return
    # a finite field splits its nonzero elements, each pool in enumeration order
    nonzero = [u for u in field.elements() if not u.is_zero()]
    assert units == [u for u in nonzero if u * u.star() == one]
    assert others == [u for u in nonzero if u * u.star() != one]
    # the norm-1 group: +-1 in F_p, the p + 1 roots of u^(p+1) = 1 in F_{p^2}
    quad = field.kind is FieldKind.QUAD_EXT
    assert len(units) == (field.p + 1 if quad else len({1, field.p - 1}))


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    trial = [n for n in range(2, 5000) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(5000) if is_prime(n)] == trial
    assert is_prime(10 ** 18 + 3) and not is_prime(10 ** 18 + 1)
    # strong pseudoprimes to the first 9 and to the first 12 prime bases
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_LIMIT)
    with pytest.raises(ValueError):
        FieldDescriptor(FieldKind.PRIME, PRIME_TEST_LIMIT + 2)


def test_gaussian_token_always_two_components():
    rng = random.Random(7)
    for _ in range(200):
        s = GAUSSIAN.gaussian(rng.randint(-5, 5), rng.randint(-5, 5),
                              rng.randint(1, 4), rng.randint(1, 4))
        tok = s.token()
        assert tok.endswith("i") and ("+" in tok[1:] or "-" in tok[1:])
        assert GAUSSIAN.parse(tok) == s
