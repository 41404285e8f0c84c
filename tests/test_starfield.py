"""Scalar arithmetic, involution axioms, and the text grammar."""

import copy
import itertools
import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from starring.matrix import Matrix
from starring.starfield import (
    FieldDescriptor,
    FieldKind,
    FieldMismatchError,
    GAUSSIAN,
    PRIME_TEST_LIMIT,
    RATIONAL,
    Scalar,
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

    omega = F4.parse("1w")
    assert oracle((0, 1), (0, 1)) == (1, 1)
    # a raw value is the index a*p + b of a + b*w
    assert divmod((omega * omega).value, p) == (1, 1)
    for u in F4.elements():
        for v in F4.elements():
            assert divmod((u * v).value, p) == oracle(divmod(u.value, p), divmod(v.value, p))


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


def test_gaussian_sub_matches_the_pair_formula():
    # Q(i)'s own rule on seeded random canonical triples, equal and unequal
    # denominators alike: (a + b*i) - (c + d*i) = (a - c) + (b - d)*i,
    # reduced, and the same triple as adding the negation
    rng = random.Random(25)
    for _ in range(2000):
        den = rng.randint(1, 40)
        dens = (den, den) if rng.random() < 0.3 else (rng.randint(1, 40), rng.randint(1, 40))
        u, v = (GAUSSIAN.gaussian(rng.randint(-99, 99), rng.randint(-99, 99), m, rng.randint(1, 40))
                for m in dens)
        (a, b), (c, d) = _parts(u), _parts(v)
        diff = Scalar(GAUSSIAN, GAUSSIAN.sub(u.value, v.value))
        assert _parts(diff) == (a - c, b - d)
        assert diff.value == GAUSSIAN.add(u.value, GAUSSIAN.neg(v.value))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_sub_matches_the_pair_formula(p):
    field = prime_field(p)
    for x, y in itertools.product(range(p), repeat=2):
        assert field.sub(x, y) == (x - y) % p == field.add(x, field.neg(y))


def test_every_field_owns_its_rules():
    # no rule is inherited from a fallback in FieldDescriptor
    assert not hasattr(FieldDescriptor, "sub")
    for field in (RATIONAL, GAUSSIAN, F3, F4):
        for rule in ("add", "sub", "neg", "mul", "dot", "inv", "star", "is_zero", "token"):
            assert rule in vars(type(field)), (field.name, rule)


class _PairRules:
    """The rules of F_p[w]/(w^2 + b0*w + c0) on pairs (a, b) meaning a + b*w,
    as F_{p^2} computed on them before its raw values became indices: the
    reference the index rules must match."""

    def __init__(self, field):
        self.p, self.b0, self.c0 = field.p, field.ext_b, field.ext_c

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def neg(self, x):
        return (-x[0] % self.p, -x[1] % self.p)

    def mul(self, x, y):
        (a, b), (c, d) = x, y
        p, bd = self.p, b * d
        return ((a * c - self.c0 * bd) % p, (a * d + b * c - self.b0 * bd) % p)

    def dot(self, xs, ys):
        acc = (0, 0)
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, y))
        return acc

    def star(self, x):
        # w^p = -b0 - w, the other root of the modulus
        a, b = x
        return ((a - self.b0 * b) % self.p, -b % self.p)


# F_4, F_9, F_25, F_49 and F_{p^2} for the largest prime p below 10^9
QUAD_FIELDS = [F4, F9, F25, quad_ext_field(7), quad_ext_field(999_999_937)]


@pytest.mark.parametrize("field", QUAD_FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_quad_ext_index_rules_match_pair_formulas(field, data):
    p, ref = field.p, _PairRules(field)
    pair = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    x, y = data.draw(pair), data.draw(pair)
    xs = data.draw(st.lists(pair, min_size=1, max_size=6))
    ys = data.draw(st.lists(pair, min_size=len(xs), max_size=len(xs)))

    def index(v):
        return v[0] * p + v[1]

    u, v = index(x), index(y)
    assert field.element_at(u).value == u and divmod(u, p) == x
    for rule in ("add", "sub", "mul"):
        got = getattr(field, rule)(u, v)
        assert type(got) is int and divmod(got, p) == getattr(ref, rule)(x, y)
    assert divmod(field.neg(u), p) == ref.neg(x)
    assert divmod(field.star(u), p) == ref.star(x)
    if u:  # the inverse, checked by the reference product
        assert ref.mul(x, divmod(field.inv(u), p)) == (1, 0)
    assert field.is_zero(u) is (x == (0, 0))
    assert divmod(field.dot(list(map(index, xs)), list(map(index, ys))), p) == ref.dot(xs, ys)
    # the token spells the pair, and parses back to the index
    s = Scalar(field, u)
    assert s.token() == f"{x[0]}+{x[1]}w" and field.parse(s.token()) == s


@pytest.mark.parametrize("field", QUAD_FIELDS[:4], ids=lambda f: f.name)
def test_quad_ext_enumeration_is_pair_order(field):
    # element_at walks the pairs (a, b) lexicographically, a the most
    # significant, so the raw value of element i is i
    p = field.p
    pairs = list(itertools.product(range(p), repeat=2))
    assert [divmod(s.value, p) for s in field.elements()] == pairs
    assert [s.value for s in field.elements()] == list(range(p * p))
    assert [s.token() for s in field.elements()] == [f"{a}+{b}w" for a, b in pairs]


_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def _dot_operands(draw, field):
    """Two sequences of 1 to 6 scalars of field, zero terms included.  Q(i)
    parts reach 10^40, and the denominators of the products x*y are all
    equal, pairwise different, or free."""
    k = draw(st.integers(1, 6))
    if field is not GAUSSIAN:
        terms = st.lists(st.one_of(st.just(field.zero()), scalars(field)),
                         min_size=k, max_size=k)
        return draw(terms), draw(terms)
    dens = st.integers(1, BIG)
    shape = draw(st.sampled_from(["equal", "unequal", "free"]))
    if shape == "equal":
        xden, yden = [draw(dens)] * k, [draw(dens)] * k
    elif shape == "unequal":
        # distinct primes: no product denominator equals the running one
        xden, yden = draw(st.permutations(_PRIMES))[:k], [1] * k
    else:
        xden = draw(st.lists(dens, min_size=k, max_size=k))
        yden = draw(st.lists(dens, min_size=k, max_size=k))

    def term(d):
        if draw(st.integers(0, 4)) == 0:
            return GAUSSIAN.zero()
        # gcd(p*d + 1, d) = 1, so (p*d + 1, q, d) is canonical with denominator d
        return Scalar(GAUSSIAN, (draw(st.integers(-BIG, BIG)) * d + 1,
                                 draw(st.integers(-BIG, BIG)), d))

    return [term(d) for d in xden], [term(d) for d in yden]


# F_2, and fields whose residues reach 2^61 and 2^64, so that the one
# reduction at the end of a finite-field dot sees sums far beyond p.  Over
# F_{2^64 - 59}^2 the modulus is w^2 + 2 (ext_c = 2, ext_b = 0); F_4 has ext_b = 1.
DOT_FIELDS = ALL_FIELDS + [F2, prime_field(2**61 - 1), quad_ext_field(2**64 - 59)]


@pytest.mark.parametrize("field", DOT_FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_dot_matches_pairwise_fold(field, data):
    xs, ys = data.draw(_dot_operands(field))
    fold = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        fold = fold + x * y
    got = field.dot([x.value for x in xs], [y.value for y in ys])
    assert got == fold.value and type(got) is type(fold.value)
    if field is GAUSSIAN:
        _parts(Scalar(field, got))  # a canonical triple


@st.composite
def _square_matrices(draw, field):
    """Two n x n matrices of field, n from 1 to 3, zero entries included;
    the second is sometimes a copy of the first."""
    n = draw(st.integers(1, 3))
    grid = st.lists(st.lists(st.one_of(st.just(field.zero()), scalars(field)),
                             min_size=n, max_size=n), min_size=n, max_size=n)
    a = Matrix(field, draw(grid))
    return a, Matrix(field, a.rows) if draw(st.booleans()) else Matrix(field, draw(grid))


@pytest.mark.parametrize("field", DOT_FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_matrix_on_raw_values_matches_scalar_entries(field, data):
    # oracle: each operation taken entry by entry on the Scalar view, a
    # difference as a sum with the negation, so no field's sub rule is used
    a, b = data.draw(_square_matrices(field))
    x, y = a.rows, b.rows
    n = len(x)

    def fold(i, j):
        acc = x[i][0] * y[0][j]
        for t in range(1, n):
            acc = acc + x[i][t] * y[t][j]
        return acc

    cases = [
        (a * b, [[fold(i, j) for j in range(n)] for i in range(n)]),
        (a - b, [[u + -v for u, v in zip(r, s)] for r, s in zip(x, y)]),
        (-a, [[-u for u in r] for r in x]),
        (a.star(), [[x[j][i].star() for j in range(n)] for i in range(n)]),
    ]
    for got, entries in cases:
        want = Matrix(field, entries)
        assert got.rows == want.rows and got == want and hash(got) == hash(want)
    assert (a == b) is (x == y) and (b == a) is (x == y)
    if x == y:
        assert hash(a) == hash(b)
    for m in (a, b, *(got for got, _ in cases)):
        assert Matrix(field, m.rows) == m
        assert all(e.field is field for row in m.rows for e in row)


def test_inv_of_zero_raises():
    for f in ALL_FIELDS:
        with pytest.raises(ZeroDivisionError):
            f.zero().inv()


def test_star_examples():
    assert GAUSSIAN.gaussian(3, 4, 5, 5).star().token() == "3/5-4/5i"
    assert F11.from_int(7).star() == F11.from_int(7)
    assert F4.parse("1w").star().token() == "1+1w"


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
    fixed = {divmod(s.value, field.p) for s in field.elements() if s.star() == s}
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
    # the raw value of a + b*w is its index a*p + b
    assert F4.parse("1w") == Scalar(F4, 0 * 2 + 1)
    assert F4.parse("1") == Scalar(F4, 1 * 2 + 0)
    assert F9.parse("4+5w") == Scalar(F9, 1 * 3 + 2)


@pytest.mark.parametrize("field,token", [
    (RATIONAL, "1.5"),
    (RATIONAL, "x"),
    (RATIONAL, "1/0"),
    (GAUSSIAN, "1+i+1"),
    (F3, "1/2"),
    (F4, "1+2"),
    (F4, "w+1"),
    # digits outside ASCII: Arabic-Indic one and two, a fullwidth three
    (RATIONAL, "\u0661"),
    (RATIONAL, "1/\u0662"),
    (GAUSSIAN, "1+\u0661i"),
    (GAUSSIAN, "\u0662i"),
    (F3, "\uff13"),
    (F4, "\u0661"),
    (F4, "1+\u0661w"),
    (F4, "\u0661w"),
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
    # a float equal to a small prime, before any test builds F_37
    with pytest.raises(ValueError):
        FieldDescriptor(FieldKind.PRIME, 37.0)
    assert prime_field(37).name == "F_37"


def test_descriptor_interning():
    # the constructor returns the factory's field, the one object per (kind, p)
    for field in (RATIONAL, GAUSSIAN, prime_field(3), quad_ext_field(3)):
        assert FieldDescriptor(field.kind, field.p) is field
    built = FieldDescriptor(FieldKind.PRIME, 3)
    a = Matrix.from_ints(built, [[1, 2], [0, 1]])
    b = Matrix.from_ints(prime_field(3), [[1, 2], [0, 1]])
    assert a == b and a * b == Matrix.from_ints(F3, [[1, 1], [0, 1]])
    assert prime_field(3) is prime_field(3)
    assert quad_ext_field(2) is quad_ext_field(2)
    assert prime_field(3) is not prime_field(7)
    for field in ALL_FIELDS:
        assert pickle.loads(pickle.dumps(field)) is field
        assert copy.deepcopy(field.one()).field is field


def test_threads_building_one_field_get_one_object():
    # primes no other test builds, so each is first made here, by every
    # thread at once; a lost race would hand two threads different objects
    primes = [p for p in range(10**6 + 1, 10**6 + 200, 2) if is_prime(p)]
    workers = 8
    barrier = threading.Barrier(workers)
    got = [None] * workers

    def build(k):
        barrier.wait(timeout=10)
        got[k] = [FieldDescriptor(FieldKind.QUAD_EXT, p) for p in primes]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for p, fields in zip(primes, zip(*got)):
        assert all(f is quad_ext_field(p) for f in fields)


def test_enumeration_order():
    assert [s.token() for s in F3.elements()] == ["0", "1", "2"]
    assert [divmod(s.value, 2) for s in F4.elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [s.value for s in F4.elements()] == [0, 1, 2, 3]
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
    assert list(others) == [u for u in nonzero if u * u.star() != one]
    # the norm-1 group: +-1 in F_p, the p + 1 roots of u^(p+1) = 1 in F_{p^2}
    quad = field.kind is FieldKind.QUAD_EXT
    assert len(units) == (field.p + 1 if quad else len({1, field.p - 1}))


def test_scalar_pools_served_by_index():
    # F_{997^2}: the pools are read by index, never listed in full
    field = quad_ext_field(997)
    units, others = field.unitary_scalars(), field.non_unitary_scalars()
    one, p = field.one(), field.p
    assert len(units) == p + 1 and len(others) == p * p - 1 - (p + 1)
    assert all(u * u.star() == one for u in units)
    indices = [u.value for u in units]
    assert indices == sorted(set(indices)) and 0 not in indices
    rng = random.Random(5)
    for k in [0, 1, len(others) - 1, -1, *(rng.randrange(len(others)) for _ in range(200))]:
        u = others[k]
        k %= len(others)
        # the k-th unit of norm != 1: k + 1 nonzero indices at or below it,
        # less the norm-1 ones
        assert u * u.star() != one and not u.is_zero()
        assert u.value == k + 1 + sum(i < u.value for i in indices)
    for k in (len(others), -len(others) - 1):
        with pytest.raises(IndexError):
            others[k]


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
