"""Ring arithmetic, elimination, factorization, and the matrix text format."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from starring.matrix import (
    MAX_DIMENSION,
    Matrix,
    MatrixParseError,
    ShapeError,
    parse_inline,
    parse_matrix,
    product_memo,
    products_equal,
)
from starring.starfield import (
    FieldKind,
    FieldMismatchError,
    GAUSSIAN,
    RATIONAL,
    prime_field,
    quad_ext_field,
)

F2 = prime_field(2)
F3 = prime_field(3)
F4 = quad_ext_field(2)

FAMILIES = [RATIONAL, GAUSSIAN, F3, F4]


def rand_scalar(field, rng):
    if field.kind is FieldKind.RATIONAL:
        return field.rational(rng.randint(-3, 3), rng.randint(1, 3))
    if field.kind is FieldKind.GAUSSIAN_RATIONAL:
        return field.gaussian(rng.randint(-3, 3), rng.randint(-3, 3),
                              rng.randint(1, 3), rng.randint(1, 3))
    return field.element_at(rng.randrange(field.size()))


def rand_matrix(field, n, rng):
    return Matrix(field, [[rand_scalar(field, rng) for _ in range(n)]
                          for _ in range(n)])


def matrices(field, max_dim=3):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.builds(
            rand_matrix, st.just(field), st.just(n),
            st.randoms(use_true_random=False)))


any_matrix = st.one_of([matrices(f) for f in FAMILIES])


# -- arithmetic ---------------------------------------------------------------

def test_identity_is_neutral():
    rng = random.Random(0)
    for field in FAMILIES:
        a = rand_matrix(field, 3, rng)
        i = Matrix.identity(field, 3)
        assert i * a == a and a * i == a


def test_idempotent_square():
    a = Matrix.from_ints(RATIONAL, [[1, 1], [0, 0]])
    assert a * a == a


def test_nilpotent_square_is_zero():
    a = Matrix.from_ints(RATIONAL, [[0, 1], [0, 0]])
    assert (a * a).is_zero()


def test_star_examples():
    d = Matrix.from_ints(RATIONAL, [[2, 0], [0, 0]])
    assert d.star() == d
    shift = Matrix.from_ints(RATIONAL, [[0, 1], [0, 0]])
    assert shift.star() == Matrix.from_ints(RATIONAL, [[0, 0], [1, 0]])
    gi = Matrix(GAUSSIAN, [[GAUSSIAN.gaussian(0, 1), GAUSSIAN.zero()],
                           [GAUSSIAN.zero(), GAUSSIAN.zero()]])
    assert gi.star() == Matrix(GAUSSIAN, [[GAUSSIAN.gaussian(0, -1), GAUSSIAN.zero()],
                                          [GAUSSIAN.zero(), GAUSSIAN.zero()]])


@pytest.mark.parametrize("field", FAMILIES, ids=lambda f: f.name)
def test_equal_matrices_hash_equal_across_routes(field):
    a = Matrix.from_ints(field, [[1, 2], [0, 1]])
    routes = [
        parse_inline(field, "1 2; 0 1"),
        a * Matrix.identity(field, 2),
        a.try_invert() * (a * a),
    ]
    for m in routes:
        assert m == a and m is not a
        assert hash(m) == hash(a)


def test_scale_and_neg():
    a = Matrix.from_ints(RATIONAL, [[1, 2], [3, 4]])
    assert a.scale(RATIONAL.from_int(-1)) == -a
    assert a - a == Matrix.zeros(RATIONAL, 2)


def test_pow():
    a = Matrix.from_ints(RATIONAL, [[1, 1], [0, 1]])
    assert a ** 1 == a
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError):
        a ** 0


# -- elimination -----------------------------------------------------------------

def test_rref_examples():
    i3 = Matrix.identity(RATIONAL, 3)
    assert i3.rref() == (i3, 3, (0, 1, 2))
    z = Matrix.zeros(RATIONAL, 2)
    assert z.rank() == 0 and z.rref()[2] == ()
    a = Matrix.from_ints(RATIONAL, [[1, 1], [0, 0]])
    red, rank, pivots = a.rref()
    assert red == a and rank == 1 and pivots == (0,)


def test_factorize_examples():
    a = Matrix.from_ints(RATIONAL, [[1, 1], [0, 0]])
    fact = a.full_rank_factorize()
    assert fact.f.to_tokens() == [["1"], ["0"]]
    assert fact.g.to_tokens() == [["1", "1"]]
    assert fact.rank == 1

    i2 = Matrix.identity(RATIONAL, 2)
    fact = i2.full_rank_factorize()
    assert fact.f == i2 and fact.g == i2 and fact.rank == 2

    b = Matrix.from_ints(RATIONAL, [[1, 0], [1, 0]])
    fact = b.full_rank_factorize()
    assert fact.f.to_tokens() == [["1"], ["1"]]
    assert fact.g.to_tokens() == [["1", "0"]]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        Matrix.zeros(RATIONAL, 2).full_rank_factorize()


def test_try_invert_examples():
    d = Matrix.from_ints(RATIONAL, [[2, 0], [0, 3]])
    inv = d.try_invert()
    assert inv.to_tokens() == [["1/2", "0"], ["0", "1/3"]]
    assert Matrix.from_ints(RATIONAL, [[1, 1], [0, 0]]).try_invert() is None
    swap = Matrix.from_ints(F2, [[0, 1], [1, 0]])
    assert swap.try_invert() == swap


@given(any_matrix)
@settings(max_examples=200)
def test_factorize_reconstructs(a):
    if not a.is_zero():
        fact = a.full_rank_factorize()
        assert fact.f * fact.g == a
        assert fact.f.rank() == fact.g.rank() == fact.rank == a.rank()


@given(any_matrix)
@settings(max_examples=150)
def test_rref_idempotent(a):
    red, rank, pivots = a.rref()
    assert red.rref() == (red, rank, pivots)


@given(any_matrix)
@settings(max_examples=150)
def test_rank_of_star(a):
    assert a.rank() == a.star().rank()


@given(any_matrix)
@settings(max_examples=150)
def test_invert_agrees_with_rank(a):
    inv = a.try_invert()
    if a.rank() == a.n:
        assert inv is not None
        i = Matrix.identity(a.field, a.n)
        assert a * inv == i and inv * a == i
    else:
        assert inv is None


def test_rank_product_bound_and_star_antihomomorphism():
    # 1000 random pairs per field family
    for field in FAMILIES:
        rng = random.Random(20260809 + (field.p or 0) + len(field.kind.value))
        for _ in range(1000):
            a = rand_matrix(field, 2, rng)
            b = rand_matrix(field, 2, rng)
            assert (a * b).star() == b.star() * a.star()
            assert (a + b).star() == a.star() + b.star()
            assert a.star().star() == a
            assert (a * b).rank() <= min(a.rank(), b.rank())


# -- shape and field discipline ------------------------------------------------

@pytest.mark.parametrize("field", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_rectangular_product_matches_textbook_sum(field, k):
    # (n x k)(k x m), k = 1 being the one-term dot of a full-rank factor
    rng = random.Random(k)
    for n, m in ((1, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
        a = Matrix(field, [[rand_scalar(field, rng) for _ in range(k)] for _ in range(n)])
        b = Matrix(field, [[rand_scalar(field, rng) for _ in range(m)] for _ in range(k)])
        textbook = [[field.zero() for _ in range(m)] for _ in range(n)]
        for i in range(n):
            for j in range(m):
                for t in range(k):
                    textbook[i][j] = textbook[i][j] + a.rows[i][t] * b.rows[t][j]
        built = Matrix(field, textbook)
        product = a * b
        assert product == built and hash(product) == hash(built)
        assert (product.field, product.nrows, product.ncols) == (field, n, m)
        assert all(type(r) is tuple for r in product.rows)
    wide = Matrix.zeros(field, k, k + 1)
    with pytest.raises(ShapeError):
        wide * wide
    with pytest.raises(FieldMismatchError):
        Matrix.identity(field, k) * Matrix.identity(F2 if field is not F2 else F3, k)


def test_shape_errors():
    a = Matrix.from_ints(RATIONAL, [[1, 2], [3, 4]])
    b = Matrix.from_ints(RATIONAL, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a * b
    with pytest.raises(ShapeError):
        Matrix(RATIONAL, [[RATIONAL.one()], [RATIONAL.one(), RATIONAL.one()]])
    with pytest.raises(ShapeError):
        Matrix.identity(RATIONAL, MAX_DIMENSION + 1)
    with pytest.raises(ShapeError):
        Matrix.from_ints(RATIONAL, [[1, 2]]).n


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Matrix.identity(F3, 2) + Matrix.identity(F2, 2)
    with pytest.raises(FieldMismatchError):
        Matrix(RATIONAL, [[F3.one()]])


# -- comparing products without building them ------------------------------------------

def _built(side):
    return side if isinstance(side, Matrix) else side[0] * side[1]


@pytest.mark.parametrize("field", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_products_equal_agrees_with_eager_equality(field, n):
    rng = random.Random(n)
    one = field.one()
    for _ in range(4):
        x, y, z = (rand_matrix(field, n, rng) for _ in range(3))
        zero = Matrix.zeros(field, n)
        xy = x * y
        xyz = xy * z
        # xyz with the entry at (i, j) changed, for every (i, j) in turn
        near = [Matrix(field, [[e + one if (r, c) == (i, j) else e
                                for c, e in enumerate(row)]
                               for r, row in enumerate(xyz.rows)])
                for i in range(n) for j in range(n)]
        cases = [((xy, z), (x, y * z)), ((x, y), xy), (xyz, xyz)]
        cases += [((xy, z), m) for m in near]
        cases += [((x, y), (x, z)), ((y, x), (z, x)), ((x, x), (y, x)),
                  ((zero, y), (zero, z))]
        for lhs, rhs in cases:
            for left, right in ((lhs, rhs), (rhs, lhs)):
                expected = _built(left) == _built(right)
                assert products_equal(left, right) is expected
                for held in (left, right):
                    with product_memo():
                        _built(held)
                        assert products_equal(left, right) is expected


def test_products_equal_reads_held_products(monkeypatch):
    x = Matrix.from_ints(GAUSSIAN, [[1, 2], [3, 4]])
    y = Matrix.from_ints(GAUSSIAN, [[0, 1], [1, 0]])
    with product_memo():
        xy, yx = x * y, y * x
        dots = []
        dot = type(GAUSSIAN).dot

        def counted_dot(self, xs, ys):
            dots.append(1)
            return dot(self, xs, ys)

        monkeypatch.setattr(type(GAUSSIAN), "dot", counted_dot)
        assert products_equal((x, y), (x, y)) and not products_equal((x, y), (y, x))
        assert dots == []
        # a side the memo does not hold is read up to its first differing entry
        assert not products_equal((x, y), (x, x)) and len(dots) == 1
        assert not products_equal(xy, (yx, x)) and len(dots) == 2
    assert products_equal(xy, (x, y))


@pytest.mark.parametrize("field", FAMILIES, ids=lambda f: f.name)
def test_products_equal_shapes_and_fields(field):
    def zeros(r, c):
        return Matrix.zeros(field, r, c)

    # shapes that differ while every entry either side has is zero
    for lhs, rhs in (((zeros(2, 2), zeros(2, 2)), zeros(3, 3)),
                     ((zeros(1, 2), zeros(2, 2)), zeros(2, 1)),
                     ((zeros(2, 1), zeros(1, 2)), (zeros(3, 1), zeros(1, 3))),
                     ((zeros(1, 3), zeros(3, 2)), (zeros(2, 3), zeros(3, 1)))):
        for left, right in ((lhs, rhs), (rhs, lhs)):
            assert products_equal(left, right) is False
    other = F2 if field is not F2 else F3
    assert products_equal((zeros(2, 2), zeros(2, 2)), Matrix.zeros(other, 2)) is False
    # a pair that cannot be multiplied raises what x * y raises
    for x, y in ((zeros(2, 3), zeros(2, 3)),
                 (Matrix.identity(field, 2), Matrix.identity(other, 2))):
        with pytest.raises((ShapeError, FieldMismatchError)) as eager:
            x * y
        for left, right in (((x, y), zeros(2, 2)), (zeros(3, 3), (x, y)),
                            ((x, y), (x, y))):
            with pytest.raises(eager.type, match=f"^{re.escape(str(eager.value))}$"):
                products_equal(left, right)


# -- text format ------------------------------------------------------------------

def test_text_round_trip_examples():
    a = Matrix(RATIONAL, [[RATIONAL.rational(1, 2), RATIONAL.zero()],
                          [RATIONAL.rational(1, 2), RATIONAL.zero()]])
    assert a.to_text() == "ring q n=2\n1/2 0\n1/2 0"
    assert parse_matrix(a.to_text()) == a

    m = Matrix.from_ints(F4, [[1, 2], [3, 0]])
    assert m.to_text().splitlines()[0] == "ring fp2 2 n=2"
    assert parse_matrix(m.to_text()) == m


@given(any_matrix)
@settings(max_examples=150)
def test_text_round_trip(a):
    assert parse_matrix(a.to_text()) == a


@pytest.mark.parametrize("text", [
    "",
    "ring zz n=2\n1 1\n1 1",
    "ring q n=2\n1 1",
    "ring q n=2\n1 1\n1",
    "ring q n=0\n",
    "ring fp n=2\n1 1\n1 1",
    "ring fp 4 n=2\n1 1\n1 1",
    "matrix q n=2\n1 1\n1 1",
])
def test_parse_matrix_rejects(text):
    with pytest.raises(MatrixParseError):
        parse_matrix(text)


def test_parse_inline():
    a = parse_inline(RATIONAL, "1/2 0; 1/2 0")
    assert a.to_tokens() == [["1/2", "0"], ["1/2", "0"]]
    with pytest.raises(MatrixParseError):
        parse_inline(RATIONAL, "1 2; 3")
    with pytest.raises(MatrixParseError):
        parse_inline(RATIONAL, "")
