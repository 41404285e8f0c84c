"""Dense exact matrices over one involutive field.

The ring under study is M_n(F) with the conjugate-transpose involution.  The
public ring interface is square-only; rectangular shapes appear solely as the
two factors of a full-rank factorization.  All operations are pure and
matrices are immutable, so values can be shared freely.

Inside a `product_memo()` block, products, differences, negations, adjoints
and row reductions are remembered by the value of their operands, so asking
again for one, on the same or on equal matrices, returns the stored result;
the results are the same values as without the memo.  A sweep opens one such
block per element.

A product that is only compared is not built: `products_equal` decides an
equality of products entry by entry and stops at the first entry that
differs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, eq

from .starfield import (FieldDescriptor, FieldMismatchError, Scalar, ScalarParseError,
                        parse_ring_header)

# Exhaustive finite-ring runs and exact rational growth stay at desk scale.
MAX_DIMENSION = 6


class ShapeError(ValueError):
    """Dimension mismatch or unsupported shape."""


class MatrixParseError(ValueError):
    """Text input does not match the matrix format."""


class Matrix:
    """An immutable rows-of-scalars grid over a single field."""

    __slots__ = ("field", "rows", "_hash")

    def __init__(self, field: FieldDescriptor, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ShapeError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        if len(rows) > MAX_DIMENSION or ncols > MAX_DIMENSION:
            raise ShapeError(f"dimension above the configured cap {MAX_DIMENSION}")
        for r in rows:
            for e in r:
                if e.field is not field:
                    raise FieldMismatchError("entry from a different field")
        self.field = field
        self.rows = rows
        self._hash = None

    @classmethod
    def _unchecked(cls, field: FieldDescriptor, rows: tuple) -> "Matrix":
        # rows that already pass __init__'s checks: a non-empty tuple of
        # equal-length, non-empty tuples within the cap, of scalars of field
        m = object.__new__(cls)
        m.field, m.rows, m._hash = field, rows, None
        return m

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_ints(cls, field: FieldDescriptor, grid) -> "Matrix":
        return cls(field, [[field.from_int(k) for k in row] for row in grid])

    @classmethod
    def identity(cls, field: FieldDescriptor, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: FieldDescriptor, nrows: int, ncols: int | None = None) -> "Matrix":
        zero = field.zero()
        ncols = nrows if ncols is None else ncols
        return cls(field, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, field: FieldDescriptor, entries) -> "Matrix":
        entries = list(entries)
        zero = field.zero()
        n = len(entries)
        return cls(field, [[entries[i] if i == j else zero for j in range(n)]
                           for i in range(n)])

    # -- shape ----------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def n(self) -> int:
        if self.nrows != self.ncols:
            raise ShapeError("not a square matrix")
        return self.nrows

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        # the raw values alone (Fractions, ints or tuples of ints): __eq__
        # also asks for the same field, and hashing the Scalar wrappers and
        # their field costs a call per entry.  Kept in a slot on first use,
        # since the product memo keys on matrices by value and hashes each
        # operand at every lookup.
        if self._hash is None:
            self._hash = hash(tuple(e.value for row in self.rows for e in row))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(e.token() for e in row) for row in self.rows)
        return f"<[{body}] over {self.field.name}>"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def _check(self, other: "Matrix", same_shape=True):
        if self.field is not other.field:
            raise FieldMismatchError(f"{self.field.name} vs {other.field.name}")
        if same_shape and (self.nrows != other.nrows or self.ncols != other.ncols):
            raise ShapeError(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    # -- ring arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, [[a + b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return _recall(("-", self, other), Matrix._difference, self, other)

    def _difference(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, [[a - b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return _recall(("-", self), Matrix._negation, self)

    def _negation(self) -> "Matrix":
        return Matrix(self.field, [[-a for a in row] for row in self.rows])

    def __mul__(self, other: "Matrix") -> "Matrix":
        return _recall((self, other), Matrix._product, self, other)

    def _product(self, other: "Matrix") -> "Matrix":
        dot, cols = self._factors(other)
        return Matrix._unchecked(self.field, tuple([tuple([dot(row, col) for col in cols])
                                                    for row in self.rows]))

    def _factors(self, other: "Matrix"):
        """The entry rule and the columns of other for the product self other:
        entry (i, j) is dot(self.rows[i], cols[j]).  Raises what the product
        raises on operands of different fields or unmatched shapes."""
        self._check(other, same_shape=False)
        if len(self.rows[0]) != len(other.rows):
            raise ShapeError(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        return self.field.dot, list(zip(*other.rows))

    def __pow__(self, k: int) -> "Matrix":
        if k < 1:
            raise ValueError("power must be >= 1")
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    def star(self) -> "Matrix":
        """Conjugate transpose, the ring involution."""
        return _recall(self, Matrix._adjoint, self)

    def _adjoint(self) -> "Matrix":
        return Matrix(self.field, [[self.rows[j][i].star() for j in range(self.nrows)]
                                   for i in range(self.ncols)])

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form, rank and pivot columns, by exact Gauss-Jordan.

        Read from the one reduction of [A | I] that `try_invert` reads too.
        """
        return _recall(("rref", self), Matrix._reduction, self)[0]

    def _reduction(self) -> tuple[tuple["Matrix", int, tuple[int, ...]], "Matrix | None"]:
        """Gauss-Jordan on [A | I]: the left half ends as rref(A) (the row
        operations span whole rows, so the right half changes no pivot), and
        when A is square of full rank the right half ends as A^-1."""
        m, n = self.nrows, self.ncols
        one, zero = self.field.one(), self.field.zero()
        rows = [list(r) + [one if i == j else zero for j in range(m)]
                for i, r in enumerate(self.rows)]
        pivots = _gauss_jordan(rows, n)
        reduced = Matrix._unchecked(self.field, tuple([tuple(r[:n]) for r in rows]))
        inverse = (Matrix._unchecked(self.field, tuple([tuple(r[n:]) for r in rows]))
                   if len(pivots) == m == n else None)
        return (reduced, len(pivots), tuple(pivots)), inverse

    def rank(self) -> int:
        return self.rref()[1]

    def full_rank_factorize(self) -> "RankFactorization":
        """Write A = F G with F of full column rank and G of full row rank.

        F collects the pivot columns of A, G the nonzero rows of the reduced
        form; the zero matrix has no such factorization and is rejected.
        """
        if self.is_zero():
            raise ValueError("zero matrix has no full-rank factorization")
        reduced, rank, pivots = self.rref()
        f = Matrix(self.field, [[self.rows[i][j] for j in pivots]
                                for i in range(self.nrows)])
        g = Matrix(self.field, reduced.rows[:rank])
        return RankFactorization(f, g, rank)

    def try_invert(self) -> "Matrix | None":
        """Two-sided inverse of a square matrix, or None when rank < n: the
        right half of the reduction of [A | I] that `rref` reads."""
        self.n  # square only
        return _recall(("rref", self), Matrix._reduction, self)[1]

    # -- text format -----------------------------------------------------------

    def header(self) -> str:
        kind = self.field.kind.value
        if self.field.p is not None:
            return f"ring {kind} {self.field.p} n={self.n}"
        return f"ring {kind} n={self.n}"

    def to_text(self) -> str:
        """Header line plus n rows of whitespace-separated scalar tokens."""
        lines = [self.header()]
        lines += [" ".join(e.token() for e in row) for row in self.rows]
        return "\n".join(lines)

    def to_tokens(self) -> list[list[str]]:
        return [[e.token() for e in row] for row in self.rows]


# The open memo of this context: one dict from an operation and its operands,
# by value, to the result.  A product is keyed (x, y), an adjoint x alone, a
# difference ("-", x, y), a negation ("-", x) and a row reduction
# ("rref", x), so no two kinds share a key.  One memo per context, so threads
# sweeping at once do not share one.
_MEMO: ContextVar[dict | None] = ContextVar("starring_product_memo", default=None)


def _recall(key, compute, *operands):
    """compute(*operands), or inside a memo block the result stored under key."""
    memo = _MEMO.get()
    if memo is None:
        return compute(*operands)
    result = memo.get(key)
    if result is None:
        result = memo[key] = compute(*operands)
    return result


_VALUE = attrgetter("value")


def products_equal(lhs, rhs) -> bool:
    """lhs == rhs, where each side is a Matrix or a pair (x, y) standing for
    the product x y, without building a product that is only compared.

    The entries are compared in row order and the first that differs
    decides.  A product the open memo holds is read from it; any other is
    computed one entry at a time by the rule of `x * y`, up to that entry.
    When such a pair comes out equal to a built side (a Matrix, or a product
    the memo holds), the open memo keeps that side as the pair's product.
    A pair raises what x * y raises on different fields or unmatched shapes;
    sides of different fields or shapes are unequal, as for `==`.
    """
    memo = _MEMO.get()
    field, shape, left, left_built = _entries(lhs, memo)
    other_field, other_shape, right, right_built = _entries(rhs, memo)
    if field is not other_field or shape != other_shape:
        return False
    # equal shapes, so map reads every entry of both sides; one field, so
    # entries are equal exactly when their values are
    equal = all(map(eq, map(_VALUE, left), map(_VALUE, right)))
    if equal and memo is not None and (left_built is None) != (right_built is None):
        memo[tuple(lhs if left_built is None else rhs)] = left_built or right_built
    return equal


def _entries(side, memo):
    """The field, shape and row-order entries of a Matrix or of a pair's
    product, and their Matrix, or None for a product computed as it is read."""
    if not isinstance(side, Matrix):
        x, y = side
        side = memo.get((x, y)) if memo is not None else None
        if side is None:
            dot, cols = x._factors(y)
            rows = x.rows
            return (x.field, (len(rows), len(cols)),
                    map(dot, [row for row in rows for _ in cols], cols * len(rows)), None)
    rows = side.rows
    return side.field, (len(rows), len(rows[0])), chain.from_iterable(rows), side


@contextmanager
def product_memo():
    """Remember every product, difference, negation, adjoint and row
    reduction taken in the block, by the value of its operands, until it
    exits.

    The memo holds each distinct operation of the block and its result, so it
    suits a block of work on one element, as a sweep opens for each element
    it draws; blocks nest, the inner one starting empty.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _gauss_jordan(rows: list[list[Scalar]], ncols: int) -> list[int]:
    """Reduce the rows in place by exact Gauss-Jordan on their first ncols
    columns and return the pivot columns.

    Pivot choice is the first nonzero entry in column order; with exact
    arithmetic there is nothing to gain from magnitude pivoting.  Row
    operations span whole rows, so columns past ncols are carried along.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [inv * e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


@dataclass(frozen=True)
class RankFactorization:
    """A = F G exactly, with rank(F) = rank(G) = r = rank(A)."""

    f: Matrix
    g: Matrix
    rank: int


def parse_matrix(text: str) -> Matrix:
    """Parse the text format produced by Matrix.to_text()."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise MatrixParseError("empty input")
    head = lines[0].split()
    if len(head) < 3 or head[0] != "ring" or not head[-1].startswith("n="):
        raise MatrixParseError(f"expected 'ring <kind> [<p>] n=<dim>', got {lines[0]!r}")
    try:
        field = parse_ring_header(head[1:-1])
        digits = head[-1][2:]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"dimension {digits!r} is not a decimal number")
        n = int(digits)
    except ValueError as exc:
        raise MatrixParseError(f"bad header: {exc}") from None
    if not 1 <= n <= MAX_DIMENSION:
        raise MatrixParseError(f"dimension {n} outside 1..{MAX_DIMENSION}")
    body = lines[1:]
    if len(body) != n:
        raise MatrixParseError(f"expected {n} rows, got {len(body)}")
    rows = []
    for i, ln in enumerate(body, 1):
        tokens = ln.split()
        if len(tokens) != n:
            raise MatrixParseError(f"row {i}: expected {n} entries, got {len(tokens)}")
        try:
            rows.append([field.parse(t) for t in tokens])
        except ScalarParseError as exc:
            raise MatrixParseError(f"row {i}: {exc}") from None
    return Matrix(field, rows)


def parse_inline(field: FieldDescriptor, text: str) -> Matrix:
    """Parse 'a b; c d' style input with semicolon-separated rows."""
    rows = []
    for chunk in text.split(";"):
        tokens = chunk.split()
        if tokens:
            rows.append([field.parse(t) for t in tokens])
    if not rows:
        raise MatrixParseError("empty matrix")
    if len(rows) > MAX_DIMENSION:
        raise MatrixParseError(f"dimension {len(rows)} outside 1..{MAX_DIMENSION}")
    if any(len(r) != len(rows) for r in rows):
        raise MatrixParseError("inline matrix must be square")
    return Matrix(field, rows)
