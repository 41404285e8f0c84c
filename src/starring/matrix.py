"""Dense exact matrices over one involutive field.

The ring under study is M_n(F) with the conjugate-transpose involution.  The
public ring interface is square-only; rectangular shapes appear solely as the
two factors of a full-rank factorization.  All operations are pure and
matrices are immutable, so values can be shared freely.

A matrix holds its field and its entries as the field's raw values.
Products, sums, differences, negations, comparisons, equality and hashing
compute on them through the field's rules and build their results without
checking each entry again; elimination and the adjoint compute on the
Scalar view `rows` and unwrap their results.

Inside a `product_memo()` block, products, differences, negations, adjoints
and row reductions are remembered by the value of their operands, so asking
again for one, on the same or on equal matrices, returns the stored result;
the results are the same values as without the memo.  A sweep opens one such
block per element.  `*`, `-`, negation and `star` ask the memo in their own
frame; `recall` serves row reductions and projection verdicts.

A product that is only compared is not built: `products_equal` decides an
equality of products entry by entry and stops at the first entry that
differs.  That comparison is `entries_agree`, which reads two grids' entries
in step, and `product_entries` yields the entries of a product of raw rows
and columns, each computed when it is reached, so a caller holding raw rows
of its own, as the L3.1 check does, compares through them too.  Each matrix
keeps its columns in a slot filled on first use, as it keeps its hash, so a
right factor is transposed once, not once per product.

Inside a `dot_table(field)` block over a finite field F_q, every matrix
built over that field is the block's one matrix of its value
(`EntryTable.matrices`, where a sweep adopts its stream first), so a value
keeps its hash, its columns and its ids for the whole block, and memo keys
and projection-table lookups find it by identity.  A row of length k is
numbered 0 .. q^k - 1 by its base-q digits, and a matrix keeps the numbers
of its rows and of its columns in `_ids`, given on its first use in the
block (`EntryTable.ids`).  Products, comparisons of products and
differences over the field read their entries from one plane per row
length: two grids of q^k by q^k slots, the dot of rows r and c at
dots[r][c] and the number of row r - row c at differences[r][c], each
computed once, by the field's rule as it stands at its first read, and kept
until the block exits.  A row of a product is one C-level pick of its
columns' slots from the row of dots of its row.  `_product`,
`products_equal` and the L3.1 check read those picks in their own frame,
from the numbers their operands keep.  Over F_q there are q^(2k) pairs of
rows of length k, so a plane stays small beside a stream that walks that
many elements; a sweep opens a table over such a stream.  A plane costs
16 bytes per pair of rows, and a matrix numbered by the table about 0.25 KB
for its numbers and picker and 40 bytes for its place in `matrices`.  The
same table keeps the reduction of [A | I] of each matrix A over the field,
by the raw values of A, for `rref` and `try_invert`: one Gauss-Jordan run
per distinct matrix for the whole block, where the product memo keeps one
per element.  A reduction is kept as raw rows, its rows and pivots
interned, so an entry costs about 0.25 KB (its dict slot, its own tuples,
and the key when no stream matrix holds it); there are at most q^(k^2) of
k x k matrices.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain, product, starmap
from operator import eq, getitem, itemgetter

from .starfield import (FieldDescriptor, FieldMismatchError, Scalar, ScalarParseError,
                        parse_ring_header)

# Exhaustive finite-ring runs and exact rational growth stay at desk scale.
MAX_DIMENSION = 6


class ShapeError(ValueError):
    """Dimension mismatch or unsupported shape."""


class MatrixParseError(ValueError):
    """Text input does not match the matrix format."""


class Matrix:
    """An immutable grid of raw values over a single field: `values[i][j]`
    is entry (i, j) in the field's canonical form, and `rows[i][j]` as a Scalar."""

    __slots__ = ("field", "values", "_hash", "_cols", "_ids")

    def __init__(self, field: FieldDescriptor, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ShapeError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        if len(rows) > MAX_DIMENSION or ncols > MAX_DIMENSION:
            raise ShapeError(f"dimension above the configured cap {MAX_DIMENSION}")
        if any(e.field is not field for r in rows for e in r):
            raise FieldMismatchError("entry from a different field")
        self.field = field
        self.values = tuple([tuple([e.value for e in r]) for r in rows])
        self._hash = self._cols = self._ids = None

    @classmethod
    def _unchecked(cls, field: FieldDescriptor, values: tuple) -> "Matrix":
        # values that already pass __init__'s checks: a non-empty tuple of
        # equal-length, non-empty tuples within the cap, of raw values of
        # field.  Inside an entry table for field, the table's one matrix of
        # that value.
        table = _TABLE.get()
        matrices = table.matrices if table is not None and table.field is field else None
        m = None if matrices is None else matrices.get(values)
        if m is None:
            m = object.__new__(cls)
            m.field, m.values, m._hash, m._cols, m._ids = field, values, None, None, None
            if matrices is not None:
                matrices[values] = m
        return m

    @property
    def columns(self) -> tuple:
        """The columns of raw values, `values` transposed: kept in a slot on
        first use, so a matrix is transposed once however often it is a right
        factor."""
        if self._cols is None:
            self._cols = tuple(zip(*self.values))
        return self._cols

    @property
    def rows(self) -> tuple:
        """The entries as Scalars: a view built on each read and not kept."""
        field = self.field
        return tuple([tuple([Scalar(field, v) for v in r]) for r in self.values])

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_ints(cls, field: FieldDescriptor, grid) -> "Matrix":
        return cls(field, [[field.from_int(k) for k in row] for row in grid])

    @classmethod
    def identity(cls, field: FieldDescriptor, n: int) -> "Matrix":
        return cls.diagonal(field, [field.one()] * n)

    @classmethod
    def zeros(cls, field: FieldDescriptor, nrows: int, ncols: int | None = None) -> "Matrix":
        zero = field.zero()
        ncols = nrows if ncols is None else ncols
        return cls(field, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, field: FieldDescriptor, entries) -> "Matrix":
        entries, zero = list(entries), field.zero()
        return cls(field, [[e if i == j else zero for j in range(len(entries))]
                           for i, e in enumerate(entries)])

    # -- shape ----------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.values)

    @property
    def ncols(self) -> int:
        return len(self.values[0])

    @property
    def n(self) -> int:
        if self.nrows != self.ncols:
            raise ShapeError("not a square matrix")
        return self.nrows

    def __eq__(self, other):
        return self is other or (isinstance(other, Matrix) and self.field is other.field
                                 and self.values == other.values)

    def __hash__(self):
        # the raw values alone: __eq__ also asks for the same field.  Kept in
        # a slot on first use, since the product memo keys on matrices by
        # value and hashes each operand at every lookup.
        if self._hash is None:
            self._hash = hash(self.values)
        return self._hash

    def __repr__(self):
        token = self.field.token
        body = "; ".join(" ".join(map(token, row)) for row in self.values)
        return f"<[{body}] over {self.field.name}>"

    def is_zero(self) -> bool:
        return all(map(self.field.is_zero, chain.from_iterable(self.values)))

    def _check(self, other: "Matrix"):
        if self.field is not other.field:
            raise FieldMismatchError(f"{self.field.name} vs {other.field.name}")
        mine, theirs = self.values, other.values
        if len(mine) != len(theirs) or len(mine[0]) != len(theirs[0]):
            raise ShapeError(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def _entrywise(self, rule, other: "Matrix") -> tuple:
        self._check(other)
        return tuple([tuple(map(rule, ra, rb)) for ra, rb in zip(self.values, other.values)])

    # -- ring arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix._unchecked(self.field, self._entrywise(self.field.add, other))

    # The four operations the memo keeps by their operands ask it in their
    # own frame, not through `recall`: they are most of a sweep's asks.

    def __sub__(self, other: "Matrix") -> "Matrix":
        memo = _MEMO.get()
        if memo is None:
            return self._difference(other)
        if (result := memo.get(key := ("-", self, other))) is None:
            result = memo[key] = self._difference(other)
        return result

    def _difference(self, other: "Matrix") -> "Matrix":
        return Matrix._unchecked(self.field, self.difference_rows(other))

    def difference_rows(self, other: "Matrix") -> tuple:
        """The rows of raw values of self - other, which raises what `-`
        raises on operands of different fields or shapes; no Matrix and no
        memo entry is made.  An open entry table for the field supplies each
        row difference by the numbers of the two rows."""
        table = entry_table(self.field)
        if table is not None:
            self._check(other)
            mine, theirs = self._ids or table.ids(self), other._ids or table.ids(other)
            if mine is not None and theirs is not None:
                plane = table.planes[len(self.values[0])]
                return tuple(map(plane.rows.__getitem__, plane.differences_of(mine[0], theirs[0])))
        return self._entrywise(self.field.sub, other)

    def __neg__(self) -> "Matrix":
        memo = _MEMO.get()
        if memo is None:
            return self._negation()
        if (result := memo.get(key := ("-", self))) is None:
            result = memo[key] = self._negation()
        return result

    def _negation(self) -> "Matrix":
        neg = self.field.neg
        return Matrix._unchecked(self.field, tuple([tuple(map(neg, r)) for r in self.values]))

    def __mul__(self, other: "Matrix") -> "Matrix":
        memo = _MEMO.get()
        if memo is None:
            return self._product(other)
        if (result := memo.get(key := (self, other))) is None:
            result = memo[key] = self._product(other)
        return result

    def _product(self, other: "Matrix") -> "Matrix":
        field = self.field
        if field is not other.field or len(self.values[0]) != len(other.values):
            self._check_factors(other)
        table = _TABLE.get()
        if table is not None and table.field is field:
            # each row one pick of the right factor's columns from the row's dots
            mine, theirs = self._ids or table.ids(self), other._ids or table.ids(other)
            if mine is not None and theirs is not None:
                plane, rows, (_, cols, pick) = table.planes[len(other.values)], mine[0], theirs
                dots = plane.dots
                values = tuple([pick(dots[r]) for r in rows])
                if None in chain.from_iterable(values):
                    values = plane.fill(rows, cols, values)
                return table.matrices.get(values) or Matrix._unchecked(field, values)
        dot, cols = field.dot, other.columns
        return Matrix._unchecked(field, tuple([tuple([dot(row, col) for col in cols])
                                               for row in self.values]))

    def _check_factors(self, other: "Matrix"):
        """Raise what the product self other raises on operands of different
        fields or unmatched shapes."""
        if self.field is not other.field:
            raise FieldMismatchError(f"{self.field.name} vs {other.field.name}")
        if len(self.values[0]) != len(other.values):
            raise ShapeError(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")

    def __pow__(self, k: int) -> "Matrix":
        if k < 1:
            raise ValueError("power must be >= 1")
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    def star(self) -> "Matrix":
        """Conjugate transpose, the ring involution."""
        memo = _MEMO.get()
        if memo is None:
            return self._adjoint()
        if (result := memo.get(self)) is None:
            result = memo[self] = self._adjoint()
        return result

    def _adjoint(self) -> "Matrix":
        rows = self.rows
        return Matrix._unchecked(self.field, tuple([tuple([r[i].star().value for r in rows])
                                                    for i in range(self.ncols)]))

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form, rank and pivot columns, by exact Gauss-Jordan.

        Read from the one reduction of [A | I] that `try_invert` reads too:
        kept in the open entry table for the field, or else in the memo.
        """
        table = entry_table(self.field)
        if table is None:
            return recall(("rref", self), Matrix._reduction, self)[0]
        reduced, pivots, _ = table.reductions[self.values]
        return Matrix._unchecked(self.field, reduced), len(pivots), pivots

    def _reduction(self) -> tuple[tuple["Matrix", int, tuple[int, ...]], "Matrix | None"]:
        """Gauss-Jordan on [A | I]: the left half ends as rref(A) (the row
        operations span whole rows, so the right half changes no pivot), and
        when A is square of full rank the right half ends as A^-1."""
        m, n = self.nrows, self.ncols
        one, zero = self.field.one(), self.field.zero()
        rows = [list(r) + [one if i == j else zero for j in range(m)]
                for i, r in enumerate(self.rows)]
        pivots = _gauss_jordan(rows, n)
        values = [tuple([e.value for e in r]) for r in rows]
        reduced = Matrix._unchecked(self.field, tuple([r[:n] for r in values]))
        inverse = (Matrix._unchecked(self.field, tuple([r[n:] for r in values]))
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
        f = Matrix._unchecked(self.field, tuple([tuple([r[j] for j in pivots])
                                                 for r in self.values]))
        g = Matrix._unchecked(self.field, reduced.values[:rank])
        return RankFactorization(f, g, rank)

    def try_invert(self) -> "Matrix | None":
        """Two-sided inverse of a square matrix, or None when rank < n: the
        right half of the reduction of [A | I] that `rref` reads."""
        self.n  # square only
        table = entry_table(self.field)
        if table is None:
            return recall(("rref", self), Matrix._reduction, self)[1]
        inverse = table.reductions[self.values][2]
        return None if inverse is None else Matrix._unchecked(self.field, inverse)

    # -- text format -----------------------------------------------------------

    def header(self) -> str:
        kind = self.field.kind.value
        if self.field.p is not None:
            return f"ring {kind} {self.field.p} n={self.n}"
        return f"ring {kind} n={self.n}"

    def to_text(self) -> str:
        """Header line plus n rows of whitespace-separated scalar tokens."""
        token = self.field.token
        return "\n".join([self.header(), *(" ".join(map(token, row)) for row in self.values)])

    def to_tokens(self) -> list[list[str]]:
        token = self.field.token
        return [list(map(token, row)) for row in self.values]


# The open memo of this context: one dict from an operation and its operands,
# by value, to the result.  A product is keyed (x, y), an adjoint x alone, a
# difference ("-", x, y), a negation ("-", x), a row reduction ("rref", x)
# and the verdict of a full projection test, which `classify.is_projection`
# keeps, ("PE", x), so no two kinds share a key.  One memo per context, so
# threads sweeping at once do not share one.
_MEMO: ContextVar[dict | None] = ContextVar("starring_product_memo", default=None)


def recall(key, compute, *operands):
    """compute(*operands), or inside a memo block the result stored under key;
    a result is never None."""
    memo = _MEMO.get()
    if memo is None:
        return compute(*operands)
    result = memo.get(key)
    if result is None:
        result = memo[key] = compute(*operands)
    return result


def products_equal(lhs, rhs) -> bool:
    """lhs == rhs, where each side is a Matrix or a pair, the tuple (x, y),
    standing for the product x y, without building a product that is only
    compared.

    A product the open memo holds is read from it, and two built sides are
    compared as `==` compares them.  Under an open entry table for the
    field, a pair's product is read whole as raw rows, each row one pick
    from the table's row of dots by the numbers its factors keep, and
    compared as `==` compares.  Otherwise the entries are compared in row
    order and the first that differs decides; a product not built is
    computed one entry at a time by the rule of `x * y`, up to that entry.
    When such a pair comes out equal to a built side (a Matrix, or a
    product the memo holds), the open memo keeps that side as the pair's
    product.  A pair raises what x * y raises on different fields or
    unmatched shapes; sides of different fields or shapes are unequal, as
    for `==`.
    """
    memo = _MEMO.get()
    if memo is None:
        left = lhs if isinstance(lhs, Matrix) else None
        right = rhs if isinstance(rhs, Matrix) else None
    else:
        left = lhs if isinstance(lhs, Matrix) else memo.get(lhs)
        right = rhs if isinstance(rhs, Matrix) else memo.get(rhs)
    if left is not None and right is not None:
        return left is right or (left.field is right.field and left.values == right.values)
    # each side's field, shape and raw rows, None for a pair computed as it is read
    table, sides = _TABLE.get(), []
    for side, built in ((lhs, left), (rhs, right)):
        if built is not None:
            values = built.values
            sides.append((built.field, len(values), len(values[0]), values))
            continue
        x, y = side
        field, rows = x.field, None
        if field is not y.field or len(x.values[0]) != len(y.values):
            x._check_factors(y)
        if table is not None and table.field is field:
            mine, theirs = x._ids or table.ids(x), y._ids or table.ids(y)
            if mine is not None and theirs is not None:
                plane, (_, cols, pick) = table.planes[len(y.values)], theirs
                dots = plane.dots
                rows = tuple([pick(dots[r]) for r in mine[0]])
                if None in chain.from_iterable(rows):
                    rows = plane.fill(mine[0], cols, rows)
        sides.append((field, len(x.values), len(y.values[0]), rows))
    (field, m, n, rows), (other_field, other_m, other_n, other_rows) = sides
    if field is not other_field or m != other_m or n != other_n:
        return False
    if rows is None or other_rows is None:
        equal = entries_agree(_entries(lhs, rows), _entries(rhs, other_rows))
    else:
        equal = rows == other_rows
    if equal and memo is not None and (left is None) != (right is None):
        memo[lhs if left is None else rhs] = left or right
    return equal


def _entries(side, rows):
    """The entries in row order of one side of `products_equal` given its
    raw rows, or of the product of the pair side = (x, y) when rows is None,
    each computed when it is reached."""
    if rows is not None:
        return chain.from_iterable(rows)
    x, y = side
    return product_entries(x.field, x.values, y.columns)


def product_entries(field: FieldDescriptor, rows, cols):
    """The entries of the product of rows by cols, rows and columns of raw
    values over field, in row order, each computed by field.dot only when
    it is reached."""
    return starmap(field.dot, product(rows, cols))


def entries_agree(entries, other) -> bool:
    """Whether two grids of one shape and field, given by their entries in
    row order, are equal: the entries are read in step up to the first pair
    that differs, so the entries of a product past it are never computed."""
    # one field, so entries are equal exactly when their raw values are
    return all(map(eq, entries, other))


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


#: the most pairs of rows of one length an entry table keeps, q^(2k) for rows
#: of length k over F_q; a sweep opens a table only when its stream has at
#: least q^(2n) elements, at most a million
PLANE_LIMIT = 10**6


class _DotRow(list):
    """The dots of one row with each row of its length, by number, None
    until first read.  A class of its own, so that a read of a dot can be
    told from any other list read, as the tests that count entries do."""

    __slots__ = ()


def picker(cols: tuple):
    """A callable that reads the slots cols of a list, as a tuple: the
    entries of a row with the columns numbered cols, from the row's dots."""
    if len(cols) > 1:
        return itemgetter(*cols)
    col, = cols
    return lambda slots: (slots[col],)


class _Plane:
    """The rows of length k over F_q, numbered 0 .. q^k - 1 by their base-q
    digits (`numbers`, and `rows` the other way), and two grids over pairs
    of them: dots[r][c], the dot of rows r and c, and differences[r][c], the
    number of row r - row c.  A slot is None until its first read, which
    computes it by the field's rule as it stands then."""

    __slots__ = ("field", "rows", "numbers", "dots", "differences")

    def __init__(self, field: FieldDescriptor, k: int):
        self.field = field
        self.rows = list(product(range(field.size()), repeat=k))
        self.numbers = {row: r for r, row in enumerate(self.rows)}
        size = len(self.rows)
        self.dots = [_DotRow([None] * size) for _ in range(size)]
        self.differences = [[None] * size for _ in range(size)]

    def _filled(self, r: int, cols: tuple, values: tuple) -> tuple:
        """values, the dots of row r with the columns cols as read, with
        each missing one computed and kept."""
        slots, row, rows, dot = self.dots[r], self.rows[r], self.rows, self.field.dot
        out = []
        for c, value in zip(cols, values):
            # a column met twice is computed once
            if value is None and (value := slots[c]) is None:
                value = slots[c] = dot(row, rows[c])
            out.append(value)
        return tuple(out)

    def fill(self, rows: tuple, cols: tuple, values: tuple) -> tuple:
        """values, the raw rows of the product of the rows numbered rows by
        the columns numbered cols as picked from the dots, with each missing
        dot computed and kept."""
        return tuple([self._filled(r, cols, row) if None in row else row
                      for r, row in zip(rows, values)])

    def products_agree(self, rows, cols, pick, other_rows, other_cols, other_pick) -> bool:
        """Whether the product of the rows numbered rows by the columns
        numbered cols, which pick reads, equals that of other_rows by
        other_cols: read a row of each at a time, up to the first pair of
        rows that differs."""
        dots = self.dots
        for r, s in zip(rows, other_rows):
            x, y = pick(dots[r]), other_pick(dots[s])
            if None in x:
                x = self._filled(r, cols, x)
            if None in y:
                y = self._filled(s, other_cols, y)
            if x != y:
                return False
        return True

    def differences_of(self, xs, ys) -> tuple:
        """The numbers of x - y for the rows numbered x in xs and y in ys,
        taken in step."""
        out = tuple(map(getitem, map(self.differences.__getitem__, xs), ys))
        if None in out:
            grid, rows, numbers, sub = self.differences, self.rows, self.numbers, self.field.sub
            out = tuple([numbers[tuple(map(sub, rows[x], rows[y]))] if d is None else d
                         for x, y, d in zip(xs, ys, out)])
            for x, y, d in zip(xs, ys, out):
                grid[x][y] = d
        return out


class _Reductions(dict):
    """The reduction of [A | I] by the raw values of A, computed on first
    read by `Matrix._reduction` and kept as raw rows: the triple (rows of
    rref(A), pivot columns, rows of A^-1 or None).  Rows and pivot tuples
    are interned in `shared`, so an entry adds its own outer tuples only."""

    __slots__ = ("field", "shared")

    def __missing__(self, key):
        (reduced, _, pivots), inverse = Matrix._reduction(Matrix._unchecked(self.field, key))
        shared = self.shared

        def intern(t):  # equal tuples are interchangeable, rows and pivots alike
            return shared.setdefault(t, t)

        value = self[key] = (intern(tuple(map(intern, reduced.values))), intern(pivots),
                             None if inverse is None else tuple(map(intern, inverse.values)))
        return value


class _Planes(dict):
    """The plane of the rows of each length k over the field, made on first
    read, or None past PLANE_LIMIT."""

    __slots__ = ("field",)

    def __missing__(self, k):
        plane = self[k] = (_Plane(self.field, k) if self.field.size() ** (2 * k) <= PLANE_LIMIT
                           else None)
        return plane


class EntryTable:
    """The open table of one finite field F_q.

    `planes[k]` holds the dots and differences of the rows of length k by
    number, made on first use, if it has at most PLANE_LIMIT pairs of rows;
    `reductions` maps the raw values of a matrix to its reduction; and
    `matrices` maps raw values to the table's one matrix of that value,
    which `Matrix._unchecked` returns, so each matrix keeps its hash, its
    columns and the numbers of its rows and columns (`ids`) for the whole
    block.
    """

    __slots__ = ("field", "planes", "reductions", "matrices")

    def __init__(self, field: FieldDescriptor):
        if field.size() is None:
            raise ValueError(f"an entry table numbers rows over a finite field, not {field.name}")
        self.field, self.planes = field, _Planes()
        self.planes.field = field
        self.reductions = _Reductions()
        self.reductions.field, self.reductions.shared = field, {}
        self.matrices = {}

    def adopt(self, matrices):
        """Make each of `matrices` over the field the table's matrix of its
        value, the first of equal ones, unless the table has one already."""
        intern = self.matrices.setdefault
        for m in matrices:
            if m.field is self.field:
                intern(m.values, m)

    def ids(self, m: Matrix) -> tuple | None:
        """The numbers of m's rows and of its columns and a picker of its
        columns from a row of dots, kept in m; None when m's rows or columns
        have no plane."""
        ids = m._ids
        if ids is None:
            values = m.values
            rows, cols = self.planes[len(values[0])], self.planes[len(values)]
            if rows is None or cols is None:
                return None
            col_numbers = tuple(map(cols.numbers.__getitem__, zip(*values)))
            ids = m._ids = (tuple(map(rows.numbers.__getitem__, values)), col_numbers,
                            picker(col_numbers))
        return ids


# The open entry table of this context, or None: one per context, so threads
# sweeping at once do not share one.
_TABLE: ContextVar[EntryTable | None] = ContextVar("starring_dot_table", default=None)


def entry_table(field: FieldDescriptor) -> EntryTable | None:
    """The open entry table, if it is one for field."""
    table = _TABLE.get()
    return table if table is not None and table.field is field else None


@contextmanager
def dot_table(field: FieldDescriptor):
    """Read every product entry, row difference and row reduction over the
    finite field `field` from one table until the block exits, computing
    each distinct one once, and make every matrix built over `field` in the
    block the table's one matrix of its value.

    Yields the EntryTable.  Its dots and differences are read by the
    numbers of two rows or columns, and its reductions by a matrix's raw
    values, so an entry is shared by every product, difference and
    elimination that reads the same rows, whichever matrices hold them.
    Matrices over other fields compute as without the table, and so do
    rows longer than its planes reach.  The table only grows: it suits a
    block that reads few distinct rows and matrices many times, as a sweep
    of a whole finite ring does.  Blocks nest, the inner one starting empty;
    each thread has its own.
    """
    table = EntryTable(field)
    token = _TABLE.set(table)
    try:
        yield table
    finally:
        _TABLE.reset(token)


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
