"""Exact scalar arithmetic for fields carrying an involution.

Four field families are supported: the rationals, the Gaussian rationals,
prime fields F_p, and quadratic extensions F_{p^2}.  The star map is the
identity on the rationals and on F_p, complex conjugation on the Gaussian
rationals, and the Frobenius map s -> s^p on F_{p^2}.

Each family is one subclass of `FieldDescriptor` holding all the rules for
its raw values: `add`, `sub`, `neg`, `mul`, `dot`, `inv`, `star`, `is_zero`,
`token`, `parse_value`, `from_int`, `element_at`, `name` and `size`.  A
`Scalar` is a field and a raw value; each operator is a field check plus one
call into the field; a `Matrix` holds raw values and calls the rules
directly.  `dot` is the sum of products that is one entry of a matrix
product: it takes two sequences of raw values and returns the raw value of
their sum of products.  The field also owns the scalars the harness samples:
`unitary_scalars`, `non_unitary_scalars`, `has_non_unitary_scalar` and
`random_scalar`.  A finite field generates its norm-1 group for the pools,
serves the rest of its units by index, and draws uniformly; Q and Q(i)
keep fixed pools and draw small numerators and denominators.  Ring flags
(`f32`) and matrix-file ring headers (`fp2 3`) are parsed here too; every
grammar here reads ASCII digits only.

There is one field object per (kind, p): `FieldDescriptor(kind, p)` returns
it, so two fields are equal exactly when they are the same object.

All arithmetic is exact and every value is kept in a canonical form, so
scalar equality is plain structural equality.  There are no tolerances
anywhere in this package.  A Q(i) value is one integer triple (p, q, d),
meaning (p + q*i)/d, reduced by a single gcd per operation; a Q(i) `dot`
sums its products over one common denominator and reduces once, and an F_p
or F_{p^2} `dot` sums on the integers and reduces mod p once.  Only the
token text of a Q(i) value goes through Fraction.  An F_{p^2} value a + b*w
is one int, its enumeration index a*p + b, so equal values are equal ints
and `element_at(i)` holds the raw value i.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from math import gcd


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class ScalarParseError(ValueError):
    """A token does not match the scalar grammar of its field."""


class RingParseError(ValueError):
    """A ring flag or matrix-file ring header names no supported field."""


class FieldKind(Enum):
    RATIONAL = "q"
    GAUSSIAN_RATIONAL = "qi"
    PRIME = "fp"
    QUAD_EXT = "fp2"


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015).
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError from PRIME_TEST_LIMIT on."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is beyond the primality test's bound {PRIME_TEST_LIMIT}")
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        # n is a strong probable prime to base a: a^d = 1 or a^(d 2^j) = -1
        powers = [pow(a, d << j, n) for j in range(s)]
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


def _smallest_irreducible_quadratic(p: int) -> tuple[int, int]:
    # Monic x^2 + b*x + c, first (b, c) in lexicographic order with no root
    # in F_p.  Fixing this choice makes serialization reproducible.  For odd
    # p it is irreducible exactly when b^2 - 4c is a non-residue (Euler's
    # criterion), and b = 0 already has such a c, since -4c runs over F_p.
    if p == 2:
        return 1, 1
    c = 1
    while pow(-4 * c % p, (p - 1) // 2, p) != p - 1:
        c += 1
    return 0, c


# Scalar tokens: \d under re.ASCII is [0-9] only.
_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?", re.ASCII)
_GAUSSIAN_RE = re.compile(r"([+-]?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)i\Z", re.ASCII)
_GAUSSIAN_IMAG_RE = re.compile(r"([+-]?\d+(?:/\d+)?)i\Z", re.ASCII)
_QUADEXT_RE = re.compile(r"(\d+)\+(\d+)w\Z", re.ASCII)
_QUADEXT_OMEGA_RE = re.compile(r"(\d+)w\Z", re.ASCII)
_INT_RE = re.compile(r"[+-]?\d+\Z", re.ASCII)


# The one field object of each (kind, p) made so far.
_FIELDS: dict[tuple[FieldKind, int | None], "FieldDescriptor"] = {}


class FieldDescriptor:
    """One of the four supported involutive fields.

    ``FieldDescriptor(kind, p)`` is the only way to make a field.  It returns
    the one object of the subclass for ``kind`` with modulus ``p``, built on
    first use, so fields compare by identity: scalars and matrices of two
    fields mix exactly when the fields are the same object.
    """

    kind: FieldKind
    modular = False  # True where the field takes a prime modulus p
    p = ext_b = ext_c = None

    def __new__(cls, kind: FieldKind, p: int | None = None):
        field = _FIELDS.get((kind, p))
        if field is not None:
            return field
        sub = _FIELD_CLASSES[kind]
        # p must be an int: a float such as 37.0 passes is_prime and equals
        # F_37's key
        if not (isinstance(p, int) and is_prime(p) if sub.modular else p is None):
            raise ValueError(f"{kind.value} takes {'a prime' if sub.modular else 'no'} "
                             f"modulus, got {p!r}")
        field = super().__new__(sub)
        field.p = p
        if kind is FieldKind.QUAD_EXT:
            field.ext_b, field.ext_c = _smallest_irreducible_quadratic(p)
        # two threads building one field keep the object stored first
        return _FIELDS.setdefault((kind, p), field)

    def __reduce__(self):  # copies and unpickled fields are the field itself
        return FieldDescriptor, (self.kind, self.p)

    def __repr__(self):
        if self.p is None:
            return f"FieldDescriptor({self.kind.name})"
        return f"FieldDescriptor({self.kind.name}, p={self.p})"

    def size(self) -> int | None:
        """Number of elements, or None for the infinite fields."""
        return None

    # -- element construction ------------------------------------------------

    def zero(self) -> "Scalar":
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def element_at(self, index: int) -> "Scalar":
        """The index-th element in the fixed enumeration of a finite field."""
        raise ValueError(f"{self.name} is not enumerable")

    def elements(self):
        """All elements of a finite field, in the fixed enumeration order."""
        for i in range(self.size()):
            yield self.element_at(i)

    # -- sampling (Q and Q(i) override these with fixed pools) ------------------

    def _unitary_indices(self) -> list:
        """The sorted enumeration indices of the norm-1 group, the u with
        u star(u) = 1, made without walking the field."""
        raise NotImplementedError

    def unitary_scalars(self) -> list:
        """Invertible u with u star(u) = 1; diagonal cores of SEP elements.
        Over a finite field, in enumeration order."""
        return [self.element_at(i) for i in self._unitary_indices()]

    def non_unitary_scalars(self):
        """Invertible u with u star(u) != 1; these break partial isometry.
        Over a finite field, in enumeration order, as a sequence that makes
        each element when it is read."""
        return _Complement(self, self._unitary_indices())

    def has_non_unitary_scalar(self) -> bool:
        """Whether non_unitary_scalars() is non-empty."""
        return self.size() - 1 > len(self._unitary_indices())

    def random_scalar(self, rng) -> "Scalar":
        """One scalar drawn with `rng`, a random.Random."""
        return self.element_at(rng.randrange(self.size()))

    # -- text grammar ----------------------------------------------------------

    def parse(self, token: str) -> "Scalar":
        """Parse one scalar token; inverse of Scalar.token()."""
        token = token.strip()
        try:
            return Scalar(self, self.parse_value(token))
        except ZeroDivisionError:
            raise ScalarParseError(f"zero denominator in {token!r}") from None
        except ScalarParseError:
            # repr shows what the eye cannot, such as a byte-order mark
            raise ScalarParseError(f"not a scalar over {self.name}: {token!r}") from None
        except ValueError as exc:
            # int() and Fraction() refuse tokens past the interpreter's
            # integer-string digit limit
            raise ScalarParseError(f"token of {len(token)} characters: {exc}") from None


class RationalField(FieldDescriptor):
    """Q with the identity involution; raw values are Fractions."""

    kind = FieldKind.RATIONAL
    name = "Q"
    # Builtins do not bind as methods: f.add(x, y) is operator.add(x, y).
    add, sub, neg, mul = operator.add, operator.sub, operator.neg, operator.mul
    is_zero, token = operator.not_, str

    def dot(self, xs, ys):
        # the products summed on the Fractions (a matrix row is never empty)
        return sum(map(operator.mul, xs, ys))

    def inv(self, x):
        return 1 / x

    def star(self, x):
        return x

    def parse_value(self, token):
        if not _RATIONAL_RE.fullmatch(token):
            raise ScalarParseError(token)
        return Fraction(token)

    def from_int(self, k):
        return Scalar(self, Fraction(k))

    def rational(self, num, den=1):
        return Scalar(self, Fraction(num, den))

    def unitary_scalars(self):
        return [self.one(), -self.one()]

    def non_unitary_scalars(self):
        return [self.rational(*q) for q in ((2,), (-2,), (3,), (1, 2), (-3, 2), (5, 3))]

    def has_non_unitary_scalar(self):
        return True

    def random_scalar(self, rng):
        return self.rational(rng.randint(-3, 3), rng.randint(1, 3))


def _reduced(p, q, d):
    # (p + q*i)/d with d > 0 in lowest terms: divide out gcd(p, q, d)
    g = gcd(p, q, d)
    if g == 1:
        return (p, q, d)
    return (p // g, q // g, d // g)


def _from_parts(re, im):
    # the triple of re + im*i, two Fractions
    b, e = re.denominator, im.denominator
    return _reduced(re.numerator * e, im.numerator * b, b * e)


class GaussianField(FieldDescriptor):
    """Q(i) with complex conjugation; raw values are integer triples.

    The raw value (p, q, d) is (p + q*i)/d with d > 0 and gcd(p, q, d) = 1,
    so zero is (0, 0, 1) and equal values are equal triples.  Every rule
    computes on the integers and reduces its result once.
    """

    kind = FieldKind.GAUSSIAN_RATIONAL
    name = "Q(i)"

    def add(self, x, y):
        p, q, m = x
        r, s, n = y
        if m == n:
            return _reduced(p + r, q + s, m)
        return _reduced(p * n + r * m, q * n + s * m, m * n)

    def sub(self, x, y):
        p, q, m = x
        r, s, n = y
        if m == n:
            return _reduced(p - r, q - s, m)
        return _reduced(p * n - r * m, q * n - s * m, m * n)

    def neg(self, x):
        return (-x[0], -x[1], x[2])

    def mul(self, x, y):
        # ((p + qi)/m)((r + si)/n) = (pr - qs + (ps + qr)i)/(mn)
        p, q, m = x
        r, s, n = y
        return _reduced(p * r - q * s, p * s + q * r, m * n)

    def dot(self, xs, ys):
        # sum of (pr - qs + (ps + qr)i)/(mn) over the common denominator d,
        # added straight on when mn is already d, and reduced once at the end
        re, im, d = 0, 0, 1
        for x, y in zip(xs, ys):
            p, q, m = x
            r, s, n = y
            e = m * n
            if e == d:
                re += p * r - q * s
                im += p * s + q * r
            else:
                re, im = re * e + (p * r - q * s) * d, im * e + (p * s + q * r) * d
                d *= e
        return _reduced(re, im, d)

    def inv(self, x):
        # 1/((p + qi)/m) = m(p - qi)/(p^2 + q^2)
        p, q, m = x
        return _reduced(m * p, -m * q, p * p + q * q)

    def star(self, x):
        return (x[0], -x[1], x[2])

    def is_zero(self, x):
        return not x[0] and not x[1]

    def token(self, x):
        p, q, d = x
        return f"{Fraction(p, d)}{'-' if q < 0 else '+'}{Fraction(abs(q), d)}i"

    def parse_value(self, token):
        m = _GAUSSIAN_RE.fullmatch(token)
        if m:
            return _from_parts(Fraction(m.group(1)), Fraction(m.group(2)))
        m = _GAUSSIAN_IMAG_RE.fullmatch(token)
        if m:
            return _from_parts(Fraction(0), Fraction(m.group(1)))
        if _RATIONAL_RE.fullmatch(token):
            return _from_parts(Fraction(token), Fraction(0))
        raise ScalarParseError(token)

    def from_int(self, k):
        return Scalar(self, (k, 0, 1))

    def rational(self, num, den=1):
        return Scalar(self, _from_parts(Fraction(num, den), Fraction(0)))

    def gaussian(self, re_num, im_num, re_den=1, im_den=1):
        return Scalar(self, _from_parts(Fraction(re_num, re_den), Fraction(im_num, im_den)))

    def unitary_scalars(self):
        # the units 1, -1, i, -i, then (+-a +- bi)/c on Pythagorean triples
        return [self.one(), -self.one(), self.gaussian(0, 1), self.gaussian(0, -1)] + [
            self.gaussian(sa * a, sb * b, c, c)
            for a, b, c in ((3, 4, 5), (5, 12, 13)) for sa in (1, -1) for sb in (1, -1)]

    def non_unitary_scalars(self):
        return [self.gaussian(*z) for z in ((2, 0), (0, 2), (1, 1), (1, -1), (1, 2),
                                             (1, 1, 2, 2), (3, 0))]

    def has_non_unitary_scalar(self):
        return True

    def random_scalar(self, rng):
        re_num, re_den = rng.randint(-3, 3), rng.randint(1, 3)
        im_num, im_den = rng.randint(-3, 3), rng.randint(1, 3)
        return self.gaussian(re_num, im_num, re_den, im_den)


class PrimeField(FieldDescriptor):
    """F_p with the identity involution; raw values are ints in [0, p)."""

    kind = FieldKind.PRIME
    modular = True
    is_zero, token = operator.not_, str  # builtins, as on Q

    @property
    def name(self):
        return f"F_{self.p}"

    def size(self):
        return self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def neg(self, x):
        return -x % self.p

    def mul(self, x, y):
        return x * y % self.p

    def dot(self, xs, ys):
        # the products summed on the integers and reduced once
        return sum(map(operator.mul, xs, ys)) % self.p

    def inv(self, x):
        return pow(x, self.p - 2, self.p)

    def star(self, x):
        return x

    def parse_value(self, token):
        if not _INT_RE.fullmatch(token):
            raise ScalarParseError(token)
        return int(token) % self.p

    def from_int(self, k):
        return Scalar(self, k % self.p)

    def element_at(self, index):
        if not 0 <= index < self.p:
            raise IndexError(index)
        return Scalar(self, index)

    def _unitary_indices(self):
        # u^2 = 1: +-1, one element when p = 2
        return sorted({1, self.p - 1})


class QuadExtField(FieldDescriptor):
    """F_p[w]/(w^2 + ext_b*w + ext_c) with Frobenius.

    The raw value of a + b*w is its enumeration index a*p + b, one int in
    [0, p^2), so a row of raw values is a flat tuple of ints.  Each rule
    splits its operands with one divmod by p, computes on the coefficients
    and recombines.
    """

    kind = FieldKind.QUAD_EXT
    modular = True
    is_zero = operator.not_  # a builtin, as on Q: zero is the index 0

    @property
    def name(self):
        return f"F_{self.p}^2"

    def size(self):
        return self.p * self.p

    def add(self, x, y):
        p = self.p
        a, b = divmod(x, p)
        c, d = divmod(y, p)
        return (a + c) % p * p + (b + d) % p

    def sub(self, x, y):
        p = self.p
        a, b = divmod(x, p)
        c, d = divmod(y, p)
        return (a - c) % p * p + (b - d) % p

    def neg(self, x):
        p = self.p
        a, b = divmod(x, p)
        return -a % p * p + -b % p

    def mul(self, x, y):
        # (a + b*w)(c + d*w) with w^2 = -ext_b*w - ext_c
        p = self.p
        a, b = divmod(x, p)
        c, d = divmod(y, p)
        bd = b * d
        return (a * c - self.ext_c * bd) % p * p + (a * d + b * c - self.ext_b * bd) % p

    def dot(self, xs, ys):
        # the sum of (a + b*w)(c + d*w) is sum(ac) - ext_c*sum(bd) plus
        # (sum(ad + bc) - ext_b*sum(bd))*w: three integer sums, reduced once
        p = self.p
        ac = bd = cross = 0
        for x, y in zip(xs, ys):
            a, b = divmod(x, p)
            c, d = divmod(y, p)
            ac += a * c
            bd += b * d
            cross += a * d + b * c
        return (ac - self.ext_c * bd) % p * p + (cross - self.ext_b * bd) % p

    def inv(self, x):
        # Norm s * star(s) = a^2 - ext_b*a*b + ext_c*b^2 lies in the prime
        # subfield and is nonzero, so invert there.
        p = self.p
        a, b = divmod(x, p)
        n_inv = pow((a * a - self.ext_b * a * b + self.ext_c * b * b) % p, p - 2, p)
        return (a - self.ext_b * b) * n_inv % p * p + -b * n_inv % p

    def star(self, x):
        # Frobenius: w^p is the other root of x^2 + b*x + c, namely -ext_b - w.
        p = self.p
        a, b = divmod(x, p)
        return (a - self.ext_b * b) % p * p + -b % p

    def token(self, x):
        return "{}+{}w".format(*divmod(x, self.p))

    def parse_value(self, token):
        p = self.p
        m = _QUADEXT_RE.fullmatch(token)
        if m:
            return int(m.group(1)) % p * p + int(m.group(2)) % p
        m = _QUADEXT_OMEGA_RE.fullmatch(token)
        if m:
            return int(m.group(1)) % p
        if token.isascii() and token.isdigit():
            return int(token) % p * p
        raise ScalarParseError(token)

    def from_int(self, k):
        return Scalar(self, k % self.p * self.p)

    def element_at(self, index):
        if not 0 <= index < self.p * self.p:
            raise IndexError(index)
        return Scalar(self, index)

    def _unitary_indices(self):
        # The norm-1 group is cyclic of order p + 1: the image of x -> x^(p-1)
        # = star(x) / x, whose kernel is F_p*.  So it is star(x) / x over one
        # x per coset of F_p*: 1 (raw value p) and w + c (raw c p + 1) for
        # each c in F_p.
        p = self.p
        return sorted([p] + [self.mul(self.star(x), self.inv(x)) for x in range(1, p * p, p)])


_FIELD_CLASSES = {c.kind: c for c in (RationalField, GaussianField, PrimeField, QuadExtField)}


class _Complement(Sequence):
    """The nonzero elements of a finite field whose indices are not in a
    sorted list `excluded`, in enumeration order; the k-th is made when it
    is read, its index found by bisecting the excluded ones, so
    `random.Random.choice` draws from it as from the list of them."""

    def __init__(self, field: FieldDescriptor, excluded: list):
        self.field = field
        # _below[j]: how many of these indices lie below excluded[j]
        self._below = [u - 1 - j for j, u in enumerate(excluded)]

    def __len__(self):
        return self.field.size() - 1 - len(self._below)

    def __getitem__(self, k):
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(k)
        return self.field.element_at(k + 1 + bisect_right(self._below, k))


class Scalar:
    """An element of one of the involutive fields, in canonical form.

    Canonical forms: rationals are reduced fractions with positive
    denominator (guaranteed by Fraction), Gaussian rationals are triples
    (p, q, d) with d > 0 and gcd(p, q, d) = 1, residues lie in [0, p),
    and a + b*w in F_{p^2} is the index a*p + b in [0, p^2).
    Scalars are immutable; arithmetic returns new values.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDescriptor, value):
        self.field = field
        self.value = value

    # -- basics -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.field is other.field
                and self.value == other.value)

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"<{self.token()} over {self.field.name}>"

    def is_zero(self) -> bool:
        return self.field.is_zero(self.value)

    def _check(self, other: "Scalar"):
        if self.field is not other.field:
            raise FieldMismatchError(f"{self.field.name} vs {other.field.name}")

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.field.add(self.value, other.value))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, self.field.neg(self.value))

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.field.sub(self.value, other.value))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.field.mul(self.value, other.value))

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.field.is_zero(self.value):
            raise ZeroDivisionError(f"inverse of zero in {self.field.name}")
        return Scalar(self.field, self.field.inv(self.value))

    def star(self) -> "Scalar":
        """The involution: identity, conjugation, or Frobenius by field."""
        return Scalar(self.field, self.field.star(self.value))

    # -- text grammar --------------------------------------------------------

    def token(self) -> str:
        """Canonical text form; FieldDescriptor.parse() round-trips it."""
        return self.field.token(self.value)


RATIONAL = FieldDescriptor(FieldKind.RATIONAL)
GAUSSIAN = FieldDescriptor(FieldKind.GAUSSIAN_RATIONAL)


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(FieldKind.PRIME, p)


def quad_ext_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(FieldKind.QUAD_EXT, p)


# -- ring text -----------------------------------------------------------------

def _prime(digits: str) -> int | None:
    # The prime that `digits` spells in decimal, or None.  The length is
    # checked before int(), so a huge string is refused without converting it.
    if (not (digits.isascii() and digits.isdigit())
            or len(digits) > len(str(PRIME_TEST_LIMIT))):
        return None
    p = int(digits)
    return p if p < PRIME_TEST_LIMIT and is_prime(p) else None


def parse_ring(token: str) -> FieldDescriptor:
    """Ring flags: q, qi, f<p>, f<p>2 (e.g. f3 is F_3 and f32 is F_9)."""
    if token in ("q", "qi"):
        return FieldDescriptor(FieldKind(token))
    if token.startswith("f"):
        if (p := _prime(token[1:])) is not None:
            return prime_field(p)
        if token.endswith("2") and (p := _prime(token[1:-1])) is not None:
            return quad_ext_field(p)
    raise RingParseError(f"unknown ring {token!r} (expected q, qi, f<p> or f<p>2 "
                         f"with p a prime below 3.3e24)")


def parse_ring_header(words: list[str]) -> FieldDescriptor:
    """The field of a matrix-file header 'ring <kind> [<p>] n=<dim>', from the
    words between 'ring' and 'n=<dim>': q, qi, fp <p> or fp2 <p>."""
    if words in (["q"], ["qi"]):
        return FieldDescriptor(FieldKind(words[0]))
    if len(words) == 2 and words[0] in ("fp", "fp2") and (p := _prime(words[1])) is not None:
        return FieldDescriptor(FieldKind(words[0]), p)
    raise RingParseError(f"unknown ring {' '.join(words)!r} (expected q, qi, fp <p> "
                         f"or fp2 <p> with p a prime below 3.3e24)")
