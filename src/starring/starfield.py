"""Exact scalar arithmetic for fields carrying an involution.

Four field families are supported: the rationals, the Gaussian rationals,
prime fields F_p, and quadratic extensions F_{p^2}.  The star map is the
identity on the rationals and on F_p, complex conjugation on the Gaussian
rationals, and the Frobenius map s -> s^p on F_{p^2}.

Each family is one subclass of `FieldDescriptor` holding all the rules for
its raw values: `add`, `neg`, `mul`, `inv`, `star`, `is_zero`, `token`,
`parse_value`, `from_int`, `element_at`, `name` and `size`.  A `Scalar` is a
descriptor and a raw value; each operator is a field check plus one call
into the descriptor.  The field also owns the scalars the harness samples:
`unitary_scalars`, `non_unitary_scalars`, `has_non_unitary_scalar` and
`random_scalar`.  A finite field walks its elements for the pools and draws
uniformly; Q and Q(i) keep fixed pools and draw small numerators and
denominators.  Ring flags (`f32`) and matrix-file ring headers
(`fp2 3`) are parsed here too.

All arithmetic is exact and every value is kept in a canonical form, so
scalar equality is plain structural equality.  There are no tolerances
anywhere in this package.  A Q(i) value is one integer triple (p, q, d),
meaning (p + q*i)/d, reduced by a single gcd per operation; only its token
text goes through Fraction.
"""

from __future__ import annotations

import operator
import re
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


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_GAUSSIAN_RE = re.compile(r"([+-]?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)i\Z")
_GAUSSIAN_IMAG_RE = re.compile(r"([+-]?\d+(?:/\d+)?)i\Z")
_QUADEXT_RE = re.compile(r"(\d+)\+(\d+)w\Z")
_QUADEXT_OMEGA_RE = re.compile(r"(\d+)w\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


class FieldDescriptor:
    """One of the four supported involutive fields.

    ``FieldDescriptor(kind, p)`` builds the subclass for ``kind``.  Instances
    are interned: ``FieldDescriptor.get(kind, p)`` returns the same object
    for the same arguments, so scalar operations can compare fields by
    identity.
    """

    kind: FieldKind
    modular = False  # True where the field takes a prime modulus p
    p = ext_b = ext_c = None

    _cache: dict[tuple[FieldKind, int | None], "FieldDescriptor"] = {}

    def __new__(cls, kind: FieldKind, p: int | None = None):
        return super().__new__(_FIELD_CLASSES[kind])

    def __init__(self, kind: FieldKind, p: int | None = None):
        if (p is None) == self.modular or (self.modular and not is_prime(p)):
            raise ValueError(f"{kind.value} takes {'a prime' if self.modular else 'no'} "
                             f"modulus, got {p!r}")
        self.p = p

    @classmethod
    def get(cls, kind: FieldKind, p: int | None = None) -> "FieldDescriptor":
        key = (kind, p)
        desc = cls._cache.get(key)
        if desc is None:
            desc = cls._cache[key] = cls(kind, p)
        return desc

    def __eq__(self, other):
        return (
            isinstance(other, FieldDescriptor)
            and self.kind is other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __reduce__(self):  # copies and unpickled fields stay interned
        return FieldDescriptor.get, (self.kind, self.p)

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

    def _not_meaningful(self, *args):
        raise ValueError(f"not meaningful over {self.name}")

    rational = gaussian = residue_pair = _not_meaningful

    def element_at(self, index: int) -> "Scalar":
        """The index-th element in the fixed enumeration of a finite field."""
        raise ValueError(f"{self.name} is not enumerable")

    def elements(self):
        """All elements of a finite field, in the fixed enumeration order."""
        for i in range(self.size()):
            yield self.element_at(i)

    # -- sampling (Q and Q(i) override these with fixed pools) ------------------

    def _walk(self, unitary: bool):
        # the invertible u with (u star(u) == 1) == unitary, lazily
        one = self.one()
        return (u for u in self.elements()
                if not u.is_zero() and (u * u.star() == one) is unitary)

    def unitary_scalars(self) -> list:
        """Invertible u with u star(u) = 1; diagonal cores of SEP elements."""
        return list(self._walk(True))

    def non_unitary_scalars(self) -> list:
        """Invertible u with u star(u) != 1; these break partial isometry."""
        return list(self._walk(False))

    def has_non_unitary_scalar(self) -> bool:
        """Whether non_unitary_scalars() is non-empty, stopping at the first
        witness instead of walking the whole field."""
        return next(self._walk(False), None) is not None

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
    add, neg, mul, is_zero, token = operator.add, operator.neg, operator.mul, operator.not_, str

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

    def neg(self, x):
        return (-x[0], -x[1], x[2])

    def mul(self, x, y):
        # ((p + qi)/m)((r + si)/n) = (pr - qs + (ps + qr)i)/(mn)
        p, q, m = x
        r, s, n = y
        return _reduced(p * r - q * s, p * s + q * r, m * n)

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

    def neg(self, x):
        return -x % self.p

    def mul(self, x, y):
        return x * y % self.p

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


class QuadExtField(FieldDescriptor):
    """F_p[w]/(w^2 + ext_b*w + ext_c) with Frobenius; raw (a, b) is a + b*w."""

    kind = FieldKind.QUAD_EXT
    modular = True

    def __init__(self, kind: FieldKind, p: int | None = None):
        super().__init__(kind, p)
        self.ext_b, self.ext_c = _smallest_irreducible_quadratic(p)

    @property
    def name(self):
        return f"F_{self.p}^2"

    def size(self):
        return self.p * self.p

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def neg(self, x):
        return (-x[0] % self.p, -x[1] % self.p)

    def mul(self, x, y):
        # (a + b*w)(c + d*w) with w^2 = -ext_b*w - ext_c
        (a, b), (c, d) = x, y
        p, bd = self.p, b * d
        return ((a * c - self.ext_c * bd) % p, (a * d + b * c - self.ext_b * bd) % p)

    def inv(self, x):
        # Norm s * star(s) = a^2 - ext_b*a*b + ext_c*b^2 lies in the prime
        # subfield and is nonzero, so invert there.
        a, b = x
        p = self.p
        n_inv = pow((a * a - self.ext_b * a * b + self.ext_c * b * b) % p, p - 2, p)
        return ((a - self.ext_b * b) * n_inv % p, -b * n_inv % p)

    def star(self, x):
        # Frobenius: w^p is the other root of x^2 + b*x + c, namely -ext_b - w.
        a, b = x
        return ((a - self.ext_b * b) % self.p, -b % self.p)

    def is_zero(self, x):
        return not x[0] and not x[1]

    def token(self, x):
        return f"{x[0]}+{x[1]}w"

    def parse_value(self, token):
        p = self.p
        m = _QUADEXT_RE.fullmatch(token)
        if m:
            return (int(m.group(1)) % p, int(m.group(2)) % p)
        m = _QUADEXT_OMEGA_RE.fullmatch(token)
        if m:
            return (0, int(m.group(1)) % p)
        if token.isdigit():
            return (int(token) % p, 0)
        raise ScalarParseError(token)

    def from_int(self, k):
        return Scalar(self, (k % self.p, 0))

    def residue_pair(self, x, y):
        return Scalar(self, (x % self.p, y % self.p))

    def element_at(self, index):
        if not 0 <= index < self.p * self.p:
            raise IndexError(index)
        return Scalar(self, divmod(index, self.p))


_FIELD_CLASSES = {c.kind: c for c in (RationalField, GaussianField, PrimeField, QuadExtField)}


class Scalar:
    """An element of one of the involutive fields, in canonical form.

    Canonical forms: rationals are reduced fractions with positive
    denominator (guaranteed by Fraction), Gaussian rationals are triples
    (p, q, d) with d > 0 and gcd(p, q, d) = 1, residues lie in [0, p).
    Scalars are immutable; arithmetic returns new values.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDescriptor, value):
        self.field = field
        self.value = value

    # -- basics -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.field is other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.field.kind, self.field.p, self.value))

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
        f = self.field
        return Scalar(f, f.add(self.value, f.neg(other.value)))

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


RATIONAL = FieldDescriptor.get(FieldKind.RATIONAL)
GAUSSIAN = FieldDescriptor.get(FieldKind.GAUSSIAN_RATIONAL)


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor.get(FieldKind.PRIME, p)


def quad_ext_field(p: int) -> FieldDescriptor:
    return FieldDescriptor.get(FieldKind.QUAD_EXT, p)


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
        return FieldDescriptor.get(FieldKind(token))
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
        return FieldDescriptor.get(FieldKind(words[0]))
    if len(words) == 2 and words[0] in ("fp", "fp2") and (p := _prime(words[1])) is not None:
        return FieldDescriptor.get(FieldKind(words[0]), p)
    raise RingParseError(f"unknown ring {' '.join(words)!r} (expected q, qi, fp <p> "
                         f"or fp2 <p> with p a prime below 3.3e24)")
