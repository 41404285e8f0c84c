"""Exact scalar arithmetic for fields carrying an involution.

Four field families are supported: the rationals, the Gaussian rationals,
prime fields F_p, and quadratic extensions F_{p^2}.  The star map is the
identity on the rationals and on F_p, complex conjugation on the Gaussian
rationals, and the Frobenius map s -> s^p on F_{p^2}.

All arithmetic is exact and every value is kept in a canonical form, so
scalar equality is plain structural equality.  There are no tolerances
anywhere in this package.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class ScalarParseError(ValueError):
    """A token does not match the scalar grammar of its field."""


class FieldKind(Enum):
    RATIONAL = "q"
    GAUSSIAN_RATIONAL = "qi"
    PRIME = "fp"
    QUAD_EXT = "fp2"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _smallest_irreducible_quadratic(p: int) -> tuple[int, int]:
    # Monic x^2 + b*x + c, first (b, c) in lexicographic order with no root
    # in F_p.  Fixing this choice makes serialization reproducible.
    for b in range(p):
        for c in range(p):
            if all((x * x + b * x + c) % p for x in range(p)):
                return b, c
    raise ValueError(f"no irreducible quadratic over F_{p}")  # unreachable for prime p


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_GAUSSIAN_RE = re.compile(r"([+-]?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)i\Z")
_GAUSSIAN_IMAG_RE = re.compile(r"([+-]?\d+(?:/\d+)?)i\Z")
_QUADEXT_RE = re.compile(r"(\d+)\+(\d+)w\Z")
_QUADEXT_OMEGA_RE = re.compile(r"(\d+)w\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


class FieldDescriptor:
    """One of the four supported involutive fields.

    Instances are interned: ``FieldDescriptor.get(kind, p)`` returns the same
    object for the same arguments, so scalar operations can compare fields by
    identity.
    """

    __slots__ = ("kind", "p", "ext_b", "ext_c")

    _cache: dict[tuple[FieldKind, int | None], "FieldDescriptor"] = {}

    def __init__(self, kind: FieldKind, p: int | None = None):
        if kind in (FieldKind.PRIME, FieldKind.QUAD_EXT):
            if p is None or not is_prime(p):
                raise ValueError(f"{kind.value} needs a prime modulus, got {p!r}")
        elif p is not None:
            raise ValueError(f"{kind.value} takes no modulus")
        self.kind = kind
        self.p = p
        if kind is FieldKind.QUAD_EXT:
            self.ext_b, self.ext_c = _smallest_irreducible_quadratic(p)
        else:
            self.ext_b = self.ext_c = None

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

    def __repr__(self):
        if self.p is None:
            return f"FieldDescriptor({self.kind.name})"
        return f"FieldDescriptor({self.kind.name}, p={self.p})"

    @property
    def name(self) -> str:
        return {
            FieldKind.RATIONAL: "Q",
            FieldKind.GAUSSIAN_RATIONAL: "Q(i)",
            FieldKind.PRIME: f"F_{self.p}",
            FieldKind.QUAD_EXT: f"F_{self.p}^2" if self.p else "F_p^2",
        }[self.kind]

    def size(self) -> int | None:
        """Number of elements, or None for the infinite fields."""
        if self.kind is FieldKind.PRIME:
            return self.p
        if self.kind is FieldKind.QUAD_EXT:
            return self.p * self.p
        return None

    def is_finite(self) -> bool:
        return self.size() is not None

    # -- element construction ------------------------------------------------

    def zero(self) -> "Scalar":
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, k: int) -> "Scalar":
        if self.kind is FieldKind.RATIONAL:
            return Scalar(self, Fraction(k))
        if self.kind is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self, (Fraction(k), Fraction(0)))
        if self.kind is FieldKind.PRIME:
            return Scalar(self, k % self.p)
        return Scalar(self, (k % self.p, 0))

    def rational(self, num: int, den: int = 1) -> "Scalar":
        if self.kind is FieldKind.RATIONAL:
            return Scalar(self, Fraction(num, den))
        if self.kind is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self, (Fraction(num, den), Fraction(0)))
        raise ValueError(f"rational() not meaningful over {self.name}")

    def gaussian(self, re_num, im_num, re_den: int = 1, im_den: int = 1) -> "Scalar":
        if self.kind is not FieldKind.GAUSSIAN_RATIONAL:
            raise ValueError(f"gaussian() not meaningful over {self.name}")
        return Scalar(self, (Fraction(re_num, re_den), Fraction(im_num, im_den)))

    def residue_pair(self, x: int, y: int) -> "Scalar":
        if self.kind is not FieldKind.QUAD_EXT:
            raise ValueError(f"residue_pair() not meaningful over {self.name}")
        return Scalar(self, (x % self.p, y % self.p))

    def element_at(self, index: int) -> "Scalar":
        """The index-th element in the fixed enumeration of a finite field."""
        size = self.size()
        if size is None:
            raise ValueError(f"{self.name} is not enumerable")
        if not 0 <= index < size:
            raise IndexError(index)
        if self.kind is FieldKind.PRIME:
            return Scalar(self, index)
        return Scalar(self, divmod(index, self.p))

    def elements(self):
        """All elements of a finite field, in the fixed enumeration order."""
        for i in range(self.size()):
            yield self.element_at(i)

    # -- text grammar ----------------------------------------------------------

    def parse(self, token: str) -> "Scalar":
        """Parse one scalar token; inverse of Scalar.token()."""
        token = token.strip()
        try:
            if self.kind is FieldKind.RATIONAL:
                if not _RATIONAL_RE.fullmatch(token):
                    raise ScalarParseError(token)
                return Scalar(self, Fraction(token))
            if self.kind is FieldKind.GAUSSIAN_RATIONAL:
                m = _GAUSSIAN_RE.fullmatch(token)
                if m:
                    return Scalar(self, (Fraction(m.group(1)), Fraction(m.group(2))))
                m = _GAUSSIAN_IMAG_RE.fullmatch(token)
                if m:
                    return Scalar(self, (Fraction(0), Fraction(m.group(1))))
                if _RATIONAL_RE.fullmatch(token):
                    return Scalar(self, (Fraction(token), Fraction(0)))
                raise ScalarParseError(token)
            if self.kind is FieldKind.PRIME:
                if not _INT_RE.fullmatch(token):
                    raise ScalarParseError(token)
                return Scalar(self, int(token) % self.p)
            m = _QUADEXT_RE.fullmatch(token)
            if m:
                return Scalar(self, (int(m.group(1)) % self.p, int(m.group(2)) % self.p))
            m = _QUADEXT_OMEGA_RE.fullmatch(token)
            if m:
                return Scalar(self, (0, int(m.group(1)) % self.p))
            if token.isdigit():
                return Scalar(self, (int(token) % self.p, 0))
            raise ScalarParseError(token)
        except ZeroDivisionError:
            raise ScalarParseError(f"zero denominator in {token!r}") from None
        except ScalarParseError:
            raise
        except ValueError as exc:
            # int() and Fraction() refuse tokens past the interpreter's
            # integer-string digit limit
            raise ScalarParseError(f"token of {len(token)} characters: {exc}") from None


class Scalar:
    """An element of one of the involutive fields, in canonical form.

    Canonical forms: rationals are reduced fractions with positive
    denominator (guaranteed by Fraction), residues lie in [0, p).  Scalars
    are immutable; arithmetic returns new values.
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
        k = self.field.kind
        if k is FieldKind.RATIONAL or k is FieldKind.PRIME:
            return not self.value
        return not self.value[0] and not self.value[1]

    def is_one(self) -> bool:
        return self == self.field.one()

    def _check(self, other: "Scalar"):
        if self.field is not other.field:
            raise FieldMismatchError(f"{self.field.name} vs {other.field.name}")

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        k = self.field.kind
        if k is FieldKind.RATIONAL:
            return Scalar(self.field, self.value + other.value)
        if k is FieldKind.PRIME:
            return Scalar(self.field, (self.value + other.value) % self.field.p)
        a, b = self.value
        c, d = other.value
        if k is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self.field, (a + c, b + d))
        p = self.field.p
        return Scalar(self.field, ((a + c) % p, (b + d) % p))

    def __neg__(self) -> "Scalar":
        k = self.field.kind
        if k is FieldKind.RATIONAL:
            return Scalar(self.field, -self.value)
        if k is FieldKind.PRIME:
            return Scalar(self.field, (-self.value) % self.field.p)
        a, b = self.value
        if k is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self.field, (-a, -b))
        p = self.field.p
        return Scalar(self.field, ((-a) % p, (-b) % p))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        k = self.field.kind
        if k is FieldKind.RATIONAL:
            return Scalar(self.field, self.value * other.value)
        if k is FieldKind.PRIME:
            return Scalar(self.field, (self.value * other.value) % self.field.p)
        a, b = self.value
        c, d = other.value
        if k is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self.field, (a * c - b * d, a * d + b * c))
        # (a + b*w)(c + d*w) with w^2 = -ext_b*w - ext_c
        p = self.field.p
        bd = b * d
        return Scalar(
            self.field,
            ((a * c - self.field.ext_c * bd) % p,
             (a * d + b * c - self.field.ext_b * bd) % p),
        )

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero in {self.field.name}")
        k = self.field.kind
        if k is FieldKind.RATIONAL:
            return Scalar(self.field, 1 / self.value)
        if k is FieldKind.PRIME:
            return Scalar(self.field, pow(self.value, self.field.p - 2, self.field.p))
        a, b = self.value
        if k is FieldKind.GAUSSIAN_RATIONAL:
            n = a * a + b * b
            return Scalar(self.field, (a / n, -b / n))
        # Norm s * star(s) = a^2 - ext_b*a*b + ext_c*b^2 lies in the prime
        # subfield and is nonzero, so invert there.
        p = self.field.p
        n = (a * a - self.field.ext_b * a * b + self.field.ext_c * b * b) % p
        n_inv = pow(n, p - 2, p)
        return Scalar(self.field, (((a - self.field.ext_b * b) * n_inv) % p,
                                   ((-b) * n_inv) % p))

    def star(self) -> "Scalar":
        """The involution: identity, conjugation, or Frobenius by field."""
        k = self.field.kind
        if k is FieldKind.RATIONAL or k is FieldKind.PRIME:
            return self
        a, b = self.value
        if k is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self.field, (a, -b))
        # Frobenius: w^p is the other root of x^2 + b*x + c, namely -ext_b - w.
        p = self.field.p
        return Scalar(self.field, ((a - self.field.ext_b * b) % p, (-b) % p))

    # -- text grammar --------------------------------------------------------

    def token(self) -> str:
        """Canonical text form; FieldDescriptor.parse() round-trips it."""
        k = self.field.kind
        if k is FieldKind.RATIONAL:
            return str(self.value)
        if k is FieldKind.PRIME:
            return str(self.value)
        a, b = self.value
        if k is FieldKind.GAUSSIAN_RATIONAL:
            sign = "-" if b < 0 else "+"
            return f"{a}{sign}{abs(b)}i"
        return f"{a}+{b}w"


RATIONAL = FieldDescriptor.get(FieldKind.RATIONAL)
GAUSSIAN = FieldDescriptor.get(FieldKind.GAUSSIAN_RATIONAL)


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor.get(FieldKind.PRIME, p)


def quad_ext_field(p: int) -> FieldDescriptor:
    return FieldDescriptor.get(FieldKind.QUAD_EXT, p)
