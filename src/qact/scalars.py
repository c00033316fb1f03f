"""Exact arithmetic over the Gaussian rationals Q(i).

Every number in this package is a Gaussian rational.  A scalar is stored as
an integer triple (a, b, d) representing (a + b*i)/d with d > 0 and
gcd(a, b, d) = 1, so equality is structural and nothing is ever rounded.
The common-denominator layout keeps the hot loops of the linear algebra on
plain Python ints, which is several times faster than a pair of Fractions.

The operators +, -, * and == are one Python call deep: a Scalar operand is
used as it is, and each result is reduced by one gcd(a, b, d) and allocated
in place.  The eliminations of linalg update each entry by one fused
x.minus_product(y, f) = x - y*f.  linalg's matrix product, and its kernel
solver's products of rows with a basis, sum each entry on plain ints in the
same way.  The kernel solver's Sylvester systems L B - B R and the power
traces of action scale their operands to Gaussian integers over a common
denominator and sum on plain ints with no denominator at all.  Each
normalizes its result once.  linalg.products_vanish, the zero test of every
checked identity among products, sums on plain ints and normalizes nothing:
an entry is zero iff its a and b are.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Union


class DivisionByZero(ZeroDivisionError):
    """Division by the zero scalar (or a zero denominator)."""


class InvalidQ(ValueError):
    """Deformation parameter is excluded: 0 or a root of unity in Q(i)."""


class ParseError(ValueError):
    """Scalar text does not match the grammar; carries the failure position, or None if unknown."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message if position is None else f"{message} (position {position})")
        self.position = position


class Scalar:
    """A Gaussian rational (a + b*i)/d in canonical form."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int = 0, b: int = 0, d: int = 1):
        if d == 0:
            raise DivisionByZero("zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        self.a, self.b, self.d = a, b, d

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_rationals(cls, re: Union[int, Fraction], im: Union[int, Fraction] = 0) -> "Scalar":
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        return cls(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, o):
        if o.__class__ is not Scalar:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        d, d2 = self.d, o.d
        if d == d2:
            a, b = self.a + o.a, self.b + o.b
        else:
            a, b, d = self.a * d2 + o.a * d, self.b * d2 + o.b * d, d * d2
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        s = _alloc(Scalar)
        s.a, s.b, s.d = a, b, d
        return s

    __radd__ = __add__

    def __sub__(self, o):
        if o.__class__ is not Scalar:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        d, d2 = self.d, o.d
        if d == d2:
            a, b = self.a - o.a, self.b - o.b
        else:
            a, b, d = self.a * d2 - o.a * d, self.b * d2 - o.b * d, d * d2
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        s = _alloc(Scalar)
        s.a, s.b, s.d = a, b, d
        return s

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, o):
        if o.__class__ is not Scalar:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * o.d
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        s = _alloc(Scalar)
        s.a, s.b, s.d = a, b, d
        return s

    __rmul__ = __mul__

    def minus_product(self, y: "Scalar", f: "Scalar") -> "Scalar":
        """self - y*f for Scalars y and f, normalized once: the update of an elimination step."""
        ya, yb, fa, fb = y.a, y.b, f.a, f.b
        pa, pb, pd = ya * fa - yb * fb, ya * fb + yb * fa, y.d * f.d
        d = self.d
        if d == pd:
            a, b = self.a - pa, self.b - pb
        else:
            a, b, d = self.a * pd - pa * d, self.b * pd - pb * d, d * pd
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        s = _alloc(Scalar)
        s.a, s.b, s.d = a, b, d
        return s

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __neg__(self):
        return _new(-self.a, -self.b, self.d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inv()
            exponent = -exponent
        result = None
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return ONE if result is None else result

    def inv(self) -> "Scalar":
        """Multiplicative inverse; exists iff the scalar is nonzero."""
        if not (self.a or self.b):
            raise DivisionByZero("inverse of zero")
        n = self.a * self.a + self.b * self.b
        return _make(self.a * self.d, -self.b * self.d, n)

    # -- predicates and ordering ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __eq__(self, o) -> bool:
        if o.__class__ is not Scalar:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        # A real scalar hashes as the int or Fraction it equals.
        return hash((self.a, self.b, self.d)) if self.b else hash(Fraction(self.a, self.d))

    def sort_key(self):
        """Total order on Q(i) by (re, im); used only for canonical output."""
        return (self.re, self.im)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)

    def to_json(self) -> dict:
        return {"re": _frac_text(self.a, self.d), "im": _frac_text(self.b, self.d)}


_alloc = object.__new__


def _new(a: int, b: int, d: int) -> Scalar:
    # Fast path for values already in canonical form.
    s = _alloc(Scalar)
    s.a, s.b, s.d = a, b, d
    return s


def _make(a: int, b: int, d: int) -> Scalar:
    if d < 0:
        a, b, d = -a, -b, -d
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _new(a, b, d)


def _coerce(x) -> Union[Scalar, None]:
    if x.__class__ is Scalar:
        return x
    if isinstance(x, int):
        return _new(x, 0, 1)
    if isinstance(x, Fraction):
        return _new(x.numerator, 0, x.denominator)
    return None


ZERO = _new(0, 0, 1)
ONE = _new(1, 0, 1)
I = _new(0, 1, 1)


def as_scalar(x) -> Scalar:
    """Coerce an int, Fraction, scalar string, or Scalar to a Scalar."""
    s = _coerce(x)
    if s is not None:
        return s
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def smallest_admissible(excluded) -> Scalar:
    """The smallest integer n >= 2 that is not among the excluded scalars."""
    n = 2
    while as_scalar(n) in excluded:
        n += 1
    return as_scalar(n)


def exact_sqrt(z: Scalar) -> Optional[Scalar]:
    """A square root of z in Q(i), or None if z has none.

    For z = (m + n*i)/d^2 a root is (x + y*i)/d, x^2 = (|m+ni| + m)/2, y^2 = (|m+ni| - m)/2.
    """
    m, n = z.a * z.d, z.b * z.d
    r = isqrt(m * m + n * n)
    x, y = isqrt((r + m) // 2), isqrt((r - m) // 2)
    root = Scalar(x, y if n >= 0 else -y, z.d)
    return root if root * root == z else None


# -- text format ---------------------------------------------------------------
#
# Grammar:  rational ( (+|-) rational? 'i' )?  |  sign? rational? 'i'
# with rational = sign? int ('/' posint)?.  A missing coefficient before 'i'
# means 1.  Canonical output always prints an explicit coefficient.


def format_scalar(s: Scalar) -> str:
    re_part = _frac_text(s.a, s.d)
    if s.b == 0:
        return re_part
    sign = "+" if s.b > 0 else "-"
    return f"{re_part}{sign}{_frac_text(abs(s.b), s.d)}i"


def _frac_text(num: int, den: int) -> str:
    """num/den in lowest terms; str(Decimal(n)) is exact and has no int-to-text digit limit."""
    f = Fraction(num, den)
    if f.denominator == 1:
        return str(Decimal(f.numerator))
    return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def parse_scalar(text: str) -> Scalar:
    s = text
    n = len(s)
    pos = 0
    while pos < n and s[pos].isspace():
        pos += 1
    end = n
    while end > pos and s[end - 1].isspace():
        end -= 1
    if pos >= end:
        raise ParseError("empty scalar", pos)

    first, imag1, pos = _parse_term(s, pos, end)
    if imag1:
        re, im = Fraction(0), first
    else:
        re = first
        im = Fraction(0)
        if pos < end and s[pos] in "+-":
            second, imag2, pos = _parse_term(s, pos, end)
            if not imag2:
                raise ParseError("expected imaginary part", pos)
            im = second
    if pos != end:
        raise ParseError("unexpected trailing characters", pos)
    return Scalar.from_rationals(re, im)


def _parse_term(s: str, pos: int, end: int):
    """One signed term: a rational, optionally followed by 'i', or a bare 'i'."""
    sign = 1
    if pos < end and s[pos] in "+-":
        if s[pos] == "-":
            sign = -1
        pos += 1
    if pos < end and s[pos] == "i":
        return Fraction(sign), True, pos + 1
    num, pos = _parse_int(s, pos, end)
    den = 1
    if pos < end and s[pos] == "/":
        den, pos = _parse_int(s, pos + 1, end)
        if den <= 0:
            raise ParseError("denominator must be positive", pos)
    imag = False
    if pos < end and s[pos] == "i":
        imag = True
        pos += 1
    return Fraction(sign * num, den), imag, pos


def _parse_int(s: str, pos: int, end: int):
    start = pos
    while pos < end and s[pos].isdigit():
        pos += 1
    if pos == start:
        raise ParseError("expected digits", start)
    try:
        return int(s[start:pos]), pos
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{pos - start} digits exceed the limit of {sys.get_int_max_str_digits()}", start) from None


def _quoted(value) -> str:
    """repr(value), but a string of more than 40 characters is cut to 40 and its length given."""
    if isinstance(value, str) and len(value) > 40:
        return f"{value[:40]!r}... ({len(value)} characters)"
    return repr(value)


def scalar_from_json(data, field: str = "scalar") -> Scalar:
    """Accepts {"re": ..., "im": ...} of ints or rational strings, a scalar string, or an int.

    A ParseError names the JSON field, e.g. "A11.rows[0][2].im", and has no position.
    """
    if isinstance(data, dict):
        return Scalar.from_rationals(*(_rational_from_json(data.get(k, 0), f"{field}.{k}") for k in ("re", "im")))
    if isinstance(data, str):
        try:
            return parse_scalar(data)
        except ParseError as exc:
            raise ParseError(f"{field}: {exc} in {_quoted(data)}") from None
    if isinstance(data, int) and not isinstance(data, bool):
        return Scalar(data)
    raise ParseError(f"{field}: cannot decode scalar from {_quoted(data)}")


def _rational_from_json(value, field: str) -> Fraction:
    s = scalar_from_json(value, field) if isinstance(value, (int, str)) else None
    if s is None or s.b:
        raise ParseError(f"{field}: expected an int or a rational string, got {_quoted(value)}")
    return s.re


# -- deformation parameter -------------------------------------------------------

# The only roots of unity in Q(i) are 1, -1, i, -i, so excluding these five
# values enforces q^m != 1 for every m >= 1 within the ground field.
EXCLUDED_Q = (ZERO, ONE, _new(-1, 0, 1), I, _new(0, -1, 1))


@dataclass(frozen=True)
class DeformationParameter:
    """A validated deformation parameter q with q^m != 1 for all m >= 1."""

    q: Scalar

    def __post_init__(self):
        if self.q in EXCLUDED_Q:
            raise InvalidQ(f"q = {format_scalar(self.q)} is zero or a root of unity")

    @property
    def inv(self) -> Scalar:
        return self.q.inv()

    def __str__(self):
        return format_scalar(self.q)


def validate_q(q) -> DeformationParameter:
    """Validate q, rejecting 0 and the roots of unity of Q(i)."""
    return DeformationParameter(as_scalar(q))
