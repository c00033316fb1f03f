"""Exact arithmetic over the Gaussian rationals Q(i).

Every number in this package is a Gaussian rational.  A scalar is stored as
an integer triple (a, b, d) representing (a + b*i)/d with d > 0 and
gcd(a, b, d) = 1, so equality is structural and nothing is ever rounded.
The common-denominator layout keeps the hot loops of the linear algebra on
plain Python ints, which is several times faster than a pair of Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union


class DivisionByZero(ZeroDivisionError):
    """Division by the zero scalar (or a zero denominator)."""


class InvalidQ(ValueError):
    """Deformation parameter is excluded: 0 or a root of unity in Q(i)."""


class ParseError(ValueError):
    """Scalar text does not match the grammar; carries the failure position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
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
            g = gcd(gcd(a, b), d)
            if g > 1:
                a //= g
                b //= g
                d //= g
        self.a = a
        self.b = b
        self.d = d

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

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.d, o.d
        if d1 == d2:
            if d1 == 1:
                return _new(self.a + o.a, self.b + o.b, 1)
            return _make(self.a + o.a, self.b + o.b, d1)
        return _make(self.a * d2 + o.a * d1, self.b * d2 + o.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.d, o.d
        if d1 == d2:
            if d1 == 1:
                return _new(self.a - o.a, self.b - o.b, 1)
            return _make(self.a - o.a, self.b - o.b, d1)
        return _make(self.a * d2 - o.a * d1, self.b * d2 - o.b * d1, d1 * d2)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        d = self.d * o.d
        if d == 1:
            return _new(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

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
        result = ONE
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inv(self) -> "Scalar":
        """Multiplicative inverse; exists iff the scalar is nonzero."""
        if not (self.a or self.b):
            raise DivisionByZero("inverse of zero")
        n = self.a * self.a + self.b * self.b
        return _make(self.a * self.d, -self.b * self.d, n)

    def conj(self) -> "Scalar":
        return _new(self.a, -self.b, self.d)

    # -- predicates and ordering ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def sort_key(self):
        """Total order on Q(i) by (re, im); used only for canonical output."""
        return (self.re, self.im)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}


def _new(a: int, b: int, d: int) -> Scalar:
    # Fast path for values already in canonical form.
    s = object.__new__(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _make(a: int, b: int, d: int) -> Scalar:
    if d < 0:
        a, b, d = -a, -b, -d
    if d != 1:
        g = gcd(gcd(a, b), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
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
    f = Fraction(num, den)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


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
    return int(s[start:pos]), pos


def scalar_from_json(data) -> Scalar:
    """Accepts {"re": "...", "im": "..."}, a scalar string, or an int."""
    if isinstance(data, dict):
        return Scalar.from_rationals(Fraction(data.get("re", 0)), Fraction(data.get("im", 0)))
    if isinstance(data, str):
        return parse_scalar(data)
    if isinstance(data, int):
        return Scalar(data)
    raise ParseError(f"cannot decode scalar from {data!r}", 0)


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
