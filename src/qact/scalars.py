"""Exact arithmetic over the Gaussian rationals Q(i).

Every number in this package is a Gaussian rational.  A scalar is stored as
an integer triple (a, b, d) representing (a + b*i)/d with d > 0 and
gcd(a, b, d) = 1, so equality is structural and nothing is ever rounded.
The common-denominator layout keeps the hot loops of the linear algebra on
plain Python ints, which is several times faster than a pair of Fractions.

The operators +, * and == are one Python call deep: a Scalar operand is
used as it is, and each result is reduced by one gcd(a, b, d) and allocated
in place.  x - y is x + (-y).  The other operand of +, -, *, / and == is a
Scalar or an int, and an int stands on the right: x + 1 is a Scalar, while
1 + x, x * Fraction(1, 2) and x ** 2 raise TypeError.  So a sum of Scalars
starts from ZERO, as in sum(xs, ZERO).
"""

from __future__ import annotations

from collections.abc import Callable
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt


class DivisionByZero(ZeroDivisionError):
    """Division by the zero scalar (or a zero denominator)."""


class InvalidQ(ValueError):
    """Deformation parameter is excluded: 0 or a root of unity in Q(i)."""


class ParseError(ValueError):
    """Input does not decode: scalar text off the grammar, or a JSON field of the wrong type or key.

    Carries the failure position in the text, or None if unknown.
    """

    def __init__(self, message: str, position: int | None = None):
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

    def __sub__(self, o):
        if o.__class__ is not Scalar:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        return self + _new(-o.a, -o.b, o.d)

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

    def __neg__(self):
        return _new(-self.a, -self.b, self.d)

    def inv(self) -> "Scalar":
        """Multiplicative inverse; exists iff the scalar is nonzero."""
        if not (self.a or self.b):
            raise DivisionByZero("inverse of zero")
        n = self.a * self.a + self.b * self.b
        return Scalar(self.a * self.d, -self.b * self.d, n)

    # -- predicates and ordering ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, o) -> bool:
        if o.__class__ is not Scalar:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        # An integer hashes as the int it equals.
        return hash(self.a) if self.d == 1 and not self.b else hash((self.a, self.b, self.d))

    def sort_key(self):
        """Total order on Q(i) by (re, im); used only for canonical output."""
        return (Fraction(self.a, self.d), Fraction(self.b, self.d))

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


def _coerce(x) -> Scalar | None:
    if x.__class__ is Scalar:
        return x
    if isinstance(x, int):
        return _new(x, 0, 1)
    return None


ZERO = _new(0, 0, 1)
ONE = _new(1, 0, 1)
I = _new(0, 1, 1)


def as_scalar(x) -> Scalar:
    """Coerce an int, a scalar text or a Scalar to a Scalar; any other value, a Fraction or a float, raises TypeError.

    The right operand of Scalar's operators is coerced the same way, except that a text is no operand.
    """
    s = _coerce(x)
    if s is not None:
        return s
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def smallest_admissible(admissible: Callable[[Scalar], bool]) -> Scalar:
    """The smallest integer n >= 2 at which admissible holds."""
    n = 2
    while not admissible(as_scalar(n)):
        n += 1
    return as_scalar(n)


def exact_sqrt(z: Scalar) -> Scalar | None:
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
# with rational = sign? int ('/' posint)?, where int and posint are ASCII
# digits 0-9.  A missing coefficient before 'i' means 1.  Space, tab, LF and
# CR may lead or trail the scalar; no other character, Unicode whitespace
# included, is trimmed.  Canonical output always prints an explicit
# coefficient.

_SPACE = " \t\n\r"


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


def int_from_digits(text: str) -> int:
    """The int of a signed run of decimal digits: int(Decimal(text)) is exact and, as _frac_text, has no digit limit."""
    return int(Decimal(text))


def parse_scalar(text: str) -> Scalar:
    s = text
    n = len(s)
    pos = 0
    while pos < n and s[pos] in _SPACE:
        pos += 1
    end = n
    while end > pos and s[end - 1] in _SPACE:
        end -= 1
    if pos >= end:
        raise ParseError("empty scalar", pos)

    value, imag, pos = _parse_term(s, pos, end)
    if not imag and pos < end and s[pos] in "+-":
        im, imag, pos = _parse_term(s, pos, end)
        if not imag:
            raise ParseError("expected imaginary part", pos)
        value = value + im
    if pos != end:
        raise ParseError("unexpected trailing characters", pos)
    return value


def _parse_term(s: str, pos: int, end: int):
    """One signed term as (Scalar, is imaginary, end): a rational, optionally followed by 'i', or a bare 'i'."""
    sign = 1
    if pos < end and s[pos] in "+-":
        if s[pos] == "-":
            sign = -1
        pos += 1
    if pos < end and s[pos] == "i":
        return Scalar(0, sign), True, pos + 1
    num, pos = _parse_int(s, pos, end)
    den = 1
    if pos < end and s[pos] == "/":
        start = pos + 1
        den, pos = _parse_int(s, start, end)
        if den <= 0:
            raise ParseError("denominator must be positive", start)
    if pos < end and s[pos] == "i":
        return Scalar(0, sign * num, den), True, pos + 1
    return Scalar(sign * num, 0, den), False, pos


def _parse_int(s: str, pos: int, end: int):
    start = pos
    while pos < end and "0" <= s[pos] <= "9":
        pos += 1
    if pos == start:
        raise ParseError("expected digits", start)
    return int_from_digits(s[start:pos]), pos


def _quoted(value) -> str:
    """repr(value), but a string of more than 40 characters is cut to 40 and its length given."""
    if isinstance(value, str) and len(value) > 40:
        return f"{value[:40]!r}... ({len(value)} characters)"
    return repr(value)


def scalar_from_json(data, field: str = "scalar") -> Scalar:
    """Accepts {"re": ..., "im": ...} of ints or rational strings, a scalar string, or an int.

    A missing re or im is 0, and any other key is refused.  A ParseError names
    the JSON field, e.g. "A11.rows[0][2].im", and has no position.
    """
    if isinstance(data, dict):
        unknown = [key for key in data if key not in ("re", "im")]
        if unknown:
            raise ParseError(f"{field}: unknown key {_quoted(unknown[0])}, expected re and im")
        re, im = (_rational_from_json(data.get(k, 0), f"{field}.{k}") for k in ("re", "im"))
        return re + im * I
    if isinstance(data, str):
        try:
            return parse_scalar(data)
        except ParseError as exc:
            raise ParseError(f"{field}: {exc} in {_quoted(data)}") from None
    if isinstance(data, int) and not isinstance(data, bool):
        return Scalar(data)
    raise ParseError(f"{field}: cannot decode scalar from {_quoted(data)}")


def _rational_from_json(value, field: str) -> Scalar:
    s = scalar_from_json(value, field) if isinstance(value, (int, str)) else None
    if s is None or s.b:
        raise ParseError(f"{field}: expected an int or a rational string, got {_quoted(value)}")
    return s


class Record:
    """Equality and hash field by field, over __slots__, for the records that callers compare.

    qact's records are plain classes with __slots__, immutable by
    convention as Mat is.  Records of different classes are never equal.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


# -- deformation parameter -------------------------------------------------------

# The only roots of unity in Q(i) are 1, -1, i, -i, so excluding these five
# values enforces q^m != 1 for every m >= 1 within the ground field.
EXCLUDED_Q = (ZERO, ONE, _new(-1, 0, 1), I, _new(0, -1, 1))


class DeformationParameter(Record):
    """A validated deformation parameter q with q^m != 1 for all m >= 1.

    q is coerced by as_scalar: a text off the scalar grammar raises
    ParseError, and a value of any other type TypeError.
    """

    __slots__ = ("q",)

    def __init__(self, q):
        q = as_scalar(q)
        if q in EXCLUDED_Q:
            raise InvalidQ(f"q = {format_scalar(q)} is zero or a root of unity")
        self.q = q

    @property
    def inv(self) -> Scalar:
        return self.q.inv()

    def __str__(self):
        return format_scalar(self.q)


# Validate q, rejecting 0 and the roots of unity of Q(i): the constructor itself.
validate_q = DeformationParameter
