import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qact import (
    DeformationParameter,
    DivisionByZero,
    InvalidQ,
    ParseError,
    Scalar,
    as_scalar,
    format_scalar,
    instantiate,
    parse_scalar,
    validate_q,
)
from qact.scalars import EXCLUDED_Q, I, ONE, ZERO, exact_sqrt

ints = st.integers(min_value=-30, max_value=30)
posints = st.integers(min_value=1, max_value=30)
scalars = st.builds(Scalar, ints, ints, posints)
nonzero_scalars = scalars.filter(bool)

# Operands of the kernel test: numerators up to 2^70 in size, denominators
# that share factors (6 and 4) or do not (2^35 and 3^40), and zero.
huge = st.integers(min_value=-(2**70), max_value=2**70)
mixed_denoms = st.sampled_from((1, 2, 3, 4, 6, 9, 2**35, 3**40)) | st.integers(min_value=1, max_value=2**70)
wide_scalars = st.just(ZERO) | st.builds(Scalar, huge, huge, mixed_denoms) | st.builds(Scalar, ints, ints, posints)


def test_spec_arithmetic_examples():
    one_plus_i = Scalar(1, 1)
    one_minus_i = Scalar(1, -1)
    assert one_plus_i * one_minus_i == Scalar(2)
    assert Scalar(2) / Scalar(2) == ONE
    assert Scalar(3, 1, 2) + Scalar(-3, -1, 2) == ZERO


def test_canonical_form():
    s = Scalar(2, 4, 6)
    assert (s.a, s.b, s.d) == (1, 2, 3)
    s = Scalar(3, -3, -6)
    assert (s.a, s.b, s.d) == (-1, 1, 2)
    assert Scalar(0, 0, 17) == ZERO


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        ZERO.inv()
    with pytest.raises(DivisionByZero):
        Scalar(1, 0, 0)


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(nonzero_scalars)
def test_multiplicative_inverse(x):
    assert x * x.inv() == ONE


@given(scalars)
def test_result_is_canonical(x):
    y = x * Scalar(6, -4, 9) + Scalar(1, 0, 7)
    assert y.d > 0
    assert gcd(gcd(abs(y.a), abs(y.b)), y.d) == 1


def test_bulk_random_triples():
    rng = random.Random(1234)
    for _ in range(1000):
        x, y, z = (Scalar(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inv() == ONE


def test_parse_examples():
    assert parse_scalar("3/2-1/2i") == Scalar(3, -1, 2)
    assert parse_scalar("0") == ZERO
    assert format_scalar(parse_scalar("7")) == "7"


def test_parse_lenient_imaginary():
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("1+i") == Scalar(1, 1)
    assert parse_scalar("2i") == Scalar(0, 2)


# Digits are ASCII 0-9 only: Arabic-Indic two, mathematical double-struck
# two, N'Ko two and superscript two are no digits of the grammar.
NON_ASCII_DIGITS = ["\u0662", "\U0001d7da", "\u07c2", "\u00b2"]


# Only space, tab, LF and CR are trimmed: a file separator, NEL, an
# ideographic space or a no-break space is read as a character of the scalar.
UNICODE_SPACES = ["\x1c3\x85", "  2\u3000", "\xa02", "2\x0b", "\u20283"]


@pytest.mark.parametrize("bad", ["", "3//2", "1+", "abc", "1+2", "1/0", "2x", "1+1i3"] + NON_ASCII_DIGITS
                         + UNICODE_SPACES)
def test_parse_errors(bad):
    with pytest.raises(ParseError) as err:
        parse_scalar(bad)
    assert err.value.position >= 0


@pytest.mark.parametrize("text, position", [("1/0", 2), ("1/0+2i", 2), ("3+1/00i", 4), (" 1/0 ", 3)])
def test_zero_denominator_names_its_first_digit(text, position):
    # As every other digit error, the position is the first character of the token.
    with pytest.raises(ParseError) as err:
        parse_scalar(text)
    assert (str(err.value), err.value.position) == (f"denominator must be positive (position {position})", position)


def test_only_ascii_whitespace_is_trimmed():
    from qact.scalars import scalar_from_json

    assert parse_scalar(" \t\n\r3/2-1/2i\r\n\t ") == Scalar(3, -1, 2)
    for text, error, position in (("\x1c3\x85", "expected digits", 0),
                                  ("  2\u3000", "unexpected trailing characters", 3),
                                  ("\xa02", "expected digits", 0),
                                  ("2\x0b", "unexpected trailing characters", 1),
                                  (" \u20283", "expected digits", 1)):
        with pytest.raises(ParseError) as err:
            parse_scalar(text)
        assert (str(err.value), err.value.position) == (f"{error} (position {position})", position), repr(text)
    for data, field, text, error in (("\xa02", "q", "\xa02", "expected digits (position 0)"),
                                     ({"re": "2\u3000"}, "q.re", "2\u3000",
                                      "unexpected trailing characters (position 1)")):
        with pytest.raises(ParseError) as err:
            scalar_from_json(data, "q")
        assert str(err.value) == f"{field}: {error} in {text!r}"


@pytest.mark.parametrize("digit", NON_ASCII_DIGITS)
def test_non_ascii_digits_are_expected_digits(digit):
    from qact.scalars import scalar_from_json

    for text, position in ((digit, 0), (f" {digit}", 1), (f"1/{digit}", 2), (f"1+{digit}i", 2), (f"-{digit}i", 1)):
        with pytest.raises(ParseError) as err:
            parse_scalar(text)
        assert (str(err.value), err.value.position) == (f"expected digits (position {position})", position), text
    for data, error in ((digit, f"q: expected digits (position 0) in {digit!r}"),
                        ({"re": digit}, f"q.re: expected digits (position 0) in {digit!r}"),
                        ({"im": f"1/{digit}"}, f"q.im: expected digits (position 2) in {f'1/{digit}'!r}")):
        with pytest.raises(ParseError) as err:
            scalar_from_json(data, "q")
        assert str(err.value) == error


@given(scalars)
def test_format_round_trip(s):
    assert parse_scalar(format_scalar(s)) == s


def test_format_canonical():
    assert format_scalar(Scalar(0, 1)) == "0+1i"
    assert format_scalar(Scalar(-3, 0, 2)) == "-3/2"
    assert format_scalar(Scalar(1, -1, 3)) == "1/3-1/3i"


def test_json_round_trip():
    from qact.scalars import scalar_from_json

    s = Scalar(3, -1, 2)
    assert s.to_json() == {"re": "3/2", "im": "-1/2"}
    assert scalar_from_json(s.to_json()) == s
    assert scalar_from_json("3/2-1/2i") == s
    assert scalar_from_json(5) == Scalar(5)


def test_json_object_refuses_unknown_keys():
    from qact.scalars import scalar_from_json

    assert scalar_from_json({"re": "2"}) == Scalar(2)  # a missing key is 0
    assert scalar_from_json({}) == Scalar(0)
    for data, key in (({"re": "1", "IM": "2"}, "'IM'"), ({"real": "1"}, "'real'"), ({"im": "1", "x": 0}, "'x'")):
        with pytest.raises(ParseError) as refused:
            scalar_from_json(data, "q")
        assert str(refused.value) == f"q: unknown key {key}, expected re and im"
        assert refused.value.position is None


# -- decoding against a Fraction reference ------------------------------------------

wide_fractions = st.fractions(max_denominator=30) | st.builds(
    Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))


def _rational_text(draw, f: Fraction) -> str:
    """f as sign? int ('/' posint)?, possibly unreduced, with '+' or '/1' drawn."""
    k = draw(st.integers(1, 6))
    num, den = f.numerator * k, f.denominator * k
    sign = "-" if num < 0 else draw(st.sampled_from(("", "+")))
    tail = "" if den == 1 and draw(st.booleans()) else f"/{den}"
    return f"{sign}{abs(num)}{tail}"


@st.composite
def scalar_texts(draw):
    """(text, re, im): re and im in each form of the grammar, with whitespace around."""
    re, im = draw(wide_fractions), draw(wide_fractions)
    form = draw(st.sampled_from(("a/b", "a/b+c/di", "c/di", "i")))
    if form == "a/b":
        text, im = _rational_text(draw, re), Fraction(0)
    elif form == "a/b+c/di":
        text = _rational_text(draw, re) + ("-" if im < 0 else "+") + _rational_text(draw, abs(im)).lstrip("+") + "i"
    elif form == "c/di":
        text, re = _rational_text(draw, im) + "i", Fraction(0)
    else:
        text = draw(st.sampled_from(("i", "+i", "-i")))
        re, im = Fraction(0), Fraction(-1 if text == "-i" else 1)
    pad = st.text(" \t\n", max_size=2)
    return draw(pad) + text + draw(pad), re, im


@st.composite
def scalar_objects(draw):
    """(object, re, im): {"re": ..., "im": ...} of ints or rational strings, a zero part sometimes left out."""
    re, im = draw(wide_fractions), draw(wide_fractions)
    data = {}
    for key, f in (("re", re), ("im", im)):
        if f or draw(st.booleans()):
            whole = f.denominator == 1 and draw(st.booleans())
            data[key] = f.numerator if whole else _rational_text(draw, f)
    return data, re, im


@given(scalar_texts() | scalar_objects())
def test_decoding_matches_fraction_reference(case):
    from qact.scalars import scalar_from_json

    data, re, im = case
    decoded = [scalar_from_json(data)] + ([parse_scalar(data)] if isinstance(data, str) else [])
    for s in decoded:
        assert (Fraction(s.a, s.d), Fraction(s.b, s.d)) == (re, im), data


def test_validate_q_accepts_and_rejects():
    assert validate_q(2).q == Scalar(2)
    assert validate_q(Scalar(1, 1)).q == Scalar(1, 1)
    assert validate_q(Scalar(0, 2)).q == Scalar(0, 2)  # 2i is no root of unity
    assert validate_q(Scalar(1, 0, 2)).q == Scalar(1, 0, 2)
    for bad in (0, 1, -1, I, -I):
        with pytest.raises(InvalidQ):
            validate_q(bad)


def test_deformation_parameters_compare_by_value():
    assert DeformationParameter(2) == DeformationParameter(Scalar(2)) == validate_q("2")
    assert hash(DeformationParameter(2)) == hash(DeformationParameter(Scalar(2))) == hash(validate_q("2"))
    assert validate_q(2) != validate_q(3) and validate_q(2) != Scalar(2)


def test_deformation_parameter_coerces_its_value():
    """The constructor coerces q as validate_q does: the inverse, an entry built on it, and each refusal."""
    q = DeformationParameter(2)
    assert q.q.__class__ is Scalar and q.inv == Scalar(1, 0, 2)
    assert instantiate("S1", q) == instantiate("S1", validate_q(2))
    with pytest.raises(InvalidQ):
        DeformationParameter(1)
    with pytest.raises(ParseError):
        DeformationParameter("abc")
    with pytest.raises(TypeError):
        DeformationParameter(2.5)


def test_validate_q_rejects_exactly_the_roots_of_unity():
    assert len(EXCLUDED_Q) == 5
    for s in EXCLUDED_Q:
        assert not s or (s * s * s * s) == ONE


@given(st.integers(-30, 30), st.integers(1, 30))
def test_validate_q_accepts_generic_rationals(num, den):
    f = Fraction(num, den)
    if f != 0 and abs(f.numerator) != f.denominator:
        assert validate_q(Scalar(num, 0, den)).q == Scalar(f.numerator, 0, f.denominator)


def test_scalar_arith_dispatch():
    a, b = Scalar(3, 1, 2), Scalar(1, -1)
    assert a + b == Scalar(5, -1, 2)
    assert a - b == Scalar(1, 3, 2)
    assert a * b == Scalar(2, -1)
    assert a / b == Scalar(1, 2, 2)


def test_int_and_fraction_coercion():
    assert Scalar(3) + 1 == Scalar(4)
    assert Scalar(1, 1) * 2 == Scalar(2, 2)
    assert Scalar(1) / 2 == Scalar(1, 0, 2)
    assert Scalar(0, 1) - 1 == Scalar(-1, 1)
    assert as_scalar(3) == Scalar(3) == 3 and as_scalar("1/2") == Scalar(1, 0, 2)


def test_hash_agrees_with_equality():
    assert hash(Scalar(2)) == hash(2) and len({Scalar(2), 2}) == 1
    assert hash(Scalar(-3, 0, 2)) == hash((-3, 0, 2)) and len({Scalar(-3, 0, 2), Scalar(-6, 0, 4)}) == 1
    assert hash(Scalar(1, 2, 3)) == hash((1, 2, 3))


@given(scalars)
def test_exact_sqrt_of_a_square(s):
    root = exact_sqrt(s * s)
    assert root is not None and root * root == s * s


def test_exact_sqrt_examples():
    assert exact_sqrt(Scalar(0, 2)) == Scalar(1, 1)
    assert exact_sqrt(Scalar(-4)) == Scalar(0, 2)
    for z in (Scalar(2), Scalar(-2), Scalar(0, 1), Scalar(1, 1), Scalar(3, 0, 4)):
        assert exact_sqrt(z) is None


# -- the one-call kernel against a reference in Fraction parts -------------------


def parts(x):
    return (Fraction(x.a, x.d), Fraction(x.b, x.d)) if isinstance(x, Scalar) else (Fraction(x), Fraction(0))


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def assert_canonical(s):
    assert s.d > 0 and gcd(s.a, s.b, s.d) == 1
    if not (s.a or s.b):
        assert (s.a, s.b, s.d) == (0, 0, 1)


@given(wide_scalars, wide_scalars, wide_scalars)
def test_kernel_matches_fraction_reference(x, y, f):
    px, py, pf = parts(x), parts(y), parts(f)
    for got, want in (
        (x + y, ref_add(px, py)),
        (x - y, ref_sub(px, py)),
        (x * y, ref_mul(px, py)),
        (x.minus_product(y, f), ref_sub(px, ref_mul(py, pf))),
    ):
        assert_canonical(got)
        assert parts(got) == want
    assert (x == y) is (px == py)
    assert x == Scalar(x.a * 7, x.b * 7, x.d * 7)


@given(wide_scalars, huge)
def test_int_and_fraction_operands_on_either_side(x, r):
    # An int operand stands on the right; on the left it raises TypeError.
    px, pr = parts(x), parts(r)
    for got, want in (
        (x + r, ref_add(px, pr)),
        (x - r, ref_sub(px, pr)),
        (x * r, ref_mul(px, pr)),
    ):
        assert isinstance(got, Scalar)
        assert_canonical(got)
        assert parts(got) == want
    assert (x == r) is (r == x) is (px == pr)


@pytest.mark.parametrize("other", ["1", 1.5, Fraction(1, 2)])
def test_str_and_float_operands_raise_type_error(other):
    x = Scalar(1, 2, 3)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    # An int is a scalar operand only on the right, a Fraction nowhere, and no Scalar has a power.
    for form in (lambda: 1 + x, lambda: 2 * x, lambda: 1 - x, lambda: 1 / x, lambda: x ** 2,
                 lambda: as_scalar(Fraction(1, 2))):
        with pytest.raises(TypeError):
            form()
