import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qact import (
    DivisionByZero,
    InvalidQ,
    ParseError,
    Scalar,
    as_scalar,
    format_scalar,
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
    assert x ** -1 == x.inv()


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


def test_powers():
    q = Scalar(2)
    assert q ** 0 == ONE
    assert q ** 3 == Scalar(8)
    assert q ** -2 == Scalar(1, 0, 4)
    assert I ** 2 == Scalar(-1)


@pytest.mark.parametrize("x", [Scalar(2), Scalar(-3, 1, 2), Scalar(1, -2, 3), I], ids=str)
def test_powers_match_repeated_multiplication(x, monkeypatch):
    expected = {0: ONE}
    for e in range(1, 10):
        expected[e] = expected[e - 1] * x
        expected[-e] = expected[1 - e] * x.inv()
    products = []
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: products.append((a, b)) or mul(a, b))
    for e in range(-6, 10):
        products.clear()
        assert x ** e == expected[e], e
        # One squaring per bit after the first and one product per further
        # set bit: no product by one, and no squaring past the last bit.
        assert len(products) == max(abs(e).bit_length() + bin(abs(e)).count("1") - 2, 0), e


def test_parse_examples():
    assert parse_scalar("3/2-1/2i") == Scalar(3, -1, 2)
    assert parse_scalar("0") == ZERO
    assert format_scalar(parse_scalar("7")) == "7"


def test_parse_lenient_imaginary():
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("1+i") == Scalar(1, 1)
    assert parse_scalar("2i") == Scalar(0, 2)


@pytest.mark.parametrize("bad", ["", "3//2", "1+", "abc", "1+2", "1/0", "2x", "1+1i3"])
def test_parse_errors(bad):
    with pytest.raises(ParseError) as err:
        parse_scalar(bad)
    assert err.value.position >= 0


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


def test_validate_q_accepts_and_rejects():
    assert validate_q(2).q == Scalar(2)
    assert validate_q(Scalar(1, 1)).q == Scalar(1, 1)
    assert validate_q(Scalar(0, 2)).q == Scalar(0, 2)  # 2i is no root of unity
    assert validate_q(Fraction(1, 2)).q == Scalar(1, 0, 2)
    for bad in (0, 1, -1, I, -I):
        with pytest.raises(InvalidQ):
            validate_q(bad)


def test_validate_q_rejects_exactly_the_roots_of_unity():
    assert len(EXCLUDED_Q) == 5
    for s in EXCLUDED_Q:
        assert s.is_zero or (s * s * s * s) == ONE


@given(st.integers(-30, 30), st.integers(1, 30))
def test_validate_q_accepts_generic_rationals(num, den):
    f = Fraction(num, den)
    if f != 0 and abs(f.numerator) != f.denominator:
        assert validate_q(f).q == as_scalar(f)


def test_scalar_arith_dispatch():
    a, b = Scalar(3, 1, 2), Scalar(1, -1)
    assert a + b == Scalar(5, -1, 2)
    assert a - b == Scalar(1, 3, 2)
    assert a * b == Scalar(2, -1)
    assert a / b == Scalar(1, 2, 2)


def test_int_and_fraction_coercion():
    assert Scalar(3) + 1 == Scalar(4)
    assert 2 * Scalar(1, 1) == Scalar(2, 2)
    assert Scalar(1) / 2 == Scalar(1, 0, 2)
    assert Scalar(1) + Fraction(1, 2) == Scalar(3, 0, 2)
    assert 1 - Scalar(0, 1) == Scalar(1, -1)


def test_hash_agrees_with_equality():
    assert hash(Scalar(2)) == hash(2) and len({Scalar(2), 2}) == 1
    assert hash(Scalar(-3, 0, 2)) == hash(Fraction(-3, 2)) and len({Scalar(-3, 0, 2), Fraction(-3, 2)}) == 1
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
    return (x.re, x.im) if isinstance(x, Scalar) else (Fraction(x), Fraction(0))


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


@given(st.lists(st.tuples(wide_scalars, wide_scalars), max_size=6))
def test_fused_dot_matches_fraction_reference(pairs):
    got = Scalar.dot([x for x, _ in pairs], [y for _, y in pairs])
    want = (Fraction(0), Fraction(0))
    for x, y in pairs:
        want = ref_add(want, ref_mul(parts(x), parts(y)))
    assert_canonical(got)
    assert parts(got) == want


@given(wide_scalars, huge | st.fractions(max_denominator=2**40))
def test_int_and_fraction_operands_on_either_side(x, r):
    px, pr = parts(x), parts(r)
    for got, want in (
        (x + r, ref_add(px, pr)),
        (r + x, ref_add(px, pr)),
        (x - r, ref_sub(px, pr)),
        (r - x, ref_sub(pr, px)),
        (x * r, ref_mul(px, pr)),
        (r * x, ref_mul(px, pr)),
    ):
        assert isinstance(got, Scalar)
        assert_canonical(got)
        assert parts(got) == want
    assert (x == r) is (r == x) is (px == pr)


@pytest.mark.parametrize("other", ["1", 1.5])
def test_str_and_float_operands_raise_type_error(other):
    x = Scalar(1, 2, 3)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
