import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import is_zero_matrix, reference_gammas
from qact import (
    Mat,
    MalformedExpression,
    Scalar,
    build_model,
    default_model,
    eval_gamma_expr,
    selftest,
)
from qact.clifford import eval_expr

E4 = Mat.identity(4)


def ev(text, model):
    return eval_gamma_expr(text, model.atoms)


def test_selftest_passes(model):
    report = selftest(model)
    assert report.ok
    names = [c.name for c in report.checks]
    assert names == ["anticommutators", "unit_products", "unit_resolution", "units_are_standard"]


def test_gamma_texts_give_the_pauli_generators():
    assert build_model().gamma == reference_gammas()


def test_metric_relations(model):
    g = model.gamma
    assert g[0] * g[0] == E4
    for k in (1, 2, 3):
        assert g[k] * g[k] == E4.scale(-1)
    assert is_zero_matrix(g[1] * g[2] + g[2] * g[1])
    assert is_zero_matrix(g[0] * g[3] + g[3] * g[0])


def test_units_equal_standard_units(model):
    for i in range(1, 5):
        for j in range(1, 5):
            assert model.unit(i, j) == Mat.unit(4, i, j)


def test_unit_products_exhaustive(model):
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                for l in range(1, 5):
                    expected = model.unit(i, l) if j == k else Mat.zero(4)
                    assert model.unit(i, j) * model.unit(k, l) == expected


def test_e11_product_expression(model):
    g0, g1, g2, _ = model.gamma
    g12 = g1 * g2
    lhs = (E4 + g0) * (E4 + g12.scale(Scalar(0, 1)))
    assert lhs.scale(Scalar(1, 0, 4)) == Mat.unit(4, 1, 1)


def test_eval_examples(model):
    assert ev("(1-g0)*(1-i*g12)", model) == Mat.unit(4, 4, 4).scale(4)
    assert ev("(1+g0)*(1+i*g12)", model) == Mat.unit(4, 1, 1).scale(4)
    assert ev("1", model) == E4


INVARIANT_FORMS = [
    ("(1-g0)*(-g1+i*g2)*g3", (4, 3)),
    ("(1-g0)*(1-i*g12)", (4, 4)),
    ("(1-g0)*(1+i*g12)", (3, 3)),
    ("(1+g0)*(1-i*g12)", (2, 2)),
    ("(1+g0)*(g1+i*g2)*g3", (1, 2)),
    ("(1+g0)*(1+i*g12)", (1, 1)),
    ("(1-g0)*(g1+i*g2)*g3", (3, 4)),
]


@pytest.mark.parametrize("text,unit", INVARIANT_FORMS)
def test_invariant_forms_hit_single_units(text, unit, model):
    assert ev(text, model) == model.unit(*unit).scale(4)


def test_all_sixteen_unit_expressions(model):
    from qact.clifford import UNIT_EXPRESSIONS

    for (i, j), text in UNIT_EXPRESSIONS.items():
        assert ev(text, model) == Mat.unit(4, i, j), (i, j)


def test_scalar_coefficients_in_grammar(model):
    assert ev("3/2*g0", model) == model.gamma[0].scale(Scalar(3, 0, 2))
    assert is_zero_matrix(ev("2*g1*g2 - 2*g12", model))
    assert ev("i*i", model) == E4.scale(-1)
    assert ev("(1-g0)*(1-g0)", model) == ev("2*(1-g0)", model)
    assert ev("g0/(4)", model) == ev("g0/4", model)


# Precedence levels of the generated expressions: an operand whose level is
# below what its operator needs is parenthesised, and no other is.
SUM, PRODUCT, UNARY, ATOM = range(4)
G0, G1, G2, G3 = build_model().gamma  # not self-tested, so a wrong generator fails tests, not collection
ATOMS = {"g0": G0, "g1": G1, "g2": G2, "g3": G3, "g12": G1 * G2, "i": E4.scale(Scalar(0, 1))}
BINARY = {"+": (SUM, Mat.__add__), "-": (SUM, Mat.__sub__), "*": (PRODUCT, Mat.__mul__)}


def _wrap(part, needed):
    text, level, _ = part
    return f"({text})" if level < needed else text


def _binary(parts):
    left, op, right = parts
    level, apply = BINARY[op]
    # Left associative: a right operand at the operator's own level needs parentheses.
    return f"{_wrap(left, level)}{op}{_wrap(right, level + 1)}", level, apply(left[2], right[2])


def _compound(children):
    return (
        st.tuples(children, st.sampled_from(sorted(BINARY)), children).map(_binary)
        | children.map(lambda c: (f"-{_wrap(c, UNARY)}", UNARY, -c[2]))
        | st.tuples(children, st.integers(1, 9)).map(
            lambda t: (f"{_wrap(t[0], PRODUCT)}/{t[1]}", PRODUCT, t[0][2].scale(Scalar(1, 0, t[1])))
        )
    )


gamma_exprs = st.recursive(
    st.sampled_from(sorted(ATOMS)).map(lambda name: (name, ATOM, ATOMS[name]))
    | st.integers(0, 9).map(lambda k: (str(k), ATOM, E4.scale(k))),
    _compound,
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(gamma_exprs)
@example(("g1-g2-g3", SUM, G1 - G2 - G3))
@example(("-g0*g3", PRODUCT, (-G0) * G3))
@example(("g0/2/3", PRODUCT, G0.scale(Scalar(1, 0, 6))))
def test_evaluation_matches_generated_matrix(generated):
    text, _, matrix = generated
    assert eval_gamma_expr(text, default_model().atoms) == matrix, text


@pytest.mark.parametrize(
    "bad",
    [
        "", "(1-g0", "g4", "1++2", "g12*", "2/0i", "g 1", "*g0",
        "2**2", "g0/g1", "g0/0", "True", "1.5*g0", "1j", "+g0", "g0(1)", "g0 @ g1", "x", "\x00",
        "(" * 300 + "g0" + ")" * 300, "g0\n+g1", "(g0\n+x)", "\uff470+x",
        "-" * 5000 + "g0", "-" * 1000 + "g0", "+".join(["g0"] * 1000),
    ],
)
def test_parser_errors(bad, model):
    with pytest.raises(MalformedExpression) as info:
        eval_gamma_expr(bad, model.atoms)
    position = info.value.position
    assert type(position) is int and 0 <= position <= len(bad)


def test_build_model_is_deterministic(model):
    other = build_model()
    assert other.gamma == model.gamma
    assert other.atoms == model.atoms
    assert other.units == model.units


def test_atoms_are_built_once_per_model(model, monkeypatch):
    g0, g1, g2, g3 = model.gamma
    assert model.atoms == {"g0": g0, "g1": g1, "g2": g2, "g3": g3, "g12": g1 * g2, "i": E4.scale(Scalar(0, 1))}
    products = []
    multiply = Mat.__mul__

    def counted(x, y):
        products.append((x, y))
        return multiply(x, y)

    monkeypatch.setattr(Mat, "__mul__", counted)
    assert ev("g12", model) is model.atoms["g12"]
    assert ev("i*g12", model) == model.atoms["g12"].scale(Scalar(0, 1))
    assert len(products) == 1  # the expression's own i*g12


def test_division_by_a_scalar(model):
    atoms = {**model.atoms, "t": Scalar(3, 1)}
    assert ev("(1-g0)/2", model) == (E4 - model.gamma[0]).scale(Scalar(1, 0, 2))
    assert eval_gamma_expr("g0/t", atoms) == model.gamma[0].scale(Scalar(3, 1).inv())
    assert eval_gamma_expr("t/t*g0", atoms) == model.gamma[0]


def test_scalar_texts_keep_their_sort(model):
    atoms = {**model.atoms, "t": Scalar(3, 1)}
    assert eval_expr("t*(t - 1)/2", atoms) == Scalar(3, 1) * Scalar(2, 1) / 2
    assert eval_expr("1", atoms) == Scalar(1)
    assert eval_expr("2*g0", atoms) == model.gamma[0].scale(2)
    assert ev("1", model) == E4
    assert eval_gamma_expr("t", atoms) == E4.scale(Scalar(3, 1))


@pytest.mark.parametrize("bad, where", [("2**2", 0), ("g0/g1", 3), ("g0/0", 3), ("g0/z", 3), ("t/(t-t)", 3)])
def test_bad_divisors_and_powers(bad, where, model):
    with pytest.raises(MalformedExpression) as info:
        eval_expr(bad, {**model.atoms, "t": Scalar(2), "z": Scalar(0)})
    assert info.value.position == where

