"""Concrete model of the spacetime Clifford algebra C(1,3).

The four generators gamma_0..gamma_3, given as texts in the matrix units,
satisfy g_u g_v + g_v g_u = 2 g_uv E with metric signature (1, -1, -1, -1).
Sixteen product expressions in the generators reproduce the standard matrix
units e_11..e_44 exactly, which identifies C(1,3) with the full 4x4 matrix
algebra; selftest checks all of this, once for the shared default_model and
once per `qact clifford-selftest`.

Expressions (the generators and gamma expressions here, and every text of
the table in catalog) are read by Python's parser (ast.parse, "eval" mode;
the text is never executed; the trees of up to 1,024 texts are cached, so
each table text is parsed once per process) and evaluated under a
whitelist, with Python's precedence and left associativity:

    expr := expr ('+' | '-' | '*' | '/') expr | '-' expr | int | name | '(' expr ')'

A value has one of two sorts, a Scalar or a 4x4 Mat.  Int literals and the
names bound to Scalars are scalars, and an operation on two scalars gives a
scalar.  A scalar times a matrix scales it, and a scalar in a sum with a
matrix stands for that multiple of the identity.  '/' divides by a nonzero
scalar only.  The caller binds the names: UNIT_NAMES and the scalar i for
the generators, a model's atoms g0 g1 g2 g3 g12 i (CliffordModel.atoms,
built once per model; g12 is g1*g2 and i the imaginary unit times the
identity), or UNIT_NAMES, q and the parameters for the table
(catalog.table_names).  eval_expr returns the value in its sort;
eval_gamma_expr returns a matrix.  Any other node (unary '+', '**', '@',
calls, unbound names, bool, float, complex), a divisor that is a matrix or
zero, or a syntax error raises MalformedExpression at its position; nesting
too deep for the parser or the evaluator raises it at the start of the
expression.
"""

from __future__ import annotations

import ast
import operator
from collections.abc import Mapping
from functools import lru_cache

from .linalg import Mat, products_vanish, sparse_rows
from .report import Report
from .scalars import I, ONE, Scalar

METRIC = (1, -1, -1, -1)
_E4 = Mat.identity(4)


class MalformedExpression(ValueError):
    """Gamma expression text does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# The sixteen matrix units by name, e11..e44: the names the generator texts
# and the table's texts read.
UNIT_NAMES = {f"e{i}{j}": Mat.unit(4, i, j) for i in range(1, 5) for j in range(1, 5)}

# gamma_0..gamma_3 as texts in the matrix units and i.  Spatial blocks are
# [[0, -sigma], [sigma, 0]] for the Pauli matrices sigma: the opposite sign
# choice flips every cross-block unit expression below to minus the unit.
GAMMA_TEXTS = (
    "e11 + e22 - e33 - e44",
    "e32 + e41 - e14 - e23",
    "i*(e14 - e23 - e32 + e41)",
    "e24 + e31 - e13 - e42",
)


# The sixteen matrix units as products of the generators; g12 denotes g1*g2.
UNIT_EXPRESSIONS = {
    (1, 1): "(1+g0)*(1+i*g12)/4",
    (2, 1): "(1+g0)*(i*g2-g1)*g3/4",
    (3, 1): "(1-g0)*(1+i*g12)*g3/4",
    (4, 1): "(1-g0)*(g1-i*g2)/4",
    (1, 2): "(1+g0)*(g1+i*g2)*g3/4",
    (2, 2): "(1+g0)*(1-i*g12)/4",
    (3, 2): "(1-g0)*(g1+i*g2)/4",
    (4, 2): "(1-g0)*(i*g12-1)*g3/4",
    (1, 3): "-(1+g0)*(1+i*g12)*g3/4",
    (2, 3): "-(1+g0)*(g1-i*g2)/4",
    (3, 3): "(1-g0)*(1+i*g12)/4",
    (4, 3): "(1-g0)*(-g1+i*g2)*g3/4",
    (1, 4): "-(1+g0)*(g1+i*g2)/4",
    (2, 4): "(1+g0)*(1-i*g12)*g3/4",
    (3, 4): "(1-g0)*(g1+i*g2)*g3/4",
    (4, 4): "(1-g0)*(1-i*g12)/4",
}


class CliffordModel:
    """Gamma matrices, the atoms of gamma expressions, the 16 derived matrix units, and coordinate helpers."""

    __slots__ = ("gamma", "atoms", "units")

    def __init__(self, gamma: tuple[Mat, Mat, Mat, Mat], atoms: dict[str, Mat], units: dict):
        self.gamma = gamma
        self.atoms = atoms
        self.units = units

    def unit(self, i: int, j: int) -> Mat:
        return self.units[(i, j)]


def build_model() -> CliffordModel:
    """Construct the model from GAMMA_TEXTS and UNIT_EXPRESSIONS; selftest validates it."""
    names = {**UNIT_NAMES, "i": I}
    gamma = tuple(eval_gamma_expr(text, names) for text in GAMMA_TEXTS)
    g0, g1, g2, g3 = gamma
    atoms = {"g0": g0, "g1": g1, "g2": g2, "g3": g3, "g12": g1 * g2, "i": _E4.scale(I)}
    units = {key: eval_gamma_expr(text, atoms) for key, text in UNIT_EXPRESSIONS.items()}
    return CliffordModel(gamma, atoms, units)


@lru_cache(maxsize=1)
def default_model() -> CliffordModel:
    """The shared model, built and self-tested once; a failed self-test raises AssertionError."""
    model = build_model()
    selftest(model).require(AssertionError)
    return model


def selftest(model: CliffordModel) -> Report:
    """Check the Clifford relations and all matrix-unit identities."""
    report = Report()
    bad = ""
    one, g = sparse_rows(_E4), [sparse_rows(x) for x in model.gamma]
    for u in range(4):
        for v in range(u, 4):
            want = [(Scalar(-2 * METRIC[u]), one, one)] if u == v else []
            if not products_vanish([(ONE, g[u], g[v]), (ONE, g[v], g[u])] + want):
                bad = f"g{u} g{v} + g{v} g{u}"
    report.add("anticommutators", not bad, bad or "10 identities")

    bad = ""
    units = {(i, j): sparse_rows(model.unit(i, j)) for i in range(1, 5) for j in range(1, 5)}
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                for l in range(1, 5):
                    want = [(-ONE, units[i, l], one)] if j == k else []
                    if not products_vanish([(ONE, units[i, j], units[k, l])] + want):
                        bad = f"e{i}{j} e{k}{l}"
    report.add("unit_products", not bad, bad or "256 identities")

    total = Mat.zero(4)
    for i in range(1, 5):
        total = total + model.unit(i, i)
    report.add("unit_resolution", total == _E4, "sum of e_ii")

    ok = all(model.unit(i, j) == Mat.unit(4, i, j) for i in range(1, 5) for j in range(1, 5))
    report.add("units_are_standard", ok, "e_ij match the standard matrix units")
    return report


# -- expressions -------------------------------------------------------------------

_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def eval_gamma_expr(text: str, atoms: Mapping[str, Scalar | Mat]) -> Mat:
    """Evaluate an expression to an exact 4x4 matrix over the given names; a scalar value is that multiple of 1."""
    value = eval_expr(text, atoms)
    return value if isinstance(value, Mat) else _E4.scale(value)


def eval_expr(text: str, names: Mapping[str, Scalar | Mat]) -> Scalar | Mat:
    """Evaluate an expression over the given names to its Scalar or 4x4 Mat, whichever sort it has."""
    try:
        return _walk(_parse(text).body, names, text)
    except RecursionError:
        raise MalformedExpression("expression nested too deeply", _position(text, 1, 0)) from None


@lru_cache(maxsize=1024)
def _parse(text: str) -> ast.Expression:
    try:
        return ast.parse(text.strip(), mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        where = _position(text, getattr(exc, "lineno", None) or 1, (getattr(exc, "offset", None) or 1) - 1)
        raise MalformedExpression(getattr(exc, "msg", str(exc)), where) from None


def _walk(node: ast.expr, names: Mapping[str, Scalar | Mat], text: str) -> Scalar | Mat:
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
        x, y = _walk(node.left, names, text), _walk(node.right, names, text)
        if isinstance(x, Mat) is not isinstance(y, Mat):
            if isinstance(node.op, ast.Mult):
                return x.scale(y) if isinstance(x, Mat) else y.scale(x)
            x, y = (x, _E4.scale(y)) if isinstance(x, Mat) else (_E4.scale(x), y)
        return _ARITHMETIC[type(node.op)](x, y)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        x, k = _walk(node.left, names, text), _walk(node.right, names, text)
        if isinstance(k, Scalar) and k:
            return x.scale(k.inv()) if isinstance(x, Mat) else x / k
        node = node.right
        raise MalformedExpression("divisor is not a nonzero scalar", _position(text, node.lineno, node.col_offset))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_walk(node.operand, names, text)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Scalar(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    raise MalformedExpression(f"unexpected {type(node).__name__}", _position(text, node.lineno, node.col_offset))


def _position(text: str, line: int, column: int) -> int:
    """Index into text of a column (UTF-8 bytes for a node) on a 1-based line of the stripped text, clamped."""
    body = text.lstrip()
    before = sum(len(row) + 1 for row in body.split("\n")[: line - 1])
    return min(max(len(text) - len(body) + before + column, 0), len(text))
