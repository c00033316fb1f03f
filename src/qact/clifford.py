"""Concrete model of the spacetime Clifford algebra C(1,3).

The four generators gamma_0..gamma_3 satisfy g_u g_v + g_v g_u = 2 g_uv E
with metric signature (1, -1, -1, -1).  Sixteen product expressions in the
generators reproduce the standard matrix units e_11..e_44 exactly, which
identifies C(1,3) with the full 4x4 matrix algebra; selftest checks all of
this, once for the shared default_model and once per `qact clifford-selftest`.

Gamma expressions are read by Python's parser (ast.parse, "eval" mode; the
text is never executed) and evaluated under a whitelist, with Python's
precedence and left associativity:

    expr := expr ('+' | '-' | '*') expr | '-' expr | expr '/' k | int
          | 'g0' | 'g1' | 'g2' | 'g3' | 'g12' | 'i' | '(' expr ')'

k is a positive int literal, g12 is g1*g2 and i the imaginary unit; these atoms
are built once per model (CliffordModel.atoms).  Any other
node (unary '+', '**', '@', calls, other names, bool, float, complex) or syntax
error raises MalformedExpression at its position; nesting too deep for the
parser or the evaluator raises it at the start of the expression.
"""

from __future__ import annotations

import ast
from functools import lru_cache

from .linalg import Mat, products_vanish, sparse_rows
from .report import Report
from .scalars import I, ONE, ZERO, Scalar

METRIC = (1, -1, -1, -1)


class MalformedExpression(ValueError):
    """Gamma expression text does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _pauli():
    s1 = Mat([[ZERO, ONE], [ONE, ZERO]])
    s2 = Mat([[ZERO, -I], [I, ZERO]])
    s3 = Mat([[ONE, ZERO], [ZERO, -ONE]])
    return s1, s2, s3


def _gammas() -> tuple[Mat, Mat, Mat, Mat]:
    g0 = Mat.diag(1, 1, -1, -1)
    spatial = []
    for s in _pauli():
        rows = []
        for i in range(2):
            rows.append([ZERO, ZERO] + [-s.rows[i][j] for j in range(2)])
        for i in range(2):
            rows.append([s.rows[i][j] for j in range(2)] + [ZERO, ZERO])
        spatial.append(Mat(rows))
    # Spatial blocks are [[0, -sigma], [sigma, 0]]: the opposite sign choice
    # flips every cross-block unit expression below to minus the unit.
    return (g0, *spatial)


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

    __slots__ = ("gamma", "atoms", "units", "identity")

    def __init__(self, gamma: tuple[Mat, Mat, Mat, Mat], atoms: dict[str, Mat], units: dict):
        self.gamma = gamma
        self.atoms = atoms
        self.units = units
        self.identity = Mat.identity(4)

    def unit(self, i: int, j: int) -> Mat:
        return self.units[(i, j)]


def build_model() -> CliffordModel:
    """Construct the model from the gamma matrices and UNIT_EXPRESSIONS; selftest validates it."""
    gamma = _gammas()
    g0, g1, g2, g3 = gamma
    atoms = {"g0": g0, "g1": g1, "g2": g2, "g3": g3, "g12": g1 * g2, "i": Mat.identity(4).scale(I)}
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
    e4 = model.identity
    gamma = model.gamma
    ok = True
    bad = ""
    one, g = sparse_rows(e4), [sparse_rows(x) for x in gamma]
    for u in range(4):
        for v in range(u, 4):
            want = [(Scalar(-2 * METRIC[u]), one, one)] if u == v else []
            if not products_vanish([(ONE, g[u], g[v]), (ONE, g[v], g[u])] + want):
                ok = False
                bad = f"g{u} g{v} + g{v} g{u}"
    report.add("anticommutators", ok, bad or "10 identities")

    ok = True
    bad = ""
    units = {(i, j): sparse_rows(model.unit(i, j)) for i in range(1, 5) for j in range(1, 5)}
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                for l in range(1, 5):
                    want = [(-ONE, units[i, l], one)] if j == k else []
                    if not products_vanish([(ONE, units[i, j], units[k, l])] + want):
                        ok = False
                        bad = f"e{i}{j} e{k}{l}"
    report.add("unit_products", ok, bad or "256 identities")

    total = Mat.zero(4)
    for i in range(1, 5):
        total = total + model.unit(i, i)
    report.add("unit_resolution", total == e4, "sum of e_ii")

    ok = all(model.unit(i, j) == Mat.unit(4, i, j) for i in range(1, 5) for j in range(1, 5))
    report.add("units_are_standard", ok, "e_ij match the standard matrix units")
    return report


# -- gamma expressions -----------------------------------------------------------

_BINARY = {ast.Add: Mat.__add__, ast.Sub: Mat.__sub__, ast.Mult: Mat.__mul__}


def eval_gamma_expr(text: str, atoms: dict[str, Mat]) -> Mat:
    """Evaluate a gamma expression to an exact 4x4 matrix over a model's atoms (CliffordModel.atoms)."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        where = _position(text, getattr(exc, "lineno", None) or 1, (getattr(exc, "offset", None) or 1) - 1)
        raise MalformedExpression(getattr(exc, "msg", str(exc)), where) from None

    def walk(node: ast.expr) -> Mat:
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            k = node.right
            if isinstance(k, ast.Constant) and type(k.value) is int and k.value > 0:
                return walk(node.left).scale(Scalar(1, 0, k.value))
            node = k  # report a bad divisor at its own position
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            return Mat.identity(4).scale(node.value)
        elif isinstance(node, ast.Name) and node.id in atoms:
            return atoms[node.id]
        where = _position(text, node.lineno, node.col_offset)
        raise MalformedExpression(f"unexpected {type(node).__name__}", where)

    try:
        return walk(tree.body)
    except RecursionError:
        raise MalformedExpression("expression nested too deeply", _position(text, 1, 0)) from None


def _position(text: str, line: int, column: int) -> int:
    """Index into text of a column (UTF-8 bytes for a node) on a 1-based line of the stripped text, clamped."""
    body = text.lstrip()
    before = sum(len(row) + 1 for row in body.split("\n")[: line - 1])
    return min(max(len(text) - len(body) + before + column, 0), len(text))
