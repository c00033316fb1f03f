"""Concrete model of the spacetime Clifford algebra C(1,3).

The four generators gamma_0..gamma_3 satisfy g_u g_v + g_v g_u = 2 g_uv E
with metric signature (1, -1, -1, -1).  Sixteen product expressions in the
generators reproduce the standard matrix units e_11..e_44 exactly, which
identifies C(1,3) with the full 4x4 matrix algebra; build_model validates
all of this at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import Mat
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
    """Gamma matrices, the 16 derived matrix units, and coordinate helpers."""

    __slots__ = ("gamma", "units", "identity")

    def __init__(self, gamma: tuple[Mat, Mat, Mat, Mat], units: dict):
        self.gamma = gamma
        self.units = units
        self.identity = Mat.identity(4)

    def unit(self, i: int, j: int) -> Mat:
        return self.units[(i, j)]


def build_model() -> CliffordModel:
    """Construct and validate the model; any failure is a build-breaking bug."""
    gamma = _gammas()
    units = {key: eval_gamma_expr(parse_gamma_expr(text), gamma) for key, text in UNIT_EXPRESSIONS.items()}
    model = CliffordModel(gamma, units)
    report = selftest(model)
    report.require(AssertionError)
    return model


@lru_cache(maxsize=1)
def default_model() -> CliffordModel:
    """The shared validated model; construction is deterministic."""
    return build_model()


def selftest(model: CliffordModel) -> Report:
    """Check the Clifford relations and all matrix-unit identities."""
    report = Report("clifford-selftest")
    e4 = model.identity
    gamma = model.gamma
    ok = True
    bad = ""
    for u in range(4):
        for v in range(u, 4):
            want = e4.scale(2 * METRIC[u]) if u == v else Mat.zero(4)
            if gamma[u] * gamma[v] + gamma[v] * gamma[u] != want:
                ok = False
                bad = f"g{u} g{v} + g{v} g{u}"
    report.add("anticommutators", ok, bad or "10 identities")

    ok = True
    bad = ""
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                for l in range(1, 5):
                    want = model.unit(i, l) if j == k else Mat.zero(4)
                    if model.unit(i, j) * model.unit(k, l) != want:
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


# -- gamma expression grammar ---------------------------------------------------
#
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' factor) | ('/' posint))*
#   factor := '-' factor | atom
#   atom   := posint | 'i' | 'g0' | 'g1' | 'g2' | 'g3' | 'g12' | '(' expr ')'


@dataclass(frozen=True)
class GammaExpr:
    """Parsed abstract syntax tree of a gamma expression."""

    text: str
    root: tuple


_ATOMS = ("g12", "g0", "g1", "g2", "g3", "i")


def parse_gamma_expr(text: str) -> GammaExpr:
    parser = _Parser(text)
    root = parser.expr()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise MalformedExpression("unexpected trailing characters", parser.pos)
    return GammaExpr(text, root)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> tuple:
        node = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = ("add", node, self.term())
            elif ch == "-":
                self.pos += 1
                node = ("sub", node, self.term())
            else:
                return node

    def term(self) -> tuple:
        node = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                node = ("mul", node, self.factor())
            elif ch == "/":
                self.pos += 1
                mark = self.pos
                divisor = self.integer()
                if divisor == 0:
                    raise MalformedExpression("division by zero", mark)
                node = ("div", node, divisor)
            else:
                return node

    def factor(self) -> tuple:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return ("neg", self.factor())
        return self.atom()

    def atom(self) -> tuple:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                raise MalformedExpression("expected ')'", self.pos)
            self.pos += 1
            return node
        if ch.isdigit():
            return ("int", self.integer())
        for name in _ATOMS:
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return ("atom", name)
        raise MalformedExpression("expected a factor", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise MalformedExpression("expected an integer", start)
        return int(self.text[start : self.pos])


def eval_gamma_expr(expr: GammaExpr, model) -> Mat:
    """Evaluate an expression to an exact 4x4 matrix.

    Accepts either a CliffordModel or a bare 4-tuple of gamma matrices.
    """
    gamma = model.gamma if isinstance(model, CliffordModel) else model
    return _eval(expr.root, gamma)


def _eval(node: tuple, gamma) -> Mat:
    kind = node[0]
    if kind == "add":
        return _eval(node[1], gamma) + _eval(node[2], gamma)
    if kind == "sub":
        return _eval(node[1], gamma) - _eval(node[2], gamma)
    if kind == "mul":
        return _eval(node[1], gamma) * _eval(node[2], gamma)
    if kind == "div":
        return _eval(node[1], gamma).scale(Scalar.from_rationals(Fraction(1, node[2])))
    if kind == "neg":
        return -_eval(node[1], gamma)
    if kind == "int":
        return Mat.identity(4).scale(node[1])
    name = node[1]
    if name == "i":
        return Mat.identity(4).scale(I)
    if name == "g12":
        return gamma[1] * gamma[2]
    return gamma[int(name[1])]

