"""Inner actions on C(1,3) and the equivalence decision procedure.

A representation defines an action of each generator on the algebra by
a_ij . v = sum_k A_ik v A*_kj, where the starred blocks come from the
inverse of the 8x8 block matrix of the representation.  Flattening C(1,3)
row-major turns each generator into a 16x16 operator L_ij, which must
satisfy the same six quantum-matrix relations; the operators are all that an
InnerAction stores.

Two representations define equivalent actions iff one is a conjugate of the
other rescaled columnwise by nonzero scalars (alpha1 on the first column,
alpha2 on the second).  decide_equivalence enumerates a complete candidate
set for the two scalars from the power traces of A11 and A22, solves the
intertwiner system for each pair, and searches the solution space for an
invertible element at the lattice points 1 <= |c| <= 4 of the degree-4
simplex, which decide whether its determinant (total degree 4) vanishes
identically; so a negative answer is a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Union

from .linalg import (
    Mat,
    Singular,
    Subspace,
    algebra_closure,
    invertible_element_in,
    left_mul_operator,
    mat_inverse,
    right_mul_operator,
    solve_homogeneous,
)
from .qrep import GLqRep, RelationViolated, _relation_report, verify_glq_relations
from .report import Report
from .scalars import ZERO, Scalar, exact_sqrt


class MSingular(ValueError):
    """The 8x8 block matrix of a valid representation is always invertible."""


class Unsupported(ValueError):
    """Candidate scalars cannot be enumerated for these inputs."""


@dataclass(frozen=True)
class InnerAction:
    """The action of a representation as its four 16x16 operators L_ij."""

    rep: GLqRep
    operators: tuple[tuple[Mat, Mat], tuple[Mat, Mat]]

    def operator(self, i: int, j: int) -> Mat:
        return self.operators[i - 1][j - 1]

    def apply(self, i: int, j: int, v: Mat) -> Mat:
        """a_ij . v, read off L_ij applied to the flattened v."""
        flat = v.flatten()
        return Mat.from_flat(4, [sum((x * y for x, y in zip(row, flat) if x and y), ZERO)
                                 for row in self.operator(i, j).rows])


def build_action(rep: GLqRep, verify: bool = True) -> InnerAction:
    """The four operators L_ij = sum_k Lmul(A_ik) Rmul(S_kj) of a representation.

    S_kj are the blocks of the inverse of M = [[A11, A12], [A21, A22]], and
    X -> A X S acts on flattened matrices as Lmul(A) Rmul(S).  With
    verify=True (the default) the representation relations are required and
    the operators are asserted to satisfy the same six relations.
    """
    if verify:
        verify_glq_relations(rep).require(RelationViolated)
    try:
        minv = mat_inverse(Mat.block2(rep.a11, rep.a12, rep.a21, rep.a22))
    except Singular as exc:
        raise MSingular("block matrix M is singular") from exc
    s11, s12, s21, s22 = minv.blocks2()
    lmul = [[left_mul_operator(a) for a in row] for row in ((rep.a11, rep.a12), (rep.a21, rep.a22))]
    rmul = [[right_mul_operator(s) for s in row] for row in ((s11, s12), (s21, s22))]
    operators = tuple(
        tuple(lmul[i][0] * rmul[0][j] + lmul[i][1] * rmul[1][j] for j in range(2)) for i in range(2)
    )
    action = InnerAction(rep, operators)
    if verify:
        operator_relation_report(action).require(RelationViolated)
    return action


def operator_relation_report(action: InnerAction) -> Report:
    """The six quantum-matrix relations for the 16x16 action operators."""
    return _relation_report("action-operator-relations", *action.operators[0], *action.operators[1], action.rep.q)


# The matrix units e12, e23, e34, e21, e32, e43 generate M4 (e_ii = e_i,i+1 e_i+1,i).
_GENERATORS = ((1, 2), (2, 3), (3, 4), (2, 1), (3, 2), (4, 3))


def verify_module_algebra(action: InnerAction) -> Report:
    """a_ij . 1 = delta_ij 1, and a_ij . (vw) = sum_k (a_ik . v)(a_kj . w) for all v, w.

    For one v the second identity reads L_ij Lmul(v) = sum_k Lmul(a_ik . v) L_kj
    on 16x16 operators, which covers every w at once.  If it holds at v and
    at v', it holds at vv' (apply it twice), so checking it at the six
    generators of M4 checks it everywhere.  A failure names v=1 or the
    first failing generator.
    """
    one, zero = Mat.identity(4), Mat.zero(4)
    gens = [Mat.unit(4, p, q) for p, q in _GENERATORS]
    acted = {(i, k): [left_mul_operator(action.apply(i, k, v)) for v in gens] for i in (1, 2) for k in (1, 2)}
    report = Report("module-algebra")
    for i in (1, 2):
        for j in (1, 2):
            lij, l1j, l2j = action.operator(i, j), action.operator(1, j), action.operator(2, j)
            failures = (
                f"v=e{p}{q}"
                for (p, q), v, a1, a2 in zip(_GENERATORS, gens, acted[i, 1], acted[i, 2])
                if lij * left_mul_operator(v) != a1 * l1j + a2 * l2j
            )
            unit_ok = action.apply(i, j, one) == (one if i == j else zero)
            bad = next(failures, None) if unit_ok else "v=1"
            report.add(f"module_algebra_{i}{j}", bad is None, bad or "v=1 and 6 generators")
    return report


def operator_algebra(rep: GLqRep) -> Subspace:
    """The subalgebra of C(1,3) generated by the four matrices, with 1."""
    return algebra_closure(list(rep.matrices()), include_identity=True)


def action_fixed_points(action: InnerAction) -> Subspace:
    """{v : a11.v = v, a12.v = 0, a21.v = 0, a22.v = v} as a subspace."""
    e16 = Mat.identity(16)
    (l11, l12), (l21, l22) = action.operators
    return solve_homogeneous([list(r) for op in (l11 - e16, l12, l21, l22 - e16) for r in op.rows], 16)


# -- equivalence -----------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceWitness:
    """Data (u, alpha1, alpha2) realizing the equivalence of two actions."""

    u: Mat
    alpha1: Scalar
    alpha2: Scalar
    candidates_tried: int = 0

    @property
    def equivalent(self) -> bool:
        return True

    def apply(self, rep: GLqRep) -> GLqRep:
        uinv = mat_inverse(self.u)
        conj = lambda x: self.u * x * uinv
        return GLqRep(
            conj(rep.a11).scale(self.alpha1),
            conj(rep.a12).scale(self.alpha2),
            conj(rep.a21).scale(self.alpha1),
            conj(rep.a22).scale(self.alpha2),
            rep.q,
        )

    def inverse(self) -> "EquivalenceWitness":
        return EquivalenceWitness(mat_inverse(self.u), self.alpha1.inv(), self.alpha2.inv())

    def compose(self, inner: "EquivalenceWitness") -> "EquivalenceWitness":
        """Witness applying inner first, then this one."""
        return EquivalenceWitness(self.u * inner.u, self.alpha1 * inner.alpha1, self.alpha2 * inner.alpha2)

    def to_json(self) -> dict:
        return {
            "equivalent": True,
            "u": self.u.to_json(),
            "alpha1": self.alpha1.to_json(),
            "alpha2": self.alpha2.to_json(),
            "candidates_tried": self.candidates_tried,
        }


@dataclass(frozen=True)
class NotEquivalent:
    """Certificate that no equivalence exists; counts the candidates ruled out."""

    candidates_tried: int
    obstruction: str = "exhausted"

    @property
    def equivalent(self) -> bool:
        return False

    def to_json(self) -> dict:
        return {
            "equivalent": False,
            "candidates_tried": self.candidates_tried,
            "obstruction": self.obstruction,
        }


Verdict = Union[EquivalenceWitness, NotEquivalent]


def _power_traces(x: Mat) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """tr(x^k) for k = 1..4, from the single product x^2 and no division."""
    x2 = x * x
    p3 = p4 = ZERO
    for i in range(4):
        for j in range(4):
            y = x2.rows[i][j]
            if y:
                p3 = p3 + y * x.rows[j][i]
                p4 = p4 + y * x2.rows[j][i]
    return x.trace(), x2.trace(), p3, p4


def _scale_candidates(x: Mat, xp: Mat, name: str) -> list[Scalar]:
    """Every alpha with spectrum(x') = alpha * spectrum(x), sorted.

    Power traces p_k = tr(x^k), k = 1..4, fix a 4x4 spectrum (Newton's
    identities), so alpha qualifies iff p_k(x') = alpha^k p_k(x) for all k.
    That pins w = alpha^g, g = gcd{k : p_k(x) != 0}, and all g-th roots of w
    qualify or none do; so [] is a certificate over every extension of Q(i).
    """
    p, pp = _power_traces(x), _power_traces(xp)
    if any(bool(a) != bool(b) for a, b in zip(p, pp)):
        return []
    ks = [k for k in range(1, 5) if p[k - 1]]
    if not ks:
        raise Unsupported(f"{name} is nilpotent: every scale passes the spectrum test")
    ratio = {k: pp[k - 1] / p[k - 1] for k in ks}
    g = gcd(*ks)
    if g == 3:
        raise Unsupported(f"{name} pins only alpha^3, whose roots are not all in Q(i)")
    w = ratio[g] if g in ratio else next(ratio[k] / ratio[k - g] for k in ks if k - g in ratio)
    if any(ratio[k] != w ** (k // g) for k in ks):
        return []
    roots = [w]
    for _ in range(g.bit_length() - 1):
        halves = [exact_sqrt(r) for r in roots]
        if any(h is None for h in halves):
            raise Unsupported(f"alpha^{g} = {w} has no root in Q(i)")
        roots = [s for h in halves for s in (h, -h)]
    return sorted(roots, key=Scalar.sort_key)


def _intertwiner_space(r1: GLqRep, r2: GLqRep, alpha1: Scalar, alpha2: Scalar) -> Subspace:
    """Solutions u of the four equations u A = alpha^-1 A' u, stacked."""
    scales = (alpha1, alpha2, alpha1, alpha2)
    rows: list[list[Scalar]] = []
    for x, xp, alpha in zip(r1.matrices(), r2.matrices(), scales):
        op = right_mul_operator(x) - left_mul_operator(xp).scale(alpha.inv())
        rows.extend(list(r) for r in op.rows)
    return solve_homogeneous(rows, 16)


def decide_equivalence(r1: GLqRep, r2: GLqRep) -> Verdict:
    """Decide equivalence of the inner actions of two representations.

    Returns an exact witness or a NotEquivalent certificate.  The candidate
    scales are those under which the power traces of A11 (alpha1) and A22
    (alpha2) match; none for either block is a "spectrum" obstruction.  Each
    candidate pair reduces to a linear intertwiner system; the determinant on
    its solution space has total degree 4, so it is evaluated at the lattice
    points 1 <= |c| <= 4 of the degree-4 simplex, a complete identity test at
    every dimension up to 16.  Raises Unsupported for different q, and for a
    nilpotent A11 or A22, one that pins only alpha^3, or a scale outside Q(i),
    unless the other block's spectrum already settles the pair.
    """
    if r1.q != r2.q:
        raise Unsupported("representations have different deformation parameters")
    try:
        cands1 = _scale_candidates(r1.a11, r2.a11, "A11")
    except Unsupported:
        if _scale_candidates(r1.a22, r2.a22, "A22"):
            raise
        return NotEquivalent(0, obstruction="spectrum")
    cands2 = _scale_candidates(r1.a22, r2.a22, "A22") if cands1 else []
    if not cands2:
        return NotEquivalent(0, obstruction="spectrum")
    tried = 0
    for alpha1 in cands1:
        for alpha2 in cands2:
            tried += 1
            space = _intertwiner_space(r1, r2, alpha1, alpha2)
            if space.dim == 0:
                continue
            u = invertible_element_in(space)
            if u is None:
                continue
            witness = EquivalenceWitness(u, alpha1, alpha2, candidates_tried=tried)
            if witness.apply(r1).matrices() != r2.matrices():
                raise AssertionError("intertwiner solution failed exact verification")
            return witness
    return NotEquivalent(tried)
