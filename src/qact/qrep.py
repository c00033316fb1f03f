"""Representations of GL_q(2,C), SL_q(2,C), and the auxiliary algebra R_q.

A representation assigns 4x4 matrices A11, A12, A21, A22 to the four
generators so that the six quantum-matrix relations hold exactly; the
quantum determinant D = A11*A22 - q*A12*A21 then commutes with all four.
A GL_q representation has D invertible, which antipode decides as it inverts
D; the antipode blocks are the blocks of M^-1, M = [[A11, A12], [A21, A22]],
and define the inner action (see action.build_action).  R_q replaces the
second diagonal generator with r22 -> R22 = A22 - A12*A11^-1*A21; its
relations are the same six with x11 x22 - x22 x11 = c x12 x21 for c = 0,
where GL_q has c = q - q^-1.  The two presentations convert into each other
losslessly.

Every A22 is rebuilt by one identity: for invertible A11 and d,
A22 = A11^-1 (d + q A12 A21) gives det_q = A11 A22 - q A12 A21 = d exactly.
connected_slq takes d = 1, attach_determinant the given d, and from_rq
d = A11 R22, so that A22 = R22 + q A11^-1 A12 A21.  That is the Schur inverse
R22 + A12 A11^-1 A21 whenever A11 A12 = q A12 A11, for then
A12 A11^-1 = q A11^-1 A12.  When it fails, a result built with either A22
keeps A11 and A12 and fails it first, so both refuse with the same
RelationViolated.  The refusals come in order: A11Singular (A11 is inverted
first), DeterminantSingular for a singular d, then RelationViolated;
attach_determinant refuses an input with det_q != 1, then a d that is not
invariant (DNotInvariant), before any of them.
"""

from __future__ import annotations

from .linalg import (DimensionMismatch, Mat, Singular, SparseRows, centralizer, det, mat_inverse, products_vanish,
                     sparse_rows)
from .report import Report
from .scalars import ONE, ZERO, DeformationParameter, ParseError, Record, Scalar, scalar_from_json


Blocks = tuple[tuple[Mat, Mat], tuple[Mat, Mat]]


class RelationViolated(ValueError):
    """A quantum-matrix relation fails for the given matrices."""


class DeterminantSingular(ValueError):
    """The quantum determinant is not invertible."""


class A11Singular(ValueError):
    """A11 must be invertible for this construction."""


class DNotInvariant(ValueError):
    """The attached determinant must commute with all four generators."""


class GLqRep(Record):
    """Matrices of the four generators, all 4x4, with the deformation parameter; DimensionMismatch otherwise."""

    __slots__ = ("a11", "a12", "a21", "a22", "q")

    def __init__(self, a11: Mat, a12: Mat, a21: Mat, a22: Mat, q: DeformationParameter):
        if not a11.n == a12.n == a21.n == a22.n == 4:
            key = next(k for k, m in zip(("A11", "A12", "A21", "A22"), (a11, a12, a21, a22)) if m.n != 4)
            raise DimensionMismatch(f"{key}: representation matrices must be 4x4")
        self.a11, self.a12, self.a21, self.a22, self.q = a11, a12, a21, a22, q

    def matrices(self) -> tuple[Mat, Mat, Mat, Mat]:
        return (self.a11, self.a12, self.a21, self.a22)

    @property
    def blocks(self) -> Blocks:
        """((A11, A12), (A21, A22)), the blocks of M."""
        return (self.a11, self.a12), (self.a21, self.a22)

    def to_json(self) -> dict:
        return {
            "q": self.q.q.to_json(),
            "A11": self.a11.to_json(),
            "A12": self.a12.to_json(),
            "A21": self.a21.to_json(),
            "A22": self.a22.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "GLqRep":
        if not isinstance(data, dict):
            raise ParseError("representation must be a JSON object")
        q = DeformationParameter(scalar_from_json(data["q"], "q"))
        return cls(*(Mat.from_json(data[key], key) for key in ("A11", "A12", "A21", "A22")), q=q)


class RqRep:
    """Representation of R_q: the same spinor system with commuting diagonal."""

    __slots__ = ("a11", "a12", "a21", "r22", "q")

    def __init__(self, a11: Mat, a12: Mat, a21: Mat, r22: Mat, q: DeformationParameter):
        self.a11, self.a12, self.a21, self.r22, self.q = a11, a12, a21, r22, q


GLQ_RELATIONS = (
    "a11_a12_spinor",
    "a11_a21_spinor",
    "a12_a22_spinor",
    "a21_a22_spinor",
    "a12_a21_commute",
    "diagonal_commutator",
)


def _relation_report(x11: SparseRows, x12: SparseRows, x21: SparseRows, x22: SparseRows, q: DeformationParameter,
                     c: Scalar) -> Report:
    """The six quantum-matrix relations, in GLQ_RELATIONS order, for any four matrices given as their sparse rows.

    Each relation is tested as one sum of products that must vanish
    (linalg.products_vanish): x y - q y x for the four q-commutators,
    x12 x21 - x21 x12, and x11 x22 - x22 x11 - c x12 x21.  c is q - q^-1
    for the 4x4 generator matrices of GL_q and the 16x16 action operators,
    and 0 for R_q.
    """
    mq = -q.q
    report = Report()
    for name, (x, y) in zip(GLQ_RELATIONS, ((x11, x12), (x11, x21), (x12, x22), (x21, x22))):
        report.add(name, products_vanish([(ONE, x, y), (mq, y, x)]))
    report.add(GLQ_RELATIONS[4], products_vanish([(ONE, x12, x21), (-ONE, x21, x12)]))
    report.add(GLQ_RELATIONS[5], products_vanish([(ONE, x11, x22), (-ONE, x22, x11), (-c, x12, x21)]))
    return report


def verify_glq_relations(rep: GLqRep) -> Report:
    """Check the six quantum-matrix relations exactly; itemized report."""
    return _relation_report(*map(sparse_rows, rep.matrices()), rep.q, rep.q.q - rep.q.inv)


def require_representation(rep: GLqRep) -> GLqRep:
    verify_glq_relations(rep).require(RelationViolated)
    return rep


def quantum_determinant(rep: GLqRep) -> Mat:
    """D = A11*A22 - q*A12*A21; the relations make it central, and antipode decides whether it is invertible."""
    return rep.a11 * rep.a22 - (rep.a12 * rep.a21).scale(rep.q.q)


def antipode(rep: GLqRep, detq: Mat) -> Blocks:
    """The antipode blocks rho(S(a_kj)): D^-1 A22, -q^-1 D^-1 A12, -q D^-1 A21, D^-1 A11.

    detq is D as quantum_determinant(rep) returns it; DeterminantSingular
    when it has no inverse.
    """
    try:
        dinv = mat_inverse(detq)
    except Singular as exc:
        raise DeterminantSingular("quantum determinant is singular") from exc
    return (
        (dinv * rep.a22, (dinv * rep.a12).scale(-rep.q.inv)),
        ((dinv * rep.a21).scale(-rep.q.q), dinv * rep.a11),
    )


def antipode_check(rep: GLqRep, s: Blocks) -> Report:
    """Both counit identities, S M = I_8 and M S = I_8, for blocks s, all eight of them.

    Block ij of each is tested as sum_k X_ik Y_kj - delta_ij I = 0 (linalg.products_vanish).
    """
    a = [[sparse_rows(x) for x in row] for row in rep.blocks]
    s = [[sparse_rows(x) for x in row] for row in s]
    e4 = sparse_rows(Mat.identity(4))
    report = Report()
    for i in range(2):
        for j in range(2):
            unit = [(-ONE, e4, e4)] if i == j else []
            left = [(ONE, s[i][k], a[k][j]) for k in range(2)] + unit
            right = [(ONE, a[i][k], s[k][j]) for k in range(2)] + unit
            report.add(f"counit_left_{i + 1}{j + 1}", products_vanish(left))
            report.add(f"counit_right_{i + 1}{j + 1}", products_vanish(right))
    return report


def _a11_inverse(a11: Mat) -> Mat:
    try:
        return mat_inverse(a11)
    except Singular as exc:
        raise A11Singular("A11 is singular") from exc


def _with_determinant(x: GLqRep | RqRep, d: Mat) -> GLqRep:
    """x's A11, A12, A21 with A22 = A11^-1 (d + q A12 A21): det_q = d exactly; relations re-verified."""
    a11_inv = _a11_inverse(x.a11)
    if not det(d):
        raise DeterminantSingular("quantum determinant is singular")
    a22 = a11_inv * (d + (x.a12 * x.a21).scale(x.q.q))
    return require_representation(GLqRep(x.a11, x.a12, x.a21, a22, x.q))


def to_rq(rep: GLqRep) -> RqRep:
    """Convert to the R_q presentation and verify it, plus det_q = A11*R22."""
    r22 = rep.a22 - rep.a12 * _a11_inverse(rep.a11) * rep.a21
    x11, x12, x21, x22, r = map(sparse_rows, rep.matrices() + (r22,))
    report = _relation_report(x11, x12, x21, r, rep.q, ZERO)
    report.add("detq_equals_a11_r22", products_vanish([(ONE, x11, x22), (-rep.q.q, x12, x21), (-ONE, x11, r)]))
    report.require(RelationViolated)
    return RqRep(rep.a11, rep.a12, rep.a21, r22, rep.q)


def from_rq(rep: RqRep) -> GLqRep:
    """Rebuild the GL_q presentation, with det_q = A11*R22; relations are re-verified."""
    return _with_determinant(rep, rep.a11 * rep.r22)


def is_slq(rep: GLqRep) -> bool:
    """Whether the quantum determinant equals the identity."""
    x11, x12, x21, x22, e4 = map(sparse_rows, rep.matrices() + (Mat.identity(4),))
    return products_vanish([(ONE, x11, x22), (-rep.q.q, x12, x21), (-ONE, e4, e4)])


def connected_slq(rep: GLqRep) -> GLqRep:
    """Replace A22 by A11^-1 (1 + q A12 A21), forcing det_q = 1."""
    return _with_determinant(rep, Mat.identity(4))


def attach_determinant(slq: GLqRep, d: Mat) -> GLqRep:
    """Rebuild a GL_q representation with quantum determinant exactly d.

    The input must have det_q = 1, and d must be an invertible element of the
    invariant algebra, i.e. commute with all four generator matrices.
    """
    if not is_slq(slq):
        raise ValueError("attach_determinant expects a representation with det_q = 1")
    if not centralizer(list(slq.matrices())).contains_matrix(d):
        raise DNotInvariant("attached determinant is not an invariant of the action")
    return _with_determinant(slq, d)
