"""Representations of GL_q(2,C), SL_q(2,C), and the auxiliary algebra R_q.

A representation assigns 4x4 matrices A11, A12, A21, A22 to the four
generators so that the six quantum-matrix relations hold exactly.  The
quantum determinant A11*A22 - q*A12*A21 is then invertible and commutes
with all four matrices.  R_q replaces the second diagonal generator with
r22 -> R22 = A22 - A12*A11^-1*A21, which commutes with A11; the two
presentations convert into each other losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, Singular, centralizer, det, mat_inverse
from .report import Report
from .scalars import DeformationParameter, scalar_from_json


class RelationViolated(ValueError):
    """A quantum-matrix relation fails for the given matrices."""


class DeterminantSingular(ValueError):
    """The quantum determinant is not invertible."""


class DeterminantNotCentral(ValueError):
    """The quantum determinant fails to commute with a generator."""


class A11Singular(ValueError):
    """A11 must be invertible for this construction."""


class R22Singular(ValueError):
    """R22 must be invertible for this construction."""


class DSingular(ValueError):
    """The attached determinant must be invertible."""


class DNotInvariant(ValueError):
    """The attached determinant must commute with all four generators."""


@dataclass(frozen=True)
class GLqRep:
    """Matrices of the four generators, with the deformation parameter."""

    a11: Mat
    a12: Mat
    a21: Mat
    a22: Mat
    q: DeformationParameter

    def matrices(self) -> tuple[Mat, Mat, Mat, Mat]:
        return (self.a11, self.a12, self.a21, self.a22)

    def block(self, i: int, j: int) -> Mat:
        return self.matrices()[2 * (i - 1) + (j - 1)]

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
        q = DeformationParameter(scalar_from_json(data["q"]))
        mats = [Mat.from_json(data[key]) for key in ("A11", "A12", "A21", "A22")]
        return cls(*mats, q=q)


@dataclass(frozen=True)
class RqRep:
    """Representation of R_q: the same spinor system with commuting diagonal."""

    a11: Mat
    a12: Mat
    a21: Mat
    r22: Mat
    q: DeformationParameter


def _q_commutator(x: Mat, y: Mat, q) -> Mat:
    return x * y - (y * x).scale(q)


GLQ_RELATIONS = (
    "a11_a12_spinor",
    "a11_a21_spinor",
    "a12_a22_spinor",
    "a21_a22_spinor",
    "a12_a21_commute",
    "diagonal_commutator",
)


def _relation_report(subject: str, x11: Mat, x12: Mat, x21: Mat, x22: Mat, q: DeformationParameter) -> Report:
    """The six quantum-matrix relations, in GLQ_RELATIONS order, for any four matrices."""
    report = Report(subject)
    report.add(GLQ_RELATIONS[0], _q_commutator(x11, x12, q.q).is_zero)
    report.add(GLQ_RELATIONS[1], _q_commutator(x11, x21, q.q).is_zero)
    report.add(GLQ_RELATIONS[2], _q_commutator(x12, x22, q.q).is_zero)
    report.add(GLQ_RELATIONS[3], _q_commutator(x21, x22, q.q).is_zero)
    report.add(GLQ_RELATIONS[4], (x12 * x21 - x21 * x12).is_zero)
    gap = x11 * x22 - x22 * x11 - (x12 * x21).scale(q.q - q.inv)
    report.add(GLQ_RELATIONS[5], gap.is_zero)
    return report


def verify_glq_relations(rep: GLqRep) -> Report:
    """Check the six quantum-matrix relations exactly; itemized report."""
    return _relation_report("glq-relations", *rep.matrices(), rep.q)


def require_representation(rep: GLqRep) -> GLqRep:
    verify_glq_relations(rep).require(RelationViolated)
    return rep


def quantum_determinant(rep: GLqRep) -> Mat:
    """D = A11*A22 - q*A12*A21; asserts invertibility and centrality."""
    d = rep.a11 * rep.a22 - (rep.a12 * rep.a21).scale(rep.q.q)
    if det(d).is_zero:
        raise DeterminantSingular("quantum determinant is singular")
    for name, g in zip(("A11", "A12", "A21", "A22"), rep.matrices()):
        if not d.commutes_with(g):
            raise DeterminantNotCentral(f"determinant does not commute with {name}")
    return d


def antipode_check(rep: GLqRep) -> Report:
    """Both counit identities for the antipode blocks, all eight of them."""
    q = rep.q.q
    d = quantum_determinant(rep)
    dinv = mat_inverse(d)
    s = (
        (dinv * rep.a22, (dinv * rep.a12).scale(-rep.q.inv)),
        ((dinv * rep.a21).scale(-q), dinv * rep.a11),
    )
    a = ((rep.a11, rep.a12), (rep.a21, rep.a22))
    e4 = Mat.identity(4)
    report = Report("antipode")
    for i in range(2):
        for j in range(2):
            want = e4 if i == j else Mat.zero(4)
            left = s[i][0] * a[0][j] + s[i][1] * a[1][j]
            right = a[i][0] * s[0][j] + a[i][1] * s[1][j]
            report.add(f"counit_left_{i + 1}{j + 1}", left == want)
            report.add(f"counit_right_{i + 1}{j + 1}", right == want)
    return report


def schur_r22(rep: GLqRep) -> Mat:
    """R22 = A22 - A12*A11^-1*A21 without building a full RqRep."""
    try:
        a11_inv = mat_inverse(rep.a11)
    except Singular as exc:
        raise A11Singular("A11 is singular") from exc
    return rep.a22 - rep.a12 * a11_inv * rep.a21


def verify_rq_relations(rep: RqRep) -> Report:
    q = rep.q.q
    report = Report("rq-relations")
    report.add("a11_a12_spinor", _q_commutator(rep.a11, rep.a12, q).is_zero)
    report.add("a11_a21_spinor", _q_commutator(rep.a11, rep.a21, q).is_zero)
    report.add("a12_a21_commute", (rep.a12 * rep.a21 - rep.a21 * rep.a12).is_zero)
    report.add("a12_r22_spinor", _q_commutator(rep.a12, rep.r22, q).is_zero)
    report.add("a21_r22_spinor", _q_commutator(rep.a21, rep.r22, q).is_zero)
    report.add("a11_r22_commute", rep.a11.commutes_with(rep.r22))
    return report


def to_rq(rep: GLqRep) -> RqRep:
    """Convert to the R_q presentation and verify it, plus det_q = A11*R22."""
    r22 = schur_r22(rep)
    rq = RqRep(rep.a11, rep.a12, rep.a21, r22, rep.q)
    report = verify_rq_relations(rq)
    report.add("detq_equals_a11_r22", quantum_determinant(rep) == rep.a11 * r22)
    report.require(RelationViolated)
    return rq


def from_rq(rep: RqRep) -> GLqRep:
    """Rebuild the GL_q presentation; relations are re-verified."""
    if det(rep.a11).is_zero:
        raise A11Singular("A11 is singular")
    if det(rep.r22).is_zero:
        raise R22Singular("R22 is singular")
    a22 = rep.r22 + rep.a12 * mat_inverse(rep.a11) * rep.a21
    return require_representation(GLqRep(rep.a11, rep.a12, rep.a21, a22, rep.q))


def is_slq(rep: GLqRep) -> bool:
    """Whether the quantum determinant equals the identity."""
    return quantum_determinant(rep) == Mat.identity(4)


def connected_slq(rep: GLqRep) -> GLqRep:
    """Replace A22 by A11^-1 (1 + q A12 A21), forcing det_q = 1."""
    try:
        a11_inv = mat_inverse(rep.a11)
    except Singular as exc:
        raise A11Singular("A11 is singular") from exc
    a22 = a11_inv * (Mat.identity(4) + (rep.a12 * rep.a21).scale(rep.q.q))
    return require_representation(GLqRep(rep.a11, rep.a12, rep.a21, a22, rep.q))


def attach_determinant(slq: GLqRep, d: Mat) -> GLqRep:
    """Rebuild a GL_q representation with quantum determinant exactly d.

    The input must have det_q = 1, and d must be an invertible element of the
    invariant algebra, i.e. commute with all four generator matrices.
    """
    if not is_slq(slq):
        raise ValueError("attach_determinant expects a representation with det_q = 1")
    if det(d).is_zero:
        raise DSingular("attached determinant is singular")
    invariant_space = centralizer(list(slq.matrices()))
    if not invariant_space.contains_matrix(d):
        raise DNotInvariant("attached determinant is not an invariant of the action")
    a11_inv = mat_inverse(slq.a11)
    a22 = slq.a22 + a11_inv * (d - Mat.identity(4))
    result = require_representation(GLqRep(slq.a11, slq.a12, slq.a21, a22, slq.q))
    if quantum_determinant(result) != d:
        raise AssertionError("attached determinant mismatch")
    return result
