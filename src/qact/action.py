"""Inner actions on C(1,3) and the equivalence decision procedure.

A representation defines an action of each generator on the algebra by
a_ij . v = sum_k A_ik v A*_kj, where the starred blocks come from the
inverse of the 8x8 block matrix of the representation.  Flattening C(1,3)
row-major turns each generator into a 16x16 operator, which must satisfy
the same six quantum-matrix relations.

Two representations define equivalent actions iff one is a conjugate of the
other rescaled columnwise by nonzero scalars (alpha1 on the first column,
alpha2 on the second).  decide_equivalence enumerates a complete candidate
set for the two scalars, solves the simultaneous intertwiner system for
each pair, and searches the solution space for an invertible element with a
deterministic grid test, so a negative answer is a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .linalg import (
    Mat,
    Singular,
    Subspace,
    algebra_closure,
    centralizer,
    diagonal_spectrum,
    invertible_element_in,
    left_mul_operator,
    mat_inverse,
    right_mul_operator,
    solve_homogeneous,
)
from .qrep import A11Singular, GLqRep, RelationViolated, _relation_report, schur_r22, verify_glq_relations
from .report import Report
from .scalars import ZERO, Scalar


class MSingular(ValueError):
    """The 8x8 block matrix of a valid representation is always invertible."""


class FixedPointMismatch(AssertionError):
    """Centralizer and action fixed points disagree; implementation bug."""


class Unsupported(ValueError):
    """Candidate scalars cannot be enumerated for these inputs."""


@dataclass(frozen=True)
class InnerAction:
    """The action data of a representation: M, its inverse, and operators."""

    rep: GLqRep
    m: Mat
    minv: Mat
    astar: tuple[tuple[Mat, Mat], tuple[Mat, Mat]]
    operators: tuple[tuple[Mat, Mat], tuple[Mat, Mat]]

    def operator(self, i: int, j: int) -> Mat:
        return self.operators[i - 1][j - 1]

    def apply(self, i: int, j: int, v: Mat) -> Mat:
        """a_ij . v computed directly on 4x4 matrices."""
        blocks = ((self.rep.a11, self.rep.a12), (self.rep.a21, self.rep.a22))
        total = Mat.zero(4)
        for k in range(2):
            total = total + blocks[i - 1][k] * v * self.astar[k][j - 1]
        return total


def build_action(rep: GLqRep, verify: bool = True) -> InnerAction:
    """Construct M, M^-1 and the four 16x16 operators for a representation.

    With verify=True (the default) the representation relations are required
    and the operators are asserted to satisfy the same six relations.
    """
    if verify:
        verify_glq_relations(rep).require(RelationViolated)
    m = Mat.block2(rep.a11, rep.a12, rep.a21, rep.a22)
    try:
        minv = mat_inverse(m)
    except Singular as exc:
        raise MSingular("block matrix M is singular") from exc
    s11, s12, s21, s22 = minv.blocks2()
    astar = ((s11, s12), (s21, s22))
    blocks = ((rep.a11, rep.a12), (rep.a21, rep.a22))
    operators = tuple(
        tuple(_action_operator(blocks, astar, i, j) for j in range(2)) for i in range(2)
    )
    action = InnerAction(rep, m, minv, astar, operators)
    if verify:
        operator_relation_report(action).require(RelationViolated)
    return action


def _action_operator(blocks, astar, i: int, j: int) -> Mat:
    # Column at flattened e_pq is flatten(sum_k A_ik e_pq A*_kj); each term is
    # the outer product of column p of A_ik with row q of A*_kj.
    rows = [[ZERO] * 16 for _ in range(16)]
    for k in range(2):
        aik = blocks[i][k]
        skj = astar[k][j]
        for p in range(4):
            for q in range(4):
                col = p * 4 + q
                srow = skj.rows[q]
                for r in range(4):
                    f = aik.rows[r][p]
                    if f:
                        base = r * 4
                        for c in range(4):
                            g = srow[c]
                            if g:
                                rows[base + c][col] = rows[base + c][col] + f * g
    return Mat(rows)


def operator_relation_report(action: InnerAction) -> Report:
    """The six quantum-matrix relations for the 16x16 action operators."""
    return _relation_report("action-operator-relations", *action.operators[0], *action.operators[1], action.rep.q)


def verify_module_algebra(action: InnerAction) -> Report:
    """a_ij . (vw) = sum_k (a_ik . v)(a_kj . w) on all 256 basis pairs."""
    acted = [
        [[action.apply(i, k, Mat.unit(4, p, q)) for p in range(1, 5) for q in range(1, 5)] for k in (1, 2)]
        for i in (1, 2)
    ]
    report = Report("module-algebra")
    for i in (1, 2):
        for j in (1, 2):
            ok = True
            bad = ""
            for p in range(1, 5):
                for qq in range(1, 5):
                    v_idx = (p - 1) * 4 + (qq - 1)
                    for r in range(1, 5):
                        for s in range(1, 5):
                            w_idx = (r - 1) * 4 + (s - 1)
                            # vw = e_pq e_rs = delta_qr e_ps
                            if qq == r:
                                lhs = acted[i - 1][j - 1][(p - 1) * 4 + (s - 1)]
                            else:
                                lhs = Mat.zero(4)
                            rhs = (
                                acted[i - 1][0][v_idx] * acted[0][j - 1][w_idx]
                                + acted[i - 1][1][v_idx] * acted[1][j - 1][w_idx]
                            )
                            if lhs != rhs:
                                ok = False
                                bad = f"v=e{p}{qq}, w=e{r}{s}"
            report.add(f"module_algebra_{i}{j}", ok, bad or "256 pairs")
    return report


def operator_algebra(rep: GLqRep) -> Subspace:
    """The subalgebra of C(1,3) generated by the four matrices, with 1."""
    return algebra_closure(list(rep.matrices()), include_identity=True)


def action_fixed_points(action: InnerAction) -> Subspace:
    """{v : a11.v = v, a12.v = 0, a21.v = 0, a22.v = v} as a subspace."""
    e16 = Mat.identity(16)
    rows: list[list[Scalar]] = []
    rows.extend(list(r) for r in (action.operator(1, 1) - e16).rows)
    rows.extend(list(r) for r in action.operator(1, 2).rows)
    rows.extend(list(r) for r in action.operator(2, 1).rows)
    rows.extend(list(r) for r in (action.operator(2, 2) - e16).rows)
    return solve_homogeneous(rows, 16)


def invariants(rep: GLqRep, action: Optional[InnerAction] = None) -> Subspace:
    """Invariant algebra, computed two independent ways and cross-checked.

    The centralizer of the four generator matrices must coincide with the
    fixed-point space of the action operators; a mismatch would falsify the
    centralizer description of the invariants and raises FixedPointMismatch.
    """
    cent = centralizer(list(rep.matrices()))
    if action is None:
        action = build_action(rep, verify=False)
    fixed = action_fixed_points(action)
    if cent != fixed:
        raise FixedPointMismatch("centralizer differs from action fixed points")
    return cent


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


def _triangular_spectrum(m: Mat) -> Optional[tuple[Scalar, ...]]:
    if m.is_upper_triangular() or m.is_lower_triangular():
        return diagonal_spectrum(m)
    return None


def _scale_candidates(x: Mat, xp: Mat) -> tuple[list[Scalar], bool]:
    """Complete candidates for alpha in x' = u x u^-1 alpha, if enumerable.

    Triangular pairs give the eigenvalue-ratio set filtered by multiset
    equality; otherwise a nonzero trace pins alpha uniquely.  The boolean
    reports whether the returned list is complete (a certificate basis).
    """
    sx = _triangular_spectrum(x)
    sxp = _triangular_spectrum(xp)
    if sx is not None and sxp is not None:
        ratios = set()
        for lam_p in set(sxp):
            for lam in set(sx):
                if lam:
                    ratios.add(lam_p / lam)
        found = []
        for alpha in sorted(ratios, key=Scalar.sort_key):
            if not alpha:
                continue
            scaled = tuple(sorted((v * alpha for v in sx), key=Scalar.sort_key))
            if scaled == sxp:
                found.append(alpha)
        return found, True
    t = x.trace()
    tp = xp.trace()
    if t:
        alpha = tp / t
        return ([alpha] if alpha else []), True
    if tp:
        return [], True  # alpha * 0 can never equal a nonzero trace
    return [], False


def _alpha2_candidates(r1: GLqRep, r2: GLqRep) -> tuple[list[Scalar], bool]:
    # A22 transforms with alpha2, and so does the Schur complement
    # R22 = A22 - A12 A11^-1 A21; use whichever pair is triangular.
    pairs = [(r1.a22, r2.a22)]
    try:
        pairs.append((schur_r22(r1), schur_r22(r2)))
    except A11Singular:
        pass
    for x, xp in pairs:
        if _triangular_spectrum(x) is not None and _triangular_spectrum(xp) is not None:
            return _scale_candidates(x, xp)
    for x, xp in pairs:
        cands, complete = _scale_candidates(x, xp)
        if complete:
            return cands, True
    return [], False


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

    Returns an exact witness or a NotEquivalent certificate.  Candidate
    scalars are enumerated completely (spectra of triangular matrices, or a
    forced trace ratio); each candidate pair reduces to a linear intertwiner
    system whose solution space is searched for an invertible element by a
    deterministic grid evaluation.  Raises Unsupported when no complete
    candidate enumeration is available for the inputs.
    """
    if r1.q != r2.q:
        raise Unsupported("representations have different deformation parameters")
    cands1, complete1 = _scale_candidates(r1.a11, r2.a11)
    if not complete1:
        raise Unsupported("cannot enumerate alpha1 candidates for A11")
    cands2, complete2 = _alpha2_candidates(r1, r2)
    if not complete2:
        raise Unsupported("cannot enumerate alpha2 candidates for A22")
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
    if not cands1 or not cands2:
        return NotEquivalent(tried, obstruction="spectrum")
    return NotEquivalent(tried)
