"""Inner actions on C(1,3) and the equivalence decision procedure.

A representation defines an action of each generator on the algebra by
a_ij . v = sum_k A_ik v S_kj, where the starred blocks S_kj = rho(S(a_kj))
are the antipode blocks (qrep.antipode), which are also the blocks of the
inverse of the 8x8 block matrix M = [[A11, A12], [A21, A22]] (see
build_action); the starred blocks are what an InnerAction stores.  The
action makes C(1,3) a module algebra exactly when M S = I_8, the blocks that
qrep.antipode_check reports as counit_right_ij (see verify_module_algebra).
Flattening C(1,3) row-major turns each generator into a 16x16 operator L_ij
(linalg.mul_operator), built only where it is read: its six quantum-matrix
relations and its fixed points.  a_ij . v itself is only ever evaluated
through these operators.

Two GL_q representations define equivalent actions iff one is a conjugate
of the other rescaled columnwise by nonzero scalars (alpha1 on the first
column, alpha2 on the second).  decide_equivalence enumerates a complete
candidate set for the two scalars from the power traces of A11 and A22,
which also give their determinants, solves the intertwiner system for each
pair, and searches the solution space for an invertible element at the
lattice points 1 <= |c| <= 4 of the degree-4 simplex, which decide whether
its determinant (total degree 4) vanishes identically; so a negative answer
is a certificate.  A witness u is checked as alpha u A = A' u on all four
blocks, with no inverse: as det u != 0, that says alpha u A u^-1 = A'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Union

from .linalg import (
    Mat,
    Subspace,
    algebra_closure,
    invertible_element_in,
    mat_inverse,
    mul_operator,
    solve_homogeneous,
)
from .qrep import Blocks, DeterminantSingular, GLqRep, _relation_report, antipode, quantum_determinant
from .report import Report
from .scalars import Scalar, exact_sqrt


class Unsupported(ValueError):
    """The pair is not decided: the deformation parameters differ, or both spectra match under a scale outside Q(i)."""


@dataclass(frozen=True)
class InnerAction:
    """The action a_ij . v = sum_k A_ik v S_kj, held as its starred blocks S_kj."""

    rep: GLqRep
    starred: Blocks

    @cached_property
    def operators(self) -> Blocks:
        """The 16x16 operators L_ij of v -> A_i1 v S_1j + A_i2 v S_2j on row-major flattened matrices."""
        a, s = self.rep.block, self.starred
        return tuple(tuple(mul_operator([(a(i, 1), s[0][j]), (a(i, 2), s[1][j])]) for j in range(2)) for i in (1, 2))


def build_action(rep: GLqRep) -> InnerAction:
    """The action of a representation; its starred blocks are the antipode blocks.

    For four matrices that satisfy the six relations, these are the blocks
    of M^-1, with D = det_q:
    - Let adj_q = [[A22, -q^-1 A12], [-q A21, A11]].  Then
      adj_q M = M adj_q = diag(D, D), one relation per block: for example
      A22 A11 - q^-1 A12 A21 = A11 A22 - q A12 A21 by the diagonal
      commutator relation, and A22 A12 - q^-1 A12 A22 = 0.
    - So if D is invertible, M^-1 = diag(D^-1, D^-1) adj_q, whose blocks are
      exactly the antipode blocks.
    - If D is singular, so is M.  D is central, so K = ker D != 0 is
      invariant under every block, and adj_q M = 0 on K x K.  An invertible
      M would map K x K onto itself, so adj_q would vanish on K x K, and so
      would M, its blocks being those of adj_q up to sign and scale.
    Raises DeterminantSingular when D is singular, which the inversion of D
    in antipode finds; this is the GL_q test of the CLI.  The relations are
    not checked here: verify_glq_relations and operator_relation_report do
    that.
    """
    return InnerAction(rep, antipode(rep, quantum_determinant(rep)))


def operator_relation_report(action: InnerAction) -> Report:
    """The six quantum-matrix relations for the 16x16 action operators."""
    return _relation_report("action-operator-relations", *action.operators[0], *action.operators[1], action.rep.q)


def verify_module_algebra(counit: Report) -> Report:
    """The module-algebra axioms, read off the M S = I_8 blocks of an antipode report.

    counit is antipode_check(rep, s) for the starred blocks s of the action.
    The axioms are the unit a_ij . 1 = delta_ij 1 and the product identity
    a_ij . (vw) = sum_k (a_ik . v)(a_kj . w) for all v and w.
    - The unit axiom reads sum_l A_il S_lj = delta_ij I, which is block ij
      of M S = I_8.
    - Then S = M^-1, so S M = I_8 as well: sum_k S_lk A_km = delta_lm I.
      That collapses sum_k (a_ik . v)(a_kj . w)
      = sum_{l,m} A_il v (sum_k S_lk A_km) w S_mj = sum_l A_il v w S_lj
      = a_ij . (vw), for every v and w.
    So the unit axiom and the product identity together hold iff M S = I_8,
    for any S, including a corrupted one.  Check module_algebra_ij is the
    counit_right_ij check of counit, block ij of M S, which is a_ij . 1.
    """
    passed = {c.name: c.passed for c in counit.checks}
    report = Report("module-algebra")
    for i in (1, 2):
        for j in (1, 2):
            unit = passed[f"counit_right_{i}{j}"]
            report.add(f"module_algebra_{i}{j}", unit, f"(M S)_{i}{j} = {'I' if i == j else '0'}")
    return report


def operator_algebra(rep: GLqRep) -> Subspace:
    """The subalgebra of C(1,3) generated by the four matrices, with 1."""
    return algebra_closure(list(rep.matrices()))


def action_fixed_points(action: InnerAction) -> Subspace:
    """{v : a11.v = v, a12.v = 0, a21.v = 0, a22.v = v} as a subspace."""
    e16 = Mat.identity(16)
    (l11, l12), (l21, l22) = action.operators
    return solve_homogeneous([r for op in (l11 - e16, l12, l21, l22 - e16) for r in op.rows], 16)


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
    """tr(x^k) for k = 1..4 from the single product x^2, p3 and p4 as fused dot products; no division."""
    x2 = x * x
    flat2 = x2.flatten()
    p3 = Scalar.dot([y for column in zip(*x.rows) for y in column], flat2)
    p4 = Scalar.dot([y for column in zip(*x2.rows) for y in column], flat2)
    return x.trace(), x2.trace(), p3, p4


def _spectral_pin(x: Mat, xp: Mat) -> tuple[int, Scalar] | None:
    """The pin (g, w) such that spectrum(x') = alpha * spectrum(x) iff alpha^g = w; None if no alpha.

    Power traces p_k = tr(x^k), k = 1..4, fix a 4x4 spectrum (Newton's
    identities), so alpha qualifies iff p_k(x') = alpha^k p_k(x) for all k.
    That pins w = alpha^g, g = gcd{k : p_k(x) != 0}, and all g-th roots of w
    qualify or none do; so None is a certificate over every extension of Q(i).
    Raises DeterminantSingular when the spectra match and x is singular:
    24 det x = p1^4 - 6 p1^2 p2 + 3 p2^2 + 8 p1 p3 - 6 p4, again by Newton.
    That leaves g in {1, 2, 4}, as g = 0 and g = 3 (only p3 != 0) give det 0.
    """
    p, pp = _power_traces(x), _power_traces(xp)
    if any(bool(a) != bool(b) for a, b in zip(p, pp)):
        return None
    ks = [k for k in range(1, 5) if p[k - 1]]
    g = gcd(*ks)
    ratio = {k: pp[k - 1] / p[k - 1] for k in ks}
    w = ratio[g] if g in ratio else next((ratio[k] / ratio[k - g] for k in ks if k - g in ratio), None)
    if not all(ratio[k] == w ** (k // g) for k in ks):
        return None
    p1, p2, p3, p4 = p
    sq = p1 * p1
    if not (sq * (sq - p2 * 6) + p2 * p2 * 3 + p1 * p3 * 8 - p4 * 6):
        raise DeterminantSingular("quantum determinant is singular")
    return g, w


def _roots(g: int, w: Scalar) -> list[Scalar]:
    """Every g-th root of w in Q(i), sorted, for g in {1, 2, 4}; Unsupported if they lie outside."""
    roots = [w]
    for _ in range(g.bit_length() - 1):
        halves = [exact_sqrt(r) for r in roots]
        if any(h is None for h in halves):
            raise Unsupported(f"alpha^{g} = {w} has no root in Q(i)")
        roots = [s for h in halves for s in (h, -h)]
    return sorted(roots, key=Scalar.sort_key)


def _intertwiner_space(r1: GLqRep, r2: GLqRep, alpha1: Scalar, alpha2: Scalar) -> Subspace:
    """Solutions u of the four equations alpha u A = A' u, stacked (the same as u A = alpha^-1 A' u)."""
    one = Mat.identity(4)
    rows = [r for x, xp, alpha in zip(r1.matrices(), r2.matrices(), (alpha1, alpha2, alpha1, alpha2))
            for r in mul_operator([(one, x.scale(alpha)), (-xp, one)]).rows]
    return solve_homogeneous(rows, 16)


def decide_equivalence(r1: GLqRep, r2: GLqRep) -> Verdict:
    """Decide equivalence of the inner actions of two GL_q representations.

    Returns an exact witness or a NotEquivalent certificate.  The candidate
    scales are those under which the power traces of A11 (alpha1) and A22
    (alpha2) match.  A11 is checked, then A22: a block whose spectra differ
    is a "spectrum" obstruction, and a matched singular block raises
    DeterminantSingular, its determinant taken from the same power traces.
    Each candidate pair reduces to a linear intertwiner system; the
    determinant on its solution space has total degree 4, so it is evaluated
    at the lattice points 1 <= |c| <= 4 of the degree-4 simplex, a complete
    identity test at every dimension up to 16.  The u found is checked as
    (u x) alpha = x' u for the four block pairs (x, x'), alpha being alpha1
    for A11, A21 and alpha2 for A12, A22.  As det u != 0, that holds iff
    EquivalenceWitness(u, alpha1, alpha2).apply(r1) == r2, with no inverse.

    Only a GL_q representation has an action (build_action), and for four
    matrices that satisfy the relations that is a condition on A11 and A22.
    Write a, b, c, d for A11, A12, A21, A22 and D = det_q = ad - q bc.
    - bc is nilpotent.  The relations give a bc = q^2 bc a, d bc = q^-2 bc d,
      ad = D + q bc and da = D + q^-1 bc, with D central.  So for
      t(m, k) = tr(D^m (bc)^k), cyclicity turns tr(ad D^m (bc)^k) =
      tr(d D^m (bc)^k a) = q^-2k tr(da D^m (bc)^k) into
      (1 - q^-2k) t(m+1, k) = (q^(-2k-1) - q) t(m, k+1).  As q is not a root
      of unity, induction on k gives t(m, k) = 0 for all m >= 0 and k >= 1,
      and tr((bc)^k) = 0 for all k >= 1 means bc is nilpotent.
    - ad commutes with bc, by the first two of those relations.
    - So D = ad - q bc, ad plus a nilpotent that commutes with it, is
      invertible iff ad is, that is iff A11 and A22 both are.
    So a singular A11 or A22 of r1 whose spectrum matches raises
    DeterminantSingular; matched spectra are multiples of each other by a
    nonzero scale, so r2's block is then singular too.
    Every witness and every "exhausted" certificate is thus about two GL_q
    representations, while a "spectrum" obstruction is a fact about the
    matrices and needs no action.  Raises Unsupported for different q, and for
    a scale outside Q(i) when both spectra match.
    """
    if r1.q != r2.q:
        raise Unsupported("representations have different deformation parameters")
    pin1 = _spectral_pin(r1.a11, r2.a11)
    pin2 = _spectral_pin(r1.a22, r2.a22) if pin1 else None
    if pin2 is None:
        return NotEquivalent(0, obstruction="spectrum")
    # A22 first: when neither scale lies in Q(i), the A22 one is reported.
    cands2, cands1 = _roots(*pin2), _roots(*pin1)
    tried = 0
    for alpha1 in cands1:
        for alpha2 in cands2:
            tried += 1
            space = _intertwiner_space(r1, r2, alpha1, alpha2)
            u = invertible_element_in(space) if space.dim else None
            if u is None:
                continue
            pairs = zip(r1.matrices(), r2.matrices(), (alpha1, alpha2, alpha1, alpha2))
            if any((u * x).scale(alpha) != xp * u for x, xp, alpha in pairs):
                raise AssertionError("intertwiner solution failed exact verification")
            return EquivalenceWitness(u, alpha1, alpha2, candidates_tried=tried)
    return NotEquivalent(tried)
