"""Inner actions on C(1,3) and the equivalence decision procedure.

A representation defines an action of each generator on the algebra by
a_ij . v = sum_k A_ik v S_kj, where the starred blocks S_kj = rho(S(a_kj))
are the antipode blocks (qrep.antipode), which are also the blocks of the
inverse of the 8x8 block matrix M = [[A11, A12], [A21, A22]] (see
build_action); the starred blocks are what an InnerAction stores.  The
action makes C(1,3) a module algebra exactly when M S = I_8, the blocks that
qrep.antipode_check reports as counit_right_ij (see verify_module_algebra).
Flattening C(1,3) row-major turns each generator into the map
L_ij: v -> A_i1 v S_1j + A_i2 v S_2j, given by those two terms.  The sparse
rows of the four 16x16 operators are built once (InnerAction.operators).
The six quantum-matrix relations of the L_ij are tested on those rows
(linalg.products_vanish, no 16x16 product is formed), and the fixed points of
the action are the kernel of the maps L_11 - 1, L_12, L_21 and L_22 - 1
(linalg.solve_rows) on the same rows.  a_ij . v itself is only ever
evaluated through these maps.

Two GL_q representations define equivalent actions iff one is a conjugate
of the other rescaled columnwise by nonzero scalars (alpha1 on the first
column, alpha2 on the second).  decide_equivalence enumerates a complete
candidate set for the two scalars from the power traces of A11 and A22,
taken on Gaussian integers, which also give their determinants.  Each block
pins its scale by one division, w = alpha^g, and checks the other power
traces against powers of w.  For each candidate pair it solves the
intertwiner system, the Sylvester maps u -> A' u - u (alpha A), one per
block (linalg.solve_homogeneous: the first map's rows are reduced and the
others evaluated on its kernel basis), and searches the solution space for
an invertible element at the lattice points 1 <= |c| <= 4 of the degree-4
simplex, which decide whether its determinant
(total degree 4) vanishes identically; so a negative answer is a
certificate.  A point is evaluated only when no row and no column is zero
in every basis matrix of its support: otherwise the point has that zero row
or column and is singular, so skipping it keeps the search complete and its
first invertible point the same.  A witness u is checked as
alpha u A - A' u = 0 on all four blocks (linalg.products_vanish), with no
inverse: as det u != 0, that says alpha u A u^-1 = A'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Union

from .linalg import (
    Mat,
    Subspace,
    _operator_rows,
    algebra_closure,
    integer_rows,
    invertible_element_in,
    mat_inverse,
    products_vanish,
    solve_homogeneous,
    solve_rows,
    sparse_rows,
)
from .qrep import Blocks, DeterminantSingular, GLqRep, _relation_report, antipode, quantum_determinant
from .report import Report
from .scalars import ONE, ZERO, Scalar, _make, exact_sqrt


class Unsupported(ValueError):
    """The pair is not decided: both spectra match, but under a scale outside Q(i)."""


@dataclass(frozen=True)
class InnerAction:
    """The action a_ij . v = sum_k A_ik v S_kj, held as its starred blocks S_kj."""

    rep: GLqRep
    starred: Blocks

    @cached_property
    def operators(self) -> tuple[list[dict[int, Scalar]], ...]:
        """The rows of L_11, L_12, L_21 and L_22 on flattened v, built once (linalg._operator_rows)."""
        return tuple(_operator_rows(_operator_terms(self, i, j), 4) for i in (1, 2) for j in (1, 2))


def _operator_terms(action: InnerAction, i: int, j: int) -> list[tuple[Mat, Mat]]:
    """The terms (A_i1, S_1j), (A_i2, S_2j) of L_ij, the map v -> A_i1 v S_1j + A_i2 v S_2j."""
    a, s = action.rep.block, action.starred
    return [(a(i, 1), s[0][j - 1]), (a(i, 2), s[1][j - 1])]


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
    """The six quantum-matrix relations for the 16x16 action operators L_11, L_12, L_21, L_22, on their sparse rows."""
    operators = [[[(c, x.a, x.b, x.d) for c, x in row.items()] for row in rows] for rows in action.operators]
    return _relation_report(*operators, action.rep.q, action.rep.q.q - action.rep.q.inv)


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
    report = Report()
    for i in (1, 2):
        for j in (1, 2):
            unit = passed[f"counit_right_{i}{j}"]
            report.add(f"module_algebra_{i}{j}", unit, f"(M S)_{i}{j} = {'I' if i == j else '0'}")
    return report


def operator_algebra(rep: GLqRep) -> Subspace:
    """The subalgebra of C(1,3) generated by the four matrices, with 1."""
    return algebra_closure(list(rep.matrices()))


def action_fixed_points(action: InnerAction) -> Subspace:
    """{v : a11.v = v, a12.v = 0, a21.v = 0, a22.v = v}: the kernel of L_11 - 1, L_12, L_21 and L_22 - 1.

    L_ii - 1 is the rows of L_ii with 1 subtracted on the diagonal, made only when solve_rows reads them.
    """
    return solve_rows(([{**row, r: row.get(r, ZERO) - ONE} for r, row in enumerate(rows)] if k in (0, 3) else rows
                       for k, rows in enumerate(action.operators)), 16)


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


PowerTraces = tuple[Scalar, Scalar, Scalar, Scalar]


def _power_traces(x: Mat) -> PowerTraces:
    """tr(x^k) for k = 1..4 on Gaussian integers: X = D x for the lcm D of the denominators, X^2 formed once.

    With p_k = tr(X^k), p3 = sum_ik X_ik (X^2)_ki and p4 = sum_ij (X^2)_ij (X^2)_ji;
    tr(x^k) = p_k / D^k is normalized once, and no Scalar or Mat is made on the way.
    """
    n = x.n
    den = lcm(*(e.d for row in x.rows for e in row))
    rows = integer_rows(x.rows, den)
    re2, im2 = [], []  # the real and imaginary parts of X^2
    for row in rows:
        re, im = [0] * n, [0] * n
        for k, a, b in row:
            for j, c, e in rows[k]:
                re[j] += a * c - b * e
                im[j] += a * e + b * c
        re2.append(re)
        im2.append(im)
    p1a = p1b = p3a = p3b = p4a = p4b = 0
    for i, row in enumerate(rows):
        for k, a, b in row:
            if k == i:
                p1a, p1b = p1a + a, p1b + b
            c, e = re2[k][i], im2[k][i]
            p3a, p3b = p3a + a * c - b * e, p3b + a * e + b * c
    for i in range(n):
        for j in range(i, n):
            a, b, c, e = re2[i][j], im2[i][j], re2[j][i], im2[j][i]
            f = 1 if i == j else 2  # the terms ij and ji of p4 are equal
            p4a, p4b = p4a + f * (a * c - b * e), p4b + f * (a * e + b * c)
    p2a, p2b = sum(re2[i][i] for i in range(n)), sum(im2[i][i] for i in range(n))
    return _make(p1a, p1b, den), _make(p2a, p2b, den ** 2), _make(p3a, p3b, den ** 3), _make(p4a, p4b, den ** 4)


_ONE_24TH = Scalar(1, 0, 24)


@dataclass(frozen=True)
class SpectralData:
    """The power traces p_k = tr(x^k), k = 1..4, of the diagonal blocks A11 and A22, in that order.

    They fix each block's 4x4 spectrum, and with it the determinant (det).
    """

    traces: tuple[PowerTraces, PowerTraces]

    def det(self, block: int) -> Scalar:
        """det A11 (block 0) or det A22 (block 1): 24 det x = p1^4 - 6 p1^2 p2 + 3 p2^2 + 8 p1 p3 - 6 p4 (Newton)."""
        p1, p2, p3, p4 = self.traces[block]
        sq = p1 * p1
        return (sq * (sq - p2 * 6) + p2 * p2 * 3 + p1 * p3 * 8 - p4 * 6) * _ONE_24TH

    def to_json(self) -> dict:
        return {name: {"power_traces": [p.to_json() for p in self.traces[block]], "det": self.det(block).to_json()}
                for block, name in enumerate(("A11", "A22"))}


def spectral_data(rep: GLqRep) -> SpectralData:
    """The spectral data of a representation's diagonal blocks A11 and A22."""
    return SpectralData((_power_traces(rep.a11), _power_traces(rep.a22)))


def _spectral_pin(s1: SpectralData, s2: SpectralData, block: int) -> tuple[int, Scalar] | None:
    """The pin (g, w) such that spectrum(x') = alpha * spectrum(x) iff alpha^g = w; None if no alpha.

    x and x' are the diagonal block of index block (0 for A11, 1 for A22) of
    the representations whose spectral data are s1 and s2.  Power traces
    p_k = tr(x^k), k = 1..4, fix a 4x4 spectrum (Newton's identities), so
    alpha qualifies iff p_k(x') = alpha^k p_k(x) for all k.  That pins
    w = alpha^g, g = gcd{k : p_k(x) != 0}, and all g-th roots of w qualify or
    none do; so None is a certificate over every extension of Q(i).  Raises
    DeterminantSingular when the spectra match and s1 gives det x = 0.
    That leaves g in {1, 2, 4}, as g = 0 and g = 3 (only p3 != 0) give det 0.
    """
    p, pp = s1.traces[block], s2.traces[block]
    if any(bool(a) != bool(b) for a, b in zip(p, pp)):
        return None
    ks = [k for k in range(1, 5) if p[k - 1]]
    g = gcd(*ks)
    if g in ks:
        w = pp[g - 1] / p[g - 1]
    else:  # w = (p'_k / p_k) / (p'_(k-g) / p_(k-g)), in one division; no k when every p_k is 0
        w = next((pp[k - 1] * p[k - g - 1] / (p[k - 1] * pp[k - g - 1]) for k in ks if k - g in ks), None)
    powers = [w]  # w^1, w^2, ...
    for k in ks:
        while len(powers) < k // g:
            powers.append(powers[-1] * w)
        if k != g and pp[k - 1] != p[k - 1] * powers[k // g - 1]:
            return None
    if not s1.det(block):
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
    """Solutions u of the four equations A' u = u (alpha A), stacked (the same as u A = alpha^-1 A' u)."""
    return solve_homogeneous([(xp, x.scale(alpha))
                              for x, xp, alpha in zip(r1.matrices(), r2.matrices(), (alpha1, alpha2, alpha1, alpha2))])


def decide_equivalence(
    r1: GLqRep, r2: GLqRep, spectra: tuple[SpectralData, SpectralData] | None = None
) -> Verdict:
    """Decide equivalence of the inner actions of two GL_q representations.

    Returns an exact witness or a NotEquivalent certificate.  Equivalence
    relates two actions of one quantum group, so representations at
    different q are not equivalent: a "q" obstruction, no candidate tried.
    spectra is (spectral_data(r1), spectral_data(r2)), taken here when not
    given; a caller that decides many pairs passes it to compute each once.
    The candidate scales are those under which the power traces of A11
    (alpha1) and A22 (alpha2) match.  A11 is checked, then A22: a block whose spectra
    differ is a "spectrum" obstruction, and a matched singular block raises
    DeterminantSingular, its determinant taken from the same power traces.
    Each candidate pair reduces to a linear intertwiner system; the
    determinant on its solution space has total degree 4, so it is evaluated
    at the lattice points 1 <= |c| <= 4 of the degree-4 simplex, a complete
    identity test at every dimension up to 16; a point whose support leaves
    a row or a column zero is singular and skipped unevaluated, which keeps
    the test complete and the point found the same
    (linalg.invertible_element_in).  The u found is checked as
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
    matrices and needs no action.  Raises Unsupported for a scale outside Q(i)
    when both spectra match.
    """
    if r1.q != r2.q:
        return NotEquivalent(0, obstruction="q")
    s1, s2 = spectra or (spectral_data(r1), spectral_data(r2))
    pin1 = _spectral_pin(s1, s2, 0)
    pin2 = _spectral_pin(s1, s2, 1) if pin1 else None
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
            v = sparse_rows(u)
            pairs = zip(r1.matrices(), r2.matrices(), (alpha1, alpha2, alpha1, alpha2))
            if not all(products_vanish([(alpha, v, sparse_rows(x)), (-ONE, sparse_rows(xp), v)])
                       for x, xp, alpha in pairs):
                raise AssertionError("intertwiner solution failed exact verification")
            return EquivalenceWitness(u, alpha1, alpha2, candidates_tried=tried)
    return NotEquivalent(tried)
