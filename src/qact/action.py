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
inverse: as det u != 0, that says alpha u A u^-1 = A'.  Where a witness is
applied (EquivalenceWitness.apply), u is scaled once to Gaussian integers U,
and u^-1 = adj(U) / det U is taken by no elimination: adj U and det U are
expanded from the 2x2 minors of U (_adjugate).  The scales' numerators and
conj(det U) are folded into adj U, and each block is conjugated in one pass
on plain ints, each entry normalized once.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from .linalg import (
    IntegerRows,
    Kernels,
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
from .scalars import ONE, ZERO, Record, Scalar, _alloc, as_scalar, exact_sqrt


class Unsupported(ValueError):
    """The pair is not decided: both spectra match, but under a scale outside Q(i)."""


class InnerAction:
    """The action a_ij . v = sum_k A_ik v S_kj, held as its starred blocks S_kj.

    It has no __slots__: cached_property keeps operators in the instance __dict__.
    """

    def __init__(self, rep: GLqRep, starred: Blocks):
        self.rep, self.starred = rep, starred

    @cached_property
    def operators(self) -> tuple[list[dict[int, Scalar]], ...]:
        """The rows of L_11, L_12, L_21 and L_22 on flattened v, built once (linalg._operator_rows).

        L_ij is the map v -> A_i1 v S_1j + A_i2 v S_2j, given by its terms (A_i1, S_1j), (A_i2, S_2j).
        """
        a, s = self.rep.blocks, self.starred
        return tuple(_operator_rows([(a[i][0], s[0][j]), (a[i][1], s[1][j])], 4) for i in (0, 1) for j in (0, 1))


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


class EquivalenceWitness:
    """Data (u, alpha1, alpha2) realizing the equivalence of two actions; each scale is coerced by as_scalar."""

    __slots__ = ("u", "alpha1", "alpha2", "candidates_tried")
    equivalent = True

    def __init__(self, u: Mat, alpha1: Scalar | int, alpha2: Scalar | int, candidates_tried: int = 0):
        self.u, self.candidates_tried = u, candidates_tried
        self.alpha1, self.alpha2 = as_scalar(alpha1), as_scalar(alpha2)

    def apply(self, rep: GLqRep) -> GLqRep:
        """The representation A' = u A u^-1 diag(alpha1, alpha2): block ij is alpha_j u A_ij u^-1.

        u is scaled once to Gaussian integers U over the lcm of its
        denominators, and u A u^-1 = U A adj(U) / det U, with adj U and det U
        from _adjugate: no elimination.  The numerator of alpha_j and
        conj(det U) are folded into adj U as V_j, over |det U|^2 times the
        denominator of alpha_j.  Each block is then one pass of _conjugate on
        plain ints, U A_ij V_j, normalized once per entry.  Raises
        DimensionMismatch for a u that is not 4x4 and Singular for a singular
        u (linalg.mat_inverse, which states its rank).
        """
        self.u._same(rep.a11)
        du = lcm(*[x.d for row in self.u.rows for x in row])
        dense = [[(x.a * (du // x.d), x.b * (du // x.d)) for x in row] for row in self.u.rows]
        adj, (da, db) = _adjugate(dense)
        if not (da or db):
            mat_inverse(self.u)
        left = [[(j, a, b) for j, (a, b) in enumerate(row) if a or b] for row in dense]
        norm = da * da + db * db
        v1, v2 = (([[(j, fa * a - fb * b, fa * b + fb * a) for j, a, b in row] for row in adj],
                   norm * s.d) for s in (self.alpha1, self.alpha2)
                  for fa, fb in [(s.a * da + s.b * db, s.b * da - s.a * db)])  # alpha_j's numerator times conj(det U)
        return GLqRep(_conjugate(left, rep.a11, *v1), _conjugate(left, rep.a12, *v2),
                      _conjugate(left, rep.a21, *v1), _conjugate(left, rep.a22, *v2), rep.q)

    def to_json(self) -> dict:
        return {
            "equivalent": True,
            "u": self.u.to_json(),
            "alpha1": self.alpha1.to_json(),
            "alpha2": self.alpha2.to_json(),
            "candidates_tried": self.candidates_tried,
        }


_PAIRS = [(a, b) for a in range(4) for b in range(a + 1, 4)]  # the columns of minor k; minor 5 - k has the other two
# C_ij = sum of sign * U[i^1][c] * (minor k of the other half's rows) over the (sign, c, k) of _COFACTORS[i][j].
_COFACTORS = [[[((-1) ** (i + j + c + (j < c)), c, 5 - _PAIRS.index((min(j, c), max(j, c)))) for c in range(4) if c != j]
               for j in range(4)] for i in range(4)]


def _adjugate(u: list[list[tuple[int, int]]]) -> tuple[IntegerRows, tuple[int, int]]:
    """adj U and det U for a 4x4 U of Gaussian integers (re, im), by Laplace expansion by complementary minors.

    With top_k and bottom_k the 2x2 minors of rows 0-1 and 2-3 on columns
    _PAIRS[k], det U = sum_k s_k top_k bottom_(5-k), s_k = (-1)^(a+b+1) for
    _PAIRS[k] = (a, b); each cofactor C_ij is three terms along row i^1 times
    minors of the other half (_COFACTORS), and terms at a zero entry of U are
    skipped.  adj U is returned as its rows' nonzero entries, adj(U)_ji = C_ij.
    """
    halves = [[(p * r - q * t - v * e + w * f, p * t + q * r - v * f - w * e)
               for a, b in _PAIRS for (p, q), (r, t), (v, w), (e, f) in [(x[a], y[b], x[b], y[a])]]
              for x, y in (u[0:2], u[2:4])]
    da = db = 0
    for (a, b), (p, q), (r, t) in zip(_PAIRS, halves[0], reversed(halves[1])):
        sign = 1 if (a + b) % 2 else -1
        da, db = da + sign * (p * r - q * t), db + sign * (p * t + q * r)
    adj = [[(0, 0)] * 4 for _ in range(4)]
    for i, row in enumerate(_COFACTORS):
        minors, other = halves[1 - i // 2], u[i ^ 1]
        for j, terms in enumerate(row):
            ca = cb = 0
            for sign, c, k in terms:
                a, b = other[c]
                if a or b:
                    m, n = minors[k]
                    ca, cb = ca + sign * (a * m - b * n), cb + sign * (a * n + b * m)
            adj[j][i] = ca, cb
    return [[(i, a, b) for i, (a, b) in enumerate(row) if a or b] for row in adj], (da, db)


def _conjugate(left: IntegerRows, x: Mat, right: IntegerRows, den: int) -> Mat:
    """U X V / (den D) for X = D x, D the lcm of x's denominators, and U, V over den: one gcd per entry.

    Each row of U X is summed on plain ints and then multiplied by V, and each
    nonzero entry of U X V is normalized once; an entry that sums to zero is
    the shared ZERO, and no other Scalar or Mat is made on the way.
    """
    n = x.n
    rows, d = integer_rows(x.rows)
    d *= den
    out = []
    for lrow in left:
        re, im = [0] * n, [0] * n  # row of U X
        for k, a, b in lrow:
            for j, c, e in rows[k]:
                re[j] += a * c - b * e
                im[j] += a * e + b * c
        ra, rb = [0] * n, [0] * n  # that row times V
        for k, a, b in zip(range(n), re, im):
            if a or b:
                for j, c, e in right[k]:
                    ra[j] += a * c - b * e
                    rb[j] += a * e + b * c
        row = [ZERO] * n
        for j, a, b in zip(range(n), ra, rb):
            if a or b:
                g = gcd(a, b, d)
                s = row[j] = _alloc(Scalar)
                s.a, s.b, s.d = a // g, b // g, d // g
        out.append(tuple(row))
    m = _alloc(Mat)
    m.n, m.rows = n, tuple(out)
    return m


class NotEquivalent(Record):
    """Certificate that no equivalence exists; counts the candidates ruled out."""

    __slots__ = ("candidates_tried", "obstruction")
    equivalent = False

    def __init__(self, candidates_tried: int, obstruction: str = "exhausted"):
        self.candidates_tried, self.obstruction = candidates_tried, obstruction

    def to_json(self) -> dict:
        return {
            "equivalent": False,
            "candidates_tried": self.candidates_tried,
            "obstruction": self.obstruction,
        }


Verdict = EquivalenceWitness | NotEquivalent


PowerTraces = tuple[Scalar, Scalar, Scalar, Scalar]


def _power_traces(x: Mat) -> tuple[PowerTraces, Scalar]:
    """tr(x^k) for k = 1..4 and det x, on Gaussian integers: X = D x for the lcm D of the denominators, X^2 formed once.

    With P_k = tr(X^k), P3 = sum_ik X_ik (X^2)_ki and P4 = sum_ij (X^2)_ij (X^2)_ji,
    and 24 D^4 det x = P1^4 - 6 P1^2 P2 + 3 P2^2 + 8 P1 P3 - 6 P4 (Newton's identities);
    tr(x^k) = P_k / D^k and det x are normalized once, and no Scalar or Mat is made on the way.
    """
    n = x.n
    rows, den = integer_rows(x.rows)
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
    sa, sb = p1a * p1a - p1b * p1b, 2 * p1a * p1b  # P1^2
    ta, tb = sa - 6 * p2a, sb - 6 * p2b  # P1^2 - 6 P2
    da = sa * ta - sb * tb + 3 * (p2a * p2a - p2b * p2b) + 8 * (p1a * p3a - p1b * p3b) - 6 * p4a
    db = sa * tb + sb * ta + 6 * p2a * p2b + 8 * (p1a * p3b + p1b * p3a) - 6 * p4b
    traces = Scalar(p1a, p1b, den), Scalar(p2a, p2b, den ** 2), Scalar(p3a, p3b, den ** 3), Scalar(p4a, p4b, den ** 4)
    return traces, Scalar(da, db, 24 * den ** 4)


class SpectralData:
    """The power traces p_k = tr(x^k), k = 1..4, and the determinants of the diagonal blocks A11 and A22, in that order.

    The power traces fix each block's 4x4 spectrum, and with it the determinant.
    """

    __slots__ = ("traces", "dets")

    def __init__(self, traces: tuple[PowerTraces, PowerTraces], dets: tuple[Scalar, Scalar]):
        self.traces, self.dets = traces, dets

    def to_json(self) -> dict:
        return {name: {"power_traces": [p.to_json() for p in self.traces[block]], "det": self.dets[block].to_json()}
                for block, name in enumerate(("A11", "A22"))}


def spectral_data(rep: GLqRep) -> SpectralData:
    """The spectral data of a representation's diagonal blocks A11 and A22."""
    (t11, d11), (t22, d22) = _power_traces(rep.a11), _power_traces(rep.a22)
    return SpectralData((t11, t22), (d11, d22))


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
    if not s1.dets[block]:
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


def _intertwiner_space(r1: GLqRep, r2: GLqRep, alpha1: Scalar, alpha2: Scalar,
                       kernels: Kernels | None = None) -> Subspace:
    """Solutions u of the four equations A' u = u (alpha A), stacked (the same as u A = alpha^-1 A' u)."""
    return solve_homogeneous([(xp, x.scale(alpha))
                              for x, xp, alpha in zip(r1.matrices(), r2.matrices(), (alpha1, alpha2, alpha1, alpha2))],
                             kernels=kernels)


def decide_equivalence(
    r1: GLqRep, r2: GLqRep, spectra: tuple[SpectralData, SpectralData] | None = None, *,
    kernels: Kernels | None = None,
) -> Verdict:
    """Decide equivalence of the inner actions of two GL_q representations.

    Returns an exact witness or a NotEquivalent certificate.  Equivalence
    relates two actions of one quantum group, so representations at
    different q are not equivalent: a "q" obstruction, no candidate tried.
    spectra is (spectral_data(r1), spectral_data(r2)), taken here when not
    given; a caller that decides many pairs passes it to compute each once.
    kernels, when given, is the tree of maps (linalg.Kernels) that every
    intertwiner solve (linalg.solve_homogeneous) walks, so a caller that
    decides many pairs solves each shared prefix of maps once: a self
    pair's candidate (1, 1) has the maps u -> x u - u x of its centralizer.
    It holds only kernels that solve_homogeneous computed, so it changes no
    answer; without it each solve walks a fresh tree.
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

    The scales act column by column, as a diagonal G = diag(alpha1, alpha2)
    in A' = u A u^-1 G, and no other G can occur.  An equivalence is an
    automorphism v -> u v u^-1 of C(1,3) = M_4, which carries the operators
    of A to those of u A u^-1, so it is enough that equal operators give
    A' = A G.  The map v -> sum a v b determines sum a (x) b, so the four
    L_ij are the blocks of T = sum_k c_k (x) r_k, where c_k = (A_1k; A_2k)
    is block column k of M and r_k = (S_k1 S_k2) block row k of S = M^-1:
    block ij of T is sum_k A_ik (x) S_kj.  M and S are invertible, so c_1,
    c_2 are linearly independent, and so are r_1, r_2.  Then T determines
    span{c_1, c_2}, the contractions of T by the functionals on the r side,
    and equal operators give c'_k = sum_l c_l g_lk, that is A' = A G, with G
    invertible as c'_1, c'_2 are independent too; contracting on the c side
    then gives S' = G^-1 S.  Conversely A G with S' = G^-1 S gives the same
    operators for any G in GL_2, but A G is a GL_q representation only for
    a diagonal G.  With g_kl the entries of G,
    a' = g11 a + g21 b and b' = g12 a + g22 b, and ab = q ba turns the
    relation a'b' = q b'a' into
    (1 - q) [g11 g12 a^2 + g21 g22 b^2 + (1 + q) g21 g12 ba] = 0.
    Here a is invertible, and b is nilpotent, as a b a^-1 = q b and q is not
    a root of unity.  On the kernel of b, which is not {0}, b^2 and
    ba = q^-1 ab vanish, so g11 g12 a^2 = 0 there, and g11 g12 = 0.  The
    relation c'd' = q d'c' gives g21 g22 = 0 the same way, with d invertible
    and c nilpotent.  As det G != 0, G is then diagonal or anti-diagonal, and
    an anti-diagonal G makes A'11 = g21 b nilpotent, which a GL_q
    representation rules out.
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
            u = invertible_element_in(_intertwiner_space(r1, r2, alpha1, alpha2, kernels))
            if u is None:
                continue
            v = sparse_rows(u)
            pairs = zip(r1.matrices(), r2.matrices(), (alpha1, alpha2, alpha1, alpha2))
            if not all(products_vanish([(alpha, v, sparse_rows(x)), (-ONE, sparse_rows(xp), v)])
                       for x, xp, alpha in pairs):
                raise AssertionError("intertwiner solution failed exact verification")
            return EquivalenceWitness(u, alpha1, alpha2, candidates_tried=tried)
    return NotEquivalent(tried)
