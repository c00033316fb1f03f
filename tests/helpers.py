"""Shared random generators and small utilities for the test suite."""

from __future__ import annotations

import random

from qact import Mat, Report, Scalar, Subspace, as_scalar, decide_equivalence, det, mat_inverse

SMALL_DENOMS = (1, 1, 1, 2, 3)


def random_scalar(rng: random.Random, lo: int = -4, hi: int = 4, complex_ok: bool = True) -> Scalar:
    a = rng.randint(lo, hi)
    b = rng.randint(lo, hi) if complex_ok and rng.random() < 0.3 else 0
    d = rng.choice(SMALL_DENOMS)
    return Scalar(a, b, d)


def random_nonzero_scalar(rng: random.Random, **kw) -> Scalar:
    while True:
        s = random_scalar(rng, **kw)
        if s:
            return s


def random_mat(rng: random.Random, n: int) -> Mat:
    return Mat([[random_scalar(rng) for _ in range(n)] for _ in range(n)])


def random_low_rank(rng: random.Random, n: int, k: int) -> Mat:
    """Product of an n-by-k and a k-by-n slice, so rank is at most k."""
    left = [[random_scalar(rng) for _ in range(k)] for _ in range(n)]
    right = [[random_scalar(rng) for _ in range(n)] for _ in range(k)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            total = as_scalar(0)
            for m in range(k):
                total = total + left[i][m] * right[m][j]
            row.append(total)
        rows.append(row)
    return Mat(rows)


def random_strictly_upper(rng: random.Random, n: int = 4) -> Mat:
    rows = []
    for i in range(n):
        rows.append([as_scalar(0)] * (i + 1) + [random_scalar(rng) for _ in range(n - i - 1)])
    return Mat(rows)


def random_invertible_upper(rng: random.Random, n: int = 4) -> Mat:
    rows = []
    for i in range(n):
        row = [as_scalar(0)] * i
        row.append(rng.choice([as_scalar(1), as_scalar(2), as_scalar(3), as_scalar(-1), Scalar(1, 1)]))
        row.extend(random_scalar(rng, -2, 2) for _ in range(n - i - 1))
        rows.append(row)
    return Mat(rows)


def random_dense_invertible(rng: random.Random, n: int = 4) -> Mat:
    """An invertible, non-triangular matrix of small Gaussian integers with at most n zeros."""
    while True:
        m = Mat([[Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if rng.random() < 0.2 else 0) for _ in range(n)]
                 for _ in range(n)])
        dense = sum(1 for row in m.rows for x in row if x) >= n * n - n
        if dense and not m.is_upper_triangular() and not m.is_lower_triangular() and det(m):
            return m


def jordan(*parts: int) -> Mat:
    """The unipotent 4x4 Jordan matrix with blocks of the given sizes."""
    rows = [[Scalar(0)] * 4 for _ in range(4)]
    start = 0
    for size in parts:
        for k in range(start, start + size):
            rows[k][k] = Scalar(1)
            if k + 1 < start + size:
                rows[k][k + 1] = Scalar(1)
        start += size
    return Mat(rows)


def reference_gammas() -> tuple[Mat, Mat, Mat, Mat]:
    """gamma_0 = diag(1, 1, -1, -1) and gamma_k = [[0, -sigma_k], [sigma_k, 0]], from the 2x2 Pauli matrices."""
    zero, one, i = Scalar(0), Scalar(1), Scalar(0, 1)
    pauli = (Mat([[zero, one], [one, zero]]), Mat([[zero, -i], [i, zero]]), Mat([[one, zero], [zero, -one]]))
    spatial = []
    for s in pauli:
        top = [[zero, zero, -x, -y] for x, y in s.rows]
        bottom = [[x, y, zero, zero] for x, y in s.rows]
        spatial.append(Mat(top + bottom))
    return (Mat.diag(1, 1, -1, -1), *spatial)


def trace(m: Mat) -> Scalar:
    return sum((m.rows[i][i] for i in range(m.n)), as_scalar(0))


def is_zero_matrix(m: Mat) -> bool:
    return not any(x for row in m.rows for x in row)


def is_nilpotent(m: Mat) -> bool:
    """m^n = 0, by repeated products."""
    power = m
    for _ in range(m.n - 1):
        power = power * m
    return is_zero_matrix(power)


def sqrt2_blocks() -> tuple[Mat, Mat]:
    """A11 with eigenvalues 1, -1, 2, -2, and the companion matrix of x^4 - 10x^2 + 16, which has them times sqrt(2)."""
    v = Mat([[as_scalar(x) for x in row] for row in ((1, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 1), (0, 0, 1, 2))])
    a11 = v * Mat.diag(1, -1, 2, -2) * mat_inverse(v)
    assert not a11.is_upper_triangular() and not a11.is_lower_triangular()
    unit = lambda i, j: Mat.unit(4, i, j)
    return a11, unit(2, 1) + unit(3, 2) + unit(4, 3) + unit(1, 4).scale(-16) + unit(3, 4).scale(10)


def one_relation_broken(k: int) -> tuple[Mat, Mat, Mat, Mat]:
    """(x11, x12, x21, x22) satisfying every quantum-matrix relation but the k-th (GLQ_RELATIONS order), for any q != 1.

    Zero blocks turn the other five into 0 = 0; relation k compares
    I e12 with q e12 (k < 4), e12 e11 = 0 with e11 e12 = e12 (k = 4), or
    e11 e12 - e12 e11 = e12 with (q - q^-1) 0 (k = 5).
    """
    one, zero, e11, e12 = Mat.identity(4), Mat.zero(4), Mat.unit(4, 1, 1), Mat.unit(4, 1, 2)
    return (
        (one, e12, zero, zero),
        (one, zero, e12, zero),
        (zero, e12, zero, one),
        (zero, zero, e12, one),
        (zero, e12, e11, zero),
        (e11, zero, zero, e12),
    )[k]


def matvec(m: Mat, vec) -> tuple:
    out = []
    for row in m.rows:
        total = as_scalar(0)
        for entry, x in zip(row, vec):
            if entry and x:
                total = total + entry * x
        out.append(total)
    return tuple(out)


def block_matrix(rep) -> Mat:
    """The 8x8 block matrix M = [[A11, A12], [A21, A22]]."""
    top = [r1 + r2 for r1, r2 in zip(rep.a11.rows, rep.a12.rows)]
    bottom = [r1 + r2 for r1, r2 in zip(rep.a21.rows, rep.a22.rows)]
    return Mat(top + bottom)


def inverse_blocks(rep):
    """The 4x4 blocks ((S11, S12), (S21, S22)) of M^-1 by 8x8 elimination; raises Singular when M is."""
    rows = mat_inverse(block_matrix(rep)).rows
    block = lambda r, c: Mat([row[c : c + 4] for row in rows[r : r + 4]])
    return ((block(0, 0), block(0, 4)), (block(4, 0), block(4, 4)))


def act(action, i: int, j: int, v: Mat) -> Mat:
    """a_ij . v = A_i1 v S_1j + A_i2 v S_2j, from the starred blocks the action stores."""
    a, s = action.rep.blocks[i - 1], action.starred
    return a[0] * v * s[0][j - 1] + a[1] * v * s[1][j - 1]


def reference_action(rep, i: int, j: int, v: Mat) -> Mat:
    """a_ij . v = sum_k A_ik v S_kj on 4x4 matrices, S the blocks of M^-1; no operators involved."""
    a = rep.blocks
    s = inverse_blocks(rep)
    return a[i - 1][0] * v * s[0][j - 1] + a[i - 1][1] * v * s[1][j - 1]


# The matrix units e12, e23, e34, e21, e32, e43 generate M4 (e_ii = e_i,i+1 e_i+1,i).
GENERATORS = ((1, 2), (2, 3), (3, 4), (2, 1), (3, 2), (4, 3))


def module_algebra_at_generators(action) -> bool:
    """a_ij . 1 = delta_ij 1, and a_ij . (vw) = sum_k (a_ik . v)(a_kj . w) for v a generator, w a unit.

    The identity is linear in w, and holding at v and v' it holds at vv'
    (apply it twice), so the generators cover every v and w.  Via act.
    """
    one, zero = Mat.identity(4), Mat.zero(4)
    gens = [Mat.unit(4, p, q) for p, q in GENERATORS]
    units = [Mat.unit(4, p, q) for p in range(1, 5) for q in range(1, 5)]
    on_gens = {(i, k): [act(action, i, k, v) for v in gens] for i in (1, 2) for k in (1, 2)}
    on_units = {(k, j): [act(action, k, j, w) for w in units] for k in (1, 2) for j in (1, 2)}
    for i in (1, 2):
        for j in (1, 2):
            if act(action, i, j, one) != (one if i == j else zero):
                return False
            for v, av1, av2 in zip(gens, on_gens[i, 1], on_gens[i, 2]):
                for w, a1w, a2w in zip(units, on_units[1, j], on_units[2, j]):
                    if act(action, i, j, v * w) != av1 * a1w + av2 * a2w:
                        return False
    return True


def module_algebra_on_all_pairs(action) -> bool:
    """a_ij . (vw) = sum_k (a_ik . v)(a_kj . w) on all 4 x 256 pairs of matrix units, via act."""
    units = [Mat.unit(4, p, q) for p in range(1, 5) for q in range(1, 5)]
    acted = {(i, k): [act(action, i, k, v) for v in units] for i in (1, 2) for k in (1, 2)}
    zero = Mat.zero(4)
    for i in (1, 2):
        for j in (1, 2):
            for p in range(4):
                for qq in range(4):
                    for r in range(4):
                        for s in range(4):
                            # e_pq e_rs = delta_qr e_ps
                            lhs = acted[i, j][p * 4 + s] if qq == r else zero
                            rhs = (acted[i, 1][p * 4 + qq] * acted[1, j][r * 4 + s]
                                   + acted[i, 2][p * 4 + qq] * acted[2, j][r * 4 + s])
                            if lhs != rhs:
                                return False
    return True


# -- dense reference kernels ---------------------------------------------------------
#
# Row lists of Scalars, every entry touched: no zero is skipped, so these are
# the oracle for the zero-aware kernels in qact.linalg.

_ZERO, _ONE = Scalar(0), Scalar(1)


def dense_add(a: Mat, b: Mat) -> list:
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)]


def dense_sub(a: Mat, b: Mat) -> list:
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)]


def dense_scale(a: Mat, c: Scalar) -> list:
    return [[x * c for x in r] for r in a.rows]


def dense_mul(a: Mat, b: Mat) -> list:
    n = a.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            total = _ZERO
            for k in range(n):
                total = total + a.rows[i][k] * b.rows[k][j]
            row.append(total)
        out.append(row)
    return out


def dense_kron(a: Mat, b: Mat) -> Mat:
    """The Kronecker product: entry (i*m + k, j*m + l) is a_ij b_kl."""
    m = b.n
    return Mat([[a.rows[i][j] * b.rows[k][l] for j in range(a.n) for l in range(m)]
                for i in range(a.n) for k in range(m)])


def transpose(a: Mat) -> Mat:
    return Mat(zip(*a.rows))


def dense_map_rows(terms) -> list:
    """The rows of X -> sum_t a_t X b_t on row-major flattened X: the sum of the Kronecker products a_t (x) b_t^T."""
    n = terms[0][0].n
    rows = [[_ZERO] * (n * n) for _ in range(n * n)]
    for a, b in terms:
        rows = dense_add(Mat(rows), dense_kron(a, transpose(b)))
    return rows


def dense_stacked_kernel(maps) -> list:
    """The RREF basis of the common kernel of the maps, each given by its terms, from their stacked dense rows."""
    return dense_kernel([r for terms in maps for r in dense_map_rows(terms)], maps[0][0][0].n ** 2)


def dense_rref(rows, width: int) -> tuple[list, list]:
    """(nonzero RREF rows with pivots 1, pivot columns); every row operation runs on every entry."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(width):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != _ZERO), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank:
                f = rows[r][col]
                rows[r] = [x - y * f for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def dense_det(a: Mat) -> Scalar:
    """Elimination below each pivot on every entry of every row, zero multipliers included."""
    rows = [list(r) for r in a.rows]
    result = _ONE
    for col in range(a.n):
        piv = next((r for r in range(col, a.n) if rows[r][col] != _ZERO), None)
        if piv is None:
            return _ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            result = -result
        p = rows[col][col]
        result = result * p
        for r in range(col + 1, a.n):
            f = rows[r][col] / p
            rows[r] = [x - y * f for x, y in zip(rows[r], rows[col])]
    return result


def dense_inverse(a: Mat):
    """Rows of a^-1, or None when a is singular."""
    n = a.n
    rows, pivots = dense_rref([list(r) + [_ONE if i == j else _ZERO for j in range(n)]
                               for i, r in enumerate(a.rows)], 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in rows]


def dense_kernel(rows, width: int) -> list:
    """The RREF basis of {x : rows x = 0}."""
    reduced, pivots = dense_rref(rows, width)
    basis = []
    for free in range(width):
        if free not in pivots:
            v = [_ZERO] * width
            v[free] = _ONE
            for r, piv in enumerate(pivots):
                v[piv] = -reduced[r][free]
            basis.append(v)
    return dense_rref(basis, width)[0]


def reference_from_rq_a22(rq) -> Mat:
    """The Schur inverse A22 = R22 + A12 A11^-1 A21 on the dense kernels; A11 must be invertible."""
    a11_inv = Mat(dense_inverse(rq.a11))
    return Mat(dense_add(rq.r22, Mat(dense_mul(Mat(dense_mul(rq.a12, a11_inv)), rq.a21))))


def reference_attached_a22(slq, d: Mat) -> Mat:
    """A22 + A11^-1 (d - 1) on the dense kernels, for slq with det_q = 1 and invertible A11."""
    one = Mat([[_ONE if i == j else _ZERO for j in range(4)] for i in range(4)])
    return Mat(dense_add(slq.a22, Mat(dense_mul(Mat(dense_inverse(slq.a11)), Mat(dense_sub(d, one))))))


def simplex_exponents(dim: int, degree: int):
    """Every c in N^dim with |c| = degree, in descending lexicographic order."""
    if dim == 0:
        if degree == 0:
            yield ()
        return
    for first in range(degree, -1, -1):
        for rest in simplex_exponents(dim - 1, degree - first):
            yield (first,) + rest


def reference_first_invertible(space: Subspace):
    """The first point sum c_k b_k of the basis b of flattened 4x4 matrices with a nonzero determinant, or None.

    Points go by degree |c| = 1, ..., 4 and each degree in descending
    lexicographic order of c.  Each point is summed from the zero matrix by
    dense_add, c_k copies of each b_k, and tested by dense_det.
    """
    mats = [Mat([v[i : i + 4] for i in range(0, 16, 4)]) for v in space.basis]
    for degree in range(1, 5):
        for c in simplex_exponents(len(mats), degree):
            point = Mat([[_ZERO] * 4 for _ in range(4)])
            for copies, b in zip(c, mats):
                for _ in range(copies):
                    point = Mat(dense_add(point, b))
            if dense_det(point) != _ZERO:
                return point
    return None


def reference_intertwiner_space(r1, r2, alpha1: Scalar, alpha2: Scalar) -> Subspace:
    """Solutions u of u A = alpha^-1 A' u, each 16x16 operator scaled by alpha^-1.

    Built from Kronecker products, X -> a X as a (x) I and X -> X b as I (x) b^T,
    and solved by the dense reference kernel, never by linalg.solve_homogeneous.
    """
    e4 = Mat.identity(4)
    rows = []
    for x, xp, alpha in zip(r1.matrices(), r2.matrices(), (alpha1, alpha2, alpha1, alpha2)):
        rows.extend(dense_sub(dense_kron(e4, transpose(x)), Mat(dense_scale(dense_kron(xp, e4), alpha.inv()))))
    return Subspace(16, dense_kernel(rows, 16))


def reference_distinctness(reps) -> Report:
    """verify_distinctness by its definition: decide_equivalence on every pair and self pair, in order.

    No spectral class and no shared kernel: each pair is decided from its two
    representations alone.
    """
    ids = list(reps)
    report = Report()
    for i, e1 in enumerate(ids):
        for e2 in ids[i:]:
            verdict = decide_equivalence(reps[e1], reps[e2])
            if e1 == e2:
                report.add(f"{e1} ~ {e1}", verdict.equivalent, "self-equivalence witness")
            elif verdict.equivalent:
                report.add(f"{e1} vs {e2}", False, "unexpected witness")
            else:
                report.add(f"{e1} vs {e2}", True, f"candidates tried: {verdict.candidates_tried}")
    return report


def reference_algebra_closure(generators) -> list:
    """The RREF basis, as flattened rows, of the algebra the matrices generate with 1.

    Each round adds the products of all pairs of basis matrices by dense_mul
    and reduces everything by dense_rref, until the dimension stops growing.
    """
    n = generators[0].n
    flat = lambda rows: [x for r in rows for x in r]
    identity = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    basis = dense_rref([flat(g.rows) for g in generators] + [flat(identity)], n * n)[0]
    while True:
        mats = [Mat([v[i : i + n] for i in range(0, n * n, n)]) for v in basis]
        bigger = dense_rref(basis + [flat(dense_mul(x, y)) for x in mats for y in mats], n * n)[0]
        if len(bigger) == len(basis):
            return basis
        basis = bigger
