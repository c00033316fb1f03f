"""Dense exact matrix algebra and subspace computations over Q(i).

Matrices are square (sizes 2, 4, 16 arise), stored row-major as tuples of
Scalar.  Zero entries are skipped, never multiplied, so results may share
immutable Scalar objects with their operands.  The product sums each entry
over its nonzero terms on plain-int (a, b, d) triples and normalizes it once,
as Scalar.dot does; an entry that no term reaches is the shared ZERO.
Linear subspaces of flattened matrices are kept in reduced row-echelon form
with pivots equal to 1, so subspace equality is structural equality of the
bases.  Flattening is row-major: the matrix entry (i, j) sits at index
i*n + j, and mul_operator alone builds operators on flattened matrices.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence

from .scalars import ONE, ZERO, Scalar, _alloc, as_scalar, format_scalar, scalar_from_json


class Singular(ValueError):
    """Matrix inversion attempted on a rank-deficient matrix."""


class DimensionMismatch(ValueError):
    """Operands live in different ambient spaces."""


class Mat:
    """An n-by-n matrix of Scalars; immutable by convention."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("matrix must be square")
        self.n = n
        self.rows = rows

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Mat":
        return cls([[ZERO] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, *entries) -> "Mat":
        entries = [as_scalar(e) for e in entries]
        n = len(entries)
        return cls([[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Mat":
        """Matrix unit e_ij with 1-based indices, matching the e_ij notation."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatch(f"unit indices ({i}, {j}) out of range for size {n}")
        return cls([[ONE if (r == i - 1 and c == j - 1) else ZERO for c in range(n)] for r in range(n)])

    @classmethod
    def from_flat(cls, n: int, vec: Sequence[Scalar]) -> "Mat":
        if len(vec) != n * n:
            raise DimensionMismatch("flattened length does not match dimension")
        return cls([vec[i * n : (i + 1) * n] for i in range(n)])

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        self._same(other)
        return Mat([[(x + y if x.a or x.b else y) if y.a or y.b else x for x, y in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        self._same(other)
        return Mat([[(x - y if x.a or x.b else -y) if y.a or y.b else x for x, y in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-x for x in r] for r in self.rows])

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        self._same(other)
        n = self.n
        orows = other.rows
        terms = [None] * n  # the nonzero (j, a, b, d) of row k of other, listed when first read
        zero_row = (ZERO,) * n
        out = []
        for arow in self.rows:
            acc = {}  # j -> (a, b, d): entry j of this row so far, on a common denominator
            for k, f in enumerate(arow):
                fa, fb = f.a, f.b
                if fa or fb:
                    brow = terms[k]
                    if brow is None:
                        brow = terms[k] = [(j, g.a, g.b, g.d) for j, g in enumerate(orows[k]) if g.a or g.b]
                    fd = f.d
                    for j, ga, gb, gd in brow:
                        a, b, d = fa * ga - fb * gb, fa * gb + fb * ga, fd * gd
                        t = acc.get(j)
                        if t is not None:
                            ta, tb, td = t
                            if td == d:
                                a, b = ta + a, tb + b
                            else:
                                g = gcd(td, d)
                                m, c = d // g, td // g  # td * m is the lcm of td and d
                                a, b, d = ta * m + a * c, tb * m + b * c, td * m
                        acc[j] = (a, b, d)
            if not acc:
                out.append(zero_row)
                continue
            row = [ZERO] * n
            for j, (a, b, d) in acc.items():
                if d != 1:
                    g = gcd(a, b, d)
                    if g != 1:
                        a, b, d = a // g, b // g, d // g
                s = row[j] = _alloc(Scalar)
                s.a, s.b, s.d = a, b, d
            out.append(tuple(row))
        product = _alloc(Mat)
        product.n, product.rows = n, tuple(out)
        return product

    def scale(self, s) -> "Mat":
        s = as_scalar(s)
        return Mat([[x * s if x.a or x.b else x for x in r] for r in self.rows])

    # -- predicates --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for r in self.rows for x in r)

    def is_upper_triangular(self) -> bool:
        return all(self.rows[i][j].is_zero for i in range(self.n) for j in range(i))

    def is_lower_triangular(self) -> bool:
        return all(self.rows[i][j].is_zero for i in range(self.n) for j in range(i + 1, self.n))

    def commutes_with(self, other: "Mat") -> bool:
        return self * other == other * self

    def trace(self) -> Scalar:
        t = ZERO
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def flatten(self) -> tuple[Scalar, ...]:
        return tuple(x for r in self.rows for x in r)

    def _same(self, other: "Mat"):
        if self.n != other.n:
            raise DimensionMismatch(f"sizes {self.n} and {other.n} differ")

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(x) for x in r) for r in self.rows)
        return f"Mat[{body}]"

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [[format_scalar(x) for x in r] for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict, field: str = "matrix") -> "Mat":
        n = data["n"]
        rows = data["rows"]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DimensionMismatch(f"{field}: matrix JSON has inconsistent dimensions")
        return cls([[scalar_from_json(x, f"{field}.rows[{i}][{j}]") for j, x in enumerate(r)]
                    for i, r in enumerate(rows)])


def det(m: Mat) -> Scalar:
    """Exact determinant by Gaussian elimination with row swaps."""
    n = m.n
    rows = [list(r) for r in m.rows]
    sign = ONE
    result = ONE
    for col in range(n):
        piv = None
        for r in range(col, n):
            x = rows[r][col]
            if x.a or x.b:
                piv = r
                break
        if piv is None:
            return ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        p = rows[col][col]
        result = result * p
        pinv = None
        for r in range(col + 1, n):
            f = rows[r][col]
            if f.a or f.b:
                pinv = p.inv() if pinv is None else pinv
                f = f * pinv
                prow = rows[col]
                rrow = rows[r]
                for c in range(col, n):
                    x = prow[c]
                    if x.a or x.b:
                        rrow[c] = rrow[c].minus_product(x, f)
    return result * sign


def mat_inverse(m: Mat) -> Mat:
    """Inverse by Gauss-Jordan with first-nonzero pivot selection."""
    n = m.n
    aug = [list(m.rows[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    pivots = _rref_in_place(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise Singular(f"matrix of size {n} has rank {len([p for p in pivots if p < n])}")
    return Mat([row[n:] for row in aug])


def _rref_in_place(rows: list[list[Scalar]], width: int) -> list[int]:
    """Reduce to RREF (pivots 1, fully reduced); returns pivot columns.

    Rows are modified in place; zero rows are dropped from the tail.
    """
    nrows = len(rows)
    rank = 0
    pivot_cols = []
    for col in range(width):
        piv = None
        for r in range(rank, nrows):
            x = rows[r][col]
            if x.a or x.b:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        p = prow[col]
        if p.a != 1 or p.b != 0 or p.d != 1:
            pinv = p.inv()
            prow = rows[rank] = prow[:col] + [x * pinv if x.a or x.b else x for x in prow[col:]]
        for r in range(nrows):
            if r == rank:
                continue
            f = rows[r][col]
            if f.a or f.b:
                rrow = rows[r]
                for c in range(col, width):
                    x = prow[c]
                    if x.a or x.b:
                        rrow[c] = rrow[c].minus_product(x, f)
        pivot_cols.append(col)
        rank += 1
        if rank == nrows:
            break
    del rows[rank:]
    return pivot_cols


class Subspace:
    """A linear subspace of Q(i)^ambient_dim with a canonical RREF basis."""

    __slots__ = ("ambient_dim", "basis", "pivot_columns")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence[Scalar]]):
        rows = []
        for v in vectors:
            v = list(v)
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length does not match ambient dimension")
            rows.append(v)
        pivots = _rref_in_place(rows, ambient_dim)
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in rows)
        self.pivot_columns = tuple(pivots)

    @classmethod
    def span_of(cls, mats: Iterable[Mat]) -> "Subspace":
        mats = list(mats)
        if not mats:
            raise ValueError("span_of needs at least one matrix")
        n = mats[0].n
        return cls(n * n, [m.flatten() for m in mats])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def reduce_vector(self, vector: Sequence[Scalar]) -> list[Scalar]:
        """Residual of a vector after eliminating all pivot coordinates."""
        v = list(vector)
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        for row, piv in zip(self.basis, self.pivot_columns):
            f = v[piv]
            if f.a or f.b:
                for c in range(piv, self.ambient_dim):
                    x = row[c]
                    if x.a or x.b:
                        v[c] = v[c].minus_product(x, f)
        return v

    def contains_vector(self, vector: Sequence[Scalar]) -> bool:
        return all(x.is_zero for x in self.reduce_vector(vector))

    def contains_matrix(self, m: Mat) -> bool:
        return self.contains_vector(m.flatten())

    def matrices(self) -> tuple[Mat, ...]:
        n = _matrix_side(self.ambient_dim)
        return tuple(Mat.from_flat(n, v) for v in self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def to_json(self) -> dict:
        doc = {"ambient_dim": self.ambient_dim, "dim": self.dim}
        if isqrt(self.ambient_dim) ** 2 == self.ambient_dim:
            doc["basis"] = [m.to_json() for m in self.matrices()]
        else:
            doc["basis"] = [[format_scalar(x) for x in v] for v in self.basis]
        return doc


def _matrix_side(ambient: int) -> int:
    n = isqrt(ambient)
    if n * n != ambient:
        raise DimensionMismatch(f"ambient dimension {ambient} is not a perfect square")
    return n


def solve_homogeneous(rows: Sequence[Sequence[Scalar]], width: int) -> Subspace:
    """Kernel of a stacked linear system, imposing its rows width at a time.

    The first block is reduced to RREF and its kernel basis b_1..b_d read off.
    Then x = sum_k c_k b_k solves a later block iff sum_k c_k (r . b_k) = 0
    for each of its rows r: a system in d unknowns whose kernel recombines the
    basis.  The last basis spans the kernel of all the rows, and Subspace
    reduces it to the same RREF basis a single reduction of all rows gives.
    Zero entries and rows cost no product; solving stops once the kernel is {0}.
    """
    basis = _free_basis([list(r) for r in rows[:width]], width)
    for start in range(width, len(rows), width):
        if not basis:
            break
        entries = [[(c, x) for c, x in enumerate(r) if x.a or x.b] for r in rows[start : start + width]]
        system = [[_dot(cols, xs, b) for b in basis] for cols, xs in (zip(*e) for e in entries if e)]
        if any(y.a or y.b for dots in system for y in dots):
            basis = _combine(_free_basis(system, len(basis)), basis, width)
    return Subspace(width, basis)


def _free_basis(m: list[list[Scalar]], width: int) -> list[list[Scalar]]:
    """Kernel basis of the rows m, one vector per free column of their RREF; m is reduced in place."""
    pivots = _rref_in_place(m, width)
    basis = []
    for free in sorted(set(range(width)) - set(pivots)):
        v = [ZERO] * width
        v[free] = ONE
        for r, piv in enumerate(pivots):
            f = m[r][free]
            if f.a or f.b:
                v[piv] = -f
        basis.append(v)
    return basis


def _dot(cols: Sequence[int], xs: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """sum xs[k] * v[cols[k]], one fused Scalar.dot that skips zero v[c]."""
    return Scalar.dot(xs, [v[c] for c in cols])


def _combine(coeffs: Iterable[Sequence[Scalar]], vectors: Sequence[Sequence[Scalar]], width: int) -> list[list[Scalar]]:
    """The combinations sum_k c_k vectors[k], one per coefficient vector c."""
    out = []
    for cv in coeffs:
        vec = [ZERO] * width
        for f, row in zip(cv, vectors):
            if f.a or f.b:
                for c, x in enumerate(row):
                    if x.a or x.b:
                        x = x if f is ONE else x * f
                        vec[c] = vec[c] + x if vec[c].a or vec[c].b else x
        out.append(vec)
    return out


def kernel(operator: Mat) -> Subspace:
    """RREF basis of the null space of a square operator."""
    return solve_homogeneous(operator.rows, operator.n)


# -- operators on flattened matrix space -------------------------------------------


def mul_operator(terms: Sequence[tuple[Mat, Mat]]) -> Mat:
    """The n^2 x n^2 operator X -> sum_t a_t X b_t on row-major flattened X.

    (a X b)_ij = sum_kl a_ik X_kl b_lj, so entry (i*n + j, k*n + l) is
    sum_t a_t[i][k] b_t[l][j].  A factor that is ONE is not multiplied.
    """
    n = terms[0][0].n
    rows = [[ZERO] * (n * n) for _ in range(n * n)]
    for a, b in terms:
        if a.n != n or b.n != n:
            raise DimensionMismatch("operator factors must share a size")
        nonzero_b = [(l, j, g) for l, brow in enumerate(b.rows) for j, g in enumerate(brow) if g.a or g.b]
        for i, arow in enumerate(a.rows):
            for k, f in enumerate(arow):
                if f.a or f.b:
                    for l, j, g in nonzero_b:
                        x = g if f is ONE else f if g is ONE else f * g
                        row, c = rows[i * n + j], k * n + l
                        y = row[c]
                        row[c] = y + x if y.a or y.b else x
    return Mat(rows)


def centralizer(generators: Sequence[Mat]) -> Subspace:
    """RREF basis of {X : XG = GX for every generator G}."""
    generators = list(generators)
    if not generators:
        raise ValueError("centralizer needs at least one generator")
    n = generators[0].n
    one = Mat.identity(n)
    rows = [r for g in generators for r in mul_operator([(g, one), (one, -g)]).rows]
    return solve_homogeneous(rows, n * n)


def algebra_closure(generators: Sequence[Mat]) -> Subspace:
    """Smallest subspace containing 1 and the generators and closed under products.

    Iterates pairwise products of the current RREF basis until the dimension
    stabilizes; terminates since the ambient dimension bounds the chain.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("algebra_closure needs at least one generator")
    n = generators[0].n
    space = Subspace(n * n, [g.flatten() for g in generators] + [Mat.identity(n).flatten()])
    while True:
        mats = space.matrices()
        vectors = list(space.basis)
        for x in mats:
            for y in mats:
                vectors.append((x * y).flatten())
        bigger = Subspace(n * n, vectors)
        if bigger.dim == space.dim:
            return space
        space = bigger


def invertible_element_in(s: Subspace) -> Optional[Mat]:
    """Some invertible element of the subspace, or None as a certificate.

    det(c1*b1 + ... + cd*bd) has total degree n in the ci, and the lattice
    points {c in N^d : |c| <= n} are unisolvent for such polynomials (Chung-Yao
    1977).  It vanishes at c = 0, so testing 1 <= |c| <= n is complete: None
    holds over every extension of Q(i).  Points go by degree |c| = 1, ..., n,
    each degree in descending lexicographic order, and each is tested as it
    is built.  A point of degree 1 is a basis matrix; one of degree k >= 2 is
    its prefix point of degree k - 1 plus one basis matrix, so only the
    points of the previous degree are kept.
    """
    n = _matrix_side(s.ambient_dim)
    mats = s.matrices()
    prefixes = {(): None}
    for degree in range(1, n + 1):
        points = {}
        for idx in combinations_with_replacement(range(s.dim), degree):
            head = prefixes[idx[:-1]]
            combo = points[idx] = mats[idx[-1]] if head is None else head + mats[idx[-1]]
            if det(combo):
                return combo
        prefixes = points
    return None
