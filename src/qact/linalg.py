"""Dense exact matrix algebra and subspace computations over Q(i).

Matrices are square (sizes 2, 4, 16 arise), stored row-major as tuples of
Scalar.  Zero entries are skipped, never multiplied, so results may share
immutable Scalar objects with their operands.  The product sums each entry
over its nonzero terms on plain-int (a, b, d) triples and normalizes it once,
as Scalar.dot does; an entry that no term reaches is the shared ZERO.
Linear subspaces of flattened matrices are kept in reduced row-echelon form
with pivots equal to 1, so subspace equality is structural equality of the
bases.  Flattening is row-major: the matrix entry (i, j) sits at index
i*n + j.  A map X -> sum_t a_t X b_t on flattened matrices is given by its
terms (a_t, b_t), whose rows are built sparse in one place; solve_homogeneous,
the one kernel solver, imposes maps through the product loop of Mat.__mul__.
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
        product = _alloc(Mat)
        product.n, product.rows = self.n, tuple(_product_rows(map(enumerate, self.rows), other.rows, self.n))
        return product

    def scale(self, s) -> "Mat":
        s = as_scalar(s)
        if s == ONE:
            return self
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
        return all(map(_all_zero, self.rows))

    def is_upper_triangular(self) -> bool:
        return all(_all_zero(r[:i]) for i, r in enumerate(self.rows))

    def is_lower_triangular(self) -> bool:
        return all(_all_zero(r[i + 1 :]) for i, r in enumerate(self.rows))

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


def _product_rows(left: Iterable[Iterable[tuple[int, Scalar]]], right: Sequence[Sequence[Scalar]],
                  width: int) -> list[tuple[Scalar, ...]]:
    """The rows of L R, each entry summed on plain-int (a, b, d) triples and normalized once.

    left yields each row of L as (k, L[r][k]) pairs, zeros allowed; right holds
    the rows of R, width long.  An entry no term reaches is the shared ZERO.
    """
    terms = [None] * len(right)  # the nonzero (j, a, b, d) of row k of R, listed when first read
    zero_row = (ZERO,) * width
    out = []
    for lrow in left:
        acc = {}  # j -> (a, b, d): entry j of this row so far, on a common denominator
        for k, f in lrow:
            fa, fb = f.a, f.b
            if fa or fb:
                rrow = terms[k]
                if rrow is None:
                    rrow = terms[k] = [(j, g.a, g.b, g.d) for j, g in enumerate(right[k]) if g.a or g.b]
                fd = f.d
                for j, ga, gb, gd in rrow:
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
        row = [ZERO] * width
        for j, (a, b, d) in acc.items():
            if d != 1:
                g = gcd(a, b, d)
                if g != 1:
                    a, b, d = a // g, b // g, d // g
            s = row[j] = _alloc(Scalar)
            s.a, s.b, s.d = a, b, d
        out.append(tuple(row))
    return out


def _all_zero(entries: Sequence[Scalar]) -> bool:
    """Whether every entry is zero, each tested inline."""
    for x in entries:
        if x.a or x.b:
            return False
    return True


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
        return _all_zero(self.reduce_vector(vector))

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


# -- maps X -> sum_t a_t X b_t on flattened matrix space ----------------------------


Terms = Sequence[tuple[Mat, Mat]]


def _operator_rows(terms: Terms, n: int) -> list[dict[int, Scalar]]:
    """The n^2 rows of X -> sum_t a_t X b_t on row-major flattened n x n X, each as {column: nonzero entry}.

    (a X b)_ij = sum_kl a_ik X_kl b_lj, so entry (i*n + j, k*n + l) is
    sum_t a_t[i][k] b_t[l][j].  A factor that is ONE is not multiplied, and
    an entry whose terms cancel is dropped, so a zero row is empty.
    """
    rows = [{} for _ in range(n * n)]
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
                        y = row.get(c)
                        if y is not None:
                            x = y + x
                            if not (x.a or x.b):
                                del row[c]
                                continue
                        row[c] = x
    return rows


def mul_operator(terms: Terms) -> Mat:
    """The n^2 x n^2 operator X -> sum_t a_t X b_t on row-major flattened X, its sparse rows made dense."""
    n = terms[0][0].n
    return Mat([[row.get(c, ZERO) for c in range(n * n)] for row in _operator_rows(terms, n)])


def solve_homogeneous(maps: Sequence[Terms]) -> Subspace:
    """The X on which every map X -> sum_t a_t X b_t vanishes; each map is its terms (a_t, b_t), all of one size.

    The first map's rows are made dense (mul_operator) and reduced, and its
    kernel basis b_1..b_d read off.  x = sum_k c_k b_k solves a later map iff
    sum_k c_k (r . b_k) = 0 for each of its sparse rows r: a system in d
    unknowns, the product of those rows with the transposed basis, whose
    kernel recombines the basis by one more product.  The last basis spans
    the common kernel, which Subspace reduces to the RREF basis one reduction
    of all the rows gives.  Zero rows cost no product, and once the kernel is
    {0} no later map is read.
    """
    n = maps[0][0][0].n
    width = n * n
    basis = _free_basis([list(r) for r in mul_operator(maps[0]).rows if not _all_zero(r)], width)
    for terms in maps[1:]:
        if not basis:
            break
        rows = [row.items() for row in _operator_rows(terms, n) if row]
        if not rows:
            continue
        system = [list(r) for r in _product_rows(rows, list(zip(*basis)), len(basis)) if not _all_zero(r)]
        if system:
            basis = _product_rows(map(enumerate, _free_basis(system, len(basis))), basis, width)
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


def centralizer(generators: Sequence[Mat]) -> Subspace:
    """RREF basis of {X : XG = GX for every generator G}."""
    generators = list(generators)
    if not generators:
        raise ValueError("centralizer needs at least one generator")
    one = Mat.identity(generators[0].n)
    return solve_homogeneous([[(g, one), (one, -g)] for g in generators])


def algebra_closure(generators: Sequence[Mat]) -> Subspace:
    """Smallest subspace containing 1 and the generators and closed under products.

    That is the span of all words in the generators.  Let V_0 = span{1, G}
    and V_{k+1} = V_k + G V_k.  As V_{k-1} is in V_k, G V_{k-1} is in V_k
    already, so only the directions N_k that V_k added over V_{k-1} need
    left-multiplying (N_0 = V_0).  Each product g x is reduced against V_k;
    the nonzero residuals, reduced among themselves, are N_{k+1}.  The chain
    stops when N_{k+1} = 0: then G V_k is in V_k, and since 1 is in V_k and
    every word is g times a shorter word, V_k holds every word.  The
    ambient dimension bounds the chain, and the RREF basis is canonical.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("algebra_closure needs at least one generator")
    n = generators[0].n
    space = Subspace(n * n, [g.flatten() for g in generators] + [Mat.identity(n).flatten()])
    new = space.matrices()
    while True:
        residuals = []
        for x in new:
            for g in generators:
                r = space.reduce_vector((g * x).flatten())
                if not _all_zero(r):
                    residuals.append(r)
        if not residuals:
            return space
        added = Subspace(n * n, residuals)
        space = Subspace(n * n, space.basis + added.basis)
        new = added.matrices()


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
