"""Dense exact matrix algebra and subspace computations over Q(i).

Matrices are square (sizes 2, 4, 8, 16 arise), stored row-major as tuples of
Scalar.  Linear subspaces of flattened matrices are kept in reduced
row-echelon form with pivots equal to 1, so subspace equality is structural
equality of the bases.  Flattening is row-major throughout: the matrix entry
(i, j) sits at index i*n + j of the flattened vector.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Optional, Sequence

from .scalars import ONE, ZERO, Scalar, as_scalar, format_scalar, scalar_from_json


class Singular(ValueError):
    """Matrix inversion attempted on a rank-deficient matrix."""


class DimensionMismatch(ValueError):
    """Operands live in different ambient spaces."""


class NotTriangular(ValueError):
    """Spectrum extraction is supported for triangular matrices only."""


class GridTooLarge(ValueError):
    """Grid search over the subspace would exceed the practical cap."""


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

    @classmethod
    def block2(cls, a: "Mat", b: "Mat", c: "Mat", d: "Mat") -> "Mat":
        """The 2x2 block matrix [[a, b], [c, d]] of equal-size blocks."""
        n = a.n
        rows = [a.rows[i] + b.rows[i] for i in range(n)]
        rows += [c.rows[i] + d.rows[i] for i in range(n)]
        return cls(rows)

    def blocks2(self) -> tuple["Mat", "Mat", "Mat", "Mat"]:
        """Split an even-size matrix into its four half-size blocks."""
        h = self.n // 2
        a = Mat([r[:h] for r in self.rows[:h]])
        b = Mat([r[h:] for r in self.rows[:h]])
        c = Mat([r[:h] for r in self.rows[h:]])
        d = Mat([r[h:] for r in self.rows[h:]])
        return a, b, c, d

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        self._same(other)
        return Mat([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        self._same(other)
        return Mat([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-x for x in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Mat):
            self._same(other)
            n = self.n
            orows = other.rows
            out = []
            for arow in self.rows:
                acc = [ZERO] * n
                for k in range(n):
                    f = arow[k]
                    if f.a or f.b:
                        brow = orows[k]
                        for j in range(n):
                            g = brow[j]
                            if g.a or g.b:
                                acc[j] = acc[j] + f * g
                out.append(acc)
            return Mat(out)
        s = _try_scalar(other)
        if s is None:
            return NotImplemented
        return self.scale(s)

    def __rmul__(self, other):
        s = _try_scalar(other)
        if s is None:
            return NotImplemented
        return self.scale(s)

    def scale(self, s) -> "Mat":
        s = as_scalar(s)
        return Mat([[x * s for x in r] for r in self.rows])

    def __pow__(self, k: int) -> "Mat":
        if k < 0:
            return mat_inverse(self) ** (-k)
        result = Mat.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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

    def is_nilpotent(self) -> bool:
        return (self ** self.n).is_zero

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
    def from_json(cls, data: dict) -> "Mat":
        n = data["n"]
        rows = data["rows"]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix JSON has inconsistent dimensions")
        return cls([[scalar_from_json(x) for x in r] for r in rows])


def _try_scalar(x) -> Optional[Scalar]:
    try:
        return as_scalar(x)
    except TypeError:
        return None


def det(m: Mat) -> Scalar:
    """Exact determinant by Gaussian elimination with row swaps."""
    n = m.n
    rows = [list(r) for r in m.rows]
    sign = ONE
    result = ONE
    for col in range(n):
        piv = None
        for r in range(col, n):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            return ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        p = rows[col][col]
        result = result * p
        pinv = p.inv()
        for r in range(col + 1, n):
            f = rows[r][col]
            if f:
                f = f * pinv
                prow = rows[col]
                rrow = rows[r]
                for c in range(col, n):
                    if prow[c]:
                        rrow[c] = rrow[c] - prow[c] * f
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
            if rows[r][col]:
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
            prow = rows[rank] = prow[:col] + [x * pinv for x in prow[col:]]
        for r in range(nrows):
            if r == rank:
                continue
            f = rows[r][col]
            if f:
                rrow = rows[r]
                for c in range(col, width):
                    if prow[c]:
                        rrow[c] = rrow[c] - prow[c] * f
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
            if f:
                for c in range(piv, self.ambient_dim):
                    if row[c]:
                        v[c] = v[c] - row[c] * f
        return v

    def contains_vector(self, vector: Sequence[Scalar]) -> bool:
        return all(x.is_zero for x in self.reduce_vector(vector))

    def contains_matrix(self, m: Mat) -> bool:
        return self.contains_vector(m.flatten())

    def contains(self, other: "Subspace") -> bool:
        self._same(other)
        return all(self.contains_vector(v) for v in other.basis)

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._same(other)
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same(other)
        # x in self lies in other iff its residual against other vanishes;
        # solve for combinations of self's basis with zero residual.
        residuals = [other.reduce_vector(v) for v in self.basis]
        k = len(residuals)
        if k == 0:
            return self
        system = [[residuals[r][c] for r in range(k)] for c in range(self.ambient_dim)]
        coeffs = solve_homogeneous(system, k)
        vectors = []
        for cv in coeffs.basis:
            vec = [ZERO] * self.ambient_dim
            for r in range(k):
                f = cv[r]
                if f:
                    row = self.basis[r]
                    for c in range(self.ambient_dim):
                        if row[c]:
                            vec[c] = vec[c] + row[c] * f
            vectors.append(vec)
        return Subspace(self.ambient_dim, vectors)

    def matrices(self) -> tuple[Mat, ...]:
        n = _matrix_side(self.ambient_dim)
        return tuple(Mat.from_flat(n, v) for v in self.basis)

    def _same(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def to_json(self) -> dict:
        doc = {"ambient_dim": self.ambient_dim, "dim": self.dim}
        if self.ambient_dim == _matrix_side(self.ambient_dim) ** 2:
            doc["basis"] = [m.to_json() for m in self.matrices()]
        else:
            doc["basis"] = [[format_scalar(x) for x in v] for v in self.basis]
        return doc


def _matrix_side(ambient: int) -> int:
    n = int(round(ambient ** 0.5))
    if n * n != ambient:
        raise DimensionMismatch(f"ambient dimension {ambient} is not a perfect square")
    return n


def solve_homogeneous(rows: list[list[Scalar]], width: int) -> Subspace:
    """Kernel of a stacked linear system given by its rows."""
    m = [list(r) for r in rows]
    pivots = _rref_in_place(m, width)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [ZERO] * width
        v[free] = ONE
        for r, piv in enumerate(pivots):
            f = m[r][free]
            if f:
                v[piv] = -f
        basis.append(v)
    return Subspace(width, basis)


def kernel(operator: Mat) -> Subspace:
    """RREF basis of the null space of a square operator."""
    return solve_homogeneous([list(r) for r in operator.rows], operator.n)


def rank(m: Mat) -> int:
    rows = [list(r) for r in m.rows]
    return len(_rref_in_place(rows, m.n))


# -- operators on flattened matrix space -------------------------------------------


def left_mul_operator(a: Mat) -> Mat:
    """Operator X -> A X on row-major flattened vectors."""
    n = a.n
    big = n * n
    rows = [[ZERO] * big for _ in range(big)]
    for i in range(n):
        for k in range(n):
            f = a.rows[i][k]
            if f:
                for j in range(n):
                    rows[i * n + j][k * n + j] = f
    return Mat(rows)


def right_mul_operator(a: Mat) -> Mat:
    """Operator X -> X A on row-major flattened vectors."""
    n = a.n
    big = n * n
    rows = [[ZERO] * big for _ in range(big)]
    for l in range(n):
        for j in range(n):
            f = a.rows[l][j]
            if f:
                for i in range(n):
                    rows[i * n + j][i * n + l] = f
    return Mat(rows)


def commutator_rows(g: Mat) -> list[list[Scalar]]:
    """Rows of the operator X -> g X - X g."""
    return [list(r) for r in (left_mul_operator(g) - right_mul_operator(g)).rows]


def centralizer(generators: Sequence[Mat]) -> Subspace:
    """RREF basis of {X : XG = GX for every generator G}."""
    generators = list(generators)
    if not generators:
        raise ValueError("centralizer needs at least one generator")
    n = generators[0].n
    rows: list[list[Scalar]] = []
    for g in generators:
        if g.n != n:
            raise DimensionMismatch("generators must share a dimension")
        rows.extend(commutator_rows(g))
    return solve_homogeneous(rows, n * n)


def algebra_closure(generators: Sequence[Mat], include_identity: bool = True) -> Subspace:
    """Smallest subspace containing the generators and closed under products.

    Iterates pairwise products of the current RREF basis until the dimension
    stabilizes; terminates since the ambient dimension bounds the chain.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("algebra_closure needs at least one generator")
    n = generators[0].n
    seed = [g.flatten() for g in generators]
    if include_identity:
        seed.append(Mat.identity(n).flatten())
    space = Subspace(n * n, seed)
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


def diagonal_spectrum(m: Mat) -> tuple[Scalar, ...]:
    """Multiset (sorted tuple) of diagonal entries of a triangular matrix."""
    if not (m.is_upper_triangular() or m.is_lower_triangular()):
        raise NotTriangular("matrix is neither upper nor lower triangular")
    return tuple(sorted((m.rows[i][i] for i in range(m.n)), key=Scalar.sort_key))


GRID_POINTS = 5  # determinant has degree <= 4 in each coefficient for n = 4
GRID_DIM_CAP = 8


def invertible_element_in(s: Subspace) -> Optional[Mat]:
    """Some invertible element of the subspace, or None as a certificate.

    The determinant of c1*b1 + ... + cd*bd has degree at most n in each ci,
    so evaluating it on the full grid {0..max(4, n)}^d is a complete
    polynomial identity test: None means the subspace contains no invertible
    element over any extension of Q(i).
    """
    d = s.dim
    if d == 0:
        return None
    if d > GRID_DIM_CAP:
        raise GridTooLarge(f"subspace dimension {d} exceeds cap {GRID_DIM_CAP}")
    n = _matrix_side(s.ambient_dim)
    mats = s.matrices()
    for coeffs in product(range(max(GRID_POINTS, n + 1)), repeat=d):
        if not any(coeffs):
            continue
        combo = Mat.zero(n)
        for c, b in zip(coeffs, mats):
            if c:
                combo = combo + (b if c == 1 else b.scale(c))
        if det(combo):
            return combo
    return None
