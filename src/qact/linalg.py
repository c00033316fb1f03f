"""Dense exact matrix algebra and subspace computations over Q(i).

Matrices are square (sizes 2, 4, 16 arise), stored row-major as tuples of
Scalar.  Zero entries are skipped, never multiplied, so results may share
immutable Scalar objects with their operands.  The product sums each entry
over its nonzero terms on plain-int (a, b, d) triples and normalizes it once;
an entry that no term reaches is the shared ZERO.
Linear subspaces of flattened matrices are kept in reduced row-echelon form
with pivots equal to 1, so subspace equality is structural equality of the
bases.  Flattening is row-major: the matrix entry (i, j) sits at index
i*n + j.  The rows of a map X -> sum_t a_t X b_t on flattened matrices are
built sparse from its terms (a_t, b_t) in one place (_operator_rows).  One
reduce-and-recombine loop finds every kernel: it reduces the first map's
rows, and evaluates each later map on the kernel basis found so far.
solve_rows takes maps as their rows, and solve_homogeneous takes Sylvester
maps X -> L X - X R as the pairs (L, R); it builds the rows of the first
one only, and evaluates each later one as L B - B R on Gaussian integers
(_sylvester_system), with no row of it built.  An identity among products
that is only checked is tested by products_vanish, which sums
sum_t c_t X_t Y_t row by row on the same plain-int triples and stops at the
first nonzero entry, without building any product.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
        return Mat([[-x if x.a or x.b else x for x in r] for r in self.rows])

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

    def is_upper_triangular(self) -> bool:
        return all(_all_zero(r[:i]) for i, r in enumerate(self.rows))

    def is_lower_triangular(self) -> bool:
        return all(_all_zero(r[i + 1 :]) for i, r in enumerate(self.rows))

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


SparseRows = list[list[tuple[int, int, int, int]]]  # each row's nonzero entries (j, a, b, d), (a + b i)/d at column j


def sparse_rows(m: Mat) -> SparseRows:
    return [[(j, x.a, x.b, x.d) for j, x in enumerate(r) if x.a or x.b] for r in m.rows]


IntegerRows = list[list[tuple[int, int, int]]]  # each row's nonzero entries (j, a, b), (a + b i)/den at column j


def integer_rows(rows: Sequence[Sequence[Scalar]], den: int) -> IntegerRows:
    """The rows as Gaussian integers over den, a multiple of every denominator: the nonzero (j, a, b) of each."""
    return [[(j, x.a * (den // x.d), x.b * (den // x.d)) for j, x in enumerate(r) if x.a or x.b] for r in rows]


def products_vanish(terms: Iterable[tuple[Scalar, SparseRows, SparseRows]]) -> bool:
    """Whether sum_t c_t X_t Y_t = 0 for terms (c_t, X_t, Y_t), the X_t all with one number of rows.

    Row by row, as Gustavson's sparse product: each entry of a row of the sum
    is summed on plain-int (a, b, d) triples as _product_rows sums it, and is
    zero iff a = b = 0.  So no gcd is taken and no Scalar or Mat is made, and
    no row after the first nonzero one is summed.
    """
    terms = [(c.a, c.b, c.d, x, y) for c, x, y in terms if c.a or c.b]
    for r in range(len(terms[0][3]) if terms else 0):
        acc = {}  # j -> (a, b, d): entry j of row r so far, on a common denominator
        for ca, cb, cd, x, y in terms:
            for k, xa, xb, xd in x[r]:
                fa, fb, fd = ca * xa - cb * xb, ca * xb + cb * xa, cd * xd
                for j, ga, gb, gd in y[k]:
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
        for a, b, _ in acc.values():
            if a or b:
                return False
    return True


def _all_zero(entries: Sequence[Scalar]) -> bool:
    """Whether every entry is zero, each tested inline."""
    for x in entries:
        if x.a or x.b:
            return False
    return True


def _is_scalar(m: Mat) -> bool:
    """Whether m = c I for some scalar c."""
    c = m.rows[0][0]
    return all(x == c if i == j else not (x.a or x.b) for i, r in enumerate(m.rows) for j, x in enumerate(r))


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
        if p.b or p.d != 1 or p.a not in (1, -1):
            pinv = p.inv()
            prow = rows[rank] = prow[:col] + [x * pinv if x.a or x.b else x for x in prow[col:]]
        elif p.a == -1:  # dividing by -1 is a negation
            prow = rows[rank] = prow[:col] + [-x if x.a or x.b else x for x in prow[col:]]
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
        return {"ambient_dim": self.ambient_dim, "dim": self.dim, "basis": [m.to_json() for m in self.matrices()]}


def _matrix_side(ambient: int) -> int:
    n = isqrt(ambient)
    if n * n != ambient:
        raise DimensionMismatch(f"ambient dimension {ambient} is not a perfect square")
    return n


# -- kernels of maps on flattened matrix space ---------------------------------------


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


def solve_homogeneous(maps: Sequence[tuple[Mat, Mat]]) -> Subspace:
    """The X with L X = X R for every map (L, R), all of one size: the common kernel of the maps X -> L X - X R.

    A map with L = R = c I is zero and is skipped; the map X -> L X - X R is
    zero only then.  The first other map's rows are built from its terms
    (L, 1) and (1, -R) and reduced; each later map is evaluated on the kernel
    basis found so far, L B - B R for each basis matrix B
    (_sylvester_system), so none of its rows is built.  Maps are read one at
    a time, and none after the kernel is {0}.
    """
    n = maps[0][0].n
    one = Mat.identity(n)
    maps = ((l, r) for l, r in maps if not (_is_scalar(l) and l == r))
    first = next(maps, None)
    rows = [] if first is None else _operator_rows([(first[0], one), (one, -first[1])], n)
    return _common_kernel(rows, (partial(_sylvester_system, l, r) for l, r in maps), n * n)


def solve_rows(maps: Iterable[list[dict[int, Scalar]]], width: int) -> Subspace:
    """The common kernel of linear maps, each given by its rows {column: entry}, width columns, zeros allowed.

    Each later map meets the kernel basis through the product of its rows
    with the transposed basis, summed by the loop of Mat.__mul__.
    """
    maps = iter(maps)
    return _common_kernel(next(maps), (partial(_rows_times_basis, rows) for rows in maps), width)


def _rows_times_basis(rows: list[dict[int, Scalar]], basis: list[Sequence[Scalar]]) -> list[list[Scalar]]:
    """The products r . b_k of each nonzero row r with each basis vector b_k: a system in d = len(basis) unknowns."""
    rows = [row.items() for row in rows if row]
    return [list(r) for r in _product_rows(rows, list(zip(*basis)), len(basis))] if rows else []


def _common_kernel(rows: list[dict[int, Scalar]], later: Iterator[Callable[[list], list[list[Scalar]]]],
                   width: int) -> Subspace:
    """The kernel of the map whose rows {column: entry} are given, cut down by each later map in turn.

    The first map's rows are made dense and reduced, and its kernel basis
    b_1..b_d read off.  Each later map is a function of the basis that gives
    its system: row p is entry p of the map applied to b_1..b_d, so
    x = sum_k c_k b_k solves the map iff c is in the system's kernel, which
    recombines the basis by one product.  The last basis spans the common
    kernel, which Subspace reduces to the RREF basis one reduction of all
    the rows gives.  Zero rows of a system are dropped, and once the kernel
    is {0} no later map is taken.
    """
    basis = _free_basis([[row.get(c, ZERO) for c in range(width)] for row in rows if row], width)
    while basis and (system := next(later, None)) is not None:
        system = [r for r in system(basis) if not _all_zero(r)]
        if system:
            basis = _product_rows(map(enumerate, _free_basis(system, len(basis))), basis, width)
    return Subspace(width, basis)


def _sylvester_system(l: Mat, r: Mat, basis: list[Sequence[Scalar]]) -> list[list[Scalar]]:
    """The system of X -> L X - X R on the basis: entry p of row-major L b_k - b_k R in row p, column k.

    Each b_k is a flattened n x n matrix.  L and R are scaled to Gaussian
    integers over the lcm D of their denominators, and b_k over the lcm D'
    of its own.  Each nonzero entry b[m][j] adds b[m][j] times column m of L
    to column j of L b, and b[m][j] times row j of R to row m of b R, on
    plain ints; each nonzero entry of the difference, over D D', is then
    normalized once.  No row of the map is built.
    """
    n, nn = l.n, l.n * l.n
    den = lcm(*(x.d for row in l.rows + r.rows for x in row))
    columns, r = integer_rows(list(zip(*l.rows)), den), integer_rows(r.rows, den)
    system = [[ZERO] * len(basis) for _ in range(nn)]
    for col, v in enumerate(basis):
        entries = [(p, x) for p, x in enumerate(v) if x.a or x.b]
        bd = lcm(*(x.d for _, x in entries))
        re, im = [0] * nn, [0] * nn
        for p, x in entries:
            c = bd // x.d
            xa, xb = x.a * c, x.b * c
            m, j = divmod(p, n)
            for i, fa, fb in columns[m]:  # L[i][m] b[m][j], at (i, j)
                q = i * n + j
                re[q] += fa * xa - fb * xb
                im[q] += fa * xb + fb * xa
            for k, ga, gb in r[j]:  # b[m][j] R[j][k], at (m, k)
                q = p - j + k
                re[q] -= xa * ga - xb * gb
                im[q] -= xa * gb + xb * ga
        d = den * bd
        for q, a in enumerate(re):
            b = im[q]
            if a or b:
                g = gcd(a, b, d)
                s = system[q][col] = _alloc(Scalar)
                s.a, s.b, s.d = a // g, b // g, d // g
    return system


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
    return solve_homogeneous([(g, g) for g in generators])


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
    each degree in descending lexicographic order.  Each bk has a bitmask of
    its nonzero rows (low n bits) and of its nonzero columns (high n bits).
    When the OR of the masks over the support S = {k : ck > 0} is not full,
    some row or column is zero in every bk with k in S, so it is zero in the
    point and det = 0: the point is skipped with no matrix arithmetic, and
    None comes back at once when the OR over the whole basis is not full.
    Only singular points are skipped, so None stays a certificate and the
    point returned is the first invertible one in that order, as without the
    skip.  A point is built only to be tested, as the sum of its basis
    matrices.
    """
    n = _matrix_side(s.ambient_dim)
    full = (1 << 2 * n) - 1
    masks, covered = [], 0
    for v in s.basis:
        mask = 0
        for k, x in enumerate(v):
            if x.a or x.b:
                mask |= (1 << k // n) | (1 << n + k % n)
        masks.append(mask)
        covered |= mask
    if covered != full:
        return None
    mats = s.matrices()
    for degree in range(1, n + 1):
        for idx in combinations_with_replacement(range(s.dim), degree):
            mask = 0
            for k in idx:
                mask |= masks[k]
            if mask == full:
                combo = sum((mats[k] for k in idx[1:]), mats[idx[0]])
                if det(combo):
                    return combo
    return None
