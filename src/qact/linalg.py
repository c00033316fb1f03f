"""Exact matrix algebra and subspace computations over Q(i).

Matrices are square, stored row-major as tuples of Scalar; every Mat a
command or benchmark workload builds is 4x4, and the kernels work on its
flattened 16-vectors.  Zero entries are skipped, never multiplied, so
results may share immutable Scalar objects with their operands.  The product sums each entry
over its nonzero terms on plain-int (a, b, d) triples and normalizes it once;
an entry that no term reaches is the shared ZERO.
Every elimination but det's goes through one sparse Gauss-Jordan reducer,
_reduce_into (Gustavson's row-wise form): a vector, given as its nonzero
entries {column: entry}, is reduced by the rows whose pivots it touches, and
a nonzero residual becomes a row of an RREF with pivots 1.  Subspaces keep
their basis that way, so subspace equality is structural equality of the
bases; the inverse, the kernels and the closure under products use it too.
Flattening is row-major: the matrix entry (i, j) sits at index i*n + j.  The
rows of a map X -> sum_t a_t X b_t on flattened matrices are built sparse
from its terms (a_t, b_t) in one place (_operator_rows).  Both kernel
solvers reduce the first map's rows, and cut the kernel basis found so far
down by each later map evaluated on it (_cut_down).  solve_rows takes maps
as their rows, and solve_homogeneous takes Sylvester maps X -> L X - X R as
the pairs (L, R); it builds the rows of the first one only, and evaluates
each later one as L B - B R on Gaussian integers (_sylvester_system), with
no row of it built.  solve_homogeneous keeps the basis after each prefix of
maps in a tree of maps (Kernels) whose children are matched by the matrices
themselves; a caller that makes many solves may pass one, so a prefix two
solves share is solved once.  The algebra a set of
matrices generates is spun from 1 by a queue of words, each product reduced
once (algebra_closure).  An identity among products
that is only checked is tested by products_vanish, which sums
sum_t c_t X_t Y_t row by row on the same plain-int triples and stops at the
first nonzero entry, without building any product.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations_with_replacement
from math import gcd, isqrt, lcm

from .scalars import ONE, ZERO, ParseError, Scalar, _alloc, as_scalar, format_scalar, scalar_from_json


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
        return tuple([x for r in self.rows for x in r])

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
        if not isinstance(data, dict):
            raise ParseError(f"{field} must be a JSON object")
        n, rows = data["n"], data["rows"]
        if n.__class__ is not int:  # a float, or a bool, which is an int subclass
            raise ParseError(f"{field}.n must be a JSON integer")
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise ParseError(f"{field}.rows must be a JSON array of arrays")
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


def integer_rows(rows: Sequence[Sequence[Scalar]]) -> tuple[IntegerRows, int]:
    """The rows as Gaussian integers over den, the lcm of their denominators: the nonzero (j, a, b) of each, and den."""
    den = lcm(*[x.d for r in rows for x in r])
    return [[(j, x.a * (den // x.d), x.b * (den // x.d)) for j, x in enumerate(r) if x.a or x.b] for r in rows], den


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
    """Inverse by reducing the rows of [m | 1] into their RREF, which is [1 | m^-1] iff m is invertible."""
    n = m.n
    echelon = {}
    for i, r in enumerate(m.rows):
        row = {c: x for c, x in enumerate(r) if x.a or x.b}
        row[n + i] = ONE
        _reduce_into(echelon, row)
    rank = sum(p < n for p in echelon)
    if rank < n:
        raise Singular(f"matrix of size {n} has rank {rank}")
    return Mat([[echelon[i].get(n + j, ZERO) for j in range(n)] for i in range(n)])


Row = dict[int, Scalar]  # a vector's nonzero entries {column: entry}


def _subtract(v: Row, f: Scalar, row: Row) -> None:
    """v -= f row in place, each entry by one fused minus_product; an entry that cancels is dropped."""
    for c, x in row.items():
        y = v.get(c)
        if y is None:
            v[c] = ZERO.minus_product(x, f)
        else:
            y = y.minus_product(x, f)
            if y.a or y.b:
                v[c] = y
            else:
                del v[c]


def _reduce(echelon: dict[int, Row], v: Row) -> Row:
    """v reduced in place by the rows of echelon whose pivots it touches, and returned: zero at every pivot.

    A row is zero at every other pivot, so subtracting it changes no other
    pivot entry of v, and one pass in any order reduces v.
    """
    for p in [c for c in v if c in echelon]:
        _subtract(v, v[p], echelon[p])
    return v


def _reduce_into(echelon: dict[int, Row], v: Row) -> bool:
    """Reduce v by echelon and add the residual, if any, as a row; whether v was independent of the rows.

    echelon maps each pivot column to its row, and is kept in RREF with
    pivots 1: a row leads with its pivot, and every other row is zero there.
    The residual leads at its smallest column p, and is scaled to a pivot of 1
    (a pivot of 1 as it is, a pivot of -1 by a negation).  Then column p is
    cleared from the other rows: each gains entries only right of p, which is
    right of its own pivot, as it was not zero at p only if its pivot is left
    of p.  So the RREF of rows added one at a time is the canonical RREF of
    all of them, whatever their order.  v becomes the row; it is not copied.
    """
    _reduce(echelon, v)
    if not v:
        return False
    p = min(v)
    s = v[p]
    if s.b or s.d != 1 or s.a not in (1, -1):
        s = s.inv()
        for c, x in v.items():
            v[c] = x * s
    elif s.a == -1:
        for c, x in v.items():
            v[c] = -x
    for row in echelon.values():
        f = row.get(p)
        if f is not None:
            _subtract(row, f, v)
    echelon[p] = v
    return True


class Subspace:
    """A linear subspace of Q(i)^ambient_dim with a canonical RREF basis.

    echelon holds the basis rows, the only copy, sparse: it maps each pivot
    column, in increasing order, to its row's nonzero entries.
    """

    __slots__ = ("ambient_dim", "echelon")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence[Scalar]]):
        echelon = {}
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length does not match ambient dimension")
            _reduce_into(echelon, {c: x for c, x in enumerate(v) if x.a or x.b})
        self.ambient_dim, self.echelon = ambient_dim, dict(sorted(echelon.items()))

    @classmethod
    def _of_echelon(cls, ambient_dim: int, echelon: dict[int, Row]) -> "Subspace":
        """The subspace whose RREF rows, by pivot, are echelon's (as _reduce_into keeps them)."""
        space = _alloc(cls)
        space.ambient_dim, space.echelon = ambient_dim, dict(sorted(echelon.items()))
        return space

    @classmethod
    def span_of(cls, mats: Iterable[Mat]) -> "Subspace":
        mats = list(mats)
        if not mats:
            raise ValueError("span_of needs at least one matrix")
        n = mats[0].n
        return cls(n * n, [m.flatten() for m in mats])

    @property
    def dim(self) -> int:
        return len(self.echelon)

    @property
    def basis(self) -> tuple[tuple[Scalar, ...], ...]:
        """The RREF basis vectors, dense, in pivot order."""
        basis = []
        for row in self.echelon.values():
            v = [ZERO] * self.ambient_dim
            for c, x in row.items():
                v[c] = x
            basis.append(tuple(v))
        return tuple(basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.echelon == other.echelon

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def contains_matrix(self, m: Mat) -> bool:
        """Whether m lies in the subspace: its flattened nonzero entries reduce to nothing by the basis rows."""
        if m.n * m.n != self.ambient_dim:
            raise DimensionMismatch(f"a {m.n}x{m.n} matrix is not in ambient dimension {self.ambient_dim}")
        return not _reduce(self.echelon, {c: x for c, x in enumerate(m.flatten()) if x.a or x.b})

    def matrices(self) -> tuple[Mat, ...]:
        n = _matrix_side(self.ambient_dim)
        return tuple(Mat([v[i * n : (i + 1) * n] for i in range(n)]) for v in self.basis)

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


# The kernels a caller shares between solves (solve_homogeneous): a tree of
# maps.  The dict maps each matrix size n to its root node.  A node is a list
# [the kernel basis after its prefix of maps not skipped (None at a root: the
# whole space, not built), the Subspace it spans once a solve has ended there
# or None, its children as (L, R, child node)].  A child is matched by its
# matrices themselves, first by identity and then by equality; the tree keeps
# them, so a fresh tree compares nothing.
Kernels = dict


def solve_homogeneous(maps: Sequence[tuple[Mat, Mat]], *, kernels: Kernels | None = None) -> Subspace:
    """The X with L X = X R for every map (L, R), all of one size: the common kernel of the maps X -> L X - X R.

    A map whose L or R is not of the first L's size raises DimensionMismatch
    before it is read.  A map with L = R = c I is zero and is skipped; the
    map X -> L X - X R is zero only then.  The first other map's rows are
    built from its terms (L, 1) and (1, -R) and reduced; each later map is
    evaluated on the kernel basis found so far, L B - B R for each basis
    matrix B (_sylvester_system), so none of its rows is built.  Maps are
    read one at a time, and none after the kernel is {0}.  The basis after
    each prefix of the maps not skipped is a function of the prefix alone,
    so it is looked up in the tree of kernels, the caller's or a fresh one,
    and added there when computed; the node where the solve ends keeps its
    Subspace.
    """
    if not maps:
        raise ValueError("solve_homogeneous needs at least one map")
    first = maps[0][0]
    n = first.n
    one, width = Mat.identity(n), n * n
    node = (kernels if kernels is not None else {}).setdefault(n, [None, None, []])
    for l, r in maps:
        first._same(l)
        first._same(r)
        if _is_scalar(l) and l == r:
            continue
        for cl, cr, child in node[2]:
            if (cl is l or cl == l) and (cr is r or cr == r):
                break
        else:
            basis = node[0]
            if basis is None:
                basis = _free_basis(_operator_rows([(l, one), (one, -r)], n), width)
            else:
                basis = _cut_down(basis, _sylvester_system(l, r, basis), width)
            child = [basis, None, []]
            node[2].append((l, r, child))
        node = child
        if not node[0]:
            break
    if node[1] is None:
        node[1] = Subspace(width, _free_basis([], width) if node[0] is None else node[0])
    return node[1]


def solve_rows(maps: Iterable[list[dict[int, Scalar]]], width: int) -> Subspace:
    """The common kernel of linear maps, each given by its rows {column: entry}, width columns, zeros allowed.

    The first map's rows are reduced, and its kernel basis b_1..b_d read
    off.  Each later map meets the basis through the product of its rows
    with the transposed basis, summed by the loop of Mat.__mul__: row p of
    that system is entry p of the map applied to b_1..b_d, so x = sum_k c_k
    b_k solves the map iff c is in the system's kernel, which recombines the
    basis (_cut_down).  The last basis spans the common kernel, which
    Subspace reduces to the RREF basis one reduction of all the rows gives.
    Once the kernel is {0} no later map is taken.
    """
    maps = iter(maps)
    if (rows := next(maps, None)) is None:
        raise ValueError("solve_rows needs at least one map")
    basis = _free_basis(rows, width)
    while basis and (rows := next(maps, None)) is not None:
        basis = _cut_down(basis, _rows_times_basis(rows, basis), width)
    return Subspace(width, basis)


def _rows_times_basis(rows: list[Row], basis: list[Sequence[Scalar]]) -> list[Row]:
    """The products r . b_k of each nonzero row r with each basis vector b_k: a system in d = len(basis) unknowns."""
    return [{c: x for c, x in enumerate(r) if x.a or x.b}
            for r in _product_rows([row.items() for row in rows if row], list(zip(*basis)), len(basis))]


def _cut_down(basis: list[Sequence[Scalar]], system: list[Row], width: int) -> list[Sequence[Scalar]]:
    """The basis recombined by the kernel of the system, row p of which is entry p of a map on each basis vector."""
    kernel = _free_basis(system, len(basis))
    return basis if len(kernel) == len(basis) else _product_rows(map(enumerate, kernel), basis, width)


def _sylvester_system(l: Mat, r: Mat, basis: list[Sequence[Scalar]]) -> list[Row]:
    """The system of X -> L X - X R on the basis: entry p of row-major L b_k - b_k R in row p, column k, sparse.

    Each b_k is a flattened n x n matrix.  L and R are scaled to Gaussian
    integers over the lcm D of their denominators, and b_k over the lcm D'
    of its own.  Each nonzero entry b[m][j] adds b[m][j] times column m of L
    to column j of L b, and b[m][j] times row j of R to row m of b R, on
    plain ints; each nonzero entry of the difference, over D D', is then
    normalized once.  No row of the map is built.
    """
    n, nn = l.n, l.n * l.n
    rows, den = integer_rows([*zip(*l.rows), *r.rows])
    columns, r = rows[:n], rows[n:]
    system = [{} for _ in range(nn)]
    for col, v in enumerate(basis):
        entries = [(p, x) for p, x in enumerate(v) if x.a or x.b]
        bd = lcm(*[x.d for _, x in entries])
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


def _free_basis(rows: Iterable[Row], width: int) -> list[list[Scalar]]:
    """Kernel basis of the rows {column: entry}, zero entries allowed: one vector per free column.

    The rows are reduced into their RREF (_reduce_into), and the vector of a
    free column c is e_c minus sum_p R_p[c] e_p over the rows R_p, p being
    each row's pivot.  A row's column other than its pivot is free.
    """
    echelon = {}
    for row in rows:
        if row:
            _reduce_into(echelon, {c: x for c, x in row.items() if x.a or x.b})
    basis = {c: [ZERO] * width for c in range(width) if c not in echelon}
    for c, v in basis.items():
        v[c] = ONE
    for p, row in echelon.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return list(basis.values())


def centralizer(generators: Sequence[Mat], *, kernels: Kernels | None = None) -> Subspace:
    """RREF basis of {X : XG = GX for every generator G}; kernels is solve_homogeneous's."""
    return solve_homogeneous([(g, g) for g in generators], kernels=kernels)


def algebra_closure(generators: Sequence[Mat]) -> Subspace:
    """Smallest subspace containing 1 and the generators and closed under products.

    That is the span of all words in the generators, found as the spin of 1
    under them (Parker 1984) by a queue of words.  1 and the generators are
    reduced into one RREF; the generators G' that are independent of 1 and
    of the ones before them are the first words.  For each word x in the
    queue and each g in G', the product g x (_left_product) is reduced into
    the RREF, and is queued as a new word only if it was not in the span.
    The queue ends after dim - 1 words, having formed |G'| (dim - 1)
    products, and no RREF is recomputed.  Let V be the span of 1 and the
    words.  g x is in V for every g in G' and every word x, so G' V is in V.
    Every other generator is c 1 + sum_h c_h h over h in G', so G V is in V.
    V holds 1 and G, and every word in G is g times a shorter word, so V
    holds every word; and V lies in the algebra, as each word does.  The
    RREF basis is canonical.  A generator of another size than the first
    raises DimensionMismatch before any generator is read.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("algebra_closure needs at least one generator")
    for g in generators:
        generators[0]._same(g)
    n = generators[0].n
    echelon = {}
    _reduce_into(echelon, {k * (n + 1): ONE for k in range(n)})
    words, columns = [], []
    for g in generators:
        x = {k: e for k, e in enumerate(g.flatten()) if e.a or e.b}
        if _reduce_into(echelon, dict(x)):
            words.append(x)
            columns.append([[(i, e.a, e.b, e.d) for i, r in enumerate(g.rows) if (e := r[k]).a or e.b]
                            for k in range(n)])
    for x in words:
        for g in columns:
            y = _left_product(g, x, n)
            if _reduce_into(echelon, dict(y)):
                words.append(y)
    return Subspace._of_echelon(n * n, echelon)


def _left_product(columns: list[list[tuple[int, int, int, int]]], x: Row, n: int) -> Row:
    """g x for a flattened n x n matrix x, g given by the nonzero (i, a, b, d) of each of its columns.

    Entry (i, j) is summed over the nonzero x[k][j] on plain-int (a, b, d)
    triples, as _product_rows sums, and normalized once; an entry whose
    terms cancel is dropped.
    """
    acc = {}  # i * n + j -> (a, b, d): entry (i, j) so far, on a common denominator
    for p, s in x.items():
        k = p // n
        sa, sb, sd = s.a, s.b, s.d
        for i, ga, gb, gd in columns[k]:
            a, b, d = ga * sa - gb * sb, ga * sb + gb * sa, gd * sd
            q = p + (i - k) * n
            t = acc.get(q)
            if t is not None:
                ta, tb, td = t
                if td == d:
                    a, b = ta + a, tb + b
                else:
                    g = gcd(td, d)
                    m, c = d // g, td // g  # td * m is the lcm of td and d
                    a, b, d = ta * m + a * c, tb * m + b * c, td * m
            acc[q] = (a, b, d)
    y = {}
    for q, (a, b, d) in acc.items():
        if a or b:
            if d != 1:
                g = gcd(a, b, d)
                if g != 1:
                    a, b, d = a // g, b // g, d // g
            s = y[q] = _alloc(Scalar)
            s.a, s.b, s.d = a, b, d
    return y


def invertible_element_in(s: Subspace) -> Mat | None:
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
    for row in s.echelon.values():
        mask = 0
        for k in row:
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
