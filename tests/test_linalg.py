from itertools import product
from math import comb

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from helpers import (
    block_matrix,
    dense_add,
    dense_det,
    dense_inverse,
    dense_kernel,
    dense_kron,
    dense_map_rows,
    dense_mul,
    dense_rref,
    dense_scale,
    dense_stacked_kernel,
    dense_sub,
    is_nilpotent,
    jordan,
    random_low_rank,
    random_mat,
    random_nonzero_scalar,
    random_scalar,
    reference_algebra_closure,
    reference_first_invertible,
    reference_intertwiner_space,
    transpose,
)
from qact import (
    DimensionMismatch,
    GLqRep,
    Mat,
    Scalar,
    Singular,
    Subspace,
    algebra_closure,
    as_scalar,
    centralizer,
    det,
    instantiate,
    invertible_element_in,
    linalg,
    mat_inverse,
    parse_scalar,
    solve_homogeneous,
    validate_q,
)
from qact.catalog import ENTRY_ORDER


def u(i, j, n=4):
    return Mat.unit(n, i, j)


E4 = Mat.identity(4)


def test_inverse_diagonal(q2):
    q = q2.q
    m = Mat.diag(q * q, q, 1, 1)
    assert mat_inverse(m) == Mat.diag(Scalar(1, 0, 4), Scalar(1, 0, 2), 1, 1)


def test_inverse_unipotent():
    m = E4 + u(1, 2)
    assert mat_inverse(m) == E4 - u(1, 2)
    assert m * mat_inverse(m) == E4


def test_inverse_of_s1_block_matrix(q2):
    rep = instantiate("S1", q2)
    m = block_matrix(rep)
    assert m * mat_inverse(m) == Mat.identity(8)


def test_singular_raises():
    with pytest.raises(Singular):
        mat_inverse(u(1, 2))


def test_kernel_identity_and_zero():
    # The kernel of an operator has the dimension of its width minus its row rank.
    assert Subspace(4, Mat.identity(4).rows).dim == 4
    assert Subspace(16, Mat.zero(16).rows).dim == 0
    # Each map (L, R) is X -> L X - X R, which is zero iff L = R = c I.
    assert solve_homogeneous([(E4, Mat.zero(4))]).dim == 0
    everything = Subspace(16, Mat.identity(16).rows)
    assert solve_homogeneous([(Mat.zero(4), Mat.zero(4))]) == everything
    assert solve_homogeneous([(E4.scale(3), E4.scale(3)), (E4, E4)]) == everything


def test_kernel_of_spinor_operator(q2):
    q = q2.q
    a = Mat.diag(q ** 3, q * q, q, 1)
    # X -> A X - q X A as A (x) I - q I (x) A^T, and A^T = A.
    operator = dense_kron(a, E4) - dense_kron(E4, a).scale(q)
    assert Subspace(16, operator.rows).dim == 13
    space = solve_homogeneous([(a, a.scale(q))])
    assert space == Subspace.span_of([u(1, 2), u(2, 3), u(3, 4)])
    assert space == Subspace(16, dense_kernel(operator.rows, 16))


def test_rank_nullity(rng):
    for n in (2, 4, 8, 16):
        count = 200
        for trial in range(count):
            if trial % 3 == 0 and n <= 8:
                m = random_low_rank(rng, n, rng.randint(0, n - 1))
            elif n <= 8:
                m = random_mat(rng, n)
            else:
                # Size 16: sparse-ish samples keep the run fast.
                rows = [[as_scalar(0)] * n for _ in range(n)]
                for _ in range(rng.randint(0, 3 * n)):
                    rows[rng.randrange(n)][rng.randrange(n)] = random_scalar(rng)
                m = Mat(rows)
            # The row rank; the kernel of m has dimension n minus it.
            assert Subspace(n, m.rows).dim == len(dense_rref(m.rows, n)[1])


def test_inverse_iff_trivial_kernel(rng):
    for _ in range(50):
        m = random_mat(rng, 4)
        if Subspace(4, m.rows).dim == 4:
            assert mat_inverse(m) * m == E4
        else:
            with pytest.raises(Singular):
                mat_inverse(m)
            assert det(m).is_zero


def test_scale_by_one_returns_the_matrix():
    a = E4 + u(1, 2).scale(Scalar(3, 1, 2))
    assert a.scale(1) is a and a.scale(Scalar(1)) is a
    assert a.scale(2) == a + a


def test_subspace_examples():
    s = Subspace.span_of([u(1, 2) + u(2, 3)])
    t = Subspace.span_of([(u(1, 2) + u(2, 3)).scale(2)])
    assert (s == t) is True


def test_subspace_json_for_square_and_other_ambient_dims():
    assert Subspace(3, [[as_scalar(2), as_scalar(4), as_scalar(0)]]).to_json() == {
        "ambient_dim": 3, "dim": 1, "basis": [["1", "2", "0"]]}
    assert Subspace.span_of([u(1, 2, n=2)]).to_json() == {
        "ambient_dim": 4, "dim": 1, "basis": [{"n": 2, "rows": [["0", "1"], ["0", "0"]]}]}


small_mats = st.builds(
    Mat,
    st.lists(st.lists(st.integers(-3, 3).map(as_scalar), min_size=3, max_size=3), min_size=3, max_size=3),
)


@settings(max_examples=60)
@given(small_mats, small_mats, small_mats)
def test_matrix_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    e = Mat.identity(3)
    assert a * e == a and e * a == a


# Sparse Gaussian rationals: about half the entries zero, small denominators.
sparse_scalars = st.one_of(
    st.just(Scalar(0)),
    st.builds(Scalar, st.integers(-4, 4), st.sampled_from((0, 0, 1, -2)), st.sampled_from((1, 1, 2, 3))),
)


@st.composite
def _sparse_mat(draw, n):
    """An n x n matrix with at most 2n drawn entries off an optional unit-diagonal."""
    one = Scalar(1) if draw(st.booleans()) else Scalar(0)
    rows = [[one if i == j else Scalar(0) for j in range(n)] for i in range(n)]
    for i, j, x in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), sparse_scalars),
                                 max_size=2 * n)):
        rows[i][j] = x
    return Mat(rows)


@st.composite
def sparse_pairs(draw):
    """(a, b): sparse of size 4 or 16, or 16x16 Kronecker products; b repeats or cancels some entries of a."""
    if draw(st.booleans()):
        n = draw(st.sampled_from((4, 16)))
        a, b = draw(_sparse_mat(n)), draw(_sparse_mat(n))
    else:
        a = dense_kron(draw(_sparse_mat(4)), draw(_sparse_mat(4)))
        b = dense_kron(draw(_sparse_mat(4)), draw(_sparse_mat(4)))
    places = [(i, j) for i, r in enumerate(a.rows) for j, x in enumerate(r) if x]
    rows = [list(r) for r in b.rows]
    if places:
        for k, sign in draw(st.lists(st.tuples(st.integers(0, len(places) - 1), st.sampled_from((1, -1))))):
            i, j = places[k]
            rows[i][j] = a.rows[i][j] if sign == 1 else -a.rows[i][j]
    return a, Mat(rows)


# The inputs of the dense-reference tests have parts under 8 bits, and no
# exact result from them needs more than about 230 bits (Hadamard's bound for
# a ratio of 16x16 minors); the largest seen over 2,400 examples is 59.
MAX_BITS = 512

# Settings of every test that checks a kernel against the dense references.
# One example of those costs a full dense pass over up to 16x16 matrices, and
# Hypothesis's shrink and explain phases rerun it hundreds of times after a
# failure, the explain phase under a line tracer: a wrong lcm in Mat.__mul__
# ran for minutes that way.  Without those phases a fault fails on the first
# example that shows it, which Hypothesis reports as it was drawn.  No
# wall-clock deadline: the bound is the example count.
DENSE_REFERENCE = dict(deadline=None, phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])


def _canonical(rows) -> list:
    """rows, after checking every entry is a Scalar whose zeros are exactly (0, 0, 1) and whose parts fit MAX_BITS.

    Each test compares a kernel's result through this check before the dense
    reference runs.  So a fault that makes numbers grow fails on its first
    oversized entry, instead of stalling the run, and Hypothesis's shrinking
    of it, on ever larger numbers.
    """
    rows = [list(r) for r in rows]
    for r in rows:
        for x in r:
            assert type(x) is Scalar and (x.a or x.b or x.d == 1), x
            assert max(x.a.bit_length(), x.b.bit_length(), x.d.bit_length()) <= MAX_BITS, "entry outgrew MAX_BITS"
    return rows


# A row over the denominators 2, 3 and 6: any sum of its products with
# nonzero entries adds terms over different denominators, so each test that
# draws it as an explicit example takes an lcm on every run.
MIXED_ROW = [Scalar(1, 0, 2), Scalar(1, 0, 3), Scalar(-5, 0, 6), Scalar(0, 1, 6)]


def _corner(m: Mat) -> Mat:
    """The top left 4x4 block of m."""
    return Mat([r[:4] for r in m.rows[:4]])


@settings(max_examples=30, **DENSE_REFERENCE)
@given(sparse_pairs(), sparse_scalars)
@example((Mat([MIXED_ROW] * 4), Mat([[Scalar(1)] * 4] * 4)), Scalar(1, 0, 2))
def test_zero_aware_kernels_match_dense_reference(pair, c):
    a, b = pair
    n = a.n
    assert _canonical((a + b).rows) == dense_add(a, b)
    assert _canonical((a - b).rows) == dense_sub(a, b)
    assert _canonical(a.scale(c).rows) == dense_scale(a, c)
    assert _canonical((a * b).rows) == dense_mul(a, b)
    d = det(a)
    assert _canonical([[d]]) == [[dense_det(a)]]
    inverse = dense_inverse(a)
    if inverse is None:
        with pytest.raises(Singular):
            mat_inverse(a)
    else:
        assert _canonical(mat_inverse(a).rows) == inverse
    # Maps on 4x4 X from the corners of a and b; the second, c X - X c for the scalar matrix c, is zero.
    x, y, cs = _corner(a), _corner(b), E4.scale(c)
    maps = [(x, y), (cs, cs), (y, x), (x, Mat.zero(4))]
    assert _canonical(solve_homogeneous(maps).basis) == dense_stacked_kernel(_terms(maps))
    stacked = [list(r) for r in a.rows + (a - b).rows]
    assert _canonical(Subspace(n, stacked).basis) == dense_rref(stacked, n)[0]
    assert Subspace(n, stacked) == Subspace(n, dense_rref(stacked, n)[0] + [[Scalar(0)] * n])


# Dense Gaussian rationals on the denominators 1, 2, 3 and 6, zero included.
mixed_scalars = st.builds(Scalar, st.integers(-6, 6), st.integers(-6, 6), st.sampled_from((1, 2, 3, 6)))
dense_mats = st.lists(st.lists(mixed_scalars, min_size=4, max_size=4), min_size=4, max_size=4).map(Mat)


@st.composite
def mixed_denominator_pairs(draw):
    """(a, b): dense 4x4 over mixed denominators, or b made so that entries of a b cancel exactly.

    b cancels as a^-1, where every off-diagonal entry of a b is 0, or in some
    columns c set to a[i][l] e_k - a[i][k] e_l for a drawn row i, where
    (a b)[i][c] = a[i][k] a[i][l] - a[i][l] a[i][k] = 0.
    """
    a, b = draw(dense_mats), draw(dense_mats)
    kind = draw(st.sampled_from(("dense", "inverse", "columns")))
    if kind == "inverse" and dense_inverse(a) is not None:
        return a, Mat(dense_inverse(a))
    if kind == "dense":
        return a, b
    cols = [list(c) for c in zip(*b.rows)]
    for c in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)):
        i, (k, l) = draw(st.integers(0, 3)), draw(st.permutations(range(4)))[:2]
        cols[c] = [a.rows[i][l] if r == k else -a.rows[i][k] if r == l else Scalar(0) for r in range(4)]
    return a, Mat(zip(*cols))


@settings(max_examples=80, **DENSE_REFERENCE)
@given(mixed_denominator_pairs())
@example((Mat([MIXED_ROW] * 4), Mat([[Scalar(1)] * 4] * 4)))
def test_fused_product_matches_dense_reference(pair):
    a, b = pair
    assert _canonical((a * b).rows) == dense_mul(a, b)


def _full_rank_block(width: int, diagonal: Scalar, above) -> list:
    """A width x width upper triangular block with a nonzero diagonal, so of full rank."""
    return [[diagonal if i == j else above[(i + j) % len(above)] if j > i else Scalar(0) for j in range(width)]
            for i in range(width)]


@st.composite
def map_terms(draw, n):
    """1 to 3 terms (a, b) of size n: sparse, dense, zero or identity factors; the last may cancel another."""
    dense = st.lists(st.lists(sparse_scalars.filter(bool), min_size=n, max_size=n), min_size=n, max_size=n).map(Mat)
    factor = st.one_of(_sparse_mat(n), dense, st.just(Mat.identity(n)), st.just(Mat.zero(n)))
    terms = draw(st.lists(st.tuples(factor, factor), min_size=1, max_size=2))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(terms))
        terms.append(draw(st.sampled_from(((-a, b), (a, -b)))))
    return terms


def _terms(maps) -> list:
    """Each map (L, R) as the terms (L, 1) and (1, -R) of X -> L X - X R, the form dense_stacked_kernel reads."""
    return [[(l, Mat.identity(l.n)), (Mat.identity(l.n), -r)] for l, r in maps]


@st.composite
def stacked_maps(draw):
    """1 to 4 maps (L, R), X -> L X - X R on n x n X, n = 2, 3 or 4.

    L and R are sparse, dense, zero or identity.  A map may be c X - X c for
    a scalar matrix c, which is zero, or X -> a X with a sparse and so often
    singular, which leaves a kernel for the later maps to cut down.  A map
    X -> U X with U invertible may go first, leaving the kernel {0} before
    the rest.
    """
    n = draw(st.sampled_from((2, 3, 4)))
    e, zero = Mat.identity(n), Mat.zero(n)
    dense = st.lists(st.lists(sparse_scalars.filter(bool), min_size=n, max_size=n), min_size=n, max_size=n).map(Mat)
    factor = st.one_of(_sparse_mat(n), dense, st.just(e), st.just(zero))
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("pair", "left", "left", "cancelling")))
        if kind == "pair":
            maps.append((draw(factor), draw(factor)))
        elif kind == "left":
            maps.append((draw(_sparse_mat(n)), zero))
        else:
            c = e.scale(draw(sparse_scalars))
            maps.append((c, c))
    if draw(st.booleans()):
        upper = _full_rank_block(n, draw(sparse_scalars.filter(bool)), draw(st.lists(sparse_scalars, min_size=1)))
        maps.insert(0, (Mat(upper), zero))
    return maps


@settings(max_examples=80, **DENSE_REFERENCE)
@given(stacked_maps())
@example([(Mat.zero(3), Mat.zero(3))])
@example([(Mat.diag(2, 2), Mat.diag(2, 2)), (Mat.unit(2, 1, 2), Mat.zero(2))])
@example([(u(1, 2), Mat.zero(4)), (Mat.zero(4), Mat.zero(4)), (u(3, 4), -u(2, 1))])
@example([(Mat(_full_rank_block(4, Scalar(2, 1), [Scalar(1), Scalar(0), Scalar(0, -1, 2)])), Mat.zero(4)),
          (E4, Mat.zero(4))])
def test_blockwise_solve_matches_dense_kernel(maps):
    assert _canonical(solve_homogeneous(maps).basis) == dense_stacked_kernel(_terms(maps))


@st.composite
def mixed_denominator_maps(draw):
    """X -> p X over mixed denominators, p of rank at most 2 so that it leaves a kernel, then 1 to 3 later maps.

    A later map is X -> s X or X -> X s with s of rank 1, which cuts the
    kernel down without always ending it, or X -> s X - X t with s and t dense.
    """
    def low_rank(rank):
        rows = draw(st.lists(st.lists(mixed_scalars, min_size=4, max_size=4), min_size=1, max_size=rank))
        return Mat(rows + [[Scalar(0)] * 4] * (4 - len(rows)))

    zero = Mat.zero(4)
    maps = [(low_rank(2), zero)]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("left", "right", "dense")))
        if kind == "dense":
            maps.append((draw(dense_mats), draw(dense_mats)))
        else:
            s = low_rank(1)
            maps.append((s, zero) if kind == "left" else (zero, -s))
    return maps


@settings(max_examples=40, **DENSE_REFERENCE)
@given(mixed_denominator_maps())
@example([(Mat([MIXED_ROW] + [[Scalar(0)] * 4] * 3), Mat.zero(4)), (Mat([MIXED_ROW[::-1]] * 4), Mat.zero(4))])
def test_fused_row_product_matches_dense_kernel(maps):
    """Later maps are evaluated on the kernel basis, each L B - B R summed over mixed denominators."""
    assert _canonical(solve_homogeneous(maps).basis) == dense_stacked_kernel(_terms(maps))
    # Each column of a later map's system is L B - B R for one basis matrix B, normalized.
    first = solve_homogeneous(maps[:1])
    for l, r in maps[1:]:
        system = _canonical(linalg._sylvester_system(l, r, list(first.basis)))
        for k, b in enumerate(first.matrices()):
            image = dense_sub(Mat(dense_mul(l, b)), Mat(dense_mul(b, r)))
            assert [row[k] for row in system] == [x for row in image for x in row]


def test_blockwise_solve_skips_zero_and_settled_blocks(monkeypatch):
    """A zero map costs no product or difference, and no map after the kernel is {0} is read."""
    zero = Mat.zero(4)
    full = (Mat(_full_rank_block(4, Scalar(3), [Scalar(1), Scalar(0, 1), Scalar(0)])), zero)
    partial = (Mat.diag(1, 0, 2, 0), -u(1, 2))  # X -> D X + X e12
    c = E4.scale(Scalar(2, -1, 3))
    cancelling = (c, c)  # c X - X c
    later = (Mat([[Scalar(i * j + 1, i - j) for j in range(4)] for i in range(4)]), u(2, 3))
    calls = []
    for name in ("__mul__", "__sub__", "minus_product"):
        monkeypatch.setattr(Scalar, name, lambda x, *y, op=getattr(Scalar, name): calls.append(1) or op(x, *y))
    for name in ("_product_rows", "_sylvester_system"):
        monkeypatch.setattr(linalg, name, lambda *args, op=getattr(linalg, name): calls.append(1) or op(*args))

    def work(maps):
        calls.clear()
        solve_homogeneous(maps)
        return len(calls)

    assert work([full, later]) == work([full])

    class Unread:
        def __iter__(self):
            raise AssertionError("a map was read after the kernel became {0}")

    assert solve_homogeneous([full, Unread(), Unread()]).dim == 0
    assert work([partial, (zero, zero)]) == work([partial])
    assert work([(zero, zero), partial, cancelling, (zero, zero)]) == work([partial])
    assert work([cancelling]) == work([(zero, zero)]) == 0
    assert work([partial, later]) > work([partial])


operator_terms = st.sampled_from((2, 3, 4)).flatmap(map_terms)


def _dense_operator(terms) -> Mat:
    """linalg._operator_rows of the terms, each row {column: entry} made dense."""
    n = terms[0][0].n
    return Mat([[row.get(c, Scalar(0)) for c in range(n * n)] for row in linalg._operator_rows(terms, n)])


@settings(max_examples=60, **DENSE_REFERENCE)
@given(operator_terms)
def test_operator_rows_are_a_sum_of_kronecker_products(terms):
    # X -> a X b is a (x) b^T on row-major flattened X.
    assert _canonical(_dense_operator(terms).rows) == dense_map_rows(terms)


def test_operator_rows_multiply_no_identity_factor(monkeypatch):
    a, b = u(2, 3).scale(2), u(1, 2).scale(3)
    expected = Mat(dense_add(dense_kron(E4, transpose(b)), dense_kron(a, E4)))
    calls = []
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: calls.append(1) or x)
    assert _dense_operator([(E4, b), (a, E4)]) == expected
    assert calls == []
    with pytest.raises(DimensionMismatch):
        _dense_operator([(E4, Mat.identity(2))])


# -- the zero test of sums of products --------------------------------------------------


def _dense_sum(terms) -> list:
    """sum_t c_t X_t Y_t on the dense reference kernels: each product by dense_mul, scaled, subtracted negated."""
    n = terms[0][1].n
    total = [[Scalar(0)] * n for _ in range(n)]
    for c, x, y in terms:
        total = dense_sub(Mat(total), Mat(dense_scale(Mat(dense_mul(x, y)), -c)))
    return total


def _vanishes(terms) -> bool:
    return linalg.products_vanish([(c, linalg.sparse_rows(x), linalg.sparse_rows(y)) for c, x, y in terms])


def _dense_16(entries) -> Mat:
    return Mat([entries[i : i + 16] for i in range(0, 256, 16)])


@st.composite
def product_terms(draw):
    """1 to 3 terms (c, X, Y) of size 4 or 16: X and Y sparse, or dense over the denominators 1, 2, 3 and 6."""
    n = draw(st.sampled_from((4, 4, 4, 16)))
    dense = dense_mats if n == 4 else st.lists(mixed_scalars, min_size=256, max_size=256).map(_dense_16)
    factor = st.one_of(_sparse_mat(n), dense)
    return draw(st.lists(st.tuples(mixed_scalars, factor, factor), min_size=1, max_size=3))


@settings(max_examples=40, **DENSE_REFERENCE)
@given(product_terms(), mixed_scalars.filter(bool), st.integers(0, 15))
@example([(Scalar(1, 2, 3), Mat([MIXED_ROW] * 4), Mat([[Scalar(1)] * 4] * 4))], Scalar(1, 0, 6), 0)
def test_products_vanish_matches_dense_reference(terms, nudge, col):
    """The verdict on sum_t c_t X_t Y_t, on the sum with its own total T subtracted, and on a near miss.

    sum_t c_t X_t Y_t - T I vanishes only as every entry's terms cancel over
    the denominators of T and the X_t Y_t.  Adding nudge to one entry of the
    last row of T leaves a sum that is zero on every row but that one.
    """
    n = terms[0][1].n
    total = _dense_sum(terms)
    assert _vanishes(terms) == all(x == Scalar(0) for row in total for x in row)
    one = Mat.identity(n)
    assert _vanishes(terms + [(Scalar(-1), Mat(total), one)])
    total[-1][col % n] = total[-1][col % n] + nudge
    assert not _vanishes(terms + [(Scalar(-1), Mat(total), one)])


def test_products_vanish_cancels_across_denominators():
    """Identities that hold only because terms over the denominators 2, 3 and 6 cancel, and their near misses."""
    ones = Mat([[Scalar(1)] * 4] * 4)
    halves_and_thirds = [Scalar(1, 0, 2), Scalar(1, 0, 3), Scalar(-5, 0, 6), Scalar(0)]
    x = Mat([halves_and_thirds] * 4)
    assert _vanishes([(Scalar(1, 2, 3), x, ones)])  # 1/2 + 1/3 - 5/6 = 0 in every entry
    # The same with each fraction its own term: (1/2) I + (1/3) I - (5/6) I.
    e4 = Mat.identity(4)
    assert _vanishes([(Scalar(1, 0, 2), e4, e4), (Scalar(1, 0, 3), e4, e4), (Scalar(-5, 0, 6), e4, e4)])
    assert not _vanishes([(Scalar(1, 0, 2), e4, e4), (Scalar(1, 0, 3), e4, e4), (Scalar(-5, 1, 6), e4, e4)])
    # A near miss in the last row alone: that row sums to i/6.
    assert not _vanishes([(Scalar(1), Mat([halves_and_thirds] * 3 + [MIXED_ROW]), ones)])
    # 16 x 16: the Kronecker product with a dense unit-free 4 x 4 keeps the cancellation, and a near miss.
    y = Mat([[Scalar(1, 1, 2), Scalar(2, 0, 3), Scalar(0, -1, 6), Scalar(1)]] * 4)
    big, big_ones = dense_kron(x, y), dense_kron(ones, e4)
    assert _vanishes([(Scalar(1), big, big_ones)])
    missed = [list(r) for r in big.rows]
    missed[15][15] = missed[15][15] + Scalar(1, 0, 6)
    assert not _vanishes([(Scalar(1), Mat(missed), big_ones)])
    # 1 x 16 rows meet zero rows of Y: no term at all reaches the sum.
    assert _vanishes([(Scalar(1), big, Mat.zero(16))])
    assert _vanishes([])


def test_products_vanish_makes_no_scalar_and_no_matrix(monkeypatch):
    """The zero test runs on plain ints: no Scalar arithmetic, no product loop and no Mat."""
    a = Mat([MIXED_ROW] * 4)
    terms = [(Scalar(1, 0, 2), linalg.sparse_rows(a), linalg.sparse_rows(a)),
             (Scalar(-1, 0, 2), linalg.sparse_rows(a), linalg.sparse_rows(a))]

    def forbidden(*args, **kwargs):
        raise AssertionError("products_vanish built a Scalar or a matrix")

    for name in ("__mul__", "__add__", "__sub__", "__neg__", "__init__"):
        monkeypatch.setattr(Scalar, name, forbidden)
    monkeypatch.setattr(Mat, "__init__", forbidden)
    monkeypatch.setattr(linalg, "_product_rows", forbidden)
    monkeypatch.setattr(linalg, "_alloc", forbidden)
    assert linalg.products_vanish(terms)
    assert not linalg.products_vanish(terms[:1])


def test_closure_of_identity():
    assert algebra_closure([E4]).dim == 1


def test_closure_table_examples(q2):
    s1 = instantiate("S1", q2)
    assert algebra_closure(list(s1.matrices())).dim == 6
    s4a = instantiate("S4a", q2)
    space = algebra_closure(list(s4a.matrices()))
    assert space.dim == 10
    upper = Subspace.span_of([u(i, j) for i in range(1, 5) for j in range(i, 5)])
    assert space == upper


def test_closure_is_closed(rng, q2):
    for entry in ("S1", "S2a", "S7"):
        space = algebra_closure(list(instantiate(entry, q2).matrices()))
        mats = space.matrices()
        for x in mats:
            for y in mats:
                assert space.contains_matrix(x * y)


@pytest.mark.parametrize("q_text", ["2", "3", "1+1i"])
def test_closure_matches_all_pairs_reference_on_the_table(q_text):
    q = validate_q(parse_scalar(q_text))
    for entry in ENTRY_ORDER:
        generators = list(instantiate(entry, q).matrices())
        assert _canonical(algebra_closure(generators).basis) == reference_algebra_closure(generators), entry


@st.composite
def generator_sets(draw):
    """1 to 4 generators of size 4, each nilpotent (strictly upper), idempotent ([[I_k, X], [0, 0]]) or dense."""
    zero, one = Scalar(0), Scalar(1)
    generators = []
    for kind in draw(st.lists(st.sampled_from(("nilpotent", "idempotent", "dense")), min_size=1, max_size=4)):
        if kind == "nilpotent":
            rows = [[draw(sparse_scalars) if j > i else zero for j in range(4)] for i in range(4)]
        elif kind == "idempotent":
            k = draw(st.integers(1, 3))
            rows = [[(one if i == j else zero) if j < k else draw(sparse_scalars) for j in range(4)] if i < k
                    else [zero] * 4 for i in range(4)]
        else:
            rows = [[draw(sparse_scalars) for _ in range(4)] for _ in range(4)]
        generators.append(Mat(rows))
    return generators


@settings(max_examples=30, **DENSE_REFERENCE)
@given(generator_sets())
def test_closure_matches_all_pairs_reference(generators):
    assert _canonical(algebra_closure(generators).basis) == reference_algebra_closure(generators)


def test_centralizer_examples(q2):
    assert centralizer([E4]).dim == 16
    all_units = [u(i, j) for i in range(1, 5) for j in range(1, 5)]
    scalars_only = centralizer(all_units)
    assert scalars_only == Subspace.span_of([E4])
    s1 = instantiate("S1", q2)
    cent = centralizer(list(s1.matrices()))
    assert cent == Subspace.span_of([E4, u(4, 4), u(4, 3)])
    assert cent.dim == 3


def test_centralizer_against_elementwise_scan(rng):
    for _ in range(10):
        gens = [random_mat(rng, 3) for _ in range(2)]
        cent = centralizer(gens)
        for m in cent.matrices():
            for g in gens:
                assert m * g == g * m
        # Independent brute scan: basis of commuting matrices found directly.
        brute = [
            v
            for v in (Mat.unit(3, i, j) for i in range(1, 4) for j in range(1, 4))
            if all(v * g == g * v for g in gens)
        ]
        for v in brute:
            assert cent.contains_matrix(v)


def test_invertible_element_examples():
    assert invertible_element_in(Subspace.span_of([E4])) == E4
    assert invertible_element_in(Subspace.span_of([u(1, 2), u(1, 3)])) is None
    found = invertible_element_in(Subspace.span_of([u(1, 1) + u(2, 2), u(3, 3) + u(4, 4)]))
    assert found == E4  # simplex point (1, 1)


def test_invertible_element_matches_grid_scan(rng):
    for _ in range(15):
        vecs = [random_low_rank(rng, 4, rng.randint(1, 4)).flatten() for _ in range(rng.randint(1, 3))]
        space = Subspace(16, vecs)
        found = invertible_element_in(space)
        mats = space.matrices()
        brute_all_zero = True
        for coeffs in product(range(5), repeat=space.dim):
            combo = Mat.zero(4)
            for c, b in zip(coeffs, mats):
                combo = combo + b.scale(c)
            if det(combo):
                brute_all_zero = False
                break
        assert (found is None) == brute_all_zero
        if found is not None:
            assert det(found)


def _sparse_low_rank(rng, rank: int) -> Mat:
    """A sum of rank outer products x y^T, x and y each with one or two nonzero entries."""
    rows = [[Scalar(0)] * 4 for _ in range(4)]
    for _ in range(rank):
        x = {i: random_nonzero_scalar(rng) for i in rng.sample(range(4), rng.randint(1, 2))}
        y = {j: random_nonzero_scalar(rng) for j in rng.sample(range(4), rng.randint(1, 2))}
        for i, xi in x.items():
            for j, yj in y.items():
                rows[i][j] = rows[i][j] + xi * yj
    return Mat(rows)


def _support(space: Subspace) -> tuple[set[int], set[int]]:
    """The rows and the columns on which some basis matrix is nonzero."""
    cells = [(k // 4, k % 4) for v in space.basis for k, x in enumerate(v) if x]
    return {r for r, _ in cells}, {c for _, c in cells}


def test_invertible_element_is_the_first_invertible_simplex_point(rng, q2, monkeypatch):
    """The same point as a from-scratch enumeration in the documented order.

    On random dense and Jordan spaces, and on sparse ones whose points the
    search skips by support: random sets of matrix units, sparse low-rank
    matrices, and spaces whose matrices share exactly one zero row or column.
    """
    spaces = []
    for _ in range(30):
        ranks = [rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(1, 6))]
        spaces.append(Subspace(16, [random_low_rank(rng, 4, k).flatten() for k in ranks]))
    assert {s.dim for s in spaces} == set(range(1, 7))
    zero, one = Mat.zero(4), Mat.identity(4)
    reps = [GLqRep(jordan(*parts), zero, zero, one, q2) for parts in ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))]
    spaces += [reference_intertwiner_space(r1, r2, Scalar(1), Scalar(1)) for r1 in reps for r2 in reps]
    units = [u(i, j) for i in range(1, 5) for j in range(1, 5)]
    sparse = [Subspace.span_of(rng.sample(units, rng.randint(3, 8))) for _ in range(16)]
    sparse += [Subspace.span_of([_sparse_low_rank(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 6))])
               for _ in range(16)]
    missing_one = []
    for k in range(8):  # row k for k < 4, else column k - 4
        while True:
            mats = [_sparse_low_rank(rng, rng.randint(2, 3)) for _ in range(rng.randint(3, 6))]
            space = Subspace.span_of([Mat([[Scalar(0) if (i, j)[k // 4] == k % 4 else x for j, x in enumerate(r)]
                                           for i, r in enumerate(m.rows)]) for m in mats])
            rows, cols = _support(space)
            if sorted((len(rows), len(cols))) == [3, 4] and k % 4 not in (rows, cols)[k // 4]:
                missing_one.append(space)
                break
    spaces += sparse + missing_one
    found = [reference_first_invertible(s) for s in spaces]
    assert None in found and any(f is not None and f not in s.matrices() for f, s in zip(found, spaces))
    evaluated = []
    counted = linalg.det
    monkeypatch.setattr(linalg, "det", lambda m: evaluated.append(m) or counted(m))
    dets = {}
    for s, want in zip(spaces, found):
        evaluated.clear()
        assert invertible_element_in(s) == want
        dets[s] = len(evaluated)
    # The skip runs: some sparse space has an invertible point, some sparse
    # negative search evaluates a few of its C(d+4, 4) - 1 points but not
    # all, and a missing row or column ends the search before any point.
    found_in = dict(zip(spaces, found))
    assert any(found_in[s] is not None for s in sparse)
    assert any(found_in[s] is None and 0 < dets[s] < comb(s.dim + 4, 4) - 1 for s in sparse)
    assert all(dets[s] == 0 for s in missing_one)


def test_large_spaces_are_decided():
    def units(rows, cols):
        return Subspace.span_of([Mat.unit(4, i, j) for i in rows for j in cols])

    assert invertible_element_in(Subspace(16, [])) is None
    everything = units(range(1, 5), range(1, 5))
    assert everything.dim == 16 and det(invertible_element_in(everything))
    zero_first_column = units(range(1, 5), range(2, 5))
    assert zero_first_column.dim == 12 and invertible_element_in(zero_first_column) is None
    rank_two = units(range(1, 5), (1, 2))
    assert rank_two.dim == 8 and invertible_element_in(rank_two) is None
    nine = Subspace.span_of([Mat.unit(4, 1 + i % 4, 1 + i // 4) for i in range(9)])
    assert nine.dim == 9 and invertible_element_in(nine) is None


def test_mat_json_round_trip(rng):
    m = random_mat(rng, 4)
    assert Mat.from_json(m.to_json()) == m


def test_nilpotency_and_triangularity(q2):
    a = u(1, 2) + u(2, 3)
    assert is_nilpotent(a)
    assert not is_nilpotent(E4 + a)
    assert (E4 + a).is_upper_triangular()
    assert not (E4 + u(2, 1)).is_upper_triangular()
    assert (E4 + u(2, 1)).is_lower_triangular()
