from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_low_rank, random_mat, random_scalar
from qact import (
    DimensionMismatch,
    GridTooLarge,
    Mat,
    NotTriangular,
    Scalar,
    Singular,
    Subspace,
    algebra_closure,
    as_scalar,
    centralizer,
    det,
    diagonal_spectrum,
    instantiate,
    invertible_element_in,
    kernel,
    left_mul_operator,
    mat_inverse,
    rank,
    right_mul_operator,
)


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
    m = Mat.block2(rep.a11, rep.a12, rep.a21, rep.a22)
    assert m * mat_inverse(m) == Mat.identity(8)


def test_singular_raises():
    with pytest.raises(Singular):
        mat_inverse(u(1, 2))


def test_kernel_identity_and_zero():
    assert kernel(Mat.identity(4)).dim == 0
    assert kernel(Mat.zero(16)).dim == 16


def test_kernel_of_spinor_operator(q2):
    q = q2.q
    a = Mat.diag(q ** 3, q * q, q, 1)
    op = left_mul_operator(a) - right_mul_operator(a).scale(q)
    space = kernel(op)
    assert space == Subspace.span_of([u(1, 2), u(2, 3), u(3, 4)])


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
            assert rank(m) + kernel(m).dim == n


def test_inverse_iff_trivial_kernel(rng):
    for _ in range(50):
        m = random_mat(rng, 4)
        if kernel(m).dim == 0:
            assert mat_inverse(m) * m == E4
        else:
            with pytest.raises(Singular):
                mat_inverse(m)
            assert det(m).is_zero


def test_subspace_examples():
    s = Subspace.span_of([u(1, 2) + u(2, 3)])
    t = Subspace.span_of([(u(1, 2) + u(2, 3)).scale(2)])
    assert (s == t) is True
    full = Subspace(16, [Mat.unit(4, i, j).flatten() for i in range(1, 5) for j in range(1, 5)])
    assert full.contains(s) is True
    left = Subspace.span_of([u(1, 2), u(2, 3)])
    right = Subspace.span_of([u(2, 3), u(3, 4)])
    assert left.intersect(right) == Subspace.span_of([u(2, 3)])
    assert left.sum_with(right).dim == 3


def test_subspace_dimension_mismatch():
    s = Subspace(4, [[as_scalar(1), as_scalar(0), as_scalar(0), as_scalar(0)]])
    t = Subspace(9, [[as_scalar(1)] + [as_scalar(0)] * 8])
    with pytest.raises(DimensionMismatch):
        s.sum_with(t)


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


small_vectors = st.lists(
    st.lists(st.integers(-3, 3).map(as_scalar), min_size=4, max_size=4),
    min_size=0,
    max_size=3,
)


@settings(max_examples=60)
@given(small_vectors, small_vectors)
def test_subspace_lattice_properties(vs, ws):
    s = Subspace(4, vs)
    t = Subspace(4, ws)
    total = s.sum_with(t)
    meet = s.intersect(t)
    assert total.contains(s) and total.contains(t)
    assert s.contains(meet) and t.contains(meet)
    assert total.dim + meet.dim == s.dim + t.dim
    if s.contains(t) and t.contains(s):
        assert s == t


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


def test_diagonal_spectrum(q2):
    q = q2.q
    assert diagonal_spectrum(Mat.diag(q * q, q, 1, 1)) == (as_scalar(1), as_scalar(1), as_scalar(2), as_scalar(4))
    m = Mat.diag(q * q, q * q, q, 1) + u(1, 2)
    assert diagonal_spectrum(m) == (as_scalar(1), as_scalar(2), as_scalar(4), as_scalar(4))
    with pytest.raises(NotTriangular):
        diagonal_spectrum(u(2, 1) + u(1, 3))


def test_invertible_element_examples():
    assert invertible_element_in(Subspace.span_of([E4])) == E4
    assert invertible_element_in(Subspace.span_of([u(1, 2), u(1, 3)])) is None
    found = invertible_element_in(Subspace.span_of([u(1, 1) + u(2, 2), u(3, 3) + u(4, 4)]))
    assert found == E4  # grid point (1, 1)


def test_invertible_element_matches_grid_scan(rng):
    for _ in range(15):
        vecs = [random_mat(rng, 4).flatten() for _ in range(rng.randint(1, 3))]
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


def test_grid_cap():
    nine = [Mat.unit(4, 1 + i % 4, 1 + i // 4) for i in range(9)]
    with pytest.raises(GridTooLarge):
        invertible_element_in(Subspace.span_of(nine))


def test_mat_json_round_trip(rng):
    m = random_mat(rng, 4)
    assert Mat.from_json(m.to_json()) == m


def test_nilpotency_and_triangularity(q2):
    a = u(1, 2) + u(2, 3)
    assert a.is_nilpotent()
    assert not (E4 + a).is_nilpotent()
    assert (E4 + a).is_upper_triangular()
    assert not (E4 + u(2, 1)).is_upper_triangular()
    assert (E4 + u(2, 1)).is_lower_triangular()
