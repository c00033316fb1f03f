import pytest

from helpers import (
    random_invertible_upper,
    random_nonzero_scalar,
    random_scalar,
    random_strictly_upper,
)
from qact import (
    CanonicalForm,
    Mat,
    Subspace,
    as_scalar,
    canonical_forms,
    centralizer,
    mat_inverse,
    space_square_nonzero,
    spinor_space,
    verify_canonical_form,
)
from qact.qspinor import form_a

E4 = Mat.identity(4)


def u(i, j):
    return Mat.unit(4, i, j)


def test_spinor_space_examples(q2):
    q = q2.q
    assert spinor_space(Mat.diag(q * q, q, 1, 1), q2) == Subspace.span_of([u(1, 2), u(2, 3), u(2, 4)])
    assert spinor_space(Mat.diag(q * q, q, 1, 1) + u(3, 4), q2) == Subspace.span_of([u(2, 4), u(1, 2)])


def test_scalar_plus_nilpotent_gives_zero_space(q2, rng):
    for _ in range(50):
        alpha = random_nonzero_scalar(rng)
        a = E4.scale(alpha) + random_strictly_upper(rng)
        assert spinor_space(a, q2).dim == 0


def test_square_nonzero(q2):
    assert space_square_nonzero(Subspace.span_of([u(1, 2), u(2, 3)]))
    assert not space_square_nonzero(Subspace.span_of([u(1, 4)]))
    assert not space_square_nonzero(Subspace.span_of([u(4, 3)]))


def test_canonical_form_data(q2):
    q = q2.q
    forms = canonical_forms(q2)
    assert [f.form_id for f in forms] == [1, 2, 3, 4, 5, 6, 7]
    assert [f.expected_dim for f in forms] == [3, 4, 3, 3, 2, 2, 2]
    assert forms[0].a == Mat.diag(q * q, q, 1, 1)
    assert forms[2].expected_basis == (u(1, 3), u(2, 3), u(3, 4))
    assert forms[3].a == Mat.diag(q * q * q, q * q, q, 1)
    assert forms[3].expected_basis == (u(1, 2), u(2, 3), u(3, 4))
    assert forms[5].a == Mat.diag(q * q, q * q, q, 1) + u(1, 2)
    assert forms[5].expected_basis == (u(1, 3), u(3, 4))
    assert spinor_space(forms[2].a, q2) == Subspace.span_of([u(1, 3), u(2, 3), u(3, 4)])


def test_form5_parameter_validation(q2):
    forms = canonical_forms(q2)
    # Default alpha avoids the exclusion list deterministically: 2 = q is
    # excluded at q = 2, so 3 is picked.
    assert forms[4].a.rows[0][0] == as_scalar(3)
    # Form 5 at another admissible alpha has the same B(A).
    form = CanonicalForm(5, form_a(5, q2.q, as_scalar(7)), forms[4].expected_basis)
    assert form.a.rows[0][0] == as_scalar(7)
    assert verify_canonical_form(form, q2).ok


@pytest.mark.parametrize("qname", ["q2", "q3"])
def test_all_canonical_forms_pass(qname, request):
    q = request.getfixturevalue(qname)
    for form in canonical_forms(q):
        report = verify_canonical_form(form, q)
        assert report.ok


def test_canonical_form_failure_is_detected(q2):
    fake = CanonicalForm(1, Mat.diag(q2.q * q2.q, q2.q, 1, 1), (u(1, 2), u(2, 3)))
    report = verify_canonical_form(fake, q2)
    assert not report.ok
    bad = report.first_failure
    assert (bad.name, bad.detail) == ("b_space_matches", "dim 3, expected 2")


def test_commutant_closure_property(q2, rng):
    # C1 B C2 stays in B(A) whenever C1, C2 commute with A.
    for form in canonical_forms(q2):
        space = spinor_space(form.a, q2)
        commutant = centralizer([form.a]).matrices()
        for _ in range(5):
            c1 = _random_combo(rng, commutant)
            c2 = _random_combo(rng, commutant)
            for b in space.matrices():
                assert space.contains_matrix(c1 * b * c2)


def _random_combo(rng, mats):
    total = Mat.zero(4)
    for m in mats:
        total = total + m.scale(random_scalar(rng, -2, 2))
    return total


def test_diagonal_spaces_have_unit_bases(q2, rng):
    values = [1, 2, 3, 4, 8, 6]
    for _ in range(50):
        a = Mat.diag(*[rng.choice(values) for _ in range(4)])
        space = spinor_space(a, q2)
        for vec in space.basis:
            nonzero = [x for x in vec if x]
            assert len(nonzero) == 1 and nonzero[0] == as_scalar(1)


def test_conjugation_scaling_equivariance(q2, rng):
    q = q2.q
    a = Mat.diag(q * q, q, 1, 1)
    base = spinor_space(a, q2)
    for _ in range(20):
        uu = random_invertible_upper(rng)
        uinv = mat_inverse(uu)
        alpha = random_nonzero_scalar(rng)
        moved = spinor_space((uu * a * uinv).scale(alpha), q2)
        expected = Subspace.span_of([uu * b * uinv for b in base.matrices()])
        assert moved == expected
