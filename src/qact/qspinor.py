"""q-spinor representations: the relation AB = qBA and its solution spaces.

For a fixed 4x4 matrix A the set B(A) of all B with AB = qBA is a linear
subspace, computed exactly as the kernel of the map X -> AX - qXA
(linalg.solve_homogeneous).  Seven canonical pairs (A, basis of B(A))
classify the invertible-A, B(A)^2 != 0 situation; verify_canonical_form
recomputes each space and checks it against the stored basis.  form_a is
the one definition of the seven matrices A: the canonical forms and the A11
block of every classification table entry are built from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, Subspace, solve_homogeneous
from .report import Report
from .scalars import ONE, ZERO, DeformationParameter, Scalar, as_scalar, format_scalar, smallest_admissible


class InvalidFormParameter(ValueError):
    """The free diagonal entry of form 5 hits an excluded value."""


class VerificationFailure(AssertionError):
    """A canonical-form assertion failed."""


def spinor_space(a: Mat, q: DeformationParameter) -> Subspace:
    """B(A): all B with AB = qBA, as an RREF subspace of flattened matrices."""
    one = Mat.identity(a.n)
    return solve_homogeneous([[(a, one), (one, a.scale(-q.q))]])


def space_square_nonzero(s: Subspace) -> bool:
    """Whether B(A)^2 != 0; checked on basis products, complete by bilinearity."""
    mats = s.matrices()
    return any(not (x * y).is_zero for x in mats for y in mats)


@dataclass(frozen=True)
class CanonicalForm:
    form_id: int
    a: Mat
    expected_basis: tuple[Mat, ...]
    alpha: Scalar | None = None

    @property
    def expected_dim(self) -> int:
        return len(self.expected_basis)


def form5_excluded(q: Scalar) -> tuple[Scalar, ...]:
    """The values the free diagonal entry of form 5 (and alpha of S5, G5) may not take."""
    # The strict exclusion list of the canonical-form classification,
    # including q^3 (the table header omits it).
    return (ZERO, q.inv(), ONE, q, q * q, q ** 3)


# A of each canonical form, as a function of q and of form 5's free diagonal
# entry alpha, which no other form reads.
_FORM_A = {
    1: lambda q, alpha: Mat.diag(q * q, q, 1, 1),
    2: lambda q, alpha: Mat.diag(q * q, q, q, 1),
    3: lambda q, alpha: Mat.diag(q * q, q * q, q, 1),
    4: lambda q, alpha: Mat.diag(q ** 3, q * q, q, 1),
    5: lambda q, alpha: Mat.diag(alpha, q * q, q, 1),
    6: lambda q, alpha: Mat.diag(q * q, q * q, q, 1) + Mat.unit(4, 1, 2),
    7: lambda q, alpha: Mat.diag(q * q, q, 1, 1) + Mat.unit(4, 3, 4),
}

# The basis of B(A) for each form, as the (i, j) of its matrix units e_ij.
_FORM_BASES = {
    1: ((1, 2), (2, 3), (2, 4)),
    2: ((1, 2), (1, 3), (2, 4), (3, 4)),
    3: ((1, 3), (2, 3), (3, 4)),
    4: ((1, 2), (2, 3), (3, 4)),
    5: ((2, 3), (3, 4)),
    6: ((1, 3), (3, 4)),
    7: ((2, 4), (1, 2)),
}


def form_a(form_id: int, q: Scalar, alpha: Scalar | None = None) -> Mat:
    """A of canonical form form_id (1 to 7) at q; only form 5 reads alpha."""
    return _FORM_A[form_id](q, alpha)


def canonical_forms(q: DeformationParameter, alpha: Scalar | None = None) -> list[CanonicalForm]:
    """The seven canonical (A, basis of B(A)) pairs at the given q, A from form_a.

    Form 5 carries a free diagonal entry; when alpha is omitted the smallest
    admissible integer >= 2 is chosen, deterministically in q.
    """
    qq = q.q
    if alpha is None:
        alpha = smallest_admissible(form5_excluded(qq))
    else:
        alpha = as_scalar(alpha)
        if alpha in set(form5_excluded(qq)):
            raise InvalidFormParameter(f"alpha = {format_scalar(alpha)} is excluded for form 5")
    return [CanonicalForm(k, form_a(k, qq, alpha), tuple(Mat.unit(4, i, j) for i, j in units),
                          alpha if k == 5 else None) for k, units in _FORM_BASES.items()]


def verify_canonical_form(form: CanonicalForm, q: DeformationParameter) -> Report:
    """Recompute B(A) for one canonical form and compare with the stored basis.

    Raises VerificationFailure on the first failed assertion; on success the
    returned report itemizes the checks.
    """
    report = Report(f"canonical-form-{form.form_id}")
    space = spinor_space(form.a, q)
    expected = Subspace.span_of(form.expected_basis)
    report.add(
        "b_space_matches",
        space == expected,
        f"dim {space.dim}, expected {form.expected_dim}",
    )
    report.add("square_nonzero", space_square_nonzero(space))
    report.require(VerificationFailure)
    return report
