"""Exact verification of inner GL_q(2,C) actions on the Clifford algebra C(1,3).

Everything is computed over the Gaussian rationals: representations of the
quantum-matrix relations by 4x4 matrices, the inner actions they induce,
operator algebras, centralizers and invariants, quantum determinants, and
the equivalence decision between actions.  A twenty-entry classification
table ships as executable data together with the full battery of checks.
"""

from .action import (
    EquivalenceWitness,
    InnerAction,
    FixedPointMismatch,
    NotEquivalent,
    Unsupported,
    action_fixed_points,
    build_action,
    decide_equivalence,
    invariants,
    operator_algebra,
    operator_relation_report,
    verify_module_algebra,
)
from .catalog import (
    ENTRIES,
    ENTRY_ORDER,
    ConstraintViolated,
    EntryCheck,
    TableCheck,
    TableEntry,
    UnknownEntry,
    canonical_determinants,
    check_entry,
    connected_s_entry,
    get_entry,
    instantiate,
    instantiate_all,
    resolve_params,
    verify_determinant_invariants,
    verify_distinctness,
    verify_entry,
    verify_table,
)
from .clifford import (
    CliffordModel,
    GammaExpr,
    MalformedExpression,
    build_model,
    combine_units,
    default_model,
    eval_gamma_expr,
    express_in_units,
    parse_gamma_expr,
    selftest,
)
from .linalg import (
    DimensionMismatch,
    GridTooLarge,
    Mat,
    NotTriangular,
    Singular,
    Subspace,
    algebra_closure,
    centralizer,
    det,
    diagonal_spectrum,
    invertible_element_in,
    kernel,
    left_mul_operator,
    mat_inverse,
    rank,
    right_mul_operator,
    solve_homogeneous,
)
from .qrep import (
    A11Singular,
    DeterminantNotCentral,
    DeterminantSingular,
    DNotInvariant,
    DSingular,
    GLqRep,
    R22Singular,
    RelationViolated,
    RqRep,
    antipode_check,
    attach_determinant,
    connected_slq,
    from_rq,
    is_slq,
    quantum_determinant,
    require_representation,
    schur_r22,
    to_rq,
    verify_glq_relations,
    verify_rq_relations,
)
from .qspinor import (
    CanonicalForm,
    InvalidFormParameter,
    SpinorPair,
    VerificationFailure,
    canonical_forms,
    is_q_spinor,
    space_square_nonzero,
    spinor_space,
    verify_canonical_form,
)
from .report import Check, Report
from .scalars import (
    DeformationParameter,
    DivisionByZero,
    InvalidQ,
    ParseError,
    Scalar,
    as_scalar,
    format_scalar,
    parse_scalar,
    validate_q,
)

__version__ = "0.1.0"
