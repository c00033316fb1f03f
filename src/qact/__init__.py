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
    NotEquivalent,
    Unsupported,
    action_fixed_points,
    build_action,
    decide_equivalence,
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
    check_entry,
    get_entry,
    instantiate,
    resolve_params,
    verify_determinant_invariants,
    verify_distinctness,
    verify_table,
)
from .clifford import (
    CliffordModel,
    MalformedExpression,
    build_model,
    default_model,
    eval_gamma_expr,
    selftest,
)
from .linalg import (
    DimensionMismatch,
    Mat,
    Singular,
    Subspace,
    algebra_closure,
    centralizer,
    det,
    invertible_element_in,
    mat_inverse,
    solve_homogeneous,
)
from .qrep import (
    A11Singular,
    DeterminantSingular,
    DNotInvariant,
    GLqRep,
    RelationViolated,
    RqRep,
    antipode,
    antipode_check,
    attach_determinant,
    connected_slq,
    from_rq,
    is_slq,
    quantum_determinant,
    require_representation,
    to_rq,
    verify_glq_relations,
)
from .qspinor import (
    CanonicalForm,
    InvalidFormParameter,
    VerificationFailure,
    canonical_forms,
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
