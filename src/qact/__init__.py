"""Exact verification of inner GL_q(2,C) actions on the Clifford algebra C(1,3).

Everything is computed over the Gaussian rationals: representations of the
quantum-matrix relations by 4x4 matrices, the inner actions they induce,
operator algebras, centralizers and invariants, quantum determinants, and
the equivalence decision between actions.  A twenty-entry classification
table ships as executable data together with the full battery of checks.

`import qact` loads five modules: scalars, linalg, report, qrep and action,
enough to check a representation and decide equivalence.  The names of the
table (catalog), the Clifford model (clifford) and the canonical forms
(qspinor), and the submodules catalog, clifford, qspinor and cli, load on
first use (PEP 562), each then bound here like an eager name.
"""

from importlib import import_module as _import_module

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

# name -> the submodule that defines it, for the names loaded on first use.
_LAZY = {name: module for module, names in {
    "catalog": (
        "ENTRIES", "ENTRY_ORDER", "ConstraintViolated", "EntryCheck", "TableCheck", "TableEntry", "UnknownEntry",
        "check_entry", "get_entry", "instantiate", "resolve_params", "verify_determinant_invariants",
        "verify_distinctness", "verify_table",
    ),
    "clifford": ("CliffordModel", "MalformedExpression", "build_model", "default_model", "eval_gamma_expr", "selftest"),
    "qspinor": ("CanonicalForm", "canonical_forms", "space_square_nonzero", "spinor_space", "verify_canonical_form"),
}.items() for name in names}
_SUBMODULES = ("catalog", "clifford", "qspinor", "cli")


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    elif name in _LAZY:
        value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys() | set(_SUBMODULES))
