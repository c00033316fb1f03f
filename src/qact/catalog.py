"""The classification table of inner actions, as executable data.

Twenty entries: nine families by the value of A11, each with one
determinant-one representation (S...) and zero or more companions with a
nontrivial quantum determinant (G...).  Every entry is stored fully
resolved, carries its parameter exclusions, and knows the expected operator
algebra, invariant algebra, gamma-form invariants, and quantum determinant,
so a single verify_entry call replays the whole battery of checks.

The G3b and G6 cells are stored in the unique form consistent with their
determinant column through the reconstruction identity
A22 = A22' + A11^-1 (D - 1): G3b adds q^-2 e12 to A22 (det_q = 1 + e12)
and G6 adds xi e12 (det_q = 1 + q^2 xi e12).  attach_determinant
cross-checks both reconstructions in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .action import (
    action_fixed_points,
    build_action,
    decide_equivalence,
    operator_algebra,
    operator_relation_report,
    verify_module_algebra,
)
from .clifford import default_model, eval_gamma_expr, parse_gamma_expr
from .linalg import Mat, Subspace, centralizer, mat_inverse
from .qrep import (
    GLqRep,
    antipode_check,
    quantum_determinant,
    require_representation,
    verify_glq_relations,
)
from .report import Report
from .scalars import ONE, ZERO, DeformationParameter, Scalar, as_scalar, format_scalar


class ConstraintViolated(ValueError):
    def __init__(self, param: str, value, reason: str):
        super().__init__(f"parameter {param} = {value}: {reason}")
        self.param = param
        self.value = value


class UnknownEntry(KeyError):
    pass


_E4 = Mat.identity(4)
_UNITS = {(i, j): Mat.unit(4, i, j) for i in range(1, 5) for j in range(1, 5)}


def _u(i: int, j: int) -> Mat:
    return _UNITS[(i, j)]


Params = Mapping[str, Scalar]
MatBuilder = Callable[[Scalar, Params], tuple[Mat, Mat, Mat, Mat]]

INVARIANT_DIMS = {"T2": 3, "C+C": 2, "T2'": 2, "C": 1}

# Upper-triangular positions, for the full-triangular operator algebra of S4a.
_UPPER = [(i, j) for i in range(1, 5) for j in range(i, 5)]


@dataclass(frozen=True)
class TableEntry:
    entry_id: str
    params: tuple[str, ...]
    exclusions: Mapping[str, Callable[[Scalar, Params], tuple[Scalar, ...]]]
    matrices: MatBuilder
    expected_detq: Callable[[Scalar, Params], Mat]
    expected_dim_r: int
    expected_r_basis: Callable[[Scalar, Params], list[Mat]]
    expected_inv_basis: tuple[Mat, ...]
    invariant_type: str
    gamma_invariants: tuple[str, ...]
    connected_to: Optional[str] = None
    canonical_dets: Callable[[Scalar, Params], tuple[Mat, ...]] = lambda q, p: ()


def _nonzero(q: Scalar, p: Params) -> tuple[Scalar, ...]:
    return (ZERO,)


def _det_one(q: Scalar, p: Params) -> Mat:
    return _E4


# -- family S1 / G1a / G1b: A11 = diag(q^2, q, 1, 1) ---------------------------


def _build_s1(q: Scalar, p: Params):
    a11 = Mat.diag(q * q, q, 1, 1)
    a12 = _u(1, 2) + _u(2, 3)
    a21 = a12.scale(p["alpha"])
    a22 = mat_inverse(a11) + _u(1, 3).scale(p["alpha"] / q)
    return a11, a12, a21, a22


def _build_g1a(q: Scalar, p: Params):
    a11, a12, a21, a22 = _build_s1(q, p)
    return a11, a12, a21, a22 + _u(4, 4).scale(p["beta"])


def _build_g1b(q: Scalar, p: Params):
    a11, a12, a21, a22 = _build_s1(q, p)
    return a11, a12, a21, a22 + _u(4, 3)


def _r_s1(q, p):
    return [_u(1, 1), _u(1, 2), _u(1, 3), _u(2, 2), _u(2, 3), _u(3, 3) + _u(4, 4)]


def _r_g1a(q, p):
    return [_u(1, 1), _u(1, 2), _u(1, 3), _u(2, 2), _u(2, 3), _u(3, 3), _u(4, 4)]


def _r_g1b(q, p):
    return _r_s1(q, p) + [_u(4, 3)]


# -- family S2 / G2: A11 = diag(q^2, q, q, 1) ----------------------------------


def _build_s2a(q: Scalar, p: Params):
    a11 = Mat.diag(q * q, q, q, 1)
    a12 = _u(1, 2).scale(p["alpha"]) + _u(1, 3) + _u(2, 4)
    a21 = _u(1, 2) + _u(1, 3).scale(p["beta"]) + _u(3, 4)
    a22 = mat_inverse(a11) + _u(1, 4).scale(ONE / q)
    return a11, a12, a21, a22


def _build_s2ap(q: Scalar, p: Params):
    return _build_s2a(q, {"alpha": p["alpha"], "beta": p["alpha"].inv()})


def _build_s2b(q: Scalar, p: Params):
    a11 = Mat.diag(q * q, q, q, 1)
    a12 = _u(1, 2) + _u(2, 4)
    a21 = a12.scale(p["alpha"]) + _u(1, 3)
    a22 = mat_inverse(a11) + _u(1, 4).scale(p["alpha"] / q)
    return a11, a12, a21, a22


def _build_s2bp(q: Scalar, p: Params):
    a11, a12, _, a22 = _build_s2b(q, p)
    return a11, a12, a12.scale(p["alpha"]), a22


def _build_g2bp(q: Scalar, p: Params):
    a11, a12, a21, a22 = _build_s2bp(q, p)
    return a11, a12, a21, a22 + _u(3, 3).scale(p["beta"])


def _r_s2a(q, p):
    return [_u(1, 1), _u(1, 2), _u(1, 3), _u(1, 4), _u(2, 2) + _u(3, 3), _u(2, 4), _u(3, 4), _u(4, 4)]


def _r_s2ap(q, p):
    tied = _u(1, 2).scale(p["alpha"]) + _u(1, 3)
    return [_u(1, 1), tied, _u(1, 4), _u(2, 2) + _u(3, 3), _u(2, 4), _u(3, 4), _u(4, 4)]


def _r_s2b(q, p):
    return [_u(1, 1), _u(1, 2), _u(1, 3), _u(1, 4), _u(2, 2) + _u(3, 3), _u(2, 4), _u(4, 4)]


def _r_s2bp(q, p):
    return [_u(1, 1), _u(1, 2), _u(1, 4), _u(2, 2) + _u(3, 3), _u(2, 4), _u(4, 4)]


def _r_g2bp(q, p):
    return [_u(1, 1), _u(1, 2), _u(1, 4), _u(2, 2), _u(3, 3), _u(2, 4), _u(4, 4)]


# -- family S3 / G3a / G3b: A11 = diag(q^2, q^2, q, 1) -------------------------


def _build_s3(q: Scalar, p: Params):
    a11 = Mat.diag(q * q, q * q, q, 1)
    a12 = _u(1, 3) + _u(3, 4)
    a21 = a12.scale(p["alpha"])
    a22 = mat_inverse(a11) + _u(1, 4).scale(p["alpha"] / q)
    return a11, a12, a21, a22


def _build_g3a(q: Scalar, p: Params):
    a11, a12, a21, a22 = _build_s3(q, p)
    return a11, a12, a21, a22 + _u(2, 2).scale(p["beta"])


def _build_g3b(q: Scalar, p: Params):
    a11, a12, a21, a22 = _build_s3(q, p)
    # The determinant column 1 + e12 forces the increment q^-2 e12 through
    # A22 = A22' + A11^-1 (D - 1).
    return a11, a12, a21, a22 + _u(1, 2).scale((q * q).inv())


def _r_s3(q, p):
    return [_u(1, 1) + _u(2, 2), _u(1, 3), _u(1, 4), _u(3, 3), _u(3, 4), _u(4, 4)]


def _r_g3a(q, p):
    return [_u(1, 1), _u(2, 2), _u(1, 3), _u(1, 4), _u(3, 3), _u(3, 4), _u(4, 4)]


def _r_g3b(q, p):
    return _r_s3(q, p) + [_u(1, 2)]


# -- family S4a / S4b / G4b: A11 = diag(q^3, q^2, q, 1) ------------------------


def _build_s4a(q: Scalar, p: Params):
    a11 = Mat.diag(q ** 3, q * q, q, 1)
    a12 = _u(1, 2) + _u(2, 3) + _u(3, 4)
    a21 = a12.scale(p["alpha"])
    a22 = mat_inverse(a11) + _u(1, 3).scale(p["alpha"] / (q * q)) + _u(2, 4).scale(p["alpha"] / q)
    return a11, a12, a21, a22


def _build_s4b(q: Scalar, p: Params):
    a11 = Mat.diag(q ** 3, q * q, q, 1)
    a12 = _u(1, 2) + _u(2, 3)
    a21 = a12.scale(p["alpha"])
    a22 = mat_inverse(a11) + _u(1, 3).scale(p["alpha"] / (q * q))
    return a11, a12, a21, a22


def _build_g4b(q: Scalar, p: Params):
    a11, a12, a21, a22 = _build_s4b(q, p)
    return a11, a12, a21, a22 + _u(4, 4).scale(p["beta"])


def _r_s4a(q, p):
    return [_u(i, j) for i, j in _UPPER]


def _r_s4b(q, p):
    return [_u(1, 1), _u(2, 2), _u(3, 3), _u(4, 4), _u(1, 2), _u(2, 3), _u(1, 3)]


# -- family S5 / G5: A11 = diag(alpha, q^2, q, 1) ------------------------------


def _build_s5(q: Scalar, p: Params):
    a11 = Mat.diag(p["alpha"], q * q, q, 1)
    a12 = _u(2, 3) + _u(3, 4)
    a21 = a12.scale(p["beta"])
    a22 = mat_inverse(a11) + _u(2, 4).scale(p["beta"] / q)
    return a11, a12, a21, a22


def _build_g5(q: Scalar, p: Params):
    a11, a12, a21, a22 = _build_s5(q, p)
    return a11, a12, a21, a22 + _u(1, 1).scale(p["gamma"])


def _r_s5(q, p):
    return [_u(1, 1), _u(2, 2), _u(3, 3), _u(4, 4), _u(2, 3), _u(3, 4), _u(2, 4)]


def _s5_alpha_excluded(q: Scalar, p: Params) -> tuple[Scalar, ...]:
    # The strict exclusion list of the canonical-form classification,
    # including q^3 (the table header omits it).
    return (ZERO, q.inv(), ONE, q, q * q, q ** 3)


# -- family S6 / G6: A11 = diag(q^2, q^2, q, 1) + e12 --------------------------


def _build_s6(q: Scalar, p: Params):
    a11 = Mat.diag(q * q, q * q, q, 1) + _u(1, 2)
    a12 = _u(1, 3) + _u(3, 4)
    a21 = a12.scale(p["alpha"])
    a22 = mat_inverse(a11) + _u(1, 4).scale(p["alpha"] / q)
    return a11, a12, a21, a22


def _build_g6(q: Scalar, p: Params):
    a11, a12, a21, a22 = _build_s6(q, p)
    # det_q = 1 + q^2 xi e12 forces the increment xi e12, i.e. the (1, 2)
    # entry of A22 is xi - q^-4.
    return a11, a12, a21, a22 + _u(1, 2).scale(p["xi"])


def _r_s6(q, p):
    return [_u(1, 1) + _u(2, 2), _u(1, 2), _u(1, 3), _u(1, 4), _u(3, 3), _u(3, 4), _u(4, 4)]


# -- family S7 / G7: A11 = diag(q^2, q, 1, 1) + e34 ----------------------------


def _build_s7(q: Scalar, p: Params):
    a11 = Mat.diag(q * q, q, 1, 1) + _u(3, 4)
    a12 = _u(1, 2) + _u(2, 4)
    a21 = a12.scale(p["alpha"])
    a22 = mat_inverse(a11) + _u(1, 4).scale(p["alpha"] / q)
    return a11, a12, a21, a22


def _build_g7(q: Scalar, p: Params):
    a11, a12, a21, a22 = _build_s7(q, p)
    return a11, a12, a21, a22 + _u(3, 4).scale(p["xi"])


def _r_s7(q, p):
    return [_u(1, 1), _u(1, 2), _u(1, 4), _u(2, 2), _u(2, 4), _u(3, 3) + _u(4, 4), _u(3, 4)]


# -- the table -----------------------------------------------------------------

_GAMMA_E44 = "(1-g0)*(1-i*g12)"
_GAMMA_E43 = "(1-g0)*(-g1+i*g2)*g3"
_GAMMA_E33 = "(1-g0)*(1+i*g12)"
_GAMMA_E22 = "(1+g0)*(1-i*g12)"
_GAMMA_E12 = "(1+g0)*(g1+i*g2)*g3"
_GAMMA_E11 = "(1+g0)*(1+i*g12)"
_GAMMA_E34 = "(1-g0)*(g1+i*g2)*g3"

ENTRIES: dict[str, TableEntry] = {}


def _register(entry: TableEntry):
    ENTRIES[entry.entry_id] = entry


_register(TableEntry(
    entry_id="S1",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_s1,
    expected_detq=_det_one,
    expected_dim_r=6,
    expected_r_basis=_r_s1,
    expected_inv_basis=(_E4, _u(4, 4), _u(4, 3)),
    invariant_type="T2",
    gamma_invariants=(_GAMMA_E43, _GAMMA_E44),
    canonical_dets=lambda q, p: (_E4 + _u(4, 4).scale(4), _E4 + _u(4, 3)),
))

_register(TableEntry(
    entry_id="G1a",
    params=("alpha", "beta"),
    exclusions={"alpha": _nonzero, "beta": lambda q, p: (ZERO, -ONE)},
    matrices=_build_g1a,
    expected_detq=lambda q, p: _E4 + _u(4, 4).scale(p["beta"]),
    expected_dim_r=7,
    expected_r_basis=_r_g1a,
    expected_inv_basis=(_E4, _u(4, 4)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E44,),
    connected_to="S1",
))

_register(TableEntry(
    entry_id="G1b",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_g1b,
    expected_detq=lambda q, p: _E4 + _u(4, 3),
    expected_dim_r=7,
    expected_r_basis=_r_g1b,
    expected_inv_basis=(_E4, _u(4, 3)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E43,),
    connected_to="S1",
))

_register(TableEntry(
    entry_id="S2a",
    params=("alpha", "beta"),
    exclusions={"beta": lambda q, p: (p["alpha"].inv(),) if p["alpha"] else ()},
    matrices=_build_s2a,
    expected_detq=_det_one,
    expected_dim_r=8,
    expected_r_basis=_r_s2a,
    expected_inv_basis=(_E4,),
    invariant_type="C",
    gamma_invariants=(),
))

_register(TableEntry(
    entry_id="S2a'",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_s2ap,
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=_r_s2ap,
    expected_inv_basis=(_E4,),
    invariant_type="C",
    gamma_invariants=(),
))

_register(TableEntry(
    entry_id="S2b",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_s2b,
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=_r_s2b,
    expected_inv_basis=(_E4,),
    invariant_type="C",
    gamma_invariants=(),
))

_register(TableEntry(
    entry_id="S2b'",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_s2bp,
    expected_detq=_det_one,
    expected_dim_r=6,
    expected_r_basis=_r_s2bp,
    expected_inv_basis=(_E4, _u(3, 3)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E33,),
    canonical_dets=lambda q, p: (_E4 + _u(3, 3).scale(4),),
))

_register(TableEntry(
    entry_id="G2b'",
    params=("alpha", "beta"),
    exclusions={"alpha": _nonzero, "beta": lambda q, p: (ZERO, -q.inv())},
    matrices=_build_g2bp,
    expected_detq=lambda q, p: _E4 + _u(3, 3).scale(q * p["beta"]),
    expected_dim_r=7,
    expected_r_basis=_r_g2bp,
    expected_inv_basis=(_E4, _u(3, 3)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E33,),
    connected_to="S2b'",
))

_register(TableEntry(
    entry_id="S3",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_s3,
    expected_detq=_det_one,
    expected_dim_r=6,
    expected_r_basis=_r_s3,
    expected_inv_basis=(_E4, _u(2, 2), _u(1, 2)),
    invariant_type="T2",
    gamma_invariants=(_GAMMA_E22, _GAMMA_E12),
    canonical_dets=lambda q, p: (_E4 + _u(2, 2).scale(4), _E4 + _u(1, 2)),
))

_register(TableEntry(
    entry_id="G3a",
    params=("alpha", "beta"),
    exclusions={"alpha": _nonzero, "beta": lambda q, p: (ZERO, -(q * q).inv())},
    matrices=_build_g3a,
    expected_detq=lambda q, p: _E4 + _u(2, 2).scale(q * q * p["beta"]),
    expected_dim_r=7,
    expected_r_basis=_r_g3a,
    expected_inv_basis=(_E4, _u(2, 2)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E22,),
    connected_to="S3",
))

_register(TableEntry(
    entry_id="G3b",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_g3b,
    expected_detq=lambda q, p: _E4 + _u(1, 2),
    expected_dim_r=7,
    expected_r_basis=_r_g3b,
    expected_inv_basis=(_E4, _u(1, 2)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E12,),
    connected_to="S3",
))

_register(TableEntry(
    entry_id="S4a",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_s4a,
    expected_detq=_det_one,
    expected_dim_r=10,
    expected_r_basis=_r_s4a,
    expected_inv_basis=(_E4,),
    invariant_type="C",
    gamma_invariants=(),
))

_register(TableEntry(
    entry_id="S4b",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_s4b,
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=_r_s4b,
    expected_inv_basis=(_E4, _u(4, 4)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E44,),
    canonical_dets=lambda q, p: (_E4 + _u(4, 4).scale(4),),
))

_register(TableEntry(
    entry_id="G4b",
    params=("alpha", "beta"),
    exclusions={"alpha": _nonzero, "beta": lambda q, p: (ZERO, -ONE)},
    matrices=_build_g4b,
    expected_detq=lambda q, p: _E4 + _u(4, 4).scale(p["beta"]),
    expected_dim_r=7,
    expected_r_basis=_r_s4b,
    expected_inv_basis=(_E4, _u(4, 4)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E44,),
    connected_to="S4b",
))

_register(TableEntry(
    entry_id="S5",
    params=("alpha", "beta"),
    exclusions={"alpha": _s5_alpha_excluded, "beta": _nonzero},
    matrices=_build_s5,
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=_r_s5,
    expected_inv_basis=(_E4, _u(1, 1)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E11,),
    canonical_dets=lambda q, p: (_E4 + _u(1, 1).scale(4),),
))

_register(TableEntry(
    entry_id="G5",
    params=("alpha", "beta", "gamma"),
    exclusions={
        "alpha": _s5_alpha_excluded,
        "beta": _nonzero,
        "gamma": lambda q, p: (ZERO, -p["alpha"].inv()),
    },
    matrices=_build_g5,
    expected_detq=lambda q, p: _E4 + _u(1, 1).scale(p["alpha"] * p["gamma"]),
    expected_dim_r=7,
    expected_r_basis=_r_s5,
    expected_inv_basis=(_E4, _u(1, 1)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E11,),
    connected_to="S5",
))

_register(TableEntry(
    entry_id="S6",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_s6,
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=_r_s6,
    expected_inv_basis=(_E4, _u(1, 2)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E12,),
    canonical_dets=lambda q, p: (_E4 + _u(1, 2).scale(5),),
))

_register(TableEntry(
    entry_id="G6",
    params=("alpha", "xi"),
    exclusions={"alpha": _nonzero, "xi": _nonzero},
    matrices=_build_g6,
    expected_detq=lambda q, p: _E4 + _u(1, 2).scale(q * q * p["xi"]),
    expected_dim_r=7,
    expected_r_basis=_r_s6,
    expected_inv_basis=(_E4, _u(1, 2)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E12,),
    connected_to="S6",
))

_register(TableEntry(
    entry_id="S7",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    matrices=_build_s7,
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=_r_s7,
    expected_inv_basis=(_E4, _u(3, 4)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E34,),
    canonical_dets=lambda q, p: (_E4 + _u(3, 4).scale(5),),
))

_register(TableEntry(
    entry_id="G7",
    params=("alpha", "xi"),
    exclusions={"alpha": _nonzero, "xi": _nonzero},
    matrices=_build_g7,
    expected_detq=lambda q, p: _E4 + _u(3, 4).scale(p["xi"]),
    expected_dim_r=7,
    expected_r_basis=_r_s7,
    expected_inv_basis=(_E4, _u(3, 4)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E34,),
    connected_to="S7",
))

ENTRY_ORDER = (
    "S1", "G1a", "G1b",
    "S2a", "S2a'", "S2b", "S2b'", "G2b'",
    "S3", "G3a", "G3b",
    "S4a", "S4b", "G4b",
    "S5", "G5",
    "S6", "G6",
    "S7", "G7",
)

_ALIASES = {
    "S2a′": "S2a'", "S2b′": "S2b'", "G2b′": "G2b'",
    "S2ap": "S2a'", "S2bp": "S2b'", "G2bp": "G2b'",
    "G2": "G2b'",
}

DEFAULT_POLICY = {"alpha": 3, "beta": 5, "gamma": 7, "xi": 5}


def get_entry(entry_id: str) -> TableEntry:
    key = _ALIASES.get(entry_id, entry_id)
    try:
        return ENTRIES[key]
    except KeyError:
        raise UnknownEntry(entry_id) from None


def resolve_params(
    entry: TableEntry,
    q: DeformationParameter,
    overrides: Optional[Mapping[str, object]] = None,
    policy: Optional[Mapping[str, object]] = None,
) -> dict[str, Scalar]:
    """A full, constraint-checked parameter assignment for an entry.

    Explicit overrides are validated and never altered; missing parameters
    take the policy value, falling back deterministically to the smallest
    admissible integer >= 2 when the policy value is excluded (this happens,
    for instance, to alpha = 3 of S5 at q = 3).
    """
    overrides = {k: as_scalar(v) for k, v in (overrides or {}).items()}
    unknown = sorted(set(overrides) - set(entry.params))
    if unknown:
        raise ConstraintViolated(unknown[0], overrides[unknown[0]], f"not a parameter of {entry.entry_id}")
    merged = dict(DEFAULT_POLICY)
    merged.update(policy or {})
    params: dict[str, Scalar] = {}
    for name in entry.params:
        excluded = set(entry.exclusions[name](q.q, params)) if name in entry.exclusions else set()
        if name in overrides:
            value = overrides[name]
            if value in excluded:
                raise ConstraintViolated(name, format_scalar(value), "excluded value for this entry")
        else:
            value = as_scalar(merged.get(name, 2))
            if value in excluded:
                candidate = 2
                while as_scalar(candidate) in excluded:
                    candidate += 1
                value = as_scalar(candidate)
        params[name] = value
    return params


def instantiate(
    entry_id: str,
    q: DeformationParameter,
    params: Optional[Mapping[str, object]] = None,
    policy: Optional[Mapping[str, object]] = None,
) -> GLqRep:
    """Concrete representation for a table entry; relations are verified."""
    entry = get_entry(entry_id)
    p = resolve_params(entry, q, params, policy)
    mats = entry.matrices(q.q, p)
    return require_representation(GLqRep(*mats, q=q))


def connected_s_entry(entry_id: str) -> Optional[str]:
    return get_entry(entry_id).connected_to


@dataclass(frozen=True)
class EntryCheck:
    """One entry's battery: its parameters, representation and report.

    invariants and detq are the centralizer and quantum determinant the
    battery computed; both are None when the relations already fail.
    """

    entry_id: str
    params: dict[str, Scalar]
    rep: GLqRep
    report: Report
    invariants: Optional[Subspace] = None
    detq: Optional[Mat] = None

    def to_json(self) -> dict:
        return {
            "entry": self.entry_id,
            "q": self.rep.q.q.to_json(),
            "params": {name: value.to_json() for name, value in self.params.items()},
            **self.report.to_json(),
        }


def check_entry(
    entry_id: str,
    q: DeformationParameter,
    params: Optional[Mapping[str, object]] = None,
    policy: Optional[Mapping[str, object]] = None,
) -> EntryCheck:
    """Run the full battery of checks for one table entry, keeping its facts."""
    entry = get_entry(entry_id)
    p = resolve_params(entry, q, params, policy)
    rep = GLqRep(*entry.matrices(q.q, p), q=q)
    report = Report(entry.entry_id)

    relations = verify_glq_relations(rep)
    report.add("relations", relations.ok, _first_bad(relations))
    if not relations.ok:
        return EntryCheck(entry.entry_id, p, rep, report)

    detq = quantum_determinant(rep)
    report.add("quantum_determinant", detq == entry.expected_detq(q.q, p))

    algebra = operator_algebra(rep)
    report.add(
        "operator_algebra_dim",
        algebra.dim == entry.expected_dim_r,
        f"dim {algebra.dim}, expected {entry.expected_dim_r}",
    )
    expected_r = Subspace.span_of(entry.expected_r_basis(q.q, p))
    report.add("operator_algebra_shape", algebra == expected_r)

    action = build_action(rep, verify=False)
    op_rel = operator_relation_report(action)
    report.add("action_operator_relations", op_rel.ok, _first_bad(op_rel))

    cent = centralizer(list(rep.matrices()))
    fixed = action_fixed_points(action)
    report.add("invariants_two_ways", cent == fixed)

    expected_inv = Subspace.span_of(list(entry.expected_inv_basis))
    report.add(
        "invariant_dim",
        cent.dim == INVARIANT_DIMS[entry.invariant_type],
        f"dim {cent.dim}, type {entry.invariant_type}",
    )
    report.add("invariant_subspace", cent == expected_inv)
    report.add("detq_is_invariant", cent.contains_matrix(detq))

    model = default_model()
    evaluated = [eval_gamma_expr(parse_gamma_expr(text), model) for text in entry.gamma_invariants]
    inside = all(cent.contains_matrix(m) for m in evaluated)
    spanned = Subspace.span_of([_E4] + evaluated) == cent
    report.add("gamma_invariants", inside and spanned, f"{len(evaluated)} expressions")

    antipode = antipode_check(rep)
    report.add("antipode", antipode.ok, _first_bad(antipode))

    module = verify_module_algebra(action)
    report.add("module_algebra", module.ok, _first_bad(module))

    return EntryCheck(entry.entry_id, p, rep, report, cent, detq)


def verify_entry(
    entry_id: str,
    q: DeformationParameter,
    params: Optional[Mapping[str, object]] = None,
    policy: Optional[Mapping[str, object]] = None,
) -> Report:
    """Run the full battery of checks for one table entry."""
    return check_entry(entry_id, q, params, policy).report


def _first_bad(report: Report) -> str:
    bad = report.first_failure
    return "" if bad is None else bad.name


def instantiate_all(
    q: DeformationParameter, policy: Optional[Mapping[str, object]] = None
) -> dict[str, GLqRep]:
    return {eid: instantiate(eid, q, policy=policy) for eid in ENTRY_ORDER}


def verify_distinctness(reps: Mapping[str, GLqRep]) -> Report:
    """Pairwise non-equivalence of the given entries, plus self-witnesses."""
    ids = list(reps)
    report = Report("distinctness")
    for i, e1 in enumerate(ids):
        for e2 in ids[i:]:
            verdict = decide_equivalence(reps[e1], reps[e2])
            if e1 == e2:
                report.add(f"{e1} ~ {e1}", verdict.equivalent, "self-equivalence witness")
            else:
                detail = (
                    f"candidates tried: {verdict.candidates_tried}"
                    if not verdict.equivalent
                    else "unexpected witness"
                )
                report.add(f"{e1} vs {e2}", not verdict.equivalent, detail)
    return report


def verify_determinant_invariants(checks: Iterable[EntryCheck]) -> Report:
    """Every checked G entry's invariant algebra equals span{1, det_q}."""
    report = Report("determinant_invariants")
    for check in checks:
        if not check.entry_id.startswith("G"):
            continue
        if check.invariants is None:
            report.add(check.entry_id, False, "relations fail")
            continue
        expected = Subspace.span_of([_E4, check.detq])
        report.add(check.entry_id, check.invariants == expected, f"dim {check.invariants.dim}")
    return report


@dataclass(frozen=True)
class TableCheck:
    """The battery of every entry, pairwise distinctness, and the G-entry invariants."""

    q: DeformationParameter
    entries: tuple[EntryCheck, ...]
    distinctness: Report
    determinant_invariants: Report

    @property
    def ok(self) -> bool:
        return all(e.report.ok for e in self.entries) and self.distinctness.ok and self.determinant_invariants.ok

    def to_json(self) -> dict:
        return {
            "q": self.q.q.to_json(),
            "entries": [e.to_json() for e in self.entries],
            "distinctness": self.distinctness.to_json(),
            "determinant_invariants": self.determinant_invariants.to_json(),
            "ok": self.ok,
        }


def verify_table(q: DeformationParameter, policy: Optional[Mapping[str, object]] = None) -> TableCheck:
    """The whole table in one pass: each entry is resolved, built and checked once.

    Distinctness and the determinant invariants reuse the representations,
    centralizers and quantum determinants that the battery computed.
    """
    entries = tuple(check_entry(eid, q, policy=policy) for eid in ENTRY_ORDER)
    distinctness = verify_distinctness({e.entry_id: e.rep for e in entries})
    return TableCheck(q, entries, distinctness, verify_determinant_invariants(entries))


def canonical_determinants(
    entry_id: str,
    q: DeformationParameter,
    params: Optional[Mapping[str, object]] = None,
) -> tuple[Mat, ...]:
    """Sample canonical determinant choices for an S entry's invariant type.

    One representative per projective class shape: a diagonal choice for the
    two-diagonal types and the unipotent choice where the invariants contain
    a nilpotent part.  Empty for entries with scalar invariants only.
    """
    entry = get_entry(entry_id)
    p = resolve_params(entry, q, params)
    return entry.canonical_dets(q.q, p)
