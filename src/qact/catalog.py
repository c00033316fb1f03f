"""The classification table of inner actions, as executable data.

Twenty entries on the seven canonical q-spinor forms of qspinor.form_a,
which give every A11: eleven determinant-one entries (S...), four of them
on form 2, two on form 4 and one on each other form, and nine companions
with a nontrivial quantum determinant (G...).  An S entry names its form
and gives A12, A21 and A22 - A11^-1; a G entry is its connected S entry
plus one increment of A22, and declares only the parameter the increment
adds, if any.  Only form 5 (S5, G5) lets a parameter into A11.  Every entry
carries its parameter exclusions and states its expected operator algebra,
invariant algebra, gamma-form invariants, and quantum determinant, so a
single check_entry call replays the whole battery of checks.

The G3b and G6 increments are the unique ones consistent with their
determinant column through the reconstruction identity
A22 = A22' + A11^-1 (D - 1): G3b adds q^-2 e12 to A22 (det_q = 1 + e12)
and G6 adds xi e12 (det_q = 1 + q^2 xi e12).  attach_determinant
cross-checks both reconstructions in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Optional

from .action import (
    InnerAction,
    action_fixed_points,
    decide_equivalence,
    operator_algebra,
    operator_relation_report,
    spectral_data,
    verify_module_algebra,
)
from .clifford import default_model, eval_gamma_expr
from .linalg import Mat, Subspace, centralizer, mat_inverse
from .qrep import (
    GLqRep,
    antipode,
    antipode_check,
    quantum_determinant,
    require_representation,
    verify_glq_relations,
)
from .qspinor import form5_excluded, form_a
from .report import Report
from .scalars import ONE, ZERO, DeformationParameter, Scalar, as_scalar, format_scalar, smallest_admissible


class ConstraintViolated(ValueError):
    def __init__(self, param: str, value, reason: str):
        super().__init__(f"parameter {param} = {value}: {reason}")
        self.param = param
        self.value = value


class UnknownEntry(KeyError):
    def __str__(self):
        return f"unknown table entry {self.args[0]!r}"


_E4 = Mat.identity(4)
_UNITS = {(i, j): Mat.unit(4, i, j) for i in range(1, 5) for j in range(1, 5)}


def _u(i: int, j: int) -> Mat:
    return _UNITS[(i, j)]


Params = Mapping[str, Scalar]

INVARIANT_DIMS = {"T2": 3, "C+C": 2, "T2'": 2, "C": 1}


@dataclass(frozen=True)
class TableEntry:
    """One entry of the table: how to build its representation, and what it claims.

    An S entry names the canonical q-spinor form of its A11 (qspinor.form_a;
    form 5's free diagonal entry is the entry's alpha) and gives its other
    blocks as A12, A21 and A22 - A11^-1.  A G entry is its connected_to S
    entry with one increment added to A22; it declares only the parameter
    and exclusion it adds, and _register puts the S entry's first.
    The claimed determinant, operator algebra, invariants and gamma-form
    invariants are stated for every entry, never derived from its blocks.
    """

    entry_id: str
    expected_detq: Callable[[Scalar, Params], Mat]
    expected_dim_r: int
    # A tuple, or a function of (q, params) for the one basis that reads alpha (S2a').
    expected_r_basis: tuple[Mat, ...] | Callable[[Scalar, Params], tuple[Mat, ...]]
    expected_inv_basis: tuple[Mat, ...]
    invariant_type: str
    gamma_invariants: tuple[str, ...]
    params: tuple[str, ...] = ()
    exclusions: Mapping[str, Callable[[Scalar, Params], tuple[Scalar, ...]]] = field(default_factory=dict)
    form: Optional[int] = None
    blocks: Optional[Callable[[Scalar, Params], tuple[Mat, Mat, Mat]]] = None
    connected_to: Optional[str] = None
    a22_increment: Optional[Callable[[Scalar, Params], Mat]] = None
    # S entries: sample canonical determinants, one per projective class shape
    # of the invariants (a diagonal choice, and the unipotent one where they
    # have a nilpotent part); empty where the invariants are the scalars.
    canonical_dets: tuple[Mat, ...] = ()

    def representation(self, q: DeformationParameter, params: Params) -> GLqRep:
        """The entry's matrices at resolved parameters; relations are not checked."""
        if self.connected_to is not None:
            s = ENTRIES[self.connected_to].representation(q, params)
            return GLqRep(s.a11, s.a12, s.a21, s.a22 + self.a22_increment(q.q, params), q)
        a11 = form_a(self.form, q.q, params.get("alpha"))
        a12, a21, a22_rest = self.blocks(q.q, params)
        return GLqRep(a11, a12, a21, mat_inverse(a11) + a22_rest, q)


def _nonzero(q: Scalar, p: Params) -> tuple[Scalar, ...]:
    return (ZERO,)


def _det_one(q: Scalar, p: Params) -> Mat:
    return _E4


def _a21_scaled(a12: Mat, s: Scalar, a22_rest: Mat) -> tuple[Mat, Mat, Mat]:
    """The blocks of an S entry whose A21 is s A12."""
    return a12, a12.scale(s), a22_rest


def _s2a_blocks(q: Scalar, alpha: Scalar, beta: Scalar) -> tuple[Mat, Mat, Mat]:
    a12 = _u(1, 2).scale(alpha) + _u(1, 3) + _u(2, 4)
    return a12, _u(1, 2) + _u(1, 3).scale(beta) + _u(3, 4), _u(1, 4).scale(q.inv())


def _s2b_blocks(q: Scalar, p: Params) -> tuple[Mat, Mat, Mat]:
    a12 = _u(1, 2) + _u(2, 4)
    return a12, a12.scale(p["alpha"]) + _u(1, 3), _u(1, 4).scale(p["alpha"] / q)


_GAMMA_E44 = "(1-g0)*(1-i*g12)"
_GAMMA_E43 = "(1-g0)*(-g1+i*g2)*g3"
_GAMMA_E33 = "(1-g0)*(1+i*g12)"
_GAMMA_E22 = "(1+g0)*(1-i*g12)"
_GAMMA_E12 = "(1+g0)*(g1+i*g2)*g3"
_GAMMA_E11 = "(1+g0)*(1+i*g12)"
_GAMMA_E34 = "(1-g0)*(g1+i*g2)*g3"

ENTRIES: dict[str, TableEntry] = {}


def _register(entry: TableEntry):
    if entry.connected_to is not None:
        base = ENTRIES[entry.connected_to]
        entry = replace(entry, params=base.params + entry.params, exclusions={**base.exclusions, **entry.exclusions})
    ENTRIES[entry.entry_id] = entry


# -- form 1, A11 = diag(q^2, q, 1, 1): S1, G1a, G1b -----------------------------

_register(TableEntry(
    entry_id="S1",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    form=1,
    blocks=lambda q, p: _a21_scaled(_u(1, 2) + _u(2, 3), p["alpha"], _u(1, 3).scale(p["alpha"] / q)),
    expected_detq=_det_one,
    expected_dim_r=6,
    expected_r_basis=(_u(1, 1), _u(1, 2), _u(1, 3), _u(2, 2), _u(2, 3), _u(3, 3) + _u(4, 4)),
    expected_inv_basis=(_E4, _u(4, 4), _u(4, 3)),
    invariant_type="T2",
    gamma_invariants=(_GAMMA_E43, _GAMMA_E44),
    canonical_dets=(_E4 + _u(4, 4).scale(4), _E4 + _u(4, 3)),
))

_register(TableEntry(
    entry_id="G1a",
    params=("beta",),
    exclusions={"beta": lambda q, p: (ZERO, -ONE)},
    connected_to="S1",
    a22_increment=lambda q, p: _u(4, 4).scale(p["beta"]),
    expected_detq=lambda q, p: _E4 + _u(4, 4).scale(p["beta"]),
    expected_dim_r=7,
    expected_r_basis=(_u(1, 1), _u(1, 2), _u(1, 3), _u(2, 2), _u(2, 3), _u(3, 3), _u(4, 4)),
    expected_inv_basis=(_E4, _u(4, 4)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E44,),
))

_register(TableEntry(
    entry_id="G1b",
    connected_to="S1",
    a22_increment=lambda q, p: _u(4, 3),
    expected_detq=lambda q, p: _E4 + _u(4, 3),
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S1"].expected_r_basis + (_u(4, 3),),
    expected_inv_basis=(_E4, _u(4, 3)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E43,),
))

# -- form 2, A11 = diag(q^2, q, q, 1): S2a, S2a', S2b, S2b', G2b' ---------------

_register(TableEntry(
    entry_id="S2a",
    params=("alpha", "beta"),
    exclusions={"beta": lambda q, p: (p["alpha"].inv(),) if p["alpha"] else ()},
    form=2,
    blocks=lambda q, p: _s2a_blocks(q, p["alpha"], p["beta"]),
    expected_detq=_det_one,
    expected_dim_r=8,
    expected_r_basis=(_u(1, 1), _u(1, 2), _u(1, 3), _u(1, 4), _u(2, 2) + _u(3, 3), _u(2, 4), _u(3, 4), _u(4, 4)),
    expected_inv_basis=(_E4,),
    invariant_type="C",
    gamma_invariants=(),
))

_register(TableEntry(
    entry_id="S2a'",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    form=2,
    blocks=lambda q, p: _s2a_blocks(q, p["alpha"], p["alpha"].inv()),
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=lambda q, p: (_u(1, 1), _u(1, 2).scale(p["alpha"]) + _u(1, 3), _u(1, 4),
                                   _u(2, 2) + _u(3, 3), _u(2, 4), _u(3, 4), _u(4, 4)),
    expected_inv_basis=(_E4,),
    invariant_type="C",
    gamma_invariants=(),
))

_register(TableEntry(
    entry_id="S2b",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    form=2,
    blocks=_s2b_blocks,
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=(_u(1, 1), _u(1, 2), _u(1, 3), _u(1, 4), _u(2, 2) + _u(3, 3), _u(2, 4), _u(4, 4)),
    expected_inv_basis=(_E4,),
    invariant_type="C",
    gamma_invariants=(),
))

_register(TableEntry(
    entry_id="S2b'",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    form=2,
    blocks=lambda q, p: _a21_scaled(_u(1, 2) + _u(2, 4), p["alpha"], _u(1, 4).scale(p["alpha"] / q)),
    expected_detq=_det_one,
    expected_dim_r=6,
    expected_r_basis=(_u(1, 1), _u(1, 2), _u(1, 4), _u(2, 2) + _u(3, 3), _u(2, 4), _u(4, 4)),
    expected_inv_basis=(_E4, _u(3, 3)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E33,),
    canonical_dets=(_E4 + _u(3, 3).scale(4),),
))

_register(TableEntry(
    entry_id="G2b'",
    params=("beta",),
    exclusions={"beta": lambda q, p: (ZERO, -q.inv())},
    connected_to="S2b'",
    a22_increment=lambda q, p: _u(3, 3).scale(p["beta"]),
    expected_detq=lambda q, p: _E4 + _u(3, 3).scale(q * p["beta"]),
    expected_dim_r=7,
    expected_r_basis=(_u(1, 1), _u(1, 2), _u(1, 4), _u(2, 2), _u(3, 3), _u(2, 4), _u(4, 4)),
    expected_inv_basis=(_E4, _u(3, 3)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E33,),
))

# -- form 3, A11 = diag(q^2, q^2, q, 1): S3, G3a, G3b ---------------------------

_register(TableEntry(
    entry_id="S3",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    form=3,
    blocks=lambda q, p: _a21_scaled(_u(1, 3) + _u(3, 4), p["alpha"], _u(1, 4).scale(p["alpha"] / q)),
    expected_detq=_det_one,
    expected_dim_r=6,
    expected_r_basis=(_u(1, 1) + _u(2, 2), _u(1, 3), _u(1, 4), _u(3, 3), _u(3, 4), _u(4, 4)),
    expected_inv_basis=(_E4, _u(2, 2), _u(1, 2)),
    invariant_type="T2",
    gamma_invariants=(_GAMMA_E22, _GAMMA_E12),
    canonical_dets=(_E4 + _u(2, 2).scale(4), _E4 + _u(1, 2)),
))

_register(TableEntry(
    entry_id="G3a",
    params=("beta",),
    exclusions={"beta": lambda q, p: (ZERO, -(q * q).inv())},
    connected_to="S3",
    a22_increment=lambda q, p: _u(2, 2).scale(p["beta"]),
    expected_detq=lambda q, p: _E4 + _u(2, 2).scale(q * q * p["beta"]),
    expected_dim_r=7,
    expected_r_basis=(_u(1, 1), _u(2, 2), _u(1, 3), _u(1, 4), _u(3, 3), _u(3, 4), _u(4, 4)),
    expected_inv_basis=(_E4, _u(2, 2)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E22,),
))

_register(TableEntry(
    entry_id="G3b",
    connected_to="S3",
    # The determinant column 1 + e12 forces the increment q^-2 e12 through
    # A22 = A22' + A11^-1 (D - 1).
    a22_increment=lambda q, p: _u(1, 2).scale((q * q).inv()),
    expected_detq=lambda q, p: _E4 + _u(1, 2),
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S3"].expected_r_basis + (_u(1, 2),),
    expected_inv_basis=(_E4, _u(1, 2)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E12,),
))

# -- form 4, A11 = diag(q^3, q^2, q, 1): S4a, S4b, G4b --------------------------

_register(TableEntry(
    entry_id="S4a",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    form=4,
    blocks=lambda q, p: _a21_scaled(_u(1, 2) + _u(2, 3) + _u(3, 4), p["alpha"],
                                    _u(1, 3).scale(p["alpha"] / (q * q)) + _u(2, 4).scale(p["alpha"] / q)),
    expected_detq=_det_one,
    expected_dim_r=10,
    # The full upper-triangular algebra.
    expected_r_basis=tuple(_u(i, j) for i in range(1, 5) for j in range(i, 5)),
    expected_inv_basis=(_E4,),
    invariant_type="C",
    gamma_invariants=(),
))

_register(TableEntry(
    entry_id="S4b",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    form=4,
    blocks=lambda q, p: _a21_scaled(_u(1, 2) + _u(2, 3), p["alpha"], _u(1, 3).scale(p["alpha"] / (q * q))),
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=(_u(1, 1), _u(2, 2), _u(3, 3), _u(4, 4), _u(1, 2), _u(2, 3), _u(1, 3)),
    expected_inv_basis=(_E4, _u(4, 4)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E44,),
    canonical_dets=(_E4 + _u(4, 4).scale(4),),
))

_register(TableEntry(
    entry_id="G4b",
    params=("beta",),
    exclusions={"beta": lambda q, p: (ZERO, -ONE)},
    connected_to="S4b",
    a22_increment=lambda q, p: _u(4, 4).scale(p["beta"]),
    expected_detq=lambda q, p: _E4 + _u(4, 4).scale(p["beta"]),
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S4b"].expected_r_basis,
    expected_inv_basis=(_E4, _u(4, 4)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E44,),
))

# -- form 5, A11 = diag(alpha, q^2, q, 1): S5, G5 ------------------------------

_register(TableEntry(
    entry_id="S5",
    params=("alpha", "beta"),
    exclusions={"alpha": lambda q, p: form5_excluded(q), "beta": _nonzero},
    form=5,
    blocks=lambda q, p: _a21_scaled(_u(2, 3) + _u(3, 4), p["beta"], _u(2, 4).scale(p["beta"] / q)),
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=(_u(1, 1), _u(2, 2), _u(3, 3), _u(4, 4), _u(2, 3), _u(3, 4), _u(2, 4)),
    expected_inv_basis=(_E4, _u(1, 1)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E11,),
    canonical_dets=(_E4 + _u(1, 1).scale(4),),
))

_register(TableEntry(
    entry_id="G5",
    params=("gamma",),
    exclusions={"gamma": lambda q, p: (ZERO, -p["alpha"].inv())},
    connected_to="S5",
    a22_increment=lambda q, p: _u(1, 1).scale(p["gamma"]),
    expected_detq=lambda q, p: _E4 + _u(1, 1).scale(p["alpha"] * p["gamma"]),
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S5"].expected_r_basis,
    expected_inv_basis=(_E4, _u(1, 1)),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E11,),
))

# -- form 6, A11 = diag(q^2, q^2, q, 1) + e12: S6, G6 --------------------------

_register(TableEntry(
    entry_id="S6",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    form=6,
    blocks=ENTRIES["S3"].blocks,
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=(_u(1, 1) + _u(2, 2), _u(1, 2), _u(1, 3), _u(1, 4), _u(3, 3), _u(3, 4), _u(4, 4)),
    expected_inv_basis=(_E4, _u(1, 2)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E12,),
    canonical_dets=(_E4 + _u(1, 2).scale(5),),
))

_register(TableEntry(
    entry_id="G6",
    params=("xi",),
    exclusions={"xi": _nonzero},
    connected_to="S6",
    # det_q = 1 + q^2 xi e12 forces the increment xi e12, i.e. the (1, 2)
    # entry of A22 is xi - q^-4.
    a22_increment=lambda q, p: _u(1, 2).scale(p["xi"]),
    expected_detq=lambda q, p: _E4 + _u(1, 2).scale(q * q * p["xi"]),
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S6"].expected_r_basis,
    expected_inv_basis=(_E4, _u(1, 2)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E12,),
))

# -- form 7, A11 = diag(q^2, q, 1, 1) + e34: S7, G7 ----------------------------

_register(TableEntry(
    entry_id="S7",
    params=("alpha",),
    exclusions={"alpha": _nonzero},
    form=7,
    blocks=lambda q, p: _a21_scaled(_u(1, 2) + _u(2, 4), p["alpha"], _u(1, 4).scale(p["alpha"] / q)),
    expected_detq=_det_one,
    expected_dim_r=7,
    expected_r_basis=(_u(1, 1), _u(1, 2), _u(1, 4), _u(2, 2), _u(2, 4), _u(3, 3) + _u(4, 4), _u(3, 4)),
    expected_inv_basis=(_E4, _u(3, 4)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E34,),
    canonical_dets=(_E4 + _u(3, 4).scale(5),),
))

_register(TableEntry(
    entry_id="G7",
    params=("xi",),
    exclusions={"xi": _nonzero},
    connected_to="S7",
    a22_increment=lambda q, p: _u(3, 4).scale(p["xi"]),
    expected_detq=lambda q, p: _E4 + _u(3, 4).scale(p["xi"]),
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S7"].expected_r_basis,
    expected_inv_basis=(_E4, _u(3, 4)),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E34,),
))

ENTRY_ORDER = tuple(ENTRIES)

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
                value = smallest_admissible(excluded)
        params[name] = value
    return params


def instantiate(
    entry_id: str,
    q: DeformationParameter,
    params: Optional[Mapping[str, object]] = None,
) -> GLqRep:
    """Concrete representation for a table entry; relations are verified."""
    entry = get_entry(entry_id)
    return require_representation(entry.representation(q, resolve_params(entry, q, params)))


@dataclass(frozen=True)
class EntryCheck:
    """One entry's battery: its parameters, representation and report.

    invariants and detq are the centralizer and quantum determinant the
    battery computed; both are None when the relations already fail.  The
    centralizer is checked against the action's fixed points and the
    stated invariants, and verify_distinctness reads it as the entry's
    self-intertwiner space.
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
    rep = entry.representation(q, p)
    report = Report()

    relations = verify_glq_relations(rep)
    report.add("relations", relations.ok, _first_bad(relations))
    if not relations.ok:
        return EntryCheck(entry.entry_id, p, rep, report)

    detq = quantum_determinant(rep)
    want_detq = entry.expected_detq(q.q, p)
    ok = detq == want_detq
    report.add("quantum_determinant", ok, "" if ok else f"det_q = {detq!r}, expected {want_detq!r}")

    algebra = operator_algebra(rep)
    report.add(
        "operator_algebra_dim",
        algebra.dim == entry.expected_dim_r,
        f"dim {algebra.dim}, expected {entry.expected_dim_r}",
    )
    r_basis = entry.expected_r_basis
    expected_r = Subspace.span_of(r_basis(q.q, p) if callable(r_basis) else r_basis)
    ok = algebra == expected_r
    report.add("operator_algebra_shape", ok, "" if ok else f"dim {algebra.dim}, expected span of dim {expected_r.dim}")

    action = InnerAction(rep, antipode(rep, detq))
    op_rel = operator_relation_report(action)
    report.add("action_operator_relations", op_rel.ok, _first_bad(op_rel))

    cent = centralizer(list(rep.matrices()))
    fixed = action_fixed_points(action)
    ok = cent == fixed
    report.add("invariants_two_ways", ok, "" if ok else f"centralizer dim {cent.dim}, fixed points dim {fixed.dim}")

    expected_inv = Subspace.span_of(list(entry.expected_inv_basis))
    report.add(
        "invariant_dim",
        cent.dim == INVARIANT_DIMS[entry.invariant_type],
        f"dim {cent.dim}, type {entry.invariant_type}",
    )
    ok = cent == expected_inv
    report.add("invariant_subspace", ok, "" if ok else f"dim {cent.dim}, expected span of dim {expected_inv.dim}")
    ok = cent.contains_matrix(detq)
    report.add("detq_is_invariant", ok, "" if ok else f"det_q = {detq!r} is not invariant")

    atoms = default_model().atoms
    evaluated = [eval_gamma_expr(text, atoms) for text in entry.gamma_invariants]
    inside = all(cent.contains_matrix(m) for m in evaluated)
    spanned = Subspace.span_of([_E4] + evaluated) == cent
    report.add("gamma_invariants", inside and spanned, f"{len(evaluated)} expressions")

    counit = antipode_check(rep, action.starred)
    report.add("antipode", counit.ok, _first_bad(counit))

    module = verify_module_algebra(counit)
    report.add("module_algebra", module.ok, _first_bad(module))

    return EntryCheck(entry.entry_id, p, rep, report, cent, detq)


def _first_bad(report: Report) -> str:
    bad = report.first_failure
    return "" if bad is None else bad.name


def verify_distinctness(
    reps: Mapping[str, GLqRep], centralizers: Optional[Mapping[str, Optional[Subspace]]] = None
) -> Report:
    """Pairwise non-equivalence of the given entries, plus self-witnesses; spectral data once per entry.

    centralizers maps an entry to the centralizer its battery computed and
    cross-checked (EntryCheck.invariants); a self pair reads it as its
    intertwiner space under the scales (1, 1) rather than solve it again.
    An entry that has none, or None, is decided from its matrices alone.
    """
    ids = list(reps)
    spectra = {e: spectral_data(rep) for e, rep in reps.items()}
    centralizers = centralizers or {}
    report = Report()
    for i, e1 in enumerate(ids):
        for e2 in ids[i:]:
            given = centralizers.get(e1) if e1 == e2 else None
            verdict = decide_equivalence(reps[e1], reps[e2], (spectra[e1], spectra[e2]), given)
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
    report = Report()
    for check in checks:
        if ENTRIES[check.entry_id].connected_to is None:
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
    centralizers and quantum determinants that the battery computed: each
    self pair's intertwiner space under the scales (1, 1) is its entry's
    centralizer, so it is not solved twice.  A policy value applies only to
    the entries that declare its name; a name that no entry declares raises
    ConstraintViolated.
    """
    declared = {name for entry in ENTRIES.values() for name in entry.params}
    unknown = sorted(set(policy or {}) - declared)
    if unknown:
        raise ConstraintViolated(unknown[0], as_scalar(policy[unknown[0]]), "not a parameter of any table entry")
    entries = tuple(check_entry(eid, q, policy=policy) for eid in ENTRY_ORDER)
    distinctness = verify_distinctness({e.entry_id: e.rep for e in entries},
                                       {e.entry_id: e.invariants for e in entries})
    return TableCheck(q, entries, distinctness, verify_determinant_invariants(entries))

