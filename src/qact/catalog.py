"""The classification table of inner actions, as text.

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

Every fact of an entry is a text, read by the one expression evaluator of
clifford (eval_expr and eval_gamma_expr).  A table text may name the matrix
units e11..e44, q and the entry's parameters (table_names); A21 may also
name A12.  A parameter's exclusion is a polynomial in q and the parameters
before it, which vanishes exactly at the values the parameter may not take.

The G3b and G6 increments are the unique ones consistent with their
determinant column through the reconstruction identity
A22 = A22' + A11^-1 (D - 1): G3b adds q^-2 e12 to A22 (det_q = 1 + e12)
and G6 adds xi e12 (det_q = 1 + q^2 xi e12).  attach_determinant
cross-checks both reconstructions in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .action import (
    InnerAction,
    NotEquivalent,
    _spectral_pin,
    action_fixed_points,
    decide_equivalence,
    operator_algebra,
    operator_relation_report,
    spectral_data,
    verify_module_algebra,
)
from .clifford import UNIT_NAMES, default_model, eval_expr, eval_gamma_expr
from .linalg import Kernels, Mat, Subspace, centralizer, mat_inverse
from .qrep import (
    GLqRep,
    antipode,
    antipode_check,
    quantum_determinant,
    require_representation,
    verify_glq_relations,
)
from .qspinor import FORM5_EXCLUSION, form_a
from .report import Report
from .scalars import DeformationParameter, Scalar, as_scalar, format_scalar, smallest_admissible


class ConstraintViolated(ValueError):
    def __init__(self, param: str, value, reason: str):
        super().__init__(f"parameter {param} = {value}: {reason}")


class UnknownEntry(KeyError):
    def __str__(self):
        return f"unknown table entry {self.args[0]!r}"


_E4 = Mat.identity(4)

Params = Mapping[str, Scalar]

INVARIANT_DIMS = {"T2": 3, "C+C": 2, "T2'": 2, "C": 1}


def table_names(q: Scalar, params: Params) -> dict[str, Scalar | Mat]:
    """The names a table text reads: the matrix units e11..e44, q and the entry's parameters."""
    return {**UNIT_NAMES, "q": q, **params}


class TableEntry:
    """One entry of the table: how to build its representation, and what it claims, all as text.

    An S entry names the canonical q-spinor form of its A11 (qspinor.form_a;
    form 5's free diagonal entry is the entry's alpha) and gives the texts
    of its other blocks as A12, A21 and A22 - A11^-1; the A21 text may name
    A12.  A G entry is its connected_to S entry with the a22_increment text
    added to A22; it declares only the parameter and exclusion it adds, and
    _register puts the S entry's first.  Each block, determinant and basis
    text names e11..e44, q and the entry's parameters (table_names) and
    evaluates to a matrix, a scalar standing for that multiple of 1; the
    gamma_invariants name the Clifford atoms g0..g3, g12 and i instead.
    exclusions maps a parameter to a polynomial in q and the parameters
    before it: a value is admissible where it is nonzero.  The claimed determinant, operator algebra,
    invariants and gamma-form invariants are stated for every entry, never
    derived from its blocks.
    """

    __slots__ = ("entry_id", "expected_detq", "expected_dim_r", "expected_r_basis", "expected_inv_basis",
                 "invariant_type", "gamma_invariants", "params", "exclusions", "form", "blocks", "connected_to",
                 "a22_increment", "canonical_dets")

    def __init__(self, entry_id: str, expected_detq: str, expected_dim_r: int, expected_r_basis: tuple[str, ...],
                 expected_inv_basis: tuple[str, ...], invariant_type: str, gamma_invariants: tuple[str, ...] = (),
                 params: tuple[str, ...] = (), exclusions: Mapping[str, str] | None = None, form: int | None = None,
                 blocks: tuple[str, ...] = (), connected_to: str | None = None, a22_increment: str | None = None,
                 canonical_dets: tuple[str, ...] = ()):
        self.entry_id, self.expected_detq, self.expected_dim_r = entry_id, expected_detq, expected_dim_r
        self.expected_r_basis, self.expected_inv_basis = expected_r_basis, expected_inv_basis
        self.invariant_type = invariant_type
        # Gamma expressions that span the invariants with 1; none where the
        # invariants are the scalars.
        self.gamma_invariants = gamma_invariants
        self.params, self.exclusions, self.form = params, {} if exclusions is None else exclusions, form
        # S entries: the texts of A12, A21 and A22 - A11^-1.
        self.blocks, self.connected_to, self.a22_increment = blocks, connected_to, a22_increment
        # S entries: sample canonical determinants, one per projective class shape
        # of the invariants (a diagonal choice, and the unipotent one where they
        # have a nilpotent part); empty where the invariants are the scalars.
        self.canonical_dets = canonical_dets

    def replace(self, **changes) -> TableEntry:
        """A copy with the given fields changed; TypeError for a name that is not a field."""
        return TableEntry(**{**{name: getattr(self, name) for name in self.__slots__}, **changes})

    def representation(self, q: DeformationParameter, params: Params) -> GLqRep:
        """The entry's matrices at resolved parameters; relations are not checked."""
        names = table_names(q.q, params)
        if self.connected_to is not None:
            s = ENTRIES[self.connected_to].representation(q, params)
            return GLqRep(s.a11, s.a12, s.a21, s.a22 + eval_gamma_expr(self.a22_increment, names), q)
        a11 = form_a(self.form, q.q, params.get("alpha"))
        a12, a21, a22_rest = self.blocks
        names["A12"] = a12 = eval_gamma_expr(a12, names)
        return GLqRep(a11, a12, eval_gamma_expr(a21, names), mat_inverse(a11) + eval_gamma_expr(a22_rest, names), q)


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
        entry = entry.replace(params=base.params + entry.params, exclusions={**base.exclusions, **entry.exclusions})
    ENTRIES[entry.entry_id] = entry


# -- form 1, A11 = diag(q^2, q, 1, 1): S1, G1a, G1b -----------------------------

_register(TableEntry(
    entry_id="S1",
    params=("alpha",),
    exclusions={"alpha": "alpha"},
    form=1,
    blocks=("e12 + e23", "alpha*A12", "alpha/q*e13"),
    expected_detq="1",
    expected_dim_r=6,
    expected_r_basis=("e11", "e12", "e13", "e22", "e23", "e33 + e44"),
    expected_inv_basis=("1", "e44", "e43"),
    invariant_type="T2",
    gamma_invariants=(_GAMMA_E43, _GAMMA_E44),
    canonical_dets=("1 + 4*e44", "1 + e43"),
))

_register(TableEntry(
    entry_id="G1a",
    params=("beta",),
    exclusions={"beta": "beta*(beta + 1)"},
    connected_to="S1",
    a22_increment="beta*e44",
    expected_detq="1 + beta*e44",
    expected_dim_r=7,
    expected_r_basis=("e11", "e12", "e13", "e22", "e23", "e33", "e44"),
    expected_inv_basis=("1", "e44"),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E44,),
))

_register(TableEntry(
    entry_id="G1b",
    connected_to="S1",
    a22_increment="e43",
    expected_detq="1 + e43",
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S1"].expected_r_basis + ("e43",),
    expected_inv_basis=("1", "e43"),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E43,),
))

# -- form 2, A11 = diag(q^2, q, q, 1): S2a, S2a', S2b, S2b', G2b' ---------------

_register(TableEntry(
    entry_id="S2a",
    params=("alpha", "beta"),
    # beta = 1/alpha is S2a'; at alpha = 0 no beta is excluded.
    exclusions={"beta": "alpha*beta - 1"},
    form=2,
    blocks=("alpha*e12 + e13 + e24", "e12 + beta*e13 + e34", "e14/q"),
    expected_detq="1",
    expected_dim_r=8,
    expected_r_basis=("e11", "e12", "e13", "e14", "e22 + e33", "e24", "e34", "e44"),
    expected_inv_basis=("1",),
    invariant_type="C",
))

_register(TableEntry(
    entry_id="S2a'",
    params=("alpha",),
    exclusions={"alpha": "alpha"},
    form=2,
    blocks=("alpha*e12 + e13 + e24", "e12 + e13/alpha + e34", "e14/q"),
    expected_detq="1",
    expected_dim_r=7,
    expected_r_basis=("e11", "alpha*e12 + e13", "e14", "e22 + e33", "e24", "e34", "e44"),
    expected_inv_basis=("1",),
    invariant_type="C",
))

_register(TableEntry(
    entry_id="S2b",
    params=("alpha",),
    exclusions={"alpha": "alpha"},
    form=2,
    blocks=("e12 + e24", "alpha*A12 + e13", "alpha/q*e14"),
    expected_detq="1",
    expected_dim_r=7,
    expected_r_basis=("e11", "e12", "e13", "e14", "e22 + e33", "e24", "e44"),
    expected_inv_basis=("1",),
    invariant_type="C",
))

_register(TableEntry(
    entry_id="S2b'",
    params=("alpha",),
    exclusions={"alpha": "alpha"},
    form=2,
    blocks=("e12 + e24", "alpha*A12", "alpha/q*e14"),
    expected_detq="1",
    expected_dim_r=6,
    expected_r_basis=("e11", "e12", "e14", "e22 + e33", "e24", "e44"),
    expected_inv_basis=("1", "e33"),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E33,),
    canonical_dets=("1 + 4*e33",),
))

_register(TableEntry(
    entry_id="G2b'",
    params=("beta",),
    exclusions={"beta": "beta*(q*beta + 1)"},
    connected_to="S2b'",
    a22_increment="beta*e33",
    expected_detq="1 + q*beta*e33",
    expected_dim_r=7,
    expected_r_basis=("e11", "e12", "e14", "e22", "e33", "e24", "e44"),
    expected_inv_basis=("1", "e33"),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E33,),
))

# -- form 3, A11 = diag(q^2, q^2, q, 1): S3, G3a, G3b ---------------------------

_register(TableEntry(
    entry_id="S3",
    params=("alpha",),
    exclusions={"alpha": "alpha"},
    form=3,
    blocks=("e13 + e34", "alpha*A12", "alpha/q*e14"),
    expected_detq="1",
    expected_dim_r=6,
    expected_r_basis=("e11 + e22", "e13", "e14", "e33", "e34", "e44"),
    expected_inv_basis=("1", "e22", "e12"),
    invariant_type="T2",
    gamma_invariants=(_GAMMA_E22, _GAMMA_E12),
    canonical_dets=("1 + 4*e22", "1 + e12"),
))

_register(TableEntry(
    entry_id="G3a",
    params=("beta",),
    exclusions={"beta": "beta*(q*q*beta + 1)"},
    connected_to="S3",
    a22_increment="beta*e22",
    expected_detq="1 + q*q*beta*e22",
    expected_dim_r=7,
    expected_r_basis=("e11", "e22", "e13", "e14", "e33", "e34", "e44"),
    expected_inv_basis=("1", "e22"),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E22,),
))

_register(TableEntry(
    entry_id="G3b",
    connected_to="S3",
    # The determinant column 1 + e12 forces the increment q^-2 e12 through
    # A22 = A22' + A11^-1 (D - 1).
    a22_increment="e12/(q*q)",
    expected_detq="1 + e12",
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S3"].expected_r_basis + ("e12",),
    expected_inv_basis=("1", "e12"),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E12,),
))

# -- form 4, A11 = diag(q^3, q^2, q, 1): S4a, S4b, G4b --------------------------

_register(TableEntry(
    entry_id="S4a",
    params=("alpha",),
    exclusions={"alpha": "alpha"},
    form=4,
    blocks=("e12 + e23 + e34", "alpha*A12", "alpha/(q*q)*e13 + alpha/q*e24"),
    expected_detq="1",
    expected_dim_r=10,
    # The full upper-triangular algebra.
    expected_r_basis=tuple(f"e{i}{j}" for i in range(1, 5) for j in range(i, 5)),
    expected_inv_basis=("1",),
    invariant_type="C",
))

_register(TableEntry(
    entry_id="S4b",
    params=("alpha",),
    exclusions={"alpha": "alpha"},
    form=4,
    blocks=("e12 + e23", "alpha*A12", "alpha/(q*q)*e13"),
    expected_detq="1",
    expected_dim_r=7,
    expected_r_basis=("e11", "e22", "e33", "e44", "e12", "e23", "e13"),
    expected_inv_basis=("1", "e44"),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E44,),
    canonical_dets=("1 + 4*e44",),
))

_register(TableEntry(
    entry_id="G4b",
    params=("beta",),
    exclusions={"beta": "beta*(beta + 1)"},
    connected_to="S4b",
    a22_increment="beta*e44",
    expected_detq="1 + beta*e44",
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S4b"].expected_r_basis,
    expected_inv_basis=("1", "e44"),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E44,),
))

# -- form 5, A11 = diag(alpha, q^2, q, 1): S5, G5 ------------------------------

_register(TableEntry(
    entry_id="S5",
    params=("alpha", "beta"),
    exclusions={"alpha": FORM5_EXCLUSION, "beta": "beta"},
    form=5,
    blocks=("e23 + e34", "beta*A12", "beta/q*e24"),
    expected_detq="1",
    expected_dim_r=7,
    expected_r_basis=("e11", "e22", "e33", "e44", "e23", "e34", "e24"),
    expected_inv_basis=("1", "e11"),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E11,),
    canonical_dets=("1 + 4*e11",),
))

_register(TableEntry(
    entry_id="G5",
    params=("gamma",),
    exclusions={"gamma": "gamma*(alpha*gamma + 1)"},
    connected_to="S5",
    a22_increment="gamma*e11",
    expected_detq="1 + alpha*gamma*e11",
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S5"].expected_r_basis,
    expected_inv_basis=("1", "e11"),
    invariant_type="C+C",
    gamma_invariants=(_GAMMA_E11,),
))

# -- form 6, A11 = diag(q^2, q^2, q, 1) + e12: S6, G6 --------------------------

_register(TableEntry(
    entry_id="S6",
    params=("alpha",),
    exclusions={"alpha": "alpha"},
    form=6,
    blocks=ENTRIES["S3"].blocks,
    expected_detq="1",
    expected_dim_r=7,
    expected_r_basis=("e11 + e22", "e12", "e13", "e14", "e33", "e34", "e44"),
    expected_inv_basis=("1", "e12"),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E12,),
    canonical_dets=("1 + 5*e12",),
))

_register(TableEntry(
    entry_id="G6",
    params=("xi",),
    exclusions={"xi": "xi"},
    connected_to="S6",
    # det_q = 1 + q^2 xi e12 forces the increment xi e12, i.e. the (1, 2)
    # entry of A22 is xi - q^-4.
    a22_increment="xi*e12",
    expected_detq="1 + q*q*xi*e12",
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S6"].expected_r_basis,
    expected_inv_basis=("1", "e12"),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E12,),
))

# -- form 7, A11 = diag(q^2, q, 1, 1) + e34: S7, G7 ----------------------------

_register(TableEntry(
    entry_id="S7",
    params=("alpha",),
    exclusions={"alpha": "alpha"},
    form=7,
    blocks=("e12 + e24", "alpha*A12", "alpha/q*e14"),
    expected_detq="1",
    expected_dim_r=7,
    expected_r_basis=("e11", "e12", "e14", "e22", "e24", "e33 + e44", "e34"),
    expected_inv_basis=("1", "e34"),
    invariant_type="T2'",
    gamma_invariants=(_GAMMA_E34,),
    canonical_dets=("1 + 5*e34",),
))

_register(TableEntry(
    entry_id="G7",
    params=("xi",),
    exclusions={"xi": "xi"},
    connected_to="S7",
    a22_increment="xi*e34",
    expected_detq="1 + xi*e34",
    expected_dim_r=7,
    expected_r_basis=ENTRIES["S7"].expected_r_basis,
    expected_inv_basis=("1", "e34"),
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
    overrides: Mapping[str, object] | None = None,
    policy: Mapping[str, object] | None = None,
) -> dict[str, Scalar]:
    """A full, constraint-checked parameter assignment for an entry.

    Explicit overrides are validated and never altered; missing parameters
    take the policy value, falling back deterministically to the smallest
    admissible integer >= 2 when the policy value is excluded, a root of the
    parameter's exclusion polynomial (this happens, for instance, to
    alpha = 3 of S5 at q = 3).
    """
    overrides = {k: as_scalar(v) for k, v in (overrides or {}).items()}
    unknown = sorted(set(overrides) - set(entry.params))
    if unknown:
        raise ConstraintViolated(unknown[0], overrides[unknown[0]], f"not a parameter of {entry.entry_id}")
    merged = dict(DEFAULT_POLICY)
    merged.update(policy or {})
    params: dict[str, Scalar] = {}
    for name in entry.params:
        exclusion = entry.exclusions.get(name, "1")

        def admissible(value: Scalar) -> bool:
            return bool(eval_expr(exclusion, {"q": q.q, **params, name: value}))

        if name in overrides:
            value = overrides[name]
            if not admissible(value):
                raise ConstraintViolated(name, format_scalar(value), "excluded value for this entry")
        else:
            value = as_scalar(merged.get(name, 2))
            if not admissible(value):
                value = smallest_admissible(admissible)
        params[name] = value
    return params


def instantiate(
    entry_id: str,
    q: DeformationParameter,
    params: Mapping[str, object] | None = None,
) -> GLqRep:
    """Concrete representation for a table entry; relations are verified."""
    entry = get_entry(entry_id)
    return require_representation(entry.representation(q, resolve_params(entry, q, params)))


class EntryCheck:
    """One entry's battery: its parameters, representation and report.

    invariants and detq are the centralizer and quantum determinant the
    battery computed; both are None when the relations already fail.  The
    centralizer is checked against the action's fixed points and the
    stated invariants, and verify_determinant_invariants reads it again.
    """

    __slots__ = ("entry_id", "params", "rep", "report", "invariants", "detq")

    def __init__(self, entry_id: str, params: dict[str, Scalar], rep: GLqRep, report: Report,
                 invariants: Subspace | None = None, detq: Mat | None = None):
        self.entry_id, self.params, self.rep, self.report = entry_id, params, rep, report
        self.invariants, self.detq = invariants, detq

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
    params: Mapping[str, object] | None = None,
    policy: Mapping[str, object] | None = None,
    *,
    kernels: Kernels | None = None,
) -> EntryCheck:
    """Run the full battery of checks for one table entry, keeping its facts; kernels goes to its centralizer."""
    entry = get_entry(entry_id)
    p = resolve_params(entry, q, params, policy)
    rep = entry.representation(q, p)
    report = Report()

    relations = verify_glq_relations(rep)
    report.add("relations", relations.ok, _first_bad(relations))
    if not relations.ok:
        return EntryCheck(entry.entry_id, p, rep, report)

    names = table_names(q.q, p)
    detq = quantum_determinant(rep)
    want_detq = eval_gamma_expr(entry.expected_detq, names)
    ok = detq == want_detq
    report.add("quantum_determinant", ok, "" if ok else f"det_q = {detq!r}, expected {want_detq!r}")

    algebra = operator_algebra(rep)
    report.add(
        "operator_algebra_dim",
        algebra.dim == entry.expected_dim_r,
        f"dim {algebra.dim}, expected {entry.expected_dim_r}",
    )
    expected_r = Subspace.span_of([eval_gamma_expr(text, names) for text in entry.expected_r_basis])
    ok = algebra == expected_r
    report.add("operator_algebra_shape", ok, "" if ok else f"dim {algebra.dim}, expected span of dim {expected_r.dim}")

    action = InnerAction(rep, antipode(rep, detq))
    op_rel = operator_relation_report(action)
    report.add("action_operator_relations", op_rel.ok, _first_bad(op_rel))

    cent = centralizer(list(rep.matrices()), kernels=kernels)
    fixed = action_fixed_points(action)
    ok = cent == fixed
    report.add("invariants_two_ways", ok, "" if ok else f"centralizer dim {cent.dim}, fixed points dim {fixed.dim}")

    expected_inv = Subspace.span_of([eval_gamma_expr(text, names) for text in entry.expected_inv_basis])
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
    report.add("gamma_invariants", Subspace.span_of([_E4] + evaluated) == cent, f"{len(evaluated)} expressions")

    counit = antipode_check(rep, action.starred)
    report.add("antipode", counit.ok, _first_bad(counit))

    module = verify_module_algebra(counit)
    report.add("module_algebra", module.ok, _first_bad(module))

    return EntryCheck(entry.entry_id, p, rep, report, cent, detq)


def _first_bad(report: Report) -> str:
    bad = report.first_failure
    return "" if bad is None else bad.name


def verify_distinctness(reps: Mapping[str, GLqRep], *, kernels: Kernels | None = None) -> Report:
    """Pairwise non-equivalence of the given entries, plus self-witnesses; spectral data once per entry.

    The entries fall into classes: an entry joins the first class whose
    leader's A11 spectrum, times some scale, is its own
    (action._spectral_pin), and leads a new class otherwise.  "spectrum(x')
    = alpha spectrum(x) for some alpha != 0" is an equivalence relation on
    the spectra of invertible matrices: alpha = 1 gives reflexivity,
    1/alpha symmetry and alpha beta transitivity.  So the A11 spectra of two entries in different classes
    differ under every scale, and decide_equivalence would give the pair the
    "spectrum" obstruction, or "q", with no candidate tried; only the pairs
    inside a class are decided.  A matched singular A11 raises
    DeterminantSingular at the leader comparison, as it would at the
    leader's self pair.  kernels, the tree of maps of linalg.Kernels, goes
    to every decision.
    """
    ids = list(reps)
    spectra = {e: spectral_data(rep) for e, rep in reps.items()}
    leaders, leader_of = [], {}
    for e in ids:
        leader_of[e] = next((lead for lead in leaders if _spectral_pin(spectra[lead], spectra[e], 0)), e)
        if leader_of[e] == e:
            leaders.append(e)
    report = Report()
    for i, e1 in enumerate(ids):
        for e2 in ids[i:]:
            verdict = (decide_equivalence(reps[e1], reps[e2], (spectra[e1], spectra[e2]), kernels=kernels)
                       if leader_of[e1] == leader_of[e2] else NotEquivalent(0, obstruction="spectrum"))
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


class TableCheck:
    """The battery of every entry, pairwise distinctness, and the G-entry invariants."""

    __slots__ = ("q", "entries", "distinctness", "determinant_invariants")

    def __init__(self, q: DeformationParameter, entries: tuple[EntryCheck, ...], distinctness: Report,
                 determinant_invariants: Report):
        self.q, self.entries = q, entries
        self.distinctness, self.determinant_invariants = distinctness, determinant_invariants

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


def verify_table(q: DeformationParameter, policy: Mapping[str, object] | None = None) -> TableCheck:
    """The whole table in one pass: each entry is resolved, built and checked once.

    Distinctness and the determinant invariants reuse the representations,
    centralizers and quantum determinants that the battery computed.  One
    tree of maps (linalg.Kernels), matched by the matrices themselves,
    serves every centralizer and intertwiner solve of this call and is
    dropped on return: each shared prefix of maps is solved once, so a self
    pair's intertwiner space under the scales (1, 1) is its entry's
    centralizer, and a G entry's solves begin with its S entry's A11, A12
    and A21.  A policy value applies only
    to the entries that declare its name; a name that no entry declares
    raises ConstraintViolated.
    """
    declared = {name for entry in ENTRIES.values() for name in entry.params}
    unknown = sorted(set(policy or {}) - declared)
    if unknown:
        raise ConstraintViolated(unknown[0], as_scalar(policy[unknown[0]]), "not a parameter of any table entry")
    kernels = {}
    entries = tuple(check_entry(eid, q, policy=policy, kernels=kernels) for eid in ENTRY_ORDER)
    distinctness = verify_distinctness({e.entry_id: e.rep for e in entries}, kernels=kernels)
    return TableCheck(q, entries, distinctness, verify_determinant_invariants(entries))
