"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact arithmetic, so every tolerance is exact equality; the
runtime budgets are asserted as wall-clock bounds.  Run with `pytest -v
tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time

from helpers import random_invertible_upper, random_nonzero_scalar, random_strictly_upper
from qact import (
    CanonicalForm,
    EquivalenceWitness,
    Mat,
    Subspace,
    as_scalar,
    attach_determinant,
    build_action,
    build_model,
    canonical_forms,
    centralizer,
    check_entry,
    connected_slq,
    decide_equivalence,
    from_rq,
    get_entry,
    instantiate,
    is_slq,
    antipode_check,
    action_fixed_points,
    operator_algebra,
    operator_relation_report,
    quantum_determinant,
    resolve_params,
    selftest,
    space_square_nonzero,
    spinor_space,
    to_rq,
    validate_q,
    verify_determinant_invariants,
    verify_distinctness,
    verify_module_algebra,
    verify_canonical_form,
)
from qact.catalog import ENTRY_ORDER, INVARIANT_DIMS, table_names
from qact.clifford import METRIC, UNIT_EXPRESSIONS, eval_gamma_expr, default_model
from qact.qspinor import form_a
from qact.scalars import Scalar

E4 = Mat.identity(4)

EXPECTED_DIM_R = {
    "S1": 6, "G1a": 7, "G1b": 7, "S2a": 8, "S2a'": 7, "S2b": 7, "S2b'": 6,
    "G2b'": 7, "S3": 6, "G3a": 7, "G3b": 7, "S4a": 10, "S4b": 7, "G4b": 7,
    "S5": 7, "G5": 7, "S6": 7, "G6": 7, "S7": 7, "G7": 7,
}

EXPECTED_DETQ = {
    "G1a": lambda q, p: E4 + Mat.unit(4, 4, 4).scale(p["beta"]),
    "G1b": lambda q, p: E4 + Mat.unit(4, 4, 3),
    "G2b'": lambda q, p: E4 + Mat.unit(4, 3, 3).scale(q * p["beta"]),
    "G3a": lambda q, p: E4 + Mat.unit(4, 2, 2).scale(q * q * p["beta"]),
    "G3b": lambda q, p: E4 + Mat.unit(4, 1, 2),
    "G4b": lambda q, p: E4 + Mat.unit(4, 4, 4).scale(p["beta"]),
    "G5": lambda q, p: E4 + Mat.unit(4, 1, 1).scale(p["alpha"] * p["gamma"]),
    "G6": lambda q, p: E4 + Mat.unit(4, 1, 2).scale(q * q * p["xi"]),
    "G7": lambda q, p: E4 + Mat.unit(4, 3, 4).scale(p["xi"]),
}

Q_SAMPLES = (as_scalar(2), as_scalar(3), Scalar(1, 1))


def _report(criterion: int, label: str, elapsed: float):
    print(f"ACCEPTANCE CRITERION {criterion} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_clifford_selftest():
    start = time.perf_counter()
    model = build_model()
    report = selftest(model)
    assert report.ok
    gam = model.gamma
    count = 0
    for mu in range(4):
        for nu in range(mu, 4):
            expected = E4.scale(2 * METRIC[mu]) if mu == nu else Mat.zero(4)
            assert gam[mu] * gam[nu] + gam[nu] * gam[mu] == expected
            count += 1
    assert count == 10
    products = 0
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                for l in range(1, 5):
                    expected = model.unit(i, l) if j == k else Mat.zero(4)
                    assert model.unit(i, j) * model.unit(k, l) == expected
                    products += 1
    assert products == 256
    for (i, j), text in UNIT_EXPRESSIONS.items():
        assert eval_gamma_expr(text, model.atoms) == Mat.unit(4, i, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "clifford self-test", elapsed)


def test_criterion_2_canonical_form_suite():
    start = time.perf_counter()
    for q_value in Q_SAMPLES:
        q = validate_q(q_value)
        forms = canonical_forms(q)
        forms[4] = CanonicalForm(5, form_a(5, q.q, as_scalar(5)), forms[4].expected_basis)
        assert [f.expected_dim for f in forms] == [3, 4, 3, 3, 2, 2, 2]
        for form in forms:
            report = verify_canonical_form(form, q)
            assert report.ok
            assert space_square_nonzero(spinor_space(form.a, q))
    q2 = validate_q(2)
    rng = random.Random(202)
    for _ in range(50):
        alpha = random_nonzero_scalar(rng)
        a = E4.scale(alpha) + random_strictly_upper(rng)
        assert spinor_space(a, q2).dim == 0
    for _ in range(50):
        a = Mat.diag(*[rng.choice([1, 2, 3, 4, 8, 6]) for _ in range(4)])
        for vec in spinor_space(a, q2).basis:
            nonzero = [x for x in vec if x]
            assert len(nonzero) == 1 and nonzero[0] == as_scalar(1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, "canonical q-spinor forms", elapsed)


def test_criterion_3_table_verification():
    start = time.perf_counter()
    q = validate_q(2)
    for eid in ENTRY_ORDER:
        report = check_entry(eid, q).report
        assert report.ok, (eid, [c.name for c in report.checks if not c.passed])
        dim_detail = next(c.detail for c in report.checks if c.name == "operator_algebra_dim")
        assert dim_detail.startswith(f"dim {EXPECTED_DIM_R[eid]},")
        entry = get_entry(eid)
        params = resolve_params(entry, q)
        rep = instantiate(eid, q, params)
        if eid in EXPECTED_DETQ:
            assert quantum_determinant(rep) == EXPECTED_DETQ[eid](q.q, params)
        else:
            assert quantum_determinant(rep) == E4
        assert operator_algebra(rep).dim == EXPECTED_DIM_R[eid]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, "table verification", elapsed)


def test_criterion_4_invariant_suite():
    start = time.perf_counter()
    q = validate_q(2)
    model = default_model()
    for eid in ENTRY_ORDER:
        entry = get_entry(eid)
        rep = instantiate(eid, q)
        inv = centralizer(list(rep.matrices()))
        assert inv.dim == INVARIANT_DIMS[entry.invariant_type], eid
        names = table_names(q.q, resolve_params(entry, q))
        assert inv == Subspace.span_of([eval_gamma_expr(t, names) for t in entry.expected_inv_basis]), eid
        evaluated = [eval_gamma_expr(t, model.atoms) for t in entry.gamma_invariants]
        for m in evaluated:
            assert inv.contains_matrix(m), eid
        assert Subspace.span_of([E4] + evaluated) == inv, eid
        action = build_action(rep)
        assert action_fixed_points(action) == inv, eid
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, "invariant suite", elapsed)


def test_criterion_5_hopf_axioms():
    start = time.perf_counter()
    q = validate_q(2)
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q)
        action = build_action(rep)
        assert operator_relation_report(action).ok, eid
        counit = antipode_check(rep, action.starred)
        assert counit.ok, eid
        assert verify_module_algebra(counit).ok, eid
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, "Hopf axioms", elapsed)


def test_criterion_6_rq_round_trip():
    start = time.perf_counter()
    q = validate_q(2)
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q)
        rq = to_rq(rep)
        assert from_rq(rq) == rep, eid
        assert quantum_determinant(rep) == rep.a11 * rq.r22, eid
        sid = get_entry(eid).connected_to
        if sid is not None:
            s_params = {
                name: value
                for name, value in resolve_params(get_entry(eid), q).items()
                if name in get_entry(sid).params
            }
            assert connected_slq(rep) == instantiate(sid, q, s_params), eid
    elapsed = time.perf_counter() - start
    _report(6, "R_q round trip and connected entries", elapsed)


def test_criterion_7_distinctness():
    start = time.perf_counter()
    q = validate_q(2)
    report = verify_distinctness({eid: instantiate(eid, q) for eid in ENTRY_ORDER})
    assert report.ok, [c.name for c in report.checks if not c.passed]
    assert len(report.checks) == 210  # 190 distinct pairs + 20 self checks
    rng = random.Random(707)
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q)
        for _ in range(20):
            witness_in = EquivalenceWitness(
                random_invertible_upper(rng),
                random_nonzero_scalar(rng),
                random_nonzero_scalar(rng),
            )
            moved = witness_in.apply(rep)
            verdict = decide_equivalence(rep, moved)
            assert verdict.equivalent, eid
            assert verdict.apply(rep) == moved, eid
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(7, "pairwise distinctness and witness recovery", elapsed)


def test_criterion_8_invariant_determinant_span():
    start = time.perf_counter()
    q = validate_q(2)
    report = verify_determinant_invariants(check_entry(eid, q) for eid in ENTRY_ORDER)
    assert report.ok
    for eid in ENTRY_ORDER:
        if not eid.startswith("G"):
            continue
        rep = instantiate(eid, q)
        inv = centralizer(list(rep.matrices()))
        assert inv == Subspace.span_of([E4, quantum_determinant(rep)]), eid
    for eid in ENTRY_ORDER:
        if not eid.startswith("S"):
            continue
        rep = instantiate(eid, q)
        for text in get_entry(eid).canonical_dets:
            d = eval_gamma_expr(text, table_names(q.q, {}))
            attached = attach_determinant(rep, d)
            assert quantum_determinant(attached) == d, eid
            assert connected_slq(attached) == rep, eid
        assert is_slq(rep), eid
    elapsed = time.perf_counter() - start
    _report(8, "invariant algebras and determinant attachment", elapsed)
