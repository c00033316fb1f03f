import json

import pytest

from qact import (
    ConstraintViolated,
    Mat,
    TableEntry,
    Scalar,
    UnknownEntry,
    as_scalar,
    canonical_forms,
    centralizer,
    check_entry,
    get_entry,
    instantiate,
    quantum_determinant,
    resolve_params,
    verify_determinant_invariants,
)
from qact.catalog import DEFAULT_POLICY, ENTRY_ORDER
from qact.cli import main
from qact.qspinor import form_a

E4 = Mat.identity(4)


def u(i, j):
    return Mat.unit(4, i, j)


def test_entry_order_and_count():
    assert len(ENTRY_ORDER) == 20
    assert sum(1 for e in ENTRY_ORDER if e.startswith("S")) == 11
    assert sum(1 for e in ENTRY_ORDER if e.startswith("G")) == 9


def test_entry_replace_keeps_the_other_fields():
    g3b = get_entry("G3b")
    changed = g3b.replace(a22_increment="e12", params=("xi",))
    assert (changed.a22_increment, changed.params) == ("e12", ("xi",))
    assert (g3b.a22_increment, g3b.params) == ("e12/(q*q)", ("alpha",))
    assert all(getattr(changed, name) is getattr(g3b, name) for name in TableEntry.__slots__
               if name not in ("a22_increment", "params"))
    with pytest.raises(TypeError):
        g3b.replace(a22_incremnt="e12")


def test_s1_instantiation_example(q2):
    rep = instantiate("S1", q2, {"alpha": 3})
    assert rep.a11 == Mat.diag(4, 2, 1, 1)
    assert rep.a12 == u(1, 2) + u(2, 3)
    assert rep.a21 == (u(1, 2) + u(2, 3)).scale(3)
    assert rep.a22 == Mat.diag(Scalar(1, 0, 4), Scalar(1, 0, 2), 1, 1) + u(1, 3).scale(Scalar(3, 0, 2))


def test_g5_determinant_example(q2):
    rep = instantiate("G5", q2, {"alpha": 5, "beta": 3, "gamma": 7})
    assert quantum_determinant(rep) == E4 + u(1, 1).scale(35)


def test_s5_constraints(q2):
    with pytest.raises(ConstraintViolated):
        instantiate("S5", q2, {"alpha": 2})  # alpha = q
    with pytest.raises(ConstraintViolated):
        instantiate("S5", q2, {"alpha": Scalar(1, 0, 2)})  # alpha = 1/q
    # q^3 is excluded too, although the table header lists only up to q^2.
    with pytest.raises(ConstraintViolated):
        instantiate("S5", q2, {"alpha": 8})
    instantiate("S5", q2, {"alpha": 3})


def test_more_constraints(q2):
    with pytest.raises(ConstraintViolated):
        instantiate("G1a", q2, {"beta": -1})
    with pytest.raises(ConstraintViolated):
        instantiate("G2b'", q2, {"beta": Scalar(-1, 0, 2)})
    with pytest.raises(ConstraintViolated):
        instantiate("G3a", q2, {"beta": Scalar(-1, 0, 4)})
    with pytest.raises(ConstraintViolated):
        instantiate("G5", q2, {"alpha": 3, "gamma": Scalar(-1, 0, 3)})
    with pytest.raises(ConstraintViolated):
        instantiate("S2a", q2, {"alpha": 2, "beta": Scalar(1, 0, 2)})
    with pytest.raises(ConstraintViolated):
        instantiate("S1", q2, {"alpha": 0})
    with pytest.raises(ConstraintViolated):
        instantiate("G6", q2, {"xi": 0})


def test_unknown_parameter_and_entry(q2):
    with pytest.raises(ConstraintViolated):
        instantiate("S1", q2, {"delta": 1})
    with pytest.raises(UnknownEntry):
        get_entry("S9")


def test_aliases():
    assert get_entry("S2a′").entry_id == "S2a'"
    assert get_entry("G2").entry_id == "G2b'"
    assert get_entry("G2bp").entry_id == "G2b'"


def test_default_policy_fallback(q2, q3, qc):
    # S5 prefers alpha = 3, which collides with q at q = 3.
    entry = get_entry("S5")
    assert resolve_params(entry, q2)["alpha"] == as_scalar(3)
    fallback = resolve_params(entry, q3)["alpha"]
    assert fallback == as_scalar(2)
    assert resolve_params(entry, qc)["alpha"] == as_scalar(3)
    for eid in ENTRY_ORDER:
        for q in (q2, q3, qc):
            instantiate(eid, q)


def test_default_policy_values():
    assert DEFAULT_POLICY == {"alpha": 3, "beta": 5, "gamma": 7, "xi": 5}


def test_verify_entry_examples(q2):
    report = check_entry("S4a", q2, {"alpha": 3}).report
    assert report.ok
    dim_check = next(c for c in report.checks if c.name == "operator_algebra_dim")
    assert "dim 10" in dim_check.detail

    report = check_entry("S2b'", q2, {"alpha": 3}).report
    assert report.ok
    inv_check = next(c for c in report.checks if c.name == "invariant_dim")
    assert "dim 2" in inv_check.detail

    report = check_entry("G7", q2, {"alpha": 3, "xi": 5}).report
    assert report.ok
    rep = instantiate("G7", q2, {"alpha": 3, "xi": 5})
    assert quantum_determinant(rep) == E4 + u(3, 4).scale(5)


def test_inherited_blocks_match_base_entry(q2):
    pairs = [("G1a", "S1"), ("G1b", "S1"), ("G3a", "S3"), ("G3b", "S3"),
             ("G4b", "S4b"), ("G5", "S5"), ("G6", "S6"), ("G7", "S7"), ("G2b'", "S2b'")]
    for gid, sid in pairs:
        assert get_entry(gid).connected_to == sid
        g = instantiate(gid, q2)
        s = instantiate(sid, q2)
        assert g.a11 == s.a11
        assert g.a12 == s.a12
        assert g.a21 == s.a21
        assert g.a22 != s.a22


def test_g_entry_params_extend_the_base_entry(capsys):
    for gid in ENTRY_ORDER:
        g = get_entry(gid)
        if g.connected_to is None:
            continue
        s = get_entry(g.connected_to)
        assert g.params[: len(s.params)] == s.params and len(g.params) - len(s.params) <= 1, gid
        for name in s.params:
            assert g.exclusions.get(name) == s.exclusions.get(name), (gid, name)
    assert main(["show-entry", "--entry", "G5"]) == 0
    assert list(json.loads(capsys.readouterr().out)["params"]) == ["alpha", "beta", "gamma"]


def test_a21_proportional_to_a12_except_s2_family(q2):
    from qact import Subspace

    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q2)
        proportional = Subspace.span_of([rep.a12]).contains_matrix(rep.a21)
        assert proportional == (eid not in ("S2a", "S2a'", "S2b"))


def test_full_battery_at_second_sample_points(q3, qc):
    for q in (q3, qc):
        for eid in ENTRY_ORDER:
            report = check_entry(eid, q).report
            assert report.ok, (eid, str(q), [c.name for c in report.checks if not c.passed])


def test_g_entry_invariants_are_determinant_span(q2):
    report = verify_determinant_invariants(check_entry(eid, q2) for eid in ENTRY_ORDER)
    assert report.ok
    assert [c.name for c in report.checks] == [e for e in ENTRY_ORDER if e.startswith("G")]


def test_canonical_determinants_shapes():
    assert len(get_entry("S1").canonical_dets) == 2
    assert len(get_entry("S3").canonical_dets) == 2
    assert len(get_entry("S5").canonical_dets) == 1
    assert len(get_entry("S6").canonical_dets) == 1
    assert get_entry("S4a").canonical_dets == ()
    assert get_entry("S2a").canonical_dets == ()


@pytest.mark.parametrize("qname", ["q2", "q3", "qc"])
def test_a11_is_its_canonical_form_at_every_parameter_value(qname, request):
    # Rebuilt from the entries at several admissible values of each
    # parameter, A11 is always the matrix of the entry's canonical form and
    # does not move with the parameters; form 5 (S5, G5) takes alpha as its
    # free diagonal entry.
    q = request.getfixturevalue(qname)
    values = [as_scalar(v) for v in (2, 3, 5, Scalar(-7, 0, 3), Scalar(1, 2))] + [q.q]
    fixed = canonical_forms(q)
    assert sorted(get_entry(e).form for e in ENTRY_ORDER if e.startswith("S")) == [1, 2, 2, 2, 2, 3, 4, 4, 5, 6, 7]
    for eid in ENTRY_ORDER:
        entry = get_entry(eid)
        form = get_entry(entry.connected_to or eid).form
        seen = set()
        for name in entry.params:
            for value in values:
                try:
                    params = resolve_params(entry, q, {name: value})
                    rep = instantiate(eid, q, params)
                except ConstraintViolated:
                    continue
                if form == 5:
                    assert rep.a11 == form_a(5, q.q, params["alpha"]), (eid, params)
                    assert rep.a11.rows[0][0] == params["alpha"]
                else:
                    assert rep.a11 == fixed[form - 1].a, (eid, params)
                seen.add(rep.a11)
        assert len(seen) >= (3 if form == 5 else 1), eid
        assert len(seen) == 1 or form == 5, eid


def test_distinctness_spot_check(q2):
    from qact import decide_equivalence

    s1 = instantiate("S1", q2)
    s2bp = instantiate("S2b'", q2)
    assert not decide_equivalence(s1, s2bp).equivalent


def test_distinctness_at_complex_sample_point(qc):
    from qact import verify_distinctness

    reps = {eid: instantiate(eid, qc) for eid in ENTRY_ORDER}
    report = verify_distinctness(reps)
    assert report.ok, [c.name for c in report.checks if not c.passed]
    assert len(report.checks) == 210
    # A kernels dict that already holds every centralizer changes no line.
    kernels = {}
    for rep in reps.values():
        centralizer(list(rep.matrices()), kernels=kernels)
    assert verify_distinctness(reps, kernels=kernels).to_json() == report.to_json()


@pytest.mark.parametrize("qname", ["q2", "q3", "qc"])
def test_g_entries_reconstructed_by_attachment(qname, request):
    # Every G entry equals its connected S entry with the G determinant
    # attached; this pins the A22 increments against the det_q column.
    from qact import attach_determinant, connected_slq

    q = request.getfixturevalue(qname)
    for gid in ENTRY_ORDER:
        sid = get_entry(gid).connected_to
        if sid is None:
            continue
        g = instantiate(gid, q)
        g_params = resolve_params(get_entry(gid), q)
        s_params = {k: v for k, v in g_params.items() if k in get_entry(sid).params}
        s = instantiate(sid, q, s_params)
        assert connected_slq(g) == s, gid
        assert attach_determinant(s, quantum_determinant(g)) == g, gid
