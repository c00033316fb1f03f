import random

import pytest

from helpers import (
    inverse_blocks,
    is_nilpotent,
    one_relation_broken,
    random_dense_invertible,
    reference_attached_a22,
    reference_from_rq_a22,
)
from qact import (
    A11Singular,
    DeterminantSingular,
    DimensionMismatch,
    DNotInvariant,
    EquivalenceWitness,
    GLqRep,
    Mat,
    RelationViolated,
    RqRep,
    Singular,
    antipode,
    antipode_check,
    attach_determinant,
    connected_slq,
    det,
    from_rq,
    instantiate,
    is_slq,
    mat_inverse,
    parse_scalar,
    quantum_determinant,
    require_representation,
    to_rq,
    validate_q,
    verify_glq_relations,
)
from qact.catalog import ENTRY_ORDER, get_entry, resolve_params, table_names
from qact.clifford import eval_gamma_expr
from qact.qrep import GLQ_RELATIONS

E4 = Mat.identity(4)


def u(i, j):
    return Mat.unit(4, i, j)


def test_table_entry_relations_pass(q2):
    report = verify_glq_relations(instantiate("S1", q2))
    assert report.ok
    assert len(report.checks) == 6


def test_perturbed_entry_fails(q2):
    rep = instantiate("S1", q2)
    bad = GLqRep(rep.a11, rep.a12, rep.a21, rep.a22 + u(2, 1), q2)
    report = verify_glq_relations(bad)
    assert not report.ok
    with pytest.raises(RelationViolated):
        require_representation(bad)


@pytest.mark.parametrize("k", range(6))
def test_each_relation_fails_alone(q2, qc, k):
    for q in (q2, qc):
        report = verify_glq_relations(GLqRep(*one_relation_broken(k), q))
        assert [c.name for c in report.checks] == list(GLQ_RELATIONS)
        assert [c.passed for c in report.checks] == [i != k for i in range(6)]


def test_scalar_pair_representation(q2):
    rep = GLqRep(E4.scale(3), Mat.zero(4), Mat.zero(4), E4.scale(5), q2)
    assert verify_glq_relations(rep).ok
    assert quantum_determinant(rep) == E4.scale(15)


def test_quantum_determinant_examples(q2):
    assert quantum_determinant(instantiate("S1", q2)) == E4
    g1a = instantiate("G1a", q2, {"alpha": 3, "beta": 5})
    assert quantum_determinant(g1a) == E4 + u(4, 4).scale(5)
    g6 = instantiate("G6", q2, {"alpha": 3, "xi": 5})
    assert quantum_determinant(g6) == E4 + u(1, 2).scale(20)


def test_determinant_commutes_for_all_entries(q2):
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q2)
        d = quantum_determinant(rep)
        for g in rep.matrices():
            assert d * g == g * d


def test_antipode_passes(q2):
    for rep in (instantiate("S3", q2), instantiate("G7", q2, {"alpha": 3, "xi": 5})):
        assert antipode_check(rep, antipode(rep, quantum_determinant(rep))).ok


def test_antipode_negative_control(q2):
    # Central invertible determinant but a broken spinor relation: the
    # off-diagonal counit identities pick it up.
    rep = GLqRep(E4, u(1, 2), Mat.zero(4), E4, q2)
    report = antipode_check(rep, antipode(rep, quantum_determinant(rep)))
    assert not report.ok


@pytest.mark.parametrize("q_text", ["2", "3", "1+i"])
def test_antipode_is_the_block_inverse(q_text):
    # The oracle inverts the 8x8 block matrix M by elimination; each entry is
    # checked as tabulated and as one dense conjugate.
    q = validate_q(parse_scalar(q_text))
    rng = random.Random(0xA27)
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q)
        conjugate = EquivalenceWitness(random_dense_invertible(rng), 1, 1).apply(rep)
        for r in (rep, conjugate):
            assert verify_glq_relations(r).ok, eid
            assert antipode(r, quantum_determinant(r)) == inverse_blocks(r), eid


def test_singular_determinant_means_singular_block_matrix(q2):
    zero = Mat.zero(4)
    for a11, a22 in ((zero, zero), (u(1, 2) + u(2, 3), E4), (Mat.diag(1, 0, 0, 0), E4)):
        rep = GLqRep(a11, zero, zero, a22, q2)
        assert verify_glq_relations(rep).ok
        with pytest.raises(Singular):
            inverse_blocks(rep)
        with pytest.raises(DeterminantSingular, match="^quantum determinant is singular$"):
            antipode(rep, quantum_determinant(rep))


@pytest.mark.parametrize("q_text", ["2", "3", "1+i"])
def test_determinant_singular_iff_a11_or_a22_is(q_text):
    # Under the six relations bc is nilpotent and commutes with ad, so
    # det_q = ad - q bc is invertible exactly when A11 and A22 both are (the
    # proof is in the docstring of action.decide_equivalence).
    q = validate_q(parse_scalar(q_text))
    rng = random.Random(0xDE7)
    zero = Mat.zero(4)
    reps = [GLqRep(a11, a12, zero, a22, q) for a11, a12, a22 in (
        (zero, zero, zero),
        (u(1, 2) + u(2, 3), zero, E4),
        (Mat.diag(1, 0, 0, 0), zero, E4),
        (E4, zero, Mat.diag(1, 0, 0, 0)),
        (zero, u(1, 2), Mat.diag(1, q.q, 1, 1)),
    )]
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q)
        reps += [rep, EquivalenceWitness(random_dense_invertible(rng), 1, 1).apply(rep)]
    singular = 0
    for rep in reps:
        assert verify_glq_relations(rep).ok
        blocks_singular = not det(rep.a11) * det(rep.a22)
        try:
            antipode(rep, quantum_determinant(rep))
        except DeterminantSingular:
            singular += 1
            assert blocks_singular
        else:
            assert not blocks_singular
    assert singular == 5


def test_to_rq_examples(q2):
    s1 = instantiate("S1", q2)
    rq = to_rq(s1)
    assert rq.r22 == mat_inverse(s1.a11)
    g1a = instantiate("G1a", q2)
    assert g1a.a11 * to_rq(g1a).r22 == quantum_determinant(g1a)


@pytest.mark.parametrize("qname", ["q2", "q3", "qc"])
def test_rq_round_trip_all_entries(qname, request):
    q = request.getfixturevalue(qname)
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q)
        assert from_rq(to_rq(rep)) == rep, eid


def test_rq_relation_failure_is_named(q2):
    # Only the commuting diagonal of R_q fails: A11 R22 - R22 A11 = -e12.
    with pytest.raises(RelationViolated, match="^diagonal_commutator$"):
        to_rq(GLqRep(Mat.diag(1, 2, 3, 4), Mat.zero(4), Mat.zero(4), u(1, 2), q2))


def test_from_rq_rebuilds_a22(q2):
    s1 = instantiate("S1", q2)
    rq = RqRep(s1.a11, s1.a12, s1.a21, mat_inverse(s1.a11), q2)
    rebuilt = from_rq(rq)
    assert rebuilt.a22 == s1.a22
    assert verify_glq_relations(rebuilt).ok


def test_from_rq_singular_errors(q2):
    s1 = instantiate("S1", q2)
    with pytest.raises(DeterminantSingular):
        from_rq(RqRep(s1.a11, s1.a12, s1.a21, u(1, 1), q2))
    with pytest.raises(A11Singular):
        from_rq(RqRep(u(1, 1), s1.a12, s1.a21, E4, q2))
    with pytest.raises(A11Singular):
        to_rq(GLqRep(u(1, 1), s1.a12, s1.a21, s1.a22, q2))


@pytest.mark.parametrize("qname", ["q2", "q3", "qc"])
def test_slq_split_and_connected(qname, request):
    q = request.getfixturevalue(qname)
    s5 = instantiate("S5", q)
    assert is_slq(s5)
    g5 = instantiate("G5", q)
    assert not is_slq(g5)
    assert connected_slq(g5) == s5
    assert connected_slq(s5) == s5


def test_attach_determinant_examples(q2):
    s1 = instantiate("S1", q2)
    g1a = instantiate("G1a", q2, {"alpha": 3, "beta": 5})
    assert attach_determinant(s1, E4 + u(4, 4).scale(5)) == g1a
    g1b = instantiate("G1b", q2)
    assert attach_determinant(s1, E4 + u(4, 3)) == g1b
    assert attach_determinant(s1, E4) == s1


def test_attach_determinant_errors(q2):
    s1 = instantiate("S1", q2)
    with pytest.raises(DeterminantSingular):
        attach_determinant(s1, u(4, 4))
    with pytest.raises(DNotInvariant):
        attach_determinant(s1, E4 + u(1, 2))
    g1a = instantiate("G1a", q2)
    with pytest.raises(ValueError):
        attach_determinant(g1a, E4 + u(4, 4))


@pytest.mark.parametrize("qname", ["q2", "q3", "qc"])
def test_presentations_match_reference_formulas(qname, request):
    # from_rq and attach_determinant build A22 by one identity; the references
    # are the Schur inverse and the A22 + A11^-1 (d - 1) increment.
    q = request.getfixturevalue(qname)
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q)
        rq = to_rq(rep)
        assert from_rq(rq).a22 == reference_from_rq_a22(rq) == rep.a22, eid
        sid = get_entry(eid).connected_to
        if sid is None:
            for text in get_entry(eid).canonical_dets:
                d = eval_gamma_expr(text, table_names(q.q, {}))
                assert attach_determinant(rep, d).a22 == reference_attached_a22(rep, d), (eid, d)
            continue
        g_params = resolve_params(get_entry(eid), q)
        s = instantiate(sid, q, {k: v for k, v in g_params.items() if k in get_entry(sid).params})
        d = quantum_determinant(rep)
        assert attach_determinant(s, d).a22 == reference_attached_a22(s, d) == rep.a22, eid


def test_offdiagonal_nilpotent_diagonal_invertible(q2):
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q2)
        assert det(rep.a11)
        assert det(rep.a22)
        assert is_nilpotent(rep.a12)
        assert is_nilpotent(rep.a21)


def test_det_attach_round_trip_on_invariants(q2, rng):
    # Any invertible invariant can be attached and read back exactly.
    from helpers import random_scalar
    from qact import centralizer, det, invertible_element_in

    for eid in ("S1", "S2b'", "S5", "S7"):
        rep = instantiate(eid, q2)
        inv = centralizer(list(rep.matrices()))
        candidates = [invertible_element_in(inv)]
        mats = inv.matrices()
        while len(candidates) < 5:
            combo = Mat.zero(4)
            for m in mats:
                combo = combo + m.scale(random_scalar(rng))
            if det(combo):
                candidates.append(combo)
        for d in candidates:
            attached = attach_determinant(rep, d)
            assert quantum_determinant(attached) == d
            assert connected_slq(attached) == rep


def test_rep_json_round_trip(q2):
    rep = instantiate("G6", q2)
    assert GLqRep.from_json(rep.to_json()) == rep


@pytest.mark.parametrize("a11, a22", [(Mat.diag(2, 3), Mat.diag(5, 7)), (Mat.diag(2, 3, 5), Mat.diag(5, 7, 11))],
                         ids=["2x2", "3x3"])
def test_representation_matrices_must_be_4x4(q2, a11, a22):
    """Another size is refused where the record is made, naming the first such block of A11, A12, A21, A22.

    The action and the power traces of decide_equivalence are 4x4 only: (diag(2, 3), 0, 0, diag(5, 7))
    satisfies the six relations at q = 2 with det A11 = 6, yet its determinants were read as 0.
    """
    zero = Mat.zero(a11.n)
    with pytest.raises(DimensionMismatch, match=r"^A11: representation matrices must be 4x4$"):
        GLqRep(a11, zero, zero, a22, q2)
    for k, key in enumerate(("A11", "A12", "A21", "A22")):
        blocks = [E4, E4, E4, E4]
        blocks[k] = a11
        with pytest.raises(DimensionMismatch, match=rf"^{key}: representation matrices must be 4x4$"):
            GLqRep(*blocks, q2)


def test_representations_compare_field_by_field(q2, q3):
    rep = instantiate("S1", q2)
    same = GLqRep(*rep.matrices(), validate_q(2))
    assert same == rep and hash(same) == hash(rep)
    assert GLqRep(*rep.matrices(), q3) != rep
    assert GLqRep(rep.a11, rep.a12, rep.a21, rep.a22.scale(2), q2) != rep
    rq = RqRep(*rep.matrices(), q2)
    assert rq != rep and rep != rq
