import random
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    act,
    dense_add,
    dense_det,
    dense_map_rows,
    dense_mul,
    dense_scale,
    dense_sub,
    is_zero_matrix,
    matvec,
    module_algebra_at_generators,
    module_algebra_on_all_pairs,
    one_relation_broken,
    random_dense_invertible,
    random_invertible_upper,
    random_nonzero_scalar,
    reference_action,
    reference_distinctness,
    reference_intertwiner_space,
    sqrt2_blocks,
    trace,
)
from qact import (
    DeterminantSingular,
    DimensionMismatch,
    EquivalenceWitness,
    GLqRep,
    InnerAction,
    Mat,
    NotEquivalent,
    Scalar,
    Singular,
    Subspace,
    Unsupported,
    action_fixed_points,
    antipode,
    antipode_check,
    as_scalar,
    build_action,
    centralizer,
    decide_equivalence,
    det,
    instantiate,
    mat_inverse,
    operator_algebra,
    operator_relation_report,
    parse_scalar,
    quantum_determinant,
    validate_q,
    verify_glq_relations,
    verify_distinctness,
    verify_module_algebra,
)
from qact import action as action_module
from qact import linalg as linalg_module
from qact import qrep as qrep_module
from qact.action import InnerAction, SpectralData, spectral_data
from qact.catalog import ENTRY_ORDER
from qact.qrep import GLQ_RELATIONS

E4 = Mat.identity(4)


def module_algebra(action):
    """The module-algebra report of an action, read off its antipode report."""
    return verify_module_algebra(antipode_check(action.rep, action.starred))


def u(i, j):
    return Mat.unit(4, i, j)


def test_build_action_basics(q2):
    action = build_action(instantiate("S1", q2))
    assert act(action, 1, 1, E4) == E4
    assert is_zero_matrix(act(action, 1, 2, E4))
    assert is_zero_matrix(act(action, 2, 1, E4))
    assert act(action, 2, 2, E4) == E4


def test_operator_columns_match_apply(q2):
    # The reference computes sum_k A_ik v S_kj on 4x4 matrices, without the operators.
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q2)
        action = build_action(rep)
        operators = {ij: Mat([[row.get(c, Scalar(0)) for c in range(16)] for row in rows])
                     for ij, rows in zip(((1, 1), (1, 2), (2, 1), (2, 2)), action.operators)}
        for p in range(1, 5):
            for q in range(1, 5):
                v = Mat.unit(4, p, q)
                for i in (1, 2):
                    for j in (1, 2):
                        expected = reference_action(rep, i, j, v)
                        assert matvec(operators[i, j], v.flatten()) == expected.flatten(), (eid, i, j, p, q)
                        assert act(action, i, j, v) == expected, (eid, i, j, p, q)


def test_operator_relations_for_s4a(q2):
    report = operator_relation_report(build_action(instantiate("S4a", q2)))
    assert report.ok
    assert len(report.checks) == 6


def test_module_algebra_passes(q2):
    for eid in ("S1", "G6"):
        action = build_action(instantiate(eid, q2))
        report = module_algebra(action)
        assert report.ok


def test_module_algebra_detects_corrupted_action(q2):
    rep = instantiate("S1", q2)
    (s11, s12), (s21, s22) = build_action(rep).starred
    bad = InnerAction(rep, ((s11 + u(1, 2), s12), (s21, s22)))
    # Only block 11 of M S breaks; S M also breaks in block 12.
    assert [c.name for c in module_algebra(bad).checks if not c.passed] == ["module_algebra_11"]
    assert [c.name for c in antipode_check(rep, bad.starred).checks if not c.passed] == [
        "counit_left_11", "counit_right_11", "counit_left_12"]
    assert not module_algebra_at_generators(bad)
    # Zero starred blocks satisfy the product identity (0 = 0) but not a_ii . 1 = 1.
    zero = Mat.zero(4)
    report = module_algebra(InnerAction(rep, ((zero, zero), (zero, zero))))
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
        ("module_algebra_11", "(M S)_11 = I"),
        ("module_algebra_22", "(M S)_22 = I"),
    ]


def test_module_algebra_agrees_with_all_pairs_oracle(q2):
    for eid in ENTRY_ORDER:
        action = build_action(instantiate(eid, q2))
        assert module_algebra(action).ok, eid
        assert module_algebra_at_generators(action), eid
        assert module_algebra_on_all_pairs(action), eid


def test_module_algebra_agrees_with_oracle_on_corruptions(q2):
    rng = random.Random(0x5EED)
    outcomes = set()
    for trial in range(12):
        action = build_action(instantiate(rng.choice(ENTRY_ORDER), q2))
        starred = [list(row) for row in action.starred]
        if trial % 3:  # every third trial keeps the starred blocks intact
            k, j, r, c = rng.randrange(2), rng.randrange(2), rng.randrange(4), rng.randrange(4)
            rows = [list(row) for row in starred[k][j].rows]
            rows[r][c] = rows[r][c] + random_nonzero_scalar(rng)
            starred[k][j] = Mat(rows)
        tampered = InnerAction(action.rep, tuple(tuple(row) for row in starred))
        verdict = module_algebra(tampered).ok
        assert verdict == module_algebra_at_generators(tampered) == module_algebra_on_all_pairs(tampered), trial
        outcomes.add(verdict)
    assert outcomes == {True, False}


def test_operator_relations_detect_non_representation(q2):
    bad_rep = GLqRep(E4, u(1, 2), Mat.zero(4), E4, q2)
    action = build_action(bad_rep)
    assert not operator_relation_report(action).ok


@pytest.mark.parametrize("k", range(6))
def test_each_operator_relation_fails_alone(q2, qc, k):
    # With identity starred blocks L_ij is X -> A_ij X, the operator A_ij (x) I,
    # and products of such operators are those of the A_ij: the 16x16 report
    # fails exactly the relation the 4x4 matrices fail.
    zero = Mat.zero(4)
    for q in (q2, qc):
        action = InnerAction(GLqRep(*one_relation_broken(k), q), ((E4, zero), (zero, E4)))
        report = operator_relation_report(action)
        assert [c.name for c in report.checks] == list(GLQ_RELATIONS)
        assert [c.passed for c in report.checks] == [i != k for i in range(6)]


def _is_zero(rows) -> bool:
    return all(x == Scalar(0) for row in rows for x in row)


def _dense_relations(x11: Mat, x12: Mat, x21: Mat, x22: Mat, q: Scalar, c: Scalar) -> list[bool]:
    """The six relations in GLQ_RELATIONS order, each product by dense_mul and each difference by dense_sub."""
    mul = lambda x, y: Mat(dense_mul(x, y))
    bc = mul(x12, x21)
    q_commute = lambda x, y: _is_zero(dense_sub(mul(x, y), Mat(dense_scale(mul(y, x), q))))
    return [q_commute(x11, x12), q_commute(x11, x21), q_commute(x12, x22), q_commute(x21, x22),
            _is_zero(dense_sub(bc, mul(x21, x12))),
            _is_zero(dense_sub(Mat(dense_sub(mul(x11, x22), mul(x22, x11))), Mat(dense_scale(bc, c))))]


def _dense_counits(a, s) -> list[bool]:
    """counit_left_ij (sum_k S_ik A_kj = delta_ij I) then counit_right_ij (sum_k A_ik S_kj), for ij = 11, 12, 21, 22."""
    passed = []
    for i in range(2):
        for j in range(2):
            want = Mat.identity(4) if i == j else Mat.zero(4)
            for x, y in ((s, a), (a, s)):
                total = dense_add(Mat(dense_mul(x[i][0], y[0][j])), Mat(dense_mul(x[i][1], y[1][j])))
                passed.append(_is_zero(dense_sub(Mat(total), want)))
    return passed


def _perturbed(rep: GLqRep, rng: random.Random):
    """rep with one entry of one block moved by a small fraction, and its antipode blocks; det_q stays invertible."""
    while True:
        k, r, c = rng.randrange(4), rng.randrange(4), rng.randrange(4)
        blocks = [[list(row) for row in m.rows] for m in rep.matrices()]
        blocks[k][r][c] = blocks[k][r][c] + Scalar(1, rng.choice((0, 1)), rng.choice((5, 7, 12)))
        bad = GLqRep(*map(Mat, blocks), rep.q)
        try:
            return bad, antipode(bad, quantum_determinant(bad))
        except DeterminantSingular:
            continue


@pytest.mark.parametrize("qname", ["q2", "q3", "qc"])
def test_relation_and_counit_reports_match_dense_reference(request, qname):
    """Every table entry with one entry of one block perturbed, so that relations fail and the antipode is not 1.

    verify_glq_relations, operator_relation_report on the action with the
    perturbed representation's antipode blocks, and antipode_check report
    exactly the pass/fail list of the dense reference: the 16x16 operators
    from dense_map_rows, every product by dense_mul.
    """
    q = request.getfixturevalue(qname)
    c = q.q - q.inv
    rng = random.Random(qname)
    failed = set()
    for eid in ENTRY_ORDER:
        bad, s = _perturbed(instantiate(eid, q), rng)
        a = ((bad.a11, bad.a12), (bad.a21, bad.a22))
        reports = {
            "relations": (verify_glq_relations(bad), _dense_relations(*bad.matrices(), q.q, c)),
            "operators": (operator_relation_report(InnerAction(bad, s)),
                          _dense_relations(*(Mat(dense_map_rows([(a[i][0], s[0][j]), (a[i][1], s[1][j])]))
                                             for i in range(2) for j in range(2)), q.q, c)),
            "counit": (antipode_check(bad, s), _dense_counits(a, s)),
        }
        for kind, (report, expected) in reports.items():
            assert [check.passed for check in report.checks] == expected, (eid, kind)
            if not all(expected):
                failed.add(kind)
    assert failed == {"relations", "operators", "counit"}


def test_invariants_examples(q2):
    assert centralizer(list(instantiate("S1", q2).matrices())) == Subspace.span_of([E4, u(4, 4), u(4, 3)])
    assert centralizer(list(instantiate("S2b'", q2).matrices())) == Subspace.span_of([E4, u(3, 3)])
    assert centralizer(list(instantiate("S4a", q2).matrices())) == Subspace.span_of([E4])


def test_invariants_contain_identity_and_determinant(q2):
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q2)
        inv = centralizer(list(rep.matrices()))
        assert inv.contains_matrix(E4)
        assert inv.contains_matrix(quantum_determinant(rep))


def test_epsilon_consistency(q2):
    for eid in ("S1", "G3b", "S7"):
        rep = instantiate(eid, q2)
        action = build_action(rep)
        for v in centralizer(list(rep.matrices())).matrices():
            assert act(action, 1, 1, v) == v
            assert act(action, 2, 2, v) == v
            assert is_zero_matrix(act(action, 1, 2, v))
            assert is_zero_matrix(act(action, 2, 1, v))


def test_fixed_points_equal_centralizer(q2):
    for eid in ("S1", "S2a", "G7"):
        rep = instantiate(eid, q2)
        action = build_action(rep)
        assert action_fixed_points(action) == centralizer(list(rep.matrices()))


def test_operator_rows_are_built_once_and_read_lazily(q2, monkeypatch):
    """The relation report and the fixed points read one set of L_ij rows; no map after a {0} kernel is made."""
    action = build_action(instantiate("S1", q2))
    built = []
    monkeypatch.setattr(action_module, "_operator_rows", lambda *args, op=action_module._operator_rows:
                        built.append(1) or op(*args))
    assert operator_relation_report(action).ok
    assert action_fixed_points(action) == centralizer(list(action.rep.matrices()))
    assert len(built) == 4
    # With zero starred blocks every L_ij is 0, so L_11 - 1 = -1 leaves the kernel {0}: of the
    # diagonal copies L_ii - 1, only the first is made, one subtraction per diagonal entry.
    zero = Mat.zero(4)
    dead = InnerAction(action.rep, ((zero, zero), (zero, zero)))
    subtractions = []
    monkeypatch.setattr(Scalar, "__sub__", lambda x, y, op=Scalar.__sub__: subtractions.append(1) or op(x, y))
    assert action_fixed_points(dead).dim == 0
    assert len(subtractions) == 16


def test_equivalence_reflexive(q2):
    rep = instantiate("S1", q2)
    verdict = decide_equivalence(rep, rep)
    assert verdict.equivalent
    assert verdict.u == E4
    assert verdict.alpha1 == as_scalar(1)
    assert verdict.alpha2 == as_scalar(1)


def test_witness_recovery_spec_example(q2, rng):
    rep = instantiate("S2b", q2)
    uu = random_invertible_upper(rng)
    w = EquivalenceWitness(uu, q2.q, as_scalar(3))
    moved = w.apply(rep)
    verdict = decide_equivalence(rep, moved)
    assert verdict.equivalent
    assert verdict.apply(rep) == moved


def test_witness_recovery_nontriangular_u(q2, rng):
    # Conjugation by a non-triangular u destroys triangularity of every
    # block; the power traces still pin both scalars.
    rep = instantiate("S3", q2)
    uu = Mat([[as_scalar(1), as_scalar(0), as_scalar(0), as_scalar(0)],
              [as_scalar(2), as_scalar(1), as_scalar(0), as_scalar(1)],
              [as_scalar(0), as_scalar(1), as_scalar(1), as_scalar(0)],
              [as_scalar(1), as_scalar(0), as_scalar(0), as_scalar(1)]])
    assert not uu.is_upper_triangular() and not uu.is_lower_triangular()
    w = EquivalenceWitness(uu, as_scalar(3), Scalar(1, 1))
    moved = w.apply(rep)
    verdict = decide_equivalence(rep, moved)
    assert verdict.equivalent
    assert verdict.apply(rep) == moved


def test_witness_recovery_nontriangular_a22(q2, rng):
    # G1b's A22 is not triangular, and its power traces alone pin alpha2.
    rep = instantiate("G1b", q2)
    uu = random_invertible_upper(rng)
    w = EquivalenceWitness(uu, as_scalar(2), Scalar(1, 0, 2))
    moved = w.apply(rep)
    verdict = decide_equivalence(rep, moved)
    assert verdict.equivalent
    assert verdict.apply(rep) == moved


def test_witness_check_inverts_nothing(q2, monkeypatch):
    """alpha u A = A' u is checked on products alone, and a non-intertwiner u fails it."""
    rep = instantiate("S3", q2)
    moved = EquivalenceWitness(random_dense_invertible(random.Random(0x11)), Scalar(2), Scalar(-1, 1)).apply(rep)
    inversions = []
    for module in (linalg_module, action_module, qrep_module):
        monkeypatch.setattr(module, "mat_inverse", lambda m: inversions.append(m) or mat_inverse(m))
    verdict = decide_equivalence(rep, moved)
    assert inversions == []
    assert verdict.equivalent and verdict.apply(rep) == moved
    inversions.clear()

    # An invertible u that intertwines no block pair: the exact check must reject it.
    bogus = Mat([[as_scalar(x) for x in row] for row in ((1, 2, 0, 1), (0, 1, 1, 0), (3, 0, 1, 1), (1, 0, 0, 2))])
    assert det(bogus) and bogus * rep.a11 != rep.a11 * bogus
    monkeypatch.setattr(action_module, "invertible_element_in", lambda space: bogus)
    with pytest.raises(AssertionError, match="^intertwiner solution failed exact verification$"):
        decide_equivalence(rep, rep)
    assert inversions == []


def test_not_equivalent_table_pairs(q2):
    s1 = instantiate("S1", q2)
    s3 = instantiate("S3", q2)
    verdict = decide_equivalence(s1, s3)
    assert not verdict.equivalent
    # Same entry, different parameter: still a different action.
    s1b = instantiate("S1", q2, {"alpha": 7})
    assert not decide_equivalence(s1, s1b).equivalent


def test_witness_inverse_and_compose(q2, rng):
    rep = instantiate("S5", q2)
    w1 = EquivalenceWitness(random_invertible_upper(rng), as_scalar(2), as_scalar(3))
    w2 = EquivalenceWitness(random_invertible_upper(rng), Scalar(1, 0, 2), as_scalar(5))
    r1 = w1.apply(rep)
    r2 = w2.apply(r1)
    inverse = EquivalenceWitness(mat_inverse(w1.u), w1.alpha1.inv(), w1.alpha2.inv())
    assert inverse.apply(r1) == rep
    composite = EquivalenceWitness(w2.u * w1.u, w2.alpha1 * w1.alpha1, w2.alpha2 * w1.alpha2)
    assert composite.apply(rep) == r2


@pytest.mark.parametrize("q_text", ["2", "3", "1+1i"])
def test_apply_equals_the_two_product_conjugate(q_text):
    """apply conjugates on Gaussian integers and gives exactly (u x u^-1) alpha_j, block by block."""
    rng = random.Random(0xA991)
    q = validate_q(parse_scalar(q_text))
    for entry in ENTRY_ORDER:
        rep = instantiate(entry, q)
        uu = Mat.zero(4)
        while not det(uu):  # mixed Gaussian-rational denominators
            uu = random_dense_invertible(rng).scale(Scalar(2, 1, 3)) + Mat.diag(Scalar(1, 0, 5), 0, 0, Scalar(0, 1, 7))
        alphas = Scalar(3, -2, 5), Scalar(-1, 4, 7)
        uinv = mat_inverse(uu)
        want = [(uu * x * uinv).scale(alpha) for x, alpha in zip(rep.matrices(), alphas * 2)]
        moved = EquivalenceWitness(uu, *alphas).apply(rep)
        assert list(moved.matrices()) == want and moved.q == rep.q, entry


def test_apply_refuses_a_singular_or_misfit_u(q2):
    rep = instantiate("S1", q2)
    singular = Mat([[as_scalar(x) for x in row] for row in ((1, 2, 0, 1), (2, 4, 0, 2), (0, 1, 1, 0), (1, 0, 0, 1))])
    with pytest.raises(Singular, match="^matrix of size 4 has rank 3$"):
        EquivalenceWitness(singular, as_scalar(2), as_scalar(3)).apply(rep)
    with pytest.raises(DimensionMismatch, match="^sizes 3 and 4 differ$"):
        EquivalenceWitness(Mat.identity(3), as_scalar(2), as_scalar(3)).apply(rep)


def test_witness_takes_int_scales(q2):
    """Int scales are Scalars from the constructor on: to_json and apply read them as Scalar(2) and Scalar(3)."""
    rep, uu = instantiate("S5", q2), random_dense_invertible(random.Random(0x2B))
    w, scalars = EquivalenceWitness(uu, 2, 3), EquivalenceWitness(uu, Scalar(2), Scalar(3))
    assert w.to_json() == scalars.to_json() and w.to_json()["alpha1"] == {"re": "2", "im": "0"}
    assert w.apply(rep) == scalars.apply(rep)
    assert EquivalenceWitness(Mat.identity(4), 2, 3).to_json()["alpha2"] == {"re": "3", "im": "0"}


def _gaussian_mat(rng: random.Random, rows: int, cols: int) -> list[list[Scalar]]:
    return [[Scalar(rng.randint(-3, 3), rng.randint(-2, 2) if rng.random() < 0.4 else 0) for _ in range(cols)]
            for _ in range(rows)]


def _adjugate_cases() -> list:
    """Seeded Gaussian-integer 4x4 matrices u and their ranks: dense, singular, and with a zero minor or column."""
    rng = random.Random(0xAD1)
    cases = [pytest.param(Mat(_gaussian_mat(rng, 4, 4)), 4, id=f"dense{k}") for k in range(12)]
    for rank in (3, 2, 1):
        for k in range(3):
            left, right = _gaussian_mat(rng, 4, rank), _gaussian_mat(rng, rank, 4)
            product = [[sum((left[i][m] * right[m][j] for m in range(rank)), Scalar(0)) for j in range(4)]
                       for i in range(4)]
            cases.append(pytest.param(Mat(product), rank, id=f"rank{rank}#{k}"))
    cases.append(pytest.param(Mat.zero(4), 0, id="rank0"))
    cases += [pytest.param(Mat([[Scalar(int(c == p)) for c in range(4)] for p in perm]), 4, id=name)
              for name, perm in (("even permutation", (1, 0, 3, 2)), ("odd permutation", (1, 2, 3, 0)))]
    for name in ("zero top minor", "zero column in the bottom half"):
        m = Mat.zero(4)
        while not det(m):
            rows = _gaussian_mat(rng, 4, 4)
            if name == "zero top minor":
                rows[1][:2] = [x * Scalar(2) for x in rows[0][:2]]  # the minor of rows 0-1 on columns 0, 1 is 0
            else:
                rows[2][3] = rows[3][3] = Scalar(0)  # column 3 is zero in rows 2-3
            m = Mat(rows)
        cases.append(pytest.param(m, 4, id=name))
    return cases


@pytest.mark.parametrize("u,rank", _adjugate_cases())
def test_adjugate_by_complementary_minors(u, rank):
    adj, (da, db) = action_module._adjugate([[(x.a, x.b) for x in row] for row in u.rows])
    d = Scalar(da, db)
    assert d == dense_det(u)
    rows = [[Scalar(0)] * 4 for _ in range(4)]
    for i, row in enumerate(adj):
        for j, a, b in row:
            assert a or b
            rows[i][j] = Scalar(a, b)
    adj = Mat(rows)
    assert u * adj == adj * u == Mat.identity(4).scale(d)
    if rank < 4:
        with pytest.raises(Singular, match=f"^matrix of size 4 has rank {rank}$"):
            mat_inverse(u)
    else:
        assert adj.scale(d.inv()) == mat_inverse(u)


def test_equivalence_relation_on_conjugate_family(q2, rng):
    rep = instantiate("S6", q2)
    copies = [rep]
    for _ in range(3):
        w = EquivalenceWitness(
            random_invertible_upper(rng),
            random_nonzero_scalar(rng),
            random_nonzero_scalar(rng),
        )
        copies.append(w.apply(rep))
    for a in copies:
        for b in copies:
            verdict = decide_equivalence(a, b)
            assert verdict.equivalent
            assert verdict.apply(a) == b


def _diagonal_rep(a11, a22, q):
    """(a11, 0, 0, a22), checked against the six relations."""
    rep = GLqRep(a11, Mat.zero(4), Mat.zero(4), a22, q)
    assert verify_glq_relations(rep).ok
    return rep


def test_unsupported_inputs_raise(q2):
    # The power traces pin alpha1^2 = 2, which has no root in Q(i).
    a11, companion = sqrt2_blocks()
    r1, r2 = _diagonal_rep(a11, E4, q2), _diagonal_rep(companion, E4, q2)
    with pytest.raises(Unsupported) as refused:
        decide_equivalence(r1, r2)
    assert str(refused.value) == "alpha^2 = 2 has no root in Q(i)"
    # Both spectra are filtered before any root is taken, so the refusal
    # does not depend on which block holds the scale outside Q(i) ...
    moved = _diagonal_rep(E4, companion, q2)
    with pytest.raises(Unsupported) as refused:
        decide_equivalence(_diagonal_rep(E4, a11, q2), moved)
    assert str(refused.value) == "alpha^2 = 2 has no root in Q(i)"
    # ... and an A22 spectrum that no scale matches (1, 1, 1, 1 against
    # 2, 2, 8, 8) settles the pair without it.
    skewed = _diagonal_rep(companion, companion * companion, q2)
    verdict = decide_equivalence(r1, skewed)
    assert isinstance(verdict, NotEquivalent) and verdict.obstruction == "spectrum"
    # Nilpotent blocks pass the spectrum test at every scale, and the
    # companion matrix of x^4 - x (eigenvalues 0 and the cube roots of unity)
    # pins only alpha1^3: both are singular, so det_q is too.
    n1 = _diagonal_rep(u(1, 2) + u(2, 3) + u(3, 4), E4, q2)
    n2 = _diagonal_rep(u(2, 1) + u(3, 2).scale(3) + u(4, 3), E4, q2)
    c = _diagonal_rep(u(2, 1) + u(3, 2) + u(4, 3) + u(2, 4), E4, q2)
    for p1, p2 in ((n1, n2), (c, c)):
        with pytest.raises(DeterminantSingular, match="^quantum determinant is singular$"):
            decide_equivalence(p1, p2)


def test_nilpotent_blocks(q2):
    # (N, 0, 0, I) has no action, so no verdict may come back.
    rep = _diagonal_rep(u(1, 2) + u(2, 3) + u(3, 4), E4, q2)
    unipotent, skewed = (_diagonal_rep(u(1, 2) + u(2, 3), a22, q2) for a22 in (E4, Mat.diag(1, 1, 1, 2)))
    # The spectra match with alpha1 = 2 (or alpha2 = 3), but A11 (or A22) is
    # singular.
    a11_found = (_diagonal_rep(Mat.diag(1, 0, 0, 0), E4, q2), _diagonal_rep(Mat.diag(2, 0, 0, 0), E4, q2))
    a22_found = (_diagonal_rep(E4, Mat.diag(1, 0, 0, 0), q2), _diagonal_rep(E4, Mat.diag(3, 0, 0, 0), q2))
    # A11 is checked before A22: its spectra match (alpha1 = 2) and it is
    # singular, although the spectra of A22 differ.
    a11_first = (_diagonal_rep(Mat.diag(1, 1, 2, 0), E4, q2),
                 _diagonal_rep(Mat.diag(2, 2, 4, 0), Mat.diag(1, 1, 1, 2), q2))
    for r1, r2 in ((rep, rep), (unipotent, skewed), (skewed, unipotent), a11_found, a22_found, a11_first):
        with pytest.raises(DeterminantSingular):
            decide_equivalence(r1, r2)
    # No scale maps a nilpotent block onto an invertible one, or back: that
    # is a fact about the spectra, which needs no action.
    ident = _diagonal_rep(E4, E4, q2)
    for r1, r2 in ((rep, ident), (ident, rep)):
        verdict = decide_equivalence(r1, r2)
        assert isinstance(verdict, NotEquivalent) and verdict.obstruction == "spectrum"


@pytest.mark.parametrize("spectrum, alpha1", [
    ((1, -1, 2, -2), Scalar(-3)),  # p_1 = p_3 = 0: the power traces pin alpha1^2
    ((1, Scalar(0, 1), -1, Scalar(0, -1)), Scalar(0, -2)),  # only p_4 != 0: they pin alpha1^4
])
def test_witness_needs_every_root(q2, spectrum, alpha1):
    # Every root of alpha1^g scales the spectrum of A11 correctly, but the
    # distinct eigenvalues of A22 leave only alpha1 itself.
    rep = GLqRep(Mat.diag(*spectrum), Mat.zero(4), Mat.zero(4), Mat.diag(1, 2, 3, 5), q2)
    uu = Mat([[as_scalar(x) for x in row] for row in ((1, 2, 0, 1), (1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 1))])
    moved = EquivalenceWitness(uu, alpha1, as_scalar(2)).apply(rep)
    verdict = decide_equivalence(rep, moved)
    assert verdict.equivalent and verdict.alpha1 == alpha1
    assert verdict.apply(rep) == moved


@pytest.mark.parametrize("q_text", ["2", "3", "1+1i"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dense_conjugates_are_equivalent(q_text, seed):
    # Includes the traceless S5 (alpha = -(q^2 + q + 1)), which no trace
    # ratio can scale.
    rng = random.Random(seed)
    for label, rep in _table_and_traceless(q_text):
        w = EquivalenceWitness(
            random_dense_invertible(rng), random_nonzero_scalar(rng), random_nonzero_scalar(rng)
        )
        moved = w.apply(rep)
        verdict = decide_equivalence(rep, moved)
        assert verdict.equivalent, label
        assert verdict.apply(rep) == moved, label


@lru_cache(maxsize=None)
def _table_and_traceless(q_text):
    q = validate_q(parse_scalar(q_text))
    reps = [(eid, instantiate(eid, q)) for eid in ENTRY_ORDER]
    qq = q.q
    reps.append(("S5 traceless", instantiate("S5", q, {"alpha": -(qq * qq + qq + 1)})))
    assert not trace(reps[-1][1].a11)
    return reps


def test_intertwiner_space_matches_inverse_scaled_system(monkeypatch):
    """alpha u A = A' u has the RREF basis of u A = alpha^-1 A' u, at every candidate pair tried."""
    solve = action_module._intertwiner_space
    tried = []

    def checked(r1, r2, alpha1, alpha2, kernels=None):
        space = solve(r1, r2, alpha1, alpha2, kernels)
        assert space == reference_intertwiner_space(r1, r2, alpha1, alpha2)
        tried.append(space.dim)
        return space

    monkeypatch.setattr(action_module, "_intertwiner_space", checked)
    reps = [rep for _, rep in _table_and_traceless("2")[:20]]
    for i, r1 in enumerate(reps):
        for r2 in reps[i + 1:]:
            assert not decide_equivalence(r1, r2).equivalent
    rng = random.Random(0x1E7)
    for q_text in ("3", "1+1i"):
        for label, rep in _table_and_traceless(q_text)[::5]:
            w = EquivalenceWitness(random_dense_invertible(rng), random_nonzero_scalar(rng), random_nonzero_scalar(rng))
            assert decide_equivalence(rep, w.apply(rep)).equivalent, label
    assert len(tried) >= 20 and any(tried)


def test_different_q_is_a_q_obstruction(q2, q3):
    verdict = decide_equivalence(instantiate("S1", q2), instantiate("S1", q3))
    assert verdict == NotEquivalent(0, obstruction="q")
    assert verdict.to_json() == {"equivalent": False, "candidates_tried": 0, "obstruction": "q"}


def test_certificates_compare_field_by_field():
    assert NotEquivalent(3) == NotEquivalent(3, "exhausted") and hash(NotEquivalent(3)) == hash(NotEquivalent(3))
    assert NotEquivalent(3) != NotEquivalent(3, "spectrum") and NotEquivalent(3) != NotEquivalent(4)


def test_not_equivalent_json(q2):
    verdict = decide_equivalence(instantiate("S1", q2), instantiate("S4a", q2))
    assert isinstance(verdict, NotEquivalent)
    doc = verdict.to_json()
    assert doc["equivalent"] is False
    assert doc["candidates_tried"] >= 0


def test_operator_algebra_matches_closure(q2):
    rep = instantiate("S2a'", q2, {"alpha": 2})
    space = operator_algebra(rep)
    assert space.dim == 7


@pytest.mark.parametrize("q_text", ["2", "3", "1+1i"])
def test_given_spectral_data_changes_no_verdict(q_text):
    reps = [rep for _, rep in _table_and_traceless(q_text)[:20]]
    spectra = [spectral_data(rep) for rep in reps]
    for i, r1 in enumerate(reps):
        for j in range(i, len(reps)):
            given = decide_equivalence(r1, reps[j], (spectra[i], spectra[j])).to_json()
            assert given == decide_equivalence(r1, reps[j]).to_json(), (ENTRY_ORDER[i], ENTRY_ORDER[j])
    # The data given is the data read: S1's traces set against S4a's are a spectrum obstruction.
    verdict = decide_equivalence(reps[0], reps[0], (spectra[0], spectral_data(instantiate("S4a", reps[0].q))))
    assert isinstance(verdict, NotEquivalent) and verdict.obstruction == "spectrum"


def _odd_traces_vanish(q):
    """(J_2(1) + diag(-1, -1), 0, 0, 1): A11 has p1 = p3 = 0, so its pin is g = 2 and alpha1 = -1 is tried
    before 1, and no invertible u realizes -1, as -A11 has a 2x2 Jordan block at -1, not at 1."""
    return _diagonal_rep(Mat.diag(1, 1, -1, -1) + u(1, 2), E4, q)


@pytest.mark.parametrize("q_text", ["2", "3", "1+1i"])
def test_given_centralizer_changes_no_verdict(q_text, monkeypatch):
    """A centralizer solved into a kernels dict is read as a self pair's space under the scales (1, 1).

    The dict holds only what solve_homogeneous computed, so the verdict is the
    one without it; the candidate (1, 1) is not solved again, and every other
    candidate still is.
    """
    q = validate_q(parse_scalar(q_text))
    work = []  # one mark per first map reduced or later map evaluated
    for name in ("_operator_rows", "_sylvester_system"):
        op = getattr(linalg_module, name)
        monkeypatch.setattr(linalg_module, name, lambda *args, op=op: work.append(1) or op(*args))
    solve, solved = action_module._intertwiner_space, []

    def recorded(r1, r2, alpha1, alpha2, kernels=None):
        before = len(work)
        space = solve(r1, r2, alpha1, alpha2, kernels)
        solved.append(((alpha1, alpha2), len(work) > before))
        return space

    monkeypatch.setattr(action_module, "_intertwiner_space", recorded)
    reps = [rep for _, rep in _table_and_traceless(q_text)[:20]] + [_odd_traces_vanish(q)]
    one = Scalar(1)
    for rep in reps:
        solved.clear()
        verdict = decide_equivalence(rep, rep)
        without = solved[:]
        kernels = {}
        centralizer(list(rep.matrices()), kernels=kernels)
        solved.clear()
        shared = decide_equivalence(rep, rep, kernels=kernels)
        assert shared.to_json() == verdict.to_json()
        # The same candidates are tried: (1, 1) is read from the dict, and every other one is solved.
        assert [pair for pair, _ in solved] == [pair for pair, _ in without]
        assert (one, one) in dict(solved) and all(worked == (pair != (one, one)) for pair, worked in solved)
    assert verdict.candidates_tried == 2 and verdict.alpha1 == 1 and solved == [((Scalar(-1), one), True),
                                                                                  ((one, one), False)]
    # A centralizer in the dict is not read for two different representations, even at the scales (1, 1).
    moved = EquivalenceWitness(random_dense_invertible(random.Random(0xCE)), one, one).apply(reps[0])
    kernels = {}
    centralizer(list(reps[0].matrices()), kernels=kernels)
    solved.clear()
    verdict = decide_equivalence(reps[0], moved, kernels=kernels)
    assert verdict.equivalent and solved == [((one, one), True)]
    assert verdict.to_json() == decide_equivalence(reps[0], moved).to_json()


def test_a_wrong_centralizer_never_gives_a_wrong_witness(q2, monkeypatch):
    """A wrong intertwiner space never gives a wrong witness.

    The span of an invertible u that commutes with not every block, read as a
    self pair's space, yields u, which the witness check refuses: no witness
    that fails apply(r) == r comes back.
    """
    rng = random.Random(0xC3)
    for rep in [instantiate(eid, q2) for eid in ENTRY_ORDER] + [_odd_traces_vanish(q2)]:
        stranger = random_dense_invertible(rng)
        assert any(stranger * x != x * stranger for x in rep.matrices())
        monkeypatch.setattr(action_module, "_intertwiner_space", lambda *args: Subspace.span_of([stranger]))
        with pytest.raises(AssertionError, match="failed exact verification"):
            decide_equivalence(rep, rep)


@pytest.mark.parametrize("q_text", ["2", "3", "1+1i", "-1/2"])
def test_distinctness_matches_every_pair_decided(q_text):
    """verify_distinctness, with its spectral classes and shared kernels, equals deciding every pair alone.

    The set adds the traceless S5, whose A11 has p1 = 0, and a representation
    whose A11 has p1 = p3 = 0 (pin g = 2), to the twenty entries.
    """
    q = validate_q(parse_scalar(q_text))
    reps = {**dict(_table_and_traceless(q_text)), "odd traces": _odd_traces_vanish(q)}
    want = reference_distinctness(reps).to_json()
    assert verify_distinctness(reps).to_json() == want
    assert verify_distinctness(reps, kernels={}).to_json() == want
    table = dict(list(reps.items())[:20])
    assert verify_distinctness(table).to_json() == reference_distinctness(table).to_json()
    # A singular A11 raises as every pair decided would: here at the leader comparison, or alone at its self pair.
    singular = _diagonal_rep(Mat.diag(1, 1, 2, 0), E4, q)
    for bad in ({"S1": reps["S1"], "singular": singular, "scaled": _diagonal_rep(Mat.diag(2, 2, 4, 0), E4, q)},
                {"S1": reps["S1"], "singular": singular}):
        for decide in (verify_distinctness, reference_distinctness):
            with pytest.raises(DeterminantSingular):
                decide(bad)


def test_spectral_data_json(q2):
    # p_k = 1 + 2^k + 3^k + 4^k, det 24; p_k = i^k + 2 + 2^-k, det i/2.
    rep = GLqRep(Mat.diag(1, 2, 3, 4), Mat.zero(4), Mat.zero(4), Mat.diag(Scalar(0, 1), 1, 1, Scalar(1, 0, 2)), q2)
    real = lambda text: {"re": text, "im": "0"}
    assert spectral_data(rep).to_json() == {
        "A11": {"power_traces": [real("10"), real("30"), real("100"), real("354")], "det": real("24")},
        "A22": {
            "power_traces": [{"re": "5/2", "im": "1"}, real("5/4"), {"re": "17/8", "im": "-1"}, real("49/16")],
            "det": {"re": "0", "im": "1/2"},
        },
    }
    # S1 at q = 2, cross-checked against traces of matrix powers and the dense determinant.
    rep = instantiate("S1", q2)
    doc = spectral_data(rep).to_json()
    assert doc["A11"] == {"power_traces": [Scalar(p).to_json() for p in (8, 22, 74, 274)], "det": Scalar(8).to_json()}
    assert doc["A22"]["det"] == Scalar(1, 0, 8).to_json()
    for name, x in (("A11", rep.a11), ("A22", rep.a22)):
        powers = [x, x * x, x * x * x, x * x * x * x]
        assert doc[name] == {"power_traces": [trace(p).to_json() for p in powers], "det": dense_det(x).to_json()}


def _times(rep: GLqRep, g) -> GLqRep:
    """The blocks A'_ij = sum_k A_ik g_kj of A G, for a 2x2 matrix g of scalars."""
    (a11, a12), (a21, a22) = rep.blocks
    (g11, g12), (g21, g22) = g
    return GLqRep(a11.scale(g11) + a12.scale(g21), a11.scale(g12) + a12.scale(g22),
                  a21.scale(g11) + a22.scale(g21), a21.scale(g12) + a22.scale(g22), rep.q)


_NOT_DIAGONAL = {
    "upper": ((1, 1), (0, 1)),
    "lower": ((1, 0), (1, 1)),
    "dense": ((2, 1), (1, 1)),
    "anti-diagonal": ((0, 1), (1, 0)),
}


@pytest.mark.parametrize("q_text", ["2", "3", "1+i"])
def test_only_a_diagonal_g_keeps_the_relations(q_text):
    # A G with S' = G^-1 S has the same action for any G in GL_2; as the
    # decide_equivalence docstring shows, A G is a GL_q representation only
    # for a diagonal G, so the scales alpha1, alpha2 act column by column.
    q = validate_q(parse_scalar(q_text))
    for eid in ENTRY_ORDER:
        rep = instantiate(eid, q)
        assert verify_glq_relations(_times(rep, ((2, 0), (0, Scalar(0, 1))))).ok, eid
        for name, g in _NOT_DIAGONAL.items():
            assert not verify_glq_relations(_times(rep, g)).ok, (eid, name)


def _left_times(g, s):
    """The blocks S'_kj = sum_l g_kl S_lj of G S, for a 2x2 matrix g of scalars."""
    return tuple(tuple(s[0][j].scale(g[k][0]) + s[1][j].scale(g[k][1]) for j in (0, 1)) for k in (0, 1))


def _inverse(g):
    (g11, g12), (g21, g22) = (map(as_scalar, row) for row in g)
    d = g11 * g22 - g12 * g21
    return ((g22 / d, -g12 / d), (-g21 / d, g11 / d))


@pytest.mark.parametrize("q_text", ["2", "3", "1+i"])
def test_a_non_diagonal_g_keeps_the_operators(q_text):
    # The converse of test_only_a_diagonal_g_keeps_the_relations: the
    # operators L_ij of A G with S' = G^-1 S are those of A for every G in
    # GL_2, as the decide_equivalence docstring uses, although A G breaks a
    # relation when G is not diagonal.
    q = validate_q(parse_scalar(q_text))
    for eid in ENTRY_ORDER:
        action = build_action(instantiate(eid, q))
        for name, g in _NOT_DIAGONAL.items():
            moved = InnerAction(_times(action.rep, g), _left_times(_inverse(g), action.starred))
            assert moved.operators == action.operators, (eid, name)


def test_spectral_determinants_match_elimination(q2, qc):
    rng = random.Random(0x5D)
    nilpotent = GLqRep(u(1, 2) + u(2, 3) + u(3, 4), Mat.zero(4), Mat.zero(4), Mat.diag(1, 1, 1, 0), q2)
    reps = [nilpotent]
    for q in (q2, qc):
        for eid in ENTRY_ORDER:
            rep = instantiate(eid, q)
            reps += [rep, EquivalenceWitness(random_dense_invertible(rng), Scalar(2), Scalar(0, 1)).apply(rep)]
    for rep in reps:
        assert spectral_data(rep).dets == (det(rep.a11), det(rep.a22))


# Gaussian rationals over the denominators 1, 2, 3 and 6, zero included.
_mixed_scalars = st.builds(Scalar, st.integers(-6, 6), st.integers(-6, 6), st.sampled_from((1, 2, 3, 6)))


@st.composite
def _power_trace_inputs(draw):
    """A 4x4 matrix: dense over mixed denominators, real, zero, or nilpotent (strictly upper triangular, conjugated)."""
    kind = draw(st.sampled_from(("dense", "real", "zero", "nilpotent")))
    if kind == "zero":
        return Mat.zero(4)
    entries = draw(st.lists(_mixed_scalars, min_size=16, max_size=16))
    if kind == "real":
        entries = [Scalar(x.a, 0, x.d) for x in entries]
    x = Mat([entries[4 * i:4 * i + 4] for i in range(4)])
    if kind == "nilpotent":
        x = Mat([[e if j > i else Scalar(0) for j, e in enumerate(r)] for i, r in enumerate(x.rows)])
        w = random_dense_invertible(random.Random(draw(st.integers(0, 2**16))))
        x = w * x * mat_inverse(w)
    return x


@settings(max_examples=60, deadline=None)
@given(_power_trace_inputs())
def test_power_traces_match_dense_powers(x):
    power, want = x, []
    for _ in range(4):
        want.append(sum((power.rows[i][i] for i in range(4)), Scalar(0)))
        power = Mat(dense_mul(power, x))
    got, got_det = action_module._power_traces(x)
    assert list(got) == want
    assert got_det == det(x)
    assert all(p.d > 0 and gcd(p.a, p.b, p.d) == 1 for p in (*got, got_det))


def _pin(x, x2):
    """The pin of A11 = x against A11 = x2, A22 = I on both sides."""
    data = lambda a11: SpectralData(*zip(action_module._power_traces(a11), action_module._power_traces(E4)))
    return action_module._spectral_pin(data(x), data(x2), 0)


@pytest.mark.parametrize("x, x2, pin", [
    (Mat.diag(1, 2, 3, 4), Mat.diag(2, 4, 6, 8), (1, Scalar(2))),  # p_1 != 0: g = 1, w = alpha
    (Mat.diag(1, -1, 2, -2), Mat.diag(3, -3, 6, -6), (2, Scalar(9))),  # p_1 = p_3 = 0: g = 2, w = alpha^2
    (Mat.diag(1, Scalar(0, 1), -1, Scalar(0, -1)), Mat.diag(2, Scalar(0, 2), -2, Scalar(0, -2)), (4, Scalar(16))),
    # The traceless S5 at q = 2, A11 = diag(-7, 4, 2, 1): p_1 = 0 and the others are not, so g = 1 is no k,
    # and w = (p'_3 / p_3) / (p'_2 / p_2).
    (Mat.diag(-7, 4, 2, 1), Mat.diag(-21, 12, 6, 3), (1, Scalar(3))),
    (Mat.diag(-7, 4, 2, 1), Mat.diag(-14, 8, 4, 2).scale(Scalar(0, 1, 2)), (1, Scalar(0, 1))),
    # w is right at k = g, wrong at a k > g.
    (Mat.diag(1, 2, 3, 4), Mat.diag(2, 2, 3, 3), None),  # p'_1 = p_1, p'_2 = 26 != 30
    (Mat.diag(1, -1, 2, -2), Mat.diag(Scalar(11, 0, 5), Scalar(-11, 0, 5), Scalar(2, 0, 5), Scalar(-2, 0, 5)), None),
])
def test_spectral_pin(x, x2, pin, monkeypatch):
    inversions = []
    monkeypatch.setattr(Scalar, "inv", lambda s, op=Scalar.inv: inversions.append(1) or op(s))
    assert _pin(x, x2) == pin
    assert len(inversions) == 1  # w takes the one division


def test_spectral_pin_fallback_checks_every_k():
    # p_1 = 0, p'_2 = 4 p_2 and p'_3 = 8 p_3, so w = 2 by the fallback, but p'_4 != 16 p_4.
    x = Mat.diag(-7, 4, 2, 1)
    p, d = action_module._power_traces(x)
    p4_wrong = (Scalar(0), p[1] * 4, p[2] * 8, p[3] * 15)
    data = lambda a11_traces: SpectralData((a11_traces, action_module._power_traces(E4)[0]), (d, Scalar(1)))
    assert action_module._spectral_pin(data(p), data(p4_wrong), 0) is None
    assert action_module._spectral_pin(data(p), data((Scalar(0), p[1] * 4, p[2] * 8, p[3] * 16)), 0) == (1, Scalar(2))
