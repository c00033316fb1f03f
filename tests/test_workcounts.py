"""Work-count guards: Scalar and Mat operations and determinants for fixed inputs.

Exact arithmetic does the same work on every run, so these counts do not
jitter.  Each bound is a measured count plus 5%; a change that brings back
arithmetic on zero entries, or determinants, inversions and matrix sums
nobody reads, fails here.
"""

import ast
import random
import sys

import pytest

from helpers import jordan, random_dense_invertible
from qact import (
    EquivalenceWitness,
    GLqRep,
    Mat,
    NotEquivalent,
    Scalar,
    decide_equivalence,
    default_model,
    instantiate,
    linalg,
    verify_table,
)
from qact import action as action_module
from qact.catalog import ENTRY_ORDER


@pytest.fixture
def counts(monkeypatch):
    """Counters of Scalar.__mul__, __sub__, inv and minus_product calls, of Mat.__mul__,
    __add__ and __eq__ calls, of linalg.det calls, of power-trace evaluations, of
    row products: linalg._product_rows, the loop of Mat.__mul__ and of the
    kernel solve's rows x basis products and recombinations, of Sylvester
    systems: linalg._sylvester_system, a later map L X - X R of
    solve_homogeneous evaluated on the kernel basis, of first maps reduced:
    linalg._operator_rows as the kernel solve calls it, of kernel solves:
    linalg.solve_homogeneous, of zero tests of sums of products:
    linalg.products_vanish, one per identity checked, of the operator
    algebra closure's products g x: linalg._left_product, and of spectral
    pins: action._spectral_pin, wherever it is called.

    The fused kernel minus_product (x - y*f) hides a product, and so do the
    row product, the Sylvester system, the zero test and the closure product,
    which sum each entry on plain ints; so each is counted under its own key.
    """
    tally = {"mul": 0, "sub": 0, "inv": 0, "minus_product": 0, "mat_mul": 0, "mat_add": 0, "mat_eq": 0, "det": 0,
             "power_traces": 0, "row_products": 0, "sylvester": 0, "first": 0, "solve": 0, "vanish": 0, "closure": 0,
             "pins": 0}

    def counted(op, key):
        def call(*args, **kwargs):
            tally[key] += 1
            return op(*args, **kwargs)

        return call

    for name, key in (("__mul__", "mul"), ("__sub__", "sub"), ("inv", "inv"), ("minus_product", "minus_product")):
        monkeypatch.setattr(Scalar, name, counted(getattr(Scalar, name), key))
    for name, key in (("__mul__", "mat_mul"), ("__add__", "mat_add"), ("__eq__", "mat_eq")):
        monkeypatch.setattr(Mat, name, counted(getattr(Mat, name), key))
    for owner, attr, key in ((linalg, "det", "det"), (linalg, "products_vanish", "vanish"),
                             (linalg, "solve_homogeneous", "solve"), (action_module, "_spectral_pin", "pins")):
        op = getattr(owner, attr)
        for name, module in list(sys.modules.items()):
            if (name == "qact" or name.startswith("qact.")) and getattr(module, attr, None) is op:
                monkeypatch.setattr(module, attr, counted(op, key))
    monkeypatch.setattr(action_module, "_power_traces", counted(action_module._power_traces, "power_traces"))
    monkeypatch.setattr(linalg, "_product_rows", counted(linalg._product_rows, "row_products"))
    monkeypatch.setattr(linalg, "_sylvester_system", counted(linalg._sylvester_system, "sylvester"))
    monkeypatch.setattr(linalg, "_operator_rows", counted(linalg._operator_rows, "first"))
    monkeypatch.setattr(linalg, "_left_product", counted(linalg._left_product, "closure"))
    return tally


def test_verify_table_work(q2, counts):
    default_model()  # built once per process, so kept out of the count
    counts.update(dict.fromkeys(counts, 0))
    assert verify_table(q2).ok
    # Measured: 3,397 multiplications and 776 subtractions, with 2,285 fused
    # x - y*f (3,919 and 2,428 when each solve reduced its own first map;
    # 4,053 and 2,761 with dense eliminations and the closure by rounds).
    # Each checked identity among products is one zero test that forms no
    # product matrix, and the power traces and the determinants of A11 and
    # A22 are summed on Gaussian integers once per representation.  640 of
    # the subtractions are the 16 diagonal entries of each L_ii - 1.
    assert counts["mul"] <= 3_567
    assert counts["sub"] <= 804
    assert counts["minus_product"] <= 2_399
    # The call's kernels dict solves each shared prefix of maps once: the 59
    # kernel solves (the 20 centralizers, the 20 self pairs and the 19 pairs
    # whose spectra match and whose one candidate leaves no invertible
    # intertwiner) reduce 9 distinct first maps, not 39, and evaluate 67
    # later maps, not 112.  A self pair's candidate (1, 1) is its entry's
    # centralizer, and a G entry's maps begin with its S entry's.
    assert counts["first"] == 9
    assert counts["sylvester"] == 67
    # The entries fall into 5 classes of A11 spectra up to scale: each is
    # pinned against one leader per class found so far, and only the 54
    # pairs inside a class take their two pins (264 with every pair decided).
    assert counts["pins"] <= 155
    # Measured: 164 matrix products and 114 matrix sums, the evaluator's
    # included.  The product bound is the count itself.  None is in a
    # relation, counit or witness check, and none is the closure's (728 when
    # the closure formed its 564 products as matrices).  11 of the sums are
    # in the stated operator-algebra bases, read as text on every check:
    # e33 + e44 of S1, G1b, S7 and G7, e22 + e33 of S2a, S2b and S2b', and
    # e11 + e22 of S3, G3b, S6 and G6.
    assert counts["mat_mul"] <= 164
    assert counts["mat_add"] <= 119
    # The closure forms |G'| (dim R - 1) products g x, G' being the
    # generators independent of 1 and of those before them: A21 is in the
    # span of 1, A11 and A12 for 17 entries, so 3 sum(dim R - 1) = 363, and
    # 19 more for S2a, S2a' and S2b, whose 4 generators are independent.
    assert counts["closure"] == 382
    # Measured: 285 row products, the 120 matrix products and 165 of the
    # kernel solves (849 with the closure's 564; 311 when each solve reduced
    # its own first map).
    assert counts["row_products"] <= 299
    # 480 zero tests: for each of the 20 entries 6 relations, 6 operator
    # relations and 8 counit identities, and 4 blocks of each self-witness.
    assert counts["vanish"] == 480
    # Power traces of A11 and A22, once for each of the 20 representations.
    assert counts["power_traces"] == 40
    # Measured: 20 determinants, one per self-witness, and 665 inversions
    # (995 when each solve reduced its own first map, 1,043 with dense
    # eliminations).
    assert counts["det"] <= 21
    assert counts["inv"] <= 698


def test_verify_table_kernel_tree_comparisons(q2, counts):
    default_model()
    counts.update(dict.fromkeys(counts, 0))
    assert verify_table(q2).ok
    # Measured: 473 matrix comparisons.  453 match the maps of a solve
    # against the children of its kernel tree's nodes, and 20 are the test
    # L = R of a map whose L is scalar.
    assert counts["mat_eq"] <= 497


def test_no_kernel_is_shared_between_calls(q2, counts):
    """A second verify_table does the work of the first: its kernels dict dies with the call."""
    assert verify_table(q2).ok  # texts parsed and the Clifford model built, which later calls reuse
    work = []
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        assert verify_table(q2).ok
        work.append(dict(counts))
    assert work[0] == work[1] and work[0]["first"] == 9


def test_table_texts_are_parsed_once(q2, monkeypatch):
    assert verify_table(q2).ok
    parsed = []
    parse = ast.parse
    monkeypatch.setattr(ast, "parse", lambda *args, **kwargs: parsed.append(args) or parse(*args, **kwargs))
    assert verify_table(q2).ok
    assert parsed == []


def test_dense_conjugate_decision_work(q2, counts):
    rep = instantiate("S3", q2)
    moved = EquivalenceWitness(random_dense_invertible(random.Random(0x53)), Scalar(2), Scalar(-1, 1)).apply(rep)
    counts.update(dict.fromkeys(counts, 0))
    assert decide_equivalence(rep, moved).equivalent
    # Measured: 73 multiplications and no subtraction, with 59 fused x - y*f
    # (76 and 61 with dense eliminations); the simplex search takes 1
    # determinant.
    assert counts["mul"] <= 77
    assert counts["sub"] == 0
    assert counts["minus_product"] <= 62
    # Measured: no matrix product and 1 matrix sum, 1 row product, the
    # recombination of the kernel basis by the one later map that cuts it
    # down, and 3 Sylvester systems, one per later map; the witness takes one
    # zero test per block.
    assert counts["mat_mul"] == 0
    assert counts["mat_add"] <= 1
    assert counts["row_products"] <= 1
    assert counts["sylvester"] == 3
    assert counts["vanish"] == 4
    # Each solve walks a fresh kernel tree, which has no child to compare:
    # a caller without a tree pays no matrix comparison for the sharing.
    assert counts["mat_eq"] == 0


def test_dense_conjugate_of_every_entry_work(q2, counts):
    rng = random.Random(0x20)
    pairs = []
    for entry in ENTRY_ORDER:
        rep = instantiate(entry, q2)
        pairs.append((rep, EquivalenceWitness(random_dense_invertible(rng), Scalar(2), Scalar(-1, 1)).apply(rep)))
    counts.update(dict.fromkeys(counts, 0))
    assert all(decide_equivalence(rep, moved).equivalent for rep, moved in pairs)
    # Measured: 1,693 multiplications and no subtraction, with 2,410 fused
    # x - y*f (1,698 and 2,687 with dense eliminations); the simplex search
    # takes 20 determinants, one per pair.
    assert counts["mul"] <= 1_778
    assert counts["sub"] == 0
    assert counts["minus_product"] <= 2_531
    # Measured: no matrix product and 10 matrix sums, 27 row products, the
    # recombinations of the intertwiner solves, and 60 Sylvester systems, 3
    # per solve; 80 zero tests, 4 per witness.
    assert counts["mat_mul"] == 0
    assert counts["mat_add"] <= 11
    assert counts["row_products"] <= 28
    assert counts["sylvester"] == 60
    assert counts["vanish"] == 80


def test_witness_apply_work(q2, counts):
    rep = instantiate("S3", q2)
    witness = EquivalenceWitness(random_dense_invertible(random.Random(0xA9)), Scalar(2, 1, 3), Scalar(-1, 1))
    counts.update(dict.fromkeys(counts, 0))
    witness.apply(rep)
    # u^-1 is adj(u) / det(u), from the 2x2 minors of u on Gaussian integers,
    # and the conjugation is summed on Gaussian integers too: no counted work
    # of any kind (when u was inverted by mat_inverse, that took 15
    # multiplications, 3 inversions and 51 fused x - y*f).
    assert counts == dict.fromkeys(counts, 0)


def test_unipotent_certificate_work(q2, counts):
    zero, one = Mat.zero(4), Mat.identity(4)
    r1, r2 = (GLqRep(jordan(*parts), zero, zero, one, q2) for parts in ((3, 1), (2, 2)))
    counts.update(dict.fromkeys(counts, 0))
    verdict = decide_equivalence(r1, r2)
    assert isinstance(verdict, NotEquivalent) and verdict.candidates_tried == 1
    # The intertwiner space has dimension 6, and its basis matrices all have
    # a zero first column, so every one of its C(10, 4) - 1 = 209 simplex
    # points is singular by support and the search ends before any point.
    assert counts["det"] == 0
    assert counts["mat_add"] == 0
    # Measured: 14 multiplications.
    assert counts["mul"] <= 15
    # The A12 and A21 maps (0, 0) and the A22 map (I, I) are zero and skipped
    # unread, so only the A11 map's rows are reduced: the solve takes no row
    # product and no Sylvester system, and the power traces no matrix product.
    assert counts["row_products"] == counts["sylvester"] == counts["mat_mul"] == 0
    # No witness, so no zero test.
    assert counts["vanish"] == 0


# (type of J, type of J', equivalent, determinants, matrix sums) for (J, 0, 0, I)
# against (J', 0, 0, I), a single candidate each.
UNIPOTENT_SEARCHES = [
    # dim 7, negative: every basis matrix has a zero first column.
    ((3, 1), (2, 1, 1), False, 0, 0),
    # dim 8, negative: the basis covers every row and column, and 4 of the
    # 494 points have a support that does too; 12 sums build them, each point
    # from its own basis matrices.
    ((2, 1, 1), (2, 2), False, 4, 12),
    # dim 16, positive: the basis is the 16 matrix units, and the first point
    # whose support covers every row and column is e11 + e22 + e33 + e44, the
    # identity, built by 3 sums.
    ((1, 1, 1, 1), (1, 1, 1, 1), True, 1, 3),
]


@pytest.mark.parametrize("first, second, equivalent, dets, sums", UNIPOTENT_SEARCHES)
def test_unipotent_search_work(q2, counts, first, second, equivalent, dets, sums):
    zero, one = Mat.zero(4), Mat.identity(4)
    r1, r2 = (GLqRep(jordan(*parts), zero, zero, one, q2) for parts in (first, second))
    counts.update(dict.fromkeys(counts, 0))
    verdict = decide_equivalence(r1, r2)
    assert verdict.equivalent is equivalent and verdict.candidates_tried == 1
    assert counts["det"] == dets
    assert counts["mat_add"] == sums
