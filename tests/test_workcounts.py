"""Work-count guards: Scalar and Mat operations and determinants for fixed inputs.

Exact arithmetic does the same work on every run, so these counts do not
jitter.  Each bound is a measured count plus 5%; a change that brings back
arithmetic on zero entries, or determinants, inversions and matrix sums
nobody reads, fails here.
"""

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
    """Counters of Scalar.__mul__, __sub__, inv and minus_product calls, of Mat.__mul__
    and __add__ calls, of linalg.det calls, of power-trace evaluations, of
    row products: linalg._product_rows, the loop of Mat.__mul__ and of the
    kernel solve's rows x basis products and recombinations, of Sylvester
    systems: linalg._sylvester_system, a later map L X - X R of
    solve_homogeneous evaluated on the kernel basis, and of zero tests of
    sums of products: linalg.products_vanish, one per identity checked.

    The fused kernel minus_product (x - y*f) hides a product, and so do the
    row product, the Sylvester system and the zero test, which sum each entry
    on plain ints; so each is counted under its own key.
    """
    tally = {"mul": 0, "sub": 0, "inv": 0, "minus_product": 0, "mat_mul": 0, "mat_add": 0, "det": 0,
             "power_traces": 0, "row_products": 0, "sylvester": 0, "vanish": 0}

    def counted(op, key):
        def call(*args):
            tally[key] += 1
            return op(*args)

        return call

    for name, key in (("__mul__", "mul"), ("__sub__", "sub"), ("inv", "inv"), ("minus_product", "minus_product")):
        monkeypatch.setattr(Scalar, name, counted(getattr(Scalar, name), key))
    for name, key in (("__mul__", "mat_mul"), ("__add__", "mat_add")):
        monkeypatch.setattr(Mat, name, counted(getattr(Mat, name), key))
    for attr, key in (("det", "det"), ("products_vanish", "vanish")):
        op = getattr(linalg, attr)
        for name, module in list(sys.modules.items()):
            if (name == "qact" or name.startswith("qact.")) and getattr(module, attr, None) is op:
                monkeypatch.setattr(module, attr, counted(op, key))
    monkeypatch.setattr(action_module, "_power_traces", counted(action_module._power_traces, "power_traces"))
    monkeypatch.setattr(linalg, "_product_rows", counted(linalg._product_rows, "row_products"))
    monkeypatch.setattr(linalg, "_sylvester_system", counted(linalg._sylvester_system, "sylvester"))
    return tally


def test_verify_table_work(q2, counts):
    default_model()  # built once per process, so kept out of the count
    counts.update(dict.fromkeys(counts, 0))
    assert verify_table(q2).ok
    # Measured: 5,060 multiplications and 951 subtractions, with 2,869 fused
    # x - y*f.  Multiplications fell from 5,880 as each spectral pin divides
    # once, for w, and checks the other power traces against powers of w
    # (5,491), and as the row reduction negates a pivot row whose pivot is
    # -1 rather than multiply it by the inverse.  The power traces are taken
    # on Gaussian integers, not by 80 fused dot products.
    # Multiplications fell from 6,027 as the gamma atoms are built once per
    # model, not per expression (72, the i of 18 expressions, each a scaled
    # identity), and as the simplex search skips the points whose support
    # leaves a zero row or column (75, the eliminations of 150 determinants).
    # Multiplications fell from 9,840 to 7,463, and subtractions from 1,086
    # to 311, as every checked identity among products became one zero test
    # that forms no product matrix.  Then action_fixed_points read the rows
    # of L_ij that operator_relation_report reads, built once per action:
    # 1,436 fewer multiplications (that duplicate is the 10,994 -> 9,840 rise
    # below), and 640 more subtractions, the 16 diagonal entries of each
    # L_ii - 1.
    # Before that, multiplications fell from 12,221 as Scalar.__pow__ starts from its
    # first factor rather than from one and stops squaring after the last
    # bit, and Mat.scale(1) returns the matrix without a product per entry.
    # The kernel solves take no dot product (9,302 before): each builds its
    # maps' rows from their terms and meets the kernel basis found so far
    # through one fused rows x basis product, summed as Mat.__mul__ sums.
    # Multiplications rose from 10,994 because action_fixed_points builds
    # the rows of L_ij from their terms A_ik (x) S_kj^T, the same products that
    # operator_relation_report's 16x16 operators take, where both once read
    # one cached set of operators; subtractions fell from 1,726 as no
    # L_ii - I is taken as a matrix difference.  Before that, the relations became
    # comparisons and the power traces are taken once per representation
    # (10,904, 4,438, 2,624 and 10,278 before).  minus_product rose, and its
    # bound with it, because the operator-algebra closure reduces each new
    # product against the basis, where it multiplied all pairs of the basis
    # each round: Mat.__mul__ calls fell 44% for it.  Dot rose from 9,222 as
    # the power traces p3 and p4 became two dot products each (29,450 and 4,438
    # while Mat.__mul__ took each term as one Scalar product and one sum;
    # 33,071 and 7,062 with neither fused kernel; 34,741 and
    # 7,063 while quantum_determinant also checked that det_q commutes with
    # the generators and the module algebra multiplied out M S a second
    # time; 38,884 and 12,400 before solve_homogeneous imposed its rows one
    # block at a time; 39,032 and 14,105 before linalg.mul_operator and the
    # power-trace determinant test; 115,120 and 117,635 before zero entries
    # were skipped).
    assert counts["mul"] <= 5_313
    assert counts["sub"] <= 999
    assert counts["minus_product"] <= 3_014
    # Measured: 684 matrix products and 83 matrix sums.  The product bound is
    # the count itself: 724 while the power traces formed x^2 as a matrix
    # product, 742 while each of the 18 gamma expressions built its
    # own g12 = g1 g2, and 191 sums while the simplex search tested the
    # points whose support leaves a zero row or column.  None is in a
    # relation, counit or witness check: 564 are the operator-algebra
    # closure's (1,702 and 351 while each relation compared two product
    # matrices, 12 of them 16x16 per entry, and each counit identity summed
    # two; 3,120 products while every closure
    # round multiplied all pairs of the basis and the relations took each
    # q-commutator as a difference; 384 sums while the catalog rebuilt its
    # operator-algebra bases on every call, 492 while the simplex search
    # rebuilt every point from scratch).
    assert counts["mat_mul"] <= 684
    assert counts["mat_add"] <= 87
    # Measured: 902 row products, the 684 matrix products and 218 of the
    # kernel solves, and 172 Sylvester systems (1,114 row products, 390 of
    # them the kernel solves', while each later map's rows were built and
    # multiplied by the basis; 1,132 with a g12 product per gamma
    # expression; 2,092 and 2,084 before).
    assert counts["row_products"] <= 947
    assert counts["sylvester"] <= 180
    # 480 zero tests: for each of the 20 entries 6 relations, 6 operator
    # relations and 8 counit identities, and 4 blocks of each self-witness.
    assert counts["vanish"] == 480
    # Power traces of A11 and A22, once for each of the 20 representations
    # (528 while every decided pair took them again).
    assert counts["power_traces"] == 40
    # Measured: 20 determinants, one per self-witness, and 1,194 inversions
    # (2,198 while the spectral pins divided once per nonzero power trace
    # and the row reduction inverted a pivot -1; 170 and 2,199 while the simplex search evaluated the points whose
    # support leaves a zero row or column; 190 and 2,202 while
    # quantum_determinant took det(det_q) before antipode inverted it; 268
    # and 2,205 while decide_equivalence took det(A11) and det(A22) by
    # elimination rather than from the power traces).
    assert counts["det"] <= 21
    assert counts["inv"] <= 1_253


def test_dense_conjugate_decision_work(q2, counts):
    rep = instantiate("S3", q2)
    moved = EquivalenceWitness(random_dense_invertible(random.Random(0x53)), Scalar(2), Scalar(-1, 1)).apply(rep)
    counts.update(dict.fromkeys(counts, 0))
    assert decide_equivalence(rep, moved).equivalent
    # Measured: 94 multiplications and 4 subtractions, with 61 fused
    # x - y*f (98 multiplications and 8 fused dot products, the power
    # traces', while each spectral pin divided once per nonzero power trace
    # and the power traces were not taken on Gaussian integers; 106 and 79 while
    # the simplex search took 5 determinants, not 1, testing points whose
    # support leaves a zero row or column; 144 multiplications
    # while the witness check formed u x and x' u for each block; 160
    # while Scalar.__pow__ started from one and Mat.scale(1) multiplied every
    # entry by one; 166, 81 and 200
    # while the intertwiner solve took each row of a later block times each
    # kernel vector as a dot product and recombined the basis by Scalar
    # products; the two determinants read off the
    # power traces are now exact, one product by 1/24 each (164 before that;
    # 473, 4, 81 and 192 before the fused
    # matrix product and the dot-based power traces; 683 and 85 with neither
    # fused kernel; 883 and 437 before
    # the block-wise kernel and the inverse-free witness check; 877 and 465
    # before linalg.mul_operator and the power-trace determinant test; 2,004
    # and 1,457 before zero entries were skipped).
    assert counts["mul"] <= 98
    assert counts["sub"] <= 4
    assert counts["minus_product"] <= 64
    # Measured: no matrix product and 1 matrix sum (2 before the simplex
    # search skipped by support), 1 row product, the recombination of the
    # kernel basis by the one later map that cuts it down, and 3 Sylvester
    # systems, one per later map (4 matrix products, the power traces' x^2,
    # and 8 row products, 4 of them the intertwiner solve's, while each later
    # map's rows were built and multiplied by the basis; 12 and 16 while the
    # witness check formed its 8 products); the witness takes one zero test
    # per block.
    assert counts["mat_mul"] == 0
    assert counts["mat_add"] <= 1
    assert counts["row_products"] <= 1
    assert counts["sylvester"] == 3
    assert counts["vanish"] == 4


def test_dense_conjugate_of_every_entry_work(q2, counts):
    rng = random.Random(0x20)
    pairs = []
    for entry in ENTRY_ORDER:
        rep = instantiate(entry, q2)
        pairs.append((rep, EquivalenceWitness(random_dense_invertible(rng), Scalar(2), Scalar(-1, 1)).apply(rep)))
    counts.update(dict.fromkeys(counts, 0))
    assert all(decide_equivalence(rep, moved).equivalent for rep, moved in pairs)
    # Measured: 2,058 multiplications and 80 subtractions, with 2,687 fused
    # x - y*f (2,193 multiplications and 160 fused dot products, the power
    # traces', while each spectral pin divided once per nonzero power trace,
    # the row reduction inverted a pivot -1 and the power traces were not
    # taken on Gaussian integers; 2,313 and 2,838
    # while the simplex search took 53 determinants, not 20, testing points
    # whose support leaves a zero row or column; 3,147 while the
    # witness check formed u x and x' u for each block; 3,467 while
    # Scalar.__pow__ started from one and Mat.scale(1) multiplied every entry
    # by one; 3,676 and 3,152
    # while the intertwiner solve took one dot product per row of a later
    # block and kernel vector; 3,636 before the determinants read
    # off the power traces were scaled by 1/24; 12,881, 80, 2,838 and 2,992 before
    # the fused matrix product and the dot-based power traces; 19,681 and
    # 2,918 with neither
    # fused kernel; 27,013 and 14,655 with the whole 64x16 intertwiner system
    # in one reduction and the witness checked through u^-1).
    assert counts["mul"] <= 2_160
    assert counts["sub"] <= 84
    assert counts["minus_product"] <= 2_821
    # Measured: no matrix product and 10 matrix sums (21 before the simplex
    # search skipped by support), 27 row products, the recombinations of
    # the intertwiner solves, and 60 Sylvester systems, 3 per solve (80
    # matrix products, the power traces' x^2, and 167 row products, 87 of
    # them the intertwiner solves', while each later map's rows were built
    # and multiplied by the basis; 240 and 327 while the witness check
    # formed its 160 products); 80 zero tests, 4 per witness.
    assert counts["mat_mul"] == 0
    assert counts["mat_add"] <= 11
    assert counts["row_products"] <= 28
    assert counts["sylvester"] == 60
    assert counts["vanish"] == 80


def test_unipotent_certificate_work(q2, counts):
    zero, one = Mat.zero(4), Mat.identity(4)
    r1, r2 = (GLqRep(jordan(*parts), zero, zero, one, q2) for parts in ((3, 1), (2, 2)))
    counts.update(dict.fromkeys(counts, 0))
    verdict = decide_equivalence(r1, r2)
    assert isinstance(verdict, NotEquivalent) and verdict.candidates_tried == 1
    # The intertwiner space has dimension 6, and its basis matrices all have
    # a zero first column, so every one of its C(10, 4) - 1 = 209 simplex
    # points is singular by support and the search ends before any point
    # (det == 209 and mat_add <= 213 while each point was tested: 203 sums,
    # a prefix point plus a basis matrix; 511 sums while every point was
    # rebuilt from scratch).
    assert counts["det"] == 0
    assert counts["mat_add"] == 0
    # Measured: 32 multiplications (40 and 8 fused dot products, the power
    # traces', while each spectral pin divided once per nonzero power trace
    # and the row reduction inverted a pivot -1; 66 while
    # Scalar.__pow__ started from one and squared past its last bit and
    # Mat.scale(1) multiplied every entry by one; 64 before the
    # determinants read off the power traces were scaled by 1/24; 131 and 0 before
    # the fused matrix product and the dot-based power traces).
    assert counts["mul"] <= 33
    # The A12 and A21 maps (0, 0) and the A22 map (I, I) are zero and skipped
    # unread, so only the A11 map's rows are reduced: the solve takes no row
    # product and no Sylvester system, and the power traces no matrix product.
    assert counts["row_products"] == counts["sylvester"] == counts["mat_mul"] == 0
    # No witness, so no zero test.
    assert counts["vanish"] == 0


# (type of J, type of J', equivalent, determinants, matrix sums) for (J, 0, 0, I)
# against (J', 0, 0, I), a single candidate each.  Before the simplex search
# skipped the points whose support leaves a row or a column zero, each of the
# C(d+4, 4) - 1 points up to the first invertible one took a determinant and
# all but the d of degree 1 a matrix sum.
UNIPOTENT_SEARCHES = [
    # dim 7, negative: every basis matrix has a zero first column (329
    # determinants and 322 sums before).
    ((3, 1), (2, 1, 1), False, 0, 0),
    # dim 8, negative: the basis covers every row and column, and 4 of the
    # 494 points have a support that does too; 11 sums build them and their
    # prefix points (494 determinants and 486 sums before).
    ((2, 1, 1), (2, 2), False, 4, 11),
    # dim 16, positive: the basis is the 16 matrix units, and the first point
    # whose support covers every row and column is e11 + e22 + e33 + e44, the
    # identity, built by 3 sums (1,549 determinants and 1,533 sums before).
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
