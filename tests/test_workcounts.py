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
    """Counters of Scalar.__mul__, __sub__, inv, minus_product and dot calls, of Mat.__mul__
    and __add__ calls, of linalg.det calls, of power-trace evaluations, and of
    row products: linalg._product_rows, the loop of Mat.__mul__ and of the
    kernel solve's rows x basis products.

    The fused kernels minus_product (x - y*f) and dot (sum x*y) each hide
    products, and so does the row product, which sums each entry on plain
    ints; so each is counted under its own key.
    """
    tally = {"mul": 0, "sub": 0, "inv": 0, "minus_product": 0, "dot": 0, "mat_mul": 0, "mat_add": 0, "det": 0,
             "power_traces": 0, "row_products": 0}

    def counted(op, key):
        def call(*args):
            tally[key] += 1
            return op(*args)

        return call

    for name, key in (("__mul__", "mul"), ("__sub__", "sub"), ("inv", "inv"), ("minus_product", "minus_product")):
        monkeypatch.setattr(Scalar, name, counted(getattr(Scalar, name), key))
    monkeypatch.setattr(Scalar, "dot", staticmethod(counted(Scalar.dot, "dot")))
    for name, key in (("__mul__", "mat_mul"), ("__add__", "mat_add")):
        monkeypatch.setattr(Mat, name, counted(getattr(Mat, name), key))
    det = linalg.det
    for name, module in list(sys.modules.items()):
        if (name == "qact" or name.startswith("qact.")) and getattr(module, "det", None) is det:
            monkeypatch.setattr(module, "det", counted(det, "det"))
    monkeypatch.setattr(action_module, "_power_traces", counted(action_module._power_traces, "power_traces"))
    monkeypatch.setattr(linalg, "_product_rows", counted(linalg._product_rows, "row_products"))
    return tally


def test_verify_table_work(q2, counts):
    default_model()  # built once per process, so kept out of the count
    counts.update(dict.fromkeys(counts, 0))
    assert verify_table(q2).ok
    # Measured: 9,840 multiplications and 1,086 subtractions, with 2,870
    # fused x - y*f and 80 fused dot products, the power traces' p3 and p4.
    # Multiplications fell from 12,221 as Scalar.__pow__ starts from its
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
    assert counts["mul"] <= 10_332
    assert counts["sub"] <= 1_140
    assert counts["minus_product"] <= 3_014
    assert counts["dot"] <= 84
    # Measured: 1,738 matrix products and 371 matrix sums (3,120 products
    # while every closure round multiplied all pairs of the basis and the
    # relations took each q-commutator as a difference; 384 sums while the
    # catalog rebuilt its operator-algebra bases on every call, 492 while the
    # simplex search rebuilt every point from scratch).
    assert counts["mat_mul"] <= 1_825
    assert counts["mat_add"] <= 389
    # Measured: 2,084 row products, the 1,738 matrix products and 346 of the
    # kernel solves.
    assert counts["row_products"] <= 2_188
    # Power traces of A11 and A22, once for each of the 20 representations
    # (528 while every decided pair took them again).
    assert counts["power_traces"] == 40
    # Measured: 170 determinants and 2,199 inversions (190 and 2,202 while
    # quantum_determinant took det(det_q) before antipode inverted it; 268
    # and 2,205 while decide_equivalence took det(A11) and det(A22) by
    # elimination rather than from the power traces).
    assert counts["det"] <= 178
    assert counts["inv"] <= 2_309


def test_dense_conjugate_decision_work(q2, counts):
    rep = instantiate("S3", q2)
    moved = EquivalenceWitness(random_dense_invertible(random.Random(0x53)), Scalar(2), Scalar(-1, 1)).apply(rep)
    counts.update(dict.fromkeys(counts, 0))
    assert decide_equivalence(rep, moved).equivalent
    # Measured: 144 multiplications and 4 subtractions, with 79 fused
    # x - y*f and 8 fused dot products, the power traces' (160 multiplications
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
    assert counts["mul"] <= 151
    assert counts["sub"] <= 4
    assert counts["minus_product"] <= 82
    assert counts["dot"] <= 8
    # Measured: 12 matrix products and 2 matrix sums, and 16 row products, 4
    # of them the intertwiner solve's.
    assert counts["mat_mul"] <= 12
    assert counts["mat_add"] <= 2
    assert counts["row_products"] <= 16


def test_dense_conjugate_of_every_entry_work(q2, counts):
    rng = random.Random(0x20)
    pairs = []
    for entry in ENTRY_ORDER:
        rep = instantiate(entry, q2)
        pairs.append((rep, EquivalenceWitness(random_dense_invertible(rng), Scalar(2), Scalar(-1, 1)).apply(rep)))
    counts.update(dict.fromkeys(counts, 0))
    assert all(decide_equivalence(rep, moved).equivalent for rep, moved in pairs)
    # Measured: 3,147 multiplications and 80 subtractions, with 2,838 fused
    # x - y*f and 160 fused dot products, the power traces' (3,467 while
    # Scalar.__pow__ started from one and Mat.scale(1) multiplied every entry
    # by one; 3,676 and 3,152
    # while the intertwiner solve took one dot product per row of a later
    # block and kernel vector; 3,636 before the determinants read
    # off the power traces were scaled by 1/24; 12,881, 80, 2,838 and 2,992 before
    # the fused matrix product and the dot-based power traces; 19,681 and
    # 2,918 with neither
    # fused kernel; 27,013 and 14,655 with the whole 64x16 intertwiner system
    # in one reduction and the witness checked through u^-1).
    assert counts["mul"] <= 3_304
    assert counts["sub"] <= 84
    assert counts["minus_product"] <= 2_979
    assert counts["dot"] <= 168
    # Measured: 240 matrix products and 21 matrix sums, and 327 row products,
    # 87 of them the intertwiner solves'.
    assert counts["mat_mul"] <= 252
    assert counts["mat_add"] <= 22
    assert counts["row_products"] <= 343


def test_unipotent_certificate_work(q2, counts):
    zero, one = Mat.zero(4), Mat.identity(4)
    r1, r2 = (GLqRep(jordan(*parts), zero, zero, one, q2) for parts in ((3, 1), (2, 2)))
    counts.update(dict.fromkeys(counts, 0))
    verdict = decide_equivalence(r1, r2)
    assert isinstance(verdict, NotEquivalent) and verdict.candidates_tried == 1
    # The intertwiner space has dimension 6, so the simplex has C(10, 4) - 1 =
    # 209 points 1 <= |c| <= 4, each tested once, and its 203 points of degree
    # >= 2 cost one matrix sum each, a prefix point plus a basis matrix (511
    # sums while every point was rebuilt from scratch).
    assert counts["det"] == 209
    assert counts["mat_add"] <= 213
    # Measured: 40 multiplications and 8 fused dot products (66 while
    # Scalar.__pow__ started from one and squared past its last bit and
    # Mat.scale(1) multiplied every entry by one; 64 before the
    # determinants read off the power traces were scaled by 1/24; 131 and 0 before
    # the fused matrix product and the dot-based power traces).
    assert counts["mul"] <= 42
    assert counts["dot"] <= 8
    # The A12 and A21 maps have zero terms, and the A22 map u I - I u cancels
    # term by term, so only the A11 map's rows are reduced: the solve takes
    # no row product, and every one is a matrix product.
    assert counts["row_products"] == counts["mat_mul"]
