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
from qact.catalog import ENTRY_ORDER


@pytest.fixture
def counts(monkeypatch):
    """Counters of Scalar.__mul__, __sub__, inv, minus_product and dot calls, of Mat.__mul__
    and __add__ calls, and of linalg.det calls.

    The fused kernels minus_product (x - y*f) and dot (sum x*y) each hide
    products, and so does Mat.__mul__, which sums each entry on plain ints;
    so each is counted under its own key.
    """
    tally = {"mul": 0, "sub": 0, "inv": 0, "minus_product": 0, "dot": 0, "mat_mul": 0, "mat_add": 0, "det": 0}

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
    return tally


def test_verify_table_work(q2, counts):
    default_model()  # built once per process, so kept out of the count
    counts.update(dict.fromkeys(counts, 0))
    assert verify_table(q2).ok
    # Measured: 10,904 multiplications and 4,438 subtractions, with 2,624
    # fused x - y*f and 10,278 fused dot products; dot rose from 9,222 as the
    # power traces p3 and p4 became two dot products each (29,450 and 4,438
    # while Mat.__mul__ took each term as one Scalar product and one sum;
    # 33,071 and 7,062 with neither fused kernel; 34,741 and
    # 7,063 while quantum_determinant also checked that det_q commutes with
    # the generators and the module algebra multiplied out M S a second
    # time; 38,884 and 12,400 before solve_homogeneous imposed its rows one
    # block at a time; 39,032 and 14,105 before linalg.mul_operator and the
    # power-trace determinant test; 115,120 and 117,635 before zero entries
    # were skipped).
    assert counts["mul"] <= 11_449
    assert counts["sub"] <= 4_659
    assert counts["minus_product"] <= 2_755
    assert counts["dot"] <= 10_791
    # Measured: 3,120 matrix products and 384 matrix sums (492 sums while
    # the simplex search rebuilt every point from scratch).
    assert counts["mat_mul"] <= 3_276
    assert counts["mat_add"] <= 403
    # Measured: 170 determinants and 2,201 inversions (190 and 2,202 while
    # quantum_determinant took det(det_q) before antipode inverted it; 268
    # and 2,205 while decide_equivalence took det(A11) and det(A22) by
    # elimination rather than from the power traces).
    assert counts["det"] <= 178
    assert counts["inv"] <= 2_311


def test_dense_conjugate_decision_work(q2, counts):
    rep = instantiate("S3", q2)
    moved = EquivalenceWitness(random_dense_invertible(random.Random(0x53)), Scalar(2), Scalar(-1, 1)).apply(rep)
    counts.update(dict.fromkeys(counts, 0))
    assert decide_equivalence(rep, moved).equivalent
    # Measured: 164 multiplications and 4 subtractions, with 81 fused
    # x - y*f and 200 fused dot products (473, 4, 81 and 192 before the fused
    # matrix product and the dot-based power traces; 683 and 85 with neither
    # fused kernel; 883 and 437 before
    # the block-wise kernel and the inverse-free witness check; 877 and 465
    # before linalg.mul_operator and the power-trace determinant test; 2,004
    # and 1,457 before zero entries were skipped).
    assert counts["mul"] <= 172
    assert counts["sub"] <= 4
    assert counts["minus_product"] <= 85
    assert counts["dot"] <= 210
    # Measured: 12 matrix products and 2 matrix sums.
    assert counts["mat_mul"] <= 12
    assert counts["mat_add"] <= 2


def test_dense_conjugate_of_every_entry_work(q2, counts):
    rng = random.Random(0x20)
    pairs = []
    for entry in ENTRY_ORDER:
        rep = instantiate(entry, q2)
        pairs.append((rep, EquivalenceWitness(random_dense_invertible(rng), Scalar(2), Scalar(-1, 1)).apply(rep)))
    counts.update(dict.fromkeys(counts, 0))
    assert all(decide_equivalence(rep, moved).equivalent for rep, moved in pairs)
    # Measured: 3,636 multiplications and 80 subtractions, with 2,838 fused
    # x - y*f and 3,152 fused dot products (12,881, 80, 2,838 and 2,992 before
    # the fused matrix product and the dot-based power traces; 19,681 and
    # 2,918 with neither
    # fused kernel; 27,013 and 14,655 with the whole 64x16 intertwiner system
    # in one reduction and the witness checked through u^-1).
    assert counts["mul"] <= 3_817
    assert counts["sub"] <= 84
    assert counts["minus_product"] <= 2_979
    assert counts["dot"] <= 3_309
    # Measured: 240 matrix products and 21 matrix sums.
    assert counts["mat_mul"] <= 252
    assert counts["mat_add"] <= 22


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
    # Measured: 64 multiplications and 8 fused dot products (131 and 0 before
    # the fused matrix product and the dot-based power traces).
    assert counts["mul"] <= 67
    assert counts["dot"] <= 8
