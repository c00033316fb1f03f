"""Work-count guards: Scalar operations and determinants for fixed inputs.

Exact arithmetic does the same work on every run, so these counts do not
jitter.  Each bound is a measured count plus 5%; a change that brings back
arithmetic on zero entries, or determinants and inversions nobody reads,
fails here.
"""

import random
import sys

import pytest

from helpers import random_dense_invertible
from qact import EquivalenceWitness, Scalar, decide_equivalence, default_model, instantiate, linalg, verify_table
from qact.catalog import ENTRY_ORDER


@pytest.fixture
def counts(monkeypatch):
    """Counters of Scalar.__mul__, __sub__, inv, minus_product and dot calls, and of linalg.det calls.

    The fused kernels minus_product (x - y*f) and dot (sum x*y) each hide
    products, so they are counted under their own keys.
    """
    tally = {"mul": 0, "sub": 0, "inv": 0, "minus_product": 0, "dot": 0, "det": 0}

    def counted(op, key):
        def call(*args):
            tally[key] += 1
            return op(*args)

        return call

    for name, key in (("__mul__", "mul"), ("__sub__", "sub"), ("inv", "inv"), ("minus_product", "minus_product")):
        monkeypatch.setattr(Scalar, name, counted(getattr(Scalar, name), key))
    monkeypatch.setattr(Scalar, "dot", staticmethod(counted(Scalar.dot, "dot")))
    det = linalg.det
    for name, module in list(sys.modules.items()):
        if (name == "qact" or name.startswith("qact.")) and getattr(module, "det", None) is det:
            monkeypatch.setattr(module, "det", counted(det, "det"))
    return tally


def test_verify_table_work(q2, counts):
    default_model()  # built once per process, so kept out of the count
    counts.update(dict.fromkeys(counts, 0))
    assert verify_table(q2).ok
    # Measured: 29,450 multiplications and 4,438 subtractions, with 2,624
    # fused x - y*f and 9,222 fused dot products (33,071 and 7,062 with
    # neither fused kernel; 34,741 and
    # 7,063 while quantum_determinant also checked that det_q commutes with
    # the generators and the module algebra multiplied out M S a second
    # time; 38,884 and 12,400 before solve_homogeneous imposed its rows one
    # block at a time; 39,032 and 14,105 before linalg.mul_operator and the
    # power-trace determinant test; 115,120 and 117,635 before zero entries
    # were skipped).
    assert counts["mul"] <= 30_922
    assert counts["sub"] <= 4_659
    assert counts["minus_product"] <= 2_755
    assert counts["dot"] <= 9_683
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
    # Measured: 473 multiplications and 4 subtractions, with 81 fused
    # x - y*f and 192 fused dot products (683 and 85 with neither fused
    # kernel; 883 and 437 before
    # the block-wise kernel and the inverse-free witness check; 877 and 465
    # before linalg.mul_operator and the power-trace determinant test; 2,004
    # and 1,457 before zero entries were skipped).
    assert counts["mul"] <= 496
    assert counts["sub"] <= 4
    assert counts["minus_product"] <= 85
    assert counts["dot"] <= 201


def test_dense_conjugate_of_every_entry_work(q2, counts):
    rng = random.Random(0x20)
    pairs = []
    for entry in ENTRY_ORDER:
        rep = instantiate(entry, q2)
        pairs.append((rep, EquivalenceWitness(random_dense_invertible(rng), Scalar(2), Scalar(-1, 1)).apply(rep)))
    counts.update(dict.fromkeys(counts, 0))
    assert all(decide_equivalence(rep, moved).equivalent for rep, moved in pairs)
    # Measured: 12,881 multiplications and 80 subtractions, with 2,838 fused
    # x - y*f and 2,992 fused dot products (19,681 and 2,918 with neither
    # fused kernel; 27,013 and 14,655 with the whole 64x16 intertwiner system
    # in one reduction and the witness checked through u^-1).
    assert counts["mul"] <= 13_525
    assert counts["sub"] <= 84
    assert counts["minus_product"] <= 2_979
    assert counts["dot"] <= 3_141
