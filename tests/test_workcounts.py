"""Work-count guards: Scalar multiplications and subtractions for fixed inputs.

Exact arithmetic does the same work on every run, so these counts do not
jitter.  Each bound is the count measured when the zero-aware kernels landed,
plus 5%; a change that brings back arithmetic on zero entries fails here.
"""

import random

import pytest

from helpers import random_dense_invertible
from qact import EquivalenceWitness, Scalar, decide_equivalence, default_model, instantiate, verify_table


@pytest.fixture
def counts(monkeypatch):
    """Counters of Scalar.__mul__ and Scalar.__sub__ calls while the test runs."""
    tally = {"mul": 0, "sub": 0}
    for name, key in (("__mul__", "mul"), ("__sub__", "sub")):
        op = getattr(Scalar, name)

        def counted(self, other, op=op, key=key):
            tally[key] += 1
            return op(self, other)

        monkeypatch.setattr(Scalar, name, counted)
    return tally


def test_verify_table_work(q2, counts):
    default_model()  # built once per process, so kept out of the count
    counts.update(mul=0, sub=0)
    assert verify_table(q2).ok
    # Measured: 38,636 multiplications and 14,102 subtractions (115,120 and
    # 117,635 before zero entries were skipped).
    assert counts["mul"] <= 40_567
    assert counts["sub"] <= 14_807


def test_dense_conjugate_decision_work(q2, counts):
    rep = instantiate("S3", q2)
    moved = EquivalenceWitness(random_dense_invertible(random.Random(0x53)), Scalar(2), Scalar(-1, 1)).apply(rep)
    counts.update(mul=0, sub=0)
    assert decide_equivalence(rep, moved).equivalent
    # Measured: 867 multiplications and 465 subtractions (2,004 and 1,457
    # before zero entries were skipped).
    assert counts["mul"] <= 910
    assert counts["sub"] <= 488
