"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from reference import Reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Outcome, WrongAnswer  # noqa: E402

import qact  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _fingerprint(inputs) -> str:
    if isinstance(inputs, workloads.TableInputs):
        return json.dumps([inputs.commands, [(q, f.form_id) for q, f in inputs.forms]])
    return json.dumps([[p.label, p.r1.to_json(), p.r2.to_json(), p.equivalent] for p in inputs])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    generate = workloads.WORKLOADS[name].generate
    assert _fingerprint(generate(7)) == _fingerprint(generate(7))
    assert _fingerprint(generate(7)) != _fingerprint(generate(8))


@pytest.mark.parametrize("name", ["witness", "certificate"])
def test_warm_up_is_answered_at_every_seed(name):
    workload = workloads.WORKLOADS[name]
    for seed in range(4):
        workload.warm_up(workload.generate(seed))


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    for group, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert declared == emitted
        for name in declared:
            assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_golden_check_fails_on_one_changed_byte():
    inputs = workloads.TableInputs(("2",), (), {"2": b'{"ok":true}\n'})
    good = Outcome("verify-table --q 2", 0.1, False, ("2", 0, b'{"ok":true}\n'))
    workloads.Table.check(inputs, [good])
    bad = Outcome("verify-table --q 2", 0.1, False, ("2", 0, b'{"ok":True}\n'))
    with pytest.raises(WrongAnswer, match="byte 6"):
        workloads.Table.check(inputs, [bad])


@pytest.fixture(scope="module")
def certificate_pairs():
    return workloads.Certificate.generate(3)


def test_refusal_lowers_answered_share_but_passes_the_check(certificate_pairs):
    negative, other = [p for p in certificate_pairs if not p.equivalent][:2]
    answered = Outcome(negative.label, 0.002, False, qact.NotEquivalent(1))
    refused = Outcome(other.label, 0.001, True, qact.Unsupported("no candidates"))
    workloads.Certificate.check((negative, other), [answered, refused])
    values = run.end_to_end([1.0], [[answered, refused]], 5.0)
    assert values["ops_answered"] == 0.5
    assert values["op_p50_ms"] == answered.latency * 1000
    # The refusal counts as slower than any answer, though it returned first.
    assert values["op_p90_ms"] == 5000.0


def test_wrong_verdict_aborts(certificate_pairs):
    negative = next(p for p in certificate_pairs if not p.equivalent)
    positive = next(p for p in certificate_pairs if p.equivalent)
    identity = qact.EquivalenceWitness(qact.Mat.identity(4), qact.Scalar(1), qact.Scalar(1))
    with pytest.raises(WrongAnswer, match="truth is False"):
        workloads.Certificate.check((negative,), [Outcome(negative.label, 0.1, False, identity)])
    with pytest.raises(WrongAnswer, match="truth is True"):
        workloads.Certificate.check((positive,), [Outcome(positive.label, 0.1, False, qact.NotEquivalent(1))])
    with pytest.raises(WrongAnswer, match="does not map"):
        workloads.Certificate.check((positive,), [Outcome(positive.label, 0.1, False, identity)])


def test_tracer_wraps_every_binding_and_restores_them():
    import qact.action
    import qact.linalg

    originals = (qact.linalg.det, qact.action.invertible_element_in, qact.Scalar.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert qact.linalg.det is not originals[0]
        assert qact.det is qact.linalg.det
        assert qact.action.invertible_element_in is qact.linalg.invertible_element_in
        tracer.begin_pass()
        space = qact.Subspace.span_of([qact.Mat.identity(4)])
        assert qact.action.invertible_element_in(space) is not None
        layers = tracer.end_pass()
    finally:
        tracer.uninstall()
    assert (qact.linalg.det, qact.action.invertible_element_in, qact.Scalar.__mul__) == originals
    assert layers["calls"]["linalg.invertible_element_in"] == 1
    assert layers["calls"]["linalg.det"] == 1
    assert layers["counters"]["linalg.invertible_element_in.found"] == 1
    names = {span[2] for span in tracer.kept}
    assert {"pass", "linalg.invertible_element_in", "linalg.det"} <= names


def test_reference_clock_leaves_out_its_slices_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with Reference() as reference:
        slices, spent = reference.slices, reference.spent
        t0, w0 = reference.clock(), perf_counter()
        while reference.slices < slices + 20:
            pass
        nominal, wall = reference.clock() - t0, perf_counter() - w0
        sliced = reference.spent - spent
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < sliced < wall
    # Nominal seconds are work seconds at a speed within 10x of the nominal one.
    assert 0.1 * (wall - sliced) < nominal < 10 * (wall - sliced)


def test_reference_clock_is_monotonic():
    with Reference() as reference:
        readings = []
        while reference.slices < 5:
            readings.append(reference.clock())
    assert all(a <= b for a, b in zip(readings, readings[1:]))
