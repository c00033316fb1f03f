#!/usr/bin/env python3
"""qact benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

The run imports qact from the checkout's own src/, sets up five times
(import, seeded inputs, one untimed warm-up operation), then repeats passes
over the inputs for --seconds, checking every result.  With --trace 0
every time is in the nominal seconds of reference.py, which runs in slices
in between the measured work.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
spans.py's traced run with --trace 1.  A wrong answer or a changed byte of
verify-table output exits 1 without that line; a checkout without
src/qact exits 2.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from reference import Reference
from spans import Tracer, qact_modules
from workloads import WORKLOADS, Outcome, WrongAnswer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPAN_DIR = BENCH_DIR / "out"

SETUPS = 5  # set-ups per run; setup_s is their median

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_answered": "ratio",
    "peak_rss_mb": "MB",
}

# Layers that every workload enters report seconds per pass.
LAYER_SECONDS = (
    "action.decide_equivalence",
    "linalg.solve_homogeneous",
    "linalg.invertible_element_in",
)
SELF_SECONDS = ("scalars", "linalg", "action", "qrep")
# Layers that only `table` enters report their share of the traced pass, so
# that no workload reports a time that reads 0 s on every run.
LAYER_SHARES = (
    "action.verify_module_algebra",
    "action.operator_relation_report",
    "action.action_fixed_points",
    "qrep.verify_glq_relations",
    "qrep.antipode_check",
    "catalog.verify_entry",
    "catalog.verify_distinctness",
    "catalog.verify_determinant_invariants",
    "linalg.algebra_closure",
    "linalg.centralizer",
    "qspinor.verify_canonical_form",
    "clifford.eval_gamma_expr",
)
SELF_SHARES = ("cli", "catalog", "clifford", "qspinor")
CALL_COUNTS = (
    "qrep.verify_glq_relations",
    "catalog.resolve_params",
    "linalg.solve_homogeneous",
    "action.decide_equivalence",
    "linalg.det",
    "scalars.mul",
    "scalars.add",
    "linalg.mat_mul",
)


def per_layer_names() -> dict[str, str]:
    names = {}
    names.update({f"{n}.s": "s" for n in LAYER_SECONDS})
    names.update({f"{m}.self_s": "s" for m in SELF_SECONDS})
    names.update({f"{n}.share": "%" for n in LAYER_SHARES})
    names.update({f"{m}.self_share": "%" for m in SELF_SHARES})
    names.update({f"{n}.calls": "count" for n in CALL_COUNTS})
    names["action.candidates_tried"] = "count"
    names["action.witness_per_candidate"] = "ratio"
    names["linalg.invertible_element_in.hit_ratio"] = "ratio"
    names["trace.pass_s"] = "s"
    names["trace.overhead"] = "ratio"
    return names


PER_LAYER = per_layer_names()


# -- the code under test ----------------------------------------------------------------


def load_qact():
    """Import qact afresh from this checkout's src/, never from elsewhere."""
    for name in list(qact_modules()):
        del sys.modules[name]
    where = Path(importlib.import_module("qact").__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"qact was imported from {where}, not from {SRC}")


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return {"src_sha256": digest.hexdigest(), "commit": git_head(ROOT / ".git")}


def git_head(git_dir: Path):
    """The checked-out commit, read from .git without running git; None if absent."""
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git_dir / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


# -- measurement ------------------------------------------------------------------------


def set_up(workload, seed: int, clock=perf_counter):
    t0 = clock()
    load_qact()
    inputs = workload.generate(seed)
    workload.warm_up(inputs)
    return clock() - t0, inputs


def run_passes(workload, inputs, seconds: float, tracer: Tracer | None = None, reference: Reference | None = None):
    """Passes until `seconds` have elapsed, at least one.

    Returns the outcomes of each pass and, with a tracer, each pass's layer totals.
    With a reference, latencies are in nominal seconds (see reference.py).
    """
    passes, layers = [], []
    start = perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.install()
            tracer.begin_pass()
        outcomes = workload.run_pass(inputs) if reference is None else workload.run_pass(inputs, reference.clock)
        if tracer is not None:
            layers.append(tracer.end_pass())
            tracer.uninstall()
        workload.check(inputs, outcomes)
        # Drop the checked results, so that memory does not grow with the pass count.
        passes.append([replace(o, value=None) for o in outcomes])
        if perf_counter() - start >= seconds:
            return passes, layers


def pass_seconds(passes: list[list[Outcome]]) -> float:
    """The median time of a pass."""
    return statistics.median(sum(o.latency for o in outcomes) for outcomes in passes)


def percentile_ms(ops: list[Outcome], p: float, refused_s: float) -> float:
    """Nearest-rank percentile of operation latency.

    A refused operation counts as slower than any answered one: it is given
    the whole measured interval, `refused_s`.
    """
    latencies = sorted(refused_s if o.refused else o.latency for o in ops)
    return latencies[max(0, math.ceil(p * len(latencies)) - 1)] * 1000.0


def typical(passes: list[list[Outcome]]) -> list[Outcome]:
    """Each call of the pass at its median latency across the passes."""
    return [
        replace(repeats[0], latency=statistics.median(o.latency for o in repeats))
        for repeats in zip(*passes, strict=True)
    ]


def end_to_end(setups: list[float], passes: list[list[Outcome]], measured_s: float) -> dict:
    ops = [o for o in typical(passes) if o.is_op]
    every = [o for outcomes in passes for o in outcomes if o.is_op]
    return {
        "setup_s": statistics.median(setups),
        "pass_s": pass_seconds(passes),
        "op_p50_ms": percentile_ms(ops, 0.50, measured_s),
        "op_p90_ms": percentile_ms(ops, 0.90, measured_s),
        "ops_answered": sum(1 for o in every if not o.refused) / len(every),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(layers: list[dict], untraced: list[list[Outcome]], traced: list[list[Outcome]]) -> dict:
    """Per-layer metrics: times are medians over traced passes, counts come from
    the first traced pass (every pass does the same work)."""

    def median_of(get):
        return statistics.median(get(layer) for layer in layers)

    first = layers[0]
    values = {}
    for name in LAYER_SECONDS:
        values[f"{name}.s"] = median_of(lambda l: l["inclusive"].get(name, 0.0))
    for module in SELF_SECONDS:
        values[f"{module}.self_s"] = median_of(lambda l: l["self_time"].get(module, 0.0))
    for name in LAYER_SHARES:
        values[f"{name}.share"] = median_of(lambda l: 100.0 * l["inclusive"].get(name, 0.0) / l["pass_s"])
    for module in SELF_SHARES:
        values[f"{module}.self_share"] = median_of(lambda l: 100.0 * l["self_time"].get(module, 0.0) / l["pass_s"])
    for name in CALL_COUNTS:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
    counters = first["counters"]
    tried = counters.get("action.candidates_tried", 0)
    searches = first["calls"].get("linalg.invertible_element_in", 0)
    values["action.candidates_tried"] = tried
    values["action.witness_per_candidate"] = counters.get("action.witnesses", 0) / tried if tried else 0.0
    values["linalg.invertible_element_in.hit_ratio"] = (
        counters.get("linalg.invertible_element_in.found", 0) / searches if searches else 0.0
    )
    values["trace.pass_s"] = median_of(lambda l: l["pass_s"])  # the base of the shares
    values["trace.overhead"] = pass_seconds(traced) / pass_seconds(untraced)
    return values


def repeatable_counts(layers: list[dict]) -> bool:
    return all(l["calls"] == layers[0]["calls"] and l["counters"] == layers[0]["counters"] for l in layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qact" / "__init__.py").is_file():
        print(f"perfbench: no qact package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace, **source_identity()}

    try:
        if args.trace == 0:
            setups = []
            with Reference() as reference:
                for _ in range(SETUPS):
                    seconds, inputs = set_up(workload, args.seed, reference.clock)
                    setups.append(seconds)
                start = perf_counter()
                passes, _ = run_passes(workload, inputs, args.seconds, reference=reference)
                values = end_to_end(setups, passes, perf_counter() - start)
            info["reference_slices_s"] = reference.spent
            units = END_TO_END
        else:
            _, inputs = set_up(workload, args.seed)
            untraced, _ = run_passes(workload, inputs, args.seconds / 2)
            tracer = Tracer()
            traced, layers = run_passes(workload, inputs, args.seconds / 2, tracer)
            if not repeatable_counts(layers):
                print("perfbench: per-layer counts differ between traced passes", file=sys.stderr)
                return 1
            values = per_layer(layers, untraced, traced)
            units = PER_LAYER
            tracer.write(SPAN_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
            info["passes_traced"] = len(traced)
            passes = untraced + traced
    except WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        return 1

    ops = [o for outcomes in passes for o in outcomes if o.is_op]
    info["passes"] = len(passes)
    info["pass_s"] = [sum(o.latency for o in outcomes) for outcomes in passes]
    info["refused"] = sum(1 for o in ops if o.refused)
    print(json.dumps({"info": info}))
    result = {
        "correct": True,
        "attempted": len(ops),
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
