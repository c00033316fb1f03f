#!/usr/bin/env python3
"""Benchmark a checkout on the three perfbench workloads and record the result.

Runs `perfbench/run.py --trace 0` on the workloads table, witness and
certificate, one after another with the same seed and run length, and writes
BENCH_<label>.json to the root of this repository.  The file holds, for each
workload, every run's result line (the last stdout line of run.py) and each
end-to-end metric's median and quartiles over those runs, with the git commit
of the benchmarked checkout (suffixed -dirty when a tracked file other than a
BENCH_*.json has uncommitted changes, null outside git) and the SHA-256 of its
src/ tree, so that two files can be compared knowing exactly which code each
one measured.  That hash leaves out bytecode caches, so each run neither
reads nor writes one: it runs with python -B and a fresh, empty
pycache_prefix, and compiles every module it imports from source.  One side
that imported cached bytecode would read a faster set-up than the other.

With --parent, each workload runs --runs pairs of the parent checkout and this
one, alternating which side of a pair runs first, and a second file
BENCH_<label>-parent.json records the parent's runs.  The first file then also
holds, for each workload and metric, the pairs the change won, lost and tied
and whether that is a gain: a win in at least nine of ten pairs, and medians
further apart than the parent's interquartile range.  Use ten pairs or more.

Usage, from the root of a checkout:

    python scripts/bench.py --label after --seed 1 --seconds 10
    python scripts/bench.py --label pr --seed 1 --seconds 8 --runs 10 --parent ../parent

Measure the two sides of a comparison on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table", "witness", "certificate")


def src_sha256(checkout: Path) -> str:
    """SHA-256 over every file under src/ except bytecode caches, as (relative path, NUL, bytes) in path order."""
    digest = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(checkout: Path) -> str | None:
    """The full hash of HEAD, suffixed -dirty when a tracked file differs from it; None outside git.

    BENCH_*.json files do not count: bench.py rewrites them, and no run reads them.
    """
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return None
    changed = ["status", "--porcelain", "--untracked-files=no", "--", ".", ":(exclude)BENCH_*.json"]
    status = subprocess.run(git + changed, capture_output=True, text=True)
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def run_workload(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run, with no bytecode read or written; returns its parsed result line.

    Raises RuntimeError if the run fails.
    """
    with tempfile.TemporaryDirectory() as no_cache:
        command = [sys.executable, "-B", "-X", f"pycache_prefix={no_cache}", "perfbench/run.py",
                   "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: perfbench exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); all three are the value itself for one run."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict]) -> dict:
    """One workload's runs as one result: each metric's median as its value, with its quartiles and every run."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": first["unit"], "q1": q1, "q3": q3, "runs": values}
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def lower_is_better() -> dict[str, bool]:
    """Whether lower is better, for each end-to-end metric that BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return {m["name"]: m["better"] == "lower" for m in declared}


def compare(change: dict, parent: dict, lower: dict[str, bool]) -> dict:
    """Per metric of one workload: pairs won, lost and tied by the change, and whether that is a gain."""
    out = {}
    for name, mine in change["metrics"].items():
        theirs = parent["metrics"][name]
        sign = 1 if lower.get(name, True) else -1
        gaps = [sign * (p - c) for c, p in zip(mine["runs"], theirs["runs"])]  # > 0: the change did better
        wins, losses = sum(g > 0 for g in gaps), sum(g < 0 for g in gaps)
        gap = sign * (theirs["value"] - mine["value"])
        spread = theirs["q3"] - theirs["q1"]
        out[name] = {"wins": wins, "losses": losses, "ties": len(gaps) - wins - losses,
                     "median_gain": gap, "parent_iqr": spread,
                     "gain": wins * 10 >= 9 * len(gaps) and gap > spread}
    return out


def document(label: str, checkout: Path, args, results: dict) -> dict:
    return {
        "label": label,
        "commit": git_commit(checkout),
        "src_sha256": src_sha256(checkout),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="run length of each workload")
    parser.add_argument("--runs", type=int, default=1, help="runs of each workload, or pairs with --parent")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="the checkout to benchmark (default: this one)")
    parser.add_argument("--parent", type=Path, help="a checkout to run against, in alternating pairs")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    checkout = args.checkout.resolve()
    sides = [checkout] if args.parent is None else [checkout, args.parent.resolve()]
    results = [{} for _ in sides]
    for workload in WORKLOADS:
        runs = [[] for _ in sides]
        for k in range(args.runs):
            order = range(len(sides)) if k % 2 else reversed(range(len(sides)))  # the parent first in even pairs
            for side in order:
                try:
                    runs[side].append(run_workload(sides[side], workload, args.seed, args.seconds))
                except RuntimeError as exc:
                    print(f"bench: {exc}", file=sys.stderr)
                    return 1
        for side, side_runs in enumerate(runs):
            results[side][workload] = summarize(side_runs)
        medians = {name: m["value"] for name, m in results[0][workload]["metrics"].items()}
        print(f"{workload}: {json.dumps(medians)}")
    docs = {args.label: document(args.label, checkout, args, results[0])}
    if args.parent is not None:
        lower = lower_is_better()
        docs[args.label]["comparison"] = {w: compare(results[0][w], results[1][w], lower) for w in WORKLOADS}
        docs[f"{args.label}-parent"] = document(f"{args.label}-parent", sides[1], args, results[1])
        for workload, metrics in docs[args.label]["comparison"].items():
            for name, c in metrics.items():
                print(f"{workload} {name}: won {c['wins']}, lost {c['losses']}, tied {c['ties']}; "
                      f"median gain {c['median_gain']:.4g} against parent IQR {c['parent_iqr']:.4g}"
                      f"{'; a gain' if c['gain'] else ''}")
    for label, doc in docs.items():
        (ROOT / f"BENCH_{label}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote BENCH_{label}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
