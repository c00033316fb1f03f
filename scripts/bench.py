#!/usr/bin/env python3
"""Benchmark a checkout on the three perfbench workloads and record the result.

Runs `perfbench/run.py --trace 0` on the workloads table, witness and
certificate, one after another with the same seed and run length, and writes
BENCH_<label>.json to the root of this repository.  The file holds each
workload's result line (the last stdout line of run.py), the git commit of the
benchmarked checkout (suffixed -dirty when it has uncommitted changes, null
outside git) and the SHA-256 of its src/ tree, so that two files can be
compared knowing exactly which code each one measured.

Usage, from the root of a checkout:

    python scripts/bench.py --label after --seed 1 --seconds 10
    python scripts/bench.py --label before --seed 1 --seconds 10 --checkout ../parent

Measure the two sides of a comparison on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
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
    """The full hash of HEAD, suffixed -dirty when tracked files differ from it; None outside git."""
    command = ["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"]
    done = subprocess.run(command, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; returns its parsed result line, or raises RuntimeError if the run fails."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: perfbench exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="run length of each workload")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="the checkout to benchmark (default: this one)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    doc = {
        "label": args.label,
        "commit": git_commit(checkout),
        "src_sha256": src_sha256(checkout),
        "seed": args.seed,
        "seconds": args.seconds,
        "results": {},
    }
    for workload in WORKLOADS:
        try:
            doc["results"][workload] = run_workload(checkout, workload, args.seed, args.seconds)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print(f"{workload}: {json.dumps(doc['results'][workload]['metrics'])}")
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
