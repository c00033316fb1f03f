#!/usr/bin/env python3
"""Run the whole verification battery and print a human-readable summary.

Covers all twenty table entries (relations, determinant, operator algebra,
invariants, antipode, module algebra, the fixed-point cross-check), the
seven canonical q-spinor forms, pairwise distinctness, and the invariant-determinant
identities, at one or more sample values of q.

Usage:
    python scripts/verify_all.py [--q 2] [--q 3] [--q 1+1i] [--skip-distinctness]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qact import (
    canonical_forms,
    check_entry,
    parse_scalar,
    validate_q,
    verify_determinant_invariants,
    verify_distinctness,
    verify_canonical_form,
)
from qact.catalog import ENTRY_ORDER


def run_for_q(q_text: str, skip_distinctness: bool) -> bool:
    q = validate_q(parse_scalar(q_text))
    print(f"\n=== q = {q} ===")
    ok = True

    print("canonical q-spinor forms:")
    for form in canonical_forms(q):
        report = verify_canonical_form(form, q)
        print(f"  form {form.form_id}: dim B(A) = {form.expected_dim}  [{'ok' if report.ok else 'FAIL'}]")
        ok &= report.ok

    print("table entries:")
    header = f"  {'entry':6s} {'time':>7s}  checks"
    print(header)
    checks = []
    for eid in ENTRY_ORDER:
        start = time.perf_counter()
        check = check_entry(eid, q)
        elapsed = time.perf_counter() - start
        report = check.report
        status = "all pass" if report.ok else "FAIL " + ", ".join(
            c.name for c in report.checks if not c.passed
        )
        print(f"  {eid:6s} {elapsed:6.2f}s  {status}")
        ok &= report.ok
        checks.append(check)

    if not skip_distinctness:
        start = time.perf_counter()
        report = verify_distinctness({c.entry_id: c.rep for c in checks})
        bad = [c.name for c in report.checks if not c.passed]
        print(
            f"distinctness: {len(report.checks)} checks in {time.perf_counter() - start:.2f}s "
            f"[{'ok' if report.ok else 'FAIL ' + ', '.join(bad)}]"
        )
        ok &= report.ok

    report = verify_determinant_invariants(checks)
    print(f"invariants = span{{1, det_q}} on G entries: [{'ok' if report.ok else 'FAIL'}]")
    ok &= report.ok
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", action="append", default=[], help="sample value, e.g. 2 or 1+1i")
    parser.add_argument("--skip-distinctness", action="store_true")
    args = parser.parse_args(argv)
    q_values = args.q or ["2", "3", "1+1i"]
    ok = True
    for q_text in q_values:
        ok &= run_for_q(q_text, args.skip_distinctness)
    print("\nOVERALL:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
