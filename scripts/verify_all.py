#!/usr/bin/env python3
"""Run the whole verification battery and print a human-readable summary.

Covers the seven canonical q-spinor forms and `verify_table`, the table
battery that `qact verify-table` runs: all twenty table entries (relations,
determinant, operator algebra, invariants, antipode, module algebra, the
fixed-point cross-check), pairwise distinctness, and the
invariant-determinant identities, at one or more sample values of q.
Exits 0 when every check passes, 1 when one fails, and 2 on a bad --q.

Usage:
    python scripts/verify_all.py [--q 2] [--q 3] [--q 1+1i]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qact import InvalidQ, ParseError, canonical_forms, parse_scalar, validate_q, verify_canonical_form, verify_table


def _verdict(report, ok_text: str) -> str:
    return ok_text if report.ok else "FAIL " + ", ".join(c.name for c in report.checks if not c.passed)


def run_for_q(q) -> bool:
    print(f"\n=== q = {q} ===")
    ok = True

    print("canonical q-spinor forms:")
    for form in canonical_forms(q):
        bad = verify_canonical_form(form, q).first_failure
        status = "ok" if bad is None else f"FAIL {bad.name}: {bad.detail}" if bad.detail else f"FAIL {bad.name}"
        ok &= bad is None
        print(f"  form {form.form_id}: dim B(A) = {form.expected_dim}  [{status}]")

    table = verify_table(q)
    print("table entries:")
    print(f"  {'entry':6s}  checks")
    for entry in table.entries:
        print(f"  {entry.entry_id:6s}  {_verdict(entry.report, 'all pass')}")
    print(f"distinctness: {len(table.distinctness.checks)} checks [{_verdict(table.distinctness, 'ok')}]")
    print(f"invariants = span{{1, det_q}} on G entries: [{_verdict(table.determinant_invariants, 'ok')}]")
    return ok and table.ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", action="append", default=[], help="sample value, e.g. 2 or 1+1i")
    args = parser.parse_args(argv)
    q_values = []
    for text in args.q or ["2", "3", "1+1i"]:
        try:
            q_values.append(validate_q(parse_scalar(text)))
        except (InvalidQ, ParseError) as exc:
            parser.error(f"--q {text}: {exc}")
    ok = True
    for q in q_values:
        ok &= run_for_q(q)
    print("\nOVERALL:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
