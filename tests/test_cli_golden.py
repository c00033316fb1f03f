"""Every command's exit code and stdout, byte for byte, against tests/golden/cli/expected.json.

The table-wide verify-table output is pinned by perfbench/golden/ and equiv's
by tests/golden/equiv/; these records pin the other commands.  Each holds an
argv, in which {dir} stands for the directory the case's files are written
to, the exit code, and the SHA-256 of stdout with that directory written
back as {dir}.  An export record also holds the SHA-256 of the file written.
The last records pin `qact --help` and `qact <command> -h`, argparse's usage
text as Python 3.11 prints it at 80 columns, so a change to the parser shows.
The records were made once and nothing here rewrites them, so a record
that differs is a change of output.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from qact.catalog import ENTRY_ORDER
from qact.cli import main
from qact.qspinor import canonical_forms
from qact.scalars import parse_scalar, validate_q

EXPECTED = Path(__file__).resolve().parent / "golden" / "cli" / "expected.json"
Q_TEXTS = ("2", "3", "1+1i")
COMMANDS = ("verify-table", "show-entry", "b-space", "check-rep", "invariants", "equiv", "clifford-selftest", "export")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_cases() -> list[tuple[str, ...]]:
    """The argvs in the order they run; each export comes before the commands that read its file."""
    cases = [("clifford-selftest",), ("--pretty", "show-entry", "--entry", "S1"),
             ("show-entry", "--entry", "S1", "--pretty")]
    for q in Q_TEXTS:
        cases += [("b-space", "--matrix", f"{{dir}}/form{k}-q{q}.json", "--q", q) for k in range(1, 8)]
        for eid in ENTRY_ORDER:
            out = f"{{dir}}/{eid}-q{q}.json"
            cases += [("show-entry", "--entry", eid, "--q", q), ("verify-table", "--entry", eid, "--q", q),
                      ("invariants", "--entry", eid, "--q", q), ("export", "--entry", eid, "--q", q, "--out", out),
                      ("check-rep", "--file", out), ("invariants", "--file", out)]
    return cases + [("--help",)] + [(command, "-h") for command in COMMANDS]


def run_cases(directory: Path) -> list[dict]:
    """Write each canonical form's A to directory, run every case in process, and record it."""
    for q in Q_TEXTS:
        for form in canonical_forms(validate_q(parse_scalar(q))):
            (directory / f"form{form.form_id}-q{q}.json").write_text(json.dumps(form.a.to_json()))
    records = []
    for argv in cli_cases():
        filled = [arg.replace("{dir}", str(directory)) for arg in argv]
        with redirect_stdout(io.StringIO()) as out:
            try:
                code = main(filled)
            except SystemExit as exc:  # --help and -h
                code = exc.code
        stdout = out.getvalue().replace(str(directory), "{dir}")
        record = {"argv": list(argv), "exit": code, "stdout_sha256": _sha256(stdout.encode("utf-8"))}
        if "--out" in argv:
            record["file_sha256"] = _sha256(Path(filled[-1]).read_bytes())
        records.append(record)
    return records


def test_every_command_matches_its_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage text to the terminal's width
    expected = json.loads(EXPECTED.read_text())
    got = run_cases(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    differ = [" ".join(r["argv"]) for r, want in zip(got, expected) if r != want]
    assert not differ, f"{len(differ)} of {len(got)} invocations differ: {differ}"
