"""Command line interface: verification, computation, and JSON export.

Every invocation writes exactly one JSON document to stdout; human
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 malformed input or usage error.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import catalog
from .action import Unsupported, build_action, decide_equivalence, operator_algebra, verify_module_algebra
from .clifford import default_model, express_in_units, selftest
from .linalg import DimensionMismatch, GridTooLarge, Mat, NotTriangular, Singular, centralizer
from .qrep import (
    DeterminantNotCentral,
    DeterminantSingular,
    GLqRep,
    antipode_check,
    quantum_determinant,
    verify_glq_relations,
)
from .qspinor import spinor_space
from .report import Report
from .scalars import (
    DeformationParameter,
    InvalidQ,
    ParseError,
    Scalar,
    format_scalar,
    parse_scalar,
    validate_q,
)


class UsageError(ValueError):
    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qact", description=__doc__)
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand-level flag from clobbering one given
    # before the subcommand.
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("verify-table", help="verify one entry or the whole table", parents=[common])
    p.add_argument("--entry", default=None)
    p.add_argument("--q", default="2")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")

    p = sub.add_parser("show-entry", help="print the instantiated data of one entry", parents=[common])
    p.add_argument("--entry", required=True)
    p.add_argument("--q", default="2")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")

    p = sub.add_parser("b-space", help="basis of {B : AB = qBA} for a matrix file", parents=[common])
    p.add_argument("--matrix", required=True)
    p.add_argument("--q", default="2")

    p = sub.add_parser("check-rep", help="relations, antipode, module algebra of a representation file", parents=[common])
    p.add_argument("--file", required=True)

    p = sub.add_parser("invariants", help="invariant subspace of an entry or representation file", parents=[common])
    p.add_argument("--file", default=None)
    p.add_argument("--entry", default=None)
    p.add_argument("--q", default="2")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")

    p = sub.add_parser("equiv", help="decide equivalence of two representation files", parents=[common])
    p.add_argument("--file1", required=True)
    p.add_argument("--file2", required=True)

    sub.add_parser("clifford-selftest", help="validate the Clifford model", parents=[common])

    p = sub.add_parser("export", help="write the representation JSON of an entry", parents=[common])
    p.add_argument("--entry", required=True)
    p.add_argument("--q", default="2")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--out", required=True)

    return parser


def _parse_q(text: str) -> DeformationParameter:
    return validate_q(parse_scalar(text))


def _parse_params(items: list[str]) -> dict[str, Scalar]:
    params = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise UsageError(f"expected NAME=VALUE, got {item!r}")
        params[name] = parse_scalar(value)
    return params


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc.msg}", exc.pos) from exc


def _unit_name(i: int, j: int) -> str:
    return f"e{i}{j}"


def _invariants_doc(rep: GLqRep) -> dict:
    model = default_model()
    space = centralizer(list(rep.matrices()))
    basis = []
    for m in space.matrices():
        coeffs = express_in_units(m, model)
        units = {
            _unit_name(i, j): format_scalar(coeffs[(i, j)])
            for i in range(1, 5)
            for j in range(1, 5)
            if coeffs[(i, j)]
        }
        basis.append({"matrix": m.to_json(), "units": units})
    return {"ambient_dim": space.ambient_dim, "dim": space.dim, "basis": basis}


def _rep_from_file(path: str, require_valid: bool = False) -> GLqRep:
    data = _load_json(path)
    try:
        rep = GLqRep.from_json(data)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"representation file {path} is missing fields: {exc}") from exc
    if require_valid:
        report = verify_glq_relations(rep)
        if not report.ok:
            bad = report.first_failure
            raise UsageError(f"{path} is not a representation: {bad.name} fails")
    return rep


def _cmd_verify_table(args) -> tuple[dict, int]:
    q = _parse_q(args.q)
    overrides = _parse_params(args.param)
    if args.entry is not None:
        check = catalog.check_entry(args.entry, q, overrides)
        doc = {"q": q.q.to_json(), "entries": [check.to_json()], "ok": check.report.ok}
        return doc, 0 if check.report.ok else 1
    # Table-wide, --param values act as policy preferences: they apply only
    # to entries that declare the parameter.
    table = catalog.verify_table(q, policy=overrides or None)
    return table.to_json(), 0 if table.ok else 1


def _cmd_show_entry(args) -> tuple[dict, int]:
    q = _parse_q(args.q)
    entry = catalog.get_entry(args.entry)
    params = catalog.resolve_params(entry, q, _parse_params(args.param))
    rep = catalog.instantiate(entry.entry_id, q, params)
    doc = {
        "entry": entry.entry_id,
        "q": q.q.to_json(),
        "params": {name: value.to_json() for name, value in params.items()},
        "matrices": {name: m for name, m in rep.to_json().items() if name != "q"},
        "det_q": quantum_determinant(rep).to_json(),
        "operator_algebra": operator_algebra(rep).to_json(),
        "invariants": _invariants_doc(rep),
    }
    return doc, 0


def _cmd_b_space(args) -> tuple[dict, int]:
    q = _parse_q(args.q)
    data = _load_json(args.matrix)
    try:
        a = Mat.from_json(data)
    except (KeyError, TypeError, DimensionMismatch) as exc:
        raise UsageError(f"invalid matrix file: {exc}") from exc
    space = spinor_space(a, q)
    return {"q": q.q.to_json(), **space.to_json()}, 0


def _cmd_check_rep(args) -> tuple[dict, int]:
    rep = _rep_from_file(args.file)
    report = Report("check-rep")
    relations = verify_glq_relations(rep)
    report.extend(relations, prefix="relation:")
    if relations.ok:
        try:
            report.extend(antipode_check(rep), prefix="antipode:")
        except (DeterminantSingular, DeterminantNotCentral) as exc:
            report.add("antipode:determinant", False, str(exc))
        report.extend(verify_module_algebra(build_action(rep, verify=False)))
    return report.to_json(), 0 if report.ok else 1


def _cmd_invariants(args) -> tuple[dict, int]:
    if (args.file is None) == (args.entry is None):
        raise UsageError("invariants needs exactly one of --file or --entry")
    if args.file is not None:
        rep = _rep_from_file(args.file, require_valid=True)
    else:
        q = _parse_q(args.q)
        rep = catalog.instantiate(args.entry, q, _parse_params(args.param))
    return _invariants_doc(rep), 0


def _cmd_equiv(args) -> tuple[dict, int]:
    r1 = _rep_from_file(args.file1, require_valid=True)
    r2 = _rep_from_file(args.file2, require_valid=True)
    return decide_equivalence(r1, r2).to_json(), 0


def _cmd_clifford_selftest(args) -> tuple[dict, int]:
    report = selftest(default_model())
    return report.to_json(), 0 if report.ok else 1


def _cmd_export(args) -> tuple[dict, int]:
    q = _parse_q(args.q)
    rep = catalog.instantiate(args.entry, q, _parse_params(args.param))
    entry = catalog.get_entry(args.entry)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(rep.to_json(), handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
    return {"entry": entry.entry_id, "out": args.out}, 0


_COMMANDS = {
    "verify-table": _cmd_verify_table,
    "show-entry": _cmd_show_entry,
    "b-space": _cmd_b_space,
    "check-rep": _cmd_check_rep,
    "invariants": _cmd_invariants,
    "equiv": _cmd_equiv,
    "clifford-selftest": _cmd_clifford_selftest,
    "export": _cmd_export,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        doc, code = _COMMANDS[args.command](args)
    except (UsageError, ParseError) as exc:
        _emit({"error": str(exc), "position": exc.position}, pretty=False)
        return 2
    except catalog.UnknownEntry as exc:
        _emit({"error": f"unknown table entry {exc.args[0]!r}", "position": None}, pretty=False)
        return 2
    except (
        InvalidQ, catalog.ConstraintViolated, Unsupported, GridTooLarge, NotTriangular, Singular, DimensionMismatch
    ) as exc:
        _emit({"error": str(exc), "position": None}, pretty=False)
        return 2
    _emit(doc, pretty=args.pretty)
    return code


def _emit(doc: dict, pretty: bool):
    if pretty:
        text = json.dumps(doc, indent=2)
    else:
        text = json.dumps(doc, separators=(",", ":"))
    sys.stdout.write(text + "\n")


if __name__ == "__main__":
    sys.exit(main())
