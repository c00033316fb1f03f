"""Command line interface: verification, computation, and JSON export.

Every invocation writes exactly one JSON document to stdout, except
`qact --help` and `qact <command> -h`, which print argparse's usage text
and exit 0; human diagnostics go to stderr.  Exit codes: 0 success,
1 verification failure, 2 malformed input or usage error.  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .action import Unsupported, build_action, decide_equivalence, operator_algebra, verify_module_algebra
from .clifford import build_model, selftest
from .linalg import DimensionMismatch, Mat, Singular, centralizer
from .qrep import (
    DeterminantSingular,
    GLqRep,
    antipode_check,
    quantum_determinant,
    require_representation,
    verify_glq_relations,
)
from .qspinor import spinor_space
from .report import Report
from .scalars import (
    DeformationParameter,
    InvalidQ,
    ParseError,
    Scalar,
    int_from_digits,
    parse_scalar,
    validate_q,
)


class UsageError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _ArgParser:
    parser = _ArgParser(prog="qact", description=__doc__)
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand-level flag from clobbering one given
    # before the subcommand.
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
    entry_options = argparse.ArgumentParser(add_help=False)
    entry_options.add_argument("--q")  # _parse_q gives 2 if not given; invariants --file refuses one
    entry_options.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgParser)

    p = sub.add_parser("verify-table", help="verify one entry or the whole table", parents=[common, entry_options])
    p.add_argument("--entry", default=None)

    p = sub.add_parser("show-entry", help="print the instantiated data of one entry", parents=[common, entry_options])
    p.add_argument("--entry", required=True)

    p = sub.add_parser("b-space", help="basis of {B : AB = qBA} for a matrix file", parents=[common])
    p.add_argument("--matrix", required=True)
    p.add_argument("--q")

    p = sub.add_parser("check-rep", help="relations, antipode, module algebra of a representation file", parents=[common])
    p.add_argument("--file", required=True)

    p = sub.add_parser("invariants", help="invariant subspace of an entry or representation file",
                       parents=[common, entry_options])
    p.add_argument("--file", default=None)
    p.add_argument("--entry", default=None)

    p = sub.add_parser("equiv", help="decide equivalence of two representation files", parents=[common])
    p.add_argument("--file1", required=True)
    p.add_argument("--file2", required=True)

    sub.add_parser("clifford-selftest", help="validate the Clifford model", parents=[common])

    p = sub.add_parser("export", help="write the representation JSON of an entry", parents=[common, entry_options])
    p.add_argument("--entry", required=True)
    p.add_argument("--out", required=True)

    return parser


def _parse_option(option: str, text: str) -> Scalar:
    try:
        return parse_scalar(text)
    except ParseError as exc:
        raise UsageError(f"{option}: {exc}", exc.position) from exc


def _parse_q(text: str | None) -> DeformationParameter:
    return validate_q(_parse_option("--q", "2" if text is None else text))


def _parse_params(items: list[str]) -> dict[str, Scalar]:
    params = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise UsageError(f"expected NAME=VALUE, got {item!r}")
        if name in params:
            raise UsageError(f"--param {name}: given more than once")
        params[name] = _parse_option(f"--param {name}", value)
    return params


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_int=int_from_digits)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc.msg}", exc.pos) from exc
    except ValueError as exc:  # bytes that are not UTF-8
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"invalid JSON in {path}: nested too deeply") from exc


def _invariants_doc(rep: GLqRep) -> dict:
    """The centralizer's own JSON, each basis matrix also as its coefficients on the units e_ij.

    The Clifford model's units are the standard matrix units (its selftest
    checks units_are_standard), so the coefficient of e_ij is entry (i, j):
    the units are the encoded entries that are not "0".
    """
    doc = centralizer(list(rep.matrices())).to_json()
    doc["basis"] = [{"matrix": m, "units": {f"e{i}{j}": x for i, row in enumerate(m["rows"], 1)
                                            for j, x in enumerate(row, 1) if x != "0"}} for m in doc["basis"]]
    return doc


def _decode_file(kind: str, path: str, decode):
    """decode(the JSON in path); every decoding error names the file."""
    data = _load_json(path)
    try:
        return decode(data)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"{kind} file {path} is missing fields: {exc}") from exc
    except (ParseError, DimensionMismatch, InvalidQ) as exc:
        raise UsageError(f"{kind} file {path}: {exc}") from exc


def _rep_from_file(path: str, require_valid: bool = False) -> GLqRep:
    rep = _decode_file("representation", path, GLqRep.from_json)
    if require_valid:
        report = verify_glq_relations(rep)
        if not report.ok:
            bad = report.first_failure
            raise UsageError(f"{path} is not a representation: {bad.name} fails")
        try:
            build_action(rep)  # its antipode inverts det_q
        except DeterminantSingular as exc:
            raise UsageError(f"{path} is not a GL_q representation: {exc}") from exc
    return rep


def _entry_options(args) -> tuple[DeformationParameter, catalog.TableEntry | None, dict[str, Scalar]]:
    """--q, the entry that --entry names (None without one) and --param, read and refused in that order."""
    q = _parse_q(args.q)
    entry = None if args.entry is None else catalog.get_entry(args.entry)
    return q, entry, _parse_params(args.param)


def _cmd_verify_table(args) -> tuple[dict, int]:
    q, entry, overrides = _entry_options(args)
    if entry is not None:
        check = catalog.check_entry(entry.entry_id, q, overrides)
        doc = {"q": q.q.to_json(), "entries": [check.to_json()], "ok": check.report.ok}
        return doc, 0 if check.report.ok else 1
    # Table-wide, --param values act as policy preferences: they apply only
    # to entries that declare the parameter, and a name no entry declares
    # exits 2.
    table = catalog.verify_table(q, policy=overrides or None)
    return table.to_json(), 0 if table.ok else 1


def _entry_rep(args) -> tuple[catalog.TableEntry, DeformationParameter, dict[str, Scalar], GLqRep]:
    """The entry, q, resolved params and representation (relations verified) that --entry, --q and --param name."""
    q, entry, overrides = _entry_options(args)
    params = catalog.resolve_params(entry, q, overrides)
    return entry, q, params, require_representation(entry.representation(q, params))


def _cmd_show_entry(args) -> tuple[dict, int]:
    entry, q, params, rep = _entry_rep(args)
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
    a = _decode_file("matrix", args.matrix, Mat.from_json)
    if a.n != 4:  # the operator has n^4 entries
        raise UsageError(f"matrix file {args.matrix}: b-space takes 4x4 matrices")
    space = spinor_space(a, q)
    return {"q": q.q.to_json(), **space.to_json()}, 0


def _cmd_check_rep(args) -> tuple[dict, int]:
    rep = _rep_from_file(args.file)
    report = Report()
    relations = verify_glq_relations(rep)
    report.extend(relations, prefix="relation:")
    if relations.ok:
        try:
            action = build_action(rep)
        except DeterminantSingular as exc:
            report.add("antipode:determinant", False, str(exc))
            report.add("module_algebra", False, str(exc))
        else:
            counit = antipode_check(rep, action.starred)
            report.extend(counit, prefix="antipode:")
            report.extend(verify_module_algebra(counit))
    return report.to_json(), 0 if report.ok else 1


def _cmd_invariants(args) -> tuple[dict, int]:
    if (args.file is None) == (args.entry is None):
        raise UsageError("invariants needs exactly one of --file or --entry")
    if args.file is not None:
        if args.q is not None or args.param:
            raise UsageError("invariants --file takes no --q or --param: the file gives q and the matrices")
        rep = _rep_from_file(args.file, require_valid=True)
    else:
        rep = _entry_rep(args)[3]
    return _invariants_doc(rep), 0


def _cmd_equiv(args) -> tuple[dict, int]:
    r1 = _rep_from_file(args.file1, require_valid=True)
    r2 = _rep_from_file(args.file2, require_valid=True)
    return decide_equivalence(r1, r2).to_json(), 0


def _cmd_clifford_selftest(args) -> tuple[dict, int]:
    report = selftest(build_model())
    return report.to_json(), 0 if report.ok else 1


def _cmd_export(args) -> tuple[dict, int]:
    entry, _, _, rep = _entry_rep(args)
    text = json.dumps(rep.to_json(), indent=2) + "\n"  # before --out is opened, so a failure leaves no file
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
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


def _attach_q_values(argv: list[str]) -> list[str]:
    """Write `--q -1/2` as `--q=-1/2`: argparse takes a word such as -1/2 or -i for an option."""
    joined = list(argv)
    for k in reversed(range(1, len(joined))):
        if joined[k - 1] == "--q" and joined[k].startswith("-") and not joined[k].startswith("--"):
            joined[k - 1 : k + 1] = [f"--q={joined[k]}"]
    return joined


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(_attach_q_values(sys.argv[1:] if argv is None else argv))
        doc, code = _COMMANDS[args.command](args)
    except (UsageError, ParseError, catalog.UnknownEntry, InvalidQ, catalog.ConstraintViolated, Unsupported, Singular,
            DimensionMismatch) as exc:
        _emit({"error": str(exc), "position": getattr(exc, "position", None)}, pretty=False)
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
