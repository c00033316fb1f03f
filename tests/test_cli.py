import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sqrt2_blocks
from qact import (
    EquivalenceWitness,
    GLqRep,
    Mat,
    Scalar,
    build_action,
    decide_equivalence,
    instantiate,
    parse_scalar,
    validate_q,
    verify_glq_relations,
)
from qact.catalog import ENTRIES, ENTRY_ORDER
from qact.cli import main
from qact import clifford
from qact.clifford import default_model
from qact.scalars import scalar_from_json

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_clifford_selftest(capsys):
    code, out = run(capsys, "clifford-selftest")
    assert code == 0
    assert out == (
        '{"ok":true,"checks":['
        '{"name":"anticommutators","pass":true,"detail":"10 identities"},'
        '{"name":"unit_products","pass":true,"detail":"256 identities"},'
        '{"name":"unit_resolution","pass":true,"detail":"sum of e_ii"},'
        '{"name":"units_are_standard","pass":true,"detail":"e_ij match the standard matrix units"}]}\n'
    )


def test_clifford_selftest_reports_a_broken_model(capsys, monkeypatch):
    # e12 at half its value breaks its products and its match with the
    # standard unit; the command builds its own model, so the cached
    # default_model is never touched.
    monkeypatch.setitem(clifford.UNIT_EXPRESSIONS, (1, 2), "(1+g0)*(g1+i*g2)*g3/2")
    code, out = run(capsys, "clifford-selftest")
    assert code == 1
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["unit_products", "units_are_standard"]


def test_failed_determinant_check_names_both_matrices(capsys, monkeypatch):
    # G3b's increment q^-2 e12 is the one its determinant column 1 + e12 forces;
    # with e12 instead, det_q = 1 + q^2 e12.
    g3b = ENTRIES["G3b"].replace(a22_increment="e12")
    monkeypatch.setitem(ENTRIES, "G3b", g3b)
    code, doc = run_json(capsys, "verify-table", "--entry", "G3b", "--q", "2")
    assert code == 1
    failed = {c["name"]: c["detail"] for c in doc["entries"][0]["checks"] if not c["pass"]}
    assert failed["quantum_determinant"] == (
        "det_q = Mat[1 4 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1], expected Mat[1 1 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1]"
    )


def test_verify_single_entry(capsys):
    code, doc = run_json(capsys, "verify-table", "--entry", "S1", "--q", "2")
    assert code == 0
    assert doc["ok"] is True
    assert doc["entries"][0]["entry"] == "S1"
    names = [c["name"] for c in doc["entries"][0]["checks"]]
    assert "quantum_determinant" in names and "module_algebra" in names


@pytest.mark.parametrize("q_text", ["2", "3", "1+1i"])
def test_verify_table_wide(capsys, q_text):
    code, out = run(capsys, "verify-table", "--q", q_text)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"verify-table-q{q_text}.json").read_bytes()
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["entries"]) == 20
    assert doc["distinctness"]["ok"] is True
    assert len(doc["distinctness"]["checks"]) == 210
    assert doc["determinant_invariants"]["ok"] is True


def test_table_wide_param_no_entry_declares_exits_2(capsys):
    code, doc = run_json(capsys, "verify-table", "--param", "alpha=3", "--param", "alpah=3")
    assert code == 2
    assert doc == {"error": "parameter alpah = 3: not a parameter of any table entry", "position": None}


@pytest.mark.parametrize("argv", [
    ("verify-table",),
    ("verify-table", "--entry", "S1"),
    ("show-entry", "--entry", "S1"),
    ("invariants", "--entry", "S1"),
    ("export", "--entry", "S1", "--out", "s1.json"),
])
def test_repeated_param_name_exits_2(capsys, tmp_path, argv):
    # A second value for one name would silently win; it is refused instead,
    # also when both values agree.
    argv = tuple(str(tmp_path / x) if x.endswith(".json") else x for x in argv)
    for values in (("alpha=3", "alpha=5"), ("alpha=3", "alpha=3")):
        code, doc = run_json(capsys, *argv, "--param", values[0], "--param", "beta=5", "--param", values[1])
        assert code == 2
        assert doc == {"error": "--param alpha: given more than once", "position": None}
    assert not (tmp_path / "s1.json").exists()


def test_show_entry(capsys):
    code, doc = run_json(capsys, "show-entry", "--entry", "S1", "--q", "2", "--param", "alpha=3")
    assert code == 0
    assert doc["matrices"]["A11"]["rows"][0][0] == "4"
    assert doc["det_q"]["rows"][0][0] == "1"
    assert doc["operator_algebra"]["dim"] == 6
    assert doc["invariants"]["dim"] == 3
    units = [b["units"] for b in doc["invariants"]["basis"]]
    assert {"e43": "1"} in units


def test_b_space(capsys, tmp_path):
    matrix_file = tmp_path / "a11.json"
    matrix_file.write_text(json.dumps({
        "n": 4,
        "rows": [["4", "0", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    }))
    code, doc = run_json(capsys, "b-space", "--matrix", str(matrix_file), "--q", "2")
    assert code == 0
    assert doc["dim"] == 3
    found = {tuple(tuple(r) for r in m["rows"]) for m in doc["basis"]}
    def unit_rows(i, j):
        return tuple(tuple("1" if (r, c) == (i - 1, j - 1) else "0" for c in range(4)) for r in range(4))
    assert found == {unit_rows(1, 2), unit_rows(2, 3), unit_rows(2, 4)}


def test_export_and_check_rep(capsys, tmp_path):
    rep_file = tmp_path / "s1.json"
    code, doc = run_json(capsys, "export", "--entry", "S1", "--out", str(rep_file))
    assert code == 0 and rep_file.exists()
    code, doc = run_json(capsys, "check-rep", "--file", str(rep_file))
    assert code == 0
    assert doc["ok"] is True

    data = json.loads(rep_file.read_text())
    data["A22"]["rows"][1][0] = "1"  # corrupt one entry
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(data))
    code, doc = run_json(capsys, "check-rep", "--file", str(bad_file))
    assert code == 1
    assert doc["ok"] is False


# The full check-rep document of an exported S1 at q = 2, byte for byte.
CHECK_REP_S1_Q2 = (
    '{"ok":true,"checks":['
    '{"name":"relation:a11_a12_spinor","pass":true,"detail":""},'
    '{"name":"relation:a11_a21_spinor","pass":true,"detail":""},'
    '{"name":"relation:a12_a22_spinor","pass":true,"detail":""},'
    '{"name":"relation:a21_a22_spinor","pass":true,"detail":""},'
    '{"name":"relation:a12_a21_commute","pass":true,"detail":""},'
    '{"name":"relation:diagonal_commutator","pass":true,"detail":""},'
    '{"name":"antipode:counit_left_11","pass":true,"detail":""},'
    '{"name":"antipode:counit_right_11","pass":true,"detail":""},'
    '{"name":"antipode:counit_left_12","pass":true,"detail":""},'
    '{"name":"antipode:counit_right_12","pass":true,"detail":""},'
    '{"name":"antipode:counit_left_21","pass":true,"detail":""},'
    '{"name":"antipode:counit_right_21","pass":true,"detail":""},'
    '{"name":"antipode:counit_left_22","pass":true,"detail":""},'
    '{"name":"antipode:counit_right_22","pass":true,"detail":""},'
    '{"name":"module_algebra_11","pass":true,"detail":"(M S)_11 = I"},'
    '{"name":"module_algebra_12","pass":true,"detail":"(M S)_12 = 0"},'
    '{"name":"module_algebra_21","pass":true,"detail":"(M S)_21 = 0"},'
    '{"name":"module_algebra_22","pass":true,"detail":"(M S)_22 = I"}]}\n'
)


def test_check_rep_bytes(capsys, tmp_path):
    rep_file = tmp_path / "s1.json"
    assert main(["export", "--entry", "S1", "--q", "2", "--out", str(rep_file)]) == 0
    capsys.readouterr()
    assert run(capsys, "check-rep", "--file", str(rep_file)) == (0, CHECK_REP_S1_Q2)


def test_equiv(capsys, tmp_path):
    for eid, name in (("S1", "s1.json"), ("S3", "s3.json")):
        assert main(["export", "--entry", eid, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, "equiv", "--file1", str(tmp_path / "s1.json"), "--file2", str(tmp_path / "s3.json"))
    assert code == 0
    assert doc["equivalent"] is False
    assert doc["obstruction"] == "spectrum"
    assert "u" not in doc
    code, doc = run_json(capsys, "equiv", "--file1", str(tmp_path / "s1.json"), "--file2", str(tmp_path / "s1.json"))
    assert code == 0
    assert doc["equivalent"] is True
    assert doc["alpha1"] == {"re": "1", "im": "0"}
    assert doc["u"]["rows"][0][0] == "1"


def test_equiv_different_q_is_an_answer(capsys, tmp_path):
    for q, name in (("2", "s1q2.json"), ("3", "s1q3.json")):
        assert main(["export", "--entry", "S1", "--q", q, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    code, out = run(capsys, "equiv", "--file1", str(tmp_path / "s1q2.json"), "--file2", str(tmp_path / "s1q3.json"))
    assert (code, out) == (0, '{"equivalent":false,"candidates_tried":0,"obstruction":"q"}\n')


EQUIV_GOLDEN = Path(__file__).resolve().parent / "golden" / "equiv"


def test_equiv_matches_golden_output(capsys):
    """stdout and exit code of `qact equiv` as recorded in tests/golden/equiv/expected.json.

    The cases are all 25 ordered pairs of the five unipotent Jordan types
    (J, 0, 0, I) at q = 2, and S1 against a dense conjugate at q = 2, 3 and
    1+i; the outputs were recorded before the simplex search skipped points
    by support, so a witness here is still the first invertible point.
    """
    cases = json.loads((EQUIV_GOLDEN / "expected.json").read_text())
    assert len(cases) == 28
    for case in cases:
        files = [str(EQUIV_GOLDEN / case[key]) for key in ("file1", "file2")]
        got = run(capsys, "equiv", "--file1", files[0], "--file2", files[1])
        assert got == (case["exit"], case["stdout"]), files


def test_equiv_traceless_dense_conjugate(capsys, tmp_path):
    # trace A11 = alpha + q^2 + q + 1 = 0, and u leaves no block triangular.
    rep = instantiate("S5", validate_q(2), {"alpha": -7})
    u = Mat([[Scalar(x) for x in row] for row in ((1, 2, 0, 1), (1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 1))])
    moved = EquivalenceWitness(u, Scalar(2), Scalar(1, 1)).apply(rep)
    for rep_, name in ((rep, "s5.json"), (moved, "moved.json")):
        (tmp_path / name).write_text(json.dumps(rep_.to_json()))
    code, doc = run_json(capsys, "equiv", "--file1", str(tmp_path / "s5.json"), "--file2", str(tmp_path / "moved.json"))
    assert code == 0
    assert doc["equivalent"] is True
    witness = EquivalenceWitness(Mat.from_json(doc["u"]), scalar_from_json(doc["alpha1"]), scalar_from_json(doc["alpha2"]))
    assert witness.apply(rep) == moved


def test_equiv_large_intertwiner_space(capsys, tmp_path):
    # (J, 0, 0, I) with J unipotent of Jordan type (2, 1, 1): its intertwiner
    # space with itself has dimension 10.
    j = Mat.identity(4) + Mat.unit(4, 1, 2)
    rep = GLqRep(j, Mat.zero(4), Mat.zero(4), Mat.identity(4), validate_q(2))
    (tmp_path / "j211.json").write_text(json.dumps(rep.to_json()))
    path = str(tmp_path / "j211.json")
    code, doc = run_json(capsys, "equiv", "--file1", path, "--file2", path)
    assert code == 0
    assert doc["equivalent"] is True
    witness = EquivalenceWitness(Mat.from_json(doc["u"]), scalar_from_json(doc["alpha1"]), scalar_from_json(doc["alpha2"]))
    assert witness.apply(rep) == rep


def _two_by_two(data):
    for key in ("A11", "A12", "A21", "A22"):
        data[key] = {"n": 2, "rows": [row[:2] for row in data[key]["rows"][:2]]}


# Each case: the mutation of an S1 representation file, what its error names,
# and what b-space names for the mutated A11 as a matrix file (None: A11
# intact).
@pytest.mark.parametrize("mutate, names, matrix_names", [
    (lambda data: data.update(q={"re": "abc", "im": "0"}), "q.re", None),
    (lambda data: data.update(q={"re": 0.1, "im": "0"}), "q.re", None),
    (lambda data: data.update(q={"re": "1/x"}), "q.re", None),
    (lambda data: data.update(q={"im": "0"}), "q = 0 is zero", None),
    (lambda data: data["A11"]["rows"][0].__setitem__(0, {"re": "4", "im": 0.5}), "A11.rows[0][0].im",
     "matrix.rows[0][0].im"),
    (lambda data: data["A11"]["rows"][0].__setitem__(2, {"re": "1", "im": "1/x"}), "A11.rows[0][2].im",
     "matrix.rows[0][2].im"),
    (lambda data: data["A11"]["rows"][1].__setitem__(1, "1/x"), "A11.rows[1][1]", "matrix.rows[1][1]"),
    (lambda data: data["A22"]["rows"][3].__setitem__(1, "2+"), "A22.rows[3][1]", None),
    (lambda data: data["A11"].pop("rows"), "missing fields: 'rows'", "missing fields: 'rows'"),
    (lambda data: data["A11"]["rows"].pop(), "A11: matrix JSON has inconsistent dimensions",
     "matrix: matrix JSON has inconsistent dimensions"),
    (_two_by_two, "A11: representation matrices must be 4x4", "b-space takes 4x4 matrices"),
    (lambda data: data.update(q={"re": "2", "IM": "1"}), "q: unknown key 'IM'", None),
    (lambda data: data["A11"]["rows"][0].__setitem__(0, {"re": "4", "Im": "1"}), "A11.rows[0][0]: unknown key 'Im'",
     "matrix.rows[0][0]: unknown key 'Im'"),
    (lambda data: data.update(A11=[1, 2]), "A11 must be a JSON object", "matrix must be a JSON object"),
    (lambda data: data["A11"].update(rows=5), "A11.rows must be a JSON array of arrays",
     "matrix.rows must be a JSON array of arrays"),
    (lambda data: data["A11"]["rows"].__setitem__(0, 7), "A11.rows must be a JSON array of arrays",
     "matrix.rows must be a JSON array of arrays"),
    *((lambda data, n=n: data["A11"].update(n=n), "A11.n must be a JSON integer", "matrix.n must be a JSON integer")
      for n in (4.0, "4", True, None)),
], ids=["q-text", "q-float", "q-digits", "q-zero", "entry-float", "entry-digits", "entry-fraction", "entry-string",
        "no-rows", "three-rows", "2x2", "q-unknown-key", "entry-unknown-key", "matrix-array", "rows-number",
        "row-number", "n-float", "n-string", "n-true", "n-null"])
def test_malformed_representation_files_exit_2(capsys, tmp_path, mutate, names, matrix_names):
    assert main(["export", "--entry", "S1", "--out", str(tmp_path / "s1.json")]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "s1.json").read_text())
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for argv in (
        ("check-rep", "--file", str(bad)),
        ("equiv", "--file1", str(tmp_path / "s1.json"), "--file2", str(bad)),
        ("invariants", "--file", str(bad)),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == 2 and names in doc["error"], argv
        assert str(bad) in doc["error"], argv  # named even as the second file of equiv
        assert doc["position"] is None, argv  # an offset inside a field is no offset in the file
    if matrix_names is not None:
        bad_matrix = tmp_path / "bad-a11.json"
        bad_matrix.write_text(json.dumps(data["A11"]))
        code, doc = run_json(capsys, "b-space", "--matrix", str(bad_matrix))
        assert code == 2 and matrix_names in doc["error"]
        assert doc["error"].startswith(f"matrix file {bad_matrix}") and doc["position"] is None


def test_long_q_output_and_export(capsys, tmp_path):
    # q = 10^2999 is a valid q, but A11 of S1 holds q^2, whose 5,999 digits
    # exceed Python's int-to-text limit.
    q = "1" + "0" * 2999
    code, out = run(capsys, "show-entry", "--entry", "S1", "--q", q)
    assert code == 0 and out.count("\n") == 1
    assert json.loads(out)["matrices"]["A11"]["rows"][0][0] == "1" + "0" * 5998
    rep_file = tmp_path / "s1.json"
    code, out = run(capsys, "export", "--entry", "S1", "--q", q, "--out", str(rep_file))
    assert code == 0 and out.count("\n") == 1 and json.loads(out)["out"] == str(rep_file)
    assert json.loads(rep_file.read_text())["q"] == {"re": q, "im": "0"}
    # Input has no digit limit either, so the file reads back.
    code, doc = run_json(capsys, "check-rep", "--file", str(rep_file))
    assert code == 0 and doc["ok"]
    # A long entry that does not decode is quoted by its first 40 characters.
    bad = tmp_path / "bad.json"
    bad.write_text(rep_file.read_text().replace('"1' + "0" * 5998 + '"', '"1' + "0" * 5998 + 'x"', 1))
    code, out = run(capsys, "check-rep", "--file", str(bad))
    doc = json.loads(out)
    assert code == 2 and doc["error"].startswith(f"representation file {bad}: A11.rows[0][0]: unexpected trailing")
    assert len(out.encode()) < 512 and doc["error"].endswith("... (6000 characters)")


def test_export_leaves_no_partial_file(capsys, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("cannot serialize")
    monkeypatch.setattr(json, "dumps", fail)
    out = tmp_path / "s1.json"
    with pytest.raises(ValueError):
        main(["export", "--entry", "S1", "--out", str(out)])
    assert not out.exists()


def test_long_digit_arguments_and_json_ints_decode(capsys, tmp_path):
    digits = "7" * 5000
    code, doc = run_json(capsys, "verify-table", "--entry", "S1", "--q", digits)
    assert code == 0 and doc["q"] == {"re": digits, "im": "0"}
    code, doc = run_json(capsys, "verify-table", "--entry", "S1", "--param", f"alpha={digits}")
    assert code == 0 and doc["entries"][0]["params"] == {"alpha": {"re": digits, "im": "0"}}
    assert main(["export", "--entry", "S1", "--q", digits, "--out", str(tmp_path / "s1.json")]) == 0
    capsys.readouterr()
    text = (tmp_path / "s1.json").read_text()
    bare = tmp_path / "bare-int.json"
    bare.write_text(text.replace(f'"re": "{digits}"', f'"re": {digits}', 1))  # q as a JSON integer
    assert bare.read_text() != text
    code, doc = run_json(capsys, "check-rep", "--file", str(bare))
    assert code == 0 and doc["ok"]


def long_q_round_trip(eid: str, q_text: str) -> list[dict]:
    """The documents of export at q_text, then check-rep, invariants --file and equiv of the file with itself."""
    with tempfile.TemporaryDirectory() as tmp:
        rep = str(Path(tmp) / "rep.json")
        docs = []
        for argv in (("export", "--entry", eid, f"--q={q_text}", "--out", rep), ("check-rep", "--file", rep),
                     ("invariants", "--file", rep), ("equiv", "--file1", rep, "--file2", rep)):
            with redirect_stdout(io.StringIO()) as out:
                assert main(list(argv)) == 0, argv
            docs.append(json.loads(out.getvalue()))
    return docs


@settings(max_examples=4, deadline=None)
@given(eid=st.sampled_from(ENTRY_ORDER), q=st.integers(10**4300, 10**6000 - 1), sign=st.sampled_from(["", "-"]))
def test_long_q_files_read_back(eid, q, sign):
    # Every file export writes, check-rep, invariants and equiv read: no
    # digit limit on either side.
    q_text = sign + str(Decimal(q))
    _, checked, invariants, verdict = long_q_round_trip(eid, q_text)
    assert checked["ok"] and invariants["dim"] >= 1 and verdict["equivalent"]


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv in (
        ("check-rep", "--file", str(deep)),
        ("invariants", "--file", str(deep)),
        ("equiv", "--file1", str(deep), "--file2", str(deep)),
        ("b-space", "--matrix", str(deep)),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == 2 and doc["error"] == f"invalid JSON in {deep}: nested too deeply", argv


def test_check_rep_singular_block_matrix(capsys, tmp_path):
    zero = Mat.zero(4)
    rep_file = tmp_path / "zero.json"
    rep_file.write_text(json.dumps(GLqRep(zero, zero, zero, zero, validate_q(2)).to_json()))
    code, doc = run_json(capsys, "check-rep", "--file", str(rep_file))
    assert code == 1
    assert doc["ok"] is False
    failed = {c["name"]: c["detail"] for c in doc["checks"] if not c["pass"]}
    assert failed == {"antipode:determinant": "quantum determinant is singular",
                      "module_algebra": "quantum determinant is singular"}


def test_singular_determinant_files_are_not_gl_q(capsys, tmp_path):
    # Each satisfies the six relations, but det_q is singular, so M is
    # singular and there is no inner action to compare or to fix.
    zero, one = Mat.zero(4), Mat.identity(4)
    paths = {}
    for name, a11 in (("d1", Mat.diag(1, 0, 0, 0)), ("d2", Mat.diag(2, 0, 0, 0)),
                      ("nilpotent", Mat.unit(4, 1, 2) + Mat.unit(4, 2, 3))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(GLqRep(a11, zero, zero, one, validate_q(2)).to_json()))
        code, doc = run_json(capsys, "check-rep", "--file", str(paths[name]))
        assert code == 1 and {c["name"] for c in doc["checks"] if not c["pass"]} == {
            "antipode:determinant", "module_algebra"}
        code, doc = run_json(capsys, "invariants", "--file", str(paths[name]))
        assert code == 2
        assert doc["error"] == f"{paths[name]} is not a GL_q representation: quantum determinant is singular"
    for first, second in (("d1", "d2"), ("nilpotent", "nilpotent"), ("d1", "nilpotent")):
        code, doc = run_json(capsys, "equiv", "--file1", str(paths[first]), "--file2", str(paths[second]))
        assert code == 2
        assert doc["error"] == f"{paths[first]} is not a GL_q representation: quantum determinant is singular"
    assert main(["export", "--entry", "S1", "--out", str(tmp_path / "s1.json")]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, "equiv", "--file1", str(tmp_path / "s1.json"), "--file2", str(paths["d2"]))
    assert code == 2 and doc["error"].startswith(f"{paths['d2']} is not a GL_q representation")


def test_invariants_subcommand(capsys, tmp_path):
    code, doc = run_json(capsys, "invariants", "--entry", "S2b'", "--q", "2")
    assert code == 0
    assert doc["dim"] == 2
    assert main(["export", "--entry", "G6", "--out", str(tmp_path / "g6.json")]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, "invariants", "--file", str(tmp_path / "g6.json"))
    assert code == 0
    assert doc["dim"] == 2
    code, doc = run_json(capsys, "invariants")
    assert code == 2


def test_invariants_file_takes_no_q_or_param(capsys, tmp_path):
    # The file gives q and the matrices, so --q and --param would be ignored.
    path = tmp_path / "s1.json"
    assert main(["export", "--entry", "S1", "--out", str(path)]) == 0
    capsys.readouterr()
    want = {"error": "invariants --file takes no --q or --param: the file gives q and the matrices", "position": None}
    for extra in (("--q", "3"), ("--q=2",), ("--param", "alpah=1"), ("--q", "3", "--param", "alpha=1")):
        code, doc = run_json(capsys, "invariants", "--file", str(path), *extra)
        assert (code, doc) == (2, want), extra
    # With --entry, --q still defaults to 2.
    assert run(capsys, "invariants", "--entry", "S1") == run(capsys, "invariants", "--entry", "S1", "--q", "2")


def test_invariants_units_are_nonzero_entries(capsys):
    # The units of a basis matrix are its nonzero entries, e_ij in row-major
    # order, and the Clifford model's units recombine them into the matrix.
    model = default_model()
    for eid in ENTRY_ORDER:
        code, doc = run_json(capsys, "invariants", "--entry", eid, "--q", "2")
        assert code == 0
        for item in doc["basis"]:
            rows = item["matrix"]["rows"]
            want = {f"e{i}{j}": x for i, row in enumerate(rows, 1) for j, x in enumerate(row, 1) if x != "0"}
            assert list(item["units"].items()) == list(want.items()), eid
            total = Mat.zero(4)
            for name, x in item["units"].items():
                total = total + model.unit(int(name[1]), int(name[2])).scale(parse_scalar(x))
            assert total == Mat.from_json(item["matrix"]), eid


def test_usage_errors(capsys, tmp_path):
    code, doc = run_json(capsys, "verify-table", "--entry", "S9")
    assert code == 2 and "error" in doc
    code, doc = run_json(capsys, "verify-table", "--q", "1")
    assert code == 2 and "error" in doc
    code, doc = run_json(capsys, "verify-table", "--entry", "S1", "--q", "2x")
    assert code == 2 and doc["position"] >= 0 and doc["error"].startswith("--q: ")
    code, doc = run_json(capsys, "show-entry", "--entry", "S1", "--param", "alpha")
    assert code == 2
    code, doc = run_json(capsys, "verify-table", "--entry", "S5", "--param", "alpha=2")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run_json(capsys, "check-rep", "--file", str(bad))
    assert code == 2
    code, doc = run_json(capsys, "b-space", "--matrix", str(tmp_path / "missing.json"))
    assert code == 2
    code, doc = run_json(capsys, "frobnicate")
    assert code == 2


def _write_refusal_files(directory: Path) -> None:
    """The files of the refusal cases.

    bad.json is not JSON, list.json and text.json hold JSON that is not an
    object, and the scales of sqrt2-1.json and sqrt2-2.json square to 2.
    """
    (directory / "bad.json").write_text("{not json")
    (directory / "list.json").write_text("[]")
    (directory / "text.json").write_text('"x"')
    zero, q = Mat.zero(4), validate_q(2)
    for k, a11 in enumerate(sqrt2_blocks(), 1):
        (directory / f"sqrt2-{k}.json").write_text(json.dumps(GLqRep(a11, zero, zero, Mat.identity(4), q).to_json()))


# The entry commands read --q, then --entry, then --param: an unknown entry
# is named before a malformed or repeated --param, and a bad --q before both.
_ENTRY_COMMANDS = {"verify-table": (), "show-entry": (), "export": ("--out", "{dir}/out.json"), "invariants": ()}
_BAD_PARAMS = {"param-syntax": ("--param", "x"), "param-value": ("--param", "alpha=1/x"),
               "param-repeated": ("--param", "alpha=1", "--param", "alpha=2")}
_ENTRY_ORDER_CASES = [
    *(pytest.param((command, "--entry", "NOPE", *bad, *extra), "unknown table entry 'NOPE'", None,
                   id=f"{command}-unknown-entry-before-{name}")
      for command, extra in _ENTRY_COMMANDS.items() for name, bad in _BAD_PARAMS.items()),
    *(pytest.param((command, "--q", "1", "--entry", "NOPE", "--param", "x", *extra),
                   "q = 1 is zero or a root of unity", None, id=f"{command}-q-first")
      for command, extra in _ENTRY_COMMANDS.items()),
]


# Each refusal that a command reaches: its argv ({dir} is where
# _write_refusal_files wrote), and the exact error and position it prints.
@pytest.mark.parametrize("argv, error, position", [
    pytest.param(("invariants",), "invariants needs exactly one of --file or --entry", None, id="usage"),
    pytest.param(("check-rep", "--file", "{dir}/bad.json"),
                 "invalid JSON in {dir}/bad.json: Expecting property name enclosed in double quotes", 1,
                 id="usage-position"),
    pytest.param(("verify-table", "--q", "2x"), "--q: unexpected trailing characters (position 1)", 1, id="q-scalar"),
    pytest.param(("verify-table", "--q", "\u0662", "--entry", "S1"), "--q: expected digits (position 0)", 0,
                 id="q-non-ascii-digit"),
    pytest.param(("verify-table", "--entry", "S1", "--param", "alpha=1/\u00b2"),
                 "--param alpha: expected digits (position 2)", 2, id="param-non-ascii-digit"),
    pytest.param(("verify-table", "--q", "\u00a02", "--entry", "S1"), "--q: expected digits (position 0)", 0,
                 id="q-no-break-space"),
    pytest.param(("verify-table", "--entry", "S1", "--param", "alpha=2\u3000"),
                 "--param alpha: unexpected trailing characters (position 1)", 1, id="param-ideographic-space"),
    pytest.param(("verify-table", "--entry", "NOPE"), "unknown table entry 'NOPE'", None, id="unknown-entry"),
    pytest.param(("show-entry", "--entry", "NOPE"), "unknown table entry 'NOPE'", None, id="show-unknown-entry"),
    pytest.param(("export", "--entry", "NOPE", "--out", "{dir}/out.json"), "unknown table entry 'NOPE'", None,
                 id="export-unknown-entry"),
    pytest.param(("verify-table", "--q", "1"), "q = 1 is zero or a root of unity", None, id="invalid-q"),
    pytest.param(("verify-table", "--entry", "S5", "--param", "alpha=2"),
                 "parameter alpha = 2: excluded value for this entry", None, id="constraint"),
    pytest.param(("equiv", "--file1", "{dir}/sqrt2-1.json", "--file2", "{dir}/sqrt2-2.json"),
                 "alpha^2 = 2 has no root in Q(i)", None, id="unsupported"),
    pytest.param(("check-rep", "--file", "{dir}/list.json"),
                 "representation file {dir}/list.json: representation must be a JSON object", None,
                 id="document-array"),
    pytest.param(("check-rep", "--file", "{dir}/text.json"),
                 "representation file {dir}/text.json: representation must be a JSON object", None,
                 id="document-string"),
    pytest.param(("b-space", "--matrix", "{dir}/list.json"),
                 "matrix file {dir}/list.json: matrix must be a JSON object", None, id="matrix-document-array"),
    *_ENTRY_ORDER_CASES,
])
def test_error_documents(capsys, tmp_path, argv, error, position):
    _write_refusal_files(tmp_path)
    fill = lambda text: text.replace("{dir}", str(tmp_path))
    code, out = run(capsys, *map(fill, argv))
    assert (code, out) == (2, json.dumps({"error": fill(error), "position": position}, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("q_text, want", [("-1/2", {"re": "-1/2", "im": "0"}),
                                           ("-1/2+1/2i", {"re": "-1/2", "im": "1/2"}),
                                           ("-3/2", {"re": "-3/2", "im": "0"})])
def test_negative_q_as_its_own_argument(capsys, q_text, want):
    # argparse would read -1/2 as an option; both spellings must answer alike.
    code, doc = run_json(capsys, "show-entry", "--entry", "S1", "--q", q_text)
    assert code == 0 and doc["q"] == want
    assert run(capsys, "show-entry", "--entry", "S1", f"--q={q_text}") == (0, json.dumps(doc, separators=(",", ":")) + "\n")


def test_negative_root_of_unity_q_is_invalid(capsys):
    code, doc = run_json(capsys, "verify-table", "--entry", "S1", "--q", "-i")
    assert code == 2 and doc == {"error": "q = 0-1i is zero or a root of unity", "position": None}


def test_equiv_rejects_non_representations(capsys, tmp_path):
    assert main(["export", "--entry", "S1", "--out", str(tmp_path / "s1.json")]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "s1.json").read_text())
    data["A22"]["rows"][1][0] = "1"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code, doc = run_json(capsys, "equiv", "--file1", str(tmp_path / "s1.json"), "--file2", str(broken))
    assert code == 2 and "error" in doc
    code, doc = run_json(capsys, "invariants", "--file", str(broken))
    assert code == 2 and "error" in doc


def test_output_is_deterministic(capsys):
    code1, out1 = run(capsys, "show-entry", "--entry", "G6", "--pretty")
    code2, out2 = run(capsys, "show-entry", "--entry", "G6", "--pretty")
    assert code1 == code2 == 0
    assert out1 == out2


# -- fuzzing the input boundary ---------------------------------------------------

_S1 = instantiate("S1", validate_q(2)).to_json()
_MATRIX = _S1["A11"]
_DEEP = "__deep__"
# Fresh copies: a shared [] or {"n": 4} that one example mutates would change
# later examples' draws, which Hypothesis reports as a flaky strategy.
_JUNK = st.sampled_from([None, True, 0.5, -3, [], {}, "abc", "1/0", "", [[]], {"n": 4}, _DEEP]).map(copy.deepcopy)
_LONG = st.sampled_from(["9" * 4300, "7" * 4301, "-1/" + "3" * 5000, "2+" + "1" * 6000 + "i"])
# Option values: "1" is no valid q.  Every long value decodes, as input has no
# digit limit; a valid q of 4,300 digits makes show-entry take 0.3 s.
_OPTION = st.sampled_from(["2", "-1/2", "-i", "1+i", "1", "abc", ""])
_LONG_Q = st.sampled_from(["1" + "0" * 1000, "7" * 4301, "-1/" + "3" * 5000, "2+" + "1" * 6000 + "i"])


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    """JSON text of doc with one to three paths deleted or replaced by junk, long digits or deep nesting."""
    doc = json.loads(json.dumps(doc))
    depth = draw(st.sampled_from([3, 500, 100_000]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_JUNK)
            break
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        if draw(st.booleans()) and isinstance(parent, dict):
            del parent[last]
        else:
            parent[last] = draw(st.one_of(_JUNK, _LONG))
    return json.dumps(doc).replace(json.dumps(_DEEP), "[" * depth + "]" * depth)


def _decoded(decode):
    """decode(), or None when it raises as malformed input does."""
    try:
        return decode()
    except (ValueError, KeyError, TypeError, RecursionError):
        return None


@settings(max_examples=60, deadline=None)
@given(
    rep_text=_mutated(_S1),
    matrix_text=_mutated(_MATRIX),
    q_text=st.one_of(_OPTION, _LONG_Q),
    alpha_text=st.one_of(_OPTION, _LONG),
    q_joined=st.booleans(),
)
def test_fuzzed_input_files_give_one_json_document(rep_text, matrix_text, q_text, alpha_text, q_joined):
    # The expected exit-2 cases, decoded here without the CLI: the file or
    # option does not decode, or (invariants, equiv) the file is no GL_q
    # representation, or (equiv) the decision is refused.
    rep_data = _decoded(lambda: GLqRep.from_json(json.loads(rep_text)))
    gl_q = (rep_data is not None and verify_glq_relations(rep_data).ok
            and _decoded(lambda: build_action(rep_data)) is not None)
    decided = gl_q and _decoded(lambda: decide_equivalence(GLqRep.from_json(_S1), rep_data)) is not None
    matrix_bad = _decoded(lambda: Mat.from_json(json.loads(matrix_text))) is None
    options_bad = _decoded(lambda: validate_q(parse_scalar(q_text))) is None or _decoded(
        lambda: parse_scalar(alpha_text)) is None
    with tempfile.TemporaryDirectory() as tmp:
        good, rep, matrix, out_file = (Path(tmp) / name for name in ("good.json", "rep.json", "matrix.json", "out.json"))
        good.write_text(json.dumps(_S1))
        rep.write_text(rep_text)
        matrix.write_text(matrix_text)
        q_option = (f"--q={q_text}",) if q_joined else ("--q", q_text)
        options = (*q_option, "--param", f"alpha={alpha_text}")
        for argv, path, refused in (
            (("check-rep", "--file", str(rep)), rep, rep_data is None),
            (("invariants", "--file", str(rep)), rep, not gl_q),
            (("equiv", "--file1", str(good), "--file2", str(rep)), rep, not decided),
            (("b-space", "--matrix", str(matrix)), matrix, matrix_bad),
            (("show-entry", "--entry", "S1", *options), None, options_bad),
            (("export", "--entry", "S1", *options, "--out", str(out_file)), None, options_bad),
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))  # an escaping exception fails the test
            assert code in (0, 1, 2), argv
            assert (code == 2) == refused, argv
            assert out.getvalue().count("\n") == 1 and out.getvalue().endswith("\n"), argv
            doc = json.loads(out.getvalue())
            assert code != 2 or path is None or str(path) in doc["error"], argv
            assert "Traceback" not in err.getvalue(), argv
        assert out_file.exists() == (not options_bad)
