import json
from pathlib import Path

from qact.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_clifford_selftest(capsys):
    code, doc = run_json(capsys, "clifford-selftest")
    assert code == 0
    assert doc["ok"] is True


def test_verify_single_entry(capsys):
    code, doc = run_json(capsys, "verify-table", "--entry", "S1", "--q", "2")
    assert code == 0
    assert doc["ok"] is True
    assert doc["entries"][0]["entry"] == "S1"
    names = [c["name"] for c in doc["entries"][0]["checks"]]
    assert "quantum_determinant" in names and "module_algebra" in names


def test_verify_table_wide(capsys):
    code, out = run(capsys, "verify-table", "--q", "2")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "verify-table-q2.json").read_bytes()
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["entries"]) == 20
    assert doc["distinctness"]["ok"] is True
    assert len(doc["distinctness"]["checks"]) == 210
    assert doc["determinant_invariants"]["ok"] is True


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


def test_usage_errors(capsys, tmp_path):
    code, doc = run_json(capsys, "verify-table", "--entry", "S9")
    assert code == 2 and "error" in doc
    code, doc = run_json(capsys, "verify-table", "--q", "1")
    assert code == 2 and "error" in doc
    code, doc = run_json(capsys, "verify-table", "--entry", "S1", "--q", "2x")
    assert code == 2 and doc["position"] >= 0
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
