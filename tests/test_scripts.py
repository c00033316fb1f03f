import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_smoke(capsys):
    verify_all = load_script("verify_all")
    assert verify_all.main(["--q", "2", "--skip-distinctness"]) == 0
    out = capsys.readouterr().out
    assert "distinctness" not in out
    assert "invariants = span{1, det_q} on G entries: [ok]" in out
    assert "OVERALL: all checks passed" in out


def test_verify_all_runs_outside_the_repository(tmp_path):
    # The script finds src/ from its own path, not from the working directory.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / "verify_all.py"), "--q", "2", "--skip-distinctness"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert "OVERALL: all checks passed" in done.stdout


def test_bench_writes_one_document_per_label(tmp_path, monkeypatch, capsys):
    bench = load_script("bench")
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    checkout = SCRIPTS.parent
    calls = []

    def stub(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": {"pass_s": {"value": 0.5, "unit": "s"}}}

    monkeypatch.setattr(bench, "run_workload", stub)
    assert bench.main(["--label", "x", "--seed", "2", "--seconds", "0.5", "--checkout", str(checkout)]) == 0
    assert calls == [(checkout, w, 2, 0.5) for w in ("table", "witness", "certificate")]
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert doc["label"] == "x" and doc["seed"] == 2 and doc["seconds"] == 0.5
    assert list(doc["results"]) == ["table", "witness", "certificate"]
    assert doc["results"]["witness"]["metrics"]["pass_s"]["value"] == 0.5
    assert doc["src_sha256"] == bench.src_sha256(checkout) and len(doc["src_sha256"]) == 64
    assert doc["commit"] == bench.git_commit(checkout)
    assert "wrote BENCH_x.json" in capsys.readouterr().out

    def failing(root, workload, seed, seconds):
        raise RuntimeError(f"{workload}: perfbench exited 1: wrong answer")

    monkeypatch.setattr(bench, "run_workload", failing)
    assert bench.main(["--label", "y", "--checkout", str(checkout)]) == 1
    assert not (tmp_path / "BENCH_y.json").exists()
    assert "table: perfbench exited 1" in capsys.readouterr().err


def test_bench_runs_alternating_pairs_against_a_parent(tmp_path, monkeypatch, capsys):
    bench = load_script("bench")
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "pass_s", "better": "lower"}, {"name": "ops_answered", "better": "higher"}]}))
    checkout, parent = SCRIPTS.parent, tmp_path / "parent"
    (parent / "src").mkdir(parents=True)
    calls = []

    def stub(root, workload, seed, seconds):
        calls.append((root, workload))
        k = sum(1 for r, w in calls if (r, w) == (root, workload))
        # The change takes 0.40 s in its runs 1 to 9 and 0.60 s in run 10; the parent takes 0.50 to 0.59 s.
        pass_s = (0.40 if k < 10 else 0.60) if root == checkout else 0.49 + k / 100
        answered = 1.0 if root == checkout or workload != "witness" else 0.5
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": {"pass_s": {"value": pass_s, "unit": "s"}, "ops_answered": {"value": answered, "unit": "ratio"}}}

    monkeypatch.setattr(bench, "run_workload", stub)
    argv = ["--label", "p", "--runs", "10", "--seconds", "0.5", "--checkout", str(checkout), "--parent", str(parent)]
    assert bench.main(argv) == 0
    # Alternating pairs of each workload, the parent first in the first pair.
    assert calls[:4] == [(parent, "table"), (checkout, "table"), (checkout, "table"), (parent, "table")]
    assert [w for _, w in calls] == [w for w in ("table", "witness", "certificate") for _ in range(20)]
    change = json.loads((tmp_path / "BENCH_p.json").read_text())
    before = json.loads((tmp_path / "BENCH_p-parent.json").read_text())
    assert change["runs"] == before["runs"] == 10 and before["label"] == "p-parent"
    assert before["src_sha256"] == bench.src_sha256(parent) != change["src_sha256"]
    mine, theirs = change["results"]["witness"], before["results"]["witness"]
    assert mine["attempted"] == 40 and mine["correct"]
    assert mine["metrics"]["pass_s"]["runs"] == [0.40] * 9 + [0.60]
    assert mine["metrics"]["pass_s"]["value"] == pytest.approx(0.40)
    assert theirs["metrics"]["pass_s"]["value"] == pytest.approx(0.545)
    assert (theirs["metrics"]["pass_s"]["q1"], theirs["metrics"]["pass_s"]["q3"]) == pytest.approx((0.5225, 0.5675))
    pass_s = change["comparison"]["witness"]["pass_s"]
    assert (pass_s["wins"], pass_s["losses"], pass_s["ties"]) == (9, 1, 0) and pass_s["gain"]
    assert pass_s["median_gain"] == pytest.approx(0.145) and pass_s["parent_iqr"] == pytest.approx(0.045)
    # Higher is better for ops_answered: ten wins on witness, ten ties elsewhere.
    assert change["comparison"]["witness"]["ops_answered"]["wins"] == 10
    assert change["comparison"]["table"]["ops_answered"] == {
        "wins": 0, "losses": 0, "ties": 10, "median_gain": 0.0, "parent_iqr": 0.0, "gain": False}
    out = capsys.readouterr().out
    assert "witness pass_s: won 9, lost 1, tied 0" in out and "wrote BENCH_p-parent.json" in out


SRC_LINES_FIXTURE = '''"""Module docstring,
on two lines."""

# A comment line.
import os


class A:
    """Class docstring."""

    x = """a string that is not a docstring
is code"""

    def f(self):
        """Function docstring."""
        return os.sep  # a trailing comment
'''


def test_src_lines_counts_code_without_docstrings_comments_or_blanks(tmp_path, capsys):
    src_lines = load_script("src_lines")
    # Code: the import, the class line, the two lines of x, the def, the return.
    assert src_lines.count(SRC_LINES_FIXTURE) == (16, 6)
    (tmp_path / "a.py").write_text(SRC_LINES_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "16", "6"], ["b.py", "3", "1"], ["total", "19", "7"]]


@pytest.mark.parametrize("name", ["table", "witness", "certificate"])
def test_perfbench_workloads_set_up_and_warm_up(name, monkeypatch):
    # The benchmark calls qact by name; this fails when a name it calls is gone.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]
    workload.warm_up(workload.generate(1))
