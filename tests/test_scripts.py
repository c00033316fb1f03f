import importlib.util
import json
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


@pytest.mark.parametrize("name", ["table", "witness", "certificate"])
def test_perfbench_workloads_set_up_and_warm_up(name, monkeypatch):
    # The benchmark calls qact by name; this fails when a name it calls is gone.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]
    workload.warm_up(workload.generate(1))
