import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
