"""The package namespace: five modules load with `import qact`, the rest on first use, and no process start-up
loads dataclasses, inspect or typing for qact."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The names qact re-exports from the modules that load on first use.
LAZY_NAMES = {
    "catalog": [
        "ENTRIES", "ENTRY_ORDER", "ConstraintViolated", "EntryCheck", "TableCheck", "TableEntry", "UnknownEntry",
        "check_entry", "get_entry", "instantiate", "resolve_params", "verify_determinant_invariants",
        "verify_distinctness", "verify_table",
    ],
    "clifford": ["CliffordModel", "MalformedExpression", "build_model", "default_model", "eval_gamma_expr", "selftest"],
    "qspinor": ["CanonicalForm", "canonical_forms", "space_square_nonzero", "spinor_space", "verify_canonical_form"],
}

PROBE = """
import json, sys
before = set(sys.modules)
import qact

def loaded():
    return sorted(name for name in sys.modules if name == "qact" or name.startswith("qact."))

facts = {"on_import": loaded(), "listed": sorted(set(sum(LAZY_NAMES.values(), [])) - set(dir(qact))),
         "grid_too_large": hasattr(qact, "GridTooLarge")}
qact.instantiate
facts["after_instantiate"] = loaded()
facts["same_object"] = sorted(
    name for module, names in LAZY_NAMES.items() for name in names
    if getattr(qact, name) is getattr(sys.modules["qact." + module], name)
)
facts["catalog_module"] = qact.catalog is sys.modules["qact.catalog"]
facts["cli_module"] = hasattr(qact, "cli") and qact.cli is sys.modules["qact.cli"]
facts["added"] = sorted(set(sys.modules) - before)  # by import qact, its lazy names and import qact.cli
print(json.dumps(facts))
"""

# Modules that qact loads none of: each costs a CLI process milliseconds at start-up.
NOT_LOADED = ["dataclasses", "inspect"]


def _probe(*flags: str) -> dict:
    code = f"LAZY_NAMES = {LAZY_NAMES!r}\n{PROBE}"
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_five_modules_and_the_rest_on_first_use():
    facts = _probe()
    assert facts["on_import"] == ["qact", "qact.action", "qact.linalg", "qact.qrep", "qact.report", "qact.scalars"]
    assert facts["listed"] == []  # dir(qact) lists every lazy name
    assert facts["grid_too_large"] is False  # an unknown name is still an AttributeError
    assert {"qact.catalog", "qact.qspinor"} <= set(facts["after_instantiate"])
    assert "qact.cli" not in facts["after_instantiate"]
    assert facts["same_object"] == sorted(sum(LAZY_NAMES.values(), []))
    assert facts["catalog_module"] and facts["cli_module"]
    assert not set(NOT_LOADED) & set(facts["added"])


def test_start_up_loads_no_typing():
    """Without site, which may import typing itself, the modules qact adds hold no typing either."""
    facts = _probe("-S")
    assert facts["cli_module"] and "qact.cli" in facts["added"]
    assert not set(NOT_LOADED + ["typing"]) & set(facts["added"])
