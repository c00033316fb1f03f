"""The table as text: its exclusion polynomials against the lists they replaced,
the mutants of its stated facts that check_entry must fail, and the mutants
it still passes, each listed with the ROADMAP item that will close it.
"""

import pytest

from qact import Scalar, check_entry, resolve_params
from qact.catalog import ENTRIES, ENTRY_ORDER, get_entry
from qact.clifford import eval_expr
from qact.scalars import ONE, ZERO

# The values each parameter excluded when exclusions were lists, as functions
# of q and the parameters before it; every parameter not named here excluded
# 0 only, and alpha of S5 and G5 excluded form 5's set (_form5_set).
LISTS = {
    ("S2a", "alpha"): lambda q, p: [],
    ("S2a", "beta"): lambda q, p: [p["alpha"].inv()] if p["alpha"] else [],
    ("G1a", "beta"): lambda q, p: [ZERO, -ONE],
    ("G4b", "beta"): lambda q, p: [ZERO, -ONE],
    ("G2b'", "beta"): lambda q, p: [ZERO, -q.inv()],
    ("G3a", "beta"): lambda q, p: [ZERO, -(q * q).inv()],
    ("G5", "gamma"): lambda q, p: [ZERO, -p["alpha"].inv()],
}


def _form5_set(q):
    # The rule of the canonical-form classification: nu = 0, or nu = q lambda
    # or lambda = q nu for a lambda among the other diagonal entries q^2, q, 1.
    others = (q * q, q, ONE)
    return [ZERO] + [q * lam for lam in others] + [lam / q for lam in others]


def _listed(entry_id, name, q, params):
    if name == "alpha" and entry_id in ("S5", "G5"):
        return _form5_set(q)
    return LISTS.get((entry_id, name), lambda q, p: [ZERO])(q, params)


# Integers from -4 to 12, the Gaussian integers of norm up to 32, and a few
# Gaussian rationals, among them 1/q and -1/q^2 at the sample points.
CANDIDATES = sorted(
    {Scalar(a, b) for a in range(-4, 5) for b in range(-4, 5)}
    | {Scalar(n) for n in range(5, 13)}
    | {Scalar(a, b, d) for a, b, d in ((1, 0, 2), (-1, 0, 2), (1, 0, 3), (-1, 0, 3), (-1, 0, 4), (1, 0, 9),
                                      (-1, 0, 9), (1, 1, 2), (1, -1, 2), (0, 1, 2), (-1, 1, 4), (3, 0, 2), (2, 1, 3))},
    key=Scalar.sort_key,
)


def _value(entry, name, q, params, value):
    return eval_expr(entry.exclusions.get(name, "1"), {"q": q, **params, name: value})


@pytest.mark.parametrize("qname", ["q2", "q3", "qc"])
def test_exclusion_polynomials_vanish_exactly_on_the_lists(qname, request):
    q = request.getfixturevalue(qname)
    for entry_id in ENTRY_ORDER:
        entry = get_entry(entry_id)
        resolved = resolve_params(entry, q)
        for k, name in enumerate(entry.params):
            before = {n: resolved[n] for n in entry.params[:k]}
            listed = _listed(entry_id, name, q.q, before)
            for value in listed:
                assert not _value(entry, name, q.q, before, value), (entry_id, name, value)
            for value in CANDIDATES:
                if value not in listed:
                    assert _value(entry, name, q.q, before, value), (entry_id, name, value)


def test_s2a_at_alpha_zero_excludes_no_beta(q2):
    entry = get_entry("S2a")
    assert all(_value(entry, "beta", q2.q, {"alpha": ZERO}, value) for value in CANDIDATES)
    assert resolve_params(entry, q2, {"alpha": 0, "beta": 1}) == {"alpha": ZERO, "beta": ONE}


def _mutants(entry):
    """Each stated fact changed: a block or increment doubled, a determinant off, a basis one short."""
    for k, text in enumerate(entry.blocks):
        yield f"block {k} * 2", entry.replace(blocks=entry.blocks[:k] + (f"2*({text})",) + entry.blocks[k + 1:])
    if entry.a22_increment is not None:
        yield "increment * 2", entry.replace(a22_increment=f"2*({entry.a22_increment})")
    yield "det_q + e14", entry.replace(expected_detq=f"{entry.expected_detq} + e14")
    yield "dim R + 1", entry.replace(expected_dim_r=entry.expected_dim_r + 1)
    basis = entry.expected_r_basis
    for k, text in enumerate(basis):
        yield f"R without {text}", entry.replace(expected_r_basis=basis[:k] + basis[k + 1:])
    basis = entry.expected_inv_basis
    for k, text in enumerate(basis):
        if text != "1":
            yield f"invariants without {text}", entry.replace(expected_inv_basis=basis[:k] + basis[k + 1:])


@pytest.mark.parametrize("entry_id", ENTRY_ORDER)
def test_check_entry_fails_every_mutant(entry_id, q2, monkeypatch):
    survivors = []
    for label, mutant in _mutants(ENTRIES[entry_id]):
        monkeypatch.setitem(ENTRIES, entry_id, mutant)
        if check_entry(entry_id, q2).report.ok:
            survivors.append(label)
    assert survivors == []


def _surviving_families(entry):
    """Each exclusion dropped to 1 or given the extra root q^7, each canonical det + e14, each gamma text * 2."""
    for name in entry.params:
        exclusion = entry.exclusions.get(name)
        if exclusion is not None:
            yield f"{name} nowhere", entry.replace(exclusions={**entry.exclusions, name: "1"})
        extra = f"({exclusion or '1'})*({name} - q*q*q*q*q*q*q)"
        yield f"{name} at q^7", entry.replace(exclusions={**entry.exclusions, name: extra})
    dets = entry.canonical_dets
    for k, text in enumerate(dets):
        yield f"{text} + e14", entry.replace(canonical_dets=dets[:k] + (f"{text} + e14",) + dets[k + 1:])
    gammas = entry.gamma_invariants
    for k, text in enumerate(gammas):
        yield f"2*({text})", entry.replace(gamma_invariants=gammas[:k] + (f"2*({text})",) + gammas[k + 1:])


# Items 8 and 9: no check reads the exclusions.  "p nowhere" drops p's
# exclusion to 1, "p at q^7" excludes q^7 as well; S2a's alpha excludes
# nothing, so it has no "nowhere" mutant.  59 mutants.
EXCLUSION_SURVIVORS = {
    "S1": ["alpha nowhere", "alpha at q^7"],
    "G1a": ["alpha nowhere", "alpha at q^7", "beta nowhere", "beta at q^7"],
    "G1b": ["alpha nowhere", "alpha at q^7"],
    "S2a": ["alpha at q^7", "beta nowhere", "beta at q^7"],
    "S2a'": ["alpha nowhere", "alpha at q^7"],
    "S2b": ["alpha nowhere", "alpha at q^7"],
    "S2b'": ["alpha nowhere", "alpha at q^7"],
    "G2b'": ["alpha nowhere", "alpha at q^7", "beta nowhere", "beta at q^7"],
    "S3": ["alpha nowhere", "alpha at q^7"],
    "G3a": ["alpha nowhere", "alpha at q^7", "beta nowhere", "beta at q^7"],
    "G3b": ["alpha nowhere", "alpha at q^7"],
    "S4a": ["alpha nowhere", "alpha at q^7"],
    "S4b": ["alpha nowhere", "alpha at q^7"],
    "G4b": ["alpha nowhere", "alpha at q^7", "beta nowhere", "beta at q^7"],
    "S5": ["alpha nowhere", "alpha at q^7", "beta nowhere", "beta at q^7"],
    "G5": ["alpha nowhere", "alpha at q^7", "beta nowhere", "beta at q^7", "gamma nowhere", "gamma at q^7"],
    "S6": ["alpha nowhere", "alpha at q^7"],
    "G6": ["alpha nowhere", "alpha at q^7", "xi nowhere", "xi at q^7"],
    "S7": ["alpha nowhere", "alpha at q^7"],
    "G7": ["alpha nowhere", "alpha at q^7", "xi nowhere", "xi at q^7"],
}

# Item 7: no check reads canonical_dets.  9 mutants.
CANONICAL_DET_SURVIVORS = {
    "S1": ["1 + 4*e44 + e14", "1 + e43 + e14"],
    "S2b'": ["1 + 4*e33 + e14"],
    "S3": ["1 + 4*e22 + e14", "1 + e12 + e14"],
    "S4b": ["1 + 4*e44 + e14"],
    "S5": ["1 + 4*e11 + e14"],
    "S6": ["1 + 5*e12 + e14"],
    "S7": ["1 + 5*e34 + e14"],
}

# Item 12's open question: gamma_invariants is checked to lie in the
# invariants and span them with 1, not for its coefficients; whether the
# table claims the expressions or only their span is still to be settled
# from the paper.  18 mutants.
GAMMA_SCALE_SURVIVORS = {
    "S1": ["2*((1-g0)*(-g1+i*g2)*g3)", "2*((1-g0)*(1-i*g12))"],
    "G1a": ["2*((1-g0)*(1-i*g12))"],
    "G1b": ["2*((1-g0)*(-g1+i*g2)*g3)"],
    "S2b'": ["2*((1-g0)*(1+i*g12))"],
    "G2b'": ["2*((1-g0)*(1+i*g12))"],
    "S3": ["2*((1+g0)*(1-i*g12))", "2*((1+g0)*(g1+i*g2)*g3)"],
    "G3a": ["2*((1+g0)*(1-i*g12))"],
    "G3b": ["2*((1+g0)*(g1+i*g2)*g3)"],
    "S4b": ["2*((1-g0)*(1-i*g12))"],
    "G4b": ["2*((1-g0)*(1-i*g12))"],
    "S5": ["2*((1+g0)*(1+i*g12))"],
    "G5": ["2*((1+g0)*(1+i*g12))"],
    "S6": ["2*((1+g0)*(g1+i*g2)*g3)"],
    "G6": ["2*((1+g0)*(g1+i*g2)*g3)"],
    "S7": ["2*((1-g0)*(g1+i*g2)*g3)"],
    "G7": ["2*((1-g0)*(g1+i*g2)*g3)"],
}


@pytest.mark.parametrize("entry_id", ENTRY_ORDER)
def test_check_entry_passes_exactly_the_listed_survivors(entry_id, q2, monkeypatch):
    survivors = []
    for label, mutant in _surviving_families(ENTRIES[entry_id]):
        monkeypatch.setitem(ENTRIES, entry_id, mutant)
        if check_entry(entry_id, q2).report.ok:
            survivors.append(label)
    listed = [label for table in (EXCLUSION_SURVIVORS, CANONICAL_DET_SURVIVORS, GAMMA_SCALE_SURVIVORS)
              for label in table.get(entry_id, [])]
    assert survivors == listed

