"""Seeded inputs, operations and correctness checks of the three workloads.

Each workload offers four functions:

    generate(seed)      -> inputs, built from the seed alone
    warm_up(inputs)     runs one operation, untimed, to fill lazy caches
    run_pass(inputs, clock) -> list of Outcome, one per call into qact, timed by clock
    check(inputs, outs) raises WrongAnswer on the first wrong result

qact is looked up in ``sys.modules`` at call time, never bound at import:
the set-up re-imports the package, and the traced run replaces module
attributes with span wrappers that every call must go through.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

Q_TEXTS = ("2", "3", "1+1i")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Exception names under which qact refuses a valid question.  A name that a
# later version deletes (with the refusal it stood for) is simply skipped.
REFUSAL_NAMES = ("Unsupported", "GridTooLarge")


class WrongAnswer(Exception):
    """An operation returned a wrong result; the run must abort."""


@dataclass(frozen=True)
class Outcome:
    """One call into qact: its latency, and its result or a refusal.

    ``is_op`` marks the calls that count as user-facing operations for the
    latency and answered-share metrics; the rest only add to the pass time.
    """

    label: str
    latency: float
    refused: bool
    value: Any
    is_op: bool = True


def _qact():
    return sys.modules["qact"]


def _refusals() -> tuple[type, ...]:
    qact = _qact()
    return tuple(getattr(qact, name) for name in REFUSAL_NAMES if hasattr(qact, name))


def _q(text: str):
    qact = _qact()
    return qact.validate_q(qact.parse_scalar(text))


def first_difference(got: bytes, want: bytes) -> int:
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i
    return min(len(got), len(want))


# -- table ----------------------------------------------------------------------


@dataclass(frozen=True)
class TableInputs:
    commands: tuple[str, ...]  # q of each verify-table command, in seeded order
    forms: tuple[tuple[str, Any], ...]  # (q text, canonical form), in seeded order
    golden: dict


def _verify_table(q_text: str) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sys.modules["qact.cli"].main(["verify-table", "--q", q_text])
    return code, out.getvalue().encode("utf-8")


class Table:
    """`qact verify-table` at q = 2, 3, 1+i, plus the seven canonical forms."""

    name = "table"

    @staticmethod
    def generate(seed: int) -> TableInputs:
        import qact.cli  # noqa: F401  (binds sys.modules["qact.cli"])

        rng = random.Random(seed)
        commands = tuple(rng.sample(Q_TEXTS, len(Q_TEXTS)))
        forms = [(t, form) for t in Q_TEXTS for form in _qact().canonical_forms(_q(t))]
        rng.shuffle(forms)
        golden = {t: (GOLDEN_DIR / f"verify-table-q{t}.json").read_bytes() for t in Q_TEXTS}
        return TableInputs(commands, tuple(forms), golden)

    @staticmethod
    def warm_up(inputs: TableInputs) -> None:
        _verify_table("2")

    @staticmethod
    def run_pass(inputs: TableInputs, clock=perf_counter) -> list[Outcome]:
        outcomes = []
        for q_text in inputs.commands:
            t0 = clock()
            result = _verify_table(q_text)
            outcomes.append(Outcome(f"verify-table --q {q_text}", clock() - t0, False, (q_text, *result)))
        verify = sys.modules["qact.qspinor"].verify_canonical_form
        for q_text, form in inputs.forms:
            t0 = clock()
            report = verify(form, _q(q_text))
            outcomes.append(
                Outcome(f"canonical form {form.form_id} at q={q_text}", clock() - t0, False, report, False)
            )
        return outcomes

    @staticmethod
    def check(inputs: TableInputs, outcomes: list[Outcome]) -> None:
        for out in outcomes:
            if out.is_op:
                q_text, code, text = out.value
                want = inputs.golden[q_text]
                if code != 0 or text != want:
                    at = first_difference(text, want)
                    raise WrongAnswer(f"{out.label}: exit {code}, stdout differs from the reference at byte {at}")
            elif not out.value.ok:
                raise WrongAnswer(f"{out.label}: {out.value.first_failure.name} fails")


# -- equivalence decisions -----------------------------------------------------------


@dataclass(frozen=True)
class Pair:
    label: str
    r1: Any
    r2: Any
    equivalent: bool


def _decide_all(pairs: tuple[Pair, ...], clock=perf_counter) -> list[Outcome]:
    decide = _qact().decide_equivalence
    refusals = _refusals()
    outcomes = []
    for pair in pairs:
        t0 = clock()
        try:
            verdict = decide(pair.r1, pair.r2)
        except refusals as exc:
            outcomes.append(Outcome(pair.label, clock() - t0, True, exc))
        else:
            outcomes.append(Outcome(pair.label, clock() - t0, False, verdict))
    return outcomes


def _check_verdicts(pairs: tuple[Pair, ...], outcomes: list[Outcome]) -> None:
    for pair, out in zip(pairs, outcomes, strict=True):
        if out.refused:
            continue
        verdict = out.value
        if verdict.equivalent != pair.equivalent:
            raise WrongAnswer(f"{pair.label}: equivalent={verdict.equivalent}, truth is {pair.equivalent}")
        if verdict.equivalent and verdict.apply(pair.r1) != pair.r2:
            raise WrongAnswer(f"{pair.label}: the witness does not map r onto r'")


def _small(rng: random.Random):
    """An entry of a basis change: integer in [-2, 2], sometimes Gaussian."""
    b = rng.randint(-1, 1) if rng.random() < 0.2 else 0
    return _qact().Scalar(rng.randint(-2, 2), b, 1)


def _nonzero(rng: random.Random):
    """A nonzero scale: small Gaussian rational."""
    while True:
        b = rng.randint(-2, 2) if rng.random() < 0.3 else 0
        s = _qact().Scalar(rng.randint(-3, 3), b, rng.choice((1, 1, 2, 3)))
        if s:
            return s


def dense_invertible(rng: random.Random):
    """An invertible 4x4 u with at least 12 nonzero entries, not triangular."""
    qact = _qact()
    while True:
        rows = [[_small(rng) for _ in range(4)] for _ in range(4)]
        u = qact.Mat(rows)
        dense = sum(1 for row in rows for x in row if x) >= 12
        if dense and not u.is_upper_triangular() and not u.is_lower_triangular() and qact.det(u):
            return u


def _move(rng: random.Random, rep, u=None):
    qact = _qact()
    if u is None:
        u = qact.Mat.identity(4)
    return qact.EquivalenceWitness(u, _nonzero(rng), _nonzero(rng)).apply(rep)


WITNESS_COPIES = 4  # dense conjugates per table entry and q
TRACELESS_COPIES = 2  # conjugates per q of the traceless S5


class Witness:
    """decide_equivalence(r, r') with r' a seeded dense conjugate of r."""

    name = "witness"

    @staticmethod
    def generate(seed: int) -> tuple[Pair, ...]:
        qact = _qact()
        rng = random.Random(seed)
        pairs = []
        for q_text in Q_TEXTS:
            q = _q(q_text)
            for entry in qact.catalog.ENTRY_ORDER:
                rep = qact.instantiate(entry, q)
                for k in range(WITNESS_COPIES):
                    moved = _move(rng, rep, dense_invertible(rng))
                    pairs.append(Pair(f"{entry}@{q_text}#{k}", rep, moved, True))
            # trace A11 = alpha + q^2 + q + 1 = 0: no trace ratio pins alpha1.
            qq = q.q
            rep = qact.instantiate("S5", q, {"alpha": -(qq * qq + qq + 1)})
            for k in range(TRACELESS_COPIES):
                moved = _move(rng, rep, dense_invertible(rng))
                pairs.append(Pair(f"S5-traceless@{q_text}#{k}", rep, moved, True))
        rng.shuffle(pairs)
        return tuple(pairs)

    @staticmethod
    def warm_up(pairs: tuple[Pair, ...]) -> None:
        first = next(p for p in pairs if p.label == "S1@2#0")  # the same entry at every seed
        _qact().decide_equivalence(first.r1, first.r2)

    run_pass = staticmethod(_decide_all)
    check = staticmethod(_check_verdicts)


JORDAN_TYPES = {"4": (4,), "31": (3, 1), "22": (2, 2), "211": (2, 1, 1), "1111": (1, 1, 1, 1)}

# (type of r, type of r', copies).  The intertwiner space of J_a and J_b has
# dimension sum(min(a_i, b_j)); the first eight are dim 4, all negative.
# Dim-7 and dim-8 negatives are left out: the 5^d grid takes 11 s and 64 s for them
# on a 2.1 GHz core.
CERTIFICATE_PAIRS = (
    ("4", "31", 1), ("31", "4", 1), ("4", "22", 1), ("22", "4", 1),
    ("4", "211", 1), ("211", "4", 1), ("4", "1111", 1), ("1111", "4", 1),
    ("4", "4", 8),  # dim 4, positive
    ("31", "31", 2),  # dim 6, positive
    ("22", "22", 2),  # dim 8, positive
    ("211", "211", 1),  # dim 10, refused while the grid is capped at 8
    ("1111", "1111", 1),  # dim 16, refused likewise
)


def jordan(parts: tuple[int, ...]):
    """The unipotent Jordan matrix with blocks of the given sizes."""
    qact = _qact()
    rows = [[qact.Scalar(0)] * 4 for _ in range(4)]
    start = 0
    for size in parts:
        for k in range(start, start + size):
            rows[k][k] = qact.Scalar(1)
            if k + 1 < start + size:
                rows[k][k + 1] = qact.Scalar(1)
        start += size
    return qact.Mat(rows)


class Certificate:
    """Pairs (J, 0, 0, I) of unipotent Jordan types, decided pairwise."""

    name = "certificate"

    @staticmethod
    def generate(seed: int) -> tuple[Pair, ...]:
        qact = _qact()
        rng = random.Random(seed)
        q = _q("2")
        zero, one = qact.Mat.zero(4), qact.Mat.identity(4)
        reps = {name: qact.GLqRep(jordan(parts), zero, zero, one, q) for name, parts in JORDAN_TYPES.items()}
        # One dim-6 negative; both directions cost the same 15,624 points.
        six = rng.choice((("31", "22"), ("22", "31")))
        pairs = []
        for a, b, copies in CERTIFICATE_PAIRS + (six + (1,),):
            for k in range(copies):
                # Rescaling leaves the intertwiner space, and so the search, unchanged.
                moved = _move(rng, reps[b])
                if not qact.verify_glq_relations(moved).ok:
                    raise AssertionError(f"J{b} rescaled is not a representation")
                pairs.append(Pair(f"J{a} vs J{b}#{k}", reps[a], moved, a == b))
        rng.shuffle(pairs)
        return tuple(pairs)

    @staticmethod
    def warm_up(pairs: tuple[Pair, ...]) -> None:
        first = next(p for p in pairs if p.label == "J4 vs J31#0")  # same dim-4 negative at every seed
        _qact().decide_equivalence(first.r1, first.r2)

    run_pass = staticmethod(_decide_all)
    check = staticmethod(_check_verdicts)


WORKLOADS = {w.name: w for w in (Table, Witness, Certificate)}
