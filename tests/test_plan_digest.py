"""Planner tables and picks pinned per input.

``tests/plan_digest.txt`` is the output of

    python3 tools/plan_digest.py 2000 --each > tests/plan_digest.txt

one line per input of the first 2,000 that ``tools/plan_digest.py``
draws: its index and a short digest of each part (the mitm, dense and
naive rows, both support tables and the rank table with its picks,
every other pick under three budgets, and ``energy_T``'s tables and
picks).
The test plans the same inputs in this process and names every index
whose line moved.  A change meant to move estimates or choices
regenerates the file with the command above and lists the moved indices
in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from sumsetlab import engine

_HERE = Path(__file__).resolve().parent
_TOOL = _HERE.parent / "tools" / "plan_digest.py"
_spec = importlib.util.spec_from_file_location("plan_digest", _TOOL)
plan_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plan_digest)

LINES = (_HERE / "plan_digest.txt").read_text(encoding="utf-8").splitlines()


def test_file_holds_the_first_2000_inputs():
    assert [line.split(" ", 1)[0] for line in LINES] == [str(i) for i in range(2000)]


def test_plans_keep_their_digest():
    real = engine.choose
    got = [
        plan_digest.each_line(i, parts)
        for i, parts in enumerate(plan_digest.each_input(len(LINES)))
    ]
    assert engine.choose is real
    moved = [f"{want} -> {line}" for want, line in zip(LINES, got) if line != want]
    assert not moved, f"{len(moved)} inputs moved:\n" + "\n".join(moved)


def test_counts_form_of_a_mitm_plan_charges_no_more_than_its_classes_form():
    # Under verification(), a mitm energy is cross-checked on the counts
    # form of the plan that ``choose`` picked in its classes form, with no
    # second choice: a multiset root's classes are charged sum min(m_i,
    # span) entries, its counts min(sum m_i, span), and any other root
    # alike in both forms.  All 20,000 inputs of the tool's default run.
    rng = random.Random(20261018)
    roots = fewer = 0
    for _ in range(20_000):
        sets, signs = plan_digest.random_input(rng)
        lists, den = engine._signed_ints(sets, signs)
        counts, classes = (engine._plan_mitm(lists, den, c)[0] for c in (False, True))
        assert counts <= classes
        plan = engine._mitm_tree(lists, den)
        roots += plan.k > 1 and plan.halves is None
        fewer += counts < classes
    assert roots > 4000 and fewer > 100
