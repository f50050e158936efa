"""Planner tables and picks pinned per input.

``tests/plan_digest.txt`` is the output of

    python3 tools/plan_digest.py 2000 --each > tests/plan_digest.txt

one line per input of the first 2,000 that ``tools/plan_digest.py``
draws: its index and a short digest of each part (the mitm, dense and
naive rows, both support tables and every pick under three budgets).
The test plans the same inputs in this process and names every index
whose line moved.  A change meant to move estimates or choices
regenerates the file with the command above and lists the moved indices
in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
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
