"""Run the standing table of mutants against the tests that must kill them.

Each row of ``MUTANTS`` names a file of the repository, an exact old
text, the new text that replaces it, and the test files to run.  Every
row's old text must occur exactly once in its file, or the whole table
is refused before anything runs.  For each row the repository (without
``.git`` and caches) is copied into a fresh directory under the working
directory, the mutant is applied to the copy, and ``pytest -x -q`` runs
the row's test files there.  One line per row says ``killed`` (a test
failed; the first one is named), ``survived`` (every test passed) or
``error`` (pytest could not run the files), with the seconds taken; the
last line gives the totals.  The copy is removed afterwards.

    python3 tools/mutants.py

Exits 1 when a mutant survives or pytest errs, and 2, running nothing,
when a row is refused.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPY_PREFIX = ".mutants-"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


CENSUS_TESTS = ("tests/test_luckypairs.py", "tests/test_cli.py", "tests/test_report_bytes.py")
MOMENT_TESTS = ("tests/test_engine.py",)

MUTANTS = (
    # Each term of the census's charge for a table level, dropped.
    Mutant("census level: the level folded from", "src/sumsetlab/luckypairs.py",
           "level_bytes = (len(table) + new) * DICT_ENTRY_BYTES",
           "level_bytes = new * DICT_ENTRY_BYTES", CENSUS_TESTS),
    Mutant("census level: the arrays", "src/sumsetlab/luckypairs.py",
           " * DICT_ENTRY_BYTES + new * (3 * item + 24)\n", " * DICT_ENTRY_BYTES\n",
           CENSUS_TESTS),
    Mutant("census level: walk_bytes", "src/sumsetlab/luckypairs.py",
           "charge(level_bytes + walk_bytes,", "charge(level_bytes,", CENSUS_TESTS),
    # The one budget check admits twice the budget.
    Mutant("charge admits twice the budget", "src/sumsetlab/core.py",
           "    if bytes_ > budget:\n", "    if bytes_ > 2 * budget:\n",
           ("tests/test_core.py", "tests/test_cli.py")),
    # An energy's weight classes reduced by runs of equal counts.
    Mutant("_count_moments: remainder pass dropped", "src/sumsetlab/kernels.py",
           "return total + sum(ordered), square + sum(map(mul, ordered, ordered))",
           "return total, square", MOMENT_TESTS),
    Mutant("_count_moments: square of a run's count not squared", "src/sumsetlab/kernels.py",
           "square += c * c * (j - i)", "square += c * (j - i)", MOMENT_TESTS),
    Mutant("_count_moments: a run's count added once", "src/sumsetlab/kernels.py",
           "total += c * (j - i)", "total += c", MOMENT_TESTS),
    # The census walk reads each hit's rich sum from its row-major position.
    Mutant("census walk: rich sum by the widest interval's length",
           "src/sumsetlab/luckypairs.py",
           "owner = np.repeat(hits // len(last), lengths)",
           "owner = np.repeat(hits // widest, lengths)", CENSUS_TESTS),
    # A CSV row formatted by repr in place of str.
    Mutant("rows_csv: %r in place of %s", "src/sumsetlab/reporting.py",
           '",".join(["%s"] * len(header))', '",".join(["%r"] * len(header))',
           ("tests/test_cli.py", "tests/test_report_bytes.py")),
    # A dense fold step tried in a narrower width, kept without its mass check.
    Mutant("dense fold: narrowed step kept unchecked", "src/sumsetlab/engine.py",
           "if int(new.sum(dtype=np.uint64)) != mass:", "if False:", ("tests/test_engine.py",)),
    # A bitset support row charged one mask where its last OR holds four.
    Mutant("_HELD_MASKS = 1", "src/sumsetlab/engine.py",
           "_HELD_MASKS = 4\n", "_HELD_MASKS = 1\n",
           ("tests/test_engine.py", "tests/test_cli.py")),
)


def check(mutants) -> list[str]:
    """The rows whose old text does not occur exactly once, described."""
    refused = []
    for m in mutants:
        found = (ROOT / m.file).read_text(encoding="utf-8").count(m.old)
        if found != 1:
            refused.append(f"{m.name}: old text occurs {found} times in {m.file}")
    return refused


def run(m: Mutant) -> tuple[str, float]:
    """Apply ``m`` to a fresh copy of the tree and run its tests there:
    the outcome line's verdict and the seconds taken."""
    started = time.monotonic()
    copy = Path(tempfile.mkdtemp(prefix=COPY_PREFIX, dir=os.getcwd())) / "tree"
    try:
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".e2ebench_work",
            COPY_PREFIX + "*",
        ))
        target = copy / m.file
        target.write_text(
            target.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8"
        )
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    finally:
        shutil.rmtree(copy.parent, ignore_errors=True)
    if done.returncode == 0:
        verdict = "survived"
    elif done.returncode == 1:
        first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
        verdict = f"killed by {first.group(1) if first else '?'}"
    else:
        verdict = f"error (pytest exit {done.returncode})"
    return verdict, time.monotonic() - started


def main() -> int:
    refused = check(MUTANTS)
    if refused:
        for line in refused:
            print(f"refused: {line}", file=sys.stderr)
        return 2
    killed, total = 0, 0.0
    for m in MUTANTS:
        verdict, seconds = run(m)
        killed += verdict.startswith("killed")
        total += seconds
        print(f"{seconds:6.1f} s  {verdict:<70}  {m.name}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {total:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
