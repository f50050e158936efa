"""Report bytes pinned per command.

``tests/report_digest.txt`` is the whole output of ``python3
tools/report_digest.py``: per command, the exit code, SHA-256 prefixes of
stdout and of stderr, and the argv, then the total.  These tests run the
commands in this process and compare each line whose report holds only
ints and rationals, so that the lines do not depend on the platform's
libm.  Left out are ``fit`` and the ``verify`` commands that exit 0 or 1,
whose reports hold floats, and ``[]`` and ``--help``, whose text is
argparse's layout.

A change meant to move these bytes regenerates the file with

    python3 tools/report_digest.py > tests/report_digest.txt

and lists each moved line in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from sumsetlab import engine

_HERE = Path(__file__).resolve().parent
_TOOL = _HERE.parent / "tools" / "report_digest.py"
_spec = importlib.util.spec_from_file_location("report_digest", _TOOL)
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)

#: The checked-in lines, one per command, and the total line.
*LINES, TOTAL = (_HERE / "report_digest.txt").read_text(encoding="utf-8").splitlines()


def _pinned(census: bool) -> dict[str, tuple[list[str], str]]:
    """command -> (argv, checked-in line) of each pinned line: the
    ``lucky`` commands when ``census``, else every other."""
    pinned = {}
    for argv, line in zip(report_digest.COMMANDS, LINES):
        code, command = line.split(" ", 1)[0], line.split("  ", 1)[1]
        if argv in ([], ["--help"]) or argv[0] == "fit":
            continue
        if argv[0] == "verify" and code in ("0", "1"):
            continue
        if ("lucky" in argv) == census:
            pinned[command] = (argv, line)
    return pinned


def _moved(pinned: dict[str, tuple[list[str], str]]) -> list[str]:
    moved = []
    for command, (argv, want) in pinned.items():
        got = report_digest.run_one(argv)
        if got != want:
            moved.append(f"{command}: {want.split('  ', 1)[0]} -> {got.split('  ', 1)[0]}")
    return moved


def test_file_is_the_digest_of_the_command_list():
    commands = [line.split("  ", 1)[1] for line in LINES]
    assert commands == [" ".join(argv) for argv in report_digest.COMMANDS]
    total = report_digest.digest("\n".join(LINES))
    assert TOTAL == f"total {len(LINES)} commands {total}"


def test_census_commands_keep_their_bytes(monkeypatch):
    monkeypatch.delenv("SUMSETLAB_MEM", raising=False)
    ran = set()
    for name in ("_rep_mitm", "_rep_dense"):
        real = getattr(engine, name)

        def spy(*args, real=real, name=name):
            ran.add(name)
            return real(*args)

        monkeypatch.setattr(engine, name, spy)
    census = _pinned(census=True)
    assert len(census) == 10
    moved = _moved(census)
    assert not moved, "report bytes moved:\n" + "\n".join(moved)
    # The census reads its rich class from both kept forms: a dense
    # fold's count array and a mitm join's dict.
    assert ran == {"_rep_mitm", "_rep_dense"}


def test_exact_reports_keep_their_bytes(monkeypatch):
    monkeypatch.delenv("SUMSETLAB_MEM", raising=False)
    moved = _moved(_pinned(census=False))
    assert not moved, "report bytes moved:\n" + "\n".join(moved)
