"""Report bytes pinned per command: the ``lucky`` commands of
``tools/report_digest.py``, run in this process, against the lines that
script prints for them (exit code, SHA-256 prefixes of stdout and of
stderr).  Their reports hold only ints and rationals, so the lines do not
depend on the platform's libm.

A change meant to move these bytes updates ``CENSUS_LINES`` from
``python3 tools/report_digest.py`` and lists each moved line in
CHANGES.md.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from sumsetlab import engine

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"
_spec = importlib.util.spec_from_file_location("report_digest", _TOOL)
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)

#: argv, as the digest prints it -> "exit stdout stderr" digests.
CENSUS_LINES = {
    "lucky --r 4 --family rsc:n=24,s=1,seed=3,gap=4":
        "0 8b8486761088 e3b0c44298fc",
    "lucky --r 4 --family rsc:n=24,s=1,seed=3,gap=4 --format csv":
        "0 e1acefadd52c e3b0c44298fc",
    "lucky --k 3 --r 2 --g pow:2 --family interval:n=10 --format csv":
        "0 f157c793dcd5 e3b0c44298fc",
    "lucky --k 3 --r 17 --format csv --family rsc:n=34,s=1,seed=0,gap=4":
        "0 3c648a5735c1 e3b0c44298fc",
    "lucky --k 2 --r 16 --c 1 --format csv --family interval:n=40":
        "0 75d93ff95985 e3b0c44298fc",
    "lucky --k 4 --r 16 --c 1 --g poly:0,1/3,1/7 --format csv"
    " --family rsc:n=10,s=1,seed=1,gap=2":
        "0 ce2b141c6a3f e3b0c44298fc",
    "lucky --k 2 --r 8 --c 1 --format csv --family ap:n=24,base=1/2,step=1/3":
        "0 85a87379214f e3b0c44298fc",
    "lucky --k 3 --r 16 --family rsc:n=34,s=1,seed=0,gap=4":
        "0 6672aa756336 e3b0c44298fc",
    "lucky --r 2 --family composed:f=poly:0,1/3,inner=interval:n=12":
        "0 e4cc77778f36 e3b0c44298fc",
    "--mem 5000 lucky --k 3 --r 2 --g pow:2 --family interval:n=10":
        "2 e3b0c44298fc d1a5cfe37255",
}


def test_census_commands_keep_their_bytes(monkeypatch):
    monkeypatch.delenv("SUMSETLAB_MEM", raising=False)
    ran = set()
    for name in ("_rep_mitm", "_rep_dense"):
        real = getattr(engine, name)

        def spy(*args, real=real, name=name):
            ran.add(name)
            return real(*args)

        monkeypatch.setattr(engine, name, spy)
    lucky = [argv for argv in report_digest.COMMANDS if "lucky" in argv]
    got = {}
    for argv in lucky:
        digests, command = report_digest.run_one(argv).split("  ", 1)
        got[command] = digests
    assert sorted(got) == sorted(CENSUS_LINES)
    moved = [
        f"{command}: {CENSUS_LINES[command]} -> {digests}"
        for command, digests in got.items()
        if digests != CENSUS_LINES[command]
    ]
    assert not moved, "report bytes moved:\n" + "\n".join(moved)
    # The census reads its rich class from both kept forms: a dense
    # fold's count array and a mitm join's dict.
    assert ran == {"_rep_mitm", "_rep_dense"}
