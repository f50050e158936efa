"""Digest the CLI's output on a fixed list of commands.

Runs ``sumsetlab.cli.run`` in this process on every argv of ``COMMANDS``
and prints one line per command: the exit code, a SHA-256 prefix of
stdout and of stderr, and the argv.  The last line is a digest of all
of them.  Two trees whose totals match wrote the same bytes and exit
codes on every command, so a change meant to keep reports unchanged can
be checked against its parent:

    python3 tools/report_digest.py                          # this tree
    PYTHONPATH=<other tree>/src python3 tools/report_digest.py

The package is imported from ``PYTHONPATH`` when it is there, else
from this tree's ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

# Last on the path, so that a tree named in PYTHONPATH comes first.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from sumsetlab.bounds import BOUND_IDS  # noqa: E402
from sumsetlab.cli import run  # noqa: E402

INT_FAMILY = "power:m=2"
RAT_FAMILY = "composed:f=poly:0,1/2,inner=power:m=2"
RAT_SET = "composed:f=poly:0,1/2,inner=power:n=8,m=2"
GRID = ["--grid", "8,16,32"]
DENSE_SET = "rsc:n=192,s=1,seed=7,gap=4"
ANALYZE_INT = "rsc:n=72,s=2,seed=1,gap=8"
ANALYZE_RAT = "composed:f=poly:0,1/3,1/7,inner=rsc:n=32,s=2,seed=1,gap=8"

#: The parameter each s- or k-indexed bound reads, as verify flags.
BOUND_PARAMS = {
    "IKRT": ["--k", "3"],
    "T_main": ["--s", "2"],
    "card_main": ["--s", "2"],
    "T_near_convex": ["--s", "1"],
    "T_near_convex_sym": ["--s", "1"],
}

CSV = ["--format", "csv"]

COMMANDS = [
    [],
    ["--help"],
    ["gen", "power:n=12,m=3"],
    ["gen", "composed:f=root:2,inner=power:n=8,m=2"],
    ["analyze", "--family", "rsc:n=24,s=2,seed=3,gap=8",
     "--family", "composed:f=poly:0,1/2,inner=interval:n=12"],
    ["energy", "--k", "2", "--family", "power:n=16,m=2"],
    ["energy", "--k", "3", "--signs", "++-",
     "--family", "composed:f=poly:0,1/2,inner=interval:n=10"],
    ["spectrum", "--k", "2", "--family", "power:n=16,m=3"],
    ["spectrum", "--k", "2", "--family", "power:n=16,m=3", *CSV],
    ["sumset", "--k", "3", "--signs", "+-+", "--elements",
     "--family", "power:n=12,m=2"],
    ["doubling", "--pattern", "++-", "--family", "rsc:n=20,s=1,seed=2,gap=4",
     "--family", "composed:f=pow:2,inner=interval:n=9"],
    ["lucky", "--r", "4", "--family", "rsc:n=24,s=1,seed=3,gap=4"],
    ["lucky", "--r", "4", "--family", "rsc:n=24,s=1,seed=3,gap=4", *CSV],
    ["lucky", "--k", "3", "--r", "2", "--g", "pow:2",
     "--family", "interval:n=10", *CSV],
    # Censuses over grids of t >= 2 cells per axis: t = 2 at k = 3,
    # t = 16 at k = 2, t = 3 at k = 4 over rational images, and t = 8 at
    # k = 2 over a rational base set.
    ["lucky", "--k", "3", "--r", "17", *CSV, "--family", "rsc:n=34,s=1,seed=0,gap=4"],
    ["lucky", "--k", "2", "--r", "16", "--c", "1", *CSV, "--family", "interval:n=40"],
    ["lucky", "--k", "4", "--r", "16", "--c", "1", "--g", "poly:0,1/3,1/7", *CSV,
     "--family", "rsc:n=10,s=1,seed=1,gap=2"],
    ["lucky", "--k", "2", "--r", "8", "--c", "1", *CSV,
     "--family", "ap:n=24,base=1/2,step=1/3"],
    # The benchmark's census shape in JSON: 872 rows, each its fields' object.
    ["lucky", "--k", "3", "--r", "16", "--family", "rsc:n=34,s=1,seed=0,gap=4"],
    ["fit", "16:25666", "32:219902", "64:1895554"],
    *(
        ["verify", "--bound", bound, *BOUND_PARAMS.get(bound, []),
         "--family", family, *GRID, *fmt]
        for bound in BOUND_IDS
        for family in (INT_FAMILY, RAT_FAMILY)
        for fmt in ([], CSV)
    ),
    *(
        ["verify", "--bound", "eq13_tail", "--family", family, *GRID]
        for family in (INT_FAMILY, RAT_FAMILY)
    ),
    # Parameter errors: each exits 2 with the bound's own message.
    *(
        ["verify", "--bound", bound, *params, "--family", INT_FAMILY, *GRID]
        for bound, params in (
            ("card_main", ["--s", "0"]),
            ("T_main", []),
            ("T_main", ["--s", "-1"]),
            ("T_near_convex", []),
            ("T_near_convex_sym", ["--s", "-2"]),
            ("IKRT", []),
            ("IKRT", ["--k", "0"]),
            ("T_main", ["--s", "1", "--k", "9"]),
            ("KG_energy", ["--k", "2"]),
            ("IKRT", ["--k", "3", "--s", "1"]),
            ("eq13_tail", ["--s", "1"]),
            ("nosuch", []),
        )
    ),
    # A card row at k = 8, and the sign patterns it refuses.
    *(
        ["verify", "--bound", "card_main", "--s", "3", "--family", family, *GRID]
        for family in (INT_FAMILY, RAT_FAMILY)
    ),
    *(
        ["verify", "--bound", "card_main", "--s", "2", signs,
         "--family", INT_FAMILY, *GRID]
        for signs in ("--signs=-+-+", "--signs=+-")
    ),
    ["energy", "--k", "2", "--family", "power:n=8,m=2", *CSV],
    # Report shapes assembled in cli: the inputs/signs header of energy,
    # spectrum and sumset, the fit and lucky rows, eq13_tail without CSV.
    *(
        [op, *signs, "--family", "power:n=10,m=2", "--family", RAT_SET]
        for op in ("energy", "spectrum")
        for signs in (["--signs", "+-"], [])
    ),
    ["sumset", "--k", "2", "--family", "power:n=12,m=3"],
    ["sumset", "--family", "power:n=10,m=2", "--family", RAT_SET],
    ["fit", "8:300", "16:2600", "32:21000", "64:170000"],
    ["lucky", "--r", "2", "--family", "composed:f=poly:0,1/3,inner=interval:n=12"],
    ["verify", "--bound", "eq13_tail", "--family", INT_FAMILY, *GRID, *CSV],
    # Each budgeted path: every representation algorithm asked for by
    # name, dense on a rational set, one --mem failure per
    # budgeted computation, and sumset elements down the fold and down
    # the bitset.
    *(
        ["--algo", algo, "energy", "--k", "3", "--family", "power:n=12,m=2"]
        for algo in ("naive", "mitm", "dense")
    ),
    ["--algo", "dense", "energy", "--k", "2", "--family", RAT_SET],
    ["--mem", "1000", "energy", "--k", "4", "--family", "power:n=64,m=3"],
    ["--algo", "mitm", "--mem", "1000", "energy", "--k", "3",
     "--family", "power:n=64,m=3"],
    ["--mem", "1000", "sumset", "--k", "3", "--family", "power:n=64,m=3"],
    ["--mem", "5000", "lucky", "--k", "3", "--r", "2", "--g", "pow:2",
     "--family", "interval:n=10"],
    ["sumset", "--k", "2", "--elements", "--family", "power:n=10,m=8"],
    ["sumset", "--k", "3", "--elements", "--family", "interval:n=40"],
    # mitm roots that join two halves: one shared node under +-+-, two
    # equal dicts computed apart under +--+.
    *(
        ["--algo", "mitm", "energy", "--k", "4", "--signs", signs,
         "--family", "rsc:n=24,s=3,seed=1,gap=64"]
        for signs in ("+-+-", "+--+")
    ),
    # Sumset sizes of distinct sets, down the bitset, the fold, and the
    # bitset with a rational set.
    ["sumset", "--family", "interval:n=40", "--family", "rsc:n=30,s=1,seed=2,gap=4",
     "--family", "power:n=12,m=2"],
    ["sumset", "--signs", "+-", "--family", "power:n=10,m=8",
     "--family", "power:n=9,m=7"],
    ["sumset", "--signs", "+-+", "--family", "rsc:n=20,s=2,seed=1,gap=64",
     "--family", "interval:n=30", "--family", RAT_SET],
    # Multiset roots: j copies of one set run as one kernel call, from
    # many elements and few copies to few elements and many copies,
    # negated, and rational.
    *(
        ["energy", "--k", k, "--family", family]
        for k, family in (
            ("8", "rsc:n=12,s=3,seed=0,gap=64"),
            ("9", "rsc:n=10,s=3,seed=0,gap=64"),
            ("2000", "interval:n=2"),
            ("4", "composed:f=poly:0,1/2,inner=power:n=30,m=2"),
        )
    ),
    ["--algo", "mitm", "energy", "--k", "12", "--family", "rsc:n=8,s=3,seed=0,gap=64"],
    ["energy", "--k", "4", "--signs=----", "--family", "rsc:n=38,s=3,seed=0,gap=64"],
    # --format csv on commands without a CSV form.
    ["--format", "csv", "energy", "--k", "4", "--family", "rsc:n=38,s=3,seed=0,gap=64"],
    ["--format", "csv", "analyze", "--family", "rsc:n=24,s=2,seed=3,gap=8"],
    # Dense folds kept whole by the result, at the widths they end in
    # (uint16, int64, Python ints) and over a denominator.
    *(
        ["--algo", "dense", "spectrum", "--k", "4", "--family", DENSE_SET, *fmt]
        for fmt in ([], CSV)
    ),
    ["--algo", "dense", "spectrum", "--k", "40", "--family", "interval:n=2"],
    ["--algo", "dense", "energy", "--k", "70", "--family", "interval:n=2"],
    ["--algo", "dense", "spectrum", "--k", "4",
     "--family", "composed:f=poly:0,1/2,inner=rsc:n=96,s=1,seed=7,gap=4"],
    # analyze reading the moments and the popular class of a dense r_{A-A}.
    *(
        ["--algo", "dense", "analyze", "--family", family]
        for family in ("rsc:n=24,s=2,seed=3,gap=8", RAT_SET)
    ),
    # analyze at the benchmark's shape: the bitset A+A-A row and a popular
    # class of about 5,000 differences; then a budget that the support
    # rows fit and r_{A-A} does not.
    ["analyze", "--family", ANALYZE_INT, "--family", ANALYZE_RAT],
    ["--mem", "100000", "analyze", "--family", ANALYZE_INT],
]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def run_one(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return f"{code} {digest(out.getvalue())} {digest(err.getvalue())}  {' '.join(argv)}"


def main() -> int:
    os.environ.pop("SUMSETLAB_MEM", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal
    lines = [run_one(argv) for argv in COMMANDS]
    print("\n".join(lines))
    print(f"total {len(lines)} commands {digest(chr(10).join(lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
