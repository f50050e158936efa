"""Workload definitions: which `sumsetlab` commands a run issues.

Each workload draws its commands from a fixed pool of inputs.  Pool entry
``e`` is the input seed of one command (it seeds the randomized family), so
every command in a run has its own input.  A run with seed ``S`` takes a
seeded sample of distinct pool entries; the expected report of every entry
is stored in ``expected/<profile>.json`` and was cross-checked once when it
was generated (see ``regen.py``).

Two profiles exist: ``full`` (the sizes the benchmark measures) and ``tiny``
(the smoke test, a few milliseconds per command).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# The polynomial x/3 + x^2/7 is increasing on positive integers and maps
# them to rationals with denominators dividing 21.
RAT_MAP = "poly:0,1/3,1/7"


@dataclass(frozen=True)
class Sizes:
    n: int  # main set size (for verify: unused, the grid sets it)
    n2: int = 0  # second set size (analyze: the rational set)
    grid: str = ""  # verify N grid
    r: int = 0  # lucky richness class floor


@dataclass(frozen=True)
class Workload:
    name: str
    # Seconds of one command at the reference speed (run.REFERENCE_S) on
    # a 2-core Xeon, Python 3.11, pure-Python kernels; sizes a run.
    nominal_s: float
    sizes: dict  # profile -> Sizes
    # (entry, sizes) -> (argv, [(set file name, family spec), ...])
    command: Callable[[int, Sizes], tuple[list[str], list[tuple[str, str]]]]
    # Which representation algorithms the planner is expected to use.
    algos: frozenset


def _t4_sparse(e: int, z: Sizes):
    return ["energy", "--k", "4", "--family", f"rsc:n={z.n},s=3,seed={e},gap=64"], []


def _t4_dense(e: int, z: Sizes):
    argv = [
        "verify", "--bound", "T4_improved",
        "--family", f"rsc:s=1,seed={e},gap=4", "--grid", z.grid,
    ]
    return argv, []


def _analyze_int_rat(e: int, z: Sizes):
    int_file, rat_file = f"int_{e}.set", f"rat_{e}.set"
    files = [
        (int_file, f"rsc:n={z.n},s=2,seed={e},gap=8"),
        (rat_file, f"composed:f={RAT_MAP},inner=rsc:n={z.n2},s=2,seed={e},gap=8"),
    ]
    return ["analyze", "--set", int_file, "--set", rat_file], files


def _lucky_k3(e: int, z: Sizes):
    argv = [
        "lucky", "--k", "3", "--r", str(z.r), "--format", "csv",
        "--family", f"rsc:n={z.n},s=1,seed={e},gap=4",
    ]
    return argv, []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "t4_sparse", 0.46,
            {"full": Sizes(38), "tiny": Sizes(10)},
            _t4_sparse, frozenset({"mitm"}),
        ),
        Workload(
            "t4_dense", 0.43,
            {"full": Sizes(0, grid="48,96,144,192"), "tiny": Sizes(0, grid="8,12,16")},
            _t4_dense, frozenset({"dense"}),
        ),
        Workload(
            "analyze_int_rat", 0.71,
            {"full": Sizes(72, n2=32), "tiny": Sizes(12, n2=8)},
            _analyze_int_rat, frozenset({"mitm"}),
        ),
        Workload(
            "lucky_k3", 0.58,
            {"full": Sizes(34, r=16), "tiny": Sizes(12, r=4)},
            _lucky_k3, frozenset({"dense"}),
        ),
    )
}

POOL = {"full": 64, "tiny": 6}


def command_count(w: Workload, seconds: float, profile: str) -> int:
    """Commands in one run: as many as fill --seconds at the nominal cost."""
    return max(1, min(POOL[profile], round(seconds / w.nominal_s)))


def entries_for(seed: int, count: int, profile: str) -> list[int]:
    """Distinct pool entries for a run, drawn from the run seed."""
    return random.Random(seed).sample(range(POOL[profile]), count)


def commands(w: Workload, entries: list[int], profile: str):
    """[(entry, argv, files)] for the given pool entries."""
    z = w.sizes[profile]
    return [(e, *w.command(e, z)) for e in entries]
