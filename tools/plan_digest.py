"""Digest the planner's tables and choices on seeded random inputs.

For each input, ``engine.representation`` and ``engine.energy_T`` are
called under ``auto``, ``mitm``, ``dense`` and ``naive``, and the support
path (``engine._support``, for the prefix sizes, for the elements and
for the ranks of some queries) once, each under the budgets None, 10**4
and 10**6.  ``engine.choose``
is replaced by a spy: it records the table the caller hands it and the
path it picks, or its ResourceError, then stops the call, so nothing
runs.  An InputError raised before choosing is recorded in place of the
pick: none is raised on these inputs, but trees before dense ran on
rational sets refused it there, and their digests compare too.

It prints one digest per part, then the number of inputs and a digest
of all parts:

    mitm     the mitm row's (bytes, cost)
    dense    the dense row's (bytes, cost)
    naive    the naive row's bytes (no choice reads its cost)
    support  both support tables' rows, one per switch point (the number
             of lists folded as int sets before the bitset takes over),
             and the rank table's rows with its pick under each budget:
             the ranks of 1..|A_1| over the sets' common denominator,
             as the lucky census asks them of B + B - B
    picks    every other pick (a support pick is its switch point),
             ResourceError and InputError
    energy   energy_T's table, its mitm row in the classes form, and its
             pick, ResourceError or InputError, under each budget and
             algorithm

In the first four parts a row with negative bytes cannot run and is left
out, so a tree whose tables still list such rows compares too; only the
first two entries of a row are read, so do trees whose rows are bare
(bytes, cost) pairs.  Two trees that print the same lines plan alike, so
a change meant to keep every estimate and choice can be checked against
its parent:

    python3 tools/plan_digest.py [N] [--each]                  # this tree
    PYTHONPATH=<other tree>/src python3 tools/plan_digest.py [N] [--each]

With ``--each`` it prints instead one line per input, its index and a
short digest of each part, so that ``diff`` of two trees' outputs names
the inputs that differ and where.  ``tests/plan_digest.txt`` holds these
lines for the first 2,000 inputs, which ``tests/test_plan_digest.py``
compares; a change meant to move them regenerates the file with

    python3 tools/plan_digest.py 2000 --each > tests/plan_digest.txt

Inputs have k = 1..9 summands, integer and rational sets of 1..12
elements, the same set repeated, a few sets alternating (some equal by
value but distinct objects) or all different, under random signs.  N
defaults to 20,000.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

# Last on the path, so that a tree named in PYTHONPATH comes first.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from sumsetlab import OrderedSet, engine  # noqa: E402
from sumsetlab.errors import InputError, ResourceError  # noqa: E402

BUDGETS = (None, 10**4, 10**6)
ALGOS = ("auto", "mitm", "dense", "naive")
PARTS = ("mitm", "dense", "naive", "support", "picks", "energy")


def random_set(rng: random.Random) -> OrderedSet:
    n = rng.randint(1, 12)
    if rng.random() < 0.35:
        den = rng.choice([2, 3, 5, 6, 7])
        ints = rng.sample(range(-60, 200), n)
        return OrderedSet(sorted(Fraction(x, den) for x in ints))
    spread = rng.choice([20, 100, 1000, 10**6])
    return OrderedSet(sorted(rng.sample(range(-spread, spread), n)))


def random_input(rng: random.Random) -> tuple[list[OrderedSet], tuple[int, ...]]:
    k = rng.randint(1, 9)
    shape = rng.random()
    if shape < 0.4:
        sets = [random_set(rng)] * k
    elif shape < 0.6:
        pool = [random_set(rng) for _ in range(rng.randint(1, 3))]
        sets = [pool[j % len(pool)] for j in range(k)]
        sets = [OrderedSet(A.elements) if rng.random() < 0.3 else A for A in sets]
    else:
        sets = [random_set(rng) for _ in range(k)]
    signs = (1,) * k
    if rng.random() < 0.4:
        signs = tuple(rng.choice([1, 1, -1]) for _ in range(k))
    return sets, signs


class Chosen(Exception):
    """Raised by the spy on ``choose``: the table it was handed and its
    answer.  Nothing after the choice runs."""


def _spy(real):
    def choose(plans, algo, mem_budget, what):
        table = {name: tuple(row[:2]) for name, row in plans.items()}
        try:
            pick = str(real(plans, algo, mem_budget, what))
        except ResourceError as exc:
            pick = str(exc)
        raise Chosen(table, pick)

    return choose


def handed(call, *args, **kwargs) -> tuple[dict, str]:
    """The table ``call`` hands ``choose`` and the pick, or no table and
    the InputError raised before choosing."""
    try:
        call(*args, **kwargs)
    except Chosen as chosen:
        return chosen.args
    except InputError as exc:
        return {}, f"InputError: {exc}"
    raise AssertionError("the call did not reach choose")


def planned(sets: list[OrderedSet], signs: tuple[int, ...]) -> dict[str, str]:
    """Each part's text for one input."""
    rows: dict[str, set] = {name: set() for name in PARTS[:-2]}
    den = math.lcm(*(A.den for A in sets))
    queries = OrderedSet(range(1, len(sets[0]) + 1), den=den)
    picks, energy = [], []
    for budget in BUDGETS:
        for algo in ALGOS:
            kwargs = {"signs": signs, "algo": algo, "mem_budget": budget}
            table, pick = handed(engine.representation, sets, **kwargs)
            picks.append(pick)
            for name, (bytes_, cost) in table.items():
                if bytes_ >= 0:
                    rows[name].add(repr(bytes_ if name == "naive" else (bytes_, cost)))
            energy.append(repr(handed(engine.energy_T, sets, **kwargs)))
        for elements in (False, True):
            table, pick = handed(engine._support, sets, signs, budget, elements)
            picks.append(pick)
            rows["support"].add(repr((elements, table)))
        table, pick = handed(
            engine._support, sets, signs, budget, False, len(sets), queries
        )
        rows["support"].add(repr(("ranks", budget, table, pick)))
    parts = {name: "\n".join(sorted(seen)) for name, seen in rows.items()}
    parts["picks"] = "\n".join(picks)
    parts["energy"] = "\n".join(energy)
    return parts


def each_input(n: int) -> Iterator[dict[str, str]]:
    """The parts of each of the first ``n`` inputs, with the spy in place
    of ``engine.choose`` meanwhile."""
    rng = random.Random(20261018)
    real = engine.choose
    engine.choose = _spy(real)
    try:
        for _ in range(n):
            yield planned(*random_input(rng))
    finally:
        engine.choose = real


def each_line(i: int, parts: dict[str, str]) -> str:
    """The ``--each`` line of input ``i``."""
    short = (hashlib.sha256(parts[name].encode()).hexdigest()[:8] for name in PARTS)
    return " ".join([str(i), *short])


def main() -> int:
    args = sys.argv[1:]
    each = "--each" in args
    args = [a for a in args if a != "--each"]
    n = int(args[0]) if args else 20_000
    digests = {name: hashlib.sha256() for name in PARTS}
    for i, parts in enumerate(each_input(n)):
        if each:
            print(each_line(i, parts))
        for name in PARTS:
            digests[name].update(parts[name].encode() + b"\0")
    if not each:
        total = hashlib.sha256()
        for name in PARTS:
            print(f"{name:8} {digests[name].hexdigest()[:16]}")
            total.update(digests[name].digest())
        print(f"{n} inputs {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
