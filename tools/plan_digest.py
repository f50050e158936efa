"""Digest the planner's estimates and choices on seeded random inputs.

For each input it records the (bytes, cost) estimate of ``_plan_mitm``,
``_plan_dense`` and ``_plan_naive``, of both ``_plan_support`` tables,
and the path ``choose`` picks from them (or its ResourceError) under the
budgets None, 10**4 and 10**6, for ``auto`` and for each algorithm asked
for by name.  It prints one line: the number of inputs and a digest of
all of it.  Two trees that print the same line plan alike, so a change
meant to keep every estimate and choice can be checked against its
parent:

    python3 tools/plan_digest.py [N]                          # this tree
    PYTHONPATH=<other tree>/src python3 tools/plan_digest.py [N]

Inputs have k = 1..9 summands, integer and rational sets of 1..12
elements, the same set repeated, a few sets alternating (some equal by
value but distinct objects) or all different, under random signs.  N
defaults to 20,000.  Only the first two entries of a planner's row are
read, so trees whose rows are bare (bytes, cost) pairs compare too.
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

# Last on the path, so that a tree named in PYTHONPATH comes first.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from sumsetlab import OrderedSet, engine  # noqa: E402
from sumsetlab.errors import ResourceError  # noqa: E402

BUDGETS = (None, 10**4, 10**6)


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


def picked(plans: dict, algo: str, budget: int | None, what: str) -> str:
    try:
        return engine.choose(plans, algo, budget, what)
    except ResourceError as exc:
        return str(exc)


def planned(sets: list[OrderedSet], signs: tuple[int, ...]) -> list[str]:
    lists, den = engine._signed_ints(sets, signs)
    plans = {
        name: plan(lists, den)[:2]
        for name, plan in (("mitm", engine._plan_mitm), ("dense", engine._plan_dense),
                           ("naive", engine._plan_naive))
    }
    supports = [
        {name: row[:2] for name, row in engine._plan_support(lists, elements).items()}
        for elements in (False, True)
    ]
    out = [repr(plans), *map(repr, supports)]
    for budget in BUDGETS:
        for algo in ("auto", "mitm", "dense", "naive"):
            # representation refuses dense on a rational set before choosing.
            if algo == "dense" and plans["dense"][0] < 0:
                out.append("dense n/a")
            else:
                out.append(picked(plans, algo, budget, "representation"))
        out += [picked(table, "auto", budget, "sumset support") for table in supports]
    return out


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for _ in range(n):
        digest.update("\n".join(planned(*random_input(rng))).encode())
    print(f"{n} inputs {digest.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
