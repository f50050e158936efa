"""Exact computation of representation functions, energies and spectra.

The k-fold representation function of A_1 + ... + A_k assigns to each
value x the number of ordered tuples summing to x; its total mass is
the product of the set sizes.  Energies (second moments), higher
moments and rich-sum spectra are derived from it with exact integer
arithmetic.

``representation`` signs and scales its inputs once: each set becomes
the increasing list of its values times the common denominator of all
sets, negated where its sign is -1 (``kernels.signed_scaled``).  The
planner and three interchangeable algorithms run on those int lists,
and the result is mapped back and wrapped in one ``SparseCounts``:

* ``naive`` -- enumerate all tuples (the N**k expansion);
* ``mitm``  -- balanced convolution tree: ``kernels.convolve_integer``
  of the two halves' (values, counts) lists;
* ``dense`` -- one fold over a numpy count array keyed by value offset,
  in int64 while the mass (which bounds every count) is below 2**63 and
  in Python ints (``dtype=object``) beyond; integer-valued sets only.
  An int64 fold whose values fit int64 hands its nonzero values and
  counts to ``SparseCounts`` as two arrays, which it keeps: tuples are
  built only when a caller reads them.

``auto`` selects by estimated cost; one set (k = 1) is planned and
checked against the budget like several.  All modes agree exactly and are
cross-checked in the test suite.  Operations estimate their memory
before allocating and raise ResourceError when the configured budget
(default 4 GiB) would be exceeded.

``spectrum_of`` reduces an array-backed result without building its
tuples: its bit classes (``SparseCounts.dyadic_classes``) and sum of
squares (``core.mass_of_squares``) read the int64 counts in ``core``,
with integer operations only, and return Python ints.

Sumsets and their sizes (``signed_sumset``, ``doubling``) need no
counts.  Under ``auto`` they come from the support kernel
(``kernels.support_size`` / ``support_values``), which ``_plan_support``
sends down its bitset or its int-set fold path and charges against the
memory budget; an explicit algorithm takes the support of its
representation function instead, which is how the tests cross-check
the kernel.

Everything here is pure and deterministic; independent computations can
run concurrently with bit-identical results.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from . import kernels
from .core import (
    DEFAULT_MEMORY_BUDGET,
    DICT_ENTRY_BYTES,
    OrderedSet,
    SparseCounts,
    mass_of_squares,
    moment_sum,
)
from .errors import InputError, ResourceError, VerificationError

Signs = Union[str, Sequence[int], None]

_ALGOS = ("auto", "naive", "mitm", "dense")

# Relative per-operation cost units used by the auto planner: a Python
# dict update is the unit; a numpy element op of the dense fold
# (_plan_dense) counts as 1/50.
_COMPILED_OP = 0.02
_NAIVE_TUPLE = 3.0

# Sumset support (_plan_support): the bitset path is taken when the bits
# it shifts and ORs number fewer than _BITS_PER_PAIR times the pairs the
# int-set fold would add.  Measured on a 2-core Xeon, Python 3.11 (best
# of 3, random sets with N = 16..128, gaps 2..4096, k = 2..4): once a
# span passes 10**6 bits, the fold costs 20-230 ns per pair, the bitset
# 40-130 ns per 1000 bits, and they break even at 400 to 4,900 bits per
# pair (3,450 for |B+B-B| of the analyze int set, rsc n=72).  Below
# 10**5 bits both take well under 1 ms.
_BITS_PER_PAIR = 2000


def parse_signs(signs: Signs, k: int) -> tuple[int, ...]:
    """Normalize a sign pattern ('++-', [1,1,-1], None) to a tuple."""
    if signs is None:
        return (1,) * k
    if isinstance(signs, str):
        table = {"+": 1, "-": -1, "−": -1}
        try:
            out = tuple(table[ch] for ch in signs)
        except KeyError as exc:
            raise InputError(f"bad sign character in {signs!r}") from exc
    else:
        out = tuple(int(s) for s in signs)
        if any(s not in (-1, 1) for s in out):
            raise InputError("signs must be +1 or -1")
    if len(out) != k:
        raise InputError(f"expected {k} signs, got {len(out)}")
    return out


# ---------------------------------------------------------------------------
# Verify mode: cross-checks embedded in the hot paths, activated by the
# `verification()` context.  Checks raise VerificationError on failure.


@dataclass
class VerifyStats:
    mass_checks: int = 0
    sandwich_checks: int = 0
    cauchy_schwarz_checks: int = 0
    support_checks: int = 0


_verify_ctx: ContextVar[VerifyStats | None] = ContextVar(
    "sumsetlab_verify", default=None
)


@contextmanager
def verification() -> Iterator[VerifyStats]:
    """Enable internal invariant checks for the enclosed computations."""
    stats = VerifyStats()
    token = _verify_ctx.set(stats)
    try:
        yield stats
    finally:
        _verify_ctx.reset(token)


def _verify_representation(rep: SparseCounts, sets: Sequence[OrderedSet]) -> None:
    stats = _verify_ctx.get()
    if stats is None:
        return
    expected = 1
    for A in sets:
        expected *= len(A)
    if rep.mass != expected:
        raise VerificationError(
            f"representation mass {rep.mass} != product of sizes {expected}"
        )
    stats.mass_checks += 1
    sp = spectrum_of(rep)
    total, weighted = sp.total_T, sp.weighted_sum()
    if not weighted <= total < 4 * weighted:
        raise VerificationError("dyadic spectrum sandwich violated")
    stats.sandwich_checks += 1


def _verify_support(size: int, sets: Sequence[OrderedSet]) -> None:
    """Sum of sizes - (k - 1) <= |A_1 +/- ... +/- A_k| <= product of sizes."""
    stats = _verify_ctx.get()
    if stats is None:
        return
    lower = sum(len(A) for A in sets) - (len(sets) - 1)
    upper = 1
    for A in sets:
        upper *= len(A)
    if not lower <= size <= upper:
        raise VerificationError(
            f"sumset size {size} outside [{lower}, {upper}]"
        )
    stats.support_checks += 1


# ---------------------------------------------------------------------------
# Planning: entry estimates and memory/cost estimates per algorithm, read
# from the signed int lists the algorithms run on and their common
# denominator ``den`` (1 exactly when every set is integer-valued).


@dataclass(frozen=True)
class _Node:
    entries: int
    # The number of integers from the least sum to the greatest: a cap
    # on the distinct sums.  math.inf when some summand set holds a
    # non-integer, which leaves ``entries`` uncapped.
    span: Union[int, float]


def _join(p: _Node, q: _Node) -> tuple[_Node, int, float]:
    """Estimate (output node, bytes, cost) for convolving p with q."""
    work = p.entries * q.entries
    span = p.span + q.span - 1
    out = min(work, span)
    return _Node(out, span), out * DICT_ENTRY_BYTES, float(work)


def _plan_mitm(lists: Sequence[list[int]], den: int) -> tuple[int, float]:
    def rec(lo: int, hi: int) -> tuple[_Node, int, float]:
        if hi - lo == 1:
            vals = lists[lo]
            # A leaf is the whole result when k = 1; for k >= 2 every join
            # outputs at least as many entries, so this never sets the peak.
            leaf_bytes = len(vals) * DICT_ENTRY_BYTES
            # A set of integers: its scaled values are multiples of den.
            if den == 1 or not any(x % den for x in vals):
                span = (vals[-1] - vals[0]) // den + 1
                return _Node(len(vals), span), leaf_bytes, 0.0
            return _Node(len(vals), math.inf), leaf_bytes, 0.0
        mid = (lo + hi + 1) // 2
        left, b1, c1 = rec(lo, mid)
        right, b2, c2 = rec(mid, hi)
        node, b3, c3 = _join(left, right)
        return node, max(b1, b2, b3), c1 + c2 + c3

    _, peak, cost = rec(0, len(lists))
    return peak, cost


def _span(lists: Sequence[list[int]]) -> int:
    return sum(v[-1] for v in lists) - sum(v[0] for v in lists) + 1


def _plan_naive(lists: Sequence[list[int]], den: int) -> tuple[int, float]:
    mass = math.prod(map(len, lists))
    out = min(mass, _span(lists)) if den == 1 else mass
    return out * DICT_ENTRY_BYTES, mass * _NAIVE_TUPLE


def _plan_dense(lists: Sequence[list[int]], den: int) -> tuple[int, float]:
    if den != 1:
        return -1, math.inf
    span = _span(lists)
    fold_elems = span * sum(map(len, lists[1:]))
    return span * 16, fold_elems * _COMPILED_OP


def _plan_support(
    sets: Sequence[OrderedSet], den: int, elements: bool
) -> tuple[int, int, bool]:
    """(bitset bytes, fold bytes, bitset preferred) for the support of
    the sets scaled by their common denominator ``den``.

    The partial sumsets are walked as the kernel folds them: each one
    spans the scaled spans added so far and holds at most
    min(product of sizes, span) sums.  Decoding the elements adds two
    bytes per bit of span and one output entry per sum to the bitset.
    """
    span = int((sets[0][-1] - sets[0][0]) * den) + 1
    out = len(sets[0])
    pairs = bits = 0
    for A in sets[1:]:
        pairs += out * len(A)
        span += int((A[-1] - A[0]) * den)
        bits += len(A) * span
        out = min(out * len(A), span)
    fold_bytes = out * DICT_ENTRY_BYTES
    bitset_bytes = span // 8
    if elements:
        bitset_bytes += 2 * span + fold_bytes
    return bitset_bytes, fold_bytes, bits < _BITS_PER_PAIR * pairs


# ---------------------------------------------------------------------------
# The three representation algorithms.


def _rep_naive(lists: Sequence[list[int]]) -> tuple[list[int], list[int]]:
    acc = Counter(map(sum, itertools.product(*lists)))
    values = sorted(acc)
    return values, list(map(acc.__getitem__, values))


def _rep_mitm(lists: Sequence[list[int]]) -> tuple[list[int], list[int]]:
    if len(lists) == 1:
        return lists[0], [1] * len(lists[0])
    mid = (len(lists) + 1) // 2
    return kernels.convolve_integer(*_rep_mitm(lists[:mid]), *_rep_mitm(lists[mid:]))


def _rep_dense(lists: Sequence[list[int]]) -> tuple[Sequence[int], Sequence[int]]:
    """The nonzero entries of the fold: two int64 arrays when the counts
    and values fit int64, else two lists of Python ints."""
    import numpy as np

    # No count exceeds the mass: int64 holds every count below 2**63,
    # Python ints (dtype=object) hold them beyond.
    dtype = np.int64 if math.prod(map(len, lists)) < 2**63 else object
    first = lists[0]
    cur_lo = first[0]
    cur = np.zeros(first[-1] - cur_lo + 1, dtype=dtype)
    for a in first:
        cur[a - cur_lo] = 1
    for vals in lists[1:]:
        new = np.zeros(cur.shape[0] + (vals[-1] - vals[0]), dtype=dtype)
        for a in vals:
            off = a - vals[0]
            new[off : off + cur.shape[0]] += cur
        cur, cur_lo = new, cur_lo + vals[0]
    nz = np.flatnonzero(cur)
    counts = cur[nz]
    if -(2**63) <= cur_lo and cur_lo + cur.shape[0] <= 2**63:
        values = nz + cur_lo
        if dtype is np.int64:
            # Both int64: SparseCounts keeps the arrays.
            return values, counts
        values = values.tolist()
    else:
        values = [cur_lo + i for i in nz.tolist()]
    return values, counts.tolist()


def representation(
    sets: Sequence[OrderedSet],
    *,
    signs: Signs = None,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> SparseCounts:
    """Exact representation function of A_1 +/- ... +/- A_k.

    Raises ResourceError (before allocating) when the estimated memory
    of the requested algorithm exceeds the budget; in auto mode the
    cheapest feasible algorithm is chosen.
    """
    if not sets:
        raise InputError("need at least one set")
    if algo not in _ALGOS:
        raise InputError(f"unknown algorithm {algo!r}")
    budget = DEFAULT_MEMORY_BUDGET if mem_budget is None else mem_budget
    eps = parse_signs(signs, len(sets))
    elements = [A.elements for A in sets]
    den = kernels.common_denominator(elements)
    lists = kernels.signed_scaled(elements, eps, den)

    plans = {
        "naive": _plan_naive(lists, den),
        "mitm": _plan_mitm(lists, den),
        "dense": _plan_dense(lists, den),
    }
    if algo == "auto":
        feasible = {
            name: cost
            for name, (bytes_, cost) in plans.items()
            if 0 <= bytes_ <= budget
        }
        if not feasible:
            best = min(b for b, _ in plans.values() if b >= 0)
            raise ResourceError(best, budget, "representation")
        # Stable tie-break: mitm, then dense, then naive.
        order = {"mitm": 0, "dense": 1, "naive": 2}
        algo = min(feasible, key=lambda name: (feasible[name], order[name]))
    else:
        bytes_, _ = plans[algo]
        if bytes_ < 0:
            raise InputError("dense mode requires integer-valued sets")
        if bytes_ > budget:
            raise ResourceError(bytes_, budget, f"representation[{algo}]")

    if algo == "naive":
        values, counts = _rep_naive(lists)
    elif algo == "mitm":
        values, counts = _rep_mitm(lists)
    else:
        values, counts = _rep_dense(lists)
    rep = SparseCounts(kernels.unscaled(values, den), counts)
    _verify_representation(rep, sets)
    return rep


# ---------------------------------------------------------------------------
# Energies and moments.


def energy_T(
    sets: Sequence[OrderedSet],
    *,
    signs: Signs = None,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> int:
    """Number of 2k-tuples with equal k-fold sums (exact)."""
    rep = representation(sets, signs=signs, algo=algo, mem_budget=mem_budget)
    total = mass_of_squares(rep)
    if len(sets) >= 1 and all(A == sets[0] for A in sets):
        n, k = len(sets[0]), len(sets)
        if not n**k <= total <= n ** (2 * k - 1):
            raise VerificationError(
                f"energy {total} outside the universal bounds "
                f"[{n}**{k}, {n}**{2 * k - 1}]"
            )
    return total


def energy_cross(
    A: OrderedSet,
    C: OrderedSet,
    *,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> int:
    """E(A, C): the two-summand energy."""
    total = energy_T([A, C], algo=algo, mem_budget=mem_budget)
    stats = _verify_ctx.get()
    if stats is not None:
        ea = mass_of_squares(representation([A, A], algo=algo, mem_budget=mem_budget))
        ec = mass_of_squares(representation([C, C], algo=algo, mem_budget=mem_budget))
        if total * total > ea * ec:
            raise VerificationError("Cauchy-Schwarz cross bound violated")
        stats.cauchy_schwarz_checks += 1
    return total


def moment(
    sets: Sequence[OrderedSet],
    m: int,
    *,
    signs: Signs = None,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> int:
    """Integer moment: sum of r(x)**m (m = 2 recovers the energy)."""
    rep = representation(sets, signs=signs, algo=algo, mem_budget=mem_budget)
    return moment_sum(rep, m)


def fractional_moment(
    sets: Sequence[OrderedSet],
    p: Union[int, float, Fraction],
    *,
    signs: Signs = None,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> float:
    """sum of r(x)**(1+p) for 0 < p < 2, in floating point.

    The only non-exact computation in the engine: counts are exact
    integers, exponentiation is IEEE double (counts stay below 2**53 at
    desk scale, so each term is correct to ~1 ulp and the compensated
    sum keeps the relative error within 1e-12).
    """
    pf = float(p)
    if not 0 < pf < 2:
        raise InputError("fractional moment exponent p must lie in (0, 2)")
    rep = representation(sets, signs=signs, algo=algo, mem_budget=mem_budget)
    return math.fsum(float(c) ** (1.0 + pf) for c in rep.counts)


# ---------------------------------------------------------------------------
# Spectra, sumsets, doubling, popular class.


@dataclass(frozen=True)
class Spectrum:
    """Dyadic classes of a representation function.

    Class j collects the sums x with 2**j <= r(x) < 2**(j+1); empty
    classes are omitted.  The weighted sum 4**j * size sandwiches the
    energy: weighted <= T < 4 * weighted.
    """

    classes: tuple[tuple[int, int], ...]
    total_T: int

    def weighted_sum(self) -> int:
        return sum(4**j * size for j, size in self.classes)

    def size_of(self, j: int) -> int:
        for jj, size in self.classes:
            if jj == j:
                return size
        return 0


def spectrum_of(rep: SparseCounts) -> Spectrum:
    return Spectrum(rep.dyadic_classes(), mass_of_squares(rep))


def spectrum(
    sets: Sequence[OrderedSet],
    *,
    signs: Signs = None,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> Spectrum:
    rep = representation(sets, signs=signs, algo=algo, mem_budget=mem_budget)
    return spectrum_of(rep)


def rich_tail(rep: SparseCounts, r: int) -> int:
    """|{x : r(x) >= r}|."""
    return sum(map(operator.ge, rep.counts, itertools.repeat(r)))


def _support(
    sets: Sequence[OrderedSet],
    eps: tuple[int, ...],
    mem_budget: int | None,
    elements: bool,
) -> Union[int, list]:
    """The support of A_1 +/- ... +/- A_k from the support kernel, never
    counted: its sorted elements when ``elements``, else its size.

    Raises ResourceError (before allocating) when neither kernel path
    fits the budget; the planner's choice is kept whenever it fits.
    """
    budget = DEFAULT_MEMORY_BUDGET if mem_budget is None else mem_budget
    values = [A.elements for A in sets]
    den = kernels.common_denominator(values)
    bitset_bytes, fold_bytes, bitset = _plan_support(sets, den, elements)
    need = {True: bitset_bytes, False: fold_bytes}
    if need[bitset] > budget:
        bitset = not bitset
    if need[bitset] > budget:
        raise ResourceError(min(need.values()), budget, "sumset support")
    if elements:
        out = kernels.support_values(values, eps, den, bitset)
        _verify_support(len(out), sets)
        return out
    size = kernels.support_size(values, eps, den, bitset)
    _verify_support(size, sets)
    return size


def signed_sumset(
    sets: Sequence[OrderedSet],
    signs: Signs,
    *,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> OrderedSet:
    """The set {e_1 a_1 + ... + e_k a_k}; first sign must be +1.

    ``auto`` runs the support kernel; an explicit algorithm takes the
    support of its representation function.
    """
    eps = parse_signs(signs, len(sets))
    if eps[0] != 1:
        raise InputError("sign patterns are normalized to start with +")
    if algo == "auto":
        return OrderedSet(_support(sets, eps, mem_budget, elements=True))
    rep = representation(sets, signs=eps, algo=algo, mem_budget=mem_budget)
    return rep.support()


@dataclass(frozen=True)
class DoublingReport:
    """Size and doubling constant of a patterned self-sumset of B."""

    pattern: str
    size: int
    K: Fraction


def doubling(
    B: OrderedSet,
    pattern: str,
    *,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> DoublingReport:
    """Exact |B +/- B +/- ... +/- B| and K = size / |B| for a sign string.

    ``auto`` runs the support kernel; an explicit algorithm counts the
    support of its representation function.
    """
    if not pattern:
        raise InputError("pattern must have length >= 1")
    eps = parse_signs(pattern, len(pattern))
    sets = [B] * len(eps)
    if algo == "auto":
        size = _support(sets, eps, mem_budget, elements=False)
    else:
        size = len(
            representation(sets, signs=eps, algo=algo, mem_budget=mem_budget)
        )
    return DoublingReport(pattern, size, Fraction(size, len(B)))


@dataclass(frozen=True)
class PopularClass:
    """The dyadic class of differences maximizing |D| * Delta**2."""

    differences: OrderedSet
    delta: int
    score: int


def popular_dyadic_class(
    A: OrderedSet, *, algo: str = "auto", mem_budget: int | None = None
) -> PopularClass:
    """Scan the difference representation r_{A-A} (zero and both signs
    included) for the dyadic class with maximal |D| * Delta**2; ties go
    to the larger Delta.
    """
    return _popular_class_and_differences(A, algo=algo, mem_budget=mem_budget)[0]


def _popular_class_and_differences(
    A: OrderedSet, *, algo: str = "auto", mem_budget: int | None = None
) -> tuple[PopularClass, SparseCounts]:
    """:func:`popular_dyadic_class` of A together with the r_{A-A} it was
    read from, for callers that need more from r_{A-A}."""
    if len(A) < 2:
        raise InputError("popular class needs at least 2 elements")
    rep = representation([A, A], signs=(1, -1), algo=algo, mem_budget=mem_budget)
    by_class: dict[int, list] = {}
    for v, c in rep.items():
        by_class.setdefault(c.bit_length() - 1, []).append(v)
    delta, values = max(
        ((2**j, vals) for j, vals in by_class.items()),
        key=lambda dv: (len(dv[1]) * dv[0] ** 2, dv[0]),
    )
    pop = PopularClass(OrderedSet(sorted(values)), delta, len(values) * delta**2)
    return pop, rep


def popular_bound_factor(n: int) -> int:
    """4 * (floor(log2(2N)) + 1): the class-count factor in the energy
    bound E(A) <= factor * |D| * Delta**2."""
    return 4 * (2 * n).bit_length()


def check_popular_bound(
    A: OrderedSet, *, algo: str = "auto", mem_budget: int | None = None
) -> tuple[int, int, bool]:
    """Return (E(A), bound, E <= bound) for the popular-class bound."""
    pop = popular_dyadic_class(A, algo=algo, mem_budget=mem_budget)
    e = energy_T([A, A], algo=algo, mem_budget=mem_budget)
    bound = popular_bound_factor(len(A)) * pop.score
    return e, bound, e <= bound
