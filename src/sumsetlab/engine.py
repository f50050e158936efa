"""Exact computation of representation functions, energies and spectra.

The k-fold representation function of A_1 + ... + A_k assigns to each
value x the number of ordered tuples summing to x; its total mass is
the product of the set sizes.  Energies (second moments), higher
moments and rich-sum spectra are derived from it with exact integer
arithmetic.

``representation`` reads each set's stored ints over the sets' common
denominator (``core.common_ints``, which rescales only sets whose
denominators differ from it), negated and reversed where its sign is
-1.  The planner and three interchangeable algorithms run on those int
sequences, and the result's ints are handed with that denominator to
one ``SparseCounts``, which reduces it:

* ``naive`` -- enumerate all tuples (the N**k expansion);
* ``mitm``  -- balanced convolution tree: ``kernels.convolve_integer``
  of the two halves' (values, counts) lists.  A node of j copies of one
  list (``[A] * k`` under one sign) is instead one
  ``kernels.self_sum_counts`` over the j-multisets of the list wherever
  the planner (``_mitm_estimate``) finds that cheaper than splitting it;
  either way such a node is estimated at no more entries than there are
  j-multisets;
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
(default 4 GiB) would be exceeded.  Every result's mass is checked
against the product of the set sizes, in every run (VerificationError).

A sparse kernel that returns its ``Counter`` (``naive``, and the
multiset node of ``mitm`` at the root) hands it to ``SparseCounts``
whole: it is sorted only when read in order.  The order-free reductions
(``energy_of``, ``moment``, ``spectrum_of``, ``rich_tail``,
``fractional_moment``) read its counts unsorted, so ``energy`` of
``[A] * k`` never sorts r_{kA}.  Neither ``representation`` nor the
support path builds a Fraction: a rational result's values are built
only when a caller reads them.

``spectrum_of`` reduces an array-backed result without building its
tuples: its bit classes (``SparseCounts.dyadic_classes``) and sum of
squares (``core.mass_of_squares``) read the int64 counts in ``core``,
with integer operations only, and return Python ints.  ``energy_of``
and ``popular_class_of`` are the other reductions of a given result:
the sum of squares with the universal-bounds check, and the popular
dyadic class, picked from the bit classes of r_{A-A}.  The energy
E(A) = sum r_{A-A}(d)**2 and the popular-class bound
(``check_popular_bound``) are both read from one r_{A-A}.

Sumsets and their sizes (``signed_sumset``, ``doubling``) need no
counts.  Under ``auto`` they come from the support kernel
(``kernels.support_size`` / ``support_values``) on the same signed
ints, which ``_plan_support`` sends down its bitset or its int-set fold
path and charges against the memory budget; a sumset is the kernel's
ints with their denominator in one ``OrderedSet``.  An explicit
algorithm takes the support of its representation function instead,
which is how the tests cross-check the kernel.

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
from typing import Iterable, Iterator, Sequence, Union

from . import kernels
from .core import (
    DEFAULT_MEMORY_BUDGET,
    DICT_ENTRY_BYTES,
    OrderedSet,
    SparseCounts,
    common_ints,
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
# One j-multiset of kernels.self_sum_counts, the mitm node for j copies
# of one list (_mitm_estimate), in units of a dict-loop pair as _join
# charges them.  Fitted on a 2-core Xeon, Python 3.11 (best of 3; 41
# rsc sets, s = 1, 2, 3, N = 12..48, j = 2..5): the kernel's time per
# multiset over the split tree's time per unit of its estimated cost
# gave a median of 2.44, quartiles 1.75 and 3.42 (lowest at odd j, whose
# last join is no squaring).
_MULTISET_ITEM = 2.4

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


def _signed_ints(
    sets: Sequence[OrderedSet], eps: Sequence[int]
) -> tuple[list[Sequence[int]], int]:
    """Each set's ints over the sets' common denominator, negated and
    reversed where its sign is -1 (so each stays increasing), and that
    denominator."""
    lists, den = common_ints(sets)
    return [
        ints if e == 1 else tuple(map(operator.neg, reversed(ints)))
        for ints, e in zip(lists, eps)
    ], den


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
    # representation has already checked the mass, in every run.
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
    upper = math.prod(map(len, sets))
    if not lower <= size <= upper:
        raise VerificationError(
            f"sumset size {size} outside [{lower}, {upper}]"
        )
    stats.support_checks += 1


# ---------------------------------------------------------------------------
# Planning: entry estimates and memory/cost estimates per algorithm, read
# from the signed ints the algorithms run on and their common denominator
# ``den`` (1 exactly when every set is integer-valued).


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


def _mitm_estimate(
    lists: Sequence[Sequence[int]], den: int
) -> tuple[_Node, int, float, bool]:
    """(output node, peak bytes, cost, multiset) of ``_rep_mitm`` on
    ``lists``: ``multiset`` is True when the lists are j >= 2 copies of
    one list and ``kernels.self_sum_counts`` costs less than splitting
    them into two halves and joining."""
    if len(lists) == 1:
        vals = lists[0]
        # A leaf is the whole result when k = 1; for k >= 2 every join
        # outputs at least as many entries, so this never sets the peak.
        leaf_bytes = len(vals) * DICT_ENTRY_BYTES
        # A set of integers: its scaled values are multiples of den.
        integer = den == 1 or not any(x % den for x in vals)
        span = (vals[-1] - vals[0]) // den + 1 if integer else math.inf
        return _Node(len(vals), span), leaf_bytes, 0.0, False
    mid = (len(lists) + 1) // 2
    left, b1, c1, _ = _mitm_estimate(lists[:mid], den)
    right, b2, c2, _ = _mitm_estimate(lists[mid:], den)
    node, b3, c3 = _join(left, right)
    split_cost = c1 + c2 + c3
    if any(vals != lists[0] for vals in lists):
        return node, max(b1, b2, b3), split_cost, False
    # j copies of one n-element list: at most one sum per j-multiset,
    # whichever way they are computed.
    n, j = len(lists[0]), len(lists)
    multisets = math.comb(n + j - 1, j)
    node = _Node(min(multisets, node.span), node.span)
    out_bytes = node.entries * DICT_ENTRY_BYTES
    if multisets * _MULTISET_ITEM < split_cost:
        return node, out_bytes, multisets * _MULTISET_ITEM, True
    return node, max(b1, b2, out_bytes), split_cost, False


def _plan_mitm(lists: Sequence[Sequence[int]], den: int) -> tuple[int, float]:
    _, peak, cost, _ = _mitm_estimate(lists, den)
    return peak, cost


def _span(lists: Sequence[Sequence[int]]) -> int:
    return sum(v[-1] for v in lists) - sum(v[0] for v in lists) + 1


def _plan_naive(lists: Sequence[Sequence[int]], den: int) -> tuple[int, float]:
    mass = math.prod(map(len, lists))
    out = min(mass, _span(lists)) if den == 1 else mass
    return out * DICT_ENTRY_BYTES, mass * _NAIVE_TUPLE


def _plan_dense(lists: Sequence[Sequence[int]], den: int) -> tuple[int, float]:
    if den != 1:
        return -1, math.inf
    span = _span(lists)
    fold_elems = span * sum(map(len, lists[1:]))
    return span * 16, fold_elems * _COMPILED_OP


def _plan_support(
    lists: Sequence[Sequence[int]], elements: bool
) -> tuple[int, int, bool]:
    """(bitset bytes, fold bytes, bitset preferred) for the support of
    the sets whose ints over one denominator are ``lists``.

    The partial sumsets are walked as the kernel folds them: each one
    spans the scaled spans added so far and holds at most
    min(product of sizes, span) sums.  Decoding the elements adds two
    bytes per bit of span and one output entry per sum to the bitset.
    """
    span = lists[0][-1] - lists[0][0] + 1
    out = len(lists[0])
    pairs = bits = 0
    for ints in lists[1:]:
        pairs += out * len(ints)
        span += ints[-1] - ints[0]
        bits += len(ints) * span
        out = min(out * len(ints), span)
    fold_bytes = out * DICT_ENTRY_BYTES
    bitset_bytes = span // 8
    if elements:
        bitset_bytes += 2 * span + fold_bytes
    return bitset_bytes, fold_bytes, bits < _BITS_PER_PAIR * pairs


# ---------------------------------------------------------------------------
# The three representation algorithms.


# Each returns (values, counts) of the result: two sorted sequences, or a
# kernel's Counter in no order with its values() view.


def _rep_naive(lists: Sequence[Sequence[int]]) -> tuple[Counter, Iterable[int]]:
    acc = Counter(map(sum, itertools.product(*lists)))
    return acc, acc.values()


def _rep_mitm(
    lists: Sequence[Sequence[int]], den: int
) -> tuple[Iterable[int], Iterable[int]]:
    if len(lists) == 1:
        return lists[0], [1] * len(lists[0])
    if _mitm_estimate(lists, den)[3]:
        acc = kernels.self_sum_counts(lists[0], len(lists))
        return acc, acc.values()
    mid = (len(lists) + 1) // 2
    left = _rep_mitm(lists[:mid], den)
    # Equal halves are computed once; the kernel then walks pairs i <= j.
    right = left if lists[mid:] == lists[:mid] else _rep_mitm(lists[mid:], den)
    return kernels.convolve_integer(*left, *right)


def _rep_dense(lists: Sequence[Sequence[int]]) -> tuple[Sequence[int], Sequence[int]]:
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
    lists, den = _signed_ints(sets, parse_signs(signs, len(sets)))

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
        values, counts = _rep_mitm(lists, den)
    else:
        values, counts = _rep_dense(lists)
    if isinstance(values, dict):
        # A kernel's Counter: kept whole, sorted only when read in order.
        counts = None
    rep = SparseCounts(values, counts, den=den)
    mass = math.prod(map(len, lists))
    if rep.mass != mass:
        raise VerificationError(
            f"representation mass {rep.mass} != product of sizes {mass}"
        )
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
    return energy_of(rep, sets)


def energy_of(rep: SparseCounts, sets: Sequence[OrderedSet]) -> int:
    """Sum of r(x)**2 over the representation ``rep`` of ``sets`` under
    any signs; checked against the universal bounds when the sets are
    equal."""
    total = mass_of_squares(rep)
    if sets and all(A == sets[0] for A in sets):
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
    # fsum is correctly rounded, so the order of the counts cannot matter.
    return math.fsum(float(c) ** (1.0 + pf) for c in rep.unordered_counts())


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
    return sum(map(operator.ge, rep.unordered_counts(), itertools.repeat(r)))


def _support(
    sets: Sequence[OrderedSet],
    eps: tuple[int, ...],
    mem_budget: int | None,
    elements: bool,
) -> Union[int, OrderedSet]:
    """The support of A_1 +/- ... +/- A_k from the support kernel, never
    counted: the set when ``elements``, else its size.

    Raises ResourceError (before allocating) when neither kernel path
    fits the budget; the planner's choice is kept whenever it fits.
    """
    budget = DEFAULT_MEMORY_BUDGET if mem_budget is None else mem_budget
    lists, den = _signed_ints(sets, eps)
    bitset_bytes, fold_bytes, bitset = _plan_support(lists, elements)
    need = {True: bitset_bytes, False: fold_bytes}
    if need[bitset] > budget:
        bitset = not bitset
    if need[bitset] > budget:
        raise ResourceError(min(need.values()), budget, "sumset support")
    if elements:
        out = kernels.support_values(lists, bitset)
        _verify_support(len(out), sets)
        return OrderedSet(out, den=den)
    size = kernels.support_size(lists, bitset)
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
    if not sets:
        raise InputError("need at least one set")
    eps = parse_signs(signs, len(sets))
    if eps[0] != 1:
        raise InputError("sign patterns are normalized to start with +")
    if algo == "auto":
        return _support(sets, eps, mem_budget, elements=True)
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
    """The popular dyadic class of r_{A-A} (:func:`popular_class_of`)."""
    diff = representation([A, A], signs=(1, -1), algo=algo, mem_budget=mem_budget)
    return popular_class_of(diff)


def popular_class_of(diff: SparseCounts) -> PopularClass:
    """The dyadic class of the difference representation ``diff`` =
    r_{A-A} (zero and both signs included) with maximal |D| * Delta**2;
    ties go to the larger Delta.
    """
    # r_{A-A} has mass |A|**2.
    if diff.mass < 4:
        raise InputError("popular class needs at least 2 elements")
    j, size = max(diff.dyadic_classes(), key=lambda js: (js[1] * 4 ** js[0], js[0]))
    lo, hi = 2**j, 2 ** (j + 1)
    # diff.ints run in increasing order.
    ints = [x for x, c in zip(diff.ints, diff.counts) if lo <= c < hi]
    return PopularClass(OrderedSet(ints, den=diff.den), lo, size * lo**2)


def popular_bound_factor(n: int) -> int:
    """4 * (floor(log2(2N)) + 1): the class-count factor in the energy
    bound E(A) <= factor * |D| * Delta**2."""
    return 4 * (2 * n).bit_length()


def check_popular_bound(
    A: OrderedSet, *, algo: str = "auto", mem_budget: int | None = None
) -> tuple[int, int, bool]:
    """Return (E(A), bound, E <= bound) for the popular-class bound, both
    read from one r_{A-A}: E(A) is the sum of its squared counts."""
    diff = representation([A, A], signs=(1, -1), algo=algo, mem_budget=mem_budget)
    bound = popular_bound_factor(len(A)) * popular_class_of(diff).score
    e = energy_of(diff, [A, A])
    return e, bound, e <= bound
