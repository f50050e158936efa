"""Exact computation of representation functions, energies and spectra.

The k-fold representation function of A_1 + ... + A_k assigns to each
value x the number of ordered tuples summing to x; its total mass is
the product of the set sizes.  Energies (second moments), higher
moments and rich-sum spectra are derived from it with exact integer
arithmetic.

``representation`` reads each set's stored ints over the sets' common
denominator (``core.common_ints``, which rescales only sets whose
denominators differ from it), negated and reversed where its sign is
-1.  The k copies of ``[A] * k`` share A's stored ints, and each
distinct int sequence is negated once, so they share one tuple per sign;
beyond those they hold only the references that ``check_copies``
charges.  The planner and three interchangeable algorithms run on those
int sequences, and each algorithm hands its result in its one form, with
that denominator, to ``SparseCounts._result``, which keeps it as
produced, unchecked, in one container and reduces it:

* ``naive`` -- enumerate all tuples (the N**k expansion) into one
  ``Counter``, in bounded chunks of sums so that Ctrl-C lands between
  them;
* ``mitm``  -- run the plan tree that ``_mitm_tree`` builds and prices
  in one recursion.  Each node is a count dict {int: count}: a leaf
  (each int once), a join of its two halves (``kernels.convolve_integer``
  of their dicts), or, for j copies of one list (``[A] * k`` under one
  sign), one ``kernels.self_sum_counts`` over the j-multisets of the list
  wherever that is estimated cheaper than splitting it; either way such
  a node is estimated at no more entries than there are j-multisets.
  Equal halves share one node, which ``_rep_mitm`` computes once: it only
  executes the plan and prices nothing;
* ``dense`` -- one fold over a numpy count array keyed by int offset,
  for every input: a rational set is its ints over ``den`` here, as for
  the other two, and the fold costs their scaled span.  Each step adds
  one shifted copy of the counts per value of the next set, so every
  count and partial sum of the step is at most the current maximum
  count times that set's size: the step runs in the narrowest of uint8,
  uint16, uint32 and int64 that holds this bound, so no add can wrap,
  and in Python ints (``dtype=object``) beyond, where the fold then
  stays.  The fold hands its count array to ``SparseCounts._result`` as
  it stands, with the range of its values and ``den``, whatever its
  width and wherever its values lie: at its last width, zeros included,
  neither gathered, widened nor copied.  The container keeps it, every
  reduction reads it in place, and the nonzero cells are gathered into
  tuples only when a caller reads them.

Every budgeted path is one row, ``(bytes, cost, run)``, from a
``_plan_*`` function: its estimate, made before anything is allocated,
and the zero-argument call that executes the path and returns the
result's (values, counts) as ``SparseCounts._result`` takes them.  A
table holds only the rows that can run: the planned entry lists mitm
and dense always, and naive only when it is asked for by name.  One rule
picks the row, in ``choose``, which reads only the estimates: ``auto``
takes the cheapest candidate whose bytes fit the memory budget (default
4 GiB), ties going to the candidate listed first, and an explicit
algorithm is the only candidate.  The least estimate is charged first
(``core.charge``, the one place that raises ResourceError), so nothing
runs when nothing fits.  The caller then runs the row it names.  Rows
serve the representation algorithms and the support kernel's switch
points; ``check_copies``, which ``cli`` and ``bounds`` call before they
build k copies of a set, and the lucky census (``luckypairs``) charge
their estimates directly.  One set (k = 1) is planned and checked
against the budget like several.  All modes
agree exactly and are cross-checked in the test suite.  A kept result
skips the container's input checks, which the kernels meet by
construction; its mass is checked against the product of the set
sizes instead, in every run (VerificationError), and ``verification()``
adds the spectrum sandwich.

The sparse algorithms (``naive`` and ``mitm``) hand the count dict of
their result to ``SparseCounts._result`` whole, with no counts: it is
neither scanned nor copied, and sorted only when read in order.  The
order-free reductions (``energy_of``, ``spectrum_of``) read its counts
unsorted.
``representation`` and ``energy_T`` are two answers of one planned
entry, which validates the input, reads the signed ints, hands
``choose`` one table, runs the row picked, checks the mass and runs the
``verification()`` checks, each once.  For an energy its mitm row
returns (count dict, weight) pairs, which ``kernels.class_moments``
reduces, so ``energy`` never builds r_{kA} for a multiset root
(``kernels.self_sum_classes``, whose class dicts the row charges) and
never sorts one for a join; any other row's result is reduced by
``energy_of``.  Under ``verification()`` a mitm energy is compared with
the result of the counts form of the same plan tree, which charges no
more bytes, and any other energy is the sum of squares that the check
of its result read.
Neither ``representation`` nor the support path builds a Fraction: a
rational result's values are built only when a caller reads them.

``spectrum_of`` reduces an array-backed result without building its
tuples: its bit classes (``SparseCounts.dyadic_classes``) and sum of
squares (``core.mass_of_squares``) read the count array in ``core``,
with integer operations only, and return Python ints.  ``energy_of``
is the other reduction of a given result: the sum of squares with the
universal-bounds check.  ``popular_dyadic_class`` picks the popular
dyadic class's Delta and score from the bit classes of r_{A-A}, which
are read unsorted, and adds the class's differences from
``SparseCounts.count_class``, which sorts only those.
``difference_profile`` reads E(A) = sum r_{A-A}(d)**2, with the same
check, sum r_{A-A}(d)**3 and the popular class with its energy bound
(``PopularBound``) from r_{A-A} in one pass over its counts: they are
at most |A|, so one ``Counter`` of their values holds at most |A|
entries, and each reduction walks those.  ``analyze`` and
``check_popular_bound`` read r_{A-A} through it, and build no set: the
bound and whether E meets it are computed here only.
Every other reduction reads the counts directly: a histogram does not
pay on counts with many distinct values, such as an r_{4A}.

Sumsets and their sizes (``signed_sumset``, ``sumset_size``,
``sumset_ranks``, ``doubling``, ``doublings``) need no counts and take
no algorithm: they come from the support kernel on the same signed
ints, at the switch point from its int-set fold to its bitset that is
the ``_plan_support`` row ``choose`` picks.  A size is counted without
building any element, and one run can give the size of each prefix
A_1 +/- ... +/- A_j: ``doublings`` reports every prefix of two signs or
more of a sign pattern from one run, so ``analyze`` reads |A+A| and
|A+A-A| from one run, while ``doubling`` and ``sumset_size`` count the
whole only, since counting a mask costs as much as one more shift and
OR.  Every bitset row is charged the masks its last OR holds at once,
each at CPython's size of an int of the span's bits, and every fold the
largest two of its int sets that it holds at once.  ``sumset_ranks``
runs the size path's rows too, at the same costs and bytes, each with
its ranks' bytes added (``kernels.support_ranks``): |S| and the rank in
S of each element of a set of sums, such as B in B + B - B, read from
the mask or the fold's set without building S.  Those ranks must
strictly increase below |S|, or VerificationError is raised, in every
run.  A sumset is the kernel's ints with their denominator in one
``OrderedSet``.  The tests cross-check it against the support of
``representation``.

Everything here is pure and deterministic; independent computations can
run concurrently with bit-identical results.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

from . import kernels
from .core import (
    DICT_ENTRY_BYTES,
    OrderedSet,
    SparseCounts,
    charge,
    common_ints,
    mass_of_squares,
    rich_tail,
)
from .errors import InputError, VerificationError

Signs = Union[str, Sequence[int], None]
# A planner cost, exact.
Cost = Union[int, Fraction]
# A planner row: the (bytes, cost) estimate of one path and the call that
# runs it.  The call looks up what it runs when planned or run, never at
# import: tests and the benchmark's tracer replace module attributes.
Row = tuple[int, Cost, Callable[[], Any]]

_ALGOS = ("auto", "naive", "mitm", "dense")

# Relative per-operation cost units used by the auto planner: a Python
# dict update is the unit; a numpy element op of the dense fold
# (_plan_dense) counts as 1/50.  Every estimate is an exact int or
# Fraction, so costs far past the float range still compare exactly.
_COMPILED_OP = Fraction(1, 50)
# One j-multiset of kernels.self_sum_counts, the mitm node for j copies
# of one list (_mitm_tree), in units of a dict-loop pair as a join is
# charged them.  Fitted on a 2-core Xeon, Python 3.11 (best of 3; 41
# rsc sets, s = 1, 2, 3, N = 12..48, j = 2..5): the kernel's time per
# multiset over the split tree's time per unit of its estimated cost
# gave a median of 2.44, quartiles 1.75 and 3.42 (lowest at odd j, whose
# last join is no squaring).  Re-run for the streamed kernel (the split
# tree as planned below the root; 147 points, leaving out those past 10**6
# multisets or 3 * 10**6 units of split cost): median 2.33, quartiles 1.34
# and 3.96, against 3.43, 1.94 and 4.01 for the kernel before it on the
# same points.  The constant is left for the planner refit.
_MULTISET_ITEM = Fraction(12, 5)

# Sumset support (_plan_support): each row folds int sets up to its switch
# point and ORs shifted bitsets past it, at _BITS_PER_PAIR per pair the
# fold adds against one per bit the bitset shifts and ORs.  Measured on
# a 2-core Xeon, Python 3.11 (best of 3, random sets with N = 16..128,
# gaps 2..4096, k = 2..4): once a span passes 10**6 bits, the fold costs
# 20-230 ns per pair, the bitset 40-130 ns per 1000 bits, and they break
# even at 400 to 4,900 bits per pair (3,450 for |B+B-B| of the analyze
# int set, rsc n=72).  Below 10**5 bits both take well under 1 ms.
_BITS_PER_PAIR = 2000
# The other terms of a support row, in the same units (bits ORed on a
# mask under _WIDE_MASK bits); best of 3 on the same machine.
# - Converting the fold's sums into one mask (kernels._partial_sums):
#   _PAIRS_PER_SUM pairs per sum the plan estimates.  53 rsc, power,
#   interval and composed sets, N = 12..300, the sums of the first two of
#   3 or 4 lists: median 1.53 charged pairs, quartiles 1.39 and 2.89.
# - ORing where the new mask spans _WIDE_MASK bits or more: _WIDE_BIT per
#   bit.  One list of 8 shifts on random masks took 40-55 ns per 1000
#   bits at 2**14-2**19 bits and 75-110 ns at 2**20-2**27.
# - Counting a prefix's size, int.bit_count: one pass per bit, 0.45 times
#   one shift and OR at 2**20 bits and 1.1 times at 15 * 10**6.
# - Decoding the elements from the mask: _DECODE_BIT per bit of span.
#   It took 22-28 ns per bit at density 0.01 and 32-56 ns at 0.5
#   (2**14-2**26 bits), 200 to 1,400 bits ORed; of 100, 200, 300, 500
#   and 800, 300 gave the fastest picks on the elements timings below.
# Every row was then timed on 5,448 inputs with k >= 2: every third of
# tools/plan_digest.py's 20,000, and 60 of the sizes that the benchmark
# and tests use, leaving out rows planned past 32 MB or 4 * 10**9 units.
# On the size path (the whole sumset's size) these picks took 3.63 s in
# all, the fastest row of each 3.35 s, and the pick of the fold-or-bitset
# rule that these rows replaced 5.35 s.  On the elements path (755
# inputs: every sixth of the first 6,000 and the 60, rows past 24 MB left
# out), where that rule priced no decoding, they took 0.293 s, 0.288 s
# and 1.436 s.
_PAIRS_PER_SUM = Fraction(3, 2)
_WIDE_MASK = 2**20
_WIDE_BIT = 2
_DECODE_BIT = 300
# One rank of kernels.support_ranks: a list reference and its int object.
_RANK_BYTES = 40
# The masks that a bitset row's last OR holds at once: the mask so far, the
# accumulator, its shifted copy and their OR.  Each is charged as CPython
# stores an int of the span's bits, in digits of sys.int_info.
_HELD_MASKS = 4
# An int set of the fold, per sum, at its table's resize (3/5 full): the
# old table of 16-byte slots and the new one four times its size, 133 bytes
# a sum, and the sum's int.  Once built it holds at most the new table, 107
# bytes a sum, and the ints.
_SET_SUM_BYTES = 168
# What every support row holds whatever its inputs: the kernel's generator
# and frame, the result list and a few ints (about 700 bytes measured on
# Python 3.11).
_SUPPORT_ROW_BYTES = 1024


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
    denominator.  Each distinct int sequence is negated once, so that the
    copies of a repeated set share one tuple."""
    lists, den = common_ints(sets)
    negated = {id(ints): ints for ints, e in zip(lists, eps) if e == -1}
    for key, ints in negated.items():
        negated[key] = tuple(map(operator.neg, reversed(ints)))
    return [ints if e == 1 else negated[id(ints)] for ints, e in zip(lists, eps)], den


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


def _verify_representation(
    rep: SparseCounts, moments: tuple[int, int] | None = None
) -> int | None:
    """The verify-mode checks of ``rep``, whose mass is checked in every
    run: the spectrum sandwich, and that ``moments``, the (mass, sum of
    squares) of the same sum read apart from ``rep``, are its own.
    Returns the sum of squares it read, None outside verify mode."""
    stats = _verify_ctx.get()
    if stats is None:
        return None
    stats.mass_checks += 1
    sp = spectrum_of(rep)
    total, weighted = sp.total_T, sp.weighted_sum()
    if moments not in (None, (rep.mass, total)):
        raise VerificationError(
            f"(mass, energy) {moments} != {(rep.mass, total)} from the representation"
        )
    if not weighted <= total < 4 * weighted:
        raise VerificationError("dyadic spectrum sandwich violated")
    stats.sandwich_checks += 1
    return total


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
# Planning: one row per path, its memory/cost estimate and the call that
# runs it, read from the signed ints the algorithms run on and their
# common denominator ``den`` (1 exactly when every set is integer-valued).


@dataclass(frozen=True)
class _MitmNode:
    """A node of the mitm plan over ``k`` lists: its estimated entries,
    and the peak bytes and cost of computing it.  A node with ``halves``
    joins them, one node twice when the halves are equal; a node without
    is a leaf (k = 1) or one ``kernels.self_sum_counts`` of k copies of
    one list."""

    k: int
    entries: int
    # The number of integers from the least sum to the greatest: a cap
    # on the distinct sums.  math.inf when some summand set holds a
    # non-integer, which leaves ``entries`` uncapped.
    span: Union[int, float]
    bytes: int
    cost: Cost
    halves: tuple[_MitmNode, _MitmNode] | None = None


def _mitm_tree(lists: Sequence[Sequence[int]], den: int) -> _MitmNode:
    """The mitm plan of ``lists``: their two halves joined, or, for j >= 2
    copies of one list, one multiset node where that costs less.  A join
    is charged all p * q pairs of its halves, a shared half included."""
    if len(lists) == 1:
        vals = lists[0]
        # A set of integers: its scaled values are multiples of den.
        integer = den == 1 or not any(x % den for x in vals)
        span = (vals[-1] - vals[0]) // den + 1 if integer else math.inf
        # A leaf is the whole result when k = 1; for k >= 2 every join
        # outputs at least as many entries, so this never sets the peak.
        return _MitmNode(1, len(vals), span, len(vals) * DICT_ENTRY_BYTES, 0)
    k, mid = len(lists), (len(lists) + 1) // 2
    left = _mitm_tree(lists[:mid], den)
    right = left if lists[mid:] == lists[:mid] else _mitm_tree(lists[mid:], den)
    pairs = left.entries * right.entries
    span = left.span + right.span - 1
    entries, cost = min(pairs, span), left.cost + right.cost + pairs
    if all(vals == lists[0] for vals in lists):
        # j copies of one n-element list: at most one sum per j-multiset,
        # whichever way they are computed.
        multisets = math.comb(len(lists[0]) + k - 1, k)
        entries = min(multisets, span)
        if multisets * _MULTISET_ITEM < cost:
            out_bytes = entries * DICT_ENTRY_BYTES
            return _MitmNode(k, entries, span, out_bytes, multisets * _MULTISET_ITEM)
    peak = max(left.bytes, right.bytes, entries * DICT_ENTRY_BYTES)
    return _MitmNode(k, entries, span, peak, cost, (left, right))


def _plan_mitm(lists: Sequence[Sequence[int]], den: int, classes: bool = False) -> Row:
    """The mitm row; with ``classes``, its call returns the result as
    (count dict, weight) pairs (``_rep_mitm``), or called with False the
    count dict of the same plan, and a root that is one multiset node is
    charged for the dicts of ``kernels.self_sum_classes``: each at most
    its multisets (``kernels.class_multisets``), and at most the span."""
    plan = _mitm_tree(lists, den)
    if not classes:
        return plan.bytes, plan.cost, lambda: (_rep_mitm(lists, plan), None)
    bytes_ = plan.bytes
    if plan.k > 1 and not plan.halves:
        dicts = kernels.class_multisets(len(lists[0]), plan.k)
        bytes_ = sum(min(m, plan.span) for _, m in dicts) * DICT_ENTRY_BYTES
    return bytes_, plan.cost, lambda classes=True: _rep_mitm(lists, plan, classes)


def _span(lists: Sequence[Sequence[int]]) -> int:
    return sum(v[-1] for v in lists) - sum(v[0] for v in lists) + 1


def _plan_naive(lists: Sequence[Sequence[int]]) -> Row:
    mass = math.prod(map(len, lists))
    out = min(mass, _span(lists))
    return out * DICT_ENTRY_BYTES, mass, lambda: (_rep_naive(lists), None)


def _plan_dense(lists: Sequence[Sequence[int]]) -> Row:
    span = _span(lists)
    fold_elems = span * sum(map(len, lists[1:]))
    return span * 16, fold_elems * _COMPILED_OP, lambda: _rep_dense(lists)


def _plan_support(
    lists: Sequence[Sequence[int]],
    elements: bool,
    first: int,
    queries: Sequence[int] | None = None,
) -> dict[int, Row]:
    """The support kernel's rows for the sets whose ints over one
    denominator are ``lists``, as a ``choose`` table: one per switch point
    s, from k down to 1, each running ``kernels.support_values`` when
    ``elements``, else ``kernels.support_sizes`` of the prefixes from
    ``first`` on, or with ``queries`` (and ``first`` = k)
    ``kernels.support_ranks`` of them, with that switch.  Row s folds the
    first s lists as int sets at ``_BITS_PER_PAIR`` per pair it adds; for
    s < k it then
    converts their sums into a mask at ``_PAIRS_PER_SUM`` pairs each and
    ORs in each later list at one per bit of each shifted copy: the mask
    so far, shifted by the element's offset from the list's least
    (``_WIDE_BIT`` per bit where the new mask spans ``_WIDE_MASK`` bits or
    more).  The size of each such prefix from ``first`` costs one more
    pass over its mask (``int.bit_count``, about as slow as one shift and
    OR), and decoding the elements ``_DECODE_BIT`` per bit of span.  A tie
    goes to the longer fold.

    The partial sumsets are walked as the kernel builds them: each one
    spans the scaled spans added so far and holds at most min(product of
    sizes, span) sums, and at most C(n + m - 1, m) from the m copies of
    each n-element list in it (its m-multisets).  The fold holds two
    sets at once as it builds each one: the one before it (none for the
    first, whose sums are the input) and the new one with its table's
    resize; a row is charged the largest such pair.  Every row s < k
    then holds its last int set (none for s = 1) and ``_HELD_MASKS``
    masks of the whole span at once, each charged at CPython's size of
    an int of that many bits, and is charged the larger of that and its
    fold's pair.  Each int set is charged ``_SET_SUM_BYTES`` per sum.
    Row k is charged at least ``DICT_ENTRY_BYTES`` per sum of the whole,
    for the sorted list that elements and ranks read: at k = 1 that list,
    a copy of the input, is all that the row builds.  Every row adds ``_SUPPORT_ROW_BYTES``, and an answer what its own
    read holds: decoding the elements two bytes per bit of span and one
    output entry per sum, ranks ``_RANK_BYTES`` per query, on every row.
    Ranks are priced as the whole size is, one more pass over the last
    mask (the rank pass reads its bytes in a few times that, small beside
    the ORs that built it).
    """
    span = lists[0][-1] - lists[0][0] + 1
    # Per prefix of j lists: its span, its sum count, the pairs folding
    # it adds and the most sums that two of the fold's sets hold at once;
    # the copies of each list so far, by identity.
    spans, outs, pairs, pair = [span], [len(lists[0])], [0], [0]
    copies = {id(lists[0]): [len(lists[0]), 1]}
    for ints in lists[1:]:
        span += ints[-1] - ints[0]
        copies.setdefault(id(ints), [len(ints), 0])[1] += 1
        multisets = math.prod(math.comb(n + m - 1, m) for n, m in copies.values())
        spans.append(span)
        pairs.append(pairs[-1] + outs[-1] * len(ints))
        outs.append(min(outs[-1] * len(ints), span, multisets))
        pair.append(max(pair[-1], outs[-1] + (outs[-2] if len(outs) > 2 else 0)))
    k, kept = len(lists), outs[-1] * DICT_ENTRY_BYTES

    def run(s: int) -> Callable[[], Any]:
        if elements:
            return lambda: kernels.support_values(lists, s)
        if queries is not None:
            return lambda: kernels.support_ranks(lists, s, queries)
        return lambda: kernels.support_sizes(lists, s, first)

    ranks = 0 if queries is None else len(queries) * _RANK_BYTES
    fold = max(pair[-1] * _SET_SUM_BYTES, kept) + ranks + _SUPPORT_ROW_BYTES
    rows = {k: (fold, _BITS_PER_PAIR * pairs[-1], run(k))}
    read = (2 * span + kept if elements else ranks) + _SUPPORT_ROW_BYTES
    digits = -(-span // sys.int_info.bits_per_digit)
    masks = _HELD_MASKS * digits * sys.int_info.sizeof_digit
    bits = _DECODE_BIT * span if elements else 0
    for s in range(k - 1, 0, -1):
        # The bits of the shifted copies that lists[s] ORs, and of the
        # mask that counts prefix s + 1 when its size is asked for.
        ints = lists[s]
        passed = len(ints) * spans[s - 1] + sum(ints) - len(ints) * ints[0]
        if not elements and s + 1 >= first:
            passed += spans[s]
        bits += passed * (_WIDE_BIT if spans[s] >= _WIDE_MASK else 1)
        # The caller keeps the fold's set through the first ORs.
        held = outs[s - 1] * _SET_SUM_BYTES if s > 1 else 0
        fold = max(pair[s - 1] * _SET_SUM_BYTES, held + masks)
        cost = _BITS_PER_PAIR * (pairs[s - 1] + _PAIRS_PER_SUM * outs[s - 1]) + bits
        rows[s] = (fold + read, cost, run(s))
    return rows


def choose(plans: dict[Any, Row], algo: str, mem_budget: int | None, what: str) -> str:
    """The path a budgeted computation runs, picked from ``plans``, which
    maps each candidate that can run to its row; only the estimate is
    read.

    Under ``"auto"`` the cheapest candidate whose bytes fit the budget
    (default ``DEFAULT_MEMORY_BUDGET``) is returned, ties going to the
    one listed first; otherwise ``algo`` is the only candidate, named
    ``what[algo]`` in an error.  The least estimate is charged first
    (``charge``), so ResourceError is raised, before anything is
    allocated, when no candidate fits.
    """
    if algo != "auto":
        plans, what = {algo: plans[algo]}, f"{what}[{algo}]"
    budget = charge(min(bytes_ for bytes_, *_ in plans.values()), mem_budget, what)
    fits = [name for name, (bytes_, *_) in plans.items() if bytes_ <= budget]
    return min(fits, key=lambda name: plans[name][1])


def check_copies(k: int, lists: int, mem_budget: int | None) -> None:
    """Charge the budget (``charge``), before any is built, for ``lists``
    lists of ``k`` references each held at once, 8 bytes a reference:
    the k copies of one set that a k-fold computation passes down."""
    charge(8 * lists * max(k, 0), mem_budget, f"{k} copies of the set")


# ---------------------------------------------------------------------------
# The three representation algorithms.


# The sparse algorithms return the result's count dict {int: count}, in
# no order; dense returns the range of its values and its count array,
# zeros included.


def _rep_naive(lists: Sequence[Sequence[int]]) -> Counter:
    # Fed in chunks of kernels.CHUNK sums, so that a signal handler (Ctrl-C)
    # runs between them: one Counter call over all the sums would not
    # return to the interpreter until it is done.
    acc: Counter = Counter()
    sums = map(sum, itertools.product(*lists))
    for _ in range(0, math.prod(map(len, lists)), kernels.CHUNK):
        acc.update(itertools.islice(sums, kernels.CHUNK))
    return acc


def _rep_mitm(
    lists: Sequence[Sequence[int]], plan: _MitmNode, classes: bool = False
) -> Any:
    """Run the mitm plan of ``lists`` (``_mitm_tree``) as it stands: the
    result's count dict, or with ``classes`` the (count dict, weight) pairs
    whose weighted sum it is, which a multiset root returns without
    building the result (``kernels.self_sum_classes``)."""
    if plan.halves:
        left, right = plan.halves
        a = _rep_mitm(lists[: left.k], left)
        # A shared half is computed once; the kernel walks the pairs i <= j
        # of any two equal operands.
        b = a if right is left else _rep_mitm(lists[left.k :], right)
        out = kernels.convolve_integer(a, b)
    elif plan.k == 1:
        out = dict.fromkeys(lists[0], 1)
    elif classes:
        return kernels.self_sum_classes(lists[0], plan.k)
    else:
        out = kernels.self_sum_counts(lists[0], plan.k)
    return ((out, 1),) if classes else out


def _rep_dense(lists: Sequence[Sequence[int]]) -> tuple[range, Any]:
    """The fold as ``SparseCounts._result`` keeps it: the range of its
    values and its count array, zeros and width as they stand, whatever
    the width and wherever the values lie.

    A step adds one shifted copy of the counts per value of the next
    set, all non-negative, so the current maximum count times that
    set's size bounds every partial sum and every new count.  The step
    runs in the narrowest of uint8, uint16, uint32 and int64 whose
    maximum is at least that bound, so no add can wrap, and in Python
    ints (``dtype=object``) past int64, where the fold stays.
    """
    import numpy as np

    first = lists[0]
    cur_lo = first[0]
    cur = np.zeros(first[-1] - cur_lo + 1, dtype=np.uint8)
    for a in first:
        cur[a - cur_lo] = 1
    for vals in lists[1:]:
        if cur.dtype != object:
            bound = int(cur.max()) * len(vals)
            widths = ("uint8", "uint16", "uint32", "int64")
            fits = (w for w in widths if np.iinfo(w).max >= bound)
            cur = cur.astype(next(fits, object), copy=False)
        new = np.zeros(cur.shape[0] + (vals[-1] - vals[0]), dtype=cur.dtype)
        for a in vals:
            off = a - vals[0]
            new[off : off + cur.shape[0]] += cur
        # Only cur names the fold, so that the next step's widening frees
        # the array it copies before that step allocates its own.
        cur, cur_lo, new = new, cur_lo + vals[0], None
    return range(cur_lo, cur_lo + cur.shape[0]), cur


def representation(
    sets: Sequence[OrderedSet],
    *,
    signs: Signs = None,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> SparseCounts:
    """Exact representation function of A_1 +/- ... +/- A_k.

    The counts answer of the planned entry (``_planned``): the algorithm
    is picked by ``choose`` from the rows that can run, mitm, then dense,
    so that a tie in cost goes to mitm, and naive only when requested;
    each runs on the sets' ints over their common denominator, rational
    sets included.  Under ``"auto"`` the cheapest that fits the budget is
    taken, else the one requested; its row then runs.  Raises
    ResourceError (before allocating) when none fits.
    """
    return _planned(sets, signs, algo, mem_budget, energy=False)


def _planned(
    sets: Sequence[OrderedSet],
    signs: Signs,
    algo: str,
    mem_budget: int | None,
    energy: bool,
) -> Union[SparseCounts, int]:
    """The one planned entry of :func:`representation` and, with
    ``energy``, :func:`energy_T`.  It validates the sets and ``algo``,
    reads the signed ints once, hands ``choose`` one table (the mitm row
    in its classes form for an energy, ``_plan_mitm``), runs the row
    picked and checks the result's mass against the product of the
    sizes.  A mitm energy is the (mass, sum of squares) that
    ``kernels.class_moments`` reads from the classes; any other row's
    result is built and reduced by :func:`energy_of`.  Under
    ``verification()`` the result is checked by
    ``_verify_representation``, a mitm energy on the counts form of the
    same plan tree, which charges no more bytes than the classes form
    that fit, and any other energy is the sum of squares that check
    read."""
    if not sets:
        raise InputError("need at least one set")
    if algo not in _ALGOS:
        raise InputError(f"unknown algorithm {algo!r}")
    lists, den = _signed_ints(sets, parse_signs(signs, len(sets)))
    plans = {"mitm": _plan_mitm(lists, den, energy), "dense": _plan_dense(lists)}
    if algo == "naive":
        plans["naive"] = _plan_naive(lists)
    name = choose(plans, algo, mem_budget, "representation")
    run = plans[name][2]
    moments = kernels.class_moments(run()) if energy and name == "mitm" else None
    rep = SparseCounts._result(*run(), den) if moments is None else None
    if moments is not None and _verify_ctx.get() is not None:
        rep = SparseCounts._result(run(False), None, den)
    mass, total = moments or (rep.mass, None)
    want = math.prod(map(len, lists))
    if mass != want:
        raise VerificationError(
            f"representation mass {mass} != product of sizes {want}"
        )
    if rep is not None:
        total = _verify_representation(rep, moments)
    if not energy:
        return rep
    return energy_of(rep, sets) if total is None else _checked_energy(total, sets)


# ---------------------------------------------------------------------------
# Energies.


def energy_T(
    sets: Sequence[OrderedSet],
    *,
    signs: Signs = None,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> int:
    """Number of 2k-tuples with equal k-fold sums (exact).

    The energy answer of the planned entry that :func:`representation`
    shares (``_planned``): one table, whose mitm row is the classes form
    of ``_plan_mitm``, and one pick.  Where mitm is picked, its (count
    dict, weight) pairs are reduced by ``kernels.class_moments``, so a
    multiset root never builds r_{kA}; any other row's result is reduced
    by :func:`energy_of`.  Either way the mass is checked, in every run,
    and under ``verification()`` a mitm energy is compared with the
    representation from the counts form of its plan."""
    return _planned(sets, signs, algo, mem_budget, energy=True)


def energy_of(rep: SparseCounts, sets: Sequence[OrderedSet]) -> int:
    """Sum of r(x)**2 over the representation ``rep`` of ``sets`` under
    any signs; checked against the universal bounds when the sets are
    equal."""
    return _checked_energy(mass_of_squares(rep), sets)


def _checked_energy(total: int, sets: Sequence[OrderedSet]) -> int:
    """``total``, the energy of ``sets`` under some signs, checked against
    the universal bounds when the sets are equal."""
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
        ea = energy_T([A, A], algo=algo, mem_budget=mem_budget)
        ec = energy_T([C, C], algo=algo, mem_budget=mem_budget)
        if total * total > ea * ec:
            raise VerificationError("Cauchy-Schwarz cross bound violated")
        stats.cauchy_schwarz_checks += 1
    return total


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


def _support(
    sets: Sequence[OrderedSet],
    eps: tuple[int, ...],
    mem_budget: int | None,
    elements: bool,
    first: int | None = None,
    queries: OrderedSet | None = None,
) -> Union[list[int], OrderedSet, tuple[int, list[int]]]:
    """The support S of A_1 +/- ... +/- A_k from the support kernel, never
    counted: the set when ``elements``; else, with ``queries``, elements
    of S, |S| and the rank in S of each of them; else the size of each
    prefix A_1 +/- ... +/- A_j for j = ``first``..k (default: k alone).
    Each size is checked in verify mode.  Ranks are always checked: those
    of the increasing ``queries`` must strictly increase below |S|.

    ``choose`` picks the switch point, the row of ``_plan_support``: the
    cheapest that fits the budget, the longest fold on a tie.  Raises
    ResourceError (before allocating) when none fits.
    """
    first = len(sets) if first is None else first
    lists, den = _signed_ints(sets, eps)
    if queries is not None and queries.den != den:
        raise InputError("queries must lie over the sets' common denominator")
    ints = None if queries is None else queries.ints
    plans = _plan_support(lists, elements, first, ints)
    out = plans[choose(plans, "auto", mem_budget, "sumset support")][2]()
    if elements:
        _verify_support(len(out), sets)
        return OrderedSet(out, den=den)
    if queries is None:
        for j, size in enumerate(out, first):
            _verify_support(size, sets[:j])
        return out
    size, ranks = out
    _verify_support(size, sets)
    if not all(map(operator.lt, ranks, itertools.chain(ranks[1:], (size,)))):
        raise VerificationError(
            f"ranks of {len(ranks)} sums do not increase below the size {size}"
        )
    return out


def _sumset_signs(sets: Sequence[OrderedSet], signs: Signs) -> tuple[int, ...]:
    """The sign tuple of a signed sumset of ``sets``: at least one set,
    one sign each, the first +1."""
    if not sets:
        raise InputError("need at least one set")
    eps = parse_signs(signs, len(sets))
    if eps[0] != 1:
        raise InputError("sign patterns are normalized to start with +")
    return eps


def signed_sumset(
    sets: Sequence[OrderedSet], signs: Signs, *, mem_budget: int | None = None
) -> OrderedSet:
    """The set {e_1 a_1 + ... + e_k a_k}; first sign must be +1."""
    return _support(sets, _sumset_signs(sets, signs), mem_budget, elements=True)


def sumset_size(
    sets: Sequence[OrderedSet], signs: Signs, *, mem_budget: int | None = None
) -> int:
    """|{e_1 a_1 + ... + e_k a_k}|, as :func:`signed_sumset` checks it,
    from the size-only support path: no element is built."""
    return _support(sets, _sumset_signs(sets, signs), mem_budget, elements=False)[-1]


def sumset_ranks(
    sets: Sequence[OrderedSet],
    signs: Signs,
    queries: OrderedSet,
    *,
    mem_budget: int | None = None,
) -> tuple[int, list[int]]:
    """|S| for S = {e_1 a_1 + ... + e_k a_k} and the rank in S (its
    elements below) of each element of ``queries``, all of which must be
    elements of S over the sets' common denominator, as B is in
    B + B - B.  From the size path: no element of S is built, and the
    ranks are read from its mask (or its fold's set)."""
    eps = _sumset_signs(sets, signs)
    return _support(sets, eps, mem_budget, elements=False, queries=queries)


@dataclass(frozen=True)
class DoublingReport:
    """Size and doubling constant of a patterned self-sumset of B."""

    pattern: str
    size: int
    K: Fraction


def doublings(
    B: OrderedSet, pattern: str, *, mem_budget: int | None = None
) -> list[DoublingReport]:
    """Exact |B +/- B +/- ... +/- B| and K = size / |B| for each prefix of
    the sign string ``pattern`` of length at least 2 (the pattern itself
    when it has one sign), all from one run of the support kernel."""
    return _doublings(B, pattern, mem_budget, 2)


def _doublings(
    B: OrderedSet, pattern: str, mem_budget: int | None, first: int
) -> list[DoublingReport]:
    """The reports of :func:`doublings` for the prefixes of ``pattern``
    from ``first`` signs on, or of the pattern itself when it is shorter."""
    if not pattern:
        raise InputError("pattern must have length >= 1")
    eps = parse_signs(pattern, len(pattern))
    first = min(first, len(eps))
    sizes = _support([B] * len(eps), eps, mem_budget, False, first)
    return [
        DoublingReport(pattern[:j], size, Fraction(size, len(B)))
        for j, size in enumerate(sizes, first)
    ]


def doubling(
    B: OrderedSet, pattern: str, *, mem_budget: int | None = None
) -> DoublingReport:
    """Exact |B +/- B +/- ... +/- B| and K = size / |B| for a sign string:
    the last report of :func:`doublings`, the one size the kernel counts."""
    return _doublings(B, pattern, mem_budget, len(pattern))[0]


@dataclass(frozen=True)
class PopularClass:
    """The dyadic class of differences maximizing |D| * Delta**2."""

    differences: OrderedSet
    delta: int
    score: int


def popular_dyadic_class(
    A: OrderedSet, *, algo: str = "auto", mem_budget: int | None = None
) -> PopularClass:
    """The dyadic class D of r_{A-A} (zero and both signs included) with
    maximal |D| * Delta**2, ties going to the larger Delta, with its
    differences D."""
    diff = representation([A, A], signs=(1, -1), algo=algo, mem_budget=mem_budget)
    delta, _, score = _popular_class(diff, diff.dyadic_classes())
    ints, _ = diff.count_class(delta, 2 * delta)
    return PopularClass(OrderedSet(ints, den=diff.den), delta, score)


def _popular_class(
    diff: SparseCounts, classes: Iterable[tuple[int, int]]
) -> tuple[int, int, int]:
    """(Delta, |D|, |D| * Delta**2) of the popular dyadic class D of
    ``diff`` = r_{A-A}, from ``classes``, its (j, size) bit classes in
    any order: neither sorted nor gathered, and D is not built."""
    # r_{A-A} has mass |A|**2.
    if diff.mass < 4:
        raise InputError("popular class needs at least 2 elements")
    j, size = max(classes, key=lambda js: (js[1] * 4 ** js[0], js[0]))
    return 2**j, size, size * 4**j


@dataclass(frozen=True)
class PopularBound:
    """The popular dyadic class of r_{A-A} and the energy bound it gives,
    E(A) <= energy_bound, which is :func:`popular_bound_factor` of |A|
    times the score."""

    delta: int
    class_size: int
    score: int
    energy_bound: int
    bound_holds: bool


def difference_profile(
    diff: SparseCounts, A: OrderedSet
) -> tuple[int, int, PopularBound]:
    """(E(A), sum of r**3, :class:`PopularBound`) of ``diff`` = r_{A-A},
    all read from one pass over its counts: r_{A-A}(d) <= |A|, so they
    take at most |A| distinct values, and each reduction walks those
    with their multiplicities.  E is checked as :func:`energy_of` checks
    it, and the bound holds when E is at most ``energy_bound``."""
    hist = Counter(diff.unordered_counts())
    e = _checked_energy(sum(c * c * m for c, m in hist.items()), [A, A])
    e3 = sum(c**3 * m for c, m in hist.items())
    classes: Counter = Counter()
    for c, m in hist.items():
        classes[c.bit_length() - 1] += m
    delta, size, score = _popular_class(diff, classes.items())
    bound = popular_bound_factor(len(A)) * score
    return e, e3, PopularBound(delta, size, score, bound, e <= bound)


def popular_bound_factor(n: int) -> int:
    """4 * (floor(log2(2N)) + 1): the class-count factor in the energy
    bound E(A) <= factor * |D| * Delta**2."""
    return 4 * (2 * n).bit_length()


def check_popular_bound(
    A: OrderedSet, *, algo: str = "auto", mem_budget: int | None = None
) -> tuple[int, int, bool]:
    """Return (E(A), bound, E <= bound) for the popular-class bound: the
    E and :class:`PopularBound` that :func:`difference_profile` reads
    from one r_{A-A} in one pass over its counts; no set of differences
    is built."""
    diff = representation([A, A], signs=(1, -1), algo=algo, mem_budget=mem_budget)
    e, _, p = difference_profile(diff, A)
    return e, p.energy_bound, p.bound_holds
