"""The exact kernels: sparse convolution and sumset support.

Every kernel works on the ints of ``OrderedSet`` and ``SparseCounts``
over one common denominator (``core.common_ints``), negated and
reversed where a set's sign is -1.  Scaling by a positive denominator
keeps the order, so a kernel's output ints are the scaled results; its
caller hands them, with that denominator, straight to one container.
The sparse kernels take and return count dicts {int: count} in no
order: ``SparseCounts`` keeps such a dict and sorts it only when a
caller reads it in order.

:func:`convolve_integer` is the one convolution loop: a dict
accumulation over pairs of entries, in arbitrary precision, so no value
or count can overflow.  When both operands are equal (compared by
value, so the two halves of ``[A, -A, -A, A]`` qualify though they are
computed apart), only the pairs i <= j are walked: c_i**2 is added at
2*v_i and 2*c_i*c_j at v_i + v_j off the diagonal.

:func:`self_sum_counts` is r_{jA} of one list A without any convolution.
Every j-multiset of A is r distinct elements taken m_1, ..., m_r times,
for a composition m of j, and stands for the multinomial j!/(m_1! ...
m_r!) of ordered tuples, the product of the binomials C(m_t + ... + m_r,
m_t), so no factorial is computed; there are C(|A|+j-1, j) multisets.
The compositions are walked depth first from their last part.  The sums
of the parts placed so far, over their increasing index tuples, are kept
in one list whose least index falls, so that those past an index p are
a prefix of it.  The next part m goes on each p before that prefix: one
add of m*A[p] per sum, streamed by ``map`` and ``chain`` with no Python
bytecode per sum.  A list is kept only while it holds at most an eighth
of the entries the result can hold (its multisets, or the span of jA
where that is smaller), so that the kept lists stay a small share of
the bytes the plan charges for the result; past that, the remaining
parts of each composition are summed whole on their index tuples, and
each such sum is added to the kept list's prefix past its last index.
Where all of A is used, the last part lies on index 0 and meets one
tuple, whose one sum is merged alone.  Every composition is merged into
one accumulator, a ``Counter``, by ``dict.update`` over its sums paired
with their new counts (``itertools.tee``), each key read just before it
is set.  The result is that accumulator.  A merge of more than
``CHUNK`` sums is fed in ``islice`` chunks of that many, as ``engine``'s
naive enumeration is, so that a signal handler (Ctrl-C) runs between two
C-level calls however large the composition; a smaller one skips
``islice``, which costs a step per sum.

:func:`self_sum_classes` is the same walk for an energy, which never
needs r_{jA} itself.  Only the j ones weigh j!, and only one 2 with the
rest ones weighs j!/2: the sums of each of those two compositions are
counted by unit into a ``Counter`` of their own through
``Counter.update`` (counting in C, in the same chunks) where they hold
at least twice the multisets of the compositions merged with weights
(:func:`class_multisets`), and every other composition is merged with
its weight into the accumulator.
:func:`class_moments` reduces such (count dict, weight) pairs: the mass
and the sum of squares of their weighted sum, from each dict's sum and
squares and the dot product of each pair over their shared keys, so its
cost is linear in their entries.  Each dict's counts are sorted once in
C and read as runs of equal counts, as the unit classes take few values
with nearly every count 1: each of the first four runs, found by one
``bisect_right``, adds its count and its square times its length, and
whatever lies past them is summed one count at a time.

The support kernel (:func:`support_sizes`, :func:`support_values`,
:func:`support_ranks`) computes the set S = A_1 + ... + A_k of signed
lists without any counts, the sizes of the prefixes A_1 + ... + A_j from
a given j on, or |S| and the rank in S of each of some increasing ints.
It has one path with a switch point s, 1 <= s <= k: each value of s is
one row of ``engine._plan_support``, and the row that ``engine.choose``
picks makes the call.

* The first s lists are folded as int sets: each partial sumset is a set
  of ints, and adding a list unions its translates.  Time grows with the
  number of pairs.
* For s < k, the partial sumset is then turned into one big int, once:
  bit i stands for the value lo + i, set through a ``bytearray`` of flag
  bits and ``int.from_bytes``.  Each later list ORs in the mask shifted
  by each of its elements.  Time and memory grow with the scaled span.

s = k is the fold throughout, and s = 1 the bitset throughout.  A
prefix size is the length of the set or the mask's ``int.bit_count``,
which costs as much as a shift and OR, so only the prefixes asked for
are counted; the elements are the sorted set, or decoded in one pass
over the mask's binary digits.  Ranks never decode S: they bisect the
sorted set, or read the mask's bytes (``int.to_bytes``) in one pass, a
popcount of the segment between two queries each.  On a 10**7-bit mask
with 2,000 queries that pass took 4.7 ms, against 0.6 ms for its
``int.bit_count``, 236 ms to decode and bisect, and 1.16 s for one AND
and ``bit_count`` per query (best of 3, 2-core Xeon, Python 3.11).

(The ``dense`` algorithm of ``engine`` folds whole sets over a count
array instead and does not convolve sparse counts.)
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain, combinations, compress, islice, repeat, tee
from math import comb, factorial
from operator import add, mul
from typing import Any, Iterable, Iterator, Sequence

# The sums that one C-level merge or count takes between two returns to the
# interpreter, so that a signal handler (Ctrl-C) runs between them.
CHUNK = 10**5


# ---------------------------------------------------------------------------
# Sparse convolution.


def convolve_integer(a: dict, b: dict) -> dict:
    """Convolve two sparse count dicts {value: count} of integer values.

    Returns the dict, in no order, whose count at x is the sum of
    ``a[v] * b[w]`` over ``v + w == x``.
    """
    acc: dict = {}
    if a == b:
        # Each unordered pair once: entry i meets the entries before it
        # (twice the product), then itself (the square).
        seen: list = []
        for v, c in a.items():
            c2 = c + c
            for w, d in seen:
                key = v + w
                if key in acc:
                    acc[key] += c2 * d
                else:
                    acc[key] = c2 * d
            key = v + v
            if key in acc:
                acc[key] += c * c
            else:
                acc[key] = c * c
            seen.append((v, c))
    else:
        for v, c in a.items():
            for w, d in b.items():
                key = v + w
                if key in acc:
                    acc[key] += c * d
                else:
                    acc[key] = c * d
    return acc


def self_sum_counts(values: Sequence[int], j: int) -> Counter:
    """r_{jA} of the distinct ints A = ``values``, |A| >= 1 and j >= 1: the
    count at x is the number of ordered j-tuples of A summing to x.  The
    Counter is returned in no particular order.
    """
    walk = _Compositions(values, j)
    walk.place([0], 0, (), 0, 1)
    return walk.acc


def self_sum_classes(values: Sequence[int], j: int) -> tuple[tuple[dict, int], ...]:
    """r_{jA} of the distinct ints A = ``values``, |A| >= 1 and j >= 2, as
    the (count dict, weight) pairs whose weighted sum it is, never summed,
    one per entry of :func:`class_multisets`: the sums of the j-subsets of
    A (weight j!) and of the j-multisets with one element twice and the
    rest once (weight j!/2), each counted once, where that class is kept
    apart; then the weighted counts of every other composition, with
    weight 1.  :func:`class_moments` reduces them."""
    *apart, _ = class_multisets(len(values), j)
    walk = _Compositions(values, j, [w for w, _ in apart])
    walk.place([0], 0, (), 0, 1)
    return (*((c, w) for w, c in walk.counted.items()), (walk.acc, 1))


def class_multisets(n: int, j: int) -> list[tuple[int, int]]:
    """(weight, multisets) of each dict of :func:`self_sum_classes` for n
    elements, in its order: the multisets with one element twice (j!/2)
    and the j-subsets (j!), each where it is kept apart, then the rest,
    merged with their weights (listed as weight 1).  A class is kept
    apart, in that order, only where it holds at least twice the
    multisets merged so far: its dot product with the merged dict then
    walks the merged entries, which counting it by unit more than pays
    for, while a smaller class costs more there, in probes of the larger
    dict, than it saves."""
    unit = factorial(j)
    units, halves = comb(n, j), n * comb(n - 1, j - 2)
    merged, apart = comb(n + j - 1, j) - units - halves, []
    for w, m in ((unit // 2, halves), (unit, units)):
        if m >= 2 * merged:
            apart.append((w, m))
        else:
            merged += m
    return [*apart, (1, merged)]


class _Compositions:
    """The depth-first walk of :func:`self_sum_counts` over the
    compositions of j, each merged into ``acc``, except that those of a
    weight in ``counted`` are counted by unit into that weight's
    ``Counter`` through ``Counter.update``, which counts in C.  It recurses
    through ``self``, not through a closure that refers to itself, so that
    no reference cycle holds ``acc`` once the caller drops it."""

    def __init__(
        self, values: Sequence[int], j: int, counted: Sequence[int] = ()
    ) -> None:
        self.values, self.j, self.n = values, j, len(values)
        self.backwards = values[::-1]
        # The sums of c parts are kept while they number at most an eighth
        # of the entries the result can hold: its multisets, or the span
        # of jA.
        span = j * (values[-1] - values[0]) + 1
        self.keep = min(comb(self.n + j - 1, j), span) // 8
        self.acc: Counter = Counter()
        self.counted = {w: Counter() for w in counted}

    def ahead(self, head: Sequence[int], tail: list, c: int) -> Iterator[int]:
        """The sums of the parts ``head`` on each increasing index tuple,
        each before every tuple of ``tail`` past it: one add per sum."""
        n, h = self.n, len(head)
        pasts = map(tail.__getitem__, map(slice, map(comb, range(c, n - h + 1), repeat(c))))
        if h == 1:
            firsts = map(mul, self.backwards[c:], repeat(head[0]))
        else:
            # Taken largest index first, so that the comb(i, h - 1) head
            # tuples ending at i come together, for i from n - 1 - c down.
            picks = combinations(self.backwards[c:], h)
            firsts = map(sum, map(map, repeat(mul), picks, repeat(head[::-1])))
            groups = map(comb, range(n - 1 - c, h - 2, -1), repeat(h - 1))
            pasts = chain.from_iterable(map(repeat, pasts, groups))
        return chain.from_iterable(map(map, repeat(add), map(repeat, firsts), pasts))

    def merge(self, sums: Iterable[int], size: int, w: int) -> None:
        """Add ``w`` at each of the ``size`` sums of one composition, or 1
        in the Counter of ``w`` if it is counted, at most ``CHUNK`` sums a
        call.  In ``acc`` each key is read just before it is set, so a sum
        that repeats within the composition is counted each time."""
        counter = self.counted.get(w) if self.counted else None
        if counter is not None:
            sums = iter(sums)
            for _ in range(0, size, CHUNK):
                counter.update(islice(sums, CHUNK) if size > CHUNK else sums)
            return
        keys, again = tee(sums)
        pairs = zip(keys, map(add, map(self.acc.get, again, repeat(0)), repeat(w)))
        for _ in range(0, size, CHUNK):
            dict.update(self.acc, islice(pairs, CHUNK) if size > CHUNK else pairs)

    def place(self, tail: list, c: int, head: tuple, s: int, weight: int) -> None:
        """Merge every composition of j that ends in the parts placed so
        far, which total s.  The last c of them are summed in ``tail`` over
        the increasing index c-tuples, least index descending, so that
        those whose least index is above p are the first comb(n - 1 - p,
        c); the parts ``head`` before them are not summed yet.  ``weight``
        is the multinomial of all of them."""
        rest, room = self.j - s, self.n - c - len(head)
        if room == 1 and not head:
            # The last part can go only on index 0, before (1, ..., n - 1).
            x = rest * self.values[0] + tail[0]
            self.merge((x,), 1, weight * comb(self.j, rest))
            return
        deeper = not head and comb(self.n, c + 1) <= self.keep
        # With one index left for the parts still to place, the next is
        # the last: m = rest.
        for m in range(rest if room == 1 else 1, rest + 1):
            w = weight * comb(s + m, m)
            if m == rest:
                # One sum per increasing index tuple of its c + |head| + 1
                # parts.
                size = comb(self.n, c + len(head) + 1)
                self.merge(self.ahead((m, *head), tail, c), size, w)
            elif not deeper:
                self.place(tail, c, (m, *head), s + m, w)
            else:
                self.place(list(self.ahead((m,), tail, c)), c + 1, (), s + m, w)


# _count_moments bisects at most _RUNS runs of equal counts.
_RUNS = 4


def _count_moments(counts: Iterable[int]) -> tuple[int, int]:
    """(sum, sum of squares) of ``counts``: sorted once, each of the first
    ``_RUNS`` runs of equal counts c, of length m, adds c * m and
    c * c * m, and what is left past those runs is summed one count at a
    time."""
    ordered = sorted(counts)
    total = square = i = 0
    for _ in range(_RUNS):
        if i == len(ordered):
            break
        c = ordered[i]
        j = bisect_right(ordered, c, i)
        total += c * (j - i)
        square += c * c * (j - i)
        i = j
    del ordered[:i]
    return total + sum(ordered), square + sum(map(mul, ordered, ordered))


def class_moments(classes: Sequence[tuple[dict, int]]) -> tuple[int, int]:
    """(mass, sum of squares) of the count dict that is the sum of w * d
    over the (count dict d, weight w) pairs ``classes``, without building
    it: each dict's sum and squares of counts (:func:`_count_moments`, by
    runs of equal counts after one sort), and the dot product of each
    pair of dicts over the keys they share, which the key views'
    intersection finds by walking the smaller dict.  The mass is summed
    from the counts, so the caller's mass check reads them."""
    mass = squares = 0
    for i, (d, w) in enumerate(classes):
        total, square = _count_moments(d.values())
        mass += w * total
        squares += w * w * square
        for e, v in classes[:i]:
            shared = d.keys() & e.keys()
            dot = sum(map(mul, map(d.__getitem__, shared), map(e.__getitem__, shared)))
            squares += 2 * w * v * dot
    return mass, squares


# ---------------------------------------------------------------------------
# Sumset support: the set of sums, never its counts.

# bytes.translate table turning binary digits into 0/1 bytes, so that a
# digit string can drive itertools.compress.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
# Bit j of a byte, looked up faster than shifted.
_BIT = tuple(1 << j for j in range(8))


def _partial_sums(lists: Sequence[Sequence[int]], switch: int) -> Iterator[Any]:
    """Each partial sumset A_1 + ... + A_j, j = 1..k, as it is built: a
    collection of its ints for j <= ``switch``, else (lo, mask), bit i of
    ``mask`` set iff lo + i is a sum.

    The first ``switch`` lists are folded as int sets; their sums then
    become one mask, through one flag bit each in a ``bytearray``, and
    every later list ORs in the mask shifted by each of its elements.
    """
    sums = lists[0]
    yield sums
    for vals in lists[1:switch]:
        sums = {s + v for s in sums for v in vals}
        yield sums
    if switch == len(lists):
        return
    # The least and greatest sums are the sums of the lists' ends.
    lo = sum(vals[0] for vals in lists[:switch])
    flags = bytearray((sum(vals[-1] for vals in lists[:switch]) - lo) // 8 + 1)
    for x in sums:
        i = x - lo
        flags[i >> 3] |= _BIT[i & 7]
    mask = int.from_bytes(flags, "little")
    del sums, flags  # the set goes once the caller leaves it too
    for vals in lists[switch:]:
        base = vals[0]
        acc = 0
        for a in vals:
            acc |= mask << (a - base)
        mask, lo = acc, lo + base
        yield lo, mask


def support_sizes(lists: Sequence[Sequence[int]], switch: int, first: int) -> list[int]:
    """|A_1 + ... + A_j| for j = first..k, the increasing int sequences
    ``lists`` folded as int sets through the first ``switch``, 1 <= switch
    <= k, and as a bitset past them: the length of a set, or one
    ``int.bit_count`` of a mask, which costs as much as a shift and OR and
    so is taken only from ``first`` on."""
    return [
        len(sums) if j <= switch else sums[1].bit_count()
        for j, sums in enumerate(_partial_sums(lists, switch), 1)
        if j >= first
    ]


def support_ranks(
    lists: Sequence[Sequence[int]], switch: int, queries: Sequence[int]
) -> tuple[int, list[int]]:
    """|S| for S = A_1 + ... + A_k, built as in :func:`support_sizes`, and
    the rank in S of each of the increasing ints ``queries``: the number
    of elements of S below it.  S is never decoded.  The fold's set is
    sorted and each query bisected; a mask is read in one pass over its
    bytes, each query counting the bytes since the one before it (one
    ``int.from_bytes`` of their segment and its ``bit_count``) and the
    bits below it in its own byte."""
    for sums in _partial_sums(lists, switch):
        pass
    if switch == len(lists):
        ordered = sorted(sums)
        return len(ordered), [bisect_left(ordered, q) for q in queries]
    lo, mask = sums
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    del sums, mask  # the bytes alone are read from here on
    end = 8 * len(data)
    ranks, count, done = [], 0, 0  # count: the set bits of data[:done]
    for q in queries:
        i = min(max(q - lo, 0), end)
        byte = i >> 3
        if byte > done:
            count += int.from_bytes(data[done:byte], "little").bit_count()
            done = byte
        below = data[byte] & ((1 << (i & 7)) - 1) if byte < len(data) else 0
        ranks.append(count + below.bit_count())
    return count + int.from_bytes(data[done:], "little").bit_count(), ranks


def support_values(lists: Sequence[Sequence[int]], switch: int) -> list[int]:
    """The sorted elements of A_1 + ... + A_k, built as in
    :func:`support_sizes`."""
    for sums in _partial_sums(lists, switch):
        pass
    if switch == len(lists):
        return sorted(sums)
    lo, mask = sums
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)
    return list(compress(range(lo, lo + len(digits)), digits))
