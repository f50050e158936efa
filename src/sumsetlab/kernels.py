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
tuple, which is set directly.  Every other composition is merged into
one accumulator, a ``Counter``, in one ``dict.update`` over its sums
paired with their new counts (``itertools.tee``), each key read just
before it is set.  The result is that accumulator.

The support kernel (:func:`support_size`, :func:`support_values`)
computes the set A_1 + ... + A_k of signed lists without any counts.
It takes one of two paths, named by its ``bitset`` argument: each is one
row of ``engine._plan_support``, and the row that ``engine.choose``
picks makes the call.

* Bitset.  Each partial sumset is one big int whose bit i stands for
  the value lo + i; adding a set ORs the mask shifted by each element.
  The size is ``int.bit_count``; the elements are decoded in one pass
  over the binary digits.  Time and memory grow with the scaled span.
* Int-set fold.  Each partial sumset is a set of ints; adding a set
  unions its translates.  Time grows with the number of pairs.

(The ``dense`` algorithm of ``engine`` folds whole sets over a count
array instead and does not convolve sparse counts.)
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, compress, repeat, tee
from math import comb
from operator import add, mul
from typing import Iterator, Sequence


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


class _Compositions:
    """The depth-first walk of :func:`self_sum_counts` over the
    compositions of j, each merged into ``acc``.  It recurses through
    ``self``, not through a closure that refers to itself, so that no
    reference cycle holds ``acc`` once the caller drops it."""

    def __init__(self, values: Sequence[int], j: int) -> None:
        self.values, self.j, self.n = values, j, len(values)
        self.backwards = values[::-1]
        # The sums of c parts are kept while they number at most an eighth
        # of the entries the result can hold: its multisets, or the span
        # of jA.
        span = j * (values[-1] - values[0]) + 1
        self.keep = min(comb(self.n + j - 1, j), span) // 8
        self.acc: Counter = Counter()

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
            self.acc[x] = self.acc.get(x, 0) + weight * comb(self.j, rest)
            return
        deeper = not head and comb(self.n, c + 1) <= self.keep
        # With one index left for the parts still to place, the next is
        # the last: m = rest.
        for m in range(rest if room == 1 else 1, rest + 1):
            w = weight * comb(s + m, m)
            if m == rest:
                # One dict.update merges the composition: each key is read
                # just before it is set, so a sum that repeats within it
                # is counted each time.
                keys, again = tee(self.ahead((m, *head), tail, c))
                get = self.acc.get
                dict.update(self.acc, zip(keys, map(add, map(get, again, repeat(0)), repeat(w))))
            elif not deeper:
                self.place(tail, c, (m, *head), s + m, w)
            else:
                self.place(list(self.ahead((m,), tail, c)), c + 1, (), s + m, w)


# ---------------------------------------------------------------------------
# Sumset support: the set of sums, never its counts.

# bytes.translate table turning binary digits into 0/1 bytes, so that a
# digit string can drive itertools.compress.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bitset(lists: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(lo, mask): bit i of ``mask`` is set iff lo + i is a sum."""
    lo, mask = 0, 1  # the sumset of no sets: {0}
    for vals in lists:
        base = vals[0]
        acc = 0
        for a in vals:
            acc |= mask << (a - base)
        mask, lo = acc, lo + base
    return lo, mask


def _fold(lists: Sequence[Sequence[int]]) -> set[int]:
    """The set of sums, one translate of the partial sumset per element."""
    sums = set(lists[0])
    for vals in lists[1:]:
        sums = {s + v for s in sums for v in vals}
    return sums


def support_size(lists: Sequence[Sequence[int]], bitset: bool) -> int:
    """|A_1 + ... + A_k| for the increasing int sequences ``lists``;
    ``bitset`` picks the path."""
    if bitset:
        return _bitset(lists)[1].bit_count()
    return len(_fold(lists))


def support_values(lists: Sequence[Sequence[int]], bitset: bool) -> list[int]:
    """The sorted elements of A_1 + ... + A_k, as in :func:`support_size`."""
    if bitset:
        lo, mask = _bitset(lists)
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)
        return list(compress(range(lo, lo + len(digits)), digits))
    return sorted(_fold(lists))
