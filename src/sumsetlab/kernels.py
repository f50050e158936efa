"""The exact kernels: sparse convolution and sumset support.

Every kernel works on plain sequences of ints: the ints of
``OrderedSet`` and ``SparseCounts`` over one common denominator
(``core.common_ints``), negated and reversed where a set's sign is -1.
Scaling by a positive denominator keeps the order, so a kernel's
output ints are the scaled results; its caller hands them, with that
denominator, straight to one container.

:func:`convolve_integer` is the one convolution loop: a dict
accumulation over pairs of entries, in arbitrary precision, so no value
or count can overflow.  When both operands are equal (compared by
value, so ``[-A, -A]`` qualifies too; a ``Counter`` and its ``values()``
view only as the same objects), only the pairs i <= j are walked:
c_i**2 is added at 2*v_i and 2*c_i*c_j at v_i + v_j off the diagonal.

:func:`self_sum_counts` is r_{jA} of one list A without any convolution.
Every j-multiset of A is r distinct elements taken m_1, ..., m_r times,
for a composition m of j, and stands for j!/(m_1! ... m_r!) ordered
tuples; there are C(|A|+j-1, j) multisets.  The j-subsets (all m_i = 1,
most of the multisets once |A| is well above j) are one builtin
``Counter`` over ``itertools.combinations(A, j)``, weighted by j! in
place.  Every other composition streams the sums over
``itertools.combinations(A, r)`` into it, one dict update each (an
``itemgetter`` repeats each element m_i times before the ``sum``).  The
result is that accumulator, in no order: callers sort it only when they
read it in order.

The support kernel (:func:`support_size`, :func:`support_values`)
computes the set A_1 + ... + A_k of signed lists without any counts.
It takes one of two paths, chosen by the caller (``engine._plan_support``):

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
from itertools import combinations, compress, repeat
from math import factorial, prod
from operator import itemgetter, mul
from typing import Sequence


# ---------------------------------------------------------------------------
# Sparse convolution.


def convolve_integer(
    av: Sequence[int],
    ac: Sequence[int],
    bv: Sequence[int],
    bc: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Convolve two sparse count sequences of integer values.

    ``av``/``bv`` are the values, ``ac``/``bc`` their counts.
    Returns the sorted output values and their counts: the entry at x is
    the sum of ``ac[i] * bc[j]`` over ``av[i] + bv[j] == x``.
    """
    acc: dict = {}
    if av == bv and ac == bc:
        # Each unordered pair once: entry i meets the entries before it
        # (twice the product), then itself (the square).
        seen: list = []
        for v, c in zip(av, ac):
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
        for v, c in zip(av, ac):
            for w, d in zip(bv, bc):
                key = v + w
                if key in acc:
                    acc[key] += c * d
                else:
                    acc[key] = c * d
    values = sorted(acc)
    return values, list(map(acc.__getitem__, values))


def self_sum_counts(values: Sequence[int], j: int) -> Counter:
    """r_{jA} of the distinct ints A = ``values``, j >= 1: the count at x
    is the number of ordered j-tuples of A summing to x.  The Counter is
    returned in no particular order.
    """
    # The compositions with j parts are all ones: the j-subsets, each
    # j! tuples.  They are the accumulator, weighted in place (setting a
    # key already present never resizes, so iterating meanwhile is safe).
    acc = Counter(map(sum, combinations(values, j)))
    dict.update(acc, zip(acc, map(mul, acc.values(), repeat(factorial(j)))))
    # Every other composition repeats some element; its sums stream into
    # the accumulator one by one, so no second dict is built.
    get = acc.get
    for r in range(1, min(j, len(values) + 1)):
        for cuts in combinations(range(1, j), r - 1):
            parts = [b - a for a, b in zip((0, *cuts), (*cuts, j))]
            weight = factorial(j) // prod(map(factorial, parts))
            picks = itemgetter(*[i for i, m in enumerate(parts) for _ in range(m)])
            for x in map(sum, map(picks, combinations(values, r))):
                acc[x] = get(x, 0) + weight
    return acc


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
