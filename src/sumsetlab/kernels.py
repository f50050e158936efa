"""The exact kernels: sparse convolution and sumset support.

Every kernel works on plain lists of ints.  Its caller signs and scales
each input set once: :func:`common_denominator` is the lcm ``den`` of
all denominators, and :func:`signed_scaled` turns each set into the
increasing list of its values times ``den``, negated where its sign is
-1.  ``den > 0``, so the order is kept; :func:`unscaled` maps each
output x back to ``Fraction(x, den)`` (the int x when ``den == 1``).
No Fraction is added or hashed per pair.

:func:`convolve_integer` is the one convolution loop: a dict
accumulation over pairs of entries, in arbitrary precision, so no value
or count can overflow.  When both operands are equal (compared by
value, so ``[-A, -A]`` qualifies too; a ``Counter`` and its ``values()``
view only as the same objects), only the pairs i <= j are walked:
c_i**2 is added at 2*v_i and 2*c_i*c_j at v_i + v_j off the diagonal.
:func:`convolve_exact` is that loop for sequences of rationals: scale,
convolve, unscale.

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
computes the set A_1 +/- ... +/- A_k without any counts.  It takes one
of two paths, chosen by the caller (``engine._plan_support``):

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
from fractions import Fraction
from itertools import chain, combinations, compress, repeat
from math import factorial, lcm, prod
from operator import itemgetter, mul
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# Signs and denominators, applied once per input set.


def common_denominator(value_lists: Iterable[Sequence]) -> int:
    """The lcm of the denominators of every value (1 for ints)."""
    return lcm(*{x.denominator for x in chain.from_iterable(value_lists)})


def _scaled(values: Sequence, den: int) -> list[int]:
    """``values`` times ``den``, as ints (``den`` must be a common denominator)."""
    return [x.numerator * (den // x.denominator) for x in values]


def signed_scaled(
    value_lists: Sequence[Sequence], signs: Sequence[int], den: int
) -> list[list[int]]:
    """Each set scaled by ``den``, negated where its sign is -1; each
    result is increasing."""
    out = []
    for vals, e in zip(value_lists, signs):
        ints = _scaled(vals, den)
        out.append(ints if e == 1 else [-x for x in reversed(ints)])
    return out


def unscaled(values: list[int], den: int) -> list:
    """Map scaled values back: ``Fraction(x, den)``, or x when ``den == 1``."""
    return values if den == 1 else [Fraction(x, den) for x in values]


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


def convolve_exact(
    av: Sequence,
    ac: Sequence[int],
    bv: Sequence,
    bc: Sequence[int],
) -> tuple[list, list[int]]:
    """:func:`convolve_integer` for values that are ints or Fractions:
    scaled over their common denominator, convolved, and mapped back by
    :func:`unscaled`."""
    den = common_denominator((av, bv))
    values, counts = convolve_integer(_scaled(av, den), ac, _scaled(bv, den), bc)
    return unscaled(values, den), counts


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


def _bitset(lists: list[list[int]]) -> tuple[int, int]:
    """(lo, mask): bit i of ``mask`` is set iff lo + i is a sum."""
    first = lists[0]
    lo = first[0]
    mask = 0
    for a in first:
        mask |= 1 << (a - lo)
    for vals in lists[1:]:
        base = vals[0]
        acc = 0
        for a in vals:
            acc |= mask << (a - base)
        mask, lo = acc, lo + base
    return lo, mask


def _fold(lists: list[list[int]]) -> set[int]:
    """The set of sums, one translate of the partial sumset per element."""
    sums = set(lists[0])
    for vals in lists[1:]:
        sums = {s + v for s in sums for v in vals}
    return sums


def support_size(
    value_lists: Sequence[Sequence],
    signs: Sequence[int],
    den: int,
    bitset: bool,
) -> int:
    """|A_1 +/- ... +/- A_k| for increasing value sequences.

    ``signs`` holds +1/-1 per set; ``den`` is their common denominator
    (:func:`common_denominator`); ``bitset`` picks the path.
    """
    lists = signed_scaled(value_lists, signs, den)
    if bitset:
        return _bitset(lists)[1].bit_count()
    return len(_fold(lists))


def support_values(
    value_lists: Sequence[Sequence],
    signs: Sequence[int],
    den: int,
    bitset: bool,
) -> list:
    """The sorted elements of A_1 +/- ... +/- A_k, as in
    :func:`support_size`; each is ``Fraction(x, den)`` for a scaled sum x,
    or the int x when ``den == 1``."""
    lists = signed_scaled(value_lists, signs, den)
    if bitset:
        lo, mask = _bitset(lists)
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)
        values = list(compress(range(lo, lo + len(digits)), digits))
    else:
        values = sorted(_fold(lists))
    return unscaled(values, den)
