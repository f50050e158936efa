"""The exact kernels: sparse convolution and sumset support.

Every convolution of two representation functions (``core.convolve``)
runs through one integer loop: a dict accumulation over pairs of
entries, in arbitrary precision, so no value or count can overflow.
Two rules cut the work per exact count:

* Self-convolution.  When both operands are equal (compared by value,
  so ``[-A, -A]`` qualifies too), only the pairs i <= j are walked:
  c_i**2 is added at 2*v_i and 2*c_i*c_j at v_i + v_j off the diagonal.
* Rationals.  :func:`convolve_exact` scales every value to an integer
  over one common denominator ``den`` (the lcm of all denominators),
  runs the integer loop and maps each output x back to
  ``Fraction(x, den)``.  ``den > 0``, so the order is kept; no Fraction
  is added or hashed per pair.

The support kernel (:func:`support_size`, :func:`support_values`)
computes the set A_1 +/- ... +/- A_k without any counts, after the same
scaling to integers over ``den``.  It takes one of two paths, chosen by
the caller (``engine._plan_support``):

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

from fractions import Fraction
from itertools import chain, compress
from math import lcm
from typing import Iterable, Sequence


def _convolve_ints(
    av: Sequence[int],
    ac: Sequence[int],
    bv: Sequence[int],
    bc: Sequence[int],
) -> tuple[list[int], list[int]]:
    """The integer loop behind both entry points."""
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


def common_denominator(value_lists: Iterable[Sequence]) -> int:
    """The lcm of the denominators of every value (1 for ints)."""
    return lcm(*{x.denominator for x in chain.from_iterable(value_lists)})


def _scaled(values: Sequence, den: int) -> list[int]:
    """``values`` times ``den``, as ints (``den`` must be a common denominator)."""
    return [x.numerator * (den // x.denominator) for x in values]


def _unscaled(values: list[int], den: int) -> list:
    return values if den == 1 else [Fraction(x, den) for x in values]


def convolve_exact(
    av: Sequence,
    ac: Sequence[int],
    bv: Sequence,
    bc: Sequence[int],
) -> tuple[list, list[int]]:
    """Convolve two sparse count sequences exactly.

    ``av``/``bv`` are the values (ints or Fractions), ``ac``/``bc`` their
    counts.  Returns the sorted output values and their counts: the
    entry at x is the sum of ``ac[i] * bc[j]`` over ``av[i] + bv[j] == x``.

    The values are scaled to integers over the lcm ``den`` of their
    denominators and convolved by the integer loop (over i <= j when both
    operands are equal); each output x is returned as ``Fraction(x, den)``,
    or as the int x when ``den == 1``.
    """
    den = common_denominator((av, bv))
    values, counts = _convolve_ints(_scaled(av, den), ac, _scaled(bv, den), bc)
    return _unscaled(values, den), counts


def convolve_integer(
    av: Sequence[int],
    ac: Sequence[int],
    bv: Sequence[int],
    bc: Sequence[int],
) -> tuple[list[int], list[int]]:
    """:func:`convolve_exact` for integer-valued inputs.

    A separate entry point so that per-layer traces (``e2ebench``) count
    integer kernel work apart from the rational path of ``core.convolve``.
    """
    return _convolve_ints(av, ac, bv, bc)


# ---------------------------------------------------------------------------
# Sumset support: the set of sums, never its counts.

# bytes.translate table turning binary digits into 0/1 bytes, so that a
# digit string can drive itertools.compress.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _signed_scaled(
    value_lists: Sequence[Sequence], signs: Sequence[int], den: int
) -> list[list[int]]:
    """Each set scaled by ``den``, negated where its sign is -1; each
    result is increasing."""
    out = []
    for vals, e in zip(value_lists, signs):
        ints = _scaled(vals, den)
        out.append(ints if e == 1 else [-x for x in reversed(ints)])
    return out


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
    lists = _signed_scaled(value_lists, signs, den)
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
    lists = _signed_scaled(value_lists, signs, den)
    if bitset:
        lo, mask = _bitset(lists)
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)
        values = list(compress(range(lo, lo + len(digits)), digits))
    else:
        values = sorted(_fold(lists))
    return _unscaled(values, den)
