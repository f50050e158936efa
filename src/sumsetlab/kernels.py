"""The exact sparse convolution kernel.

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

(The ``dense`` algorithm of ``engine`` folds whole sets over a count
array instead and does not convolve sparse counts.)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Sequence


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
    den = lcm(*{x.denominator for x in chain(av, bv)})
    sa = [x.numerator * (den // x.denominator) for x in av]
    sb = [x.numerator * (den // x.denominator) for x in bv]
    values, counts = _convolve_ints(sa, ac, sb, bc)
    if den == 1:
        return values, counts
    return [Fraction(x, den) for x in values], counts


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
