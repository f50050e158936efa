"""The exact sparse convolution kernel.

Every convolution of two representation functions (``core.convolve``)
runs through :func:`convolve_exact`: a dict accumulation over all pairs
of entries, in arbitrary precision, so no value or count can overflow.
(The ``dense`` algorithm of ``engine`` folds whole sets over a count
array instead and does not convolve sparse counts.)
"""

from __future__ import annotations

from typing import Sequence


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
    """
    acc: dict = {}
    for v, c in zip(av, ac):
        for w, d in zip(bv, bc):
            key = v + w
            if key in acc:
                acc[key] += c * d
            else:
                acc[key] = c * d
    values = sorted(acc)
    return values, list(map(acc.__getitem__, values))


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
    return convolve_exact(av, ac, bv, bc)
