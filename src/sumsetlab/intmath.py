"""Exact integer root helpers (no floating point anywhere)."""

from __future__ import annotations


def ceil_div(a: int, b: int) -> int:
    """Smallest integer >= a / b, for b > 0."""
    return -((-a) // b)


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by integer Newton iteration."""
    if n < 0:
        raise ValueError("iroot of a negative number")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)  # upper start, converges down
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def ceil_root(n: int, k: int) -> int:
    """Smallest integer m with m**k >= n (n >= 0)."""
    r = iroot(n, k)
    return r if r**k >= n else r + 1
