"""Convexity order of sets, gap sequences, and exact function specs.

A sorted set is 0-convex by definition.  It is s-convex when its
consecutive-difference sequence is strictly monotone and itself forms an
(s-1)-convex set; "monotone" means strictly increasing *or* strictly
decreasing throughout.  The central consequence used everywhere else:
if the order is at least 1, the h-spaced differences ``a[i+h] - a[i]``
are pairwise distinct for every h.

Function specs are the exact, monotone maps used to build image sets:
polynomials, integer powers x**m, and integer roots x**(1/m) (the root
is only defined on elements that are exact m-th powers of rationals).
Each kind carries its own evaluation ``at``, text form ``text`` and
polynomial form ``polynomial`` (a root has none and raises Unsupported).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .core import OrderedSet, Scalar, canon, format_element
from .errors import DomainError, InputError, Unsupported
from .intmath import iroot


@dataclass(frozen=True)
class DifferenceSequence:
    """The h-spaced differences of a set, in index order."""

    terms: tuple
    h: int
    all_distinct: bool

    def as_set(self) -> OrderedSet:
        return OrderedSet(sorted(set(self.terms)))


def delta_h(A: OrderedSet, h: int) -> DifferenceSequence:
    """Terms a[i+h] - a[i] for i = 0..N-h-1.  Requires 1 <= h < N."""
    n = len(A)
    if not 1 <= h < n:
        raise InputError(f"h must satisfy 1 <= h < {n}, got {h}")
    terms = tuple(A[i + h] - A[i] for i in range(n - h))
    return DifferenceSequence(terms, h, len(set(terms)) == len(terms))


def _strictly_monotone(seq: Sequence[Scalar]) -> bool:
    """Strictly increasing or strictly decreasing (length >= 2)."""
    inc = all(a < b for a, b in zip(seq, seq[1:]))
    dec = all(a > b for a, b in zip(seq, seq[1:]))
    return inc or dec


@dataclass(frozen=True)
class ConvexityOrder:
    """Result of a convexity scan.

    ``level`` is the highest difference level verified strictly
    monotone.  ``saturated`` marks that the next level was too short to
    check, so the true order is >= level but undecidable on this few
    elements; otherwise the order is exactly ``level``.
    """

    level: int
    saturated: bool = False

    def is_at_least(self, s: int) -> bool:
        return self.level >= s

    def is_exactly(self, s: int) -> bool:
        return not self.saturated and self.level == s

    def __str__(self) -> str:
        return f"saturated({self.level})" if self.saturated else str(self.level)


def convexity_order(A: OrderedSet) -> ConvexityOrder:
    """Largest s with difference levels 1..s all strictly monotone.

    Level j is the consecutive-difference sequence of level j-1 (level 0
    is the set itself).  Checking a level needs at least two terms; if
    the rows shrink below that while every check so far passed, the scan
    is saturated at the last verified level.  The scan reads the stored
    ints: scaling by the positive denominator keeps every level's
    monotonicity.
    """
    row = A.ints
    level = 0
    while True:
        nxt = [b - a for a, b in zip(row, row[1:])]
        if len(nxt) < 2:
            return ConvexityOrder(level, saturated=True)
        if not _strictly_monotone(nxt):
            return ConvexityOrder(level)
        level += 1
        row = nxt


# ---------------------------------------------------------------------------
# Function specs


@dataclass(frozen=True)
class Polynomial:
    """c0 + c1*x + ... + cd*x**d with exact rational coefficients."""

    coefficients: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(canon(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0,)
        object.__setattr__(self, "coefficients", coeffs)

    def at(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return canon(acc)

    def text(self) -> str:
        return "poly:" + ",".join(map(format_element, self.coefficients))

    def polynomial(self) -> Polynomial:
        return self


@dataclass(frozen=True)
class IntegerPower:
    """x -> x**m for a positive integer m."""

    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise InputError("power exponent must be >= 1")

    def at(self, x: Scalar) -> Scalar:
        return canon(x**self.exponent)

    def text(self) -> str:
        return f"pow:{self.exponent}"

    def polynomial(self) -> Polynomial:
        return Polynomial((0,) * self.exponent + (1,))


@dataclass(frozen=True)
class IntegerRoot:
    """x -> x**(1/m); defined only where the root is an exact rational."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise InputError("root index must be >= 1")

    def at(self, x: Scalar) -> Scalar:
        return exact_root(x, self.index)

    def text(self) -> str:
        return f"root:{self.index}"

    def polynomial(self) -> Polynomial:
        raise Unsupported("discrete derivative of a root spec is not polynomial")


FunctionSpec = Union[Polynomial, IntegerPower, IntegerRoot]

IDENTITY = IntegerPower(1)


def exact_root(x: Scalar, m: int) -> Scalar:
    """The exact rational m-th root of x, or DomainError if none exists."""
    x = canon(x)
    if m == 1:
        return x
    num, den = x.numerator, x.denominator
    sign = 1
    if num < 0:
        if m % 2 == 0:
            raise DomainError(f"no real {m}-th root of negative {x}")
        sign, num = -1, -num
    rn = iroot(num, m)
    rd = iroot(den, m)
    if rn**m != num or rd**m != den:
        raise DomainError(f"{x} is not an exact {m}-th power of a rational")
    return canon(Fraction(sign * rn, rd))


def evaluate(f: FunctionSpec, x: Scalar) -> Scalar:
    """Evaluate f at an exact rational point (exactly, or DomainError)."""
    return f.at(canon(x))


def eval_fn(f: FunctionSpec, B: OrderedSet) -> OrderedSet:
    """The image set f(B); requires f exact and strictly monotone on B."""
    image = [evaluate(f, b) for b in B]
    if not _strictly_monotone(image):
        raise DomainError(f"{f.text()} is not strictly monotone on this set")
    if image[0] > image[-1]:
        image.reverse()
    return OrderedSet(image)


def discrete_derivative_fn(f: FunctionSpec, h: Scalar) -> Polynomial:
    """The map x -> f(x+h) - f(x); polynomials drop one degree.

    Integer powers are converted to their polynomial form first; roots
    are rejected (Unsupported), as the result is not expressible here.
    """
    h = canon(h)
    if h == 0:
        raise InputError("shift h must be nonzero")
    poly = f.polynomial()
    return _poly_sub(_compose_shift(poly, h), poly)


def _compose_shift(p: Polynomial, h: Scalar) -> Polynomial:
    """p(x + h), by Horner on polynomial coefficients."""
    acc: list[Scalar] = [0]
    for c in reversed(p.coefficients):
        # acc(x) := acc(x) * (x + h) + c
        nxt: list[Scalar] = [0] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i + 1] += a
            nxt[i] += a * h
        nxt[0] += c
        acc = nxt
    return Polynomial(tuple(acc))


def _poly_sub(p: Polynomial, q: Polynomial) -> Polynomial:
    n = max(len(p.coefficients), len(q.coefficients))
    pc = p.coefficients + (0,) * (n - len(p.coefficients))
    qc = q.coefficients + (0,) * (n - len(q.coefficients))
    return Polynomial(tuple(a - b for a, b in zip(pc, qc)))


# ---------------------------------------------------------------------------
# Textual form used by the CLI: "poly:c0,c1,...,cd", "pow:m", "root:m".


def parse_function(text: str) -> FunctionSpec:
    kind, _, rest = text.partition(":")
    if kind == "poly":
        try:
            coeffs = tuple(
                Fraction(part) for part in rest.split(",") if part.strip()
            )
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad polynomial coefficients in {text!r}") from exc
        if not coeffs:
            raise InputError("polynomial needs at least one coefficient")
        return Polynomial(coeffs)
    if kind == "pow":
        return IntegerPower(_parse_index(rest, text))
    if kind == "root":
        return IntegerRoot(_parse_index(rest, text))
    raise InputError(f"unknown function kind in {text!r}")


def _parse_index(rest: str, text: str) -> int:
    try:
        return int(rest)
    except ValueError as exc:
        raise InputError(f"bad exponent in {text!r}") from exc
