"""Exact scalar arithmetic and the canonical containers.

Every element is an exact rational.  The scalar type is
:class:`fractions.Fraction` (re-exported as ``Rational``); integral
values are canonicalised to plain ``int`` so that the integer fast
paths can recognise them cheaply.  ``Fraction`` and ``int`` hash and
compare consistently, so the two may be mixed freely inside a
container.

Containers:

* :class:`OrderedSet` -- a strictly increasing tuple of rationals.
* :class:`SparseCounts` -- a sorted association value -> multiplicity,
  the representation-function type.  Convolution of two
  ``SparseCounts`` realises the additivity of representation counts:
  ``r_{A+B}(x) = sum_y r_A(y) * r_B(x - y)``.

A ``SparseCounts`` built from two numpy int64 arrays (the dense fold of
``engine.representation`` hands over its values and counts this way)
keeps private copies of the arrays and builds its ``values``/``counts``
tuples only when one is read.  Only this class and
:func:`mass_of_squares` read the count array:
``SparseCounts.dyadic_classes`` by integer comparisons against the
powers of two, the sum of squares by an int64 dot product only while
``max(c) * mass < 2**63``, which bounds every partial sum, and a Python
int sum otherwise.  numpy is imported only in the array branch of
``dyadic_classes``, which nothing but a numpy array reaches.
"""

from __future__ import annotations

import errno
import operator
import os
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import islice, repeat
from typing import Iterable, Iterator, Sequence, TextIO, Union

from . import kernels
from .errors import InputError

Rational = Fraction
Scalar = Union[int, Fraction]

#: Default memory budget in bytes (4 GiB); used when a caller passes none.
DEFAULT_MEMORY_BUDGET = 2**32

# Rough per-entry cost of a Python dict holding scalar keys and counts,
# used only for pre-allocation estimates.
DICT_ENTRY_BYTES = 120


def _is_int64_vector(x) -> bool:
    """True for a 1-d numpy int64 array, found without importing numpy."""
    return getattr(x, "dtype", None) == "int64" and x.ndim == 1


def canon(x: Scalar) -> Scalar:
    """Collapse integral Fractions to int; reject non-rational input."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise InputError(f"not an exact rational: {x!r}")


def _increasing_canon(values: Iterable[Scalar], what: str) -> tuple[tuple, bool]:
    """Canonicalise ``values`` and check they strictly increase.

    Returns the values as a tuple and whether all of them are integers.
    Each step is one builtin pass over the tuple.  ``canon`` leaves a
    plain ``int`` unchanged, so it is mapped only when some value has
    another type (Fraction, bool, or something to reject).
    """
    vals = tuple(values)
    types = set(map(type, vals))
    if not types <= {int}:
        vals = tuple(map(canon, vals))
        types = set(map(type, vals))
    if not all(map(operator.lt, vals, islice(vals, 1, None))):
        raise InputError(f"{what} must be strictly increasing")
    return vals, all(issubclass(t, int) for t in types)


_ELEMENT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_element(text: str) -> Scalar:
    """Parse one set-file element: a signed integer or 'p/q' with q > 0."""
    text = text.strip()
    if not _ELEMENT_RE.match(text):
        raise InputError(f"malformed element {text!r} (expected integer or p/q)")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise InputError(f"zero denominator in {text!r}")
        return canon(Fraction(int(num), int(den)))
    return int(text)


def format_element(x: Scalar) -> str:
    x = canon(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


class OrderedSet:
    """A finite set of rationals stored as a strictly increasing tuple.

    Construction canonicalises every element with :func:`canon` (skipped
    when all elements are plain ints, which it would leave unchanged),
    then requires a non-empty, strictly increasing sequence.  Each check
    is one builtin pass over the tuple; a failure raises InputError.
    """

    __slots__ = ("elements", "_is_integer")

    def __init__(self, elements: Iterable[Scalar]) -> None:
        elems, is_integer = _increasing_canon(elements, "OrderedSet elements")
        if not elems:
            raise InputError("OrderedSet must be non-empty")
        self.elements = elems
        self._is_integer = is_integer

    @property
    def is_integer(self) -> bool:
        """True when every element is an integer."""
        return self._is_integer

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __contains__(self, x) -> bool:
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def index(self, x: Scalar) -> int:
        i = bisect_left(self.elements, x)
        if i == len(self.elements) or self.elements[i] != x:
            raise KeyError(x)
        return i

    def __eq__(self, other) -> bool:
        return isinstance(other, OrderedSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        if len(self) <= 8:
            body = ", ".join(format_element(x) for x in self)
        else:
            head = ", ".join(format_element(x) for x in self.elements[:3])
            body = f"{head}, ... ({len(self)} elements)"
        return f"OrderedSet({{{body}}})"

    def negate(self) -> "OrderedSet":
        """{-a : a in A}."""
        return OrderedSet([-x for x in reversed(self.elements)])


def make_set(values: Iterable[Scalar]) -> OrderedSet:
    """Sort and deduplicate ``values`` into an OrderedSet.

    Raises InputError on empty input.  Duplicates collapse silently;
    multiplicities live only in :class:`SparseCounts`.
    """
    vals = sorted({canon(v) for v in values})
    if not vals:
        raise InputError("cannot build a set from no values")
    return OrderedSet(vals)


class SparseCounts:
    """Sorted value -> multiplicity map with exact integer counts.

    Construction checks, in this order and each as one builtin pass:
    equal lengths, non-empty, values canonicalised as in
    :class:`OrderedSet` and strictly increasing, counts integers (Python
    or numpy integer scalars, taken through ``operator.index``; floats,
    strings and Fractions are rejected, never truncated), counts >= 1.
    A failure raises InputError.

    Given two 1-d numpy int64 arrays, the same checks run as array
    operations (the dtype makes every count an integer) and copies of
    the arrays are kept, so later writes to the caller's arrays change
    nothing here: ``values`` and ``counts`` become tuples of Python ints
    on first read.
    """

    __slots__ = (
        "_values", "_counts", "_value_array", "_count_array", "_mass", "_is_integer"
    )

    def __init__(self, values: Sequence[Scalar], counts: Sequence[int]) -> None:
        if _is_int64_vector(values) and _is_int64_vector(counts):
            self._init_arrays(values, counts)
            return
        if len(values) != len(counts):
            raise InputError("values/counts length mismatch")
        if not len(values):
            raise InputError("SparseCounts must be non-empty")
        vals, is_integer = _increasing_canon(values, "SparseCounts values")
        try:
            cnts = tuple(map(operator.index, counts))
        except TypeError:
            raise InputError("SparseCounts counts must be integers") from None
        if min(cnts) < 1:
            raise InputError("SparseCounts counts must be positive")
        self._values = vals
        self._counts = cnts
        self._value_array = self._count_array = None
        self._mass = sum(cnts)
        self._is_integer = is_integer

    def _init_arrays(self, values, counts) -> None:
        if len(values) != len(counts):
            raise InputError("values/counts length mismatch")
        if not len(values):
            raise InputError("SparseCounts must be non-empty")
        if not (values[1:] > values[:-1]).all():
            raise InputError("SparseCounts values must be strictly increasing")
        if counts.min() < 1:
            raise InputError("SparseCounts counts must be positive")
        # The int64 sum cannot wrap while max * length < 2**63.
        if int(counts.max()) * len(counts) < 2**63:
            self._mass = int(counts.sum())
        else:
            self._mass = sum(counts.tolist())
        self._values = self._counts = None
        self._value_array, self._count_array = values.copy(), counts.copy()
        self._is_integer = True

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = tuple(self._value_array.tolist())
        return self._values

    @property
    def counts(self) -> tuple:
        if self._counts is None:
            self._counts = tuple(self._count_array.tolist())
        return self._counts

    @classmethod
    def from_dict(cls, mapping: dict) -> "SparseCounts":
        values = sorted(mapping)
        return cls(values, [mapping[v] for v in values])

    @classmethod
    def from_set(cls, A: OrderedSet) -> "SparseCounts":
        """Representation function of a single set: every count is 1."""
        return cls(A.elements, [1] * len(A))

    @classmethod
    def point(cls, value: Scalar = 0, count: int = 1) -> "SparseCounts":
        return cls([value], [count])

    @property
    def mass(self) -> int:
        """Total multiplicity; multiplies under convolution."""
        return self._mass

    @property
    def is_integer_valued(self) -> bool:
        return self._is_integer

    def __len__(self) -> int:
        return len(self._counts if self._count_array is None else self._count_array)

    def items(self) -> Iterator[tuple[Scalar, int]]:
        return zip(self.values, self.counts)

    def count_of(self, value: Scalar) -> int:
        i = bisect_left(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            return self.counts[i]
        return 0

    def max_count(self) -> int:
        return max(self.counts)

    def dyadic_classes(self) -> tuple[tuple[int, int], ...]:
        """(j, |{v : 2**j <= count(v) < 2**(j+1)}|) for each non-empty
        class, j increasing."""
        c = self._count_array
        if c is None:
            sizes = Counter(map(int.bit_length, self._counts))
            return tuple(sorted((bits - 1, size) for bits, size in sizes.items()))
        import numpy as np

        # The bit length of c is the number of powers 2**0 .. 2**62 <= c:
        # integer comparisons only.
        powers = np.left_shift(1, np.arange(63, dtype=np.int64))
        sizes = np.bincount(np.searchsorted(powers, c, side="right"))
        return tuple((int(b) - 1, int(sizes[b])) for b in np.flatnonzero(sizes))

    def support(self) -> OrderedSet:
        """The set of values carrying positive count."""
        return OrderedSet(self.values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseCounts)
            and self.values == other.values
            and self.counts == other.counts
        )

    def __hash__(self) -> int:
        return hash((self.values, self.counts))

    def __repr__(self) -> str:
        n = len(self)
        if n <= 6:
            body = ", ".join(f"{format_element(v)}:{c}" for v, c in self.items())
            return f"SparseCounts({{{body}}})"
        return f"SparseCounts(<{n} values, mass {self.mass}>)"


def convolve(p: SparseCounts, q: SparseCounts) -> SparseCounts:
    """Exact convolution: entry at v gets sum_u p(u) * q(v - u).

    Commutative and associative; total mass multiplies.  The work is
    done by :func:`sumsetlab.kernels.convolve_exact`.
    """
    values, counts = kernels.convolve_exact(p.values, p.counts, q.values, q.counts)
    return SparseCounts(values, counts)


def mass_of_squares(p: SparseCounts) -> int:
    """sum of count(v)**2 over all values; the 2nd-moment kernel.

    On an int64 count array this is one dot product, taken only while
    max(c) * mass < 2**63: that product bounds the sum and each partial
    sum, so the int64 accumulator cannot wrap.
    """
    c = p._count_array
    if c is not None and int(c.max()) * p.mass < 2**63:
        return int(c.dot(c))
    return sum(map(operator.mul, p.counts, p.counts))


def moment_sum(p: SparseCounts, m: int) -> int:
    """sum of count(v)**m (exact, integer m >= 1)."""
    if m < 1:
        raise InputError("moment order must be >= 1")
    return sum(map(pow, p.counts, repeat(m)))


# ---------------------------------------------------------------------------
# Set file I/O: one element per line, '#' starts a comment line.


def read_set(source: Union[str, TextIO]) -> OrderedSet:
    """Read a set file (elements need not be sorted on disk)."""
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return read_set(fh)
        except OSError as exc:
            raise InputError(
                f"cannot read set file {source!r}: {exc.strerror or exc}"
            ) from None
        except UnicodeDecodeError as exc:
            raise InputError(
                f"set file {source!r} is not UTF-8 text (byte {exc.start})"
            ) from None
    values = []
    for line in source:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        values.append(parse_element(line))
    if not values:
        raise InputError("set file contains no elements")
    return make_set(values)


def unwritable_reason(path: str) -> str | None:
    """Why opening ``path`` for writing would fail, found without opening
    or creating it: the path is a directory, or its parent directory is
    missing.  None when neither holds (the open may still fail later, for
    example on permissions)."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    parent = os.path.dirname(path) or "."
    if not os.path.exists(parent):
        return os.strerror(errno.ENOENT)
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR)
    return None


def check_set_destination(dest: str) -> None:
    """Raise the InputError :func:`write_set` would raise for ``dest``
    when :func:`unwritable_reason` already knows it."""
    reason = unwritable_reason(dest)
    if reason is not None:
        raise InputError(f"cannot write set file {dest!r}: {reason}")


def write_set(A: OrderedSet, dest: Union[str, TextIO]) -> None:
    if isinstance(dest, str):
        try:
            with open(dest, "w", encoding="utf-8") as fh:
                write_set(A, fh)
        except OSError as exc:
            raise InputError(
                f"cannot write set file {dest!r}: {exc.strerror or exc}"
            ) from None
        return
    for x in A:
        dest.write(format_element(x) + "\n")


def count_in_halfopen(values: Sequence[Scalar], lo: Scalar, hi: Scalar) -> int:
    """|{v in values : lo < v <= hi}| for a sorted sequence."""
    if hi < lo:
        lo, hi = hi, lo
    return bisect_right(values, hi) - bisect_right(values, lo)
