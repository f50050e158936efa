"""Exact scalar arithmetic and the canonical containers.

Every element is an exact rational.  The scalar type is
:class:`fractions.Fraction` (re-exported as ``Rational``); integral
values are canonicalised to plain ``int``.  ``Fraction`` and ``int``
hash and compare consistently, so callers may mix the two freely.

Both containers hold their values as strictly increasing ints over one
denominator: the value x / ``den`` for each int x, with ``den >= 1``.
``den`` is reduced once, at construction, so that gcd(den, all ints) =
1: equal sets hold equal data, and a container is integer-valued exactly
when ``den == 1``.  The kernels and the engine read these ints; they
rescale only when two operands' denominators differ (:func:`common_ints`).

* :class:`OrderedSet` -- a finite set of rationals in increasing order.
* :class:`SparseCounts` -- a sorted association value -> multiplicity,
  the representation-function type.  Convolution of two
  ``SparseCounts`` realises the additivity of representation counts:
  ``r_{A+B}(x) = sum_y r_A(y) * r_B(x - y)``.

A container built from a caller's values keeps their canonical tuple as
its elements, so exact element types (a bool stays a bool) do not
change; an integer set's ints are that same tuple.  A container built
from ints over ``den > 1`` (an engine result) builds its elements, each
the int x // den or ``Fraction(x, den)``, only when they are first read.

``SparseCounts(values, counts)`` is the one checked constructor: it
takes a caller's value and count sequences, or a dict value -> count
(``counts`` None), which it sorts into sequences at once, and checks
them.  Engine results never take it: ``engine.representation`` and
:func:`convolve` hand their result to ``SparseCounts._result``, which
keeps it as produced, reduces ``den`` and sums the mass, nothing else.
The kernels guarantee the rest by construction, and
``engine.representation`` checks every result's mass.  Each producer
hands over one form, so a kept result takes one of two.

Kept from a range of consecutive ints and a numpy count array, zeros
meaning absent (the dense fold of ``engine.representation``, as it
stands: at a fixed integer width, or of Python ints, ``dtype=object``,
past int64, wherever its values lie), a ``SparseCounts`` holds that
array and the range's first int.  Only this class, :func:`rich_tail`
and :func:`mass_of_squares` read a count array: ``len`` counts its
nonzero cells, ``SparseCounts.dyadic_classes`` compares it against each
power of two up to its maximum, ``SparseCounts.count_class`` against
the bounds of one class, :func:`rich_tail` against the clamped
threshold, :func:`mass_of_squares` takes an int64 dot product only
while ``max(c) * mass < 2**63``, which bounds every partial sum, and a
Python int sum otherwise, and ``unordered_counts`` takes its nonzero
cells.  Only the first read of the ints or counts gathers the nonzero
cells with their values (``count_class`` gathers only its own): numpy
adds the first int to their offsets when the range fits int64, else
Python adds it to each.  numpy is imported only in these array
branches, which nothing but a numpy array reaches.

Kept from a dict int -> count (a sparse kernel's result), a
``SparseCounts`` holds the dict and sorts it into tuples only when one
is read: it is the one place that sorts a kernel's output.  The
order-free reductions (``mass_of_squares``, ``moment_sum``,
``dyadic_classes``, ``max_count``, ``rich_tail``) read
:meth:`SparseCounts.unordered_counts`, so they never sort it;
``SparseCounts.count_class`` sorts only the entries of its class.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import compress, islice, repeat
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, TextIO, Union

from . import kernels
from .errors import InputError, ResourceError

Rational = Fraction
Scalar = Union[int, Fraction]

#: Default memory budget in bytes (4 GiB); used when a caller passes none.
DEFAULT_MEMORY_BUDGET = 2**32

# Rough per-entry cost of a Python dict holding scalar keys and counts,
# used only for pre-allocation estimates.
DICT_ENTRY_BYTES = 120


def charge(bytes_: int, mem_budget: int | None, what: str) -> int:
    """Charge an estimate of ``bytes_``, made before anything is
    allocated, to ``mem_budget`` (``DEFAULT_MEMORY_BUDGET`` when None),
    and return that budget.  An estimate equal to the budget fits; a
    larger one raises ResourceError, naming ``what``: the only place
    that raises it."""
    budget = DEFAULT_MEMORY_BUDGET if mem_budget is None else mem_budget
    if bytes_ > budget:
        raise ResourceError(bytes_, budget, what)
    return budget


def _array_mass(c) -> int:
    """The sum of the numpy count array ``c``, exact: numpy's sum cannot
    wrap while max * length < 2**63."""
    if int(c.max(initial=0)) * len(c) < 2**63:
        return int(c.sum())
    return sum(c.tolist())


def canon(x: Scalar) -> Scalar:
    """Collapse integral Fractions to int; reject non-rational input."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise InputError(f"not an exact rational: {x!r}")


def _canonical(vals: Sequence[Scalar]) -> tuple[Sequence[Scalar], bool]:
    """``vals`` canonicalised, and whether all of them are integers.

    ``canon`` leaves a plain ``int`` unchanged, so it is mapped (into a
    tuple) only when some value has another type (Fraction, bool, or
    something to reject); otherwise ``vals`` itself is returned.
    """
    types = set(map(type, vals))
    if not types <= {int}:
        vals = tuple(map(canon, vals))
        types = set(map(type, vals))
    return vals, all(issubclass(t, int) for t in types)


def _increasing_canon(values: Iterable[Scalar], what: str) -> tuple[tuple, bool]:
    """Canonicalise ``values`` and check they strictly increase.

    Returns the values as a tuple and whether all of them are integers.
    Each step is one builtin pass over the tuple.
    """
    vals, is_integer = _canonical(tuple(values))
    if not all(map(operator.lt, vals, islice(vals, 1, None))):
        raise InputError(f"{what} must be strictly increasing")
    return vals, is_integer


def _integer_counts(counts: Iterable) -> tuple[int, ...]:
    """``counts`` as a tuple of Python ints, each at least 1."""
    try:
        cnts = tuple(map(operator.index, counts))
    except TypeError:
        raise InputError("SparseCounts counts must be integers") from None
    if min(cnts) < 1:
        raise InputError("SparseCounts counts must be positive")
    return cnts


def _over_den(vals: Iterable, is_integer: bool, den: int) -> tuple[Iterable, int]:
    """The canonical values ``vals`` (a tuple, or a dict's int keys), each
    divided by ``den``, as (ints, d) with gcd(d, all ints) = 1.

    Rational values are first scaled by the lcm of their denominators.
    Integer values over den 1 are returned as they are, with no pass.
    """
    if type(den) is not int or den < 1:
        raise InputError(f"den must be a positive int, got {den!r}")
    if not is_integer:
        d = lcm(*{x.denominator for x in vals})
        vals = tuple([x.numerator * (d // x.denominator) for x in vals])
        den *= d
    g = gcd(den, *vals) if den > 1 else 1
    if g > 1:
        vals, den = tuple([x // g for x in vals]), den // g
    return vals, den


def _rationals(ints: tuple, den: int) -> tuple:
    """The values x / ``den`` of ``ints``, canonical: each the int
    x // den or ``Fraction(x, den)``; ``ints`` itself when den == 1."""
    if den == 1:
        return ints
    return tuple([x // den if x % den == 0 else Fraction(x, den) for x in ints])


_ELEMENT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_element(text: str) -> Scalar:
    """Parse one set-file element: a signed integer or 'p/q' with q > 0."""
    text = text.strip()
    if not _ELEMENT_RE.match(text):
        raise InputError(f"malformed element {text!r} (expected integer or p/q)")
    try:
        if "/" not in text:
            return int(text)
        num, den = map(int, text.split("/"))
    except ValueError as exc:  # past the caller's int/str digit limit
        raise InputError(str(exc)) from None
    if den == 0:
        raise InputError(f"zero denominator in {text!r}")
    return canon(Fraction(num, den))


def conversion_error(exc: Exception, message: str) -> InputError:
    """The error for text that ``int`` or ``Fraction`` rejected with
    ``exc``: its own one-line message when the text passed the caller's
    int/str digit limit, else ``message``, which says the text is
    malformed."""
    limit = str(exc).startswith("Exceeds the limit")
    return InputError(str(exc) if limit else message)


def format_element(x: Scalar) -> str:
    x = canon(x)
    try:
        if isinstance(x, int):
            return str(x)
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # past the caller's int/str digit limit
        raise InputError(str(exc)) from None


class OrderedSet:
    """A finite, non-empty set of rationals: {x / den : x in ints}.

    ``ints`` is a strictly increasing tuple of ints and ``den`` >= 1 is
    reduced so that gcd(den, all ints) = 1, so equal sets hold equal
    (ints, den).  ``elements`` is the set as a strictly increasing tuple
    of canonical rationals.

    Built from elements (``den`` 1, the default), each is canonicalised
    with :func:`canon` (skipped when all are plain ints, which it would
    leave unchanged), and the tuple must be non-empty and strictly
    increasing.  Each check is one builtin pass; a failure raises
    InputError.  That canonical tuple is kept as ``elements``; for an
    integer set it is ``ints`` too, otherwise ``den`` is the lcm of the
    denominators and ``ints`` the elements times ``den``.

    Built from ints over ``den`` > 1 (the engine's sumsets), the same
    checks run on the ints, ``den`` is reduced, and ``elements`` is built
    when first read.
    """

    __slots__ = ("ints", "den", "_elements")

    def __init__(self, elements: Iterable[Scalar], *, den: int = 1) -> None:
        elems, is_integer = _increasing_canon(elements, "OrderedSet elements")
        if not elems:
            raise InputError("OrderedSet must be non-empty")
        self.ints, self.den = _over_den(elems, is_integer, den)
        self._elements = elems if den == 1 else None

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = _rationals(self.ints, self.den)
        return self._elements

    @property
    def is_integer(self) -> bool:
        """True when every element is an integer."""
        return self.den == 1

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __contains__(self, x) -> bool:
        i = bisect_left(self.elements, x)
        return i < len(self) and self.elements[i] == x

    def index(self, x: Scalar) -> int:
        i = bisect_left(self.elements, x)
        if i == len(self) or self.elements[i] != x:
            raise KeyError(x)
        return i

    def __eq__(self, other) -> bool:
        return isinstance(other, OrderedSet) and (self.ints, self.den) == (
            other.ints, other.den
        )

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __repr__(self) -> str:
        if len(self) <= 8:
            body = ", ".join(format_element(x) for x in self)
        else:
            head = ", ".join(format_element(x) for x in self.elements[:3])
            body = f"{head}, ... ({len(self)} elements)"
        return f"OrderedSet({{{body}}})"

    def negate(self) -> "OrderedSet":
        """{-a : a in A}."""
        return OrderedSet([-x for x in reversed(self.ints)], den=self.den)


def make_set(values: Iterable[Scalar]) -> OrderedSet:
    """Sort and deduplicate ``values`` into an OrderedSet.

    Raises InputError on empty input.  Duplicates collapse silently;
    multiplicities live only in :class:`SparseCounts`.
    """
    vals = sorted({canon(v) for v in values})
    if not vals:
        raise InputError("cannot build a set from no values")
    return OrderedSet(vals)


def common_ints(
    containers: Sequence[Union[OrderedSet, "SparseCounts"]],
) -> tuple[list[Sequence[int]], int]:
    """The ints of each container over their common denominator, and
    that denominator: the lcm D of their dens.  A container whose den is
    D gives its stored ints; the others are multiplied by D // den."""
    den = lcm(*{c.den for c in containers})
    return [
        c.ints if c.den == den else tuple([x * (den // c.den) for x in c.ints])
        for c in containers
    ], den


class SparseCounts:
    """Sorted value -> multiplicity map with exact integer counts.

    The values are held as an :class:`OrderedSet` holds its elements:
    strictly increasing ``ints`` over a reduced ``den``, read as the
    canonical rationals ``values``.

    Construction checks, in this order and each as one builtin pass:
    equal lengths, non-empty, values canonicalised as in
    :class:`OrderedSet` and strictly increasing, counts integers (Python
    or numpy integer scalars, taken through ``operator.index``; floats,
    strings and Fractions are rejected, never truncated), counts >= 1.
    A failure raises InputError.  The canonical values are kept as
    ``values``, over ``den`` the lcm of their denominators.  A dict
    value -> count in any order, given as ``values`` with no ``counts``,
    is canonicalised and sorted into the sequences, which then take the
    same checks.  A numpy array or a range of values is a sequence like
    any other; an array's numpy scalars are rejected.

    ``_result`` keeps an engine result without these checks, in one of
    two forms: a kernel's count dict of plain ints, sorted into the
    tuples when either is first read, or the dense fold's range and
    count array, whose nonzero cells are gathered on first read.
    Neither is copied (the producer no longer changes it).  Over ``den``
    > 1 a dict's keys are reduced; a fold's ``den`` is reduced against
    the range's first int and the offsets of the nonzero counts, keeping
    every g-th count.
    """

    __slots__ = (
        "den", "_ints", "_values", "_counts", "_mapping", "_lo", "_count_array",
        "_mass",
    )

    def __init__(self, values: Union[Sequence[Scalar], dict], counts=None) -> None:
        self._mapping = self._count_array = None
        if counts is None:
            if not isinstance(values, dict):
                raise InputError("SparseCounts needs counts unless values is a dict")
            mapping, values = values, sorted(_canonical(values)[0])
            counts = list(map(mapping.__getitem__, values))
        if len(values) != len(counts):
            raise InputError("values/counts length mismatch")
        if not len(values):
            raise InputError("SparseCounts must be non-empty")
        vals, is_integer = _increasing_canon(values, "SparseCounts values")
        self._counts = _integer_counts(counts)
        self._mass = sum(self._counts)
        self._ints, self.den = _over_den(vals, is_integer, 1)
        self._values = vals

    @classmethod
    def _result(cls, values, counts, den: int) -> "SparseCounts":
        """An engine result, unchecked: a kernel's count dict (``counts``
        None) or the dense fold's range and count array.  Only ``den`` is
        reduced and the mass summed, which ``engine.representation``
        checks."""
        self = cls.__new__(cls)
        self._ints = self._values = self._counts = None
        self._mapping = self._count_array = None
        if counts is None:
            self._mass = sum(values.values())
            keys, self.den = _over_den(values, True, den)
            if keys is not values:
                values = dict(zip(keys, values.values()))
            self._mapping = values
            return self
        lo = values.start
        self._mass = _array_mass(counts)
        if den != 1:
            import numpy as np

            # Every g dividing lo and the nonzero offsets keeps its values
            # on every g-th cell, a view.  A g of at least the length
            # leaves one nonzero cell, the first.
            offsets_gcd = int(np.gcd.reduce(np.flatnonzero(counts)))
            g = den // _over_den((lo, offsets_gcd), True, den)[1]
            counts, lo, den = counts[:: min(g, len(counts))], lo // g, den // g
        self._lo, self._count_array, self.den = lo, counts, den
        return self

    def _sort_mapping(self) -> None:
        mapping = self._mapping
        ints = sorted(mapping)
        self._ints = tuple(ints)
        self._counts = tuple(map(mapping.__getitem__, ints))
        self._mapping = None

    def _build_tuples(self) -> None:
        """Sort a kept dict, or gather a count array's nonzero cells, into
        the tuples."""
        if self._mapping is not None:
            self._sort_mapping()
            return
        import numpy as np

        ints, counts = self._gather(np.flatnonzero(self._count_array))
        self._ints, self._counts = tuple(ints), tuple(counts)

    def _gather(self, cells) -> tuple[list, list]:
        """The ints and counts of the count array's ``cells``, an
        increasing index array, as lists of Python ints: numpy adds the
        range's first int while the range fits int64, else Python does."""
        c, lo = self._count_array, self._lo
        if -(2**63) <= lo and lo + len(c) <= 2**63:
            ints = (cells + lo).tolist()
        else:
            ints = [lo + i for i in cells.tolist()]
        return ints, c[cells].tolist()

    @property
    def ints(self) -> tuple:
        if self._ints is None:
            self._build_tuples()
        return self._ints

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = _rationals(self.ints, self.den)
        return self._values

    @property
    def counts(self) -> tuple:
        if self._counts is None:
            self._build_tuples()
        return self._counts

    def unordered_counts(self) -> Iterable[int]:
        """The counts in no particular order, each once: a kept dict's
        counts as they are, a kept count array's nonzero cells as Python
        ints, else :attr:`counts`.  For reductions that do not depend on
        order, which then never sort a kept dict nor gather the ints."""
        if self._mapping is not None:
            return self._mapping.values()
        c = self._count_array
        if c is not None:
            return c[c != 0].tolist()
        return self.counts

    @property
    def mass(self) -> int:
        """Total multiplicity; multiplies under convolution."""
        return self._mass

    @property
    def is_integer(self) -> bool:
        """True when every value is an integer."""
        return self.den == 1

    def __len__(self) -> int:
        if self._counts is not None:
            return len(self._counts)
        if self._mapping is not None:
            return len(self._mapping)
        import numpy as np

        return int(np.count_nonzero(self._count_array))

    def items(self) -> Iterator[tuple[Scalar, int]]:
        return zip(self.values, self.counts)

    def count_of(self, value: Scalar) -> int:
        i = bisect_left(self.values, value)
        if i < len(self) and self.values[i] == value:
            return self.counts[i]
        return 0

    def max_count(self) -> int:
        c = self._count_array
        return max(self.unordered_counts()) if c is None else int(c.max())

    def count_class(self, low: int, high: int) -> tuple[list, list]:
        """The ints, increasing, and the counts of the values whose count
        lies in [low, high): one pass per kept form.  ``low`` is first
        clamped to at least 1, so that a count array's zeros never count.
        A count array's cells are found by comparison, each bound compared
        only when it is at most the maximum, so within the array's width;
        a kept dict's entries are filtered and only those kept are
        sorted; the tuples are filtered."""
        low = max(low, 1)
        c = self._count_array
        if c is not None:
            import numpy as np

            top = int(c.max())
            if low > top:
                return [], []
            hit = c >= low
            if high <= top:
                hit &= c < high
            return self._gather(np.flatnonzero(hit))
        mapping = self._mapping
        if mapping is None:
            ints, counts = self._ints, self._counts
            keep = [low <= n < high for n in counts]
            return list(compress(ints, keep)), list(compress(counts, keep))
        ints = sorted([x for x, n in mapping.items() if low <= n < high])
        return ints, list(map(mapping.__getitem__, ints))

    def dyadic_classes(self) -> tuple[tuple[int, int], ...]:
        """(j, |{v : 2**j <= count(v) < 2**(j+1)}|) for each non-empty
        class, j increasing."""
        c = self._count_array
        if c is None:
            sizes = Counter(map(int.bit_length, self.unordered_counts()))
            return tuple(sorted((bits - 1, size) for bits, size in sizes.items()))
        import numpy as np

        # at_least[j]: the counts >= 2**j, by integer comparisons only, each
        # power within c's width; zeros never count.
        bits = self.max_count().bit_length()
        at_least = [int(np.count_nonzero(c >= 1 << j)) for j in range(bits)] + [0]
        sizes = map(operator.sub, at_least, at_least[1:])
        return tuple((j, size) for j, size in enumerate(sizes) if size)

    def support(self) -> OrderedSet:
        """The set of values carrying positive count: built from the ints
        until the values are read (or given), so that their types carry
        over."""
        if self._values is None:
            return OrderedSet(self.ints, den=self.den)
        return OrderedSet(self._values)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseCounts) and (
            self.ints, self.den, self.counts
        ) == (other.ints, other.den, other.counts)

    def __hash__(self) -> int:
        return hash((self.ints, self.den, self.counts))

    def __repr__(self) -> str:
        n = len(self)
        if n <= 6:
            body = ", ".join(f"{format_element(v)}:{c}" for v, c in self.items())
            return f"SparseCounts({{{body}}})"
        return f"SparseCounts(<{n} values, mass {self.mass}>)"


def convolve(p: SparseCounts, q: SparseCounts) -> SparseCounts:
    """Exact convolution: entry at v gets sum_u p(u) * q(v - u).

    Commutative and associative; total mass multiplies.  The work is
    :func:`sumsetlab.kernels.convolve_integer` of the operands' count
    dicts, keyed by their ints over their common denominator
    (:func:`common_ints`); the result keeps the kernel's dict.
    """
    (av, bv), den = common_ints([p, q])
    acc = kernels.convolve_integer(dict(zip(av, p.counts)), dict(zip(bv, q.counts)))
    return SparseCounts._result(acc, None, den)


def mass_of_squares(p: SparseCounts) -> int:
    """sum of count(v)**2 over all values; the 2nd-moment kernel.

    On a count array this is one dot product in int64, taken only while
    max(c) * mass < 2**63: that product bounds the sum and each partial
    sum, so the accumulator cannot wrap, and every count, so casting it
    to int64 is exact.  numpy casts in buffers: the array is not widened
    whole.
    """
    c = p._count_array
    if c is not None and int(c.max()) * p.mass < 2**63:
        import numpy as np

        return int(np.einsum("i,i", c, c, dtype=np.int64, casting="unsafe"))
    counts = p.unordered_counts()
    return sum(map(operator.mul, counts, counts))


def rich_tail(p: SparseCounts, r: int) -> int:
    """|{x : r(x) >= r}|.

    On a count array ``r`` is first clamped to at least 1, so that zeros
    never count, and compared only when it is at most max(c), so within
    c's width."""
    c = p._count_array
    if c is None:
        return sum(map(operator.ge, p.unordered_counts(), repeat(r)))
    import numpy as np

    r = max(r, 1)
    return int(np.count_nonzero(c >= r)) if r <= int(c.max()) else 0


def moment_sum(p: SparseCounts, m: int) -> int:
    """sum of count(v)**m (exact, integer m >= 1)."""
    if not isinstance(m, int):
        raise InputError(f"moment order must be an integer, got {m!r}")
    if m < 1:
        raise InputError("moment order must be >= 1")
    return sum(map(pow, p.unordered_counts(), repeat(m)))


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


def write_set(A: OrderedSet, dest: TextIO) -> None:
    """Write one element per line to the text stream ``dest``."""
    for x in A:
        dest.write(format_element(x) + "\n")
