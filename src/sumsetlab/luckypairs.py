"""Cell decompositions of triple sumsets and lucky-pair enumeration.

Setting: sets B_1..B_k with monotone maps g_i, image sets A_i = g_i(B_i),
and a richness level r.  Each axis partitions its triple sumset
B_i + B_i - B_i into t = ceil(r**(1/(k-1)) / c) intervals of near-equal
element count: runs of consecutive ranks, so an element's interval is
its rank in the sorted sumset over the run length.  The ranks of B_i's
own elements, the only values the lab looks up, are read with the
sumset's size from the support kernel, which does not decode it.  The
product boxes are the *cells*.  Two distinct solution tuples of
g_1(b_1) + ... + g_k(b_k) = x form a *lucky pair* when they produce the
same sum x and, on every axis, few triple-sumset elements separate them:
n_{B_i}(b_i, b_i') <= ceil(c * |B_i+B_i-B_i| / r**(1/(k-1))).
Tuples sharing a cell always qualify, and a sum with r_x solutions yields
at least r_x minus the number of occupied cells such pairs — at least
r_x - k * t**(k-1), because the solution hyperplane meets at most
k * t**(k-1) cells of a t x ... x t grid.

The census (``lucky_census``) counts, for every sum x of one dyadic
class of r_{kA}, its solutions per cell without listing them: the first
k-1 axes fold into a table of partial sums, and each x - g_k(b_k) is
ranked among the partial sums, through an index table over their span
where that span is small against the queries and int64 holds every
offset, by ``searchsorted`` elsewhere.

All index arithmetic (t, the witness cap) uses exact integer roots,
never floating point, so results reproduce across platforms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product, repeat
from math import lcm, prod
from operator import sub
from typing import NamedTuple, Sequence

from .convexity import FunctionSpec, evaluate
from .core import DICT_ENTRY_BYTES, OrderedSet, Scalar, canon
from .engine import choose, representation, signed_sumset, sumset_ranks
from .errors import DomainError, InputError, VerificationError
from .intmath import ceil_div, ceil_root

# What a census holds whatever its shape: numpy's temporaries and the
# arrays' headers (about 10 kB measured on numpy 2, Python 3.11).
_CENSUS_BYTES = 16384


class TripleSumset:
    """B + B - B: its size and the rank of each element of B in it (the
    elements below), from one rank query of the support kernel's size
    path (``engine.sumset_ranks``), which never builds the sumset and is
    charged what that path's rows hold, four masks on a bitset row, plus
    40 bytes a rank.  Every b in B is an element (b + b - b), and these
    ranks answer every lookup
    of the census and of ``lucky_pairs_for_sum``.  ``values``, the sorted
    elements, are decoded when first read, under the budget given here,
    and so is any lookup of a value outside B."""

    __slots__ = ("_B", "_mem_budget", "_size", "_rank", "_values")

    def __init__(self, B: OrderedSet, *, mem_budget: int | None = None) -> None:
        self._B, self._mem_budget = B, mem_budget
        self._size, ranks = sumset_ranks([B] * 3, (1, 1, -1), B, mem_budget=mem_budget)
        self._rank = dict(zip(B, ranks))
        self._values: tuple | None = None

    @property
    def values(self) -> tuple:
        if self._values is None:
            B, budget = self._B, self._mem_budget
            self._values = signed_sumset([B] * 3, (1, 1, -1), mem_budget=budget).elements
        return self._values

    def __len__(self) -> int:
        return self._size

    def rank(self, value: Scalar) -> int:
        """The elements of B+B-B below ``value``."""
        rank = self._rank.get(value)
        return bisect_left(self.values, value) if rank is None else rank

    def count_between(self, b: Scalar, b_prime: Scalar) -> int:
        """Elements of B+B-B in the half-open interval (lo, hi], where lo
        and hi are the smaller and the larger endpoint: the order of the
        endpoints does not matter, and equal endpoints count 0."""
        lo, hi = min(b, b_prime), max(b, b_prime)
        return self._up_to(hi) - self._up_to(lo)

    def _up_to(self, value: Scalar) -> int:
        """The elements of B+B-B at most ``value``."""
        rank = self._rank.get(value)
        return bisect_right(self.values, value) if rank is None else rank + 1


def cells_per_axis(r: int, k: int, c: int) -> int:
    """t = ceil(r**(1/(k-1)) / c), exactly: smallest t with (t*c)**(k-1) >= r."""
    return ceil_div(ceil_root(r, k - 1), c)


def witness_cap(sumset_size: int, r: int, k: int, c: int) -> int:
    """ceil(c * M / r**(1/(k-1))): the per-axis closeness threshold.

    Exact: the smallest integer q with q**(k-1) * r >= (c*M)**(k-1).
    """
    return ceil_root(ceil_div((c * sumset_size) ** (k - 1), r), k - 1)


@dataclass(frozen=True)
class AxisPartition:
    """One axis of a grid: its triple sumset cut into t intervals of
    ``chunk`` consecutive ranks (the last may hold fewer).

    Interval j holds the sumset's elements of rank j*chunk to
    (j+1)*chunk - 1.  Every b in B is an element (b + b - b), and the
    lab looks up no other value: its rank was read with the size.
    """

    sumset: TripleSumset
    chunk: int
    t: int

    def interval_index(self, value: Scalar) -> int:
        """The interval of ``value``, an element of the triple sumset."""
        return self.sumset.rank(value) // self.chunk


@dataclass(frozen=True)
class GridPartition:
    axes: tuple[AxisPartition, ...]
    t: int
    degenerate: bool

    def cell_of(self, point: Sequence[Scalar]) -> tuple[int, ...]:
        return tuple(ax.interval_index(p) for ax, p in zip(self.axes, point))


def build_partition(
    B_list: Sequence[OrderedSet],
    r: int,
    c: int = 4,
    *,
    mem_budget: int | None = None,
) -> GridPartition:
    """Partition each B_i + B_i - B_i into min(t, m) runs of
    ceil(m / min(t, m)) consecutive ranks, m its size (fewer runs when
    the last would be empty).

    Axes over equal sets share one AxisPartition, so each distinct
    triple sumset is ranked once: m and the ranks of B_i's elements come
    from one ``TripleSumset``, charged to ``mem_budget`` as the support
    kernel's rank rows (``engine.sumset_ranks``: the size path's rows
    and the ranks' bytes), and the sumset itself
    is never decoded unless a caller reads it.  For r < c**(k-1) the
    partition degenerates to a single cell per axis (t = 1:
    ceil(r**(1/(k-1))) is then at most c) and is returned with the
    ``degenerate`` flag set instead of raising.
    """
    k = len(B_list)
    _check_grid(k, r, c)
    degenerate = r < c ** (k - 1)
    t = cells_per_axis(r, k, c)
    by_set: dict[OrderedSet, AxisPartition] = {}
    for B in B_list:
        if B in by_set:
            continue
        triple = TripleSumset(B, mem_budget=mem_budget)
        m = len(triple)
        chunk = ceil_div(m, min(t, m))
        by_set[B] = AxisPartition(triple, chunk, ceil_div(m, chunk))
    axes = tuple(by_set[B] for B in B_list)
    return GridPartition(axes, t, degenerate)


def _check_grid(k: int, r: int, c: int) -> None:
    if k < 2:
        raise InputError("cell partitions need at least 2 axes")
    if r < 1 or c < 1:
        raise InputError("r and c must be positive")


@dataclass(frozen=True)
class LuckyPair:
    """Two distinct solution tuples for the same sum, close on every axis."""

    left: tuple
    right: tuple
    witnesses: tuple[int, ...]


def solution_tuples(
    B_list: Sequence[OrderedSet],
    g_list: Sequence[FunctionSpec],
    x: Scalar,
) -> list[tuple]:
    """All (b_1, ..., b_k) with g_1(b_1) + ... + g_k(b_k) = x.

    Enumerates the first k-1 axes with partial-sum range pruning and
    resolves the last axis by exact inverse lookup.  Every g_i must be
    injective on B_i (DomainError), as in ``lucky_census``.
    """
    if len(B_list) != len(g_list):
        raise InputError("need one function per set")
    images = [_injective_image(g, B) for g, B in zip(g_list, B_list)]
    last_inverse = dict(zip(images[-1], B_list[-1]))
    mins = [min(img) for img in images]
    maxs = [max(img) for img in images]
    suffix_min = [sum(mins[i:]) for i in range(len(B_list) + 1)]
    suffix_max = [sum(maxs[i:]) for i in range(len(B_list) + 1)]

    out: list[tuple] = []
    k = len(B_list)

    def rec(axis: int, prefix: tuple, acc: Scalar) -> None:
        if axis == k - 1:
            b_last = last_inverse.get(x - acc)
            if b_last is not None:
                out.append(prefix + (b_last,))
            return
        for b, v in zip(B_list[axis], images[axis]):
            rest = acc + v
            if rest + suffix_min[axis + 1] > x or rest + suffix_max[axis + 1] < x:
                continue
            rec(axis + 1, prefix + (b,), rest)

    rec(0, (), 0)
    return out


def lucky_pairs_for_sum(
    B_list: Sequence[OrderedSet],
    g_list: Sequence[FunctionSpec],
    x: Scalar,
    r: int,
    c: int = 4,
    partition: GridPartition | None = None,
) -> list[LuckyPair]:
    """All unordered pairs of distinct solution tuples sharing a cell.

    Every returned pair satisfies both lucky-pair conditions: the two
    tuples solve the sum equation for x, and each per-axis witness
    n_{B_i}(b_i, b_i') is at most the number of triple-sumset elements in
    one interval of the partition (hence within ceil(c * |B_i+B_i-B_i| /
    r**(1/(k-1)))).  A sum with r_x solutions yields at least
    r_x - (occupied cells) pairs.
    """
    solutions = solution_tuples(B_list, g_list, x)
    if not solutions:
        raise InputError(f"{x} has no representation as a sum")
    if partition is None:
        partition = build_partition(B_list, r, c)
    groups: dict[tuple[int, ...], list[tuple]] = {}
    for sol in solutions:
        groups.setdefault(partition.cell_of(sol), []).append(sol)
    pairs: list[LuckyPair] = []
    for members in groups.values():
        for left, right in combinations(members, 2):
            witnesses = tuple(
                ax.sumset.count_between(a, b)
                for ax, a, b in zip(partition.axes, left, right)
            )
            pairs.append(LuckyPair(left, right, witnesses))
    return pairs


class LuckyCensusRow(NamedTuple):
    """Per-sum census: found pairs vs. the pigeonhole guarantee.  A row
    is its own CSV row: its cells are its fields, in order."""

    x: Scalar
    r_x: int
    pairs_found: int
    lower_bound: int
    occupied_cells: int


def lucky_census(
    B_list: Sequence[OrderedSet],
    g_list: Sequence[FunctionSpec],
    r: int,
    c: int = 4,
    *,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> list[LuckyCensusRow]:
    """Census over every sum in the dyadic richness class [r, 2r), in one pass.

    The rich sums and their r_x are taken from ``representation`` with
    ``SparseCounts.count_class``.  Each distinct g_i is evaluated once on
    each distinct B_i, as an int over the images' common denominator
    less the least image, and each element's interval index is looked
    up once.  The first k-1 axes are folded into one dict table of
    multiplicities keyed by (partial sum, cell prefix), an independent
    count of the solutions.  Sorted into arrays, each partial sum's
    entries are one run: a sparse row of its counts per cell prefix.
    For each interval of the last axis, every rich sum x minus every
    g_k(b_k) in that interval is ranked among the partial sums; the runs
    that hit are expanded entry by entry, and one sort by (x, cell) adds
    up x's multiplicity in each cell it occupies.  No solution tuple is
    ever listed, and the work follows the entries found, not the number
    of cells.  The arrays are int64 while every offset fits, Python ints
    (``dtype=object``) past that.  A query is ranked through an int32
    index table over the span of the partial sums, -1 where there is
    none, when the offsets are int64 and that span is at most 6 times
    the widest interval's queries plus the partial sums (the rule of
    numpy's ``isin`` for its table); elsewhere by one ``searchsorted``
    per interval, whose arrays do not depend on the span.  The
    multiplicities found for x must add up to r_x from
    ``representation``, or VerificationError is raised (always on).  The
    table, its arrays, the queries of the widest interval and the rows
    are estimated against the budget before any is built, and the table
    entries that each interval visits, which its ranked queries count,
    before they are expanded (ResourceError); the index table fits in
    what the walk's charge per query spares.

    The lower bound column is r_x - k * t**(k-1), the hyperplane-based
    guarantee (may be negative for thin sums; found pairs always meet it).
    ``algo`` selects the algorithm of the representation; ``mem_budget``
    covers it, the triple sumsets and the census.
    """
    if len(B_list) != len(g_list):
        raise InputError("need one function per set")
    _check_grid(len(B_list), r, c)
    # Axes of one map on one set share its image, image set and offsets.
    pairs = list(zip(g_list, B_list))
    images = {pair: _injective_image(*pair) for pair in dict.fromkeys(pairs)}
    image_sets = {pair: OrderedSet(sorted(image)) for pair, image in images.items()}
    rep = representation(
        [image_sets[pair] for pair in pairs], algo=algo, mem_budget=mem_budget
    )
    partition = build_partition(B_list, r, c, mem_budget=mem_budget)
    rich, wanted = rep.count_class(r, 2 * r)
    if not rich:
        return []

    # Per axis: (g_i(b) as an int over the common denominator, less the
    # axis's least image, interval index of b) for every b in B_i.
    den = lcm(*(s.den for s in image_sets.values()))
    lows = {pair: s.ints[0] * (den // s.den) for pair, s in image_sets.items()}
    axis_of = dict(zip(B_list, partition.axes))
    offsets = {}
    for (g, B), image in images.items():
        low, index = lows[g, B], axis_of[B].interval_index
        offsets[g, B] = [
            ((v * den).numerator - low, j) for v, j in zip(image, map(index, B))
        ]
    axes = [offsets[pair] for pair in pairs]
    by_interval: dict[int, list] = {}
    for v, j in axes[-1]:
        by_interval.setdefault(j, []).append(v)
    # Each axis's least offset is 0, so the partial sums of the first k-1
    # axes run from 0 to key_top, both taken.
    key_top = sum(max(v for v, _ in axis) for axis in axes[:-1])
    span = key_top + max(v for v, _ in axes[-1])
    prefix_cells = prod(ax.t for ax in partition.axes[:-1])
    # Every code, query and key below lies in
    # [-span * prefix_cells, (span + 1) * prefix_cells].
    offsets_fit = (span + 1) * prefix_cells < 2**63
    # The table has at most one entry per tuple of the first k-1 axes and
    # per partial sum and cell prefix, and is held beside the level it
    # folds from; as arrays it is a code, a cell, a key and a count per
    # entry, and a sort.  The widest last-axis interval's walk holds per
    # rich sum and element a query, a rank and a hit.  Each rich sum's
    # row takes about 320 bytes.  An offset past int64 is a Python int of
    # about 40 bytes behind its 8-byte reference.  Each table entry that
    # an interval's walk visits holds a few arrays; their number is known
    # once the walk has ranked its queries, and charged then.
    tuples = prod(len(B) for B in B_list[:-1])
    item = 8 if offsets_fit else 48
    widest = max(map(len, by_interval.values()))
    entries = min(tuples, (key_top + 1) * prefix_cells)
    folded_from = min(
        tuples // len(B_list[-2]),
        (key_top - max(v for v, _ in axes[-2]) + 1) * (prefix_cells // partition.axes[-2].t),
    )
    walk_bytes = len(wanted) * (widest * (2 * item + 24) + 320) + _CENSUS_BYTES
    table_bytes = (entries + folded_from) * DICT_ENTRY_BYTES + entries * (3 * item + 24)
    choose(
        {"table": (table_bytes + walk_bytes, 0)}, "auto", mem_budget, "lucky census table"
    )

    # The table maps partial sum * cells + cell to its multiplicity, where
    # a cell is the mixed-radix integer of its interval indices on the axes
    # folded so far, and cells is their count.
    table: dict = {0: 1}
    cells = 1
    for axis, ax in zip(axes[:-1], partition.axes):
        cells *= ax.t
        steps = [v * cells + j for v, j in axis]
        folded: dict = {}
        for code, m in table.items():
            head = code * ax.t
            for step in steps:
                key = head + step
                folded[key] = folded.get(key, 0) + m
        table = folded

    import numpy as np

    offset = np.int64 if offsets_fit else object
    # Sorted, the codes of one partial sum s are a run in
    # [s * cells, (s + 1) * cells): a sparse row of its counts per cell.
    codes = np.array(list(table), offset)
    order = np.argsort(codes)
    codes = codes[order]
    counts = np.array(list(table.values()), np.int64)[order]
    cell_of = codes % cells
    keys, first = np.unique(codes // cells, return_index=True)
    first = np.append(first, len(codes))
    base = sum(lows[pair] for pair in pairs)
    scale = den // rep.den
    xs = np.array([x * scale - base for x in rich], offset)
    # A query x - b is ranked through an index table over the keys' span
    # where that span is small against the widest interval's queries and
    # the keys (the rule of numpy's isin for its table).  It holds each
    # key's rank at index key + 1, the queries shifted by 1 to match, and
    # -1 at every other index, one past each end included, which clipping
    # gives every query outside.  At 4 bytes per index that is at most
    # 24 bytes per query and per key, within their charges above: this
    # walk holds 13 bytes per query (a query, a rank and a hit) of the
    # 2 * item + 24 charged, and each key stands for at least one table
    # entry.  Elsewhere, and on Python-int offsets, each query is ranked
    # by searchsorted and compared with the key it lands on.
    rank_of = None
    if offsets_fit and key_top <= 6 * (len(wanted) * widest + len(keys)):
        rank_of = np.full(key_top + 3, -1, np.int32)
        rank_of[keys + 1] = np.arange(len(keys), dtype=np.int32)
        xs += 1
    else:
        # The last key again, so that a rank past the end compares unequal.
        keys = np.append(keys, keys[-1:])
    totals, found, occupied = np.zeros((3, len(wanted)), np.int64)
    held = len(table) * (DICT_ENTRY_BYTES + 3 * item + 24) + walk_bytes
    for last in by_interval.values():
        last = np.array(last, offset)
        if rank_of is not None:
            # A row per rich sum x: the rank of x - b per element b.
            rank = rank_of.take(xs[:, None] - last, mode="clip")
            hit = rank >= 0
        else:
            # A row per element b, each ascending, as searchsorted runs
            # fastest; transposed, a row per rich sum x.
            queries = xs - last[:, None]
            rank = np.searchsorted(keys[:-1], queries).T
            hit = keys[rank] == queries.T
        rank = rank[hit]
        start = first[rank]
        lengths = first[rank + 1] - start
        visits = int(lengths.sum())
        choose(
            {"walk": (held + visits * (2 * item + 64), 0)}, "auto", mem_budget, "lucky census walk"
        )
        # Every table entry of every (x, b) that hits, x by x.
        entry = np.repeat(start + lengths - lengths.cumsum(), lengths)
        entry += np.arange(len(entry))
        owner = np.repeat(hit.nonzero()[0], lengths)
        # Entries of one x in one cell add up to its multiplicity there.
        group = owner.astype(offset) * cells + cell_of[entry]
        order = np.argsort(group, kind="stable")
        head = np.flatnonzero(np.diff(group[order], prepend=-1))
        m = np.add.reduceat(counts[entry[order]], head)
        owner = owner[order[head]]
        np.add.at(totals, owner, m)
        np.add.at(found, owner, m * (m - 1) // 2)
        np.add.at(occupied, owner, 1)
    totals = totals.tolist()

    values = rich
    if rep.den > 1:
        values = [canon(Fraction(x, rep.den)) for x in rich]
    if totals != wanted:
        x, total, n = next(t for t in zip(values, totals, wanted) if t[1] != t[2])
        raise VerificationError(
            f"lucky census found {total} solutions for {x}, "
            f"representation counts {n}"
        )
    k = len(B_list)
    lower = map(sub, wanted, repeat(k * partition.t ** (k - 1)))
    # Rows are built in C: tuple.__new__ of the row class on each tuple.
    rows = zip(values, wanted, found.tolist(), lower, occupied.tolist())
    return list(map(tuple.__new__, repeat(LuckyCensusRow), rows))


def _injective_image(g: FunctionSpec, B: OrderedSet) -> list:
    """[g(b) for b in B], in the order of B; g must be injective on B."""
    image = [evaluate(g, b) for b in B]
    if len(set(image)) != len(image):
        raise DomainError(f"map {g.text()} is not injective on its set")
    return image


# ---------------------------------------------------------------------------
# Generic-hyperplane cell counting and the diagonal cover.


def hyperplane_cell_count(
    boundaries: Sequence[Sequence[Scalar]], C: Scalar
) -> int:
    """Number of grid cells whose interior meets the plane sum(x_i) = C.

    ``boundaries`` holds per-axis sorted cut sequences (t_i + 1 cuts
    make t_i cells).  A cell is crossed iff sum(lower_i) < C <
    sum(upper_i), strictly: touching a corner does not count.  If C
    equals some corner-coordinate sum, it is nudged up by half the
    minimal gap between distinct corner sums so the plane is generic.
    The result never exceeds k * r**(k-1) with r the maximum cell count
    per axis.
    """
    k = len(boundaries)
    if k < 2:
        raise InputError("need at least 2 axes")
    for axis in boundaries:
        if len(axis) < 2:
            raise InputError("each axis needs at least 2 boundary points")
        if any(not a < b for a, b in zip(axis, axis[1:])):
            raise InputError("boundaries must be strictly increasing")

    C = _make_generic(boundaries, C)

    lows = [axis[:-1] for axis in boundaries]
    highs = [axis[1:] for axis in boundaries]
    min_low = [sum(lo[0] for lo in lows[i:]) for i in range(k + 1)]
    max_high = [sum(hi[-1] for hi in highs[i:]) for i in range(k + 1)]

    def rec(axis: int, low_acc: Scalar, high_acc: Scalar) -> int:
        if axis == k:
            return 1 if low_acc < C < high_acc else 0
        if low_acc + min_low[axis] >= C or high_acc + max_high[axis] <= C:
            return 0
        total = 0
        for lo, hi in zip(lows[axis], highs[axis]):
            total += rec(axis + 1, low_acc + lo, high_acc + hi)
        return total

    return rec(0, 0, 0)


def _make_generic(boundaries: Sequence[Sequence[Scalar]], C: Scalar) -> Scalar:
    corner_sums = {0}
    for axis in boundaries:
        corner_sums = {s + b for s in corner_sums for b in axis}
    if C not in corner_sums:
        return C
    ordered = sorted(corner_sums)
    min_gap = min(b - a for a, b in zip(ordered, ordered[1:]))
    return C + Fraction(min_gap, 2)


def diagonal_cover(k: int, r: int) -> list[list[tuple[int, ...]]]:
    """Partition the index grid [r]^k into its r**k - (r-1)**k diagonals.

    Each diagonal starts at a cell with some coordinate equal to 1 and
    steps by (1, ..., 1) while all coordinates stay within [r].  A plane
    sum(x_i) = C crosses the interiors of at most one cell per diagonal,
    which is what caps the crossing count at k * r**(k-1).
    """
    if k < 2 or r < 1:
        raise InputError("need k >= 2 and r >= 1")
    diagonals = []
    for start in product(range(1, r + 1), repeat=k):
        if min(start) != 1:
            continue
        length = r - max(start) + 1
        diagonals.append(
            [tuple(e + a for e in start) for a in range(length)]
        )
    return diagonals
