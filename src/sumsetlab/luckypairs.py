"""Cell decompositions of triple sumsets and lucky-pair enumeration.

Setting: sets B_1..B_k with monotone maps g_i, image sets A_i = g_i(B_i),
and a richness level r.  Each axis partitions its triple sumset
B_i + B_i - B_i into t = ceil(r**(1/(k-1)) / c) intervals of near-equal
element count; the product boxes are the *cells*.  Two distinct solution
tuples of g_1(b_1) + ... + g_k(b_k) = x form a *lucky pair* when they
produce the same sum x and, on every axis, few triple-sumset elements
separate them: n_{B_i}(b_i, b_i') <= ceil(c * |B_i+B_i-B_i| / r**(1/(k-1))).
Tuples sharing a cell always qualify, and a sum with r_x solutions yields
at least r_x minus the number of occupied cells such pairs — at least
r_x - k * t**(k-1), because the solution hyperplane meets at most
k * t**(k-1) cells of a t x ... x t grid.

All index arithmetic (t, the witness cap) uses exact integer roots,
never floating point, so results reproduce across platforms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .convexity import FunctionSpec, evaluate
from .core import DICT_ENTRY_BYTES, OrderedSet, Scalar, canon
from .engine import choose, representation, signed_sumset
from .errors import DomainError, InputError, VerificationError
from .intmath import ceil_div, ceil_root


class TripleSumset:
    """B + B - B with half-open interval counting by binary search."""

    __slots__ = ("values",)

    def __init__(self, B: OrderedSet, *, mem_budget: int | None = None) -> None:
        triple = signed_sumset([B, B, B], (1, 1, -1), mem_budget=mem_budget)
        self.values = triple.elements

    def __len__(self) -> int:
        return len(self.values)

    def count_between(self, b: Scalar, b_prime: Scalar) -> int:
        """Elements of B+B-B in the half-open interval (lo, hi], where lo
        and hi are the smaller and the larger endpoint: the order of the
        endpoints does not matter, and equal endpoints count 0."""
        lo, hi = min(b, b_prime), max(b, b_prime)
        return bisect_right(self.values, hi) - bisect_right(self.values, lo)


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
    """One axis of a grid: its triple sumset and t interval cut points.

    The t intervals are (cut[j-1], cut[j]] with implicit infinite outer
    cuts; interior cuts sit strictly between consecutive sumset elements
    so no element ever lies on a boundary.
    """

    sumset: TripleSumset
    cuts: tuple
    t: int

    def interval_index(self, value: Scalar) -> int:
        return bisect_left(self.cuts, value)


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
    """Partition each B_i + B_i - B_i into t near-equal chunks.

    Axes over equal sets share one AxisPartition, so each distinct
    triple sumset is built once.  For r < c**(k-1) the partition
    degenerates to a single cell per axis and is returned with the
    ``degenerate`` flag set instead of raising.
    """
    k = len(B_list)
    _check_grid(k, r, c)
    degenerate = r < c ** (k - 1)
    t = 1 if degenerate else cells_per_axis(r, k, c)
    by_set: dict[OrderedSet, AxisPartition] = {}
    for B in B_list:
        if B in by_set:
            continue
        triple = TripleSumset(B, mem_budget=mem_budget)
        values = triple.values
        m = len(values)
        tt = min(t, m)
        chunk = ceil_div(m, tt)
        cuts = []
        for j in range(chunk, m, chunk):
            prev, nxt = values[j - 1], values[j]
            cuts.append(canon(Fraction(prev + nxt, 2)))
        by_set[B] = AxisPartition(triple, tuple(cuts), len(cuts) + 1)
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
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                left, right = members[i], members[j]
                witnesses = tuple(
                    ax.sumset.count_between(a, b)
                    for ax, a, b in zip(partition.axes, left, right)
                )
                pairs.append(LuckyPair(left, right, witnesses))
    return pairs


@dataclass(frozen=True)
class LuckyCensusRow:
    """Per-sum census: found pairs vs. the pigeonhole guarantee."""

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

    Each g_i is evaluated once on B_i, and each element's interval index
    is looked up once.  The first k-1 axes are folded into one table
    mapping each partial sum to {cell prefix: multiplicity}; each rich
    sum x then walks the last axis and looks up x - g_k(b_k) in it, so
    no solution tuple is ever listed.  The multiplicities found for x
    must add up to r_x from ``representation``, or VerificationError is
    raised (always on).  The table's memory, prod_{i<k} |B_i| entries,
    is estimated against the budget before it is built (ResourceError).

    The lower bound column is r_x - k * t**(k-1), the hyperplane-based
    guarantee (may be negative for thin sums; found pairs always meet it).
    ``algo`` selects the algorithm of the representation; ``mem_budget``
    covers it, the triple sumsets and the table.
    """
    if len(B_list) != len(g_list):
        raise InputError("need one function per set")
    _check_grid(len(B_list), r, c)
    images = [_injective_image(g, B) for g, B in zip(g_list, B_list)]
    rep = representation(
        [OrderedSet(sorted(image)) for image in images],
        algo=algo,
        mem_budget=mem_budget,
    )
    partition = build_partition(B_list, r, c, mem_budget=mem_budget)
    rich = [(x, count) for x, count in rep.items() if r <= count < 2 * r]
    if not rich:
        return []
    table_bytes = prod(len(B) for B in B_list[:-1]) * DICT_ENTRY_BYTES
    choose({"table": (table_bytes, 0)}, "auto", mem_budget, "lucky census table")

    # Per axis: (g_i(b), interval index of b) for every b in B_i.
    axes = [
        list(zip(image, map(ax.interval_index, B)))
        for image, ax, B in zip(images, partition.axes, B_list)
    ]
    # A cell is encoded as the mixed-radix integer of its interval indices.
    table: dict = {0: {0: 1}}
    for axis, ax in zip(axes[:-1], partition.axes):
        folded: dict = {}
        for s, cells in table.items():
            for v, j in axis:
                bucket = folded.setdefault(s + v, {})
                for cell, m in cells.items():
                    key = cell * ax.t + j
                    bucket[key] = bucket.get(key, 0) + m
        table = folded

    k = len(B_list)
    t_last = partition.axes[-1].t
    guarantee_cells = k * partition.t ** (k - 1)
    rows = []
    for x, count in rich:
        groups: dict[int, int] = {}
        for v, j in axes[-1]:
            cells = table.get(x - v)
            if cells is None:
                continue
            for cell, m in cells.items():
                key = cell * t_last + j
                groups[key] = groups.get(key, 0) + m
        total = sum(groups.values())
        if total != count:
            raise VerificationError(
                f"lucky census found {total} solutions for {x}, "
                f"representation counts {count}"
            )
        found = sum(m * (m - 1) // 2 for m in groups.values())
        rows.append(
            LuckyCensusRow(x, count, found, count - guarantee_cells, len(groups))
        )
    return rows


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
    import itertools

    diagonals = []
    for start in itertools.product(range(1, r + 1), repeat=k):
        if min(start) != 1:
            continue
        length = r - max(start) + 1
        diagonals.append(
            [tuple(e + a for e in start) for a in range(length)]
        )
    return diagonals
