"""Cell partitions, hyperplane crossing counts, lucky-pair guarantees."""

from __future__ import annotations

import itertools
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from math import lcm

import pytest

from sumsetlab import (
    DomainError,
    InputError,
    OrderedSet,
    ResourceError,
    SparseCounts,
    VerificationError,
    build_partition,
    diagonal_cover,
    gen_interval,
    gen_random_s_convex,
    hyperplane_cell_count,
    lucky_census,
    lucky_pairs_for_sum,
    representation,
)
from sumsetlab import luckypairs
from sumsetlab.convexity import IDENTITY, evaluate, parse_function
from sumsetlab.intmath import ceil_div, ceil_root, iroot
from sumsetlab.luckypairs import (
    LuckyCensusRow,
    TripleSumset,
    cells_per_axis,
    solution_tuples,
    witness_cap,
)
from sumsetlab.families import SplitMix64, generate, parse_family

from conftest import random_integer_set, random_rational_set


class TestIntMath:
    def test_iroot_exhaustive(self):
        for n in range(0, 500):
            for k in (1, 2, 3, 4, 5):
                r = iroot(n, k)
                assert r**k <= n < (r + 1) ** k

    def test_iroot_large(self):
        n = 10**40 + 12345
        r = iroot(n, 3)
        assert r**3 <= n < (r + 1) ** 3

    def test_ceil_root(self):
        assert ceil_root(8, 3) == 2
        assert ceil_root(9, 3) == 3
        assert ceil_root(0, 2) == 0

    def test_ceil_div(self):
        assert ceil_div(7, 2) == 4
        assert ceil_div(8, 2) == 4


class TestCountBetween:
    def test_equal_endpoints(self):
        triple = TripleSumset(gen_interval(5))
        assert triple.count_between(3, 3) == 0

    def test_interval_example(self):
        # [5]+[5]-[5] is the integer interval [-3, 9]
        triple = TripleSumset(gen_interval(5))
        assert triple.count_between(1, 3) == 2

    def test_outside_hull_counts_everything(self):
        triple = TripleSumset(gen_interval(5))
        assert triple.count_between(-100, 100) == 13  # |[-3, 9]| = 13

    def test_order_insensitive(self):
        triple = TripleSumset(gen_interval(5))
        assert triple.count_between(3, 1) == triple.count_between(1, 3)


class TestBuildPartition:
    def test_t_values(self):
        B = gen_interval(16)
        assert build_partition([B, B], 16, 4).t == 4
        assert build_partition([B, B, B], 64, 4).t == 2
        assert cells_per_axis(64, 3, 4) == 2

    def test_exact_roots_in_t(self):
        # t is the least integer with (t*c)**(k-1) >= r
        for k in (2, 3, 4):
            for c in (2, 4):
                for r in range(1, 200):
                    t = cells_per_axis(r, k, c)
                    assert (t * c) ** (k - 1) >= r
                    assert t == 1 or ((t - 1) * c) ** (k - 1) < r

    def test_degenerate_flag(self):
        B = gen_interval(8)
        part = build_partition([B, B], 2, 4)
        assert part.degenerate and part.t == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_degenerate_grid_has_one_cell_per_axis(self, k):
        # For r < c**(k-1), ceil(r**(1/(k-1))) <= c, so t = 1 with no
        # special case for the degenerate partition.
        for c in range(1, 9):
            assert all(cells_per_axis(r, k, c) == 1 for r in range(1, c ** (k - 1)))

    def test_intervals_match_the_midpoint_cuts(self, rng):
        # The intervals were once found by bisecting the midpoints between
        # chunk boundaries of B+B-B; every element of B+B-B, which is all
        # the lab looks up, keeps its interval under the rank rule.  The
        # oracle compares 2 * den * v with the sum of the boundary pair
        # over den, the exact midpoint rule in integers.
        sets = [
            random_integer_set(rng, rng.next_in(1, 30), spread=50) for _ in range(6)
        ]
        for _ in range(4):
            # Rationals over one denominator, shifted off the integers.
            ints = random_integer_set(rng, rng.next_in(1, 30), spread=30)
            sets.append(OrderedSet([Fraction(v, 3) + Fraction(1, 7) for v in ints]))
        sets += [
            random_rational_set(rng, rng.next_in(1, 6), spread=20) for _ in range(4)
        ]
        for B in sets:
            values = TripleSumset(B).values
            den = lcm(*(Fraction(v).denominator for v in values))
            scaled = [int(v * den) for v in values]
            m = len(values)
            for t in range(1, m + 3):
                axis = build_partition([B, B], t, 1).axes[0]
                chunk = ceil_div(m, min(t, m))
                cuts = [scaled[j - 1] + scaled[j] for j in range(chunk, m, chunk)]
                assert axis.t == len(cuts) + 1
                assert [axis.interval_index(v) for v in values] == [
                    bisect_left(cuts, 2 * v) for v in scaled
                ]

    def test_capacity_invariant(self):
        B = gen_random_s_convex(24, 1, 3, 5)
        for r in (4, 8, 16, 32):
            part = build_partition([B, B], r, 4)
            cap = witness_cap(len(part.axes[0].sumset), r, 2, 4)
            for ax in part.axes:
                values = ax.sumset.values
                per_interval: dict[int, int] = {}
                for v in values:
                    idx = ax.interval_index(v)
                    per_interval[idx] = per_interval.get(idx, 0) + 1
                assert max(per_interval.values()) <= cap

    def test_needs_two_axes(self):
        with pytest.raises(InputError):
            build_partition([gen_interval(4)], 4, 4)

    def test_witness_cap_exact(self):
        # least q with q**(k-1) * r >= (c*M)**(k-1)
        for k in (2, 3, 4):
            for m in (5, 17, 40):
                for r in (1, 3, 9, 27):
                    q = witness_cap(m, r, k, 4)
                    assert q ** (k - 1) * r >= (4 * m) ** (k - 1)
                    assert q == 0 or (q - 1) ** (k - 1) * r < (4 * m) ** (k - 1)


class TestSolutionTuples:
    def test_simple_pair(self):
        A = OrderedSet([1, 2, 3, 4])
        sols = solution_tuples([A, A], [IDENTITY, IDENTITY], 5)
        assert sorted(sols) == [(1, 4), (2, 3), (3, 2), (4, 1)]

    def test_counts_match_representation(self):
        A = gen_random_s_convex(12, 1, 5, 4)
        rep = representation([A, A])
        for x, c in rep.items():
            assert len(solution_tuples([A, A], [IDENTITY, IDENTITY], x)) == c

    def test_three_axes(self):
        A = gen_interval(3)
        sols = solution_tuples([A] * 3, [IDENTITY] * 3, 6)
        assert len(sols) == 7

    def test_every_axis_must_be_injective(self):
        # x**2 takes the value 1 twice on the first axis.
        B_list = [OrderedSet([-1, 1, 2]), OrderedSet([1, 2, 3])]
        g_list = [parse_function("poly:0,0,1"), parse_function("pow:1")]
        errors = []
        for call in (
            lambda: solution_tuples(B_list, g_list, 3),
            lambda: lucky_census(B_list, g_list, 1),
        ):
            with pytest.raises(DomainError) as info:
                call()
            errors.append(str(info.value))
        assert errors == ["map poly:0,0,1 is not injective on its set"] * 2


class TestLuckyPairs:
    def test_unrepresentable_sum(self):
        A = gen_interval(4)
        with pytest.raises(InputError):
            lucky_pairs_for_sum([A, A], [IDENTITY, IDENTITY], 100, 2)

    def test_degenerate_returns_all_pairs(self):
        A = gen_interval(5)
        # x = 6 has r_x = 5; r=2 < c**(k-1) = 4 degenerates to one cell
        pairs = lucky_pairs_for_sum([A, A], [IDENTITY, IDENTITY], 6, 2)
        assert len(pairs) == 5 * 4 // 2

    def test_pigeonhole_guarantee_and_recheck(self):
        c = 4
        for seed in range(5):
            B = gen_random_s_convex(48, 1, seed, 3)
            rep = representation([B, B])
            triple = TripleSumset(B)
            partitions = {}  # one GridPartition per dyadic class r
            for x, r_x in rep.items():
                j = r_x.bit_length() - 1
                r = 2**j
                if r < c:  # degenerate classes carry no guarantee
                    continue
                if r not in partitions:
                    partitions[r] = build_partition([B, B], r, c)
                pairs = lucky_pairs_for_sum(
                    [B, B], [IDENTITY] * 2, x, r, c, partition=partitions[r]
                )
                t = cells_per_axis(r, 2, c)
                assert len(pairs) >= r_x - 2 * t
                cap = witness_cap(len(triple), r, 2, c)
                for pair in pairs:
                    assert pair.left != pair.right
                    assert sum(pair.left) == sum(pair.right) == x
                    for b, bp, w in zip(pair.left, pair.right, pair.witnesses):
                        n = triple.count_between(b, bp)  # independent recount
                        assert n == w
                        assert n <= cap

    def test_interval_base_witness_is_index_gap(self):
        # For B = [N] the triple sumset is a full integer interval, so the
        # witness equals the plain index distance.
        n = 32
        B = gen_interval(n)
        rep = representation([B, B])
        x = max(rep.items(), key=lambda vc: vc[1])[0]
        r_x = rep.count_of(x)
        r = 2 ** (r_x.bit_length() - 1)
        pairs = lucky_pairs_for_sum([B, B], [IDENTITY] * 2, x, r, 4)
        cap = witness_cap(3 * n - 2, r, 2, 4)
        assert pairs
        for pair in pairs:
            for b, bp, w in zip(pair.left, pair.right, pair.witnesses):
                assert w == abs(b - bp)
                assert w <= cap

    def test_census_rows(self):
        B = gen_random_s_convex(32, 1, 9, 3)
        rows = lucky_census([B, B], [IDENTITY] * 2, 4)
        rep = representation([B, B])
        for row in rows:
            assert 4 <= row.r_x < 8
            assert row.r_x == rep.count_of(row.x)
            assert row.pairs_found >= row.lower_bound
            assert row.pairs_found >= row.r_x - row.occupied_cells


def _census_by_tuples(B_list, g_list, r, c):
    """Reference census: list every sum's solution tuples and bucket them
    by cell, one sum at a time."""
    images = [
        OrderedSet(sorted(evaluate(g, b) for b in B)) for g, B in zip(g_list, B_list)
    ]
    rep = representation(images)
    partition = build_partition(B_list, r, c)
    k = len(B_list)
    guarantee_cells = k * partition.t ** (k - 1)
    rows = []
    for x, count in rep.items():
        if not r <= count < 2 * r:
            continue
        groups: dict[tuple[int, ...], int] = {}
        for sol in solution_tuples(B_list, g_list, x):
            cell = partition.cell_of(sol)
            groups[cell] = groups.get(cell, 0) + 1
        found = sum(m * (m - 1) // 2 for m in groups.values())
        rows.append(
            LuckyCensusRow(x, count, found, count - guarantee_cells, len(groups))
        )
    return rows


# (map, base family, k values): integer, rational-image, decreasing,
# rational-domain and root maps, and images past int64: shifted by
# 2**63 - 1, whose offsets fit in int64, and scaled by it, whose do not.
_CENSUS_CASES = [
    ("pow:1", "rsc:n=10,s=1,seed=3,gap=3", (2, 3, 4)),
    ("poly:0,1/3,1/7", "rsc:n=7,s=1,seed=5,gap=2", (2, 3, 4)),
    ("poly:0,-1", "rsc:n=10,s=2,seed=7,gap=2", (2, 3, 4)),
    ("pow:2", "ap:n=8,base=1/2,step=1/2", (2, 3, 4)),
    ("root:2", "power:n=12,m=2", (2, 3)),
    ("poly:9223372036854775807,1", "rsc:n=10,s=1,seed=3,gap=3", (2, 3, 4)),
    ("poly:0,9223372036854775807", "rsc:n=10,s=1,seed=3,gap=3", (2, 3, 4)),
]


class TestCensusDifferential:
    @pytest.mark.parametrize("g_text,family,ks", _CENSUS_CASES)
    def test_matches_per_sum_enumeration(self, g_text, family, ks):
        # Under dense the census reads its rich class from a count array,
        # under mitm from a kept dict.  Images scaled past int64 span more
        # than any dense fold's budget.
        algos = ["auto", "mitm"]
        if g_text != "poly:0,9223372036854775807":
            algos.append("dense")
        B = generate(parse_family(family, 0))
        g = parse_function(g_text)
        for k in ks:
            rows_seen = 0
            # r = 1 and 2 are degenerate for c = 4 (r < c**(k-1)); 10**6
            # is a class with no rich sums.
            for c in (1, 4):
                for r in (1, 2, 4, 8, 16, 10**6):
                    want = _census_by_tuples([B] * k, [g] * k, r, c)
                    for algo in algos:
                        got = lucky_census([B] * k, [g] * k, r, c, algo=algo)
                        assert got == want, (k, c, r, algo)
                        # A plain tuple equals its row, but would render
                        # as a JSON list.
                        assert all(type(row) is LuckyCensusRow for row in got)
                    rows_seen += len(got)
            assert rows_seen > 0

    def test_distinct_sets_per_axis(self):
        B1 = generate(parse_family("rsc:n=9,s=1,seed=1,gap=3", 0))
        B2 = generate(parse_family("ap:n=7,base=1/2,step=1/3", 0))
        B3 = generate(parse_family("power:n=8,m=2", 0))
        g_list = [IDENTITY, parse_function("poly:0,2"), parse_function("poly:1,-1")]
        for r in (2, 4, 8):
            for c in (1, 4):
                want = _census_by_tuples([B1, B2, B3], g_list, r, c)
                assert lucky_census([B1, B2, B3], g_list, r, c) == want

    def test_equal_axes_share_one_partition(self):
        B = gen_random_s_convex(12, 1, 2, 3)
        part = build_partition([B] * 3, 8, 4)
        assert part.axes[0] is part.axes[1] is part.axes[2]

    def test_budget_covers_representation(self):
        B = gen_random_s_convex(34, 1, 1, 4)
        with pytest.raises(ResourceError):
            lucky_census([B] * 3, [IDENTITY] * 3, 16, mem_budget=1000)
        with pytest.raises(ResourceError):
            lucky_census(
                [B] * 3, [IDENTITY] * 3, 16, algo="naive", mem_budget=100000
            )

    def test_budget_covers_table(self):
        # Representation and triple sumset need a few kB; the census of
        # 6**3 tuples, in one cell, charges 27 * DICT_ENTRY_BYTES for its
        # table (16 partial sums, and the 11 of the level it folds from)
        # and about 18 kB for the rest.
        B = gen_interval(6)
        assert lucky_census([B] * 4, [IDENTITY] * 4, 8, mem_budget=200000)
        with pytest.raises(ResourceError, match="lucky census table"):
            lucky_census([B] * 4, [IDENTITY] * 4, 8, mem_budget=20000)

    def test_count_mismatch_raises(self, monkeypatch):
        real = luckypairs.representation

        def inflated(sets, **kwargs):
            rep = real(sets, **kwargs)
            return SparseCounts(rep.values, [c + 1 for c in rep.counts])

        monkeypatch.setattr(luckypairs, "representation", inflated)
        B = gen_interval(8)
        with pytest.raises(VerificationError):
            lucky_census([B, B], [IDENTITY] * 2, 2)

    @pytest.mark.parametrize(
        "k, r, c, message",
        [
            (1, 2, 4, "cell partitions need at least 2 axes"),
            (2, 0, 4, "r and c must be positive"),
            (2, 2, 0, "r and c must be positive"),
        ],
        ids=["one_axis", "r_zero", "c_zero"],
    )
    def test_bad_grid_is_rejected_before_any_work(
        self, monkeypatch, k, r, c, message
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(luckypairs, "representation", no_work)
        monkeypatch.setattr(luckypairs, "evaluate", no_work)
        B = gen_interval(8)
        with pytest.raises(InputError, match=f"^{message}$"):
            lucky_census([B] * k, [IDENTITY] * k, r, c)

    def test_map_not_injective(self):
        B = OrderedSet([-2, -1, 0, 1, 2])
        with pytest.raises(DomainError) as info:
            lucky_census([B, B], [parse_function("poly:0,0,1")] * 2, 2)
        assert "poly:0,0,1 is not injective" in str(info.value)


class TestCensusRankPath:
    # Each query x - b is ranked through an index table over the partial
    # sums' span where that span is small against the queries and int64
    # holds every offset, and by searchsorted elsewhere.
    @pytest.mark.parametrize(
        "g_text, family, k, r, c, searches",
        [
            ("pow:1", "rsc:n=34,s=1,seed=0,gap=4", 3, 16, 4, False),
            ("pow:1", "interval:n=200", 2, 100, 1, False),  # t = 100
            # Offsets past int64: Python ints.
            ("poly:0,9223372036854775807", "rsc:n=10,s=1,seed=3,gap=3", 3, 4, 4, True),
            # A key span of 22,828 against 12 keys and 66 rich sums.
            ("pow:1", "rsc:n=12,s=3,seed=0,gap=64", 2, 2, 1, True),
        ],
        ids=["lucky_k3", "many_cells", "python_ints", "wide_span"],
    )
    def test_path_taken(self, monkeypatch, g_text, family, k, r, c, searches):
        import numpy as np

        calls = []
        real = np.searchsorted

        def spy(*args, **kwargs):
            calls.append(len(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", spy)
        B = generate(parse_family(family, 0))
        g = parse_function(g_text)
        rows = lucky_census([B] * k, [g] * k, r, c)
        assert rows and bool(calls) is searches
        assert rows == _census_by_tuples([B] * k, [g] * k, r, c)


class TestCensusLargeGrid:
    # Many cells per axis: each partial sum sits in one of t**(k-1) cell
    # prefixes, and most last-axis intervals hold one or two elements.
    @pytest.mark.parametrize(
        "g_text, family, k, r",
        [
            ("pow:1", "interval:n=200", 2, 100),  # t = 100
            ("poly:0,9223372036854775807", "interval:n=200", 2, 100),
            ("poly:1/2,1/3", "interval:n=120", 2, 48),  # t = 48
            ("pow:1", "interval:n=30", 3, 256),  # t = 16
        ],
    )
    def test_matches_per_sum_enumeration(self, g_text, family, k, r):
        B = generate(parse_family(family, 0))
        g = parse_function(g_text)
        want = _census_by_tuples([B] * k, [g] * k, r, 1)
        assert want and lucky_census([B] * k, [g] * k, r, 1) == want


class TestCensusMemory:
    @pytest.mark.parametrize(
        "family, k, r, c",
        [
            ("rsc:n=34,s=3,seed=0,gap=64", 3, 4, 4),  # t = 1
            ("rsc:n=34,s=1,seed=0,gap=4", 3, 16, 4),  # t = 1
            ("rsc:n=34,s=1,seed=0,gap=4", 3, 17, 4),  # t = 2
            ("interval:n=400", 2, 200, 1),  # t = 200
            ("rsc:n=10,s=1,seed=0,gap=4", 5, 256, 2),  # t = 2, 16 cells a key
            ("rsc:n=20,s=1,seed=0,gap=4", 4, 200, 2),  # t = 3
        ],
    )
    def test_peak_within_table_charge(self, monkeypatch, family, k, r, c):
        # What the census allocates from each budget row to the next (or
        # to its end) stays within that row's bytes: the table's row
        # covers the table's build and the first interval's queries, and
        # each interval's walk row, charged once its visits are counted,
        # covers that walk.  The largest charge is at most four times the
        # census's peak.
        import numpy  # noqa: F401  (imported before tracing starts)

        real_choose = luckypairs.choose
        charged, peaks = [], []

        def charge(plans, algo, mem_budget, what):
            if what.startswith("lucky census"):
                ((bytes_, _),) = plans.values()
                # What the census holds at its first row, then each
                # row's peak as the next one comes.
                current, peak = tracemalloc.get_traced_memory()
                peaks.append(peak if charged else current)
                charged.append(bytes_)
                tracemalloc.reset_peak()
            return real_choose(plans, algo, mem_budget, what)

        monkeypatch.setattr(luckypairs, "choose", charge)
        B = generate(parse_family(family, 0))
        tracemalloc.start()
        try:
            rows = lucky_census([B] * k, [IDENTITY] * k, r, c)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        held, peaks = peaks[0], [peak - peaks[0] for peak in peaks[1:]]
        assert rows and len(charged) >= 2, charged
        assert all(p <= c for p, c in zip(peaks, charged)), (peaks, charged, held)
        assert max(charged) <= 4 * max(peaks), (peaks, charged)


def _enumerate_cells(boundaries, C):
    """Flat oracle: test every cell of the grid for interior crossing."""
    k = len(boundaries)
    count = 0
    for combo in itertools.product(*(range(len(b) - 1) for b in boundaries)):
        lo = sum(boundaries[i][combo[i]] for i in range(k))
        hi = sum(boundaries[i][combo[i] + 1] for i in range(k))
        if lo < C < hi:
            count += 1
    return count


class TestHyperplane:
    def test_uniform_3x3(self):
        b = [[0, 1, 2, 3], [0, 1, 2, 3]]
        assert hyperplane_cell_count(b, Fraction(7, 2)) == 5

    def test_below_everything(self):
        b = [[0, 1, 2], [0, 1, 2]]
        assert hyperplane_cell_count(b, -10) == 0

    def test_two_by_two_never_exceeds_three(self):
        b = [[0, 1, 2], [0, 1, 2]]
        for c_num in range(1, 16):
            C = Fraction(c_num, 4)
            got = hyperplane_cell_count(b, C)
            assert got <= 3
            assert got == _enumerate_cells(b, _nudge(b, C))

    def test_corner_tie_is_perturbed(self):
        b = [[0, 1, 2], [0, 1, 2]]
        # C = 2 passes exactly through the center corner: nudged to 2 + eps
        assert hyperplane_cell_count(b, 2) == _enumerate_cells(b, Fraction(9, 4))

    def test_random_grids_match_oracle_and_bound(self):
        rng = SplitMix64(31337)
        for k in (2, 3, 4):
            for r in (2, 3, 5):
                for _ in range(8):
                    boundaries = []
                    for _ in range(k):
                        cuts = set()
                        while len(cuts) < r + 1:
                            cuts.add(rng.next_in(-50, 50))
                        boundaries.append(sorted(cuts))
                    for _ in range(4):
                        C = Fraction(rng.next_in(-150, 150), 2)
                        got = hyperplane_cell_count(boundaries, C)
                        assert got == _enumerate_cells(boundaries, _nudge(boundaries, C))
                        assert got <= k * r ** (k - 1)

    def test_input_validation(self):
        with pytest.raises(InputError):
            hyperplane_cell_count([[0, 1]], 1)
        with pytest.raises(InputError):
            hyperplane_cell_count([[0, 1], [1, 0]], 1)
        with pytest.raises(InputError):
            hyperplane_cell_count([[0], [0, 1]], 1)


def _nudge(boundaries, C):
    from sumsetlab.luckypairs import _make_generic

    return _make_generic(boundaries, C)


class TestDiagonalCover:
    def test_small_cases(self):
        assert diagonal_cover(2, 1) == [[(1, 1)]]
        cover = diagonal_cover(2, 2)
        assert sorted(map(tuple, cover)) == [
            ((1, 1), (2, 2)),
            ((1, 2),),
            ((2, 1),),
        ]
        assert len(diagonal_cover(2, 3)) == 5

    def test_partitions_exactly(self):
        for k in (2, 3, 4):
            for r in range(1, 7):
                cover = diagonal_cover(k, r)
                assert len(cover) == r**k - (r - 1) ** k
                seen = [cell for diag in cover for cell in diag]
                assert len(seen) == r**k
                assert set(seen) == set(
                    itertools.product(range(1, r + 1), repeat=k)
                )

    def test_diagonal_steps(self):
        for diag in diagonal_cover(3, 4):
            assert min(diag[0]) == 1
            for a, b in zip(diag, diag[1:]):
                assert tuple(x + 1 for x in a) == b


class TestFewValuesProperty:
    def test_exhaustive_small_sets(self, rng):
        # If at most Z triple-sumset elements lie in (b', b], then b - b'
        # is among the Z smallest positive differences of B.
        for _ in range(12):
            B = random_integer_set(rng, rng.next_in(2, 12), spread=50)
            triple = TripleSumset(B)
            diffs = sorted({b - a for a in B for b in B if b > a})
            for i, bp in enumerate(B):
                for b in B.elements[i + 1 :]:
                    z = triple.count_between(bp, b)
                    assert b - bp in diffs[:z]
