"""Engine tests: representation modes, energies, spectra, popular class."""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    InputError,
    OrderedSet,
    ResourceError,
    SparseCounts,
    SplitMix64,
    VerificationError,
    doubling,
    energy_T,
    energy_cross,
    gen_interval,
    gen_power,
    gen_random_s_convex,
    popular_dyadic_class,
    representation,
    signed_sumset,
    spectrum,
    verification,
)
from sumsetlab import core, engine, kernels
from sumsetlab.bounds import verify_bound
from sumsetlab.core import DEFAULT_MEMORY_BUDGET, common_ints, mass_of_squares, moment_sum
from sumsetlab.engine import check_popular_bound, rich_tail, spectrum_of
from sumsetlab.convexity import IDENTITY
from sumsetlab.families import generate, parse_family
from sumsetlab.luckypairs import TripleSumset, build_partition, lucky_pairs_for_sum
from sumsetlab import lucky_census

from conftest import (
    brute_force_T,
    brute_force_T_literal,
    brute_force_representation,
    random_integer_set,
    random_rational_set,
)


class TestRepresentation:
    def test_pair_of_two(self):
        rep = representation([gen_interval(2), gen_interval(2)])
        assert dict(rep.items()) == {2: 1, 3: 2, 4: 1}

    def test_triple_of_three(self):
        rep = representation([gen_interval(3)] * 3)
        assert dict(rep.items()) == {3: 1, 4: 3, 5: 6, 6: 7, 7: 6, 8: 3, 9: 1}

    def test_single_set(self):
        A = OrderedSet([1, 4, 9])
        rep = representation([A])
        assert dict(rep.items()) == {1: 1, 4: 1, 9: 1}
        with pytest.raises(InputError, match="need at least one set"):
            representation([])

    def test_modes_agree_integer(self, rng):
        for _ in range(15):
            k = rng.next_in(2, 4)
            sets = [
                random_integer_set(rng, rng.next_in(1, 7), spread=50)
                for _ in range(k)
            ]
            reps = {
                algo: representation(sets, algo=algo)
                for algo in ("naive", "mitm", "dense")
            }
            assert reps["naive"] == reps["mitm"] == reps["dense"]
            assert dict(reps["naive"].items()) == brute_force_representation(sets)
        # Eight copies of one set: mitm splits the root, and each half of
        # four copies squares an unsorted multiset Counter, whose
        # self-join meets diagonal keys that are already present.
        sets = [gen_random_s_convex(12, 1, 2, 2)] * 8
        assert representation(sets, algo="mitm") == representation(
            sets, algo="dense"
        )

    def test_modes_agree_rational(self, rng):
        for _ in range(8):
            sets = [random_rational_set(rng, rng.next_in(1, 6)) for _ in range(2)]
            naive = representation(sets, algo="naive")
            mitm = representation(sets, algo="mitm")
            dense = representation(sets, algo="dense")
            assert naive == mitm == dense

    def test_dense_runs_on_rationals(self):
        # The fold runs on the ints over the common denominator 2, {1, 2}.
        A = OrderedSet([Fraction(1, 2), 1])
        rep = representation([A, A], algo="dense")
        assert dict(rep.items()) == {1: 1, Fraction(3, 2): 2, 2: 1}
        assert rep.den == 2 and rep == representation([A, A], algo="mitm")

    def test_signs(self):
        A = gen_interval(3)
        rep = representation([A, A], signs="+-")
        assert dict(rep.items()) == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}
        with pytest.raises(InputError, match=r"signs must be \+1 or -1"):
            engine.parse_signs([1, 2], 2)

    def test_budget_exceeded(self):
        A = gen_power(64, 3)
        with pytest.raises(ResourceError) as exc:
            representation([A] * 4, mem_budget=10_000)
        assert exc.value.estimated_bytes > exc.value.budget_bytes

    def test_explicit_algo_budget(self):
        A = gen_power(32, 2)
        with pytest.raises(ResourceError):
            representation([A] * 3, algo="naive", mem_budget=1_000)
        with pytest.raises(InputError, match="unknown algorithm 'fast'"):
            representation([A], algo="fast")

    def test_mass_is_product(self, rng):
        sets = [random_integer_set(rng, rng.next_in(1, 6)) for _ in range(3)]
        rep = representation(sets)
        assert rep.mass == len(sets[0]) * len(sets[1]) * len(sets[2])

    @pytest.mark.parametrize("algo", ["auto", "naive", "mitm", "dense"])
    def test_builds_one_container(self, monkeypatch, algo):
        # Each result is kept through SparseCounts._result, which never
        # calls the checked constructor: past int64 and at the object
        # width neither.
        built, checked = [], []
        keep, init = SparseCounts._result, SparseCounts.__init__

        def counting(cls, values, counts, den):
            built.append(keep(values, counts, den))
            return built[-1]

        def checking(self, *args, **kwargs):
            checked.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SparseCounts, "_result", classmethod(counting))
        monkeypatch.setattr(SparseCounts, "__init__", checking)
        A = gen_interval(5)
        R = OrderedSet([Fraction(-1, 3), Fraction(1, 2), 2])
        cases = [([A] * k, "+" * k) for k in (2, 3, 4, 5)]
        cases += [([A, A, A], "-+-"), ([A, A, A, A], "+-+-")]
        cases += [([A, R, A], "+-+"), ([R] * 4, "----")]
        B = OrderedSet([2**62 + Fraction(1, 3), 2**62 + Fraction(2, 3)])
        cases += [([B, B], "++")]
        if algo != "naive":  # 2**67 tuples
            cases += [([OrderedSet([0, 1])] * 67, "+" * 67)]
        for sets, signs in cases:
            built.clear()
            rep = representation(sets, signs=signs, algo=algo)
            assert len(built) == 1 and built[0] is rep, (sets, signs)
        assert checked == []

    def test_results_skip_the_constructor_checks(self, monkeypatch):
        # Kernel and fold results are kept as produced: with the
        # constructor's checks raising, every algorithm still returns the
        # same result, on integer and rational sets and past int64, and so
        # does convolve.  Public construction still checks.
        A = gen_interval(5)
        R = OrderedSet([Fraction(-1, 3), Fraction(1, 2), 2])
        B = OrderedSet([2**62 + Fraction(1, 3), 2**62 + Fraction(2, 3)])
        cases = [[A] * 3, [A, R, A], [R] * 4]
        algos = ("auto", "naive", "mitm", "dense")
        want = [representation(sets, algo=a) for sets in cases for a in algos]
        want_past = representation([B, B], algo="mitm")
        p, q = representation([A, R]), representation([R] * 3, algo="mitm")
        want_pq = core.convolve(p, q)

        class Checked(Exception):
            pass

        def raising(*args):
            raise Checked

        for name in ("_canonical", "_increasing_canon", "_integer_counts"):
            monkeypatch.setattr(core, name, raising)
        got = [representation(sets, algo=a) for sets in cases for a in algos]
        assert got == want
        assert core.convolve(p, q) == want_pq
        assert representation([B, B], algo="dense") == want_past
        with pytest.raises(Checked):
            SparseCounts([1], [1])
        with pytest.raises(Checked):
            SparseCounts({1: 1})

    def test_mitm_tree_caps_integer_subtrees(self):
        # [Z, Z] is integer-valued: its 100 * 100 pairs give at most the
        # 199 sums 0..198.  With Q the tree is rational, so the final join
        # is charged all 199 * 20 pairs: 120 bytes each.
        Z = gen_interval(100)
        Q = OrderedSet([Fraction(i, 3) for i in range(1, 40, 2)])
        with pytest.raises(ResourceError) as exc:
            representation([Z, Z, Q], algo="mitm", mem_budget=1000)
        assert exc.value.estimated_bytes == 199 * 20 * 120

    @pytest.mark.parametrize(
        "kernel",
        ["self_sum_counts", "convolve_integer", "_rep_naive", "_rep_dense",
         "self_sum_classes"],
    )
    def test_mass_is_checked_outside_verification(self, monkeypatch, kernel):
        # The result loses one entry: a kernel's or naive's count dict drops
        # it, the dense fold's count array zeroes its cell, the energy walk
        # drops it from its first class dict.  The mass is the only check on
        # a kept result, and representation (energy_T for the energy walk)
        # raises in a normal run, without verification().
        module = engine if kernel.startswith("_rep") else kernels
        real = getattr(module, kernel)
        calls = []

        def lose_first_entry(*args):
            calls.append(kernel)
            result = real(*args)
            if kernel == "_rep_dense":
                counts = result[1]
                counts[np.flatnonzero(counts)[0]] = 0
            else:
                counts = result[0][0] if kernel == "self_sum_classes" else result
                del counts[next(iter(counts))]
            return result

        monkeypatch.setattr(module, kernel, lose_first_entry)
        A = gen_random_s_convex(12, 3, 1, 64)
        sets = [A] * 4 if kernel.startswith("self_sum") else [A, gen_power(9, 2)]
        algo = {"_rep_naive": "naive", "_rep_dense": "dense"}.get(kernel, "mitm")
        run = energy_T if kernel == "self_sum_classes" else representation
        with pytest.raises(VerificationError, match="representation mass"):
            run(sets, algo=algo)
        assert calls == [kernel]

    @pytest.mark.parametrize("k", [62, 63, 64, 70])
    def test_dense_past_int64_mass(self, k):
        # Mass 2**k: past 2**63 from k = 63 on, while the counts C(k, j)
        # keep the fold in int64 up to k = 66 (TestDenseWidths).
        sets = [OrderedSet([0, 1])] * k
        rep = representation(sets, algo="dense")
        assert rep == representation(sets, algo="mitm")
        assert rep.values == tuple(range(k + 1))
        assert rep.counts == tuple(math.comb(k, j) for j in range(k + 1))
        assert rep.mass == 2**k


def _interval_counts(m: int, k: int) -> tuple[int, ...]:
    """r_{kI} for I = [1, m], from its closed form: the coefficients of
    ((1 - t**m) / (1 - t))**k, by inclusion-exclusion."""
    return tuple(
        sum(
            (-1) ** j * math.comb(k, j) * math.comb(x - j * m + k - 1, k - 1)
            for j in range(x // m + 1)
        )
        for x in range(k * (m - 1) + 1)
    )


def _width(bound: int) -> str:
    """The narrowest width of the dense fold that holds ``bound``."""
    widths = ("uint8", "uint16", "uint32", "int64")
    return next((w for w in widths if np.iinfo(w).max >= bound), "object")


def _fold_steps(made: list) -> list[list[str]]:
    """The dtypes that the dense fold allocated at each step, in order,
    from the (shape, dtype) of each ``np.zeros`` call: its first array,
    then one per step, or two where the step's try failed.  Every step
    of sets of two or more elements grows the array, so a step's arrays
    are those of one shape."""
    steps: dict = {}
    for shape, dtype in made[1:]:
        steps.setdefault(shape, []).append(dtype)
    return list(steps.values())


def _spy_zeros(monkeypatch) -> list:
    """The (shape, dtype name) of each ``np.zeros`` call, recorded until
    ``monkeypatch`` is undone."""
    zeros, made = np.zeros, []

    def spy(shape, dtype):
        made.append((shape, np.dtype(dtype).name))
        return zeros(shape, dtype=dtype)

    monkeypatch.setattr(np, "zeros", spy)
    return made


@st.composite
def _fold_cases(draw):
    """2 to 5 sets, each of n = 2 to 60 ints within a window of at most
    8 n, and a sign pattern starting with +."""
    k = draw(st.integers(2, 5))
    sets = []
    for _ in range(k):
        n, lo = draw(st.integers(2, 60)), draw(st.integers(-50, 50))
        ints = st.integers(lo, lo + draw(st.integers(n, 8 * n)) - 1)
        sets.append(OrderedSet(sorted(draw(st.sets(ints, min_size=n, max_size=n)))))
    return sets, (1,) + tuple(draw(st.sampled_from((1, -1))) for _ in range(k - 1))


class TestDenseWidths:
    """The dense fold on both sides of each switch of its count width.
    Each step is kept in the narrowest width that holds its actual
    counts, certified by its exact mass, unless its try of that width
    failed or its mass reaches 2**63: then it runs in its safe width, the
    one that holds the current maximum times the next set's size.  Over
    [1, m] the maximum of r_{jI} is m for j = 2, the ceiling of
    3 m**2 / 4 for j = 3 (49,152 at m = 256, and first past 65,535 at
    m = 296) and C(j, j // 2) for m = 2."""

    # Each id names m, k and the width of the last step's bound.
    @pytest.mark.parametrize(
        "m, k, bound, width, failed",
        [
            pytest.param(m, k, bound, width, failed, id=f"{m}-{k}-{bound}")
            for m, k, bound, width, failed in [
                (255, 2, "uint8", "uint8", ()), (256, 2, "uint16", "uint16", (2,)),
                (255, 3, "uint16", "uint16", ()), (256, 3, "uint32", "uint16", (2,)),
                (295, 3, "uint32", "uint16", (2,)), (296, 3, "uint32", "uint32", (2,)),
                (2, 34, "uint32", "uint32", ()), (2, 35, "int64", "int64", ()),
                (2, 66, "int64", "int64", ()), (2, 67, "object", "object", ()),
            ]
        ],
    )
    def test_fold_is_exact_at_each_width_switch(
        self, monkeypatch, m, k, bound, width, failed
    ):
        sets = [gen_interval(m)] * k
        made = _spy_zeros(monkeypatch)
        rep = representation(sets, algo="dense")
        monkeypatch.undo()
        steps = _fold_steps(made)
        # Step j - 1 makes r_{jI}: two arrays where its try failed.
        assert [j for j, step in enumerate(steps, 2) if len(step) == 2] == list(failed)
        assert len(steps) == k - 1 and all(len(step) <= 2 for step in steps)
        for j, step in enumerate(steps, 2):
            top = max(_interval_counts(m, j))
            safe = _width(max(_interval_counts(m, j - 1)) * m)
            assert step[-1] == (safe if j in failed or m**j >= 2**63 else _width(top))
        assert safe == bound and steps[-1][-1] == width
        assert rep == representation(sets, algo="mitm")
        assert rep.counts == _interval_counts(m, k)
        # The container keeps the fold's array at its last width, Python
        # ints included.
        assert rep._count_array.dtype == width

    def test_failed_try_falls_back_to_the_safe_width(self, monkeypatch):
        # r_{3A} peaks at 258 over a mean of 52: the step to it tries
        # uint8, wraps, fails its mass check and runs in uint16.
        A = gen_random_s_convex(192, 1, 4, 4)
        made = _spy_zeros(monkeypatch)
        rep = representation([A] * 4, algo="dense")
        monkeypatch.undo()
        assert _fold_steps(made) == [["uint8"], ["uint8", "uint16"], ["uint16"]]
        assert representation([A] * 3, algo="mitm").max_count() == 258
        # The same fold, in int64 throughout.
        ints = A.ints
        fold = np.zeros(ints[-1] - ints[0] + 1, dtype=np.int64)
        fold[[a - ints[0] for a in ints]] = 1
        for _ in range(3):
            new = np.zeros(fold.shape[0] + ints[-1] - ints[0], dtype=np.int64)
            for a in ints:
                new[a - ints[0] : a - ints[0] + fold.shape[0]] += fold
            fold = new
        want = {4 * ints[0] + x: int(c) for x, c in enumerate(fold) if c}
        assert dict(rep.items()) == want
        assert rep._count_array.dtype == "uint16"

    def test_fold_matches_mitm(self, monkeypatch):
        # Each step ends in the width of its actual counts, or where its
        # try failed in its safe width; over the examples, some steps keep
        # their try and some fall back.
        seen = Counter()

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(_fold_cases())
        def check(case):
            sets, signs = case
            with monkeypatch.context() as patched:
                made = _spy_zeros(patched)
                rep = representation(sets, signs=signs, algo="dense")
            assert rep == representation(sets, signs=signs, algo="mitm")
            tops = [
                representation(sets[:j], signs=signs[:j], algo="mitm").max_count()
                for j in range(1, len(sets) + 1)
            ]
            for j, step in enumerate(_fold_steps(made), 1):
                safe = _width(tops[j - 1] * len(sets[j]))
                if len(step) == 2:
                    assert step[0] != step[1] == safe
                    seen["failed"] += 1
                else:
                    assert step == [_width(tops[j])]
                    seen["kept"] += step[0] != safe

        check()
        assert seen["kept"] and seen["failed"], seen

    @pytest.mark.parametrize(
        "A, width",
        [
            (gen_random_s_convex(192, 1, 7, 4), "uint16"),
            (gen_random_s_convex(192, 1, 4, 4), "uint16"),
            (gen_interval(2000), "int64"),
        ],
        ids=["rsc192", "rsc192_failed_try", "interval2000"],
    )
    def test_fold_peaks_within_its_plan(self, A, width):
        # numpy is imported with this module, so the peak is the fold's:
        # its two widest arrays, the kept one included, never a gathered,
        # widened or copied one.  Planned at 16 bytes per cell of span.
        import tracemalloc

        lists, _ = engine._signed_ints([A] * 4, (1,) * 4)
        planned = engine._plan_dense(lists)[0]
        tracemalloc.start()
        try:
            rep = representation([A] * 4, algo="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep._count_array.dtype == width
        assert peak <= planned


class TestPlanner:
    """The algorithm ``auto`` takes, and the kernel ``mitm`` runs, on the
    benchmark's inputs: wide-gap 3-convex T4 (the multiset kernel), the
    1-convex T4 grid and the k = 3 census sets (dense)."""

    @staticmethod
    def taken(monkeypatch, targets, sets, **kwargs):
        seen = set()
        for owner, name in targets:
            real = getattr(owner, name)

            def spy(*args, real=real, name=name):
                seen.add(name)
                return real(*args)

            monkeypatch.setattr(owner, name, spy)
        representation(sets, **kwargs)
        return seen

    ALGOS = [(engine, "_rep_naive"), (engine, "_rep_mitm"), (engine, "_rep_dense")]
    KERNELS = [(kernels, "self_sum_counts"), (kernels, "convolve_integer")]

    @pytest.mark.parametrize(
        "n, s, gap, k, algo",
        [(38, 3, 64, 4, "_rep_mitm")]
        + [(n, 1, 4, 4, "_rep_dense") for n in (48, 96, 144, 192)]
        + [(34, 1, 4, 3, "_rep_dense")],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_auto_choice(self, monkeypatch, n, s, gap, k, algo, seed):
        A = gen_random_s_convex(n, s, seed, gap)
        assert self.taken(monkeypatch, self.ALGOS, [A] * k) == {algo}

    def test_wide_gap_t4_is_one_multiset_node(self, monkeypatch):
        A = gen_random_s_convex(38, 3, 0, 64)
        assert self.taken(monkeypatch, self.KERNELS, [A] * 4) == {"self_sum_counts"}

    def test_interval_t4_takes_the_tree(self, monkeypatch):
        # C(103, 4) multisets against 199**2 pairs for the last join.
        sets = [gen_interval(100)] * 4
        seen = self.taken(monkeypatch, self.KERNELS, sets, algo="mitm")
        assert seen == {"convolve_integer"}

    def test_t4_estimate_is_capped_by_the_multisets(self):
        # About 100k distinct sums, from C(41, 4) = 101,270 multisets: the
        # estimate is 101,270 entries, not the 38**4 pairs of the last join.
        A = gen_random_s_convex(38, 3, 0, 64)
        lists = [list(A.elements)] * 4
        assert engine._plan_mitm(lists, 1)[0] == math.comb(41, 4) * 120
        rep = representation([A] * 4, mem_budget=100_000_000)
        assert mass_of_squares(rep) == 47002410


class TestMitmPlan:
    """``mitm`` runs the tree ``_plan_mitm`` priced, built once per call:
    one kernel call per node, each on count dicts, and a half shared by
    both sides of a join computed once and passed to the join as the same
    dict."""

    @staticmethod
    def kernel_calls(monkeypatch, sets, signs=None, algo="mitm"):
        calls = []
        for name in ("self_sum_counts", "convolve_integer"):
            real = getattr(kernels, name)

            def spy(*args, real=real, name=name):
                out = real(*args)
                calls.append((name, args, out))
                return out

            monkeypatch.setattr(kernels, name, spy)
        rep = representation(sets, signs=signs, algo=algo)
        monkeypatch.undo()
        assert rep == representation(sets, signs=signs, algo="dense")
        return calls

    @staticmethod
    def leaf(A):
        """A leaf's count dict: each int once."""
        return dict.fromkeys(A.ints, 1)

    @staticmethod
    def joins_itself(args):
        """Both operands of a join are equal count dicts."""
        return args[0] == args[1]

    def test_multiset_root_is_one_kernel_call(self, monkeypatch):
        A = gen_random_s_convex(38, 3, 0, 64)
        calls = self.kernel_calls(monkeypatch, [A] * 4, algo="auto")
        assert [(name, args) for name, args, _ in calls] == [
            ("self_sum_counts", (A.ints, 4))
        ]

    def test_shared_half_is_joined_with_itself(self, monkeypatch):
        I = gen_interval(100)
        (n1, a1, r1), (n2, a2, _) = self.kernel_calls(monkeypatch, [I] * 4)
        assert n1 == n2 == "convolve_integer"
        # [I, I] joins the leaf I with itself; the root joins that result,
        # computed once, with itself.
        assert self.joins_itself(a1) and a1[0] == self.leaf(I)
        assert self.joins_itself(a2) and a2[0] is a2[1] is r1

    def test_equal_halves_of_distinct_sets_are_shared(self, monkeypatch):
        A, B = gen_power(9, 2), gen_interval(7)
        (n1, a1, r1), (n2, a2, _) = self.kernel_calls(monkeypatch, [A, B, A, B])
        assert n1 == n2 == "convolve_integer"
        assert a1 == (self.leaf(A), self.leaf(B))
        assert self.joins_itself(a2) and a2[0] is a2[1] is r1

    def test_unequal_halves_are_joined_in_order(self, monkeypatch):
        A, B, C = gen_power(9, 2), gen_interval(7), OrderedSet([-5, 0, 3])
        (n1, a1, r1), (n2, a2, _) = self.kernel_calls(monkeypatch, [A, B, C])
        assert n1 == n2 == "convolve_integer"
        assert a1 == (self.leaf(A), self.leaf(B))
        assert a2[0] is r1 and a2[1] == self.leaf(C)

    def test_rational_difference_is_one_join(self, monkeypatch):
        # Over the common denominator 6: A is 2, 3, 12 and -A is -12, -3, -2.
        A = OrderedSet([Fraction(1, 3), Fraction(1, 2), 2])
        calls = self.kernel_calls(monkeypatch, [A, A], signs="+-")
        assert [(name, args) for name, args, _ in calls] == [
            ("convolve_integer", ({2: 1, 3: 1, 12: 1}, {-12: 1, -3: 1, -2: 1}))
        ]

    @pytest.mark.parametrize("read", ["ints", "counts"])
    def test_join_root_keeps_the_kernel_dict(self, monkeypatch, read):
        # The root's dict is handed to SparseCounts unsorted; the reductions
        # read it as it is, and only an ordered read sorts it.
        sets = [gen_interval(100)] * 4
        roots = []
        real = kernels.convolve_integer

        def spy(*args):
            roots.append(real(*args))
            return roots[-1]

        monkeypatch.setattr(kernels, "convolve_integer", spy)
        rep = representation(sets, algo="mitm")
        assert rep._mapping is roots[-1]
        assert (rep._ints, rep._counts) == (None, None)
        assert spectrum_of(rep) == spectrum_of(representation(sets, algo="dense"))
        assert rep._mapping is roots[-1]
        getattr(rep, read)
        assert rep._mapping is None
        assert rep.ints == tuple(range(4, 401))
        assert rep.counts == _interval_counts(100, 4)

    @pytest.mark.parametrize(
        "A, k, nodes",
        [
            (gen_random_s_convex(38, 3, 0, 64), 4, 3),
            (gen_interval(100), 4, 3),
            (gen_interval(30), 8, 4),
            (gen_interval(6), 16, 5),
        ],
        ids=["rsc38x4", "interval100x4", "interval30x8", "interval6x16"],
    )
    def test_one_plan_per_call(self, monkeypatch, A, k, nodes):
        # k copies: one node per power-of-two run of copies, each planned
        # once, whichever kernel the root takes.
        built = []
        real = engine._MitmNode

        def node(*args):
            built.append(args[0])
            return real(*args)

        monkeypatch.setattr(engine, "_MitmNode", node)
        representation([A] * k, algo="mitm")
        assert len(built) == nodes and built[-1] == k


class TestChoose:
    """The one path-and-budget rule, on made-up (bytes, cost) tables."""

    PLANS = {"a": (500, 9.0), "b": (100, 3.0), "d": (200, 5.0)}

    @staticmethod
    def choose(plans, budget, algo="auto"):
        return engine.choose(plans, algo, budget, "x")

    @staticmethod
    def error(estimate, budget, what="x"):
        return pytest.raises(
            ResourceError,
            match=rf"^{what}: estimated {estimate} bytes exceeds budget {budget}$",
        )

    def test_cheapest_fitting_candidate(self):
        assert self.choose(self.PLANS, 1000) == "b"
        assert self.choose(self.PLANS, 100) == "b"
        # b does not fit: d is the cheapest that does.
        assert self.choose({**self.PLANS, "b": (2000, 3.0)}, 1000) == "d"

    def test_tie_goes_to_the_first_listed(self):
        assert self.choose({"b": (100, 3.0), "d": (200, 3.0)}, 1000) == "b"
        assert self.choose({"d": (200, 3.0), "b": (100, 3.0)}, 1000) == "d"

    def test_explicit_algorithm_is_the_only_candidate(self):
        assert self.choose(self.PLANS, 1000, algo="a") == "a"
        with self.error(500, 400, what=r"x\[a\]"):
            self.choose(self.PLANS, 400, algo="a")

    def test_least_bytes_when_nothing_fits(self):
        with self.error(100, 99) as exc:
            self.choose(self.PLANS, 99)
        assert (exc.value.estimated_bytes, exc.value.budget_bytes) == (100, 99)

    def test_default_budget(self):
        budget = DEFAULT_MEMORY_BUDGET
        plans = {"a": (budget + 1, 0.0), "b": (budget, 1.0)}
        assert self.choose(plans, None) == "b"
        with self.error(budget + 1, budget, what=r"x\[a\]"):
            self.choose(plans, None, algo="a")


class TestPlanTable:
    """``representation`` hands ``choose`` only the rows that can run:
    mitm and dense for every input, rational sets included, naive only
    when it is named."""

    A = gen_interval(5)
    R = OrderedSet([Fraction(-1, 3), Fraction(1, 2), 2])
    ALGOS = ["auto", "naive", "mitm", "dense"]

    @staticmethod
    def spy(monkeypatch, name):
        """Record the arguments of every call to ``engine.<name>``."""
        calls = []
        real = getattr(engine, name)

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(engine, name, spy)
        return calls

    @pytest.mark.parametrize(
        "algo, kind", itertools.product(ALGOS, ["integer", "rational"])
    )
    def test_table_holds_the_rows_that_can_run(self, monkeypatch, algo, kind):
        tables = self.spy(monkeypatch, "choose")
        sets = [self.A] * 3 if kind == "integer" else [self.A, self.R, self.A]
        representation(sets, signs="+-+", algo=algo)
        (plans, *_), = tables
        assert list(plans) == ["mitm", "dense"] + ["naive"] * (algo == "naive")
        assert all(bytes_ >= 0 for bytes_, *_ in plans.values())

    @pytest.mark.parametrize("algo", ALGOS)
    def test_every_input_plans_dense(self, monkeypatch, algo):
        # Dense is planned on the ints over the common denominator, 6
        # when R is among the sets, as every other row is.
        calls = self.spy(monkeypatch, "_plan_dense")
        cases = ([self.R, self.R], [self.A, self.R], [self.R], [self.A, self.A])
        reps = [
            representation(sets, signs="-" * len(sets), algo=algo) for sets in cases
        ]
        assert calls == [
            (engine._signed_ints(sets, (-1,) * len(sets))[0],) for sets in cases
        ]
        monkeypatch.undo()
        for sets, rep in zip(cases, reps):
            assert rep == representation(sets, signs="-" * len(sets), algo="naive")

    @pytest.mark.parametrize("algo", ALGOS)
    def test_naive_is_planned_only_when_named(self, monkeypatch, algo):
        calls = self.spy(monkeypatch, "_plan_naive")
        cases = [[self.A] * 3, [self.A, gen_power(4, 2)], [self.A], [self.R, self.A],
                 [self.R] * 2]
        for sets in cases:
            representation(sets, algo=algo)
        assert len(calls) == (len(cases) if algo == "naive" else 0)

    def test_one_element_chain_takes_mitm(self, monkeypatch):
        # Mass 1: naive enumerates one tuple, but is never weighed against
        # the row that is named.
        sets = [OrderedSet([Fraction(j, 3)]) for j in (1, 2, 4, 5, 7)]
        ran = {name: self.spy(monkeypatch, name) for name in ("_rep_mitm", "_rep_naive")}
        rep = representation(sets, signs="+-++-", algo="mitm")
        assert ran["_rep_mitm"] and ran["_rep_naive"] == []
        monkeypatch.undo()
        assert rep == representation(sets, signs="+-++-", algo="naive")
        assert dict(rep.items()) == {Fraction(1, 3): 1}


class TestOnePlanPerCall:
    """``representation``, ``spectrum`` and ``energy_T`` each read the
    signed ints once and hand ``choose`` one table, whatever the row
    picked and under ``verification()`` too; ``energy_T`` never enters
    ``representation``."""

    A = gen_random_s_convex(12, 3, 1, 64)
    R = OrderedSet([Fraction(-1, 3), Fraction(1, 2), 2])
    CASES = {
        "multiset": ([A] * 4, None),
        "join": ([A, gen_power(6, 2), A], "+-+"),
        "rational": ([R, A, R], "+-+"),
    }

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("algo", ["auto", "mitm", "dense", "naive"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_one_table_and_one_read_of_the_ints(self, monkeypatch, case, algo, verify):
        sets, signs = self.CASES[case]
        calls = Counter()
        for name in ("choose", "_signed_ints", "representation"):
            real = getattr(engine, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(engine, name, counted)
        outs = []
        for call, entries in (("representation", 1), ("spectrum", 1), ("energy_T", 0)):
            calls.clear()
            with verification() if verify else contextlib.nullcontext():
                outs.append(getattr(engine, call)(sets, signs=signs, algo=algo))
            assert [calls[name] for name in ("choose", "_signed_ints")] == [1, 1]
            assert calls["representation"] == entries
        rep, sp, total = outs
        assert mass_of_squares(rep) == sp.total_T == total

    @pytest.mark.parametrize("algo, spied, want", [
        ("auto", "_mitm_tree", 3), ("dense", "mass_of_squares", 1),
    ])
    def test_verify_mode_does_each_piece_of_work_once(self, monkeypatch, algo, spied,
                                                       want):
        # A verified mitm energy runs its counts form on the plan tree
        # already priced (three nodes: 4, 2 and a shared leaf), and a
        # verified dense energy is the sum of squares that the sandwich
        # check read.
        A = gen_random_s_convex(38, 3, 0, 64)
        calls = []
        real = getattr(engine, spied)
        monkeypatch.setattr(engine, spied, lambda *args: calls.append(1) or real(*args))
        seen = []
        for verify in (False, True):
            calls.clear()
            with verification() if verify else contextlib.nullcontext():
                assert energy_T([A] * 4, algo=algo) == 47002410
            seen.append(len(calls))
        assert seen == [want, want]


class TestInputConversion:
    """Each distinct int sequence is negated once, however many copies
    of it a computation passes down."""

    A = gen_interval(10000)

    def test_copies_share_one_negated_tuple(self):
        lists, den = engine._signed_ints([self.A] * 500, (1, -1) * 250)
        assert den == 1
        assert all(ints is self.A.ints for ints in lists[::2])
        assert all(ints is lists[1] for ints in lists[1::2])
        assert lists[1] == tuple(-x for x in reversed(self.A.ints))

    def test_equal_distinct_sets_are_each_negated(self):
        B = gen_interval(10000)
        lists, _ = engine._signed_ints([self.A, B], (-1, -1))
        assert lists[0] == lists[1] and lists[0] is not lists[1]

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
    def test_a_repeated_input_peaks_below_one_mib(self, signs):
        import tracemalloc

        tracemalloc.start()
        try:
            lists, den = engine._signed_ints([self.A] * 400, signs * 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert den == 1 and len({id(ints) for ints in lists}) == len(set(signs))
        assert peak < 2**20


class TestSelfSumCounts:
    def test_no_factorial_is_computed_per_composition(self, monkeypatch):
        # Count math.factorial however the kernel would reach it: through
        # the math module, or through a name bound in kernels.
        calls = []
        real = math.factorial

        def spy(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(math, "factorial", spy)
        monkeypatch.setattr(kernels, "factorial", spy, raising=False)
        values, j = [0, 1, 3, 7], 6
        got = kernels.self_sum_counts(values, j)
        assert calls == []
        monkeypatch.undo()
        assert dict(got) == brute_force_representation([OrderedSet(values)] * j)

    def test_large_j_gives_binomial_counts(self):
        j = 300
        got = kernels.self_sum_counts([0, 1], j)
        assert dict(got) == {x: math.comb(j, x) for x in range(j + 1)}

    @staticmethod
    def brute_force(values, j):
        """r_{jA} as a Counter over itertools.product, one copy at a time."""
        counts = Counter({0: 1})
        for _ in range(j):
            step = Counter()
            for (x, c), v in itertools.product(counts.items(), values):
                step[x + v] += c
            counts = step
        return counts

    @staticmethod
    def lists(n):
        """Increasing int lists of n elements: a small span based at 0 and
        near +-2**63 and +-2**64, one spread wide enough that few sums
        coincide, one negated, and a rational set's scaled ints."""
        rng = SplitMix64(n)
        small = sorted(random_integer_set(rng, n, spread=20).elements)
        wide = sorted(random_integer_set(rng, n, spread=2**40).elements)
        rational = OrderedSet(sorted({Fraction(x, 3) + Fraction(1, 2 + x % 2) for x in range(n)}))
        (scaled,), den = common_ints([rational])
        assert len(scaled) == n and den > 1
        yield from (
            [base + x for x in small]
            for base in (0, 2**63 - 21, -(2**63) + 1, 2**64 - 21, -(2**64))
        )
        yield wide
        yield [-x for x in reversed(wide)]
        yield list(scaled)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
    def test_every_n_and_j_matches_brute_force(self, n, monkeypatch):
        # Spread sums keep every list of partial sums; a small span keeps
        # few, and sums the remaining parts whole (through combinations).
        whole = []
        real = kernels.combinations

        def spy(*args):
            whole.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "combinations", spy)
        paths = set()
        for values in self.lists(n):
            for j in range(1, 10):
                # The oracle walks n times its distinct sums per copy.
                span = j * (values[-1] - values[0]) + 1
                if min(math.comb(n + j - 1, j), span) * n > 200_000:
                    continue
                whole.clear()
                got = kernels.self_sum_counts(tuple(values), j)
                assert got == self.brute_force(values, j), (values, j)
                assert sum(got.values()) == n**j
                paths.add(bool(whole))
        assert paths == ({False} if n == 1 else {False, True})

    def test_leaves_no_reference_cycle(self):
        # A cycle would hold the result until the cyclic collector runs,
        # which the kernel, allocating ints, hardly triggers: a process
        # running many commands would hold several results at once.
        import gc

        gc.collect()
        gc.disable()
        try:
            kernels.self_sum_counts(tuple(range(0, 300, 7)), 4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_huge_j_of_one_element_peaks_under_two_mib(self):
        # No table of factorials: one composition, (j), of weight 1.
        import tracemalloc

        tracemalloc.start()
        try:
            got = kernels.self_sum_counts([0], 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == {0: 1}
        assert peak < 2**21

    @pytest.mark.parametrize("n, k", [(38, 4), (24, 5), (12, 8)])
    def test_multiset_root_peaks_within_its_plan(self, n, k):
        import tracemalloc

        A = gen_random_s_convex(n, 3, 0, 64)
        lists, den = engine._signed_ints([A] * k, (1,) * k)
        plan = engine._mitm_tree(lists, den)
        assert plan.halves is None and plan.k == k
        tracemalloc.start()
        try:
            representation([A] * k, algo="mitm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= plan.bytes


def _spread_set(xs, rational):
    """A set of the distinct ints ``xs`` scaled by 10**5, over 3 when
    ``rational``: its span passes every count of multisets drawn here, so
    the mitm plan of its copies depends on their number alone."""
    den = 3 if rational else 1
    return OrderedSet(sorted(Fraction(x * 10**5 + den - 1, den) for x in xs))


@st.composite
def _walked_cases(draw):
    """(A, j, signs) with |A| = 1..40 and j = 2..7, at most 12,000
    j-multisets, and one sign for every copy: a multiset root under mitm
    for every j >= 3 but (|A|, j) = (1, 3), and a join of two leaves at
    j = 2."""
    j = draw(st.integers(2, 7))
    n = draw(
        st.integers(1, 40).filter(
            lambda n: math.comb(n + j - 1, j) <= 12_000 and (n, j) != (1, 3)
        )
    )
    xs = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    A = _spread_set(xs, draw(st.booleans()))
    return A, j, draw(st.sampled_from(["+" * j, "-" * j]))


@st.composite
def _weighted_dicts(draw):
    """(count dict, weight) lists as ``kernels.class_moments`` takes them,
    each dict of one kind: every count 1; a few distinct counts; many
    ones, then more distinct counts than the runs that are bisected, so
    that the remainder pass runs; or a few counts past 2**63.  Dicts run
    from empty to 192 entries, and their keys overlap."""
    runs = kernels._RUNS
    classes = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["ones", "few", "tail", "huge"]))
        size = draw(st.integers(0, 192))
        if kind == "ones":
            counts = [1] * size
        elif kind == "tail":
            tail = st.lists(st.integers(2, 10**6), min_size=runs + 1, max_size=40, unique=True)
            counts = [1] * size + draw(tail)
        else:
            values = st.integers(1, 60) if kind == "few" else st.integers(2**63 - 2, 2**70)
            pool = draw(st.lists(values, min_size=1, max_size=3))
            counts = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        start = draw(st.integers(-100, 100))
        keys = draw(st.permutations(range(start, start + len(counts))))
        classes.append((dict(zip(keys, counts)), draw(st.integers(1, 5040))))
    return classes


class TestEnergyWalk:
    """energy_T of a mitm root: a multiset node's classes from
    ``kernels.self_sum_classes``, reduced by ``kernels.class_moments``
    without building r_{jA}."""

    @settings(max_examples=200, deadline=None)
    @given(_weighted_dicts())
    def test_moments_are_those_of_the_weighted_sum(self, classes):
        total = Counter()
        for counts, w in classes:
            for x, c in counts.items():
                total[x] += w * c
        mass = sum(w * sum(counts.values()) for counts, w in classes)
        assert kernels.class_moments(classes) == (mass, sum(c * c for c in total.values()))

    def test_classes_of_many_distinct_counts(self):
        # Six copies of 12 consecutive ints: one merged dict of 67 sums
        # whose counts take 34 values, most of them past the bisected runs.
        A = gen_interval(12)
        want = engine.energy_of(representation([A] * 6, algo="mitm"), [A] * 6)
        assert energy_T([A] * 6, algo="mitm") == want

    @settings(max_examples=150, deadline=None)
    @given(_walked_cases())
    def test_matches_the_energy_of_the_representation(self, case):
        A, j, signs = case
        sets = [A] * j
        lists, den = engine._signed_ints(sets, engine.parse_signs(signs, j))
        assert (engine._mitm_tree(lists, den).halves is None) == (j > 2)
        want = engine.energy_of(representation(sets, signs=signs, algo="mitm"), sets)
        assert energy_T(sets, signs=signs, algo="mitm") == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12])
    @pytest.mark.parametrize("j", [2, 3, 4, 5, 6, 7])
    def test_classes_sum_to_the_counts(self, n, j):
        # n < j - 1: no subset and no multiset with one element twice;
        # n = j - 1: no subset; n >= j: all three classes.  A class kept
        # apart counts each of its multisets once.
        values = [x * x * x for x in range(n)]
        classes = kernels.self_sum_classes(values, j)
        total = Counter()
        for counts, w in classes:
            for x, c in counts.items():
                total[x] += w * c
        assert total == kernels.self_sum_counts(values, j)
        planned = kernels.class_multisets(n, j)
        kept = [(w, sum(counts.values())) for counts, w in classes]
        assert kept[:-1] == planned[:-1] and classes[-1][1] == planned[-1][0] == 1
        assert sum(m for _, m in planned) == math.comb(n + j - 1, j)
        counts = total.values()
        mass, squares = kernels.class_moments(classes)
        assert (mass, squares) == (n**j, sum(c * c for c in counts))

    def test_a_class_is_apart_where_it_outnumbers_the_merged_twice(self):
        # T4 of 38 elements: 25,308 multisets with one element twice and
        # 73,815 subsets, each in its own dict, and 2,147 others.  T4 of
        # 10: the 210 subsets are fewer than twice the 145 others and the
        # 360 with one element twice merged with them.  T7 of 16: 11,440
        # subsets and 48,048 with one element twice, all merged.
        half, unit = 12, 24
        assert kernels.class_multisets(38, 4) == [
            (half, 25_308), (unit, 73_815), (1, 2_147)
        ]
        assert kernels.class_multisets(10, 4) == [(half, 360), (1, 145 + 210)]
        assert kernels.class_multisets(16, 7) == [(1, math.comb(22, 7))]

    @pytest.mark.parametrize("j", [2, 3, 4, 7, 100, 999, 2000])
    def test_two_elements_give_the_central_binomial(self, j):
        # About j/2 distinct weights, none of them j! or j!/2 for j >= 4.
        assert energy_T([OrderedSet([0, 1])] * j, algo="mitm") == math.comb(2 * j, j)

    @pytest.mark.parametrize(
        "n, m, k, entries",
        # 8 copies of 16 cubes: one merged dict, at most the span of 8A.
        # 4 copies of 24 squares: the two unit classes, each capped by the
        # span of 4A, 2,301, and 852 others, held together: past the one
        # dict of r_{4A} that the counts row charges.
        [(16, 3, 8, 32_761), (24, 2, 4, 2 * 2_301 + 852)],
    )
    def test_walk_peaks_within_its_row(self, n, m, k, entries):
        import tracemalloc

        A = gen_power(n, m)
        lists, den = engine._signed_ints([A] * k, (1,) * k)
        row_bytes = engine._plan_mitm(lists, den, True)[0]
        assert row_bytes == entries * 120
        tracemalloc.start()
        try:
            energy_T([A] * k, algo="mitm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= row_bytes


class TestEnergy:
    def test_k1_is_size(self):
        A = OrderedSet([3, 7, 20])
        assert energy_T([A]) == 3

    def test_pair_interval(self):
        assert energy_T([gen_interval(3)] * 2) == 19

    def test_closed_form_small(self):
        for n in range(1, 21):
            A = gen_interval(n)
            want = (2 * n**3 + n) // 3
            assert energy_T([A, A]) == want
            assert brute_force_T([A, A]) == want

    def test_literal_vs_split_oracle(self, rng):
        for _ in range(12):
            k = rng.next_in(2, 3)
            sets = [
                random_integer_set(rng, rng.next_in(1, 5), spread=30)
                for _ in range(k)
            ]
            assert brute_force_T_literal(sets) == brute_force_T(sets)

    def test_matches_oracle_all_modes(self, rng):
        for _ in range(10):
            sets = [
                random_integer_set(rng, rng.next_in(1, 6), spread=40)
                for _ in range(3)
            ]
            want = brute_force_T(sets)
            for algo in ("naive", "mitm", "dense"):
                assert energy_T(sets, algo=algo) == want

    @pytest.mark.parametrize("algo", ["auto", "mitm", "dense", "naive"])
    def test_values_beyond_int64(self, algo):
        # Inputs past 2**63 whose pairwise sums are small: the four sums
        # 1, 2, 6, 7 are distinct, so T = |A| * |B|.
        A = OrderedSet([2**63 + 1, 2**63 + 2])
        B = OrderedSet([-(2**63), -(2**63) + 5])
        assert energy_T([A, B], algo=algo) == 4

    def test_universal_bounds_violation_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "mass_of_squares", lambda rep: 0)
        with pytest.raises(VerificationError):
            energy_T([gen_interval(3)] * 2)


class TestEnergyCross:
    def test_singleton_forces_identity(self, rng):
        A = random_integer_set(rng, 7)
        C = OrderedSet([5])
        assert energy_cross(A, C) == len(A)

    def test_interval_closed_form(self):
        n = 12
        assert energy_cross(gen_interval(n), gen_interval(n)) == (2 * n**3 + n) // 3

    def test_distinct_sums(self):
        A = OrderedSet([1, 4, 9])
        C = OrderedSet([1, 2])
        assert energy_cross(A, C) == 6

    def test_cauchy_schwarz(self, rng):
        for _ in range(10):
            A = random_integer_set(rng, rng.next_in(2, 9), spread=30)
            B = random_integer_set(rng, rng.next_in(2, 9), spread=30)
            e = energy_cross(A, B)
            assert e * e <= energy_T([A, A]) * energy_T([B, B])


class TestMoments:
    def test_third_moment(self):
        A = gen_interval(2)  # r_{A+A} = {2:1, 3:2, 4:1}
        rep = representation([A, A])
        assert moment_sum(rep, 3) == 10
        with pytest.raises(InputError, match="moment order must be >= 1"):
            moment_sum(rep, 0)
        with pytest.raises(InputError, match="moment order must be an integer"):
            moment_sum(rep, 2.5)

    def test_m2_equals_energy(self, rng):
        A = random_integer_set(rng, 8)
        assert moment_sum(representation([A, A]), 2) == energy_T([A, A])

    def test_sign_pattern(self):
        A = gen_interval(3)
        assert moment_sum(representation([A, A], signs="+-"), 3) == 1 + 8 + 27 + 8 + 1


class TestSpectrum:
    def test_interval_pair(self):
        sp = spectrum([gen_interval(3)] * 2)
        assert sp.classes == ((0, 2), (1, 3))
        assert sp.total_T == 19
        assert sp.weighted_sum() == 14
        assert sp.weighted_sum() <= sp.total_T < 4 * sp.weighted_sum()

    def test_singletons(self):
        sp = spectrum([OrderedSet([1]), OrderedSet([2])])
        assert sp.classes == ((0, 1),)

    def test_sandwich_random(self, rng):
        for _ in range(10):
            sets = [random_integer_set(rng, rng.next_in(1, 8)) for _ in range(2)]
            sp = spectrum(sets)
            w = sp.weighted_sum()
            assert w <= sp.total_T < 4 * w

    def test_rich_tail(self):
        rep = representation([gen_interval(3)] * 2)
        assert rich_tail(rep, 1) == 5
        assert rich_tail(rep, 2) == 3
        assert rich_tail(rep, 4) == 0


class TestSignedSumset:
    def test_interval_sizes(self):
        n = 9
        A = gen_interval(n)
        assert len(signed_sumset([A, A], "++")) == 2 * n - 1
        assert len(signed_sumset([A, A], "+-")) == 2 * n - 1

    def test_squares_pair_sum(self):
        A = gen_power(5, 2)
        assert len(signed_sumset([A, A], "++")) == 15

    def test_normalization(self):
        A = gen_interval(3)
        with pytest.raises(InputError):
            signed_sumset([A, A], "-+")

    def test_length_mismatch(self):
        A = gen_interval(3)
        with pytest.raises(InputError):
            signed_sumset([A, A], "++-")


class TestDoubling:
    def test_interval_triple(self):
        n = 20
        rep = doubling(gen_interval(n), "++-")
        assert rep.size == 3 * n - 2
        assert rep.K == Fraction(3 * n - 2, n)

    def test_singleton_always_one(self):
        B = OrderedSet([7])
        for pattern in ("+", "++", "++-", "+-+-"):
            assert doubling(B, pattern).K == 1

    def test_squares_doubling_grows(self):
        ks = [doubling(gen_power(n, 2), "++-").K for n in (8, 16, 32)]
        assert ks[0] < ks[1] < ks[2]

    def test_empty_pattern(self):
        with pytest.raises(InputError):
            doubling(gen_interval(3), "")


class TestSupportPath:
    """``doubling`` and ``signed_sumset`` run the support kernel: no
    counts, their own budget and verify-mode checks."""

    @pytest.fixture
    def sparse_counts_built(self, monkeypatch):
        # Checked and kept containers alike.
        built = []
        init, keep = SparseCounts.__init__, SparseCounts._result

        def checking(self, values, counts, **kwargs):
            built.append(len(values))
            init(self, values, counts, **kwargs)

        def keeping(cls, values, counts, den):
            built.append(len(values))
            return keep(values, counts, den)

        monkeypatch.setattr(SparseCounts, "__init__", checking)
        monkeypatch.setattr(SparseCounts, "_result", classmethod(keeping))
        return built

    def test_auto_builds_no_sparse_counts(self, sparse_counts_built):
        B = gen_random_s_convex(24, 2, 3, 8)
        R = OrderedSet([Fraction(2, 7), Fraction(1, 3), 5])
        doubling(B, "++-")
        signed_sumset([B, R, B], "+-+")
        TripleSumset(B)
        TripleSumset(R)
        for bound_id, s in (
            ("card_main", 1), ("S66_diff", None), ("S66_sum", None),
            ("S63_diff", None), ("S63_sum", None),
        ):
            verify_bound("power:m=2", bound_id, [8, 16], s=s)
        assert sparse_counts_built == []

    def test_budget_covers_the_support(self):
        B = gen_random_s_convex(72, 2, 1, 8)
        with pytest.raises(ResourceError, match="^sumset support: estimated"):
            doubling(B, "++-", mem_budget=1000)
        with pytest.raises(ResourceError, match="^sumset support: estimated"):
            signed_sumset([B, B], "+-", mem_budget=1000)

    def test_takes_the_other_path_when_the_planned_one_does_not_fit(self):
        rng = SplitMix64(5)
        B = random_integer_set(rng, 40, spread=2**15)
        lists, _ = engine._signed_ints([B, B], (1, -1))
        plans = engine._plan_support(lists, False, 2)
        # Switch point 1 is the bitset throughout, 2 the fold.
        bitset_bytes, fold_bytes = plans[1][0], plans[2][0]
        assert engine.choose(plans, "auto", None, "") == 2
        assert bitset_bytes < fold_bytes
        want = len(representation([B, B], signs="+-", algo="mitm").support())
        assert doubling(B, "+-", mem_budget=bitset_bytes).size == want
        with pytest.raises(ResourceError):
            doubling(B, "+-", mem_budget=bitset_bytes - 1)

    def test_sumsets_take_no_algorithm(self):
        B = gen_interval(5)
        for call in (
            lambda: doubling(B, "+-", algo="mitm"),
            lambda: signed_sumset([B, B], "+-", algo="mitm"),
            lambda: TripleSumset(B, algo="mitm"),
            lambda: build_partition([B, B], 4, algo="mitm"),
        ):
            with pytest.raises(TypeError, match="algo"):
                call()

    def test_verify_mode_checks_the_size(self):
        B = gen_power(12, 2)
        with verification() as stats:
            doubling(B, "++-")
            signed_sumset([B, B], "+-")
        assert stats.support_checks == 2
        assert stats.mass_checks == 0

    def test_verify_mode_checks_every_prefix_of_doublings(self, monkeypatch):
        # One run gives |B+B| and |B+B-B|; each is checked, so a corrupted
        # |B+B| (in [2 * 6 - 1, 6**2] for 6 elements) raises.
        B = gen_power(6, 2)
        with verification() as stats:
            engine.doublings(B, "++-")
        assert stats.support_checks == 2
        real = engine.kernels.support_sizes
        monkeypatch.setattr(
            engine.kernels, "support_sizes", lambda *args: [0] + real(*args)[1:]
        )
        with verification():
            with pytest.raises(VerificationError, match="sumset size 0 outside"):
                engine.doublings(B, "++-")

    @pytest.mark.parametrize("size", [0, 3 * 6 - 3, 6**3 + 1])
    def test_corrupted_size_raises(self, monkeypatch, size):
        # |B+B-B| of 6 elements lies in [3 * 6 - 2, 6**3].
        real = engine.kernels.support_sizes
        monkeypatch.setattr(
            engine.kernels, "support_sizes", lambda *args: real(*args)[:-1] + [size]
        )
        B = gen_power(6, 2)
        assert doubling(B, "++-").size == size  # checked only in verify mode
        with verification():
            with pytest.raises(VerificationError, match="sumset size"):
                doubling(B, "++-")


def _rank_sets() -> dict[str, OrderedSet]:
    """B for the rank path: integer sets, rational images under
    poly:0,1/3,1/7 (den 21, the map of the analyze workload's rational
    set, on inner sets narrow enough that the bitset rows stay small),
    and sets of 12 ints based near +-2**63 and +-2**64."""
    rng = SplitMix64(7)
    poly = "composed:f=poly:0,1/3,1/7,inner="
    sets = {
        "interval": gen_interval(9),
        "random_wide": random_integer_set(rng, 30, spread=2**12),
        "rsc": gen_random_s_convex(34, 1, 0, 4),
        "poly_interval": generate(parse_family(poly + "interval:n=10")),
        "poly_rsc": generate(parse_family(poly + "rsc:n=12,s=1,seed=1,gap=2")),
    }
    for name, base in (
        ("2_63", 2**63 - 100), ("minus_2_63", -(2**63) - 100),
        ("2_64", 2**64 - 100), ("minus_2_64", -(2**64) - 100),
    ):
        near = random_integer_set(rng, 12, spread=100).ints
        sets[f"near_{name}"] = OrderedSet([base + x for x in near])
    return sets


RANK_SETS = _rank_sets()

# (seed, size, spread, signs, answer) of test_every_rank_row_covers_its_peak,
# one random set's copies under the signs.  The elements run on the narrow
# sets only: their decode makes one int per bit of span, which tracemalloc
# slows to about 0.8 us each, 10 s a row at 2**21.  The 50-element sets are
# folds whose sets, not masks, make the peak: under +--- row 4 builds a set
# of 7,558 sums beside one of 5,431.
_PEAK_SETS = [(30, 2**10), (30, 2**18), (12, 2**21), (60, 2**12)]
_PEAK_CASES = [
    pytest.param(n, n, spread, "++-", answer, id=f"{n}-{spread}" + f"-{answer}" * (answer != "ranks"))
    for answer in ("ranks", "sizes_from_2", "size", "values")
    for n, spread in _PEAK_SETS
    if answer != "values" or spread <= 2**12
] + [
    pytest.param(1, 50, 2**10, signs, answer, id=f"50-1024-{signs}-{answer}")
    for signs in ("+---", "++-")
    for answer in ("sizes_from_2", "size")
] + [
    # k = 1: the one row sorts a copy of the input, its only allocation.
    pytest.param(1, 2000, 2**16, "+", answer, id=f"2000-65536-+-{answer}")
    for answer in ("ranks", "values")
]


class TestRankPath:
    """``sumset_ranks`` and ``TripleSumset`` read |S| and the ranks of B's
    elements in S = B + B - B from the size path's rows, never decoding S."""

    @staticmethod
    def forced(monkeypatch, s):
        """Make ``choose`` run row s of the support table: the one row it
        is handed, under a budget of exactly its bytes."""
        real = engine.choose

        def choose(plans, algo, mem_budget, what):
            assert what == "sumset support"
            return real({s: plans[s]}, algo, plans[s][0], what)

        monkeypatch.setattr(engine, "choose", choose)

    @pytest.mark.parametrize("name", RANK_SETS)
    def test_every_row_ranks_as_bisect_on_the_decoded_sumset(self, monkeypatch, name):
        B = RANK_SETS[name]
        lists, den = engine._signed_ints([B] * 3, (1, 1, -1))
        assert den == B.den
        S = kernels.support_values(lists, 3)
        # Queries around every byte of every row's mask (offsets from the
        # least sum 8m - 1, 8m and 8m + 1), and past both ends.
        lo, hi = S[0], S[-1]
        edges = {lo + 8 * m + d for m in range((hi - lo) // 8 + 2) for d in (-1, 0, 1)}
        queries = sorted({*S, *edges, lo - 2**70, hi + 2**70})
        want = [bisect_left(S, q) for q in queries]
        for s in (1, 2, 3):
            assert kernels.support_ranks(lists, s, queries) == (len(S), want)
            self.forced(monkeypatch, s)
            ranks = [bisect_left(S, q) for q in B.ints]
            assert engine.sumset_ranks([B] * 3, "++-", B) == (len(S), ranks)
            triple = TripleSumset(B)
            assert len(triple) == len(S)
            assert [triple.rank(b) for b in B] == ranks
            monkeypatch.undo()

    @pytest.mark.parametrize("name", RANK_SETS)
    def test_every_row_sizes_and_decodes_as_the_sums(self, monkeypatch, name):
        # The size and element paths at every switch point, each forced
        # under a budget of exactly its bytes, give the sums of B's ints
        # over its denominator: S = B + B - B and B + B.
        B = RANK_SETS[name]
        x = B.ints
        S = OrderedSet(sorted({a + b - c for a in x for b in x for c in x}), den=B.den)
        pair = OrderedSet(sorted({a + b for a in x for b in x}), den=B.den)
        for s in (1, 2, 3):
            self.forced(monkeypatch, s)
            assert engine.sumset_size([B] * 3, "++-") == len(S)
            reports = engine.doublings(B, "++-")
            assert [(r.pattern, r.size) for r in reports] == [
                ("++", len(pair)), ("++-", len(S))
            ]
            assert signed_sumset([B] * 3, "++-") == S
            if s < 3:
                assert signed_sumset([B, B], "++") == pair
            monkeypatch.undo()

    def test_ranks_of_one_list(self):
        # k = 1 is the fold alone: the list itself.
        assert kernels.support_ranks([(3, 9, 17)], 1, [2, 3, 9, 10, 17, 18]) == (
            3, [0, 0, 1, 2, 2, 3]
        )

    def test_census_never_decodes_the_triple_sumset(self, monkeypatch):
        decoded = []
        real = kernels.support_values
        monkeypatch.setattr(
            kernels, "support_values", lambda *a: decoded.append(a) or real(*a)
        )
        B = gen_random_s_convex(34, 1, 0, 4)
        g = [IDENTITY] * 3
        rows = lucky_census([B] * 3, g, 16)
        assert rows and lucky_pairs_for_sum([B] * 3, g, rows[0].x, 16)
        assert decoded == []
        triple = build_partition([B] * 3, 16).axes[0].sumset
        between = triple.rank(B[-1]) - triple.rank(B[0])
        assert triple.count_between(B[0], B[-1]) == between
        assert decoded == []
        # A value outside B decodes the sumset, once.
        assert triple.count_between(B[0] - 10**6, B[-1]) == triple.rank(B[-1]) + 1
        assert triple.values == triple.values and len(decoded) == 1
        assert triple.values == signed_sumset([B] * 3, "++-").elements

    def test_ranks_that_do_not_increase_raise(self, monkeypatch):
        real = kernels.support_ranks

        def swapped(*args):
            size, ranks = real(*args)
            return size, [ranks[1], ranks[0], *ranks[2:]]

        monkeypatch.setattr(kernels, "support_ranks", swapped)
        with pytest.raises(VerificationError, match="do not increase below"):
            TripleSumset(gen_interval(5))
        monkeypatch.setattr(
            kernels, "support_ranks", lambda *args: (real(*args)[1][-1], real(*args)[1])
        )
        with pytest.raises(VerificationError, match="do not increase below"):
            TripleSumset(gen_interval(5))

    def test_verify_mode_checks_the_size(self):
        with verification() as stats:
            TripleSumset(gen_power(12, 2))
        assert stats.support_checks == 1

    def test_budget_is_the_size_path_the_masks_and_the_ranks(self, monkeypatch):
        # The lucky_k3 shape.  Each rank row costs what the size row costs
        # and holds its bytes and 40 bytes a rank; its bitset row (switch
        # point 1), the least, holds four masks of the span at once, each
        # an int of its 4,480-odd bits, and the row's fixed part:
        # 4 * 600 + 1024 + 34 * 40 with 30-bit digits.
        B = generate(parse_family("rsc:n=34,s=1,seed=0,gap=4"))
        lists, _ = engine._signed_ints([B] * 3, (1, 1, -1))
        digits = -(-engine._span(lists) // sys.int_info.bits_per_digit)
        mask = digits * sys.int_info.sizeof_digit
        sizes = engine._plan_support(lists, False, 3)
        plans = engine._plan_support(lists, False, 3, B.ints)
        assert {s: row[1] for s, row in plans.items()} == {
            s: row[1] for s, row in sizes.items()
        }
        assert {s: row[0] for s, row in plans.items()} == {
            s: row[0] + 34 * 40 for s, row in sizes.items()
        }
        least = min(bytes_ for bytes_, *_ in plans.values())
        assert least == plans[1][0] == 4 * mask + engine._SUPPORT_ROW_BYTES + 34 * 40
        ran = []
        real = kernels.support_ranks
        monkeypatch.setattr(
            kernels, "support_ranks", lambda *a: ran.append(a[1]) or real(*a)
        )
        message = f"^sumset support: estimated {least} bytes exceeds budget {least - 1}"
        with pytest.raises(ResourceError, match=message):
            TripleSumset(B, mem_budget=least - 1)
        assert ran == []
        size = len(signed_sumset([B] * 3, "++-"))
        assert len(TripleSumset(B, mem_budget=least)) == size
        assert ran == [1]

    @pytest.mark.parametrize("seed,n,spread,signs,answer", _PEAK_CASES)
    def test_every_rank_row_covers_its_peak(self, seed, n, spread, signs, answer):
        # tracemalloc's peak of each row of each answer, run alone, is
        # within its bytes, the interpreter's fixed part included (the
        # generator, its frame, the ints' headers, the result list): the
        # bitset row of the 2**10 set holds 3,072 bytes of masks and
        # peaks at about 3,800.  Where the masks dominate, the bitset row
        # peaks past two masks; where the fold's sets do, the fold row
        # peaks past its last set, as it builds that set beside the one
        # before it.
        import tracemalloc

        B = random_integer_set(SplitMix64(seed), n, spread=spread)
        k = len(signs)
        lists, _ = engine._signed_ints([B] * k, engine.parse_signs(signs, k))
        queries = B.ints if answer == "ranks" else None
        first = 2 if answer == "sizes_from_2" else k
        plans = engine._plan_support(lists, answer == "values", first, queries)
        peaks = {}
        for s in plans:
            tracemalloc.start()
            try:
                plans[s][2]()
                peaks[s] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(peaks[s] <= plans[s][0] for s in plans), (peaks, plans)
        if n == 50:
            # The fold row peaks past its last set alone.
            last = len(kernels.support_values(lists, k)) * core.DICT_ENTRY_BYTES
            assert peaks[k] > 1.2 * last
        if spread >= 2**18:
            assert peaks[1] > 2 * (engine._span(lists) // 8) + len(queries or ()) * 40

    def test_queries_over_another_denominator(self):
        R = OrderedSet([Fraction(1, 2), 1, 3])
        with pytest.raises(InputError, match="common denominator"):
            engine.sumset_ranks([R] * 3, "++-", OrderedSet([1, 3]))


class TestPopularClass:
    def test_interval_four(self):
        pop = popular_dyadic_class(gen_interval(4))
        assert pop.delta == 4
        assert pop.differences.elements == (0,)
        assert pop.score == 16

    def test_two_elements(self):
        pop = popular_dyadic_class(OrderedSet([3, 11]))
        assert pop.delta == 2
        assert pop.differences.elements == (0,)
        assert pop.score == 4

    def test_one_element_has_no_class(self):
        A = OrderedSet([7])
        diff = representation([A, A], signs="+-")
        for call in (
            lambda: engine.difference_profile(diff, A),
            lambda: popular_dyadic_class(A, algo="dense"),
            lambda: popular_dyadic_class(A),
            lambda: check_popular_bound(A),
        ):
            with pytest.raises(InputError, match="popular class needs at least 2"):
                call()

    def test_bound_on_interval_four(self):
        e, bound, ok = check_popular_bound(gen_interval(4))
        assert e == 44
        assert ok and e <= bound

    def test_bound_random(self, rng):
        for _ in range(10):
            A = random_integer_set(rng, rng.next_in(2, 24), spread=60)
            _, _, ok = check_popular_bound(A)
            assert ok


class TestVerifyMode:
    def test_counters_accumulate(self, rng):
        A = random_integer_set(rng, 8)
        B = random_integer_set(rng, 6)
        with verification() as stats:
            energy_cross(A, B)
            spectrum([A, A])
        assert stats.mass_checks >= 2
        assert stats.sandwich_checks >= 2
        assert stats.cauchy_schwarz_checks == 1

    def test_energy_walk_is_checked_against_the_representation(self, monkeypatch):
        # Under verification(), energy_T of a multiset root also builds
        # r_{4A}: one mass and one sandwich check, and the two energies
        # must agree.
        A = gen_random_s_convex(38, 3, 0, 64)
        with verification() as stats:
            assert energy_T([A] * 4) == 47002410
        assert (stats.mass_checks, stats.sandwich_checks) == (1, 1)
        real = kernels.class_moments

        def one_more(classes):
            mass, squares = real(classes)
            return mass, squares + 1

        monkeypatch.setattr(kernels, "class_moments", one_more)
        with verification(), pytest.raises(VerificationError, match="representation"):
            energy_T([A] * 4)
        assert energy_T([A] * 4) == 47002411

    def test_disabled_outside_context(self, rng):
        A = random_integer_set(rng, 6)
        with verification() as stats:
            pass
        energy_T([A, A])
        assert stats.mass_checks == 0
