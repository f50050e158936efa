"""Engine tests: representation modes, energies, spectra, popular class."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

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
    fractional_moment,
    gen_interval,
    gen_power,
    gen_random_s_convex,
    moment,
    popular_dyadic_class,
    representation,
    signed_sumset,
    spectrum,
    verification,
)
from sumsetlab import engine, kernels
from sumsetlab.bounds import verify_bound
from sumsetlab.core import mass_of_squares
from sumsetlab.engine import check_popular_bound, rich_tail, spectrum_of
from sumsetlab.luckypairs import TripleSumset

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

    def test_modes_agree_rational(self, rng):
        for _ in range(8):
            sets = [random_rational_set(rng, rng.next_in(1, 6)) for _ in range(2)]
            naive = representation(sets, algo="naive")
            mitm = representation(sets, algo="mitm")
            assert naive == mitm

    def test_dense_rejects_rationals(self):
        A = OrderedSet([Fraction(1, 2), 1])
        with pytest.raises(InputError):
            representation([A, A], algo="dense")

    def test_signs(self):
        A = gen_interval(3)
        rep = representation([A, A], signs="+-")
        assert dict(rep.items()) == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}

    def test_budget_exceeded(self):
        A = gen_power(64, 3)
        with pytest.raises(ResourceError) as exc:
            representation([A] * 4, mem_budget=10_000)
        assert exc.value.estimated_bytes > exc.value.budget_bytes

    def test_explicit_algo_budget(self):
        A = gen_power(32, 2)
        with pytest.raises(ResourceError):
            representation([A] * 3, algo="naive", mem_budget=1_000)

    def test_mass_is_product(self, rng):
        sets = [random_integer_set(rng, rng.next_in(1, 6)) for _ in range(3)]
        rep = representation(sets)
        assert rep.mass == len(sets[0]) * len(sets[1]) * len(sets[2])

    @pytest.mark.parametrize("algo", ["auto", "naive", "mitm", "dense"])
    def test_builds_one_container(self, monkeypatch, algo):
        built = []
        real = SparseCounts.__init__

        def counting(self, values, counts, **kwargs):
            built.append(len(values))
            real(self, values, counts, **kwargs)

        monkeypatch.setattr(SparseCounts, "__init__", counting)
        A = gen_interval(5)
        R = OrderedSet([Fraction(-1, 3), Fraction(1, 2), 2])
        cases = [([A] * k, "+" * k) for k in (2, 3, 4, 5)]
        cases += [([A, A, A], "-+-"), ([A, A, A, A], "+-+-")]
        if algo != "dense":
            cases += [([A, R, A], "+-+"), ([R] * 4, "----")]
        for sets, signs in cases:
            built.clear()
            rep = representation(sets, signs=signs, algo=algo)
            assert built == [len(rep)], (sets, signs)

    def test_mitm_estimate_caps_integer_subtrees(self):
        # [Z, Z] is integer-valued: its 100 * 100 pairs give at most the
        # 199 sums 0..198.  With Q the tree is rational, so the final join
        # is charged all 199 * 20 pairs: 120 bytes each.
        Z = gen_interval(100)
        Q = OrderedSet([Fraction(i, 3) for i in range(1, 40, 2)])
        with pytest.raises(ResourceError) as exc:
            representation([Z, Z, Q], algo="mitm", mem_budget=1000)
        assert exc.value.estimated_bytes == 199 * 20 * 120

    @pytest.mark.parametrize("kernel", ["self_sum_counts", "convolve_integer"])
    def test_mass_is_checked_outside_verification(self, monkeypatch, kernel):
        # The kernel loses one entry; representation raises in a normal
        # run, without verification().
        real = getattr(kernels, kernel)
        calls = []

        def drop_first_sum(values, j):
            calls.append(kernel)
            acc = real(values, j)
            del acc[next(iter(acc))]
            return acc

        def drop_first_entry(*args):
            calls.append(kernel)
            values, counts = real(*args)
            return values[1:], counts[1:]

        fake = drop_first_sum if kernel == "self_sum_counts" else drop_first_entry
        monkeypatch.setattr(kernels, kernel, fake)
        A = gen_random_s_convex(12, 3, 1, 64)
        sets = [A] * 4 if kernel == "self_sum_counts" else [A, gen_power(9, 2)]
        with pytest.raises(VerificationError, match="representation mass"):
            representation(sets, algo="mitm")
        assert calls == [kernel]

    @pytest.mark.parametrize("k", [62, 63, 64, 70])
    def test_dense_past_int64_mass(self, k):
        # Mass 2**k: from k = 63 on, the fold runs over Python ints.
        sets = [OrderedSet([0, 1])] * k
        rep = representation(sets, algo="dense")
        assert rep == representation(sets, algo="mitm")
        assert rep.values == tuple(range(k + 1))
        assert rep.counts == tuple(math.comb(k, j) for j in range(k + 1))
        assert rep.mass == 2**k


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
        assert moment([A, A], 3) == 10

    def test_m2_equals_energy(self, rng):
        A = random_integer_set(rng, 8)
        assert moment([A, A], 2) == energy_T([A, A])

    def test_fractional_p1_equals_m2(self, rng):
        A = random_integer_set(rng, 9)
        exact = moment([A, A], 2)
        approx = fractional_moment([A, A], 1)
        assert abs(approx - exact) <= 1e-9 * exact

    def test_fractional_range(self):
        A = gen_interval(4)
        for bad in (0, 2, -1, Fraction(5, 2)):
            with pytest.raises(InputError):
                fractional_moment([A, A], bad)

    def test_sign_pattern(self):
        A = gen_interval(3)
        assert moment([A, A], 3, signs="+-") == 1 + 8 + 27 + 8 + 1


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
    """``doubling`` and ``signed_sumset`` under ``auto`` run the support
    kernel: no counts, their own budget and verify-mode checks."""

    @pytest.fixture
    def sparse_counts_built(self, monkeypatch):
        built = []
        real = SparseCounts.__init__

        def counting(self, values, counts, **kwargs):
            built.append(len(values))
            real(self, values, counts, **kwargs)

        monkeypatch.setattr(SparseCounts, "__init__", counting)
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
        doubling(B, "++-", algo="mitm")
        assert sparse_counts_built

    def test_budget_covers_the_support(self):
        B = gen_random_s_convex(72, 2, 1, 8)
        with pytest.raises(ResourceError, match="^sumset support: estimated"):
            doubling(B, "++-", mem_budget=1000)
        with pytest.raises(ResourceError, match="^sumset support: estimated"):
            signed_sumset([B, B], "+-", mem_budget=1000)

    def test_takes_the_other_path_when_the_planned_one_does_not_fit(self):
        rng = SplitMix64(5)
        B = random_integer_set(rng, 30, spread=2**15)
        lists = [list(B.elements)] * 2
        bitset_bytes, fold_bytes, bitset = engine._plan_support(lists, False)
        assert not bitset and bitset_bytes < fold_bytes
        want = doubling(B, "+-", algo="mitm")
        assert doubling(B, "+-", mem_budget=bitset_bytes) == want
        with pytest.raises(ResourceError):
            doubling(B, "+-", mem_budget=bitset_bytes - 1)

    def test_explicit_algorithm_keeps_the_representation_route(self):
        R = OrderedSet([Fraction(1, 3), 1, Fraction(5, 2)])
        with pytest.raises(InputError, match="dense mode requires integer"):
            doubling(R, "+-", algo="dense")
        with pytest.raises(InputError, match="dense mode requires integer"):
            signed_sumset([R, R], "+-", algo="dense")
        with pytest.raises(ResourceError, match=r"^representation\[mitm\]"):
            doubling(gen_interval(50), "++-", algo="mitm", mem_budget=1000)

    def test_verify_mode_checks_the_size(self):
        B = gen_power(12, 2)
        with verification() as stats:
            doubling(B, "++-")
            signed_sumset([B, B], "+-")
        assert stats.support_checks == 2
        assert stats.mass_checks == 0

    @pytest.mark.parametrize("size", [0, 3 * 6 - 3, 6**3 + 1])
    def test_corrupted_size_raises(self, monkeypatch, size):
        # |B+B-B| of 6 elements lies in [3 * 6 - 2, 6**3].
        monkeypatch.setattr(engine.kernels, "support_size", lambda *args: size)
        B = gen_power(6, 2)
        assert doubling(B, "++-").size == size  # checked only in verify mode
        with verification():
            with pytest.raises(VerificationError, match="sumset size"):
                doubling(B, "++-")


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

    def test_disabled_outside_context(self, rng):
        A = random_integer_set(rng, 6)
        with verification() as stats:
            pass
        energy_T([A, A])
        assert stats.mass_checks == 0
