"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-8 run inside the engine's verify mode, so the spectrum
sandwich, mass product, and Cauchy-Schwarz cross-checks are asserted on
every instance they compute (criterion 9 reports the accumulated check
counts).  All randomness is seeded and all tolerances are pinned here.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

from sumsetlab import (
    OrderedSet,
    build_partition,
    convexity_order,
    diagonal_cover,
    energy_T,
    gen_power,
    gen_random_s_convex,
    hyperplane_cell_count,
    lucky_pairs_for_sum,
    representation,
    verification,
)
from sumsetlab.bounds import fit_exponent, verify_bound
from sumsetlab.cli import run as cli_run
from sumsetlab.convexity import IDENTITY
from sumsetlab.engine import VerifyStats, check_popular_bound
from sumsetlab.families import SplitMix64
from sumsetlab.luckypairs import TripleSumset, cells_per_axis, witness_cap

from conftest import (
    brute_force_T,
    brute_force_T_literal,
    random_integer_set,
    random_rational_set,
)

SLOPE_TOL = 0.1

_VERIFY_TOTALS: list[VerifyStats] = []


def _report(num: int, label: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num:2d} PASS  {label}  ({elapsed:.2f}s < {budget_s:.0f}s)")
    assert elapsed < budget_s


def test_c01_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = SplitMix64(101)
    literal_checked = 0
    with verification() as stats:
        for i in range(200):
            k = 2 + i % 3
            n = rng.next_in(1, 10)
            if i % 4 == 3:
                A = random_rational_set(rng, n)
            else:
                A = random_integer_set(rng, n)
            sets = [A] * k
            want = brute_force_T(sets)
            if n ** (2 * k) <= 200_000:
                assert brute_force_T_literal(sets) == want
                literal_checked += 1
            for algo in ("naive", "mitm", "dense"):
                assert energy_T(sets, algo=algo) == want
    _VERIFY_TOTALS.append(stats)
    assert literal_checked >= 50
    with capsys.disabled():
        _report(1, f"oracle equivalence on 200 sets ({literal_checked} literal)",
                started, 60)


def test_c02_closed_form_interval_energy(capsys):
    started = time.perf_counter()
    with verification() as stats:
        for n in range(1, 21):
            A = OrderedSet(range(1, n + 1))
            want = Fraction(2 * n**3 + n, 3)
            assert want.denominator == 1
            assert brute_force_T([A, A]) == want
            if n <= 10:
                assert brute_force_T_literal([A, A]) == want
        for n in range(1, 65):
            A = OrderedSet(range(1, n + 1))
            assert energy_T([A, A]) == (2 * n**3 + n) // 3
    _VERIFY_TOTALS.append(stats)
    with capsys.disabled():
        _report(2, "T2([N]) = (2N^3+N)/3 for N = 1..64", started, 5)


def _c3_random_family(seed: int, s: int):
    n = 16 + (seed % 8) * 8
    gap = 1 + seed % 5
    return gen_random_s_convex(n, s, seed, gap)


def test_c03_convexity_orders(capsys):
    started = time.perf_counter()
    for m in (2, 3, 4):
        assert convexity_order(gen_power(32, m)).is_exactly(m - 1)
    for seed in range(100):
        for s in range(5):
            assert convexity_order(_c3_random_family(seed, s)).is_at_least(s)
    with capsys.disabled():
        _report(3, "power orders exact, 100 seeded families reach s <= 4",
                started, 30)


def test_c04_hyperplane_cell_crossing(capsys):
    import numpy as np

    started = time.perf_counter()
    rng = SplitMix64(404)
    for k in (2, 3, 4):
        for r in (2, 3, 4, 5, 6):
            for _ in range(100):
                boundaries = []
                for _ in range(k):
                    cuts: set[int] = set()
                    while len(cuts) < r + 1:
                        cuts.add(rng.next_in(-60, 60))
                    # doubled so that half-integer planes stay integral
                    boundaries.append([2 * b for b in sorted(cuts)])
                lows = [np.array(ax[:-1], dtype=np.int64) for ax in boundaries]
                highs = [np.array(ax[1:], dtype=np.int64) for ax in boundaries]
                low_sums = functools.reduce(np.add.outer, lows)
                high_sums = functools.reduce(np.add.outer, highs)
                lo_c = int(low_sums.min()) // 2
                hi_c = int(high_sums.max()) // 2
                for _ in range(10):
                    C = 2 * rng.next_in(lo_c - 1, hi_c + 1) + 1  # odd: generic
                    got = hyperplane_cell_count(boundaries, C)
                    want = int(((low_sums < C) & (C < high_sums)).sum())
                    assert got == want
                    assert got <= k * r ** (k - 1)
            cover = diagonal_cover(k, r)
            assert len(cover) == r**k - (r - 1) ** k
            cells = [cell for diag in cover for cell in diag]
            assert len(cells) == r**k and len(set(cells)) == r**k
    with capsys.disabled():
        _report(4, "cell-crossing bound k*r^(k-1) on 15000 generic planes",
                started, 30)


def test_c05_lucky_pair_guarantee(capsys):
    started = time.perf_counter()
    c = 4
    tested_sums = 0
    with verification() as stats:
        for seed in range(20):
            B = gen_random_s_convex(64, 1, seed, 4)
            assert convexity_order(B).is_at_least(1)
            rep = representation([B, B])
            triple = TripleSumset(B)
            by_class: dict[int, list] = {}
            for x, r_x in rep.items():
                if r_x >= c:
                    by_class.setdefault(2 ** (r_x.bit_length() - 1), []).append(x)
            for r, sums in sorted(by_class.items()):
                t = cells_per_axis(r, 2, c)
                cap = witness_cap(len(triple), r, 2, c)
                partition = build_partition([B, B], r, c)
                for x in sums:
                    r_x = rep.count_of(x)
                    pairs = lucky_pairs_for_sum(
                        [B, B], [IDENTITY] * 2, x, r, c, partition=partition
                    )
                    assert len(pairs) >= r_x - 2 * t
                    for pair in pairs:
                        assert pair.left != pair.right
                        assert sum(pair.left) == sum(pair.right) == x
                        for b, bp in zip(pair.left, pair.right):
                            assert triple.count_between(b, bp) <= cap
                    tested_sums += 1
    _VERIFY_TOTALS.append(stats)
    assert tested_sums > 100
    with capsys.disabled():
        _report(5, f"lucky-pair floor r_x - 2*ceil(r/4) on {tested_sums} rich sums",
                started, 60)


def test_c06_pair_energy_desk_check(capsys):
    started = time.perf_counter()
    grid = [16, 32, 64, 128, 256]
    families = ["power:m=2"] + [f"rsc:s=1,seed={seed},gap=4" for seed in range(20)]
    with verification() as stats:
        for family in families:
            report = verify_bound(family, "KG_energy", grid)
            assert report.slope is not None and report.slope <= 2.5 + SLOPE_TOL
            assert report.flags["ratio_nonincreasing"], family
            assert report.passed
    _VERIFY_TOTALS.append(stats)
    with capsys.disabled():
        _report(6, "E(A) slope <= 2.6 and E/N^2.5 non-increasing on 21 families",
                started, 120)


def test_c07_higher_energy_desk_check(capsys):
    started = time.perf_counter()
    with verification() as stats:
        t3 = [(n, energy_T([gen_power(n, 3)] * 3)) for n in (16, 32, 64, 128)]
        slope3 = fit_exponent(t3).slope
        assert 3.0 <= slope3 <= 4 + 1 / 9 + SLOPE_TOL
        t4 = [(n, energy_T([gen_power(n, 3)] * 4)) for n in (16, 32, 64, 96)]
        slope4 = fit_exponent(t4).slope
        assert 4.0 <= slope4 <= 4 + 24 / 13 + SLOPE_TOL
    _VERIFY_TOTALS.append(stats)
    with capsys.disabled():
        _report(
            7,
            f"T3 slope {slope3:.3f} in [3, 4.211]; T4 slope {slope4:.3f} in [4, 5.946]",
            started,
            600,
        )


def test_c08_asymmetric_sharpness(capsys):
    started = time.perf_counter()
    with verification() as stats:
        report = verify_bound(
            "composed:f=root:2,inner=power:m=2",
            "E_cross_sqrtK",
            [16, 32, 64, 128],
        )
        for row in report.rows:
            assert row.ratio >= 0.1
            # K is the exact measured |B+B-B| / N for B the first N squares
            assert (row.K * row.n).denominator == 1
    _VERIFY_TOTALS.append(stats)
    with capsys.disabled():
        _report(8, "E(A,C) / (K^0.5 N^2.5) >= 0.1 with measured K", started, 120)


def test_c09_embedded_verification(capsys):
    started = time.perf_counter()
    mass = sum(s.mass_checks for s in _VERIFY_TOTALS)
    sandwich = sum(s.sandwich_checks for s in _VERIFY_TOTALS)
    cs = sum(s.cauchy_schwarz_checks for s in _VERIFY_TOTALS)
    assert mass > 500 and sandwich > 500 and cs >= 4
    # No instance raised VerificationError in criteria 1-8; sample one
    # more pair explicitly at a larger size.
    rng = SplitMix64(909)
    with verification() as stats:
        A = random_integer_set(rng, 48, spread=5000)
        B = random_integer_set(rng, 31, spread=5000)
        from sumsetlab import energy_cross

        energy_cross(A, B)
    assert stats.cauchy_schwarz_checks == 1
    with capsys.disabled():
        _report(
            9,
            f"sandwich x{sandwich}, mass x{mass}, Cauchy-Schwarz x{cs} all held",
            started,
            30,
        )


def test_c10_popular_class_bound(capsys):
    started = time.perf_counter()
    sets = [gen_power(32, m) for m in (2, 3, 4)]
    for seed in range(100):
        sets.append(_c3_random_family(seed, 1 + seed % 4))
    for n in (16, 32, 64, 128, 256):
        sets.append(gen_power(n, 2))
        for seed in range(20):
            sets.append(gen_random_s_convex(n, 1, seed, 4))
    checked = 0
    for A in sets:
        e, bound, ok = check_popular_bound(A)
        assert ok, f"popular bound failed at N={len(A)}"
        checked += 1
    with capsys.disabled():
        _report(10, f"E(A) <= 4(floor(log2 2N)+1)|D|Delta^2 on {checked} sets",
                started, 120)


def test_c11_byte_identical_reports(tmp_path, capsys):
    started = time.perf_counter()
    cases = [
        ("gen.set", ["gen", "rsc:n=32,s=2,seed=9,gap=4"]),
        (
            "verify.json",
            [
                "verify", "--bound", "KG_energy",
                "--family", "rsc:s=1,seed=11,gap=4", "--grid", "16,32,64",
            ],
        ),
        ("energy.json", ["energy", "--k", "3", "--family", "power:n=24,m=3"]),
        (
            "lucky.csv",
            [
                "--format", "csv", "lucky", "--r", "4",
                "--family", "rsc:n=48,s=1,seed=5,gap=3",
            ],
        ),
        ("spectrum.json", ["spectrum", "--k", "2", "--family", "power:n=40,m=2"]),
    ]
    for name, argv in cases:
        blobs = []
        for attempt in (1, 2):
            out = tmp_path / f"{attempt}-{name}"
            code = cli_run(["--out", str(out), *argv])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] and blobs[0], name
    capsys.readouterr()
    with capsys.disabled():
        _report(11, f"{len(cases)} report kinds byte-identical across reruns",
                started, 60)
