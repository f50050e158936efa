"""Exponent catalogue, fitting, and verification reports."""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import pytest

from sumsetlab import (
    InputError,
    alpha,
    fit_exponent,
    gen_interval,
    gen_power,
    predicted,
)
from sumsetlab.bounds import (
    BOUND_IDS,
    heuristic_tail_report,
    instantiate,
    verify_bound,
)
from sumsetlab.engine import energy_T
from sumsetlab.families import format_family, generate

README = Path(__file__).resolve().parent.parent / "README.md"


class TestAlpha:
    def test_first_values(self):
        assert alpha(0) == 0
        assert alpha(1) == Fraction(1, 2)
        assert alpha(2) == 1
        assert alpha(3) == Fraction(11, 8)
        with pytest.raises(InputError, match="s must be >= 0"):
            alpha(-1)

    def test_closed_form(self):
        for s in range(21):
            assert 2 - alpha(s) == Fraction(s + 2, 2**s)

    def test_monotone_to_two_from_below(self):
        prev = Fraction(-1)
        for s in range(25):
            a = alpha(s)
            assert prev < a < 2 or (s == 0 and a == 0)
            prev = a


class TestPredicted:
    def test_pair_energy_exponent(self):
        b = predicted("T_main", s=1)
        assert b.n_exponent == Fraction(5, 2)
        assert b.n_exponent == predicted("KG_energy").n_exponent

    def test_card_main_s2(self):
        assert predicted("card_main", s=2).n_exponent == 2

    def test_near_convex_symmetric_s1(self):
        b = predicted("T_near_convex_sym", s=1)
        assert b.k_exponent == 1
        assert b.n_exponent == Fraction(5, 2)

    def test_near_convex_per_factor_consistency(self):
        # k per-factor exponents sum to the symmetric exponent
        for s in (1, 2, 3):
            per = predicted("T_near_convex", s=s)
            sym = predicted("T_near_convex_sym", s=s)
            assert per.k_exponent * 2**s == sym.k_exponent

    def test_t4_and_t3(self):
        assert predicted("T4_improved").n_exponent == Fraction(76, 13)
        assert predicted("T3").n_exponent == Fraction(37, 9)
        assert predicted("tail_14_3").r_exponent == Fraction(-5, 2)

    def test_ikrt(self):
        assert predicted("IKRT", k=2).n_exponent == Fraction(5, 2)
        assert predicted("IKRT", k=3).n_exponent == Fraction(17, 4)

    def test_main_beats_trivial(self):
        for s in range(1, 21):
            b = predicted("T_main", s=s)
            trivial = 2 * 2**s - 1
            assert b.n_exponent < trivial

    def test_section6_tables(self):
        assert predicted("S66_diff").n_exponent == Fraction(8, 5)
        assert predicted("S66_sum").n_exponent == Fraction(30, 19)
        assert predicted("S66_energy").n_exponent == Fraction(32, 13)
        assert predicted("S63_diff").n_exponent == 1 + Fraction(151, 234)
        assert predicted("S63_sum").n_exponent == 1 + Fraction(229, 309)
        assert predicted("S63_energy").n_exponent == Fraction(24554, 10000)

    def test_cross_bounds(self):
        sqrt_k = predicted("E_cross_sqrtK")
        assert (sqrt_k.k_exponent, sqrt_k.l_exponent) == (Fraction(1, 2), Fraction(3, 2))
        assert sqrt_k.doubling_pattern == "++-"
        plain = predicted("E_cross_K")
        assert plain.k_exponent == 1
        assert plain.doubling_pattern == "+-"

    def test_every_id_materializes(self):
        for bound_id in BOUND_IDS:
            b = predicted(bound_id, s=2, k=3)
            assert b.id == bound_id
            assert b.direction in ("upper", "lower")

    def test_readme_catalogue_names_every_bound(self):
        section = README.read_text().split("## Bound catalogue", 1)[1]
        section = section.split("\n## ", 1)[0]
        rows = re.findall(r"^\| (.*?) \|", section, flags=re.M)
        ids = [i for row in rows[2:] for i in re.findall(r"`(\w+)`", row)]
        assert sorted(ids) == sorted(BOUND_IDS)

    # (id, s or k, quantity, direction, n_exponent, k_exponent,
    #  doubling_pattern, per_factor, params), recorded before the
    #  s-indexed rows shared one builder.
    INDEXED = [
        ("T_main", 0, "T1", "upper", "1", "0", "", False, {"s": 0, "k": 1}),
        ("T_main", 1, "T2", "upper", "5/2", "0", "", False, {"s": 1, "k": 2}),
        ("T_main", 2, "T4", "upper", "6", "0", "", False, {"s": 2, "k": 4}),
        ("T_main", 3, "T8", "upper", "107/8", "0", "", False, {"s": 3, "k": 8}),
        ("T_main", 4, "T16", "upper", "229/8", "0", "", False, {"s": 4, "k": 16}),
        ("card_main", 1, "card2", "lower", "3/2", "0", "", False, {"s": 1, "k": 2}),
        ("card_main", 2, "card4", "lower", "2", "0", "", False, {"s": 2, "k": 4}),
        ("card_main", 3, "card8", "lower", "21/8", "0", "", False, {"s": 3, "k": 8}),
        ("card_main", 4, "card16", "lower", "27/8", "0", "", False,
         {"s": 4, "k": 16}),
        ("T_near_convex", 0, "T1", "upper", "1", "0", "++-", True, {"s": 0, "k": 1}),
        ("T_near_convex", 1, "T2", "upper", "5/2", "1/2", "++-", True,
         {"s": 1, "k": 2}),
        ("T_near_convex", 2, "T4", "upper", "6", "1", "++-", True, {"s": 2, "k": 4}),
        ("T_near_convex", 3, "T8", "upper", "107/8", "43/32", "++-", True,
         {"s": 3, "k": 8}),
        ("T_near_convex", 4, "T16", "upper", "229/8", "101/64", "++-", True,
         {"s": 4, "k": 16}),
        ("T_near_convex_sym", 0, "T1", "upper", "1", "0", "++-", False,
         {"s": 0, "k": 1}),
        ("T_near_convex_sym", 1, "T2", "upper", "5/2", "1", "++-", False,
         {"s": 1, "k": 2}),
        ("T_near_convex_sym", 2, "T4", "upper", "6", "4", "++-", False,
         {"s": 2, "k": 4}),
        ("T_near_convex_sym", 3, "T8", "upper", "107/8", "43/4", "++-", False,
         {"s": 3, "k": 8}),
        ("T_near_convex_sym", 4, "T16", "upper", "229/8", "101/4", "++-", False,
         {"s": 4, "k": 16}),
        ("IKRT", 1, "T1", "upper", "1", "0", "", False, {"k": 1}),
        ("IKRT", 2, "T2", "upper", "5/2", "0", "", False, {"k": 2}),
        ("IKRT", 3, "T3", "upper", "17/4", "0", "", False, {"k": 3}),
        ("IKRT", 4, "T4", "upper", "49/8", "0", "", False, {"k": 4}),
        ("IKRT", 5, "T5", "upper", "129/16", "0", "", False, {"k": 5}),
    ]

    @pytest.mark.parametrize(
        "row", INDEXED, ids=[f"{row[0]}-{row[1]}" for row in INDEXED]
    )
    def test_indexed_rows(self, row):
        bound_id, index, quantity, direction, n_exp, k_exp, pattern, per, params = row
        by = {"k": index} if bound_id == "IKRT" else {"s": index}
        b = predicted(bound_id, **by)
        assert (b.id, b.quantity, b.direction) == (bound_id, quantity, direction)
        assert (b.n_exponent, b.k_exponent) == (Fraction(n_exp), Fraction(k_exp))
        assert type(b.n_exponent) is type(b.k_exponent) is Fraction
        assert (b.doubling_pattern, b.per_factor, b.params) == (pattern, per, params)

    def test_unknown_id(self):
        with pytest.raises(InputError):
            predicted("nonsense")

    def test_missing_params(self):
        with pytest.raises(InputError):
            predicted("T_main")
        with pytest.raises(InputError):
            predicted("IKRT")


class TestFitExponent:
    def test_exact_cubic(self):
        pts = [(n, n**3) for n in (4, 8, 16, 32)]
        report = fit_exponent(pts)
        assert abs(report.slope - 3.0) < 1e-9
        assert report.max_abs_residual < 1e-9

    def test_constant(self):
        report = fit_exponent([(4, 7), (8, 7), (16, 7)])
        assert abs(report.slope) < 1e-12

    def test_interval_energy_slope(self):
        pts = [(n, energy_T([gen_interval(n)] * 2)) for n in (32, 64, 128, 256)]
        report = fit_exponent(pts)
        assert 2.95 <= report.slope <= 3.0

    def test_errors(self):
        with pytest.raises(InputError):
            fit_exponent([(2, 8), (4, 64)])
        with pytest.raises(InputError):
            fit_exponent([(2, 8), (2, 9), (4, 64)])
        with pytest.raises(InputError):
            fit_exponent([(2, 0), (4, 64), (8, 512)])
        with pytest.raises(InputError, match="N values must be >= 1"):
            fit_exponent([(0, 5), (20, 5), (30, 7)])


class TestInstantiate:
    def test_plain(self):
        assert format_family(instantiate("power:m=2", 16)) == "power:n=16,m=2"

    def test_replaces_existing_n(self):
        assert format_family(instantiate("power:n=4,m=2", 16)) == "power:n=16,m=2"

    def test_bare_name(self):
        assert format_family(instantiate("interval", 9)) == "interval:n=9"

    def test_composed(self):
        spec = instantiate("composed:f=root:2,inner=power:m=2", 9)
        assert format_family(spec) == "composed:f=root:2,inner=power:n=9,m=2"
        assert generate(spec) == gen_interval(9)

    def test_nested_composed(self):
        spec = instantiate("composed:f=pow:2,inner=composed:f=pow:1,inner=interval", 5)
        assert format_family(spec) == (
            "composed:f=pow:2,inner=composed:f=pow:1,inner=interval:n=5"
        )
        assert generate(spec) == gen_power(5, 2)


class TestVerifyBound:
    def test_squares_energy_within_kg(self):
        report = verify_bound("power:m=2", "KG_energy", [16, 32, 64])
        assert report.passed
        assert report.slope is not None and report.slope < 2.6
        assert report.flags["ratio_nonincreasing"]
        assert all(row.extras["xr_constant"] > 0 for row in report.rows)

    @pytest.mark.parametrize("s", [1, 2])
    def test_per_factor_k_exponent_applies_to_every_factor(self, s):
        """T_near_convex's K exponent applies to each of its 2**s factors;
        times 2**s it is T_near_convex_sym's exponent, so the rows agree."""
        grid = [8, 12, 16]
        per = verify_bound("power:m=2", "T_near_convex", grid, s=s)
        sym = verify_bound("power:m=2", "T_near_convex_sym", grid, s=s)
        k_total = per.bound.k_exponent * 2**s
        assert per.bound.per_factor and k_total == sym.bound.k_exponent
        for row, sym_row in zip(per.rows, sym.rows):
            assert row.ratio == sym_row.ratio
            denom = float(row.K) ** float(k_total) * float(row.n) ** float(
                per.bound.n_exponent
            )
            assert row.ratio == pytest.approx(row.q / denom, rel=1e-12)

    def test_interval_energy_breaks_kg_slope(self):
        # The integer interval is not convex; its pair energy grows ~N**3.
        report = verify_bound("interval", "KG_energy", [16, 32, 64])
        assert not report.flags["slope_within_bound"]
        assert not report.passed

    def test_sharpness_ratio_bounded_below(self):
        report = verify_bound(
            "composed:f=root:2,inner=power:m=2", "E_cross_sqrtK", [8, 16, 32]
        )
        assert report.flags["ratio_min"] >= 0.1

    def test_lower_bound_direction(self):
        report = verify_bound("power:m=2", "S66_diff", [8, 16, 32])
        assert "ratio_nondecreasing" in report.flags
        assert report.flags["slope_within_bound"]  # |A-A| of squares ~ N**2

    def test_options_that_are_constants_are_rejected(self):
        for call in (
            lambda: verify_bound("power:m=2", "KG_energy", [8, 16], quantity="T2"),
            lambda: verify_bound("power:m=2", "KG_energy", [8, 16], tol=0.1),
            lambda: heuristic_tail_report("power:m=2", [8], signs="+-+-"),
            lambda: heuristic_tail_report("power:m=2", [8], h_sample=(1,)),
        ):
            with pytest.raises(TypeError):
                call()

    def test_empty_grid_is_rejected(self):
        with pytest.raises(InputError, match="^empty N grid$"):
            verify_bound("power:m=2", "KG_energy", [])

    def test_signs_only_for_signed_sumsets(self):
        with pytest.raises(InputError, match="S66_diff measures card_diff"):
            verify_bound("power:m=2", "S66_diff", [8, 16, 32], signs="++")
        grid = [8, 16, 32]
        cubes = [gen_power(n, 3).elements for n in grid]
        plain = verify_bound("power:m=3", "card_main", grid, s=1)
        signed = verify_bound("power:m=3", "card_main", grid, s=1, signs="++")
        assert [row.q for row in plain.rows] == [
            len({a - b for a in A for b in A}) for A in cubes
        ]
        assert [row.q for row in signed.rows] == [
            len({a + b for a in A for b in A}) for A in cubes
        ]

    def test_tail_quantity(self):
        report = verify_bound("power:m=3", "tail_14_3", [8, 16])
        assert all(row.ratio > 0 for row in report.rows)
        assert report.slope is None  # not a pure-N integer quantity

    def test_tail_quantity_reads_its_exponent_from_the_catalogue(self, monkeypatch):
        from sumsetlab import bounds
        from sumsetlab.engine import spectrum

        entry = bounds._CATALOGUE["tail_14_3"]
        monkeypatch.setitem(
            bounds._CATALOGUE,
            "tail_14_3",
            dataclasses.replace(entry, r_exponent=Fraction(-3)),
        )
        grid = [8, 16]
        report = verify_bound("power:m=3", "tail_14_3", grid)
        want = []
        for n in grid:
            sp = spectrum([gen_power(n, 3)] * 3)
            want.append(max(size * float(2**j) ** 3 for j, size in sp.classes))
        assert [row.q for row in report.rows] == want

    @pytest.mark.parametrize(
        "bound, s, pattern",
        [("card_main", 1, "+-"), ("card_main", 2, "+-+-"), ("S66_diff", None, "+-"),
         ("S66_sum", None, "++"), ("S63_diff", None, "+-"), ("S63_sum", None, "++")],
    )
    def test_card_rows_take_the_size_only_support_path(
        self, monkeypatch, bound, s, pattern
    ):
        from sumsetlab import kernels

        decoded = []
        real = kernels.support_values
        monkeypatch.setattr(
            kernels, "support_values", lambda *a: decoded.append(a) or real(*a)
        )
        grid = [8, 12, 16]
        report = verify_bound("power:m=3", bound, grid, s=s)
        assert decoded == []
        want = []
        for n in grid:
            A, sums = gen_power(n, 3).elements, {0}
            for sign in pattern:
                e = 1 if sign == "+" else -1
                sums = {x + e * a for x in sums for a in A}
            want.append(len(sums))
        assert [row.q for row in report.rows] == want

    @pytest.mark.parametrize("bound, k", [("T4_improved", 4), ("tail_14_3", 3),
                                          ("eq13_tail", 4)])
    def test_spectrum_rows_read_one_spectrum_per_n(self, monkeypatch, bound, k):
        from sumsetlab import bounds, engine

        calls = []

        def spy(sets, **kwargs):
            calls.append(len(sets))
            return engine.spectrum(sets, **kwargs)

        monkeypatch.setattr(bounds, "spectrum", spy)
        grid = [8, 12, 16]
        if bound == "eq13_tail":
            heuristic_tail_report("power:m=3", grid)
        else:
            verify_bound("power:m=3", bound, grid)
        assert calls == [k] * len(grid)


class TestHeuristicTail:
    def test_report_shape(self):
        report = heuristic_tail_report("power:m=3", [8, 16])
        assert report["heuristic"] is True
        assert [row["N"] for row in report["per_N"]] == [8, 16]
        for row in report["per_N"]:
            assert row["E_hat"] >= 1
            assert row["max_ratio"] > 0

    @pytest.mark.parametrize(
        "family, grid",
        [("power:m=3", [8, 16]), ("rsc:s=1,seed=2,gap=4", [6, 12, 20]),
         ("interval", [2, 3, 30])],
    )
    def test_tails_from_the_spectrum_match_the_rich_tail_loop(self, family, grid):
        from sumsetlab import engine
        from sumsetlab.convexity import delta_h
        from sumsetlab.families import generate

        report = heuristic_tail_report(family, grid)
        for n, row in zip(grid, report["per_N"]):
            A = generate(instantiate(family, n))
            rep = engine.representation([A] * 4, signs="+-+-")
            e_hat = max(
                energy_T([delta_h(A, h).as_set()] * 2) for h in (1, 2, 3) if h < n
            )
            want, r = 0.0, 1
            while r <= rep.max_count():
                tail = engine.rich_tail(rep, r)
                ratio = tail * float(r) ** (7.0 / 3.0) / (float(n) ** 4 * e_hat)
                want = max(want, ratio)
                r *= 2
            assert row["E_hat"] == e_hat
            assert row["max_ratio"] == want

    @pytest.mark.parametrize("grid", [[1], [8, 1, 16], [0, 4]])
    def test_n_without_a_gap_set_is_rejected_before_any_work(self, grid, monkeypatch):
        from sumsetlab import bounds

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(bounds, "spectrum", no_work)
        with pytest.raises(InputError, match=r"needs N > 1, got N = [01]$"):
            heuristic_tail_report("interval", grid)
