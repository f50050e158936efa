"""Convexity orders, gap sequences, and exact function specs."""

from __future__ import annotations

from fractions import Fraction

import pytest

from sumsetlab import (
    DomainError,
    InputError,
    IntegerPower,
    IntegerRoot,
    OrderedSet,
    Polynomial,
    Unsupported,
    convexity_order,
    delta_h,
    discrete_derivative_fn,
    eval_fn,
    gen_power,
    gen_random_s_convex,
    parse_function,
)
from sumsetlab.convexity import evaluate, exact_root
from sumsetlab.families import SplitMix64


class TestDeltaH:
    def test_arithmetic_progression(self):
        d = delta_h(OrderedSet(range(1, 6)), 1)
        assert d.terms == (1, 1, 1, 1)
        assert not d.all_distinct

    def test_squares_h1(self):
        d = delta_h(OrderedSet([1, 4, 9, 16]), 1)
        assert d.terms == (3, 5, 7)
        assert d.all_distinct

    def test_squares_h2(self):
        d = delta_h(OrderedSet([1, 4, 9, 16]), 2)
        assert d.terms == (8, 12)
        assert d.all_distinct

    def test_h_out_of_range(self):
        A = OrderedSet([1, 2, 3])
        for h in (0, 3, 4):
            with pytest.raises(InputError):
                delta_h(A, h)


class TestConvexityOrder:
    def test_interval_is_order_zero(self):
        for n in (3, 10, 32):
            assert convexity_order(OrderedSet(range(1, n + 1))).is_exactly(0)

    def test_squares_order_one(self):
        assert convexity_order(OrderedSet([1, 4, 9, 16, 25])).is_exactly(1)

    def test_cubes_order_two(self):
        # second differences 12, 18, 24 strict; third differences 6, 6 not
        assert convexity_order(OrderedSet([1, 8, 27, 64, 125])).is_exactly(2)

    def test_powers_order_is_exponent_minus_one(self):
        for m in (2, 3, 4):
            assert convexity_order(gen_power(32, m)).is_exactly(m - 1)

    def test_tiny_sets_saturate(self):
        assert str(convexity_order(OrderedSet([7]))) == "saturated(0)"
        assert str(convexity_order(OrderedSet([1, 5]))) == "saturated(0)"
        # 3 elements with distinct gaps: level 1 verified, level 2 unseen
        r = convexity_order(OrderedSet([1, 2, 4]))
        assert r.saturated and r.level == 1

    def test_decreasing_gaps_count_as_monotone(self):
        # image of the increasing map x -> -1/x has shrinking gaps
        A = eval_fn(Polynomial((0, Fraction(-1))), OrderedSet([1, 2, 3, 4]))
        A = OrderedSet([Fraction(-1, x) for x in range(1, 6)])
        assert convexity_order(A).is_at_least(1)

    def test_random_families_reach_order(self):
        for seed in range(10):
            for s in range(5):
                A = gen_random_s_convex(24, s, seed, 6)
                assert convexity_order(A).is_at_least(s)

    @pytest.mark.parametrize("den", [2, 7, 21, 2**64 + 13])
    def test_rational_images_keep_the_order(self, den):
        # x -> x/den + 1/3 is increasing and affine, so every difference
        # level keeps its monotonicity: the scan of the stored ints over
        # the set's denominator must give the integer set's order.
        for seed in range(5):
            for s in range(4):
                A = gen_random_s_convex(16, s, seed, 6)
                R = OrderedSet([Fraction(x, den) + Fraction(1, 3) for x in A])
                assert not R.is_integer
                got, want = convexity_order(R), convexity_order(A)
                assert (got.level, got.saturated) == (want.level, want.saturated)


class TestEvalFn:
    def test_square_image(self):
        assert eval_fn(IntegerPower(2), OrderedSet([1, 2, 3])).elements == (1, 4, 9)

    def test_root_on_perfect_squares(self):
        A = eval_fn(IntegerRoot(2), OrderedSet([1, 4, 9, 16]))
        assert A.elements == (1, 2, 3, 4)

    def test_root_rejects_non_powers(self):
        with pytest.raises(DomainError):
            eval_fn(IntegerRoot(2), OrderedSet([1, 2]))

    def test_non_monotone_rejected(self):
        with pytest.raises(DomainError):
            eval_fn(IntegerPower(2), OrderedSet([-1, 0, 1]))

    def test_decreasing_map_allowed(self):
        A = eval_fn(Polynomial((0, -1)), OrderedSet([1, 2, 3]))
        assert A.elements == (-3, -2, -1)

    def test_rational_root(self):
        assert exact_root(Fraction(4, 9), 2) == Fraction(2, 3)
        assert exact_root(-8, 3) == -2
        with pytest.raises(DomainError):
            exact_root(-4, 2)


class TestDiscreteDerivative:
    def test_square(self):
        d = discrete_derivative_fn(IntegerPower(2), 1)
        assert d.coefficients == (1, 2)  # 2x + 1

    def test_cube(self):
        d = discrete_derivative_fn(Polynomial((0, 0, 0, 1)), 1)
        assert d.coefficients == (1, 3, 3)  # 3x^2 + 3x + 1

    def test_linear_becomes_constant(self):
        d = discrete_derivative_fn(Polynomial((0, 1)), 1)
        assert d.coefficients == (1,)

    def test_rational_shift(self):
        d = discrete_derivative_fn(IntegerPower(2), Fraction(1, 2))
        assert d.coefficients == (Fraction(1, 4), 1)

    def test_root_unsupported(self):
        with pytest.raises(Unsupported):
            discrete_derivative_fn(IntegerRoot(2), 1)

    def test_zero_shift_rejected(self):
        with pytest.raises(InputError):
            discrete_derivative_fn(IntegerPower(2), 0)


def _sample_positive_polys(s: int, rng: SplitMix64, count: int = 8):
    """Degree s+1 polynomials with positive coefficients: all derivatives
    up to order s+1 are strictly positive on [1, N]."""
    out = []
    for _ in range(count):
        coeffs = tuple(rng.next_in(1, 5) for _ in range(s + 2))
        out.append(Polynomial(coeffs))
    return out


class TestImageConvexity:
    def test_positive_derivative_images_are_s_convex(self):
        n = 32
        domain = OrderedSet(range(1, n + 1))
        rng = SplitMix64(7)
        for s in range(0, 4):
            for poly in _sample_positive_polys(s, rng):
                A = eval_fn(poly, domain)
                assert convexity_order(A).is_at_least(s)

    def test_discrete_derivative_drops_one_level(self):
        n = 32
        rng = SplitMix64(11)
        for s in range(1, 4):
            for poly in _sample_positive_polys(s, rng, count=5):
                for h in (1, 2, 3):
                    d = discrete_derivative_fn(poly, h)
                    domain = OrderedSet(range(1, n - h + 1))
                    A = eval_fn(d, domain)
                    assert convexity_order(A).is_at_least(s - 1)

    def test_telescoping(self):
        for seed in (1, 2, 3):
            for s in (1, 2, 3):
                A = gen_random_s_convex(20, s, seed, 5)
                for h in range(1, len(A)):
                    d = delta_h(A, h)
                    assert d.all_distinct
                    assert all(a < b for a, b in zip(d.terms, d.terms[1:]))
                    if len(d.terms) >= 2:
                        # short tails can only be checked up to saturation
                        order = convexity_order(d.as_set())
                        assert order.level >= s - 1 or order.saturated

    def test_order_one_implies_distinct_h_differences(self):
        for m in (2, 3):
            A = gen_power(24, m)
            assert convexity_order(A).is_at_least(1)
            for h in range(1, len(A)):
                assert delta_h(A, h).all_distinct


class TestFunctionText:
    def test_parse_forms(self):
        assert parse_function("pow:3") == IntegerPower(3)
        assert parse_function("root:2") == IntegerRoot(2)
        assert parse_function("poly:0,1/2,3") == Polynomial((0, Fraction(1, 2), 3))

    def test_roundtrip(self):
        for text in ("pow:3", "root:2", "poly:0,1/2,3"):
            assert parse_function(text).text() == text

    def test_bad_specs(self):
        for bad in ("pow:x", "root:", "poly:", "spline:3"):
            with pytest.raises(InputError):
                parse_function(bad)

    def test_evaluate_polynomial_horner(self):
        p = Polynomial((1, 2, 3))  # 1 + 2x + 3x^2
        assert evaluate(p, 2) == 17
        assert evaluate(p, Fraction(1, 2)) == Fraction(11, 4)
