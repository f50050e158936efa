"""Exact-core tests: containers, convolution, file format, kernels."""

from __future__ import annotations

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    InputError,
    OrderedSet,
    SparseCounts,
    convolve,
    make_set,
    mass_of_squares,
    read_set,
    write_set,
)
from sumsetlab.core import format_element, parse_element

from conftest import brute_force_representation, random_integer_set


def ones(A: OrderedSet) -> SparseCounts:
    """The representation function of the one set A: every count 1."""
    return SparseCounts(A.elements, [1] * len(A))


class TestMakeSet:
    def test_sorts(self):
        assert make_set([3, 1, 2]).elements == (1, 2, 3)

    def test_dedupes(self):
        assert make_set([1, 1, 2]).elements == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            make_set([])

    def test_mixed_int_fraction(self):
        A = make_set([Fraction(1, 2), 1, Fraction(2, 2)])
        assert A.elements == (Fraction(1, 2), 1)
        assert not A.is_integer

    def test_integral_fractions_canonicalized(self):
        A = make_set([Fraction(4, 2), 1])
        assert A.elements == (1, 2)
        assert A.is_integer


class TestOrderedSet:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(InputError):
            OrderedSet([1, 1, 2])
        with pytest.raises(InputError):
            OrderedSet([2, 1])

    def test_den_must_be_a_positive_int(self):
        with pytest.raises(InputError, match="^den must be a positive int, got 0$"):
            OrderedSet([1], den=0)

    def test_contains_and_index(self):
        A = OrderedSet([1, 4, 9])
        assert 4 in A and 5 not in A
        assert A.index(9) == 2
        with pytest.raises(KeyError):
            A.index(5)

    def test_negate(self):
        assert OrderedSet([1, 4, 9]).negate().elements == (-9, -4, -1)

    def test_repr_lists_a_short_set_and_elides_a_long_one(self):
        assert repr(OrderedSet([Fraction(1, 2), 1, 4])) == "OrderedSet({1/2, 1, 4})"
        long = OrderedSet(range(1, 10))
        assert repr(long) == "OrderedSet({1, 2, 3, ... (9 elements)})"


class TestConvolve:
    def test_binomial(self):
        p = SparseCounts([0, 1], [1, 1])
        assert convolve(p, p) == SparseCounts([0, 1, 2], [1, 2, 1])

    def test_identity_element(self):
        p = SparseCounts([2, 3, 4], [1, 2, 1])
        assert convolve(p, SparseCounts([0], [1])) == p

    def test_hand_expanded_square(self):
        p = SparseCounts([2, 3, 4], [1, 2, 1])
        assert convolve(p, p) == SparseCounts([4, 5, 6, 7, 8], [1, 4, 6, 4, 1])

    def test_mass_multiplies(self, rng):
        for _ in range(20):
            a = random_integer_set(rng, rng.next_in(1, 8))
            b = random_integer_set(rng, rng.next_in(1, 8))
            p, q = ones(a), ones(b)
            assert convolve(p, q).mass == p.mass * q.mass

    def test_rational_values(self):
        p = SparseCounts([Fraction(1, 2), 1], [1, 3])
        r = convolve(p, p)
        assert r == SparseCounts([1, Fraction(3, 2), 2], [1, 6, 9])

    def test_matches_enumeration(self, rng):
        for _ in range(25):
            a = random_integer_set(rng, rng.next_in(1, 9), spread=60)
            b = random_integer_set(rng, rng.next_in(1, 9), spread=60)
            got = convolve(ones(a), ones(b))
            want = brute_force_representation([a, b])
            assert dict(got.items()) == want

    def test_commutative_associative(self, rng):
        for _ in range(10):
            ps = [
                SparseCounts(
                    {
                        rng.next_in(-30, 30): rng.next_in(1, 5)
                        for _ in range(rng.next_in(1, 6))
                    }
                )
                for _ in range(3)
            ]
            p, q, r = ps
            assert convolve(p, q) == convolve(q, p)
            assert convolve(convolve(p, q), r) == convolve(p, convolve(q, r))


class TestMassOfSquares:
    def test_hand_values(self):
        assert mass_of_squares(SparseCounts([2, 3, 4], [1, 2, 1])) == 6
        assert mass_of_squares(SparseCounts([0], [5])) == 25

    def test_pair_energy_of_interval(self):
        rep = SparseCounts([2, 3, 4, 5, 6], [1, 2, 3, 2, 1])
        # brute force over all 81 quadruples of [3]
        A = OrderedSet([1, 2, 3])
        from conftest import brute_force_T_literal

        assert mass_of_squares(rep) == brute_force_T_literal([A, A]) == 19

    def test_matches_quadruple_count(self, rng):
        from conftest import brute_force_T_literal

        for _ in range(10):
            a = random_integer_set(rng, rng.next_in(1, 10), spread=40)
            p = ones(a)
            assert mass_of_squares(convolve(p, p)) == brute_force_T_literal([a, a])


class TestSparseCountsValidation:
    def test_requires_sorted_values(self):
        with pytest.raises(InputError):
            SparseCounts([2, 1], [1, 1])

    def test_requires_positive_counts(self):
        with pytest.raises(InputError):
            SparseCounts([1], [0])

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            SparseCounts([1, 2], [1])

    def test_counts_needed_unless_values_is_a_dict(self):
        with pytest.raises(
            InputError, match="^SparseCounts needs counts unless values is a dict$"
        ):
            SparseCounts([1, 2])

    def test_count_of(self):
        p = SparseCounts([2, 4], [3, 5])
        assert p.count_of(2) == 3 and p.count_of(3) == 0

    @pytest.mark.parametrize(
        "counts", [[2.7, "3"], [2, 3.0], [1, "3"], [Fraction(4, 2), 1], [1, None]]
    )
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(InputError, match="^SparseCounts counts must be integers$"):
            SparseCounts([1, 2], counts)

    def test_counts_of_a_kept_dict_read_before_its_values(self):
        p = SparseCounts({9: 2, 1: 5, 4: 1})
        assert p.counts == (5, 1, 2)
        assert p.ints == (1, 4, 9)

    def test_integer_scalar_counts_accepted(self):
        p = SparseCounts([1, 2, 3], [np.int64(2), 3, True])
        assert p.counts == (2, 3, 1)
        assert all(type(c) is int for c in p.counts)
        assert p.mass == 6


@given(
    a=st.fractions(max_denominator=10**6),
    b=st.fractions(max_denominator=10**6),
)
def test_rational_addition_cancels(a, b):
    assert (a + b) - b == a


@given(
    an=st.integers(-(10**30), 10**30),
    ad=st.integers(1, 10**30),
    bn=st.integers(-(10**30), 10**30),
    bd=st.integers(1, 10**30),
)
@settings(max_examples=200)
def test_rational_order_matches_cross_multiplication(an, ad, bn, bd):
    a, b = Fraction(an, ad), Fraction(bn, bd)
    assert (a < b) == (an * bd < bn * ad)
    assert (a == b) == (an * bd == bn * ad)


class TestElementFormat:
    def test_parse_integer(self):
        assert parse_element("-12") == -12
        assert parse_element("+7") == 7

    def test_parse_fraction(self):
        assert parse_element("3/4") == Fraction(3, 4)
        assert parse_element("-3/4") == Fraction(-3, 4)

    def test_reject_garbage(self):
        for bad in ("", "1.5", "3/-4", "x", "1/0"):
            with pytest.raises(InputError):
                parse_element(bad)

    def test_roundtrip(self):
        for x in (5, -5, Fraction(22, 7), Fraction(-1, 3)):
            assert parse_element(format_element(x)) == x


class TestSetFiles:
    def test_roundtrip_with_comments_and_disorder(self, tmp_path):
        path = str(tmp_path / "a.set")
        with open(path, "w") as fh:
            fh.write("# a comment\n9\n1/2\n\n4\n")
        A = read_set(path)
        assert A.elements == (Fraction(1, 2), 4, 9)
        out = io.StringIO()
        write_set(A, out)
        assert out.getvalue() == "1/2\n4\n9\n"

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.set")
        with open(path, "w") as fh:
            fh.write("# nothing\n")
        with pytest.raises(InputError):
            read_set(path)
