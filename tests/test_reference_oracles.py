"""Containers, reductions and the convolution kernel against reference loops.

``OrderedSet``, ``SparseCounts`` and the reductions over representation
functions run each check or sum as one builtin pass.  The oracles below
are the per-element Python loops they replaced, kept verbatim except for
one rule: a count must be an integer (Python int, bool or numpy integer
scalar), where the loop used to truncate it with ``int()``.  Every input
must get the same acceptance, the same InputError message and the same
result from both.  The kernel's self-convolution and common-denominator
paths are checked against the plain all-pairs loop ``oracle_convolve``,
and both paths of the support kernel against the counted representation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    InputError,
    OrderedSet,
    SparseCounts,
    doubling,
    engine,
    kernels,
    representation,
    signed_sumset,
)
from sumsetlab.core import convolve, mass_of_squares, moment_sum
from sumsetlab.engine import rich_tail, spectrum_of


# -- reference loops ---------------------------------------------------------


def oracle_canon(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise InputError(f"not an exact rational: {x!r}")


def oracle_ordered_set(elements):
    elems = tuple(oracle_canon(x) for x in elements)
    if not elems:
        raise InputError("OrderedSet must be non-empty")
    for a, b in zip(elems, elems[1:]):
        if not a < b:
            raise InputError("OrderedSet elements must be strictly increasing")
    return elems, all(isinstance(x, int) for x in elems)


def oracle_sparse_counts(values, counts):
    if len(values) != len(counts):
        raise InputError("values/counts length mismatch")
    if not values:
        raise InputError("SparseCounts must be non-empty")
    vals = tuple(oracle_canon(v) for v in values)
    for a, b in zip(vals, vals[1:]):
        if not a < b:
            raise InputError("SparseCounts values must be strictly increasing")
    cnts = []
    for c in counts:
        if not hasattr(type(c), "__index__"):  # the one new rule
            raise InputError("SparseCounts counts must be integers")
        cnts.append(int(c))
    if any(c < 1 for c in cnts):
        raise InputError("SparseCounts counts must be positive")
    return vals, tuple(cnts), sum(cnts), all(isinstance(v, int) for v in vals)


def oracle_spectrum(counts):
    sizes: dict[int, int] = {}
    for c in counts:
        j = c.bit_length() - 1
        sizes[j] = sizes.get(j, 0) + 1
    weighted = sum(4 ** (c.bit_length() - 1) for c in counts)
    return tuple(sorted(sizes.items())), sum(c * c for c in counts), weighted


def oracle_convolve(av, ac, bv, bc):
    acc: dict = {}
    for v, c in zip(av, ac):
        for w, d in zip(bv, bc):
            key = v + w
            if key in acc:
                acc[key] += c * d
            else:
                acc[key] = c * d
    values = sorted(acc)
    return values, [acc[v] for v in values]


def outcome(fn, *args):
    """("ok", result) or ("error", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared, never swallowed
        return ("error", type(exc), str(exc))


# -- inputs -----------------------------------------------------------------

BIG = 2**70

rationals = st.one_of(
    st.integers(-BIG, BIG),
    st.integers(-5, 5),
    st.integers(-BIG, BIG).map(Fraction),  # integral Fractions
    st.fractions(max_denominator=10**3),
    st.fractions(min_value=-(2**66), max_value=2**66, max_denominator=7),
    st.booleans(),
)
non_rationals = st.sampled_from([1.5, 2.0, "3", None, np.int64(4)])
count_items = st.one_of(
    st.integers(-3, 3),
    st.integers(2**63 - 2, BIG),
    st.booleans(),
    st.sampled_from(
        [np.int64(5), np.uint8(0), 2.7, 3.0, "3", Fraction(4, 2), Fraction(1, 2)]
    ),
)


@st.composite
def value_lists(draw):
    """Mostly strictly increasing lists; also raw draws (duplicates,
    descending pairs) and lists with one non-rational element."""
    vals = draw(st.lists(rationals, max_size=10))
    if draw(st.booleans()):
        vals = sorted(set(vals))
    if draw(st.integers(0, 5)) == 0:
        vals.insert(draw(st.integers(0, len(vals))), draw(non_rationals))
    return vals


@st.composite
def values_and_counts(draw):
    vals = draw(value_lists())
    n = len(vals)
    if draw(st.integers(0, 9)) == 0:
        n = draw(st.integers(0, 11))
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(1, BIG), min_size=n, max_size=n))
    else:
        counts = draw(st.lists(count_items, min_size=n, max_size=n))
    return vals, counts


def typed(xs):
    """Elements with their exact types: True and 1, or 2 and Fraction(2),
    compare equal but are not interchangeable here."""
    return tuple((type(x), x) for x in xs)


# -- containers -------------------------------------------------------------


@given(vals=value_lists(), as_generator=st.booleans())
@settings(max_examples=400, deadline=None)
def test_ordered_set_matches_oracle(vals, as_generator):
    arg = (x for x in vals) if as_generator else vals
    want = outcome(oracle_ordered_set, list(vals))

    def build(v):
        A = OrderedSet(v)
        return A.elements, A.is_integer

    got = outcome(build, arg)
    if want[0] == "error":
        assert got == want
        return
    assert got[0] == "ok", got
    assert typed(got[1][0]) == typed(want[1][0])
    assert got[1][1] == want[1][1]


@given(data=values_and_counts())
@settings(max_examples=600, deadline=None)
def test_sparse_counts_matches_oracle(data):
    vals, counts = data
    want = outcome(oracle_sparse_counts, vals, counts)

    def build(v, c):
        p = SparseCounts(v, c)
        return p.values, p.counts, p.mass, p.is_integer_valued

    got = outcome(build, vals, counts)
    if want[0] == "error":
        assert got == want
        return
    assert got[0] == "ok", got
    for g, w in zip(got[1][:2], want[1][:2]):
        assert typed(g) == typed(w)
    assert got[1][2:] == want[1][2:]


# -- reductions -------------------------------------------------------------


@given(
    counts=st.lists(
        st.one_of(
            st.integers(1, 40), st.integers(2**63 - 3, 2**63 + 3), st.integers(1, BIG)
        ),
        min_size=1,
        max_size=40,
    ),
    r_extra=st.integers(-2, 2),
)
@settings(max_examples=300, deadline=None)
def test_reductions_match_loops(counts, r_extra):
    rep = SparseCounts(range(len(counts)), counts)
    classes, total, weighted = oracle_spectrum(counts)
    assert mass_of_squares(rep) == total
    for m in (1, 2, 3, 5):
        assert moment_sum(rep, m) == sum(c**m for c in counts)
    sp = spectrum_of(rep)
    assert sp.classes == classes
    assert sp.total_T == total
    assert sp.weighted_sum() == weighted
    for r in {1, counts[0] + r_extra, max(counts), 2**63, BIG + 1}:
        got = rich_tail(rep, r)
        assert got == sum(1 for c in counts if c >= r)
        assert type(got) is int


@given(
    a=st.dictionaries(
        rationals.filter(lambda x: not isinstance(x, bool)),
        st.integers(1, BIG),
        min_size=1,
        max_size=8,
    ),
    b=st.dictionaries(
        st.integers(-BIG, BIG), st.integers(1, 2**64), min_size=1, max_size=8
    ),
)
@settings(max_examples=200, deadline=None)
def test_convolve_exact_matches_loop(a, b):
    av, bv = sorted(a), sorted(b)
    args = (av, [a[v] for v in av], bv, [b[v] for v in bv])
    assert kernels.convolve_exact(*args) == oracle_convolve(*args)


# -- the two kernel paths: self-convolution and a common denominator ---------

PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))]

kernel_values = st.one_of(
    rationals.filter(lambda x: not isinstance(x, bool)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.sampled_from(PRIMES)),
)
kernel_counts = st.dictionaries(
    kernel_values, st.integers(1, BIG), min_size=1, max_size=10
)


def split(counts):
    values = sorted(counts)
    return values, [counts[v] for v in values]


@given(a=kernel_counts, b=kernel_counts)
@settings(max_examples=200, deadline=None)
def test_convolve_exact_rational_both_sides(a, b):
    args = (*split(a), *split(b))
    assert kernels.convolve_exact(*args) == oracle_convolve(*args)


@given(a=kernel_counts)
@settings(max_examples=200, deadline=None)
def test_self_convolution_matches_loop(a):
    av, ac = split(a)
    want = oracle_convolve(av, ac, av, ac)
    assert kernels.convolve_exact(av, ac, av, ac) == want
    assert kernels.convolve_exact(av, ac, list(av), list(ac)) == want
    neg = ([-v for v in reversed(av)], ac[::-1])
    twin = ([-v for v in reversed(av)], ac[::-1])
    assert kernels.convolve_exact(*neg, *twin) == oracle_convolve(*neg, *twin)
    # Equal values with another last count are not a self-convolution.
    other = ac[:-1] + [ac[-1] + 1]
    assert kernels.convolve_exact(av, ac, av, other) == oracle_convolve(
        av, ac, av, other
    )


@given(
    a=st.dictionaries(
        st.integers(-BIG, BIG), st.integers(1, BIG), min_size=1, max_size=12
    )
)
@settings(max_examples=100, deadline=None)
def test_integer_self_convolution_matches_loop(a):
    av, ac = split(a)
    want = oracle_convolve(av, ac, av, ac)
    assert kernels.convolve_integer(av, ac, av, ac) == want
    assert kernels.convolve_integer(av, ac, list(av), list(ac)) == want
    other = ac[:-1] + [ac[-1] + 1]
    assert kernels.convolve_integer(av, ac, av, other) == oracle_convolve(
        av, ac, av, other
    )


@given(a=kernel_counts)
@settings(max_examples=100, deadline=None)
def test_core_convolve_of_equal_operands(a):
    p = SparseCounts(*split(a))
    q = SparseCounts(*split(a))
    want = SparseCounts(*oracle_convolve(p.values, p.counts, p.values, p.counts))
    assert convolve(p, p) == convolve(p, q) == want
    A = OrderedSet(p.values)
    neg, twin = SparseCounts.from_set(A.negate()), SparseCounts.from_set(A.negate())
    assert convolve(neg, twin) == SparseCounts(
        *oracle_convolve(neg.values, neg.counts, neg.values, neg.counts)
    )


def test_many_prime_denominators():
    av = [Fraction(i + 1, p) for i, p in enumerate(PRIMES[:150])]
    av.sort()
    ac = [i % 7 + 1 for i in range(len(av))]
    bv = [Fraction(-(2**70) + i, p) for i, p in enumerate(PRIMES[150:300])]
    bv.sort()
    bc = [2**65 + i for i in range(len(bv))]
    for args in ((av, ac, av, ac), (av, ac, bv, bc), (bv, bc, list(bv), list(bc))):
        assert kernels.convolve_exact(*args) == oracle_convolve(*args)


@pytest.mark.parametrize(
    "counts, message",
    [
        ([0], "SparseCounts counts must be positive"),
        ([-1], "SparseCounts counts must be positive"),
        ([2.7], "SparseCounts counts must be integers"),
    ],
)
def test_count_errors_follow_value_errors(counts, message):
    # Value checks run first: a bad value wins over a bad count.
    increasing = "^SparseCounts values must be strictly increasing$"
    with pytest.raises(InputError, match=increasing):
        SparseCounts([2, 1], counts * 2)
    with pytest.raises(InputError, match=f"^{message}$"):
        SparseCounts([1], counts)


# -- the support kernel against the counted representation -------------------
#
# The support of A_1 +/- ... +/- A_k is the value list of the counted
# representation function (``algo="mitm"``); ``doubling`` and
# ``signed_sumset`` take the support kernel under ``algo="auto"``.

ALL_PATTERNS = [
    "".join(p) for k in range(1, 5) for p in itertools.product("+-", repeat=k)
]

support_elements = st.one_of(
    st.integers(-40, 40),
    st.integers(-BIG, BIG),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-BIG, BIG), st.sampled_from(PRIMES)),
)
support_sets = st.sets(support_elements, min_size=1, max_size=5).map(
    lambda xs: OrderedSet(sorted(xs))
)
# Scaled spans below 2**12 bits: both kernel paths are cheap.
narrow_sets = st.sets(
    st.one_of(
        st.integers(-60, 60),
        st.builds(Fraction, st.integers(-200, 200), st.sampled_from([2, 3, 5, 7])),
    ),
    min_size=1,
    max_size=5,
).map(lambda xs: OrderedSet(sorted(xs)))


def support_by_representation(sets, signs):
    return representation(sets, signs=signs, algo="mitm").values


@given(B=support_sets)
@settings(max_examples=60, deadline=None)
def test_doubling_matches_representation_on_every_pattern(B):
    for pattern in ALL_PATTERNS:
        got = doubling(B, pattern)
        want = len(support_by_representation([B] * len(pattern), pattern))
        assert got.size == want, pattern
        assert got == doubling(B, pattern, algo="mitm")


@given(sets=st.lists(support_sets, min_size=1, max_size=4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_signed_sumset_matches_representation(sets, data):
    tail = data.draw(st.text("+-", min_size=len(sets) - 1, max_size=len(sets) - 1))
    signs = "+" + tail
    got = signed_sumset(sets, signs)
    assert got.elements == support_by_representation(sets, signs)
    assert typed(got) == typed(signed_sumset(sets, signs, algo="mitm"))


@given(sets=st.lists(narrow_sets, min_size=1, max_size=4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_both_kernel_paths_match_representation(sets, data):
    signs = [data.draw(st.sampled_from([1, -1])) for _ in sets]
    values = [A.elements for A in sets]
    den = kernels.common_denominator(values)
    want = support_by_representation(sets, signs)
    for bitset in (True, False):
        assert kernels.support_values(values, signs, den, bitset) == list(want)
        assert kernels.support_size(values, signs, den, bitset) == len(want)


def test_planner_takes_the_bitset_on_an_interval():
    B = OrderedSet(range(-(2**70), -(2**70) + 60))
    sets, signs = [B, B, B], (1, 1, -1)
    assert engine._plan_support(sets, 1, False)[2]
    assert engine._plan_support(sets, 1, True)[2]
    assert doubling(B, "++-").size == len(support_by_representation(sets, signs))
    assert signed_sumset(sets, signs).elements == support_by_representation(
        sets, signs
    )


@pytest.mark.parametrize(
    "B",
    [
        OrderedSet([0, 2**70]),
        OrderedSet([-(2**70), -5, 0, 3, 2**64 + 1]),
        OrderedSet(sorted(Fraction(i + 1, p) for i, p in enumerate(PRIMES[:16]))),
        OrderedSet([Fraction(-(2**66), 3), 0, 7, Fraction(2**65, 11)]),
    ],
    ids=["zero_and_2_70", "mixed_signs_past_2_64", "16_primes", "mixed_int_frac"],
)
def test_planner_takes_the_fold_on_wide_spans(B):
    den = kernels.common_denominator([B.elements])
    for pattern in ("+-", "++-", "+-+-"):
        sets = [B] * len(pattern)
        assert not engine._plan_support(sets, den, True)[2]
        want = support_by_representation(sets, pattern)
        assert doubling(B, pattern).size == len(want)
        assert signed_sumset(sets, pattern).elements == want


def test_singletons():
    for x in (0, -(2**70), Fraction(-7, 3), 2**64 + 1):
        A = OrderedSet([x])
        for pattern in ALL_PATTERNS:
            assert doubling(A, pattern).size == 1
        assert signed_sumset([A, A, A], "+--").elements == (-x,)
