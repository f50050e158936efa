"""Containers, reductions and the convolution kernel against reference loops.

``OrderedSet``, ``SparseCounts`` and the reductions over representation
functions run each check or sum as one builtin pass.  The oracles below
are the per-element Python loops they replaced, kept verbatim except for
one rule: a count must be an integer (Python int, bool or numpy integer
scalar), where the loop used to truncate it with ``int()``.  Every input
must get the same acceptance, the same InputError message and the same
result from both.  ``core.convolve`` (the kernel's self-convolution, and
operands over different denominators) is checked against the plain
all-pairs loop ``oracle_convolve``, and the support kernel at every
switch point against the counted representation.
The popular dyadic class, read from the bit classes of r_{A-A}, is
checked against the dict-of-lists scan it replaced.
"""

from __future__ import annotations

import itertools
import math
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
    doubling,
    energy_T,
    engine,
    kernels,
    popular_dyadic_class,
    representation,
    signed_sumset,
)
from sumsetlab import core
from sumsetlab.convexity import convexity_order
from sumsetlab.core import convolve, mass_of_squares, moment_sum
from sumsetlab.engine import (
    PopularBound,
    check_popular_bound,
    doublings,
    energy_of,
    popular_bound_factor,
    rich_tail,
    spectrum_of,
    sumset_size,
)

from conftest import brute_force_T, brute_force_representation


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


def convolved(av, ac, bv, bc):
    """``core.convolve`` of the two count sequences, as the oracle's
    (values, counts) lists; its values must be canonical."""
    r = convolve(SparseCounts(av, ac), SparseCounts(bv, bc))
    assert typed(r.values) == typed(map(oracle_canon, r.values))
    return list(r.values), list(r.counts)


def scaled_lists(sets, signs):
    """(lists, den): each set's elements times the lcm ``den`` of all
    denominators, negated where its sign is -1, in increasing order."""
    den = math.lcm(*(Fraction(x).denominator for A in sets for x in A.elements))
    lists = [
        sorted(int(e * x * den) for x in A.elements)
        for A, e in zip(sets, engine.parse_signs(signs, len(sets)))
    ]
    return lists, den


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
        return p.values, p.counts, p.mass, p.is_integer

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
    assert convolved(*args) == oracle_convolve(*args)


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
    assert convolved(*args) == oracle_convolve(*args)


@given(a=kernel_counts)
@settings(max_examples=200, deadline=None)
def test_self_convolution_matches_loop(a):
    av, ac = split(a)
    want = oracle_convolve(av, ac, av, ac)
    p = SparseCounts(av, ac)
    square = convolve(p, p)
    assert (list(square.values), list(square.counts)) == want
    assert convolved(av, ac, av, ac) == want
    assert convolved(av, ac, list(av), list(ac)) == want
    neg = ([-v for v in reversed(av)], ac[::-1])
    twin = ([-v for v in reversed(av)], ac[::-1])
    assert convolved(*neg, *twin) == oracle_convolve(*neg, *twin)
    # Equal values with another last count are not a self-convolution.
    other = ac[:-1] + [ac[-1] + 1]
    assert convolved(av, ac, av, other) == oracle_convolve(av, ac, av, other)


@given(
    a=st.dictionaries(
        st.integers(-BIG, BIG), st.integers(1, BIG), min_size=1, max_size=12
    )
)
@settings(max_examples=100, deadline=None)
def test_integer_self_convolution_matches_loop(a):
    av, ac = split(a)
    want = dict(zip(*oracle_convolve(av, ac, av, ac)))
    assert kernels.convolve_integer(a, a) == want
    # Equal by value: a copy, and the same entries inserted in reverse.
    assert kernels.convolve_integer(a, dict(a)) == want
    assert kernels.convolve_integer(a, dict(reversed(a.items()))) == want
    # Equal values with another last count are not a self-convolution.
    other = {**a, av[-1]: ac[-1] + 1}
    assert kernels.convolve_integer(a, other) == dict(
        zip(*oracle_convolve(av, ac, av, [*ac[:-1], ac[-1] + 1]))
    )


@given(a=kernel_counts)
@settings(max_examples=100, deadline=None)
def test_core_convolve_of_equal_operands(a):
    p = SparseCounts(*split(a))
    q = SparseCounts(*split(a))
    want = SparseCounts(*oracle_convolve(p.values, p.counts, p.values, p.counts))
    assert convolve(p, p) == convolve(p, q) == want
    A = OrderedSet(p.values)
    neg = SparseCounts(A.negate().elements, [1] * len(A))
    twin = SparseCounts(A.negate().elements, [1] * len(A))
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
        assert convolved(*args) == oracle_convolve(*args)


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
# Scaled spans below 2**12 bits, so that every switch point is cheap,
# each set translated to 0 or near +/-2**63 or +/-2**64.
narrow_sets = st.builds(
    lambda xs, shift: OrderedSet(sorted(x + shift for x in xs)),
    st.sets(
        st.one_of(
            st.integers(-60, 60),
            st.builds(Fraction, st.integers(-200, 200), st.sampled_from([2, 3, 5, 7])),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from([0, 2**63, -(2**63), 2**64, -(2**64)]),
)


def support_by_representation(sets, signs):
    return representation(sets, signs=signs, algo="mitm").values


@given(B=support_sets)
@settings(max_examples=60, deadline=None)
def test_doubling_matches_representation_on_every_pattern(B):
    # ALL_PATTERNS holds every prefix of each pattern, in order.
    want = {}
    for pattern in ALL_PATTERNS:
        want[pattern] = len(support_by_representation([B] * len(pattern), pattern))
        got = doubling(B, pattern)
        size = want[pattern]
        assert (got.pattern, got.size, got.K) == (pattern, size, Fraction(size, len(B)))
        if pattern[0] == "+":
            assert sumset_size([B] * len(pattern), pattern) == size
        # One support run gives every prefix of length 2 or more.
        prefixes = [pattern[:j] for j in range(min(2, len(pattern)), len(pattern) + 1)]
        assert [(r.pattern, r.size) for r in doublings(B, pattern)] == [
            (p, want[p]) for p in prefixes
        ]


@given(sets=st.lists(support_sets, min_size=1, max_size=4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_signed_sumset_matches_representation(sets, data):
    tail = data.draw(st.text("+-", min_size=len(sets) - 1, max_size=len(sets) - 1))
    signs = "+" + tail
    got = signed_sumset(sets, signs)
    assert got.elements == support_by_representation(sets, signs)
    assert typed(got) == typed(representation(sets, signs=signs, algo="mitm").support())


@given(sets=st.lists(narrow_sets, min_size=1, max_size=4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_switch_point_matches_representation(sets, data):
    signs = [data.draw(st.sampled_from([1, -1])) for _ in sets]
    lists, den = scaled_lists(sets, signs)
    want = [int(x * den) for x in support_by_representation(sets, signs)]
    sizes = [
        len(support_by_representation(sets[:j], signs[:j]))
        for j in range(1, len(sets) + 1)
    ]
    for switch in range(1, len(sets) + 1):
        assert kernels.support_values(lists, switch) == want
        for first in range(1, len(sets) + 1):
            assert kernels.support_sizes(lists, switch, first) == sizes[first - 1 :]


def _preferred_path(lists, elements):
    """The switch point the planner prefers by cost, under a budget that
    every row fits: 1 is the bitset throughout, len(lists) the fold."""
    plans = engine._plan_support(lists, elements, len(lists))
    return engine.choose(plans, "auto", 2**300, "")


def test_planner_takes_the_bitset_on_an_interval():
    B = OrderedSet(range(-(2**70), -(2**70) + 60))
    sets, signs = [B, B, B], (1, 1, -1)
    lists, _ = scaled_lists(sets, signs)
    assert _preferred_path(lists, False) == 1
    assert _preferred_path(lists, True) == 1
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
    for pattern in ("+-", "++-", "+-+-"):
        sets = [B] * len(pattern)
        assert _preferred_path(scaled_lists(sets, pattern)[0], True) == len(sets)
        want = support_by_representation(sets, pattern)
        assert doubling(B, pattern).size == len(want)
        assert signed_sumset(sets, pattern).elements == want


def test_singletons():
    for x in (0, -(2**70), Fraction(-7, 3), 2**64 + 1):
        A = OrderedSet([x])
        for pattern in ALL_PATTERNS:
            assert doubling(A, pattern).size == 1
        assert signed_sumset([A, A, A], "+--").elements == (-x,)


# -- representation against brute force --------------------------------------
#
# Every algorithm on signed sets, against the sums of all tuples of the
# negated sets (``conftest.brute_force_representation``).  Each set sits
# at one base, near 0, +/-2**63 or +/-2**64, and spans at most about 80,
# so ``dense`` fits: a rational set's scaled span is at most 210 times
# that.

REP_BASES = [0, 2**63 - 40, -(2**63) - 40, 2**64 - 40, -(2**64) - 40]


@st.composite
def based_sets(draw):
    base = draw(st.sampled_from(REP_BASES))
    ints = st.integers(0, 80)
    fracs = st.builds(Fraction, st.integers(0, 240), st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["int", "frac", "mixed"]))
    offsets = {"int": ints, "frac": fracs, "mixed": st.one_of(ints, fracs)}[kind]
    elements = draw(st.sets(offsets, min_size=1, max_size=4))
    return OrderedSet(sorted(base + x for x in elements))


@given(
    sets=st.lists(based_sets(), min_size=1, max_size=4, unique=True),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_representation_matches_brute_force(sets, data):
    signs = data.draw(st.text("+-", min_size=len(sets), max_size=len(sets)))
    negated = [A if e == "+" else A.negate() for A, e in zip(sets, signs)]
    want = brute_force_representation(negated)
    for algo in ("auto", "naive", "mitm", "dense"):
        rep = representation(sets, signs=signs, algo=algo)
        assert dict(rep.items()) == want, algo
        assert typed(rep.values) == typed(map(oracle_canon, sorted(want))), algo


# -- one set repeated: the multiset kernel, and results sorted when read ----
#
# ``[A] * k`` under one sign is k copies of one signed list, which ``mitm``
# may hand to ``kernels.self_sum_counts``.  A kernel's Counter becomes a
# ``SparseCounts`` that sorts it only when read in order; every reading
# must equal the eagerly sorted container's, and the order-free reductions
# must not sort at all.


def order_free_readings(rep):
    top = rep.max_count()
    return {
        "len": len(rep),
        "mass": rep.mass,
        "squares": mass_of_squares(rep),
        "moments": [moment_sum(rep, m) for m in (1, 3)],
        "spectrum": spectrum_of(rep),
        "tails": [rich_tail(rep, r) for r in (1, 2, top // 3, top, top + 1)],
        "max": top,
    }


def _no_sort(self):
    raise AssertionError("a kept dict was sorted")


@given(A=based_sets(), k=st.integers(1, 6), data=st.data())
@settings(max_examples=200, deadline=None)
def test_repeated_set_matches_brute_force(A, k, data):
    pattern = data.draw(st.sampled_from(["+", "-", "mixed"]))
    if pattern == "mixed":
        signs = data.draw(st.text("+-", min_size=k, max_size=k))
    else:
        signs = pattern * k
    negated = [A if e == "+" else A.negate() for e in signs]
    want = brute_force_representation(negated)
    eager = SparseCounts(sorted(want), [want[v] for v in sorted(want)])
    if len(set(signs)) == 1:
        # The kernel itself, on the signed and scaled list.
        (scaled,), den = scaled_lists([A], signs[0])
        sums = kernels.self_sum_counts(scaled, k)
        assert {Fraction(x, den): c for x, c in sums.items()} == want
    for algo in ("auto", "naive", "mitm", "dense"):
        # A kept dict (naive always, mitm at a multiset node), or tuples.
        result = representation([A] * k, signs=signs, algo=algo)
        lazy = (SparseCounts(dict(want), None), result)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SparseCounts, "_sort_mapping", _no_sort)
            for rep in lazy:
                assert order_free_readings(rep) == order_free_readings(eager), algo
        for rep in lazy:
            assert (rep.values, rep.counts) == (eager.values, eager.counts), algo
            assert typed(rep.values) == typed(eager.values), algo
            assert readings(rep) == readings(eager), algo
            assert rep == eager and hash(rep) == hash(eager), algo


@pytest.mark.parametrize(
    "mapping",
    [{}, {1: 0}, {1: 2, 2: -3}, {1: 1.5}, {1: Fraction(1)}, {0.5: 1}, {"1": 1}],
    ids=["empty", "zero", "negative", "float_count", "fraction_count",
         "float_value", "string_value"],
)
def test_mapping_checks_match_list_checks(mapping):
    values = list(mapping)
    with pytest.raises(InputError) as listed:
        SparseCounts(values, [mapping[v] for v in values])
    with pytest.raises(InputError) as kept:
        SparseCounts(dict(mapping), None)
    assert str(kept.value) == str(listed.value)


def test_mapping_values_are_canonicalised():
    mapping = {Fraction(4, 2): 3, Fraction(1, 2): 1, -1: True, 7: np.int64(2)}
    # Counts read before the values sort the kept dict just the same.
    assert typed(SparseCounts(dict(mapping), None).counts) == typed((1, 1, 3, 2))
    rep = SparseCounts(mapping, None)
    assert rep == SparseCounts([-1, Fraction(1, 2), 2, 7], [1, 1, 3, 2])
    assert typed(rep.values) == typed((-1, Fraction(1, 2), 2, 7))
    assert typed(rep.counts) == typed((1, 1, 3, 2))
    assert not rep.is_integer and rep.mass == 7


def test_from_dict_copies():
    mapping = {3: 1, 1: 2}
    rep = SparseCounts(mapping)
    mapping[2] = 5
    assert dict(rep.items()) == {1: 2, 3: 1} and rep.mass == 3


# -- dense results kept as count arrays, against mitm -----------------------
#
# ``algo="dense"`` hands ``SparseCounts._result`` the range of its values
# and its count array, wherever the values lie and at any width, and the
# container keeps them unchecked but for their mass; ``spectrum_of``,
# ``mass_of_squares``, the moments and the tails then read the count
# array.  Everything a caller can read must equal the ``mitm`` result, as
# Python ints.


def readings(rep):
    """Everything a caller reads from a representation function."""
    top = rep.max_count()
    # The count classes first, while a kept dict is not yet sorted.
    bounds = [
        (-(2**70), 2), (1, 2), (2, 4), (max(top // 2, 1), top), (top, 2 * top),
        (top + 1, 2**70),
    ]
    return {
        "classes": [rep.count_class(low, high) for low, high in bounds],
        "items": list(rep.items()),
        "len": len(rep),
        "hash": hash(rep),
        "repr": repr(rep),
        "mass": rep.mass,
        "squares": mass_of_squares(rep),
        "moments": [moment_sum(rep, m) for m in (1, 3)],
        "spectrum": spectrum_of(rep),
        "tails": [rich_tail(rep, r) for r in (-(2**70), 1, 2, top // 3, top, top + 1)],
        "max": top,
    }


def python_ints(x):
    """Every int inside x is a Python int (no numpy scalar leaked out)."""
    if isinstance(x, dict):
        return all(map(python_ints, x.values()))
    if isinstance(x, (list, tuple)):
        return all(map(python_ints, x))
    if hasattr(x, "classes"):
        return python_ints([x.classes, x.total_T])
    return type(x) in (int, str)


# Values at small offsets, near the edge of int64 and beyond it: the ints
# of k-fold sums past +/-2**63 are gathered by Python adds, the rest by
# numpy's.
dense_bases = st.sampled_from([0, 2**61, -(2**61), 2**62 - 40, -(2**63) + 40])
dense_sets = st.sets(st.integers(-30, 30), min_size=1, max_size=6)


@given(
    sets=st.lists(dense_sets, min_size=2, max_size=5), data=st.data()
)
@settings(max_examples=60, deadline=None)
def test_dense_arrays_read_like_mitm(sets, data):
    base = data.draw(dense_bases)
    sets = [OrderedSet(sorted(base + x for x in xs)) for xs in sets]
    for signs in itertools.product((1, -1), repeat=len(sets)):
        dense = representation(sets, signs=signs, algo="dense")
        mitm = representation(sets, signs=signs, algo="mitm")
        assert dense == mitm
        got = readings(dense)
        assert got == readings(mitm)
        assert python_ints(got)


@pytest.mark.parametrize(
    "k, storage",
    [(32, "int64 dot"), (33, "Python sum"), (34, "Python sum"),
     (64, "Python sum"), (70, "object fold")],
)
def test_dense_reductions_at_the_int64_limits(k, storage):
    # [{0, 1}] * k has counts C(k, j), mass 2**k and sum of squares
    # C(2k, k).  max(c) * mass is just below 2**63 at k = 32 and just
    # above at k = 33; at k = 34 the sum of squares itself passes 2**63.
    # The fold stays in int64 while 2 * C(k - 1, (k - 1) // 2) < 2**63,
    # up to k = 66; from k = 67 on it runs over Python ints, and that
    # array is kept.
    sets = [OrderedSet([0, 1])] * k
    dense = representation(sets, algo="dense")
    c = dense._count_array
    if storage == "object fold":
        assert c.dtype == object
    else:
        assert (int(c.max()) * dense.mass < 2**63) == (storage == "int64 dot")
    got = readings(dense)
    assert got == readings(representation(sets, algo="mitm"))
    assert python_ints(got)
    assert got["squares"] == math.comb(2 * k, k)


class _NoToList(np.ndarray):
    def tolist(self):
        raise AssertionError("ndarray.tolist called")


def test_reductions_of_a_dense_result_build_no_lists(monkeypatch):
    fold = engine._rep_dense

    def guarded(lists):
        values, counts = fold(lists)
        return values, counts.view(_NoToList)

    monkeypatch.setattr(engine, "_rep_dense", guarded)
    A = OrderedSet(range(0, 120, 3))
    rep = representation([A] * 4, algo="dense")
    # The fold's own array, zeros included, is kept.
    assert isinstance(rep._count_array, _NoToList)
    assert rep._count_array.size > len(rep)
    top = rep.max_count()
    readings_without_tuples = (
        spectrum_of(rep), mass_of_squares(rep), len(rep), rep.mass, top,
        [rich_tail(rep, r) for r in (-(2**70), 0, 1, 2, top // 3, top, top + 1, 2**70)],
    )
    assert python_ints(readings_without_tuples)
    with pytest.raises(AssertionError, match="tolist"):
        rep.counts


def test_moments_of_a_dense_result_gather_no_ints():
    # moment_sum reads the kept array's nonzero counts alone: the ints
    # are never gathered.
    sets = [OrderedSet(range(0, 120, 3))] * 4
    mitm = representation(sets, algo="mitm")
    dense = representation(sets, algo="dense")
    assert dense._count_array is not None
    moments = [moment_sum(dense, m) for m in (1, 2, 3)]
    assert python_ints(moments)
    assert moments == [moment_sum(mitm, m) for m in (1, 2, 3)]
    assert dense._ints is None


def _count_array(dtype, bits, top_bit):
    """Zeros and the counts 2**b - 1 and 2**b for b = 1 .. top_bit that
    lie below 2**bits: with top_bit = bits, up to the width's largest
    count, so 2**62 and 2**63 - 1 in int64."""
    counts = [c for b in range(1, top_bit + 1) for c in (0, 2**b - 1, 2**b)]
    return np.array([c for c in counts if c < 2**bits], dtype=dtype)


@pytest.mark.parametrize("top", ["narrow", "full"])
@pytest.mark.parametrize(
    "dtype, bits", [("uint8", 8), ("uint16", 16), ("uint32", 32), ("int64", 63)]
)
def test_count_array_reductions_are_exact(dtype, bits, top):
    # A kept fold array at each width, zeros included: the bit classes are
    # the bit lengths of the nonzero counts, and the sum of squares is
    # Python's, down the int64 dot (narrow, and full up to uint16) and
    # down the Python sum (full uint32 and int64).
    c = _count_array(dtype, bits, bits if top == "full" else 7)
    rep = SparseCounts._result(range(-5, -5 + len(c)), c, 1)
    nonzero = [int(x) for x in c if x]
    assert (max(nonzero) * sum(nonzero) < 2**63) == (top == "narrow" or bits <= 16)
    sizes = Counter(map(int.bit_length, nonzero))
    assert rep.dyadic_classes() == tuple(sorted((b - 1, n) for b, n in sizes.items()))
    assert mass_of_squares(rep) == sum(x * x for x in nonzero)
    listed = SparseCounts([v for v, x in zip(range(-5, -5 + len(c)), c) if x], nonzero)
    assert readings(rep) == readings(listed)
    assert python_ints(readings(rep))
    with engine.verification() as stats:
        engine._verify_representation(rep)
    assert stats.sandwich_checks == 1


@pytest.mark.parametrize(
    "values, den",
    [
        ([2, 6, 10], 2),
        ([2, 6, 10], 4),
        ([-6, 3, 9], 5),
        ([-(2**63), -(2**63) + 6], 6),
        ([-(2**63), -(2**63) + 2], 2**63),
        ([-(2**63)], 3 * 2**63),
        ([0], 2**64),
        ([2**63 - 8, 2**63 - 4], 8),
    ],
    ids=["to_1", "partly", "coprime", "min_partly", "min_to_2", "min_past_int64",
         "zero_past_int64", "max_partly"],
)
def test_fold_over_a_denominator_equals_lists(values, den):
    # The fold's den reduction (gcd over its first int and the nonzero
    # offsets, keeping every g-th cell) equals the checked constructor's
    # on the same values as Fractions.
    counts = list(range(1, len(values) + 1))
    cells = np.zeros(values[-1] - values[0] + 1, dtype=np.uint8)
    cells[[v - values[0] for v in values]] = counts
    fold = SparseCounts._result(range(values[0], values[-1] + 1), cells, den)
    listed = SparseCounts([Fraction(v, den) for v in values], counts)
    assert fold._count_array is not None
    for name in ("den", "ints", "counts"):
        assert getattr(fold, name) == getattr(listed, name), name
    assert typed(fold.values) == typed(listed.values)
    assert readings(fold) == readings(listed)


def test_dense_past_int64_over_a_denominator(monkeypatch):
    # Over den 3 the sums of A + A are about 3 * 2**63: the fold still
    # hands over its range and count array, which the container keeps.
    A = OrderedSet([2**62 + Fraction(1, 3), 2**62 + Fraction(2, 3)])
    handed = []
    fold = engine._rep_dense

    def spy(lists):
        handed.append(fold(lists))
        return handed[-1]

    monkeypatch.setattr(engine, "_rep_dense", spy)
    rep = representation([A, A], algo="dense")
    ((values, counts),) = handed
    assert type(values) is range and np.shares_memory(rep._count_array, counts)
    assert rep.den == 3 and rep == representation([A, A], algo="mitm")
    sums = [2**63 + Fraction(2, 3), 2**63 + 1, 2**63 + Fraction(4, 3)]
    assert dict(rep.items()) == dict(zip(sums, [1, 2, 1]))


@pytest.mark.parametrize(
    "b, total", [(Fraction(-1, 2**63) - 1, -1), (Fraction(-1, 2**63), 0)]
)
def test_dense_over_a_denominator_past_int64(b, total):
    # Over den 2**63 the one sum is -2**63 or 0, whose gcd with den is
    # 2**63 or den itself: the fold's count array is kept, reduced to den 1.
    sets = [OrderedSet([Fraction(1, 2**63)]), OrderedSet([b])]
    dense = representation(sets, algo="dense")
    assert dense._count_array is not None and dense.den == 1
    assert dense == representation(sets, algo="mitm")
    assert typed(dense.values) == typed((total,))


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64, np.float64])
def test_other_arrays_take_the_list_checks(dtype):
    # The constructor keeps no array: arrays of values are checked element
    # by element like any sequence, so their numpy scalars are rejected.
    values = np.array([1, 2], dtype=dtype)
    with pytest.raises(InputError) as arrays:
        SparseCounts(values, np.array([1, 1]))
    with pytest.raises(InputError) as listed:
        SparseCounts(list(values), [1, 1])
    assert str(arrays.value) == str(listed.value)
    assert str(arrays.value).startswith("not an exact rational")


def test_array_mass_past_int64():
    # Counts that fit int64 whose sum does not: the mass is a Python sum.
    p = SparseCounts._result(range(2), np.array([2**62, 2**62]), 1)
    assert p.mass == 2**63 and type(p.mass) is int
    assert mass_of_squares(p) == 2**125
    assert p == SparseCounts([0, 1], [2**62, 2**62])


# -- popular class against the dict-of-lists scan ----------------------------
#
# ``popular_dyadic_class`` picks the class from
# ``SparseCounts.dyadic_classes`` and gathers its values in one pass, and
# ``difference_profile`` picks it, with its energy bound, from one
# histogram of r_{A-A}'s counts.  The oracle for both is the scan they
# replaced: every difference appended to the list of its bit class, on
# the brute-force r_{A-A}.


def oracle_popular_class(diff):
    """(differences, delta, score) of the class maximizing |D| * Delta**2
    in the difference counts ``diff``; ties go to the larger Delta."""
    by_class = {}
    for v, c in diff.items():
        by_class.setdefault(c.bit_length() - 1, []).append(v)
    delta, values = max(
        ((2**j, vals) for j, vals in by_class.items()),
        key=lambda dv: (len(dv[1]) * dv[0] ** 2, dv[0]),
    )
    return tuple(sorted(map(oracle_canon, values))), delta, len(values) * delta**2


@st.composite
def popular_sets(draw):
    base = draw(st.sampled_from(REP_BASES))
    ints = st.integers(0, 120)
    fracs = st.builds(Fraction, st.integers(0, 360), st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["int", "frac", "mixed"]))
    offsets = {"int": ints, "frac": fracs, "mixed": st.one_of(ints, fracs)}[kind]
    elements = draw(st.sets(offsets, min_size=2, max_size=30))
    return OrderedSet(sorted(base + x for x in elements))


def check_popular_class(A, want):
    for algo in ("auto", "naive", "mitm", "dense"):
        pop = popular_dyadic_class(A, algo=algo)
        got = (typed(pop.differences.elements), pop.delta, pop.score)
        assert got == (typed(want[0]), *want[1:]), algo
        diff = representation([A, A], signs="+-", algo=algo)
        # The count pass reads E, E3 and the class with its bound from one
        # histogram; E read from r_{A-A} against E built from r_{A+A}.
        e = energy_of(diff, [A, A])
        assert e == energy_T([A, A], algo=algo) == brute_force_T([A, A]), algo
        bound = popular_bound_factor(len(A)) * want[2]
        popular = PopularBound(want[1], len(want[0]), want[2], bound, e <= bound)
        profile = (e, moment_sum(diff, 3), popular)
        assert engine.difference_profile(diff, A) == profile, algo
        assert check_popular_bound(A, algo=algo) == (e, bound, e <= bound), algo


@given(A=popular_sets())
@settings(max_examples=200, deadline=None)
def test_popular_class_matches_dict_scan(A):
    diff = brute_force_representation([A, A.negate()])
    check_popular_class(A, oracle_popular_class(diff))


@pytest.mark.parametrize(
    "A",
    [OrderedSet([0, 1, 4, 5]), OrderedSet([Fraction(x, 3) for x in (0, 1, 4, 5)])],
    ids=["int", "frac"],
)
def test_popular_class_tie_goes_to_the_larger_delta(A):
    # r_{A-A}: 0 -> 4; +-1, +-4 -> 2; +-3, +-5 -> 1.  The classes with
    # Delta = 4 and Delta = 2 both score 16.
    sp = engine.spectrum([A, A], signs="+-")
    assert sp.classes == ((0, 4), (1, 4), (2, 1))
    diff = brute_force_representation([A, A.negate()])
    assert oracle_popular_class(diff) == ((0,), 4, 16)
    check_popular_class(A, ((0,), 4, 16))


# -- one canonical form from every construction path -------------------------
#
# A set the engine computes (ints over a reduced denominator) must equal
# the set a caller builds from the brute-force values: in value, in hash
# and in exact element types.  A rational set whose elements are all
# integers comes back integer, which ``algo="dense"`` accepts; the
# ``by_set`` dict of ``build_partition`` and the ``A == sets[0]`` check of
# ``energy_of`` depend on this.


@st.composite
def canonical_sets(draw):
    base = draw(st.sampled_from(REP_BASES))
    ints = st.integers(0, 60)
    fracs = st.builds(Fraction, st.integers(0, 240), st.sampled_from(PRIMES[:8]))
    halves = ints.map(lambda x: x + Fraction(1, 2))
    kind = draw(st.sampled_from(["int", "frac", "mixed", "halves"]))
    offsets = {
        "int": ints, "frac": fracs, "mixed": st.one_of(ints, fracs), "halves": halves
    }[kind]
    elements = draw(st.sets(offsets, min_size=1, max_size=4))
    return OrderedSet(sorted(base + x for x in elements))


def check_canonical(got, values):
    want = OrderedSet(sorted(set(values)))
    assert got == want and hash(got) == hash(want)
    assert typed(got.elements) == typed(want.elements)
    assert got.is_integer == all(Fraction(x).denominator == 1 for x in values)
    if got.is_integer:
        dense = representation([got, got], signs="+-", algo="dense")
        assert dense == representation([want, want], signs="+-", algo="mitm")


@given(sets=st.lists(canonical_sets(), min_size=1, max_size=3), data=st.data())
@settings(max_examples=200, deadline=None)
def test_every_path_gives_one_canonical_form(sets, data):
    tail = data.draw(st.text("+-", min_size=len(sets) - 1, max_size=len(sets) - 1))
    signs = "+" + tail
    signed = [
        [x if e == "+" else -x for x in A.elements] for A, e in zip(sets, signs)
    ]
    sums = list(map(sum, itertools.product(*signed)))
    check_canonical(signed_sumset(sets, signs), sums)
    for algo in ("naive", "mitm", "dense"):
        # Denominators up to 19 each put the common one up to 9699690, so
        # the span dense folds can pass 10**9: past a 64 MiB estimate it
        # must raise, before allocating, and is not run.
        try:
            rep = representation(sets, signs=signs, algo=algo, mem_budget=2**26)
        except ResourceError as exc:
            assert algo == "dense" and exc.estimated_bytes > 2**26
            continue
        check_canonical(rep.support(), sums)
    A = sets[0]
    check_canonical(A.negate(), [-x for x in A.elements])
    diff = {}
    for a, b in itertools.product(A.elements, repeat=2):
        diff[a - b] = diff.get(a - b, 0) + 1
    if len(A) >= 2:
        pop = popular_dyadic_class(A)
        check_canonical(pop.differences, oracle_popular_class(diff)[0])


def test_rational_sets_with_integer_sums_come_back_integer():
    A = OrderedSet([Fraction(1, 2), Fraction(3, 2)])
    B = OrderedSet([Fraction(1, 2), Fraction(5, 2)])
    rep = representation([A, B])
    assert rep.is_integer and typed(rep.values) == typed((1, 2, 3, 4))
    naive = representation([A, B], algo="naive")
    for S in (signed_sumset([A, B], "++"), naive.support(), rep.support()):
        assert S == OrderedSet([1, 2, 3, 4]) and S.is_integer
        assert typed(S.elements) == typed((1, 2, 3, 4))
        assert representation([S, S], algo="dense") == representation([S, S])


def test_rational_results_build_no_values_until_read(monkeypatch):
    # The engine runs on the stored ints: no value of a rational result
    # (an int or a Fraction) is built until a caller reads it.
    A = OrderedSet([Fraction(1, 3), Fraction(1, 2), 2])
    B = OrderedSet([Fraction(-2, 7), 5, Fraction(21, 4)])

    def unread(ints, den):
        raise AssertionError("values built before they were read")

    with monkeypatch.context() as mp:
        mp.setattr(core, "_rationals", unread)
        rep = representation([A, B, A], signs="+-+")
        diff = representation([A, A], signs="+-")
        S = signed_sumset([A, B], "+-")
        pop = popular_dyadic_class(A)
        read = (len(rep), rep.mass, spectrum_of(rep), len(S), S.is_integer,
                len(pop.differences), engine.energy_of(diff, [A, A]),
                doubling(B, "++-").size, convexity_order(B).level)
    assert dict(rep.items()) == brute_force_representation([A, B.negate(), A])
    assert S == OrderedSet(sorted({a - b for a in A for b in B}))
    assert read[3:5] == (len(S.elements), False)
