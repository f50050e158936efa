"""Generator determinism, family parsing, and construction guarantees."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import pytest

from sumsetlab import (
    InputError,
    SplitMix64,
    convexity_order,
    doubling,
    gen_gap,
    gen_interval,
    gen_power,
    gen_random_s_convex,
    parse_family,
)
from sumsetlab.convexity import IntegerPower, IntegerRoot, eval_fn
from sumsetlab.families import (
    _FAMILIES,
    FamilySpec,
    format_family,
    gen_ap,
    generate,
    instantiate,
)

README = Path(__file__).resolve().parent.parent / "README.md"

# One spec per family, with every parameter given; the registry test below
# fails when a family is added without an example here.
EXAMPLES = {
    "interval": "interval:n=7",
    "power": "power:n=5,m=3",
    "ap": "ap:n=6,base=-2,step=1/3",
    "random_s_convex": "rsc:n=8,s=2,seed=7,gap=4",
    "gap": "gap:dims=3x2,steps=1:100,base=1/2",
}


def _reference_splitmix(state: int, n: int) -> list[int]:
    """Independent transcription of the documented update rule."""
    out = []
    mask = (1 << 64) - 1
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_documented_seed0_vectors(self):
        rng = SplitMix64(0)
        got = [rng.next_u64() for _ in range(3)]
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert got == _reference_splitmix(0, 3)

    def test_matches_reference_for_other_seeds(self):
        for seed in (1, 42, 2**64 - 1, 123456789):
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(5)] == _reference_splitmix(seed, 5)

    def test_draw_rule(self):
        rng = SplitMix64(9)
        ref = _reference_splitmix(9, 4)
        assert [SplitMix64(9).next_in(1, g) for g in (7, 7, 7, 7)][0] == 1 + ref[0] % 7
        draws = [rng.next_in(1, 10) for _ in range(4)]
        assert draws == [1 + r % 10 for r in ref]
        assert all(1 <= d <= 10 for d in draws)


class TestGenerators:
    def test_power_family(self):
        assert gen_power(5, 2).elements == (1, 4, 9, 16, 25)
        assert gen_power(6, 1) == gen_interval(6)
        assert gen_power(3, 3).elements == (1, 8, 27)

    def test_power_orders(self):
        for s in (1, 2, 3):
            assert convexity_order(gen_power(32, s + 1)).is_exactly(s)

    def test_random_s_convex_base_case(self):
        A = gen_random_s_convex(10, 0, 3, 5)
        assert len(A) == 10 and A[0] >= 1

    def test_random_s_convex_order(self):
        for seed in range(15):
            A = gen_random_s_convex(8, 2, seed, 4)
            assert convexity_order(A).is_at_least(2)

    def test_random_s_convex_deterministic(self):
        a = gen_random_s_convex(16, 3, 77, 6)
        b = gen_random_s_convex(16, 3, 77, 6)
        assert a == b

    def test_random_s_convex_size_guard(self):
        with pytest.raises(InputError):
            gen_random_s_convex(3, 2, 0, 4)

    def test_gap_interval_case(self):
        B = gen_gap((5,), (1,), 1)
        assert B == gen_interval(5)
        rep = doubling(B, "++-")
        assert rep.size == 3 * 5 - 2
        assert rep.K == Fraction(13, 5)

    def test_gap_rank_two_proper(self):
        B = gen_gap((4, 4), (1, 100), 0)
        assert len(B) == 16

    def test_gap_collision_rejected(self):
        with pytest.raises(InputError):
            gen_gap((3, 3), (1, 2), 0)  # 0+2 == 2+0

    def test_gap_singleton(self):
        B = gen_gap((1,), (1,), 5)
        assert doubling(B, "++-").K == 1

    def test_composed_root_of_squares(self):
        assert eval_fn(IntegerRoot(2), gen_power(6, 2)) == gen_interval(6)

    def test_composed_cube_of_interval(self):
        assert eval_fn(IntegerPower(3), gen_interval(5)) == gen_power(5, 3)

    def test_ap(self):
        A = gen_ap(4, 1, Fraction(1, 2))
        assert A.elements == (1, Fraction(3, 2), 2, Fraction(5, 2))


class TestFamilySpecs:
    def test_parse_and_generate(self):
        spec = parse_family("power:n=5,m=2")
        assert generate(spec).elements == (1, 4, 9, 16, 25)

    def test_parse_rsc(self):
        spec = parse_family("rsc:n=8,s=2,seed=7,gap=4")
        assert generate(spec) == gen_random_s_convex(8, 2, 7, 4)

    def test_parse_gap(self):
        spec = parse_family("gap:dims=3x2,steps=1:100,base=0")
        assert len(generate(spec)) == 6

    def test_parse_composed_with_commas(self):
        spec = parse_family("composed:f=poly:0,1,inner=power:n=4,m=2")
        assert generate(spec) == gen_power(4, 2)

    def test_parse_composed_root(self):
        spec = parse_family("composed:f=root:2,inner=power:n=9,m=2")
        assert generate(spec) == gen_interval(9)

    def test_format_roundtrip(self):
        for text in (
            "interval:n=7",
            "power:n=5,m=3",
            "rsc:n=8,s=2,seed=7,gap=4",
            "gap:dims=3x2,steps=1:100,base=0",
            "composed:f=root:2,inner=power:n=9,m=2",
        ):
            spec = parse_family(text)
            again = parse_family(format_family(spec))
            assert generate(spec) == generate(again)

    def test_default_seed_plumbs_through(self):
        spec = parse_family("rsc:n=8,s=1,gap=4", default_seed=123)
        assert spec.seed == 123
        assert generate(spec) == gen_random_s_convex(8, 1, 123, 4)

    def test_bad_specs(self):
        for bad in (
            "power:n=5",  # missing m
            "nosuch:n=5",
            "power:n=x,m=2",
            "gap:dims=3,steps=",
            "composed:f=root:2",  # missing inner
            "rsc:n=10,s=2,gap=8,sed=3",  # unknown parameter
            "power:n=5,m=2,n=7",  # repeated parameter
            "gap:dims=4x4,steps=1:100,n=4",  # gap has no size parameter
        ):
            with pytest.raises(InputError):
                parse_family(bad)

    def test_same_spec_same_set(self):
        s1 = FamilySpec("random_s_convex", {"n": 12, "s": 1, "gap": 8}, seed=5)
        s2 = FamilySpec("random_s_convex", {"n": 12, "s": 1, "gap": 8}, seed=5)
        assert generate(s1) == generate(s2)


class TestRegistry:
    def test_every_family_has_an_example(self):
        assert set(EXAMPLES) == set(_FAMILIES)

    @pytest.mark.parametrize("name", sorted(_FAMILIES))
    def test_format_is_stable(self, name):
        text = EXAMPLES[name]
        spec = parse_family(text)
        assert spec.name == name
        assert format_family(spec) == text
        assert parse_family(format_family(spec)) == spec
        composed = parse_family(f"composed:f=pow:1,inner={text}")
        assert format_family(composed) == f"composed:f=pow:1,inner={text}"

    @pytest.mark.parametrize("name", sorted(_FAMILIES))
    def test_instantiate_sets_n(self, name):
        text = EXAMPLES[name]
        if "n" not in {key for key, _, _ in _FAMILIES[name].params}:
            with pytest.raises(InputError, match="has no parameter n"):
                instantiate(text, 7)
            return
        spec = instantiate(text, 7)
        assert spec.params["n"] == 7
        assert len(generate(spec)) == 7
        composed = instantiate(f"composed:f=pow:2,inner={text}", 7)
        assert composed.params["inner"] == spec

    def test_readme_table_names_every_family(self):
        section = README.read_text().split("### Family specs", 1)[1]
        table = section.split("\n\n", 2)[1]
        heads = re.findall(r"^\| `(\w+):", table, flags=re.M)
        tags = [fam.tag for fam in _FAMILIES.values()] + ["composed"]
        assert sorted(heads) == sorted(tags)
