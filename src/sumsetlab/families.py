"""Deterministic generators for the experiment set families.

Every family is fully determined by its spec string (and seed where
randomized), so experiment tables are reproducible bit for bit across
machines and languages.

The RNG is splitmix64: state advances by adding the odd constant
0x9E3779B97F4A7C15 (mod 2**64), and each output mixes the new state as

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Draws in [1, g] are taken as ``1 + (output mod g)``.  Test vectors for
seed 0 (first three outputs): 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
0x06C45D188009454F.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .convexity import eval_fn, parse_function
from .core import OrderedSet, Scalar, canon, conversion_error, format_element
from .errors import InputError

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The fixed 64-bit generator behind every randomized family."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_in(self, lo: int, hi: int) -> int:
        """Draw from [lo, hi] as lo + (output mod width); documented rule."""
        if hi < lo:
            raise InputError("empty draw range")
        return lo + self.next_u64() % (hi - lo + 1)


def gen_interval(n: int) -> OrderedSet:
    """{1, ..., n}."""
    if n < 1:
        raise InputError("interval length must be >= 1")
    return OrderedSet(range(1, n + 1))


def gen_power(n: int, m: int) -> OrderedSet:
    """{i**m : 1 <= i <= n}; has convexity order exactly m - 1."""
    if n < 1 or m < 1:
        raise InputError("gen_power needs n >= 1 and m >= 1")
    return OrderedSet(i**m for i in range(1, n + 1))


def gen_ap(n: int, base: Scalar = 1, step: Scalar = 1) -> OrderedSet:
    base, step = canon(base), canon(step)
    if n < 1 or step <= 0:
        raise InputError("gen_ap needs n >= 1 and step > 0")
    return OrderedSet(base + i * step for i in range(n))


def gen_random_s_convex(n: int, s: int, seed: int, gap_bound: int) -> OrderedSet:
    """A seeded set with convexity order >= s, size exactly n.

    Construction: draw a strictly increasing sequence of n - s positive
    integers whose consecutive gaps are uniform in [1, gap_bound], then
    integrate s times (each integration prepends a fresh positive head
    and takes running sums, so differencing recovers the previous
    level).  Level s of the result is the drawn sequence, hence every
    level up to s is strictly increasing.
    """
    if s < 0:
        raise InputError("convexity order must be >= 0")
    if gap_bound < 1:
        raise InputError("gap bound must be >= 1")
    if n <= s + 1:
        raise InputError(f"need n >= s + 2, got n={n}, s={s}")
    rng = SplitMix64(seed)
    base_len = n - s
    vals = [rng.next_in(1, gap_bound)]
    for _ in range(base_len - 1):
        vals.append(vals[-1] + rng.next_in(1, gap_bound))
    for _ in range(s):
        acc = rng.next_in(1, gap_bound)
        integrated = [acc]
        for v in vals:
            acc += v
            integrated.append(acc)
        vals = integrated
    return OrderedSet(vals)


def gen_gap(
    dims: Sequence[int], steps: Sequence[Scalar], base: Scalar = 0
) -> OrderedSet:
    """The generalized arithmetic progression {base + sum_j i_j * step_j}.

    Properness (all sums distinct, so the size is the product of the
    dims) is enforced: a collision raises InputError rather than
    silently deduplicating, because doubling experiments rely on the
    exact size.
    """
    if not dims or len(dims) != len(steps):
        raise InputError("dims and steps must be non-empty and matched")
    if any(d < 1 for d in dims):
        raise InputError("every dim must be >= 1")
    steps = [canon(s) for s in steps]
    if any(s <= 0 for s in steps):
        raise InputError("every step must be positive")
    base = canon(base)
    values = [
        base + sum(i * s for i, s in zip(combo, steps))
        for combo in itertools.product(*(range(d) for d in dims))
    ]
    expected = 1
    for d in dims:
        expected *= d
    if len(set(values)) != expected:
        raise InputError("improper GAP: coordinate sums collide")
    return OrderedSet(sorted(values))


# ---------------------------------------------------------------------------
# Family specs and their textual form.
#
#   interval:n=64            power:n=64,m=3           ap:n=10,base=1,step=1/2
#   rsc:n=64,s=2,seed=7,gap=8
#   gap:dims=8x8,steps=1/1:1000/1,base=0
#   composed:f=root:2,inner=power:n=64,m=2
#
# In a composed spec, everything between "f=" and ",inner=" is the
# function text and everything after "inner=" is the inner family (both
# may contain ':' and ',').


class _Kind(NamedTuple):
    """How one parameter value is read from and written to spec text."""

    parse: Callable[[str], object]
    wording: str  # completes "parameter <key> must be ..."
    format: Callable[[object], str]


_INT = _Kind(int, "an integer", str)
_RATIONAL = _Kind(lambda t: canon(Fraction(t)), "a rational", format_element)
_DIMS = _Kind(
    lambda t: tuple(int(d) for d in t.split("x")),
    "integers separated by 'x'",
    lambda v: "x".join(str(d) for d in v),
)
_STEPS = _Kind(
    lambda t: tuple(canon(Fraction(s)) for s in t.split(":")),
    "rationals separated by ':'",
    lambda v: ":".join(format_element(s) for s in v),
)


@dataclass(frozen=True)
class _Family:
    tag: str  # the name written in spec text
    # (key, kind, default) in spec order; a default of None marks a
    # required parameter.  The "seed" parameter lives in FamilySpec.seed
    # and defaults to the caller's seed.
    params: tuple
    make: Callable[..., OrderedSet]  # called with the values in spec order


#: Every family except "composed", keyed by its FamilySpec name.
_FAMILIES = {
    "interval": _Family("interval", (("n", _INT, None),), gen_interval),
    "power": _Family("power", (("n", _INT, None), ("m", _INT, None)), gen_power),
    "ap": _Family(
        "ap",
        (("n", _INT, None), ("base", _RATIONAL, 1), ("step", _RATIONAL, 1)),
        gen_ap,
    ),
    "random_s_convex": _Family(
        "rsc",
        (("n", _INT, None), ("s", _INT, None), ("seed", _INT, None), ("gap", _INT, 8)),
        gen_random_s_convex,
    ),
    "gap": _Family(
        "gap",
        (("dims", _DIMS, None), ("steps", _STEPS, None), ("base", _RATIONAL, 0)),
        gen_gap,
    ),
}

# Spec text may name a family by its tag or by its FamilySpec name.
_NAMES = {
    alias: name for name, fam in _FAMILIES.items() for alias in (name, fam.tag)
}


@dataclass(frozen=True)
class FamilySpec:
    """A parsed family description; (name, params, seed) fixes the set."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def parse_family(text: str, default_seed: int = 0) -> FamilySpec:
    return instantiate(text, None, default_seed)


def instantiate(template: str, n: int | None, default_seed: int = 0) -> FamilySpec:
    """Parse a family spec with its size parameter set to n.

    The innermost family of a composed spec takes the size; an n= in the
    text is replaced.  With n None this is parse_family.
    """
    head, _, rest = template.partition(":")
    head = head.strip()
    if head == "composed":
        return _parse_composed(rest, n, default_seed)
    name = _NAMES.get(head)
    if name is None:
        raise InputError(f"unknown family {head!r}")
    raw: dict = {}
    if rest:
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise InputError(f"expected key=value, got {part!r}")
            key = key.strip()
            if key in raw:
                raise InputError(f"family {name!r} repeats parameter {key}")
            raw[key] = value.strip()
    if n is not None:
        raw["n"] = str(n)
    family = _FAMILIES[name]
    known = {key for key, _, _ in family.params}
    for key in raw:
        if key not in known:
            raise InputError(f"family {name!r} has no parameter {key}")
    params: dict = {}
    for key, kind, default in family.params:
        if key in raw:
            try:
                params[key] = kind.parse(raw[key])
            except (ValueError, ZeroDivisionError) as exc:
                wording = f"parameter {key} must be {kind.wording}"
                raise conversion_error(exc, wording) from None
        elif default is not None:
            params[key] = default
        elif key != "seed":
            raise InputError(f"family {name!r} needs parameter {key}")
    # A size past sys.maxsize indexes no sequence.
    if params.get("n", 0) > sys.maxsize:
        raise InputError(f"family size n must be at most {sys.maxsize}")
    seed = params.pop("seed", default_seed)
    return FamilySpec(name, params, seed)


def _parse_composed(rest: str, n: int | None, default_seed: int) -> FamilySpec:
    if not rest.startswith("f="):
        raise InputError("composed spec must start with f=")
    fn_text, marker, inner_text = rest[2:].partition(",inner=")
    if not marker:
        raise InputError("composed spec must contain ,inner=")
    fn = parse_function(fn_text)
    inner = instantiate(inner_text, n, default_seed)
    return FamilySpec("composed", {"f": fn, "inner": inner}, inner.seed)


def _values(spec: FamilySpec, family: _Family) -> list:
    """The spec's parameter values in spec order."""
    return [
        spec.seed if key == "seed" else spec.params[key]
        for key, _, _ in family.params
    ]


def generate(spec: FamilySpec) -> OrderedSet:
    p = spec.params
    if spec.name == "composed":
        return eval_fn(p["f"], generate(p["inner"]))
    family = _FAMILIES[spec.name]
    return family.make(*_values(spec, family))


def format_family(spec: FamilySpec) -> str:
    """Canonical spec string (parses back to an equal spec)."""
    p = spec.params
    if spec.name == "composed":
        return f"composed:f={p['f'].text()},inner={format_family(p['inner'])}"
    family = _FAMILIES[spec.name]
    pairs = zip(family.params, _values(spec, family))
    return f"{family.tag}:" + ",".join(
        f"{key}={kind.format(value)}" for (key, kind, _), value in pairs
    )
