"""Exponent catalogue, log-log fitting, and bound-verification reports.

The catalogue records every growth exponent this laboratory can test:
upper bounds on k-fold energies of s-convex and near-convex sets, lower
bounds on signed sumset sizes, asymmetric energy bounds with doubling
dependence, and rich-sum tail exponents.  Exponents are exact rationals
(a few are decimals recorded as printed in their source tables and kept
as exact decimal fractions).

Asymptotic statements hide constants, so verification is desk-scale and
property-based: for a family of sets over a geometric N grid we report
the per-N ratios Q(N) / (K^kexp * N^nexp * L^lexp), whether the ratio
trend is monotone in the bound's direction, and whether the fitted
log-log slope of Q stays within the predicted exponent (tolerance 0.1,
pinned).  Measured constants are reported, never asserted against the
hidden ones.

Each quantity is read from the public engine entry that computes exactly
it: the T rows and the tails from ``engine.spectrum``, the sumset sizes
(the card rows) and doubling constants from ``engine.doubling``, the
size-only support path that never builds the sumset's elements, and the
cross energy from ``engine.energy_cross``.  So this module builds no
representation and no sumset, and a new way for the engine to compute a
quantity reaches every bound without a change here.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from math import log
from typing import Sequence

from .convexity import delta_h, eval_fn
from .core import OrderedSet
from .engine import (
    Spectrum,
    check_copies,
    doubling,
    energy_T,
    energy_cross,
    parse_signs,
    spectrum,
)
from .errors import InputError
from .families import (
    FamilySpec,
    format_family,
    generate,
    instantiate,
)

#: Slope tolerance used by every slope-within-bound flag.
SLOPE_TOL = 0.1

#: Relative slack when testing ratio monotonicity (float noise only).
RATIO_SLACK = 1e-12


def alpha(s: int) -> Fraction:
    """The cumulative saving exponent: sum of j * 2**-j for j = 1..s.

    Closed form 2 - (s + 2) / 2**s; approaches 2 from below.
    """
    if s < 0:
        raise InputError("s must be >= 0")
    return sum((Fraction(j, 2**j) for j in range(1, s + 1)), Fraction(0))


@dataclass(frozen=True)
class BoundSpec:
    """One catalogued growth bound.

    ``quantity`` names the measurable (T2/T3/T4/Tk, cardk, card_diff,
    card_sum, E_cross, xr_tail3); ``direction`` is "upper" or "lower".
    ``k_exponent`` applies to a doubling constant measured with
    ``doubling_pattern``; per_factor marks exponents applying to each of
    the k doubling constants separately (so k * k_exponent in the
    symmetric instantiation used here).
    """

    id: str
    quantity: str
    direction: str
    n_exponent: Fraction
    k_exponent: Fraction = Fraction(0)
    l_exponent: Fraction = Fraction(0)
    r_exponent: Fraction = Fraction(0)
    doubling_pattern: str = ""
    per_factor: bool = False
    params: dict = field(default_factory=dict)


def _ikrt(k: int | None) -> BoundSpec:
    if k is None or k < 1:
        raise InputError("IKRT needs k >= 1")
    n = Fraction(2 * k - 2) + Fraction(1, 2 ** (k - 1))
    return BoundSpec("IKRT", f"T{k}", "upper", n, params={"k": k})


def _need_s(s: int | None) -> int:
    if s is None or s < 0:
        raise InputError("this bound needs a convexity parameter s >= 0")
    return s


def _t_main_exponent(s: int) -> Fraction:
    return 2 ** (s + 1) - 1 - s + alpha(s)


def _by_s(bound_id, quantity, direction, n_exp, k_exp=None, least=0, **fields):
    """The catalogue row of a bound indexed by the convexity parameter s.

    Its builder measures ``quantity`` with k = 2**s summands, takes the
    N and K exponents as functions of s (no K exponent when ``k_exp`` is
    None) and needs s >= ``least``; ``fields`` are the other BoundSpec
    fields.
    """

    def build(s: int | None) -> BoundSpec:
        s = _need_s(s)
        if s < least:
            raise InputError(f"{bound_id} needs s >= {least}")
        k_exponent = Fraction(0) if k_exp is None else k_exp(s)
        return BoundSpec(
            bound_id, f"{quantity}{2**s}", direction, n_exp(s), k_exponent,
            params={"s": s, "k": 2**s}, **fields,
        )

    return "s", build


#: Every catalogued bound: a fixed BoundSpec, or the parameter it reads
#: and its builder, for the bounds indexed by the convexity parameter s
#: (k = 2**s summands) or by the number of summands k.
_CATALOGUE = {
    "KG_energy": BoundSpec("KG_energy", "T2", "upper", Fraction(5, 2), params={"k": 2}),
    "IKRT": ("k", _ikrt),
    "T_main": _by_s("T_main", "T", "upper", _t_main_exponent),
    "card_main": _by_s(
        "card_main", "card", "lower", lambda s: 1 + s - alpha(s), least=1
    ),
    "T4_improved": BoundSpec(
        "T4_improved", "T4", "upper", Fraction(4) + Fraction(24, 13), params={"k": 4}
    ),
    "T3": BoundSpec("T3", "T3", "upper", Fraction(4) + Fraction(1, 9), params={"k": 3}),
    "tail_14_3": BoundSpec(
        "tail_14_3",
        "xr_tail3",
        "upper",
        Fraction(14, 3),
        r_exponent=Fraction(-5, 2),
        params={"k": 3},
    ),
    "E_cross_sqrtK": BoundSpec(
        "E_cross_sqrtK",
        "E_cross",
        "upper",
        Fraction(1),
        k_exponent=Fraction(1, 2),
        l_exponent=Fraction(3, 2),
        doubling_pattern="++-",
    ),
    "E_cross_K": BoundSpec(
        "E_cross_K",
        "E_cross",
        "upper",
        Fraction(1),
        k_exponent=Fraction(1),
        l_exponent=Fraction(3, 2),
        doubling_pattern="+-",
    ),
    "T_near_convex": _by_s(
        "T_near_convex", "T", "upper", _t_main_exponent,
        lambda s: 2 - Fraction(2 + 2 * s - 2 * alpha(s), 2**s),
        doubling_pattern="++-", per_factor=True,
    ),
    "T_near_convex_sym": _by_s(
        "T_near_convex_sym", "T", "upper", _t_main_exponent,
        lambda s: 2 ** (s + 1) - 2 - 2 * s + 2 * alpha(s),
        doubling_pattern="++-",
    ),
    "S66_diff": BoundSpec("S66_diff", "card_diff", "lower", Fraction(8, 5)),
    "S66_sum": BoundSpec("S66_sum", "card_sum", "lower", Fraction(30, 19)),
    "S66_energy": BoundSpec(
        "S66_energy", "T2", "upper", Fraction(32, 13), params={"k": 2}
    ),
    "S63_diff": BoundSpec("S63_diff", "card_diff", "lower", 1 + Fraction(151, 234)),
    # Recorded as printed in the source table; its own derivation gives
    # 229/390, matching the printed decimal approximation.
    "S63_sum": BoundSpec("S63_sum", "card_sum", "lower", 1 + Fraction(229, 309)),
    # Decimal exponent as printed.
    "S63_energy": BoundSpec(
        "S63_energy", "T2", "upper", Fraction("2.4554"), params={"k": 2}
    ),
}

BOUND_IDS = tuple(_CATALOGUE)


def predicted(bound_id: str, s: int | None = None, k: int | None = None) -> BoundSpec:
    """The exact exponents for a catalogued bound id.

    ``s`` parametrizes the convexity-indexed families (k = 2**s
    summands); ``k`` parametrizes the iterated two-summand chain.  A
    bound ignores a parameter it does not read.
    """
    entry = _CATALOGUE.get(bound_id)
    if entry is None:
        raise InputError(f"unknown bound id {bound_id!r}")
    if isinstance(entry, BoundSpec):
        return entry
    param, build = entry
    return build(s if param == "s" else k)


# ---------------------------------------------------------------------------
# Log-log fitting.


@dataclass(frozen=True)
class FitReport:
    points: tuple[tuple[int, int], ...]
    slope: float
    intercept: float
    max_abs_residual: float


def fit_exponent(points: Sequence[tuple[int, int]]) -> FitReport:
    """Least-squares slope of ln Q against ln N.

    Needs at least 3 points with distinct N >= 1 and Q >= 1.
    """
    pts = tuple((int(n), int(q)) for n, q in points)
    if len(pts) < 3:
        raise InputError("need at least 3 points to fit")
    ns = [n for n, _ in pts]
    if len(set(ns)) != len(ns):
        raise InputError("N values must be distinct")
    if any(n < 1 for n in ns):
        raise InputError("N values must be >= 1")
    if any(q < 1 for _, q in pts):
        raise InputError("Q values must be >= 1")
    xs = [log(n) for n, _ in pts]
    ys = [log(q) for _, q in pts]
    slope, intercept = statistics.linear_regression(xs, ys)
    resid = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return FitReport(pts, slope, intercept, resid)


# ---------------------------------------------------------------------------
# Verification reports.


@dataclass(frozen=True)
class VerifyRow:
    n: int
    q: object  # exact int for counting quantities; float for tail maxima
    K: Fraction
    L: int
    ratio: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerifyReport:
    bound: BoundSpec
    family: str
    rows: tuple[VerifyRow, ...]
    slope: float | None
    flags: dict
    passed: bool


def _alternating(k: int) -> str:
    return "".join("+" if i % 2 == 0 else "-" for i in range(k))


def _measure_row(
    bound: BoundSpec, spec: FamilySpec, mem_budget, signs, algo: str
) -> VerifyRow:
    if spec.name == "composed":
        B = generate(spec.params["inner"])
        A = eval_fn(spec.params["f"], B)
    else:
        A = B = generate(spec)
    n = len(B)
    K = Fraction(1)
    if bound.k_exponent:
        K = doubling(B, bound.doubling_pattern, mem_budget=mem_budget).K
    L = len(A)
    extras: dict = {}

    q_kind = bound.quantity
    if q_kind.startswith("T") and q_kind[1:].isdigit():
        k = int(q_kind[1:])
        sp = spectrum([A] * k, algo=algo, mem_budget=mem_budget)
        q: object = sp.total_T
        extras["xr_constant"] = _xr_constant(sp, n)
    elif _is_card_k(q_kind):
        k = int(q_kind[4:])
        pattern = signs if signs else _alternating(k)
        q = doubling(A, pattern, mem_budget=mem_budget).size
    elif q_kind == "card_diff":
        q = doubling(A, "+-", mem_budget=mem_budget).size
    elif q_kind == "card_sum":
        q = doubling(A, "++", mem_budget=mem_budget).size
    elif q_kind == "E_cross":
        q = energy_cross(A, A, algo=algo, mem_budget=mem_budget)
    elif q_kind == "xr_tail3":
        sp = spectrum([A] * 3, algo=algo, mem_budget=mem_budget)
        e = float(-bound.r_exponent)
        q = max(size * float(2**j) ** e for j, size in sp.classes)
    else:
        raise InputError(f"unknown quantity {q_kind!r}")

    kexp = bound.k_exponent
    if bound.per_factor:
        kexp = bound.k_exponent * bound.params.get("k", 1)
    denom = (
        float(K) ** float(kexp)
        * float(n) ** float(bound.n_exponent)
        * float(L) ** float(bound.l_exponent)
    )
    ratio = float(q) / denom
    return VerifyRow(n, q, K, L, ratio, extras)


def _is_card_k(quantity: str) -> bool:
    return quantity.startswith("card") and quantity[4:].isdigit()


def _xr_constant(sp: Spectrum, n: int) -> float:
    """Measured constant in the rich-sum tail: max over dyadic classes of
    r**e * |X_r| / N**e' with e = 3, e' = 3 for pairs (reported for any k
    with the same normalization)."""
    return max(
        float(2**j) ** 3 * size / float(n) ** 3 for j, size in sp.classes
    )


def verify_bound(
    family_template: str,
    bound_id: str,
    n_grid: Sequence[int],
    *,
    s: int | None = None,
    k: int | None = None,
    signs: str | None = None,
    default_seed: int = 0,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> VerifyReport:
    """Evaluate a catalogued bound on a family over an N grid.

    Produces per-N rows (N, Q, K, L, ratio) plus flags: the monotone
    ratio trend in the bound's direction, and (for pure-N bounds) the
    fitted slope against the predicted exponent with tolerance
    ``SLOPE_TOL``.  An ``s`` or ``k`` that the bound does not read is an
    InputError, and so is a row whose quantity or constant leaves the
    float range; ``algo`` goes to every representation.

    ``signs`` (card<k> bounds only; default alternating) is checked once,
    before any row: it must hold k signs and start with +, else
    InputError (``expected 4 signs, got 2``, ``sign patterns are
    normalized to start with +``).
    """
    entry = _CATALOGUE.get(bound_id)
    reads = entry[0] if isinstance(entry, tuple) else None
    # An s-indexed bound measures 2**s copies of a set, charged before
    # ``predicted`` works out its exponents, whose time grows as s**2.
    # Every s past 62 is refused alike, as 2**63 copies are.
    if reads == "s" and s is not None and s >= 0:
        check_copies(2 ** min(s, 63), 5, mem_budget)
    bound = predicted(bound_id, s=s, k=k)
    for name, value in (("s", s), ("k", k)):
        if value is not None and name != reads:
            raise InputError(f"bound {bound_id} takes no parameter {name}")
    if signs and not _is_card_k(bound.quantity):
        raise InputError(
            f"bound {bound_id} measures {bound.quantity}, which takes no signs"
        )
    if len(n_grid) < 1:
        raise InputError("empty N grid")
    # Held at once: [A] * k, its sign string, and representation's or the
    # support's signs and two int lists.
    check_copies(bound.params.get("k", 2), 5, mem_budget)
    # doubling reads k from the pattern and takes a leading -.
    if signs and parse_signs(signs, bound.params["k"])[0] != 1:
        raise InputError("sign patterns are normalized to start with +")
    rows = []
    for n in sorted(n_grid):
        spec = instantiate(family_template, n, default_seed)
        try:
            rows.append(_measure_row(bound, spec, mem_budget, signs, algo))
        except OverflowError:
            raise InputError(
                f"bound {bound_id} at N = {n}: a quantity or constant "
                "leaves the float range"
            ) from None

    ratios = [row.ratio for row in rows]
    flags: dict = {
        "ratio_max": max(ratios),
        "ratio_min": min(ratios),
    }
    if bound.direction == "upper":
        flags["ratio_nonincreasing"] = all(
            b <= a * (1 + RATIO_SLACK) for a, b in zip(ratios, ratios[1:])
        )
    else:
        flags["ratio_nondecreasing"] = all(
            b >= a * (1 - RATIO_SLACK) for a, b in zip(ratios, ratios[1:])
        )

    slope = None
    pure_n = bound.k_exponent == 0 and bound.l_exponent == 0 and bound.r_exponent == 0
    if pure_n and len(rows) >= 3 and all(isinstance(r.q, int) for r in rows):
        slope = fit_exponent([(r.n, r.q) for r in rows]).slope
        if bound.direction == "upper":
            flags["slope_within_bound"] = slope <= float(bound.n_exponent) + SLOPE_TOL
        else:
            flags["slope_within_bound"] = slope >= float(bound.n_exponent) - SLOPE_TOL

    passed = all(v for key, v in flags.items() if isinstance(v, bool))
    return VerifyReport(
        bound, family_template, tuple(rows), slope, flags, passed
    )


# ---------------------------------------------------------------------------
# Heuristic tail report: the 4-fold rich-sum tail against N**4 / r**(7/3)
# scaled by a sampled gap-set energy.  The scale is a sampled proxy for a
# supremum over all lower-order convex sets, so this is reported with a
# heuristic marker and never asserted.

_TAIL_SIGNS = "+-+-"


def heuristic_tail_report(
    family_template: str,
    n_grid: Sequence[int],
    *,
    default_seed: int = 0,
    algo: str = "auto",
    mem_budget: int | None = None,
) -> dict:
    # E_hat needs a gap set Delta_h A with h < N.
    for n in n_grid:
        if n <= 1:
            raise InputError(
                f"eq13_tail samples gap sets Delta_h A with h < N, "
                f"so it needs N > 1, got N = {n}"
            )
    per_n = []
    for n in sorted(n_grid):
        spec = instantiate(family_template, n, default_seed)
        A = generate(spec)
        sp = spectrum([A] * 4, signs=_TAIL_SIGNS, algo=algo, mem_budget=mem_budget)
        e_hat = 0
        for h in (1, 2, 3):
            if h >= len(A):
                continue
            D = delta_h(A, h).as_set()
            e_hat = max(e_hat, energy_T([D, D], algo=algo, mem_budget=mem_budget))
        # |{x : r(x) >= 2**j}| is the size of the classes j and above.
        sizes = dict(sp.classes)
        max_ratio = 0.0
        tail = 0
        for j in range(max(sizes), -1, -1):
            tail += sizes.get(j, 0)
            ratio = tail * float(2**j) ** (7.0 / 3.0) / (float(n) ** 4 * e_hat)
            max_ratio = max(max_ratio, ratio)
        per_n.append(
            {"N": n, "family": format_family(spec), "E_hat": e_hat, "max_ratio": max_ratio}
        )
    return {"heuristic": True, "signs": _TAIL_SIGNS, "per_N": per_n}
