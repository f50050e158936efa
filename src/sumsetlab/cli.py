"""Command-line front end.

Commands: gen, analyze, energy, spectrum, sumset, doubling, lucky, fit,
verify.  Global flags: --mem, --algo, --format, --out, --seed,
--timings.  The environment variable SUMSETLAB_MEM overrides --mem.

Exit codes: 0 success, 1 a verification flag failed, 2 usage, input
or resource errors, each reported on one ``error:`` line.  Reports are
byte-identical across identical invocations; --timings adds a
wall-clock field and is off by default for that reason.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

from . import bounds, engine, luckypairs
from .convexity import IDENTITY, convexity_order, parse_function
from .core import OrderedSet, check_set_destination, moment_sum, read_set, write_set
from .errors import SumsetLabError
from .families import format_family, parse_family
from .reporting import (
    check_destination,
    emit,
    file_digest,
    render_json,
    rows_csv,
    spectrum_csv,
)


@dataclass
class RunConfig:
    mem_budget: int
    algo: str
    fmt: str
    out: str | None
    seed: int
    timings: bool


def _config(args: argparse.Namespace) -> RunConfig:
    mem = args.mem
    env = os.environ.get("SUMSETLAB_MEM")
    if env is not None:
        try:
            mem = int(env)
        except ValueError:
            raise SumsetLabError(f"SUMSETLAB_MEM must be an integer, got {env!r}")
    if mem <= 0:
        raise SumsetLabError("memory budget must be positive")
    return RunConfig(mem, args.algo, args.format, args.out, args.seed, args.timings)


def _load_inputs(args: argparse.Namespace, cfg: RunConfig):
    """Collect (OrderedSet, provenance) pairs from --set/--family flags."""
    loaded: list[tuple[OrderedSet, dict]] = []
    for path in args.set or []:
        loaded.append(
            (read_set(path), {"file": path, "sha256": file_digest(path)})
        )
    for text in args.family or []:
        spec = parse_family(text, cfg.seed)
        loaded.append((spec.generate(), {"family": format_family(spec)}))
    if not loaded:
        raise SumsetLabError("no input sets: pass --set or --family")
    return loaded


def _finish(payload: dict, started: float, cfg: RunConfig) -> None:
    if cfg.timings:
        payload["timing_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    emit(render_json(payload), cfg.out)


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the process exit code).


def _cmd_gen(args, cfg: RunConfig) -> int:
    spec = parse_family(args.family_spec, cfg.seed)
    A = spec.generate()
    if args.out:
        write_set(A, args.out)
    else:
        write_set(A, sys.stdout)
    order = convexity_order(A)
    print(f"# N={len(A)} convexity_order={order}", file=sys.stderr)
    return 0


def _cmd_analyze(args, cfg: RunConfig) -> int:
    started = time.monotonic()
    sets = _load_inputs(args, cfg)
    reports = []
    for A, provenance in sets:
        order = convexity_order(A)
        entry = {
            "input": provenance,
            "N": len(A),
            "convexity_order": order.level,
            "saturated": order.saturated,
            "min": A[0],
            "max": A[-1],
        }
        for pattern in ("+-", "++", "++-"):
            rep = engine.doubling(A, pattern, algo=cfg.algo, mem_budget=cfg.mem_budget)
            entry[f"size[{pattern}]"] = rep.size
            entry[f"K[{pattern}]"] = rep.K
        # engine.check_popular_bound; E and E3_diff are read from the same
        # r_{A-A}.
        diff = engine.representation(
            [A, A], signs="+-", algo=cfg.algo, mem_budget=cfg.mem_budget
        )
        pop = engine.popular_class_of(diff)
        e = engine.energy_of(diff, [A, A])
        bound = engine.popular_bound_factor(len(A)) * pop.score
        entry["E"] = e
        entry["popular"] = {
            "delta": pop.delta,
            "class_size": len(pop.differences),
            "score": pop.score,
            "energy_bound": bound,
            "bound_holds": e <= bound,
        }
        entry["E3_diff"] = moment_sum(diff, 3)
        reports.append(entry)
    _finish({"op": "analyze", "reports": reports}, started, cfg)
    return 0


def _sets_for_energy(args, cfg: RunConfig):
    loaded = _load_inputs(args, cfg)
    if args.k is not None:
        if len(loaded) != 1:
            raise SumsetLabError("--k replicates a single input set")
        loaded = loaded * args.k
    return [A for A, _ in loaded], [p for _, p in loaded]


def _cmd_energy(args, cfg: RunConfig) -> int:
    started = time.monotonic()
    sets, provenance = _sets_for_energy(args, cfg)
    total = engine.energy_T(
        sets, signs=args.signs, algo=cfg.algo, mem_budget=cfg.mem_budget
    )
    payload = {
        "op": "energy",
        "inputs": provenance,
        "k": len(sets),
        "signs": args.signs or "+" * len(sets),
        "algo": cfg.algo,
        "T": total,
    }
    _finish(payload, started, cfg)
    return 0


def _cmd_spectrum(args, cfg: RunConfig) -> int:
    started = time.monotonic()
    sets, provenance = _sets_for_energy(args, cfg)
    sp = engine.spectrum(
        sets, signs=args.signs, algo=cfg.algo, mem_budget=cfg.mem_budget
    )
    if cfg.fmt == "csv":
        emit(spectrum_csv(sp), cfg.out)
        return 0
    payload = {
        "op": "spectrum",
        "inputs": provenance,
        "k": len(sets),
        "signs": args.signs or "+" * len(sets),
        "algo": cfg.algo,
        "classes": [{"j": j, "size": size} for j, size in sp.classes],
        "T": sp.total_T,
        "weighted_sum": sp.weighted_sum(),
    }
    _finish(payload, started, cfg)
    return 0


def _cmd_sumset(args, cfg: RunConfig) -> int:
    started = time.monotonic()
    sets, provenance = _sets_for_energy(args, cfg)
    signs = args.signs or "+" * len(sets)
    result = engine.signed_sumset(
        sets, signs, algo=cfg.algo, mem_budget=cfg.mem_budget
    )
    payload = {
        "op": "sumset",
        "inputs": provenance,
        "signs": signs,
        "size": len(result),
    }
    if args.elements:
        payload["elements"] = result
    _finish(payload, started, cfg)
    return 0


def _cmd_doubling(args, cfg: RunConfig) -> int:
    started = time.monotonic()
    loaded = _load_inputs(args, cfg)
    reports = []
    for A, provenance in loaded:
        rep = engine.doubling(
            A, args.pattern, algo=cfg.algo, mem_budget=cfg.mem_budget
        )
        reports.append(
            {
                "input": provenance,
                "pattern": rep.pattern,
                "size": rep.size,
                "K": rep.K,
            }
        )
    _finish({"op": "doubling", "reports": reports}, started, cfg)
    return 0


def _cmd_lucky(args, cfg: RunConfig) -> int:
    started = time.monotonic()
    loaded = _load_inputs(args, cfg)
    if len(loaded) != 1:
        raise SumsetLabError("lucky censuses take exactly one base set")
    B, provenance = loaded[0]
    g = parse_function(args.g) if args.g else IDENTITY
    B_list = [B] * args.k
    g_list = [g] * args.k
    rows = luckypairs.lucky_census(
        B_list, g_list, args.r, args.c, algo=cfg.algo, mem_budget=cfg.mem_budget
    )
    if cfg.fmt == "csv":
        emit(
            rows_csv(
                ("x", "r_x", "pairs_found", "lower_bound", "occupied_cells"),
                [
                    (row.x, row.r_x, row.pairs_found, row.lower_bound, row.occupied_cells)
                    for row in rows
                ],
            ),
            cfg.out,
        )
        return 0
    payload = {
        "op": "lucky",
        "input": provenance,
        "k": args.k,
        "r": args.r,
        "c": args.c,
        "rows": rows,
    }
    _finish(payload, started, cfg)
    return 0


def _cmd_fit(args, cfg: RunConfig) -> int:
    started = time.monotonic()
    points = []
    for pair in args.point:
        n_text, _, q_text = pair.partition(":")
        try:
            points.append((int(n_text), int(q_text)))
        except ValueError:
            raise SumsetLabError(f"bad point {pair!r}, expected N:Q")
    report = bounds.fit_exponent(points)
    payload = {
        "op": "fit",
        "points": [{"N": n, "Q": q} for n, q in report.points],
        "slope": report.slope,
        "intercept": report.intercept,
        "max_abs_residual": report.max_abs_residual,
    }
    _finish(payload, started, cfg)
    return 0


def _cmd_verify(args, cfg: RunConfig) -> int:
    started = time.monotonic()
    try:
        grid = [int(x) for x in args.grid.split(",")]
    except ValueError:
        raise SumsetLabError(
            f"bad --grid {args.grid!r}, expected comma-separated integers"
        )
    if args.bound == "eq13_tail":
        for name in ("signs", "s", "k"):
            if getattr(args, name) is not None:
                raise SumsetLabError(f"bound eq13_tail takes no parameter {name}")
        payload = bounds.heuristic_tail_report(
            args.family,
            grid,
            default_seed=cfg.seed,
            algo=cfg.algo,
            mem_budget=cfg.mem_budget,
        )
        payload["op"] = "verify"
        payload["bound_id"] = "eq13_tail"
        payload["family"] = args.family
        _finish(payload, started, cfg)
        return 0
    report = bounds.verify_bound(
        args.family,
        args.bound,
        grid,
        s=args.s,
        k=args.k,
        signs=args.signs,
        default_seed=cfg.seed,
        algo=cfg.algo,
        mem_budget=cfg.mem_budget,
    )
    if cfg.fmt == "csv":
        emit(
            rows_csv(
                ("N", "Q", "K", "L", "ratio"),
                [(r.n, r.q, r.K, r.L, r.ratio) for r in report.rows],
            ),
            cfg.out,
        )
        return 0 if report.passed else 1
    payload = {
        "op": "verify",
        "bound_id": report.bound.id,
        "quantity": report.bound.quantity,
        "direction": report.bound.direction,
        "n_exponent": float(report.bound.n_exponent),
        "family": report.family,
        "N_grid": grid,
        "per_N": [
            {
                "N": r.n,
                "Q": r.q,
                "K": r.K,
                "L": r.L,
                "ratio": r.ratio,
                **r.extras,
            }
            for r in report.rows
        ],
        "slope": report.slope,
        "flags": report.flags,
        "passed": report.passed,
    }
    _finish(payload, started, cfg)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise SumsetLabError, so that ``run``
    reports them on one line; subparsers are built from the same class."""

    def error(self, message: str):
        raise SumsetLabError(message)


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags, accepted both before and after the subcommand.

    Subparsers register them with SUPPRESS defaults so a flag given
    before the subcommand is not clobbered by a subparser default.
    """

    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--mem", type=int, default=dflt(2**32), help="memory budget in bytes"
    )
    parser.add_argument(
        "--algo",
        choices=("auto", "naive", "mitm", "dense"),
        default=dflt("auto"),
        help="representation algorithm",
    )
    parser.add_argument("--format", choices=("json", "csv"), default=dflt("json"))
    parser.add_argument(
        "--out", default=dflt(None), help="output path (default stdout)"
    )
    parser.add_argument(
        "--seed", type=int, default=dflt(0), help="default RNG seed"
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        default=dflt(False),
        help="include wall-clock timing in reports",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sumsetlab",
        description="Exact additive-energy laboratory for convex and "
        "near-convex sets.",
    )
    _add_common_flags(parser, suppress=False)

    sub = parser.add_subparsers(dest="command")

    def add_sub(name: str, helptext: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext)
        _add_common_flags(p, suppress=True)
        return p

    def add_set_args(p):
        p.add_argument("--set", action="append", help="set file (repeatable)")
        p.add_argument("--family", action="append", help="family spec (repeatable)")

    p_gen = add_sub("gen", "generate a family into a set file")
    p_gen.add_argument("family_spec")

    p_an = add_sub("analyze", "convexity and doubling summary")
    add_set_args(p_an)

    for name, helptext in (
        ("energy", "k-fold additive energy"),
        ("spectrum", "dyadic richness spectrum"),
        ("sumset", "signed sumset size"),
    ):
        p = add_sub(name, helptext)
        add_set_args(p)
        p.add_argument("--k", type=int, default=None, help="replicate one set k times")
        p.add_argument("--signs", default=None, help="sign pattern like ++-")
        if name == "sumset":
            p.add_argument(
                "--elements", action="store_true", help="include the elements"
            )

    p_db = add_sub("doubling", "patterned self-sumset size and K")
    add_set_args(p_db)
    p_db.add_argument("--pattern", default="++-")

    p_lucky = add_sub("lucky", "lucky-pair census for a richness class")
    add_set_args(p_lucky)
    p_lucky.add_argument("--k", type=int, default=2)
    p_lucky.add_argument("--r", type=int, required=True, help="dyadic class floor")
    p_lucky.add_argument("--c", type=int, default=4, help="partition constant")
    p_lucky.add_argument("--g", default=None, help="monotone map (default identity)")

    p_fit = add_sub("fit", "log-log slope of N:Q points")
    p_fit.add_argument("point", nargs="+", help="points as N:Q")

    p_ver = add_sub("verify", "evaluate a catalogued growth bound")
    p_ver.add_argument("--bound", required=True)
    p_ver.add_argument("--family", required=True)
    p_ver.add_argument("--grid", required=True, help="comma-separated N values")
    p_ver.add_argument("--s", type=int, default=None)
    p_ver.add_argument("--k", type=int, default=None)
    p_ver.add_argument("--signs", default=None)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "energy": _cmd_energy,
    "spectrum": _cmd_spectrum,
    "sumset": _cmd_sumset,
    "doubling": _cmd_doubling,
    "lucky": _cmd_lucky,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        cfg = _config(args)
        # Fail on a destination that cannot be written before any work.
        if args.command != "gen":
            check_destination(cfg.out)
        elif cfg.out:
            check_set_destination(cfg.out)
        return _HANDLERS[args.command](args, cfg)
    except SumsetLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
