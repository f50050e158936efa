"""Command-line front end.

Commands: gen, analyze, energy, spectrum, sumset, doubling, lucky, fit,
verify.  Global flags: --mem, --algo, --format, --out, --seed,
--timings.  The environment variable SUMSETLAB_MEM overrides --mem.

Each subparser names its handler, which computes and returns its
report; ``run`` calls the handler and presents the report.  A
report is the JSON payload plus a zero-argument renderer of its CSV form,
or None for a command that has none (only spectrum, lucky and verify of
a catalogued bound have one).  Handlers pass the library's result
dataclasses through instead of copying them field by field.  ``run``
adds ``op``, which is the subcommand, to every payload, renders the
format asked for, adds ``timing_ms`` to JSON under --timings, emits the
text and picks the exit code.  gen returns nothing: it renders its set
file with ``write_set`` and hands it to ``emit`` itself.  Every report
and set file leaves through ``reporting.emit``.

Exit codes: 0 success, 1 a report with ``passed: false`` (a verify
flag failed), 2 usage, input or resource errors, each reported on one
``error:`` line.  Two of them are found before any work, with one
wording for every command: --format csv on a command without a CSV
form, decided from the subcommand (and verify's --bound) by
``_has_csv``, and an --out the OS refuses (an empty path, a missing
directory, a directory, a name that is too long, a symlink into a
missing directory), found by ``reporting.check_destination``.  So is a
closed stdout: one closed at start fails that check with
``error: cannot write to stdout: Bad file descriptor``, and
``main`` turns a pipe whose reader has gone into ``error: cannot write
to stdout: Broken pipe``.  ``main`` also turns Ctrl-C (SIGINT) into
``error: interrupted``; ``run`` lets it through, so that a program
that calls ``run`` still sees the interrupt.  ``run`` turns a
MemoryError, a process limit below the planned allocations, into one
line that names --mem.  --out - writes to stdout, for gen too.
Reports are byte-identical across identical invocations; --timings adds
a wall-clock field and is off by default for that reason.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from typing import Callable

from . import bounds, engine, luckypairs
from .convexity import IDENTITY, convexity_order, parse_function
from .core import (
    DEFAULT_MEMORY_BUDGET, OrderedSet, conversion_error, read_set, write_set,
)
from .errors import ResourceError, SumsetLabError
from .families import format_family, generate, parse_family
from .reporting import (
    cannot_write,
    check_destination,
    emit,
    file_digest,
    render_json,
    rendered_copies,
    rows_csv,
    spectrum_csv,
)


def _load_inputs(args: argparse.Namespace):
    """Collect (OrderedSet, provenance) pairs from --set/--family flags."""
    loaded: list[tuple[OrderedSet, dict]] = []
    for path in args.set or []:
        loaded.append(
            (read_set(path), {"file": path, "sha256": file_digest(path)})
        )
    for text in args.family or []:
        spec = parse_family(text, args.seed)
        loaded.append((generate(spec), {"family": format_family(spec)}))
    if not loaded:
        raise SumsetLabError("no input sets: pass --set or --family")
    return loaded


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its (payload, csv renderer) report.


def _cmd_gen(args) -> None:
    A = generate(parse_family(args.family_spec, args.seed))
    buf = io.StringIO()
    write_set(A, buf)
    text = buf.getvalue()
    del buf  # freed before emit encodes the text: one copy less at peak
    emit(text, args.out)
    order = convexity_order(A)
    print(f"# N={len(A)} convexity_order={order}", file=sys.stderr)


def _cmd_analyze(args) -> tuple[dict, None]:
    sets = _load_inputs(args)
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
        # One support run gives |A+A| and |A+A-A|, and one r_{A-A} the
        # rest: its support is A-A, and E, E3_diff and the popular class
        # with its energy bound come from one pass over its counts.
        # Built after the sizes, it is not held while they run.
        for rep in engine.doublings(A, "++-", mem_budget=args.mem):
            rep = asdict(rep)
            pattern = rep.pop("pattern")  # named by the key instead
            entry.update({f"{name}[{pattern}]": value for name, value in rep.items()})
        diff = engine.representation(
            [A, A], signs="+-", algo=args.algo, mem_budget=args.mem
        )
        entry["size[+-]"] = len(diff)
        entry["K[+-]"] = Fraction(len(diff), len(A))
        e, e3, popular = engine.difference_profile(diff, A)
        entry.update({"E": e, "E3_diff": e3, "popular": popular})
        del diff  # freed before the next set's sumsets are computed
        reports.append(entry)
    return {"reports": reports}, None


def _sets_for_energy(args):
    """The input sets, replicated under --k, and the report fields that
    name them: ``inputs`` and ``signs``."""
    loaded = _load_inputs(args)
    if args.k is not None:
        if len(loaded) != 1:
            raise SumsetLabError("--k replicates a single input set")
        # Held at once: sets, inputs, and representation's signs and two
        # int lists.
        engine.check_copies(args.k, 5, args.mem)
        loaded = loaded * args.k
    sets = [A for A, _ in loaded]
    header = {"inputs": [p for _, p in loaded], "signs": args.signs or "+" * len(sets)}
    return sets, header


def _cmd_energy(args) -> tuple[dict, None]:
    sets, header = _sets_for_energy(args)
    total = engine.energy_T(
        sets, signs=args.signs, algo=args.algo, mem_budget=args.mem
    )
    return {**header, "k": len(sets), "algo": args.algo, "T": total}, None


def _cmd_spectrum(args) -> tuple[dict, Callable[[], str]]:
    sets, header = _sets_for_energy(args)
    sp = engine.spectrum(
        sets, signs=args.signs, algo=args.algo, mem_budget=args.mem
    )
    payload = {
        **header,
        "k": len(sets),
        "algo": args.algo,
        "classes": [{"j": j, "size": size} for j, size in sp.classes],
        "T": sp.total_T,
        "weighted_sum": sp.weighted_sum(),
    }
    return payload, lambda: spectrum_csv(sp)


def _cmd_sumset(args) -> tuple[dict, None]:
    sets, header = _sets_for_energy(args)
    if not args.elements:
        size = engine.sumset_size(sets, header["signs"], mem_budget=args.mem)
        return {**header, "size": size}, None
    result = engine.signed_sumset(sets, header["signs"], mem_budget=args.mem)
    return {**header, "size": len(result), "elements": result}, None


def _cmd_doubling(args) -> tuple[dict, None]:
    loaded = _load_inputs(args)
    reports = []
    for A, provenance in loaded:
        rep = engine.doubling(A, args.pattern, mem_budget=args.mem)
        reports.append({"input": provenance, **asdict(rep)})
    return {"reports": reports}, None


def _cmd_lucky(args) -> tuple[dict, Callable[[], str]]:
    loaded = _load_inputs(args)
    if len(loaded) != 1:
        raise SumsetLabError("lucky censuses take exactly one base set")
    B, provenance = loaded[0]
    g = parse_function(args.g) if args.g else IDENTITY
    # Held at once: B_list, g_list, the census's images and their sets,
    # and representation's signs and two int lists.
    engine.check_copies(args.k, 7, args.mem)
    B_list = [B] * args.k
    g_list = [g] * args.k
    rows = luckypairs.lucky_census(
        B_list, g_list, args.r, args.c, algo=args.algo, mem_budget=args.mem
    )
    payload = {
        "input": provenance,
        "k": args.k,
        "r": args.r,
        "c": args.c,
        "rows": rows,
    }
    return payload, lambda: rows_csv(luckypairs.LuckyCensusRow._fields, rows)


def _cmd_fit(args) -> tuple[dict, None]:
    points = []
    for pair in args.point:
        n_text, _, q_text = pair.partition(":")
        try:
            points.append((int(n_text), int(q_text)))
        except ValueError as exc:
            raise conversion_error(exc, f"bad point {pair!r}, expected N:Q") from None
    report = bounds.fit_exponent(points)
    return {**asdict(report), "points": [{"N": n, "Q": q} for n, q in points]}, None


def _cmd_verify(args) -> tuple[dict, Callable[[], str] | None]:
    try:
        grid = [int(x) for x in args.grid.split(",")]
    except ValueError as exc:
        expected = f"bad --grid {args.grid!r}, expected comma-separated integers"
        raise conversion_error(exc, expected) from None
    header = {"bound_id": args.bound, "family": args.family}
    if args.bound == "eq13_tail":
        for name in ("signs", "s", "k"):
            if getattr(args, name) is not None:
                raise SumsetLabError(f"bound eq13_tail takes no parameter {name}")
        payload = bounds.heuristic_tail_report(
            args.family,
            grid,
            default_seed=args.seed,
            algo=args.algo,
            mem_budget=args.mem,
        )
        return {**payload, **header}, None
    report = bounds.verify_bound(
        args.family,
        args.bound,
        grid,
        s=args.s,
        k=args.k,
        signs=args.signs,
        default_seed=args.seed,
        algo=args.algo,
        mem_budget=args.mem,
    )
    columns = ("N", "Q", "K", "L", "ratio")
    table = [(r.n, r.q, r.K, r.L, r.ratio) for r in report.rows]
    payload = {
        **header,
        "quantity": report.bound.quantity,
        "direction": report.bound.direction,
        "n_exponent": float(report.bound.n_exponent),
        "N_grid": grid,
        "per_N": [
            {**dict(zip(columns, cells)), **r.extras}
            for cells, r in zip(table, report.rows)
        ],
        "slope": report.slope,
        "flags": report.flags,
        "passed": report.passed,
    }
    return payload, lambda: rows_csv(columns, table)


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise SumsetLabError, so that ``run``
    reports them on one line; subparsers are built from the same class."""

    def error(self, message: str):
        raise SumsetLabError(message)


def _integer(text: str) -> int:
    """``type=`` of the integer options.  argparse names the option in
    either error: malformed text in its own wording, and a valid integer
    past the caller's int/str digit limit by that limit, without its
    digits."""
    try:
        return int(text)
    except ValueError as exc:
        message = f"invalid int value: {text!r}"
        raise argparse.ArgumentTypeError(str(conversion_error(exc, message))) from None


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags, accepted both before and after the subcommand.

    Subparsers register them with SUPPRESS defaults so a flag given
    before the subcommand is not clobbered by a subparser default.
    """

    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--mem", type=_integer, default=dflt(DEFAULT_MEMORY_BUDGET),
        help="memory budget in bytes",
    )
    parser.add_argument(
        "--algo",
        choices=engine._ALGOS,
        default=dflt("auto"),
        help="representation algorithm",
    )
    parser.add_argument("--format", choices=("json", "csv"), default=dflt("json"))
    parser.add_argument(
        "--out", default=dflt(None), help="output path (default stdout)"
    )
    parser.add_argument(
        "--seed", type=_integer, default=dflt(0), help="default RNG seed"
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        default=dflt(False),
        help="include wall-clock timing in reports",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, since every default is immutable and ``append`` copies its own."""
    parser = _Parser(
        prog="sumsetlab",
        description="Exact additive-energy laboratory for convex and "
        "near-convex sets.",
    )
    _add_common_flags(parser, suppress=False)

    sub = parser.add_subparsers(dest="command")

    def add_sub(name: str, helptext: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext)
        _add_common_flags(p, suppress=True)
        p.set_defaults(handler=handler)
        return p

    def add_set_args(p):
        p.add_argument("--set", action="append", help="set file (repeatable)")
        p.add_argument("--family", action="append", help="family spec (repeatable)")

    p_gen = add_sub("gen", "generate a family into a set file", _cmd_gen)
    p_gen.add_argument("family_spec")

    p_an = add_sub("analyze", "convexity and doubling summary", _cmd_analyze)
    add_set_args(p_an)

    for name, helptext, handler in (
        ("energy", "k-fold additive energy", _cmd_energy),
        ("spectrum", "dyadic richness spectrum", _cmd_spectrum),
        ("sumset", "signed sumset size", _cmd_sumset),
    ):
        p = add_sub(name, helptext, handler)
        add_set_args(p)
        p.add_argument(
            "--k", type=_integer, default=None, help="replicate one set k times"
        )
        p.add_argument("--signs", default=None, help="sign pattern like ++-")
        if name == "sumset":
            p.add_argument(
                "--elements", action="store_true", help="include the elements"
            )

    p_db = add_sub("doubling", "patterned self-sumset size and K", _cmd_doubling)
    add_set_args(p_db)
    p_db.add_argument("--pattern", default="++-")

    p_lucky = add_sub("lucky", "lucky-pair census for a richness class", _cmd_lucky)
    add_set_args(p_lucky)
    p_lucky.add_argument("--k", type=_integer, default=2)
    p_lucky.add_argument("--r", type=_integer, required=True, help="dyadic class floor")
    p_lucky.add_argument("--c", type=_integer, default=4, help="partition constant")
    p_lucky.add_argument("--g", default=None, help="monotone map (default identity)")

    p_fit = add_sub("fit", "log-log slope of N:Q points", _cmd_fit)
    p_fit.add_argument("point", nargs="+", help="points as N:Q")

    p_ver = add_sub("verify", "evaluate a catalogued growth bound", _cmd_verify)
    p_ver.add_argument("--bound", required=True)
    p_ver.add_argument("--family", required=True)
    p_ver.add_argument("--grid", required=True, help="comma-separated N values")
    p_ver.add_argument("--s", type=_integer, default=None)
    p_ver.add_argument("--k", type=_integer, default=None)
    p_ver.add_argument("--signs", default=None)

    return parser


def _has_csv(args: argparse.Namespace) -> bool:
    """Whether ``--format csv`` can run: spectrum, lucky and verify of a
    catalogued bound render CSV, and gen ignores the format."""
    if args.command == "verify":
        return args.bound != "eq13_tail"
    return args.command in ("gen", "spectrum", "lucky")


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        env = os.environ.get("SUMSETLAB_MEM")
        if env is not None:
            try:
                args.mem = int(env)
            except ValueError as exc:
                expected = f"SUMSETLAB_MEM must be an integer, got {env!r}"
                raise conversion_error(exc, expected) from None
        if args.mem <= 0:
            raise SumsetLabError("memory budget must be positive")
        # "-" is stdout for every command, gen's set file included.
        if args.out == "-":
            args.out = None
        # Fail on a destination that cannot be written, or on a format the
        # report does not have, before any work.
        check_destination(args.out)
        if args.format == "csv" and not _has_csv(args):
            raise SumsetLabError(f"{args.command} has no csv format")
        started = time.monotonic()
        report = args.handler(args)
        if report is None:  # gen emitted its set file itself
            return 0
        payload, csv = report
        payload["op"] = args.command
        if args.format == "json":
            if args.timings:
                payload["timing_ms"] = round((time.monotonic() - started) * 1000.0, 3)
            if getattr(args, "k", None) is not None and "inputs" in payload:
                # One provenance dict per copy of the set, charged once the
                # copies' computation has freed its own bytes.
                held = rendered_copies(args.k, payload["inputs"][0])
                if held > args.mem:
                    what = f"inputs field of {args.k} copies"
                    raise ResourceError(held, args.mem, what)
            text = render_json(payload)
        else:
            text = csv()
        emit(text, args.out)
        return 1 if payload.get("passed") is False else 0
    except SumsetLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # The plan fit --mem, but a limit on the process may be lower.
        print("error: out of memory below the --mem budget: pass a smaller --mem",
              file=sys.stderr)
        return 2


def main() -> None:
    # Exact integers of any length: lift CPython's limit on int/str
    # conversion (4,300 digits), process-wide, so here and not in run().
    # Python 3.10 before 3.10.7 has no limit and no setter.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = run()
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader is gone: point stdout at devnull so that the flush
        # at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {cannot_write(None, exc)}", file=sys.stderr)
        code = 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
