"""One benchmark worker: a fresh process that runs one workload's commands.

Started by ``run.py``.  The worker puts the checkout's ``src`` first on the
import path, imports ``sumsetlab``, writes the run's set files, prints a
``ready`` line and waits for ``go`` (or ``quit``) on stdin.  It then calls
``sumsetlab.cli.run(argv)`` for each command in turn (a closed loop with one
client, on one thread), optionally under the outside-in tracer, and prints
one JSON line with each command's time, exit code and report digest.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from workloads import WORKLOADS, commands


def execute(run, argv):
    """(seconds, exit code, stdout bytes) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = run(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a crash
            rc = "traceback"
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    if rc not in (0, 1):
        sys.stderr.write(f"{argv}: exit {rc}\n{err.getvalue()[-2000:]}")
    return elapsed, rc, out.getvalue().encode()


def reference() -> float:
    """Seconds for a fixed pure-Python loop of dict updates and arithmetic.

    The machine's speed swings by 15-30 % over windows of 5-20 s (other
    tenants share its cores).  Timing this loop next to every command
    measures the current speed, so command times can be stated at a fixed
    reference speed.
    """
    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(60000):
        key = (i * 7919) & 16383
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    return perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--profile", required=True, choices=("full", "tiny"))
    ap.add_argument("--entries", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import sumsetlab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"sumsetlab imported from {cli.__file__}, not {src}\n")
        return 3

    entries = [int(e) for e in args.entries.split(",")]
    cmds = commands(WORKLOADS[args.workload], entries, args.profile)
    os.chdir(args.workdir)
    for _, _, files in cmds:
        for name, spec in files:
            _, rc, _ = execute(cli.run, ["gen", spec, "--out", name])
            if rc != 0:
                sys.stderr.write(f"gen {spec} failed with exit {rc}\n")
                return 3

    print(json.dumps({"ready": True}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    ref_before = reference()
    for entry, argv, _ in cmds:
        if tracer is None:
            elapsed, rc, out = execute(cli.run, argv)
        else:
            elapsed, rc, out = execute(lambda a: tracer.command(cli.run, a), argv)
        ref_after = reference()
        results.append(
            {
                "entry": entry,
                "seconds": elapsed,
                "ref_s": (ref_before + ref_after) / 2,
                "rc": rc,
                "sha256": hashlib.sha256(out).hexdigest(),
                "bytes": len(out),
            }
        )
        ref_before = ref_after

    kernels = sys.modules.get("sumsetlab.kernels")
    report = {
        "results": results,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": getattr(kernels, "BACKEND", None),
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["missing_hooks"] = tracer.missing
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
