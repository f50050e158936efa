"""End-to-end benchmark of the `sumsetlab` command line.

    python3 e2ebench/run.py --workload t4_sparse --seed 3 --seconds 24 --trace 0
    python3 e2ebench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 e2ebench/run.py --smoke
    python3 e2ebench/run.py --regen [--profile full|tiny]

A run issues one workload's commands through ``sumsetlab.cli.run(argv)`` in
a fresh worker process, as a closed loop with one client: each command
starts when the previous one has returned.  The commands are drawn from the
workload's input pool by ``--seed``; their number fills ``--seconds`` at
the workload's nominal per-command cost, so a faster program finishes the
same commands sooner.  Command times are stated at a reference speed
(``REFERENCE_S``), measured by a fixed loop between commands.  Every report is compared byte for byte, with its
exit code, against ``expected/<profile>.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half as
many commands twice, untraced and then traced in a second fresh worker, and
reports per-layer self times and work counts (``tracer.py``) plus the
tracing overhead.  The last line of stdout is the JSON result; the line
before it records the environment and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from time import monotonic, perf_counter

from workloads import WORKLOADS, command_count, entries_for

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".e2ebench_work")
EXPECTED = os.path.join(HERE, "expected")
COUNTS_FILE = os.path.join(EXPECTED, "counts.json")

SETUP_REPEATS = 5
# A typical reading of worker.reference() on a 2-core Xeon with Python 3.11
# (readings range from 0.013 to 0.030 s as other tenants come and go).
# Command times are scaled to the speed at which it reads this value.
REFERENCE_S = 0.02
# How strongly command times follow the reference: log-log slopes of command
# time on reference reading measured 0.46 (t4_dense) to 0.86 (lucky_k3) on
# that machine.  One exponent serves all workloads.
REFERENCE_ELASTICITY = 0.7
DEADLINE_S = 170.0
# The traced run checks its counts against COUNTS_FILE at this seed.
COUNTS_SEED = 0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def bench_spec() -> dict:
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


# ---------------------------------------------------------------------------
# Workers.


def _worker_env() -> dict:
    env = dict(os.environ)
    # One thread per worker: numpy's BLAS pool would otherwise start threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _start(workload, profile, entries, trace, workdir, deadline):
    """Start a worker and wait until its set-up is done; return (proc, s)."""
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--profile", profile,
        "--entries", ",".join(map(str, entries)), "--trace", str(trace),
        "--root", ROOT, "--workdir", workdir,
    ]
    start = perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=_worker_env(),
    )
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - start
    if line.strip() != '{"ready": true}':
        _stop(proc)
        raise BenchError(f"worker for {workload} did not start (exit {proc.returncode})")
    return proc, setup


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc, deadline) -> dict:
    """Let a ready worker run its commands; return its report."""
    try:
        out, _ = proc.communicate("go\n", timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit")
    finally:
        _stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit {proc.returncode}")
    return json.loads(lines[-1])


def run_passes(workload, profile, entries, traces, deadline, setups):
    """Start ``setups`` fresh workers one after another; the last
    ``len(traces)`` of them run the commands, traced where ``traces`` says.
    Return (their reports, every set-up time)."""
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    extra = setups - len(traces)
    reports, times = [], []
    try:
        for i in range(setups):
            trace = traces[i - extra] if i >= extra else 0
            proc, setup = _start(workload, profile, entries, trace, workdir, deadline)
            times.append(setup)
            if i < extra:
                try:
                    proc.communicate("quit\n", timeout=30)
                finally:
                    _stop(proc)
            else:
                reports.append(_finish(proc, deadline))
        return reports, times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Checking and metrics.


def check(workload, profile, report) -> int:
    """Number of commands whose exit code or report bytes are wrong."""
    expected = load_json(os.path.join(EXPECTED, f"{profile}.json"))[workload]
    failed = 0
    for res in report["results"]:
        exp = expected.get(str(res["entry"]))
        if exp is None or exp["rc"] != res["rc"] or exp["sha256"] != res["sha256"]:
            sys.stderr.write(f"{workload}: wrong result for entry {res['entry']}: {res}\n")
            failed += 1
    return failed


def count_metrics(layers: dict) -> dict:
    """The exact work counts among the layer metrics (no times, no ratios)."""
    return {
        k: v for k, v in layers.items()
        if not k.endswith(".s") and not k.endswith("_frac")
    }


def environment(seed: int, backend, load) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": load,
    }


def run_workload(workload, seed, count, trace, profile="full", setups=SETUP_REPEATS):
    """One benchmark run: (result dict, detail dict)."""
    deadline = monotonic() + DEADLINE_S
    load = os.getloadavg()
    entries = entries_for(seed, count, profile)
    if trace:  # two passes, untraced and traced, in about the same time
        entries = entries[: (len(entries) + 1) // 2]
    detail = {"workload": workload, "profile": profile, "entries": entries}
    reports, setup_times = run_passes(
        workload, profile, entries, [0, 1] if trace else [0], deadline, setups
    )
    failed = sum(check(workload, profile, r) for r in reports)
    attempted = len(entries) * len(reports)
    # Each command's time at the reference speed (see worker.reference).
    scaled = [
        [
            res["seconds"] * (REFERENCE_S / res["ref_s"]) ** REFERENCE_ELASTICITY
            for res in r["results"]
        ]
        for r in reports
    ]
    if not trace:
        secs = scaled[0]
        metrics = {
            "wall_s": (sum(secs), "s"),
            "cmd_s_p50": (statistics.median(secs), "s"),
            "peak_rss_mib": (reports[0]["peak_rss_mib"], "MiB"),
            "setup_s": (statistics.median(setup_times), "s"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }
        detail.update(
            cmd_s_samples=len(secs), cmd_s=secs, setup_s_samples=setup_times,
            raw_wall_s=sum(res["seconds"] for res in reports[0]["results"]),
            reference_speed=REFERENCE_S / statistics.median(
                res["ref_s"] for res in reports[0]["results"]
            ),
        )
        correct = failed == 0
    else:
        layers = dict(reports[1]["layers"])
        layers["trace.overhead_frac"] = sum(scaled[1]) / sum(scaled[0]) - 1.0
        metrics = {
            k: (v, "s" if k.endswith(".s") else "frac" if k.endswith("_frac") else "count")
            for k, v in layers.items()
        }
        correct = failed == 0 and check_trace(workload, seed, profile, entries, layers)
        detail.update(missing_hooks=reports[1]["missing_hooks"])
    detail["env"] = environment(seed, reports[-1]["backend"], load)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def check_trace(workload, seed, profile, entries, layers) -> bool:
    """Planner choices match the workload's, and counts repeat exactly."""
    ok = True
    used = {a for a in ("mitm", "dense", "naive") if layers[f"engine.algo.{a}"] > 0}
    # The planner chooses by size, so only the full sizes have a fixed mix.
    if profile == "full" and used != set(WORKLOADS[workload].algos):
        sys.stderr.write(
            f"{workload}: planner used {sorted(used)}, expected "
            f"{sorted(WORKLOADS[workload].algos)}\n"
        )
        ok = False
    if seed == COUNTS_SEED and profile == "full":
        ref = load_json(COUNTS_FILE).get(workload)
        if ref is None or ref["entries"] != entries:
            # Another --seconds draws other commands; there is nothing to compare.
            sys.stderr.write(f"{workload}: no counts recorded for these commands\n")
            return ok
        got = count_metrics(layers)
        diff = {k: (v, got.get(k)) for k, v in ref["counts"].items() if got.get(k) != v}
        if diff:
            sys.stderr.write(f"{workload}: counts differ from {COUNTS_FILE}: {diff}\n")
            ok = False
    return ok


# ---------------------------------------------------------------------------
# Entry points.


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; checks names too."""
    spec = bench_spec()
    names = {
        0: {(m["name"], m["unit"]) for m in spec["end_to_end"]},
        1: {(m["name"], m["unit"]) for m in spec["per_layer"]},
    }
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            result, detail = run_workload(name, 0, 2, trace, "tiny", setups=2)
            got = {(k, v["unit"]) for k, v in result["metrics"].items()}
            ok = result["correct"] and got == names[trace]
            if got != names[trace]:
                sys.stderr.write(f"{name}: metric names differ: {got ^ names[trace]}\n")
            print(f"smoke {name} trace={trace}: {'ok' if ok else 'FAILED'}"
                  f" ({result['attempted']} commands)")
            bad += not ok
    return 1 if bad else 0


def run_all(seed, seconds, trace) -> int:
    spec = bench_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    incorrect = 0
    for name, w in WORKLOADS.items():
        result, detail = run_workload(name, seed, command_count(w, seconds, "full"), trace)
        print(json.dumps(detail))
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for m in wanted:
            v = result["metrics"][m["name"]]
            print(f"  {m['name']:<40} {v['value']:>16.6g} {v['unit']}")
        incorrect += not result["correct"]
    return 1 if incorrect else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--smoke", action="store_true", help="tiny self-test")
    ap.add_argument("--regen", action="store_true", help="rewrite expected/")
    ap.add_argument("--profile", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sumsetlab", "__init__.py")):
        sys.stderr.write(f"error: no sumsetlab sources under {ROOT}/src\n")
        return 2
    if args.regen:
        import regen

        return regen.main(args.profile)
    try:
        if args.smoke:
            return smoke()
        seconds = args.seconds if args.seconds is not None else bench_spec()["run_seconds"]
        if args.all:
            return run_all(args.seed, seconds, args.trace)
        if args.workload is None:
            ap.error("pass --workload, --all, --smoke or --regen")
        w = WORKLOADS[args.workload]
        result, detail = run_workload(
            args.workload, args.seed, command_count(w, seconds, "full"), args.trace
        )
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
