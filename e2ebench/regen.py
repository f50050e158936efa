"""Regenerate ``expected/<profile>.json`` and ``expected/counts.json``.

    python3 e2ebench/run.py --regen --profile full

For every pool entry of every workload this runs the command once and
stores its exit code and the SHA-256 of its report.  Before storing, each
report is cross-checked by a second computation:

* ``t4_sparse``: the same command with ``--algo dense``, and T_4 from an
  FFT of the set's indicator (certified by rounding margin and mass);
* ``t4_dense``: ``verify`` takes no ``--algo``, so every per-N Q is
  compared with the FFT T_4 of that N's set;
* ``analyze_int_rat``: the same command with ``--algo naive`` must give
  identical bytes;
* ``lucky_k3``: ``lucky`` takes no ``--algo``; the rows must be exactly
  the sums whose FFT 3-fold count lies in [r, 2r), with those counts, and
  each must meet the pigeonhole guarantee.

For the full profile it then records the exact work counts of the traced
run at seed 0, after checking that two traced runs give the same counts.
Regenerating is only right when the program's reports are meant to change;
a mismatch in the cross-checks stops it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import sys

import numpy as np

import run
from worker import execute
from workloads import POOL, WORKLOADS, command_count, commands


class CrossCheckError(Exception):
    pass


def _set_of(cli, spec: str) -> list[int]:
    _, rc, out = execute(cli.run, ["gen", spec])
    if rc != 0:
        raise CrossCheckError(f"gen {spec} exited {rc}")
    return [int(line) for line in out.decode().split()]


def fft_representation(values: list[int], k: int) -> tuple[int, np.ndarray]:
    """(offset, r) with r[i] = number of k-tuples summing to offset + i."""
    lo = min(values)
    ind = np.zeros(max(values) - lo + 1)
    ind[np.asarray(values, dtype=np.int64) - lo] = 1.0
    n = k * (len(ind) - 1) + 1
    size = 1 << (n - 1).bit_length()
    raw = np.fft.irfft(np.fft.rfft(ind, size) ** k, size)[:n]
    r = np.rint(raw)
    if np.max(np.abs(raw - r)) > 0.25:
        raise CrossCheckError("FFT rounding margin exceeded")
    r = r.astype(np.int64)
    if r.min() < 0 or int(r.sum()) != len(values) ** k:
        raise CrossCheckError("FFT representation has the wrong mass")
    return k * lo, r


def fft_t4(values: list[int]) -> int:
    if len(values) ** 7 >= 2**63:
        raise CrossCheckError("set too large for the int64 energy sum")
    _, r = fft_representation(values, 4)
    return int(np.sum(r * r))


def _check_t4_sparse(cli, argv, out, entry, sizes):
    report = json.loads(out)
    _, rc, other = execute(cli.run, argv + ["--algo", "dense"])
    if rc != 0 or json.loads(other)["T"] != report["T"]:
        raise CrossCheckError("--algo dense disagrees")
    spec = argv[argv.index("--family") + 1]
    if fft_t4(_set_of(cli, spec)) != int(report["T"]):
        raise CrossCheckError("FFT T4 disagrees")


def _check_t4_dense(cli, argv, out, entry, sizes):
    report = json.loads(out)
    for row in report["per_N"]:
        spec = f"rsc:n={row['N']},s=1,seed={entry},gap=4"
        if fft_t4(_set_of(cli, spec)) != int(row["Q"]):
            raise CrossCheckError(f"FFT T4 disagrees at N={row['N']}")


def _check_analyze(cli, argv, out, entry, sizes):
    _, rc, other = execute(cli.run, argv + ["--algo", "naive"])
    if rc != 0 or other != out:
        raise CrossCheckError("--algo naive gives different bytes")


def _check_lucky(cli, argv, out, entry, sizes):
    spec = argv[argv.index("--family") + 1]
    lo, r3 = fft_representation(_set_of(cli, spec), 3)
    r = sizes.r
    want = {lo + int(i): int(r3[i]) for i in np.flatnonzero((r3 >= r) & (r3 < 2 * r))}
    rows = list(csv.DictReader(io.StringIO(out.decode())))
    got = {int(row["x"]): int(row["r_x"]) for row in rows}
    if got != want or len(rows) != len(got):
        raise CrossCheckError("lucky rows differ from the FFT rich class")
    for row in rows:
        r_x, cells = int(row["r_x"]), int(row["occupied_cells"])
        if int(row["pairs_found"]) < r_x - cells or r_x - cells < int(row["lower_bound"]):
            raise CrossCheckError(f"pigeonhole guarantee fails at x={row['x']}")


CHECKS = {
    "t4_sparse": _check_t4_sparse,
    "t4_dense": _check_t4_dense,
    "analyze_int_rat": _check_analyze,
    "lucky_k3": _check_lucky,
}


def expected_reports(cli, profile: str) -> dict:
    workdir = os.path.join(run.WORK, "regen")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    here = os.getcwd()
    os.chdir(workdir)
    table = {}
    try:
        for name, w in WORKLOADS.items():
            table[name] = {}
            pool = list(range(POOL[profile]))
            for entry, argv, files in commands(w, pool, profile):
                for fname, spec in files:
                    if execute(cli.run, ["gen", spec, "--out", fname])[1] != 0:
                        raise CrossCheckError(f"gen {spec} failed")
                _, rc, out = execute(cli.run, argv)
                CHECKS[name](cli, argv, out, entry, w.sizes[profile])
                table[name][str(entry)] = {
                    "rc": rc,
                    "sha256": hashlib.sha256(out).hexdigest(),
                    "bytes": len(out),
                }
                print(f"{name} entry {entry}: exit {rc}, {len(out)} bytes", flush=True)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    return table


def traced_counts() -> dict:
    seconds = run.bench_spec()["run_seconds"]
    out = {}
    for name, w in WORKLOADS.items():
        count = command_count(w, seconds, "full")
        runs = [run.run_workload(name, run.COUNTS_SEED, count, 1) for _ in range(2)]
        for result, _ in runs:
            if not result["correct"]:
                raise CrossCheckError(f"traced run of {name} is not correct")
        a, b = (run.count_metrics({k: v["value"] for k, v in r["metrics"].items()})
                for r, _ in runs)
        if a != b:
            raise CrossCheckError(f"{name}: counts differ between traced runs")
        out[name] = {"entries": runs[0][1]["entries"], "counts": a}
        print(f"{name}: counts repeat over two traced runs", flush=True)
    return out


def _write(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(profile: str) -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import sumsetlab.cli as cli

    try:
        _write(os.path.join(run.EXPECTED, f"{profile}.json"), expected_reports(cli, profile))
        if profile == "full":
            # Stale counts would fail the traced runs that record new ones.
            _write(run.COUNTS_FILE, {})
            _write(run.COUNTS_FILE, traced_counts())
    except CrossCheckError as exc:
        sys.stderr.write(f"cross-check failed: {exc}\n")
        return 1
    return 0
