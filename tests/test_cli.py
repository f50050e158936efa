"""CLI behavior: round-trips, exit codes, formats, determinism."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumsetlab
from sumsetlab import (
    InputError,
    VerificationError,
    cli,
    engine,
    gen_random_s_convex,
    kernels,
    read_set,
)
from sumsetlab.bounds import BOUND_IDS
from sumsetlab.cli import run
from sumsetlab.core import OrderedSet, SparseCounts, format_element, moment_sum
from sumsetlab.families import generate, parse_family
from sumsetlab.reporting import file_digest, render_json, rendered_copies, rows_csv

README = Path(__file__).resolve().parent.parent / "README.md"


# Python 3.10 before 3.10.7 has no limit on int/str conversion.
DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
)

# The shapes of analyze's benchmark inputs, smaller: an integer set and a
# rational image of one.
ANALYZE_INT = "rsc:n=24,s=2,seed=3,gap=8"
ANALYZE_RAT = "composed:f=poly:0,1/2,inner=interval:n=12"


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_command(argv, unbuffered=""):
    """The command line and environment that run the CLI in a child
    process."""
    src = os.path.dirname(os.path.dirname(sumsetlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return [sys.executable, "-m", "sumsetlab.cli", *argv], env


def _cli_subprocess(argv, unbuffered, **kwargs):
    """Run the CLI in a child process with stderr captured; ``kwargs``
    set up its stdout."""
    command, env = _cli_command(argv, unbuffered)
    return subprocess.run(
        command, stderr=subprocess.PIPE, env=env, text=True, timeout=120, **kwargs
    )


@pytest.fixture
def no_work(monkeypatch):
    """Make any work a command starts fail the test."""

    def fail(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(engine, "representation", fail)
    monkeypatch.setattr(cli, "parse_family", fail)


def _assert_one_error(done, line):
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    errors = [x for x in done.stderr.splitlines() if x.startswith("error:")]
    assert errors == [line]
    assert done.stderr.endswith(line + "\n")


class TestGen:
    def test_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "a.set")
        code, _, err = _run(capsys, "--out", path, "gen", "rsc:n=8,s=2,seed=7,gap=4")
        assert code == 0
        assert "convexity_order" in err
        assert read_set(path) == gen_random_s_convex(8, 2, 7, 4)

    def test_reports_order(self, tmp_path, capsys):
        path = str(tmp_path / "sq.set")
        code, _, err = _run(capsys, "--out", path, "gen", "power:n=5,m=2")
        assert code == 0
        assert "N=5" in err and "convexity_order=1" in err
        with open(path) as fh:
            assert fh.read() == "1\n4\n9\n16\n25\n"

    def test_gap_family(self, tmp_path, capsys):
        path = str(tmp_path / "g.set")
        code, _, _ = _run(capsys, "--out", path, "gen", "gap:dims=3,steps=1,base=1")
        assert code == 0
        with open(path) as fh:
            assert fh.read() == "1\n2\n3\n"

    @pytest.mark.parametrize("flags", [(), ("--format", "csv")], ids=["json", "csv"])
    def test_out_dash_is_stdout(self, tmp_path, capsys, monkeypatch, flags):
        # gen has no report, so --format does not apply to it.
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(capsys, *flags, "--out", "-", "gen", "interval:n=3")
        assert code == 0
        assert out == "1\n2\n3\n"
        assert "convexity_order" in err
        assert list(tmp_path.iterdir()) == []

    def test_integers_past_4300_digits_round_trip(self, tmp_path):
        # 10**5000 has 5,001 digits, past CPython's default limit on
        # int/str conversion, which the console entry lifts (and this
        # process keeps: the digits are compared as text).
        path, ten = str(tmp_path / "F.set"), "1" + "0" * 5000
        done = _cli_subprocess(["--out", path, "gen", "power:n=10,m=5000"], "")
        assert done.returncode == 0
        assert done.stderr == "# N=10 convexity_order=saturated(8)\n"
        with open(path) as fh:
            lines = fh.read().split()
        assert len(lines) == 10 and (lines[0], lines[-1]) == ("1", ten)
        reports = {}
        for argv in (["analyze", "--set", path], ["energy", "--k", "2", "--set", path]):
            done = _cli_subprocess(argv, "", stdout=subprocess.PIPE)
            assert (done.returncode, done.stderr) == (0, "")
            reports[argv[0]] = json.loads(done.stdout)
        assert reports["analyze"]["reports"][0]["max"] == ten
        assert reports["energy"]["T"] == "190"

    @DIGIT_LIMIT
    def test_set_file_past_4300_digits_reads_back(self, tmp_path):
        # Written by the console entry, read by read_set in a second
        # process that lifts the limit as cli.main does, so that this one
        # keeps it.
        path = str(tmp_path / "F.set")
        done = _cli_subprocess(["gen", "power:n=10,m=5000", "--out", path], "")
        assert done.returncode == 0
        read = (
            "import sys; sys.set_int_max_str_digits(0)\n"
            "from sumsetlab.core import read_set\n"
            f"A = read_set({path!r})\n"
            "print(A.elements == tuple(i**5000 for i in range(1, 11)))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sumsetlab.__file__))}
        done = subprocess.run(
            [sys.executable, "-c", read], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")

    @DIGIT_LIMIT
    @pytest.mark.parametrize(
        "argv",
        [
            ["--out", "{out}", "gen", "power:n=10,m=5000"],
            ["--out", "{out}", "analyze", "--family", "power:n=10,m=5000"],
            ["--out", "{out}", "--format", "csv", "lucky", "--r", "2",
             "--family", "power:n=10,m=5000"],
            ["--out", "{out}", "energy", "--k", "2", "--set", "{big}"],
        ],
        ids=["write_set", "json", "csv", "read_set"],
    )
    def test_run_in_process_keeps_its_digit_limit(self, tmp_path, capsys, argv):
        # cli.run converts under its caller's limit: an integer past it is
        # one error line and exit 2, and nothing is written.
        big, out = tmp_path / "big.set", tmp_path / "out"
        big.write_text("1" + "0" * 5000 + "\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, stdout, err = _run(capsys, *(a.format(out=out, big=big) for a in argv))
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, stdout) == (2, "")
        assert re.fullmatch(r"error: Exceeds the limit \(4300 digits\)[^\n]*\n", err)
        assert not out.exists()

    @DIGIT_LIMIT
    @pytest.mark.parametrize(
        "argv, env, option",
        [
            (["gen", "power:n={big},m=2"], {}, ""),
            (["fit", "{big}:1", "2:3", "3:4"], {}, ""),
            (["verify", "--bound", "KG_energy", "--family", "power:m=2",
              "--grid", "8,{big}"], {}, ""),
            (["energy", "--family", "interval:n=3"], {"SUMSETLAB_MEM": "{big}"}, ""),
            (["energy", "--k", "{big}", "--family", "interval:n=3"], {},
             "argument --k: "),
            (["--mem", "{big}", "energy", "--family", "interval:n=3"], {},
             "argument --mem: "),
        ],
        ids=["gen", "fit", "verify", "SUMSETLAB_MEM", "k", "mem"],
    )
    def test_parameters_past_the_digit_limit_name_it(self, capsys, monkeypatch,
                                                       argv, env, option):
        # A valid integer past the caller's limit is not malformed: the one
        # error line names the limit (after the option argparse names) and
        # does not echo the digits.
        big = "1" * 5001
        for name, value in env.items():
            monkeypatch.setenv(name, value.format(big=big))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, stdout, err = _run(capsys, *(a.format(big=big) for a in argv))
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, stdout) == (2, "")
        pattern = rf"error: {option}Exceeds the limit \(4300 digits\)[^\n]*\n"
        assert re.fullmatch(pattern, err)
        assert big not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "power:n=1x,m=2"], "parameter n must be an integer"),
            (["fit", "1x:1", "2:3"], "bad point '1x:1', expected N:Q"),
            (["verify", "--bound", "KG_energy", "--family", "power:m=2",
              "--grid", "8,1x"], "bad --grid '8,1x', expected comma-separated integers"),
        ],
        ids=["gen", "fit", "verify"],
    )
    def test_malformed_integer_parameters(self, capsys, argv, message):
        assert _run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_bad_family_exits_2(self, capsys):
        code, _, err = _run(capsys, "gen", "power:n=5")
        assert code == 2
        assert "error:" in err

    def test_unknown_family_parameter_exits_2(self, capsys):
        code, out, err = _run(
            capsys, "energy", "--family", "rsc:n=10,s=2,gap=8,sed=3"
        )
        assert (code, out) == (2, "")
        assert err == "error: family 'random_s_convex' has no parameter sed\n"


class TestEnergy:
    def test_pair_energy_of_interval(self, tmp_path, capsys):
        path = str(tmp_path / "i3.set")
        with open(path, "w") as fh:
            fh.write("1\n2\n3\n")
        code, out, _ = _run(capsys, "energy", "--k", "2", "--set", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["T"] == "19"
        assert payload["k"] == "2"
        assert payload["inputs"][0]["file"] == path
        assert len(payload["inputs"][0]["sha256"]) == 64

    def test_family_input(self, capsys):
        code, out, _ = _run(capsys, "energy", "--k", "2", "--family", "interval:n=3")
        assert code == 0
        assert json.loads(out)["T"] == "19"

    def test_commuted_join_root_writes_the_dense_bytes(self, monkeypatch, capsys):
        # Under +--+ the mitm root joins r_{A-A} with r_{-A+A}: two equal
        # dicts computed apart, which the kernel joins as equal operands.
        argv = ["energy", "--k", "4", "--signs", "+--+",
                "--family", "rsc:n=24,s=3,seed=1,gap=64"]
        real, joins = kernels.convolve_integer, []
        monkeypatch.setattr(
            kernels, "convolve_integer", lambda *a: joins.append(a) or real(*a)
        )
        code, out, err = _run(capsys, "--algo", "mitm", *argv)
        monkeypatch.undo()
        assert len(joins) == 3
        left, right = joins[-1]
        assert left == right and left is not right
        dense = _run(capsys, "--algo", "dense", *argv)
        assert out.count('"algo": "mitm"') == 1
        assert (code, out.replace('"algo": "mitm"', '"algo": "dense"'), err) == dense

    def test_budget_exceeded_exits_2(self, capsys):
        code, _, err = _run(
            capsys,
            "--mem",
            "5000",
            "energy",
            "--k",
            "5",
            "--family",
            "power:n=64,m=3",
        )
        assert code == 2
        assert "exceeds budget" in err

    def test_t4_fits_a_budget_above_its_result(self, capsys):
        # r_{4A} has about 100k entries (12 MB at the planner's 120 bytes
        # each); the estimate used to be 176 MB, so this exited 2.
        code, out, err = _run(
            capsys, "--mem", "100000000", "energy", "--k", "4",
            "--family", "rsc:n=38,s=3,seed=0,gap=64",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["T"] == "47002410"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--mem", "1000", "energy", "--family", "interval:n=200000"],
             "representation: estimated 3200000 bytes exceeds budget 1000"),
            # A rational set runs dense too, and gives the auto T.
            (["--algo", "dense", "energy", "--family",
              "composed:f=poly:0,1/2,inner=interval:n=4"], None),
        ],
        ids=["budget", "dense_rational"],
    )
    def test_one_set_is_planned_like_several(self, capsys, argv, message):
        code, out, err = _run(capsys, *argv)
        if message is None:
            auto = _run(capsys, *argv[2:])
            assert (code, err) == auto[::2] == (0, "")
            assert json.loads(out)["T"] == json.loads(auto[1])["T"]
        else:
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "family", ["interval:n=2", "ap:n=2,base=1/2"], ids=["integer", "rational"]
    )
    def test_cost_estimates_past_the_float_range(self, capsys, family):
        # The naive estimate charges 2**1100 tuples; float costs overflowed.
        code, out, err = _run(capsys, "energy", "--k", "1100", "--family", family)
        assert (code, err) == (0, "")
        assert json.loads(out)["T"] == str(math.comb(2200, 1100))

    @pytest.mark.parametrize(
        "algo, message",
        [
            ("auto", "representation: estimated 2553616 bytes"),
            ("mitm", "representation[mitm]: estimated 19152120 bytes"),
            ("dense", "representation[dense]: estimated 2553616 bytes"),
        ],
        ids=["auto", "mitm", "dense"],
    )
    def test_budget_check_past_the_float_range(self, capsys, algo, message):
        # C(799, 400) multisets: every plan is estimated, whatever --algo.
        argv = ["--algo", algo, "--mem", "100000", "energy", "--k", "400",
                "--family", "interval:n=400"]
        error = f"error: {message} exceeds budget 100000\n"
        assert _run(capsys, *argv) == (2, "", error)

    def test_env_var_overrides_mem(self, capsys, monkeypatch):
        monkeypatch.setenv("SUMSETLAB_MEM", "5000")
        code, _, err = _run(
            capsys, "--mem", str(2**32), "energy", "--k", "5",
            "--family", "power:n=64,m=3",
        )
        assert code == 2
        assert "exceeds budget" in err


class TestSpectrum:
    def test_json(self, capsys):
        code, out, _ = _run(capsys, "spectrum", "--k", "2", "--family", "interval:n=3")
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == [
            {"j": "0", "size": "2"},
            {"j": "1", "size": "3"},
        ]
        assert payload["T"] == "19"

    def test_csv(self, capsys):
        code, out, _ = _run(
            capsys, "--format", "csv", "spectrum", "--k", "2",
            "--family", "interval:n=3",
        )
        assert code == 0
        assert out.splitlines() == ["j,r_lo,r_hi,size", "0,1,2,2", "1,2,4,3"]


class TestSumsetDoubling:
    def test_sumset_sizes(self, capsys):
        code, out, _ = _run(
            capsys, "sumset", "--k", "2", "--signs", "+-", "--family", "interval:n=9"
        )
        assert code == 0
        assert json.loads(out)["size"] == "17"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k", "4", "--signs", "+-+-", "--family", "rsc:n=24,s=2,seed=0,gap=8"],
            ["--k", "2", "--family", "power:n=10,m=8"],
            ["--family", "power:n=10,m=2",
             "--family", "composed:f=poly:0,1/2,inner=power:n=8,m=2"],
        ],
        ids=["bitset", "fold", "rational_pair"],
    )
    def test_size_without_elements_builds_no_element(self, monkeypatch, capsys,
                                                     argv):
        # The size-only support path: nothing decodes or sorts the sums.
        real, decoded = kernels.support_values, []
        monkeypatch.setattr(
            kernels, "support_values", lambda *a: decoded.append(a) or real(*a)
        )
        code, out, err = _run(capsys, "sumset", *argv)
        assert (code, err, decoded) == (0, "", [])
        monkeypatch.undo()
        _, full, _ = _run(capsys, "sumset", "--elements", *argv)
        report, elements = json.loads(out), json.loads(full)
        assert report["size"] == elements["size"] == str(len(elements["elements"]))
        assert report == {k: v for k, v in elements.items() if k != "elements"}

    def test_doubling(self, capsys):
        code, out, _ = _run(
            capsys, "doubling", "--pattern", "++-", "--family", "interval:n=10"
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["size"] == "28"
        assert report["K"] == "14/5"

    def test_doubling_budget_exceeded_exits_2(self, capsys):
        # A sumset size takes no algorithm: --algo does not change its budget.
        for algo in ((), ("--algo", "naive")):
            code, out, err = _run(
                capsys, *algo, "--mem", "1000", "doubling", "--pattern", "++-",
                "--family", "rsc:n=72,s=2,seed=1,gap=8",
            )
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1
            assert err.startswith("error: sumset support: estimated")

    def test_analyze(self, capsys):
        code, out, _ = _run(capsys, "analyze", "--family", "power:n=8,m=2")
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["convexity_order"] == "1"
        assert report["popular"]["bound_holds"] is True

    def test_analyze_counts_each_set_once_per_key(self, capsys, monkeypatch):
        # One r_{A-A} per set serves the popular class, E and E3_diff.
        keys = []
        real = engine.representation

        def counting(sets, **kwargs):
            signs = engine.parse_signs(kwargs.get("signs"), len(sets))
            keys.append((tuple(sets), signs))
            return real(sets, **kwargs)

        monkeypatch.setattr(engine, "representation", counting)
        families = ("power:n=8,m=2", "rsc:n=12,s=2,seed=1,gap=4")
        code, out, _ = _run(
            capsys, "analyze", "--family", families[0], "--family", families[1]
        )
        assert code == 0
        assert len(keys) == 2 == len(set(keys))
        monkeypatch.undo()
        for (sets, _), report in zip(keys, json.loads(out)["reports"]):
            rep = engine.representation(sets, signs="+-")
            assert report["E3_diff"] == str(moment_sum(rep, 3))

    @pytest.mark.parametrize("algo", ["auto", "naive", "mitm", "dense"])
    @pytest.mark.parametrize(
        "family", [ANALYZE_INT, ANALYZE_RAT, "power:n=2,m=3"], ids=["int", "rat", "two"]
    )
    def test_analyze_equals_its_old_sources(self, capsys, algo, family):
        # |A-A| from the support kernel and the popular class with its
        # differences built, as analyze read them before it read both from
        # its one r_{A-A}.
        A = generate(parse_family(family, 0))
        want = {}
        for pattern in ("+-", "++", "++-"):
            rep = engine.doubling(A, pattern)
            want.update({f"size[{pattern}]": rep.size, f"K[{pattern}]": rep.K})
        diff = engine.representation([A, A], signs="+-", algo=algo)
        pop = engine.popular_dyadic_class(A, algo=algo)
        e = engine.energy_of(diff, [A, A])
        bound = engine.popular_bound_factor(len(A)) * pop.score
        want["E"], want["E3_diff"] = e, moment_sum(diff, 3)
        want["popular"] = {
            "delta": pop.delta,
            "class_size": len(pop.differences),
            "score": pop.score,
            "energy_bound": bound,
            "bound_holds": e <= bound,
        }
        code, out, _ = _run(capsys, "--algo", algo, "analyze", "--family", family)
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert {key: report[key] for key in want} == json.loads(render_json(want))

    @pytest.mark.parametrize("algo", ["auto", "dense"])
    def test_analyze_builds_only_what_it_prints(self, capsys, monkeypatch, algo):
        # Per set, the support kernel runs once, for A+A-A and its prefix
        # A+A, r_{A-A} is neither sorted nor gathered, and no set is built
        # beyond the inputs: neither the class's differences nor A-A.
        families = [ANALYZE_INT, ANALYZE_RAT]
        built, tuples, support = [], [], []
        init, build_tuples = OrderedSet.__init__, SparseCounts._build_tuples

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(OrderedSet, "__init__", spy_init)
        monkeypatch.setattr(
            SparseCounts, "_build_tuples",
            lambda self: tuples.append(self) or build_tuples(self),
        )
        sizes = kernels.support_sizes
        monkeypatch.setattr(
            kernels, "support_sizes", lambda *a: support.append(a) or sizes(*a)
        )
        sets = [generate(parse_family(family, 0)) for family in families]
        inputs = list(built)  # the sets and what generating them built
        built.clear()
        argv = ["--algo", algo, "analyze"]
        code, _, _ = _run(capsys, *argv, *(x for f in families for x in ("--family", f)))
        assert code == 0
        assert built == inputs
        assert (tuples, len(support)) == ([], len(families))
        built.clear()
        for A in sets:
            engine.check_popular_bound(A, algo=algo)
        assert (built, tuples) == ([], [])

    @pytest.mark.parametrize("squares", [8, 28])
    def test_energy_outside_universal_bounds(self, capsys, monkeypatch, squares):
        # E of a 3-element set lies in [3**2, 3**3] = [9, 27].  Both energy
        # and analyze's count pass hand E to the one check.
        check = engine._checked_energy
        monkeypatch.setattr(
            engine, "_checked_energy", lambda total, sets: check(squares, sets)
        )
        A = sumsetlab.gen_interval(3)
        with pytest.raises(VerificationError, match="outside the universal bounds"):
            engine.energy_T([A, A])
        code, out, err = _run(capsys, "analyze", "--family", "interval:n=3")
        assert (code, out) == (2, "")
        assert err == (
            f"error: energy {squares} outside the universal bounds [3**2, 3**3]\n"
        )


SQUARES = ["--family", "power:n=12,m=2"]
CUBES = ["--family", "power:n=64,m=3"]


class TestPlannedRows:
    """The row each budgeted command runs, on the commands that
    ``tools/report_digest.py`` digests for it: the representation
    algorithm, the support path, or nothing before a ``--mem`` error."""

    @staticmethod
    def rows_run(monkeypatch, capsys, argv):
        rows = []
        for name in ("_rep_naive", "_rep_mitm", "_rep_dense"):
            real = getattr(engine, name)

            def spy(*args, real=real, name=name):
                rows.append(name.removeprefix("_rep_"))
                return real(*args)

            monkeypatch.setattr(engine, name, spy)
        real_support = kernels.support_values
        real_ranks = kernels.support_ranks

        def support(lists, switch):
            rows.append(f"support {switch} of {len(lists)}")
            return real_support(lists, switch)

        def ranks(lists, switch, queries):
            rows.append(f"ranks {switch} of {len(lists)}")
            return real_ranks(lists, switch, queries)

        monkeypatch.setattr(kernels, "support_values", support)
        monkeypatch.setattr(kernels, "support_ranks", ranks)
        code, _, err = _run(capsys, *argv)
        return code, err, rows

    @pytest.mark.parametrize(
        "argv, rows, error",
        [
            (["--algo", algo, "energy", "--k", "3", *SQUARES], [algo], "")
            for algo in ("naive", "mitm", "dense")
        ]
        + [
            (["--algo", "dense", "energy", "--k", "2", "--family",
              "composed:f=poly:0,1/2,inner=power:n=8,m=2"], ["dense"], ""),
            (["--mem", "1000", "energy", "--k", "4", *CUBES], [],
             "representation: estimated 16777168 bytes exceeds budget 1000"),
            (["--algo", "mitm", "--mem", "1000", "energy", "--k", "3", *CUBES], [],
             "representation[mitm]: estimated 5491200 bytes exceeds budget 1000"),
            # The size path's least estimate is its bitset throughout
            # (switch point 1): four masks of the 786,433-bit span, 26,215
            # int digits of 4 bytes each, and the row's fixed 1,024 bytes.
            # The elements add two bytes per bit of span and one entry
            # per sum, at most C(66, 3) sums of three of the 64 cubes at
            # 120 bytes each; that is still less than the fold's pair of
            # sets, C(65, 2) and C(66, 3) sums at 168 bytes each.
            (["--mem", "1000", "sumset", "--k", "3", *CUBES], [],
             "sumset support: estimated 420464 bytes exceeds budget 1000"),
            (["--mem", "1000", "sumset", "--k", "3", "--elements", *CUBES], [],
             "sumset support: estimated 7484524 bytes exceeds budget 1000"),
            # The census representation and the ranks of B in the partition's
            # triple sumset (the bitset throughout: switch point 1) fit; the
            # census's first table level does not: its 10 entries beside the
            # level of 1 it folds from, their sorted arrays, the queries and
            # rows of 45 rich sums, and a census's fixed 16 kB.
            (["--mem", "5000", "lucky", "--k", "3", "--r", "2", "--g", "pow:2",
              "--family", "interval:n=10"], ["dense", "ranks 1 of 3"],
             "lucky census table: estimated 50584 bytes exceeds budget 5000"),
            (["sumset", "--k", "2", "--elements", "--family", "power:n=10,m=8"],
             ["support 2 of 2"], ""),
            (["sumset", "--k", "3", "--elements", "--family", "interval:n=40"],
             ["support 1 of 3"], ""),
        ],
        ids=["naive", "mitm", "dense", "dense_rational", "mem_auto", "mem_mitm",
             "mem_support", "mem_support_elements", "mem_census_table",
             "elements_fold", "elements_bitset"],
    )
    def test_digested_command_runs_its_row(self, monkeypatch, capsys, argv, rows,
                                           error):
        code, err, ran = self.rows_run(monkeypatch, capsys, argv)
        assert (code, err, ran) == (
            (2, f"error: {error}\n", rows) if error else (0, "", rows)
        )


class TestLucky:
    def test_census_csv(self, capsys):
        code, out, _ = _run(
            capsys, "--format", "csv", "lucky", "--r", "4",
            "--family", "rsc:n=32,s=1,seed=3,gap=2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,r_x,pairs_found,lower_bound,occupied_cells"
        for line in lines[1:]:
            x, r_x, pairs, lower, cells = line.split(",")
            assert int(pairs) >= int(lower)
            assert 4 <= int(r_x) < 8

    @pytest.mark.parametrize(
        "flags", [("--mem", "1000"), ("--algo", "naive", "--mem", "100000")]
    )
    def test_budget_exceeded_exits_2(self, capsys, flags):
        code, out, err = _run(
            capsys, *flags, "lucky", "--k", "3", "--r", "16",
            "--family", "rsc:n=34,s=1,seed=1,gap=4",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "exceeds budget" in err

    def test_table_charged_level_by_level_fits_a_tight_budget(self, capsys):
        # Each table level is charged once the level it folds from is
        # built, at that level's size: 1 MB holds this k = 5 census, which
        # a bound on the whole table up front (1,536,496 bytes) refused.
        argv = ["lucky", "--k", "5", "--r", "256", "--c", "2", "--format", "csv",
                "--family", "rsc:n=10,s=1,seed=0,gap=4"]
        code, out, err = _run(capsys, "--mem", "1000000", *argv)
        assert (code, err) == (0, "")
        assert out.count("\n") > 1
        assert (code, out, err) == _run(capsys, *argv)

    def test_map_not_injective_exits_2(self, capsys):
        code, _, err = _run(
            capsys, "lucky", "--k", "2", "--r", "2", "--g", "poly:0,0,1",
            "--family", "ap:n=5,base=-2",
        )
        assert code == 2
        assert err == "error: map poly:0,0,1 is not injective on its set\n"


class TestFit:
    def test_cubic(self, capsys):
        code, out, _ = _run(capsys, "fit", "8:512", "16:4096", "32:32768")
        assert code == 0
        assert abs(json.loads(out)["slope"] - 3.0) < 1e-9

    def test_bad_point(self, capsys):
        code, _, err = _run(capsys, "fit", "8:512", "x:4")
        assert code == 2


class TestVerify:
    def test_passing_bound_exits_0(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--bound", "KG_energy", "--family", "power:m=2",
            "--grid", "16,32,64",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["flags"]["slope_within_bound"] is True

    def test_failing_bound_exits_1(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--bound", "KG_energy", "--family", "interval",
            "--grid", "16,32,64",
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_failing_bound_exits_1_in_csv(self, capsys):
        code, out, _ = _run(
            capsys, "--format", "csv", "verify", "--bound", "KG_energy",
            "--family", "interval", "--grid", "16,32,64",
        )
        assert code == 1
        assert out.splitlines()[0] == "N,Q,K,L,ratio"

    def test_heuristic_tail(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--bound", "eq13_tail", "--family", "power:m=3",
            "--grid", "8,16",
        )
        assert code == 0
        assert json.loads(out)["heuristic"] is True

    def test_unknown_bound_exits_2(self, capsys):
        code, _, err = _run(
            capsys, "verify", "--bound", "nope", "--family", "interval",
            "--grid", "8,16",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--algo", "dense", "verify", "--bound", "KG_energy", "--family",
              "composed:f=poly:0,1/2,inner=interval", "--grid", "4,8,16"], None),
            (["--algo", "dense", "verify", "--bound", "eq13_tail", "--family",
              "composed:f=poly:0,1/2,inner=interval", "--grid", "4,8"], None),
            (["--algo", "naive", "--mem", "3000", "verify", "--bound", "T3",
              "--family", "power:m=2", "--grid", "8,9,10"],
             "representation[naive]: estimated 22800 bytes exceeds budget 3000"),
            (["--algo", "naive", "--mem", "3000", "verify", "--bound",
              "eq13_tail", "--family", "power:m=2", "--grid", "8,9"],
             "representation[naive]: estimated 30360 bytes exceeds budget 3000"),
        ],
        ids=["dense_rational", "dense_rational_tail", "naive_budget",
             "naive_budget_tail"],
    )
    def test_honours_algo(self, monkeypatch, capsys, argv, message):
        if message is not None:
            code, out, err = _run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n")
            return
        # Dense on a rational family: the mitm report and exit code (1
        # where the bound fails), with no mitm run.
        want = _run(capsys, "--algo", "mitm", *argv[2:])

        def no_mitm(*args):
            raise AssertionError("mitm ran under --algo dense")

        monkeypatch.setattr(engine, "_rep_mitm", no_mitm)
        assert want[2] == "" and _run(capsys, *argv) == want

    @pytest.mark.parametrize("algo", ["naive", "mitm", "dense"])
    def test_explicit_algo_gives_the_auto_report(self, capsys, algo):
        verify = ("verify", "--family", "power:m=2", "--grid", "8,12,16")
        commands = (
            (*verify, "--bound", "T3"),
            ("verify", "--bound", "eq13_tail", "--family", "power:m=2",
             "--grid", "8,12"),
            (*verify, "--bound", "card_main", "--s", "1"),
            (*verify, "--bound", "E_cross_sqrtK"),
            ("sumset", "--k", "3", "--signs", "++-", "--elements",
             "--family", "rsc:n=12,s=2,seed=1,gap=4"),
            ("doubling", "--pattern", "+-+", "--family", "power:n=9,m=3"),
            ("analyze", "--family", "power:n=8,m=2",
             "--family", "rsc:n=12,s=2,seed=1,gap=4"),
            ("lucky", "--k", "3", "--r", "4", "--family", "rsc:n=16,s=1,seed=3,gap=2"),
        )
        for command in commands:
            want = _run(capsys, *command)
            assert want[0] == 0
            assert _run(capsys, "--algo", algo, *command) == want, command

    def test_sumsets_of_rational_sets_take_no_algorithm(self, capsys):
        # --algo picks a representation algorithm; a sumset has none, so
        # it reads no --algo, dense included.
        argv = ("sumset", "--k", "3", "--signs", "++-", "--elements",
                "--family", "composed:f=poly:0,1/2,inner=interval:n=8")
        want = _run(capsys, *argv)
        assert want[0] == 0
        assert _run(capsys, "--algo", "dense", *argv) == want

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--bound", "KG_energy", "--k", "7", "--s", "3"],
             "bound KG_energy takes no parameter s"),
            (["--bound", "KG_energy", "--k", "2"],
             "bound KG_energy takes no parameter k"),
            (["--bound", "T_main", "--s", "1", "--k", "9"],
             "bound T_main takes no parameter k"),
            (["--bound", "IKRT", "--k", "3", "--s", "1"],
             "bound IKRT takes no parameter s"),
            (["--bound", "eq13_tail", "--signs", "+-+-"],
             "bound eq13_tail takes no parameter signs"),
            (["--bound", "eq13_tail", "--s", "1"],
             "bound eq13_tail takes no parameter s"),
            (["--bound", "eq13_tail", "--k", "4"],
             "bound eq13_tail takes no parameter k"),
            (["--bound", "card_main", "--s", "0"], "card_main needs s >= 1"),
            (["--bound", "T_main"],
             "this bound needs a convexity parameter s >= 0"),
            (["--bound", "IKRT"], "IKRT needs k >= 1"),
        ],
        ids=["KG_s_k", "KG_k", "T_main_k", "IKRT_s", "tail_signs", "tail_s",
             "tail_k", "card_main_s0", "T_main_no_s", "IKRT_no_k"],
    )
    def test_parameter_the_bound_does_not_read_exits_2(self, capsys, argv, message):
        code, out, err = _run(
            capsys, "verify", *argv, "--family", "power:m=2", "--grid", "8,16,32"
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--bound", "T_main", "--s", "9", "--grid", "2,3"],
             "bound T_main at N = 2: a quantity or constant leaves the float range"),
            (["--bound", "IKRT", "--k", "400", "--grid", "2,3,4"],
             "bound IKRT at N = 2: a quantity or constant leaves the float range"),
        ],
        ids=["T_main_s9", "IKRT_k400"],
    )
    def test_value_past_the_float_range_exits_2(self, capsys, argv, message):
        code, out, err = _run(capsys, "verify", *argv, "--family", "interval")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_card_rows_are_budgeted_as_sizes(self, capsys):
        # The size-only support path fits a budget that the sumset's
        # elements would not, at the grid's largest N.
        A = generate(parse_family("power:n=32,m=2"))
        lists, _ = engine._signed_ints([A, A], (1, -1))
        sizes, values = (
            min(bytes_ for bytes_, *_ in engine._plan_support(lists, elements, 2).values())
            for elements in (False, True)
        )
        assert sizes <= 4000 < values
        argv = ("verify", "--bound", "S66_diff", "--family", "power:m=2",
                "--grid", "8,16,32")
        want = _run(capsys, *argv)
        assert want[0] == 0
        assert _run(capsys, "--mem", "4000", *argv) == want

    def test_parameters_the_bound_reads_are_accepted(self, capsys):
        for argv in (["--bound", "T_main", "--s", "1"],
                     ["--bound", "IKRT", "--k", "2"]):
            code, out, _ = _run(
                capsys, "verify", *argv, "--family", "power:m=2",
                "--grid", "8,16,32",
            )
            assert code in (0, 1) and json.loads(out)["op"] == "verify"


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.set"
    path.write_bytes(b"1\n2\n# caf\xe9\n")
    return str(path)


class TestUserErrors:
    """Bad paths, undecodable files and malformed grids are user errors:
    exit 2 with one `error:` line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            lambda tmp: ["energy", "--set", str(tmp / "missing.set")],
            lambda tmp: ["energy", "--set", str(tmp)],
            lambda tmp: ["energy", "--set", _not_utf8(tmp)],
            lambda tmp: ["verify", "--bound", "T3", "--family", "interval",
                         "--grid", "8,x"],
            lambda tmp: ["verify", "--bound", "T3", "--family", "interval",
                         "--grid", ""],
            lambda tmp: ["--out", str(tmp / "no" / "x.json"), "energy",
                         "--family", "interval:n=3"],
            lambda tmp: ["--out", str(tmp), "energy", "--family", "interval:n=3"],
            lambda tmp: ["gen", "interval:n=3", "--out", str(tmp / "no" / "x")],
            lambda tmp: ["fit", "0:5", "20:5", "30:7"],
            lambda tmp: ["verify", "--bound", "eq13_tail", "--family",
                         "interval", "--grid", "1,2,3"],
            lambda tmp: ["sumset", "--k", "0", "--family", "interval:n=3"],
            lambda tmp: ["analyze", "--family", "interval:n=1"],
        ],
        ids=["missing", "directory", "not_utf8", "grid_8_x", "grid_empty",
             "out_missing_dir", "out_directory", "gen_out_missing_dir",
             "fit_n_zero", "tail_n_one", "sumset_k_zero", "analyze_n_one"],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, argv):
        code, out, err = _run(capsys, *argv(tmp_path))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sumset", "--k", "0", "--family", "interval:n=3"],
             "need at least one set"),
            (["analyze", "--family", "interval:n=1"],
             "popular class needs at least 2 elements"),
        ],
        ids=["sumset_k_zero", "analyze_n_one"],
    )
    def test_empty_and_singleton_inputs(self, capsys, argv, message):
        assert _run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["energy", "--k", "x", "--family", "interval:n=3"],
             "argument --k: invalid int value: 'x'"),
            (["lucky", "--family", "interval:n=3"],
             "the following arguments are required: --r"),
            (["energy", "--family", "interval:n=3", "--bogus"],
             "unrecognized arguments: --bogus"),
            (["verify", "--bound", "T3", "--family", "interval", "--grid", "-1,2"],
             "argument --grid: expected one argument"),
            (["energy", "--k", "2", "--family", "interval:n=3",
              "--family", "interval:n=4"],
             "--k replicates a single input set"),
            (["lucky", "--r", "2", "--family", "interval:n=3",
              "--family", "interval:n=4"],
             "lucky censuses take exactly one base set"),
            (["energy", "--k", "2"], "no input sets: pass --set or --family"),
            (["--mem", "0", "energy", "--k", "2", "--family", "interval:n=3"],
             "memory budget must be positive"),
            (["energy", "--signs", "+x", "--k", "2", "--family", "interval:n=3"],
             "bad sign character in '+x'"),
            (["sumset", "--signs", "++-", "--family", "interval:n=3",
              "--family", "interval:n=4"],
             "expected 2 signs, got 3"),
            (["sumset", "--signs=-+", "--k", "2", "--family", "interval:n=3"],
             "sign patterns are normalized to start with +"),
            (["verify", "--bound", "card_main", "--s", "2", "--signs=-+-+",
              "--family", "power:m=2", "--grid", "8,16,32"],
             "sign patterns are normalized to start with +"),
            (["verify", "--bound", "card_main", "--s", "2", "--signs=+-",
              "--family", "power:m=2", "--grid", "8,16,32"],
             "expected 4 signs, got 2"),
            (["lucky", "--r", "2", "--g", "poly:1/0", "--family", "interval:n=3"],
             "bad polynomial coefficients in 'poly:1/0'"),
            # Family parameter guards.
            (["gen", "interval:n=0"], "interval length must be >= 1"),
            (["gen", "power:n=3,m=0"], "gen_power needs n >= 1 and m >= 1"),
            (["gen", "ap:n=3,step=0"], "gen_ap needs n >= 1 and step > 0"),
            (["gen", "rsc:n=5,s=-1"], "convexity order must be >= 0"),
            (["gen", "rsc:n=5,s=1,gap=0"], "gap bound must be >= 1"),
            (["gen", "gap:dims=2,steps=1:1"],
             "dims and steps must be non-empty and matched"),
            (["gen", "gap:dims=0x2,steps=1:1"], "every dim must be >= 1"),
            (["gen", "gap:dims=2x2,steps=0:1"], "every step must be positive"),
            (["gen", "interval:n"], "expected key=value, got 'n'"),
            (["gen", "interval:n=99999999999999999999999"],
             f"family size n must be at most {sys.maxsize}"),
            (["gen", "composed:g=pow:2,inner=interval:n=3"],
             "composed spec must start with f="),
            (["gen", "composed:f=pow:0,inner=interval:n=3"],
             "power exponent must be >= 1"),
            (["gen", "composed:f=root:0,inner=interval:n=3"],
             "root index must be >= 1"),
        ],
        ids=["k_not_int", "lucky_without_r", "unknown_flag", "grid_negative",
             "energy_k_two_sets", "lucky_two_sets", "no_inputs", "mem_zero",
             "bad_sign", "sign_count", "sign_not_plus_first",
             "verify_sign_not_plus_first", "verify_sign_count", "bad_polynomial",
             "interval_n_zero", "power_m_zero", "ap_step_zero", "rsc_s_negative",
             "rsc_gap_zero", "gap_unmatched", "gap_dim_zero", "gap_step_zero",
             "spec_without_value", "interval_n_past_maxsize", "composed_without_f",
             "composed_pow_zero", "composed_root_zero"],
    )
    def test_usage_errors_fit_on_one_line(self, capsys, argv, message):
        assert _run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, k, estimate",
        [
            (["energy", "--k", "100", "--family", "interval:n=1"], 100, 4000),
            (["sumset", "--k", "100", "--family", "interval:n=1"], 100, 4000),
            (["lucky", "--k", "100", "--r", "4", "--family", "interval:n=3"],
             100, 5600),
            (["verify", "--bound", "IKRT", "--k", "100", "--family", "interval",
              "--grid", "2,3,4"], 100, 4000),
            (["verify", "--bound", "card_main", "--s", "7", "--family", "interval",
              "--grid", "2,3,4"], 128, 5120),
        ],
        ids=["energy", "sumset", "lucky", "verify_T", "verify_card"],
    )
    def test_copies_are_charged_before_they_are_built(self, capsys, monkeypatch,
                                                       argv, k, estimate):
        # Under a budget that the k copies' references alone exceed, the
        # engine never reads the sets.
        read = []
        real = engine._signed_ints
        monkeypatch.setattr(
            engine, "_signed_ints", lambda *a: read.append(a) or real(*a)
        )
        message = f"error: {k} copies of the set: estimated {estimate} bytes"
        assert _run(capsys, "--mem", "1000", *argv) == (
            2, "", f"{message} exceeds budget 1000\n"
        )
        assert read == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--bound", "T_main", "--s", "20000", "--family", "interval:n=4",
             "--grid", "4,8"],
            ["--mem", str(10**30), "energy", "--k", str(2**70), "--family", "interval:n=4"],
            ["--mem", str(10**30), "verify", "--bound", "T_main", "--s", "70",
             "--family", "interval:n=4", "--grid", "4,8"],
            ["--mem", str(10**30), "lucky", "--k", str(2**80), "--r", "4",
             "--family", "interval:n=3"],
        ],
        ids=["verify_s_20000", "energy_k_2_70", "verify_s_70", "lucky_k_2_80"],
    )
    def test_copy_counts_no_list_can_hold_exit_at_once(self, capsys, argv):
        # Copies past sys.maxsize are refused before anything is built,
        # 2**s copies before the bound's exponents, with a line that does
        # not print the count (2**20000 is past the int/str digit limit).
        started = time.perf_counter()
        result = _run(capsys, *argv)
        assert time.perf_counter() - started < 0.1
        assert result == (
            2, "", f"error: at most {sys.maxsize} copies of a set can be held\n"
        )

    @pytest.mark.parametrize("command", ["energy", "spectrum", "sumset"])
    @pytest.mark.parametrize("source", ["family", "set"])
    def test_rendered_inputs_are_charged_before_rendering(
        self, capsys, monkeypatch, tmp_path, command, source
    ):
        # 2,000 copies of {1} render one provenance dict each into the
        # inputs field, about 1 MB at the peak of render_json, and little
        # else.  The charge, sized on the running interpreter, covers that
        # peak within 10 %.  Under a budget just below the peak, which the
        # copies' references and the computation fit, the command exits 2
        # once the computation is done, before anything is rendered.
        monkeypatch.delenv("SUMSETLAB_MEM", raising=False)
        path = tmp_path / "one.set"
        path.write_text("1\n")
        given = {"family": ["--family", "interval:n=1"], "set": ["--set", str(path)]}
        argv = [command, "--k", "2000", *given[source]]
        real_render, peaks = cli.render_json, []

        def traced(payload):
            tracemalloc.start()
            try:
                return real_render(payload)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(cli, "render_json", traced)
        assert _run(capsys, *argv)[0] == 0
        peak = max(peaks)
        provenance = (
            {"family": "interval:n=1"} if source == "family"
            else {"file": str(path), "sha256": file_digest(str(path))}
        )
        charge = rendered_copies(2000, provenance)
        assert peak <= charge <= 1.1 * peak
        peaks.clear()
        message = f"inputs field of 2000 copies: estimated {charge} bytes"
        assert _run(capsys, "--mem", str(peak - 1), *argv) == (
            2, "", f"error: {message} exceeds budget {peak - 1}\n"
        )
        assert peaks == []
        assert _run(capsys, "--mem", str(charge), *argv)[0] == 0
        if command == "spectrum":  # its CSV renders no inputs field
            assert _run(capsys, "--format", "csv", "--mem", str(peak - 1), *argv)[0] == 0

    def test_bad_memory_variable_fits_on_one_line(self, capsys, monkeypatch):
        monkeypatch.setenv("SUMSETLAB_MEM", "abc")
        argv = ["energy", "--k", "2", "--family", "interval:n=3"]
        message = "error: SUMSETLAB_MEM must be an integer, got 'abc'\n"
        assert _run(capsys, *argv) == (2, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--k", "2", "--family", "interval:n=3"],
            ["sumset", "--k", "2", "--family", "interval:n=3"],
            ["doubling", "--family", "interval:n=5"],
            ["analyze", "--family", "interval:n=5"],
            ["fit", "8:512", "16:4096", "32:32768"],
            ["verify", "--bound", "eq13_tail", "--family", "power:m=3",
             "--grid", "8,16"],
        ],
        ids=["energy", "sumset", "doubling", "analyze", "fit", "verify_tail"],
    )
    def test_csv_of_a_command_without_one_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "report.csv"
        code, out, err = _run(capsys, "--format", "csv", "--out", str(path), *argv)
        assert (code, out, err) == (2, "", f"error: {argv[0]} has no csv format\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--k", "4", "--family", "rsc:n=38,s=3,seed=0,gap=64"],
            ["analyze", "--family", "interval:n=5"],
            ["verify", "--bound", "eq13_tail", "--family", "power:m=3",
             "--grid", "8,16"],
        ],
        ids=["energy", "analyze", "verify_tail"],
    )
    def test_csv_error_comes_before_any_work(self, monkeypatch, capsys, argv):
        calls = []
        monkeypatch.setattr(engine, "representation", lambda *a, **k: calls.append(a))
        code, out, err = _run(capsys, "--format", "csv", *argv)
        assert (code, out, err) == (2, "", f"error: {argv[0]} has no csv format\n")
        assert calls == []

    def test_message_names_the_path(self, tmp_path, capsys):
        path = str(tmp_path / "missing.set")
        _, _, err = _run(capsys, "energy", "--set", path)
        assert path in err

    @pytest.mark.parametrize(
        "argv",
        [
            lambda path: ["--out", path, "energy", "--family", "interval:n=3"],
            lambda path: ["gen", "interval:n=3", "--out", path],
        ],
        ids=["report", "gen"],
    )
    def test_write_error_names_the_path(self, tmp_path, capsys, argv):
        path = str(tmp_path / "no" / "x.out")
        _, _, err = _run(capsys, *argv(path))
        assert path in err

    @pytest.mark.parametrize(
        "argv",
        [
            lambda tmp: ["--out", str(tmp / "no" / "x.json"), "energy", "--k", "4",
                         "--family", "rsc:n=38,s=3,seed=1,gap=64"],
            lambda tmp: ["--out", str(tmp), "analyze", "--family", "interval:n=9"],
            lambda tmp: ["gen", "interval:n=3", "--out", str(tmp / "no" / "x")],
            lambda tmp: ["gen", "interval:n=3", "--out", str(tmp)],
            lambda tmp: ["--out", "", "energy", "--k", "4",
                         "--family", "rsc:n=38,s=3,seed=1,gap=64"],
            lambda tmp: ["gen", "interval:n=3", "--out", ""],
            lambda tmp: ["--out", str(tmp / ("x" * 300)), "energy", "--k", "4",
                         "--family", "rsc:n=38,s=3,seed=1,gap=64"],
            lambda tmp: ["gen", "interval:n=3", "--out", str(tmp / ("x" * 300))],
        ],
        ids=["report_missing_dir", "report_directory", "gen_missing_dir",
             "gen_directory", "report_empty", "gen_empty",
             "report_name_too_long", "gen_name_too_long"],
    )
    def test_unwritable_out_fails_before_any_work(
        self, tmp_path, capsys, no_work, argv
    ):
        code, out, err = _run(capsys, *argv(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_symlink_into_a_missing_directory_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, no_work
    ):
        monkeypatch.chdir(tmp_path)
        os.symlink("missing/target", "dangling")
        code, out, err = _run(
            capsys, "--out", "dangling", "energy", "--k", "4",
            "--family", "rsc:n=38,s=3,seed=1,gap=64",
        )
        assert (code, out) == (2, "")
        assert err == "error: cannot write 'dangling': No such file or directory\n"
        assert os.listdir(tmp_path) == ["dangling"]

    def test_symlink_into_a_directory_is_written_through(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        link = tmp_path / "link"
        link.symlink_to("d/target")  # relative to the link, not the cwd
        code, _, _ = _run(
            capsys, "--out", str(link), "energy", "--family", "nosuch:n=3"
        )
        assert code == 2
        assert link.is_symlink() and list((tmp_path / "d").iterdir()) == []
        code, out, err = _run(
            capsys, "--out", str(link), "energy", "--k", "2",
            "--family", "interval:n=4",
        )
        assert (code, out, err) == (0, "", "")
        assert link.is_symlink()
        assert json.loads((tmp_path / "d" / "target").read_text())["T"] == "44"

    def test_name_too_long_has_one_wording(self, tmp_path, capsys):
        path = str(tmp_path / ("x" * 300))
        for argv in (["energy", "--k", "2", "--family", "interval:n=4"],
                     ["gen", "interval:n=3"]):
            code, out, err = _run(capsys, "--out", path, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: cannot write {path!r}: File name too long\n"

    def test_failed_command_leaves_out_untouched(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text("previous report\n")
        code, _, _ = _run(
            capsys, "--out", str(path), "energy", "--family", "nosuch:n=3"
        )
        assert code == 2
        assert path.read_text() == "previous report\n"

    def test_failed_command_leaves_no_new_out(self, tmp_path, capsys):
        path = tmp_path / "new.json"
        code, _, _ = _run(
            capsys, "--out", str(path), "energy", "--family", "nosuch:n=3"
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_out_to_a_device_is_written(self, capsys):
        code, out, err = _run(
            capsys, "--out", os.devnull, "energy", "--k", "2",
            "--family", "interval:n=4",
        )
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--k", "2", "--family", "interval:n=10"],
            ["--out", "-", "gen", "interval:n=10"],
        ],
        ids=["report", "gen"],
    )
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_2_with_one_line(self, argv, unbuffered):
        # The reader is gone before the first write, so the failure does
        # not depend on timing.  Buffered, it surfaces at the final flush;
        # unbuffered, at the write itself.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _cli_subprocess(argv, unbuffered, stdout=write_end)
        finally:
            os.close(write_end)
        _assert_one_error(done, "error: cannot write to stdout: Broken pipe")

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--k", "2", "--family", "interval:n=4"],
            ["--out", "-", "gen", "interval:n=4"],
        ],
        ids=["report", "gen"],
    )
    def test_stdout_closed_at_start_exits_2_with_one_line(self, argv):
        # Python sets sys.stdout to None when fd 1 is closed at start.
        done = _cli_subprocess(argv, "", preexec_fn=lambda: os.close(1))
        _assert_one_error(
            done, "error: cannot write to stdout: Bad file descriptor"
        )

    def test_stdout_closed_at_start_does_not_stop_out(self, tmp_path):
        path = tmp_path / "e.json"
        done = _cli_subprocess(
            ["--out", str(path), "energy", "--k", "2", "--family", "interval:n=4"],
            "", preexec_fn=lambda: os.close(1),
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(path.read_text())["T"] == "44"

    @staticmethod
    def _interrupted(argv, preexec_fn=None):
        """SIGINT to this test's own child, 1.5 s into ``argv``, which runs
        for a minute or more: one line, well within the timeout."""
        command, env = _cli_command(argv)
        child = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, preexec_fn=preexec_fn,
        )
        try:
            time.sleep(1.5)
            assert child.poll() is None
            child.send_signal(signal.SIGINT)
            _, stderr = child.communicate(timeout=5)
        finally:
            child.kill()
            child.wait()
        done = subprocess.CompletedProcess(command, child.returncode, None, stderr)
        _assert_one_error(done, "error: interrupted")

    def test_interrupt_exits_2_with_one_line(self):
        # A Python-level loop.
        self._interrupted(["energy", "--k", "20000", "--family", "interval:n=2"])

    def test_interrupt_reaches_the_naive_enumeration(self):
        # 2**60 tuples, counted in bounded chunks between which the signal
        # handler runs.
        self._interrupted(
            ["--algo", "naive", "energy", "--k", "60", "--family", "interval:n=2"]
        )

    @staticmethod
    def _limit_3gib():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

    def test_interrupt_reaches_the_energy_walk(self):
        # T8 of 64 cubes: one multiset node, whose class walk feeds each
        # composition's sums to C in bounded chunks.
        self._interrupted(
            ["--algo", "mitm", "energy", "--k", "8", *CUBES], self._limit_3gib
        )

    def test_interrupt_reaches_the_counts_walk(self):
        # The same node built as r_{8A}, each composition merged in chunks.
        self._interrupted(
            ["--algo", "mitm", "spectrum", "--k", "8", *CUBES], self._limit_3gib
        )

    def test_run_lets_an_interrupt_through(self, monkeypatch):
        # In process, the caller of run sees the interrupt itself.
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "energy_T", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(["energy", "--k", "2", "--family", "interval:n=4"])

    def test_memory_limit_exits_2_with_one_line(self):
        # A 300 MiB address-space limit on the child, far below the default
        # 4 GiB budget: the planned r_{4A} does not fit the process.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (300 * 2**20, 300 * 2**20))

        argv = ["energy", "--k", "4", "--family", "rsc:n=100,s=3,seed=0,gap=64"]
        done = _cli_subprocess(argv, "", stdout=subprocess.PIPE, preexec_fn=limit)
        _assert_one_error(
            done, "error: out of memory below the --mem budget: pass a smaller --mem"
        )

    def test_digest_of_unreadable_path(self, tmp_path):
        with pytest.raises(InputError, match="missing.set"):
            file_digest(str(tmp_path / "missing.set"))
        with pytest.raises(InputError):
            file_digest(str(tmp_path))


class TestDeterminism:
    def test_identical_reports(self, capsys):
        argv = (
            "verify", "--bound", "KG_energy",
            "--family", "rsc:s=1,seed=11,gap=4", "--grid", "16,32,64",
        )
        _, first, _ = _run(capsys, *argv)
        _, second, _ = _run(capsys, *argv)
        assert first == second and first

    def test_timing_only_when_requested(self, capsys):
        base = ("energy", "--k", "2", "--family", "interval:n=4")
        _, plain, _ = _run(capsys, *base)
        assert "timing_ms" not in plain
        _, timed, _ = _run(capsys, "--timings", *base)
        assert "timing_ms" in timed

    def test_cached_parser_runs_like_a_fresh_one(self, capsys, monkeypatch):
        # A usage error, a command, the same command with other flags
        # (--family appends) and the first again.
        sequence = [
            ["energy", "--k", "x", "--family", "interval:n=3"],
            ["energy", "--family", "interval:n=3", "--family", "power:n=4,m=2"],
            ["--algo", "dense", "energy", "--signs", "+-", "--mem", "100000",
             "--family", "interval:n=5", "--family", "interval:n=3"],
            ["energy", "--family", "interval:n=3", "--family", "power:n=4,m=2"],
        ]
        assert cli.build_parser() is cli.build_parser()
        cached = [_run(capsys, *argv) for argv in sequence]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [_run(capsys, *argv) for argv in sequence]
        assert cached == fresh
        assert [code for code, _, _ in cached] == [2, 0, 0, 0]
        assert cached[3] == cached[1] != cached[2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--k", "2", "--family", "interval:n=4"],
            ["lucky", "--r", "4", "--family", "rsc:n=16,s=1,seed=3,gap=2"],
            ["verify", "--bound", "KG_energy", "--family", "interval",
             "--grid", "16,32,64"],
        ],
        ids=["spectrum", "lucky", "verify"],
    )
    def test_timing_never_in_csv(self, capsys, argv):
        plain = _run(capsys, "--format", "csv", *argv)
        assert plain[1].count("\n") > 1
        assert _run(capsys, "--timings", "--format", "csv", *argv) == plain


class TestReportFields:
    """Each report field is declared once: ``op`` by ``run``, and a CSV
    from the same columns and cells as its JSON rows."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--family", "interval:n=6"],
            ["energy", "--k", "2", "--family", "interval:n=4"],
            ["spectrum", "--k", "2", "--family", "interval:n=4"],
            ["sumset", "--k", "2", "--family", "interval:n=4"],
            ["doubling", "--family", "interval:n=4"],
            ["lucky", "--r", "2", "--family", "interval:n=8"],
            ["fit", "8:512", "16:4096", "32:32768"],
            ["verify", "--bound", "KG_energy", "--family", "power:m=2",
             "--grid", "8,16,32"],
            ["verify", "--bound", "eq13_tail", "--family", "power:m=2",
             "--grid", "8,16"],
        ],
        ids=["analyze", "energy", "spectrum", "sumset", "doubling", "lucky", "fit",
             "verify", "verify_tail"],
    )
    def test_op_is_the_subcommand(self, capsys, argv):
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["op"] == argv[0]

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["lucky", "--r", "4", "--family", "rsc:n=24,s=1,seed=3,gap=4"],
             "rows"),
            (["verify", "--bound", "T_main", "--s", "1",
              "--family", "composed:f=poly:0,1/2,inner=power:m=2",
              "--grid", "8,16,32"], "per_N"),
        ],
        ids=["lucky", "verify"],
    )
    def test_csv_rows_are_the_json_rows(self, capsys, argv, key):
        code, out, _ = _run(capsys, *argv)
        rows = json.loads(out)[key]
        csv_code, text, _ = _run(capsys, "--format", "csv", *argv)
        table = list(csv.DictReader(io.StringIO(text)))
        assert csv_code == code
        assert len(table) == len(rows) > 1
        for line, row in zip(table, rows):
            cells = {c: v if isinstance(v, str) else repr(v) for c, v in row.items()}
            assert line == {c: cells[c] for c in line}

    def test_csv_cells_keep_their_report_forms(self):
        # Every cell is written as its str: a Fraction as format_element
        # writes it, a float as its repr.  A row is a list, a plain tuple
        # or a NamedTuple such as a census row.
        fractions = [Fraction(1, 2), Fraction(4, 2), Fraction(-7, 3), Fraction(0)]
        floats = [0.1, 1e300, -0.0, 2.5e-7, float("inf")]
        ints = [2**70, -(2**63), 0]
        row = [*fractions, *floats, *ints, True]
        expected = [*map(format_element, fractions), *map(repr, floats),
                    *map(format_element, ints), "True"]
        header = [f"c{i}" for i in range(len(row))]
        Row = NamedTuple("Row", [(name, object) for name in header])
        text = rows_csv(header, [row, row, tuple(row), Row(*row)])
        assert text.splitlines() == [",".join(header), *[",".join(expected)] * 4]

    def test_named_tuple_renders_as_its_fields(self):
        # A NamedTuple, such as a census row, is the object of its fields,
        # as a dataclass is; any other tuple is a list.
        class Row(NamedTuple):
            x: Fraction
            n: int

        text = render_json({"rows": [Row(Fraction(1, 2), 3)], "pair": (1, 2)})
        assert json.loads(text) == {"rows": [{"x": "1/2", "n": "3"}], "pair": ["1", "2"]}


def test_sparse_path_never_imports_numpy(tmp_path):
    """numpy loads only for the dense fold: analyze of an int and a
    rational set and a 4-fold energy that the planner sends to mitm
    leave it unimported."""
    script = textwrap.dedent(
        """
        import sys
        from sumsetlab.cli import run

        rat = "composed:f=poly:0,1/3,1/7,inner=rsc:n=32,s=2,seed=1,gap=8"
        commands = [
            ["--out", "int.set", "gen", "rsc:n=72,s=2,seed=1,gap=8"],
            ["--out", "rat.set", "gen", rat],
            ["--out", "an.json", "analyze", "--set", "int.set", "--set", "rat.set"],
            ["--out", "t4.json", "energy", "--k", "4",
             "--family", "rsc:n=38,s=3,seed=1,gap=64"],
        ]
        for argv in commands:
            assert run(argv) == 0, argv
        print("numpy" in sys.modules)
        """
    )
    src = os.path.dirname(os.path.dirname(sumsetlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    assert (tmp_path / "an.json").read_text().count('"N"') == 2


def test_docs_name_every_subcommand():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    names = list(sub.choices)
    listed = re.search(r"^Commands: (.*?)\.\s", cli.__doc__, re.M | re.S).group(1)
    assert [name.strip() for name in listed.split(",")] == names
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    shown = {
        line.split()[1] for line in block.splitlines() if line.startswith("sumsetlab ")
    }
    assert shown == set(names)


def test_no_command_prints_help(capsys):
    code, out, _ = _run(capsys)
    assert code == 2
    assert "usage:" in out


# The CLI fuzz below draws, per option, how many times it is given (a
# required one mostly once, --family and --set up to twice, any other
# mostly not at all) and each value from its usual values three times in
# four, else from its odd ones.  Inputs are small, so an argv that parses
# runs in milliseconds, and a huge --k or --s comes with a --mem far
# below its copies or with more copies than a list can hold.
_OFTEN, _SELDOM = [1, 1, 1, 0], [0, 0, 1]
_ODD_INTS = ["0", "-1", "-7", "x", "", "1.5", "0x10"]
_FUZZ_OPTIONS = {
    "--mem": (_SELDOM, ["1000000", str(10**40)], ["0", "-5", "x", "", "1e6", "1000"]),
    "--algo": (_SELDOM, ["auto", "naive", "mitm", "dense"], ["fft"]),
    "--format": (_SELDOM, ["json", "csv"], ["xml"]),
    "--out": (_SELDOM, ["-"], ["no-such-directory/report.json"]),
    "--seed": (_SELDOM, ["0", "7", str(2**70)], ["x", "1.5"]),
    "--timings": (_SELDOM, None, None),
    "--family": (
        [1, 1, 1, 2, 0],
        ["interval:n=6", "ap:n=5,base=-2", "power:n=6,m=2", "rsc:n=8,s=1,seed=0,gap=2",
         "composed:f=poly:0,1/2,inner=interval:n=5"],
        ["composed:f=root:2,inner=ap:n=5,base=-2", "power:m=2", "nosuch:n=3", "interval:n=-1",
         "interval:n=0", "interval:n=x", "interval:n=3,n=4", "", ":"],
    ),
    "--set": ([0, 0, 0, 0, 1, 2], [], ["no-such-file.set", str(README)]),
    "--k": (_SELDOM, ["1", "2", "3"], _ODD_INTS),
    "--s": (_SELDOM, ["1", "2"], [*_ODD_INTS, "63", "70", "20000", str(10**6)]),
    "--r": (_OFTEN, ["1", "2", "4"], [*_ODD_INTS, str(10**30)]),
    "--c": (_SELDOM, ["1", "2"], [*_ODD_INTS, str(10**30)]),
    "--signs": (_SELDOM, ["+-", "++-", "+"], ["-+", "", "+x", "+" * 9, "--", "+ -"]),
    "--pattern": (_SELDOM, ["++-", "+-"], ["", "+x", "-+", "+" * 9]),
    "--g": (_SELDOM, ["pow:2", "poly:0,1/2"], ["root:2", "poly:0,0,1", "bogus:1", ""]),
    "--bound": (_OFTEN, list(BOUND_IDS), ["nosuch", ""]),
    "--grid": (_OFTEN, ["4,8", "6"], ["", "a", "4,,8", "-4", "0", "3.5", "8,4"]),
    "--elements": (_SELDOM, None, None),
}
_GLOBAL = ["--mem", "--algo", "--format", "--out", "--seed", "--timings"]
_SUBCOMMANDS = {
    "gen": [],
    "analyze": ["--family", "--set"],
    "energy": ["--family", "--set", "--k", "--signs"],
    "spectrum": ["--family", "--set", "--k", "--signs"],
    "sumset": ["--family", "--set", "--k", "--signs", "--elements"],
    "doubling": ["--family", "--set", "--pattern"],
    "lucky": ["--family", "--set", "--k", "--r", "--c", "--g"],
    "fit": [],
    "verify": ["--bound", "--family", "--grid", "--s", "--k", "--signs"],
}
_POINTS = ["8:512", "16:4096", "32:32768", "x:1", "8", "0:0", "-1:5", "8:512:1"]


@st.composite
def _odd_argv(draw):
    """An argv of one subcommand and the global flags, each global flag
    before or after the subcommand."""

    def value(flag):
        _, usual, odd = _FUZZ_OPTIONS[flag]
        pool = draw(st.sampled_from([usual, usual, usual, odd])) if usual else odd
        return draw(st.sampled_from(pool))

    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    before, after = [], []
    for flag in _GLOBAL + _SUBCOMMANDS[command]:
        for _ in range(draw(st.sampled_from(_FUZZ_OPTIONS[flag][0]))):
            place = before if flag in _GLOBAL and draw(st.booleans()) else after
            place += [flag, value(flag)] if _FUZZ_OPTIONS[flag][2] else [flag]
    if command == "gen":
        after.append(value("--family"))
    if command == "fit":
        odd = st.lists(st.sampled_from(_POINTS), max_size=4)
        after += draw(st.sampled_from([_POINTS[:3], _POINTS[:3], draw(odd)]))
    if "--k" in _SUBCOMMANDS[command] and not draw(st.integers(0, 5)):
        # Given last, these win over any --k and --mem above: copies far
        # past --mem, or past sys.maxsize under a --mem they would fit.
        k, mem = draw(st.sampled_from(
            [(10**12, 1000), (10**12, 100000), (2**70, 10**30), (2**80, 10**30)]
        ))
        after += ["--k", str(k), "--mem", str(mem)]
    return before + [command] + after


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=_odd_argv())
def test_cli_fuzz_exits_cleanly(argv):
    # Every argv, however odd, exits 0, 1 or 2 without a traceback, and an
    # exit 2 prints one error line and nothing else on stderr.
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("SUMSETLAB_MEM", raising=False)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
