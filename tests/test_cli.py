"""CLI behavior: round-trips, exit codes, formats, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import sumsetlab
from sumsetlab import (
    InputError,
    VerificationError,
    cli,
    engine,
    gen_random_s_convex,
    read_set,
)
from sumsetlab.cli import run
from sumsetlab.reporting import file_digest


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            (["--algo", "dense", "energy", "--family",
              "composed:f=poly:0,1/2,inner=interval:n=4"],
             "dense mode requires integer-valued sets"),
        ],
        ids=["budget", "dense_rational"],
    )
    def test_one_set_is_planned_like_several(self, capsys, argv, message):
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    def test_doubling(self, capsys):
        code, out, _ = _run(
            capsys, "doubling", "--pattern", "++-", "--family", "interval:n=10"
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["size"] == "28"
        assert report["K"] == "14/5"

    def test_doubling_budget_exceeded_exits_2(self, capsys):
        code, out, err = _run(
            capsys, "--mem", "1000", "doubling", "--pattern", "++-",
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
            assert report["E3_diff"] == str(engine.moment(sets, 3, signs="+-"))

    @pytest.mark.parametrize("squares", [8, 28])
    def test_energy_outside_universal_bounds(self, capsys, monkeypatch, squares):
        # E of a 3-element set lies in [3**2, 3**3] = [9, 27].
        monkeypatch.setattr(engine, "mass_of_squares", lambda rep: squares)
        A = sumsetlab.gen_interval(3)
        with pytest.raises(VerificationError, match="outside the universal bounds"):
            engine.energy_T([A, A])
        code, out, err = _run(capsys, "analyze", "--family", "interval:n=3")
        assert (code, out) == (2, "")
        assert err == (
            f"error: energy {squares} outside the universal bounds [3**2, 3**3]\n"
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
              "composed:f=poly:0,1/2,inner=interval", "--grid", "4,8,16"],
             "dense mode requires integer-valued sets"),
            (["--algo", "dense", "verify", "--bound", "eq13_tail", "--family",
              "composed:f=poly:0,1/2,inner=interval", "--grid", "4,8"],
             "dense mode requires integer-valued sets"),
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
    def test_honours_algo(self, capsys, argv, message):
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("algo", ["naive", "mitm", "dense"])
    def test_explicit_algo_gives_the_auto_report(self, capsys, algo):
        argv = ("verify", "--bound", "T3", "--family", "power:m=2",
                "--grid", "8,12,16")
        tail = ("verify", "--bound", "eq13_tail", "--family", "power:m=2",
                "--grid", "8,12")
        for command in (argv, tail):
            want = _run(capsys, *command)
            assert _run(capsys, "--algo", algo, *command) == want

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
        ],
        ids=["KG_s_k", "KG_k", "T_main_k", "IKRT_s", "tail_signs", "tail_s",
             "tail_k"],
    )
    def test_parameter_the_bound_does_not_read_exits_2(self, capsys, argv, message):
        code, out, err = _run(
            capsys, "verify", *argv, "--family", "power:m=2", "--grid", "8,16,32"
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

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
        ],
        ids=["k_not_int", "lucky_without_r", "unknown_flag", "grid_negative"],
    )
    def test_usage_errors_fit_on_one_line(self, capsys, argv, message):
        assert _run(capsys, *argv) == (2, "", f"error: {message}\n")

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
        ],
        ids=["report_missing_dir", "report_directory", "gen_missing_dir",
             "gen_directory"],
    )
    def test_unwritable_out_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(engine, "representation", no_work)
        monkeypatch.setattr(cli, "parse_family", no_work)
        code, out, err = _run(capsys, *argv(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert not (tmp_path / "no").exists()

    def test_failed_command_leaves_out_untouched(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text("previous report\n")
        code, _, _ = _run(
            capsys, "--out", str(path), "energy", "--family", "nosuch:n=3"
        )
        assert code == 2
        assert path.read_text() == "previous report\n"

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


def test_no_command_prints_help(capsys):
    code, out, _ = _run(capsys)
    assert code == 2
    assert "usage:" in out
