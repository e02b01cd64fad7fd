"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nonsig import __version__, bounds, lp
from nonsig.cli import _round_floats, main
from nonsig.core import distribution_to_json, dump_distribution, pr_box, uniform_distribution, Alphabets

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "tests" / "golden" / "inputs"


@pytest.fixture
def signs_6x6_file(tmp_path):
    # This 6x6 sign matrix drives the SDP engine to a rank-deficient
    # optimum where the Cholesky of its iterate fails.
    path = tmp_path / "c6.json"
    path.write_text(json.dumps({"C": [
        [-1, -1, 1, 1, 1, -1], [-1, 1, -1, -1, -1, 1], [-1, 1, -1, 1, 1, 1],
        [-1, -1, 1, 1, 1, 1], [-1, 1, 1, -1, -1, -1], [1, -1, -1, 1, 1, 1]]}))
    return str(path)


@pytest.fixture
def pr_file(tmp_path):
    path = tmp_path / "pr.json"
    dump_distribution(pr_box(), path)
    return str(path)


@pytest.fixture
def signaling_file(tmp_path):
    obj = distribution_to_json(pr_box())
    obj["p"][0][0][0][0] = 1.0  # break normalization/non-signaling
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_refused_lean(capsys, argv, cap="(cap 512 MiB)"):
    """argv exits 2 with one error line naming the cap (the SDP cap unless
    given), and a tracemalloc peak under 1 MB."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert cap in captured.err
    assert peak < 1e6


class TestEnvelope:
    def test_report_metadata(self, capsys, pr_file):
        code, report = run_json(capsys, ["nu", pr_file])
        assert code == 0
        assert report["tool"] == "nonsig"
        assert report["version"] == __version__
        assert report["command"] == "nu"
        assert len(report["input_digest"]) == 64

    def test_byte_identical_repeats(self, capsys, pr_file):
        main(["gamma2", pr_file, "--json"])
        first = capsys.readouterr().out
        main(["gamma2", pr_file, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_output_file(self, tmp_path, pr_file):
        out = tmp_path / "report.json"
        code = main(["nu", pr_file, "--json", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["value"] == pytest.approx(2.0, abs=1e-6)

    def test_human_readable_default(self, capsys, pr_file):
        code = main(["nu", pr_file])
        text = capsys.readouterr().out
        assert code == 0
        assert "value: 2" in text


class TestBoundCommands:
    def test_nu(self, capsys, pr_file):
        code, report = run_json(capsys, ["nu", pr_file])
        assert code == 0
        assert report["quantity"] == "nu_tilde"
        assert report["value"] == pytest.approx(2.0, abs=1e-6)
        assert report["bits"]["r_pub"] == 0.0

    def test_nu_eps(self, capsys, pr_file):
        code, report = run_json(capsys, ["nu-eps", pr_file, "--epsilon", "0.1"])
        assert code == 0
        assert report["value"] == pytest.approx(1.6, abs=1e-6)
        assert report["epsilon"] == 0.1

    def test_gamma2(self, capsys, pr_file):
        code, report = run_json(capsys, ["gamma2", pr_file])
        assert code == 0
        assert report["value"] == pytest.approx(np.sqrt(2), abs=1e-4)
        assert report["dual_certificate"]["class"] == "npa-level-1"
        assert report["diagnostics"]["status"] == "optimal"

    def test_gamma2_eps(self, capsys, pr_file):
        code, report = run_json(capsys, ["gamma2-eps", pr_file,
                                         "--epsilon", "0.14644661"])
        assert code == 0
        assert report["value"] == pytest.approx(1.0, abs=2e-3)

    def test_bell(self, capsys, pr_file):
        code, report = run_json(capsys, ["bell", pr_file])
        assert code == 0
        assert report["bound_class"] == "local"
        assert report["value"] == pytest.approx(2.0, abs=1e-5)
        assert report["normalization"] <= 1.0 + 1e-6

    def test_corr_commands_on_raw_matrix(self, capsys, tmp_path):
        path = tmp_path / "chsh.json"
        path.write_text(json.dumps({"C": [[1, 1], [1, -1]]}))
        code, report = run_json(capsys, ["nu-corr", str(path)])
        assert code == 0 and report["value"] == pytest.approx(2.0, abs=1e-6)
        code, report = run_json(capsys, ["gamma2-corr", str(path)])
        assert code == 0 and report["value"] == pytest.approx(np.sqrt(2), abs=1e-4)

    def test_validated_table_at_tolerance(self, capsys):
        # p(0,0|0,0) = 0.5000000005: the normalization, 1 + 5e-10, is within
        # TOL_FEAS, so the file validates, and its C(0,0) = 1 + 5e-10 is
        # read as the PR box's 1 by the correlation and Boolean commands.
        path = str(INPUTS / "pr_box_at_tolerance.json")
        assert main(["validate", path]) == 0
        capsys.readouterr()
        code, report = run_json(capsys, ["nu-corr", path])
        assert code == 0 and report["value"] == pytest.approx(2.0, abs=1e-8)
        code, report = run_json(capsys, ["smp-boolean", path, "--delta", "0.05"])
        assert code == 0 and report["max_error_rate"] <= 0.05

    def test_decompose(self, capsys, pr_file):
        code, report = run_json(capsys, ["decompose", pr_file])
        assert code == 0
        assert report["components"] == 7
        assert report["mass"] == pytest.approx(7.0)
        assert report["reconstruction_residual"] <= 1e-10

    def test_gap_check(self, capsys, pr_file):
        code, report = run_json(capsys, ["gap-check", pr_file])
        assert code == 0
        assert report["holds"] and report["uses_relaxation"]


class TestGameAndBasis:
    def test_xor_bias(self, capsys, tmp_path):
        path = tmp_path / "chsh_game.json"
        path.write_text(json.dumps({"G": [[1, 1], [1, -1]],
                                    "mu": [[0.25, 0.25], [0.25, 0.25]]}))
        code, report = run_json(capsys, ["xor-bias", str(path)])
        assert code == 0
        assert report["classical_bias"] == pytest.approx(0.5)
        assert report["quantum_bias"] == pytest.approx(np.sqrt(2) / 2, abs=1e-4)
        assert report["classical_win_probability"] == pytest.approx(0.75)

    def test_basis(self, capsys):
        code, report = run_json(capsys, ["basis", "--nx", "2", "--ny", "2"])
        assert code == 0
        assert report["count"] == 8 and report["rank"] == 8
        assert report["full_rank"]

    @pytest.mark.parametrize("nx, ny, name", [("0", "2", "nx"), ("-1", "2", "nx"),
                                              ("2", "0", "ny")])
    def test_basis_empty_or_negative_party_is_exit_1(self, capsys, nx, ny, name):
        assert main(["basis", "--nx", nx, "--ny", ny, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be >= 1")
        assert captured.err.count("\n") == 1


class TestSmpCommands:
    def test_smp_classical(self, capsys, pr_file):
        code, report = run_json(capsys, [
            "smp-classical", pr_file, "--delta", "0.1", "--seed", "1",
            "--trials", "40000"])
        assert code == 0
        assert report["plan"]["T"] == 40000
        assert report["within_budget"]

    def test_smp_quantum(self, capsys, pr_file):
        code, report = run_json(capsys, [
            "smp-quantum", pr_file, "--delta", "0.2", "--seed", "2",
            "--trials", "20000", "--pool-size", "4000"])
        assert code == 0
        assert report["within_budget"]
        assert report["extras"]["pool_ok"]

    def test_smp_boolean(self, capsys, pr_file):
        code, report = run_json(capsys, [
            "smp-boolean", pr_file, "--delta", "0.05", "--seed", "3"])
        assert code == 0
        assert report["max_error_rate"] <= 0.05

    @pytest.mark.parametrize("argv, bad", [
        (["smp-classical", "--delta", "0"], "0.0"),
        (["smp-boolean", "--delta", "0"], "0.0"),
        (["smp-boolean", "--delta", "0.1", "--trials", "0"], "got 0"),
        (["smp-classical", "--delta", "-0.1"], "-0.1"),
        (["smp-quantum", "--delta", "2"], "2.0"),
        (["smp-quantum", "--delta", "0.2", "--trials", "100", "--pool-size", "0"], "got 0"),
        (["smp-classical", "--delta", "0.1", "--replays", "0"], "got 0"),
        (["smp-boolean", "--delta", "0.1", "--replays", "-3"], "got -3"),
        (["smp-classical", "--delta", "0.1", "--epsilon", "nan"], "got nan"),
        (["smp-quantum", "--delta", "0.2", "--epsilon", "-1"], "got -1.0"),
    ])
    def test_bad_plan_input_is_exit_1(self, capsys, pr_file, argv, bad):
        assert main([argv[0], pr_file, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert bad in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["smp-quantum", "--delta", "0.001"],                    # T > 2^63 - 1
        ["smp-classical", "--delta", "1e-9"],                   # T > 2^63 - 1
        ["smp-quantum", "--delta", "1e-6", "--trials", "10"],   # L over the vertex cap
    ])
    def test_unsamplable_plan_is_exit_2(self, capsys, pr_file, argv):
        assert main([argv[0], pr_file, *argv[1:], "--json"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "cap" in err and "Traceback" not in err

    def test_replays_passed_through(self, capsys, pr_file):
        code, report = run_json(capsys, [
            "smp-classical", pr_file, "--delta", "0.1", "--trials", "100", "--replays", "7"])
        assert code == 0
        assert report["extras"]["replays"] == 7

    def test_smp_boolean_rejects_non_sign_input(self, capsys, monkeypatch, tmp_path):
        # A binary point that is no Boolean function, and a point with
        # three outcomes, are refused before the nu_tilde LP runs.
        path = tmp_path / "uniform.json"
        dump_distribution(uniform_distribution(Alphabets(2, 2, 2, 2)), path)
        solves = []
        monkeypatch.setattr(bounds, "nu_tilde", lambda p: solves.append(p))
        assert main(["smp-boolean", str(path), "--delta", "0.1"]) == 1
        assert "Boolean-function distribution" in capsys.readouterr().err
        assert main(["smp-boolean", str(INPUTS / "nonlocal_2233.json"), "--delta", "0.1"]) == 1
        assert "binary outcomes" in capsys.readouterr().err
        assert solves == []


class TestExitCodes:
    def test_validate_ok(self, capsys, pr_file):
        code, report = run_json(capsys, ["validate", pr_file])
        assert code == 0
        assert report["non_signaling"]

    def test_validate_failure_is_exit_1(self, capsys, signaling_file):
        code, report = run_json(capsys, ["validate", signaling_file])
        assert code == 1
        assert not (report["normalized"] and report["non_signaling"])

    def test_invalid_input_to_bound_is_exit_1(self, signaling_file):
        assert main(["nu", signaling_file]) == 1

    @pytest.mark.parametrize("marginals", [
        {"MA": [0, 0, 0]}, {"MA": "a"}, {"MA": [1, 1], "MB": [1, -1]}],
        ids=["wrong-length", "string", "infeasible"])
    @pytest.mark.parametrize("command", ["nu-corr", "gamma2-corr"])
    def test_correlation_file_with_bad_marginals_is_exit_1(self, capsys, tmp_path, command,
                                                            marginals):
        # A file with marginals is a distribution, refused as `nu` refuses it.
        path = tmp_path / "corr.json"
        path.write_text(json.dumps({"C": [[1, 1], [1, -1]], **marginals}))
        assert main(["nu", str(path)]) == 1
        refusal = capsys.readouterr().err
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == refusal
        assert refusal.startswith("error: ") and refusal.count("\n") == 1

    @pytest.mark.parametrize("argv", [["nu"], ["nu-corr"], ["xor-bias"]])
    def test_input_file_is_read_once(self, monkeypatch, tmp_path, argv):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"G": [[1, 1], [1, -1]], "mu": [[0.25, 0.25], [0.25, 0.25]]}
                                   if argv == ["xor-bias"] else {"C": [[1, 1], [1, -1]]}))
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        assert main([argv[0], str(path)]) == 0
        assert opened.count(str(path)) == 1

    def test_undecodable_file_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"C": [[1]], "name": "\xe9"}')
        assert main(["nu-corr", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_correlation_commands_refuse_like_the_others(self, capsys, signaling_file):
        errors = []
        for command in ("nu", "nu-corr", "gamma2-corr"):
            assert main([command, signaling_file]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: distribution fails validation: ")
        assert errors == [errors[0]] * 3

    @pytest.mark.parametrize("command", [
        ["validate"], ["nu"], ["nu-eps", "--epsilon", "0.1"], ["gamma2"],
        ["gamma2-eps", "--epsilon", "0.1"], ["bell"], ["decompose"], ["gap-check"],
        ["smp-classical", "--delta", "0.1"], ["nu-corr"]])
    def test_boolean_alphabet_size_is_exit_1(self, capsys, command):
        assert main([command[0], str(INPUTS / "bool_alphabet.json"), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: nx must be a positive integer, got True\n"

    def test_missing_file_is_exit_1(self):
        assert main(["nu", "/nonexistent/path.json"]) == 1

    @pytest.mark.parametrize("command", ["nu", "validate"])
    def test_empty_input_path_is_read_like_any_other(self, capsys, command):
        # "" is a path that names no file, not a missing argument.
        assert main([command, ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"

    @pytest.mark.parametrize("where", ["input", "output"])
    def test_directory_path_is_exit_1(self, capsys, tmp_path, pr_file, where):
        argv = (["nu", str(tmp_path)] if where == "input"
                else ["validate", pr_file, "--output", str(tmp_path)])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_malformed_json_is_exit_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["nu", str(path)]) == 1

    def test_resource_cap_is_exit_2(self, monkeypatch, pr_file):
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "4")
        assert main(["nu", pr_file]) == 2

    def test_nu_over_vertex_cap_is_refused_before_any_array(self, capsys, monkeypatch):
        # 2^21 local vertices: the map's cap check refuses them before the
        # single-party factors, or anything else of the alphabet, are built.
        monkeypatch.delenv("NONSIG_VERTEX_CAP", raising=False)
        assert_refused_lean(capsys, ["nu", str(INPUTS / "over_vertex_cap.json")],
                            "2097152 local vertices (cap 2000000)")

    def test_bell_over_vertex_cap_is_exit_2(self, monkeypatch, pr_file):
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "4")
        assert main(["bell", pr_file]) == 2

    def test_warm_nu_eps_over_vertex_cap_is_exit_2(self, capsys, monkeypatch, pr_file):
        # A first call under the default cap leaves nothing that lets the
        # second skip the lower one: nu-eps makes its vertex tables after
        # the cap on every call.
        monkeypatch.delenv("NONSIG_VERTEX_CAP", raising=False)
        argv = ["nu-eps", pr_file, "--epsilon", "0.1"]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "4")
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "error: enumeration would produce 16 local vertices (cap 4)\n"

    @pytest.mark.parametrize("setting", ["2e6", "-5", "many"])
    def test_malformed_vertex_cap_is_exit_1_and_named(self, capsys, monkeypatch, pr_file,
                                                      setting):
        monkeypatch.setenv("NONSIG_VERTEX_CAP", setting)
        assert main(["nu", pr_file]) == 1
        err = capsys.readouterr().err
        assert "NONSIG_VERTEX_CAP" in err and repr(setting) in err

    def test_nu_corr_over_vertex_cap_is_exit_2(self, monkeypatch, tmp_path):
        # A 3x3 matrix has 2^6 = 64 sign vertices.
        path = tmp_path / "c3.json"
        path.write_text(json.dumps({"C": [[1, 1, 1], [1, -1, 1], [1, 1, -1]]}))
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "32")
        assert main(["nu-corr", str(path)]) == 2

    @pytest.mark.parametrize("C", [[], [[]]], ids=["empty-list", "empty-row"])
    @pytest.mark.parametrize("command", ["nu-corr", "gamma2-corr"])
    def test_empty_correlation_matrix_is_exit_1(self, capsys, tmp_path, command, C):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"C": C}))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("message", ["", "Unable to allocate 177. MiB for an array"],
                             ids=["bare", "numpy"])
    def test_memory_error_is_exit_2(self, capsys, monkeypatch, pr_file, message):
        def exhausted(p):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr("nonsig.bounds.nu_tilde", exhausted)
        assert main(["nu", pr_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_sdp_over_dimension_cap_is_exit_2(self, capsys):
        # The moment blocks of over_sdp_cap.json are 101 x 101: a solve could
        # need 11 GiB, over the 512 MiB cap.  Every moment command is refused
        # before the program's arrays are built.
        path = str(INPUTS / "over_sdp_cap.json")
        for argv in (["gamma2"], ["gamma2-eps", "--epsilon", "0.1"],
                     ["bell", "--bound-class", "npa-level-1"]):
            assert_refused_lean(capsys, [argv[0], path, *argv[1:]])

    def test_gamma2_corr_over_sdp_cap_is_exit_2(self, capsys, tmp_path):
        # A 50 x 50 matrix's Gram block is 100 x 100: a solve could need 2.7 GiB.
        path = tmp_path / "c50.json"
        C = np.random.default_rng(50).choice([-1, 1], (50, 50))
        path.write_text(json.dumps({"C": C.tolist()}))
        assert_refused_lean(capsys, ["gamma2-corr", str(path)])

    def test_3333_gamma2_eps_is_exit_0(self, capsys, tmp_path):
        # Two 13 x 13 moment blocks and a linear block of 3 * 81 + 9: at
        # most 12 MiB, under the cap.  The uniform point is local.
        path = tmp_path / "u3333.json"
        dump_distribution(uniform_distribution(Alphabets(3, 3, 3, 3)), path)
        code, report = run_json(capsys, ["gamma2-eps", str(path), "--epsilon", "0.1"])
        assert code == 0 and report["value"] >= 1.0

    def test_forced_lp_breakdown_is_exit_3(self, monkeypatch, pr_file):
        def broken(self):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("nonsig.lp._Simplex.refactor", broken)
        assert main(["nu", pr_file]) == 3

    @pytest.mark.parametrize("argv, name", [
        (["nu", "nonlocal_3333.json"], "nu_tilde"),
        (["nu-eps", "nonlocal_2233.json", "--epsilon", "0.05"], "nu_tilde_eps")])
    def test_pivot_limit_is_exit_3(self, capsys, monkeypatch, argv, name):
        # One pivot per simplex phase: nu's crash-started phase 2 and
        # nu-eps's phase 1 each stop at the limit and report it.
        iterate = lp._Simplex.iterate
        monkeypatch.setattr(lp._Simplex, "iterate", lambda sx, c, max_iter: iterate(sx, c, 1))
        assert main([str(INPUTS / a) if a.endswith(".json") else a for a in argv]) == 3
        assert capsys.readouterr().err == f"error: {name} LP returned iteration-limit\n"

    def test_gamma2_corr_near_breakdown_is_exit_0(self, capsys, signs_6x6_file):
        code, report = run_json(capsys, ["gamma2-corr", signs_6x6_file])
        assert code == 0
        assert report["value"] > 1.0

    def test_forced_sdp_breakdown_is_exit_3(self, monkeypatch, signs_6x6_file):
        def broken(X, dX):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr("nonsig.sdp._max_step", broken)
        assert main(["gamma2-corr", signs_6x6_file]) == 3

    def test_raw_linalg_error_is_exit_3(self, monkeypatch, signs_6x6_file):
        # LinAlgError subclasses ValueError; it must not read as bad input.
        def broken(C):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("nonsig.bounds.gamma2_corr", broken)
        assert main(["gamma2-corr", signs_6x6_file]) == 3

    def test_unknown_command_is_exit_64(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_unknown_flag_is_exit_64(self, pr_file):
        assert main(["nu", pr_file, "--frobnicate"]) == 64

    def test_missing_required_flag_is_exit_64(self, pr_file):
        assert main(["nu-eps", pr_file]) == 64


def test_module_entry_point():
    # python -m nonsig.cli runs main and exits with its code.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "nonsig.cli", "validate",
                           "tests/golden/inputs/pr_box.json", "--json"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / "validate.json").read_text()


def test_round_floats_turns_numpy_values_into_python_values():
    out = _round_floats({"x": np.float64(1 / 3), "n": np.int64(3), "ok": np.bool_(True),
                         "a": np.array([[2 / 3, 1.0]])})
    assert out == {"x": 0.333333333333, "n": 3, "ok": True, "a": [[0.666666666667, 1.0]]}
    assert [type(out[k]) for k in ("x", "n", "ok")] == [float, int, bool]
    assert type(out["a"][0][0]) is float
