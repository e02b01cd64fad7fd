"""A seeded sweep of malformed input files through every subcommand.

Each corpus file goes through all 15 subcommand forms that read an input,
in process.  Whatever the file, a command exits 0, 1, 2, 3 or 64; a
failure prints exactly one ``error:`` line and no traceback; a success
prints a JSON report, and so does ``validate`` when it refuses a table
with exit 1.  Every distribution command refuses, with exit 1, each file
that ``validate`` refuses, except a bare ``{"C": ...}`` file under
``gamma2-corr``, which takes any finite real matrix.  Bad option values
and bad ``NONSIG_VERTEX_CAP`` values go through the same forms on the PR
box.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from nonsig import bounds
from nonsig.cli import COMMANDS, main
from nonsig.core import distribution_to_json, pr_box

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
FORMS = [["validate"], ["nu"], ["nu-eps", "--epsilon", "0.1"], ["gamma2"],
         ["gamma2-eps", "--epsilon", "0.1"], ["bell"], ["bell", "--bound-class", "npa-level-1"],
         ["nu-corr"], ["gamma2-corr"], ["xor-bias"], ["decompose"], ["gap-check"],
         ["smp-classical", "--delta", "0.2", "--trials", "50", "--replays", "2"],
         ["smp-quantum", "--delta", "0.2", "--trials", "50", "--pool-size", "20",
          "--replays", "2"],
         ["smp-boolean", "--delta", "0.2", "--trials", "50", "--replays", "2"]]


def _pr_box_with(changes: dict) -> dict:
    """The PR box's JSON with the cells (x, y, a, b) in ``changes`` set."""
    obj = distribution_to_json(pr_box())
    for (x, y, a, b), value in changes.items():
        obj["p"][x][y][a][b] = value
    return obj


def _corpus() -> dict:
    """Malformed (and a few degenerate but valid) input objects, by name.

    Numbers come from a seeded generator, so the sweep is the same on every
    run.  ``json.dumps`` writes a NaN as the token ``NaN``, and an infinity
    as ``Infinity``, which the CLI's parser reads."""
    rng = np.random.default_rng(2008)
    p = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2).tolist()
    C = np.sign(rng.normal(size=(2, 2))) * rng.uniform(0.2, 0.9, size=(2, 2))
    dist = {"nx": 2, "ny": 2, "na": 2, "nb": 2}
    G, mu = [[1, 1], [1, -1]], [[0.25, 0.25], [0.25, 0.25]]
    return {
        "p-ragged": {**dist, "p": [p[0], p[1][:1]]},
        "p-string": {**dist, "p": "uniform"},
        "alphabet-string": {**dist, "nx": "2", "p": p},
        "alphabet-float": {**dist, "na": 2.5, "p": p},
        "C-string": {"C": "chsh"},
        "C-nested": {"C": [C.tolist()]},
        "C-ragged": {"C": [C[0].tolist(), C[1, :1].tolist()]},
        "C-nan": {"C": np.where(np.eye(2, dtype=bool), np.nan, C).tolist()},
        "C-above-one": {"C": (C / np.abs(C).min()).tolist()},
        "marginals-wrong-length": {"C": C.tolist(), "MA": [0.0, 0.0, 0.0]},
        "marginals-string": {"C": C.tolist(), "MB": "zero"},
        "marginals-infeasible": {"C": C.tolist(), "MA": [1.0, 1.0], "MB": [1.0, -1.0]},
        "list": [p],
        "null": None,
        "game-missing-G": {"mu": mu},
        "game-nan": {"G": [[1, 1], [1, np.nan]], "mu": mu},
        "game-ragged": {"G": [G[0], G[1][:1]], "mu": mu},
        "game-empty": {"G": [], "mu": []},
        "game-3d": {"G": [G], "mu": [mu]},
        "outcomes-1": {"nx": 2, "ny": 2, "na": 1, "nb": 1, "p": np.ones((2, 2, 1, 1)).tolist()},
        "inputs-1": {"nx": 1, "ny": 1, "na": 2, "nb": 2, "p": [p[0][:1]]},
        "p-nan": _pr_box_with({(0, 1, 0, 0): np.nan}),
        "p-inf": _pr_box_with({(1, 0, 1, 1): np.inf}),
        "p-negative": _pr_box_with({(0, 0, 0, 0): 0.6, (0, 0, 0, 1): -0.1}),
        # Moving mass between Bob's outcomes under one Alice input signals
        # half of it: 5e-7 above TOL_FEAS = 1e-9, 5e-10 within it.
        "signaling": _pr_box_with({(0, 0, 0, 0): 0.5 - 1e-6, (0, 0, 0, 1): 1e-6}),
        "signaling-at-tolerance": _pr_box_with({(0, 0, 0, 0): 0.5 - 1e-9, (0, 0, 0, 1): 1e-9}),
        **{name: json.loads((INPUTS / f"{name}.json").read_text())
           for name in ("pr_box_at_tolerance", "over_sdp_cap", "over_vertex_cap")},
    }


CORPUS = _corpus()


def _run(capsys, argv):
    code = main(argv)  # an exception escaping main fails the test
    out, err = capsys.readouterr()
    return code, out, err


def _assert_clean(argv, code, out, err):
    assert code in (0, 1, 2, 3, 64), (argv, code)
    if code == 0 or (argv[0] == "validate" and code == 1 and not err):
        json.loads(out)
    else:
        assert [line.startswith("error:") for line in err.splitlines()].count(True) == 1, \
            (argv, err)
        assert "Traceback" not in err, (argv, err)


def test_forms_cover_every_input_command():
    # A new subcommand that reads a file must join the sweep.
    assert {form[0] for form in FORMS} == {
        name for name, command in COMMANDS.items() if command.reader is not None}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_command_refuses_cleanly(capsys, tmp_path, name):
    obj = CORPUS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    refused = _run(capsys, ["validate", str(path)])[0] != 0
    bare_C = isinstance(obj, dict) and set(obj) == {"C"}
    for form in FORMS:
        argv = [form[0], str(path), *form[1:], "--json"]
        code, out, err = _run(capsys, argv)
        _assert_clean(argv, code, out, err)
        if refused and form[0] != "xor-bias" and not (bare_C and form[0] == "gamma2-corr"):
            assert code == 1, (argv, code, err)


@pytest.mark.parametrize("command, items", [("nu", "local"), ("nu-corr", "sign"),
                                            ("nu-eps", "local")])
def test_alphabet_over_vertex_cap_is_exit_2(capsys, command, items):
    # The uniform 1x20x2x2 table has 2^21 = 2,097,152 local vertices and as
    # many sign vertices, just over the default cap.
    form = next(form for form in FORMS if form[0] == command)
    code, out, err = _run(capsys, [command, str(INPUTS / "over_vertex_cap.json"), *form[1:],
                                   "--json"])
    assert (code, out) == (2, "")
    assert err == f"error: enumeration would produce 2097152 {items} vertices (cap 2000000)\n"


def test_moment_program_past_the_vertex_cap(capsys):
    # The same point's moment program builds no vertex table, so the
    # vertex cap does not apply to it: two 22 x 22 blocks.
    code, out, err = _run(capsys, ["gamma2", str(INPUTS / "over_vertex_cap.json"), "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-6)


BAD_OPTIONS = [*(("--epsilon", v) for v in ("nan", "-0.1", "1")),
               *(("--delta", v) for v in ("0", "nan")),
               *((flag, "0") for flag in ("--trials", "--replays", "--pool-size")),
               ("--seed", "-1"), ("--bound-class", "bogus")]


@pytest.mark.parametrize("flag, value", BAD_OPTIONS)
def test_bad_option_values_are_refused(capsys, monkeypatch, flag, value):
    # Each form whose command takes the option, on the PR box, with the
    # bad value given last (the parser keeps the last one).  The error line
    # names the value: "got <value>" as parsed (1 reads 1.0), or the
    # parser's quoted choice.  No form solves an LP first: an SMP command
    # refuses each value before the nu_tilde LP that gives its mass.
    forms = [form for form in FORMS if flag in dict(COMMANDS[form[0]].options)]
    assert forms
    solves = []
    monkeypatch.setattr(bounds, "nu_tilde", lambda p: solves.append(p))
    for form in forms:
        argv = [form[0], str(INPUTS / "pr_box.json"), *form[1:], flag, value, "--json"]
        code, out, err = _run(capsys, argv)
        assert code in (1, 64), (argv, code)
        _assert_clean(argv, code, out, err)
        line = next(line for line in err.splitlines() if line.startswith("error:"))
        assert re.search(rf"(got |'){re.escape(value)}", line), (argv, line)
    assert solves == []


@pytest.mark.parametrize("cap, codes", [("", (0, 0, 0)), ("0", (2, 2, 2)), (" 5", (2, 0, 2)),
                                        ("abc", (1, 1, 1)), ("1e3", (1, 1, 1))])
def test_vertex_cap_values(capsys, monkeypatch, tmp_path, cap, codes):
    # On the PR box nu and smp-quantum enumerate 16 local vertices, and
    # xor-bias on CHSH enumerates 2^2 classical strategies.  An empty value is the
    # default cap, " 5" is 5, and a value that is not a nonnegative
    # integer is refused by name.
    monkeypatch.setenv("NONSIG_VERTEX_CAP", cap)
    game = tmp_path / "chsh_game.json"
    game.write_text(json.dumps({"G": [[1, 1], [1, -1]], "mu": [[0.25, 0.25], [0.25, 0.25]]}))
    pr = str(INPUTS / "pr_box.json")
    smp_quantum = next(form for form in FORMS if form[0] == "smp-quantum")
    for argv, expected in zip([["nu", pr], ["xor-bias", str(game)],
                               [smp_quantum[0], pr, *smp_quantum[1:]]], codes):
        code, out, err = _run(capsys, [*argv, "--json"])
        assert code == expected, (argv, code, err)
        _assert_clean(argv, code, out, err)
        if code == 1:
            assert "NONSIG_VERTEX_CAP" in err
