"""A seeded sweep of malformed input files through every subcommand.

Each corpus file goes through all 15 subcommand forms that read an input,
in process.  Whatever the file, a command exits 0, 1, 2, 3 or 64; a
failure prints exactly one ``error:`` line and no traceback; a success
prints a JSON report.  Every distribution command refuses, with exit 1,
each file that ``validate`` refuses, except a bare ``{"C": ...}`` file
under ``gamma2-corr``, which takes any finite real matrix.
"""

import json

import numpy as np
import pytest

from nonsig.cli import main

FORMS = [["validate"], ["nu"], ["nu-eps", "--epsilon", "0.1"], ["gamma2"],
         ["gamma2-eps", "--epsilon", "0.1"], ["bell"], ["bell", "--bound-class", "npa-level-1"],
         ["nu-corr"], ["gamma2-corr"], ["xor-bias"], ["decompose"], ["gap-check"],
         ["smp-classical", "--delta", "0.2", "--trials", "50", "--replays", "2"],
         ["smp-quantum", "--delta", "0.2", "--trials", "50", "--pool-size", "20",
          "--replays", "2"],
         ["smp-boolean", "--delta", "0.2", "--trials", "50", "--replays", "2"]]


def _corpus() -> dict:
    """Malformed (and a few degenerate but valid) input objects, by name.

    Numbers come from a seeded generator, so the sweep is the same on every
    run.  ``json.dumps`` writes a NaN as the token ``NaN``, which the CLI's
    parser reads."""
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
    }


CORPUS = _corpus()


def _run(capsys, argv):
    code = main(argv)  # an exception escaping main fails the test
    out, err = capsys.readouterr()
    return code, out, err


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
        assert code in (0, 1, 2, 3, 64), (argv, code)
        if code == 0:
            json.loads(out)
        else:
            assert [line.startswith("error:") for line in err.splitlines()].count(True) == 1, \
                (argv, err)
            assert "Traceback" not in err, (argv, err)
        if refused and form[0] != "xor-bias" and not (bare_C and form[0] == "gamma2-corr"):
            assert code == 1, (argv, code, err)
