"""Golden ``--json`` reports: the CLI output must stay byte-identical.

Only LP-backed and combinatorial commands are pinned; SDP and Monte-Carlo
reports may differ in their last digits between BLAS or numpy versions,
and SDP reports also between OpenBLAS thread counts on one machine.
The LP reports must not depend on what earlier solves left in the one
cache of ``nonsig.bounds``, each alphabet's data map (a sign shape's arrays
and Gram programs on its binary alphabet's) either: each is checked on a
cleared cache and again on a warm one, and so are the SDP reports (moment
and Gram programs), against each other.  The inputs live in
``tests/golden/inputs`` and each expected report in
``tests/golden/<case>.json``.  After an intended output change, rewrite
the expected reports with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from nonsig import bounds, sdp
from nonsig.cli import main
from nonsig.core import Alphabets, LocalVertex, best_local_response, distribution_from_json

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = {
    "validate": ["validate", "pr_box.json"],
    "nu": ["nu", "pr_box.json"],
    "nu-eps": ["nu-eps", "pr_box.json", "--epsilon", "0.1"],
    "bell": ["bell", "pr_box.json"],
    "decompose": ["decompose", "pr_box.json"],
    "nu-corr-chsh": ["nu-corr", "chsh.json"],
    "nu-corr-sylvester6": ["nu-corr", "sylvester6.json"],
    "nu-3333": ["nu", "nonlocal_3333.json"],
    "nu-eps-2233": ["nu-eps", "nonlocal_2233.json", "--epsilon", "0.05"],
    "basis": ["basis", "--nx", "2", "--ny", "3"],
}


def _argv(case):
    return [str(INPUTS / a) if a.endswith(".json") else a for a in CASES[case]] + ["--json"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_report_is_golden(capsys, case):
    assert main(_argv(case)) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{case}.json").read_text()


LP_CASES = ["nu", "nu-eps", "bell", "nu-corr-chsh", "nu-corr-sylvester6", "nu-3333",
            "nu-eps-2233"]


@pytest.mark.parametrize("case", ["nu", "bell", "nu-corr-chsh", "nu-corr-sylvester6", "nu-3333"])
def test_lp_certificates_hold_without_the_solver(case):
    # What an exact LP report certifies, checked from the golden file and
    # the input alone: the primal components rebuild the input and their
    # mass is the value; the Bell functional B has |B(v)| <= 1 on every
    # local deterministic vertex v (by exact enumeration) and B(p) is the
    # value.  A correlation matrix is read as the distribution with those
    # correlations and unbiased marginals.
    report = json.loads((GOLDEN / f"{case}.json").read_text())
    p = distribution_from_json(json.loads((INPUTS / CASES[case][1]).read_text()))
    value = report["value"]
    primal = report.get("primal_certificate")
    if primal is not None:
        comps = primal["components"]
        rebuilt = sum(c["weight"] * LocalVertex(p.alphabets, tuple(c["lambda_a"]),
                                                tuple(c["lambda_b"])).table() for c in comps)
        assert np.abs(rebuilt - p.table).max() <= 1e-9
        assert sum(abs(c["weight"]) for c in comps) == pytest.approx(value, abs=1e-9)
        assert primal["mass"] == pytest.approx(value, abs=1e-9)
    B = np.array(report["dual_certificate"]["coeffs"] if "dual_certificate" in report
                 else report["coeffs"])
    assert best_local_response(B)[0] <= 1.0 + 1e-9
    assert best_local_response(-B)[0] <= 1.0 + 1e-9
    assert float((B * p.table).sum()) == pytest.approx(value, abs=1e-9)


def _cached_arrays(obj) -> dict:
    """The arrays an object holds, by attribute name; a tuple of arrays
    (``factors``, ``signs``) counts as one entry."""
    return {k: v for k, v in vars(obj).items() if isinstance(v, np.ndarray)
            or isinstance(v, tuple) and all(isinstance(a, np.ndarray) for a in v)}


def _assert_read_only(arrays):
    for arr in arrays:
        for a in arr if isinstance(arr, tuple) else [arr]:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a  # also refused on an empty array


def test_lp_reports_do_not_depend_on_the_cache(capsys, monkeypatch):
    # Each LP case runs on a cleared cache, then again on what the first
    # run cached.  A sign shape's cold run makes its sign vectors once, and
    # the warm run none; a local alphabet's LP reads its vertex matrix
    # through the two single-party factors, so nu and bell make no vertex
    # matrix at all; nu-eps builds no data map and makes its vertex matrix
    # on every call.  Each data map holds the arrays its LP reads, and
    # every array the cache holds is read-only.
    builds, maps, built = [], [], {}
    for name in ("vertex_table_matrix", "_sign_factors"):
        make = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *a, make=make: builds.append(a) or make(*a))
    new_map = bounds._DataMap
    monkeypatch.setattr(bounds, "_DataMap", lambda alph: maps.append(new_map(alph)) or maps[-1])
    for case in LP_CASES:
        bounds._data_map.cache_clear()
        counts, first = [], len(maps)
        for state in ("cold", "warm"):
            before = len(builds)
            assert main(_argv(case)) == 0
            assert capsys.readouterr().out == (GOLDEN / f"{case}.json").read_text(), (case, state)
            counts.append(len(builds) - before)
        assert counts == ([1, 1] if case.startswith("nu-eps") else
                          [1, 0] if case.startswith("nu-corr") else [0, 0]), case
        built[case] = [sorted(_cached_arrays(cg)) for cg in maps[first:]]
    lp = ["_unit_tables", "factors", "span"]
    assert built == {"nu": [lp], "nu-eps": [], "bell": [lp],
                     "nu-corr-chsh": [["signs"]], "nu-corr-sylvester6": [["signs"]],
                     "nu-3333": [lp], "nu-eps-2233": []}
    _assert_read_only([arr for cg in maps for arr in _cached_arrays(cg).values()])


MOMENT_FORMS = {"gamma2": [], "gamma2-eps": ["--epsilon", "0.1"],
                "bell": ["--bound-class", "npa-level-1"], "gap-check": []}
# Each SDP command, its input, and the data-map entry of its SDP structure.
SDP_CASES = [pytest.param(command, inp, MOMENT_FORMS[command],
                          "moment_eps_sdp" if command == "gamma2-eps" else "moment_sdp",
                          id=f"{command}-{inp}")
             for command in sorted(MOMENT_FORMS) for inp in ["nonlocal_2233.json", "pr_box.json"]]
SDP_CASES += [pytest.param("gamma2-corr", "sylvester6.json", [], "corr_sdp",
                           id="gamma2-corr-sylvester6.json"),
              pytest.param("xor-bias", "chsh.json", [], "bias_sdp", id="xor-bias-chsh.json")]


@pytest.mark.parametrize("command, inp, options, structure", SDP_CASES)
def test_moment_reports_do_not_depend_on_the_cache(capsys, monkeypatch, tmp_path, command, inp,
                                                   options, structure):
    # An SDP report is the same on a cleared and on a warm data map.  The
    # cold run builds its alphabet's data map once, and builds and compiles
    # its SDP structure once; the warm run builds and compiles none, and
    # reads the moment cells the cold run cached.  No run makes a vertex
    # matrix: gap-check's LP reads its vertex matrix through single-party
    # factors.  xor-bias reads the CHSH game: chsh.json's sign matrix on
    # uniform inputs.
    path = INPUTS / inp
    C = json.loads(path.read_text()).get("C")
    if command == "xor-bias":
        path = tmp_path / "chsh_game.json"
        path.write_text(json.dumps({"G": C, "mu": np.full((2, 2), 0.25).tolist()}))
    maps, builds, frozen, compiled = [], [], [], []
    new_map, make = bounds._DataMap, bounds.vertex_table_matrix
    freeze, compile_ = sdp.SdpProgram.freeze, sdp._Compiled
    monkeypatch.setattr(bounds, "_DataMap", lambda alph: maps.append(new_map(alph)) or maps[-1])
    monkeypatch.setattr(bounds, "vertex_table_matrix", lambda a: builds.append(a) or make(a))
    monkeypatch.setattr(sdp.SdpProgram, "freeze", lambda prog: frozen.append(freeze(prog)) or prog)
    monkeypatch.setattr(sdp, "_Compiled", lambda prog: compiled.append(compile_(prog))
                        or compiled[-1])
    bounds._data_map.cache_clear()
    outs, counts, cells = [], [], []
    for state in ("cold", "warm"):
        before = [len(made) for made in (maps, builds, frozen, compiled)]
        assert main([command, str(path), *options, "--json"]) == 0
        outs.append(capsys.readouterr().out)
        counts.append([len(made) - n for made, n in zip((maps, builds, frozen, compiled),
                                                         before)])
        cells.append(vars(maps[0]).get("moment_cells"))
    assert outs[0] == outs[1]
    assert counts == [[1, 0, 1, 1], [0, 0, 0, 0]]
    alph = (Alphabets(*np.shape(C), 2, 2) if C is not None
            else distribution_from_json(json.loads(path.read_text())).alphabets)
    cg = bounds._data_map(alph)
    assert cg is maps[0]
    prog = getattr(cg, structure)
    assert frozen == [prog] and compiled == [prog._compiled]
    cached = [*_cached_arrays(cg).values(), *_cached_arrays(prog).values(),
              *_cached_arrays(prog._compiled).values()]
    assert sorted(_cached_arrays(prog)) == ["b", "c"]
    assert sorted(_cached_arrays(prog._compiled)) == ["A_psd_T", "A_wide", "cols", "lin_at",
                                                      "pair_bin", "pair_t", "pair_val",
                                                      "psd_rows", "rows", "vals"]
    lp = ["_unit_tables", "factors", "span"] if command == "gap-check" else []
    moments = ["moment_cells"] if command in MOMENT_FORMS else []
    assert sorted(_cached_arrays(cg)) == sorted(lp + moments)
    assert cells[0] is cells[1] and (cells[0] is not None) == bool(moments)
    _assert_read_only(cached)


if __name__ == "__main__":
    import contextlib
    import io

    for case in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(_argv(case))
        if code != 0:
            sys.exit(f"{case}: exit {code}")
        (GOLDEN / f"{case}.json").write_text(buf.getvalue())
