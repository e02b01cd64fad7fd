"""Golden ``--json`` reports: the CLI output must stay byte-identical.

Only LP-backed and combinatorial commands are pinned; SDP and Monte-Carlo
reports may differ in their last digits between BLAS or numpy versions,
and SDP reports also between OpenBLAS thread counts on one machine.
The LP reports must not depend on what earlier solves left in the LP
caches of ``nonsig.bounds`` (each alphabet's data map, each sign shape's
arrays) either: each is checked on cleared caches and again on warm
ones.  The inputs live in ``tests/golden/inputs`` and each expected
report in ``tests/golden/<case>.json``.  After an intended output
change, rewrite the expected reports with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from nonsig import bounds
from nonsig.cli import main
from nonsig.core import LocalVertex, best_local_response, distribution_from_json

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


def test_lp_reports_do_not_depend_on_the_cache(capsys, monkeypatch):
    # Each LP case runs on cleared LP caches, then again on what the first
    # run cached.  A cached build makes the vertex matrix of its alphabet
    # or sign shape, so the warm run makes none, except for the eps LP,
    # which builds its own vertex matrix on every call and caches nothing.
    # Every array the cache holds is read-only.
    builds, maps, triples = [], [], []
    for name in ("vertex_table_matrix", "_sign_vertex_matrix"):
        make = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *a, make=make: builds.append(a) or make(*a))
    new_map, build_sign = bounds._DataMap, bounds._build_sign
    monkeypatch.setattr(bounds, "_DataMap", lambda alph: maps.append(new_map(alph)) or maps[-1])
    monkeypatch.setattr(bounds, "_build_sign",
                        lambda nx, ny: triples.append(build_sign(nx, ny)) or triples[-1])
    for case in LP_CASES:
        bounds._data_map.cache_clear()
        build_sign.cache_clear()
        counts = []
        for state in ("cold", "warm"):
            before = len(builds)
            assert main(_argv(case)) == 0
            assert capsys.readouterr().out == (GOLDEN / f"{case}.json").read_text(), (case, state)
            counts.append(len(builds) - before)
        assert counts == ([1, 1] if CASES[case][0] == "nu-eps" else [1, 0]), case
    assert len(maps) == 3  # the PR box twice (nu, bell), 3x3x3x3
    assert all({"twin", "metric", "span"} <= vars(cg).keys() for cg in maps)  # all built
    assert len({id(t) for t in triples}) == 2  # the two sign shapes
    arrays = [arr for cg in maps for arr in (cg.twin, cg.metric, cg.span)]
    arrays += [arr for triple in triples for arr in triple]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


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
