"""Golden ``--json`` reports: the CLI output must stay byte-identical.

Only LP-backed and combinatorial commands are pinned; SDP and Monte-Carlo
reports may differ in their last digits between BLAS or numpy versions,
and SDP reports also between OpenBLAS thread counts on one machine.
The LP reports must not depend on what earlier solves left in the LP
structure caches of ``nonsig.bounds`` either: each is checked on cleared
caches and again on warm ones.  The inputs live in ``tests/golden/inputs``
and each expected report in ``tests/golden/<case>.json``.  After an
intended output change, rewrite the expected reports with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import sys
from pathlib import Path

import pytest

from nonsig import bounds
from nonsig.cli import main

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
    "basis": ["basis", "--nx", "2", "--ny", "3"],
}


def _argv(case):
    return [str(INPUTS / a) if a.endswith(".json") else a for a in CASES[case]] + ["--json"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_report_is_golden(capsys, case):
    assert main(_argv(case)) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{case}.json").read_text()


LP_CASES = ["nu", "nu-eps", "bell", "nu-corr-chsh", "nu-corr-sylvester6"]


def test_lp_reports_do_not_depend_on_the_cache(capsys, monkeypatch):
    # Each LP case runs on cleared LP caches, then again on what the first
    # run cached; every array the first run cached must be read-only.
    built = []
    make = bounds._l1_structure
    monkeypatch.setattr(bounds, "_l1_structure", lambda S, **extra: built.append(make(S, **extra))
                        or built[-1])
    for case in LP_CASES:
        bounds._build_local.cache_clear()
        bounds._build_sign.cache_clear()
        for state in ("cold", "warm"):
            before = len(built)
            assert main(_argv(case)) == 0
            assert capsys.readouterr().out == (GOLDEN / f"{case}.json").read_text(), (case, state)
        assert len(built) == before, case  # the warm run built nothing
    assert len(built) == 4  # the PR box twice (nu, bell), two sign shapes
    for structure in built:
        arrays = [structure.S, *(v for v in vars(structure).values() if v is not None)]
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
