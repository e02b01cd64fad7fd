"""The package needs numpy alone: importing it and its CLI, and running both
engines, never loads scipy (only the tests and the benchmark's checks use it)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
import nonsig
import nonsig.cli
from nonsig.bounds import gamma2_tilde_1, nu_tilde
from nonsig.core import pr_box
print(nu_tilde(pr_box()).value, gamma2_tilde_1(pr_box()).value)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_engines_do_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    values, loaded = proc.stdout.splitlines()
    assert [round(float(v), 6) for v in values.split()] == [2.0, 1.414214]
    assert loaded == "[]"
