"""Smoke test of the benchmark itself, on tiny inputs.

    python3 bench/smoke.py

For every workload: one untraced and two traced ``--tiny`` runs.  Checks
that each run reports correct outputs and every metric BENCHMARK.json
names, with its unit, and that the iteration counts of the LP and SDP
engines repeat exactly between the two traced runs.  Exits 1 on failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("lp.calls", "lp.iterations", "sdp.calls", "sdp.iterations")


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        runs = {0: [run(wl, 0)], 1: [run(wl, 1), run(wl, 1)]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for res in runs[trace]:
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    problems.append(f"{wl} trace {trace}: metrics {got} != {want}")
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"{wl} trace {trace}: {res['attempted']} attempted, "
                                    f"{res['failed']} failed, correct={res['correct']}")
        first, second = (r["metrics"] for r in runs[1])
        for name in EXACT:
            if first[name]["value"] != second[name]["value"]:
                problems.append(f"{wl}: {name} {first[name]['value']} then "
                                f"{second[name]['value']}")
        print(f"{wl}: ok" if not problems else f"{wl}: {problems}", flush=True)
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
