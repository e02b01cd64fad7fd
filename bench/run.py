"""Benchmark of the nonsig library and CLI.

    python3 bench/run.py --workload lp-wide --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``lp-wide``, ``sdp-mix`` and ``cli-calls``.  Each is a closed
loop with one client that runs whole rounds of operations.  The number of
rounds is ``--seconds`` divided by the workload's fixed seconds per round
(``Workload.round_s``), so a faster or slower program runs the same ops.
Every output is checked independently after the loop (``checks.py``).  An
operation passes if it returns within its deadline and its check holds.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over several set-ups (import nonsig, make the
  inputs, one warm-up op); four run in child processes, one in this one.
* ``ops_per_s``: passed ops / wall time of the timed rounds.
* ``op_p50_ms`` and ``op_tail_ms``: median op latency and the highest
  percentile with at least ten samples beyond it.  An op that did not pass
  ranks above every op that did; if one of these ranks lands on such an op
  the metric reads the deadline.
* ``pass_frac``: passed ops / attempted ops.
* ``peak_rss_mb``: peak resident memory of the process that ran the
  operations (of the CLI child processes, for ``cli-calls``).

``--trace 1`` runs half as many rounds (rounded up), each twice, untraced
and with every layer wrapped (``tracing.py``), and prints the per-layer
metrics.  Times are ms per round; counts and sizes are those of round 0,
so they repeat exactly for a seed.

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  ``failed`` counts ops whose output failed its
check, and ``correct`` is true when there are none.  An op that gave no
output (it raised, was refused over a size cap, or missed the deadline)
is not a wrong output, but it does not pass either: it lowers
``pass_frac`` and ``ops_per_s``.  The line before the result, and
``.bench_out/``, hold the details: provenance, the outcome of every op
and, when tracing, the spans.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: every workload is one client on a 2-core machine, and
# BLAS threads fighting the interpreter for the cores made run-to-run
# spread several times wider.  Set before numpy loads; children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
N_SETUP_PROBES = 4
# Start no op after this long, so that a run ends within 180 s however slow
# the program is (the longest deadline is 10 s).
HARD_STOP_S = 100.0
# A refusal is the program declining an input over one of its size caps.
REFUSAL = re.compile(r"\bcap\b")


class DeadlineExceeded(BaseException):
    """Raised into an op at its deadline; not an Exception, so the package
    cannot swallow it."""


@dataclass
class Record:
    op: object
    round: int
    latency_s: float
    status: str  # returned | deadline | refused | error
    result: object = None
    reason: str = ""


# -- child processes -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], timeout: float, workdir: Path):
    """Run one child process to completion; returns (exit code, stdout,
    peak RSS in KiB, wall seconds).  Kills it and raises DeadlineExceeded
    after ``timeout`` seconds."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL and wall >= timeout:
            raise DeadlineExceeded
        out.seek(0)
        return proc.returncode, out.read(), usage.ru_maxrss, wall


# -- set-up and the timed loop --------------------------------------------------


def import_package():
    if not (SRC / "nonsig" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'nonsig'}; run from a source tree")
    sys.path.insert(0, str(SRC))
    import nonsig
    if Path(nonsig.__file__).resolve().parent != (SRC / "nonsig").resolve():
        sys.exit(f"error: imported nonsig from {nonsig.__file__}, not from {SRC}")
    import nonsig.cli  # noqa: F401  (the CLI module is not imported by the package)
    return nonsig


def make_workload(name: str, seed: int, tiny: bool, workdir: Path, in_process_cli: bool,
                  cli_rss: list):
    import workloads
    if name != "cli-calls":
        return workloads.BUILDERS[name](seed, tiny)

    def subprocess_runner(argv):
        code, stdout, rss, _ = run_child([sys.executable, "-m", "nonsig.cli", *argv],
                                         workloads.CLI_DEADLINE_S, workdir)
        cli_rss.append(rss)
        return code, stdout

    runner = workloads.run_cli_in_process if in_process_cli else subprocess_runner
    wl = workloads.cli_calls(seed, tiny, workdir, runner)
    # A child process has its own deadline; an alarm would leave it running.
    wl.alarm = in_process_cli
    return wl


def setup(args, workdir: Path, in_process_cli: bool = False, cli_rss: list | None = None):
    """Import the package, make the inputs of round 0 and run one warm-up op."""
    t0 = time.perf_counter()
    nonsig = import_package()
    wl = make_workload(args.workload, args.seed, args.tiny, workdir, in_process_cli,
                       cli_rss if cli_rss is not None else [])
    first_round = wl.round_ops(0)
    run_op(wl.warmup, -1, wl)
    return nonsig, wl, first_round, time.perf_counter() - t0


def _alarm(signum, frame):
    raise DeadlineExceeded


def run_op(op, rnd: int, wl) -> Record:
    deadline = wl.deadline_s
    if wl.alarm:
        signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = time.perf_counter()
    try:
        result = op.call()
        status, reason = "returned", ""
    except DeadlineExceeded:
        result, status, reason = None, "deadline", f"still running after {deadline} s"
    except Exception as e:  # the op's outcome is recorded, never raised
        result = None
        status = "refused" if REFUSAL.search(str(e)) else "error"
        reason = f"{type(e).__name__}: {e}"
    finally:
        latency = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Record(op, rnd, latency, status, result, reason)


def out_of_time(t_start: float) -> bool:
    return time.perf_counter() - t_start > HARD_STOP_S


def run_pass(ops, rnd: int, wl, t_start: float, tracer=None):
    """Run one round's ops in order, starting none after HARD_STOP_S but the
    first; returns (records, wall seconds)."""
    records = []
    t0 = time.perf_counter()
    for op in ops:
        if records and out_of_time(t_start):
            break
        if tracer is not None:
            tracer.op += 1
        records.append(run_op(op, rnd, wl))
    return records, time.perf_counter() - t0


def n_rounds(wl, seconds: float) -> int:
    return max(wl.min_rounds, round(seconds / wl.round_s))


def run_rounds(wl, first_round, rounds: int, t_start: float):
    """Run rounds 0 .. rounds-1.  Returns (records, wall, rounds run)."""
    records, wall, r = [], 0.0, 0
    while r < rounds and not (r and out_of_time(t_start)):
        recs, dt = run_pass(first_round if r == 0 else wl.round_ops(r), r, wl, t_start)
        records += recs
        wall += dt
        r += 1
    return records, wall, r


def check_records(records) -> None:
    """Run every returned result's independent check, in run order (untimed)."""
    import checks
    for rec in records:
        if rec.status != "returned":
            continue
        try:
            rec.op.check(rec.result)
            rec.status = "passed"
        except checks.CheckFailed as e:
            rec.status, rec.reason = "wrong", str(e)
        rec.result = None


# -- metrics ---------------------------------------------------------------------


def latency_stats(records, deadline_s: float) -> dict:
    """Median and tail latency; ops that did not pass rank above all others."""
    lat = sorted(r.latency_s if r.status == "passed" else float("inf") for r in records)
    n = len(lat)
    # The sample with at least ten samples beyond it, or the largest.
    k = n - 11 if n > 10 else n - 1

    def ms(v):
        return 1e3 * (deadline_s if v == float("inf") else v)

    return {"op_p50_ms": ms(statistics.median(lat)), "op_tail_ms": ms(lat[k]),
            "tail": {"percentile": 100.0 * (k + 1) / n, "samples": n,
                     "samples_beyond": n - 1 - k,
                     "is_failed_op": lat[k] == float("inf")}}


def provenance(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_commit": git_commit(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(np), "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def blas_threads(np) -> int | None:
    """Threads OpenBLAS will use, from the library numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def import_ms(workdir: Path, n: int = 3) -> float:
    """Median wall time of a child process that only imports nonsig."""
    walls = [run_child([sys.executable, "-c", "import nonsig"], 60.0, workdir)[3]
             for _ in range(n)]
    return 1e3 * statistics.median(walls)


# -- modes -------------------------------------------------------------------------


def setup_probe(args, workdir: Path) -> int:
    _, _, _, seconds = setup(args, workdir)
    print(json.dumps({"setup_s": seconds}))
    return 0


def probe_setups(args, workdir: Path) -> list[float]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(N_SETUP_PROBES):
        code, stdout, _, _ = run_child(argv, 120.0, workdir)
        if code != 0:
            sys.exit(f"error: set-up probe exited with {code}")
        times.append(json.loads(stdout.decode().strip().splitlines()[-1])["setup_s"])
    return times


def end_to_end(args, workdir: Path, t_start: float):
    cli_rss: list[int] = []
    _, wl, first_round, own_setup = setup(args, workdir, cli_rss=cli_rss)
    setups = probe_setups(args, workdir) + [own_setup]
    cli_rss.clear()  # the warm-up call is set-up, not the workload
    records, wall, rounds = run_rounds(wl, first_round, n_rounds(wl, args.seconds), t_start)
    peak_kib = max(cli_rss) if args.workload == "cli-calls" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_records(records)
    passed = sum(r.status == "passed" for r in records)
    lat = latency_stats(records, wl.deadline_s)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (passed / wall, "1/s"),
        "op_p50_ms": (lat["op_p50_ms"], "ms"),
        "op_tail_ms": (lat["op_tail_ms"], "ms"),
        "pass_frac": (passed / len(records), "ratio"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    details = {"setup_samples_s": setups, "rounds": rounds,
               "rounds_planned": n_rounds(wl, args.seconds), "timed_wall_s": wall,
               "tail": lat["tail"], "deadline_s": wl.deadline_s}
    return records, metrics, details


def traced(args, workdir: Path, t_start: float):
    from tracing import Tracer, layer_metrics
    nonsig, wl, first_round, _ = setup(args, workdir, in_process_cli=True)
    process_ms, process_records = 0.0, []
    if args.workload == "cli-calls":
        sub = make_workload("cli-calls", args.seed, args.tiny, workdir, False, [])
        process_records, wall, _ = run_rounds(sub, sub.round_ops(0), 1, t_start)
        process_ms = 1e3 * wall / len(process_records)
    # Each round runs twice, untraced and traced, in alternating order so
    # that warm-up effects do not bias the overhead.
    tracer = Tracer(nonsig)
    rounds = max(wl.min_rounds, (n_rounds(wl, args.seconds) + 1) // 2)
    records, wall_plain, wall_traced, k = [], 0.0, 0.0, 0
    while k < rounds and not (k and out_of_time(t_start)):
        ops = first_round if k == 0 else wl.round_ops(k)
        for traced_pass in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced_pass:
                recs, dt = run_pass(ops, k, wl, t_start)
                records += recs
                wall_plain += dt
                continue
            tracer.install()
            try:
                _, dt = run_pass(ops, k, wl, t_start, tracer)
            finally:
                tracer.uninstall()
            wall_traced += dt
        k += 1
    cli_calls = len(records) if args.workload == "cli-calls" else 0
    records = process_records + records
    check_records(records)
    layers = layer_metrics(tracer.spans, tracer.spans_of(range(len(first_round))), k, cli_calls)
    layers["cli.process_ms"] = process_ms
    layers["cli.import_ms"] = import_ms(workdir)
    layers["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    units = {"trace.overhead_frac": "ratio"}
    metrics = {}
    for name, value in layers.items():
        unit = units.get(name, "ms" if name.endswith("_ms") or name.endswith("ms_per_iter")
                         else "count")
        metrics[name] = (value, unit)
    details = {"rounds": k, "untraced_wall_s": wall_plain, "traced_wall_s": wall_traced,
               "spans_file": None}
    return records, metrics, details, tracer.dump()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lp-wide", "sdp-mix", "cli-calls"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    sys.path.insert(0, str(BENCH))
    signal.signal(signal.SIGALRM, _alarm)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        spans = None
        if args.trace:
            records, metrics, details, spans = traced(args, workdir, t_start)
        else:
            records, metrics, details = end_to_end(args, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = sum(r.status == "wrong" for r in records)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        details["spans_file"] = str((OUT / f"{stem}-spans.json").relative_to(ROOT))
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    outcome: dict[str, int] = {}
    for r in records:
        outcome[r.status] = outcome.get(r.status, 0) + 1
    details.update({"provenance": provenance(args), "outcomes": outcome,
                    "not_passed": [{"op": r.op.label, "round": r.round, "status": r.status,
                                    "reason": r.reason}
                                   for r in records if r.status != "passed"][:50]})
    print(json.dumps({"details": details}))
    details["ops"] = [[r.op.label, r.round, round(1e3 * r.latency_s, 3), r.status]
                      for r in records]
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
