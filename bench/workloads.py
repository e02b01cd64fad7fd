"""The benchmark's workloads: one round of operations each, built from a seed.

A workload is a closed loop with one client that runs a fixed number of
rounds (see ``Workload.round_s``).  Round ``r`` draws fresh inputs from the
stream ``(seed, r)``, so every round of a run sees new points and the same
seed always gives the same rounds.  ``cli-calls`` is the exception: it repeats
one fixed set of files, so that repeated invocations can be compared byte
for byte.

Each ``Op`` holds a call into the package, looked up through the module
attribute at call time so that the tracer's wrappers apply, and a check
that judges the result independently of the package (see ``checks``).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs as gen
from nonsig import bounds, cli, core, games


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # check(result) raises checks.CheckFailed; it runs after the timed loop.
    check: Callable[[object], None]


@dataclass
class Workload:
    deadline_s: float
    round_ops: Callable[[int], list[Op]]
    warmup: Op
    # Seconds a round took on the reference machine (2 vCPUs, x86-64,
    # Python 3.11, numpy 2.4 on one OpenBLAS thread).  It is fixed, not
    # measured at run time, so that the number of ops, and with it the
    # percentile op_tail_ms reads, is the same for every version of the
    # program.
    round_s: float
    min_rounds: int = 1
    # Stop an op at its deadline with SIGALRM (in-process ops only).
    alarm: bool = True


def _dist(table: np.ndarray):
    return core.ConditionalDistribution(core.Alphabets(*table.shape), table)


# Seed stream of the warm-up op's input, apart from every round's stream.
WARMUP_STREAM = 1 << 30
# A CLI call starts an interpreter (~0.3 s); the 3x3x3x3 nu takes ~1.5 s.
CLI_DEADLINE_S = 10.0


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 63), r])


def _chk():
    # Imported on first use: scipy is the checker's, not the program's, and
    # must stay out of set-up time and peak memory.
    import checks
    return checks


# -- library operations -----------------------------------------------------


def op_nu_tilde(table) -> Op:
    p = _dist(table)
    return Op(f"nu_tilde {_size(table)}", lambda: bounds.nu_tilde(p),
              lambda res: _chk().nu_tilde(table, res))


def op_nu_corr(C) -> Op:
    return Op(f"nu_corr {C.shape[0]}x{C.shape[1]}", lambda: bounds.nu_corr(C),
              lambda res: _chk().nu_corr(C, res))


def ops_gamma2_with_tsirelson(table) -> list[Op]:
    """gamma2_tilde_1 on p, then the level-1 Tsirelson functional of the same p;
    the second is checked against the first's value."""
    p = _dist(table)
    seen = {}

    def check_gamma2(res):
        _chk().gamma2_tilde_1(table, res)
        seen["value"] = res.value

    def check_tsirelson(bell):
        # Local points lie in the level-1 set, so a normalized functional is
        # at most 1 on every vertex, whether or not gamma2_tilde_1 passed.
        _chk().dual_bell_npa(table, bell)
        if "value" in seen:
            _chk().tsirelson_matches(table, bell, seen["value"])

    return [Op(f"gamma2_tilde_1 {_size(table)}", lambda: bounds.gamma2_tilde_1(p),
               check_gamma2),
            Op(f"dual_bell npa-level-1 {_size(table)}",
               lambda: bounds.dual_bell(p, "npa-level-1"), check_tsirelson)]


def op_gamma2_eps(table, eps) -> Op:
    p = _dist(table)
    return Op(f"gamma2_tilde_1_eps {_size(table)} eps={eps}",
              lambda: bounds.gamma2_tilde_1_eps(p, eps),
              lambda res: _chk().gamma2_tilde_1_eps(table, eps, res))


def op_gamma2_corr(C) -> Op:
    return Op(f"gamma2_corr {C.shape[0]}x{C.shape[1]}", lambda: bounds.gamma2_corr(C),
              lambda res: _chk().gamma2_corr(C, res))


def op_quantum_bias(G, mu) -> Op:
    game = games.XorGame(G, mu)
    return Op(f"quantum_bias {G.shape[0]}x{G.shape[1]}", lambda: games.quantum_bias(game),
              lambda res: _chk().quantum_bias(G, mu, res))


def _size(table) -> str:
    return "x".join(str(n) for n in table.shape)


# -- library workloads -------------------------------------------------------


# PR weight of the 3x3x3x3 points of lp-wide.  The weight sets most of a
# point's pivot count; with it fixed, points differ by ~12% in cost, so the
# median and the mean of a run's points move little from seed to seed.
BULK_PR_WEIGHT = 0.35


def _sizes(tiny: bool, full: str, small: str) -> tuple:
    return gen.shape_of(small if tiny else full)


def lp_wide(seed: int, tiny: bool) -> Workload:
    big = _sizes(tiny, "3x3x3x3", "2x2x2x2")
    corr_small, corr_big = (3, 4) if tiny else (5, 6)

    def round_ops(r):
        rng = _rng(seed, r)
        ops = [op_nu_tilde(gen.nonlocal_point(rng, big, BULK_PR_WEIGHT)) for _ in range(6)]
        ops += [op_nu_tilde(gen.point(rng, gen.shape_of(s))) for s in ("2x2x3x3", "3x3x2x2")]
        ops.append(op_nu_corr(gen.sign_matrix(rng, corr_small)))
        ops.append(op_nu_corr(big_corr))
        return ops

    # The 36x8192 LP of a 6x6 nu_corr takes 0.9 to 6 s on random sign
    # matrices, by pivot count alone.  One fixed matrix, the same in every
    # round and for every seed, keeps its cost steady (~1.3 s, 2,011 pivots)
    # so that it is measured within the deadline.
    big_corr = gen.sylvester_block(corr_big)
    warm = op_nu_tilde(gen.point(_rng(seed, WARMUP_STREAM), gen.shape_of("2x2x3x3")))
    return Workload(6.0, round_ops, warm, round_s=7.0)


def sdp_mix(seed: int, tiny: bool) -> Workload:
    big = _sizes(tiny, "3x3x3x3", "2x2x2x2")
    mid = [gen.shape_of(s) for s in (("2x2x2x2",) if tiny else ("2x2x3x3", "3x3x2x2"))]
    corr_sizes = (3, 4) if tiny else (5, 6)

    def round_ops(r):
        rng = _rng(seed, r)
        ops = ops_gamma2_with_tsirelson(gen.nonlocal_point(rng, big, 0.4))
        ops += [ops_gamma2_with_tsirelson(gen.point(rng, shape))[0] for shape in mid]
        for n in corr_sizes:
            ops.append(op_gamma2_corr(gen.sign_matrix(rng, n)))
            ops.append(op_quantum_bias(*gen.xor_game(rng, n)))
        # Eight 2x2x2x2 eps ops hold the median; a fixed PR weight keeps
        # their iteration counts alike.
        ops += [op_gamma2_eps(gen.nonlocal_point(rng, gen.shape_of("2x2x2x2"), 0.4), 0.05)
                for _ in range(8)]
        for shape in mid:
            ops += [op_gamma2_eps(gen.nonlocal_point(rng, shape, 0.4), 0.05) for _ in range(2)]
        # The 3x3x3x3 eps op is refused (a failure) in every round it runs.
        # Run in every other round, it and the rare gamma2_corr 6x6 errors
        # stay fewer than the ten samples beyond op_tail_ms, so the tail reads
        # an eps op that passed rather than the deadline.
        if r % 2 == 0:
            ops.append(op_gamma2_eps(gen.nonlocal_point(rng, big, 0.4), 0.05))
        return ops

    warm_point = gen.point(_rng(seed, WARMUP_STREAM), gen.shape_of("2x2x2x2"))
    warm = ops_gamma2_with_tsirelson(warm_point)[0]
    return Workload(2.0, round_ops, warm, round_s=3.6)


# -- cli-calls -----------------------------------------------------------------


def cli_calls(seed: int, tiny: bool, workdir: Path, runner) -> Workload:
    """The CLI on fixed files: the PR box, the CHSH game, seeded 2x2x3x3 and
    3x3x2x2 points and one 3x3x3x3 point (``nu`` only).

    ``runner(argv)`` returns (exit code, stdout bytes); it is a subprocess
    for the timed run and an in-process ``cli.main`` call for the traced
    run.  Checks compare each report with the library's values for the
    same input and with the first report of the same call.
    """
    rng = _rng(seed, 0)
    files = {"pr": gen.dist_json(core.pr_box().table),
             "p2233": gen.dist_json(gen.point(rng, gen.shape_of("2x2x3x3"))),
             "p3322": gen.dist_json(gen.point(rng, gen.shape_of("3x3x2x2"))),
             "p3333": gen.dist_json(gen.nonlocal_point(
                 rng, gen.shape_of("2x2x3x3" if tiny else "3x3x3x3"), 0.4)),
             "chsh": games.game_to_json(games.chsh_game())}
    paths = {}
    for key, obj in files.items():
        paths[key] = workdir / f"{key}.json"
        paths[key].write_text(json.dumps(obj))

    pr_calls = [["validate"], ["nu"], ["nu-eps", "--epsilon", "0.1"], ["gamma2"],
                ["gamma2-eps", "--epsilon", "0.1"], ["bell"],
                ["bell", "--bound-class", "npa-level-1"], ["gap-check"], ["decompose"],
                ["smp-classical", "--delta", "0.1", "--seed", "0"],
                ["smp-quantum", "--delta", "0.2", "--seed", "0", "--trials", "20000",
                 "--pool-size", "4000"],
                ["smp-boolean", "--delta", "0.05", "--seed", "0"]]
    point_calls = {"p2233": [["nu"], ["nu-eps", "--epsilon", "0.1"], ["gamma2"], ["bell"]],
                   "p3322": [["nu"], ["gamma2-eps", "--epsilon", "0.1"], ["bell"],
                             ["bell", "--bound-class", "npa-level-1"]],
                   "p3333": [["nu"]],
                   "chsh": [["xor-bias"]]}
    calls = [(c[0], str(paths["pr"]), c[1:]) for c in pr_calls]
    for key, cmds in point_calls.items():
        calls += [(c[0], str(paths[key]), c[1:]) for c in cmds]
    argvs = [[cmd, path, *rest, "--json"] for cmd, path, rest in calls]
    argvs.append(["basis", "--nx", "2", "--ny", "2", "--json"])

    first_output: dict[int, bytes] = {}
    expected: dict[int, dict] = {}

    def make_op(i, argv):
        def check(out):
            code, stdout = out
            c = _chk()
            c.require(code == 0, f"exit code {code}")
            c.require(first_output.setdefault(i, stdout) == stdout,
                      "output differs from an earlier identical invocation")
            if i not in expected:
                expected[i] = _library_values(argv)
            _compare(json.loads(stdout), expected[i])
        return Op("cli " + " ".join(a for a in argv if not a.endswith(".json")),
                  lambda: runner(argv), check)

    ops = [make_op(i, argv) for i, argv in enumerate(argvs)]
    warm = Op("cli validate warm-up", lambda: runner(argvs[0]), lambda out: None)
    return Workload(CLI_DEADLINE_S, lambda r: ops, warm, round_s=8.5, min_rounds=2)


def _compare(report: dict, expected: dict) -> None:
    c = _chk()
    for name, want in expected.items():
        got = report
        for part in name.split("."):
            got = got[part]
        if isinstance(want, float):
            # --json rounds floats to 12 significant digits.
            c.require(abs(got - want) <= 1e-10 * (1.0 + abs(want)), f"{name}: {got} != {want}")
        else:
            c.require(got == want, f"{name}: {got!r} != {want!r}")


def _library_values(argv: list[str]) -> dict:
    """What the library computes for the input of a CLI call, by report key."""
    cmd = argv[0]
    if cmd == "basis":
        nx, ny = int(argv[2]), int(argv[4])
        return {"full_rank": True, "count": nx * ny + nx + ny}
    path = argv[1]
    opts = dict(zip(argv[2::2], argv[3::2]))
    if cmd == "xor-bias":
        game = games.game_from_json(json.loads(Path(path).read_text()))
        return {"classical_bias": games.classical_bias(game)["bias"],
                "quantum_bias": games.quantum_bias(game)["bias"]}
    dist = core.load_distribution(path)
    if cmd == "validate":
        return {"normalized": True, "nonnegative": True, "non_signaling": True}
    if cmd == "nu":
        return {"value": bounds.nu_tilde(dist).value}
    if cmd == "nu-eps":
        return {"value": bounds.nu_tilde_eps(dist, float(opts["--epsilon"])).value}
    if cmd == "gamma2":
        return {"value": bounds.gamma2_tilde_1(dist).value}
    if cmd == "gamma2-eps":
        return {"value": bounds.gamma2_tilde_1_eps(dist, float(opts["--epsilon"])).value}
    if cmd == "bell":
        bell = bounds.dual_bell(dist, opts.get("--bound-class", "local"))
        return {"value": bell.value(dist)}
    if cmd == "gap-check":
        return {"nu": bounds.nu_tilde(dist).value, "gamma2_1": bounds.gamma2_tilde_1(dist).value}
    if cmd == "decompose":
        model = bounds.quantum_to_local_decomposition(dist)
        return {"components": len(model.components), "mass": model.mass}
    if cmd.startswith("smp-"):
        values = {"plan.lam": bounds.nu_tilde(dist).value}
        if cmd != "smp-boolean":
            values["within_budget"] = True
        return values
    raise ValueError(f"no expected values for {cmd}")


BUILDERS = {"lp-wide": lp_wide, "sdp-mix": sdp_mix}


def run_cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    """cli.main(argv) with its output captured, for the traced run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode()

