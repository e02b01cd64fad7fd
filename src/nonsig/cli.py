"""Command-line interface: one subcommand per library operation.

``COMMANDS`` declares each subcommand once: its help text, the reader
that turns the input file's JSON into the command's input, its options
and its handler.  The parser is built from it, and every call reads its
file once, parses it with the reader and reports what the handler returns.

Exit codes: 0 success, 1 invalid input distribution, 2 resource-cap
refusal, 3 solver non-convergence or numerical breakdown, 64 usage
errors; ``_EXIT_CODES`` maps each error to its code.  Every report embeds
the tool version and the SHA-256 digest of the input file; --json output
serializes floats with 12 significant digits so identical invocations
are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, bounds, games, simulate
from .core import (
    TOL_FEAS,
    ResourceLimitError,
    affine_basis,
    check_vertex_cap,
    distribution_from_json,
    to_correlation_rep,
    validate,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE = 2
EXIT_SOLVER = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _round_floats(obj):
    """Recursively round floats to 12 significant digits for stable JSON."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.floating, np.integer, np.bool_)):
        return _round_floats(obj.tolist())  # the Python list or scalar
    return obj


def _render_table(d, indent=0, lines=None):
    lines = [] if lines is None else lines
    pad = "  " * indent
    for k, v in d.items():
        if isinstance(v, dict):
            lines.append(f"{pad}{k}:")
            _render_table(v, indent + 1, lines)
        elif isinstance(v, (list, tuple)) and len(str(v)) > 72:
            lines.append(f"{pad}{k}: <{len(v)} entries>")
        elif isinstance(v, float):
            lines.append(f"{pad}{k}: {v:.12g}")
        else:
            lines.append(f"{pad}{k}: {v}")
    return lines


def _emit(args, payload: dict, digest: str | None) -> None:
    report = {"tool": "nonsig", "version": __version__,
              "command": args.command, "input_digest": digest}
    report.update(payload)
    report = _round_floats(report)
    text = (json.dumps(report) if args.json
            else "\n".join(_render_table(report)))
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _load_correlations(obj) -> np.ndarray:
    """Correlation matrix from a bare {"C": ...} object or a binary
    distribution; a "C" with marginals is a distribution and must validate.
    A validated distribution's C is exact only to ``TOL_FEAS``, so it is
    clipped to [-1, 1]."""
    if isinstance(obj, dict) and "C" in obj and obj.keys().isdisjoint(("p", "MA", "MB")):
        return np.atleast_2d(np.asarray(obj["C"], dtype=float))
    dist = distribution_from_json(obj)
    bounds._require_valid(dist)  # the refusal every bound command prints
    return np.clip(to_correlation_rep(dist).C, -1.0, 1.0)


class Command(NamedTuple):
    """One subcommand.  ``reader`` turns the input file's JSON into the
    handler's input (None: the command reads no file), and ``options`` are
    (flag, ``add_argument`` keywords) pairs.  ``handler(args, input)``
    returns the report's payload, ``validate``'s also its exit code.
    Handlers look library functions up through their modules (``validate``
    through this one) at call time, so wrappers installed there see every
    call."""

    help: str
    reader: Callable | None
    options: tuple
    handler: Callable


def _validate(args, p):
    report = validate(p)
    return {"normalized": report.normalized, "nonnegative": report.nonnegative,
            "non_signaling": report.non_signaling,
            "max_violations": {"normalization": report.max_normalization_violation,
                               "nonnegativity": report.max_negativity,
                               "non_signaling": report.max_ns_violation},
            }, (EXIT_OK if report.ok else EXIT_INVALID)


def _bell(args, p):
    bell = bounds.dual_bell(p, args.bound_class)
    return {"bound_class": bell.claimed_bound_class, "value": bell.value(p),
            "normalization": bell.normalization, "coeffs": bell.coeffs.tolist()}


def _xor_bias(args, game):
    cb = games.classical_bias(game)
    qb = games.quantum_bias(game)
    return {"classical_bias": cb["bias"],
            "classical_strategy": {"u": cb["u"].tolist(), "v": cb["v"].tolist()},
            "quantum_bias": qb["bias"],
            "classical_win_probability": 0.5 * (1.0 + cb["bias"]),
            "quantum_win_probability": 0.5 * (1.0 + qb["bias"])}


def _decompose(args, p):
    model = bounds.quantum_to_local_decomposition(p)
    return {"components": len(model.components), "mass": model.mass,
            "weight_sum": model.weight_sum,
            "reconstruction_residual": model.residual(bounds.extended_table(p)),
            "weights": [w for w, _ in model.components]}


def _smp(args, p):
    # Every refusal that does not need the model's mass comes before its LP,
    # in the order the LP, the plan and the run give them.
    bounds._require_valid(p)
    check_vertex_cap(p.alphabets.vertex_count, "local vertices")
    if args.command == "smp-boolean":
        C = to_correlation_rep(p).C
        if not np.all(np.abs(np.abs(C) - 1.0) <= TOL_FEAS):
            raise bounds.InvalidDistributionError(
                "smp-boolean needs a Boolean-function distribution (C = +-1)"
            )
    simulate.check_options(args.command.removeprefix("smp-"), args.delta, args.epsilon,
                           args.trials, getattr(args, "pool_size", None), args.seed,
                           args.replays)
    nu = bounds.nu_tilde(p)  # the local affine model of least mass
    model, mass = nu.primal_certificate, nu.value
    kwargs = {} if args.replays is None else {"replays": args.replays}
    if args.command == "smp-boolean":
        plan = simulate.boolean_plan(mass, args.delta, args.epsilon, T=args.trials)
        res = simulate.run_smp_boolean(np.sign(C), model, plan, args.seed, **kwargs)
        return {"plan": {"T": plan.T, "lam": mass, "delta": args.delta},
                "max_error_rate": res["max_error_rate"],
                "error_rate": res["error_rate"].tolist(), "seed": args.seed}
    if args.command == "smp-classical":
        plan = simulate.classical_plan(mass, args.delta, p.alphabets, args.epsilon,
                                       T=args.trials)
        out = simulate.run_smp_classical(model, p, plan, args.seed, **kwargs)
    else:
        plan = simulate.quantum_plan(mass, args.delta, p.alphabets, args.epsilon,
                                     T=args.trials, L=args.pool_size)
        out = simulate.run_smp_quantum_sim(model, p, plan, args.seed, **kwargs)
    return {"plan": {"T": plan.T, "beta": plan.beta, "lam": mass,
                     "delta": plan.delta, "L": plan.L},
            "empirical_distance": out.distance,
            "within_budget": out.distance <= plan.epsilon + plan.delta,
            "seed": args.seed,
            "extras": {k: v for k, v in out.extras.items()
                       if isinstance(v, (int, float, bool, str))}}


def _basis(args, _):
    basis = affine_basis(args.nx, args.ny)
    rank = int(np.linalg.matrix_rank(np.array([b.coords() for b in basis]), tol=1e-9))
    return {"nx": args.nx, "ny": args.ny, "count": len(basis),
            "expected": args.nx * args.ny + args.nx + args.ny,
            "rank": rank, "full_rank": rank == len(basis)}


_EPSILON = (("--epsilon", {"type": float, "required": True}),)
_SMP = (("--delta", {"type": float, "required": True}),
        ("--epsilon", {"type": float, "default": 0.0}),
        ("--seed", {"type": int, "default": 0}),
        ("--trials", {"type": int, "default": None,
                      "help": "override the planned sample count T"}),
        ("--replays", {"type": int, "default": None}))
_dist = distribution_from_json

# Every subcommand, in the order ``--help`` lists them.
COMMANDS = {
    "validate": Command("check normalization / nonnegativity / non-signaling", _dist, (),
                        _validate),
    "nu": Command("nu_tilde: minimal L1 mass over local affine models", _dist, (),
                  lambda args, p: bounds.bound_report(bounds.nu_tilde(p))),
    "nu-eps": Command("epsilon-smoothed nu_tilde", _dist, _EPSILON,
                      lambda args, p: bounds.bound_report(bounds.nu_tilde_eps(p, args.epsilon))),
    "gamma2": Command("level-1 relaxation of gamma2_tilde", _dist, (),
                      lambda args, p: bounds.bound_report(bounds.gamma2_tilde_1(p))),
    "gamma2-eps": Command(
        "epsilon-smoothed gamma2_tilde level-1", _dist, _EPSILON,
        lambda args, p: bounds.bound_report(bounds.gamma2_tilde_1_eps(p, args.epsilon))),
    "bell": Command("optimal dual Bell/Tsirelson functional", _dist,
                    (("--bound-class", {"choices": ["local", "npa-level-1"],
                                        "default": "local"}),), _bell),
    "nu-corr": Command("nu on correlation space (sign-matrix LP)", _load_correlations, (),
                       lambda args, C: bounds.bound_report(bounds.nu_corr(C))),
    "gamma2-corr": Command("gamma2 factorization norm of the correlation matrix",
                           _load_correlations, (),
                           lambda args, C: bounds.bound_report(bounds.gamma2_corr(C))),
    "xor-bias": Command("classical and quantum biases of an XOR game",
                        games.game_from_json, (), _xor_bias),
    "decompose": Command("dummy-outcome decomposition into binary blocks", _dist, (),
                         _decompose),
    "gap-check": Command("nu_tilde vs Grothendieck-multiple of gamma2 level 1", _dist, (),
                         lambda args, p: bounds.gap_check(p)),
    "smp-classical": Command("run the classical SMP protocol", _dist, _SMP, _smp),
    "smp-quantum": Command(
        "run the quantum SMP protocol", _dist,
        _SMP + (("--pool-size", {"type": int, "default": None,
                                 "help": "override the shared-randomness pool size L"}),),
        _smp),
    "smp-boolean": Command("run the boolean SMP protocol", _dist, _SMP, _smp),
    "basis": Command("affine basis of binary non-signaling space", None,
                     (("--nx", {"type": int, "required": True}),
                      ("--ny", {"type": int, "required": True})), _basis),
}


def build_parser() -> _Parser:
    p = _Parser(prog="nonsig", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        if command.reader is not None:
            sp.add_argument("input", help="path to the input JSON file")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--output", default=None, help="write the report to a file")
        for flag, kwargs in command.options:
            sp.add_argument(flag, **kwargs)
    return p


def _dispatch(args) -> int:
    command, parsed, digest = COMMANDS[args.command], None, None
    if command.reader:
        with open(args.input, "rb") as f:
            data = f.read()
        digest = hashlib.sha256(data).hexdigest()
        parsed = command.reader(json.loads(data.decode()))
    out = command.handler(args, parsed)
    payload, code = out if isinstance(out, tuple) else (out, EXIT_OK)
    _emit(args, payload, digest)
    return code


# The exit code of each error an operation may raise; the first match wins.
# LinAlgError subclasses ValueError but is an engine breakdown, not bad
# input, and ResourceLimitError subclasses RuntimeError.
_EXIT_CODES = ((np.linalg.LinAlgError, EXIT_SOLVER), (ValueError, EXIT_INVALID),
               (OSError, EXIT_INVALID), (ResourceLimitError, EXIT_RESOURCE),
               (MemoryError, EXIT_RESOURCE), (RuntimeError, EXIT_SOLVER))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _dispatch(args)
    except tuple(error for error, _ in _EXIT_CODES) as e:
        text = str(e)
        if isinstance(e, MemoryError):
            # numpy names the failed allocation; a bare MemoryError has no text.
            text = f"out of memory: {text}" if text else "out of memory"
        print(f"error: {text}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(e, error))


if __name__ == "__main__":
    sys.exit(main())
