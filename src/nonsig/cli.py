"""Command-line interface: one subcommand per library operation.

Exit codes: 0 success, 1 invalid input distribution, 2 resource-cap
refusal, 3 solver non-convergence or numerical breakdown, 64 usage
errors.  Every report embeds the tool version and the SHA-256 digest of
the input file; --json output serializes floats with 12 significant
digits so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__, bounds, games, simulate
from .core import (
    ResourceLimitError,
    affine_basis,
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
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
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
    distribution; a "C" with marginals is a distribution and must validate."""
    if isinstance(obj, dict) and "C" in obj and obj.keys().isdisjoint(("p", "MA", "MB")):
        return np.atleast_2d(np.asarray(obj["C"], dtype=float))
    dist = distribution_from_json(obj)
    bounds._require_valid(dist)  # the refusal every bound command prints
    return to_correlation_rep(dist).C


def build_parser() -> _Parser:
    p = _Parser(prog="nonsig", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, needs_input=True):
        sp = sub.add_parser(name, help=help_)
        if needs_input:
            sp.add_argument("input", help="path to the input JSON file")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--output", default=None, help="write the report to a file")
        return sp

    add("validate", "check normalization / nonnegativity / non-signaling")
    add("nu", "nu_tilde: minimal L1 mass over local affine models")
    sp = add("nu-eps", "epsilon-smoothed nu_tilde")
    sp.add_argument("--epsilon", type=float, required=True)
    add("gamma2", "level-1 relaxation of gamma2_tilde")
    sp = add("gamma2-eps", "epsilon-smoothed gamma2_tilde level-1")
    sp.add_argument("--epsilon", type=float, required=True)
    sp = add("bell", "optimal dual Bell/Tsirelson functional")
    sp.add_argument("--bound-class", choices=["local", "npa-level-1"],
                    default="local")
    add("nu-corr", "nu on correlation space (sign-matrix LP)")
    add("gamma2-corr", "gamma2 factorization norm of the correlation matrix")
    add("xor-bias", "classical and quantum biases of an XOR game")
    add("decompose", "dummy-outcome decomposition into binary blocks")
    add("gap-check", "nu_tilde vs Grothendieck-multiple of gamma2 level 1")

    for name in ("smp-classical", "smp-quantum", "smp-boolean"):
        sp = add(name, f"run the {name.split('-')[1]} SMP protocol")
        sp.add_argument("--delta", type=float, required=True)
        sp.add_argument("--epsilon", type=float, default=0.0)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=None,
                        help="override the planned sample count T")
        sp.add_argument("--replays", type=int, default=None)
        if name == "smp-quantum":
            sp.add_argument("--pool-size", type=int, default=None,
                            help="override the shared-randomness pool size L")

    sp = add("basis", "affine basis of binary non-signaling space", needs_input=False)
    sp.add_argument("--nx", type=int, required=True)
    sp.add_argument("--ny", type=int, required=True)
    return p


def _dispatch(args) -> int:
    obj = digest = None
    if getattr(args, "input", None):
        with open(args.input, "rb") as f:
            data = f.read()
        digest = hashlib.sha256(data).hexdigest()
        obj = json.loads(data.decode())

    if args.command == "validate":
        dist = distribution_from_json(obj)
        report = validate(dist)
        _emit(args, {
            "normalized": report.normalized,
            "nonnegative": report.nonnegative,
            "non_signaling": report.non_signaling,
            "max_violations": {
                "normalization": report.max_normalization_violation,
                "nonnegativity": report.max_negativity,
                "non_signaling": report.max_ns_violation,
            },
        }, digest)
        return EXIT_OK if report.ok else EXIT_INVALID

    if args.command in ("nu", "nu-eps", "gamma2", "gamma2-eps"):
        dist = distribution_from_json(obj)
        if args.command == "nu":
            result = bounds.nu_tilde(dist)
        elif args.command == "nu-eps":
            result = bounds.nu_tilde_eps(dist, args.epsilon)
        elif args.command == "gamma2":
            result = bounds.gamma2_tilde_1(dist)
        else:
            result = bounds.gamma2_tilde_1_eps(dist, args.epsilon)
        _emit(args, bounds.bound_report(result), digest)
        return EXIT_OK

    if args.command == "bell":
        dist = distribution_from_json(obj)
        bell = bounds.dual_bell(dist, args.bound_class)
        _emit(args, {
            "bound_class": bell.claimed_bound_class,
            "value": bell.value(dist),
            "normalization": bell.normalization,
            "coeffs": bell.coeffs.tolist(),
        }, digest)
        return EXIT_OK

    if args.command in ("nu-corr", "gamma2-corr"):
        C = _load_correlations(obj)
        result = bounds.nu_corr(C) if args.command == "nu-corr" else bounds.gamma2_corr(C)
        _emit(args, bounds.bound_report(result), digest)
        return EXIT_OK

    if args.command == "xor-bias":
        game = games.game_from_json(obj)
        cb = games.classical_bias(game)
        qb = games.quantum_bias(game)
        _emit(args, {
            "classical_bias": cb["bias"],
            "classical_strategy": {"u": cb["u"].tolist(), "v": cb["v"].tolist()},
            "quantum_bias": qb["bias"],
            "classical_win_probability": 0.5 * (1.0 + cb["bias"]),
            "quantum_win_probability": 0.5 * (1.0 + qb["bias"]),
        }, digest)
        return EXIT_OK

    if args.command == "decompose":
        dist = distribution_from_json(obj)
        model = bounds.quantum_to_local_decomposition(dist)
        resid = model.residual(bounds.extended_table(dist))
        _emit(args, {
            "components": len(model.components),
            "mass": model.mass,
            "weight_sum": model.weight_sum,
            "reconstruction_residual": resid,
            "weights": [w for w, _ in model.components],
        }, digest)
        return EXIT_OK

    if args.command == "gap-check":
        dist = distribution_from_json(obj)
        _emit(args, bounds.gap_check(dist), digest)
        return EXIT_OK

    if args.command in ("smp-classical", "smp-quantum", "smp-boolean"):
        dist = distribution_from_json(obj)
        nu = bounds.nu_tilde(dist)  # the local affine model of least mass
        model, mass = nu.primal_certificate, nu.value
        kwargs = {} if args.replays is None else {"replays": args.replays}
        if args.command == "smp-boolean":
            C = to_correlation_rep(dist).C
            if not np.all(np.abs(C) == 1.0):
                raise bounds.InvalidDistributionError(
                    "smp-boolean needs a Boolean-function distribution (C = +-1)"
                )
            plan = simulate.boolean_plan(mass, args.delta, args.epsilon,
                                         T=args.trials)
            res = simulate.run_smp_boolean(C, model, plan, args.seed, **kwargs)
            _emit(args, {
                "plan": {"T": plan.T, "lam": mass, "delta": args.delta},
                "max_error_rate": res["max_error_rate"],
                "error_rate": res["error_rate"].tolist(),
                "seed": args.seed,
            }, digest)
            return EXIT_OK
        if args.command == "smp-classical":
            plan = simulate.classical_plan(mass, args.delta, dist.alphabets,
                                           args.epsilon, T=args.trials)
            runner = simulate.run_smp_classical
        else:
            plan = simulate.quantum_plan(mass, args.delta, dist.alphabets,
                                         args.epsilon, T=args.trials,
                                         L=args.pool_size)
            runner = simulate.run_smp_quantum_sim
        out = runner(model, dist, plan, args.seed, **kwargs)
        _emit(args, {
            "plan": {"T": plan.T, "beta": plan.beta, "lam": mass,
                     "delta": plan.delta, "L": plan.L},
            "empirical_distance": out.distance,
            "within_budget": out.distance <= plan.epsilon + plan.delta,
            "seed": args.seed,
            "extras": {k: v for k, v in out.extras.items()
                       if isinstance(v, (int, float, bool, str))},
        }, digest)
        return EXIT_OK

    if args.command == "basis":
        basis = affine_basis(args.nx, args.ny)
        coords = np.array([b.coords() for b in basis])
        rank = int(np.linalg.matrix_rank(coords, tol=1e-9))
        _emit(args, {
            "nx": args.nx, "ny": args.ny,
            "count": len(basis),
            "expected": args.nx * args.ny + args.nx + args.ny,
            "rank": rank,
            "full_rank": rank == len(basis),
        }, digest)
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _dispatch(args)
    except np.linalg.LinAlgError as e:
        # A subclass of ValueError, but an engine breakdown, not bad input.
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as e:
        # numpy names the failed allocation; a bare MemoryError has no text.
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory",
              file=sys.stderr)
        return EXIT_RESOURCE
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
