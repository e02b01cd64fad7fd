"""Span tracing of the ``nonsig`` layers, from outside the package.

The tracer replaces public functions with timing wrappers at the module
attributes their callers look them up through (``nonsig.bounds.solve_lp``,
``nonsig.games.solve_sdp``, ``nonsig.bounds.vertex_table_matrix`` ...), so
nothing under ``src/`` changes.  Spans (layer, name, start, end, parent,
op id) stay in memory until the run ends.  A layer's self time is its spans'
durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# Public functions wrapped per layer.  Every caller, inside the package or
# out, looks them up through these module attributes at call time.
_BOUNDS_API = ("nu_tilde", "nu_tilde_eps", "gamma2_tilde_1", "gamma2_tilde_1_eps",
               "nu_corr", "gamma2_corr", "nu_corr_alpha", "dual_bell",
               "quantum_to_local_decomposition", "gap_check", "extended_table",
               "scaled_local_reconstruction", "lower_bound_bits", "bound_report")
_GAMES_API = ("classical_bias", "quantum_bias", "game_to_bell", "bell_to_game",
              "equal_bias_value", "epsilon_pub")
_SIMULATE_API = ("run_smp_classical", "run_smp_quantum_sim", "run_smp_boolean")


@dataclass
class Span:
    layer: str
    name: str
    start: float
    op: int
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Installs the wrappers and records spans; ``uninstall`` restores them."""

    def __init__(self, nonsig_pkg):
        self.pkg = nonsig_pkg
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        ns = self.pkg
        targets = [(ns.bounds, "solve_lp", "lp", _lp_info),
                   (ns.games, "solve_lp", "lp", _lp_info),
                   (ns.bounds, "solve_sdp", "sdp", _sdp_info),
                   (ns.games, "solve_sdp", "sdp", _sdp_info),
                   (ns.bounds, "vertex_table_matrix", "core", None),
                   (ns.bounds, "validate", "core", None),
                   (ns.cli, "validate", "core", None),
                   (ns.cli, "main", "cli", None)]
        targets += [(ns.bounds, n, "bounds", None) for n in _BOUNDS_API]
        targets += [(ns.games, n, "games", None) for n in _GAMES_API]
        targets += [(ns.simulate, n, "simulate", None) for n in _SIMULATE_API]
        for mod, attr, layer, info in targets:
            self._wrap(mod, attr, layer, info)
        model_cls = ns.core.AffineModel
        build = model_cls.from_vertex_weights
        self._saved.append((model_cls, "from_vertex_weights",
                            model_cls.__dict__["from_vertex_weights"]))
        model_cls.from_vertex_weights = staticmethod(
            self._wrapper(build, "core", "from_vertex_weights", None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, mod, attr, layer, info) -> None:
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, self._wrapper(original, layer, attr, info))

    def _wrapper(self, fn, layer, name, info):
        def traced(*args, **kwargs):
            span = Span(layer, name, 0.0, self.op, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.seconds
                if info is not None:
                    span.info = info(args, result)
        traced.__wrapped__ = fn
        return traced

    # -- reporting ----------------------------------------------------------

    def spans_of(self, ops: range) -> list[Span]:
        return [s for s in self.spans if s.op in ops]

    def dump(self) -> list[dict]:
        return [{"layer": s.layer, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, **s.info} for s in self.spans]


def _lp_info(args, sol) -> dict:
    prog = args[0]
    return {"rows": prog.n_eq + prog.n_ub, "cols": prog.n_vars,
            "status": getattr(sol, "status", "raised"),
            "iterations": getattr(sol, "iterations", 0)}


def _sdp_info(args, sol) -> dict:
    prog = args[0]
    return {"blocks": len(prog.block_dims), "psd_dim": prog.total_dim,
            "constraints": prog.n_constraints,
            "status": getattr(sol, "status", "raised"),
            "iterations": getattr(sol, "iterations", 0)}


def layer_metrics(all_spans: list[Span], ref_spans: list[Span], rounds: int,
                  cli_calls: int) -> dict[str, float]:
    """Per-layer metrics.

    Times are mean milliseconds per round over ``all_spans`` (the traced
    rounds).  Counts and program sizes come from ``ref_spans`` (round 0),
    so they repeat exactly for a seed.  CLI times are per call.  Time per
    iteration leaves out solves stopped at their deadline, which report no
    iterations.
    """
    def pick(spans, layer, names=None):
        return [s for s in spans if s.layer == layer and (names is None or s.name in names)]

    def ms(spans, self_time=False):
        total = sum(s.self_seconds if self_time else s.seconds for s in spans)
        return 1e3 * total / max(rounds, 1)

    out: dict[str, float] = {}
    for eng, sizes in (("lp", ("rows", "cols")),
                       ("sdp", ("blocks", "psd_dim", "constraints"))):
        every, ref = pick(all_spans, eng), pick(ref_spans, eng)
        solved = [s for s in every if s.info["status"] != "raised"]
        iters = sum(s.info["iterations"] for s in solved)
        out[f"{eng}.solve_ms"] = ms(every)
        out[f"{eng}.calls"] = len(ref)
        out[f"{eng}.iterations"] = sum(s.info["iterations"] for s in ref)
        out[f"{eng}.ms_per_iter"] = (1e3 * sum(s.seconds for s in solved) / iters
                                     if iters else 0.0)
        for key in sizes:
            out[f"{eng}.{key}"] = (sum(s.info[key] for s in ref) / len(ref)) if ref else 0.0
        out[f"{eng}.nonoptimal"] = sum(s.info["status"] != "optimal" for s in ref)
    out["core.vertex_matrix_ms"] = ms(pick(all_spans, "core", {"vertex_table_matrix"}))
    out["core.vertex_matrix_calls"] = len(pick(ref_spans, "core", {"vertex_table_matrix"}))
    out["core.model_build_ms"] = ms(pick(all_spans, "core", {"from_vertex_weights"}))
    out["core.validate_ms"] = ms(pick(all_spans, "core", {"validate"}))
    out["core.validate_calls"] = len(pick(ref_spans, "core", {"validate"}))
    for layer in ("bounds", "games"):
        out[f"{layer}.self_ms"] = ms(pick(all_spans, layer), self_time=True)
        out[f"{layer}.calls"] = len(pick(ref_spans, layer))
    out["simulate.run_ms"] = ms(pick(all_spans, "simulate"))
    out["simulate.calls"] = len(pick(ref_spans, "simulate"))
    mains = pick(all_spans, "cli")
    out["cli.main_ms"] = 1e3 * sum(s.seconds for s in mains) / cli_calls if cli_calls else 0.0
    out["cli.self_ms"] = (1e3 * sum(s.self_seconds for s in mains) / cli_calls
                          if cli_calls else 0.0)
    return out
