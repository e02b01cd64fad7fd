"""Monte-Carlo runs of the simultaneous-messages (SMP) protocols.

Both parties hold an affine model p = q+ p+ - q- p- whose components are
mixtures of local deterministic strategies; using shared randomness they
send samples (or quantum-fingerprint statistics, simulated through the
closed-form swap-test law) to a referee, who estimates each p(a,b|x,y),
renormalizes the estimates into a distribution with a dummy outcome, and
outputs samples from it.

Sampling uses the counter-based Philox generator keyed by (seed, x, y,
tag), so identical seeds reproduce identical outcomes and both parties
can derive the same shared randomness independently.  Where the protocol
draws T i.i.d. categorical samples we draw the multinomial count vector
directly, which has the identical distribution.  The stream tags, for
side s = 0 (q+ p+) and s = 1 (q- p-):

    tag                          stream
    0, 1                         classical samples of side s
    2, 3                         referee replays, classical and quantum
    10 + s                       quantum shared-randomness pool (x = y = 0)
    20 + s*na*nb + a*nb + b      quantum swap tests of cell (a, b)
    30 + s                       boolean samples, all replays
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Alphabets, AffineModel, ConditionalDistribution, LocalVertex,
                   ResourceLimitError, ShapeError, check_vertex_cap)


@dataclass(frozen=True)
class SmpPlan:
    """Sample-size plan for one protocol variant."""

    variant: str            # classical | quantum | boolean
    lam: float              # affine-model mass sum |q_i|
    epsilon: float
    delta: float
    T: int                  # samples per sign per input pair
    beta: float             # per-cell estimate slack
    L: int | None = None    # shared-randomness pool size (quantum)


def _check_inputs(delta: float | None = None, epsilon: float | None = None,
                  seed: int | None = None, lam: float | None = None, **counts) -> None:
    """Refuse a delta outside (0, 1), an epsilon outside [0, 1) (NaN included),
    a negative seed, a model mass lam that is not positive (NaN included), a
    count (T, L, replays) below 1, and a plan numpy cannot sample: T above
    2^63 - 1 or L above the vertex cap."""
    if delta is not None and not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if epsilon is not None and not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if lam is not None and not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    for name, k in counts.items():
        if k is not None and k < 1:
            raise ValueError(f"{name} must be >= 1, got {k}")
    cap = 2 ** 63 - 1  # numpy's samplers take C int64 counts
    if (counts.get("T") or 0) > cap:
        raise ResourceLimitError(f"plan needs T = {counts['T']} samples per sign and input "
                                 f"pair (cap {cap}, the largest count numpy can sample)")
    if counts.get("L") is not None:
        check_vertex_cap(counts["L"], "pool strings")


def check_options(variant: str, delta: float, epsilon: float, T: int | None = None,
                  L: int | None = None, seed: int | None = None,
                  replays: int | None = None) -> None:
    """Refuse what ``variant``'s plan and run refuse whatever the model's
    mass, in their order: delta, epsilon (below 1/2 for ``boolean``), a
    given T or L, then seed and replays.  A caller can run it before it
    solves for the model."""
    _check_inputs(delta, None if variant == "boolean" else epsilon)
    if variant == "boolean" and not 0.0 <= epsilon < 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2), got {epsilon}")
    _check_inputs(T=T, L=L)
    _check_inputs(seed=seed, replays=replays)


def _ceil(formula) -> int | float:
    """ceil(formula()) for a planned count, inf where its arithmetic overflows."""
    try:
        return math.ceil(formula())
    except (OverflowError, ZeroDivisionError):
        return math.inf


@dataclass
class SimulationOutcome:
    """Result of one protocol run (all input pairs)."""

    empirical: np.ndarray       # [x, y, outcome]: na*nb cells then the dummy
    distance: float             # empirical statistical distance to the target
    estimates: np.ndarray       # renormalized referee estimates, same layout
    raw_estimates: np.ndarray   # pre-renormalization per-cell estimates [x, y, a, b]
    seed: int
    extras: dict = field(default_factory=dict)


def classical_plan(lam: float, delta: float, alphabets: Alphabets,
                   epsilon: float = 0.0, T: int | None = None) -> SmpPlan:
    """Trial count and slack for the classical SMP protocol."""
    check_options("classical", delta, epsilon, T=T)
    _check_inputs(lam=lam)
    AB = alphabets.na * alphabets.nb
    beta = delta / (4.0 * AB)
    if T is None:
        T = _ceil(lambda: 8.0 * (AB * lam / delta) ** 2 * math.log(4.0 * AB / delta))
    _check_inputs(T=T)
    return SmpPlan("classical", float(lam), float(epsilon), float(delta), int(T), beta)


def quantum_plan(lam: float, delta: float, alphabets: Alphabets, epsilon: float = 0.0,
                 T: int | None = None, L: int | None = None) -> SmpPlan:
    """Plan for the quantum-fingerprint SMP protocol (simulated)."""
    check_options("quantum", delta, epsilon, T=T, L=L)
    _check_inputs(lam=lam)
    AB = alphabets.na * alphabets.nb
    beta = delta / (8.0 * AB)
    if T is None:
        T = _ceil(lambda: 2.0 * (lam / beta) ** 4 * math.log(16.0 * AB / delta))
    if L is None:
        n = max(1, math.ceil(math.log2(max(2, alphabets.nx * alphabets.ny))))
        L = _ceil(lambda: 16.0 * n * lam ** 2 / delta ** 2)
    _check_inputs(T=T, L=L)
    return SmpPlan("quantum", float(lam), float(epsilon), float(delta),
                   int(T), beta, int(L))


def boolean_plan(lam: float, delta: float, epsilon: float = 0.0,
                 T: int | None = None) -> SmpPlan:
    """Plan for the Boolean sign-estimation protocol."""
    check_options("boolean", delta, epsilon, T=T)
    _check_inputs(lam=lam)
    if T is None:
        T = _ceil(lambda: 4.0 * (lam / (1.0 - 2.0 * epsilon)) ** 2 * math.log(1.0 / delta))
    _check_inputs(T=T)
    beta = (1.0 - 2.0 * epsilon) / (2.0 * lam)
    return SmpPlan("boolean", float(lam), float(epsilon), float(delta), int(T), beta)


def hoeffding_bound(T: int, beta: float, range_width: float) -> float:
    """Tail bound exp(-2 T beta^2 / width^2) for a mean of bounded trials.
    A NaN beta or range_width is refused by name, as a value out of range is."""
    if not T >= 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if not range_width > 0:
        raise ValueError(f"range_width must be > 0, got {range_width}")
    return math.exp(-2.0 * T * beta ** 2 / range_width ** 2)


def renormalize_estimates(Q: np.ndarray) -> np.ndarray:
    """Turn raw signed estimates into a distribution with a dummy outcome.

    Negatives are clipped; if the clipped mass exceeds 1 it is divided
    through (dummy gets 0), otherwise the deficit goes to the dummy
    outcome appended as the last entry.
    """
    R = np.maximum(np.asarray(Q, dtype=float).reshape(-1), 0.0)
    total = R.sum()
    out = np.concatenate([R / total, [0.0]] if total > 1.0 else [R, [1.0 - total]])
    return out / out.sum()


def _split_model(model: AffineModel, shape: tuple) -> list:
    """(s, sign, q, mix, table) for each nonempty side s of q+ p+ - q- p-, where
    mix lists (probability, local vertex of alphabets ``shape``) pairs and
    table is their mixture."""
    q_plus, mix_plus, q_minus, mix_minus = model.split_signed()
    for _, comp in mix_plus + mix_minus:
        if not isinstance(comp, LocalVertex):
            raise ValueError("SMP protocols need components that are local "
                             f"deterministic vertices; got {type(comp).__name__}")
        if comp.alphabets.shape != shape:
            raise ShapeError(f"model alphabets {comp.alphabets.shape} do not match "
                             f"the target's {shape}")
    return [(s, 1.0 - 2.0 * s, float(q), mix, AffineModel(mix).evaluate())
            for s, (q, mix) in enumerate(((q_plus, mix_plus), (q_minus, mix_minus)))
            if mix]


def _rng(seed: int, *key: int) -> np.random.Generator:
    seq = np.random.SeedSequence([int(seed), *map(int, key)])
    return np.random.Generator(np.random.Philox(seq))


def _referee(raw: np.ndarray, target: ConditionalDistribution, seed: int,
             replays: int, tag: int, extras: dict) -> SimulationOutcome:
    """Renormalize raw[x, y, a, b], replay each input pair on stream (seed, x, y, tag),
    and score the replays: the max over input pairs of half the L1 distance
    to the target, whose dummy outcome has mass 0."""
    nx, ny = raw.shape[:2]
    est = np.array([renormalize_estimates(raw[x, y])
                    for x, y in np.ndindex(nx, ny)]).reshape(nx, ny, -1)
    emp = np.array([_rng(seed, x, y, tag).multinomial(replays, est[x, y]) / replays
                    for x, y in np.ndindex(nx, ny)]).reshape(est.shape)
    tgt = np.concatenate([target.table.reshape(nx, ny, -1), np.zeros((nx, ny, 1))], axis=2)
    distance = float((0.5 * np.abs(emp - tgt).sum(axis=2)).max())
    return SimulationOutcome(emp, distance, est, raw, int(seed), {"replays": replays, **extras})


def run_smp_classical(model: AffineModel, target: ConditionalDistribution,
                      plan: SmpPlan, seed: int, replays: int = 10_000) -> SimulationOutcome:
    """One run of the classical SMP protocol against every input pair.

    For each (x, y) the referee forms the signed per-cell estimates from T
    samples of each signed component mixture (the replay noise
    ~1/sqrt(replays) measures the result; it is not part of the protocol).
    """
    _check_inputs(seed=seed, replays=replays)
    alph, T = target.alphabets, plan.T
    raw = np.zeros(alph.shape)
    for s, sign, q, _, table in _split_model(model, alph.shape):
        for x, y in np.ndindex(alph.nx, alph.ny):
            counts = _rng(seed, x, y, s).multinomial(T, table[x, y].reshape(-1))
            raw[x, y] += (q * counts / T).reshape(alph.na, alph.nb) * sign
    return _referee(raw, target, seed, replays, 2, {"T": T})


def run_smp_quantum_sim(model: AffineModel, target: ConditionalDistribution,
                        plan: SmpPlan, seed: int, replays: int = 10_000) -> SimulationOutcome:
    """Quantum-fingerprint SMP protocol, simulated via its outcome law.

    A shared pool of L random strings selects local deterministic
    strategies; the pool frequency p~(a,b|x,y) equals the fingerprint inner
    product, each swap test outputs 1 with probability (1 - p~^2)/2, and a
    cell's estimate sums sign * q * sqrt(max(0, 1 - 2 Zbar)) over the sides.
    """
    _check_inputs(seed=seed, replays=replays)
    alph, T, L = target.alphabets, plan.T, plan.L
    raw = np.zeros(alph.shape)
    pool_dev = 0.0
    for s, sign, q, mix, table in _split_model(model, alph.shape):
        # Pool frequencies: the fraction of pool strings producing (a,b).
        picks = _rng(seed, 0, 0, 10 + s).choice(len(mix), size=L, p=[w for w, _ in mix])
        idx, cnt = np.unique(picks, return_counts=True)
        freq = AffineModel([(c / L, mix[i][1]) for i, c in zip(idx, cnt)]).evaluate()
        pool_dev = max(pool_dev, float(np.abs(freq - table).max()))
        for x, y, a, b in np.ndindex(alph.shape):
            pz = 0.5 * (1.0 - freq[x, y, a, b] ** 2)
            tag = 20 + s * alph.na * alph.nb + a * alph.nb + b
            zbar = _rng(seed, x, y, tag).binomial(T, pz) / T
            raw[x, y, a, b] += sign * q * math.sqrt(max(0.0, 1.0 - 2.0 * zbar))
    return _referee(raw, target, seed, replays, 3, {
        "T": T, "L": L, "pool_max_deviation": pool_dev,
        "pool_ok": bool(pool_dev <= plan.delta / (2.0 * plan.lam))})


def run_smp_boolean(C: np.ndarray, model: AffineModel, plan: SmpPlan,
                    seed: int, replays: int = 100) -> dict:
    """Sign-estimation SMP protocol for a Boolean (+-1) function.

    For each input pair the referee averages T signed answer products
    per replay and outputs the sign; reports the per-input error rate
    over the replays and its maximum.
    """
    _check_inputs(seed=seed, replays=replays)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not np.all(np.abs(C) == 1.0):
        raise ValueError("C must be a +-1 sign matrix")
    T = plan.T
    # P[ab = +1] of each side, reading outcome index 0 as the sign +1.
    sides = [(s, sign, q, table[:, :, 0, 0] + table[:, :, 1, 1])
             for s, sign, q, _, table in _split_model(model, (*C.shape, 2, 2))]
    errors = np.zeros(C.shape)
    for x, y in np.ndindex(C.shape):
        val = np.zeros(replays)  # the referee's estimate of C(x, y), one per replay
        for s, sign, q, p_agree in sides:
            agree = _rng(seed, x, y, 30 + s).binomial(T, p_agree[x, y], size=replays)
            val += sign * q * (2.0 * agree / T - 1.0)  # mean of a*b over T samples
        errors[x, y] = np.count_nonzero(np.where(val >= 0, 1.0, -1.0) != C[x, y]) / replays
    return {"error_rate": errors, "max_error_rate": float(errors.max()), "T": T,
            "seed": int(seed)}
