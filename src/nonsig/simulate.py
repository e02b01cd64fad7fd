"""Monte-Carlo runs of the simultaneous-messages (SMP) protocols.

Both parties hold an affine model p = q+ p+ - q- p- whose components are
mixtures of local deterministic strategies; using shared randomness they
send samples (or quantum-fingerprint statistics, simulated through the
closed-form swap-test law) to a referee, who estimates each p(a,b|x,y),
renormalizes the estimates into a distribution with a dummy outcome, and
outputs samples from it.

Sampling uses the counter-based Philox generator keyed by (seed, input
pair, stream tag), so identical seeds reproduce identical outcomes and
both parties can derive the same shared randomness independently.  Where
the protocol draws T i.i.d. categorical samples we draw the multinomial
count vector directly, which has the identical distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Alphabets, AffineModel, ConditionalDistribution, LocalVertex


@dataclass(frozen=True)
class SmpPlan:
    """Sample-size plan for one protocol variant."""

    variant: str            # classical | quantum | boolean
    lam: float              # affine-model mass sum |q_i|
    epsilon: float
    delta: float
    T: int                  # samples per sign per input pair
    beta: float             # per-cell estimate slack
    alphabets: Alphabets | None = None
    L: int | None = None    # shared-randomness pool size (quantum)


def _check_inputs(delta: float | None = None, **counts) -> None:
    """Refuse a delta outside (0, 1) and a count (T, L, replays) below 1."""
    if delta is not None and not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    for name, k in counts.items():
        if k is not None and k < 1:
            raise ValueError(f"{name} must be >= 1, got {k}")


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
    _check_inputs(delta, T=T)
    AB = alphabets.na * alphabets.nb
    beta = delta / (4.0 * AB)
    if T is None:
        T = math.ceil(8.0 * (AB * lam / delta) ** 2 * math.log(4.0 * AB / delta))
    return SmpPlan("classical", float(lam), float(epsilon), float(delta),
                   int(T), beta, alphabets)


def quantum_plan(lam: float, delta: float, alphabets: Alphabets,
                 epsilon: float = 0.0, T: int | None = None,
                 L: int | None = None) -> SmpPlan:
    """Plan for the quantum-fingerprint SMP protocol (simulated)."""
    _check_inputs(delta, T=T, L=L)
    AB = alphabets.na * alphabets.nb
    beta = delta / (8.0 * AB)
    if T is None:
        T = math.ceil(2.0 * (lam / beta) ** 4 * math.log(16.0 * AB / delta))
    if L is None:
        n = max(1, math.ceil(math.log2(max(2, alphabets.nx * alphabets.ny))))
        L = math.ceil(16.0 * n * lam ** 2 / delta ** 2)
    return SmpPlan("quantum", float(lam), float(epsilon), float(delta),
                   int(T), beta, alphabets, int(L))


def boolean_plan(lam: float, delta: float, epsilon: float = 0.0,
                 T: int | None = None) -> SmpPlan:
    """Plan for the Boolean sign-estimation protocol."""
    _check_inputs(delta, T=T)
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 1/2)")
    if T is None:
        T = math.ceil(4.0 * (lam / (1.0 - 2.0 * epsilon)) ** 2 * math.log(1.0 / delta))
    beta = (1.0 - 2.0 * epsilon) / (2.0 * lam)
    return SmpPlan("boolean", float(lam), float(epsilon), float(delta),
                   int(T), beta)


def hoeffding_bound(T: int, beta: float, range_width: float) -> float:
    """Tail bound exp(-2 T beta^2 / width^2) for a mean of bounded trials."""
    if T < 1 or beta < 0 or range_width <= 0:
        raise ValueError("need T >= 1, beta >= 0, range_width > 0")
    return math.exp(-2.0 * T * beta ** 2 / range_width ** 2)


def renormalize_estimates(Q: np.ndarray) -> np.ndarray:
    """Turn raw signed estimates into a distribution with a dummy outcome.

    Negatives are clipped; if the clipped mass exceeds 1 it is divided
    through (dummy gets 0), otherwise the deficit goes to the dummy
    outcome appended as the last entry.
    """
    R = np.maximum(np.asarray(Q, dtype=float).reshape(-1), 0.0)
    total = R.sum()
    if total > 1.0:
        R = R / total
        empty = 0.0
    else:
        empty = 1.0 - total
    out = np.concatenate([R, [empty]])
    return out / out.sum()


def _split_model(model: AffineModel):
    """(q+, p+ table, vertices+, probs+), (q-, ...) with locality check."""
    q_plus, mix_plus, q_minus, mix_minus = model.split_signed()
    sides = []
    for q, mix in ((q_plus, mix_plus), (q_minus, mix_minus)):
        vertices, probs = [], []
        for w, comp in mix:
            if not isinstance(comp, LocalVertex):
                raise ValueError(
                    "SMP protocols need components that are local deterministic "
                    f"vertices; got {type(comp).__name__}"
                )
            vertices.append(comp)
            probs.append(w)
        table = None
        if vertices:
            table = sum(w * v.table() for w, v in zip(probs, vertices))
        sides.append((float(q), table, vertices, np.array(probs)))
    return sides


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed), *map(int, key)]))
    )


def _distance_to_target(empirical, target: np.ndarray) -> float:
    """Max over inputs of half the L1 distance, dummy outcome included.

    ``empirical[x, y]`` holds the na*nb cell probabilities followed by
    the dummy-outcome probability; the target assigns the dummy mass 0.
    """
    nx, ny = target.shape[:2]
    d = 0.0
    for x in range(nx):
        for y in range(ny):
            tgt = np.concatenate([target[x, y].reshape(-1), [0.0]])
            d = max(d, 0.5 * np.abs(empirical[x, y] - tgt).sum())
    return float(d)


def run_smp_classical(model: AffineModel, target: ConditionalDistribution,
                      plan: SmpPlan, seed: int, replays: int = 10_000) -> SimulationOutcome:
    """One run of the classical SMP protocol against every input pair.

    For each (x, y) the referee receives T samples from each signed
    component mixture, forms the signed per-cell estimates, renormalizes
    them, and replays the resulting distribution to give an empirical
    simulated distribution (replay noise ~1/sqrt(replays) is an artifact
    of measuring the distribution, not part of the protocol guarantee).
    """
    _check_inputs(replays=replays)
    alph = target.alphabets
    (q_plus, p_plus, _, _), (q_minus, p_minus, _, _) = _split_model(model)
    T = plan.T
    na, nb = alph.na, alph.nb
    n_out = na * nb

    raw = np.zeros(alph.shape)
    est = np.zeros((alph.nx, alph.ny, n_out + 1))
    emp = np.zeros((alph.nx, alph.ny, n_out + 1))
    for x in range(alph.nx):
        for y in range(alph.ny):
            P = np.zeros(n_out)
            if p_plus is not None and q_plus > 0:
                counts = _rng(seed, x, y, 0).multinomial(T, p_plus[x, y].reshape(-1))
                P += q_plus * counts / T
            if p_minus is not None and q_minus > 0:
                counts = _rng(seed, x, y, 1).multinomial(T, p_minus[x, y].reshape(-1))
                P -= q_minus * counts / T
            raw[x, y] = P.reshape(na, nb)
            S = renormalize_estimates(P)
            est[x, y] = S
            emp[x, y] = _rng(seed, x, y, 2).multinomial(replays, S) / replays

    distance = _distance_to_target(emp, target.table)
    return SimulationOutcome(
        empirical=emp.reshape(alph.nx, alph.ny, -1),
        distance=distance,
        estimates=est,
        raw_estimates=raw,
        seed=int(seed),
        extras={"replays": replays, "T": T},
    )


def run_smp_quantum_sim(model: AffineModel, target: ConditionalDistribution,
                        plan: SmpPlan, seed: int, replays: int = 10_000) -> SimulationOutcome:
    """Quantum-fingerprint SMP protocol, simulated via its outcome law.

    A shared pool of L random strings selects local deterministic
    strategies; the pool frequency p~(a,b|x,y) of producing (a,b) equals
    the fingerprint inner product, and each swap test outputs 1 with
    probability (1 - p~^2)/2, so the referee's estimate is
    Q = sqrt(max(0, 1 - 2 Zbar)) per cell, combined across the two signs
    with the model weights.
    """
    _check_inputs(replays=replays)
    alph = target.alphabets
    sides = _split_model(model)
    T, L = plan.T, plan.L
    na, nb = alph.na, alph.nb
    n_out = na * nb

    # Pool frequencies per sign: fraction of pool strings producing (a,b).
    freqs = []
    for s, (q, table, vertices, probs) in enumerate(sides):
        if q <= 0 or not vertices:
            freqs.append(None)
            continue
        picks = _rng(seed, 0, 0, 10 + s).choice(len(vertices), size=L, p=probs)
        f = np.zeros(alph.shape)
        idx, cnt = np.unique(picks, return_counts=True)
        for i, c in zip(idx, cnt):
            f += (c / L) * vertices[i].table()
        freqs.append(f)

    raw = np.zeros(alph.shape)
    est = np.zeros((alph.nx, alph.ny, n_out + 1))
    emp = np.zeros((alph.nx, alph.ny, n_out + 1))
    pool_dev = 0.0
    for x in range(alph.nx):
        for y in range(alph.ny):
            P = np.zeros((na, nb))
            for s, (q, table, _, _) in enumerate(sides):
                if freqs[s] is None:
                    continue
                sign = 1.0 if s == 0 else -1.0
                pool_dev = max(pool_dev, float(np.abs(freqs[s][x, y] - table[x, y]).max()))
                for a in range(na):
                    for b in range(nb):
                        ptil = freqs[s][x, y, a, b]
                        pz = 0.5 * (1.0 - ptil ** 2)
                        ones = _rng(seed, x, y, 20 + s * n_out + a * nb + b).binomial(T, pz)
                        zbar = ones / T
                        Q = math.sqrt(max(0.0, 1.0 - 2.0 * zbar))
                        P[a, b] += sign * q * Q
            raw[x, y] = P
            S = renormalize_estimates(P.reshape(-1))
            est[x, y] = S
            emp[x, y] = _rng(seed, x, y, 3).multinomial(replays, S) / replays

    distance = _distance_to_target(emp, target.table)
    pool_ok = pool_dev <= plan.delta / (2.0 * plan.lam)
    return SimulationOutcome(
        empirical=emp,
        distance=distance,
        estimates=est,
        raw_estimates=raw,
        seed=int(seed),
        extras={"replays": replays, "T": T, "L": L,
                "pool_max_deviation": pool_dev, "pool_ok": bool(pool_ok)},
    )


def run_smp_boolean(C: np.ndarray, model: AffineModel, plan: SmpPlan,
                    seed: int, replays: int = 100) -> dict:
    """Sign-estimation SMP protocol for a Boolean (+-1) function.

    For each input pair the referee averages T signed answer products
    per replay and outputs the sign; reports the per-input error rate
    over the replays and its maximum.
    """
    _check_inputs(replays=replays)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not np.all(np.abs(C) == 1.0):
        raise ValueError("C must be a +-1 sign matrix")
    nx, ny = C.shape
    sides = _split_model(model)
    T = plan.T

    # Correlation of the signed product under each component mixture.
    def corr_and_prob(table, x, y):
        """(E[ab], P[ab=+1]) for outcomes read as signs (index 0 -> +1)."""
        cell = table[x, y]
        p_agree = cell[0, 0] + cell[1, 1]
        return 2.0 * p_agree - 1.0, p_agree

    errors = np.zeros((nx, ny))
    for x in range(nx):
        for y in range(ny):
            wrong = 0
            for r in range(replays):
                val = 0.0
                for s, (q, table, _, _) in enumerate(sides):
                    if table is None or q <= 0:
                        continue
                    sign = 1.0 if s == 0 else -1.0
                    _, p_agree = corr_and_prob(table, x, y)
                    agree = _rng(seed, x, y, 30 + s, r).binomial(T, p_agree)
                    # mean of a*b over T samples
                    val += sign * q * (2.0 * agree / T - 1.0)
                if (1.0 if val >= 0 else -1.0) != C[x, y]:
                    wrong += 1
            errors[x, y] = wrong / replays
    return {
        "error_rate": errors,
        "max_error_rate": float(errors.max()),
        "T": T,
        "seed": int(seed),
    }
