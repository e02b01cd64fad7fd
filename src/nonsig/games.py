"""XOR games: classical/quantum biases and the game-Bell correspondence.

An XOR game is a sign matrix G[x, y] with an input distribution mu; the
players answer signs a, b and win when a*b = G(x, y).  The bias under a
strategy with correlations C is sum mu*G*C, and win probability is
(1 + bias)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Alphabets, BellFunctional, SIGNS, best_local_response
from .bounds import _correlation_matrix, _data_map, _sign_mass
# Not called here: bench/tracing.py wraps games.solve_lp by name and fails
# if the attribute is missing.
from .lp import solve_lp  # noqa: F401
from .sdp import solve_sdp


@dataclass(frozen=True)
class XorGame:
    G: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        mu = np.atleast_2d(np.asarray(self.mu, dtype=float))
        if G.shape != mu.shape:
            raise ValueError(f"G shape {G.shape} != mu shape {mu.shape}")
        if not np.all(np.abs(G) == 1.0):
            raise ValueError("G entries must be exactly +-1")
        if not (np.all(np.isfinite(mu)) and mu.min() >= 0 and abs(mu.sum() - 1.0) <= 1e-12):
            raise ValueError("mu must be a probability distribution over inputs")
        for arr in (G, mu):
            arr.flags.writeable = False
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "mu", mu)

    @property
    def nx(self) -> int:
        return self.G.shape[0]

    @property
    def ny(self) -> int:
        return self.G.shape[1]


def chsh_game() -> XorGame:
    """G(x,y) = -1 iff x = y = 1, uniform inputs."""
    return XorGame(np.array([[1.0, 1.0], [1.0, -1.0]]), np.full((2, 2), 0.25))


def bias_of_correlations(game: XorGame, C: np.ndarray) -> float:
    """epsilon_mu(G || C) = sum mu * G * C for a strategy with correlations C."""
    return float(np.sum(game.mu * game.G * np.asarray(C)))


def classical_bias(game: XorGame) -> dict:
    """Exact maximum bias over deterministic sign strategies: the local
    bound of the correlation functional mu*G, by best_local_response."""
    bias, la, lb = best_local_response(np.einsum("xy,a,b->xyab", game.mu * game.G, SIGNS, SIGNS))
    return {"bias": bias, "u": SIGNS[la], "v": SIGNS[lb]}


def quantum_bias(game: XorGame) -> dict:
    """Entangled bias: SDP over Gram matrices of unit vectors.

    max sum mu*G*<a_x, b_y> with all vectors unit; by Tsirelson's
    characterization this equals the entangled XOR-game bias.  The
    constraints are those of the binary alphabet's data map
    (``bounds._DataMap.bias_sdp``); the game gives the objective.
    """
    n = game.nx + game.ny
    W = np.zeros((n, n))
    W[:game.nx, game.nx:] = game.mu * game.G  # the program symmetrizes it
    sol = solve_sdp(_data_map(Alphabets(game.nx, game.ny, 2, 2)).bias_sdp.with_data(
        objective={0: -W}))
    record = sol.record("quantum_bias")
    return {"bias": -float(sol.objective), "gram": sol.blocks[0], "diagnostics": record}


def game_to_bell(game: XorGame) -> BellFunctional:
    """The correlation Bell functional G o mu with its exact local bound,
    ``best_local_response`` on its own coefficients (the classical bias)."""
    corr = game.G * game.mu
    coeffs = np.einsum("xy,a,b->xyab", corr, SIGNS, SIGNS)
    return BellFunctional(
        coeffs=coeffs,
        claimed_bound_class="local",
        normalization=best_local_response(coeffs)[0],
        corr_coeffs=corr,
    )


def bell_to_game(B) -> XorGame:
    """Inverse of game_to_bell: G = sign(B), mu proportional to |B|.

    Accepts a BellFunctional with a correlation-space form or a raw
    coefficient matrix B[x, y].
    """
    corr = B.corr_coeffs if isinstance(B, BellFunctional) else np.asarray(B, dtype=float)
    if corr is None:
        raise ValueError("functional has no correlation-space coefficients")
    corr = np.atleast_2d(corr)
    total = np.abs(corr).sum()
    if total == 0:
        raise ValueError("degenerate input: all-zero functional")
    G = np.where(corr >= 0, 1.0, -1.0)
    return XorGame(G, np.abs(corr) / total)


def equal_bias_value(C: np.ndarray) -> float:
    """nu(C) through the equal-bias characterization 1 / epsilon_=(C): the
    largest bias beta that one local strategy achieves on every input at
    once is 1 / min{sum|q| : C o (sum q_i u_i v_i^T) = 1}."""
    mass = _sign_mass(_correlation_matrix(C), 1.0, "equal-bias")
    if mass == np.inf:
        raise ValueError("no equal-bias strategy with positive bias exists "
                         "(beta* = 0: C has a zero entry)")
    return mass


def epsilon_pub(C: np.ndarray) -> float:
    """Worst-input-distribution public-coin bias: max_S min_xy C(x,y) S(x,y),
    which is 1 / min{sum|q| : C o (sum q_i u_i v_i^T) >= 1} (0 if C has a
    zero entry)."""
    return 1.0 / _sign_mass(_correlation_matrix(C), np.inf, "epsilon_pub")


# ---------------------------------------------------------------------------
# JSON I/O


def game_from_json(obj: dict) -> XorGame:
    if not isinstance(obj, dict) or "G" not in obj or "mu" not in obj:
        raise ValueError('game JSON needs "G" and "mu"')
    return XorGame(np.asarray(obj["G"], dtype=float), np.asarray(obj["mu"], dtype=float))


def game_to_json(game: XorGame) -> dict:
    return {"G": game.G.tolist(), "mu": game.mu.tolist()}
