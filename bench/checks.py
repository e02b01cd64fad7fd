"""Independent checks of the outputs of ``nonsig``.

Nothing here trusts the engine that produced a result.  Vertex matrices are
rebuilt with numpy, reference LP optima come from scipy's HiGHS, and
certificates are re-evaluated from their raw coefficients.  Each check
raises ``CheckFailed`` with a reason, or returns normally.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from inputs import vertex_table

# Tolerances of the package's own contract: models reproduce their target
# within TOL_RECON (core.TOL_RECON); solver values agree to ~1e-6.
TOL_RECON = 1e-7
TOL_VALUE = 1e-6
TOL_EIG = -1e-7
# Krivine's upper bound on Grothendieck's constant, pi / (2 ln(1 + sqrt 2)).
K_G_UPPER = math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0)))


class CheckFailed(Exception):
    pass


def require(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def close(a: float, b: float, tol: float = TOL_VALUE) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


@functools.lru_cache(maxsize=None)
def vertex_matrix(shape) -> np.ndarray:
    """Columns are flattened local deterministic vertex tables (n_cells x V)."""
    nx, ny, na, nb = shape
    cols = [vertex_table(shape, la, lb).reshape(-1)
            for la in itertools.product(range(na), repeat=nx)
            for lb in itertools.product(range(nb), repeat=ny)]
    return np.array(cols).T


@functools.lru_cache(maxsize=None)
def sign_vertex_matrix(nx: int, ny: int) -> np.ndarray:
    """Columns are flattened rank-one sign matrices u v^T."""
    us = [np.array(u) for u in itertools.product((1.0, -1.0), repeat=nx)]
    vs = [np.array(v) for v in itertools.product((1.0, -1.0), repeat=ny)]
    return np.array([np.outer(u, v).reshape(-1) for u in us for v in vs]).T


def _highs(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> float:
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    require(res.status == 0, f"HiGHS reference LP failed: {res.message}")
    return float(res.fun)


def ref_nu_tilde(table: np.ndarray) -> float:
    """min sum|q| with sum_v q_v v = p, by HiGHS."""
    V = vertex_matrix(table.shape)
    n = V.shape[1]
    return _highs(np.ones(2 * n), A_eq=np.hstack([V, -V]), b_eq=table.reshape(-1))


def ref_nu_tilde_eps(table: np.ndarray, eps: float) -> float:
    """min nu_tilde(p') over normalized p' >= 0 with delta(p, p') <= eps."""
    nx, ny, na, nb = table.shape
    V = vertex_matrix(table.shape)
    n_cells, n = V.shape
    p = table.reshape(-1)
    # Variables: q+ (n), q- (n), s (n_cells) with s >= |Vq - p|.
    z = np.zeros((n_cells, n_cells))
    eye = np.eye(n_cells)
    per_input = np.kron(np.eye(nx * ny), np.ones(na * nb))
    A_ub = np.vstack([
        np.hstack([V, -V, -eye]),
        np.hstack([-V, V, -eye]),
        np.hstack([-V, V, z]),
        np.hstack([np.zeros((nx * ny, 2 * n)), per_input]),
    ])
    b_ub = np.concatenate([p, -p, np.zeros(n_cells), np.full(nx * ny, 2.0 * eps)])
    # Every vertex table is normalized, so sum(q) = 1 normalizes p'.
    A_eq = np.concatenate([np.ones(n), -np.ones(n), np.zeros(n_cells)])[None, :]
    c = np.concatenate([np.ones(2 * n), np.zeros(n_cells)])
    return _highs(c, A_ub, b_ub, A_eq, np.ones(1))


def ref_nu_corr(C: np.ndarray) -> float:
    S = sign_vertex_matrix(*C.shape)
    return _highs(np.ones(2 * S.shape[1]), A_eq=np.hstack([S, -S]), b_eq=C.reshape(-1))


def local_norm(B: np.ndarray) -> float:
    """max |B(v)| over every local deterministic vertex v."""
    return float(np.abs(B.reshape(-1) @ vertex_matrix(B.shape)).max())


def corr_local_norm(B: np.ndarray) -> float:
    """max over sign vectors u, v of |u^T B v| (Bob's reply is greedy)."""
    best = 0.0
    for u in itertools.product((1.0, -1.0), repeat=B.shape[0]):
        best = max(best, float(np.abs(np.asarray(u) @ B).sum()))
    return best


def model_table(model, shape) -> np.ndarray:
    """sum_i q_i p_i rebuilt from the raw components of an AffineModel."""
    out = np.zeros(shape)
    for w, comp in model.components:
        if hasattr(comp, "lambda_a"):
            out += w * vertex_table(shape, comp.lambda_a, comp.lambda_b)
        else:
            out += w * comp.table
    return out


def model_mass(model) -> float:
    return float(sum(abs(w) for w, _ in model.components))


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(p - q).sum(axis=(2, 3)).max())


# -- per-quantity checks ----------------------------------------------------


def nu_tilde(table, res) -> None:
    """Primal model reproduces p with mass = value, and the dual Bell
    functional has |B(v)| <= 1 on every vertex with B(p) = value: together
    these prove the value optimal."""
    model = res.primal_certificate
    require(np.abs(model_table(model, table.shape) - table).max() <= TOL_RECON,
            "primal model does not reproduce p")
    require(close(model_mass(model), res.value), "model mass != value")
    B = res.dual_certificate.coeffs
    require(local_norm(B) <= 1.0 + TOL_VALUE, "dual functional exceeds 1 on a vertex")
    require(close(float(np.sum(B * table)), res.value), "B(p) != value")


def nu_corr(C, res) -> None:
    q = res.diagnostics["weights"]
    pairs = res.diagnostics["sign_pairs"]
    recon = sum(w * np.outer(u, v) for w, (u, v) in zip(q, pairs))
    require(np.abs(recon - C).max() <= TOL_RECON, "sign model does not reproduce C")
    require(close(float(np.abs(q).sum()), res.value), "model mass != value")
    B = res.dual_certificate.corr_coeffs
    require(corr_local_norm(B) <= 1.0 + TOL_VALUE, "dual functional exceeds 1")
    require(close(float(np.sum(B * C)), res.value), "B(C) != value")


def gamma2_tilde_1(table, res) -> None:
    model = res.primal_certificate
    require(np.abs(model_table(model, table.shape) - table).max() <= TOL_VALUE,
            "moment-block model does not reproduce p")
    require(close(model_mass(model), res.value), "model mass != value")
    require(res.diagnostics["min_eigenvalue"] >= TOL_EIG, "moment block not PSD")
    require(res.value >= 1.0 - TOL_VALUE, "value below 1")
    require(res.value <= ref_nu_tilde(table) + TOL_VALUE, "gamma2_tilde_1 > nu_tilde")


def dual_bell_npa(table, bell) -> None:
    require(np.all(np.isfinite(bell.coeffs)), "non-finite functional")
    require(local_norm(bell.coeffs) <= 1.0 + TOL_VALUE, "functional exceeds 1 on a vertex")


def tsirelson_matches(table, bell, gamma2_value) -> None:
    require(close(float(np.sum(bell.coeffs * table)), gamma2_value),
            "B_npa(p) != gamma2_tilde_1(p)")


def gamma2_tilde_1_eps(table, eps, res) -> None:
    model = res.primal_certificate
    p_prime = model_table(model, table.shape)
    require(tv_distance(table, p_prime) <= eps + TOL_VALUE, "p' is farther than eps")
    require(close(model_mass(model), res.value), "model mass != value")
    require(res.diagnostics["min_eigenvalue"] >= TOL_EIG, "moment block not PSD")
    require(res.value >= 1.0 - TOL_VALUE, "value below 1")
    require(res.value <= ref_nu_tilde_eps(table, eps) + TOL_VALUE,
            "gamma2_tilde_1_eps > nu_tilde_eps")


def _psd(M: np.ndarray) -> bool:
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0]) >= TOL_EIG * (1.0 + np.abs(M).max())


def gamma2_corr(C, res) -> None:
    G = res.diagnostics["gram"]
    nx = C.shape[0]
    require(_psd(G), "Gram completion not PSD")
    require(np.abs(G[:nx, nx:] - C).max() <= TOL_VALUE, "Gram off-diagonal != C")
    require(np.abs(np.diag(G) - res.value).max() <= TOL_VALUE * (1 + res.value),
            "Gram diagonal != value")
    require(res.value <= ref_nu_corr(C) + TOL_VALUE, "gamma2 > nu on correlations")


def quantum_bias(G, mu, res) -> None:
    gram = res["gram"]
    nx = G.shape[0]
    require(_psd(gram), "Gram matrix not PSD")
    require(np.abs(np.diag(gram) - 1.0).max() <= TOL_VALUE, "vectors are not unit")
    require(close(float(np.sum(mu * G * gram[:nx, nx:])), res["bias"]),
            "bias != value of the returned Gram matrix")
    classical = corr_local_norm(mu * G)
    require(classical - TOL_VALUE <= res["bias"] <= K_G_UPPER * classical + TOL_VALUE,
            "quantum bias outside [classical, K_G * classical]")
