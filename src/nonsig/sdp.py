"""Small dense semidefinite programming engine.

Solves  min sum_j <C_j, X_j>  s.t.  sum_j <A_ij, X_j> = b_i,  X_j >= 0 (PSD)
over a list of symmetric matrix blocks, via an infeasible-start primal-dual
interior-point method (HKM search direction).  Intended for the small
moment-matrix problems in this package: a program of total dimension
above 200 is refused with ``ResourceLimitError``.  The returned
residuals and per-block minimum eigenvalues let callers verify the
solution independently of the algorithm.

A numerical breakdown inside an iteration (a Cholesky or inverse of an
iterate that has lost definiteness) ends the run with status
``numerical-error`` and returns the best iterate seen, by the largest of
its primal residual, dual residual and relative gap.  If that iterate
meets the contract (residual <= 1e-6, relative gap <= 1e-5, minimum
eigenvalue >= -1e-7) it is reported as ``optimal``, as after
``max-iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ResourceLimitError

DEFAULT_DIM_CAP = 200
DEFAULT_MAX_ITER = 500


@dataclass
class SdpProgram:
    """Block-diagonal SDP in equality form.

    ``constraints`` holds (coeffs, rhs) pairs where coeffs maps a block
    index to its symmetric coefficient matrix; ``objective`` maps block
    index to the symmetric cost matrix (missing blocks cost 0).
    """

    block_dims: list
    objective: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        self.block_dims = [int(d) for d in self.block_dims]
        if any(d < 1 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")

    def set_objective(self, coeffs: dict) -> None:
        self.objective = {j: _sym(self._check(j, M)) for j, M in coeffs.items()}

    def add_constraint(self, coeffs: dict, rhs: float) -> None:
        if not coeffs:
            raise ValueError("constraint touches no block")
        self.constraints.append(
            ({j: _sym(self._check(j, M)) for j, M in coeffs.items()}, float(rhs))
        )

    def _check(self, j, M):
        M = np.asarray(M, dtype=float)
        d = self.block_dims[j]
        if M.shape != (d, d):
            raise ValueError(f"block {j} expects shape ({d},{d}), got {M.shape}")
        return M

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)


@dataclass
class SdpSolution:
    status: str  # optimal | infeasible | max-iterations | numerical-error
    blocks: list | None = None
    objective: float = np.nan
    dual: np.ndarray | None = None
    dual_objective: float = np.nan
    max_equality_residual: float = np.nan
    min_eigenvalues: list = field(default_factory=list)
    relative_gap: float = np.nan
    iterations: int = 0

    def block_min_eig(self) -> float:
        return min(self.min_eigenvalues) if self.min_eigenvalues else np.nan


def _sym(M):
    return 0.5 * (M + M.T)


def _max_step(X, dX, tau=0.98):
    """Largest alpha <= 1 with X + alpha*dX still positive definite."""
    L = np.linalg.cholesky(X)
    Linv = np.linalg.inv(L)
    W = _sym(Linv @ dX @ Linv.T)
    lam = np.linalg.eigvalsh(W)[0]
    if lam >= 0:
        return 1.0
    return min(1.0, -tau / lam)


def solve_sdp(prog: SdpProgram, max_iter: int = DEFAULT_MAX_ITER,
              tol: float = 1e-9, dim_cap: int = DEFAULT_DIM_CAP) -> SdpSolution:
    """Interior-point solve; see module docstring for the problem form."""
    if prog.total_dim > dim_cap:
        raise ResourceLimitError(f"total block dimension {prog.total_dim} exceeds cap {dim_cap}")
    nb = len(prog.block_dims)
    m = prog.n_constraints
    b = np.array([rhs for _, rhs in prog.constraints])
    C = [prog.objective.get(j, np.zeros((d, d))) for j, d in enumerate(prog.block_dims)]
    # touching[j] = list of constraint indices with a coefficient on block j
    touching = [[] for _ in range(nb)]
    for i, (coeffs, _) in enumerate(prog.constraints):
        for j in coeffs:
            touching[j].append(i)

    scale = 1.0 + max(float(np.abs(b).max(initial=0.0)),
                      max(float(np.abs(Cj).max(initial=0.0)) for Cj in C))
    eta = 10.0 * scale
    X = [eta * np.eye(d) for d in prog.block_dims]
    S = [eta * np.eye(d) for d in prog.block_dims]
    y = np.zeros(m)
    ntot = prog.total_dim

    def apply_A(Xs):
        out = np.zeros(m)
        for i, (coeffs, _) in enumerate(prog.constraints):
            out[i] = sum(np.sum(Aij * Xs[j]) for j, Aij in coeffs.items())
        return out

    def apply_AT(yv):
        out = [np.zeros((d, d)) for d in prog.block_dims]
        for i, (coeffs, _) in enumerate(prog.constraints):
            if yv[i] != 0.0:
                for j, Aij in coeffs.items():
                    out[j] += yv[i] * Aij
        return out

    status = "max-iterations"
    it = 0
    # Best iterate so far by max(primal residual, dual residual, gap).
    best_merit, best_X, best_y = np.inf, [Xj.copy() for Xj in X], y.copy()
    for it in range(1, max_iter + 1):
        ATy = apply_AT(y)
        rp = b - apply_A(X)
        Rd = [C[j] - ATy[j] - S[j] for j in range(nb)]
        mu = sum(np.sum(X[j] * S[j]) for j in range(nb)) / ntot
        pobj = sum(np.sum(C[j] * X[j]) for j in range(nb))
        dobj = float(b @ y)
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        prim_res = float(np.abs(rp).max(initial=0.0)) / scale
        dual_res = max(float(np.abs(Rd[j]).max(initial=0.0)) for j in range(nb)) / scale
        if prim_res <= tol * 10 and dual_res <= tol * 10 and (gap_rel <= tol or mu / scale <= tol):
            status = "optimal"
            break
        if np.abs(y).max(initial=0.0) > 1e10 * scale and prim_res > 1e-6:
            status = "infeasible"
            break
        merit = max(prim_res, dual_res, gap_rel)
        if merit < best_merit:
            best_merit, best_X, best_y = merit, [Xj.copy() for Xj in X], y.copy()

        sigma = 0.3 if it <= 2 else sigma_next
        try:
            Sinv = [np.linalg.inv(S[j]) for j in range(nb)]

            # Schur complement M[i,k] = sum_j tr(A_ij X_j A_kj Sinv_j).
            M = np.zeros((m, m))
            rhs = rp.copy()
            for j in range(nb):
                idx = touching[j]
                if not idx:
                    continue
                d = prog.block_dims[j]
                A_flat = np.array([prog.constraints[i][0][j].reshape(-1) for i in idx])
                P = np.array([
                    (X[j] @ prog.constraints[i][0][j] @ Sinv[j]).T.reshape(-1) for i in idx
                ])
                M[np.ix_(idx, idx)] += P @ A_flat.T
                G = X[j] - sigma * mu * Sinv[j] + X[j] @ Rd[j] @ Sinv[j]
                rhs[idx] += A_flat @ G.T.reshape(-1)

            M = _sym(M)
            try:
                dy = np.linalg.solve(M + 1e-14 * scale * np.eye(m), rhs)
            except np.linalg.LinAlgError:
                dy = np.linalg.lstsq(M, rhs, rcond=None)[0]

            ATdy = apply_AT(dy)
            dS = [Rd[j] - ATdy[j] for j in range(nb)]
            dX = [_sym(sigma * mu * Sinv[j] - X[j] - X[j] @ dS[j] @ Sinv[j]) for j in range(nb)]

            alpha_p = min(_max_step(X[j], dX[j]) for j in range(nb))
            alpha_d = min(_max_step(S[j], dS[j]) for j in range(nb))
        except np.linalg.LinAlgError:
            # The iterate has lost definiteness (rank-deficient optimum,
            # ill-conditioned Schur system): stop on the best iterate.
            status = "numerical-error"
            X, y = best_X, best_y
            break
        for j in range(nb):
            X[j] = _sym(X[j] + alpha_p * dX[j])
            S[j] = _sym(S[j] + alpha_d * dS[j])
        y = y + alpha_d * dy

        a = min(alpha_p, alpha_d)
        sigma_next = 0.05 if a > 0.9 else (0.2 if a > 0.5 else 0.5)

    rp = b - apply_A(X)
    pobj = sum(float(np.sum(C[j] * X[j])) for j in range(nb))
    dobj = float(b @ y)
    min_eigs = [float(np.linalg.eigvalsh(X[j])[0]) for j in range(nb)]
    gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    max_res = float(np.abs(rp).max(initial=0.0))
    if status in ("max-iterations", "numerical-error") and max_res <= 1e-6 \
            and gap_rel <= 1e-5 and min(min_eigs) >= -1e-7:
        # Good enough for the contract even though the inner tolerance
        # was not reached.
        status = "optimal"
    return SdpSolution(
        status=status,
        blocks=X,
        objective=pobj,
        dual=y,
        dual_objective=dobj,
        max_equality_residual=max_res,
        min_eigenvalues=min_eigs,
        relative_gap=gap_rel,
        iterations=it,
    )
