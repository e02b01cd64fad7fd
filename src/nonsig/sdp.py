"""Small dense semidefinite programming engine.

Solves  min sum_j <C_j, X_j> + c.x  s.t.  sum_j <A_ij, X_j> + a_i.x = b_i,
X_j >= 0 (PSD), x >= 0, over symmetric matrix blocks X_j plus one optional
nonnegative linear block x (SDPT3's mixed ``s``/``l`` blocks), via an
infeasible-start primal-dual interior-point method (HKM direction, which
on x is the diagonal x/s scaling of linear programming).  Intended for
the small moment-matrix problems in this package: a program whose PSD
dimensions plus linear length exceed 200 is refused with
``ResourceLimitError``.  The returned residuals, per-block minimum
eigenvalues and linear block let callers verify the solution
independently of the algorithm.

A numerical breakdown inside an iteration (a Cholesky or inverse of an
iterate that has lost definiteness) ends the run with status
``numerical-error`` and returns the best iterate seen, by the largest of
its primal residual, dual residual and relative gap.  If that iterate
meets the contract (residual <= 1e-6, relative gap <= 1e-5, minimum
eigenvalue or linear entry >= -1e-7) it is reported as ``optimal``, as
after ``max-iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ResourceLimitError

DEFAULT_DIM_CAP = 200
DEFAULT_MAX_ITER = 500
LINEAR = "lin"  # key of the nonnegative linear block in coefficient dicts


@dataclass
class SdpProgram:
    """Block-diagonal SDP in equality form.

    ``constraints`` holds (coeffs, rhs) pairs where coeffs maps a block
    index to its symmetric coefficient matrix, and ``LINEAR`` to a vector
    of length ``n_linear``; ``objective`` maps blocks the same way
    (missing blocks cost 0).
    """

    block_dims: list
    n_linear: int = 0
    objective: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        self.block_dims = [int(d) for d in self.block_dims]
        self.n_linear = int(self.n_linear)
        if any(d < 1 for d in self.block_dims) or self.n_linear < 0:
            raise ValueError("block dimensions must be positive, the linear length >= 0")

    def set_objective(self, coeffs: dict) -> None:
        self.objective = {j: self._check(j, M) for j, M in coeffs.items()}

    def add_constraint(self, coeffs: dict, rhs: float) -> None:
        if not coeffs:
            raise ValueError("constraint touches no block")
        self.constraints.append(({j: self._check(j, M) for j, M in coeffs.items()}, float(rhs)))

    def _check(self, j, M):
        M = np.asarray(M, dtype=float)
        shape = (self.n_linear,) if j == LINEAR else (self.block_dims[j],) * 2
        if M.shape != shape:
            raise ValueError(f"block {j} expects shape {shape}, got {M.shape}")
        return M if j == LINEAR else _sym(M)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims) + self.n_linear

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
    min_eigenvalues: list = field(default_factory=list)  # one per PSD block
    relative_gap: float = np.nan
    iterations: int = 0
    linear: np.ndarray | None = None

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


def _max_ratio(x, dx, tau=0.98):
    """Largest alpha <= 1 with x + alpha*dx still entrywise positive."""
    neg = dx < 0
    return float(np.min(-tau * x[neg] / dx[neg], initial=1.0))


def solve_sdp(prog: SdpProgram, max_iter: int = DEFAULT_MAX_ITER,
              tol: float = 1e-9, dim_cap: int = DEFAULT_DIM_CAP) -> SdpSolution:
    """Interior-point solve; see module docstring for the problem form."""
    if prog.total_dim > dim_cap:
        raise ResourceLimitError(f"total block dimension {prog.total_dim} exceeds cap {dim_cap}")
    dims, m = prog.block_dims, prog.n_constraints
    # Compile once.  An iterate is one vector [vec X_0, ..., vec X_k, x] and
    # row i of A holds constraint i's coefficients in that layout.
    span, end = {}, 0
    for j, size in [(j, d * d) for j, d in enumerate(dims)] + [(LINEAR, prog.n_linear)]:
        span[j], end = slice(end, end + size), end + size
    lin, spans = span[LINEAR], list(span.values())
    A, c = np.zeros((m, end)), np.zeros(end)
    for j, M in prog.objective.items():
        c[span[j]] = M.reshape(-1)
    for i, (coeffs, _) in enumerate(prog.constraints):
        for j, M in coeffs.items():
            A[i, span[j]] = M.reshape(-1)
    b = np.array([rhs for _, rhs in prog.constraints])

    def psd(v):  # the PSD blocks of a vector in that layout, as views
        return [v[span[j]].reshape(d, d) for j, d in enumerate(dims)]

    # Sums run block by block, and over constraints in order, rather than
    # through one BLAS product: near a rank-deficient optimum the iteration
    # count follows rounding, and this order keeps it fixed.
    def apply_A(v):
        return sum((A[:, sl] * v[sl]).sum(axis=1) for sl in spans)

    def apply_AT(w):
        return (w[:, None] * A).sum(axis=0)

    def inner(u, v):
        return float(sum(np.sum(u[sl] * v[sl]) for sl in spans))

    def max_step(V, dV):
        return min([_max_step(*B) for B in zip(psd(V), psd(dV))] + [_max_ratio(V[lin], dV[lin])])

    scale = 1.0 + max(float(np.abs(b).max(initial=0.0)), float(np.abs(c).max(initial=0.0)))
    X = np.concatenate([np.eye(d).reshape(-1) for d in dims] + [np.ones(prog.n_linear)])
    X, S, y = 10.0 * scale * X, 10.0 * scale * X, np.zeros(m)

    status, it = "max-iterations", 0
    # Best iterate so far by max(primal residual, dual residual, gap).
    best_merit, best_X, best_y, best_it = np.inf, X.copy(), y.copy(), 0
    for it in range(1, max_iter + 1):
        rp = b - apply_A(X)
        Rd = c - apply_AT(y) - S
        mu = inner(X, S) / prog.total_dim
        pobj, dobj = inner(c, X), float(b @ y)
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        prim_res = float(np.abs(rp).max(initial=0.0)) / scale
        dual_res = float(np.abs(Rd).max(initial=0.0)) / scale
        if prim_res <= tol * 10 and dual_res <= tol * 10 and (gap_rel <= tol or mu / scale <= tol):
            status = "optimal"
            break
        if np.abs(y).max(initial=0.0) > 1e10 * scale and prim_res > 1e-6:
            status = "infeasible"
            break
        merit = max(prim_res, dual_res, gap_rel)
        if merit < best_merit:
            best_merit, best_X, best_y, best_it = merit, X.copy(), y.copy(), it

        sigma = 0.3 if it <= 2 else sigma_next
        try:
            Sinv = [np.linalg.inv(Sj) for Sj in psd(S)]
            x, sinv = X[lin], 1.0 / S[lin]
            # Schur complement M[i,k] = sum_j tr(A_ij X_j A_kj Sinv_j), where
            # the linear block acts as the diagonal blocks diag(x), diag(s).
            M, rhs = np.zeros((m, m)), rp.copy()
            for j, (Xj, Si, Rj) in enumerate(zip(psd(X), Sinv, psd(Rd))):
                Aj = A[:, span[j]]
                M += (Xj @ Aj.reshape(m, *Xj.shape) @ Si).transpose(0, 2, 1).reshape(m, -1) @ Aj.T
                rhs += Aj @ (Xj - sigma * mu * Si + Xj @ Rj @ Si).T.reshape(-1)
            M += (A[:, lin] * (x * sinv)) @ A[:, lin].T
            rhs += A[:, lin] @ (x - sigma * mu * sinv + x * Rd[lin] * sinv)
            M = _sym(M)
            try:
                dy = np.linalg.solve(M + 1e-14 * scale * np.eye(m), rhs)
            except np.linalg.LinAlgError:
                dy = np.linalg.lstsq(M, rhs, rcond=None)[0]

            dS = Rd - apply_AT(dy)
            dX = np.empty_like(X)
            for dXj, Xj, Si, dSj in zip(psd(dX), psd(X), Sinv, psd(dS)):
                dXj[...] = _sym(sigma * mu * Si - Xj - Xj @ dSj @ Si)
            dX[lin] = sigma * mu * sinv - x - x * dS[lin] * sinv
            alpha_p, alpha_d = max_step(X, dX), max_step(S, dS)
        except np.linalg.LinAlgError:
            # The iterate has lost definiteness (rank-deficient optimum,
            # ill-conditioned Schur system): stop on the best iterate.
            status = "numerical-error"
            X, y, it = best_X, best_y, best_it
            break
        X, S = X + alpha_p * dX, S + alpha_d * dS
        for B in psd(X) + psd(S):
            B[...] = _sym(B)
        y = y + alpha_d * dy

        a = min(alpha_p, alpha_d)
        sigma_next = 0.05 if a > 0.9 else (0.2 if a > 0.5 else 0.5)

    rp = b - apply_A(X)
    pobj, dobj = inner(c, X), float(b @ y)
    blocks = psd(X)
    min_eigs = [float(np.linalg.eigvalsh(Xj)[0]) for Xj in blocks]
    gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    max_res = float(np.abs(rp).max(initial=0.0))
    if status in ("max-iterations", "numerical-error") and max_res <= 1e-6 \
            and gap_rel <= 1e-5 and min(min_eigs + [X[lin].min(initial=np.inf)]) >= -1e-7:
        # Good enough for the contract even though the inner tolerance
        # was not reached.
        status = "optimal"
    return SdpSolution(
        status=status,
        blocks=blocks,
        objective=pobj,
        dual=y,
        dual_objective=dobj,
        max_equality_residual=max_res,
        min_eigenvalues=min_eigs,
        relative_gap=gap_rel,
        iterations=it,
        linear=X[lin],
    )
