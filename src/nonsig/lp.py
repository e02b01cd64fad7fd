"""Dense linear programming engine.

Two-phase revised primal simplex with Bland's anti-cycling rule and
bounded variables.  Deterministic: a given program always takes the same
pivot sequence.  Sizes here are desk-scale (hundreds of rows), so the
basis inverse is kept dense and refactorized periodically.  A singular
basis matrix at a refactorization (a numerical breakdown) ends the solve
with status ``numerical-error`` instead of raising ``LinAlgError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_PIVOT_TOL = 1e-10
_DUAL_TOL = 1e-9
_FEAS_TOL = 1e-8


@dataclass
class LinearProgram:
    """minimize c @ v  s.t.  A_eq v = b_eq,  A_ub v <= b_ub,  lb <= v <= ub.

    Lower bounds default to 0 and must be finite; upper bounds may be
    +inf.  Free variables are handled by the caller via the usual split
    v = v+ - v-.
    """

    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lb: np.ndarray | float = 0.0
    ub: np.ndarray | float = np.inf

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        n = self.c.size
        for name in ("A_eq", "A_ub"):
            A = getattr(self, name)
            if A is not None:
                A = np.atleast_2d(np.asarray(A, dtype=float))
                if A.shape[1] != n:
                    raise ValueError(f"{name} has {A.shape[1]} columns, expected {n}")
                setattr(self, name, A)
        for Aname, bname in (("A_eq", "b_eq"), ("A_ub", "b_ub")):
            A, b = getattr(self, Aname), getattr(self, bname)
            if (A is None) != (b is None):
                raise ValueError(f"{Aname} and {bname} must be given together")
            if b is not None:
                b = np.asarray(b, dtype=float).reshape(-1)
                if b.size != A.shape[0]:
                    raise ValueError(f"{bname} length {b.size} != {A.shape[0]} rows")
                setattr(self, bname, b)
        self.lb = np.broadcast_to(np.asarray(self.lb, dtype=float), (n,)).copy()
        self.ub = np.broadcast_to(np.asarray(self.ub, dtype=float), (n,)).copy()
        if not np.all(np.isfinite(self.lb)):
            raise ValueError("lower bounds must be finite (split free variables)")
        if np.any(self.ub < self.lb):
            raise ValueError("some upper bound is below its lower bound")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("objective contains non-finite coefficients")
        for A in (self.A_eq, self.A_ub):
            if A is not None and not np.all(np.isfinite(A)):
                raise ValueError("constraint matrix contains non-finite coefficients")

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_eq(self) -> int:
        return 0 if self.A_eq is None else self.A_eq.shape[0]

    @property
    def n_ub(self) -> int:
        return 0 if self.A_ub is None else self.A_ub.shape[0]


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | iteration-limit | numerical-error
    x: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    dual_ub: np.ndarray | None = None
    objective: float = np.nan
    duality_gap: float = np.nan
    iterations: int = 0

    @property
    def dual(self) -> np.ndarray:
        """Multipliers, equality rows first then inequality rows."""
        parts = [d for d in (self.dual_eq, self.dual_ub) if d is not None]
        return np.concatenate(parts) if parts else np.array([])


class _Simplex:
    """Bounded-variable simplex state over A z = b, l <= z <= u."""

    def __init__(self, A, b, lo, up):
        self.A = A
        self.b = b
        self.lo = lo
        self.up = up
        self.m, self.n = A.shape
        self.basis: list[int] = []
        self.at_upper = np.zeros(self.n, dtype=bool)  # nonbasic side
        self.Binv = None
        self.xB = None
        self.iterations = 0  # pivots and bound flips over all phases

    def set_basis(self, basis):
        self.basis = list(basis)
        self.refactor()

    def refactor(self):
        B = self.A[:, self.basis]
        self.Binv = np.linalg.inv(B)
        self.recompute_xB()

    def recompute_xB(self):
        xN = self.nonbasic_values()
        nonbasic = [j for j in range(self.n) if j not in set(self.basis)]
        rhs = self.b - self.A[:, nonbasic] @ xN[nonbasic]
        self.xB = self.Binv @ rhs

    def nonbasic_values(self):
        x = np.where(self.at_upper, self.up, self.lo)
        return x

    def solution(self):
        x = self.nonbasic_values()
        x[self.basis] = self.xB
        return x

    def iterate(self, c, max_iter):
        """Run Bland-rule pivots for objective c.  Returns status string."""
        in_basis = np.zeros(self.n, dtype=bool)
        in_basis[self.basis] = True
        for it in range(max_iter):
            if it % 64 == 63:
                self.refactor()
            y = c[self.basis] @ self.Binv
            d = c - y @ self.A
            entering = -1
            direction = 0.0
            for j in range(self.n):
                if in_basis[j] or self.lo[j] == self.up[j]:
                    continue
                if not self.at_upper[j] and d[j] < -_DUAL_TOL:
                    entering, direction = j, 1.0
                    break
                if self.at_upper[j] and d[j] > _DUAL_TOL:
                    entering, direction = j, -1.0
                    break
            if entering < 0:
                return "optimal"
            w = self.Binv @ self.A[:, entering]
            # Ratio test: basic vars move by -t*direction*w.
            t_flip = self.up[entering] - self.lo[entering]
            candidates = []  # (t, leaving var index, basis position, hits upper)
            for i in range(self.m):
                bi = self.basis[i]
                dw = direction * w[i]
                if dw > _PIVOT_TOL:
                    t = max((self.xB[i] - self.lo[bi]) / dw, 0.0)
                    candidates.append((t, bi, i, False))
                elif dw < -_PIVOT_TOL and np.isfinite(self.up[bi]):
                    t = max((self.up[bi] - self.xB[i]) / (-dw), 0.0)
                    candidates.append((t, bi, i, True))
            t_row = min([t for t, *_ in candidates], default=np.inf)
            if not np.isfinite(min(t_row, t_flip)):
                return "unbounded"
            self.iterations += 1
            if t_flip < t_row - _PIVOT_TOL:
                leave_pos = -1  # bound flip, no basis change
                leave_to_upper = False
                t = t_flip
            else:
                # Bland tie-break: smallest variable index among blocking rows.
                ties = [(bi, i, hu) for t, bi, i, hu in candidates if t <= t_row + _PIVOT_TOL]
                _, leave_pos, leave_to_upper = min(ties)
                t = t_row
            if leave_pos < 0:
                # Bound flip of the entering variable.
                self.at_upper[entering] = not self.at_upper[entering]
                self.xB -= t * direction * w
                continue
            # Pivot: entering replaces basis[leave_pos].
            self.xB -= t * direction * w
            enter_val = (self.up[entering] if self.at_upper[entering] else self.lo[entering]) \
                + direction * t
            old = self.basis[leave_pos]
            in_basis[old] = False
            self.at_upper[old] = leave_to_upper
            self.basis[leave_pos] = entering
            in_basis[entering] = True
            self.xB[leave_pos] = enter_val
            # Product-form update of Binv.
            piv = w[leave_pos]
            row = self.Binv[leave_pos, :] / piv
            self.Binv -= np.outer(w, row)
            self.Binv[leave_pos, :] = row
        return "iteration-limit"


def solve_lp(prog: LinearProgram, max_iter: int | None = None) -> LpSolution:
    """Solve with two-phase simplex; returns primal, duals, and gap."""
    n = prog.n_vars
    m_eq, m_ub = prog.n_eq, prog.n_ub
    m = m_eq + m_ub
    if m == 0:
        # Pure bound minimization.
        x = np.where(prog.c >= 0, prog.lb, prog.ub)
        if not np.all(np.isfinite(x)):
            return LpSolution(status="unbounded")
        obj = float(prog.c @ x)
        return LpSolution("optimal", x, np.array([]), np.array([]), obj, 0.0, 0)

    # Standard form: columns = [vars | ub slacks | artificials].
    rows = []
    if m_eq:
        rows.append(np.hstack([prog.A_eq, np.zeros((m_eq, m_ub))]))
    if m_ub:
        rows.append(np.hstack([prog.A_ub, np.eye(m_ub)]))
    A = np.vstack(rows)
    b = np.concatenate([prog.b_eq if m_eq else np.empty(0),
                        prog.b_ub if m_ub else np.empty(0)])
    lo = np.concatenate([prog.lb, np.zeros(m_ub)])
    up = np.concatenate([prog.ub, np.full(m_ub, np.inf)])

    # Artificials with signs making their start value nonnegative.
    resid = b - A @ lo
    signs = np.where(resid >= 0, 1.0, -1.0)
    A_full = np.hstack([A, np.diag(signs)])
    lo_full = np.concatenate([lo, np.zeros(m)])
    up_full = np.concatenate([up, np.full(m, np.inf)])
    limit = max_iter if max_iter is not None else 50 * (m + A_full.shape[1])

    sx = _Simplex(A_full, b, lo_full, up_full)
    try:
        return _two_phase(prog, sx, A, limit)
    except np.linalg.LinAlgError:
        # A singular basis matrix at a refactorization: the engine broke
        # down, which is a status for the caller, not an exception.
        return LpSolution("numerical-error", iterations=sx.iterations)


def _two_phase(prog: LinearProgram, sx: _Simplex, A: np.ndarray, limit: int) -> LpSolution:
    """Phase 1 from the artificial basis (the columns of ``sx`` after A's),
    then phase 2 for prog.c."""
    n, m_eq, m_ub = prog.n_vars, prog.n_eq, prog.n_ub
    b, m, n_total = sx.b, sx.m, sx.n
    art = list(range(n + m_ub, n_total))
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    sx.set_basis(art)

    # Phase 1: minimize artificial mass.
    c1 = np.zeros(n_total)
    c1[art] = 1.0
    if sx.iterate(c1, limit) == "iteration-limit":
        return LpSolution("iteration-limit", iterations=sx.iterations)
    sx.refactor()
    art_set = set(art)
    art_mass = sum(sx.xB[i] for i, j in enumerate(sx.basis) if j in art_set)
    if art_mass > _FEAS_TOL * scale:
        return LpSolution("infeasible", iterations=sx.iterations)

    # Drive artificials out of the basis where possible; freeze the rest
    # (their rows are redundant equalities).
    for i in range(sx.m):
        j = sx.basis[i]
        if j not in art_set:
            continue
        alphas = sx.Binv[i, :] @ sx.A[:, : n + m_ub]
        replaced = False
        for k in np.argsort(-np.abs(alphas)):
            k = int(k)
            if abs(alphas[k]) < 1e-7 or k in set(sx.basis):
                continue
            w = sx.Binv @ sx.A[:, k]
            piv = w[i]
            if abs(piv) < 1e-7:
                continue
            enter_val = sx.up[k] if sx.at_upper[k] else sx.lo[k]
            sx.basis[i] = k
            row = sx.Binv[i, :] / piv
            sx.Binv -= np.outer(w, row)
            sx.Binv[i, :] = row
            sx.recompute_xB()
            replaced = True
            break
        if not replaced:
            sx.up[j] = 0.0  # inert artificial pins a redundant row

    # Any nonbasic artificial must stay at zero.
    for j in art:
        if j not in set(sx.basis):
            sx.up[j] = 0.0
            sx.at_upper[j] = False

    # Phase 2.
    c2 = np.concatenate([prog.c, np.zeros(m_ub + m)])
    status = sx.iterate(c2, limit)
    iters = sx.iterations
    if status != "optimal":
        return LpSolution(status, iterations=iters)

    sx.refactor()
    x_full = sx.solution()
    x = x_full[:n]
    y = c2[sx.basis] @ sx.Binv
    d = c2 - y @ sx.A
    obj = float(prog.c @ x)

    # Dual objective with bound terms from nonbasic reduced costs.
    basic = set(sx.basis)
    dual_obj = float(y @ b)
    for j in range(n + m_ub):
        if j in basic or sx.lo[j] == sx.up[j]:
            continue
        val = sx.up[j] if sx.at_upper[j] else sx.lo[j]
        if val != 0.0:
            dual_obj += d[j] * val
    gap = abs(obj - dual_obj)

    # Primal feasibility residual check.
    resid = float(np.abs(A @ x_full[: n + m_ub] - b).max(initial=0.0)) if m else 0.0
    if resid > _FEAS_TOL * scale or gap > 1e-7 * (1.0 + abs(obj)):
        # Refuse to report a sloppy optimum as optimal.
        return LpSolution("iteration-limit", x, y[:m_eq], y[m_eq:], obj, gap, iters)

    return LpSolution("optimal", x, y[:m_eq].copy(), y[m_eq:].copy(), obj, gap, iters)
