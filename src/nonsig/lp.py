"""Linear programming engine over a dense or a factored constraint matrix.

Two-phase revised primal simplex with bounded variables.  Pricing and the
ratio test are numpy operations over all columns and rows.  Pricing is
steepest edge (Goldfarb and Reid 1977; Forrest and Goldfarb 1992): among
the columns whose move off their bound lowers the objective, it enters the
one with the largest d_j^2 / gamma_j, where d is the reduced cost and
gamma_j = 1 + ||B^-1 a_j||^2 the squared length of the column's edge, the
first index among those within a relative ``_TIE_REL`` of it.  The weights
are computed from the basis at the start of each phase, one row block
of B^-1 A at a time in one work buffer of at most ``_WEIGHT_BLOCK`` bytes,
so that B^-1 A is never held whole and no block is a fresh array: blocks
large enough to be mapped from the OS cost hundreds of page faults per
solve.  At each basis change (column q enters at row r, w = B^-1 a_q) one
(2, m) x (m, n) product gives the pivot row alpha_r = e_r^T B^-1 A / w_r
and A^T B^-T w, and

    gamma_j <- max(gamma_j - 2 alpha_rj a_j^T B^-T w + alpha_rj^2 gamma_q,
                   1 + alpha_rj^2),
    gamma_leaving = max(gamma_q / w_r^2, 1),   d <- d - d_q alpha_r.

A bound flip changes neither.  d is recomputed at each refactorization,
and a phase ends optimal only on a recomputed d.  Among the rows that
block a step within ``_PIVOT_TOL`` of the shortest, the ratio test takes
the largest |w_i| (within ``_TIE_REL``), then the smallest variable index.
After ``_BLAND_AFTER`` consecutive degenerate pivots the engine prices by
Bland's rule (the first eligible column, the smallest blocking index)
until the next nondegenerate step, so it cannot cycle (Bland 1977).
``solve_lp`` can start from a given basis: when its matrix is
nonsingular and its basic values lie within their bounds, phase 1 is
skipped (the min-L1 LPs of ``bounds`` start this way from a crash basis);
otherwise the two phases run from the artificial basis as usual.  The
artificial columns are built only when phase 1 runs: an equality-only
program that skips it is solved on the caller's A_eq itself, read-only or
not, with no copy.  Only ``_Simplex.iterate`` changes a basis.  Phase 2
fixes every artificial at zero and leaves in place those still basic after
phase 1: each leaves at the first pivot whose column touches its row, and
one on a redundant equality row stays basic at zero.
Deterministic: a given program always takes the same pivot sequence.
Sizes here are desk-scale (hundreds of rows), so the basis inverse is kept
dense and refactorized periodically.  A singular basis matrix at a
refactorization, or finite data whose products overflow (a numerical
breakdown), ends the solve with status ``numerical-error`` instead of
raising ``LinAlgError`` or a floating-point warning.

The simplex reads its matrix A through three operations only, in numpy's
own syntax: a block of columns ``A[:, j]`` (one column for an int j, an
(m, k) array for a slice or index array), row-vector products ``Y @ A``
(also ``np.matmul(Y, A, out=...)``) and products ``A @ x``.  A dense array
implements them, and so does ``FactoredMatrix``: [K, -K | E] with
K = P (F (x) G) held as two small factors and a row order P, and E an
optional dense block.  A column of K is an outer product of one column of
each factor, Y @ K is F^T Y G with Y read through P, and A @ x reads only
the columns where x is nonzero.  The min-L1 LPs of ``bounds`` take their
vertex matrices in this form, so no array of their V vertices' m
coordinates exists: the engine's largest arrays are its vectors of length
2V.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-10
_DUAL_TOL = 1e-9
_FEAS_TOL = 1e-8
# Largest 1-norm condition estimate of a start basis matrix.
_COND_LIMIT = 1e10
# Consecutive degenerate pivots after which pricing switches from steepest
# edge to Bland's rule until the objective moves again.
_BLAND_AFTER = 50
# Relative band within which pricing and ratio-test scores tie.
_TIE_REL = 1e-9
# Bytes of the one work buffer that holds a row block of B^-1 A, and the sums
# so far, while the start weights are built.  It bounds memory on large LPs, and it keeps the
# buffer small enough that the allocator serves it from its heap: 512 KiB
# blocks, each product and its square a fresh array, were mapped from and
# returned to the OS on every solve, 220-370 minor page faults per 3x3x3x3
# nu_tilde or 6x6 nu_corr.  The bound is set by those faults, not by a
# cache size.
_WEIGHT_BLOCK = 1 << 16


class FactoredMatrix:
    """The m x n matrix [K, -K | E], or K alone, with K = P (F (x) G).

    F (``outer``, r1 x c1) and G (``inner``, r2 x c2) are dense factors:
    column c * c2 + d of F (x) G is the Kronecker product of F's column c
    and G's column d, and its row i * r2 + k is row ``rows[i * r2 + k]``
    of K (``rows`` None: the same row).  With ``negated`` the columns of
    -K follow those of K; ``extra``, a dense (m, e) block E, follows them.
    The simplex reads it as it reads a dense array (the module docstring):
    columns, ``Y @ A`` and ``A @ x``, each from the factors, with no m x n
    array.  A column of K is a product of two factor entries and a sign,
    so on factors of small integers the columns equal those of the dense
    matrix exactly.
    """

    def __init__(self, outer: np.ndarray, inner: np.ndarray, rows: np.ndarray | None = None,
                 negated: bool = False, extra: np.ndarray | None = None):
        self.outer, self.inner, self.rows = outer, inner, rows
        if not (np.isfinite(outer).all() and np.isfinite(inner).all()):
            raise ValueError("a factored matrix needs finite factors")
        m = outer.shape[0] * inner.shape[0]
        self.n_kron = outer.shape[1] * inner.shape[1]  # columns of K
        self._grid = (outer.shape[0], inner.shape[0])  # the rows of F (x) G
        self._cells = (outer.shape[1], inner.shape[1])  # the columns of K
        self._outer_T = np.ascontiguousarray(outer.T)
        # Entry r of column j of [K, -K] is _outer_cols[j // c2, r] *
        # _inner_cols[j % c2, r]: F's and G's columns with their entries
        # repeated in K's row order, one contiguous row each, F's followed by
        # their negations, so that a column is one product.
        order = np.arange(m) if rows is None else np.argsort(rows)
        outer_cols = outer[order // inner.shape[0]].T
        self._outer_cols = np.concatenate([outer_cols, -outer_cols])
        self._inner_cols = np.ascontiguousarray(inner[order % inner.shape[0]].T)
        self._set_columns(negated, extra)

    def _set_columns(self, negated: bool, extra: np.ndarray | None):
        m = self._inner_cols.shape[1]
        if extra is not None and not (extra.shape[0] == m and np.isfinite(extra).all()):
            raise ValueError(f"the extra block needs {m} rows of finite entries")
        self.negated, self.extra = negated, extra
        self.n_factored = 2 * self.n_kron if negated else self.n_kron
        self.shape = (m, self.n_factored + (0 if extra is None else extra.shape[1]))

    def _sharing_factors(self, negated: bool, extra: np.ndarray | None) -> FactoredMatrix:
        """[K, -K | extra] (``negated``) or [K | extra] of this K, sharing its
        factor arrays."""
        new = copy.copy(self)
        new._set_columns(negated, extra)
        return new

    def split(self, extra: np.ndarray | None = None) -> FactoredMatrix:
        """[K, -K | extra] of this K."""
        return self._sharing_factors(True, extra)

    def unsplit(self) -> FactoredMatrix:
        """[K | E] of this [K, -K | E]."""
        return self._sharing_factors(False, self.extra)

    def with_columns(self, block: np.ndarray) -> FactoredMatrix:
        """This matrix with the dense columns ``block`` appended."""
        extra = block if self.extra is None else np.hstack([self.extra, block])
        return self._sharing_factors(self.negated, extra)

    def __getitem__(self, key) -> np.ndarray:
        """``A[:, j]``: column j (an int), or the columns j (a slice, an
        index array or a boolean mask) as a new (m, k) array."""
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] == slice(None)):
            raise IndexError("a factored matrix is read by whole columns, A[:, j]")
        j = key[1]
        if isinstance(j, (int, np.integer)):
            if j >= self.n_factored:
                return self.extra[:, j - self.n_factored]
            c, d = divmod(int(j), self._cells[1])
            return self._outer_cols[c] * self._inner_cols[d]
        if isinstance(j, slice):
            j = np.arange(*j.indices(self.shape[1]))
        j = np.asarray(j)
        if j.dtype == bool:
            j = np.flatnonzero(j)
        if self.extra is None:
            return self._kron_columns(j)
        in_kron = j < self.n_factored
        if in_kron.all():
            return self._kron_columns(j)
        out = np.empty((self.shape[0], j.size))
        out[:, in_kron] = self._kron_columns(j[in_kron])
        out[:, ~in_kron] = self.extra[:, j[~in_kron] - self.n_factored]
        return out

    def _kron_columns(self, j: np.ndarray) -> np.ndarray:
        c, d = np.divmod(j, self._cells[1])
        return (self._outer_cols[c] * self._inner_cols[d]).T

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        """Y @ A and np.matmul(Y, A, out=...) for Y of shape (m,) or (k, m):
        F^T Y G on K's columns, with Y's entries in the order of F (x) G's
        rows."""
        if ufunc is not np.matmul or method != "__call__" or kwargs or inputs[1] is not self:
            return NotImplemented
        Y = np.asarray(inputs[0], dtype=float)
        lead = Y.shape[:-1]
        Yk = Y if self.rows is None else Y[self.rows] if Y.ndim == 1 else Y[:, self.rows]
        YG = Yk.reshape(*lead, *self._grid) @ self.inner
        if out is None and self.shape[1] == self.n_kron:
            return (self._outer_T @ YG).reshape(*lead, -1)
        out = np.empty((*lead, self.shape[1])) if out is None else out[0]
        K = out[..., :self.n_kron]
        # Splitting K's last axis in two is always a view of out.
        np.matmul(self._outer_T, YG, out=K.reshape(*lead, *self._cells))
        if self.negated:
            np.negative(K, out=out[..., self.n_kron:self.n_factored])
        if self.extra is not None:
            np.matmul(Y, self.extra, out=out[..., self.n_factored:])
        return out

    def __matmul__(self, x) -> np.ndarray:
        """A @ x for a vector x, from the columns where x is nonzero."""
        x = np.asarray(x, dtype=float)
        head = x[:self.n_factored]
        nonzero = np.flatnonzero(head)
        out = self[:, nonzero] @ head[nonzero] if nonzero.size else np.zeros(self.shape[0])
        if self.extra is not None:
            out += self.extra @ x[self.n_factored:]
        return out


@dataclass
class LinearProgram:
    """minimize c @ v  s.t.  A_eq v = b_eq,  A_ub v <= b_ub,  lb <= v <= ub.

    Lower bounds default to 0 and must be finite; upper bounds may be
    +inf, and lb == ub fixes a variable.  All other data must be finite.
    Free variables are handled by the caller via the split v = v+ - v-.
    A_eq may be a ``FactoredMatrix`` (which checks its own entries) when
    there is no A_ub.
    """

    c: np.ndarray
    A_eq: np.ndarray | FactoredMatrix | None = None
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
                if not isinstance(A, FactoredMatrix):
                    A = np.atleast_2d(np.asarray(A, dtype=float))
                elif name == "A_ub" or self.A_ub is not None:
                    raise ValueError("a factored matrix is taken only as A_eq, without A_ub")
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
        if not np.all(self.ub >= self.lb):
            raise ValueError("some upper bound is NaN or below its lower bound")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("objective contains non-finite coefficients")
        # NaN propagates through min and max, so two reductions check
        # finiteness with no temporary the size of the matrix.
        for name in ("A_eq", "b_eq", "A_ub", "b_ub"):
            M = getattr(self, name)
            if (isinstance(M, np.ndarray)
                    and not np.isfinite([M.min(initial=0.0), M.max(initial=0.0)]).all()):
                raise ValueError(f"{name} contains non-finite entries")

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
    # Final basis: m column indices into the standard form (variables, then
    # ub slacks); None while any artificial is basic.
    basis: np.ndarray | None = None

    def record(self, name: str) -> dict:
        """What a bound reports of this solve; RuntimeError unless optimal."""
        if self.status != "optimal":
            raise RuntimeError(f"{name} LP returned {self.status}")
        return {"status": self.status, "iterations": self.iterations,
                "duality_gap": self.duality_gap}


class _Simplex:
    """Bounded-variable simplex state over A z = b, l <= z <= u."""

    def __init__(self, A, b, lo, up):
        self.A = A
        self.b = b
        self.lo = lo
        self.up = up
        self.m, self.n = A.shape
        self.basis = np.empty(0, dtype=int)  # basic variable of each row
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.at_upper = np.zeros(self.n, dtype=bool)  # nonbasic side
        self.Binv = None
        self.xB = None
        self.iterations = 0  # pivots and bound flips over all phases

    def refactor(self):
        B = self.A[:, self.basis]
        self.Binv = np.linalg.inv(B)
        self.recompute_xB()

    def recompute_xB(self):
        xN = self.nonbasic_values()
        xN[self.basis] = 0.0
        # With every nonbasic value 0 (as in the min-L1 LPs) the product
        # is 0 and b - 0 is b exactly, so it is skipped.
        rhs = self.b - self.A @ xN if xN.any() else self.b
        self.xB = self.Binv @ rhs

    def nonbasic_values(self):
        return np.where(self.at_upper, self.up, self.lo)

    def solution(self):
        x = self.nonbasic_values()
        x[self.basis] = self.xB
        return x

    def pivot(self, pos, entering, w):
        """Column ``entering`` (with w = Binv A[:, entering]) replaces the
        basic variable of row ``pos``: product-form update of Binv."""
        self.in_basis[self.basis[pos]] = False
        self.basis[pos] = entering
        self.in_basis[entering] = True
        row = self.Binv[pos, :] / w[pos]
        self.Binv -= w[:, None] * row
        self.Binv[pos, :] = row

    def reduced_costs(self, c):
        """d = c - c_B B^-1 A, from the current inverse."""
        return c - (c[self.basis] @ self.Binv) @ self.A

    def edge_weights(self):
        """gamma_j = 1 + ||B^-1 a_j||^2 = 1 + sum_i (e_i^T B^-1 A)_j^2 for
        every column, from one row block of B^-1 A at a time, each a product
        ``B^-1[rows] @ A``, in a work buffer of at most ``_WEIGHT_BLOCK``
        bytes (two rows when a row alone is larger).  The buffer's first row
        holds the sums so far, so a block is added into gamma with no
        temporary.  On a factored [K, -K | E] the columns of -K have K's
        weights, so the products run over [K | E] only."""
        A, twins = self.A, 0
        if isinstance(A, FactoredMatrix) and A.negated:
            A, twins = A.unsplit(), A.n_kron
        m, n = A.shape
        weights = np.ones(twins + n)
        gamma = weights[twins:]  # [-K | E] has [K | E]'s weights
        step = max(1, _WEIGHT_BLOCK // (8 * n) - 1)
        buf = np.empty((1 + min(step, m)) * n)
        for s in range(0, m, step):
            W = buf[:(1 + min(step, m - s)) * n].reshape(-1, n)
            W[0] = gamma
            np.matmul(self.Binv[s:s + step], A, out=W[1:])
            np.square(W[1:], out=W[1:])
            W.sum(axis=0, out=gamma)
        weights[:twins] = gamma[:twins]
        return weights

    def iterate(self, c, max_iter):
        """Run pivots for objective c.  Returns status string.

        A column is eligible when it is nonbasic, not fixed, and moving it off
        its bound lowers the objective by more than ``_DUAL_TOL`` per unit.
        Pricing, the weight and reduced-cost updates and the ratio test are
        those of the module docstring.  A basis change with a zero step is
        degenerate; once ``_BLAND_AFTER`` of them come in a row, Bland's rule
        prices until a nondegenerate pivot or a bound flip.
        """
        m, n, A, basis = self.m, self.n, self.A, self.basis
        lo, up, at_upper = self.lo, self.up, self.at_upper
        movable = lo != up
        # Signed score of each column: -1 at its lower bound, +1 at its
        # upper bound, 0 when basic or fixed, so that nsg * d is the
        # objective's rate of decrease when the column moves off its bound.
        nsg = np.where(at_upper, 1.0, -1.0)
        nsg[~movable | self.in_basis] = 0.0
        lo_B, up_B = lo[basis], up[basis]
        up_B_finite = np.isfinite(up_B)
        d = self.reduced_costs(c)
        fresh = True  # d was computed from B^-1, not updated
        gamma = self.edge_weights()
        score, ratio, prod = np.empty(n), np.empty(n), np.empty((2, n))
        dw, t_rows, rows = np.empty(m), np.empty(m), np.empty((2, m))
        degenerate = 0  # consecutive degenerate pivots
        for it in range(max_iter):
            if it % 64 == 63:
                self.refactor()
                d = self.reduced_costs(c)
                fresh = True
            Binv = self.Binv
            bland = degenerate >= _BLAND_AFTER
            while True:
                np.multiply(nsg, d, out=score)
                eligible = score > _DUAL_TOL
                if bland:
                    entering = eligible.argmax()
                else:
                    np.multiply(d, d, out=ratio)
                    ratio /= gamma
                    ratio *= eligible
                    # The band keeps rounding (which varies with the BLAS
                    # thread count) from choosing among equal columns.
                    best = ratio[ratio.argmax()]
                    entering = (ratio >= best - _TIE_REL * best).argmax()
                if eligible[entering] or fresh:
                    break
                d = self.reduced_costs(c)
                fresh = True
            if not eligible[entering]:
                return "optimal"
            direction = -1.0 if at_upper[entering] else 1.0
            w = Binv @ A[:, entering]
            # Ratio test: basic vars move by -t*direction*w; a row blocks
            # when its variable falls to its lower or rises to its upper bound.
            np.multiply(w, direction, out=dw)
            to_lower = dw > _PIVOT_TOL
            to_upper = dw < -_PIVOT_TOL
            to_upper &= up_B_finite
            t_rows.fill(np.inf)
            np.divide(self.xB - lo_B, dw, out=t_rows, where=to_lower)
            np.divide(self.xB - up_B, dw, out=t_rows, where=to_upper)
            # A basic variable just outside its bound blocks at once.
            np.maximum(t_rows, 0.0, out=t_rows)
            t_row = t_rows[t_rows.argmin()]
            t_flip = up[entering] - lo[entering]
            if not math.isfinite(min(t_row, t_flip)):
                return "unbounded"
            self.iterations += 1
            if t_flip < t_row - _PIVOT_TOL:
                # Bound flip of the entering variable, no basis change.
                at_upper[entering] = not at_upper[entering]
                nsg[entering] = -nsg[entering]
                self.xB -= (t_flip * direction) * w
                degenerate = 0
                continue
            degenerate = degenerate + 1 if t_row <= _PIVOT_TOL else 0
            ties = (t_rows <= t_row + _PIVOT_TOL).nonzero()[0]
            if ties.size > 1:
                if not bland:
                    # The largest pivot element among the blocking rows.
                    size = np.abs(w[ties])
                    ties = ties[size >= size[size.argmax()] * (1.0 - _TIE_REL)]
                leave_pos = ties[basis[ties].argmin()]
            else:
                leave_pos = ties[0]
            leaving = basis[leave_pos]
            self.xB -= (t_row * direction) * w
            enter_val = (up[entering] if at_upper[entering] else lo[entering]) \
                + direction * t_row
            at_upper[leaving] = to_upper[leave_pos]
            nsg[leaving] = (1.0 if to_upper[leave_pos] else -1.0) if movable[leaving] else 0.0
            nsg[entering] = 0.0
            lo_B[leave_pos], up_B[leave_pos] = lo[entering], up[entering]
            up_B_finite[leave_pos] = math.isfinite(up[entering])
            # The pivot row alpha_r = e_r^T B^-1 A / w_r and, from the same
            # product, alpha_r * gamma_q - 2 A^T B^-T w; then the Goldfarb-Reid
            # updates gamma_j = max(gamma_j + alpha_rj * (alpha_rj * gamma_q
            # - 2 a_j^T B^-T w), 1 + alpha_rj^2) and d -= d_q * alpha_r.
            w_r = w[leave_pos]
            gamma_q = 1.0 + w @ w
            np.divide(Binv[leave_pos], w_r, out=rows[0])
            np.matmul(-2.0 * w, Binv, out=rows[1])
            rows[1] += gamma_q * rows[0]
            np.matmul(rows, A, out=prod)
            alpha, tmp = prod
            tmp *= alpha
            gamma += tmp
            np.multiply(alpha, alpha, out=tmp)
            tmp += 1.0
            np.maximum(gamma, tmp, out=gamma)
            gamma[leaving] = max(gamma_q / (w_r * w_r), 1.0)
            alpha *= d[entering]
            d -= alpha
            d[entering] = 0.0
            fresh = False
            self.pivot(leave_pos, entering, w)
            self.xB[leave_pos] = enter_val
        return "iteration-limit"


def solve_lp(prog: LinearProgram, start_basis=None) -> LpSolution:
    """Solve with two-phase simplex; returns primal, duals, and gap.

    ``start_basis`` names m columns of the standard form: the variables,
    then one slack per ``A_ub`` row (index ``n_vars + i`` for row i).  The
    nonbasic variables start at their lower bounds.  If the basis matrix
    is nonsingular and the basic values lie within their bounds, phase 1
    is skipped and phase 2 starts from that basis; otherwise the solve is
    the same as without a start.  An optimal solution's ``basis`` (None
    while an artificial is still basic, at zero: always so when an
    equality row is redundant) restarts its program in 0 pivots unless a
    nonbasic variable of that optimum sits at its upper bound.
    """
    n = prog.n_vars
    m_eq, m_ub = prog.n_eq, prog.n_ub
    m = m_eq + m_ub
    first_art = n + m_ub
    if start_basis is not None:
        start_basis = _check_start(prog, start_basis, m)
    if m == 0:
        # Pure bound minimization.
        x = np.where(prog.c >= 0, prog.lb, prog.ub)
        if not np.all(np.isfinite(x)):
            return LpSolution(status="unbounded")
        obj = float(prog.c @ x)
        return LpSolution("optimal", x, np.array([]), np.array([]), obj, 0.0, 0)

    # The standard form's matrix A: the caller's A_eq itself when there are
    # no inequality rows, else [A_eq 0; A_ub I], written into an array with
    # room for the artificial columns that phase 1 appends.
    if m_ub:
        A_full = np.zeros((m, first_art + m))
        A = A_full[:, :first_art]
        if m_eq:
            A[:m_eq, :n] = prog.A_eq
        A[m_eq:, :n] = prog.A_ub
        A[m_eq + np.arange(m_ub), n + np.arange(m_ub)] = 1.0
    else:
        A_full, A = None, prog.A_eq
    b = np.concatenate([prog.b_eq if m_eq else np.empty(0),
                        prog.b_ub if m_ub else np.empty(0)])
    lo = np.concatenate([prog.lb, np.zeros(m_ub)])
    up = np.concatenate([prog.ub, np.full(m_ub, np.inf)])
    limit = 50 * (2 * m + first_art)  # pivots per phase
    scale = 1.0 + float(np.abs(b).max(initial=0.0))

    sx = _Simplex(A, b, lo, up)
    try:
        # Finite data whose products overflow is a breakdown too: no
        # floating-point warning leaves the engine.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if start_basis is None or not _start_from(sx, start_basis, scale):
                sx = _artificial_start(A, A_full, b, lo, up)
                status = _phase_one(sx, first_art, limit, scale)
                if status is not None:
                    return LpSolution(status, iterations=sx.iterations)
            return _phase_two(prog, sx, A, limit, scale)
    except (np.linalg.LinAlgError, FloatingPointError):
        # A singular basis matrix at a refactorization, or an overflow: the
        # engine broke down, which is a status for the caller, not an
        # exception.
        return LpSolution("numerical-error", iterations=sx.iterations)


def _check_start(prog: LinearProgram, basis, m: int) -> np.ndarray:
    """The start basis as an int array; ValueError unless it holds m
    distinct column indices of the standard form."""
    n_cols = prog.n_vars + prog.n_ub
    basis = np.asarray(basis)
    if basis.ndim != 1 or (basis.size and not np.issubdtype(basis.dtype, np.integer)):
        raise ValueError("start_basis must be a list of column indices")
    if basis.size and not (0 <= basis.min() and basis.max() < n_cols):
        raise ValueError(f"start_basis indices must lie in [0, {n_cols})")
    basis = basis.astype(int)
    if basis.size != m:
        raise ValueError(f"start_basis needs {m} column indices, got {basis.size}")
    chosen = np.zeros(n_cols, dtype=bool)
    chosen[basis] = True
    if np.count_nonzero(chosen) != m:
        raise ValueError("start_basis repeats a column")
    return basis


def _start_from(sx: _Simplex, basis: np.ndarray, scale: float) -> bool:
    """Put ``sx`` at the start basis ``basis`` with every nonbasic column at
    its lower bound.

    Returns whether that start is usable: a well-conditioned basis matrix
    whose basic values lie within their bounds to ``_FEAS_TOL * scale``.
    If not, ``sx`` is dropped and phase 1 starts from the artificial basis.
    """
    B = sx.A[:, basis]
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return False
    cond = np.abs(B).sum(axis=0).max() * np.abs(Binv).sum(axis=0).max()
    if not cond <= _COND_LIMIT:  # also refuses a non-finite inverse
        return False
    sx.basis = basis
    sx.in_basis[basis] = True
    sx.Binv = Binv
    sx.recompute_xB()
    tol = _FEAS_TOL * scale
    return bool(np.all(sx.xB >= sx.lo[basis] - tol) and np.all(sx.xB <= sx.up[basis] + tol))


def _artificial_start(A: np.ndarray | FactoredMatrix, A_full: np.ndarray | None,
                      b: np.ndarray, lo: np.ndarray, up: np.ndarray) -> _Simplex:
    """The simplex over [A D] at the artificial basis D, every other column
    at its lower bound.

    D is the signed identity whose signs make the basic values
    |b - A lo| >= 0.  It is written into the last m columns of ``A_full``,
    whose first columns already hold A, or, when ``A_full`` is None (A is
    then the caller's A_eq), into a new copy of A: the one copy of A_eq an
    equality-only solve makes, and only when phase 1 runs.  A factored A
    is not copied: D joins its dense block (``FactoredMatrix.with_columns``).
    The start needs no check: D is its own inverse, and the values are
    finite because the data is and an overflow raises.
    """
    m, n = A.shape
    resid = b - A @ lo if lo.any() else b
    arts = n + np.arange(m)
    signs = np.where(resid >= 0, 1.0, -1.0)
    if isinstance(A, FactoredMatrix):
        A_full = A.with_columns(np.diag(signs))
    else:
        if A_full is None:
            A_full = np.zeros((m, n + m))
            A_full[:, :n] = A
        A_full[np.arange(m), arts] = signs
    sx = _Simplex(A_full, b, np.concatenate([lo, np.zeros(m)]),
                  np.concatenate([up, np.full(m, np.inf)]))
    sx.basis = arts
    sx.in_basis[arts] = True
    sx.Binv = np.linalg.inv(A_full[:, arts])  # D, exactly
    sx.xB = sx.Binv @ resid
    return sx


def _phase_one(sx: _Simplex, first_art: int, limit: int, scale: float) -> str | None:
    """Phase 1 from the artificial basis (``_artificial_start``: the columns
    of ``sx`` from ``first_art`` on).  Returns a failure status, or None
    when a feasible basis is found."""
    # Minimize artificial mass.
    c1 = np.zeros(sx.n)
    c1[first_art:] = 1.0
    if sx.iterate(c1, limit) == "iteration-limit":
        return "iteration-limit"
    sx.refactor()
    art_rows = np.flatnonzero(sx.basis >= first_art)
    art_mass = sum(sx.xB[art_rows])  # in row order, as a running sum
    if art_mass > _FEAS_TOL * scale:
        return "infeasible"
    return None


def _phase_two(prog: LinearProgram, sx: _Simplex, A: np.ndarray, limit: int,
               scale: float) -> LpSolution:
    """Phase 2 from the primal-feasible basis in ``sx``, then the duals, the
    gap and the residual checks."""
    n, m_eq = prog.n_vars, prog.n_eq
    b, first_art = sx.b, A.shape[1]

    # Every artificial is fixed at zero.  One still basic blocks at step 0
    # and leaves at the first pivot whose column touches its row; on a
    # redundant equality row it stays basic at zero.
    sx.up[first_art:] = 0.0

    c = np.concatenate([prog.c, np.zeros(sx.n - n)])
    status = sx.iterate(c, limit)
    iters = sx.iterations
    if status != "optimal":
        return LpSolution(status, iterations=iters)

    sx.refactor()
    x_full = sx.solution()
    x = x_full[:n]
    y = c[sx.basis] @ sx.Binv
    d = c - y @ sx.A
    obj = float(prog.c @ x)

    # Dual objective with bound terms from nonbasic reduced costs (fixed
    # columns too), added left to right in column order.
    vals = x_full[:first_art]
    at_bound = ~sx.in_basis[:first_art] & (vals != 0.0)
    terms = d[:first_art][at_bound] * vals[at_bound]
    dual_obj = np.add.accumulate(np.append(y @ b, terms))[-1]
    gap = abs(obj - float(dual_obj))
    basis = sx.basis.copy() if sx.basis.max() < first_art else None

    # Primal feasibility residual check.
    resid = float(np.abs(A @ x_full[:first_art] - b).max(initial=0.0))
    if resid > _FEAS_TOL * scale or gap > 1e-7 * (1.0 + abs(obj)):
        # Refuse to report a sloppy optimum as optimal.
        return LpSolution("iteration-limit", x, y[:m_eq], y[m_eq:], obj, gap, iters, basis)

    return LpSolution("optimal", x, y[:m_eq].copy(), y[m_eq:].copy(), obj, gap, iters, basis)
