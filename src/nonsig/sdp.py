"""Small dense semidefinite programming engine.

Solves  min sum_j <C_j, X_j> + c.x  s.t.  sum_j <A_ij, X_j> + a_i.x = b_i,
X_j >= 0 (PSD), x >= 0, over symmetric matrix blocks X_j plus one optional
nonnegative linear block x (SDPT3's mixed ``s``/``l`` blocks), via an
infeasible-start primal-dual interior-point method (HKM direction, which
on x is the diagonal x/s scaling of linear programming).  Intended for
the small moment-matrix problems in this package: a program that a solve
could need more than 512 MiB for (``_solve_bytes``, counted from its
shapes) is refused with ``ResourceLimitError`` when it is made, before
its arrays are built.  The
returned residuals, per-block minimum eigenvalues and linear block let
callers verify the solution independently of the algorithm.

An ``SdpProgram`` holds the objective and the right-hand sides as dense
vectors and, from its first constraint on, the constraint matrix A as its
nonzeros only, in row-major order (SDPA's sparse storage).  Its
``add_constraint`` takes a whole stack of constraints in one call and
keeps each block's nonzeros, put in row order by a count of each row's
nonzeros in each block; ``SdpProgram.A`` makes a dense, read-only copy on
request, which no build or solve makes.  Its PSD part is k >= 1 blocks of
one size d (every program the package builds: two d x d moment blocks, or
one Gram block); any other shape is refused with ``ValueError`` when the
program is made.

The engine compiles a program's constraints once (``_Compiled``), from
those nonzeros: the nonzeros themselves, the rows that touch a PSD block,
two dense layouts of those rows' PSD coefficients, each written from the
nonzeros by index, and the pairs of the linear block's nonzeros that
share a column.  A program that many calls share is frozen
(``SdpProgram.freeze``): its arrays turn read-only, it takes no more
constraints, and it keeps its constraints in compiled form only, which
each call's program (``with_data``: its own right-hand side and
objective) reuses; any other program is compiled at each solve.  The PSD
blocks are one (k, d, d) stack.  A v, A^T w, the Schur right-hand side
and the linear block's Schur term are one ``numpy.bincount`` each over
the compiled nonzeros, which adds in its input's order on one thread.
BLAS does the rest: two batched products and one over all blocks for the
PSD blocks' Schur term, which only the rows that touch a PSD block enter
(the coarsest grain of SDPA's sparse Schur assembly: Fujisawa, Kojima and
Nakata, Math. Programming 79, 1997), the batched d x d products, and five
``numpy.linalg`` calls an iteration: an inverse of S, a Cholesky, an
inverse and an ``eigvalsh`` for both step lengths, and the m x m Schur
solve.  The Schur complement and its symmetrized copy sit in two buffers
that every iteration reuses, and that first hold the PSD blocks' two
products, so a solve holds no other array of that size but the copy the
Schur solve factors.

A run stops at the inner tolerance (``optimal``), on a diverging dual
(``infeasible``), on a numerical breakdown inside an iteration (a Cholesky
or inverse of an iterate that has lost definiteness, or a singular Schur
complement), after 500 iterations, or once a best iterate that meets the
residual and gap parts of the contract has not been improved on for
``_PATIENCE`` iterations (near a rank-deficient optimum the iterates drift
away from the best one toward the breakdown).  Each run returns one
recorded iterate: the current one at the first two stops, else the best by
the largest of its primal residual, dual residual and relative gap, which
is ``optimal`` exactly when it meets the contract (residual <= 1e-6,
relative gap <= 1e-5, minimum eigenvalue or linear entry >= -1e-7), and
else ``numerical-error`` after a breakdown, ``max-iterations`` otherwise.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ResourceLimitError, is_integer

_MAX_ITER, _TOL = 500, 1e-9  # iteration limit, inner tolerance
# The bytes a solve may hold (``_solve_bytes``); a larger program is refused.
_BYTE_CAP = 512 * 2**20
LINEAR = "lin"  # key of the nonnegative linear block in coefficient dicts
# The contract a returned "optimal" iterate meets: equality residual, relative
# duality gap, and smallest eigenvalue of a PSD block or entry of the linear block.
_RES_OK, _GAP_OK, _EIG_OK = 1e-6, 1e-5, -1e-7
# Iterations without a better merit after which a best iterate that meets the
# contract ends the run.  Runs that go on to the inner tolerance were seen to
# stall for up to 3.
_PATIENCE = 5
# Fraction of the distance to the cone's boundary that a step goes.
_TAU = 0.98


class SdpProgram:
    """Block-diagonal SDP in equality form, held as the arrays the engine solves.

    An iterate is one vector ``[vec X_0, ..., vec X_k, x]``, and ``span[j]``
    is block j's slice of it (``span[LINEAR]`` the linear block's).  In that
    layout ``c`` is the objective, row i of ``A`` is constraint i and ``b``
    holds the right-hand sides.  Coefficient dicts map a block index to a
    matrix (symmetrized on entry) and ``LINEAR`` to a vector; missing blocks
    cost 0.  Sizes and block indices are Python or numpy integers, not bools
    or floats.  Bad input raises ``ValueError`` when it is given.
    """

    def __init__(self, block_dims, n_linear: int = 0):
        dims = list(block_dims)
        if (not all(map(is_integer, [*dims, n_linear])) or len(set(dims)) != 1 or dims[0] < 1
                or n_linear < 0):
            raise ValueError("expected k >= 1 PSD blocks of one positive size and a linear "
                             f"length >= 0, all integers, got {dims} and {n_linear!r}")
        self.block_dims, self.n_linear = [int(d) for d in dims], int(n_linear)
        need = _solve_bytes(len(dims), self.block_dims[0], self.n_linear)
        if need > _BYTE_CAP:  # refused before any array is built
            raise ResourceLimitError(
                f"an SDP of PSD blocks {self.block_dims} and a linear block of "
                f"{self.n_linear} may need {need / 2**20:.0f} MiB to solve (cap "
                f"{_BYTE_CAP // 2**20} MiB)")
        sizes = [d * d for d in self.block_dims] + [self.n_linear]
        self.span, end = {}, 0
        for j, size in zip([*range(len(self.block_dims)), LINEAR], sizes):
            self.span[j], end = slice(end, end + size), end + size
        self.c, self.b = np.zeros(end), np.zeros(0)
        # A's nonzeros in row-major order (rows, columns, values), one chunk
        # per add_constraint call, joined when read; once the program is
        # frozen, only in the constraints compiled once.
        self._chunks = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
        self._compiled = None

    def set_objective(self, coeffs: dict) -> None:
        self._refuse_if_frozen()
        self.c = self._objective(coeffs)

    def add_constraint(self, coeffs: dict, rhs) -> None:
        """Add one constraint (scalar ``rhs``) or a stack of m (``rhs`` of
        length m, every coefficient with a leading axis of length m).  Only
        the rows' nonzeros are kept: each block's, put in row-major order by
        a count of each row's nonzeros in each block."""
        self._refuse_if_frozen()
        rhs = np.asarray(rhs, dtype=float)
        if not coeffs:
            raise ValueError("constraint touches no block")
        if rhs.ndim > 1 or not np.isfinite(rhs).all():
            raise ValueError("the right-hand side must be a finite scalar or vector")
        m, parts = rhs.size, []  # each block's nonzeros, row-major within the block
        for j, M in sorted(self._stacks(coeffs, rhs.shape), key=lambda jM: self.span[jM[0]].start):
            M = M.reshape(m, M.shape[-1])
            r, t = np.nonzero(M)
            parts.append((r, t + self.span[j].start, M[r, t]))
        # counts[i, q] is row i's nonzeros in the q-th block; their running
        # total over (row, block) is where each block's run in a row starts.
        counts = np.stack([np.bincount(r, minlength=m) for r, _, _ in parts], axis=1)
        starts = (np.cumsum(counts.reshape(-1)) - counts.reshape(-1)).reshape(counts.shape)
        rows = np.repeat(np.arange(self.n_constraints, self.n_constraints + m), counts.sum(1))
        cols, vals = np.empty(len(rows), np.intp), np.empty(len(rows))
        for q, (r, t, v) in enumerate(parts):
            # each nonzero's place: where its row's run of block q starts,
            # plus its place in that run
            at = starts[r, q] + np.arange(len(r)) - (np.cumsum(counts[:, q]) - counts[:, q])[r]
            cols[at], vals[at] = t, v
        self._chunks.append((rows, cols, vals))
        self.b = np.concatenate([self.b, rhs.reshape(-1)])

    def freeze(self) -> SdpProgram:
        """This program as a structure that calls share: its arrays made
        read-only, its constraints compiled for the engine once (and kept
        only in that form), and no more constraints or objective taken.  A
        call solves ``with_data``'s program."""
        for arr in (self.c, self.b):
            arr.flags.writeable = False
        self._compiled, self._chunks = _Compiled(self), None
        return self

    def with_data(self, rhs=(), objective: dict | None = None) -> SdpProgram:
        """A frozen program's copy for one call: its last len(rhs)
        right-hand sides replaced by ``rhs`` (the rows a call's data fixes
        come last) and, if given, its objective by ``objective``.  The copy
        shares the compiled constraints, and is frozen too."""
        if self._compiled is None:
            raise ValueError("only a frozen program takes a call's data")
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim != 1 or len(rhs) > self.n_constraints or not np.isfinite(rhs).all():
            raise ValueError(f"expected at most {self.n_constraints} finite right-hand sides, "
                             f"got shape {rhs.shape}")
        prog = copy.copy(self)
        prog.b = np.concatenate([self.b[:self.n_constraints - len(rhs)], rhs])
        prog.b.flags.writeable = False
        if objective is not None:
            prog.c = self._objective(objective)
            prog.c.flags.writeable = False
        return prog

    def _refuse_if_frozen(self) -> None:
        if self._compiled is not None:
            raise ValueError("a frozen program takes no constraint or objective")

    def _stacks(self, coeffs: dict, lead: tuple) -> list:
        """The coefficients, checked, as (block, stack) pairs in the dict's
        order: each PSD block's symmetrized, each flattened over its span of
        the iterate, one row per index of the leading shape ``lead``."""
        stacks = []
        for j, M in coeffs.items():
            if j not in self.span or not (is_integer(j) or j == LINEAR):  # True == 1, 0.0 == 0
                raise ValueError(f"no block {j!r} in a program of {len(self.block_dims)}")
            M = np.asarray(M, dtype=float)
            shape = lead + ((self.n_linear,) if j == LINEAR else (self.block_dims[int(j)],) * 2)
            if M.shape != shape:  # a stack's leading axis is one per right-hand side
                raise ValueError(f"block {j!r} expects shape {shape}, got {M.shape}")
            if not np.isfinite(M).all():
                raise ValueError(f"block {j!r} has a non-finite coefficient")
            span = self.span[j]
            stacks.append((j, (M if j == LINEAR else _sym(M)).reshape(*lead, span.stop - span.start)))
        return stacks

    def _objective(self, coeffs: dict) -> np.ndarray:
        c = np.zeros(len(self.c))
        for j, M in self._stacks(coeffs, ()):
            c[self.span[j]] = M
        return c

    def _nonzeros(self) -> tuple:
        """A's nonzeros in row-major order: their rows, columns and values."""
        if self._compiled is not None:
            return self._compiled.rows, self._compiled.cols, self._compiled.vals
        if len(self._chunks) > 1:
            self._chunks = [tuple(map(np.concatenate, zip(*self._chunks)))]
        return self._chunks[0]

    @property
    def A(self) -> np.ndarray:
        """The constraints as one dense array, a row each over the iterate,
        made anew, read-only, from the nonzeros on each read."""
        rows, cols, vals = self._nonzeros()
        A = np.zeros((self.n_constraints, len(self.c)))
        A[rows, cols] = vals
        A.flags.writeable = False
        return A

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims) + self.n_linear

    @property
    def n_constraints(self) -> int:
        return len(self.b)


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

    def record(self, name: str) -> dict:
        """What a bound reports of this solve; RuntimeError unless optimal."""
        if self.status != "optimal":
            raise RuntimeError(f"{name} SDP returned {self.status}")
        return {"status": self.status, "iterations": self.iterations,
                "relative_gap": self.relative_gap,
                "max_equality_residual": self.max_equality_residual,
                "min_eigenvalue": self.block_min_eig()}


def _solve_bytes(k: int, d: int, n_linear: int) -> int:
    """A bound on the bytes a solve of k d x d blocks and n_linear linear
    entries holds, counted from the shapes alone at the largest m a program
    with independent rows can have, k d(d+1)/2 + n_linear: 8 bytes for each
    entry of the dense A, of the four PSD Schur arrays (``_Compiled.A_wide``
    and ``A_psd_T``, and a solve's two products) and of four m x m arrays
    (the Schur complement, its symmetrized copy, the copy the linear solve
    factors, and one as a margin).  It counts more than a solve holds: no
    build or solve makes the dense A (a program keeps A's nonzeros), and
    the two products sit in the buffers of the Schur complement and its
    copy.  Those terms stay so that the refusals do not move: blocks over
    46 (moment programs) and 65 (Gram programs), ``over_sdp_cap.json`` and
    a 50 x 50 ``gamma2_corr``."""
    m, n_psd = k * d * (d + 1) // 2 + n_linear, k * d * d
    return 8 * (m * (n_psd + n_linear) + 4 * m * n_psd + 4 * m * m)


def _sym(M):
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def _max_step(X, dX):
    """For each stack X[s] of shape (k, d, d): the largest alpha <= 1 with
    every X[s, i] + alpha*dX[s, i] still positive definite.  One Cholesky,
    one inverse and one eigvalsh cover every matrix of every stack."""
    Linv = np.linalg.inv(np.linalg.cholesky(X))
    lam = np.linalg.eigvalsh(_sym(Linv @ dX @ Linv.swapaxes(-1, -2)))[..., 0]
    alpha = np.minimum(1.0, np.divide(-_TAU, lam, out=np.ones_like(lam), where=lam < 0))
    return alpha.min(axis=-1)


def _max_ratio(x, dx):
    """For each row of x: the largest alpha <= 1 with x + alpha*dx still
    entrywise positive."""
    ratios = np.divide(-_TAU * x, dx, out=np.ones_like(x), where=dx < 0)
    return ratios.min(axis=-1, initial=1.0)


class _Compiled:
    """A program's constraints as the engine reads them, every array
    read-only, all made from the program's nonzeros (no dense A is made).
    A's nonzeros in row-major order (``rows``, ``cols``, ``vals``, the
    program's own): A v, A^T w and the Schur right-hand side are each one
    bincount over them, which adds in this fixed order.  For the PSD
    blocks' Schur term, the rows with a PSD nonzero, wherever they sit
    (``psd_rows``), and their coefficients, written by index: block j's
    A_ij side by side (``A_wide``, (k, d, m_psd d)) and A's PSD columns as
    rows (``A_psd_T``).
    A row that touches only the linear block gets only the linear block's
    term sum_t A_it A_lt x_t / s_t.  For that term, the pairs of the linear
    block's nonzeros (t, r) that share a column t, in the order of t, then
    r: the index of the Schur entry each adds to (``pair_bin``) in the
    distinct entries' flat positions (``lin_at``), the product of the two
    coefficients (``pair_val``) and t (``pair_t``)."""

    def __init__(self, prog: SdpProgram):
        k, d, m = len(prog.block_dims), prog.block_dims[0], prog.n_constraints
        self.rows, self.cols, self.vals = prog._nonzeros()
        psd = self.cols < k * d * d
        r, t, v = self.rows[psd], self.cols[psd], self.vals[psd]
        has_psd = np.bincount(r, minlength=m) > 0
        self.psd_rows = np.flatnonzero(has_psd)
        r = (np.cumsum(has_psd) - 1)[r]  # each nonzero's row among the PSD rows
        # Column t of A is entry (t // d, t % d) of the (k d, d) stack of blocks.
        self.A_psd_T = np.zeros((k * d * d, len(self.psd_rows)))
        self.A_psd_T[t, r] = v
        self.A_wide = np.zeros((k, d, len(self.psd_rows) * d))
        self.A_wide.reshape(k * d, -1, d)[t // d, r, t % d] = v
        # The linear block's nonzeros by column t, then row r.
        lin = np.flatnonzero(~psd)
        lin = lin[np.argsort(self.cols[lin], kind="stable")]
        r, t, v = self.rows[lin], self.cols[lin] - k * d * d, self.vals[lin]
        lo, hi = np.searchsorted(t, t), np.searchsorted(t, t, "right")
        p = np.repeat(np.arange(len(t)), hi - lo)
        q = np.arange(len(p)) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
        self.lin_at, self.pair_bin = np.unique(r[p] * m + r[q], return_inverse=True)
        self.pair_val, self.pair_t = v[p] * v[q], t[p]
        for arr in vars(self).values():
            arr.flags.writeable = False


def solve_sdp(prog: SdpProgram) -> SdpSolution:
    """Interior-point solve; see module docstring for the problem form."""
    k, d, m, b, c = len(prog.block_dims), prog.block_dims[0], prog.n_constraints, prog.b, prog.c
    lin, psd = prog.span[LINEAR], slice(0, k * d * d)
    comp = prog._compiled if prog._compiled is not None else _Compiled(prog)
    rows, cols, vals = comp.rows, comp.cols, comp.vals

    def apply_A(v):
        return np.bincount(rows, vals * v[cols], m)

    def apply_AT(w):
        return np.bincount(cols, vals * w[rows], len(c))

    def stack(v):  # the PSD blocks of v's rows, as one (..., k, d, d) view
        return v[..., psd].reshape(*v.shape[:-1], k, d, d)

    # Two buffers that every iteration reuses, each holding in turn arrays
    # whose lives do not overlap: the products that give the Schur
    # complement's entries among the rows that touch a PSD block (XA in the
    # first, XAS in the second, and those entries, Mp, in the first), then
    # the Schur complement M (second) and its symmetrized copy Ms (first).
    m_psd, psd_block = len(comp.psd_rows), np.ix_(comp.psd_rows, comp.psd_rows)
    first, second = (np.empty(max(m * m, k * d * d * m_psd)) for _ in range(2))

    def view(buf, *shape):
        return buf[:math.prod(shape)].reshape(shape)

    XA, Mp, Ms = view(first, k, d, m_psd * d), view(first, m_psd, m_psd), view(first, m, m)
    XAS, M, Ms_diag = view(second, m_psd, k, d, d), view(second, m, m), Ms.reshape(-1)[::m + 1]

    scale = 1.0 + max(float(np.abs(b).max(initial=0.0)), float(np.abs(c).max(initial=0.0)))
    # The primal iterate X and the dual slack S are the rows of XS, so that
    # the X and S stacks are one (2, k, d, d) view.
    X = np.concatenate([np.eye(d).reshape(-1)] * k + [np.ones(prog.n_linear)])
    XS, y = np.stack([10.0 * scale * X] * 2), np.zeros(m)
    X, S = XS

    status = "max-iterations"
    # The iterate the run returns, as (X, y, it, pobj, dobj, gap, residual):
    # the current one at the inner tolerance or a diverging dual, else the best
    # by max(primal residual, dual residual, gap); best_ok if it meets the
    # contract's residual and gap.  Iterates are never written in place.
    best_merit, best_ok, best = np.inf, False, (X, y, 0, np.nan, np.nan, np.nan, np.nan)
    for it in range(1, _MAX_ITER + 1):
        rp = b - apply_A(X)
        Rd = c - apply_AT(y) - S
        pobj, mu = float((c * X).sum()), float((S * X).sum()) / prog.total_dim
        dobj = float(b @ y)
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        res = float(np.abs(rp).max(initial=0.0))
        prim_res = res / scale
        dual_res = float(np.abs(Rd).max(initial=0.0)) / scale
        now = (X, y, it, pobj, dobj, gap_rel, res)
        if prim_res <= _TOL * 10 and dual_res <= _TOL * 10 \
                and (gap_rel <= _TOL or mu / scale <= _TOL):
            status, best = "optimal", now
            break
        if np.abs(y).max(initial=0.0) > 1e10 * scale and prim_res > 1e-6:
            status, best = "infeasible", now
            break
        merit = max(prim_res, dual_res, gap_rel)
        if merit < best_merit:
            best_merit, best = merit, now
            best_ok = res <= _RES_OK and gap_rel <= _GAP_OK
        elif best_ok and it - best[2] >= _PATIENCE:
            # The best iterate meets the contract's residual and gap and the
            # merit has stopped improving: stop on it rather than drift on
            # toward a breakdown.
            break

        sigma = 0.3 if it <= 2 else sigma_next
        try:
            Xk, Sk = stack(XS)
            Sinv = np.linalg.inv(Sk)
            x, sinv = X[lin], 1.0 / S[lin]
            # Schur complement M[i,l] = sum_j tr(A_ij X_j A_lj Sinv_j), where
            # the linear block acts as the diagonal blocks diag(x), diag(s).
            # X_j A_ij Sinv_j goes to XAS[i, j], laid out as the i-th PSD row
            # of A, so one product with A_psd_T sums over the blocks.
            np.matmul(Xk, comp.A_wide, out=XA)
            np.matmul(XA.reshape(k, d, m_psd, d), Sinv[:, None], out=XAS.transpose(1, 2, 0, 3))
            np.matmul(XAS.reshape(m_psd, k * d * d), comp.A_psd_T, out=Mp)
            M.fill(0.0)
            M[psd_block] = Mp
            M.reshape(-1)[comp.lin_at] += np.bincount(
                comp.pair_bin, comp.pair_val * (x * sinv)[comp.pair_t], len(comp.lin_at))
            w = Xk - sigma * mu * Sinv + Xk @ stack(Rd) @ Sinv
            rhs = rp + apply_A(np.concatenate([w.reshape(-1),
                                               x - sigma * mu * sinv + x * Rd[lin] * sinv]))
            np.add(M, M.T, out=Ms)
            Ms *= 0.5
            Ms_diag += 1e-14 * scale  # a ridge
            dy = np.linalg.solve(Ms, rhs)

            dXS = np.empty_like(XS)
            dX, dS = dXS
            dS[...] = Rd - apply_AT(dy)
            stack(dX)[...] = _sym(sigma * mu * Sinv - Xk - Xk @ stack(dS) @ Sinv)
            dX[lin] = sigma * mu * sinv - x - x * dS[lin] * sinv
            # Step lengths of X (entry 0) and S (entry 1).
            alpha_p, alpha_d = np.minimum(_max_step(stack(XS), stack(dXS)),
                                          _max_ratio(XS[:, lin], dXS[:, lin]))
        except np.linalg.LinAlgError:
            # The iterate has lost definiteness (rank-deficient optimum) or
            # the Schur system is singular.
            status = "numerical-error"
            break
        XS = XS + np.array([[alpha_p], [alpha_d]]) * dXS
        X, S = XS
        y = y + alpha_d * dy

        a = min(alpha_p, alpha_d)
        sigma_next = 0.05 if a > 0.9 else (0.2 if a > 0.5 else 0.5)

    X, y, it, pobj, dobj, gap_rel, max_res = best
    min_eigs = np.linalg.eigvalsh(stack(X))[:, 0].tolist()
    if status != "infeasible" and max_res <= _RES_OK and gap_rel <= _GAP_OK \
            and min(min_eigs + [X[lin].min(initial=np.inf)]) >= _EIG_OK:
        status = "optimal"
    return SdpSolution(
        status=status,
        blocks=list(stack(X)),
        objective=pobj,
        dual=y,
        dual_objective=dobj,
        max_equality_residual=max_res,
        min_eigenvalues=min_eigs,
        relative_gap=gap_rel,
        iterations=it,
        linear=X[lin],
    )
