"""Affine-decomposition complexity measures and their certificates.

The central quantities: nu_tilde (minimum L1 mass of an affine model over
local distributions), its epsilon-smoothed variant, the level-1
moment-matrix relaxation gamma2_tilde_1 of the quantum analogue, the
correlation-space versions nu_corr / gamma2_corr, dual Bell/Tsirelson
certificates, and the conversion of these values into communication
lower bounds in bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Alphabets,
    AffineModel,
    BellFunctional,
    ConditionalDistribution,
    LocalVertex,
    SIGNS,
    TOL_RECON,
    best_local_response,
    check_vertex_cap,
    deterministic_strategies,
    product_distribution,
    validate,
    vertex_table_matrix,
)
from .lp import _FEAS_TOL, _TIE_REL, FactoredMatrix, LinearProgram, solve_lp
from .sdp import LINEAR, SdpProgram, solve_sdp


class InvalidDistributionError(ValueError):
    """Input distribution fails validation (not normalized / signaling)."""


class ReconstructionError(ValueError):
    """A supplied decomposition does not reproduce the target."""


@dataclass(frozen=True)
class GrothendieckInterval:
    """Published rigorous bounds on Grothendieck's constant K_G.

    The exact value is unknown; assertions of the form "<= K_G * x" use
    the upper end of the interval to stay conservative.
    """

    lower: float = 1.67696
    upper: float = 1.78222


GROTHENDIECK = GrothendieckInterval()


@dataclass
class BoundResult:
    """Value of one of the complexity measures plus its certificates."""

    quantity: str
    value: float
    epsilon: float = 0.0
    primal_certificate: AffineModel | None = None
    dual_certificate: BellFunctional | None = None
    diagnostics: dict = field(default_factory=dict)


def _require_valid(p: ConditionalDistribution, eps: float = 0.0) -> None:
    """Refuse a p that fails validation, then a smoothing eps outside [0, 1)."""
    report = validate(p)
    if not report.ok:
        raise InvalidDistributionError(
            "distribution fails validation: " + ", ".join(report.violated_families())
        )
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")


def _min_l1_combination(S: FactoredMatrix, target: np.ndarray, overlap: np.ndarray,
                        name: str, alpha: float = 1.0):
    """min sum |q| s.t. S q = target o r with r in [1, alpha] on every row,
    as an LP over the split q = q+ - q-, then r (at alpha = 1, no r).

    S is a vertex matrix in factored form (``lp.FactoredMatrix``, from the
    single-party factors of ``_DataMap.factors`` or ``_DataMap.signs``),
    with full row rank, so phase 1 leaves no redundant row and the equality
    multipliers have no null directions.  The LP's matrix is
    [S, -S | -diag(target)] (``FactoredMatrix.split``; at alpha = 1 no
    dense block): the simplex reads it through the factors, and no array
    of S's entries is made but the columns the crash and the bases pick.
    Returns the optimum, the LP's record, the weights q and the multipliers
    y (at alpha = 1 an optimal dual functional: |y . column| <= 1 on every
    column of S, and y . target is the optimum).  No certificate reads S:
    the callers take a certificate's normalization from
    ``core.best_local_response`` on the coefficients it carries, the
    package's one local-bound computation, so it checks independently of
    this LP.

    The simplex starts from a crash basis and skips phase 1.  Every
    column of [S, -S] has a negated twin, so any m independent columns of
    S give a primal-feasible basis once each column whose weight in the
    target is negative is swapped for its twin.  A weight within
    ``_FEAS_TOL`` of 0 keeps its column (``solve_lp`` accepts a basic
    value that far below its bound), so rounding cannot pick the column or
    its twin for a weight that is 0 in exact arithmetic.  The columns come
    from pivoted Gram-Schmidt over S (``_pivoted_columns``), weighted by
    each column's overlap |s . overlap| with the target, ``overlap`` being
    the target under the inner product of the columns' space (for local
    vertices T^T p, T the map from coordinates to tables,
    ``_DataMap._unit_tables``).  For a local vertex that overlap is
    (T s) . p = sum_xy p(lambda_a(x), lambda_b(y) | x, y), the vertex's
    agreement with p; for a sign vertex it is |<C, u v^T>|.  The vertices
    that carry weight at the optimum mostly overlap the target strongly,
    so phase 2 replaces few of the start columns.  The r start nonbasic
    at their lower bound 1, where the rows read S q = target again, so
    the same basis is feasible.
    """
    m, V = S.shape
    cols = _pivoted_columns(S, np.abs(overlap @ S))
    weights = np.linalg.solve(S[:, cols], target)
    start = np.where(weights < -_FEAS_TOL, cols + V, cols)
    k = 0 if alpha == 1.0 else m  # r columns
    sol = solve_lp(LinearProgram(c=np.append(np.ones(2 * V), np.zeros(k)),
                                 A_eq=S.split(-np.diag(target) if k else None),
                                 b_eq=target if k == 0 else np.zeros(m),
                                 lb=np.append(np.zeros(2 * V), np.ones(k)),
                                 ub=np.append(np.full(2 * V, np.inf), np.full(k, alpha))),
                   start_basis=start)
    return float(sol.objective), sol.record(name), sol.x[:V] - sol.x[V:2 * V], sol.dual_eq


# Added to each relative score, so that a column with no overlap can still
# be picked where the span needs it.
_SCORE_FLOOR = 1e-3


def _pivoted_columns(S: FactoredMatrix, score: np.ndarray) -> np.ndarray:
    """m column indices of the m x V matrix S, a vertex matrix in factored
    form, chosen by pivoted Gram-Schmidt weighted by ``score`` (V values
    >= 0); independent when S has full row rank.

    Each step takes the column with the largest squared norm outside the
    span of those taken, times (score / max score + ``_SCORE_FLOOR``)^4,
    the first within ``_TIE_REL`` of the largest, so that rounding
    (which varies with the BLAS thread count) cannot reorder the picks.
    Equal scores give plain QR with column pivoting.  Each step downdates
    that weighted criterion by one product v @ S, F^T V G through the
    factors.  The squared column norms are the products of the factors'
    (exact: S's entries are 0 and +-1), and a picked column is an outer
    product of two factor columns.

    One Gram-Schmidt pass per column suffices: the norm factor keeps the
    picked columns well conditioned (condition below ~1e3 on the vertex
    and sign matrices), and ``solve_lp`` checks the basis it is given, so
    a loss of orthogonality could cost pivots but not a wrong result.
    """
    m = S.shape[0]
    top = score.max()
    weight = (score / top + _SCORE_FLOOR) ** 4 if top > 0 else np.ones_like(score)
    Q = np.zeros((m, m))  # rows: orthonormal basis of the picked columns
    crit = np.multiply.outer(*(np.einsum("ij,ij->j", F, F) for F in (S.outer, S.inner)))
    crit = crit.reshape(-1) * weight
    cols = np.empty(m, dtype=int)
    for k in range(m):
        j = int((crit >= crit.max() * (1.0 - _TIE_REL)).argmax())
        cols[k] = j
        s = S[:, j]
        v = s - (Q @ s) @ Q
        v /= math.sqrt(v @ v)
        Q[k] = v
        drop = v @ S
        drop *= drop
        drop *= weight
        crit -= drop
        crit[j] = -np.inf
    return cols


# ---------------------------------------------------------------------------
# nu_tilde and its epsilon variant (LP over local deterministic vertices)


def nu_tilde(p: ConditionalDistribution) -> BoundResult:
    """Minimum sum |q_i| over affine models of p with local components.

    LP over split weights q = q+ - q- on all local deterministic
    vertices.  Its rows are the Collins-Gisin coordinates of the
    decomposition (``_DataMap``: retained cells, marginals,
    normalization), which have full row rank on the span of the vertex
    tables; a signaling part of p below the validation tolerance is
    ignored.  The equality multipliers, folded into a coefficient tensor
    and projected onto the span of the vertex tables, give the dual Bell
    functional B; its normalization is max |B(vertex)|, the larger of
    ``best_local_response`` on B and on -B.  Every valid p lies in the
    affine hull of the local vertices, so a non-optimal LP is an engine
    failure, not a property of p.  All but the right-hand side and the
    crash basis depends only on the alphabet and is built once per
    alphabet, by its cached data map (``_data_map``): the LP's matrix
    [S, -S] is read through S's two single-party factors
    (``_DataMap.factors``), with no vertex tables and no array of S.
    """
    _require_valid(p)
    alph = p.alphabets
    cg = _vertex_map(alph)
    rhs = cg.data_rhs(p.table)
    value, record, q, y = _min_l1_combination(FactoredMatrix(*cg.factors), rhs,
                                              cg._unit_tables.T @ p.flat(), "nu_tilde")
    Q = cg.span
    coeffs = (Q @ (Q.T @ cg.fold(y).reshape(-1))).reshape(alph.shape)
    model = AffineModel.from_vertex_weights(alph, q)
    bell = BellFunctional(
        coeffs=coeffs,
        claimed_bound_class="local",
        normalization=max(best_local_response(coeffs)[0], best_local_response(-coeffs)[0]),
    )
    return BoundResult(
        quantity="nu_tilde",
        value=value,
        primal_certificate=model,
        dual_certificate=bell,
        diagnostics={**record, "reconstruction_residual": model.residual(p.table)},
    )


def _party_matrix(n_inputs: int, n_outcomes: int) -> np.ndarray:
    """One party's factor of the local vertices' coordinates: a column per
    deterministic strategy k (in the order of ``deterministic_strategies``),
    row 0 all ones and row 1 + x (n_outcomes - 1) + a the indicator that k
    answers a to input x, for a < n_outcomes - 1."""
    strategies = deterministic_strategies(n_inputs, n_outcomes)
    answers = strategies.T[:, None, :] == np.arange(n_outcomes - 1)[:, None]  # [x, a, k]
    return np.concatenate([np.ones((1, len(strategies))), answers.reshape(-1, len(strategies))])


def _budget_rows(alph: Alphabets) -> np.ndarray:
    """(nx*ny, n_cells) rows summing each input pair's cells: the na*nb cells
    of input pair i are contiguous in a flattened table."""
    return np.kron(np.eye(alph.nx * alph.ny), np.ones((1, alph.na * alph.nb)))


def nu_tilde_eps(p: ConditionalDistribution, eps: float) -> BoundResult:
    """min { nu_tilde(p') : delta(p, p') <= eps } as a single joint LP.

    The ball is p' - p = u - v with u, v >= 0 and, per input pair, the
    budget sum (u + v) <= 2*eps.  Columns are the split vertex weights
    q+, q- and u, v; rows are Vt q - u + v = p per cell, sum q = 1 and the
    budgets.  p' = p + u - v >= p - v, so p' >= 0 is the bound v <= p.
    The LP, vertex tables included, is built on each call and not kept:
    it holds the tables twice and the solver's standard form twice more,
    so a kept copy would save a small part of a solve.
    """
    _require_valid(p, eps)
    alph = p.alphabets
    Vt = vertex_table_matrix(alph)  # checks the vertex cap first
    V, n_cells = Vt.shape[1], alph.n_cells
    pvec = p.flat()

    c = np.concatenate([np.ones(2 * V), np.zeros(2 * n_cells)])
    A_eq = np.zeros((n_cells + 1, len(c)))
    A_eq[:n_cells, :V], A_eq[:n_cells, V:2 * V] = Vt, -Vt
    A_eq[:n_cells, 2 * V:] = np.kron([-1.0, 1.0], np.eye(n_cells))
    A_eq[n_cells, :2 * V] = np.repeat([1.0, -1.0], V)
    budgets = _budget_rows(alph)
    A_ub = np.hstack([np.zeros((len(budgets), 2 * V)), budgets, budgets])
    ub = np.concatenate([np.full(2 * V + n_cells, np.inf), pvec])

    sol = solve_lp(LinearProgram(c=c, A_eq=A_eq, b_eq=np.append(pvec, 1.0), A_ub=A_ub,
                                 b_ub=np.full(len(budgets), 2.0 * eps), ub=ub))
    record = sol.record("nu_tilde_eps")
    q = sol.x[:V] - sol.x[V:2 * V]
    model = AffineModel.from_vertex_weights(alph, q)
    p_prime = (Vt @ q).reshape(alph.shape)
    return BoundResult(
        quantity="nu_tilde_eps",
        value=float(sol.objective),
        epsilon=float(eps),
        primal_certificate=model,
        diagnostics={
            **record,
            "perturbed_target": p_prime,
            "distance_used": float(
                0.5 * np.abs(p_prime - p.table).sum(axis=(2, 3)).max()
            ),
        },
    )


# ---------------------------------------------------------------------------
# gamma2_tilde_1: level-1 moment-matrix relaxation


def _sym_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u v^T + v u^T) / 2 over the last axis, broadcasting the others."""
    uv = u[..., :, None] * v[..., None, :]
    return 0.5 * (uv + np.swapaxes(uv, -1, -2))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only: a cached array is shared by every later call."""
    arr.flags.writeable = False
    return arr


class _DataMap:
    """Collins-Gisin coordinates of the tables of one alphabet.

    Retained cells (a < na-1, b < nb-1), Alice's and Bob's retained
    marginals and the normalization (Collins and Gisin, J. Phys. A 37,
    1775 (2004)): a linearly independent set on non-signaling tables, and
    the values a decomposition of p must reproduce.  ``data_rhs`` gives
    them, ``fold`` is its adjoint and ``tables`` its inverse on
    non-signaling tables; there are ``n`` of them.

    Every array and SDP structure that depends only on the alphabet and
    that a later call reads is built on first use and kept, read-only, with
    the map (``_data_map``): ``factors``, the two single-party matrices and
    the row order whose Kronecker product is S, the coordinates of the
    local vertices (no vertex table and no array of S is built);
    ``_unit_tables``, the map T
    from coordinates to tables, whose transpose gives ``nu_tilde``'s crash
    score; ``span``, an orthonormal basis of the non-signaling tables,
    which span the vertex tables; ``moment_cells``, the cells of the d x d
    moment matrix, which every primal certificate of the moment programs reads;
    ``moment_sdp`` and ``moment_eps_sdp``, the moment programs at eps = 0
    and eps > 0 without their data (``_moment_structure``, which builds
    their other rows); and, on a binary alphabet (nx, ny, 2, 2),
    ``signs``: the sign vectors u and v whose products u v^T are the sign
    LPs' columns (``_sign_factors``), and ``corr_sdp`` and
    ``bias_sdp``, the Gram programs of ``gamma2_corr`` and
    ``games.quantum_bias`` without their data.  Each SDP structure is a
    frozen ``SdpProgram``, compiled once; a call solves its ``with_data``
    copy.  ``nu_tilde_eps`` reads no map: its LP, vertex tables included,
    is built on each call.
    """

    def __init__(self, alph: Alphabets):
        nx, ny, na, nb = alph.shape
        self.alph = alph
        self.d = 1 + nx * (na - 1) + ny * (nb - 1)  # moment block size
        self.n = (1 + nx * (na - 1)) * (1 + ny * (nb - 1))  # coordinates

    @functools.cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(R, L, rows) with S = P (R (x) L) (``lp.FactoredMatrix``), S the
        coordinates of the local vertices in the order of
        ``vertex_table_matrix`` (column k pairs Alice's strategy k % na^nx
        with Bob's k // na^nx).  R and L are Bob's and Alice's
        ``_party_matrix``; row j * len(L) + i of R (x) L, Bob's row j times
        Alice's row i, is coordinate ``rows[j * len(L) + i]``: a cell when
        both are indicators, a marginal when one is the row of ones, the
        normalization when both are.  The entries are exact products of 0s
        and 1s, so S is the ``data_rhs`` of the vertex tables bit for bit."""
        nx, ny, na, nb = self.alph.shape
        alice, bob = _party_matrix(nx, na), _party_matrix(ny, nb)
        rows = np.empty((len(bob), len(alice)), dtype=np.intp)
        cell, mA, mB, norm = self._split(np.arange(self.n))
        rows[1:, 1:] = cell.reshape(nx, ny, na - 1, nb - 1).transpose(1, 3, 0, 2).reshape(
            ny * (nb - 1), nx * (na - 1))
        rows[0, 1:], rows[1:, 0], rows[0, 0] = mA, mB, norm[0]
        return tuple(_read_only(arr) for arr in (bob, alice, rows.reshape(-1)))

    @functools.cached_property
    def _unit_tables(self) -> np.ndarray:
        """The non-signaling tables with unit coordinates, one per column."""
        return _read_only(self.tables(np.eye(self.n)).reshape(self.alph.n_cells, -1))

    @functools.cached_property
    def span(self) -> np.ndarray:
        return _read_only(np.linalg.qr(self._unit_tables)[0])

    def _projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The moment matrix's rows of Alice's and Bob's retained projectors, as
        unit vectors (nx, na-1, d) and (ny, nb-1, d): row 0, then Alice's, then Bob's."""
        nx, ny, na, nb = self.alph.shape
        eye = np.eye(self.d)
        return (eye[1:1 + nx * (na - 1)].reshape(nx, na - 1, self.d),
                eye[1 + nx * (na - 1):].reshape(ny, nb - 1, self.d))

    @functools.cached_property
    def moment_cells(self) -> np.ndarray:
        """cells[x, y, a, b]: the symmetrized outer product of Alice's outcome
        (x, a) and Bob's (y, b), so <cells[x, y, a, b], G> is the (a,b|x,y)
        value a moment block G implies.  A retained outcome is the unit
        vector of its row, an eliminated one e_0 minus its input's retained
        rows (completeness)."""
        ea, eb = self._projectors()
        e0 = np.eye(self.d)[0]
        alice = np.concatenate([ea, e0 - ea.sum(axis=1, keepdims=True)], axis=1)
        bob = np.concatenate([eb, e0 - eb.sum(axis=1, keepdims=True)], axis=1)
        return _read_only(_sym_outer(alice[:, None, :, None], bob[None, :, None, :]))

    @functools.cached_property
    def signs(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(_read_only(arr) for arr in _sign_factors(self.alph.nx, self.alph.ny))

    @functools.cached_property
    def moment_sdp(self) -> SdpProgram:
        return _moment_structure(self, smoothed=False)

    @functools.cached_property
    def moment_eps_sdp(self) -> SdpProgram:
        return _moment_structure(self, smoothed=True)

    @functools.cached_property
    def corr_sdp(self) -> SdpProgram:
        """min c over Gram matrices [[D1, C], [C^T, D2]] with every diagonal
        entry c (``gamma2_corr``): its C rows come last, at right-hand side 0."""
        nx, ny = self.alph.nx, self.alph.ny
        n = nx + ny
        prog = SdpProgram([n])
        eye = np.eye(n)
        E00 = _sym_outer(eye[0], eye[0])
        prog.set_objective({0: E00})
        prog.add_constraint({0: _sym_outer(eye[1:], eye[1:]) - E00}, np.zeros(n - 1))
        prog.add_constraint({0: _sym_outer(eye[:nx, None], eye[None, nx:]).reshape(-1, n, n)},
                            np.zeros(nx * ny))
        return prog.freeze()

    @functools.cached_property
    def bias_sdp(self) -> SdpProgram:
        """Gram matrices of nx + ny unit vectors, X_kk = 1, at objective 0
        (``games.quantum_bias``, which supplies its game's)."""
        n = self.alph.nx + self.alph.ny
        prog = SdpProgram([n])
        eye = np.eye(n)
        prog.add_constraint({0: eye[:, :, None] * eye[:, None, :]}, np.ones(n))
        return prog.freeze()

    def _split(self, c: np.ndarray) -> list:
        """The cell, Alice-marginal, Bob-marginal and normalization parts of c."""
        nx, ny, na, nb = self.alph.shape
        return np.split(c, np.cumsum(
            [nx * ny * (na - 1) * (nb - 1), nx * (na - 1), ny * (nb - 1)]))

    def data_rhs(self, table: np.ndarray) -> np.ndarray:
        """Coordinates of a normalized table [x, y, a, b].

        Trailing axes broadcast, e.g. one per column of a matrix of tables.
        """
        t = np.ascontiguousarray(table)  # reductions over strided axes are slow
        rest = t.shape[4:]
        return np.concatenate([t[:, :, :-1, :-1].reshape(-1, *rest),
                               t.sum(axis=3).mean(axis=1)[:, :-1].reshape(-1, *rest),
                               t.sum(axis=2).mean(axis=0)[:, :-1].reshape(-1, *rest),
                               np.ones((1, *rest))])

    def tables(self, c: np.ndarray) -> np.ndarray:
        """The non-signaling tables [x, y, a, b, ...] whose coordinates are c.

        Inverts ``data_rhs`` on the non-signaling subspace, reading the
        normalization coordinate as each input pair's total mass; trailing
        axes of c broadcast.  Eliminated outcomes take what their marginals
        and the normalization leave over.
        """
        nx, ny, na, nb = self.alph.shape
        rest = c.shape[1:]
        cell, mA, mB, norm = self._split(c)
        T = np.zeros((*self.alph.shape, *rest))
        T[:, :, :-1, :-1] = cell.reshape(nx, ny, na - 1, nb - 1, *rest)
        T[:, :, :-1, -1] = mA.reshape(nx, 1, na - 1, *rest) - T[:, :, :-1, :-1].sum(axis=3)
        T[:, :, -1, :-1] = mB.reshape(1, ny, nb - 1, *rest) - T[:, :, :-1, :-1].sum(axis=2)
        T[:, :, -1, -1] = (norm[0] - T[:, :, :-1, :].sum(axis=(2, 3))
                           - T[:, :, -1, :-1].sum(axis=2))
        return T

    def fold(self, y: np.ndarray) -> np.ndarray:
        """Coefficient tensor B with <B, p> = <y, data_rhs(p)> for normalized p.

        Marginal multipliers are spread uniformly over the summed-out
        input, and the normalization multiplier over all cells.
        """
        nx, ny, na, nb = self.alph.shape
        cell, mA, mB, norm = self._split(y)
        B = np.zeros(self.alph.shape)
        B[:, :, :-1, :-1] += cell.reshape(nx, ny, na - 1, nb - 1)
        B[:, :, :-1, :] += (mA.reshape(nx, na - 1) / ny)[:, None, :, None]
        B[:, :, :, :-1] += (mB.reshape(ny, nb - 1) / nx)[None, :, None, :]
        B += norm[0] / (nx * ny)
        return B


# Alphabets whose data maps (sign shapes' and Gram programs' on their binary alphabets)
# stay in memory.
_L1_CACHE = 8


@functools.lru_cache(maxsize=_L1_CACHE)
def _data_map(alph: Alphabets) -> _DataMap:
    """alph's data map, with the arrays it has built."""
    return _DataMap(alph)


def _vertex_map(alph: Alphabets, items: str = "local vertices") -> _DataMap:
    """``_data_map(alph)`` after the vertex cap on alph's local vertices (``items``),
    checked on every call: the cap may change while the map stays cached."""
    check_vertex_cap(alph.vertex_count, items)
    return _data_map(alph)


def _moment_model(cg: _DataMap, blocks: list) -> AffineModel:
    """Affine model from the positive and negative moment blocks of cg."""
    comps = []
    for sign, G in zip((1.0, -1.0), blocks):
        t = float(G[0, 0])
        if t > 1e-8:
            # A numpy sum per cell, not a BLAS product (tensordot), so
            # the tables' last bits do not depend on the BLAS build.
            tab = (cg.moment_cells * G).reshape(*cg.alph.shape, -1).sum(-1) / t
            comps.append((sign * t, ConditionalDistribution(cg.alph, tab)))
    return AffineModel(comps, certified_class="npa-level-1")


def _moment_structure(cg: _DataMap, smoothed: bool) -> SdpProgram:
    """The level-1 moment program of cg's alphabet without its data, frozen
    (``_DataMap.moment_sdp`` and ``moment_eps_sdp``).

    A positive and a negative homogenized level-1 moment block (Navascues,
    Pironio and Acin, PRL 98, 010401 (2007)): row/column 0 is the identity,
    and one outcome per input is eliminated via completeness
    (``_DataMap._projectors``).  Each block has the projector constraints
    (each = 0): diagonal entries equal first-row entries (E^2 = E) and
    projectors of one input are orthogonal.  The objective is the total
    scale t+ + t-.  The program is made first, so the SDP cap refuses a
    size before any d^2 array.  At eps = 0 (where the ball {p} leaves the
    joint program no interior) the blocks must reproduce p on every
    Collins-Gisin coordinate: the data rows are the map's coordinates of
    ``_DataMap.moment_cells``, with E00 as the normalization.  Otherwise a
    nonnegative linear block holds the p' the blocks represent (so
    p' >= 0), the ball p' - p = u - v with u, v >= 0 and the slacks of the
    per-input budgets sum (u + v) <= 2*eps.  The rows that p and eps fix
    come last, at right-hand side 0: the data rows, or the ball and the
    budgets.
    """
    alph, d = cg.alph, cg.d
    n, n_in = alph.n_cells, alph.nx * alph.ny
    prog = SdpProgram([d, d], 3 * n + n_in if smoothed else 0)
    eye = np.eye(d)
    E00 = _sym_outer(eye[0], eye[0])
    prog.set_objective({0: E00, 1: E00})
    ea, eb = cg._projectors()
    pairs = [(eye[k], eye[k] - eye[0]) for k in range(1, d)]
    pairs += [(u[i], u[j]) for u in (*ea, *eb) for i in range(len(u)) for j in range(i + 1, len(u))]
    uv = np.reshape(pairs, (-1, 2, d))  # (k, 2, d), also for k = 0
    structural = _sym_outer(uv[:, 0], uv[:, 1])
    for block in (0, 1):
        prog.add_constraint({block: structural}, np.zeros(len(structural)))
    if not smoothed:
        data = np.concatenate([cg.data_rhs(cg.moment_cells)[:-1], E00[None]])
        prog.add_constraint({0: data, 1: -data}, np.zeros(cg.n))
        return prog.freeze()
    # Linear block: p', u, v (n entries each), then the budget slacks.  Each
    # stack's entries are written by index: cell k's p', u and v are entries
    # k, n + k and 2n + k, and its input pair's budget row is k // (na nb).
    k, i = np.arange(n), np.arange(n_in)

    def linear(rows, *entries):
        stack = np.zeros((rows, prog.n_linear))
        for at, value in entries:
            stack[at] = value
        return stack

    prog.add_constraint({0: E00, 1: -E00}, 1.0)
    cells = cg.moment_cells.reshape(n, d, d)
    prog.add_constraint({0: cells, 1: -cells, LINEAR: linear(n, ((k, k), -1.0))},
                        np.zeros(n))  # the blocks give p'
    prog.add_constraint({LINEAR: linear(n, ((k, k), 1.0), ((k, n + k), -1.0),
                                        ((k, 2 * n + k), 1.0))}, np.zeros(n))
    budget = k // (alph.na * alph.nb)
    prog.add_constraint({LINEAR: linear(n_in, ((budget, n + k), 1.0), ((budget, 2 * n + k), 1.0),
                                        ((i, 3 * n + i), 1.0))}, np.zeros(n_in))
    return prog.freeze()


def _moment_program(p: ConditionalDistribution, eps: float = 0.0) -> tuple:
    """p's level-1 moment program at smoothing eps (``_moment_structure``),
    and its data map: the map's structure with p's coordinates, or with p
    and the budgets 2*eps."""
    cg = _data_map(p.alphabets)
    if eps == 0.0:
        return cg.moment_sdp.with_data(cg.data_rhs(p.table)), cg
    budgets = np.full(p.alphabets.nx * p.alphabets.ny, 2.0 * eps)
    return cg.moment_eps_sdp.with_data(np.concatenate([p.flat(), budgets])), cg


def gamma2_tilde_1(p: ConditionalDistribution) -> BoundResult:
    """Level-1 relaxation of gamma2_tilde: a lower bound on it and on nu_tilde.

    Two homogenized moment blocks carry the positive and negative parts of
    the decomposition; their difference must reproduce p on a linearly
    independent set of coordinates (retained cells, marginals,
    normalization), and the objective is the total scale t+ + t-.  The
    multipliers of those data constraints, folded into a coefficient
    tensor, are the level-1 Tsirelson functional: B(p) is the value.
    """
    _require_valid(p)
    prog, cg = _moment_program(p)
    sol = solve_sdp(prog)
    record = sol.record("gamma2_tilde_1")
    model = _moment_model(cg, sol.blocks)
    return BoundResult(
        quantity="gamma2_tilde_1",
        value=float(sol.objective),
        primal_certificate=model,
        dual_certificate=BellFunctional(coeffs=cg.fold(sol.dual[-cg.n:]),
                                        claimed_bound_class="npa-level-1", normalization=1.0),
        diagnostics={**record, "reconstruction_residual": model.residual(p.table)},
    )


def gamma2_tilde_1_eps(p: ConditionalDistribution, eps: float) -> BoundResult:
    """Epsilon-smoothed level-1 relaxation, as one joint SDP
    (``_moment_program``): the exact program at eps = 0."""
    _require_valid(p, eps)
    prog, cg = _moment_program(p, eps)
    sol = solve_sdp(prog)
    record = sol.record("gamma2_tilde_1_eps")
    return BoundResult(
        quantity="gamma2_tilde_1_eps",
        value=float(sol.objective),
        epsilon=float(eps),
        primal_certificate=_moment_model(cg, sol.blocks),
        diagnostics=record,
    )


# ---------------------------------------------------------------------------
# Correlation-space quantities


def _sign_factors(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """The sign vectors us (rows u in {+-1}^nx with u_0 = +1) and vs (the
    same for ny) of the min-L1 LPs over sign vertices.

    Their S has one column per pair +-u v^T of rank-one sign matrices: the
    flattened u v^T, column k from ``us[k // len(vs)]`` and
    ``vs[k % len(vs)]``, 2^(nx+ny-2) columns.  u v^T = (-u)(-v)^T, so these
    columns and their negations are every sign vertex once.  S is
    us^T (x) vs^T with its rows in place (``lp.FactoredMatrix``); no array
    of it is made.  No normalization reads S: a certificate's comes from
    ``core.best_local_response``, the package's one local-bound
    computation.
    """
    return (SIGNS[deterministic_strategies(nx, 2, range(2 ** (nx - 1)))],
            SIGNS[deterministic_strategies(ny, 2, range(2 ** (ny - 1)))])


def _correlation_matrix(C, bound: float = 1.0) -> np.ndarray:
    """C as a float matrix; ValueError unless it is a finite, non-empty 2-D
    matrix with entries in [-bound, bound] (to 1e-12)."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.ndim != 2 or C.size == 0:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError("matrix entries must be finite")
    if np.abs(C).max() > bound + 1e-12:
        raise ValueError(f"correlation entries must lie in [-{bound:g}, {bound:g}]")
    return C


def _sign_mass(C: np.ndarray, alpha: float, name: str) -> float:
    """min sum|q| with 1 <= C(x,y) * (sum q_i u_i v_i^T)(x,y) <= alpha on
    every cell; inf if C has a zero entry, where no combination reaches 1.
    The rows are S q = r / C, not diag(C) S q = r: the same pivots in exact
    arithmetic, but the crash's Gram-Schmidt over diag(C) S picks dependent
    columns when an entry of C is near 0 (1e-10).  The vertex cap is checked
    first, a zero entry next, before any sign vertex is built."""
    cg = _vertex_map(Alphabets(*C.shape, 2, 2), "sign vertices")
    if not np.all(C):
        return np.inf
    target = 1.0 / C.reshape(-1)
    us, vs = cg.signs
    return _min_l1_combination(FactoredMatrix(us.T, vs.T), target, target, name, alpha)[0]


def nu_corr(C: np.ndarray) -> BoundResult:
    """nu on correlation space: min sum|q| with sum q_i u_i v_i^T = C.

    The dual functional's normalization is ``best_local_response`` on its
    coefficients: the sign vertices are closed under u -> -u, so its max
    over them is max |B(vertex)|."""
    C = _correlation_matrix(C)
    nx, ny = C.shape
    us, vs = _vertex_map(Alphabets(nx, ny, 2, 2), "sign vertices").signs
    target = C.reshape(-1)
    value, record, q, y = _min_l1_combination(FactoredMatrix(us.T, vs.T), target, target,
                                              "nu_corr")
    corr_B = y.reshape(nx, ny)
    coeffs = np.einsum("xy,a,b->xyab", corr_B, SIGNS, SIGNS)
    bell = BellFunctional(
        coeffs=coeffs,
        claimed_bound_class="local",
        normalization=best_local_response(coeffs)[0],
        corr_coeffs=corr_B,
    )
    keep = np.abs(q) > 1e-12
    return BoundResult(
        quantity="nu_corr",
        value=value,
        dual_certificate=bell,
        diagnostics={
            **record,
            "weights": q[keep],
            "sign_pairs": [(us[k // len(vs)], vs[k % len(vs)]) for k in np.flatnonzero(keep)],
        },
    )


def gamma2_corr(C: np.ndarray) -> BoundResult:
    """gamma2 factorization norm of C (tight for quantum correlations).

    SDP: minimize the common diagonal value c of a PSD completion
    [[D1, C], [C^T, D2]] with all diagonal entries equal to c; forcing
    equality is harmless since raising a diagonal preserves PSD-ness.  The
    constraints are those of the binary alphabet's data map
    (``_DataMap.corr_sdp``); C gives the right-hand side.
    """
    C = _correlation_matrix(C, np.inf)
    sol = solve_sdp(_data_map(Alphabets(*C.shape, 2, 2)).corr_sdp.with_data(C.reshape(-1)))
    record = sol.record("gamma2_corr")
    return BoundResult(quantity="gamma2_corr", value=float(sol.objective),
                       diagnostics={**record, "gram": sol.blocks[0]})


def nu_corr_alpha(C: np.ndarray, alpha: float) -> float:
    """Relaxed-correlation nu: min sum|q| with 1 <= C(x,y)*C'(x,y) <= alpha.

    C must be a sign matrix; C' = sum q_i u_i v_i^T is only required to
    agree with C in sign and exceed it cellwise up to factor alpha.
    """
    C = _correlation_matrix(C)
    if not np.all(np.abs(C) == 1.0):
        raise ValueError("nu_corr_alpha expects a sign matrix")
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return _sign_mass(C, alpha, "nu_corr_alpha")


# ---------------------------------------------------------------------------
# Dual certificates


def dual_bell(p: ConditionalDistribution, bound_class: str = "local") -> BellFunctional:
    """Optimal Bell (or level-1 Tsirelson) functional for p.

    local: the dual of the nu_tilde LP, "maximize B(p) subject to
    |B(vertex)| <= 1 on every local deterministic vertex", is solved by
    the functional nu_tilde already returns: its equality multipliers on
    the Collins-Gisin rows, folded into a coefficient tensor and projected
    onto the span of the local vertex tables, so B(p) = nu_tilde(p); the
    normalization is max |B(vertex)| over every vertex, by
    ``best_local_response`` on B and on -B.  npa-level-1: the
    functional gamma2_tilde_1 returns, its data-constraint multipliers
    folded into a plain coefficient tensor.
    """
    if bound_class == "local":
        return nu_tilde(p).dual_certificate
    if bound_class == "npa-level-1":
        return gamma2_tilde_1(p).dual_certificate
    raise ValueError(f"unknown bound class {bound_class!r}")


# ---------------------------------------------------------------------------
# Decompositions and structural checks


def quantum_to_local_decomposition(p: ConditionalDistribution,
                                   corr_decomposer=None) -> AffineModel:
    """Affine model of the dummy-outcome extension of p from binary blocks.

    Extends both alphabets with an extra outcome (the last index) and
    writes the extended p as  sum_{ab} p_ab - (B-1) p_A - (A-1) p_B
    - (AB-A-B+1) p_empty, where each p_ab is supported on a 2x2
    sub-alphabet.  If corr_decomposer is given it is applied to each
    binary block (as a 2-outcome distribution) and the sub-models are
    spliced in, e.g. to push the blocks all the way down to local
    deterministic components.
    """
    _require_valid(p)
    alph = p.alphabets
    nx, ny, na, nb = alph.shape
    ext = Alphabets(nx, ny, na + 1, nb + 1)
    pA = p.marginal_a()
    pB = p.marginal_b()

    def embed(block_2x2, a, b):
        """Lift a binary table on outcomes {a, empty} x {b, empty}."""
        T = np.zeros(ext.shape)
        T[:, :, a, b] = block_2x2[:, :, 0, 0]
        T[:, :, a, nb] = block_2x2[:, :, 0, 1]
        T[:, :, na, b] = block_2x2[:, :, 1, 0]
        T[:, :, na, nb] = block_2x2[:, :, 1, 1]
        return T

    comps = []
    for a in range(na):
        for b in range(nb):
            blk = np.empty((nx, ny, 2, 2))
            joint = p.table[:, :, a, b]
            blk[:, :, 0, 0] = joint
            blk[:, :, 0, 1] = pA[:, a][:, None] - joint
            blk[:, :, 1, 0] = pB[:, b][None, :] - joint
            blk[:, :, 1, 1] = 1.0 - pA[:, a][:, None] - pB[:, b][None, :] + joint
            if corr_decomposer is None:
                comps.append((1.0, ConditionalDistribution(
                    ext, embed(blk, a, b))))
            else:
                sub = corr_decomposer(
                    ConditionalDistribution(Alphabets(nx, ny, 2, 2), blk))
                for w, comp in sub.components:
                    t = comp.table() if isinstance(comp, LocalVertex) else comp.table
                    comps.append((w, ConditionalDistribution(ext, embed(t, a, b))))

    TA = np.zeros(ext.shape)
    TA[:, :, :na, nb] = pA[:, None, :]
    comps.append((-(nb - 1.0), ConditionalDistribution(ext, TA)))
    TB = np.zeros(ext.shape)
    TB[:, :, na, :nb] = pB[None, :, :]
    comps.append((-(na - 1.0), ConditionalDistribution(ext, TB)))
    TE = np.zeros(ext.shape)
    TE[:, :, na, nb] = 1.0
    comps.append((-(na * nb - na - nb + 1.0), ConditionalDistribution(ext, TE)))
    return AffineModel(comps, certified_class="local")


def extended_table(p: ConditionalDistribution) -> np.ndarray:
    """p embedded in the dummy-outcome alphabet (extra outcome never occurs)."""
    nx, ny, na, nb = p.alphabets.shape
    T = np.zeros((nx, ny, na + 1, nb + 1))
    T[:, :, :na, :nb] = p.table
    return T


def gap_check(p: ConditionalDistribution) -> dict:
    """Compare nu_tilde against the Grothendieck-type multiple of gamma2.

    Uses the level-1 relaxation in place of the true gamma2, which only
    makes the inequality harder to satisfy (the relaxation is a lower
    bound), so a pass is a conservative check; the report flags this.
    """
    nu = nu_tilde(p)
    g2 = gamma2_tilde_1(p)
    alph = p.alphabets
    K = GROTHENDIECK.upper
    binary = alph.binary
    bound_binary = (2.0 * K + 1.0) * g2.value
    bound_general = (2.0 * alph.na * alph.nb * (K + 1.0) - 1.0) * g2.value
    return {
        "nu": nu.value,
        "gamma2_1": g2.value,
        "ratio": nu.value / g2.value,
        "bound_2K_plus_1": bound_binary if binary else None,
        "bound_general": bound_general,
        "binary": binary,
        "holds": nu.value <= (bound_binary if binary else bound_general) + 1e-4,
        "uses_relaxation": True,
    }


def scaled_local_reconstruction(p: ConditionalDistribution, t: int,
                                p_l: ConditionalDistribution,
                                pA: np.ndarray, pB: np.ndarray) -> AffineModel:
    """Two-term affine model p = 2^t p_l + (1 - 2^t) pA x pB.

    This is the decomposition induced by a t-bit one-way protocol; its
    mass 2^(t+1) - 1 upper-bounds nu_tilde(p).
    """
    _require_valid(p_l)
    prod = product_distribution(pA, pB)
    _require_valid(prod)
    w = float(2 ** t)
    comps = [(w, p_l)]
    if t > 0:
        comps.append((1.0 - w, prod))
    model = AffineModel(comps, certified_class="local")
    resid = model.residual(p.table)
    if resid > TOL_RECON:
        raise ReconstructionError(
            f"2^t p_l + (1-2^t) pA.pB misses the target by {resid:.3g}; "
            "p_l does not come from a t-bit protocol for p"
        )
    return model


# ---------------------------------------------------------------------------
# Communication lower bounds and reporting


def lower_bound_bits(result: BoundResult) -> dict:
    """Convert a bound value into communication lower bounds in bits.

    Randomized public-coin bits for the nu family, entangled-quantum
    bits for the gamma2 family, and the sharper correlation-only form
    log2(value) for the correlation quantities.
    """
    v = result.value
    if v < 1.0 - 1e-7 and result.quantity in (
            "nu_tilde", "nu_tilde_eps", "gamma2_tilde_1", "gamma2_tilde_1_eps"):
        raise ValueError(f"bound value {v} below 1 for {result.quantity}")
    report = {}
    notes = []

    def clamp(name, value):
        if value < 0.0:
            notes.append(f"{name} clamped to 0 (raw {value:.6g})")
            return 0.0
        return value

    log2v = math.log2(max(v, 1e-300))
    if result.quantity in ("nu_tilde", "nu_tilde_eps", "nu_corr"):
        report["r_pub"] = clamp("r_pub", log2v - 1.0)
    if result.quantity in ("gamma2_tilde_1", "gamma2_tilde_1_eps", "gamma2_corr"):
        report["q_ent"] = clamp("q_ent", 0.5 * log2v - 1.0)
    if result.quantity in ("nu_corr", "gamma2_corr"):
        report["q_ent_corr"] = clamp("q_ent_corr", log2v)
    if notes:
        report["notes"] = notes
    return report


def bound_report(result: BoundResult) -> dict:
    """JSON-friendly report of a BoundResult."""
    out = {
        "quantity": result.quantity,
        "value": result.value,
        "epsilon": result.epsilon,
        "bits": lower_bound_bits(result) if result.value >= 1.0 - 1e-7 else {},
    }
    model = result.primal_certificate
    if model is not None and model.components:
        cert = []
        for w, comp in model.components:
            if isinstance(comp, LocalVertex):
                cert.append({"weight": w, "lambda_a": list(comp.lambda_a),
                             "lambda_b": list(comp.lambda_b)})
            else:
                cert.append({"weight": w, "table": comp.table.tolist()})
        out["primal_certificate"] = {
            "class": model.certified_class,
            "mass": model.mass,
            "components": cert,
        }
    bell = result.dual_certificate
    if bell is not None:
        out["dual_certificate"] = {
            "class": bell.claimed_bound_class,
            "normalization": bell.normalization,
            "coeffs": bell.coeffs.tolist(),
        }
    diag = {}
    for k, v in result.diagnostics.items():
        if isinstance(v, (int, float, str, bool)):
            diag[k] = v
    out["diagnostics"] = diag
    return out
