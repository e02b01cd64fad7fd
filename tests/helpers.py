"""Shared generators for the test suite.

Random non-signaling distributions are produced by optimizing random
objectives over the non-signaling polytope with the package's own LP
engine and blending the optimum with a random local mixture.  That
optimum is usually a local deterministic vertex, so these points are
mostly local (nu_tilde = 1).  Points that are nonlocal by construction
come from ``random_nonlocal``, on any shape: a local mixture blended with
a PR box whose inputs and outcomes are relabelled at random.
"""

import numpy as np

from nonsig.core import (Alphabets, ConditionalDistribution, SIGNS, deterministic_strategies,
                         vertex_table_matrix)
from nonsig.lp import LinearProgram, solve_lp


def random_local_mixture(rng, alph: Alphabets, concentration=0.3) -> ConditionalDistribution:
    """Random convex combination of local deterministic vertices."""
    Vt = vertex_table_matrix(alph)
    w = rng.dirichlet(np.full(Vt.shape[1], concentration))
    return ConditionalDistribution(alph, (Vt @ w).reshape(alph.shape))


def nonsignaling_equalities(alph: Alphabets):
    """(A, b) with A p_flat = b encoding normalization and non-signaling."""
    nx, ny, na, nb = alph.shape
    n = alph.n_cells

    def idx(x, y, a, b):
        return ((x * ny + y) * na + a) * nb + b

    rows, rhs = [], []
    for x in range(nx):
        for y in range(ny):
            r = np.zeros(n)
            for a in range(na):
                for b in range(nb):
                    r[idx(x, y, a, b)] = 1.0
            rows.append(r)
            rhs.append(1.0)
    for x in range(nx):
        for a in range(na):
            for y in range(1, ny):
                r = np.zeros(n)
                for b in range(nb):
                    r[idx(x, y, a, b)] = 1.0
                    r[idx(x, 0, a, b)] -= 1.0
                rows.append(r)
                rhs.append(0.0)
    for y in range(ny):
        for b in range(nb):
            for x in range(1, nx):
                r = np.zeros(n)
                for a in range(na):
                    r[idx(x, y, a, b)] = 1.0
                    r[idx(0, y, a, b)] -= 1.0
                rows.append(r)
                rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def random_nonsignaling_vertex(rng, alph: Alphabets) -> ConditionalDistribution:
    """A vertex of the non-signaling polytope maximizing a random objective."""
    A, b = nonsignaling_equalities(alph)
    c = rng.normal(size=alph.n_cells)
    sol = solve_lp(LinearProgram(c=c, A_eq=A, b_eq=b,
                                 lb=np.zeros(alph.n_cells),
                                 ub=np.ones(alph.n_cells)))
    assert sol.status == "optimal", sol.status
    return ConditionalDistribution(alph, sol.x.reshape(alph.shape))


def random_nonsignaling(rng, alph: Alphabets, nonlocal_weight=0.5) -> ConditionalDistribution:
    """Blend of a non-signaling polytope vertex with a local mixture."""
    v = random_nonsignaling_vertex(rng, alph)
    m = random_local_mixture(rng, alph)
    t = rng.uniform(0, nonlocal_weight)
    return ConditionalDistribution(alph, (1 - t) * m.table + t * v.table)


def random_nonlocal(rng, alph: Alphabets, pr_weight=None) -> ConditionalDistribution:
    """Local mixture blended with a randomly relabelled generalised PR box.

    The box has p(a,b|x,y) = 1/d iff a, b < d and b - a = x*y (mod d),
    d = min(na, nb): on the first d outcomes of each party, so na may
    differ from nb.  Each party's marginal is uniform on those outcomes
    whatever the other's input, and permuting the inputs, and the
    outcomes of each input, keeps it non-signaling.  The PR weight t is
    ``pr_weight``, or else drawn from [0.7, 0.95]; on binary outcomes
    t >= 0.7 makes the CHSH functional certify nu_tilde >= 3t - 1 >= 1.1.
    """
    nx, ny, na, nb = alph.shape
    d = min(na, nb)
    box = np.zeros(alph.shape)
    for x, y, a in np.ndindex(nx, ny, d):
        box[x, y, a, (a + x * y) % d] = 1.0 / d
    box = box[rng.permutation(nx)][:, rng.permutation(ny)]
    pa = [rng.permutation(na) for _ in range(nx)]
    pb = [rng.permutation(nb) for _ in range(ny)]
    for x, y in np.ndindex(nx, ny):
        box[x, y] = box[x, y][np.ix_(pa[x], pb[y])]
    t = rng.uniform(0.7, 0.95) if pr_weight is None else pr_weight
    return ConditionalDistribution(alph, t * box + (1 - t) * random_local_mixture(rng, alph).table)


def random_correlation_rep(rng, nx, ny, scale=0.4):
    """Random valid binary (C, MA, MB) triple, mildly nonlocal at most."""
    from nonsig.core import CorrelationRep

    while True:
        C = rng.uniform(-scale, scale, size=(nx, ny))
        MA = rng.uniform(-scale / 2, scale / 2, size=nx)
        MB = rng.uniform(-scale / 2, scale / 2, size=ny)
        rep = CorrelationRep(C, MA, MB)
        if rep.min_implied_probability() >= 0.0:
            return rep


def local_twin(cg) -> np.ndarray:
    """The dense [S, -S] of the nu_tilde LP of a data map ``cg``
    (``bounds._DataMap``), S the Collins-Gisin coordinates of the local
    vertices in the order of ``vertex_table_matrix``: the oracle of the
    factored form.  Written from the two single-party indicator tables: the
    cells as their outer products, each marginal row as one party's
    indicators, the normalization as ones."""
    nx, ny, na, nb = cg.alph.shape

    def indicators(n_inputs, n_outcomes):  # [x, a, k]
        strategies = deterministic_strategies(n_inputs, n_outcomes)
        return (strategies.T[:, None, :] == np.arange(n_outcomes)[:, None]).astype(float)

    alice, bob = indicators(nx, na), indicators(ny, nb)
    twin = np.empty((cg.n, 2, bob.shape[-1], alice.shape[-1]))
    S = twin[:, 0]
    cell, mA, mB, norm = cg._split(S)
    np.multiply(alice[:, None, :-1, None, None, :], bob[None, :, None, :-1, :, None],
                out=cell.reshape(nx, ny, na - 1, nb - 1, *S.shape[1:]))
    mA[...] = alice[:, :-1, None, :].reshape(-1, 1, alice.shape[-1])
    mB[...] = bob[:, :-1, :, None].reshape(-1, bob.shape[-1], 1)
    norm[...] = 1.0
    np.negative(S, out=twin[:, 1])
    return twin.reshape(cg.n, -1)


def sign_twin(nx: int, ny: int):
    """The dense [S, -S] of the min-L1 LPs over sign vertices, and the sign
    vectors us and vs of S's columns: column k of S is the flattened
    us[k // len(vs)] vs[k % len(vs)]^T, with u_0 = v_0 = +1.  The oracle
    of the factored form; column-major, as the sign reports were first
    computed with."""
    us = SIGNS[deterministic_strategies(nx, 2, range(2 ** (nx - 1)))]
    vs = SIGNS[deterministic_strategies(ny, 2, range(2 ** (ny - 1)))]
    cols = np.empty((2, len(us), len(vs), nx, ny))
    np.multiply(us[:, None, :, None], vs[None, :, None, :], out=cols[0])
    np.negative(cols[0], out=cols[1])
    return cols.reshape(-1, nx * ny).T, us, vs
