"""Seeded input generator for the benchmark, using numpy only.

Nothing here calls into ``nonsig``: the inputs, and the time it takes to
make them, must not depend on the engines under test.  Points are plain
tables of shape (nx, ny, na, nb) indexed [x, y, a, b].

* Local points are Dirichlet mixtures of local deterministic vertices.
* Nonlocal points blend a local mixture with a relabelled generalised
  PR box (p = 1/d iff b - a = x*y mod d) and white noise.
* Sign matrices and XOR games are random +-1 matrices (with a Dirichlet
  input distribution for games).
"""

from __future__ import annotations

import numpy as np


def vertex_table(shape, lam_a, lam_b) -> np.ndarray:
    """Table of the local deterministic strategy a = lam_a[x], b = lam_b[y]."""
    nx, ny, na, nb = shape
    t = np.zeros(shape)
    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    t[xs, ys, np.asarray(lam_a)[xs], np.asarray(lam_b)[ys]] = 1.0
    return t


def local_point(rng: np.random.Generator, shape, n_vertices: int = 64,
                concentration: float = 2.0) -> np.ndarray:
    """Dirichlet mixture of ``n_vertices`` random deterministic vertices."""
    nx, ny, na, nb = shape
    w = rng.dirichlet(np.full(n_vertices, concentration))
    t = np.zeros(shape)
    for wi in w:
        t += wi * vertex_table(shape, rng.integers(na, size=nx),
                               rng.integers(nb, size=ny))
    return t


def pr_box(rng: np.random.Generator, shape) -> np.ndarray:
    """Generalised PR box with inputs and outcomes relabelled at random.

    Before relabelling p(a,b|x,y) = 1/d iff b - a = x*y (mod d), d = na = nb.
    Permuting inputs, and outcomes per input, keeps it non-signaling.
    """
    nx, ny, na, nb = shape
    if na != nb:
        raise ValueError("generalised PR box needs na == nb")
    d = na
    base = np.zeros(shape)
    for x in range(nx):
        for y in range(ny):
            for a in range(d):
                base[x, y, a, (a + x * y) % d] = 1.0 / d
    px, py = rng.permutation(nx), rng.permutation(ny)
    pa = [rng.permutation(na) for _ in range(nx)]
    pb = [rng.permutation(nb) for _ in range(ny)]
    out = np.empty(shape)
    for x in range(nx):
        for y in range(ny):
            out[x, y] = base[px[x], py[y]][np.ix_(pa[x], pb[y])]
    return out


def nonlocal_point(rng: np.random.Generator, shape, pr_weight: float) -> np.ndarray:
    """Blend of a dense local mixture, a relabelled PR box and white noise.

    The caller fixes the PR weight of each slot in a round: it sets most of
    the simplex pivot count, so fixing it keeps the cost of a round steady
    across seeds while the mixture and relabelling stay random.
    """
    nx, ny, na, nb = shape
    noise_weight = 0.05
    noise = np.full(shape, 1.0 / (na * nb))
    local = local_point(rng, shape, n_vertices=200, concentration=20.0)
    return ((1.0 - pr_weight - noise_weight) * local + pr_weight * pr_box(rng, shape)
            + noise_weight * noise)


def point(rng: np.random.Generator, shape) -> np.ndarray:
    """A nonlocal point (PR weight 0.2 to 0.6) with probability 3/4, else a
    local one."""
    if rng.uniform() < 0.75:
        return nonlocal_point(rng, shape, rng.uniform(0.2, 0.6))
    return local_point(rng, shape)


def sign_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice(np.array([-1.0, 1.0]), size=(n, n))


def sylvester_block(n: int) -> np.ndarray:
    """The leading n x n block of the smallest Sylvester Hadamard matrix
    with at least n rows: a fixed sign matrix, the same for every seed."""
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H[:n, :n]


def xor_game(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random XOR game (G, mu): G a sign matrix, mu a Dirichlet distribution."""
    G = sign_matrix(rng, n)
    mu = rng.dirichlet(np.ones(n * n)).reshape(n, n)
    return G, mu / mu.sum()


def shape_of(name: str) -> tuple[int, int, int, int]:
    """'3x3x2x2' -> (3, 3, 2, 2), read as (nx, ny, na, nb)."""
    return tuple(int(s) for s in name.split("x"))


def dist_json(table: np.ndarray) -> dict:
    """The package's distribution schema for a table."""
    nx, ny, na, nb = table.shape
    return {"nx": nx, "ny": ny, "na": na, "nb": nb, "p": table.tolist()}
