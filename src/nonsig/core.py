"""Data model for bipartite conditional distributions p(a,b|x,y).

Conventions used throughout the package:

* tables are numpy arrays indexed ``[x, y, a, b]``;
* for binary outcomes, outcome index 0 maps to the sign +1 and index 1 to
  the sign -1 (fixed convention for file I/O and correlation algebra);
* deterministic strategies are enumerated by :func:`deterministic_strategies`
  alone (lexicographic, first input most significant); local vertex k pairs
  Alice's strategy k % na^nx with Bob's k // na^nx, so LP columns are fixed.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

# Feasibility tolerance for validation (normalization, nonnegativity,
# non-signaling).  Loose enough not to reject LP/SDP solver output.
TOL_FEAS = 1e-9
# Tolerance for affine-model reconstruction checks.
TOL_RECON = 1e-7

# Largest number of vertices (local, sign or strategy) we agree to
# enumerate; the NONSIG_VERTEX_CAP environment variable overrides it.
DEFAULT_VERTEX_CAP = 2_000_000

# Outcome-index -> sign map for binary outcomes.
SIGNS = np.array([1.0, -1.0])


class ShapeError(ValueError):
    """Structural problem with the input (wrong shapes, bad JSON keys)."""


class UnsupportedRepresentationError(ValueError):
    """Operation requires binary outcomes (or another unmet representation)."""


class InfeasibleRepresentationError(ValueError):
    """A (C, MA, MB) triple that does not describe a distribution."""


class ResourceLimitError(RuntimeError):
    """A configured enumeration or size cap would be exceeded."""


def check_vertex_cap(count: int, items: str) -> None:
    """Refuse to enumerate ``count`` items above the cap.

    The one cap policy for every vertex-type enumeration (local vertices,
    sign vertices, classical strategies): NONSIG_VERTEX_CAP if set, else
    DEFAULT_VERTEX_CAP.
    """
    limit = DEFAULT_VERTEX_CAP
    env = os.environ.get("NONSIG_VERTEX_CAP")
    if env:
        if not env.strip().isdecimal():
            raise ValueError(f"NONSIG_VERTEX_CAP must be a nonnegative integer, got {env!r}")
        limit = int(env)
    if count > limit:
        raise ResourceLimitError(
            f"enumeration would produce {count} {items} (cap {limit})")


def is_integer(v) -> bool:
    """Whether v is a Python or numpy integer; a bool, though an int, is none."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class Alphabets:
    """Input/outcome alphabet sizes: nx, ny inputs and na, nb outcomes."""

    nx: int
    ny: int
    na: int
    nb: int

    def __post_init__(self):
        for name in ("nx", "ny", "na", "nb"):
            v = getattr(self, name)
            if not is_integer(v) or v < 1:
                raise ShapeError(f"{name} must be a positive integer, got {v!r}")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.nx, self.ny, self.na, self.nb)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.na * self.nb

    @property
    def vertex_count(self) -> int:
        return self.na ** self.nx * self.nb ** self.ny

    @property
    def binary(self) -> bool:
        return self.na == 2 and self.nb == 2


@dataclass(frozen=True)
class ConditionalDistribution:
    """A conditional distribution p(a,b|x,y) stored as a [x,y,a,b] table.

    Entries in [-TOL_FEAS, 0) are clipped to 0 at construction; anything
    more negative is kept so that :func:`validate` can report it.
    """

    alphabets: Alphabets
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != self.alphabets.shape:
            raise ShapeError(
                f"table shape {t.shape} does not match alphabets {self.alphabets.shape}"
            )
        if not np.all(np.isfinite(t)):
            raise ShapeError("table contains non-finite entries")
        t = np.where((t < 0) & (t >= -TOL_FEAS), 0.0, t)
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def marginal_a(self) -> np.ndarray:
        """p(a|x), averaged over y (identical per y for non-signaling p)."""
        return self.table.sum(axis=3).mean(axis=1)

    def marginal_b(self) -> np.ndarray:
        """p(b|y), averaged over x."""
        return self.table.sum(axis=2).mean(axis=0)

    def flat(self) -> np.ndarray:
        return self.table.reshape(-1)


@dataclass(frozen=True)
class CorrelationRep:
    """Binary-outcome representation (C, MA, MB) of a non-signaling p.

    C[x, y] = E(a.b|x,y), MA[x] = E(a|x), MB[y] = E(b|y) with outcomes
    read as signs via index 0 -> +1, index 1 -> -1.
    """

    C: np.ndarray
    MA: np.ndarray
    MB: np.ndarray

    def __post_init__(self):
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        MA = np.atleast_1d(np.asarray(self.MA, dtype=float))
        MB = np.atleast_1d(np.asarray(self.MB, dtype=float))
        if C.shape != (MA.size, MB.size):
            raise ShapeError(
                f"C shape {C.shape} inconsistent with marginals ({MA.size}, {MB.size})"
            )
        for arr in (C, MA, MB):
            arr.flags.writeable = False
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "MA", MA)
        object.__setattr__(self, "MB", MB)

    @property
    def nx(self) -> int:
        return self.C.shape[0]

    @property
    def ny(self) -> int:
        return self.C.shape[1]

    def coords(self) -> np.ndarray:
        """Flatten to the (C, u, v) coordinates of the ambient affine space."""
        return np.concatenate([self.C.reshape(-1), self.MA, self.MB])

    def min_implied_probability(self) -> float:
        """min over x,y,a,b of (1 + ab C + a MA + b MB)/4."""
        vals = _rep_table(self)
        return float(vals.min())


@dataclass(frozen=True)
class LocalVertex:
    """A local deterministic strategy pair (lambda_A, lambda_B)."""

    alphabets: Alphabets
    lambda_a: tuple[int, ...]
    lambda_b: tuple[int, ...]

    def __post_init__(self):
        if len(self.lambda_a) != self.alphabets.nx or len(self.lambda_b) != self.alphabets.ny:
            raise ShapeError("strategy length does not match input alphabet")

    def table(self) -> np.ndarray:
        t = np.zeros(self.alphabets.shape)
        x, y = np.ix_(range(self.alphabets.nx), range(self.alphabets.ny))
        t[x, y, np.array(self.lambda_a)[x], np.array(self.lambda_b)[y]] = 1.0
        return t

    def distribution(self) -> ConditionalDistribution:
        return ConditionalDistribution(self.alphabets, self.table())


@dataclass
class AffineModel:
    """A signed decomposition p = sum_i q_i p_i over component distributions.

    Components are ConditionalDistribution or LocalVertex instances;
    :meth:`from_vertex_weights` builds a model of LocalVertex components.
    """

    components: list  # list of (weight, component)
    certified_class: str = "local-deterministic"

    @staticmethod
    def from_vertex_weights(alphabets: Alphabets, weights: np.ndarray) -> "AffineModel":
        """Build a model from per-vertex signed weights, dropping ~0 terms."""
        keep = np.flatnonzero(np.abs(weights) > 1e-12)
        n_a = alphabets.na ** alphabets.nx
        las = deterministic_strategies(alphabets.nx, alphabets.na, keep % n_a).tolist()
        lbs = deterministic_strategies(alphabets.ny, alphabets.nb, keep // n_a).tolist()
        comps = [(float(weights[k]), LocalVertex(alphabets, tuple(la), tuple(lb)))
                 for k, la, lb in zip(keep, las, lbs)]
        return AffineModel(comps, certified_class="local-deterministic")

    @property
    def mass(self) -> float:
        """L1 mass sum_i |q_i| of the decomposition."""
        return float(sum(abs(w) for w, _ in self.components))

    @property
    def weight_sum(self) -> float:
        return float(sum(w for w, _ in self.components))

    def evaluate(self) -> np.ndarray:
        """The table sum_i q_i p_i."""
        if not self.components:
            raise ValueError("empty affine model")
        weights, comps = zip(*self.components)
        alph = comps[0].alphabets
        tables = np.zeros((len(comps),) + alph.shape)
        verts = [k for k, comp in enumerate(comps) if isinstance(comp, LocalVertex)]
        if verts:
            # One scatter of every vertex's ones: table k has 1 at (x, y, la[x], lb[y]).
            la = np.array([comps[k].lambda_a for k in verts])[:, :, None]
            lb = np.array([comps[k].lambda_b for k in verts])[:, None, :]
            k, x, y = np.ix_(verts, range(alph.nx), range(alph.ny))
            tables[k, x, y, la, lb] = 1.0
        for k, comp in enumerate(comps):
            if not isinstance(comp, LocalVertex):
                tables[k] = comp.table
        # Running sum in component order, the first term taken as is: the
        # same additions, so the same bits, as summing term by term.
        terms = np.reshape(weights, (-1, 1, 1, 1, 1)) * tables
        return np.add.accumulate(terms, axis=0)[-1]

    def residual(self, table: np.ndarray) -> float:
        """max |evaluate() - table|, or inf for an empty model."""
        return float(np.abs(self.evaluate() - table).max()) if self.components else np.inf

    def split_signed(self):
        """Group terms by weight sign into (q_plus, mix_plus, q_minus, mix_minus).

        mix_plus / mix_minus are lists of (probability, component) summing
        to one; either may be empty when all weights share a sign.
        """
        pos = [(w, c) for w, c in self.components if w > 0]
        neg = [(-w, c) for w, c in self.components if w < 0]
        q_plus = sum(w for w, _ in pos)
        q_minus = sum(w for w, _ in neg)
        mix_plus = [(w / q_plus, c) for w, c in pos] if q_plus else []
        mix_minus = [(w / q_minus, c) for w, c in neg] if q_minus else []
        return q_plus, mix_plus, q_minus, mix_minus


@dataclass
class BellFunctional:
    """A linear functional B(p) = sum B[a,b,x,y-order: x,y,a,b] p(a,b|x,y).

    ``normalization`` records max |B(p')| over the claimed bound class;
    certificates are scaled so this is <= 1.  ``corr_coeffs`` is set for
    functionals that live on correlation space (B(p) = sum B_xy C(x,y)).
    """

    coeffs: np.ndarray  # shape (nx, ny, na, nb)
    claimed_bound_class: str = "local"
    normalization: float = 1.0
    corr_coeffs: np.ndarray | None = None

    def value(self, dist) -> float:
        table = dist.table if isinstance(dist, ConditionalDistribution) else np.asarray(dist)
        return float(np.tensordot(self.coeffs, table, axes=4))

    def value_on_correlations(self, C: np.ndarray) -> float:
        if self.corr_coeffs is None:
            raise UnsupportedRepresentationError("functional has no correlation-space form")
        return float(np.sum(self.corr_coeffs * np.asarray(C)))


@dataclass(frozen=True)
class ValidationReport:
    normalized: bool
    nonnegative: bool
    non_signaling: bool
    max_normalization_violation: float
    max_negativity: float
    max_ns_violation: float

    @property
    def ok(self) -> bool:
        return self.normalized and self.nonnegative and self.non_signaling

    def violated_families(self) -> list[str]:
        out = []
        if not self.normalized:
            out.append(f"normalization (max violation {self.max_normalization_violation:.3g})")
        if not self.nonnegative:
            out.append(f"nonnegativity (max violation {self.max_negativity:.3g})")
        if not self.non_signaling:
            out.append(f"non-signaling (max violation {self.max_ns_violation:.3g})")
        return out


def validate(dist: ConditionalDistribution) -> ValidationReport:
    """Check normalization, nonnegativity, and non-signaling of a table."""
    t = dist.table
    norm_viol = float(np.abs(t.sum(axis=(2, 3)) - 1.0).max())
    neg_viol = float(max(0.0, -t.min()))
    # Alice's marginal p(a|x,y) must not depend on y; Bob's not on x.
    pa = t.sum(axis=3)  # [x, y, a]
    pb = t.sum(axis=2)  # [x, y, b]
    ns_a = float(np.abs(pa - pa.mean(axis=1, keepdims=True)).max()) if dist.alphabets.ny > 1 else 0.0
    ns_b = float(np.abs(pb - pb.mean(axis=0, keepdims=True)).max()) if dist.alphabets.nx > 1 else 0.0
    ns_viol = max(ns_a, ns_b)
    return ValidationReport(
        normalized=norm_viol <= TOL_FEAS,
        nonnegative=neg_viol <= TOL_FEAS,
        non_signaling=ns_viol <= TOL_FEAS,
        max_normalization_violation=norm_viol,
        max_negativity=neg_viol,
        max_ns_violation=ns_viol,
    )


def to_correlation_rep(dist: ConditionalDistribution) -> CorrelationRep:
    """Extract (C, MA, MB) from a binary-outcome distribution."""
    if not dist.alphabets.binary:
        raise UnsupportedRepresentationError(
            "correlation representation requires binary outcomes"
        )
    t = dist.table
    C = np.einsum("xyab,a,b->xy", t, SIGNS, SIGNS)
    MA = np.einsum("xa,a->x", t.sum(axis=3).mean(axis=1), SIGNS)
    MB = np.einsum("yb,b->y", t.sum(axis=2).mean(axis=0), SIGNS)
    return CorrelationRep(C, MA, MB)


def _rep_table(rep: CorrelationRep) -> np.ndarray:
    """Table implied by (C, MA, MB): p = (1 + ab C + a MA + b MB)/4."""
    a = SIGNS[None, None, :, None]
    b = SIGNS[None, None, None, :]
    C = rep.C[:, :, None, None]
    MA = rep.MA[:, None, None, None]
    MB = rep.MB[None, :, None, None]
    return 0.25 * (1.0 + a * b * C + a * MA + b * MB)


def from_correlation_rep(rep: CorrelationRep) -> ConditionalDistribution:
    """Reconstruct the unique binary non-signaling distribution of (C, MA, MB)."""
    t = _rep_table(rep)
    if t.min() < -TOL_FEAS:
        raise InfeasibleRepresentationError(
            f"(C, MA, MB) implies probability {t.min():.3g} < 0"
        )
    alph = Alphabets(rep.nx, rep.ny, 2, 2)
    return ConditionalDistribution(alph, np.clip(t, 0.0, None))


def deterministic_strategies(n_inputs: int, n_outcomes: int, rows=None) -> np.ndarray:
    """Every map [n_inputs] -> [n_outcomes] as one int row, in lexicographic
    order with the first input most significant; ``rows`` picks some rows."""
    k = np.arange(n_outcomes ** n_inputs) if rows is None else np.asarray(rows)
    return k[:, None] // n_outcomes ** np.arange(n_inputs - 1, -1, -1) % n_outcomes


def enumerate_local_vertices(alphabets: Alphabets):
    """Yield all na^nx * nb^ny local deterministic vertices: vertex k pairs
    Alice's strategy k % na^nx with Bob's k // na^nx."""
    check_vertex_cap(alphabets.vertex_count, "local vertices")
    las = deterministic_strategies(alphabets.nx, alphabets.na).tolist()
    for lb in deterministic_strategies(alphabets.ny, alphabets.nb).tolist():
        for la in las:
            yield LocalVertex(alphabets, tuple(la), tuple(lb))


def vertex_table_matrix(alphabets: Alphabets) -> np.ndarray:
    """Dense matrix whose columns are flattened vertex tables (n_cells x V),
    in the order of :func:`enumerate_local_vertices`."""
    check_vertex_cap(alphabets.vertex_count, "local vertices")
    nx, ny, na, nb = alphabets.shape
    ta = deterministic_strategies(nx, na)[:, :, None] == np.arange(na)  # [ka, x, a]
    tb = deterministic_strategies(ny, nb)[:, :, None] == np.arange(nb)  # [kb, y, b]
    cols = tb[:, None, None, :, None, :] & ta[None, :, :, None, :, None]
    return cols.reshape(alphabets.vertex_count, alphabets.n_cells).astype(float).T


# Rows of the enumerated party's strategies that are scored at once.
_RESPONSE_BLOCK = 4096


def best_local_response(B: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact max of <B, v> over local deterministic vertices v; B is [x, y, a, b].

    The party with fewer strategies is enumerated in blocks; the other
    answers each input with its best outcome, as <B, v> splits over its
    inputs.  Returns (value, lambda_a, lambda_b): the first maximizer in
    enumeration order, per-input ties going to the first outcome.
    """
    B = np.asarray(B, dtype=float)
    swap = B.shape[3] ** B.shape[1] < B.shape[2] ** B.shape[0]
    by_a = np.ascontiguousarray(B.transpose((1, 3, 0, 2) if swap else (0, 2, 1, 3)))
    nx, na = by_a.shape[:2]  # by_a is [x, a, y, b] with the enumerated party as x
    count = na ** nx
    check_vertex_cap(count, "classical strategies")
    best = (-np.inf, None, None)
    for start in range(0, count, _RESPONSE_BLOCK):
        la = deterministic_strategies(nx, na, range(start, count)[:_RESPONSE_BLOCK])
        score = sum(by_a[x][la[:, x]] for x in range(nx))  # [k, y, b]
        values = score.max(axis=2).sum(axis=1)
        k = int(np.argmax(values))
        if values[k] > best[0]:
            best = (float(values[k]), la[k], score[k].argmax(axis=1))
    return (best[0], best[2], best[1]) if swap else best


def affine_basis(nx: int, ny: int) -> list[CorrelationRep]:
    """Basis of the affine span of binary non-signaling space, as (C, u, v).

    nx*ny members have a single unit correlation entry and zero marginals;
    nx members a single unit Alice marginal; ny members a single unit Bob
    marginal.  Each converts to a valid probability table, but only the
    span matters: together they have full rank nx*ny + nx + ny.
    """
    for name, n in (("nx", nx), ("ny", ny)):
        if n < 1:
            raise ShapeError(f"{name} must be >= 1, got {n}")
    # Member k is row k of the identity, split into its C, u and v parts.
    C, u, v = np.split(np.eye(nx * ny + nx + ny), [nx * ny, nx * ny + nx], axis=1)
    return [CorrelationRep(Ck.reshape(nx, ny), uk, vk) for Ck, uk, vk in zip(C, u, v)]


def statistical_distance(p: ConditionalDistribution, q: ConditionalDistribution) -> float:
    """Total variation distance: max over (x,y) of half the L1 difference.

    Equals the max over events E of |p(E|x,y) - q(E|x,y)| (checked against
    exhaustive event enumeration in the tests rather than assumed).
    """
    if p.alphabets != q.alphabets:
        raise ShapeError("distributions have different alphabets")
    diff = np.abs(p.table - q.table).sum(axis=(2, 3))
    return float(0.5 * diff.max())


def symmetrize_marginals(dist: ConditionalDistribution) -> ConditionalDistribution:
    """Mix with the both-outputs-flipped distribution: same C, zero marginals."""
    if not dist.alphabets.binary:
        raise UnsupportedRepresentationError("marginal symmetrization requires binary outcomes")
    flipped = dist.table[:, :, ::-1, ::-1]
    return ConditionalDistribution(dist.alphabets, 0.5 * (dist.table + flipped))


# ---------------------------------------------------------------------------
# Canonical distributions


def pr_box() -> ConditionalDistribution:
    """The PR box: p(a,b|x,y) = 1/2 iff a xor b = x and y (binary)."""
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        if (a ^ b) == (x & y):
            t[x, y, a, b] = 0.5
    return ConditionalDistribution(Alphabets(2, 2, 2, 2), t)


def boolean_distribution(C: np.ndarray) -> ConditionalDistribution:
    """Distribution of a +/-1 function: uniform marginals, sign(ab) = C(x,y)."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not np.all(np.abs(C) == 1.0):
        raise ShapeError("expected a +/-1 sign matrix")
    nx, ny = C.shape
    return from_correlation_rep(CorrelationRep(C, np.zeros(nx), np.zeros(ny)))


def uniform_distribution(alphabets: Alphabets) -> ConditionalDistribution:
    t = np.full(alphabets.shape, 1.0 / (alphabets.na * alphabets.nb))
    return ConditionalDistribution(alphabets, t)


def product_distribution(pA: np.ndarray, pB: np.ndarray) -> ConditionalDistribution:
    """p(a,b|x,y) = pA(a|x) pB(b|y) from marginal tables [x,a] and [y,b]."""
    pA = np.atleast_2d(np.asarray(pA, dtype=float))
    pB = np.atleast_2d(np.asarray(pB, dtype=float))
    t = np.einsum("xa,yb->xyab", pA, pB)
    alph = Alphabets(pA.shape[0], pB.shape[0], pA.shape[1], pB.shape[1])
    return ConditionalDistribution(alph, t)


# ---------------------------------------------------------------------------
# JSON I/O (schema shared with the CLI)


def distribution_from_json(obj: dict) -> ConditionalDistribution:
    """Parse the distribution schema.

    Either {"nx","ny","na","nb","p": [x][y][a][b]} or, for binary
    outcomes, {"C": [x][y], "MA": [x], "MB": [y]} (marginals optional,
    default zero).  Supplying both "p" and "C" is rejected.
    """
    if not isinstance(obj, dict):
        raise ShapeError("expected a JSON object")
    if "p" in obj and "C" in obj:
        raise ShapeError('both "p" and "C" present; supply exactly one')
    if "p" in obj:
        try:
            alph = Alphabets(obj["nx"], obj["ny"], obj["na"], obj["nb"])
        except KeyError as e:
            raise ShapeError(f"missing field {e}") from None
        return ConditionalDistribution(alph, np.asarray(obj["p"], dtype=float))
    if "C" in obj:
        C = np.atleast_2d(np.asarray(obj["C"], dtype=float))
        nx, ny = C.shape
        MA = np.asarray(obj.get("MA", np.zeros(nx)), dtype=float)
        MB = np.asarray(obj.get("MB", np.zeros(ny)), dtype=float)
        return from_correlation_rep(CorrelationRep(C, MA, MB))
    raise ShapeError('distribution JSON needs either "p" or "C"')


def distribution_to_json(dist: ConditionalDistribution) -> dict:
    a = dist.alphabets
    return {"nx": a.nx, "ny": a.ny, "na": a.na, "nb": a.nb,
            "p": dist.table.tolist()}


def load_distribution(path) -> ConditionalDistribution:
    with open(path) as f:
        return distribution_from_json(json.load(f))


def dump_distribution(dist: ConditionalDistribution, path) -> None:
    with open(path, "w") as f:
        json.dump(distribution_to_json(dist), f)
