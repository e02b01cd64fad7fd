"""Relations the bounds satisfy whatever program computes them.

Relabeling the inputs, relabeling the outcomes of one input, or swapping
the parties maps non-signaling points to non-signaling points and local
vertices to local vertices, so each bound takes the same value on p and on
its image.  A program that depends on which outcome the Collins-Gisin
coordinates eliminate, or on which party is Alice, fails here.  The points
are seeded, over five shapes with nx != ny or na != nb among them:
``random_nonlocal``, nonlocal by construction, and ``random_nonsignaling``
on two shapes with na != nb.  Every point is nonlocal, as a local point
reads 1 whatever its labels; a random non-signaling vertex is mostly
local, so those two seeds are ones whose point is not.  The certificates
follow the labels: p's Bell functional and its level-1 Tsirelson
functional, relabeled as p is, reach the image's bound and stay within 1
on every local vertex.

Both bounds are convex: on a segment between two points, neither lies
above the chord.

The smoothed bounds start at the exact ones (the ball of radius 0 is {p})
and do not increase with eps (the balls are nested).  On the binary point
p_C with unbiased marginals and correlations C, both bounds are those of
C, floored at 1.

The correlation bounds ``nu_corr`` and ``gamma2_corr`` take the same value
on C and on C with its rows or its columns permuted, with the signs of
some rows or some columns flipped (an input's two outcomes swapped), and
transposed (the parties swapped), on seeded sign matrices and Sylvester's
4 x 4 Hadamard matrix; C's nu_corr functional, mapped as C is, certifies
the image.
"""

import functools

import numpy as np
import pytest

from nonsig.bounds import (gamma2_corr, gamma2_tilde_1, gamma2_tilde_1_eps, nu_corr, nu_tilde,
                           nu_tilde_eps)
from nonsig.core import (SIGNS, Alphabets, ConditionalDistribution, CorrelationRep,
                         best_local_response, from_correlation_rep)
from helpers import random_nonlocal, random_nonsignaling

SEEDS = {(2, 2, 3, 3): 0, (3, 2, 2, 2): 0, (2, 2, 2, 3): 1, (2, 3, 3, 2): 47, (3, 2, 2, 3): 0}
# The shapes whose point is a random non-signaling one, at a seed where it
# is nonlocal; the others' come from random_nonlocal.
SCANNED = {(2, 2, 2, 3), (2, 3, 3, 2)}
EPS = 0.05
GAMMA2_EPS = 0.03
SWEEP = (0.0, 0.01, 0.02, 0.05, 0.1)
# The shapes of the gamma2_tilde_1_eps relations, kept to two so that the
# file runs in about a second: the smallest, one with an input of three
# outcomes.
GAMMA2_EPS_SHAPES = [(3, 2, 2, 2), (2, 2, 2, 3)]


def _inputs(T):
    """Alice's inputs cycled and Bob's reversed, on tables [x, y, a, b]."""
    return T[np.roll(np.arange(T.shape[0]), 1)][:, ::-1]


def _outcomes(T):
    """The outcomes of Alice's last input cycled: its eliminated outcome
    changes."""
    T = T.copy()
    T[-1] = T[-1][:, np.roll(np.arange(T.shape[2]), 1)]
    return T


def _parties(T):
    return T.transpose(1, 0, 3, 2)


RELABELINGS = {"inputs": _inputs, "outcomes": _outcomes, "parties": _parties}


@functools.cache
def _point(shape):
    """The shape's point and its nu_tilde and gamma2_tilde_1."""
    rng = np.random.default_rng([SEEDS[shape], *shape])
    alph = Alphabets(*shape)
    p = (random_nonsignaling(rng, alph, nonlocal_weight=1.0) if shape in SCANNED
         else random_nonlocal(rng, alph))
    nu = nu_tilde(p)
    assert nu.value > 1.05
    return p, nu, gamma2_tilde_1(p)


@functools.cache
def _nu_tilde_eps(shape):
    """nu_tilde_eps of the shape's point at each eps of SWEEP."""
    p = _point(shape)[0]
    return [nu_tilde_eps(p, eps) for eps in SWEEP]


@functools.cache
def _gamma2_tilde_1_eps(shape):
    return gamma2_tilde_1_eps(_point(shape)[0], GAMMA2_EPS).value


def _image(p, name):
    table = RELABELINGS[name](p.table)
    return ConditionalDistribution(Alphabets(*table.shape), table)


def _id(shape):
    return "x".join(map(str, shape))


def _cases(shapes):
    return pytest.mark.parametrize("shape, name", [
        pytest.param(shape, name, id=f"{_id(shape)}-{name}")
        for shape in shapes for name in RELABELINGS])


CASES = _cases(SEEDS)
SHAPES = pytest.mark.parametrize("shape", list(SEEDS), ids=_id)


@CASES
def test_nu_tilde(shape, name):
    p, nu, _ = _point(shape)
    assert nu_tilde(_image(p, name)).value == pytest.approx(nu.value, rel=0, abs=1e-12)


@CASES
def test_nu_tilde_eps(shape, name):
    p, nu_eps = _point(shape)[0], _nu_tilde_eps(shape)[SWEEP.index(EPS)].value
    assert nu_tilde_eps(_image(p, name), EPS).value == pytest.approx(nu_eps, rel=0, abs=1e-12)


@CASES
def test_gamma2_tilde_1(shape, name):
    # Within the SDP contract's relative gap.
    p, _, gamma2 = _point(shape)
    assert gamma2_tilde_1(_image(p, name)).value == pytest.approx(gamma2.value, rel=1e-5, abs=0)


@_cases(GAMMA2_EPS_SHAPES)
def test_gamma2_tilde_1_eps(shape, name):
    p = _point(shape)[0]
    assert gamma2_tilde_1_eps(_image(p, name), GAMMA2_EPS).value == pytest.approx(
        _gamma2_tilde_1_eps(shape), rel=1e-5, abs=0)


@CASES
def test_nu_tilde_certificate(shape, name):
    # p's Bell functional, relabeled as p is, certifies the image: it is
    # at most 1 on every local vertex and reaches nu_tilde of the image.
    p, nu, _ = _point(shape)
    q = _image(p, name)
    B = RELABELINGS[name](nu.dual_certificate.coeffs)
    assert float((B * q.table).sum()) == pytest.approx(nu_tilde(q).value, rel=0, abs=1e-12)
    assert best_local_response(B)[0] <= 1.0 + 1e-9
    assert best_local_response(-B)[0] <= 1.0 + 1e-9


@CASES
def test_gamma2_tilde_1_certificate(shape, name):
    # p's level-1 Tsirelson functional, relabeled as p is, reaches
    # gamma2_tilde_1 of the image within the SDP contract's relative gap,
    # and is at most 1 on every local vertex (within the SDP tolerance).
    p, _, gamma2 = _point(shape)
    q = _image(p, name)
    B = RELABELINGS[name](gamma2.dual_certificate.coeffs)
    assert float((B * q.table).sum()) == pytest.approx(gamma2_tilde_1(q).value, rel=1e-5, abs=0)
    assert best_local_response(B)[0] <= 1.0 + 1e-6
    assert best_local_response(-B)[0] <= 1.0 + 1e-6


@SHAPES
def test_nu_tilde_eps_at_zero_is_nu_tilde(shape):
    nu = _point(shape)[1]
    assert _nu_tilde_eps(shape)[0].value == pytest.approx(nu.value, rel=0, abs=1e-12)


@SHAPES
def test_nu_tilde_eps_does_not_increase(shape):
    # While the value exceeds 1, p' is a whole eps from p on some input
    # pair: were it closer on every pair, mixing p' with a local point
    # would stay in the ball and lower the value.
    results = _nu_tilde_eps(shape)
    for eps, res in zip(SWEEP, results):
        if res.value > 1.0 + 1e-9:
            assert res.diagnostics["distance_used"] == pytest.approx(eps, rel=0, abs=1e-12)
    values = [res.value for res in results]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), values


@pytest.mark.parametrize("shape", GAMMA2_EPS_SHAPES, ids=_id)
def test_gamma2_tilde_1_eps_does_not_increase(shape):
    # At eps = 0 gamma2_tilde_1_eps solves gamma2_tilde_1's program.
    p, _, gamma2 = _point(shape)
    values = [gamma2.value] + [gamma2_tilde_1_eps(p, eps).value for eps in SWEEP[1:]]
    assert all(b <= a * (1.0 + 1e-5) for a, b in zip(values, values[1:])), values


# The chord's ends: one seeded box and local mixture at two PR weights,
# so that along the segment only the weight moves.  nu_tilde is linear on
# it (to 4e-16), and gamma2_tilde_1 lies 2e-4 below the chord, so both
# relations are nearly tight.
CONVEX_SHAPE = (3, 2, 2, 3)
LAMBDAS = (0.25, 0.5, 0.75)


@functools.cache
def _segment():
    """The segment's ends, and the mixtures at each of LAMBDAS."""
    alph = Alphabets(*CONVEX_SHAPE)
    p, q = (random_nonlocal(np.random.default_rng([5, *CONVEX_SHAPE]), alph, pr_weight=t)
            for t in (0.95, 0.7))
    mixes = [ConditionalDistribution(alph, lam * p.table + (1 - lam) * q.table) for lam in LAMBDAS]
    return p, q, mixes


def test_nu_tilde_is_convex():
    p, q, mixes = _segment()
    ends = nu_tilde(p).value, nu_tilde(q).value
    for lam, mix in zip(LAMBDAS, mixes):
        assert nu_tilde(mix).value <= lam * ends[0] + (1 - lam) * ends[1] + 1e-12, lam


def test_gamma2_tilde_1_is_convex():
    # Within the SDP contract's relative gap.
    p, q, mixes = _segment()
    ends = gamma2_tilde_1(p).value, gamma2_tilde_1(q).value
    for lam, mix in zip(LAMBDAS, mixes):
        chord = lam * ends[0] + (1 - lam) * ends[1]
        assert gamma2_tilde_1(mix).value <= chord * (1.0 + 1e-5), lam


@pytest.mark.parametrize("n, scale", [(2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0), (2, 0.4), (5, 0.4)])
def test_binary_point_of_correlations(n, scale):
    # Random signs at magnitudes 0.6 to 1 are nonlocal at these seeds;
    # scaled by 0.4 they are local, and both bounds read 1.
    rng = np.random.default_rng([n, 7])
    C = scale * rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(0.6, 1.0, (n, n))
    p = from_correlation_rep(CorrelationRep(C, np.zeros(n), np.zeros(n)))
    nu, gamma2 = nu_corr(C).value, gamma2_corr(C).value
    assert (nu > 1.0) == (scale == 1.0)
    assert nu_tilde(p).value == pytest.approx(max(1.0, nu), rel=0, abs=1e-12)
    assert gamma2_tilde_1(p).value == pytest.approx(max(1.0, gamma2), rel=1e-5, abs=0)


def _sylvester4():
    H = np.ones((1, 1))
    for _ in range(2):
        H = np.block([[H, H], [H, -H]])
    return H


SIGN_MATRICES = {**{f"{n}x{n}": np.random.default_rng([n, 17]).choice([-1.0, 1.0], (n, n))
                    for n in range(2, 6)},
                 "sylvester4": _sylvester4()}
CORR_MAPS = {
    "rows": lambda C: C[np.roll(np.arange(len(C)), 1)],
    "columns": lambda C: C[:, ::-1],
    "row-signs": lambda C: C * (-1.0) ** np.arange(len(C))[:, None],
    "column-signs": lambda C: C * np.where(np.arange(C.shape[1]) < 2, -1.0, 1.0),
    "transpose": lambda C: C.T,
}


@functools.cache
def _corr_bounds(name):
    C = SIGN_MATRICES[name]
    return nu_corr(C), gamma2_corr(C).value


@pytest.mark.parametrize("relation", list(CORR_MAPS))
@pytest.mark.parametrize("name", list(SIGN_MATRICES))
def test_correlation_bounds(name, relation):
    # gamma2_corr within the SDP contract's relative gap.
    nu, gamma2 = _corr_bounds(name)
    image = CORR_MAPS[relation](SIGN_MATRICES[name])
    assert nu_corr(image).value == pytest.approx(nu.value, rel=0, abs=1e-12)
    assert gamma2_corr(image).value == pytest.approx(gamma2, rel=1e-5, abs=0)


@pytest.mark.parametrize("relation", list(CORR_MAPS))
@pytest.mark.parametrize("name", list(SIGN_MATRICES))
def test_correlation_certificate(name, relation):
    # C's functional, mapped as C is, reaches nu_corr of the image and is
    # at most 1 on every sign vertex (closed under negation: one call).
    nu = _corr_bounds(name)[0]
    image = CORR_MAPS[relation](SIGN_MATRICES[name])
    B = CORR_MAPS[relation](nu.dual_certificate.corr_coeffs)
    assert float((B * image).sum()) == pytest.approx(nu_corr(image).value, rel=0, abs=1e-12)
    assert best_local_response(np.einsum("xy,a,b->xyab", B, SIGNS, SIGNS))[0] <= 1.0 + 1e-9
