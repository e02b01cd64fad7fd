"""The bounds are invariant under relabelings of p.

Relabeling the inputs, relabeling the outcomes of one input, or swapping
the parties maps non-signaling points to non-signaling points and local
vertices to local vertices, so each bound takes the same value on p and on
its image.  A program that depends on which outcome the Collins-Gisin
coordinates eliminate, or on which party is Alice, fails here.  The points
are seeded, over four shapes with nx != ny or na != nb among them:
``random_nonlocal`` where na = nb, ``random_nonsignaling`` otherwise.  Every
point is nonlocal, as a local point reads 1 whatever its labels; a random
non-signaling vertex is mostly local, so those two seeds are ones whose
point is not.
"""

import functools

import numpy as np
import pytest

from nonsig.bounds import gamma2_tilde_1, nu_tilde, nu_tilde_eps
from nonsig.core import Alphabets, ConditionalDistribution, best_local_response
from helpers import random_nonlocal, random_nonsignaling

SEEDS = {(2, 2, 3, 3): 0, (3, 2, 2, 2): 0, (2, 2, 2, 3): 1, (2, 3, 3, 2): 47}
EPS = 0.05


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
    """The shape's point and its nu_tilde, nu_tilde_eps and gamma2_tilde_1."""
    rng = np.random.default_rng([SEEDS[shape], *shape])
    alph = Alphabets(*shape)
    p = (random_nonlocal(rng, alph) if shape[2] == shape[3]
         else random_nonsignaling(rng, alph, nonlocal_weight=1.0))
    nu = nu_tilde(p)
    assert nu.value > 1.05
    return p, nu, nu_tilde_eps(p, EPS).value, gamma2_tilde_1(p).value


def _image(p, name):
    table = RELABELINGS[name](p.table)
    return ConditionalDistribution(Alphabets(*table.shape), table)


CASES = pytest.mark.parametrize("shape, name", [
    pytest.param(shape, name, id=f"{'x'.join(map(str, shape))}-{name}")
    for shape in SEEDS for name in RELABELINGS])


@CASES
def test_nu_tilde(shape, name):
    p, nu, _, _ = _point(shape)
    assert nu_tilde(_image(p, name)).value == pytest.approx(nu.value, rel=0, abs=1e-12)


@CASES
def test_nu_tilde_eps(shape, name):
    p, _, nu_eps, _ = _point(shape)
    assert nu_tilde_eps(_image(p, name), EPS).value == pytest.approx(nu_eps, rel=0, abs=1e-12)


@CASES
def test_gamma2_tilde_1(shape, name):
    # Within the SDP contract's relative gap.
    p, _, _, gamma2 = _point(shape)
    assert gamma2_tilde_1(_image(p, name)).value == pytest.approx(gamma2, rel=1e-5, abs=0)


@CASES
def test_nu_tilde_certificate(shape, name):
    # p's Bell functional, relabeled as p is, certifies the image: it is
    # at most 1 on every local vertex and reaches nu_tilde of the image.
    p, nu, _, _ = _point(shape)
    q = _image(p, name)
    B = RELABELINGS[name](nu.dual_certificate.coeffs)
    assert float((B * q.table).sum()) == pytest.approx(nu_tilde(q).value, rel=0, abs=1e-12)
    assert best_local_response(B)[0] <= 1.0 + 1e-9
    assert best_local_response(-B)[0] <= 1.0 + 1e-9
