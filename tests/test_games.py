"""Tests for XOR games and the game-Bell correspondence."""

import math

import numpy as np
import pytest

from nonsig.core import BellFunctional, ResourceLimitError, pr_box, to_correlation_rep
from nonsig.bounds import dual_bell, nu_corr
from nonsig.games import (
    XorGame,
    bell_to_game,
    bias_of_correlations,
    chsh_game,
    classical_bias,
    epsilon_pub,
    equal_bias_value,
    game_from_json,
    game_to_bell,
    game_to_json,
    quantum_bias,
)

CHSH_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])
SQRT2 = math.sqrt(2.0)


def random_game(rng, nx, ny):
    G = np.sign(rng.normal(size=(nx, ny)))
    G[G == 0] = 1.0
    mu = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    return XorGame(G, mu)


class TestClassicalBias:
    def test_chsh(self):
        res = classical_bias(chsh_game())
        assert res["bias"] == pytest.approx(0.5)
        # the returned strategy attains the bias
        C = np.outer(res["u"], res["v"])
        assert bias_of_correlations(chsh_game(), C) == pytest.approx(res["bias"])
        # the first maximizer in enumeration order: all +1
        assert res["u"].tolist() == [1.0, 1.0] and res["v"].tolist() == [1.0, 1.0]

    def test_constant_game(self):
        game = XorGame(np.ones((3, 3)), np.full((3, 3), 1.0 / 9.0))
        res = classical_bias(game)
        assert res["bias"] == pytest.approx(1.0)

    def test_constant_strategy_lower_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            game = random_game(rng, 3, 4)
            assert classical_bias(game)["bias"] >= abs(float(np.sum(game.mu * game.G))) - 1e-12

    def test_transposed_enumeration_agrees(self):
        rng = np.random.default_rng(2)
        game = random_game(rng, 4, 2)
        flipped = XorGame(game.G.T, game.mu.T)
        assert classical_bias(game)["bias"] == pytest.approx(
            classical_bias(flipped)["bias"])

    def test_size_cap(self):
        n = 21
        G = np.ones((n, n))
        mu = np.full((n, n), 1.0 / n ** 2)
        with pytest.raises(ResourceLimitError):
            classical_bias(XorGame(G, mu))

    def test_size_cap_env_override(self, monkeypatch):
        # 2^3 = 8 Alice strategies on a 3x4 game.
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "7")
        with pytest.raises(ResourceLimitError):
            classical_bias(random_game(np.random.default_rng(3), 3, 4))
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "8")
        assert classical_bias(random_game(np.random.default_rng(3), 3, 4))["bias"] > 0


class TestQuantumBias:
    def test_chsh_tsirelson(self):
        res = quantum_bias(chsh_game())
        assert res["bias"] == pytest.approx(SQRT2 / 2.0, abs=1e-4)
        # unnormalized CHSH sum respects the 2*sqrt(2) Tsirelson bound
        assert 4.0 * res["bias"] <= 2.0 * SQRT2 + 1e-4
        # Gram certificate: unit diagonal and PSD
        gram = res["gram"]
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-6
        assert np.linalg.eigvalsh(gram)[0] >= -1e-7

    def test_constant_game(self):
        game = XorGame(np.ones((2, 2)), np.full((2, 2), 0.25))
        assert quantum_bias(game)["bias"] == pytest.approx(1.0, abs=1e-5)

    def test_dominates_classical(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            game = random_game(rng, 3, 3)
            assert quantum_bias(game)["bias"] >= classical_bias(game)["bias"] - 1e-6


class TestGameBellBijection:
    def test_chsh_functional_values(self):
        bell = game_to_bell(chsh_game())
        assert bell.normalization == pytest.approx(0.5)
        C_pr = to_correlation_rep(pr_box()).C
        assert bell.value_on_correlations(C_pr) == pytest.approx(1.0)
        assert bell.value(pr_box()) == pytest.approx(1.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            game = random_game(rng, 2, 3)
            back = bell_to_game(game_to_bell(game))
            assert np.array_equal(back.G, game.G)
            assert np.abs(back.mu - game.mu).max() <= 1e-12

    def test_zero_coefficient_cell(self):
        B = np.array([[0.5, 0.0], [-0.25, 0.25]])
        game = bell_to_game(B)
        assert game.mu[0, 1] == 0.0
        recovered = game_to_bell(game).corr_coeffs
        assert np.abs(recovered - B).max() <= 1e-12

    def test_functional_without_correlation_form_rejected(self):
        bell = BellFunctional(np.ones((2, 2, 2, 2)))
        with pytest.raises(ValueError, match="no correlation-space coefficients"):
            bell_to_game(bell)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            bell_to_game(np.zeros((2, 2)))


class TestEqualBias:
    def test_chsh_signs(self):
        assert equal_bias_value(CHSH_SIGNS) == pytest.approx(2.0, abs=1e-5)

    def test_rank_one(self):
        C = np.outer([1.0, -1.0], [1.0, 1.0, -1.0])
        assert equal_bias_value(C) == pytest.approx(1.0, abs=1e-6)

    def test_matches_nu_corr(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            C = np.sign(rng.normal(size=(2, 3)))
            assert equal_bias_value(C) == pytest.approx(nu_corr(C).value, abs=1e-5)


class TestEpsilonPub:
    def test_chsh_signs(self):
        assert epsilon_pub(CHSH_SIGNS) == pytest.approx(0.5, abs=1e-6)

    def test_game_bias_inequality(self):
        # nu(C) >= 1/epsilon_pub(C) on random sign matrices
        rng = np.random.default_rng(6)
        for _ in range(6):
            C = np.sign(rng.normal(size=(2, 2)))
            assert nu_corr(C).value >= 1.0 / epsilon_pub(C) - 1e-5

    def test_one_sided_vs_sampled_mu(self):
        # the worst-mu LP value never exceeds any particular mu's bias
        rng = np.random.default_rng(7)
        C = CHSH_SIGNS
        base = epsilon_pub(C)
        for _ in range(10):
            mu = rng.dirichlet(np.ones(4)).reshape(2, 2)
            game = XorGame(C, mu)
            assert base <= classical_bias(game)["bias"] + 1e-8


class TestGameRatioCharacterization:
    def test_dual_game_achieves_nu(self):
        # the game extracted from the optimal Bell functional certifies
        # nu(C) = eps_mu(G || C) / eps_mu_pub(G)
        C = CHSH_SIGNS
        bell = dual_bell(pr_box(), "local")
        corr = np.einsum("xyab,a,b->xy", bell.coeffs,
                         np.array([1.0, -1.0]), np.array([1.0, -1.0])) / 4.0
        game = bell_to_game(corr)
        ratio = bias_of_correlations(game, C) / classical_bias(game)["bias"]
        assert ratio == pytest.approx(nu_corr(C).value, abs=1e-5)

    def test_random_games_never_exceed(self):
        rng = np.random.default_rng(8)
        C = CHSH_SIGNS
        v = nu_corr(C).value
        for _ in range(10):
            game = random_game(rng, 2, 2)
            ratio = bias_of_correlations(game, C) / classical_bias(game)["bias"]
            assert ratio <= v + 1e-6


class TestValidationAndJson:
    def test_bad_sign_matrix(self):
        with pytest.raises(ValueError):
            XorGame(np.array([[0.5, 1.0], [1.0, 1.0]]), np.full((2, 2), 0.25))

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            XorGame(np.ones((2, 2)), np.full((2, 2), 0.3))

    def test_nan_mu(self):
        with pytest.raises(ValueError):
            XorGame(np.ones((2, 2)), np.array([[np.nan, 0.5], [0.25, 0.25]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            XorGame(np.ones((2, 2)), np.full((2, 3), 1.0 / 6.0))

    def test_json_round_trip(self):
        game = chsh_game()
        back = game_from_json(game_to_json(game))
        assert np.array_equal(back.G, game.G)
        assert np.array_equal(back.mu, game.mu)

    def test_json_missing_keys(self):
        with pytest.raises(ValueError):
            game_from_json({"G": [[1, 1], [1, -1]]})
