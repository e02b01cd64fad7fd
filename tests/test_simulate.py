"""Tests for the SMP protocol simulations and sample-size planning."""

import math
import re

import numpy as np
import pytest

from nonsig.bounds import nu_tilde
from nonsig.core import (
    AffineModel,
    Alphabets,
    ResourceLimitError,
    ShapeError,
    enumerate_local_vertices,
    pr_box,
    to_correlation_rep,
    uniform_distribution,
)
from nonsig import simulate
from nonsig.simulate import (
    SmpPlan,
    boolean_plan,
    classical_plan,
    hoeffding_bound,
    quantum_plan,
    renormalize_estimates,
    run_smp_boolean,
    run_smp_classical,
    run_smp_quantum_sim,
)

from helpers import random_nonlocal

B22 = Alphabets(2, 2, 2, 2)


def pr_model():
    return nu_tilde(pr_box()).primal_certificate


class TestPlans:
    def test_classical_plan_pr_numbers(self):
        # independent arithmetic for Lambda=2, delta=0.1, A=B=2
        plan = classical_plan(2.0, 0.1, B22)
        assert plan.beta == pytest.approx(0.1 / 16.0)
        expected_T = math.ceil(8.0 * (4.0 * 2.0 / 0.1) ** 2 * math.log(160.0))
        assert plan.T == expected_T == 259_849
        assert plan.variant == "classical"

    def test_quantum_plan_numbers(self):
        plan = quantum_plan(2.0, 0.2, B22)
        beta = 0.2 / 32.0
        assert plan.beta == pytest.approx(beta)
        assert plan.T == math.ceil(2.0 * (2.0 / beta) ** 4 * math.log(64.0 / 0.2))
        n = math.ceil(math.log2(4))
        assert plan.L == math.ceil(16.0 * n * 4.0 / 0.04)

    def test_boolean_plan_numbers(self):
        assert boolean_plan(1.0, 0.5).T == 3  # ceil(4 ln 2)
        plan = boolean_plan(2.0, 0.05, epsilon=0.0)
        assert plan.T == math.ceil(16.0 * math.log(20.0))
        with pytest.raises(ValueError):
            boolean_plan(1.0, 0.1, epsilon=0.5)

    def test_overrides(self):
        assert classical_plan(2.0, 0.1, B22, T=100).T == 100
        plan = quantum_plan(2.0, 0.1, B22, T=50, L=60)
        assert (plan.T, plan.L) == (50, 60)

    @pytest.mark.parametrize("make", [
        lambda: classical_plan(2.0, 0.0, B22),
        lambda: classical_plan(2.0, 1.0, B22),
        lambda: classical_plan(2.0, float("nan"), B22),
        lambda: quantum_plan(2.0, -0.1, B22),
        lambda: boolean_plan(2.0, 0.0),
        lambda: classical_plan(2.0, 0.1, B22, T=0),
        lambda: quantum_plan(2.0, 0.1, B22, T=10, L=0),
        lambda: boolean_plan(2.0, 0.1, T=0),
        lambda: classical_plan(2.0, 0.1, B22, -1.0),           # epsilon outside [0, 1)
        lambda: classical_plan(2.0, 0.1, B22, float("nan")),
        lambda: quantum_plan(2.0, 0.1, B22, 1.0),
    ])
    def test_bad_inputs_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("lam", [float("nan"), 0.0, -2.0])
    @pytest.mark.parametrize("plan", [lambda lam: classical_plan(lam, 0.1, B22),
                                      lambda lam: quantum_plan(lam, 0.1, B22),
                                      lambda lam: boolean_plan(lam, 0.1)],
                             ids=["classical", "quantum", "boolean"])
    def test_mass_that_is_not_positive_is_refused_by_name(self, plan, lam):
        with pytest.raises(ValueError, match=f"^lam must be > 0, got {lam}$"):
            plan(lam)

    def test_options_are_refused_before_the_mass(self):
        with pytest.raises(ValueError, match="epsilon"):
            boolean_plan(-2.0, 0.1, epsilon=0.5)

    @pytest.mark.parametrize("make", [
        lambda: quantum_plan(2.0, 0.001, B22),          # T ~ 3.7e20 > 2^63 - 1
        lambda: classical_plan(2.0, 1e-9, B22),         # T ~ 1.2e22
        lambda: quantum_plan(2.0, 1e-6, B22, T=10),     # L = 1.28e14 pool strings
        lambda: classical_plan(2.0, 1e-200, B22),       # T overflows a float
        lambda: quantum_plan(2.0, 1e-200, B22, T=10),   # L divides by delta^2 = 0
        lambda: boolean_plan(2.0, 0.1, T=2 ** 63),
        lambda: classical_plan(math.inf, 0.1, B22),     # an infinite mass plans T = inf
        lambda: quantum_plan(math.inf, 0.1, B22),
        lambda: boolean_plan(math.inf, 0.1),
    ])
    def test_unsamplable_plans_refused(self, make):
        with pytest.raises(ResourceLimitError, match="cap"):
            make()

    def test_largest_samplable_T_accepted(self):
        assert classical_plan(2.0, 0.1, B22, T=2 ** 63 - 1).T == 2 ** 63 - 1

    def test_pool_size_follows_the_vertex_cap(self, monkeypatch):
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "50")
        assert quantum_plan(2.0, 0.1, B22, T=10, L=50).L == 50
        with pytest.raises(ResourceLimitError, match="51 pool strings"):
            quantum_plan(2.0, 0.1, B22, T=10, L=51)

    def test_runners_reject_replays_below_one(self):
        plan = classical_plan(2.0, 0.1, B22, T=10)
        with pytest.raises(ValueError):
            run_smp_classical(pr_model(), pr_box(), plan, 0, replays=0)
        with pytest.raises(ValueError):
            run_smp_quantum_sim(pr_model(), pr_box(), quantum_plan(2.0, 0.1, B22, T=10, L=10),
                                0, replays=0)
        C = to_correlation_rep(pr_box()).C
        with pytest.raises(ValueError):
            run_smp_boolean(C, pr_model(), boolean_plan(2.0, 0.1), 0, replays=0)


class TestHoeffding:
    def test_zero_beta(self):
        assert hoeffding_bound(10, 0.0, 1.0) == 1.0

    def test_direct_formula(self):
        assert hoeffding_bound(200, 0.1, 1.0) == pytest.approx(math.exp(-4.0))

    def test_doubling_squares(self):
        b = hoeffding_bound(137, 0.07, 2.0)
        assert hoeffding_bound(274, 0.07, 2.0) == pytest.approx(b ** 2)

    def test_validation(self):
        # Refused by name; a NaN is no exception, where the bound would be NaN.
        for args, message in [((0, 0.1, 1.0), "T must be >= 1, got 0"),
                              ((10, -0.1, 1.0), "beta must be >= 0, got -0.1"),
                              ((10, 0.1, 0.0), "range_width must be > 0, got 0.0"),
                              ((10, math.nan, 1.0), "beta must be >= 0, got nan"),
                              ((10, 0.1, math.nan), "range_width must be > 0, got nan")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                hoeffding_bound(*args)


class TestRenormalize:
    def test_distribution_unchanged(self):
        out = renormalize_estimates(np.array([0.25, 0.25, 0.5]))
        assert out == pytest.approx([0.25, 0.25, 0.5, 0.0])

    def test_clip_and_deficit(self):
        out = renormalize_estimates(np.array([-0.2, 0.5, 0.3]))
        assert out == pytest.approx([0.0, 0.5, 0.3, 0.2])

    def test_excess_divided_through(self):
        out = renormalize_estimates(np.array([0.8, 0.8]))
        assert out == pytest.approx([0.5, 0.5, 0.0])

    def test_always_sums_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            out = renormalize_estimates(rng.normal(size=6))
            assert out.sum() == pytest.approx(1.0, abs=1e-15)
            assert out.min() >= 0.0


class TestClassicalProtocol:
    def test_degenerate_deterministic_model(self):
        # q+ = 1 on a single vertex: only replay noise remains
        vtx = next(iter(enumerate_local_vertices(B22)))
        model = AffineModel([(1.0, vtx)])
        plan = classical_plan(1.0, 0.1, B22, T=1000)
        out = run_smp_classical(model, vtx.distribution(), plan, seed=5)
        assert out.distance <= 3.0 / math.sqrt(10_000)

    def test_pr_box_reduced_plan(self):
        model = pr_model()
        plan = classical_plan(model.mass, 0.1, B22, T=40_000)
        out = run_smp_classical(model, pr_box(), plan, seed=1)
        assert out.distance <= 0.1
        # renormalized estimates are exact distributions
        assert np.abs(out.estimates.sum(axis=2) - 1.0).max() <= 1e-12
        assert np.abs(out.empirical.sum(axis=2) - 1.0).max() <= 1e-12

    def test_raw_estimates_within_weight_range(self):
        model = pr_model()
        q_plus, _, q_minus, _ = model.split_signed()
        plan = classical_plan(model.mass, 0.1, B22, T=500)
        for seed in range(5):
            out = run_smp_classical(model, pr_box(), plan, seed=seed, replays=100)
            assert out.raw_estimates.min() >= -q_minus - 1e-12
            assert out.raw_estimates.max() <= q_plus + 1e-12

    def test_estimator_unbiased(self):
        model = pr_model()
        plan = classical_plan(model.mass, 0.1, B22, T=2000)
        seeds = 20
        acc = np.zeros(B22.shape)
        for seed in range(seeds):
            acc += run_smp_classical(model, pr_box(), plan, seed=seed,
                                     replays=100).raw_estimates
        tol = 5.0 / math.sqrt(plan.T * seeds)
        assert np.abs(acc / seeds - pr_box().table).max() <= tol

    def test_determinism(self):
        model = pr_model()
        plan = classical_plan(model.mass, 0.1, B22, T=1000)
        a = run_smp_classical(model, pr_box(), plan, seed=9, replays=500)
        b = run_smp_classical(model, pr_box(), plan, seed=9, replays=500)
        assert np.array_equal(a.empirical, b.empirical)
        assert a.distance == b.distance
        c = run_smp_classical(model, pr_box(), plan, seed=10, replays=500)
        assert not np.array_equal(a.empirical, c.empirical)

    def test_non_local_component_rejected(self):
        model = AffineModel([(1.0, pr_box())])
        plan = classical_plan(1.0, 0.1, B22, T=100)
        with pytest.raises(ValueError):
            run_smp_classical(model, pr_box(), plan, seed=0)


class TestQuantumProtocol:
    def test_pr_box_reduced_plan(self):
        model = pr_model()
        plan = quantum_plan(model.mass, 0.2, B22, T=20_000, L=4000)
        out = run_smp_quantum_sim(model, pr_box(), plan, seed=2)
        assert out.distance <= 0.2
        assert out.extras["pool_ok"]
        assert np.abs(out.empirical.sum(axis=2) - 1.0).max() <= 1e-12

    def test_determinism(self):
        model = pr_model()
        plan = quantum_plan(model.mass, 0.2, B22, T=2000, L=1000)
        a = run_smp_quantum_sim(model, pr_box(), plan, seed=4, replays=500)
        b = run_smp_quantum_sim(model, pr_box(), plan, seed=4, replays=500)
        assert np.array_equal(a.empirical, b.empirical)
        assert a.extras == b.extras

    def test_non_local_component_rejected(self):
        model = AffineModel([(1.0, pr_box())])
        plan = quantum_plan(1.0, 0.2, B22, T=100, L=100)
        with pytest.raises(ValueError):
            run_smp_quantum_sim(model, pr_box(), plan, seed=0)


class TestRefereeNonBinary:
    """Both referee-backed runners on a 2x2x3x3 point, where na*nb = 9."""

    ALPH = Alphabets(2, 2, 3, 3)

    @pytest.fixture(scope="class")
    def case(self):
        target = random_nonlocal(np.random.default_rng([4, 1]), self.ALPH)
        return target, nu_tilde(target).primal_certificate

    def runs(self, case):
        target, model = case
        for seed in range(3):
            plan = classical_plan(model.mass, 0.1, self.ALPH, T=3000)
            yield "classical", run_smp_classical(model, target, plan, seed, replays=2000)
            plan = quantum_plan(model.mass, 0.2, self.ALPH, T=2000, L=500)
            yield "quantum", run_smp_quantum_sim(model, target, plan, seed, replays=2000)

    def test_shapes_and_normalization(self, case):
        for _, out in self.runs(case):
            assert out.raw_estimates.shape == (2, 2, 3, 3)
            assert out.estimates.shape == out.empirical.shape == (2, 2, 10)
            assert np.abs(out.estimates.sum(axis=2) - 1.0).max() <= 1e-12
            assert np.abs(out.empirical.sum(axis=2) - 1.0).max() <= 1e-12

    def test_distance_recomputed_independently(self, case):
        target, _ = case
        for _, out in self.runs(case):
            d = 0.0
            for x in range(2):
                for y in range(2):
                    cells = out.empirical[x, y, :9].reshape(3, 3)
                    l1 = np.abs(cells - target.table[x, y]).sum() + out.empirical[x, y, 9]
                    d = max(d, 0.5 * l1)
            assert out.distance == pytest.approx(d, abs=1e-12)

    def test_classical_raw_estimates_within_weight_range(self, case):
        _, model = case
        q_plus, _, q_minus, _ = model.split_signed()
        for kind, out in self.runs(case):
            if kind == "classical":
                assert out.raw_estimates.min() >= -q_minus - 1e-12
                assert out.raw_estimates.max() <= q_plus + 1e-12


class TestBooleanProtocol:
    def test_deterministic_sign_function(self):
        # a local C needs only T' = ceil(4 ln(1/delta)) samples
        vtx = next(iter(enumerate_local_vertices(B22)))
        model = AffineModel([(1.0, vtx)])
        C = to_correlation_rep(vtx.distribution()).C
        plan = boolean_plan(1.0, 0.1)
        res = run_smp_boolean(C, model, plan, seed=3)
        assert res["max_error_rate"] == 0.0

    def test_pr_sign_matrix(self):
        model = pr_model()
        C = to_correlation_rep(pr_box()).C
        plan = boolean_plan(model.mass, 0.05)
        res = run_smp_boolean(C, model, plan, seed=6)
        assert res["max_error_rate"] <= 0.05
        assert res["T"] == plan.T
        assert res["error_rate"].shape == (2, 2)

    def test_determinism_and_validation(self):
        model = pr_model()
        C = to_correlation_rep(pr_box()).C
        plan = boolean_plan(model.mass, 0.1)
        a = run_smp_boolean(C, model, plan, seed=7)
        b = run_smp_boolean(C, model, plan, seed=7)
        assert np.array_equal(a["error_rate"], b["error_rate"])
        with pytest.raises(ValueError):
            run_smp_boolean(np.array([[0.5, 1.0], [1.0, 1.0]]), model, plan, seed=0)


class TestModelShape:
    """A model whose alphabets differ from the target's is refused, naming
    both shapes, before anything is sampled."""

    @staticmethod
    def runs():
        plan_c = classical_plan(2.0, 0.1, B22, T=10)
        plan_q = quantum_plan(2.0, 0.1, B22, T=10, L=10)
        plan_b = boolean_plan(2.0, 0.1)
        for shape in [(3, 3, 2, 2), (2, 2, 3, 3), (1, 2, 2, 2)]:
            target = uniform_distribution(Alphabets(*shape))
            yield shape, lambda m, t=target: run_smp_classical(m, t, plan_c, 0)
            yield shape, lambda m, t=target: run_smp_quantum_sim(m, t, plan_q, 0)
        for nx, ny in [(1, 2), (3, 3), (2, 3)]:
            C = np.ones((nx, ny))
            yield (nx, ny, 2, 2), lambda m, C=C: run_smp_boolean(C, m, plan_b, 0)

    def test_other_shapes_refused_before_sampling(self, monkeypatch):
        model = pr_model()
        monkeypatch.setattr(simulate, "_rng", lambda *key: pytest.fail("sampled"))
        for shape, run in self.runs():
            with pytest.raises(ShapeError) as info:
                run(model)
            assert str(info.value) == (f"model alphabets (2, 2, 2, 2) do not match "
                                       f"the target's {shape}")
