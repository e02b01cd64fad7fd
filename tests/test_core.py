"""Tests for the distribution data model and representations."""

import itertools
import json

import numpy as np
import pytest

from nonsig.core import (
    AffineModel,
    Alphabets,
    BellFunctional,
    ConditionalDistribution,
    CorrelationRep,
    InfeasibleRepresentationError,
    LocalVertex,
    ResourceLimitError,
    ShapeError,
    UnsupportedRepresentationError,
    affine_basis,
    best_local_response,
    boolean_distribution,
    check_vertex_cap,
    deterministic_strategies,
    distribution_from_json,
    distribution_to_json,
    enumerate_local_vertices,
    from_correlation_rep,
    pr_box,
    product_distribution,
    statistical_distance,
    symmetrize_marginals,
    to_correlation_rep,
    uniform_distribution,
    validate,
    vertex_table_matrix,
)
from helpers import random_correlation_rep, random_local_mixture, random_nonsignaling


B22 = Alphabets(2, 2, 2, 2)


class TestValidate:
    def test_pr_box_is_valid(self):
        report = validate(pr_box())
        assert report.ok
        assert report.max_normalization_violation <= 1e-12
        assert report.max_ns_violation <= 1e-12

    def test_unnormalized_table_flagged(self):
        t = pr_box().table.copy()
        t[0, 0] *= 0.9
        report = validate(ConditionalDistribution(B22, t))
        assert not report.normalized
        assert report.max_normalization_violation == pytest.approx(0.1)

    def test_signaling_table_flagged(self):
        # Alice's output is Bob's input: maximally signaling.
        t = np.zeros((2, 2, 2, 2))
        for x, y in itertools.product(range(2), repeat=2):
            t[x, y, y, 0] = 1.0
        report = validate(ConditionalDistribution(B22, t))
        assert not report.non_signaling
        assert report.normalized and report.nonnegative

    def test_shape_mismatch_is_structural_error(self):
        with pytest.raises(ShapeError):
            ConditionalDistribution(B22, np.zeros((2, 2, 2, 3)))

    def test_tiny_negative_clipped(self):
        t = pr_box().table.copy()
        t[0, 0, 0, 1] = -5e-10
        d = ConditionalDistribution(B22, t)
        assert d.table[0, 0, 0, 1] == 0.0


class TestCorrelationRep:
    def test_pr_box_correlations(self):
        rep = to_correlation_rep(pr_box())
        expected = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(rep.C, expected)
        assert np.allclose(rep.MA, 0) and np.allclose(rep.MB, 0)

    def test_uniform_product_has_zero_coords(self):
        rep = to_correlation_rep(uniform_distribution(B22))
        assert np.allclose(rep.coords(), 0)

    def test_deterministic_vertex_all_plus(self):
        # lambda == outcome index 0 everywhere, i.e. the +1 outcome
        vtx = next(iter(enumerate_local_vertices(B22)))
        rep = to_correlation_rep(vtx.distribution())
        assert np.allclose(rep.C, 1) and np.allclose(rep.MA, 1) and np.allclose(rep.MB, 1)

    def test_zero_rep_gives_uniform_table(self):
        d = from_correlation_rep(CorrelationRep(np.zeros((2, 2)), np.zeros(2), np.zeros(2)))
        assert np.allclose(d.table, 0.25)

    def test_round_trip_pr(self):
        d = from_correlation_rep(to_correlation_rep(pr_box()))
        assert np.abs(d.table - pr_box().table).max() <= 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rep = random_correlation_rep(rng, rng.integers(1, 4), rng.integers(1, 4))
            back = to_correlation_rep(from_correlation_rep(rep))
            assert np.abs(back.coords() - rep.coords()).max() <= 1e-12

    def test_singlet_correlations_valid(self):
        thetas = [0.0, np.pi / 2]
        phis = [np.pi / 4, -np.pi / 4]
        C = np.array([[np.cos(t - p) for p in phis] for t in thetas])
        d = from_correlation_rep(CorrelationRep(C, np.zeros(2), np.zeros(2)))
        assert validate(d).ok

    def test_non_binary_rejected(self):
        d = uniform_distribution(Alphabets(2, 2, 3, 2))
        with pytest.raises(UnsupportedRepresentationError):
            to_correlation_rep(d)

    def test_infeasible_rep_rejected(self):
        rep = CorrelationRep(np.ones((2, 2)), np.ones(2), -np.ones(2))
        with pytest.raises(InfeasibleRepresentationError):
            from_correlation_rep(rep)


class TestVertexEnumeration:
    @pytest.mark.parametrize("shape,count", [
        ((2, 2, 2, 2), 16),
        ((1, 1, 3, 2), 6),
        ((3, 3, 2, 2), 64),
    ])
    def test_counts(self, shape, count):
        vertices = list(enumerate_local_vertices(Alphabets(*shape)))
        assert len(vertices) == count
        tables = {v.table().tobytes() for v in vertices}
        assert len(tables) == count  # all distinct

    def test_vertices_are_valid_deterministic(self):
        for v in enumerate_local_vertices(B22):
            d = v.distribution()
            report = validate(d)
            assert report.ok and report.max_ns_violation == 0.0
            # exactly one unit entry per input pair
            assert np.all(d.table.sum(axis=(2, 3)) == 1.0)
            assert np.all((d.table == 0) | (d.table == 1))

    def test_lambda_a_varies_fastest(self):
        vertices = list(enumerate_local_vertices(B22))
        assert vertices[0].lambda_b == vertices[1].lambda_b
        assert vertices[0].lambda_a != vertices[1].lambda_a

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "15")
        with pytest.raises(ResourceLimitError):
            list(enumerate_local_vertices(B22))


    @pytest.mark.parametrize("setting", ["2e6", "-5", "1.5", "cap"])
    def test_malformed_cap_env_names_the_variable(self, monkeypatch, setting):
        monkeypatch.setenv("NONSIG_VERTEX_CAP", setting)
        with pytest.raises(ValueError, match=f"NONSIG_VERTEX_CAP.*{setting!r}"):
            check_vertex_cap(1, "local vertices")

    def test_zero_cap_env_refuses_everything(self, monkeypatch):
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "0")
        with pytest.raises(ResourceLimitError, match="cap 0"):
            check_vertex_cap(1, "local vertices")


VERTEX_SHAPES = [(2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2), (3, 3, 3, 3), (2, 3, 2, 4), (4, 4, 3, 3)]


def _reference_vertex_matrix(alph):
    """Columns from nested loops: Bob's strategy outer, Alice's inner, each
    lexicographic with the first input most significant."""
    nx, ny, na, nb = alph.shape
    cols = []
    for lb in itertools.product(range(nb), repeat=ny):
        for la in itertools.product(range(na), repeat=nx):
            t = np.zeros(alph.shape)
            for x in range(nx):
                for y in range(ny):
                    t[x, y, la[x], lb[y]] = 1.0
            cols.append(t.reshape(-1))
    return np.array(cols).T


class TestStrategyEnumeration:
    def test_lexicographic_first_input_most_significant(self):
        assert deterministic_strategies(2, 3).tolist() == [
            list(s) for s in itertools.product(range(3), repeat=2)]
        assert deterministic_strategies(3, 2, [6, 1]).tolist() == [[1, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize("shape", VERTEX_SHAPES)
    def test_vertex_table_matrix_matches_nested_loops(self, shape):
        alph = Alphabets(*shape)
        M = vertex_table_matrix(alph)
        assert np.array_equal(M, _reference_vertex_matrix(alph))
        assert M.dtype == float and M.flags.f_contiguous

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 2, 4), (3, 2, 3, 2)])
    def test_vertices_match_matrix_columns(self, shape):
        alph = Alphabets(*shape)
        tables = [v.table().reshape(-1) for v in enumerate_local_vertices(alph)]
        assert np.array_equal(np.array(tables).T, vertex_table_matrix(alph))

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 2, 4), (3, 3, 3, 3)])
    def test_model_keeps_the_weighted_vertices(self, shape):
        alph = Alphabets(*shape)
        rng = np.random.default_rng(sum(shape))
        weights = np.where(rng.uniform(size=alph.vertex_count) < 0.1,
                           rng.normal(size=alph.vertex_count), 0.0)
        weights[1] = 1e-13  # dropped as ~0
        expected = [(float(w), v.lambda_a, v.lambda_b)
                    for w, v in zip(weights, enumerate_local_vertices(alph)) if abs(w) > 1e-12]
        model = AffineModel.from_vertex_weights(alph, weights)
        assert [(w, v.lambda_a, v.lambda_b) for w, v in model.components] == expected


class TestModelRefusals:
    def test_strategy_length_must_match_the_inputs(self):
        with pytest.raises(ShapeError, match="strategy length"):
            LocalVertex(B22, (0,), (0, 1))

    def test_empty_model_has_no_table(self):
        with pytest.raises(ValueError, match="empty affine model"):
            AffineModel([]).evaluate()

    def test_functional_without_correlation_form(self):
        bell = BellFunctional(np.zeros(B22.shape))
        with pytest.raises(UnsupportedRepresentationError, match="no correlation-space form"):
            bell.value_on_correlations(np.ones((2, 2)))


class TestBestLocalResponse:
    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2), (2, 3, 2, 4),
                                       (3, 2, 4, 2), (3, 3, 3, 3), (1, 4, 5, 2)])
    def test_matches_brute_force(self, shape):
        alph = Alphabets(*shape)
        rng = np.random.default_rng(list(shape))
        for _ in range(4):
            B = rng.normal(size=shape)
            value, la, lb = best_local_response(B)
            assert value == pytest.approx(float(np.max(B.reshape(-1) @ vertex_table_matrix(alph))),
                                          abs=1e-12)
            attained = LocalVertex(alph, tuple(la.tolist()), tuple(lb.tolist())).table()
            assert float(np.sum(B * attained)) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3, 2, 4), (4, 1, 2, 5), (13, 13, 2, 2)])
    def test_first_maximizer_on_ties(self, shape):
        # 13x13x2x2 has 8192 strategies per party: ties across blocks too.
        value, la, lb = best_local_response(np.zeros(shape))
        assert value == 0.0
        assert la.tolist() == [0] * shape[0] and lb.tolist() == [0] * shape[1]

    def test_cap_counts_the_enumerated_party(self, monkeypatch):
        # min(2^21, 2^21) strategies: refused before any enumeration.
        with pytest.raises(ResourceLimitError, match="2097152 classical strategies"):
            best_local_response(np.zeros((21, 21, 2, 2)))
        # The party with 5 strategies is enumerated, not the one with 16.
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "5")
        best_local_response(np.zeros((1, 4, 5, 2)))
        best_local_response(np.zeros((4, 1, 2, 5)))


class TestAffineBasis:
    @pytest.mark.parametrize("nx,ny,name", [(0, 2, "nx"), (-1, 2, "nx"), (2, 0, "ny")])
    def test_empty_or_negative_party_rejected(self, nx, ny, name):
        with pytest.raises(ShapeError, match=f"{name} must be >= 1"):
            affine_basis(nx, ny)

    @pytest.mark.parametrize("nx,ny,count", [(2, 2, 8), (1, 1, 3), (2, 3, 11)])
    def test_counts_and_rank(self, nx, ny, count):
        basis = affine_basis(nx, ny)
        assert len(basis) == nx * ny + nx + ny == count
        coords = np.array([b.coords() for b in basis])
        assert np.linalg.matrix_rank(coords) == count

    def test_spans_all_local_vertices(self):
        for nx, ny in [(1, 1), (2, 2), (2, 3)]:
            basis = np.array([b.coords() for b in affine_basis(nx, ny)]).T
            for v in enumerate_local_vertices(Alphabets(nx, ny, 2, 2)):
                target = to_correlation_rep(v.distribution()).coords()
                resid = np.linalg.lstsq(basis, target, rcond=None)[1]
                resid = float(resid[0]) if len(resid) else float(
                    np.linalg.norm(basis @ np.linalg.lstsq(basis, target, rcond=None)[0] - target) ** 2)
                assert resid <= 1e-18


class TestStatisticalDistance:
    def test_identity(self):
        assert statistical_distance(pr_box(), pr_box()) == 0.0

    def test_uniform_vs_deterministic(self):
        u = uniform_distribution(B22)
        vtx = next(iter(enumerate_local_vertices(B22))).distribution()
        assert statistical_distance(u, vtx) == pytest.approx(0.75)

    def test_mixture_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_local_mixture(rng, B22)
            p2 = random_local_mixture(rng, B22)
            eps = rng.uniform(0, 0.4)
            q = ConditionalDistribution(B22, (1 - 2 * eps) * p.table + 2 * eps * p2.table)
            assert statistical_distance(p, q) <= 2 * eps + 1e-12

    def test_symmetric_and_triangle(self):
        rng = np.random.default_rng(6)
        p, q, r = (random_local_mixture(rng, B22) for _ in range(3))
        assert statistical_distance(p, q) == statistical_distance(q, p)
        assert statistical_distance(p, r) <= (
            statistical_distance(p, q) + statistical_distance(q, r) + 1e-12)

    def test_matches_event_maximization(self):
        # brute-force oracle over all events E subset of A x B
        rng = np.random.default_rng(7)
        for alph in [B22, Alphabets(2, 2, 2, 3), Alphabets(2, 1, 4, 4)]:
            p = random_local_mixture(rng, alph)
            q = random_local_mixture(rng, alph)
            n_out = alph.na * alph.nb
            best = 0.0
            for x in range(alph.nx):
                for y in range(alph.ny):
                    dp = (p.table[x, y] - q.table[x, y]).reshape(-1)
                    for mask in range(1 << n_out):
                        sel = [(mask >> k) & 1 for k in range(n_out)]
                        best = max(best, abs(float(dp @ np.array(sel, dtype=float))))
            assert statistical_distance(p, q) == pytest.approx(best, abs=1e-12)

    def test_alphabet_mismatch(self):
        with pytest.raises(ShapeError):
            statistical_distance(pr_box(), uniform_distribution(Alphabets(2, 2, 2, 3)))


class TestSymmetrizeMarginals:
    def test_zero_marginal_input_unchanged(self):
        p = pr_box()
        assert np.allclose(symmetrize_marginals(p).table, p.table)

    def test_deterministic_vertex(self):
        vtx = next(iter(enumerate_local_vertices(B22))).distribution()
        rep = to_correlation_rep(symmetrize_marginals(vtx))
        assert np.allclose(rep.C, 1)
        assert np.allclose(rep.MA, 0) and np.allclose(rep.MB, 0)

    def test_non_binary_rejected(self):
        with pytest.raises(UnsupportedRepresentationError, match="requires binary outcomes"):
            symmetrize_marginals(uniform_distribution(Alphabets(2, 2, 2, 3)))

    def test_preserves_correlations(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rep = random_correlation_rep(rng, 2, 2)
            d = from_correlation_rep(rep)
            out = to_correlation_rep(symmetrize_marginals(d))
            assert np.allclose(out.C, rep.C)
            assert np.allclose(out.MA, 0) and np.allclose(out.MB, 0)


class TestJson:
    def test_round_trip(self):
        d = pr_box()
        back = distribution_from_json(distribution_to_json(d))
        assert np.array_equal(back.table, d.table)

    def test_correlation_schema(self):
        d = distribution_from_json({"C": [[1, 1], [1, -1]]})
        assert np.abs(d.table - pr_box().table).max() <= 1e-12

    def test_both_keys_rejected(self):
        obj = distribution_to_json(pr_box())
        obj["C"] = [[1, 1], [1, -1]]
        with pytest.raises(ShapeError):
            distribution_from_json(obj)

    def test_missing_keys_rejected(self):
        with pytest.raises(ShapeError):
            distribution_from_json({"nx": 2})
        obj = distribution_to_json(pr_box())
        del obj["nb"]
        with pytest.raises(ShapeError, match="^missing field 'nb'$"):
            distribution_from_json(obj)

    def test_boolean_alphabet_size_rejected(self):
        # bool subclasses int; True is no alphabet size.
        with pytest.raises(ShapeError, match="nx must be a positive integer, got True"):
            distribution_from_json({"nx": True, "ny": True, "na": 2, "nb": 2,
                                    "p": [[[[0.5, 0], [0, 0.5]]]]})
        with pytest.raises(ShapeError, match="nb"):
            Alphabets(2, 2, 2, False)


class TestCanonicalDistributions:
    def test_boolean_distribution(self):
        C = np.array([[1.0, -1.0], [-1.0, 1.0]])
        d = boolean_distribution(C)
        assert validate(d).ok
        assert np.allclose(to_correlation_rep(d).C, C)

    def test_boolean_rejects_non_sign(self):
        with pytest.raises(ShapeError):
            boolean_distribution(np.array([[0.5, 1.0], [1.0, 1.0]]))

    def test_product_distribution(self):
        pA = np.array([[0.3, 0.7], [0.5, 0.5]])
        pB = np.array([[0.2, 0.8], [1.0, 0.0]])
        d = product_distribution(pA, pB)
        assert validate(d).ok
        assert d.table[0, 0, 1, 1] == pytest.approx(0.7 * 0.8)

    def test_random_nonsignaling_generator(self):
        rng = np.random.default_rng(9)
        for alph in [B22, Alphabets(2, 2, 3, 3)]:
            for _ in range(5):
                assert validate(random_nonsignaling(rng, alph)).ok

    def test_vertex_table_matrix_shape(self):
        M = vertex_table_matrix(B22)
        assert M.shape == (16, 16)
        assert np.allclose(M.sum(axis=0), 4.0)  # one unit entry per input pair
