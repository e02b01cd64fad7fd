"""Tests for the complexity measures, certificates, and decompositions."""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nonsig import bounds, games
from nonsig.bounds import (
    GROTHENDIECK,
    BoundResult,
    InvalidDistributionError,
    ReconstructionError,
    dual_bell,
    extended_table,
    gamma2_corr,
    gamma2_tilde_1,
    gamma2_tilde_1_eps,
    gap_check,
    lower_bound_bits,
    nu_corr,
    nu_corr_alpha,
    nu_tilde,
    nu_tilde_eps,
    quantum_to_local_decomposition,
    scaled_local_reconstruction,
)
from nonsig.core import (
    Alphabets,
    ConditionalDistribution,
    CorrelationRep,
    ResourceLimitError,
    TOL_FEAS,
    TOL_RECON,
    best_local_response,
    boolean_distribution,
    enumerate_local_vertices,
    from_correlation_rep,
    load_distribution,
    pr_box,
    symmetrize_marginals,
    to_correlation_rep,
    uniform_distribution,
    validate,
    vertex_table_matrix,
)
from nonsig import lp
from nonsig.lp import FactoredMatrix, LinearProgram, solve_lp
from helpers import (
    local_twin,
    random_correlation_rep,
    random_local_mixture,
    random_nonlocal,
    random_nonsignaling,
    random_nonsignaling_vertex,
    sign_twin,
)


B22 = Alphabets(2, 2, 2, 2)
CHSH_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])
SQRT2 = math.sqrt(2.0)


def singlet_grid_distribution():
    """Quantum correlations cos(theta_x - phi_y) on the standard angle grid."""
    thetas = [0.0, np.pi / 2]
    phis = [np.pi / 4, -np.pi / 4]
    C = np.array([[np.cos(t - p) for p in phis] for t in thetas])
    return from_correlation_rep(CorrelationRep(C, np.zeros(2), np.zeros(2)))


def check_certificates(p, result, tol_value=1e-5):
    """Primal/dual certificate contract for an exact nu_tilde result."""
    model = result.primal_certificate
    assert np.abs(model.evaluate() - p.table).max() <= 1e-7
    assert model.mass == pytest.approx(result.value, abs=1e-6)
    bell = result.dual_certificate
    for v in enumerate_local_vertices(p.alphabets):
        assert abs(bell.value(v.distribution())) <= bell.normalization + 1e-9
    assert bell.normalization <= 1.0 + 1e-6
    assert bell.value(p) == pytest.approx(result.value, abs=tol_value)


def captured_lps(monkeypatch, module=bounds):
    """The LinearPrograms the module passes to solve_lp, in call order."""
    progs = []
    solve = module.solve_lp
    monkeypatch.setattr(module, "solve_lp",
                        lambda prog, **start: progs.append(prog) or solve(prog, **start))
    return progs


class TestNuTilde:
    def test_local_vertex_is_one(self):
        for v in itertools.islice(enumerate_local_vertices(B22), 4):
            result = nu_tilde(v.distribution())
            assert result.value == pytest.approx(1.0, abs=1e-8)

    def test_uniform_is_one(self):
        assert nu_tilde(uniform_distribution(B22)).value == pytest.approx(1.0, abs=1e-8)

    def test_pr_box_is_two(self):
        result = nu_tilde(pr_box())
        assert result.value == pytest.approx(2.0, abs=1e-7)
        check_certificates(pr_box(), result)

    def test_value_at_least_one(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            p = random_nonsignaling(rng, B22)
            assert nu_tilde(p).value >= 1.0 - 1e-7

    def test_composition_bound(self):
        # p = (1+s) m - s u stays a distribution for mild s, and
        # nu(p) <= (1+s) nu(m) + s nu(u) = 1 + 2s.
        rng = np.random.default_rng(22)
        u = uniform_distribution(B22)
        for _ in range(5):
            m0 = random_local_mixture(rng, B22)
            m = ConditionalDistribution(B22, 0.5 * m0.table + 0.5 * u.table)
            s = 0.2
            p = ConditionalDistribution(B22, (1 + s) * m.table - s * u.table)
            assert nu_tilde(p).value <= 1.0 + 2 * s + 1e-6

    def test_extension_invariance(self):
        # padding an outcome alphabet with a never-occurring outcome
        p = pr_box()
        ext = np.zeros((2, 2, 3, 2))
        ext[:, :, :2, :] = p.table
        padded = ConditionalDistribution(Alphabets(2, 2, 3, 2), ext)
        assert nu_tilde(padded).value == pytest.approx(nu_tilde(p).value, abs=1e-6)

    def test_symmetrization_never_increases(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            p = from_correlation_rep(random_correlation_rep(rng, 2, 2))
            before = nu_tilde(p).value
            after = nu_tilde(symmetrize_marginals(p)).value
            assert after <= before + 1e-6

    def test_past_the_vertex_wall(self):
        # 4x4x3x3 has 6,561 local vertices.  Bland's rule alone took 184,509
        # pivots (~224 s) on this point; steepest-edge pricing takes 352
        # from the scored crash basis, 316 from the unscored one.
        p = random_nonlocal(np.random.default_rng(5), Alphabets(4, 4, 3, 3))
        result = nu_tilde(p)
        assert result.value == pytest.approx(1.6210622562, abs=1e-8)
        assert result.diagnostics["iterations"] < 1000
        bell = result.dual_certificate
        assert best_local_response(bell.coeffs)[0] <= 1.0 + 1e-9
        assert best_local_response(-bell.coeffs)[0] <= 1.0 + 1e-9
        assert bell.value(p) == pytest.approx(result.value, abs=1e-9)

    def test_signaling_part_below_tolerance(self):
        # The Collins-Gisin rows see only the non-signaling part of p.  A
        # signaling perturbation that validation accepts moves neither the
        # value nor the reconstruction beyond its tolerance.
        alph = Alphabets(2, 2, 3, 3)
        p = random_nonlocal(np.random.default_rng(31), alph)
        assert p.table[0, 0, 0, :2].min() > TOL_FEAS
        d = np.zeros(alph.shape)
        d[0, 0, 0, 0], d[0, 0, 0, 1] = 1.0, -1.0  # Bob's marginal at x=0, y=0
        q = ConditionalDistribution(alph, p.table + 0.9 * TOL_FEAS * d)
        report = validate(q)
        assert report.ok and report.max_ns_violation > 0.4 * TOL_FEAS
        result = nu_tilde(q)
        assert result.diagnostics["reconstruction_residual"] <= TOL_RECON
        assert np.abs(result.primal_certificate.evaluate() - q.table).max() <= TOL_RECON
        assert result.value == pytest.approx(nu_tilde(p).value, abs=1e-8)

    def test_invalid_distribution_rejected(self):
        t = pr_box().table.copy()
        t[0, 0, 0, 0] += 0.2
        with pytest.raises(InvalidDistributionError):
            nu_tilde(ConditionalDistribution(B22, t))


def _left_half(twin):
    """S of a split [S, -S]."""
    return twin[:, :twin.shape[1] // 2]


def _crash_points():
    points = [random_nonsignaling_vertex(np.random.default_rng([21, k]), B22)
              for k in range(30)]
    for shape in [(2, 2, 3, 3), (3, 3, 3, 3)]:
        points += [random_nonlocal(np.random.default_rng([22, k]), Alphabets(*shape))
                   for k in range(2)]
    return points


class TestCrashStart:
    """nu_tilde and nu_corr start their LP from a crash basis; the LP
    solved from the artificial basis must give the same optimum, and the
    crash-started certificates must hold."""

    @pytest.fixture
    def phase_one_calls(self, monkeypatch):
        calls = []
        phase_one = lp._phase_one
        monkeypatch.setattr(lp, "_phase_one", lambda *a: calls.append(1) or phase_one(*a))
        return calls

    @staticmethod
    def plain_min_l1(S, target):
        V = S.shape[1]
        sol = solve_lp(LinearProgram(c=np.ones(2 * V), A_eq=np.hstack([S, -S]), b_eq=target))
        assert sol.status == "optimal"
        return sol.objective

    @staticmethod
    def check_functional(coeffs, value_on_target, value):
        assert best_local_response(coeffs)[0] <= 1.0 + 1e-9
        assert best_local_response(-coeffs)[0] <= 1.0 + 1e-9
        assert value_on_target == pytest.approx(value, abs=1e-9)

    def test_nu_tilde_matches_the_plain_lp(self, phase_one_calls):
        points = _crash_points()
        phase_one_calls.clear()  # the helper's own solves
        for p in points:
            cg = bounds._DataMap(p.alphabets)
            S = cg.data_rhs(vertex_table_matrix(p.alphabets).reshape(*p.alphabets.shape, -1))
            res = nu_tilde(p)
            assert res.value == pytest.approx(self.plain_min_l1(S, cg.data_rhs(p.table)),
                                              abs=1e-9)
            bell = res.dual_certificate
            self.check_functional(bell.coeffs, bell.value(p), res.value)
        # Only the plain solves ran phase 1: every crash basis was feasible.
        assert len(phase_one_calls) == len(points)

    def test_nu_corr_matches_the_plain_lp(self, phase_one_calls):
        for n in range(3, 7):
            C = np.where(np.random.default_rng([23, n]).uniform(size=(n, n)) < 0.5, -1.0, 1.0)
            res = nu_corr(C)
            S = _left_half(sign_twin(*C.shape)[0])
            assert res.value == pytest.approx(self.plain_min_l1(S, C.reshape(-1)), abs=1e-9)
            bell = res.dual_certificate
            self.check_functional(bell.coeffs, bell.value_on_correlations(C), res.value)
        assert len(phase_one_calls) == 4


def _pivoted_columns_loop(S, score):
    """The crash's pivoted Gram-Schmidt as first written: the squared norms
    downdated, then weighted afresh at every step."""
    m = S.shape[0]
    top = score.max()
    weight = (score / top + bounds._SCORE_FLOOR) ** 4 if top > 0 else np.ones_like(score)
    Q = np.zeros((m, m))
    norms = np.einsum("ij,ij->j", S, S)
    cols = []
    for k in range(m):
        crit = norms * weight
        j = int(np.argmax(crit >= crit.max() * (1.0 - lp._TIE_REL)))
        cols.append(j)
        v = S[:, j] - (Q @ S[:, j]) @ Q
        v /= np.sqrt(v @ v)
        Q[k] = v
        norms -= np.square(v @ S)
        norms[j] = -np.inf
    return cols


def _local_vertex_matrix(shape):
    """The factored S of an alphabet's data map, and its dense oracle."""
    cg = bounds._data_map(Alphabets(*shape))
    return FactoredMatrix(*cg.factors), _left_half(local_twin(cg))


def _sign_vertex_matrix(shape):
    """The factored S of a sign shape, and its dense oracle."""
    us, vs = bounds._data_map(Alphabets(*shape, 2, 2)).signs
    return FactoredMatrix(us.T, vs.T), _left_half(sign_twin(*shape)[0])


ROOT = Path(__file__).resolve().parent.parent


class TestFactoredMatrix:
    """The min-L1 LPs' matrices read through their single-party factors
    (``lp.FactoredMatrix``) against the dense [S, -S] (``helpers``):
    columns, Y @ A and A @ x, with and without a dense block, on eight
    local alphabets and every sign shape n x m with 2 <= n, m <= 6."""

    LOCAL = [(2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2), (2, 3, 3, 2), (3, 3, 3, 3),
             (2, 3, 2, 4), (1, 4, 5, 2), (4, 4, 3, 3)]
    SIGN = [(n, m) for n in range(2, 7) for m in range(2, 7)]
    CASES = [pytest.param(_local_vertex_matrix, shape, id="x".join(map(str, shape)))
             for shape in LOCAL] + [
        pytest.param(_sign_vertex_matrix, shape, id="signs-%dx%d" % shape) for shape in SIGN]

    @staticmethod
    def twins(build, shape):
        """[S, -S | E] factored and dense, E a seeded integer block."""
        S, dense = build(shape)
        rng = np.random.default_rng([41, *shape])
        E = rng.integers(-3, 4, size=(S.shape[0], 5)).astype(float)
        return rng, [(S.split(), np.hstack([dense, -dense])),
                     (S.split(E), np.hstack([dense, -dense, E]))]

    @pytest.mark.parametrize("build, shape", CASES)
    def test_columns(self, build, shape):
        rng, pairs = self.twins(build, shape)
        for A, D in pairs:
            assert A.shape == D.shape
            assert A[:, :].tobytes() == np.ascontiguousarray(D).tobytes()
            picks = rng.choice(D.shape[1], size=min(40, D.shape[1]), replace=False)
            assert np.array_equal(A[:, picks], D[:, picks])
            mask = np.zeros(D.shape[1], dtype=bool)
            mask[picks] = True
            assert np.array_equal(A[:, mask], D[:, mask])
            assert np.array_equal(A[:, 3:D.shape[1]:7], D[:, 3:D.shape[1]:7])
            for j in [0, D.shape[1] // 2, D.shape[1] - 1, *picks[:5]]:
                assert A[:, int(j)].tobytes() == np.ascontiguousarray(D[:, j]).tobytes()

    @pytest.mark.parametrize("build, shape", CASES)
    def test_products_are_exact_on_integers(self, build, shape):
        # Every partial sum is an integer below 2^53: any order is exact.
        rng, pairs = self.twins(build, shape)
        for A, D in pairs:
            Y = rng.integers(-9, 10, size=(3, D.shape[0])).astype(float)
            assert np.array_equal(Y @ A, Y @ D)
            assert np.array_equal(Y[0] @ A, Y[0] @ D)
            out = np.empty((3, D.shape[1]))
            assert np.matmul(Y, A, out=out) is out and np.array_equal(out, Y @ D)
            x = np.zeros(D.shape[1])
            x[rng.choice(D.shape[1], size=min(30, D.shape[1]), replace=False)] = \
                rng.integers(1, 9, size=min(30, D.shape[1]))
            assert np.array_equal(A @ x, D @ x)
            assert np.array_equal(A @ np.zeros(D.shape[1]), np.zeros(D.shape[0]))

    @pytest.mark.parametrize("build, shape", CASES)
    def test_products_on_floats(self, build, shape):
        # To 1e-15 of the sum of the terms' magnitudes, |Y| @ |A|.
        rng, pairs = self.twins(build, shape)
        for A, D in pairs:
            Y = rng.normal(size=(2, D.shape[0]))
            scale = np.abs(Y) @ np.abs(D)
            assert np.all(np.abs(Y @ A - Y @ D) <= 1e-15 * scale)

    @staticmethod
    def outputs(sol):
        return (sol.status, sol.iterations, sol.x.tobytes(), sol.dual_eq.tobytes(),
                sol.objective, sol.duality_gap, sol.basis)

    @pytest.mark.parametrize("build, shape", [
        pytest.param(_local_vertex_matrix, (2, 2, 3, 3), id="2x2x3x3"),
        pytest.param(_local_vertex_matrix, (3, 3, 2, 2), id="3x3x2x2"),
        pytest.param(_sign_vertex_matrix, (4, 5), id="signs-4x5"),
        pytest.param(_sign_vertex_matrix, (5, 5), id="signs-5x5")])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_two_phase_solve_matches_the_dense_program(self, build, shape, alpha):
        # With no start basis phase 1 runs, its artificial columns joining
        # the factored matrix's dense block: the same pivots and solution,
        # bit for bit, as on the dense [S, -S | -diag(t)].
        S, dense = build(shape)
        m, V = S.shape
        t = np.random.default_rng([43, *shape]).uniform(0.2, 1.0, size=m)
        k = 0 if alpha == 1.0 else m
        E = -np.diag(t) if k else None
        data = dict(c=np.append(np.ones(2 * V), np.zeros(k)), b_eq=np.zeros(m) if k else t,
                    lb=np.append(np.zeros(2 * V), np.ones(k)),
                    ub=np.append(np.full(2 * V, np.inf), np.full(k, alpha)))
        factored = solve_lp(LinearProgram(A_eq=S.split(E), **data))
        plain = solve_lp(LinearProgram(
            A_eq=np.hstack([dense, -dense] + ([E] if k else [])), **data))
        assert factored.status == "optimal"
        np.testing.assert_equal(self.outputs(factored), self.outputs(plain))

    def test_taken_only_as_the_equality_matrix(self):
        S = _sign_vertex_matrix((2, 2))[0].split()
        with pytest.raises(ValueError, match="only as A_eq"):
            LinearProgram(c=np.ones(8), A_eq=S, b_eq=np.ones(4), A_ub=np.ones((1, 8)),
                          b_ub=[1.0])
        with pytest.raises(ValueError, match="only as A_eq"):
            LinearProgram(c=np.ones(8), A_ub=S, b_ub=np.ones(4))
        with pytest.raises(ValueError, match="finite"):
            S.split(np.full((4, 1), np.nan))

    @pytest.mark.parametrize("build, shape", CASES)
    def test_crash_picks_the_loop_columns(self, build, shape):
        S, dense = build(shape)
        rng = np.random.default_rng([42, *shape])
        for score in [rng.uniform(size=S.shape[1]) for _ in range(2)] + [np.ones(S.shape[1])]:
            assert bounds._pivoted_columns(S, score).tolist() == \
                _pivoted_columns_loop(dense, score)


class TestMinL1Path:
    # The alphabets and sign shapes of the LP goldens.
    LOCAL = [(2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 3, 3)]
    SIGN = [(2, 2), (6, 6)]

    @classmethod
    def vertex_matrices(cls):
        for shape in cls.LOCAL:
            yield shape, *_local_vertex_matrix(shape)
        for shape in cls.SIGN:
            yield shape, *_sign_vertex_matrix(shape)

    def test_crash_columns_match_the_loop(self):
        # The crash on the factored S picks the columns that the loop picks
        # on the dense S: random scores, and equal scores (plain pivoted QR).
        for shape, S, dense in self.vertex_matrices():
            rng = np.random.default_rng(list(shape))
            for score in [rng.uniform(size=S.shape[1]) for _ in range(5)] + [np.ones(S.shape[1])]:
                cols = bounds._pivoted_columns(S, score)
                assert cols.tolist() == _pivoted_columns_loop(dense, score), shape

    def test_warm_3333_nu_tilde_stays_under_1_mib(self):
        # Traced memory of one call on a warm alphabet: the LP's standard
        # form (576 KiB) and the solver's work arrays, no block of B^-1 A.
        alph = Alphabets(3, 3, 3, 3)
        points = [random_nonlocal(np.random.default_rng([28, k]), alph) for k in range(2)]
        nu_tilde(points[0])  # warms the alphabet's data map
        tracemalloc.start()
        try:
            nu_tilde(points[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("solve", ["nu_tilde 4x4x3x3", "nu_corr 8x8"])
    def test_peaks_against_the_twin(self, solve):
        # Neither a cold call nor a warm one holds the twin [S, -S] (8.5 and
        # 16.8 MB here), or any other m x 2V array: the map keeps S's two
        # single-party factors, and the solver's work arrays are O(columns)
        # and O(rows^2).  A cold call peaked at 9.9 and 20.0 MiB (tracemalloc)
        # when the map wrote the twin; both now stay under ``limit`` MiB.
        if solve.startswith("nu_tilde"):
            alph = Alphabets(4, 4, 3, 3)
            points = [random_nonlocal(np.random.default_rng([30, k]), alph) for k in range(2)]
            calls = [lambda p=p: nu_tilde(p) for p in points]
        else:
            signs = [np.where(np.random.default_rng([31, k]).uniform(size=(8, 8)) < 0.5, -1.0, 1.0)
                     for k in range(2)]
            calls = [lambda C=C: nu_corr(C) for C in signs]
        limit = {"nu_tilde 4x4x3x3": 3.0, "nu_corr 8x8": 6.0}[solve]
        bounds._data_map.cache_clear()
        cold = self.traced_peak(calls[0])
        warm = self.traced_peak(calls[1])
        assert cold <= limit * 2**20
        assert warm <= limit * 2**20

    def test_warm_8x8_nu_corr_alpha_holds_no_copy_of_the_twin(self):
        # At alpha != 1 the r columns -diag(target) are the factored
        # matrix's dense block: no copy of [S, -S] (16.8 MB here; a warm
        # call peaked at 36.1 MiB with one).
        C = np.where(np.random.default_rng([31, 0]).uniform(size=(8, 8)) < 0.5, -1.0, 1.0)
        nu_corr_alpha(C, 1.5)  # warms the shape's data map
        assert self.traced_peak(lambda: nu_corr_alpha(C, 1.5)) < 8 * 2**20

    def test_cold_4444_nu_tilde(self):
        # The 4x4x4x4 LP: 169 rows and 2 x 65,536 columns, whose dense
        # [S, -S] is 177 MB.  From a cold map (tracing starts after the draw,
        # which builds the vertex tables) it keeps its value and pivot count
        # and peaks at a small part of that.  It runs on one OpenBLAS thread
        # in a process of its own: at this size the last bits of the value
        # depend on the thread count (1.7177693766270934 at 2 and 4).
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", COLD_4444], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        value, iterations, peak = json.loads(proc.stdout)
        assert value == 1.7177693766270465
        assert iterations == 1066
        assert peak < 32 * 2**20


COLD_4444 = """
import json, tracemalloc
import numpy as np
from helpers import random_nonlocal
from nonsig.bounds import nu_tilde
from nonsig.core import Alphabets
p = random_nonlocal(np.random.default_rng(5), Alphabets(4, 4, 4, 4))
tracemalloc.start()
res = nu_tilde(p)
print(json.dumps([res.value, res.diagnostics["iterations"], tracemalloc.get_traced_memory()[1]]))
"""


class TestLpCache:
    """The min-L1 LP structure of an alphabet or sign shape is built once,
    on the data map of its alphabet (a sign shape's binary alphabet); the
    vertex cap still applies to every call."""

    def test_cap_holds_on_a_warm_cache(self, monkeypatch):
        monkeypatch.delenv("NONSIG_VERTEX_CAP", raising=False)
        calls = [lambda: nu_tilde(pr_box()), lambda: nu_tilde_eps(pr_box(), 0.1),
                 lambda: nu_corr(CHSH_SIGNS), lambda: nu_corr_alpha(CHSH_SIGNS, 1.5),
                 lambda: games.equal_bias_value(CHSH_SIGNS),
                 lambda: games.epsilon_pub(CHSH_SIGNS)]
        for call in calls:
            call()
        # 16 local vertices on the PR box, 16 sign vertices on a 2x2 matrix.
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "5")
        for call in calls:
            with pytest.raises(ResourceLimitError, match="cap 5"):
                call()
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "abc")
        for call in calls:
            with pytest.raises(ValueError, match="NONSIG_VERTEX_CAP"):
                call()

    def test_no_vertex_tables(self, monkeypatch):
        # The LP reads S through its two single-party factors: nu_tilde,
        # the local Bell functional and gap_check's LP never make the
        # vertex tables, on a cold map or a warm one.
        def refused(alph):
            raise AssertionError(f"vertex tables of {alph}")

        monkeypatch.setattr(bounds, "vertex_table_matrix", refused)
        bounds._data_map.cache_clear()
        for shape in [(2, 2, 2, 2), (2, 3, 2, 4), (3, 3, 3, 3)]:
            p = random_nonsignaling(np.random.default_rng(list(shape)), Alphabets(*shape))
            for _ in range(2):
                nu_tilde(p)
                dual_bell(p, "local")
                gap_check(p)

    def test_pr_box_and_chsh_share_one_map(self):
        # The CHSH sign vertices are the correlations of the PR box's
        # local vertices: both LPs read the 2x2x2x2 map.
        bounds._data_map.cache_clear()
        nu_tilde(pr_box())
        nu_corr(CHSH_SIGNS)
        assert bounds._data_map.cache_info().currsize == 1
        cg = bounds._data_map(B22)
        assert {"factors", "signs"} <= set(vars(cg))

    def test_one_cache_of_8_maps_in_all(self):
        # Five alphabets and five sign shapes, ten distinct maps, through
        # the one cache, which keeps at most 8 of them.
        bounds._data_map.cache_clear()
        rng = np.random.default_rng(72)
        for shape in [(2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2), (2, 2, 2, 3), (3, 2, 3, 2)]:
            nu_tilde(random_nonsignaling(rng, Alphabets(*shape)))
        for shape in [(1, 2), (2, 3), (3, 4), (4, 4), (4, 5)]:
            nu_corr(rng.uniform(-1.0, 1.0, size=shape))
        info = bounds._data_map.cache_info()
        assert info.misses == 10
        assert info.currsize <= 8


class TestNuTildeEps:
    def test_eps_zero_matches_exact(self):
        rng = np.random.default_rng(31)
        for p in [pr_box(), random_nonsignaling(rng, B22)]:
            assert nu_tilde_eps(p, 0.0).value == pytest.approx(
                nu_tilde(p).value, abs=1e-7)

    def test_pr_box_quarter_smoothing_is_trivial(self):
        # omega^pub(CHSH) = 3/4, so eps >= 1/4 reaches a local point.
        result = nu_tilde_eps(pr_box(), 0.25)
        assert result.value == pytest.approx(1.0, abs=1e-7)

    def test_omega_pub_oracle(self):
        # brute-force max winning probability of CHSH over the 16
        # deterministic strategies; the distance from PR to L is 1 - omega.
        best = 0.0
        for v in enumerate_local_vertices(B22):
            t = v.table()
            win = 0.0
            for x, y, a, b in itertools.product(range(2), repeat=4):
                if (a ^ b) == (x & y):
                    win += 0.25 * t[x, y, a, b]
            best = max(best, win)
        assert best == pytest.approx(0.75)
        # strictly below the threshold the value must stay above 1
        assert nu_tilde_eps(pr_box(), 0.2).value > 1.0 + 1e-6

    def test_pr_box_partial_smoothing(self):
        # interpolation between 2 at eps=0 and 1 at eps=1/4
        assert nu_tilde_eps(pr_box(), 0.1).value == pytest.approx(1.6, abs=1e-6)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(32)
        for _ in range(4):
            p = random_nonsignaling(rng, B22)
            v1 = nu_tilde_eps(p, 0.05).value
            v2 = nu_tilde_eps(p, 0.10).value
            assert v2 <= v1 + 1e-8

    def test_perturbed_target_within_ball(self):
        result = nu_tilde_eps(pr_box(), 0.1)
        assert result.diagnostics["distance_used"] <= 0.1 + 1e-8

    def test_program_shape(self, monkeypatch):
        # Columns q+, q-, u, v; one equality row per cell plus sum q = 1, one
        # budget row per input pair, and p' >= 0 as the upper bound v <= p.
        p = random_nonlocal(np.random.default_rng(2), Alphabets(2, 2, 3, 3))
        progs = captured_lps(monkeypatch)
        nu_tilde_eps(p, 0.05)
        prog, n_cells = progs[0], p.alphabets.n_cells
        V = vertex_table_matrix(p.alphabets).shape[1]
        assert (prog.n_vars, prog.n_eq, prog.n_ub) == (2 * V + 2 * n_cells, n_cells + 1, 4)
        assert np.array_equal(prog.ub[2 * V + n_cells:], p.flat())
        assert np.all(prog.ub[:2 * V + n_cells] == np.inf) and np.all(prog.lb == 0.0)
        assert np.array_equal(prog.b_ub, np.full(4, 0.1))

    def test_3333_value(self):
        # The value of the three-family form (a per-cell slack s with
        # p' - p <= s, p - p' <= s and p' >= 0), measured before the reshape.
        p = random_nonlocal(np.random.default_rng(0), Alphabets(3, 3, 3, 3))
        result = nu_tilde_eps(p, 0.05)
        assert result.value == pytest.approx(1.274440245482334, abs=1e-9)
        target = result.diagnostics["perturbed_target"]
        assert target.min() >= -1e-12
        assert result.diagnostics["distance_used"] <= 0.05 + 1e-12

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            nu_tilde_eps(pr_box(), -0.1)
        with pytest.raises(ValueError):
            nu_tilde_eps(pr_box(), 1.0)


class TestGamma2Tilde1:
    def test_local_vertex_is_one(self):
        v = next(iter(enumerate_local_vertices(B22)))
        assert gamma2_tilde_1(v.distribution()).value == pytest.approx(1.0, abs=1e-4)

    def test_pr_box_is_sqrt2(self):
        assert gamma2_tilde_1(pr_box()).value == pytest.approx(SQRT2, abs=1e-4)

    def test_singlet_grid_is_quantum(self):
        assert gamma2_tilde_1(singlet_grid_distribution()).value == pytest.approx(
            1.0, abs=1e-3)

    def test_sandwich_below_nu(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            p = random_nonsignaling(rng, B22)
            g2 = gamma2_tilde_1(p).value
            assert 1.0 - 1e-7 <= g2 <= nu_tilde(p).value + 1e-5

    def test_non_binary_alphabet(self):
        p = uniform_distribution(Alphabets(2, 2, 3, 3))
        assert gamma2_tilde_1(p).value == pytest.approx(1.0, abs=1e-4)


class TestGamma2Tilde1Eps:
    def test_eps_zero_matches_exact(self):
        p = pr_box()
        assert gamma2_tilde_1_eps(p, 0.0).value == pytest.approx(
            gamma2_tilde_1(p).value, abs=1e-4)

    def test_eps_zero_is_the_exact_program(self):
        # At eps = 0 the ball is {p} and the joint program has no interior;
        # the exact program is solved instead, with the same iterations.
        rng = np.random.default_rng(17)
        points = [pr_box()] + [random_nonlocal(rng, Alphabets(3, 3, 2, 2)) for _ in range(3)]
        for p in points:
            smoothed, exact = gamma2_tilde_1_eps(p, 0.0), gamma2_tilde_1(p)
            assert smoothed.quantity == "gamma2_tilde_1_eps"
            assert smoothed.epsilon == 0.0
            assert smoothed.value == exact.value
            assert smoothed.diagnostics["iterations"] == exact.diagnostics["iterations"]
            assert set(smoothed.diagnostics) == set(gamma2_tilde_1_eps(p, 0.05).diagnostics)

    def test_pr_box_quantum_threshold(self):
        # quantum winnability of CHSH: eps = (1 - sqrt(2)/2)/2
        eps = (1.0 - SQRT2 / 2.0) / 2.0
        assert gamma2_tilde_1_eps(pr_box(), eps).value == pytest.approx(1.0, abs=2e-3)

    def test_monotone_and_below_nu_eps(self):
        rng = np.random.default_rng(42)
        points = [random_nonsignaling(rng, B22)]
        points += [random_nonlocal(rng, B22) for _ in range(2)]
        for p in points:
            v1 = gamma2_tilde_1_eps(p, 0.05).value
            v2 = gamma2_tilde_1_eps(p, 0.10).value
            assert v2 <= v1 + 1e-5
            assert v1 <= nu_tilde_eps(p, 0.05).value + 1e-5
        for p in points[1:]:
            assert nu_tilde(p).value > 1.0 + 1e-3

    def test_program_shape(self, monkeypatch):
        # Two moment blocks and one linear block: p', u and v per cell and
        # one budget slack per input pair.  Besides the projector
        # constraints: normalization, p' per cell, the ball per cell and
        # the budgets.
        progs = []
        solve = bounds.solve_sdp
        monkeypatch.setattr(bounds, "solve_sdp",
                            lambda prog: progs.append(prog) or solve(prog))
        gamma2_tilde_1_eps(pr_box(), 0.1)
        assert progs[0].block_dims == [5, 5]
        assert progs[0].n_linear == 3 * 16 + 4
        # On binary outcomes the projector constraints are E^2 = E, one per
        # row but the first (d - 1 = 4); no input has two retained projectors.
        assert progs[0].n_constraints == 2 * 4 + 2 * 16 + 4 + 1

    @pytest.mark.parametrize("eps", [0.02, 0.05, 0.1])
    def test_pr_box_closed_form(self, eps):
        # The optimal perturbation spends the whole per-input budget 2*eps
        # on mixing in the uniform point, which scales every correlation,
        # and both bounds, by 1 - 2*eps.
        assert gamma2_tilde_1_eps(pr_box(), eps).value == pytest.approx(
            SQRT2 * (1.0 - 2.0 * eps), abs=1e-6)
        assert nu_tilde_eps(pr_box(), eps).value == pytest.approx(
            2.0 * (1.0 - 2.0 * eps), abs=1e-6)


class TestMomentLayout:
    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2), (2, 3, 2, 4)])
    def test_local_vertex_moments(self, shape):
        # A local vertex has the rank-one moment matrix g g^T, where g holds
        # 1 and the indicators of its retained outcomes.  In either block of
        # the moment program it meets every projector constraint, and the
        # data rows give data_rhs (negated in the negative block); the map's
        # cells give the vertex table, all without the SDP.
        alph = Alphabets(*shape)
        nx, ny, na, nb = shape
        cg = bounds._data_map(alph)
        prog, d = cg.moment_sdp, cg.d
        rows = prog.A.reshape(-1, 2, d, d)  # (constraint, block, d, d)
        for v in enumerate_local_vertices(alph):
            g = np.concatenate(
                [[1.0]] + [np.arange(na - 1) == a for a in v.lambda_a]
                + [np.arange(nb - 1) == b for b in v.lambda_b]).astype(float)
            assert g.shape == (d,)
            G = np.outer(g, g)
            data = cg.data_rhs(v.table())
            zeros = np.zeros(len(rows) - cg.n)
            assert np.array_equal(np.einsum("kjab,ab->jk", rows, G),
                                  [np.concatenate([zeros, data]), np.concatenate([zeros, -data])])
            assert np.array_equal(np.einsum("...ij,ij->...", cg.moment_cells, G), v.table())


class TestDataMap:
    SHAPES = [(2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2), (3, 3, 3, 3),
              (2, 3, 2, 4), (1, 4, 5, 2), (2, 2, 1, 3), (4, 1, 2, 2)]

    @staticmethod
    def size(shape):
        nx, ny, na, nb = shape
        return 1 + nx * (na - 1) + ny * (nb - 1) + nx * ny * (na - 1) * (nb - 1)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_vertex_coordinates_have_full_row_rank(self, shape):
        # The nu_tilde LP's rows: one per Collins-Gisin coordinate, none
        # redundant.
        alph = Alphabets(*shape)
        rows = bounds._DataMap(alph).data_rhs(vertex_table_matrix(alph).reshape(*shape, -1))
        assert rows.shape == (self.size(shape), alph.vertex_count)
        assert np.linalg.matrix_rank(rows) == self.size(shape)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_twin_is_the_split_of_the_vertex_coordinates(self, shape):
        # Read through the single-party factors, the LP's matrix is [S, -S]
        # with S the coordinates of the vertex tables, bit for bit; the
        # factors are read-only.
        alph = Alphabets(*shape)
        cg = bounds._DataMap(alph)
        S = cg.data_rhs(vertex_table_matrix(alph).reshape(*shape, -1))
        twin = FactoredMatrix(*cg.factors).split()
        assert twin.shape == (self.size(shape), 2 * alph.vertex_count)
        assert twin[:, :].tobytes() == np.hstack([S, -S]).tobytes()
        assert not any(arr.flags.writeable for arr in cg.factors)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fold_is_the_adjoint(self, shape):
        # On normalized tables, signaling or not, stacked as columns.
        nx, ny, na, nb = shape
        cg = bounds._DataMap(Alphabets(*shape))
        rng = np.random.default_rng(list(shape))
        tables = rng.dirichlet(np.ones(na * nb), size=(nx, ny, 6)).reshape(nx, ny, 6, na, nb)
        tables = np.moveaxis(tables, 2, -1)
        y = rng.normal(size=self.size(shape))
        np.testing.assert_allclose(np.einsum("xyab,xyabk->k", cg.fold(y), tables),
                                   y @ cg.data_rhs(tables), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_moment_data_rows_are_the_coordinates(self, shape):
        # The moment program's data rows, its last n, are the coordinates
        # of the map's cells, bit for bit, with the scale block E00 as the
        # normalization row: +M on the positive block, -M on the negative.
        # Written out: the retained cells, then each retained projector's
        # first-row entry, Alice's before Bob's.  The map builds its cells
        # and the program once.
        cg = bounds._data_map(Alphabets(*shape))
        cells, prog = cg.moment_cells, cg.moment_sdp
        assert cg.moment_cells is cells and cg.moment_sdp is prog
        d, eye = cg.d, np.eye(cg.d)
        data = prog.A[-cg.n:, prog.span[0]].reshape(-1, d, d)
        assert np.array_equal(prog.A[-cg.n:, prog.span[1]].reshape(-1, d, d), -data)
        E00 = bounds._sym_outer(eye[0], eye[0])
        assert np.array_equal(data[:-1], cg.data_rhs(cells)[:-1])
        assert np.array_equal(data[-1], E00)
        assert np.array_equal(data, np.concatenate(
            [cells[:, :, :-1, :-1].reshape(-1, d, d),
             bounds._sym_outer(eye[0], eye[1:]), E00[None]]))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_tables_invert_the_coordinates(self, shape):
        alph = Alphabets(*shape)
        cg = bounds._DataMap(alph)
        rng = np.random.default_rng(list(shape))
        p = random_local_mixture(rng, alph)
        np.testing.assert_allclose(cg.tables(cg.data_rhs(p.table)), p.table,
                                   rtol=0, atol=1e-14)
        c = rng.normal(size=(self.size(shape), 3))
        c[-1] = 1.0
        np.testing.assert_allclose(cg.data_rhs(cg.tables(c)), c, rtol=0, atol=1e-12)


class TestCorrelationQuantities:
    def test_rank_one_sign_matrix(self):
        rng = np.random.default_rng(51)
        u = np.sign(rng.normal(size=3))
        v = np.sign(rng.normal(size=4))
        C = np.outer(u, v)
        assert nu_corr(C).value == pytest.approx(1.0, abs=1e-8)
        assert gamma2_corr(C).value == pytest.approx(1.0, abs=1e-5)

    def test_chsh_sign_matrix(self):
        assert nu_corr(CHSH_SIGNS).value == pytest.approx(2.0, abs=1e-7)
        assert gamma2_corr(CHSH_SIGNS).value == pytest.approx(SQRT2, abs=1e-5)

    def test_sign_vertices_and_pairs(self):
        # Column order is that of a nested loop over u, then v, each with
        # its first sign +1; the LP's pivots depend on it.
        for nx, ny in [(1, 1), (2, 3), (3, 2)]:
            cols = [np.outer(1.0 - 2.0 * np.array(ub), 1.0 - 2.0 * np.array(vb)).ravel()
                    for ub in np.ndindex(*(2,) * nx) for vb in np.ndindex(*(2,) * ny)
                    if ub[0] == vb[0] == 0]
            S = np.array(cols).T
            us, vs = bounds._sign_factors(nx, ny)
            assert np.array_equal(FactoredMatrix(us.T, vs.T).split()[:, :], np.hstack([S, -S]))
        C = np.random.default_rng(8).uniform(-0.9, 0.9, size=(3, 4))
        d = nu_corr(C).diagnostics
        recon = sum(w * np.outer(u, v) for w, (u, v) in zip(d["weights"], d["sign_pairs"]))
        assert np.abs(recon - C).max() <= 1e-9

    @pytest.mark.parametrize("C, iterations", [
        ([[-1, -1, 1, 1, 1, -1], [-1, 1, -1, -1, -1, 1], [-1, 1, -1, 1, 1, 1],
          [-1, -1, 1, 1, 1, 1], [-1, 1, 1, -1, -1, -1], [1, -1, -1, 1, 1, 1]], 22),
        ([[-1, -1, 1, 1, 1], [-1, -1, -1, -1, -1], [1, 1, 1, -1, 1],
          [-1, 1, -1, 1, -1], [-1, 1, 1, -1, 1]], 22),
    ], ids=["6x6", "5x5"])
    def test_gamma2_corr_rank_deficient_optimum(self, C, iterations):
        # The engine's iterates drift from the best one on these sign
        # matrices toward a loss of definiteness (at iterations 45 and 35
        # without the early stop); the best iterate must still be a
        # certified optimum, reported with its own iteration count.
        C = np.array(C, dtype=float)
        nx, ny = C.shape
        result = gamma2_corr(C)
        assert result.diagnostics["status"] == "optimal"
        assert result.diagnostics["iterations"] == iterations
        G = result.diagnostics["gram"]
        residual = max(np.abs(G[:nx, nx:] - C).max(),
                       np.abs(np.diag(G) - G[0, 0]).max())
        assert residual <= 1e-6
        assert np.linalg.eigvalsh(G)[0] >= -1e-7
        assert result.diagnostics["relative_gap"] <= 1e-5
        assert result.value == pytest.approx(G[0, 0])
        # gamma2 of a sign matrix is at least 1 and at most sqrt(min(nx, ny)).
        assert 1.0 <= result.value <= np.sqrt(min(nx, ny)) + 1e-6

    def test_gamma2_corr_over_the_sdp_cap(self):
        # A 50 x 50 matrix's Gram block is 100 x 100, and a solve could need
        # 2.7 GiB (the coefficient stack alone would be 2,500 x 10,000
        # floats, 200 MB): refused before the stack is built, on a cold and
        # on a warm data map, which keeps no Gram program.
        C = np.random.default_rng(50).choice([-1.0, 1.0], (50, 50))
        bounds._data_map.cache_clear()
        for _ in range(2):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match=r"\(cap 512 MiB\)"):
                    gamma2_corr(C)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6
        assert "corr_sdp" not in vars(bounds._data_map(Alphabets(50, 50, 2, 2)))

    def test_corr_nu_matches_distribution_nu(self):
        # nu on correlation space equals nu_tilde of the Boolean
        # distribution whenever the value exceeds 1.
        rng = np.random.default_rng(52)
        tried = 0
        while tried < 5:
            C = np.sign(rng.normal(size=(2, 2)))
            v_corr = nu_corr(C).value
            if v_corr <= 1.0 + 1e-6:
                continue
            tried += 1
            assert nu_tilde(boolean_distribution(C)).value == pytest.approx(
                v_corr, abs=1e-6)

    def test_grothendieck_sandwich(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            nx, ny = rng.integers(2, 4, size=2)
            C = np.sign(rng.normal(size=(nx, ny)))
            v = nu_corr(C).value
            g = gamma2_corr(C).value
            assert v <= GROTHENDIECK.upper * g + 1e-4 or v <= 1.0 + 1e-6

    def test_alpha_box_conversion(self):
        # nu^alpha(C) = nu_eps(C)/(1-2 eps) with alpha = 1/(1-2 eps),
        # both sides computed by independent LPs.
        rng = np.random.default_rng(54)
        for eps in (0.05, 0.1):
            for _ in range(3):
                C = np.sign(rng.normal(size=(2, 2)))
                smoothed = nu_tilde_eps(boolean_distribution(C), eps).value
                if smoothed <= 1.0 + 1e-6:
                    continue
                alpha = 1.0 / (1.0 - 2.0 * eps)
                lhs = nu_corr_alpha(C, alpha)
                assert lhs == pytest.approx(smoothed / (1.0 - 2.0 * eps), abs=1e-6)

    def test_nu_corr_alpha_validation(self):
        with pytest.raises(ValueError):
            nu_corr_alpha(np.array([[0.5]]), 1.5)
        with pytest.raises(ValueError):
            nu_corr_alpha(CHSH_SIGNS, 0.9)
        with pytest.raises(ValueError):
            nu_corr_alpha(CHSH_SIGNS, np.nan)

    def test_nu_corr_alpha_shape(self, monkeypatch):
        # One equality row per cell, C o (S q) - r = 0, with r boxed in [1, alpha].
        C = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
        progs = captured_lps(monkeypatch)
        nu_corr_alpha(C, 1.5)
        prog = progs[0]
        assert (prog.n_eq, prog.n_ub) == (6, 0)
        assert np.array_equal(prog.lb[-6:], np.ones(6))
        assert np.array_equal(prog.ub[-6:], np.full(6, 1.5))

    def test_nu_corr_alpha_unbounded_alpha(self):
        # alpha = inf leaves only C o C' >= 1: the one-sided value.
        assert nu_corr_alpha(CHSH_SIGNS, np.inf) == pytest.approx(2.0, abs=1e-12)
        assert nu_corr_alpha(CHSH_SIGNS, np.inf) == pytest.approx(
            nu_corr_alpha(CHSH_SIGNS, 1e3), abs=1e-12)

    def test_nu_corr_alpha_one_is_nu_corr(self):
        # alpha = 1 pins every r at 1 (fixed nonzero columns), so C' = C.
        rng = np.random.default_rng(8)
        for C in [CHSH_SIGNS, np.sign(rng.normal(size=(3, 3)))]:
            assert nu_corr_alpha(C, 1.0) == pytest.approx(nu_corr(C).value, abs=1e-9)


def all_sign_vertices(nx, ny):
    """Every u v^T over u in {+-1}^nx, v in {+-1}^ny as a column (each
    distinct one twice), column k from us[k // len(vs)] and vs[k % len(vs)]."""
    us = np.array(list(itertools.product((1.0, -1.0), repeat=nx)))
    vs = np.array(list(itertools.product((1.0, -1.0), repeat=ny)))
    return np.array([np.outer(u, v).ravel() for u in us for v in vs]).T, us, vs


def _distinct_columns(S):
    return {tuple(col) for col in S.T}


class TestSignVertices:
    """The sign LPs hold one column per pair +-u v^T; on every input they
    must equal the LPs over all 2^(nx+ny) sign vertices."""

    SHAPES = [(nx, ny) for nx in range(1, 4) for ny in range(1, 5)]

    @pytest.mark.parametrize("nx, ny", SHAPES)
    def test_one_column_per_pair(self, nx, ny):
        us, vs = bounds._sign_factors(nx, ny)
        S = FactoredMatrix(us.T, vs.T)[:, :]
        every = all_sign_vertices(nx, ny)[0]
        full = _distinct_columns(every)
        assert len(full) == 2 ** (nx + ny - 1)
        assert S.shape == (nx * ny, 2 ** (nx + ny - 2))
        # Distinct up to sign, and with their negations every distinct u v^T.
        assert len(_distinct_columns(S) | _distinct_columns(-S)) == 2 * S.shape[1]
        assert _distinct_columns(np.hstack([S, -S])) == full

    @pytest.mark.parametrize("n", range(1, 8))
    def test_twin_is_the_split_of_the_sign_vertices(self, n):
        # Read through the sign vectors, [S, -S], bit for bit, with S's
        # columns the flattened u v^T in the order of its sign vectors.
        us, vs = bounds._sign_factors(n, n)
        S = np.array([np.outer(u, v).ravel() for u in us for v in vs]).T
        assert FactoredMatrix(us.T, vs.T).split()[:, :].tobytes() == np.hstack([S, -S]).tobytes()

    @staticmethod
    def matrices():
        for n, (nx, ny) in enumerate([(2, 2), (2, 3), (3, 2), (3, 4), (4, 4), (5, 5), (6, 6)]):
            rng = np.random.default_rng([61, n])
            yield np.where(rng.uniform(size=(nx, ny)) < 0.5, -1.0, 1.0)
            yield rng.uniform(-1.0, 1.0, size=(nx, ny))

    @staticmethod
    def use_all_sign_vertices(monkeypatch):
        """Build the same LPs over every sign vertex: with every sign vector
        as a factor column, the [S, -S] split holds each distinct column
        four times.  The equal-bias and epsilon_pub LPs take their columns
        through ``bounds`` too.  The sign vectors are cached on each binary
        alphabet's data map, so a fresh
        map cache stands in for the test's duration: every shape is built
        anew, and no map over all sign vertices outlives the test.  Returns
        the shapes built."""
        built = []

        def every_sign_vertex(nx, ny):
            built.append((nx, ny))
            return all_sign_vertices(nx, ny)[1:]

        monkeypatch.setattr(bounds, "_sign_factors", every_sign_vertex)
        monkeypatch.setattr(bounds, "_data_map", functools.lru_cache(
            maxsize=bounds._L1_CACHE)(bounds._data_map.__wrapped__))
        return built

    @staticmethod
    def values(C):
        out = {"nu_corr": nu_corr(C).value,
               "equal_bias": games.equal_bias_value(C),
               "epsilon_pub": games.epsilon_pub(C)}
        if np.all(np.abs(C) == 1.0):
            for alpha in (1.0, 1.5, np.inf):
                out[f"alpha {alpha}"] = nu_corr_alpha(C, alpha)
        return out

    def test_values_match_all_sign_vertices(self, monkeypatch):
        matrices = list(self.matrices())
        got = [self.values(C) for C in matrices]
        built = self.use_all_sign_vertices(monkeypatch)
        for C, values in zip(matrices, got):
            for name, want in self.values(C).items():
                assert values[name] == pytest.approx(want, abs=1e-9), (C.shape, name)
        assert sorted(built) == sorted({C.shape for C in matrices})

    @staticmethod
    def max_common_bias(C, equal):
        """Reference LP: max beta over local correlation matrices S w (w >= 0
        on every sign vertex once, sum w = 1) and beta in [-1, 1], with
        C o (S w) equal to beta on every cell (``equal``) or at least beta."""
        every = all_sign_vertices(*C.shape)[0]
        S = every[:, :every.shape[1] // 2]  # u_0 = +1: each sign vertex once
        V, m = S.shape[1], C.size
        # Columns [w, beta, z]: rows C o (S w) - beta - z = 0, then sum w = 1.
        n = V + 1 + m
        c, lb, ub = np.zeros(n), np.zeros(n), np.full(n, np.inf)
        c[V], lb[V], ub[V] = -1.0, -1.0, 1.0
        ub[V + 1:] = 0.0 if equal else np.inf
        A_eq = np.zeros((m + 1, n))
        A_eq[:m] = np.hstack([C.reshape(-1, 1) * S, np.full((m, 1), -1.0), -np.eye(m)])
        A_eq[m, :V] = 1.0
        sol = solve_lp(LinearProgram(c=c, A_eq=A_eq, b_eq=np.append(np.zeros(m), 1.0),
                                     lb=lb, ub=ub))
        assert sol.status == "optimal"
        return -sol.objective

    def test_biases_match_the_max_beta_lp(self):
        # eps_=(C) = 1 / equal_bias_value(C), and epsilon_pub(C) = 1 / nu^inf(C).
        for C in self.matrices():
            assert games.equal_bias_value(C) == pytest.approx(
                1.0 / self.max_common_bias(C, True), abs=1e-9), C.shape
            assert games.epsilon_pub(C) == pytest.approx(
                self.max_common_bias(C, False), abs=1e-9), C.shape

    def test_nu_corr_certificates(self):
        for C in self.matrices():
            res = nu_corr(C)
            bell = res.dual_certificate
            assert best_local_response(bell.coeffs)[0] <= 1.0 + 1e-9
            assert best_local_response(-bell.coeffs)[0] <= 1.0 + 1e-9
            assert bell.value_on_correlations(C) == pytest.approx(res.value, abs=1e-9)
            d = res.diagnostics
            recon = sum(w * np.outer(u, v) for w, (u, v) in zip(d["weights"], d["sign_pairs"]))
            assert np.abs(recon - C).max() <= 1e-9
            assert np.abs(d["weights"]).sum() == pytest.approx(res.value, abs=1e-9)


class TestCorrelationInput:
    """nu_corr, nu_corr_alpha, equal_bias_value and epsilon_pub share one
    input check; gamma2_corr takes any finite, non-empty real matrix."""

    SIGN_LPS = {
        "nu_corr": lambda C: nu_corr(C).value,
        "nu_corr_alpha": lambda C: nu_corr_alpha(C, 1.5),
        "equal_bias_value": games.equal_bias_value,
        "epsilon_pub": games.epsilon_pub,
    }
    BAD = {
        "above-one": [[1.0, 1.5], [1.0, -1.0]],
        "nan": [[1.0, np.nan], [1.0, -1.0]],
        "empty-list": [],
        "empty-row": [[]],
        "three-d": [[[1.0]]],
    }

    @pytest.mark.parametrize("bad", BAD, ids=list(BAD))
    @pytest.mark.parametrize("name", SIGN_LPS, ids=list(SIGN_LPS))
    def test_refused(self, name, bad):
        with pytest.raises(ValueError):
            self.SIGN_LPS[name](self.BAD[bad])

    @pytest.mark.parametrize("bad", ["nan", "empty-list", "empty-row", "three-d"])
    def test_gamma2_corr_refused(self, bad):
        with pytest.raises(ValueError):
            gamma2_corr(self.BAD[bad])

    def test_gamma2_corr_takes_any_real_entries(self):
        assert gamma2_corr(2.0 * CHSH_SIGNS).value == pytest.approx(2.0 * SQRT2, abs=1e-5)

    def test_zero_entry_is_decided_without_an_lp(self, monkeypatch):
        # 0 lies in the sign hull, so the best common bias is exactly 0.
        # Deciding it builds no sign vertex either: the sign LPs' arrays of
        # a 9x9 C take ~160 MiB.  The vertex cap still refuses first.
        C = np.array([[1.0, 0.0, -0.5], [0.25, -1.0, 1.0]])
        progs = captured_lps(monkeypatch)
        with pytest.raises(ValueError, match="no equal-bias strategy"):
            games.equal_bias_value(C)
        assert games.epsilon_pub(C) == 0.0
        assert progs == []
        C9 = np.where(np.random.default_rng(9).normal(size=(9, 9)) < 0, -1.0, 1.0)
        C9[4, 7] = 0.0
        bounds._data_map.cache_clear()
        tracemalloc.start()
        try:
            assert games.epsilon_pub(C9) == 0.0
            with pytest.raises(ValueError, match="no equal-bias strategy"):
                games.equal_bias_value(C9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert "signs" not in vars(bounds._data_map(Alphabets(9, 9, 2, 2)))
        monkeypatch.setenv("NONSIG_VERTEX_CAP", "5")
        for M, count in [(C, 2**5), (C9, 2**18)]:
            message = rf"^enumeration would produce {count} sign vertices \(cap 5\)$"
            for call in (games.equal_bias_value, games.epsilon_pub):
                with pytest.raises(ResourceLimitError, match=message):
                    call(M)

    @pytest.mark.parametrize("e", [1e-6, 1e-10])
    def test_entry_near_zero(self, e):
        # The common bias is capped by the entry e: |S(0, 1)| <= 1.
        C = np.array([[1.0, e], [1.0, -1.0]])
        assert games.equal_bias_value(C) == pytest.approx(1.0 / e, rel=1e-9)
        assert games.epsilon_pub(C) == pytest.approx(e, rel=1e-9)


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _local_bound(B):
    """max |B(v)| over the local vertices, by the package's one oracle."""
    return max(best_local_response(B)[0], best_local_response(-B)[0])


class TestNormalizationIsTheOracle:
    # Every local certificate's normalization is core.best_local_response
    # on the coefficients it carries, bit for bit, not a product with an
    # LP's vertex matrix, whose rounding follows that matrix's layout (on
    # the PR box, 1.0 from that product, 1.0000000000000004 from the
    # oracle).

    @pytest.mark.parametrize("name", ["pr_box", "pr_box_at_tolerance", "nonlocal_2233",
                                      "nonlocal_3333"])
    def test_nu_tilde_golden_inputs(self, name):
        p = load_distribution(GOLDEN_INPUTS / f"{name}.json")
        bell = nu_tilde(p).dual_certificate
        assert bell.normalization == _local_bound(bell.coeffs)
        assert dual_bell(p).normalization == bell.normalization

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2), (3, 2, 2, 3)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_nu_tilde_seeded_points(self, shape):
        for seed in range(3):
            p = random_nonlocal(np.random.default_rng([seed, 9, *shape]), Alphabets(*shape))
            bell = nu_tilde(p).dual_certificate
            assert bell.normalization == _local_bound(bell.coeffs)

    @pytest.mark.parametrize("C", [
        *(pytest.param(np.random.default_rng([n, 71]).choice([-1.0, 1.0], (n, n)), id=f"{n}x{n}")
          for n in range(2, 7)),
        pytest.param(json.loads((GOLDEN_INPUTS / "sylvester6.json").read_text())["C"],
                     id="sylvester6")])
    def test_nu_corr(self, C):
        # The sign vertices are closed under negation: one call.
        bell = nu_corr(C).dual_certificate
        assert bell.normalization == best_local_response(bell.coeffs)[0]
        assert bell.normalization == _local_bound(bell.coeffs)

    def test_game_to_bell(self):
        rng = np.random.default_rng(72)
        for game in [games.chsh_game()] + [
                games.XorGame(rng.choice([-1.0, 1.0], (nx, ny)), rng.dirichlet(np.ones(nx * ny))
                              .reshape(nx, ny)) for nx, ny in [(2, 3), (3, 3), (4, 2), (4, 4)]]:
            bell = games.game_to_bell(game)
            assert bell.normalization == best_local_response(bell.coeffs)[0]
            assert bell.normalization == games.classical_bias(game)["bias"]


class TestDualBell:
    def test_pr_box_local_functional(self):
        bell = dual_bell(pr_box(), "local")
        assert bell.claimed_bound_class == "local"
        assert bell.value(pr_box()) == pytest.approx(2.0, abs=1e-5)
        assert bell.normalization <= 1.0 + 1e-6
        for v in enumerate_local_vertices(B22):
            assert abs(bell.value(v.distribution())) <= 1.0 + 1e-6

    def test_local_point_gives_one(self):
        rng = np.random.default_rng(61)
        p = random_local_mixture(rng, B22)
        assert dual_bell(p).value(p) == pytest.approx(1.0, abs=1e-5)

    def test_matches_primal_on_random_instances(self):
        rng = np.random.default_rng(62)
        points = [random_nonsignaling(rng, B22) for _ in range(4)]
        points += [random_nonlocal(rng, B22) for _ in range(3)]
        for k, p in enumerate(points):
            bell = dual_bell(p)
            nu = nu_tilde(p).value
            assert bell.value(p) == pytest.approx(nu, abs=1e-5)
            if k >= 4:
                assert nu > 1.0 + 1e-3
                for v in enumerate_local_vertices(B22):
                    assert abs(bell.value(v.distribution())) <= 1.0 + 1e-6

    def test_npa_level_1_functional(self):
        bell = dual_bell(pr_box(), "npa-level-1")
        assert bell.claimed_bound_class == "npa-level-1"
        assert bell.value(pr_box()) == pytest.approx(SQRT2, abs=1e-4)

    @pytest.mark.parametrize("shape", [(2, 2, 3, 3), (3, 3, 2, 2), (2, 3, 2, 4), (3, 2, 4, 2)])
    def test_npa_level_1_fold_on_larger_alphabets(self, shape):
        # The fold spreads marginal and normalization multipliers over the
        # cells; on outcome counts above two, and unequal ones, B(p) must
        # still equal gamma2_tilde_1(p) and stay within 1 on every local
        # vertex.
        # The point is a PR box on the first two outcomes (b = a xor xy),
        # blended with a seeded local mixture: nonlocal on every shape.
        alph = Alphabets(*shape)
        box = np.zeros(shape)
        for x, y, a in np.ndindex(alph.nx, alph.ny, 2):
            box[x, y, a, a ^ (x * y % 2)] = 0.5
        local = random_local_mixture(np.random.default_rng(list(shape)), alph)
        p = ConditionalDistribution(alph, 0.8 * box + 0.2 * local.table)
        value = gamma2_tilde_1(p).value
        assert value > 1.0 + 1e-3
        bell = dual_bell(p, "npa-level-1")
        assert bell.value(p) == pytest.approx(value, abs=1e-6)
        for v in enumerate_local_vertices(alph):
            assert abs(bell.value(v.distribution())) <= 1.0 + 1e-6

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            dual_bell(pr_box(), "npa-level-9")

    def test_local_functional_3333(self):
        # Half a three-outcome PR box (b - a = x*y mod 3), half a seeded
        # local mixture: a nonlocal point.
        alph = Alphabets(3, 3, 3, 3)
        box = np.zeros(alph.shape)
        for x, y, a in itertools.product(range(3), repeat=3):
            box[x, y, a, (a + x * y) % 3] = 1.0 / 3.0
        local = random_local_mixture(np.random.default_rng(64), alph)
        p = ConditionalDistribution(alph, 0.5 * box + 0.5 * local.table)
        nu = nu_tilde(p).value
        assert nu > 1.0 + 1e-3
        bell = dual_bell(p)
        assert bell.value(p) == pytest.approx(nu, abs=1e-6)
        values = [bell.value(v.table()) for v in enumerate_local_vertices(alph)]
        assert len(values) == 729
        assert max(abs(v) for v in values) <= 1.0 + 1e-6
        assert bell.normalization == pytest.approx(max(abs(v) for v in values), abs=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2, 3, 3), (3, 3, 2, 2), (3, 3, 3, 3)])
    def test_local_functional_in_vertex_span(self, shape):
        # The representative is the projection onto the span of the local
        # vertex tables; it is a valid Bell functional and is tight at p.
        alph = Alphabets(*shape)
        p = random_nonlocal(np.random.default_rng(83), alph)
        B = dual_bell(p).coeffs
        Vt = vertex_table_matrix(alph)
        w = np.linalg.lstsq(Vt, B.reshape(-1), rcond=None)[0]
        assert np.abs(Vt @ w - B.reshape(-1)).max() <= 1e-12
        assert best_local_response(B)[0] <= 1.0 + 1e-9
        assert best_local_response(-B)[0] <= 1.0 + 1e-9
        assert np.sum(B * p.table) == pytest.approx(nu_tilde(p).value, abs=1e-9)

    def test_lp_breakdown_is_runtime_error(self, monkeypatch):
        def broken(self):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("nonsig.lp._Simplex.refactor", broken)
        with pytest.raises(RuntimeError, match="numerical-error"):
            nu_tilde(pr_box())


LP_RECORD = ("status", "iterations", "duality_gap")
SDP_RECORD = ("status", "iterations", "relative_gap", "max_equality_residual",
              "min_eigenvalue")


class TestSolveRecord:
    """Every bound's diagnostics open with its engine's record, and each
    bound class carries its own dual functional."""

    @pytest.mark.parametrize("solve, keys", [
        (lambda p: nu_tilde(p).diagnostics, LP_RECORD),
        (lambda p: nu_tilde_eps(p, 0.05).diagnostics, LP_RECORD),
        (lambda p: nu_corr(to_correlation_rep(p).C).diagnostics, LP_RECORD),
        (lambda p: gamma2_tilde_1(p).diagnostics, SDP_RECORD),
        (lambda p: gamma2_tilde_1_eps(p, 0.0).diagnostics, SDP_RECORD),
        (lambda p: gamma2_tilde_1_eps(p, 0.05).diagnostics, SDP_RECORD),
        (lambda p: gamma2_corr(to_correlation_rep(p).C).diagnostics, SDP_RECORD),
        (lambda p: games.quantum_bias(games.bell_to_game(to_correlation_rep(p).C))
         ["diagnostics"], SDP_RECORD),
    ], ids=["nu_tilde", "nu_tilde_eps", "nu_corr", "gamma2_tilde_1", "gamma2_tilde_1_eps-0",
            "gamma2_tilde_1_eps", "gamma2_corr", "quantum_bias"])
    def test_diagnostics_start_with_the_engine_record(self, solve, keys):
        diagnostics = solve(random_nonlocal(np.random.default_rng(91), B22))
        assert tuple(diagnostics)[:len(keys)] == keys
        assert diagnostics["status"] == "optimal"

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2)])
    def test_gamma2_carries_its_tsirelson_functional(self, shape):
        p = random_nonlocal(np.random.default_rng([92, *shape]), Alphabets(*shape))
        result = gamma2_tilde_1(p)
        bell = result.dual_certificate
        assert bell.claimed_bound_class == "npa-level-1"
        assert np.array_equal(bell.coeffs, dual_bell(p, "npa-level-1").coeffs)
        # B(p) is the dual objective, so it misses the value by the gap.
        gap = result.diagnostics["relative_gap"] * (1.0 + 2.0 * abs(result.value))
        assert abs(bell.value(p) - result.value) <= gap + 1e-12
        assert best_local_response(bell.coeffs)[0] <= 1.0 + 1e-6
        assert best_local_response(-bell.coeffs)[0] <= 1.0 + 1e-6


class TestDecomposition:
    def test_pr_box_block_structure(self):
        p = pr_box()
        model = quantum_to_local_decomposition(p)
        assert len(model.components) == 7  # 4 binary blocks + 3 product terms
        assert model.mass == pytest.approx(2 * 2 * 2 - 1)  # 2AB - 1
        assert model.weight_sum == pytest.approx(1.0)
        assert np.abs(model.evaluate() - extended_table(p)).max() <= 1e-10

    def test_blocks_are_valid_distributions(self):
        model = quantum_to_local_decomposition(pr_box())
        for w, comp in model.components[:4]:
            assert w == 1.0
            assert validate(comp).ok

    def test_three_outcome_instance(self):
        rng = np.random.default_rng(71)
        p = random_local_mixture(rng, Alphabets(2, 2, 3, 3))
        model = quantum_to_local_decomposition(p)
        assert len(model.components) == 9 + 3
        assert model.mass == pytest.approx(2 * 9 - 1)
        assert np.abs(model.evaluate() - extended_table(p)).max() <= 1e-10

    def test_corr_decomposer_splice(self):
        # pushing each binary block through its own nu_tilde certificate
        # yields an all-local model of the extended distribution
        rng = np.random.default_rng(72)
        p = random_local_mixture(rng, B22)
        model = quantum_to_local_decomposition(
            p, corr_decomposer=lambda d: nu_tilde(d).primal_certificate)
        assert np.abs(model.evaluate() - extended_table(p)).max() <= 1e-6


class TestGapCheck:
    def test_pr_box(self):
        report = gap_check(pr_box())
        assert report["holds"] and report["binary"] and report["uses_relaxation"]
        assert report["nu"] == pytest.approx(2.0, abs=1e-6)
        assert report["bound_2K_plus_1"] == pytest.approx(
            (2 * GROTHENDIECK.upper + 1) * SQRT2, abs=1e-3)

    def test_local_point(self):
        rng = np.random.default_rng(81)
        report = gap_check(random_local_mixture(rng, B22))
        assert report["holds"]
        assert report["ratio"] <= 2 * GROTHENDIECK.upper + 1 + 1e-4

    def test_random_binary_samples(self):
        rng = np.random.default_rng(82)
        for _ in range(4):
            assert gap_check(random_nonsignaling(rng, B22))["holds"]


class TestScaledLocalReconstruction:
    def test_zero_bits_identity(self):
        rng = np.random.default_rng(91)
        p = random_local_mixture(rng, B22)
        model = scaled_local_reconstruction(
            p, 0, p, np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        assert len(model.components) == 1
        assert model.mass == pytest.approx(1.0)

    def test_pr_box_one_bit(self):
        # p_l from the 1-bit protocol satisfies PR = 2 p_l - uniform
        p = pr_box()
        u = uniform_distribution(B22)
        p_l = ConditionalDistribution(B22, 0.5 * (p.table + u.table))
        model = scaled_local_reconstruction(
            p, 1, p_l, np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        assert model.mass == pytest.approx(3.0)  # 2^(t+1) - 1
        assert np.abs(model.evaluate() - p.table).max() <= 1e-12

    def test_two_bit_scaling(self):
        p = pr_box()
        u = uniform_distribution(B22)
        p_l = ConditionalDistribution(B22, (p.table + 3 * u.table) / 4.0)
        model = scaled_local_reconstruction(
            p, 2, p_l, np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        assert model.mass == pytest.approx(7.0)

    def test_mismatch_raises(self):
        p = pr_box()
        u = uniform_distribution(B22)
        with pytest.raises(ReconstructionError):
            scaled_local_reconstruction(
                p, 1, u, np.full((2, 2), 0.5), np.full((2, 2), 0.5))


class TestLowerBoundBits:
    def test_pr_box_r_pub(self):
        report = lower_bound_bits(nu_tilde(pr_box()))
        assert report["r_pub"] == pytest.approx(0.0, abs=1e-6)

    def test_gamma2_corr_sqrt2(self):
        report = lower_bound_bits(gamma2_corr(CHSH_SIGNS))
        assert report["q_ent_corr"] == pytest.approx(0.5, abs=1e-5)
        assert report["q_ent"] == 0.0  # 0.25 - 1 clamped
        assert any("q_ent" in n for n in report["notes"])

    def test_trivial_value_clamps_to_zero(self):
        report = lower_bound_bits(BoundResult(quantity="nu_tilde", value=1.0))
        assert report["r_pub"] == 0.0

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            lower_bound_bits(BoundResult(quantity="nu_tilde", value=0.5))

    def test_bound_report_structure(self):
        report = bounds.bound_report(nu_tilde(pr_box()))
        assert report["quantity"] == "nu_tilde"
        assert report["value"] == pytest.approx(2.0, abs=1e-6)
        assert "primal_certificate" in report and "dual_certificate" in report
        assert report["primal_certificate"]["mass"] == pytest.approx(2.0, abs=1e-6)
