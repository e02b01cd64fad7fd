"""Tests for the interior-point SDP engine."""

import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nonsig import bounds, games, sdp
from nonsig.core import Alphabets, ResourceLimitError, load_distribution, pr_box
from nonsig.lp import LinearProgram, solve_lp
from nonsig.sdp import _PATIENCE, LINEAR, SdpProgram, solve_sdp

from helpers import random_nonlocal

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def unit(d, i, j):
    M = np.zeros((d, d))
    M[i, j] = 1.0
    return M


class TestClosedForm:
    def test_min_t_off_diagonal_one(self):
        # min t s.t. [[t, 1], [1, t]] >= 0  ->  t = 1.
        # Variables: X is the 2x2 block itself with X01 pinned to 1 and
        # X00 = X11 = t via an equality.
        prog = SdpProgram([2])
        prog.set_objective({0: 0.5 * (unit(2, 0, 0) + unit(2, 1, 1))})
        prog.add_constraint({0: unit(2, 0, 1) + unit(2, 1, 0)}, 2.0)
        prog.add_constraint({0: unit(2, 0, 0) - unit(2, 1, 1)}, 0.0)
        sol = solve_sdp(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-4)
        assert sol.blocks[0][0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_max_offdiag_unit_diagonal(self):
        # max X01 + X10 s.t. diag(X) = 1, X >= 0 -> 2 at the all-ones X.
        prog = SdpProgram([2])
        prog.set_objective({0: -(unit(2, 0, 1) + unit(2, 1, 0))})
        prog.add_constraint({0: unit(2, 0, 0)}, 1.0)
        prog.add_constraint({0: unit(2, 1, 1)}, 1.0)
        sol = solve_sdp(prog)
        assert sol.status == "optimal"
        assert -sol.objective == pytest.approx(2.0, abs=1e-4)
        assert np.abs(sol.blocks[0] - 1.0).max() <= 1e-3

    def test_two_blocks(self):
        # Two independent copies of the diagonal problem.
        prog = SdpProgram([3, 3])
        prog.set_objective({0: np.eye(3), 1: np.eye(3)})
        prog.add_constraint({0: unit(3, 0, 1) + unit(3, 1, 0)}, 2.0)
        prog.add_constraint({1: unit(3, 0, 2) + unit(3, 2, 0)}, 2.0)
        sol = solve_sdp(prog)
        assert sol.status == "optimal"
        # each block needs diagonal >= |off-diagonal| entries: min trace 2 each
        assert sol.objective == pytest.approx(4.0, abs=1e-3)


class TestLinearBlock:
    def test_linear_only_matches_lp(self):
        # min c.x s.t. A x = b, x >= 0, made feasible by a positive x0 and
        # bounded by a dual-feasible c = A^T y0 + s0 with s0 > 0.  A program
        # has at least one PSD block: a 1x1 block fixed at 1 at zero cost.
        rng = np.random.default_rng(13)
        for _ in range(6):
            m, n = int(rng.integers(2, 5)), int(rng.integers(5, 10))
            A = rng.normal(size=(m, n))
            b = A @ rng.uniform(0.5, 2.0, size=n)
            c = A.T @ rng.normal(size=m) + rng.uniform(0.1, 1.0, size=n)
            prog = SdpProgram([1], n)
            prog.set_objective({LINEAR: c})
            prog.add_constraint({0: np.ones((1, 1))}, 1.0)
            for i in range(m):
                prog.add_constraint({LINEAR: A[i]}, b[i])
            sol = solve_sdp(prog)
            ref = solve_lp(LinearProgram(c=c, A_eq=A, b_eq=b))
            assert sol.status == ref.status == "optimal"
            assert sol.objective == pytest.approx(ref.objective, abs=1e-6)
            assert sol.blocks[0][0, 0] == pytest.approx(1.0, abs=1e-6)
            assert sol.linear.min() >= -1e-7
            assert sol.max_equality_residual <= 1e-6

    @pytest.mark.parametrize("floor", [0.5, 2.0])
    def test_mixed_psd_and_linear(self, floor):
        # min t s.t. [[t, 1], [1, t]] >= 0 and t - x = floor, x >= 0:
        # t = max(1, floor), with slack x = t - floor.
        prog = SdpProgram([2], 1)
        prog.set_objective({0: 0.5 * (unit(2, 0, 0) + unit(2, 1, 1))})
        prog.add_constraint({0: unit(2, 0, 1) + unit(2, 1, 0)}, 2.0)
        prog.add_constraint({0: unit(2, 0, 0) - unit(2, 1, 1)}, 0.0)
        prog.add_constraint({0: unit(2, 0, 0), LINEAR: [-1.0]}, floor)
        sol = solve_sdp(prog)
        t = max(1.0, floor)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(t, abs=1e-6)
        assert sol.linear[0] == pytest.approx(t - floor, abs=1e-6)
        assert sol.blocks[0][0, 0] == pytest.approx(t, abs=1e-6)

    def test_wrong_length_rejected(self):
        prog = SdpProgram([2], 3)
        with pytest.raises(ValueError):
            prog.add_constraint({LINEAR: np.ones(2)}, 1.0)
        with pytest.raises(ValueError):
            prog.set_objective({LINEAR: np.ones(4)})

    def test_total_dim_counts_linear_length(self):
        # total_dim scales the barrier parameter; the cap counts bytes, not
        # it: the 3x3x3x3 eps program (278) is made, and two 100 x 100
        # blocks (200) are refused.
        assert SdpProgram([3, 3], 4).total_dim == 10
        assert SdpProgram([13, 13], 3 * 81 + 9).total_dim == 278
        with pytest.raises(ResourceLimitError, match=r"\(cap 512 MiB\)"):
            SdpProgram([100, 100])

    def test_linear_only_rows_anywhere(self):
        # A seeded program, feasible (b from a positive definite X0 and a
        # positive x0) and bounded (c = A^T y0 + s0, s0 positive definite),
        # whose rows 1, 4 and 6 touch only the linear block.  It solves to
        # the same objective as the same program with those rows last, and
        # the compiled row index lists exactly the rows with a PSD nonzero.
        rng = np.random.default_rng(29)
        k, d, n_lin, m = 2, 3, 5, 9
        linear_only = [1, 4, 6]
        A = rng.normal(size=(m, k * d * d + n_lin))
        A[linear_only, :k * d * d] = 0.0
        psd = A[:, :k * d * d].reshape(m, k, d, d)
        psd[...] = 0.5 * (psd + psd.swapaxes(-1, -2))
        X0 = np.concatenate([(np.eye(d) + 0.1 * np.ones((d, d))).reshape(-1)] * k
                            + [rng.uniform(0.5, 2.0, n_lin)])
        S0 = np.concatenate([np.eye(d).reshape(-1)] * k + [rng.uniform(0.1, 1.0, n_lin)])
        b, c = A @ X0, A.T @ rng.normal(size=m) + S0
        order = [i for i in range(m) if i not in linear_only] + linear_only
        objectives = []
        for rows, psd_rows in ((range(m), [0, 2, 3, 5, 7, 8]), (order, range(6))):
            prog = SdpProgram([d] * k, n_lin)
            prog.set_objective({**{j: c[prog.span[j]].reshape(d, d) for j in range(k)},
                                LINEAR: c[prog.span[LINEAR]]})
            prog.add_constraint({**{j: psd[rows, j] for j in range(k)},
                                 LINEAR: A[rows, prog.span[LINEAR]]}, b[rows])
            sol = solve_sdp(prog.freeze())
            assert sol.status == "optimal"
            objectives.append(sol.objective)
            assert list(prog._compiled.psd_rows) == list(psd_rows)
        assert objectives[1] == pytest.approx(objectives[0], rel=0, abs=1e-9)


class TestLambdaMaxOracle:
    def test_random_symmetric_matrices(self):
        # max <M, X> s.t. tr X = 1, X >= 0  equals lambda_max(M).
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            M = rng.normal(size=(d, d))
            M = 0.5 * (M + M.T)
            prog = SdpProgram([d])
            prog.set_objective({0: -M})
            prog.add_constraint({0: np.eye(d)}, 1.0)
            sol = solve_sdp(prog)
            assert sol.status == "optimal"
            lam = float(np.linalg.eigvalsh(M)[-1])
            assert -sol.objective == pytest.approx(lam, abs=1e-5)


class TestSolutionQuality:
    def _random_feasible_program(self, rng, d=5, m=6):
        # Build constraints satisfied by a known PD matrix so the program
        # is primal feasible; random PD objective keeps it bounded below.
        G = rng.normal(size=(d, d))
        X0 = G @ G.T + 0.5 * np.eye(d)
        prog = SdpProgram([d])
        H = rng.normal(size=(d, d))
        prog.set_objective({0: H @ H.T + 0.1 * np.eye(d)})
        for _ in range(m):
            A = rng.normal(size=(d, d))
            A = 0.5 * (A + A.T)
            prog.add_constraint({0: A}, float(np.tensordot(A, X0)))
        return prog

    def test_residuals_and_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            prog = self._random_feasible_program(rng)
            sol = solve_sdp(prog)
            assert sol.status == "optimal"
            assert sol.max_equality_residual <= 1e-6
            assert sol.block_min_eig() >= -1e-7
            X = sol.blocks[0]
            assert np.abs(X - X.T).max() <= 1e-10
            assert sol.relative_gap <= 1e-5
            # dual objective agrees with primal within the reported gap
            denom = 1.0 + abs(sol.objective) + abs(sol.dual_objective)
            assert abs(sol.objective - sol.dual_objective) / denom <= 2e-5

    def _seed_11_draw(self, n):
        rng = np.random.default_rng(11)
        for _ in range(n):
            prog = self._random_feasible_program(rng)
        return prog

    def test_rank_deficient_optimum_seed_11(self):
        # The 5th draw of seed 11 has a rank-deficient optimum (smallest
        # eigenvalue 1.5e-9).  The engine reaches its inner tolerance there at
        # iteration 22 (mu / scale <= 1e-9), and must return a certified
        # optimum.
        sol = solve_sdp(self._seed_11_draw(5))
        assert sol.status == "optimal"
        assert sol.iterations == 22
        assert sol.max_equality_residual <= 1e-6
        assert sol.block_min_eig() >= -1e-7
        assert sol.relative_gap <= 1e-5

    def test_stalled_best_iterate_ends_the_run(self, monkeypatch):
        # After the best iterate (21) of the 4th draw of seed 11 the iterates
        # drift toward a loss of definiteness (a failed Cholesky at iteration
        # 49 without the early stop).  Once that best iterate meets the
        # contract, the run stops _PATIENCE iterations later instead.  Steps
        # are computed before the stop only.
        prog = self._seed_11_draw(4)
        steps = []
        real = sdp._max_step
        monkeypatch.setattr(sdp, "_max_step", lambda X, dX: steps.append(1) or real(X, dX))
        sol = solve_sdp(prog)
        assert (sol.status, sol.iterations) == ("optimal", 21)
        assert len(steps) == 21 + _PATIENCE - 1

    @pytest.mark.parametrize("max_iter", [30, sdp._MAX_ITER], ids=["limit", "breakdown"])
    def test_other_stops_return_the_recorded_iterate(self, monkeypatch, max_iter):
        # Same program without the early stop: cut off by the iteration
        # limit, or run on to the failed Cholesky at iteration 49, the run
        # returns its best iterate (21), judged against the contract.
        prog = self._seed_11_draw(4)
        monkeypatch.setattr(sdp, "_PATIENCE", 10**9)
        monkeypatch.setattr(sdp, "_MAX_ITER", max_iter)
        sol = solve_sdp(prog)
        assert (sol.status, sol.iterations) == ("optimal", 21)
        assert sol.max_equality_residual <= 1e-6
        assert sol.relative_gap <= 1e-5
        assert sol.block_min_eig() >= -1e-7

    @pytest.mark.parametrize("layout", ["one-block", "three-blocks-and-linear", "gram-block",
                                        "eps-moments", "linear-only-row", "zero-coefficient"])
    def test_reported_residual_matches_recomputation(self, monkeypatch, layout):
        # The engine forms A x from A's nonzeros; on every layout of blocks
        # the residual it reports is that of the program's dense A.
        sylvester = json.loads((INPUTS / "sylvester6.json").read_text())["C"]
        prog = {
            "one-block": lambda: self._random_feasible_program(np.random.default_rng(12)),
            "three-blocks-and-linear": lambda: three_blocks_and_linear()[0],
            "gram-block": lambda: captured(monkeypatch, bounds,
                                           lambda: bounds.gamma2_corr(np.array(sylvester))),
            "eps-moments": lambda: bounds._moment_program(pr_box(), 0.05)[0],
            "linear-only-row": linear_only_row,
            "zero-coefficient": zero_coefficient,
        }[layout]()
        sol = solve_sdp(prog)
        assert sol.status == "optimal"
        x = np.concatenate([B.reshape(-1) for B in sol.blocks] + [sol.linear])
        res = np.abs(prog.A @ x - prog.b).max()
        assert res == pytest.approx(sol.max_equality_residual, abs=1e-9)


def three_blocks_and_linear():
    """Three 3x3 blocks, one (3, 3, 3) stack, and a linear block:
    min sum_j <C_j, X_j> + c.x  s.t.  tr X_j = 1, sum(x) = 2.  Returns the
    program, the C_j and c."""
    rng = np.random.default_rng(7)
    dims, c = [3, 3, 3], np.array([0.7, 0.3, 1.1])
    Cs = [0.5 * (G + G.T) for G in (rng.normal(size=(d, d)) for d in dims)]
    prog = SdpProgram(dims, 3)
    prog.set_objective({**dict(enumerate(Cs)), LINEAR: c})
    for j, d in enumerate(dims):
        prog.add_constraint({j: np.eye(d)}, 1.0)
    prog.add_constraint({LINEAR: np.ones(3)}, 2.0)
    return prog, Cs, c


def linear_only_row():
    """min t + x0 s.t. [[t, 1], [1, t]] >= 0, t - x0 = 0.5 and, touching
    the linear block only, x0 + x1 = 1."""
    prog = SdpProgram([2], 2)
    prog.set_objective({0: 0.5 * np.eye(2), LINEAR: [1.0, 0.0]})
    prog.add_constraint({0: unit(2, 0, 1) + unit(2, 1, 0)}, 2.0)
    prog.add_constraint({0: unit(2, 0, 0) - unit(2, 1, 1)}, 0.0)
    prog.add_constraint({0: unit(2, 0, 0), LINEAR: [-1.0, 0.0]}, 0.5)
    prog.add_constraint({LINEAR: [1.0, 1.0]}, 1.0)
    return prog


def zero_coefficient():
    """Two 2x2 blocks, each constraint with an all-zero coefficient on one
    of them: min tr X_0 + tr X_1 s.t. X_0[0, 1] = 1, X_1[0, 0] = 1."""
    prog, zero = SdpProgram([2, 2]), np.zeros((2, 2))
    prog.set_objective({0: np.eye(2), 1: np.eye(2)})
    prog.add_constraint({0: unit(2, 0, 1) + unit(2, 1, 0), 1: zero}, 2.0)
    prog.add_constraint({0: zero, 1: unit(2, 0, 0)}, 1.0)
    return prog


def captured(monkeypatch, mod, build):
    """The first program that ``build()`` hands to ``mod.solve_sdp``."""
    progs = []
    real = mod.solve_sdp
    monkeypatch.setattr(mod, "solve_sdp", lambda prog: progs.append(prog) or real(prog))
    build()
    return progs[0]


class TestStackedBlocks:
    def test_three_blocks_and_linear_block(self):
        # The program splits into independent parts: lambda_min(C_j) for
        # each block, 2 min(c).
        prog, Cs, c = three_blocks_and_linear()
        lams = [float(np.linalg.eigvalsh(C)[0]) for C in Cs]
        assert np.diff(sorted(lams)).min() > 0.1  # so a swap of any two blocks shows
        sol = solve_sdp(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(sum(lams) + 2 * c.min(), abs=1e-6)
        assert [B.shape for B in sol.blocks] == [(3, 3)] * 3
        assert len(sol.min_eigenvalues) == 3 and sol.block_min_eig() >= -1e-7
        for B, C, lam in zip(sol.blocks, Cs, lams):
            assert np.trace(B) == pytest.approx(1.0, abs=1e-6)
            assert np.sum(C * B) == pytest.approx(lam, abs=1e-6)
        assert np.abs(sol.linear - [0.0, 2.0, 0.0]).max() <= 1e-6


def sym_unit(d, i, j):
    """Symmetric E with <E, G> = G[i, j] for symmetric G."""
    return 0.5 * (unit(d, i, j) + unit(d, j, i))


class TestStackedPrograms:
    """The package's builders add their constraints as stacks; each program
    must equal the one built one ``add_constraint`` call at a time."""

    def assert_same(self, prog, ref):
        assert prog.block_dims == ref.block_dims and prog.n_linear == ref.n_linear
        for name in ("A", "b", "c"):
            assert np.array_equal(getattr(prog, name), getattr(ref, name)), name

    @staticmethod
    def outcome(offset, n_out, x, a):
        """{row: coefficient} of outcome a of input x in the moment matrix,
        whose retained projectors start at row ``offset``: the outcome's own
        row if retained, else row 0 minus its input's retained rows."""
        first = offset + x * (n_out - 1)
        if a < n_out - 1:
            return {first + a: 1.0}
        return {0: 1.0, **{first + k: -1.0 for k in range(n_out - 1)}}

    def cell(self, alph, x, y, a, b):
        """The moment matrix's coefficient of the (a,b|x,y) value, from sym-unit pairs."""
        nx, ny, na, nb = alph.shape
        d = 1 + nx * (na - 1) + ny * (nb - 1)
        u, v = self.outcome(1, na, x, a), self.outcome(1 + nx * (na - 1), nb, y, b)
        return sum(cu * cv * sym_unit(d, i, j) for i, cu in u.items() for j, cv in v.items())

    def moment_reference(self, alph, n_linear=0):
        """The moment program's objective t+ + t- and its projector rows,
        one constraint at a time from sym-unit index pairs: row 0 is the
        identity, then Alice's retained projectors input by input, then
        Bob's; each row k > 0 has X_kk = X_0k, and the rows of one input
        are orthogonal."""
        nx, ny, na, nb = alph.shape
        d = 1 + nx * (na - 1) + ny * (nb - 1)
        inputs = [range(1 + x * (na - 1), 1 + (x + 1) * (na - 1)) for x in range(nx)]
        inputs += [range(inputs[-1].stop + y * (nb - 1), inputs[-1].stop + (y + 1) * (nb - 1))
                   for y in range(ny)]
        ref = SdpProgram([d, d], n_linear)
        ref.set_objective({0: sym_unit(d, 0, 0), 1: sym_unit(d, 0, 0)})
        for block in (0, 1):
            for k in range(1, d):
                ref.add_constraint({block: sym_unit(d, k, k) - sym_unit(d, 0, k)}, 0.0)
            for rows in inputs:
                for i, j in itertools.combinations(rows, 2):
                    ref.add_constraint({block: sym_unit(d, i, j)}, 0.0)
        return ref

    @staticmethod
    def points():
        # The PR box, and a point with three outcomes, whose inputs have
        # two retained projectors each (orthogonality rows).
        return [pr_box(), random_nonlocal(np.random.default_rng(3), Alphabets(2, 2, 3, 3))]

    def test_gamma2_tilde_1(self, monkeypatch):
        for p in self.points():
            prog = captured(monkeypatch, bounds, lambda: bounds.gamma2_tilde_1(p))
            alph = p.alphabets
            nx, ny, na, nb = alph.shape
            ref = self.moment_reference(alph)
            d = ref.block_dims[0]
            data = [self.cell(alph, x, y, a, b) for x, y, a, b in
                    itertools.product(range(nx), range(ny), range(na - 1), range(nb - 1))]
            data += [sym_unit(d, 0, k) for k in range(1, d)]  # the retained marginals
            data.append(sym_unit(d, 0, 0))  # normalization
            for M, rhs in zip(data, bounds._data_map(alph).data_rhs(p.table), strict=True):
                ref.add_constraint({0: M, 1: -M}, rhs)
            self.assert_same(prog, ref)

    def test_gamma2_tilde_1_eps(self, monkeypatch):
        eps = 0.1
        for p in self.points():
            prog = captured(monkeypatch, bounds, lambda: bounds.gamma2_tilde_1_eps(p, eps))
            alph = p.alphabets
            nx, ny, na, nb = alph.shape
            n, n_in, per_input = alph.n_cells, nx * ny, na * nb
            e = np.eye(3 * n + n_in)  # linear block: p', u, v, budget slacks
            ref = self.moment_reference(alph, len(e))
            d = ref.block_dims[0]
            ref.add_constraint({0: sym_unit(d, 0, 0), 1: -sym_unit(d, 0, 0)}, 1.0)
            for k, (x, y, a, b) in enumerate(np.ndindex(alph.shape)):
                A = self.cell(alph, x, y, a, b)
                ref.add_constraint({0: A, 1: -A, LINEAR: -e[k]}, 0.0)
            for k, pv in enumerate(p.flat()):
                ref.add_constraint({LINEAR: e[k] - e[n + k] + e[2 * n + k]}, pv)
            for i in range(n_in):
                uv = (e[n:2 * n] + e[2 * n:3 * n])[i * per_input:(i + 1) * per_input].sum(axis=0)
                ref.add_constraint({LINEAR: uv + e[3 * n + i]}, 2.0 * eps)
            self.assert_same(prog, ref)

    def test_gamma2_corr(self, monkeypatch):
        C = np.array(json.loads((INPUTS / "sylvester6.json").read_text())["C"], dtype=float)
        prog = captured(monkeypatch, bounds, lambda: bounds.gamma2_corr(C))
        nx, ny = C.shape
        n = nx + ny
        ref = SdpProgram([n])
        ref.set_objective({0: sym_unit(n, 0, 0)})
        for k in range(1, n):
            ref.add_constraint({0: sym_unit(n, k, k) - sym_unit(n, 0, 0)}, 0.0)
        for i in range(nx):
            for j in range(ny):
                ref.add_constraint({0: sym_unit(n, i, nx + j)}, C[i, j])
        self.assert_same(prog, ref)

    def test_quantum_bias(self, monkeypatch):
        game = games.chsh_game()
        prog = captured(monkeypatch, games, lambda: games.quantum_bias(game))
        W = np.zeros((4, 4))
        W[:2, 2:] = game.mu * game.G
        ref = SdpProgram([4])
        ref.set_objective({0: -0.5 * (W + W.T)})
        for k in range(4):
            ref.add_constraint({0: unit(4, k, k)}, 1.0)
        self.assert_same(prog, ref)

    def test_single_constraint_is_a_stack_of_one(self):
        one, stack = SdpProgram([2], 1), SdpProgram([2], 1)
        M = np.array([[1.0, 2.0], [0.0, 3.0]])
        one.add_constraint({0: M, LINEAR: [4.0]}, 5.0)
        stack.add_constraint({0: M[None], LINEAR: [[4.0]]}, [5.0])
        assert np.array_equal(one.A, stack.A) and np.array_equal(one.b, stack.b)
        assert one.A.shape == (1, 5)
        # Coefficients are symmetrized on entry.
        assert np.array_equal(one.A[0, :4], [1.0, 1.0, 1.0, 3.0])


class TestIterationCounts:
    """Iteration counts of four package solves.  They are deterministic, the
    same under one or two BLAS threads, and move only if the iterates do."""

    def test_gamma2_tilde_1_pr_box(self):
        assert bounds.gamma2_tilde_1(pr_box()).diagnostics["iterations"] == 16

    def test_gamma2_tilde_1_eps_pr_box(self):
        assert bounds.gamma2_tilde_1_eps(pr_box(), 0.1).diagnostics["iterations"] == 17

    def test_gamma2_corr_sylvester6(self):
        C = np.array(json.loads((INPUTS / "sylvester6.json").read_text())["C"], dtype=float)
        assert bounds.gamma2_corr(C).diagnostics["iterations"] == 13

    def test_quantum_bias_chsh(self):
        assert games.quantum_bias(games.chsh_game())["diagnostics"]["iterations"] == 12


def solutions(monkeypatch, mod):
    """The list that each solve through ``mod.solve_sdp`` appends its solution to."""
    sols = []
    real = mod.solve_sdp
    monkeypatch.setattr(mod, "solve_sdp", lambda prog: sols.append(real(prog)) or sols[-1])
    return sols


class TestSharedStructures:
    """Each SDP the package builds is a frozen structure on a data map,
    shared by every call on its alphabet; a call supplies only its data."""

    STRUCTURES = ["moment_sdp", "moment_eps_sdp", "corr_sdp", "bias_sdp"]

    @staticmethod
    def form(name):
        """The module whose solve_sdp a form calls, the call, and two points."""
        rng = np.random.default_rng(41)
        if name in ("moments", "moments-eps"):
            call = (bounds.gamma2_tilde_1 if name == "moments"
                    else lambda p: bounds.gamma2_tilde_1_eps(p, 0.05))
            return bounds, call, [random_nonlocal(rng, Alphabets(2, 2, 3, 3)) for _ in range(2)]
        if name == "gram":
            return bounds, bounds.gamma2_corr, [rng.uniform(-1.0, 1.0, (3, 4)) for _ in range(2)]
        return games, games.quantum_bias, [
            games.XorGame(np.where(rng.normal(size=(3, 4)) < 0, -1.0, 1.0),
                          rng.dirichlet(np.ones(12)).reshape(3, 4)) for _ in range(2)]

    @pytest.mark.parametrize("name", ["moments", "moments-eps", "gram", "game"])
    def test_calls_do_not_leak(self, monkeypatch, name):
        # Each point solved on a cleared cache, then both on one cache in
        # either order: the solves agree to the bit.
        mod, call, points = self.form(name)
        sols = solutions(monkeypatch, mod)
        cold = []
        for x in points:
            bounds._data_map.cache_clear()
            call(x)
            cold.append(sols.pop())
        assert cold[0].objective != cold[1].objective
        for order in ([0, 1], [1, 0]):
            bounds._data_map.cache_clear()
            for i in order:
                call(points[i])
            for i, sol in zip(order, sols):
                ref = cold[i]
                assert (sol.status, sol.iterations, sol.objective) == \
                    (ref.status, ref.iterations, ref.objective)
                for got, want in [(sol.dual, ref.dual), (sol.linear, ref.linear),
                                  *zip(sol.blocks, ref.blocks)]:
                    assert np.array_equal(got, want)
            sols.clear()

    @pytest.mark.parametrize("name", STRUCTURES)
    def test_structures_refuse_changes(self, name):
        # A structure and each call's copy of it take no constraint or
        # objective and refuse writes to their arrays; the copy has its own
        # right-hand side and shares the rest: the compiled constraints,
        # which alone hold A once it is frozen, and hold no (m, N) array.
        prog = getattr(bounds._data_map(Alphabets(2, 2, 2, 2)), name)
        b = prog.b.copy()
        call = prog.with_data(np.ones(2), {0: np.eye(prog.block_dims[0])})
        assert call._compiled is prog._compiled
        dense = (prog.n_constraints, len(prog.c))
        for p in (prog, call):
            held = [*vars(p).values(), *vars(p._compiled).values()]
            assert not any(np.shape(arr) == dense for arr in held if isinstance(arr, np.ndarray))
        assert np.array_equal(call.A, prog.A)
        assert np.array_equal(call.b, np.concatenate([b[:-2], np.ones(2)]))
        assert np.array_equal(prog.b, b)
        eye = np.eye(prog.block_dims[0])
        for p in (prog, call):
            with pytest.raises(ValueError, match="frozen"):
                p.add_constraint({0: eye}, 1.0)
            with pytest.raises(ValueError, match="frozen"):
                p.set_objective({0: eye})
            for arr in (p.A, p.b, p.c):
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0
        assert prog.n_constraints == len(b)

    def test_bad_data_refused(self):
        # The CHSH game's structure has four constraints, X_kk = 1.
        prog = bounds._data_map(Alphabets(2, 2, 2, 2)).bias_sdp
        for rhs in ([np.nan], [[1.0]], np.ones(5)):
            with pytest.raises(ValueError, match="at most 4 finite right-hand sides"):
                prog.with_data(rhs)
        with pytest.raises(ValueError, match="only a frozen program"):
            SdpProgram([2]).with_data()


class TestNonzeroStorage:
    """A program keeps its constraints as A's nonzeros from its first
    ``add_constraint``; the engine's bincounts add in their order, which is
    ``np.nonzero``'s order of the dense A."""

    @staticmethod
    def assert_nonzero_order(prog, A):
        comp = prog._compiled if prog._compiled is not None else sdp._Compiled(prog)
        rows, cols = np.nonzero(A)
        assert np.array_equal(comp.rows, rows) and np.array_equal(comp.cols, cols)
        assert np.array_equal(comp.vals, A[rows, cols])

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 3, 3), (3, 2, 2, 3)])
    @pytest.mark.parametrize("name", TestSharedStructures.STRUCTURES)
    def test_structures_compile_in_nonzero_order(self, name, shape):
        # The dense A of a frozen structure is scattered from its nonzeros,
        # whatever their order, so np.nonzero reads the order they must have.
        prog = getattr(bounds._data_map(Alphabets(*shape)), name)
        self.assert_nonzero_order(prog, prog.A)

    def test_seed_11_programs_compile_in_nonzero_order(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            prog = TestSolutionQuality()._random_feasible_program(rng)
            self.assert_nonzero_order(prog, prog.A)

    def test_stack_in_any_block_order(self):
        # A seeded stack over two PSD blocks and the linear block, about half
        # of it zero, with one row zero in block 0 and one zero everywhere,
        # given LINEAR first and after one other row: its rows are the dense
        # rows laid out here, and its nonzeros come in their row-major order.
        rng = np.random.default_rng(43)
        d, n_lin, m = 3, 4, 6

        def sparse(*shape):
            return np.where(rng.random(shape) < 0.5, rng.normal(size=shape), 0.0)

        blocks, lin = [sparse(m, d, d), sparse(m, d, d)], sparse(m, n_lin)
        blocks[0][2] = 0.0
        for arr in (*blocks, lin):
            arr[5] = 0.0
        prog = SdpProgram([d, d], n_lin)
        prog.add_constraint({0: np.eye(d)}, 1.0)
        prog.add_constraint({LINEAR: lin, 1: blocks[1], 0: blocks[0]}, np.ones(m))
        sym = [0.5 * (B + B.swapaxes(1, 2)) for B in blocks]
        A = np.vstack([np.concatenate([np.eye(d).reshape(-1), np.zeros(d * d + n_lin)]),
                       np.hstack([sym[0].reshape(m, -1), sym[1].reshape(m, -1), lin])])
        assert np.array_equal(prog.A, A)
        self.assert_nonzero_order(prog, A)
        self.assert_nonzero_order(prog.freeze(), A)

    @pytest.mark.parametrize("shape", [(3, 3, 3, 3), (4, 4, 4, 4), (12, 12, 2, 2)],
                             ids=["3x3x3x3", "4x4x4x4", "12x12x2x2"])
    def test_build_holds_at_most_twice_what_it_keeps(self, shape):
        # Built on a cold map, the eps structure (with the moment cells it
        # reads) peaks at most twice what the map then holds: measured 1.13x,
        # 1.06x and 1.35x (0.89, 8.7 and 20.4 MiB).  Growing a dense A and an
        # identity over the linear block, the build peaked at 3.3x, 3.3x and
        # 6.3x.
        bounds._data_map.cache_clear()
        tracemalloc.start()
        try:
            bounds._data_map(Alphabets(*shape)).moment_eps_sdp
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            bounds._data_map.cache_clear()
        assert peak <= 2 * kept


class TestSolveBuffers:
    def test_solve_holds_two_schur_buffers(self):
        # The PSD blocks' two products sit in the buffers of the Schur
        # complement and its symmetrized copy, so a warm 3x3x3x3 eps solve
        # (m = 208) holds at most three m x m arrays of numpy memory: 2.5
        # measured, 4.4 when the products had buffers of their own.
        p = random_nonlocal(np.random.default_rng(5), Alphabets(3, 3, 3, 3))
        prog = bounds._moment_program(p, 0.05)[0]
        tracemalloc.start()
        try:
            sol = solve_sdp(prog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == "optimal"
        assert peak <= 3 * 8 * prog.n_constraints ** 2


class TestValidationAndLimits:
    def test_dim_cap(self):
        # The cap bounds the bytes a solve may hold, counted from the block
        # size, the block count and the linear length alone (the 3x3x3x3 eps
        # program: 12 MiB; a 65 x 65 Gram block: 486 MiB), and refuses a
        # program when it is made, before its arrays are built.
        assert sdp._solve_bytes(2, 13, 252) // 2**20 == 12
        assert SdpProgram([65]).n_constraints == 0
        for dims in ([66], [47, 47], [150, 150]):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match=r"MiB to solve \(cap 512 MiB\)"):
                    SdpProgram(dims)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6

    @pytest.mark.parametrize("call", [bounds.gamma2_tilde_1,
                                      lambda p: bounds.gamma2_tilde_1_eps(p, 0.1),
                                      lambda p: bounds.dual_bell(p, "npa-level-1")],
                             ids=["gamma2", "gamma2-eps", "bell-npa"])
    def test_moment_programs_refused_before_their_arrays(self, call):
        # On 99x1x2x2 the moment blocks are 101 x 101, and a solve could
        # need 11 GiB (over 512 MiB).  The cells alone would be
        # nx*ny*na*nb*d^2 floats (32 MB here, 12 GB at 99x99x2x2), so the
        # cap must refuse before they are built, also on the second call,
        # when the alphabet's data map is cached; and the map keeps neither
        # a moment structure nor the cells.
        p = load_distribution(INPUTS / "over_sdp_cap.json")
        for _ in range(2):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match=r"\(cap 512 MiB\)"):
                    call(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6
        cached = set(vars(bounds._data_map(p.alphabets)))
        assert not cached & {"moment_sdp", "moment_eps_sdp", "moment_cells"}

    @pytest.mark.parametrize("dims, n_linear", [([2, 3], 0), ([3, 2, 3], 3), ([], 4),
                                                ([2.7], 0), ([2], 1.5), ([True], 0),
                                                ([2], True), ([2.0, 2.0], 0)])
    def test_one_block_size_required(self, dims, n_linear):
        # The engine solves k >= 1 PSD blocks of one integer size, nothing
        # else: a float or a bool is refused, not truncated, and named.
        with pytest.raises(ValueError, match="PSD blocks of one positive size") as err:
            SdpProgram(dims, n_linear)
        assert f"got {dims} and {n_linear!r}" in str(err.value)

    def test_numpy_integer_sizes_accepted(self):
        prog = SdpProgram([np.int64(2), np.int32(2)], np.int8(3))
        assert prog.block_dims == [2, 2] and prog.n_linear == 3
        assert all(type(v) is int for v in [*prog.block_dims, prog.n_linear])
        prog.add_constraint({np.int64(1): np.eye(2), LINEAR: np.ones(3)}, 1.0)
        assert prog.A.shape == (1, 11)

    def test_bad_block_shape(self):
        prog = SdpProgram([2])
        with pytest.raises(ValueError):
            prog.add_constraint({0: np.eye(3)}, 1.0)

    @pytest.mark.parametrize("key, dims", [
        pytest.param(-1, [2], id="-1"), pytest.param(1, [2], id="1"),
        pytest.param("x", [2], id="x"), pytest.param(True, [2, 2], id="True"),
        pytest.param(0.0, [2], id="0.0"), pytest.param(np.True_, [2, 2], id="numpy-True"),
        pytest.param(np.float64(1.0), [2, 2], id="numpy-1.0")])
    def test_unknown_block_rejected(self, key, dims):
        # A block key is an index or LINEAR: a bool or a float names no
        # block, though it equals an index of the program (True == 1).
        prog = SdpProgram(dims)
        with pytest.raises(ValueError, match=f"no block {re.escape(repr(key))} "):
            prog.add_constraint({key: np.eye(2)}, 1.0)
        with pytest.raises(ValueError, match="no block"):
            prog.set_objective({key: np.eye(2)})
        assert prog.n_constraints == 0 and not prog.c.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        prog = SdpProgram([2], 1)
        with pytest.raises(ValueError):
            prog.add_constraint({0: [[1.0, bad], [bad, 1.0]]}, 1.0)
        with pytest.raises(ValueError):
            prog.add_constraint({LINEAR: [bad]}, 1.0)
        with pytest.raises(ValueError):
            prog.set_objective({0: [[bad, 0.0], [0.0, 1.0]]})

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        prog = SdpProgram([2])
        with pytest.raises(ValueError):
            prog.add_constraint({0: np.eye(2)}, bad)
        with pytest.raises(ValueError):
            prog.add_constraint({0: np.stack([np.eye(2)] * 2)}, [1.0, bad])
        assert prog.n_constraints == 0

    def test_leading_axis_must_match_rhs(self):
        prog = SdpProgram([2], 1)
        with pytest.raises(ValueError):
            prog.add_constraint({0: np.stack([np.eye(2)] * 3)}, [1.0, 2.0])
        with pytest.raises(ValueError):  # a stack with a scalar right-hand side
            prog.add_constraint({0: np.stack([np.eye(2)] * 2)}, 1.0)
        with pytest.raises(ValueError):  # one block stacked, the other not
            prog.add_constraint({0: np.stack([np.eye(2)] * 2), LINEAR: [1.0]}, [1.0, 2.0])
        assert prog.n_constraints == 0

    def test_empty_constraint_rejected(self):
        prog = SdpProgram([2])
        with pytest.raises(ValueError):
            prog.add_constraint({}, 0.0)

    def test_infeasible_detected(self):
        # tr X = -1 with X >= 0 is infeasible.
        prog = SdpProgram([2])
        prog.set_objective({0: np.eye(2)})
        prog.add_constraint({0: np.eye(2)}, -1.0)
        sol = solve_sdp(prog)
        assert sol.status in ("infeasible", "max-iterations")
        assert sol.status != "optimal"


class TestNumericalBreakdown:
    # A LinAlgError from either the step lengths or the Schur solve ends
    # the run; no second solver takes over.
    @pytest.mark.parametrize("target", ["nonsig.sdp._max_step", "numpy.linalg.solve"],
                             ids=["step", "schur-solve"])
    def test_breakdown_is_a_status(self, monkeypatch, target):
        def broken(*args):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(target, broken)
        prog = SdpProgram([2])
        prog.set_objective({0: -(unit(2, 0, 1) + unit(2, 1, 0))})
        prog.add_constraint({0: unit(2, 0, 0)}, 1.0)
        prog.add_constraint({0: unit(2, 1, 1)}, 1.0)
        sol = solve_sdp(prog)
        assert sol.status == "numerical-error"
        assert sol.iterations == 1
        # The only iterate seen is the positive definite starting point.
        assert sol.block_min_eig() > 0
