"""Tests for the dense simplex LP engine."""

import itertools
import tracemalloc

import numpy as np
import pytest

from nonsig import bounds
from nonsig.bounds import nu_corr, nu_tilde, nu_tilde_eps
from nonsig.core import Alphabets, best_local_response, pr_box
from nonsig import lp
from nonsig.lp import FactoredMatrix, LinearProgram, LpSolution, _Simplex, solve_lp
from helpers import local_twin, nonsignaling_equalities, random_nonlocal


def brute_force_minimum(prog):
    """Enumerate basic feasible points of a small box+inequality program.

    Every vertex of {A_eq v = b_eq, A_ub v <= b_ub, lb <= v <= ub} makes
    n linearly independent constraints tight; we try all combinations.
    Only valid for finite boxes and a handful of variables.
    """
    n = prog.n_vars
    rows = []
    rhs = []
    if prog.A_eq is not None:
        for r, t in zip(prog.A_eq, prog.b_eq):
            rows.append((r, t, True))
    if prog.A_ub is not None:
        for r, t in zip(prog.A_ub, prog.b_ub):
            rows.append((r, t, False))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, prog.lb[i], False))
        rows.append((e, prog.ub[i], False))
    best = np.inf
    n_eq = prog.n_eq
    for combo in itertools.combinations(range(len(rows)), n):
        if any(k < n_eq for k in range(n_eq)) and not set(range(n_eq)) <= set(combo):
            continue  # equalities are always tight
        A = np.array([rows[k][0] for k in combo])
        b = np.array([rows[k][1] for k in combo])
        if np.linalg.matrix_rank(A) < n:
            continue
        v = np.linalg.lstsq(A, b, rcond=None)[0]
        if np.max(np.abs(A @ v - b)) > 1e-8:
            continue
        ok = np.all(v >= prog.lb - 1e-8) and np.all(v <= prog.ub + 1e-8)
        if ok and prog.A_ub is not None:
            ok = np.all(prog.A_ub @ v <= prog.b_ub + 1e-8)
        if ok and prog.A_eq is not None:
            ok = np.max(np.abs(prog.A_eq @ v - prog.b_eq)) <= 1e-8
        if ok:
            best = min(best, float(prog.c @ v))
    return best


def check_optimal(prog, sol, tol=1e-7):
    """Feasibility and strong-duality certificate for an optimal solve."""
    assert sol.status == "optimal"
    assert np.all(sol.x >= prog.lb - 1e-8)
    assert np.all(sol.x <= prog.ub + 1e-8)
    if prog.A_eq is not None:
        assert np.max(np.abs(prog.A_eq @ sol.x - prog.b_eq)) <= 1e-7
    if prog.A_ub is not None:
        assert np.max(prog.A_ub @ sol.x - prog.b_ub) <= 1e-7
    assert sol.duality_gap <= tol * (1.0 + abs(sol.objective))


class TestBasics:
    def test_lower_bound_only(self):
        # min x s.t. x >= 3
        sol = solve_lp(LinearProgram(c=[1.0], lb=[3.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0)
        assert sol.x[0] == pytest.approx(3.0)

    def test_simple_equality(self):
        # min x + y s.t. x + y = 1, x, y >= 0
        sol = solve_lp(LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        check_optimal(LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]), sol)

    def test_infeasible_box(self):
        # x >= 1 and x <= 0 via an inequality row
        sol = solve_lp(LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[0.0], lb=[1.0]))
        assert sol.status == "infeasible"

    def test_unbounded(self):
        sol = solve_lp(LinearProgram(c=[-1.0, 0.0], A_eq=[[0.0, 1.0]], b_eq=[1.0]))
        assert sol.status == "unbounded"
        # With no rows at all, the bounds alone decide it.
        assert solve_lp(LinearProgram(c=[1.0, -1.0])).status == "unbounded"

    def test_upper_bounds_respected(self):
        # min -x - 2y, x + y <= 3, x <= 1, y <= 5
        prog = LinearProgram(c=[-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[3.0],
                             ub=[1.0, 5.0])
        sol = solve_lp(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-6.0)
        assert sol.x == pytest.approx([0.0, 3.0])

    def test_redundant_equality_rows(self):
        # duplicate rows must not break phase 1
        prog = LinearProgram(c=[1.0, 2.0],
                             A_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
                             b_eq=[1.0, 1.0, 2.0])
        sol = solve_lp(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_mixed_eq_and_ub(self):
        # min x1, x1 + x2 + x3 = 2, x2 - x3 <= 0, all in [0, 1]
        prog = LinearProgram(c=[1.0, 0.0, 0.0],
                             A_eq=[[1.0, 1.0, 1.0]], b_eq=[2.0],
                             A_ub=[[0.0, 1.0, -1.0]], b_ub=[0.0],
                             ub=[1.0, 1.0, 1.0])
        sol = solve_lp(prog)
        check_optimal(prog, sol)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0, 1.0], A_eq=[[1.0]], b_eq=[1.0])
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], A_eq=[[1.0]], b_eq=None)
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], lb=[-np.inf])
        with pytest.raises(ValueError, match="^b_ub length 2 != 1 rows$"):
            LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[1.0, 2.0])

    @pytest.mark.parametrize("kwargs", [
        {"A_eq": [[1.0]], "b_eq": [np.nan]},
        {"A_eq": [[1.0]], "b_eq": [np.inf]},
        {"A_ub": [[1.0]], "b_ub": [np.nan]},
        {"A_ub": [[1.0]], "b_ub": [-np.inf]},
        {"ub": [np.nan]},
        {"c": [np.nan]},
    ], ids=["b_eq-nan", "b_eq-inf", "b_ub-nan", "b_ub-inf", "ub-nan", "c-nan"])
    def test_non_finite_input_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinearProgram(**{"c": [1.0], **kwargs})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["A_eq", "b_eq", "A_ub", "b_ub"])
    def test_non_finite_data_named(self, name, bad):
        # Each array's last entry alone is bad; a NaN between finite
        # entries still reaches the min and max that check it.
        data = {"A_eq": np.ones((2, 3)), "b_eq": np.ones(2),
                "A_ub": np.ones((1, 3)), "b_ub": np.ones(1)}
        data[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            LinearProgram(c=np.ones(3), **data)

    def test_empty_data_accepted(self):
        prog = LinearProgram(c=np.ones(3), A_eq=np.zeros((0, 3)), b_eq=np.zeros(0),
                             A_ub=np.zeros((0, 3)), b_ub=np.zeros(0))
        assert prog.n_eq == 0 and prog.A_ub.shape == (0, 3)

    def test_finiteness_check_takes_no_matrix_sized_temporary(self):
        # A read-only 1,000 x 4,000 A_eq is kept as given; np.isfinite over
        # it would hold one byte per entry (3.8 MiB).  What is left is the
        # bounds' copies, 2 x 31 KiB.
        A = np.ones((1000, 4000))
        A.flags.writeable = False
        c, b = np.ones(4000), np.ones(1000)
        tracemalloc.start()
        try:
            prog = LinearProgram(c=c, A_eq=A, b_eq=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prog.A_eq is A and peak < 0.1 * 2 ** 20

    def test_sloppy_optimum_is_not_optimal(self, monkeypatch):
        # x = (0, 1.5) is optimal, but 0.2 * 1.5 rounds to 0.30000000000000004.
        # That residual, 5.6e-17, is within the feasibility tolerance; with
        # no tolerance the optimum is refused as sloppy.
        prog = LinearProgram(c=[1.0, 1.0], A_eq=[[0.1, 0.2]], b_eq=[0.3])
        sol = solve_lp(prog)
        assert (sol.status, sol.objective) == ("optimal", 1.5)
        monkeypatch.setattr(lp, "_FEAS_TOL", 0.0)
        sloppy = solve_lp(prog)
        assert sloppy.status == "iteration-limit"
        np.testing.assert_equal(sloppy.x, sol.x)

    @pytest.mark.parametrize("rows", [
        {"A_eq": [[1.0, 1.0]], "b_eq": [3.0]},
        {"A_ub": [[-1.0, -1.0]], "b_ub": [-3.0]},
    ], ids=["A_eq", "A_ub"])
    def test_fixed_nonzero_variable(self, rows):
        # y is fixed at 1 (lb == ub != 0); its bound term belongs in the
        # dual objective, or the gap check refuses the optimum x = 2.
        prog = LinearProgram(c=[1.0, 0.0], lb=[0.0, 1.0], ub=[np.inf, 1.0], **rows)
        sol = solve_lp(prog)
        assert sol.status == "optimal"
        assert sol.duality_gap <= 1e-12
        assert sol.objective == pytest.approx(2.0, abs=1e-12)
        assert sol.x == pytest.approx([2.0, 1.0], abs=1e-12)


def _packing_program(rng, m=24, n=80):
    """0/1 packing rows through a sparse 0/1 point, in unit boxes: highly
    degenerate, with runs of degenerate pivots long enough for the Bland
    fallback."""
    A_ub = (rng.uniform(size=(m, n)) < 0.3).astype(float)
    x0 = (rng.uniform(size=n) < 0.1).astype(float)
    return LinearProgram(c=rng.integers(-5, 6, size=n).astype(float),
                         A_ub=A_ub, b_ub=A_ub @ x0, ub=np.ones(n))


class _LoopSimplex(_Simplex):
    """The engine's pricing and ratio test written as loops over columns and
    rows, with every reduced cost and edge weight recomputed from B^-1 at
    each pivot: the reference that the engine's updated weights must match.
    ``bland_priced`` counts the iterations priced by the Bland fallback."""

    bland_priced = 0

    def iterate(self, c, max_iter):
        degenerate = 0
        for it in range(max_iter):
            if it % 64 == 63:
                self.refactor()
            y = c[self.basis] @ self.Binv
            bland = degenerate >= lp._BLAND_AFTER
            eligible = []  # (column, direction of its move off its bound, d_j^2 / gamma_j)
            for j in range(self.n):
                if self.in_basis[j] or self.lo[j] == self.up[j]:
                    continue
                d_j = c[j] - y @ self.A[:, j]
                if not self.at_upper[j] and d_j < -lp._DUAL_TOL:
                    move = 1.0
                elif self.at_upper[j] and d_j > lp._DUAL_TOL:
                    move = -1.0
                else:
                    continue
                edge = self.Binv @ self.A[:, j]
                eligible.append((j, move, d_j * d_j / (1.0 + edge @ edge)))
            if not eligible:
                return "optimal"
            if bland:
                entering, direction, _ = eligible[0]
            else:
                # Steepest edge: the first column within a relative
                # _TIE_REL of the largest d_j^2 / gamma_j.
                best = max(r for _, _, r in eligible)
                entering, direction, _ = next(e for e in eligible
                                              if e[2] >= best - lp._TIE_REL * best)
            self.bland_priced += bland
            w = self.Binv @ self.A[:, entering]
            t_flip = self.up[entering] - self.lo[entering]
            blocking = []  # (leaving variable, row, step, leaves at upper bound)
            for i in range(self.m):
                bi, dw = self.basis[i], direction * w[i]
                if dw > lp._PIVOT_TOL:
                    blocking.append((bi, i, max((self.xB[i] - self.lo[bi]) / dw, 0.0), False))
                elif dw < -lp._PIVOT_TOL and np.isfinite(self.up[bi]):
                    blocking.append((bi, i, max((self.up[bi] - self.xB[i]) / -dw, 0.0), True))
            t_row = min([t for _, _, t, _ in blocking], default=np.inf)
            if not np.isfinite(min(t_row, t_flip)):
                return "unbounded"
            self.iterations += 1
            if t_flip < t_row - lp._PIVOT_TOL:
                self.at_upper[entering] = not self.at_upper[entering]
                self.xB -= t_flip * direction * w
                degenerate = 0
                continue
            degenerate = degenerate + 1 if t_row <= lp._PIVOT_TOL else 0
            ties = [b for b in blocking if b[2] <= t_row + lp._PIVOT_TOL]
            if not bland:
                # The largest |w_i| (within a relative _TIE_REL) among the ties.
                size = max(abs(w[i]) for _, i, _, _ in ties)
                ties = [b for b in ties if abs(w[b[1]]) >= size * (1.0 - lp._TIE_REL)]
            old, pos, _, to_upper = min(ties)
            self.xB -= t_row * direction * w
            enter_val = (self.up[entering] if self.at_upper[entering] else self.lo[entering]) \
                + direction * t_row
            self.at_upper[old] = to_upper
            self.pivot(pos, entering, w)
            self.xB[pos] = enter_val
        return "iteration-limit"


def _reference_programs():
    """Random programs with equality, inequality and boxed columns (every
    third one infeasible), then four degenerate packing programs."""
    rng = np.random.default_rng(3)
    programs = []
    for k in range(24):
        n = int(rng.integers(3, 40))
        m_eq, m_ub = int(rng.integers(0, 5)), int(rng.integers(1, 10))
        x0 = rng.uniform(0.1, 0.9, size=n)
        A_eq, A_ub = rng.normal(size=(m_eq, n)), np.abs(rng.normal(size=(m_ub, n)))
        programs.append(LinearProgram(
            c=rng.normal(size=n),
            A_eq=A_eq if m_eq else None, b_eq=A_eq @ x0 if m_eq else None,
            A_ub=A_ub, b_ub=A_ub @ x0 * (1.2 if k % 3 else -1.0),
            ub=np.where(rng.uniform(size=n) < 0.5, 1.0, np.inf)))
    return programs + [_packing_program(rng) for _ in range(4)]


def _outputs(sol):
    return (sol.status, sol.iterations, sol.x, sol.dual_eq, sol.dual_ub,
            sol.objective, sol.duality_gap, sol.basis)


class TestLoopReference:
    def test_same_pivots_and_bits(self, monkeypatch):
        # Steepest edge takes no 50 degenerate pivots in a row on the
        # reference programs; on this taller packing program it does, and
        # the Bland fallback engages.
        programs = _reference_programs() + [
            _packing_program(np.random.default_rng([5, 50, 100, 14]), m=50, n=100)]
        fast = [_outputs(solve_lp(prog)) for prog in programs]
        eps_fast = nu_tilde_eps(pr_box(), 0.1)
        engines = []

        def loop_simplex(*args):
            engines.append(_LoopSimplex(*args))
            return engines[-1]

        monkeypatch.setattr(lp, "_Simplex", loop_simplex)
        for prog, out in zip(programs, fast):
            np.testing.assert_equal(out, _outputs(solve_lp(prog)))
        eps_ref = nu_tilde_eps(pr_box(), 0.1)
        assert eps_fast.value == eps_ref.value
        assert eps_fast.diagnostics["iterations"] == eps_ref.diagnostics["iterations"]
        assert any(sx.bland_priced for sx in engines)


def _redundant_row_programs():
    """The non-signaling polytope of three shapes under ten seeded random
    objectives each: equality rows with redundancies, in unit boxes."""
    for shape in [(2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2)]:
        alph = Alphabets(*shape)
        A, b = nonsignaling_equalities(alph)
        for k in range(10):
            c = np.random.default_rng([*shape, k]).normal(size=alph.n_cells)
            yield LinearProgram(c=c, A_eq=A, b_eq=b, ub=np.ones(alph.n_cells))


class TestEngineContract:
    """Only ``_Simplex.iterate`` changes a basis; phase 2 leaves the
    artificials still basic after phase 1 in place, fixed at zero."""

    def test_pivots_only_inside_iterate(self, monkeypatch):
        iterate, pivot = _Simplex.iterate, _Simplex.pivot
        running, pivots = [False], []  # pivots: whether each ran inside iterate

        def watched_iterate(self, *args):
            running[0] = True
            try:
                return iterate(self, *args)
            finally:
                running[0] = False

        def watched_pivot(self, *args):
            pivots.append(running[0])
            pivot(self, *args)

        monkeypatch.setattr(_Simplex, "iterate", watched_iterate)
        monkeypatch.setattr(_Simplex, "pivot", watched_pivot)
        for prog in [*_reference_programs(), *_redundant_row_programs()]:
            solve_lp(prog)
        nu_tilde_eps(pr_box(), 0.1)
        assert pivots and all(pivots)

    def test_redundant_row_panel(self, monkeypatch):
        # On a redundant row an artificial stays basic for good; others
        # still basic after phase 1 leave during phase 2.
        phase_two, ends = lp._phase_two, []

        def watched(prog, sx, A, *args):
            basic_art = lambda: int(np.count_nonzero(sx.basis >= A.shape[1]))
            entered = basic_art()
            sol = phase_two(prog, sx, A, *args)
            ends.append((entered, basic_art()))
            return sol

        monkeypatch.setattr(lp, "_phase_two", watched)
        for prog in _redundant_row_programs():
            sol = solve_lp(prog)
            check_optimal(prog, sol)
            assert (sol.basis is None) == (ends[-1][1] > 0)
        assert len(ends) == 30 and all(entered for entered, _ in ends)
        assert any(left < entered for entered, left in ends)


class TestStartBasis:
    """``solve_lp(prog, start_basis=...)``: phase 2 from a feasible basis,
    the usual two phases from any other."""

    def test_optimal_basis_restarts(self, monkeypatch):
        """An optimal basis restarts its program in 0 pivots when no
        nonbasic variable sits at its upper bound; a start puts every
        nonbasic at its lower bound, so otherwise the restart is another
        feasible start or, when infeasible, the plain solve."""
        phase_one_runs = []
        phase_one = lp._phase_one
        monkeypatch.setattr(lp, "_phase_one", lambda *a: phase_one_runs.append(1) or phase_one(*a))
        counts = {"no-basis": 0, "zero-pivots": 0, "fell-back": 0, "other-start": 0}
        for prog in _reference_programs():
            sol = solve_lp(prog)
            if sol.status != "optimal":
                continue
            if sol.basis is None:
                # Its basis keeps an artificial: 4 equalities in 3 variables.
                counts["no-basis"] += 1
                continue
            phase_one_runs.clear()
            again = solve_lp(prog, start_basis=sol.basis)
            nonbasic = np.ones(prog.n_vars, dtype=bool)
            nonbasic[sol.basis[sol.basis < prog.n_vars]] = False
            if not np.any(nonbasic & (sol.x == prog.ub)):
                assert (again.status, again.iterations, phase_one_runs) == ("optimal", 0, [])
                counts["zero-pivots"] += 1
            elif phase_one_runs:
                np.testing.assert_equal(_outputs(again), _outputs(sol))
                counts["fell-back"] += 1
            else:
                counts["other-start"] += 1
            assert again.status == "optimal"
            assert again.objective == pytest.approx(sol.objective, rel=1e-12, abs=1e-12)
        assert counts == {"no-basis": 1, "zero-pivots": 4, "fell-back": 11, "other-start": 4}

    @staticmethod
    def _split_program():
        """min sum |q| s.t. S q = t over [S, -S]; S has 3 independent rows."""
        rng = np.random.default_rng(8)
        S = rng.normal(size=(3, 7))
        S[:, 6] = S[:, 0]  # columns 0 and 6 are equal
        t = S @ rng.normal(size=7)
        return S, t, LinearProgram(c=np.ones(14), A_eq=np.hstack([S, -S]), b_eq=t)

    def test_unusable_start_is_the_plain_solve(self):
        S, t, prog = self._split_program()
        plain = _outputs(solve_lp(prog))
        cols = np.array([0, 1, 2])
        weights = np.linalg.solve(S[:, cols], t)
        assert np.all(weights != 0.0)
        # The twin of each column with a positive weight: nonsingular but
        # infeasible.  Columns 0 and 6 together: singular.
        for start in (np.where(weights > 0.0, cols + 7, cols), [0, 6, 1]):
            np.testing.assert_equal(plain, _outputs(solve_lp(prog, start_basis=start)))
        feasible = solve_lp(prog, start_basis=np.where(weights < 0.0, cols + 7, cols))
        assert feasible.objective == pytest.approx(plain[5], rel=1e-12)

    def test_ill_conditioned_start_falls_back_to_phase_one(self, monkeypatch):
        # Columns 0 and 1 differ by 1e-13 in one entry: their basis matrix
        # inverts, but its condition (~4e13) is past the limit, so the start
        # is refused and phase 1 runs as without a start.  (An exactly
        # singular start, which does not invert, is the plain solve's case
        # above.)
        prog = LinearProgram(c=[1.0, 2.0, 3.0], A_eq=[[1.0, 1.0, 0.0], [0.0, 1e-13, 1.0]],
                             b_eq=[1.0, 1.0])
        B = prog.A_eq[:, :2]
        assert np.abs(B).sum(axis=0).max() * np.abs(np.linalg.inv(B)).sum(axis=0).max() \
            > lp._COND_LIMIT
        phase_one_runs = []
        phase_one = lp._phase_one
        monkeypatch.setattr(lp, "_phase_one", lambda *a: phase_one_runs.append(1) or phase_one(*a))
        plain = solve_lp(prog)
        started = solve_lp(prog, start_basis=[0, 1])
        assert phase_one_runs == [1, 1]
        assert started.status == "optimal"
        assert started.objective == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_equal(_outputs(started), _outputs(plain))

    def test_read_only_matrix_is_not_copied(self):
        # An equality-only program from a usable start runs phase 2 on the
        # caller's A_eq itself, read-only or factored: the same solution,
        # bit for bit, on the factored [S, -S], on the dense one made
        # read-only and on a writable copy, and no m x n array (a copy
        # would take 1.1 MiB).
        p = random_nonlocal(np.random.default_rng(29), Alphabets(3, 3, 3, 3))
        cg = bounds._data_map(p.alphabets)
        S = FactoredMatrix(*cg.factors)
        V = S.shape[1]
        target = cg.data_rhs(p.table)
        cols = bounds._pivoted_columns(S, np.abs(cg._unit_tables.T @ p.flat() @ S))
        start = np.where(np.linalg.solve(S[:, cols], target) < -lp._FEAS_TOL, cols + V, cols)
        twin = local_twin(cg)
        twin.flags.writeable = False
        matrices = (S.split(), twin, twin.copy())
        progs = [LinearProgram(c=np.ones(2 * V), A_eq=A, b_eq=target) for A in matrices]
        assert all(prog.A_eq is A for prog, A in zip(progs, matrices[:2]))
        sols = []
        for prog in progs:
            tracemalloc.start()
            try:
                sols.append(solve_lp(prog, start_basis=start))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sols[-1].status == "optimal" and peak < twin.nbytes // 2
        for again in sols[1:]:
            for name in ("x", "dual_eq", "dual_ub", "basis"):
                assert getattr(sols[0], name).tobytes() == getattr(again, name).tobytes(), name
            for name in ("status", "iterations", "objective", "duality_gap"):
                assert getattr(sols[0], name) == getattr(again, name), name

    @pytest.mark.parametrize("start", [
        pytest.param([0, 1], id="too-short"),
        pytest.param([0, 1, 2, 3], id="too-long"),
        pytest.param([0, 1, 1], id="duplicate"),
        pytest.param([0, 1, 14], id="out-of-range"),
        pytest.param([-1, 0, 1], id="negative"),
        pytest.param([0.0, 1.0, 2.0], id="not-integer"),
    ])
    def test_bad_start_rejected(self, start):
        with pytest.raises(ValueError, match="start_basis"):
            solve_lp(self._split_program()[2], start_basis=start)


class TestDeterminism:
    def test_repeat_solves_identical(self):
        rng = np.random.default_rng(0)
        prog = LinearProgram(c=rng.normal(size=8),
                             A_eq=rng.normal(size=(3, 8)), b_eq=rng.normal(size=3) * 0.1,
                             A_ub=rng.normal(size=(4, 8)), b_ub=np.abs(rng.normal(size=4)) + 1,
                             ub=np.full(8, 2.0))
        a = solve_lp(prog)
        b = solve_lp(prog)
        assert a.status == b.status
        if a.status == "optimal":
            assert np.array_equal(a.x, b.x)
            assert a.iterations == b.iterations


class TestEdgeWeights:
    """The start weights are built one row block of B^-1 A at a time in a
    work buffer of at most ``_WEIGHT_BLOCK`` bytes, whose first row holds
    the sums so far."""

    M = 49  # rows of the 3x3x3x3 nu_tilde LP

    @pytest.mark.parametrize("rows", [49, 7, 16], ids=["below-one-block", "multiple", "one-past"])
    def test_blocks_give_the_one_shot_weights(self, rows):
        # n columns give blocks of ``rows`` rows: 49 in one block, 7 blocks
        # of 7, or 3 blocks of 16 and one of 1.
        m = self.M
        n = lp._WEIGHT_BLOCK // (8 * (rows + 1))
        assert lp._WEIGHT_BLOCK // (8 * n) - 1 == rows
        rng = np.random.default_rng(n)
        sx = _Simplex(rng.normal(size=(m, n)), np.zeros(m), None, None)
        sx.Binv = rng.normal(size=(m, m))
        expected = 1.0 + ((sx.Binv @ sx.A) ** 2).sum(axis=0)
        np.testing.assert_allclose(sx.edge_weights(), expected, rtol=1e-12, atol=0)

    def test_memory_is_the_weights_and_one_buffer(self):
        # On the 3x3x3x3 nu_tilde LP's standard form: [S, -S] and the
        # artificials.  4 KiB covers the call's Python objects (the block
        # views' array headers); a fresh array for each block of B^-1 A and
        # for its square would take ~1 MiB here.
        twin = local_twin(bounds._data_map(Alphabets(3, 3, 3, 3)))
        m = twin.shape[0]
        assert m == self.M
        sx = _Simplex(np.hstack([twin, np.eye(m)]), np.zeros(m), None, None)
        sx.Binv = np.eye(m)
        tracemalloc.start()
        try:
            gamma = sx.edge_weights()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gamma.nbytes + lp._WEIGHT_BLOCK + 4096


def _boxed_program():
    """Unit boxes under loose packing rows, so that some iterations are bound
    flips of the entering variable."""
    rng = np.random.default_rng(5)
    n = 30
    A_eq = rng.normal(size=(3, n))
    A_ub = np.abs(rng.normal(size=(6, n)))
    return LinearProgram(c=rng.normal(size=n),
                         A_eq=A_eq, b_eq=A_eq @ rng.uniform(0, 1, size=n),
                         A_ub=A_ub, b_ub=A_ub.sum(axis=1) * 0.6, ub=np.ones(n))


class TestPivotRule:
    """Pivot counts of the pricing rule on fixed programs.

    A change of pivot rule, of the crash basis of nu_tilde and nu_corr or
    of the sign-vertex columns changes these counts (and may change which
    optimal vertex and certificate come out); update them on purpose.
    """

    H2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    SYLVESTER_8 = np.kron(np.kron(H2, H2), H2)

    @pytest.mark.parametrize("n, pivots, value", [
        pytest.param(5, 11, 2.533333333333333, id="5x5"),
        pytest.param(6, 24, 2.7272727272727275, id="6x6"),
    ])
    def test_nu_corr_sylvester_blocks(self, n, pivots, value):
        res = nu_corr(self.SYLVESTER_8[:n, :n])
        assert res.diagnostics["iterations"] == pivots
        assert res.value == pytest.approx(value, rel=1e-12)

    def test_nu_tilde_pr_box(self):
        # The crash basis is optimal already.
        res = nu_tilde(pr_box())
        assert res.diagnostics["iterations"] == 0
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_nu_tilde_eps_pr_box(self):
        res = nu_tilde_eps(pr_box(), 0.1)
        assert res.diagnostics["iterations"] == 28
        assert res.value == pytest.approx(1.6, rel=1e-12)

    def test_boxed_program(self):
        # 3 of the 44 iterations are bound flips of the entering variable.
        prog = _boxed_program()
        sol = solve_lp(prog)
        check_optimal(prog, sol)
        assert sol.iterations == 44
        assert sol.objective == pytest.approx(-11.3976346917502, rel=1e-12)

    def test_degenerate_packing_program(self):
        # Steepest edge takes no 50 degenerate pivots in a row here, so the
        # Bland fallback stays off; Bland's rule alone takes 515.
        prog = _packing_program(np.random.default_rng([11, 3]))
        sol = solve_lp(prog)
        check_optimal(prog, sol)
        assert sol.iterations == 60
        assert sol.objective == pytest.approx(-13.0, rel=1e-12)

    @pytest.mark.parametrize("case, pivots, value", [
        pytest.param("sylvester-5x5", 31, 2.533333333333335, id="sylvester-5x5"),
        pytest.param("sylvester-6x6", 445, 2.727272727272729, id="sylvester-6x6"),
        pytest.param("nu-pr-box", 0, 2.0, id="nu-pr-box"),
        pytest.param("nu-eps-pr-box", 28, 1.6, id="nu-eps-pr-box"),
        pytest.param("boxed", 154, -11.3976346917502, id="boxed"),
    ])
    def test_bland_rule_alone(self, monkeypatch, case, pivots, value):
        # With the fallback engaged from the first pivot, every column is
        # priced by Bland's rule: the counts and values of the Bland-only
        # engine, to the last bit.
        monkeypatch.setattr(lp, "_BLAND_AFTER", 0)
        if case == "boxed":
            sol = solve_lp(_boxed_program())
            assert (sol.iterations, sol.objective) == (pivots, value)
            return
        res = {
            "sylvester-5x5": lambda: nu_corr(self.SYLVESTER_8[:5, :5]),
            "sylvester-6x6": lambda: nu_corr(self.SYLVESTER_8[:6, :6]),
            "nu-pr-box": lambda: nu_tilde(pr_box()),
            "nu-eps-pr-box": lambda: nu_tilde_eps(pr_box(), 0.1),
        }[case]()
        assert (res.diagnostics["iterations"], res.value) == (pivots, value)


def _sign_matrix(seed):
    return np.where(np.random.default_rng(seed).uniform(size=(6, 6)) < 0.5, -1.0, 1.0)


def _panel_point(seed):
    return random_nonlocal(np.random.default_rng(seed), Alphabets(3, 3, 3, 3))


# The pivot panel: degenerate programs on which Dantzig pricing took from
# 168 to 3,826 pivots at one size (the 6x6 sign matrices).  Each entry is
# (id, solve, pivots, value under Dantzig pricing).
_PANEL = [
    ("signs-61-6", lambda: nu_corr(_sign_matrix([61, 6])), 48, 2.499999999999997),
] + [
    (f"signs-71-6-{k}", lambda k=k: nu_corr(_sign_matrix([71, 6, k])), pivots, value)
    for k, (pivots, value) in enumerate([
        (51, 2.5), (38, 2.634146341463415), (28, 2.500000000000001),
        (43, 2.500000000000004), (44, 2.499999999999998), (33, 2.4999999999999982),
        (39, 2.666666666666667), (39, 2.657894736842107), (50, 2.599999999999998),
        (30, 2.500000000000002)])
] + [
    ("sylvester-5x5", lambda: nu_corr(TestPivotRule.SYLVESTER_8[:5, :5]), 11, 2.533333333333333),
    ("sylvester-6x6", lambda: nu_corr(TestPivotRule.SYLVESTER_8[:6, :6]), 24, 2.7272727272727275),
    ("eps-3333-0", lambda: nu_tilde_eps(_panel_point(0), 0.05), 235, 1.2744402454823323),
] + [
    (f"nu-3333-17-{k}", lambda k=k: nu_tilde(_panel_point([17, k])), pivots, value)
    for k, (pivots, value) in enumerate([
        (78, 1.7095752620795794), (74, 1.4950195972336182), (65, 1.7157709690596346),
        (69, 1.6432305593195524), (71, 1.8186095613609483), (84, 1.4737049321559148),
        (65, 1.727693293056677), (73, 1.7843600342803234), (74, 1.680049810694661),
        (76, 1.4522234277414021)])
] + [
    (f"packing-11-{k}", lambda k=k: solve_lp(_packing_program(np.random.default_rng([11, k]))),
     pivots, value)
    for k, (pivots, value) in enumerate([
        (77, -36.0), (61, -14.0), (80, -34.666666666666664), (60, -13.0),
        (57, -3.0), (65, -4.0), (73, -32.0), (71, -26.5)])
]


class TestPivotPanel:
    """Pivot counts on the panel: 6x6 nu_corr on eleven random sign
    matrices and two Sylvester blocks, a 3x3x3x3 nu_tilde_eps point, ten
    random 3x3x3x3 nu_tilde points and eight 0/1 packing programs.  Values
    match those of Dantzig pricing to 1e-9, and the Bland fallback never
    engages: without it the pivots are the same."""

    @staticmethod
    def _pivots_and_value(res):
        if isinstance(res, LpSolution):
            assert res.status == "optimal"
            return res.iterations, res.objective
        return res.diagnostics["iterations"], res.value

    @pytest.mark.parametrize("solve, pivots, value",
                             [case[1:] for case in _PANEL], ids=[case[0] for case in _PANEL])
    def test_pivots_and_value(self, monkeypatch, solve, pivots, value):
        res = solve()
        got, got_value = self._pivots_and_value(res)
        assert got == pivots
        assert got_value == pytest.approx(value, abs=1e-9)
        if getattr(res, "quantity", None) == "nu_tilde":
            bell = res.dual_certificate
            assert best_local_response(bell.coeffs)[0] <= 1.0 + 1e-9
            assert best_local_response(-bell.coeffs)[0] <= 1.0 + 1e-9
        monkeypatch.setattr(lp, "_BLAND_AFTER", 10**9)
        assert self._pivots_and_value(solve())[0] == pivots


def _scored_crash_cases():
    """The panel's nu_corr and nu_tilde entries, then six 3x3x3x3 points of
    PR weight 0.35, as (source, solve) pairs."""
    alph = Alphabets(3, 3, 3, 3)
    return [("panel", case[1]) for case in _PANEL
            if case[0].startswith(("signs", "sylvester", "nu-"))] + [
        ("pr-0.35", lambda k=k: nu_tilde(random_nonlocal(np.random.default_rng([35, k]), alph,
                                                         pr_weight=0.35)))
        for k in range(6)]


class TestScoredCrash:
    """The min-L1 LPs pick their crash columns by their overlap with the
    target.  From that crash the panel's nu_corr entries, its nu_tilde
    entries and six seeded 3x3x3x3 points each take fewer pivots in total
    than from the crash of plain pivoted Gram-Schmidt, to the same values,
    and neither crash ever needs phase 1."""

    def test_fewer_pivots_than_the_unscored_crash(self, monkeypatch):
        phase_one_runs = []
        phase_one = lp._phase_one
        monkeypatch.setattr(lp, "_phase_one", lambda *a: phase_one_runs.append(1) or phase_one(*a))
        pivoted = bounds._pivoted_columns
        totals = {}
        for source, solve in _scored_crash_cases():
            scored = solve()
            with monkeypatch.context() as m:
                m.setattr(bounds, "_pivoted_columns",
                          lambda S, score: pivoted(S, np.ones(S.shape[1])))
                plain = solve()
            assert scored.value == pytest.approx(plain.value, abs=1e-9)
            total = totals.setdefault((source, scored.quantity), [0, 0])
            total[0] += scored.diagnostics["iterations"]
            total[1] += plain.diagnostics["iterations"]
        assert phase_one_runs == []
        assert sorted(totals) == [("panel", "nu_corr"), ("panel", "nu_tilde"),
                                  ("pr-0.35", "nu_tilde")]
        for family, (scored, plain) in totals.items():
            assert scored < plain, (family, scored, plain)


class TestBruteForceOracle:
    def test_random_small_programs(self):
        rng = np.random.default_rng(42)
        solved = 0
        while solved < 50:
            n = int(rng.integers(2, 6))
            m_ub = int(rng.integers(1, 4))
            m_eq = int(rng.integers(0, 2))
            prog = LinearProgram(
                c=rng.normal(size=n),
                A_eq=rng.normal(size=(m_eq, n)) if m_eq else None,
                b_eq=rng.normal(size=m_eq) * 0.2 if m_eq else None,
                A_ub=rng.normal(size=(m_ub, n)),
                b_ub=rng.normal(size=m_ub),
                lb=np.zeros(n),
                ub=rng.uniform(0.5, 2.0, size=n),
            )
            sol = solve_lp(prog)
            oracle = brute_force_minimum(prog)
            if sol.status == "infeasible":
                assert oracle == np.inf
                continue
            assert sol.status == "optimal"
            check_optimal(prog, sol)
            assert sol.objective == pytest.approx(oracle, abs=1e-6)
            solved += 1


class TestLargerRandomPrograms:
    def test_duality_certificates(self):
        # rows <= 30, cols <= 60: check feasibility + strong duality, and
        # verify the dual multipliers reproduce the objective directly.
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(20, 61))
            m_eq = int(rng.integers(2, 10))
            m_ub = int(rng.integers(2, 21))
            x_feas = rng.uniform(0.1, 0.9, size=n)
            A_eq = rng.normal(size=(m_eq, n))
            A_ub = rng.normal(size=(m_ub, n))
            prog = LinearProgram(
                c=rng.normal(size=n),
                A_eq=A_eq, b_eq=A_eq @ x_feas,
                A_ub=A_ub, b_ub=A_ub @ x_feas + np.abs(rng.normal(size=m_ub)),
                ub=np.ones(n),
            )
            sol = solve_lp(prog)
            check_optimal(prog, sol)
            # Complementary slackness on inequality rows: y_ub <= 0 for a
            # minimization with A_ub x <= b_ub in this engine's convention,
            # and y_i (A x - b)_i = 0.
            slack = prog.b_ub - prog.A_ub @ sol.x
            assert np.max(np.abs(sol.dual_ub * slack)) <= 1e-6 * (1 + abs(sol.objective))


class TestDualSigns:
    def test_dual_reproduces_sensitivity(self):
        # min x, x >= 0, x + y = 1, y <= 0.4  -> x = 0.6, dual on eq = 1
        prog = LinearProgram(c=[1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                             ub=[np.inf, 0.4])
        sol = solve_lp(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.6, abs=1e-9)
        assert sol.dual_eq[0] == pytest.approx(1.0, abs=1e-8)


class TestNumericalBreakdown:
    def test_singular_basis_is_a_status(self, monkeypatch):
        # The refactorization at the end of phase 1 succeeds; every later
        # one fails.
        refactor = _Simplex.refactor
        calls = []

        def failing(self):
            calls.append(1)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            refactor(self)

        monkeypatch.setattr(_Simplex, "refactor", failing)
        prog = LinearProgram(c=[1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                             ub=[np.inf, 0.4])
        sol = solve_lp(prog)
        assert sol.status == "numerical-error"
        assert sol.x is None
        # The phase-1 pivots before the failing refactorization count.
        assert sol.iterations >= 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("start", [None, [0]], ids=["phase-one", "start-basis"])
    def test_overflow_is_a_status(self, start):
        # Feasible at x1 = x2 = 1e10, but A lo overflows, in the phase-1
        # start |b - A lo| or in the basic values of the given start.  It
        # used to end "infeasible", with six RuntimeWarnings.
        prog = LinearProgram(c=[1.0, 1.0], A_eq=[[1e300, -1e300]], b_eq=[0.0],
                             lb=[1e10, 1e10])
        sol = solve_lp(prog, start_basis=start)
        assert (sol.status, sol.x, sol.iterations) == ("numerical-error", None, 0)

    def test_phase_one_start_is_feasible_by_construction(self):
        # The artificial start's basic values are |b - A lo| exactly, so
        # phase 1 needs no check of them: here b - A lo has mixed signs and
        # a cancellation of 1e16-sized terms.
        A = np.array([[1e16, -1e16, 1.0], [-3.0, 1.0, 2.0]])
        lo = np.array([1.0, 1.0, 0.5])
        b = np.array([-2.0, 7.0])
        sx = lp._artificial_start(A, None, b, lo, np.full(3, np.inf))
        resid = b - A @ lo
        assert np.array_equal(sx.xB, np.abs(resid)) and np.all(resid != 0.0)
        assert np.array_equal(sx.A[:, 3:], np.diag(np.sign(resid)))
        assert np.array_equal(sx.Binv, np.diag(np.sign(resid)))
