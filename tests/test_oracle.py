import itertools

import numpy as np
import pytest
import scipy.optimize

from streams import criterion_01_problems, criterion_02_problems

import totipm.cli as cli
from totipm.instances import emit_instance
from totipm.oracle import (
    StandardFormLP,
    dual_feasible,
    dual_value,
    simplex_solve,
    solve_lp,
    to_lp,
    _COST_ULPS,
)
from totipm.polytope import MarginalProblem, null_basis_matrix, start_point


def uniform_problem(dims, cost, variant="U"):
    return MarginalProblem(
        cost=np.asarray(cost, dtype=float),
        marginals=tuple(np.full(n, 1.0 / n) for n in dims),
        variant=variant,
    )


def random_problem(dims, rng, variant="U"):
    cost = rng.integers(0, 10, size=dims).astype(float)
    marginals = []
    for n in dims:
        p = rng.uniform(0.2, 1.0, size=n)
        marginals.append(p / p.sum())
    return MarginalProblem(cost=cost, marginals=tuple(marginals), variant=variant)


def enumerate_bfs_minimum(lp):
    """Exhaustive minimum over basic feasible solutions: every full-rank
    m-column subset with a nonnegative basic solution."""
    m, n = lp.a.shape
    best = np.inf
    for cols in itertools.combinations(range(n), m):
        sub = lp.a[:, cols]
        if np.linalg.matrix_rank(sub) < m:
            continue
        x_basic = np.linalg.solve(sub, lp.b)
        if x_basic.min() < -1e-9:
            continue
        best = min(best, float(lp.c[list(cols)] @ x_basic))
    return best


class TestToLp:
    def test_2x2_shape(self):
        lp = to_lp(uniform_problem((2, 2), np.zeros((2, 2))))
        assert lp.a.shape == (3, 4)

    def test_2x2x2_shape(self):
        lp = to_lp(uniform_problem((2, 2, 2), np.zeros((2, 2, 2))))
        assert lp.a.shape == (4, 8)

    def test_start_point_feasible(self):
        problem = uniform_problem((3, 2, 2), np.zeros((3, 2, 2)))
        lp = to_lp(problem)
        assert np.abs(lp.a @ start_point(problem).ravel() - lp.b).max() <= 1e-12


class TestSimplexKnownValues:
    def test_zero_diagonal_uniform(self):
        problem = uniform_problem((2, 2), [[0.0, 1.0], [1.0, 0.0]])
        result = solve_lp(problem)
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert result.x.reshape(2, 2) == pytest.approx(np.diag([0.5, 0.5]), abs=1e-12)

    def test_skewed_marginals(self):
        problem = MarginalProblem(
            cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
            marginals=(np.array([0.5, 0.5]), np.array([0.25, 0.75])),
        )
        # mass matrix is [[t, 0.5-t], [0.25-t, 0.25+t]] for t in [0, 0.25];
        # objective 0.75 - 2t is minimized at t = 0.25
        assert solve_lp(problem).value == pytest.approx(0.25, abs=1e-12)


class TestSimplexAgainstEnumeration:
    def test_random_3x3(self):
        rng = np.random.default_rng(51)
        for _ in range(8):
            problem = random_problem((3, 3), rng)
            lp = to_lp(problem)
            assert simplex_solve(lp).value == pytest.approx(
                enumerate_bfs_minimum(lp), abs=1e-9
            )

    def test_random_2x2x2_both_variants(self):
        rng = np.random.default_rng(52)
        for variant in ("U", "V"):
            for _ in range(4):
                problem = random_problem((2, 2, 2), rng, variant=variant)
                lp = to_lp(problem)
                assert simplex_solve(lp).value == pytest.approx(
                    enumerate_bfs_minimum(lp), abs=1e-9
                )

    def test_v_variant_segment_oracle(self):
        # the 2x2x2 mode-sum slice is one-dimensional, so the optimum sits at
        # an endpoint of the feasible segment through the start point
        rng = np.random.default_rng(53)
        for _ in range(5):
            problem = random_problem((2, 2, 2), rng, variant="V")
            base = start_point(problem)
            (direction,) = null_basis_matrix(problem).T.reshape((-1,) + problem.dims)
            c = problem.cost
            lo = -np.inf
            hi = np.inf
            for idx in np.ndindex(2, 2, 2):
                if direction[idx] > 0:
                    lo = max(lo, -base[idx] / direction[idx])
                else:
                    hi = min(hi, -base[idx] / direction[idx])
            values = [
                float((c * (base + t * direction)).sum()) for t in (lo, hi)
            ]
            assert solve_lp(problem).value == pytest.approx(min(values), abs=1e-9)


class TestSimplexStatuses:
    def test_infeasible(self):
        lp = StandardFormLP(
            a=np.array([[1.0], [1.0]]), b=np.array([1.0, 2.0]), c=np.array([0.0])
        )
        assert simplex_solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = StandardFormLP(
            a=np.array([[1.0, -1.0]]), b=np.array([0.0]), c=np.array([-1.0, 0.0])
        )
        assert simplex_solve(lp).status == "unbounded"

    def test_vertex_support(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            problem = random_problem((3, 3), rng)
            result = solve_lp(problem)
            rows = to_lp(problem).a.shape[0]
            assert int(np.sum(result.x > 1e-9)) <= rows


class TestDuality:
    def test_strong_duality_and_feasibility(self):
        rng = np.random.default_rng(55)
        shapes = [
            ((3, 3), "U"), ((4, 3), "U"), ((2, 2, 2), "U"),
            ((3, 3), "V"), ((2, 2, 2), "V"), ((3, 2, 2), "V"),
        ]
        for dims, variant in shapes:
            for _ in range(4):
                problem = random_problem(dims, rng, variant)
                result = solve_lp(problem)
                ok, min_slack = dual_feasible(problem, result.dual, tol=1e-9)
                assert ok
                assert min_slack >= -1e-9
                assert dual_value(problem, result.dual) == pytest.approx(
                    result.value, abs=1e-9
                )

    def test_zero_potentials(self):
        problem = uniform_problem((2, 2), [[0.0, 1.0], [1.0, 0.0]])
        y = np.zeros(problem.constraints.n_rows)
        ok, _ = dual_feasible(problem, y)
        assert ok
        assert dual_value(problem, y) == 0.0

    def test_inflated_potential_infeasible(self):
        problem = uniform_problem((2, 2), [[0.0, 1.0], [1.0, 0.0]])
        y = np.where(problem.constraints.pattern[:, 0] >= 0, 1.0, 0.0)
        ok, min_slack = dual_feasible(problem, y)
        assert not ok
        assert min_slack < 0.0


class TestMetricCost:
    def test_identity_coupling(self):
        rng = np.random.default_rng(56)
        for n in (3, 4):
            for _ in range(3):
                cost = rng.uniform(0.5, 3.0, size=(n, n))
                cost = cost + cost.T
                np.fill_diagonal(cost, 0.0)
                p = rng.uniform(0.2, 1.0, size=n)
                p /= p.sum()
                problem = MarginalProblem(cost=cost, marginals=(p, p))
                result = solve_lp(problem)
                assert result.value == pytest.approx(0.0, abs=1e-9)
                assert result.x.reshape(n, n) == pytest.approx(np.diag(p), abs=1e-9)


class TestHighsAgreement:
    def test_highs_matches_simplex_on_criterion_streams(self):
        # a second, independent oracle: HiGHS on the same standard-form LP
        problems = criterion_01_problems() + criterion_02_problems()
        assert len(problems) == 70
        for problem in problems:
            lp = to_lp(problem)
            result = scipy.optimize.linprog(
                lp.c, A_eq=lp.a, b_eq=lp.b, bounds=(0, None), method="highs"
            )
            assert result.status == 0
            assert abs(result.fun - solve_lp(problem).value) <= 1e-12

    def test_costs_at_scale_1e7(self, tmp_path, capsys):
        # U 3x3x3 integer costs times 1e7: against an absolute reduced-cost
        # tolerance of 1e-9 the simplex pivoted on rounding until its pivot
        # budget ran out, and `solve --oracle` died with a traceback
        rng = np.random.default_rng(8)
        cost = rng.integers(0, 10, (3, 3, 3)) * 1e7
        marginals = tuple(p / p.sum() for p in (rng.random(3) for _ in range(3)))
        problem = MarginalProblem(cost=cost, marginals=marginals)
        path = tmp_path / "scaled.json"
        path.write_text(emit_instance(problem), encoding="utf-8")
        assert cli.main(["solve", str(path), "--oracle", "--epsilon", "10"]) == 0
        assert "Traceback" not in capsys.readouterr().err

        lp = to_lp(problem)
        highs = scipy.optimize.linprog(
            lp.c, A_eq=lp.a, b_eq=lp.b, bounds=(0, None), method="highs"
        )
        assert highs.status == 0
        assert abs(solve_lp(problem).value - highs.fun) <= 1e-12 * abs(highs.fun)

    @staticmethod
    def assert_optimal_vertex(problem):
        # HiGHS on c - min c, which is exact where a common offset dominates
        # the costs: every feasible tensor has mass 1, so c and c - min c
        # share their optimal tensors
        lp = to_lp(problem)
        low = lp.c.min()
        highs = scipy.optimize.linprog(
            lp.c - low, A_eq=lp.a, b_eq=lp.b, bounds=(0, None), method="highs"
        )
        assert highs.status == 0
        result = solve_lp(problem)
        assert abs((lp.c - low) @ result.x - highs.fun) <= 1e-12 * max(1.0, lp.c.max() - low)
        rounding = np.finfo(np.float64).eps * np.abs(lp.c).max()
        assert dual_feasible(problem, result.dual, tol=_COST_ULPS * rounding)[0]

    def test_cost_offset_1e12(self):
        # a reduced-cost tolerance of 1e-9 max|c|, 1e3 here, stopped phase 2
        # at phase 1's vertex: 1e12 + 2.004 against the optimum 1e12 + 0.729
        rng = np.random.default_rng(1)
        cost = 1e12 + rng.integers(0, 4, (3, 3))
        marginals = tuple(p / p.sum() for p in (rng.random(3) for _ in range(2)))
        self.assert_optimal_vertex(MarginalProblem(cost=cost, marginals=marginals))

    def test_criterion_streams_plus_1e10(self):
        for problem in criterion_01_problems() + criterion_02_problems():
            self.assert_optimal_vertex(
                MarginalProblem(
                    cost=problem.cost + 1e10,
                    marginals=problem.marginals,
                    variant=problem.variant,
                )
            )
