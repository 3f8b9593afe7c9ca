import numpy as np
import pytest

from totipm.oracle import solve_lp
from totipm.polytope import (
    ConstraintSystem,
    MarginalOperator,
    MarginalProblem,
    marginal_rhs,
    centering_project,
    feasible,
    null_basis,
    null_basis_matrix,
    null_space_dim,
    random_interior_point,
    residual,
    residual_norm,
    start_point,
    sym_lower_bound,
)
from totipm.tensor import frobenius_norm, inner, outer


def uniform_problem(dims, variant="U", cost=None):
    cost = np.zeros(dims) if cost is None else cost
    marginals = tuple(np.full(n, 1.0 / n) for n in dims)
    return MarginalProblem(cost=cost, marginals=marginals, variant=variant)


class TestMarginalProblem:
    def test_rejects_nonpositive_marginal(self):
        with pytest.raises(ValueError):
            MarginalProblem(
                cost=np.zeros((2, 2)),
                marginals=(np.array([1.0, 0.0]), np.array([0.5, 0.5])),
            )

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            MarginalProblem(
                cost=np.zeros((2, 2)),
                marginals=(np.array([0.5, 0.6]), np.array([0.5, 0.5])),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MarginalProblem(
                cost=np.zeros((2, 3)),
                marginals=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
            )

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            uniform_problem((2, 2), variant="W")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_cost(self, bad):
        cost = np.zeros((3, 3))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match=r"cost entry \(1, 2\)"):
            uniform_problem((3, 3), cost=cost)

    def test_rejects_nan_marginal(self):
        with pytest.raises(ValueError, match="marginal 1"):
            MarginalProblem(
                cost=np.zeros((2, 2)),
                marginals=(np.array([0.5, 0.5]), np.array([np.nan, 1.0])),
            )

    def test_arrays_read_only(self):
        problem = uniform_problem((2, 2))
        with pytest.raises(ValueError):
            problem.cost[0, 0] = 1.0


class TestStartPoint:
    def test_uniform_2x2(self):
        assert np.array_equal(start_point(uniform_problem((2, 2))), np.full((2, 2), 0.25))

    def test_uniform_2x2x2(self):
        assert np.array_equal(
            start_point(uniform_problem((2, 2, 2))), np.full((2, 2, 2), 0.125)
        )

    def test_exact_marginals(self):
        problem = MarginalProblem(
            cost=np.zeros((2, 2)),
            marginals=(np.array([0.2, 0.8]), np.array([0.3, 0.7])),
        )
        for r in residual(problem, start_point(problem)):
            assert np.abs(r).max() <= 1e-14


class TestResidual:
    def test_permutation_point(self):
        problem = uniform_problem((2, 2))
        u = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert residual_norm(problem, u) <= 1e-14

    def test_null_perturbation_invariant(self):
        rng = np.random.default_rng(21)
        for variant in ("U", "V"):
            problem = uniform_problem((3, 3), variant=variant)
            base = start_point(problem)
            for element in null_basis(problem):
                moved = base + 0.01 * rng.uniform(-1, 1) * element
                before = residual(problem, base)
                after = residual(problem, moved)
                for rb, ra in zip(before, after):
                    assert np.abs(ra - rb).max() <= 1e-12

    def test_v_variant_targets(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.3, 0.7])
        r = np.array([0.5, 0.5])
        problem = MarginalProblem(cost=np.zeros((2, 2, 2)), marginals=(p, q, r), variant="V")
        res = residual(problem, start_point(problem))
        assert len(res) == 3
        assert res[0].shape == (2, 2)
        for t in res:
            assert np.abs(t).max() <= 1e-14


class TestAdjoint:
    """MarginalOperator.adjoint: the multipliers of every mode's first
    n_k - 1 rows, then the total-mass row's."""

    def test_zero_multipliers(self):
        out = MarginalOperator((2, 3)).adjoint(np.zeros(4))
        assert np.array_equal(out, np.zeros(6))

    def test_total_only(self):
        out = MarginalOperator((2, 2)).adjoint(np.array([0.0, 0.0, 1.0]))
        assert np.array_equal(out, np.ones(4))

    def test_orthogonal_to_null_basis(self):
        rng = np.random.default_rng(22)
        for dims in [(3, 3), (2, 2, 2), (3, 2, 2)]:
            problem = uniform_problem(dims)
            op = MarginalOperator(dims)
            adj = op.adjoint(rng.normal(size=op.n_rows))
            for element in null_basis(problem):
                assert abs(inner(adj.reshape(dims), element)) <= 1e-12


class TestMarginalOperator:
    SHAPES = [(1,), (3,), (1, 4), (2, 1, 3), (2, 3, 2, 3)]

    @pytest.mark.parametrize("dims", SHAPES)
    def test_matches_dense_rows(self, dims):
        rng = np.random.default_rng(23)
        problem = uniform_problem(dims)
        system = ConstraintSystem(problem)
        a = system.matrix
        op = MarginalOperator(dims)
        assert op.n_rows == a.shape[0]
        assert np.array_equal(marginal_rhs(problem), system.rhs)
        x = rng.normal(size=(2, a.shape[1]))
        y = rng.normal(size=(2, a.shape[0]))
        w = rng.uniform(0.1, 1.0, size=a.shape[1])
        assert np.abs(op.apply(x) - x @ a.T).max() <= 1e-14
        assert np.abs(op.apply(x[0]) - a @ x[0]).max() <= 1e-14
        assert np.abs(op.adjoint(y) - y @ a).max() <= 1e-14
        assert np.abs(op.adjoint(y[0]) - a.T @ y[0]).max() <= 1e-14
        assert np.abs(op.normal_matrix(w) - (a * w) @ a.T).max() <= 1e-14

class TestNullBasis:
    def test_2x2_difference(self):
        basis = null_basis(uniform_problem((2, 2)))
        assert len(basis) == 1
        assert np.array_equal(basis[0], np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_v_2x2x2_parity(self):
        basis = null_basis(uniform_problem((2, 2, 2), variant="V"))
        assert len(basis) == 1
        element = basis[0]
        for idx in np.ndindex(2, 2, 2):
            assert element[idx] == (-1.0) ** sum(idx)

    def test_u_2x2x2_count_and_marginals(self):
        problem = uniform_problem((2, 2, 2))
        basis = null_basis(problem)
        assert len(basis) == 4
        mat = null_basis_matrix(problem)
        assert np.linalg.matrix_rank(mat) == 4
        system = ConstraintSystem(problem)
        for element in basis:
            assert np.abs(system.matrix @ element.ravel()).max() <= 1e-12

    def test_counts_match_formulas(self):
        for dims in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)]:
            m, n = dims
            assert len(null_basis(uniform_problem(dims))) == (m - 1) * (n - 1)
        for dims in [(2, 2, 2), (3, 2, 2), (3, 3, 3)]:
            problem = uniform_problem(dims)
            expected = int(np.prod(dims)) - 1 - sum(n - 1 for n in dims)
            assert len(null_basis(problem)) == expected
            v_problem = uniform_problem(dims, variant="V")
            assert len(null_basis(v_problem)) == int(np.prod([n - 1 for n in dims]))

    def test_null_space_dim_agrees(self):
        for dims in [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3)]:
            for variant in ("U", "V"):
                problem = uniform_problem(dims, variant=variant)
                assert null_space_dim(problem) == len(null_basis(problem))


class TestConstraintSystem:
    def test_u_row_count_and_rank(self):
        for dims in [(2, 2), (3, 4), (2, 2, 2), (3, 3, 3)]:
            system = ConstraintSystem(uniform_problem(dims))
            expected_rows = 1 + sum(n - 1 for n in dims)
            assert system.matrix.shape == (expected_rows, int(np.prod(dims)))
            s = np.linalg.svd(system.matrix, compute_uv=False)
            assert int(np.sum(s > 1e-8)) == expected_rows

    def test_v_rank_matches_null_dim(self):
        for dims in [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (1, 4), (2, 1, 3), (2, 3, 4), (2, 3, 2, 3)]:
            problem = uniform_problem(dims, variant="V")
            system = ConstraintSystem(problem)
            size = int(np.prod(dims))
            expected_rank = size - int(np.prod([n - 1 for n in dims]))
            assert system.matrix.shape[0] == expected_rank
            s = np.linalg.svd(system.matrix, compute_uv=False)
            assert int(np.sum(s > 1e-8)) == expected_rank

    def test_operator_signatures(self):
        # the Newton workspace calls these as it calls MarginalOperator's
        rng = np.random.default_rng(29)
        system = ConstraintSystem(uniform_problem((2, 3, 4), variant="V"))
        a = system.matrix
        x = rng.normal(size=(2, a.shape[1]))
        y = rng.normal(size=(2, a.shape[0]))
        w = rng.uniform(0.1, 1.0, size=a.shape[1])
        assert system.apply(x).shape == (2, system.n_rows)
        assert np.abs(system.apply(x[0]) - a @ x[0]).max() <= 1e-14
        assert np.abs(system.adjoint(y) - y @ a).max() <= 1e-14
        assert np.abs(system.adjoint(y[0]) - a.T @ y[0]).max() <= 1e-14
        assert np.abs(system.normal_matrix(w) - a @ np.diag(w) @ a.T).max() <= 1e-13

    def test_start_point_satisfies_system(self):
        for variant in ("U", "V"):
            problem = uniform_problem((3, 2, 2), variant=variant)
            system = ConstraintSystem(problem)
            x = start_point(problem).ravel()
            assert np.abs(system.matrix @ x - system.rhs).max() <= 1e-12


class TestSymLowerBound:
    def test_uniform_2x2(self):
        assert sym_lower_bound(uniform_problem((2, 2))) == pytest.approx(
            0.17677669529663687, abs=1e-15
        )

    def test_uniform_2x2x2(self):
        assert sym_lower_bound(uniform_problem((2, 2, 2))) == pytest.approx(
            0.125 / np.sqrt(2.0), abs=1e-15
        )

    def test_range(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = rng.uniform(0.1, 1.0, size=4)
            p /= p.sum()
            q = rng.uniform(0.1, 1.0, size=3)
            q /= q.sum()
            problem = MarginalProblem(cost=np.zeros((4, 3)), marginals=(p, q))
            value = sym_lower_bound(problem)
            assert 0.0 < value <= 1.0 / np.sqrt(2.0)


class TestFeasible:
    def test_start_point(self):
        problem = uniform_problem((3, 3))
        assert feasible(problem, start_point(problem), 1e-10)

    def test_negated_entry(self):
        problem = uniform_problem((3, 3))
        u = start_point(problem).copy()
        u[0, 0] = -u[0, 0]
        assert not feasible(problem, u, 1e-10)

    def test_simplex_optimizer_feasible(self):
        rng = np.random.default_rng(24)
        cost = rng.integers(0, 10, size=(3, 3)).astype(float)
        problem = uniform_problem((3, 3), cost=cost)
        result = solve_lp(problem)
        assert feasible(problem, result.x.reshape(3, 3), 1e-8)


class TestCenteringProject:
    def test_idempotent(self):
        rng = np.random.default_rng(25)
        t = rng.normal(size=(3, 4))
        proj = centering_project(t)
        assert np.abs(centering_project(proj) - proj).max() <= 1e-12

    def test_range_is_null_basis_span(self):
        rng = np.random.default_rng(26)
        problem = uniform_problem((3, 3), variant="V")
        basis = null_basis_matrix(problem)
        q, _ = np.linalg.qr(basis)
        for _ in range(5):
            t = rng.normal(size=(3, 3))
            proj = centering_project(t).ravel()
            back = q @ (q.T @ proj)
            assert np.abs(back - proj).max() <= 1e-10
        for j in range(basis.shape[1]):
            e = basis[:, j].reshape(3, 3)
            assert np.abs(centering_project(e) - e).max() <= 1e-10


class TestRandomInteriorPoint:
    def test_positive_and_feasible(self):
        rng = np.random.default_rng(27)
        for dims, variant in [((3, 3), "U"), ((2, 2, 2), "U"), ((2, 2, 2), "V")]:
            problem = uniform_problem(dims, variant=variant)
            for _ in range(10):
                u = random_interior_point(problem, rng)
                assert u.min() > 0.0
                assert residual_norm(problem, u) <= 1e-10


class TestVertexDistanceBand:
    def test_oracle_vertices(self):
        rng = np.random.default_rng(28)
        for dims in [(3, 3), (2, 2, 2)]:
            for _ in range(4):
                p_list = []
                for n in dims:
                    p = rng.uniform(0.2, 1.0, size=n)
                    p_list.append(p / p.sum())
                cost = rng.integers(0, 10, size=dims).astype(float)
                problem = MarginalProblem(cost=cost, marginals=tuple(p_list))
                vertex = solve_lp(problem).x.reshape(dims)
                dist = frobenius_norm(start_point(problem) - vertex)
                min_prod = float(np.prod([p.min() for p in p_list]))
                assert min_prod - 1e-12 <= dist <= np.sqrt(2.0) + 1e-12
