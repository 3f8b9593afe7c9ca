import functools

import numpy as np
import pytest

from streams import random_problem, uniform_problem

import totipm.polytope as polytope
import totipm.verify as verify
from totipm.ipm import SolverConfig, short_step_solve
from totipm.oracle import solve_lp
from totipm.polytope import (
    ConstraintSystem,
    MarginalProblem,
    null_basis_matrix,
    null_space_dim,
    random_interior_point,
    residual_norm,
    start_point,
)


def null_basis(problem):
    """The columns of null_basis_matrix, each reshaped to the tensor shape."""
    return null_basis_matrix(problem).T.reshape((-1,) + problem.dims)


def differences(n):
    """The n x (n - 1) matrix whose columns are e_i - e_{i+1}."""
    return np.eye(n, n - 1) - np.eye(n, n - 1, -1)


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

    @pytest.mark.parametrize("low", [1e-200, 1e-160])
    def test_rejects_underflowing_start_point(self, low):
        with pytest.raises(ValueError, match="below the solver's domain floor of 1e-300"):
            MarginalProblem(cost=np.zeros((3, 3)), marginals=(np.array([low, 0.5, 0.5]),) * 2)

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
        assert residual_norm(problem, start_point(problem)) <= 1e-14


class TestResidual:
    def test_permutation_point(self):
        problem = uniform_problem((2, 2))
        u = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert residual_norm(problem, u) <= 1e-14

    def test_null_perturbation_invariant(self):
        rng = np.random.default_rng(21)
        for dims in [(3, 3), (2, 3, 2)]:
            for variant in ("U", "V"):
                problem = uniform_problem(dims, variant=variant)
                base = start_point(problem)
                for element in null_basis(problem):
                    moved = base + 0.01 * rng.uniform(-1, 1) * element
                    assert residual_norm(problem, moved) <= 1e-12

    def test_v_variant_targets(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.3, 0.7])
        r = np.array([0.5, 0.5])
        u_problem, v_problem = (
            MarginalProblem(cost=np.zeros((2, 2, 2)), marginals=(p, q, r), variant=variant)
            for variant in "UV"
        )
        assert residual_norm(v_problem, start_point(v_problem)) <= 1e-14
        # differences at modes 0 and 1, constant along mode 2, keep every
        # marginal; their sums along mode 2 are 2 d d^T, of norm 4
        d = differences(2)[:, 0]
        moved = start_point(v_problem) + 0.01 * np.multiply.outer(np.outer(d, d), np.ones(2))
        assert residual_norm(u_problem, moved) <= 1e-14
        assert residual_norm(v_problem, moved) == pytest.approx(0.04, abs=1e-14)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="expected shape"):
            residual_norm(uniform_problem((2, 3)), np.zeros((3, 2)))


class TestAdjoint:
    """ConstraintSystem.adjoint of variant U: the multipliers of every
    mode's first n_k - 1 rows, then the total-mass row's."""

    def test_zero_multipliers(self):
        out = ConstraintSystem(uniform_problem((2, 3))).adjoint(np.zeros(4))
        assert np.array_equal(out, np.zeros(6))

    def test_total_only(self):
        out = ConstraintSystem(uniform_problem((2, 2))).adjoint(np.array([0.0, 0.0, 1.0]))
        assert np.array_equal(out, np.ones(4))

    def test_orthogonal_to_null_basis(self):
        rng = np.random.default_rng(22)
        for dims in [(3, 3), (2, 2, 2), (3, 2, 2)]:
            problem = uniform_problem(dims)
            system = ConstraintSystem(problem)
            adj = system.adjoint(rng.normal(size=system.n_rows))
            assert np.abs(adj @ null_basis_matrix(problem)).max() <= 1e-12


class TestMarginalOperator:
    """The constraint operator of ConstraintSystem (apply, adjoint and
    normal_matrix) against its dense rows, for both variants, on both
    sides of each crossover between dense rows and reductions."""

    # (24, 24) and V (6, 6, 6) lie between the cut of normal_matrix and
    # that of apply and adjoint, so at the default cuts they mix the two
    # ways.  The entries of (6, 6, 6) reach about 120 and those of (24, 24)
    # about 300, so their bound is 1e-14 relative to the largest reference
    # entry, while the other shapes keep 1e-14 absolute.  The 41-mode shape
    # has more modes than a table indexed by every subset of modes could
    # hold.
    SHAPES = [(1,), (3,), (1, 4), (2, 1, 3), (2, 3, 2, 3), (24, 24), (1,) * 40 + (3,), (6, 6, 6)]
    RELATIVE = {(6, 6, 6), (24, 24)}

    @pytest.mark.parametrize("dims", SHAPES)
    def test_matches_dense_rows(self, dims, monkeypatch):
        rng = np.random.default_rng(23)
        size = int(np.prod(dims))
        defaults = (polytope._DENSE_CROSSOVER, polytope._DENSE_PRODUCT_CROSSOVER)
        for variant in ("U", "V"):
            problem = uniform_problem(dims, variant=variant)
            # dense rows everywhere, reductions everywhere, the default cuts
            for cuts in ((2**62, 2**62), (-1, -1), defaults):
                monkeypatch.setattr(polytope, "_DENSE_CROSSOVER", cuts[0])
                monkeypatch.setattr(polytope, "_DENSE_PRODUCT_CROSSOVER", cuts[1])
                system = ConstraintSystem(problem)
                x = rng.normal(size=(2, size))
                y = rng.normal(size=(2, system.n_rows))
                w = rng.uniform(0.1, 1.0, size=size)
                out = [
                    system.apply(x),
                    system.apply(x[0]),
                    system.adjoint(y),
                    system.adjoint(y[0]),
                    system.normal_matrix(w),
                ]
                if cuts == (-1, -1):
                    # the reductions never form the dense rows
                    assert "matrix" not in vars(system)
                a = system.matrix
                assert a.shape == (system.n_rows, size)
                for value, reference in zip(
                    out, [x @ a.T, a @ x[0], y @ a, a.T @ y[0], (a * w) @ a.T]
                ):
                    assert value.shape == reference.shape
                    scale = np.abs(reference).max() if dims in self.RELATIVE else 1.0
                    assert np.abs(value - reference).max() <= 1e-14 * scale


class TestOneMode:
    # under V the one sum along the one mode is 1: the slice is the
    # probability simplex and the marginal constrains nothing
    @pytest.mark.parametrize("variant, value", [("V", 1.0), ("U", 2.3)])
    def test_v_ignores_the_marginal(self, variant, value):
        problem = MarginalProblem(np.array([1.0, 2.0, 3.0]), (np.array([0.2, 0.3, 0.5]),), variant)
        assert solve_lp(problem).value == pytest.approx(value, abs=1e-12)
        assert short_step_solve(problem, SolverConfig(1e-8)).value == pytest.approx(value, abs=1e-8)


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
        assert not np.any(system.matrix @ mat)

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

    @pytest.mark.parametrize("variant", ["U", "V"])
    @pytest.mark.parametrize(
        "dims", [(2,), (1, 4), (3, 3), (2, 2, 2), (3, 2, 2), (2, 3, 4), (2, 3, 2, 3), (4, 4, 4)]
    )
    def test_exact_kronecker_basis(self, dims, variant):
        problem = uniform_problem(dims, variant=variant)
        basis = null_basis_matrix(problem)
        rank = np.linalg.matrix_rank(basis) if basis.size else 0
        assert basis.shape == (problem.size, null_space_dim(problem))
        assert rank == null_space_dim(problem)
        # 0/1 rows against columns of 0 and +-1: the products are exact
        assert not np.any(problem.constraints.matrix @ basis)
        if variant == "V" or len(dims) == 2:
            expected = functools.reduce(np.kron, [differences(n) for n in dims])
            assert np.array_equal(basis, expected)


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
        # the Newton workspace calls these with and without a batch axis
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

    def test_u_rows_pinned(self):
        problem = MarginalProblem(
            cost=np.zeros((2, 3)),
            marginals=(np.array([0.25, 0.75]), np.array([0.125, 0.375, 0.5])),
        )
        system = ConstraintSystem(problem)
        assert np.array_equal(
            system.matrix,
            np.array(
                [
                    [1, 1, 1, 0, 0, 0],
                    [1, 0, 0, 1, 0, 0],
                    [0, 1, 0, 0, 1, 0],
                    [1, 1, 1, 1, 1, 1],
                ],
                dtype=float,
            ),
        )
        assert np.array_equal(system.rhs, [0.25, 0.125, 0.375, 1.0])

    def test_v_rows_pinned(self):
        # mode 0 sums at (i_1, i_2) in row-major order, then mode 1 sums at
        # i_0 = 0, then the mode 2 sum at i_0 = i_1 = 0
        p, q, r = np.array([0.25, 0.75]), np.array([0.375, 0.625]), np.array([0.125, 0.875])
        problem = MarginalProblem(cost=np.zeros((2, 2, 2)), marginals=(p, q, r), variant="V")
        system = ConstraintSystem(problem)
        assert np.array_equal(
            system.matrix,
            np.array(
                [
                    [1, 0, 0, 0, 1, 0, 0, 0],
                    [0, 1, 0, 0, 0, 1, 0, 0],
                    [0, 0, 1, 0, 0, 0, 1, 0],
                    [0, 0, 0, 1, 0, 0, 0, 1],
                    [1, 0, 1, 0, 0, 0, 0, 0],
                    [0, 1, 0, 1, 0, 0, 0, 0],
                    [1, 1, 0, 0, 0, 0, 0, 0],
                ],
                dtype=float,
            ),
        )
        assert np.array_equal(
            system.rhs,
            [q[0] * r[0], q[0] * r[1], q[1] * r[0], q[1] * r[1], p[0] * r[0], p[0] * r[1], p[0] * q[0]],
        )

    def test_start_point_satisfies_system(self):
        for variant in ("U", "V"):
            problem = uniform_problem((3, 2, 2), variant=variant)
            system = ConstraintSystem(problem)
            x = start_point(problem).ravel()
            assert np.abs(system.matrix @ x - system.rhs).max() <= 1e-12


class TestFeasible:
    def test_simplex_optimizer_feasible(self):
        rng = np.random.default_rng(24)
        cost = rng.integers(0, 10, size=(3, 3)).astype(float)
        problem = uniform_problem((3, 3), cost=cost)
        result = solve_lp(problem)
        assert float(result.x.min()) >= -1e-8
        assert residual_norm(problem, result.x.reshape(3, 3)) <= 1e-8


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
        problems = [random_problem(dims, rng) for dims in [(3, 3), (2, 2, 2)] for _ in range(4)]
        ((_, ok, detail),) = verify.vertex_band_checks("vertex-band", verify.vertex_band(problems))
        assert ok, detail
