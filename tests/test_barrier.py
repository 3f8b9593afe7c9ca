import numpy as np
import pytest

from totipm.barrier import (
    CertificateError,
    check_self_concordance,
    complexity_value,
    directional_forms,
    pseudo_quadratic,
)
from totipm.polytope import (
    MarginalProblem,
    null_basis_matrix,
    random_interior_point,
    start_point,
)


def sigma(u):
    return float(-np.log(u).sum())


def fd_third_form(u, v, h=1e-3):
    # third derivative of t -> sigma(u + t v) via the five-point stencil
    def phi(t):
        return sigma(u + t * v)

    return (phi(2 * h) - 2 * phi(h) + 2 * phi(-h) - phi(-2 * h)) / (2.0 * h**3)


def uniform_problem(dims, variant="U"):
    return MarginalProblem(
        cost=np.zeros(dims),
        marginals=tuple(np.full(n, 1.0 / n) for n in dims),
        variant=variant,
    )


class TestDirectionalForms:
    def test_all_ones(self):
        sample = directional_forms(np.ones(4), np.ones(4))
        assert sample.second == 4.0
        assert sample.third == -8.0

    def test_zero_direction(self):
        sample = directional_forms(np.ones(4), np.zeros(4))
        assert sample.second == 0.0
        assert sample.third == 0.0

    def test_third_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        u = rng.uniform(0.5, 2.0, size=6)
        v = rng.normal(size=6)
        sample = directional_forms(u, v)
        ref = fd_third_form(u, v)
        assert abs(sample.third - ref) / max(abs(ref), 1.0) <= 1e-4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            directional_forms(np.array([1.0, 0.0]), np.ones(2))


class TestSelfConcordance:
    def test_random_samples_hold(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            u = rng.uniform(0.05, 3.0, size=n)
            v = rng.normal(size=n)
            ok, slack = check_self_concordance(directional_forms(u, v))
            assert ok
            assert slack >= -1e-12

    def test_single_coordinate_equality(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            u = rng.uniform(0.1, 2.0, size=n)
            v = np.zeros(n)
            v[int(rng.integers(0, n))] = rng.normal()
            ok, slack = check_self_concordance(directional_forms(u, v))
            assert ok
            assert abs(slack) <= 1e-12


class TestPseudoQuadratic:
    def test_identity(self):
        rng = np.random.default_rng(36)
        y = rng.normal(size=5)
        assert pseudo_quadratic(np.eye(5), y) == pytest.approx(
            float(y @ y), abs=1e-12
        )

    def test_rank_one_equals_one(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            y = rng.normal(size=4)
            assert pseudo_quadratic(np.outer(y, y), y) == pytest.approx(1.0, abs=1e-10)

    def test_matches_concave_maximization(self):
        # the value equals max_u 2 y.u - u^T A u; lstsq solves that
        # first-order condition by a different (SVD) route than eigh
        rng = np.random.default_rng(38)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(1, n + 1))
            m = rng.normal(size=(n, rank))
            a = m @ m.T
            y = a @ rng.normal(size=n)
            u_star = np.linalg.lstsq(a, y, rcond=None)[0]
            ref = float(2.0 * y @ u_star - u_star @ a @ u_star)
            assert pseudo_quadratic(a, y) == pytest.approx(ref, abs=1e-6)

    def test_dominance_cap(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            n = 5
            y = rng.normal(size=n)
            m = rng.normal(size=(n, n))
            a = np.outer(y, y) + m @ m.T
            assert pseudo_quadratic(a, y) <= 1.0 + 1e-10

    def test_monotone_under_dominance(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = 4
            y = rng.normal(size=n)
            m1 = rng.normal(size=(n, n))
            m2 = rng.normal(size=(n, n))
            a_small = np.outer(y, y) + m1 @ m1.T
            a_big = a_small + m2 @ m2.T
            assert pseudo_quadratic(a_big, y) <= pseudo_quadratic(a_small, y) + 1e-8

    def test_kernel_violation_rejected(self):
        a = np.diag([1.0, 0.0])
        with pytest.raises(CertificateError):
            pseudo_quadratic(a, np.array([1.0, 0.5]))

    def test_asymmetric_rejected(self):
        with pytest.raises(CertificateError):
            pseudo_quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))

    def test_indefinite_rejected(self):
        with pytest.raises(CertificateError):
            pseudo_quadratic(np.diag([1.0, -1.0]), np.array([1.0, 0.0]))

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            pseudo_quadratic(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="infs or NaNs"):
            pseudo_quadratic(np.eye(2), [bad, 1.0])

    def test_eigendecomposition_is_scipy_eigh(self):
        # the same bits as through scipy.linalg.eigh, also above the size
        # at which the reduction to tridiagonal form works in blocks
        import scipy.linalg

        rng = np.random.default_rng(44)
        for n in (5, 40):
            m = rng.normal(size=(n, n - 1))
            a = m @ m.T
            y = a @ rng.normal(size=n)
            w, q = scipy.linalg.eigh(a)
            kernel = w <= 1e-10 * w[-1]
            z = q.T @ y
            assert pseudo_quadratic(a, y) == float(np.sum(z[~kernel] ** 2 / w[~kernel]))


class TestComplexityValue:
    def test_unrestricted_equals_count(self):
        rng = np.random.default_rng(41)
        for n in (4, 8, 27):
            for _ in range(10):
                u = rng.uniform(0.05, 3.0, size=n)
                assert complexity_value(u) == pytest.approx(float(n), abs=1e-10)

    def test_restricted_at_uniform_start(self):
        problem = uniform_problem((2, 2))
        value = complexity_value(start_point(problem), null_basis_matrix(problem))
        assert value <= 4.0 + 1e-10

    def test_restricted_bounded_by_count(self):
        rng = np.random.default_rng(42)
        for dims, variant in [((3, 3), "U"), ((2, 2, 2), "U"), ((2, 2, 2), "V")]:
            problem = uniform_problem(dims, variant=variant)
            basis = null_basis_matrix(problem)
            for _ in range(25):
                u = random_interior_point(problem, rng)
                assert complexity_value(u, basis) <= problem.size + 1e-8

    def test_restricted_hessian_positive_definite(self):
        rng = np.random.default_rng(43)
        problem = uniform_problem((3, 3))
        basis = null_basis_matrix(problem)
        for _ in range(10):
            u = random_interior_point(problem, rng).ravel()
            reduced = (basis * (1.0 / u**2)[:, None]).T @ basis
            assert np.linalg.eigvalsh(reduced)[0] > 0.0

    def test_empty_basis(self):
        assert complexity_value(np.array([0.5, 0.5]), np.zeros((2, 0))) == 0.0

    def test_zero_basis_column_is_lin_alg_error(self):
        # the restricted Hessian is then singular, and its Cholesky breaks down
        problem = uniform_problem((3, 3))
        basis = null_basis_matrix(problem)
        basis = np.hstack([basis, np.zeros((basis.shape[0], 1))])
        with pytest.raises(np.linalg.LinAlgError):
            complexity_value(start_point(problem), basis)

    def test_non_finite_input_rejected(self):
        problem = uniform_problem((2, 2))
        u = start_point(problem).ravel()
        basis = null_basis_matrix(problem)
        with pytest.raises(ValueError, match="infs or NaNs"):
            complexity_value(np.where(np.arange(u.size) == 0, np.nan, u), basis)
        with pytest.raises(ValueError, match="infs or NaNs"):
            complexity_value(u, np.where(basis != 0.0, np.inf, basis))
