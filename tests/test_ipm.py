import numpy as np
import pytest
import scipy.optimize

from streams import (
    criterion_01_problems,
    criterion_02_problems,
    random_problem,
    uniform_problem,
)

import totipm._lapack as _lapack
import totipm.ipm as ipm
import totipm.polytope as polytope
from totipm.ipm import (
    DEFAULT_C0,
    NonConvergenceError,
    SolverConfig,
    SolverError,
    newton_direction,
    predicted_iterations,
    short_step_solve,
)
from totipm.instances import SplitMix64, random_instance
from totipm.oracle import solve_lp
from totipm.polytope import (
    ConstraintSystem,
    MarginalProblem,
    null_basis_matrix,
    random_interior_point,
    residual_norm,
    start_point,
)


class TestSolverConfig:
    def test_defaults_valid(self):
        config = SolverConfig()
        assert config.epsilon == 1e-6
        assert config.decrement_beta == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"decrement_beta": 0.0},
            {"decrement_beta": 0.3},
            {"max_iterations": -1},
            {"max_iterations": 0},
            {"epsilon": float("nan")},
            {"max_iterations": float("nan")},
            {"epsilon": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # decrement_beta is a class constant and the iteration budget a module
        # constant, so neither is a setting
        not_settings = {"decrement_beta", "max_iterations"}
        with pytest.raises(TypeError if not_settings & kwargs.keys() else ValueError):
            SolverConfig(**kwargs)


class TestNewtonDirection:
    def test_zero_at_symmetric_center(self):
        problem = uniform_problem((2, 2))
        delta, dec = newton_direction(problem, np.full((2, 2), 0.25), eta=0.0)
        assert np.abs(delta).max() <= 1e-14
        assert dec <= 1e-14

    def test_direction_stays_in_null_space(self):
        rng = np.random.default_rng(61)
        problem = random_problem((3, 3), rng)
        u = random_interior_point(problem, rng)
        delta, _ = newton_direction(problem, u, eta=2.0)
        base = residual_norm(problem, u)
        for t in (0.25, 0.5, 1.0):
            assert abs(residual_norm(problem, u + t * delta) - base) <= 1e-10

    def test_decrement_matches_null_basis_route(self):
        # reference: the reduced Hessian in the explicit null basis
        rng = np.random.default_rng(62)
        for dims, variant in (((2, 2), "U"), ((3, 3), "V"), ((2, 3, 2), "V")):
            problem = random_problem(dims, rng, variant)
            basis = null_basis_matrix(problem)
            for _ in range(5):
                u = random_interior_point(problem, rng)
                eta = float(rng.uniform(0.5, 3.0))
                _, dec = newton_direction(problem, u, eta)
                flat = u.ravel()
                g = eta * problem.cost.ravel() - 1.0 / flat
                h_t = (basis * (1.0 / flat**2)[:, None]).T @ basis
                g_t = basis.T @ g
                dec_ref = float(np.sqrt(g_t @ np.linalg.solve(h_t, g_t)))
                assert dec == pytest.approx(dec_ref, abs=1e-10)

    def test_matches_dense_kkt_oracle(self):
        rng = np.random.default_rng(63)
        for dims, variant in (((3, 3), "U"), ((3, 3), "V"), ((2, 3, 2), "V")):
            problem = random_problem(dims, rng, variant)
            a = ConstraintSystem(problem).matrix
            m, size = a.shape
            for _ in range(3):
                u = random_interior_point(problem, rng)
                eta = float(rng.uniform(0.5, 2.0))
                delta, _ = newton_direction(problem, u, eta)
                flat = u.ravel()
                g = eta * problem.cost.ravel() - 1.0 / flat
                kkt = np.zeros((size + m, size + m))
                kkt[:size, :size] = np.diag(1.0 / flat**2)
                kkt[:size, size:] = a.T
                kkt[size:, :size] = a
                rhs = np.concatenate([-g, np.zeros(m)])
                ref = np.linalg.solve(kkt, rhs)[:size]
                assert np.abs(delta.ravel() - ref).max() <= 1e-8

    def test_rejects_negative_eta(self):
        problem = uniform_problem((2, 2))
        for eta in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                newton_direction(problem, start_point(problem), eta=eta)

    def test_tables_built_once_per_problem(self, monkeypatch):
        # newton_direction reuses the problem's ConstraintSystem: a second
        # call builds neither the row table nor the reduction tables again,
        # and each call gives the bytes a fresh problem gives
        built = []
        for name in ("_row_table", "_sum_layout"):
            def counted(*args, _name=name, _build=getattr(polytope, name), **kwargs):
                built.append(_name)
                return _build(*args, **kwargs)

            monkeypatch.setattr(polytope, name, counted)
        reductions_only(monkeypatch)
        rng = np.random.default_rng(71)
        for variant in ("U", "V"):
            problem = random_problem((3, 4, 2), rng, variant)

            def twin():
                return MarginalProblem(cost=problem.cost, marginals=problem.marginals, variant=variant)

            u = random_interior_point(twin(), rng)
            built.clear()
            results = [newton_direction(problem, u, eta) for eta in (2.0, 5.0)]
            assert built == ["_row_table", "_sum_layout", "_sum_layout"]
            for eta, (delta, dec) in zip((2.0, 5.0), results):
                ref_delta, ref_dec = newton_direction(twin(), u, eta)
                assert delta.tobytes() == ref_delta.tobytes()
                assert dec == ref_dec


# criterion-1 trials whose eps 1e-8 paths end at a degenerate vertex, where
# the normal matrix loses rank: without the QR tail they fail
TAIL_TRIALS = (0, 4, 6, 16, 18)
# further trials to sample, with random marginals and d = 3 (44 also ends
# in the tail).  On 35 and 49 a warm start that carried A^T y - eta c from
# step to step, rather than mapping A^T y afresh, strayed from the QR
# decrement by up to 2e-5
SAMPLE_TRIALS = TAIL_TRIALS + (5, 27, 33, 35, 44, 49)


def qr_decrement(problem, u, eta):
    """Decrement from Householder QR of diag(u) A^T, the route of the QR tail."""
    workspace = ipm._NewtonWorkspace(problem)
    workspace.start_tail()
    w = workspace.scaled_steps(u.ravel(), (eta,))[0]
    return float(np.sqrt(w @ w))


def reductions_only(patch):
    """Make every ConstraintSystem built under ``patch`` apply its rows by
    reductions in all three operations, whatever its size."""
    patch.setattr(polytope, "_DENSE_CROSSOVER", -1)
    patch.setattr(polytope, "_DENSE_PRODUCT_CROSSOVER", -1)


def eps8_solves(problems, trials, by_reductions=False):
    """Per trial: problem, report, trace states and the number of times the
    solve entered the QR tail, from eps 1e-8 solves."""
    entries = []
    start_tail = ipm._NewtonWorkspace.start_tail

    def counted(workspace):
        entries.append(workspace)
        start_tail(workspace)

    paths = {}
    with pytest.MonkeyPatch.context() as patch:
        if by_reductions:
            reductions_only(patch)
        patch.setattr(ipm._NewtonWorkspace, "start_tail", counted)
        for trial in trials:
            states = []
            report = short_step_solve(
                problems[trial], SolverConfig(epsilon=1e-8), observer=states.append
            )
            # the problem's one ConstraintSystem was built under the patch
            system = problems[trial].constraints
            assert system._dense_normal == system._dense_products == (not by_reductions)
            paths[trial] = (problems[trial], report, states, len(entries))
            entries.clear()
    return paths


def worst_qr_gaps(paths, by_reductions=False):
    """Sampled path points, and the largest distance of the path decrement
    (warm) and of a fresh workspace's decrement from the QR one."""
    worst_warm = worst_fresh = 0.0
    count = 0
    with pytest.MonkeyPatch.context() as patch:
        if by_reductions:
            reductions_only(patch)
        for problem, _, states, _ in paths.values():
            for state in states[:: max(1, len(states) // 25)]:
                ref = qr_decrement(problem, state.point, state.eta)
                _, fresh = newton_direction(problem, state.point, state.eta)
                worst_warm = max(worst_warm, abs(state.decrement - ref))
                worst_fresh = max(worst_fresh, abs(fresh - ref))
                count += 1
    return count, worst_warm, worst_fresh


def assert_certified_paths(paths):
    for problem, report, states, _ in paths.values():
        assert report.gap_bound <= 1e-8
        assert len(states) == len(report.trace)
        for state in states:
            assert state.decrement <= 0.25
            assert residual_norm(problem, state.point) <= 1e-8
            assert state.point.min() > 0.0


@pytest.fixture(scope="module")
def eps8_paths():
    return eps8_solves(criterion_01_problems(), SAMPLE_TRIALS)


@pytest.fixture(scope="module")
def v_eps8_paths():
    return eps8_solves(criterion_02_problems(), range(20))


# the criterion streams lie below the crossover; these solve them by
# reductions only
@pytest.fixture(scope="module")
def eps8_paths_by_reductions():
    return eps8_solves(criterion_01_problems(), SAMPLE_TRIALS, by_reductions=True)


@pytest.fixture(scope="module")
def v_eps8_paths_by_reductions():
    return eps8_solves(criterion_02_problems(), range(20), by_reductions=True)


class TestStructuredNewton:
    def test_decrement_pinned_to_qr(self, eps8_paths):
        count, worst_warm, worst_fresh = worst_qr_gaps(eps8_paths)
        assert count >= 200
        assert worst_warm <= 1e-6
        assert worst_fresh <= 1e-6

    def test_degenerate_paths_certify_through_qr_tail(self, eps8_paths):
        tail_paths = {trial: eps8_paths[trial] for trial in TAIL_TRIALS}
        assert_certified_paths(tail_paths)
        assert any(entries > 0 for *_, entries in tail_paths.values())

    def test_v_decrement_pinned_to_qr(self, v_eps8_paths):
        count, worst_warm, worst_fresh = worst_qr_gaps(v_eps8_paths)
        assert count >= 200
        assert worst_warm <= 1e-6
        assert worst_fresh <= 1e-6

    def test_v_paths_certify_through_qr_tail(self, v_eps8_paths):
        assert_certified_paths(v_eps8_paths)
        assert any(entries > 0 for *_, entries in v_eps8_paths.values())

    def test_decrement_pinned_to_qr_by_reductions(self, eps8_paths_by_reductions):
        count, worst_warm, worst_fresh = worst_qr_gaps(eps8_paths_by_reductions, by_reductions=True)
        assert count >= 200
        assert worst_warm <= 1e-6
        assert worst_fresh <= 1e-6
        assert_certified_paths(eps8_paths_by_reductions)

    def test_v_decrement_pinned_to_qr_by_reductions(self, v_eps8_paths_by_reductions):
        count, worst_warm, worst_fresh = worst_qr_gaps(v_eps8_paths_by_reductions, by_reductions=True)
        assert count >= 200
        assert worst_warm <= 1e-6
        assert worst_fresh <= 1e-6
        assert_certified_paths(v_eps8_paths_by_reductions)

    def test_cholesky_holds_to_qr_until_the_tail(self):
        # near the vertex of a 2x2 the condition number of the normal matrix
        # grows like 1 / tiny^2: Cholesky with CSNE still gives the QR step
        # at 1e-7, and potrf breaks down at 1e-9
        problem = uniform_problem((2, 2))
        etas = (1.0, 3.0)
        for tiny, tail in ((1e-5, False), (1e-7, False), (1e-9, True)):
            u = np.array([0.5, tiny, tiny, 0.5])
            workspace = ipm._NewtonWorkspace(problem)
            w = workspace.scaled_steps(u, etas)
            assert (workspace.rows is not None) == tail
            qr = ipm._NewtonWorkspace(problem)
            qr.start_tail()
            assert np.abs(w - qr.scaled_steps(u, etas)).max() <= 1e-12

    def test_unsettled_csne_starts_qr_tail(self, monkeypatch):
        # a CSNE that never settles gives up after _MAX_CSNE_STEPS steps
        potrs = _lapack.dpotrs
        solves = []

        def counted(factor, b, **kwargs):
            solves.append(b)
            return potrs(factor, b, **kwargs)

        monkeypatch.setattr(_lapack, "dpotrs", counted)
        monkeypatch.setattr(ipm, "_CSNE_SETTLED", float("nan"))
        workspace = ipm._NewtonWorkspace(uniform_problem((2, 3)))
        workspace.scaled_steps(np.full(6, 1.0 / 6.0), (1.0, 3.0))
        assert workspace.rows is not None
        assert len(solves) == 1 + ipm._MAX_CSNE_STEPS

    @pytest.mark.parametrize("cut", [2**62, -1], ids=["dense", "reductions"])
    def test_warm_start_is_exact_at_a_fixed_iterate(self, cut, monkeypatch):
        # the multipliers y, and with them A^T y, are affine in eta, so the
        # stacked lines of two solved rows give both at any other eta; on
        # each side of the cut for apply and adjoint
        monkeypatch.setattr(polytope, "_DENSE_PRODUCT_CROSSOVER", cut)
        rng = np.random.default_rng(70)
        problem = random_problem((3, 4), rng)
        assert problem.constraints._dense_products == (cut > 0)
        u = random_interior_point(problem, rng).ravel()
        workspace = ipm._NewtonWorkspace(problem)
        workspace.scaled_steps(u, (2.0, 3.0))
        coef = np.array([1.0, (5.0 - workspace.eta0) / workspace.span, -5.0])
        y = coef[:2] @ workspace.ys
        aty = coef[:2] @ workspace.lines[:2]
        cold = ipm._NewtonWorkspace(problem)
        cold.scaled_steps(u, (5.0,))
        assert np.allclose(y, cold.ys[0], rtol=1e-9, atol=1e-12)
        assert np.allclose(aty, cold.lines[0], rtol=1e-9, atol=1e-12)
        # one eta leaves a line of zero change
        assert not cold.ys[1].any() and not cold.lines[1].any()
        # both match the y that solves A diag(u^2) A^T y = A diag(u) dg +
        # (b - A u) at eta = 5, and the fused product with the cost row
        # gives the first w = u A^T y - dg
        a, b, c = problem.constraints.matrix, problem.constraints.rhs, problem.cost.ravel()
        dg = 5.0 * u * c - 1.0
        ref = np.linalg.solve((a * u * u) @ a.T, a @ (u * dg) + b - a @ u)
        assert np.allclose(y, ref, rtol=1e-9, atol=1e-12)
        assert np.allclose(aty, a.T @ ref, rtol=1e-9, atol=1e-12)
        assert np.array_equal(workspace.lines[2], c)
        assert np.allclose(coef @ (u * workspace.lines) + 1.0, u * (a.T @ ref) - dg, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("cut", [2**62, -1], ids=["dense", "reductions"])
    def test_one_eta_matches_first_of_two(self, cut, monkeypatch):
        # newton_direction asks for one eta: its line buffer keeps two rows,
        # and the step is the first row of a two-eta call at the iterate
        monkeypatch.setattr(polytope, "_DENSE_PRODUCT_CROSSOVER", cut)
        rng = np.random.default_rng(76)
        for dims, variant in (((3, 4), "U"), ((2, 3, 2), "V")):
            problem = random_problem(dims, rng, variant)
            assert problem.constraints._dense_products == (cut > 0)
            u = random_interior_point(problem, rng).ravel()
            for eta in (1.0, 40.0):
                one = ipm._NewtonWorkspace(problem).scaled_steps(u, (eta,))
                two = ipm._NewtonWorkspace(problem).scaled_steps(u, (eta, 2.0 * eta))
                assert one.shape == (1, problem.size)
                assert np.abs(one[0] - two[0]).max() <= 1e-12

    @pytest.mark.parametrize("cuts", [(2**62, 2**62), (-1, 2**62), (2**62, -1), (-1, -1)])
    def test_settle_identity(self, cuts, monkeypatch):
        # a CSNE pass settles on z^T gap, the squared norm of the move
        # u A^T z that it skips computing: z solves M z = gap, so z^T gap =
        # z^T A diag(u^2) A^T z; on each side of both cuts
        monkeypatch.setattr(polytope, "_DENSE_CROSSOVER", cuts[0])
        monkeypatch.setattr(polytope, "_DENSE_PRODUCT_CROSSOVER", cuts[1])
        rng = np.random.default_rng(74)
        for dims, variant in (((4, 5), "U"), ((2, 3, 4), "U"), ((3, 4), "V"), ((3, 3, 3), "V")):
            problem = random_problem(dims, rng, variant)
            system = ConstraintSystem(problem)
            assert (system._dense_normal, system._dense_products) == (cuts[0] > 0, cuts[1] > 0)
            for _ in range(3):
                u = random_interior_point(problem, rng).ravel()
                chol, info = _lapack.dpotrf(system.normal_matrix(u * u), lower=1, clean=0)
                assert info == 0
                gap = rng.normal(size=(2, system.n_rows))
                z, _ = _lapack.dpotrs(chol, gap.T, lower=1)
                move = u * system.adjoint(z.T)
                assert np.vdot(z.T, gap) == pytest.approx(np.vdot(move, move), rel=1e-10)

    def test_lost_rank_in_tail_is_solver_error(self, monkeypatch):
        # a zero on the diagonal of the tail's R (trtrs info > 0) is a
        # typed solver failure
        monkeypatch.setattr(_lapack, "dtrtrs", lambda a, b, **kwargs: (np.zeros(len(b)), 1))
        workspace = ipm._NewtonWorkspace(uniform_problem((2, 3)))
        workspace.start_tail()
        with pytest.raises(SolverError, match="lost rank"):
            workspace.scaled_steps(np.full(6, 1.0 / 6.0), (1.0,))

    def test_call_budget_per_step(self, monkeypatch):
        # a Cholesky step that settles on its first CSNE step makes one
        # normal_matrix, two apply, two potrs and one adjoint call: the
        # warm start extrapolates A^T y, which the first pass's adjoint call
        # maps along with its correction, and the settling pass skips its
        # adjoint
        counts = {}

        def counting(name, call):
            def counted(*args, **kwargs):
                counts[name] += 1
                return call(*args, **kwargs)

            return counted

        for name in ("apply", "adjoint", "normal_matrix"):
            monkeypatch.setattr(ConstraintSystem, name, counting(name, getattr(ConstraintSystem, name)))
        monkeypatch.setattr(_lapack, "dpotrs", counting("potrs", _lapack.dpotrs))
        scaled_steps = ipm._NewtonWorkspace.scaled_steps
        steps = []

        def recorded(workspace, u, etas):
            counts.update(dict.fromkeys(("apply", "adjoint", "normal_matrix", "potrs"), 0))
            w = scaled_steps(workspace, u, etas)
            assert workspace.rows is None
            steps.append((counts["apply"], counts["adjoint"], counts["normal_matrix"], counts["potrs"]))
            return w

        monkeypatch.setattr(ipm._NewtonWorkspace, "scaled_steps", recorded)
        rng = np.random.default_rng(75)
        for dims, variant in (((6, 6), "U"), ((3, 3, 3), "V")):
            steps.clear()
            report = short_step_solve(random_problem(dims, rng, variant), SolverConfig(epsilon=1e-6))
            assert len(steps) == report.iterations + 1
            assert set(steps) == {(2, 1, 1, 2)}

    def test_no_dense_rows_without_tail(self, monkeypatch):
        # above both crossovers only the QR tail reads the dense rows
        def refuse(system):
            raise AssertionError("dense constraint rows built")

        reductions_only(monkeypatch)
        monkeypatch.setattr(ConstraintSystem, "matrix", property(refuse))
        rng = np.random.default_rng(69)
        for variant in ("U", "V"):
            problem = random_problem((4, 5), rng, variant)
            report = short_step_solve(problem, SolverConfig(epsilon=1e-4))
            assert report.gap_bound <= 1e-4


class TestCenter:
    """Phase I of short_step_solve: centering at eta = 1 from the product of
    the marginals."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_maximizes_log_sum(self):
        # the Phase I end point, the first observed state, minimizes
        # <c, u> - sum(log u) over the slice; compare against a
        # constrained-optimization oracle (SLSQP clips bounds internally
        # during line search, hence the warning filter)
        rng = np.random.default_rng(64)
        problem = random_problem((3, 3), rng)
        states = []
        short_step_solve(problem, SolverConfig(epsilon=1e-2), observer=states.append)
        assert states[0].eta == 1.0
        c = problem.cost.ravel()
        point = states[0].point.ravel()
        achieved = float(c @ point - np.log(point).sum())
        a = ConstraintSystem(problem).matrix
        b = ConstraintSystem(problem).rhs
        x0 = start_point(problem).ravel()
        result = scipy.optimize.minimize(
            lambda x: c @ x - np.log(np.maximum(x, 1e-12)).sum(),
            x0,
            jac=lambda x: c - 1.0 / np.maximum(x, 1e-12),
            constraints=[{"type": "eq", "fun": lambda x: a @ x - b}],
            bounds=[(1e-9, None)] * x0.size,
            method="SLSQP",
            options={"maxiter": 200, "ftol": 1e-12},
        )
        assert achieved <= result.fun + 1e-6

    def test_domain_error_on_boundary_point(self):
        problem = uniform_problem((2, 2))
        u0 = start_point(problem).copy()
        u0[0, 0] = 1e-301
        with pytest.raises(SolverError):
            newton_direction(problem, u0, eta=1.0)

    def test_nonconvergence_budget(self, monkeypatch):
        problem = MarginalProblem(
            cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
            marginals=(np.array([0.3, 0.7]), np.array([0.5, 0.5])),
        )
        monkeypatch.setattr(ipm, "_MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergenceError, match="centering at eta"):
            short_step_solve(problem)


class TestShortStepSolve:
    def test_zero_cost_matching(self):
        problem = uniform_problem((2, 2), [[0.0, 1.0], [1.0, 0.0]])
        report = short_step_solve(problem)
        assert report.value <= 1e-6
        assert report.gap_bound <= 1e-6

    def test_skewed_known_value(self):
        problem = MarginalProblem(
            cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
            marginals=(np.array([0.5, 0.5]), np.array([0.25, 0.75])),
        )
        report = short_step_solve(problem)
        assert report.value == pytest.approx(0.25, abs=1e-6)

    def test_d3_matches_oracle(self):
        rng = np.random.default_rng(65)
        problem = uniform_problem((2, 2, 2), rng.integers(0, 10, size=(2, 2, 2)))
        report = short_step_solve(problem)
        assert report.value == pytest.approx(solve_lp(problem).value, abs=1e-6)

    def test_trace_invariants(self):
        rng = np.random.default_rng(66)
        problem = random_problem((3, 3), rng)
        config = SolverConfig(epsilon=1e-4)
        report = short_step_solve(problem, config)
        growth = 1.0 + ipm._SHORT_STEP_GAMMA / np.sqrt(report.theta)
        gaps = [row.gap_bound for row in report.trace]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        for row in report.trace:
            assert row.decrement <= config.decrement_beta
        for prev, cur in zip(report.trace, report.trace[1:]):
            assert cur.eta / prev.eta >= growth * (1.0 - 1e-15)
        assert report.gap_bound <= config.epsilon
        assert report.theta == 9.0

    def test_final_iterate_feasible(self):
        rng = np.random.default_rng(67)
        for variant in ("U", "V"):
            problem = random_problem((2, 2, 2), rng, variant=variant)
            report = short_step_solve(problem)
            assert report.optimizer.min() > 0.0
            assert residual_norm(problem, report.optimizer) <= 1e-8

    def test_last_step_stops_at_target(self):
        # the last step lands on theta / epsilon, not past it, unless the
        # short step alone goes past; past it lies the rounding floor
        rng = np.random.default_rng(67)
        config = SolverConfig()
        for variant in ("U", "V"):
            problem = random_problem((2, 2, 2), rng, variant=variant)
            report = short_step_solve(problem, config)
            growth = 1.0 + ipm._SHORT_STEP_GAMMA / np.sqrt(report.theta)
            prev, last = report.trace[-2:]
            assert last.eta <= max(report.theta / config.epsilon, prev.eta * growth)

    def test_pre_step_decrement_within_radius(self):
        # each step goes to an eta at which the decrement at the iterate it
        # starts from is at most sqrt(beta) / (1 + sqrt(beta)), 1/3 here
        radius = np.sqrt(0.25) / (1.0 + np.sqrt(0.25))
        rng = np.random.default_rng(72)
        for variant in ("U", "V"):
            for dims in ((3, 4), (2, 3, 2)):
                problem = random_problem(dims, rng, variant)
                states = []
                short_step_solve(problem, observer=states.append)
                assert len(states) > 2
                for prev, cur in zip(states, states[1:]):
                    _, dec = newton_direction(problem, prev.point, cur.eta)
                    assert dec <= radius + 1e-9

    def test_no_more_steps_than_fixed_growth(self):
        # every step grows eta by at least the fixed short step's factor
        config = SolverConfig()
        for problem in criterion_01_problems() + criterion_02_problems():
            report = short_step_solve(problem, config)
            growth = 1.0 + ipm._SHORT_STEP_GAMMA / np.sqrt(report.theta)
            fixed = np.ceil(np.log(report.theta / config.epsilon) / np.log(growth))
            assert len(report.trace) - 1 <= fixed

    def test_cost_constant_on_slice_takes_longest_steps(self):
        # the scaled step does not move with eta, so only the extrapolation
        # cap and theta / epsilon bound each step
        problem = uniform_problem((3, 3))
        config = SolverConfig()
        report = short_step_solve(problem, config)
        growth = 1.0 + ipm._SHORT_STEP_GAMMA / np.sqrt(report.theta)
        longest = 1.0 + ipm._MAX_EXTRAPOLATION * (growth - 1.0)
        for prev, cur in zip(report.trace, report.trace[1:]):
            expected = min(prev.eta * longest, report.theta / config.epsilon)
            assert cur.eta == pytest.approx(expected, rel=1e-12)
        assert report.eta_final == report.theta / config.epsilon
        assert residual_norm(problem, report.optimizer) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(68)
        problem = random_problem((3, 3), rng)
        first = short_step_solve(problem, SolverConfig(epsilon=1e-4))
        second = short_step_solve(problem, SolverConfig(epsilon=1e-4))
        assert first.trace == second.trace
        assert first.value == second.value

    def test_observer_sees_every_row(self):
        problem = uniform_problem((2, 2), [[0.0, 1.0], [1.0, 0.0]])
        states = []
        report = short_step_solve(
            problem, SolverConfig(epsilon=1e-2), observer=states.append
        )
        assert len(states) == len(report.trace)
        assert states[-1].iteration == report.iterations

    def test_one_factor_per_iterate(self, monkeypatch):
        # the factor that ends Phase I starts Phase II: one factor at the
        # start point and one after each step
        calls = []
        scaled_steps = ipm._NewtonWorkspace.scaled_steps

        def counted(workspace, u, etas):
            calls.append(len(etas))
            return scaled_steps(workspace, u, etas)

        monkeypatch.setattr(ipm._NewtonWorkspace, "scaled_steps", counted)
        rng = np.random.default_rng(73)
        for variant in ("U", "V"):
            calls.clear()
            report = short_step_solve(random_problem((3, 4), rng, variant))
            assert len(calls) == report.iterations + 1
            assert set(calls) == {2}

    def test_v_certifies_near_rounding_floor(self):
        # V instances near the rounding floor at eps 1e-8: solved through a
        # QR of the null basis, each one's decrement exceeded beta
        for dims, seed in (((5, 2), 3), ((4, 4), 1), ((3, 3, 3), 3), ((6, 6), 1)):
            problem = random_instance(dims, "V", SplitMix64(seed), "random")
            states = []
            report = short_step_solve(
                problem, SolverConfig(epsilon=1e-8), observer=states.append
            )
            assert report.gap_bound <= 1e-8
            for state in states:
                assert state.decrement <= 0.25
                assert residual_norm(problem, state.point) <= 1e-8
            assert abs(report.value - solve_lp(problem).value) <= 1e-8

    def test_nonconvergence_budget(self, monkeypatch):
        problem = uniform_problem((2, 2), [[0.0, 1.0], [1.0, 0.0]])
        monkeypatch.setattr(ipm, "_MAX_ITERATIONS", 3)
        with pytest.raises(NonConvergenceError):
            short_step_solve(problem)

    def test_overflowing_decrement_fails_fast(self):
        # w @ w.T overflows to inf, and a damped step delta / (1 + inf)
        # would leave the iterate where it is until the budget runs out
        problem = uniform_problem((2, 2), [[1e200, 0.0], [0.0, 1e200]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(SolverError, match="at eta 1.0 is not finite") as failure:
                short_step_solve(problem)
        assert not isinstance(failure.value, NonConvergenceError)
        assert "cost scale 1e+200" in str(failure.value)


class TestPredictedIterations:
    def test_frozen_reference_value(self):
        # sqrt(16) * ln(sqrt(2)*16 / (1e-3 * 1/16)) evaluated independently
        # with 40-digit decimal arithmetic; C0 = 16 divides out exactly
        problem = uniform_problem((4, 4))
        assert predicted_iterations(problem, 1e-3) / DEFAULT_C0 == pytest.approx(
            51.19802525496669, abs=1e-10
        )

    def test_monotone_in_epsilon(self):
        problem = uniform_problem((4, 4))
        values = [predicted_iterations(problem, eps) for eps in (1e-2, 1e-4, 1e-6)]
        assert values[0] < values[1] < values[2]

    def test_uniform_reduction_identity(self):
        # with uniform marginals the bound collapses to
        # C0 n^{d/2} log(sqrt(2) eps^-1 n^{d(1+ell)} K^-d) at K = ell = 1
        for d, n in [(2, 4), (3, 3)]:
            problem = uniform_problem((n,) * d)
            eps = 1e-3
            reduced = (
                DEFAULT_C0
                * n ** (d / 2.0)
                * np.log(np.sqrt(2.0) / eps * float(n) ** (2 * d))
            )
            assert predicted_iterations(problem, eps) == pytest.approx(
                reduced, rel=1e-12
            )

    def test_never_negative(self):
        # past eps = sqrt(2) N / prod min p, 22.6 for a uniform 2x2, the log
        # term turns negative; it is floored at 0
        problem = uniform_problem((2, 2))
        assert predicted_iterations(problem, 22.0) > 0.0
        assert predicted_iterations(problem, 23.0) == 0.0
        assert predicted_iterations(problem, 1e300) == 0.0

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            predicted_iterations(uniform_problem((2, 2)), 0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            predicted_iterations(uniform_problem((2, 2)), float("inf"))

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError):
            predicted_iterations(uniform_problem((2, 2)), float("nan"))
