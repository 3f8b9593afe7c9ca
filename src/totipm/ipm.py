"""Short-step path-following interior point solver on the marginal slice.

Minimizes f_eta(u) = eta <c, u> + sigma(u), sigma the log barrier, over the
affine slice of a marginal problem.  Phase I centers at eta = 1 starting
from the product of the marginals; Phase II grows eta by the fixed factor
(1 + gamma / sqrt(theta)) and restores proximity with a single Newton step,
keeping the decrement at or below beta.  It stops once theta / eta <= epsilon,
at which point the objective is within epsilon of the optimum.

The Newton system uses the diagonal barrier Hessian.  Written in the scaled
step w = delta / u, the step is w = diag(u) A^T y - dg with dg = eta*u*c - 1,
the multipliers y solving A diag(u^2) A^T y = A diag(u) dg + (b - A u), and
the decrement is |w|.

Both variants solve that normal system directly, in one workspace, with
one operator: ConstraintSystem, whose rows are a table of the modes each
row fixes (the first n_k - 1 marginal rows of every mode and the total for
"U", the independent mode sums for "V").  On small problems it multiplies by
its dense 0/1 rows; above a size crossover it never forms them, applying A
as partial sums, A^T as broadcast sums, and gathering M = A diag(u^2) A^T
from the sums of u^2 over the modes each pair of rows leaves free.  LAPACK
potrf factors M once per iterate, and both Phase II solves (the trace
decrement at eta and the next direction at eta * growth) share that factor
as two right-hand sides.  Squaring the condition number this way is made
safe by two measures:

* warm start: the first solve is for the correction to the previous
  iterate's multipliers, extrapolated in eta (at a fixed iterate y is affine
  in eta), on the residual of the w they give.  Short steps move u little,
  so the correction and its rounding error are small, where a solve from
  y = 0 carries an error relative to |y|, which grows like eta;
* corrected seminormal equations (CSNE, Bjorck 1987): the next solve is on
  the residual recomputed from the vector w itself, and it is repeated
  while it still moves w by more than 1e-9 in norm.  Along a path one step
  nearly always suffices (all but 4 of 68 021 solves below); from a cold
  start, as in newton_direction, up to three.

Near a degenerate vertex M truly loses rank.  A solve therefore switches for
good to Householder QR of diag(u) A^T, reading the step off an orthogonal
projection of dg, once potrf breaks down, once the LAPACK estimate (pocon)
of the reciprocal condition number of M drops below 1e-12, or once CSNE has
not settled after six steps: pocon can miss the rank loss by many orders
(2e2 estimated against 7e14 measured at one d = 3 point).  Above the size
crossover, the dense rows of A are built only then.  The switch is one-way:
toward the vertex M only gets worse, and retrying Cholesky at every later
step found it usable for 119 of the 8 778 QR steps after the switch below.
Measured on the 50 criterion-1 instances at epsilon 1e-8: without the tail
16 fail, each on a potrf breakdown; with it all certify, QR takes 8 793 of
76 799 factorizations, and the decrement agrees with the QR one to 1.7e-7
at 1 295 sampled path points, warm or from a fresh workspace.  On the 20
criterion-2 (variant V) instances at epsilon 1e-8 all certify, 6 enter the
tail, QR takes 2 345 of 23 073 factorizations, and the decrement agrees
with the QR one to 1.9e-7 at 520 sampled path points, warm or fresh.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .polytope import MarginalProblem, start_point

__all__ = [
    "SolverConfig",
    "PathState",
    "TraceRow",
    "SolveReport",
    "SolverError",
    "NonConvergenceError",
    "StepSizeViolationError",
    "newton_direction",
    "center",
    "short_step_solve",
    "predicted_iterations",
    "DEFAULT_C0",
]

# calibration constant for the predicted iteration bound; the theory fixes
# only the sqrt(theta) log(..) shape, not the prefactor.  1/step_gamma = 16
# dominates the Phase II step count outright (the bound's log term is never
# smaller than the path's log(theta/epsilon), because min_i p <= 1/n per
# mode), and measured totals on d=2,3 uniform ladders sit at 11x-13x the
# C0=1 value, leaving headroom for Phase I centering
DEFAULT_C0 = 16.0

# entries this small mean the iterate has effectively hit the boundary
_FLOOR = 1e-300

# hard ceiling on the post-step decrement; with gamma = 1/16 and beta = 1/4
# the theory keeps it below 0.24, so reaching 1/2 means broken constants
_SAFETY_DECREMENT = 0.5

# centering runs full Newton steps until the decrement is this small
_CENTER_TOL = 1e-10

# a solve leaves Cholesky for QR, for good, once potrf breaks down, the
# normal matrix's reciprocal condition estimate drops below _RCOND_FLOOR, or
# CSNE refinement has not settled after _MAX_CSNE_STEPS steps (see the
# module docstring)
_RCOND_FLOOR = 1e-12
_MAX_CSNE_STEPS = 6

# a CSNE step that moves the scaled steps w by at most this in norm ends the
# refinement: the decrements then move by less, three orders below the 1e-6
# agreement with QR
_CSNE_SETTLED = 1e-9

_potrf, _potrs, _pocon = scipy.linalg.lapack.get_lapack_funcs(
    ("potrf", "potrs", "pocon"), dtype=np.float64
)


class SolverError(RuntimeError):
    """Numerical failure inside the solver."""


class NonConvergenceError(SolverError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class StepSizeViolationError(SolverError):
    """A short step failed to restore proximity to the central path."""


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-6
    step_gamma: float = 1.0 / 16.0
    decrement_beta: float = 0.25
    max_iterations: int = 200_000

    def __post_init__(self):
        # written so that NaN fails the checks too
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        # the short-step safety region; larger values void the one-step
        # proximity restoration argument
        if not 0.0 < self.step_gamma <= 0.125:
            raise ValueError("step_gamma must lie in (0, 1/8]")
        if not 0.0 < self.decrement_beta <= 0.25:
            raise ValueError("decrement_beta must lie in (0, 1/4]")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class PathState:
    eta: float
    point: np.ndarray
    decrement: float
    iteration: int


TraceRow = namedtuple("TraceRow", ["eta", "decrement", "objective", "gap_bound"])


@dataclass(frozen=True)
class SolveReport:
    value: float
    optimizer: np.ndarray
    iterations: int
    trace: tuple
    predicted_bound: float
    eta_final: float
    gap_bound: float
    theta: float


class _NewtonWorkspace:
    """Newton solves at the iterates of one solve: Cholesky of the normal
    matrix A diag(u^2) A^T, warm-started from the last multipliers, with a
    one-way switch to QR of diag(u) A^T once that matrix turns
    ill-conditioned."""

    def __init__(self, problem: MarginalProblem):
        self.cost = problem.cost.ravel()
        # the problem's own ConstraintSystem: its tables outlive the workspace
        self.op = problem.constraints
        self.rhs = self.op.rhs
        # (etas, multipliers) of the last Cholesky solve; multipliers are
        # affine in eta at a fixed iterate, so two columns extrapolate
        self.last = None
        # dense constraint rows, set when the QR tail starts
        self.rows = None

    def prepare(self, u):
        if self.rows is None:
            normal = self.op.normal_matrix(u * u)
            chol, info = _potrf(normal, lower=1, clean=0)
            if info == 0:
                # M is entrywise nonnegative: its 1-norm is its largest column sum
                rcond, info = _pocon(chol, normal.sum(axis=0).max(), uplo="L")
                if info == 0 and rcond >= _RCOND_FLOOR:
                    return _CholeskyFactor(self, u, chol)
            self.start_tail()
        q, r = scipy.linalg.qr(u[:, None] * self.rows.T, mode="economic")
        return _ProjectionFactor(self, u, q, r)

    def start_tail(self):
        self.rows = self.op.matrix

    def warm_start(self, etas):
        if self.last is None:
            return np.zeros((len(etas), self.op.n_rows))
        old_etas, y = self.last
        first, last = old_etas[0], old_etas[-1]
        if first == last:
            return y[[0] * len(etas)]
        t = np.array([(eta - first) / (last - first) for eta in etas])
        return y[0] + t[:, None] * (y[-1] - y[0])


class _CholeskyFactor:
    def __init__(self, ws, u, chol):
        self.ws = ws
        self.u = u
        self.chol = chol

    def direction(self, eta):
        return self.directions((eta,))[0]

    def directions(self, etas):
        """(delta, decrement) at each eta, from this one factorization."""
        ws, u, op = self.ws, self.u, self.ws.op
        dg = np.multiply.outer(etas, u * ws.cost) - 1.0
        # w = diag(u) A^T y - dg with A (u + u w) = b: the step lands on the
        # slice, so rounding drift off it cannot accumulate.  The first pass
        # solves for the correction to the warm start; the next ones are
        # corrected-seminormal-equations steps, repeated until one moves w
        # by at most _CSNE_SETTLED in norm.  Every pass recomputes the
        # residual from w itself, and w is updated by the corrections rather
        # than rebuilt from y, which grows like eta and would leave rounding
        # of that size in A u w.
        y = ws.warm_start(etas)
        w = u * op.adjoint(y) - dg
        for passes in range(1 + _MAX_CSNE_STEPS):
            gap = ws.rhs - op.apply(u + u * w)
            z, _ = _potrs(self.chol, gap.T, lower=1)
            y += z.T
            step = u * op.adjoint(z.T)
            w += step
            # NaN compares false, so a non-finite solve never settles
            if passes and np.vdot(step, step) <= _CSNE_SETTLED**2:
                break
        else:
            # M is closer to singular than its condition estimate says
            ws.start_tail()
            return ws.prepare(u).directions(etas)
        ws.last = (etas, y)
        return [(u * row, math.sqrt(row @ row)) for row in w]


class _ProjectionFactor:
    """QR tail: the step read off an orthogonal projection of the scaled
    gradient."""

    def __init__(self, ws, u, q, r):
        self.ws = ws
        self.u = u
        self.q = q
        self.r = r
        self.infeasibility = ws.rhs - ws.rows @ u

    def direction(self, eta):
        dg = eta * (self.u * self.ws.cost) - 1.0
        w = dg - self.q @ (self.q.T @ dg)
        # near the path the projection cancels almost all of dg; a second
        # pass scrubs the range(Q) remnant the cancellation leaves behind
        w -= self.q @ (self.q.T @ w)
        w = self.q @ scipy.linalg.solve_triangular(
            self.r, self.infeasibility, trans="T"
        ) - w
        dec = float(np.linalg.norm(w))
        if not math.isfinite(dec):
            raise SolverError("constraint rows lost rank at the current iterate")
        return self.u * w, dec

    def directions(self, etas):
        return [self.direction(eta) for eta in etas]


def _check_domain(u):
    if float(u.min()) < _FLOOR:
        raise SolverError(
            "an iterate entry fell below 1e-300; the point has reached the "
            "boundary of the positive orthant"
        )


def _as_interior_flat(problem, u):
    u = np.asarray(u, dtype=np.float64)
    if u.shape != problem.dims:
        raise ValueError(f"expected shape {problem.dims}, got {u.shape}")
    flat = u.ravel().astype(np.float64, copy=True)
    _check_domain(flat)
    return flat


def newton_direction(problem: MarginalProblem, u, eta: float):
    """Newton step of eta <c, x> + sigma(x) at ``u`` restricted to the
    constraint null space, and its decrement sqrt(delta^T H delta)."""
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    flat = _as_interior_flat(problem, u)
    delta, dec = _NewtonWorkspace(problem).prepare(flat).direction(float(eta))
    return delta.reshape(problem.dims), dec


def _damped_newton(workspace, u, eta, config):
    """The damped-Newton loop of center and of Phase I.  Returns the point,
    its decrement, the step count and the factor at the point."""
    steps = 0
    while True:
        factor = workspace.prepare(u)
        delta, dec = factor.direction(eta)
        if dec <= _CENTER_TOL:
            return u, dec, steps, factor
        if steps >= config.max_iterations:
            raise NonConvergenceError(
                f"centering at eta {eta!r} still at decrement {dec!r} after {steps} steps"
            )
        if dec > config.decrement_beta:
            u = u + delta / (1.0 + dec)
        else:
            u = u + delta
        _check_domain(u)
        steps += 1


def center(problem: MarginalProblem, u0, eta: float, config: SolverConfig | None = None) -> PathState:
    """Damped Newton to the minimizer of eta <c, x> + sigma(x) on the slice.

    Damped steps delta / (1 + delta_norm) while the decrement exceeds
    decrement_beta (these stay strictly feasible by self-concordance), then
    full steps down to a decrement of 1e-10.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    u, dec, steps, _ = _damped_newton(
        _NewtonWorkspace(problem), _as_interior_flat(problem, u0), float(eta), config or SolverConfig()
    )
    return PathState(eta=float(eta), point=u.reshape(problem.dims), decrement=dec, iteration=steps)


def short_step_solve(problem: MarginalProblem, config: SolverConfig | None = None, observer=None) -> SolveReport:
    """Run the full path-following method and return the solve report.

    The trace holds one row after Phase I centering and one per Phase II
    step: (eta, decrement, objective, theta/eta), with the decrement measured
    at the recorded iterate and eta.  ``observer``, if given, is called with
    the PathState of every trace row.  Raises StepSizeViolationError if a
    short step leaves the decrement above decrement_beta, and
    NonConvergenceError if max_iterations runs out.
    """
    config = config or SolverConfig()
    # the barrier's complexity value; the gap bound theta / eta certifies
    # the objective only with theta >= problem.size
    theta = float(problem.size)
    workspace = _NewtonWorkspace(problem)
    cost = problem.cost.ravel()

    # Phase I: damped Newton at eta = 1 from the product tensor
    eta = 1.0
    u, dec, steps, factor = _damped_newton(workspace, start_point(problem).ravel(), eta, config)

    trace = [TraceRow(eta, dec, float(cost @ u), theta / eta)]
    if observer is not None:
        observer(PathState(eta=eta, point=u.reshape(problem.dims), decrement=dec, iteration=steps))

    growth = 1.0 + config.step_gamma / math.sqrt(theta)

    # Phase II: grow eta, take one Newton step, verify proximity.  The
    # factorization depends on the iterate only, so one factor yields both
    # the trace decrement at eta and the next step's direction at eta*growth.
    delta, _ = factor.direction(eta * growth)
    while theta / eta > config.epsilon:
        if steps >= config.max_iterations:
            raise NonConvergenceError(
                f"gap bound still {theta / eta!r} after {steps} steps"
            )
        u = u + delta
        _check_domain(u)
        eta = eta * growth
        steps += 1
        factor = workspace.prepare(u)
        (_, dec), (delta, _) = factor.directions((eta, eta * growth))
        if dec > _SAFETY_DECREMENT:
            raise StepSizeViolationError(
                f"decrement {dec!r} after a short step exceeds the safety bound "
                f"{_SAFETY_DECREMENT}; step constants are not in the safe region"
            )
        if dec > config.decrement_beta:
            raise StepSizeViolationError(
                f"decrement {dec!r} after a short step exceeds decrement_beta "
                f"{config.decrement_beta!r}"
            )
        trace.append(TraceRow(eta, dec, float(cost @ u), theta / eta))
        if observer is not None:
            observer(PathState(eta=eta, point=u.reshape(problem.dims), decrement=dec, iteration=steps))

    return SolveReport(
        value=float(cost @ u),
        optimizer=u.reshape(problem.dims),
        iterations=steps,
        trace=tuple(trace),
        predicted_bound=predicted_iterations(problem, config.epsilon),
        eta_final=eta,
        gap_bound=theta / eta,
        theta=theta,
    )


def predicted_iterations(problem: MarginalProblem, epsilon: float) -> float:
    """Iteration bound C0 sqrt(prod n_k) log(sqrt(2) prod n_k / (eps prod_k min_i p_k[i])).

    C0 = DEFAULT_C0 is an empirical calibration constant, reported rather
    than derived; the sqrt/log shape is what the theory fixes.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    n_prod = float(problem.size)
    min_prod = 1.0
    for p in problem.marginals:
        min_prod *= float(p.min())
    return DEFAULT_C0 * math.sqrt(n_prod) * math.log(math.sqrt(2.0) * n_prod / (epsilon * min_prod))

