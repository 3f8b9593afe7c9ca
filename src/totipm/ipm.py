"""Short-step path-following interior point solver on the marginal slice.

Minimizes f_eta(u) = eta <c, u> + sigma(u), sigma the log barrier, over the
affine slice of a marginal problem.  Phase I centers at eta = 1 starting
from the product of the marginals; Phase II raises eta and restores
proximity with a single Newton step, keeping the decrement at or below beta.
It stops once theta / eta <= epsilon, at which point the objective is within
epsilon of the optimum.

Each Phase II step picks its eta from the factor at the current iterate.
The scaled step w (below) is affine in eta, so the decrement squared is a
quadratic in eta, whose coefficients come from the Gram matrix of w at eta
and at eta * (1 + gamma / sqrt(theta)).  The step goes to the largest eta at
which the decrement is sqrt(beta) / (1 + sqrt(beta)), 1/3 at beta = 1/4: a
full Newton step from there lands at decrement (1/3 / (1 - 1/3))^2 = beta
at most (Nesterov & Nemirovskii 1994; Renegar 2001, ch. 2).  It is never
shorter than the paper's short step, the factor (1 + gamma / sqrt(theta)),
the worst case of the same bound; it never goes past theta / epsilon, nor
past 1e4 times the short step's eta increment (_MAX_EXTRAPOLATION).  Over
the 70 criterion-1/2 instances at epsilon 1e-8 the median step is 7-11
times that increment, and the solves take 12 168 steps in all, against
99 801 with the short step alone.

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
potrf factors M once per iterate, and both Phase II solves (at eta, for the
trace decrement, and at eta * growth) share that factor as two right-hand
sides; the line through them gives the step at the chosen eta.  Squaring
the condition number this way is made safe by two measures:

* warm start: the first solve is for the correction to the previous
  iterate's multipliers, extrapolated in eta (at a fixed iterate y is affine
  in eta), on the residual of the w they give.  A step moves u by a scaled
  norm of 1/3 at most, so the correction and its rounding error are small,
  where a solve from
  y = 0 carries an error relative to |y|, which grows like eta;
* corrected seminormal equations (CSNE, Bjorck 1987): the next solve is on
  the residual recomputed from the vector w itself, and it is repeated
  while it still moves w by more than 1e-9 in norm.  Along a path one step
  nearly always suffices (all but 4 of 10 659 solves below); from a cold
  start, as in newton_direction, up to three.

Near a degenerate vertex M truly loses rank.  A solve therefore switches for
good to Householder QR of diag(u) A^T, reading the step off an orthogonal
projection of dg, once potrf breaks down, once the LAPACK estimate (pocon)
of the reciprocal condition number of M drops below 1e-12, or once CSNE has
not settled after six steps: pocon can miss the rank loss by many orders
(2e2 estimated against 7e14 measured at one d = 3 point).  Above the size
crossover, the dense rows of A are built only then.  The switch is one-way:
toward the vertex M only gets worse, and retrying Cholesky at every later
step found it usable for 119 of 8 778 QR steps after the switch (measured
with the fixed short step).  Measured on the 50 criterion-1 instances at
epsilon 1e-8: without the tail 16 fail; with it all certify, 16 enter the
tail, QR takes 1 363 of 10 049 factorizations, and the decrement agrees
with the QR one to 2.3e-7 at 1 393 sampled path points, warm or from a
fresh workspace.  On the 20 criterion-2 (variant V) instances at epsilon
1e-8: without the tail 6 fail; with it all certify, 6 enter the tail, QR
takes 287 of 2 190 factorizations, and the decrement agrees with the QR
one to 7.9e-8 at 615 sampled path points, warm or fresh.
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
# dominates the Phase II step count outright, since no step is shorter than
# the short step (the bound's log term is never smaller than the path's
# log(theta/epsilon), because min_i p <= 1/n per mode).  Measured totals on
# d=2,3 uniform ladders sat at 11x-13x the C0=1 value with the short step
# alone and sit at 1.4x-1.9x with the longer steps
DEFAULT_C0 = 16.0

# entries this small mean the iterate has effectively hit the boundary
_FLOOR = 1e-300

# hard ceiling on the post-step decrement; the theory keeps it at or below
# beta <= 1/4 (a short step with gamma = 1/16, or a step from decrement
# sqrt(beta) / (1 + sqrt(beta))), so reaching 1/2 means broken constants
_SAFETY_DECREMENT = 0.5

# centering runs full Newton steps until the decrement is this small
_CENTER_TOL = 1e-10

# a Phase II step extrapolates the scaled steps at eta and eta * growth by at
# most this factor t.  Each row lands on the slice to rounding, about 1e-16,
# and the step's residual is t times theirs, so 1e4 keeps it near 1e-12.
# On the criterion-1/2 streams and the benchmark workloads t never exceeded
# 2e3; a cost constant on the slice (V 2x2x2) asks for 4e8, and the noise
# in w1 - w0 then put the last iterate 1.9e-8 off the slice
_MAX_EXTRAPOLATION = 1e4

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
        slope = (y[-1] - y[0]) / (last - first)
        return np.multiply.outer(np.subtract(etas, first), slope) + y[0]


class _Factor:
    """A factorization at the iterate u; scaled_steps(etas) gives the scaled
    steps w = delta / u at each eta, one row each."""

    def direction(self, eta):
        """(delta, decrement) at eta."""
        w = self.scaled_steps((eta,))[0]
        return self.u * w, math.sqrt(w @ w)


class _CholeskyFactor(_Factor):
    def __init__(self, ws, u, chol):
        self.ws = ws
        self.u = u
        self.chol = chol

    def scaled_steps(self, etas):
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
            return ws.prepare(u).scaled_steps(etas)
        ws.last = (etas, y)
        return w


class _ProjectionFactor(_Factor):
    """QR tail: the step read off an orthogonal projection of the scaled
    gradient."""

    def __init__(self, ws, u, q, r):
        self.ws = ws
        self.u = u
        self.q = q
        self.r = r
        self.infeasibility = ws.rhs - ws.rows @ u

    def scaled_steps(self, etas):
        q = self.q
        dg = np.multiply.outer(etas, self.u * self.ws.cost) - 1.0
        w = dg - (dg @ q) @ q.T
        # near the path the projection cancels almost all of dg; a second
        # pass scrubs the range(Q) remnant the cancellation leaves behind
        w -= (w @ q) @ q.T
        w = q @ scipy.linalg.solve_triangular(self.r, self.infeasibility, trans="T") - w
        if not np.isfinite(w).all():
            raise SolverError("constraint rows lost rank at the current iterate")
        return w


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


def _next_eta(gram, eta, growth, radius, eta_stop):
    """The next eta and its place t on the line w(t) = w0 + t (w1 - w0) of
    the scaled steps at eta (t = 0) and eta * growth (t = 1), given their
    Gram matrix.

    |w(t)|^2 = g00 + 2 t (g01 - g00) + t^2 |w1 - w0|^2; the step goes to
    its largest t at which that reaches radius^2, never shorter than t = 1,
    and never past t = _MAX_EXTRAPOLATION or eta_stop unless t = 1 is.
    """
    (g00, g01), (_, g11) = gram.tolist()
    a = g00 - 2.0 * g01 + g11
    b = g01 - g00
    c = g00 - radius * radius
    root = math.sqrt(max(b * b - a * c, 0.0))
    # the larger root of a t^2 + 2 b t + c, each form free of cancellation
    if b > 0.0:
        t = -c / (b + root)
    elif a > 0.0:
        t = (root - b) / a
    else:
        # w does not move with eta
        t = math.inf
    step = eta * (growth - 1.0)
    nxt = max(eta * growth, min(eta + min(t, _MAX_EXTRAPOLATION) * step, eta_stop))
    return (nxt - eta) / step, nxt


def short_step_solve(problem: MarginalProblem, config: SolverConfig | None = None, observer=None) -> SolveReport:
    """Run the full path-following method and return the solve report.

    Each Phase II step raises eta by at least the factor
    (1 + step_gamma / sqrt(theta)), and further while the decrement at the
    current iterate stays at most sqrt(beta) / (1 + sqrt(beta)) (see the
    module docstring).  The trace holds one row after Phase I centering and
    one per Phase II step: (eta, decrement, objective, theta/eta), with the
    decrement measured at the recorded iterate and eta.  ``observer``, if
    given, is called with the PathState of every trace row.  Raises
    StepSizeViolationError if a step leaves the decrement above
    decrement_beta, and NonConvergenceError if max_iterations runs out.
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
    # a full Newton step from decrement <= radius lands at decrement <= beta
    root_beta = math.sqrt(config.decrement_beta)
    radius = root_beta / (1.0 + root_beta)
    eta_stop = theta / config.epsilon

    # Phase II: pick the next eta from the factor at the iterate, take one
    # Newton step, verify proximity.  The factorization depends on the
    # iterate only, so one factor yields the scaled steps at eta (the trace
    # decrement) and at eta*growth, and the line through them the step at
    # any other eta.
    w = factor.scaled_steps((eta, eta * growth))
    gram = w @ w.T
    while theta / eta > config.epsilon:
        if steps >= config.max_iterations:
            raise NonConvergenceError(
                f"gap bound still {theta / eta!r} after {steps} steps"
            )
        t, eta = _next_eta(gram, eta, growth, radius, eta_stop)
        u = u + u * (w[0] + t * (w[1] - w[0]))
        _check_domain(u)
        steps += 1
        factor = workspace.prepare(u)
        w = factor.scaled_steps((eta, eta * growth))
        gram = w @ w.T
        dec = math.sqrt(gram[0, 0])
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

