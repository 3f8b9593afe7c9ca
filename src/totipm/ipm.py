"""Short-step path-following interior point solver on the marginal slice.

Minimizes f_eta(u) = eta <c, u> + sigma(u), sigma the log barrier, over the
affine slice of a marginal problem, in one loop of Newton steps with one
factor per iterate.  Until the iterate is centered (Phase I) it takes
damped steps at eta = 1 from the product of the marginals; from the
centered iterate on (Phase II) each step raises eta and restores proximity
with a single full Newton step, keeping the decrement at or below beta.  It
stops once theta / eta <= epsilon, at which point the objective is within
epsilon of the optimum.

Each Phase II step picks its eta from the factor at the current iterate.
The scaled step w (below) is affine in eta, so the decrement squared is a
quadratic in eta, whose coefficients come from the Gram matrix of w at eta
and at eta * (1 + gamma / sqrt(theta)), with gamma = 1/16 fixed.  The step
goes to the largest eta at which the decrement is sqrt(beta) /
(1 + sqrt(beta)), 1/3 at beta = 1/4: a full Newton step from there lands at
decrement (1/3 / (1 - 1/3))^2 = beta at most (Nesterov & Nemirovskii 1994;
Renegar 2001, ch. 2).  It is never shorter than the paper's short step, the
factor (1 + gamma / sqrt(theta)), the worst case of the same bound; it never
goes past theta / epsilon, nor past 1e4 times the short step's eta increment
(_MAX_EXTRAPOLATION).  Over the 70 criterion-1/2 instances at epsilon 1e-8
the median step is 7-11 times that increment, and the solves take 12 168
steps in all, against 99 801 with the short step alone.

The Newton system uses the diagonal barrier Hessian.  Written in the scaled
step w = delta / u, the step is w = diag(u) A^T y - dg with dg = eta*u*c - 1,
the multipliers y solving A diag(u^2) A^T y = A diag(u) dg + (b - A u), and
the decrement is |w|.

Both variants solve that normal system directly, in one workspace method
(_NewtonWorkspace.scaled_steps: factor at the iterate, return w at each eta
asked for), with one operator: ConstraintSystem, whose rows are a table of
the modes each row fixes (the first n_k - 1 marginal rows of every mode and
the total for "U", the independent mode sums for "V").  On small problems
it multiplies by its dense 0/1 rows; above a size crossover it applies A as
partial sums and A^T as broadcast sums, and gathers M = A diag(u^2) A^T from
the sums of u^2 over the modes each pair of rows leaves free (M has its own,
lower crossover).  LAPACK potrf factors M once per iterate, and both solves
(at eta, for the decrement and the Phase I step, and at eta * growth) share
that factor as two right-hand sides (potrs); in Phase II the line through
them gives the step at the chosen eta.  potrf and potrs are scipy's f2py
wrappers, loaded without importing scipy.linalg (_lapack), whose import
took 0.25-0.30 s, most of a cold start.  Squaring the condition number
this way is made safe by two measures:

* warm start: the first solve is for the correction to the previous
  iterate's multipliers, extrapolated in eta (at a fixed iterate y is affine
  in eta), on the residual of the w they give.  A step moves u by a scaled
  norm of 1/3 at most, so the correction and its rounding error are small,
  where a solve from y = 0 carries an error relative to |y|, which grows
  like eta.  The workspace carries A^T y beside y, both as a line in eta,
  so the warm start needs no adjoint.  The first pass's adjoint call maps
  the line afresh together with its correction: an image of y carried from
  step to step instead picks up rounding outside the range of A^T, which
  no correction removes and each extrapolation magnifies (on five
  criterion-1 solves at epsilon 1e-8 the decrement then strayed from the
  QR one by up to 1.8e-4 over the last 30 path points, against 2.2e-7);
* corrected seminormal equations (CSNE, Bjorck 1987): the next solve is on
  the residual recomputed from the vector w itself, and it is repeated
  while it would still move w by more than 1e-9 in norm.  That norm needs
  no adjoint: the correction z solves M z = gap, so |u A^T z|^2 = z^T M z
  = z^T gap, and a settled pass returns w without applying z.  Along a
  path one step nearly always suffices (all but 88 of 11 202 Cholesky
  solves below); from a cold start, as in newton_direction, up to six.  A
  settled step thus makes one normal_matrix, one potrf, two apply, two
  potrs and one adjoint call.

Near a degenerate vertex M truly loses rank.  A solve therefore switches for
good, within the same call, to Householder QR of diag(u) A^T (numpy's
np.linalg.qr, then trtrs from the same library as potrf), reading the step
off an orthogonal projection of dg, once potrf breaks down or once
CSNE has not settled after six steps.  Above both size crossovers, the
dense rows of A are built only then.  Until then CSNE keeps to the QR step:
at 1 236 iterates (criterion-1/2 solves, benchmark workloads, a size
ladder) where potrf held but M's reciprocal condition fell below 1e-12, to
1.1e-16, the scaled steps agreed with the QR ones to 3.1e-8 and the
decrements to 5.7e-9.  The switch is one-way: toward the vertex M only
gets worse, and retrying Cholesky at every later step found it usable for
119 of 8 778 QR steps after the switch (measured with the fixed short
step).  Measured on the 50
criterion-1 instances at epsilon 1e-8: without the tail 16 fail; with it
all certify, 16 enter the tail, each on unsettled CSNE, QR takes 862 of
10 048 factorizations, and the decrement agrees with the QR one to 1.5e-7
at 1 393 sampled path points, warm or from a fresh workspace.  On the 20
criterion-2 (variant V) instances at epsilon 1e-8: without the tail 6
fail; with it all certify, 6 enter the tail, one (a 2x2) on a potrf
breakdown and the others on unsettled CSNE, QR takes 174 of 2 190
factorizations, and the decrement agrees with the QR one to 1.7e-7 at 615
sampled path points, warm or fresh.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _lapack
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
    "short_step_solve",
    "predicted_iterations",
    "DEFAULT_C0",
]

# the paper's short step: every Phase II step raises eta by at least the
# factor 1 + _SHORT_STEP_GAMMA / sqrt(theta), and the longest step is
# _MAX_EXTRAPOLATION times that eta increment.  Inside the safe region
# (0, 1/8] the choice barely matters: with gamma 1e-2, 1/16 or 1/8 each of
# the 70 criterion-1/2 instances at epsilon 1e-6 takes the same number of
# steps
_SHORT_STEP_GAMMA = 1.0 / 16.0

# calibration constant for the predicted iteration bound; the theory fixes
# only the sqrt(theta) log(..) shape, not the prefactor.
# 1/_SHORT_STEP_GAMMA = 16 dominates the Phase II step count outright, since
# no step is shorter than the short step (the bound's log term is never
# smaller than the path's log(theta/epsilon), because min_i p <= 1/n per
# mode).  Measured totals on d=2,3 uniform ladders sat at 11x-13x the C0=1
# value with the short step alone and sit at 1.4x-1.9x with the longer steps
DEFAULT_C0 = 16.0

# entries this small mean the iterate has effectively hit the boundary
_FLOOR = 1e-300

# centering runs full Newton steps until the decrement is this small
_CENTER_TOL = 1e-10

# a solve that has not certified after this many steps, in both phases
# together, raises NonConvergenceError
_MAX_ITERATIONS = 200_000

# a Phase II step extrapolates the scaled steps at eta and eta * growth by at
# most this factor t.  Each row lands on the slice to rounding, about 1e-16,
# and the step's residual is t times theirs, so 1e4 keeps it near 1e-12.
# On the criterion-1/2 streams and the benchmark workloads t never exceeded
# 2e3; a cost constant on the slice (V 2x2x2) asks for 4e8, and the noise
# in w1 - w0 then put the last iterate 1.9e-8 off the slice
_MAX_EXTRAPOLATION = 1e4

# a solve leaves Cholesky for QR, for good, once potrf breaks down or CSNE
# refinement has not settled after _MAX_CSNE_STEPS steps (see the module
# docstring)
_MAX_CSNE_STEPS = 6

# a CSNE step that moves the scaled steps w by at most this in norm ends the
# refinement: the decrements then move by less, three orders below the 1e-6
# agreement with QR
_CSNE_SETTLED = 1e-9


class SolverError(RuntimeError):
    """Numerical failure inside the solver."""


class NonConvergenceError(SolverError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class StepSizeViolationError(SolverError):
    """A short step failed to restore proximity to the central path."""


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-6
    # the proximity bound: every trace row's decrement is at most this
    decrement_beta: ClassVar[float] = 0.25

    def __post_init__(self):
        # written so that NaN fails the checks too
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")


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
        # (etas, line of y, line of A^T y) of the last Cholesky solve, each
        # line the value at etas[0] and the change from there to etas[1]:
        # at a fixed iterate the multipliers y are affine in eta, so the
        # lines extrapolate y and A^T y to any eta
        self.last = None
        # dense constraint rows, set when the QR tail starts
        self.rows = None

    def scaled_steps(self, u, etas):
        """Factor at the iterate u and return the scaled steps w = delta / u
        at each eta, one row each."""
        op = self.op
        dg = np.multiply.outer(etas, u * self.cost) - 1.0
        if self.rows is None:
            # potrf reads M's own buffer in Fortran order (M.T, equal to M)
            # and factors the fresh array in place, with no copy
            factor, info = _lapack.dpotrf(op.normal_matrix(u * u).T, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                # w = diag(u) A^T y - dg with A (u + u w) = b: the step lands
                # on the slice, so rounding drift off it cannot accumulate.
                # The first pass solves for the correction to the warm
                # start; the next ones are corrected-seminormal-equations
                # steps, repeated until one would move w by at most
                # _CSNE_SETTLED in norm.  Every pass recomputes the residual
                # from w itself, and w is updated by the corrections rather
                # than rebuilt from y, which grows like eta and would leave
                # rounding of that size in A u w.
                y, aty = self.warm_start(etas)
                w = u * aty - dg
                for passes in range(1 + _MAX_CSNE_STEPS):
                    gap = self.rhs - op.apply(u + u * w)
                    z = _lapack.dpotrs(factor, gap.T, lower=1)[0].T
                    if passes:
                        # the correction z moves w by u A^T z, of squared
                        # norm z^T M z = z^T gap; NaN compares false, so a
                        # non-finite solve never settles
                        if np.vdot(z, gap) <= _CSNE_SETTLED**2:
                            return w
                        back = op.adjoint(z)
                    else:
                        # the same adjoint call maps the corrected line of y
                        # for the next warm start.  Its A^T image is taken
                        # afresh rather than carried along with y: rounding
                        # in a carried image leaves the range of A^T, where
                        # no correction reaches it, and the extrapolation
                        # magnifies it from one iterate to the next
                        y += z
                        k = len(etas)
                        both = np.concatenate((z, y[:1], y[1:] - y[:1]))
                        images = op.adjoint(both)
                        self.last = (etas, both[k:], images[k:])
                        back = images[:k]
                    w += u * back
            # M is singular, or too close to it for CSNE to settle
            self.start_tail()
        # QR tail: the step read off an orthogonal projection of dg
        q, r = np.linalg.qr(u[:, None] * self.rows.T, mode="reduced")
        w = dg - (dg @ q) @ q.T
        # near the path the projection cancels almost all of dg; a second
        # pass scrubs the range(Q) remnant the cancellation leaves behind
        w -= (w @ q) @ q.T
        # R^T x = b: the C-order R read as Fortran is R^T, lower triangular
        x, info = _lapack.dtrtrs(r.T, self.rhs - self.rows @ u, lower=1)
        w = q @ x - w
        if info > 0 or not np.isfinite(w).all():
            raise SolverError("constraint rows lost rank at the current iterate")
        return w

    def start_tail(self):
        self.rows = self.op.matrix

    def warm_start(self, etas):
        """The multipliers y and A^T y at each eta: 0 before the first
        Cholesky solve, extrapolated along the last one's lines after it."""
        if self.last is None:
            return np.zeros((len(etas), len(self.rhs))), np.zeros((len(etas), len(self.cost)))
        (e0, e1), ys, images = self.last
        t = [(eta - e0) / (e1 - e0) for eta in etas]
        return np.multiply.outer(t, ys[1]) + ys[0], np.multiply.outer(t, images[1]) + images[0]


def _check_domain(u):
    if float(u.min()) < _FLOOR:
        raise SolverError(
            "an iterate entry fell below 1e-300; the point has reached the "
            "boundary of the positive orthant"
        )


def newton_direction(problem: MarginalProblem, u, eta: float):
    """Newton step of eta <c, x> + sigma(x) at ``u`` restricted to the
    constraint null space, and its decrement sqrt(delta^T H delta)."""
    # written so that NaN fails the check too
    if not 0.0 <= eta < math.inf:
        raise ValueError("eta must be nonnegative and finite")
    u = np.asarray(u, dtype=np.float64)
    if u.shape != problem.dims:
        raise ValueError(f"expected shape {problem.dims}, got {u.shape}")
    flat = u.ravel()
    _check_domain(flat)
    w = _NewtonWorkspace(problem).scaled_steps(flat, (float(eta),))[0]
    return (flat * w).reshape(problem.dims), math.sqrt(w @ w)


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

    One loop factors once per iterate, for the scaled steps at eta and at
    eta * growth, growth = 1 + (1/16) / sqrt(theta).  While the decrement
    at eta exceeds 1e-10 it centers at eta = 1 from the product of the
    marginals (Phase I): damped steps delta / (1 + decrement) while the
    decrement exceeds decrement_beta (these stay strictly feasible by
    self-concordance), full steps after.  Every iterate from the centered
    one on (Phase II) is checked against decrement_beta and recorded as a
    trace row (eta, decrement, objective, theta/eta); the solve stops once
    theta/eta <= epsilon, and otherwise takes a full Newton step to an eta
    of at least eta * growth, further while the decrement at the current
    iterate stays at most sqrt(beta) / (1 + sqrt(beta)) = 1/3 (see the
    module docstring).  The factor that ends Phase I starts Phase II: a
    solve makes iterations + 1 factorizations.  ``observer``, if given, is
    called with the PathState of every trace row; the first call's
    iteration is the Phase I step count.  Raises SolverError if a decrement
    is not finite (costs so large that the Newton step overflows),
    StepSizeViolationError if a recorded decrement exceeds decrement_beta,
    and NonConvergenceError if _MAX_ITERATIONS runs out, in Phase I
    ("centering at eta ...") or in Phase II ("gap bound still ...").
    """
    config = config or SolverConfig()
    # the barrier's complexity value; the gap bound theta / eta certifies
    # the objective only with theta >= problem.size
    theta = float(problem.size)
    workspace = _NewtonWorkspace(problem)
    cost = problem.cost.ravel()
    growth = 1.0 + _SHORT_STEP_GAMMA / math.sqrt(theta)
    # sqrt(beta) / (1 + sqrt(beta)): a full Newton step from there lands at beta
    radius = 1.0 / 3.0
    eta_stop = theta / config.epsilon

    eta = 1.0
    u = start_point(problem).ravel()
    steps = 0
    trace = []
    while True:
        # the factor depends on the iterate only: it yields the scaled steps
        # at eta and at eta * growth, and the line through them the step at
        # any other eta
        w = workspace.scaled_steps(u, (eta, eta * growth))
        gram = w @ w.T
        dec = math.sqrt(gram[0, 0])
        if not math.isfinite(dec):
            # a damped step delta / (1 + inf) would not move the iterate
            raise SolverError(
                f"decrement {dec!r} at eta {eta!r} is not finite: the Newton step "
                f"overflows at cost scale {float(np.abs(cost).max())!r}"
            )
        # a nonempty trace means Phase I has ended
        if trace or dec <= _CENTER_TOL:
            if dec > config.decrement_beta:
                raise StepSizeViolationError(
                    f"decrement {dec!r} at eta {eta!r} exceeds decrement_beta "
                    f"{config.decrement_beta!r}"
                )
            trace.append(TraceRow(eta, dec, float(cost @ u), theta / eta))
            if observer is not None:
                observer(PathState(eta=eta, point=u.reshape(problem.dims), decrement=dec, iteration=steps))
            if theta / eta <= config.epsilon:
                break
        if steps >= _MAX_ITERATIONS:
            raise NonConvergenceError(
                f"gap bound still {theta / eta!r} after {steps} steps"
                if trace
                else f"centering at eta {eta!r} still at decrement {dec!r} after {steps} steps"
            )
        if trace:
            t, eta = _next_eta(gram, eta, growth, radius, eta_stop)
            u = u + u * (w[0] + t * (w[1] - w[0]))
        else:
            delta = u * w[0]
            u = u + (delta / (1.0 + dec) if dec > config.decrement_beta else delta)
        _check_domain(u)
        steps += 1

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
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    n_prod = float(problem.size)
    min_prod = 1.0
    for p in problem.marginals:
        min_prod *= float(p.min())
    return DEFAULT_C0 * math.sqrt(n_prod) * math.log(math.sqrt(2.0) * n_prod / (epsilon * min_prod))

