"""The acceptance-criterion result lines, the instance streams of the
criteria (criteria 1 and 2 share theirs with the solver tests), and the
problem builders of the polytope, solver and oracle tests.

These live here, not in ``conftest.py``, so that the test modules can
import them by a name no other test directory uses.
"""

import numpy as np

from totipm.instances import SplitMix64, random_instance
from totipm.polytope import MarginalProblem

criterion_lines = []


def uniform_problem(dims, cost=None, variant="U"):
    """Uniform marginals; ``cost`` defaults to zeros."""
    cost = np.zeros(dims) if cost is None else np.asarray(cost, dtype=float)
    return MarginalProblem(
        cost=cost,
        marginals=tuple(np.full(n, 1.0 / n) for n in dims),
        variant=variant,
    )


def random_problem(dims, rng, variant="U"):
    """Integer costs in 0..9 and marginals drawn in [0.2, 1) then
    normalised, all from the numpy generator ``rng``."""
    cost = rng.integers(0, 10, size=dims).astype(float)
    marginals = []
    for n in dims:
        p = rng.uniform(0.2, 1.0, size=n)
        marginals.append(p / p.sum())
    return MarginalProblem(cost=cost, marginals=tuple(marginals), variant=variant)


def criterion_01_problems(seed=20240):
    """The 50 variant-U instances of acceptance criterion 1, in stream order:
    30 of d = 2 with n_k in 2..6, then 20 of d = 3 with n_k in 2..4,
    alternating uniform and random marginals."""
    rng = SplitMix64(seed)
    problems = []
    for trial in range(50):
        if trial < 30:
            dims = (2 + rng.next_int(5), 2 + rng.next_int(5))
        else:
            dims = tuple(2 + rng.next_int(3) for _ in range(3))
        kind = "uniform" if trial % 2 == 0 else "random"
        problems.append(random_instance(dims, "U", rng, kind))
    return problems


def criterion_02_problems(seed=20241):
    """The 20 variant-V instances of acceptance criterion 2, in stream order:
    d alternating 2 and 3 with n_k in 2..3, marginals uniform, uniform,
    random, random, and so on."""
    rng = SplitMix64(seed)
    problems = []
    for trial in range(20):
        d = 2 if trial % 2 == 0 else 3
        dims = tuple(2 + rng.next_int(2) for _ in range(d))
        kind = "uniform" if trial % 4 < 2 else "random"
        problems.append(random_instance(dims, "V", rng, kind))
    return problems


def criterion_04_problems(seed=20242):
    """The 8 instances of acceptance criterion 4: shapes 3x3 then 2x2x2,
    each as U then V, each with uniform then random marginals."""
    rng = SplitMix64(seed)
    return [
        random_instance(dims, variant, rng, kind)
        for dims in ((3, 3), (2, 2, 2))
        for variant in ("U", "V")
        for kind in ("uniform", "random")
    ]


def criterion_08_problems(seed=20243):
    """The 20 variant-U instances of acceptance criterion 8: 3x3 and 2x2x2
    alternating, marginals uniform, uniform, random, random, and so on."""
    rng = SplitMix64(seed)
    return [
        random_instance(
            (3, 3) if trial % 2 == 0 else (2, 2, 2), "U", rng,
            "uniform" if trial % 4 < 2 else "random",
        )
        for trial in range(20)
    ]
