"""The benchmark's workloads and the seeded generator of their instances.

The generator is the benchmark's own SplitMix64 stream, so a change to the
program's instance generator cannot change a workload: the program receives
only the canonical JSON documents built here.  The seed draws costs and
random marginals; the shapes of each workload are fixed, so that the work in
a run, and with it every timing, is comparable from one seed to the next.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: a golden-ratio counter mixed by three xor-shift-multiply
    rounds.  next_float returns the top 53 bits as a float in [0, 1)."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53


def instance_document(dims, variant: str, rng: SplitMix64, random_marginals: bool) -> str:
    """One canonical instance document.

    Draw order: every cost entry in row-major order as an integer 0..9, then,
    for random marginals, n_k weights per mode in [0.5, 1.5) normalized by
    their sum.  The weights are bounded away from 0 so that no marginal entry
    is tiny and every instance certifies within the solver's default budget.
    """
    size = 1
    for n in dims:
        size *= n
    cost = [float(rng.next_uint64() % 10) for _ in range(size)]
    marginals = []
    for n in dims:
        if random_marginals:
            weights = [0.5 + rng.next_float() for _ in range(n)]
            total = sum(weights)
            marginals.append([w / total for w in weights])
        else:
            marginals.append([1.0 / n] * n)
    doc = {"dims": list(dims), "variant": variant, "cost": cost, "marginals": marginals}
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class Workload:
    """A fixed list of instance shapes, the target epsilon, and the entry
    point the timed loop calls: ``"solve"`` calls ``short_step_solve``,
    ``"cli"`` calls ``totipm.cli.main(["solve", ..., "--oracle", "--trace"])``.
    ``marginals`` is ``"alternate"`` (uniform, random, uniform, ...) or
    ``"random"``."""

    name: str
    why: str
    shapes: tuple
    epsilon: float
    path: str
    marginals: str

    def documents(self, seed: int) -> list:
        rng = SplitMix64(seed)
        return [
            instance_document(
                dims, variant, rng,
                self.marginals == "random" or (self.marginals == "alternate" and i % 2 == 1),
            )
            for i, (dims, variant) in enumerate(self.shapes)
        ]


def _small_batch_shapes():
    """28 small instances: U and V, d in {2, 3, 4}, n_k in 2..8, at most 64
    entries each, so that factorization flops stay negligible."""
    two = [(2, 8), (3, 7), (4, 6), (5, 5), (6, 4), (7, 3), (8, 2), (4, 8), (6, 6), (8, 8)]
    three = [(2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 3, 2), (2, 4, 4), (4, 4, 4)]
    four = [(2, 2, 2, 2), (2, 2, 2, 3), (2, 3, 2, 3)]
    shapes = [(dims, "U" if i % 2 == 0 else "V") for i, dims in enumerate(two)]
    for dims in three + four:
        shapes.append((dims, "U"))
        shapes.append((dims, "V"))
    return tuple(shapes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="u2-dense",
            why=(
                "About 90% of each step is the QR of diag(u) A^T (N=1024, m=63 at n=32), "
                "so this is where a faster U factorization must show."
            ),
            shapes=(((24, 24), "U"), ((32, 32), "U")),
            epsilon=1e-4,
            path="solve",
            marginals="alternate",
        ),
        Workload(
            name="v3-dense",
            why=(
                "A per-step QR of the N x prod(n_k-1) Kronecker null basis (343x216 at n=7) "
                "dominates; this is where PCG or matrix-free V must show. It skips the U workspace."
            ),
            shapes=(((6, 6, 6), "V"), ((7, 7, 7), "V")),
            epsilon=1e-4,
            path="solve",
            marginals="alternate",
        ),
        Workload(
            name="small-batch",
            why=(
                "Factorization flops are negligible; time goes to per-step Python overhead, "
                "workspaces, parsing, trace emission and the simplex oracle, so cost moved into setup shows."
            ),
            shapes=_small_batch_shapes(),
            # not 1e-6: variant V reaches its rounding floor at gap bounds of
            # 1e-7 to 1.1e-6 on these shapes (8x8 worst), where a short step
            # raises StepSizeViolationError; 1e-5 keeps a tenfold margin
            epsilon=1e-5,
            path="cli",
            marginals="random",
        ),
    )
}
