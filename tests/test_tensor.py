"""Tensor structure of the slice: the start point is the outer product of
the marginals, and ``residual_norm`` reads the mode marginals off numpy
sums."""

import numpy as np
import pytest

from totipm.polytope import MarginalProblem, residual_norm, start_point


def product_problem(vectors, variant="U"):
    dims = tuple(len(v) for v in vectors)
    return MarginalProblem(np.zeros(dims), tuple(np.asarray(v) for v in vectors), variant)


class TestOuter:
    def test_scalar_identity(self):
        t = start_point(product_problem([[1.0], [1.0], [1.0]]))
        assert t.shape == (1, 1, 1)
        assert t[0, 0, 0] == 1.0

    def test_uniform_product(self):
        t = start_point(product_problem([[0.5, 0.5], [0.5, 0.5]]))
        assert np.array_equal(t, np.full((2, 2), 0.25))

    def test_three_mode_entry(self):
        t = start_point(product_problem([[0.2, 0.8], [0.3, 0.7], [0.5, 0.5]]))
        assert t.shape == (2, 2, 2)
        assert t[0, 1, 0] == pytest.approx(0.2 * 0.7 * 0.5, abs=1e-15)


class TestMarginalConsistency:
    def test_marginal_sums_equal_total(self):
        rng = np.random.default_rng(16)
        u = rng.uniform(size=(3, 2, 4))
        u /= u.sum()
        margs = [u.sum(axis=tuple(j for j in range(3) if j != k)) for k in range(3)]
        for p in margs:
            assert p.sum() == pytest.approx(u.sum(), abs=1e-12)
        assert residual_norm(product_problem(margs), u) <= 1e-15

    def test_product_tensor_marginals(self):
        vectors = [[0.2, 0.3, 0.5], [0.4, 0.6], [0.1, 0.9]]
        for variant in ("U", "V"):
            problem = product_problem(vectors, variant)
            assert residual_norm(problem, start_point(problem)) <= 1e-15
