import numpy as np
import pytest

from totipm.tensor import (
    contract_all_but,
    frobenius_norm,
    inner,
    marginal,
    mode_contract,
    outer,
)


def naive_inner(a, b):
    total = 0.0
    for idx in np.ndindex(*a.shape):
        total += a[idx] * b[idx]
    return total


def naive_contract_all_but(u, mode, x):
    out = np.zeros(u.shape[mode])
    for idx in np.ndindex(*u.shape):
        other = idx[:mode] + idx[mode + 1 :]
        out[idx[mode]] += u[idx] * x[other]
    return out


def naive_mode_contract(u, mode, x):
    shape = u.shape[:mode] + u.shape[mode + 1 :]
    out = np.zeros(shape)
    for idx in np.ndindex(*u.shape):
        other = idx[:mode] + idx[mode + 1 :]
        out[other] += u[idx] * x[idx[mode]]
    return out


class TestOuter:
    def test_scalar_identity(self):
        t = outer([np.array([1.0]), np.array([1.0]), np.array([1.0])])
        assert t.shape == (1, 1, 1)
        assert t[0, 0, 0] == 1.0

    def test_uniform_product(self):
        t = outer([np.array([0.5, 0.5]), np.array([0.5, 0.5])])
        assert np.array_equal(t, np.full((2, 2), 0.25))

    def test_three_mode_entry(self):
        t = outer([np.array([0.2, 0.8]), np.array([0.3, 0.7]), np.array([0.5, 0.5])])
        assert t.shape == (2, 2, 2)
        assert t[0, 1, 0] == pytest.approx(0.2 * 0.7 * 0.5, abs=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            outer([])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            outer([np.array([0.5, 0.5]), np.array([])])


class TestInner:
    def test_probability_mass(self):
        u = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert inner(np.ones((2, 2)), u) == pytest.approx(1.0, abs=1e-15)

    def test_identity_pattern(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert inner(c, c) == 2.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2, 2))
        b = rng.normal(size=(2, 2, 2))
        assert inner(a, b) == pytest.approx(naive_inner(a, b), abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(np.ones((2, 2)), np.ones((2, 3)))

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(12)
        a, b, c = (rng.normal(size=(3, 2)) for _ in range(3))
        assert inner(a, b) == pytest.approx(inner(b, a), abs=1e-12)
        assert inner(a, 2.0 * b + c) == pytest.approx(
            2.0 * inner(a, b) + inner(a, c), abs=1e-12
        )


class TestContractAllBut:
    def test_product_tensor_marginal(self):
        u = outer([np.array([0.5, 0.5])] * 3)
        x = np.ones((2, 2))
        assert contract_all_but(u, 0, x) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_column_sums(self):
        u = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert contract_all_but(u, 1, np.ones(2)) == pytest.approx([4.0, 6.0])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(13)
        u = rng.normal(size=(3, 2, 2))
        x = rng.normal(size=(3, 2))
        got = contract_all_but(u, 1, x)
        assert got == pytest.approx(naive_contract_all_but(u, 1, x), abs=1e-14)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            contract_all_but(np.ones((2, 2)), 2, np.ones(2))

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            contract_all_but(np.ones((2, 2, 2)), 0, np.ones((3, 2)))


class TestModeContract:
    def test_stochastic_sum(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.3, 0.7])
        assert mode_contract(outer([p, q]), 0, np.ones(2)) == pytest.approx(q, abs=1e-15)

    def test_row_selection(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert mode_contract(u, 0, np.array([1.0, 0.0])) == pytest.approx([1.0, 0.0])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(14)
        u = rng.normal(size=(2, 3, 2))
        x = rng.normal(size=3)
        got = mode_contract(u, 1, x)
        assert got == pytest.approx(naive_mode_contract(u, 1, x), abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mode_contract(np.ones((2, 3)), 1, np.ones(2))


class TestFrobeniusNorm:
    def test_zeros(self):
        assert frobenius_norm(np.zeros((2, 2))) == 0.0

    def test_half_matrix(self):
        assert frobenius_norm(np.full((2, 2), 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_inner_identity(self):
        rng = np.random.default_rng(15)
        u = rng.normal(size=(3, 4))
        assert frobenius_norm(u) == pytest.approx(np.sqrt(inner(u, u)), abs=1e-14)


class TestMarginalConsistency:
    def test_marginal_sums_equal_total(self):
        rng = np.random.default_rng(16)
        u = rng.uniform(size=(3, 2, 4))
        total = u.sum()
        for k in range(3):
            assert marginal(u, k).sum() == pytest.approx(total, abs=1e-12)

    def test_product_tensor_marginals(self):
        vectors = [np.array([0.2, 0.3, 0.5]), np.array([0.4, 0.6]), np.array([0.1, 0.9])]
        u = outer(vectors)
        for k, p in enumerate(vectors):
            assert marginal(u, k) == pytest.approx(p, abs=1e-12)
