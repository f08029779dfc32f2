import math

import numpy as np
import pytest

from cohkit import linalg
from cohkit.errors import (
    InvalidStateError,
    LengthMismatchError,
    NotHermitianError,
    ShapeMismatchError,
)


def rand_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def test_hermitian_eig_reconstructs_sorted():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 8, 16, 64):
        h = rand_hermitian(rng, d)
        spec = linalg.hermitian_eig(h)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) <= 1e-10
        assert np.all(np.diff(spec.eigenvalues) <= 0.0)
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_partial_trace_of_product_factors():
    rng = np.random.default_rng(3)
    a = rand_hermitian(rng, 2)
    b = rand_hermitian(rng, 3)
    m = linalg.tensor(a, b)
    assert np.allclose(linalg.partial_trace(m, (2, 3), keep=0), a * np.trace(b))
    assert np.allclose(linalg.partial_trace(m, (2, 3), keep=1), b * np.trace(a))


def test_entropy_closed_forms():
    rho = np.diag([0.75, 0.25])
    expect = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(linalg.von_neumann_entropy(rho) - expect) <= 1e-12
    assert abs(linalg.von_neumann_entropy(np.eye(3) / 3) - math.log2(3)) <= 1e-12
    plus = np.full((2, 2), 0.5)
    assert abs(linalg.von_neumann_entropy(plus)) <= 1e-12


def test_shannon_entropy_matches_scalar_sum():
    p = np.array([0.5, 0.3, 0.2])
    expect = -sum(x * math.log2(x) for x in p)
    assert abs(linalg.shannon_entropy(p) - expect) <= 1e-12
    assert linalg.shannon_entropy([1.0, 0.0]) == 0.0


def test_entropy_rejects_non_state():
    with pytest.raises(InvalidStateError):
        linalg.von_neumann_entropy(np.diag([0.9, 0.3]))
    with pytest.raises(InvalidStateError):
        linalg.von_neumann_entropy(np.diag([1.5, -0.5]))


def test_relative_entropy_closed_form_and_support():
    rho = np.diag([0.75, 0.25])
    sigma = np.diag([0.5, 0.5])
    expect = 0.75 * math.log2(1.5) + 0.25 * math.log2(0.5)
    assert abs(linalg.relative_entropy(rho, sigma) - expect) <= 1e-12
    assert linalg.relative_entropy(rho, rho) <= 1e-12
    # support violation on the second argument gives +inf, not an error
    pure = np.diag([1.0, 0.0])
    assert math.isinf(linalg.relative_entropy(sigma, pure))
    assert not math.isinf(linalg.relative_entropy(pure, sigma))


def test_relative_entropy_nonnegative_random():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        sig = b @ b.conj().T
        sig /= np.trace(sig).real
        assert linalg.relative_entropy(rho, sig) >= -1e-10


def test_majorization_truth_table():
    assert linalg.majorizes([0.7, 0.3], [0.5, 0.5])
    assert not linalg.majorizes([0.5, 0.5], [0.7, 0.3])
    # partial sums dominate but the totals differ: weak relation only
    assert not linalg.majorizes([0.7, 0.4], [0.5, 0.5])
    assert linalg.weakly_majorizes([0.7, 0.4], [0.5, 0.5])
    assert not linalg.weakly_majorizes([0.4, 0.4], [0.5, 0.5])
    with pytest.raises(LengthMismatchError):
        linalg.majorizes([1.0], [0.5, 0.5])


def test_schur_product_and_norms():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[2.0, 0.5], [1.0, -1.0]])
    assert np.array_equal(linalg.schur_product(a, b), a * b)
    with pytest.raises(ShapeMismatchError):
        linalg.schur_product(a, np.eye(3))
    m = np.array([[3.0, -4.0j]])
    assert linalg.hs_norm(m) == 5.0
    assert linalg.entrywise_l1(m) == 7.0


def test_majorizes_rejects_empty_vectors():
    with pytest.raises(ShapeMismatchError):
        linalg.majorizes([], [])
