import dataclasses
import math
import re

import numpy as np
import pytest

from cohkit import channels, linalg, states
from cohkit.errors import (
    BadParameterError,
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


def _projector(rng, d, rank):
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return q[:, :rank] @ q[:, :rank].conj().T


@pytest.mark.parametrize("d", [1, 2, 8, 64])
def test_eigvals_match_the_full_decomposition(d):
    # eigvalsh is a different LAPACK driver from eigh: equal to rounding, not bitwise
    rng = np.random.default_rng(100 + d)
    degenerate = [np.eye(d), np.zeros((d, d)), _projector(rng, d, (d + 1) // 2),
                  np.diag(np.repeat([0.5, -0.25], [d // 2, d - d // 2]))]
    for m in [rand_hermitian(rng, d), rand_hermitian(rng, d) / d, *degenerate]:
        w = linalg.hermitian_eigvals(m)
        assert w.shape == (d,)
        assert np.all(np.diff(w) <= 0.0)
        assert np.max(np.abs(w - linalg.hermitian_eig(m).eigenvalues)) <= 1e-13


def test_eigvals_of_a_stack_are_each_matrix_eigvals():
    rng = np.random.default_rng(7)
    stack = np.array([rand_hermitian(rng, 5) for _ in range(4)])
    w = linalg._eigvalsh(stack)
    assert w.shape == (4, 5)
    for m, w_m in zip(stack, w):
        assert np.max(np.abs(w_m - linalg.hermitian_eigvals(m))) <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
def test_eigh_of_a_stack_is_each_matrix_eigh_to_the_byte(k):
    rng = np.random.default_rng(k)
    stack = np.array([rand_hermitian(rng, k) for _ in range(5)])
    stack[1] = np.eye(k)  # ties keep the solver's order, as for one matrix
    spec = linalg._eigh(stack)
    assert spec.eigenvalues.shape == (5, k) and spec.eigenvectors.shape == (5, k, k)
    for m, w, v in zip(stack, spec.eigenvalues, spec.eigenvectors):
        one = linalg._eigh(m)
        assert w.tobytes() == one.eigenvalues.tobytes()
        assert v.tobytes() == one.eigenvectors.tobytes()
        assert np.max(np.abs(m @ v - v * w)) <= 1e-12 and np.all(np.diff(w) <= 0.0)


def test_a_spectrum_is_frozen():
    spec = linalg.hermitian_eig(np.diag([1.0, 0.0]))
    for field in ("eigenvalues", "eigenvectors"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, field, np.zeros(2))


@pytest.mark.parametrize("m, error", [
    (np.ones((2, 3)), ShapeMismatchError),
    (np.ones(3), ShapeMismatchError),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitianError),
    (np.array([[1.0, np.nan], [np.nan, 0.0]]), BadParameterError),
    (np.diag([1.0, np.inf]), BadParameterError),
])
def test_eigvals_raise_the_errors_of_the_full_decomposition(m, error):
    with pytest.raises(error) as full:
        linalg.hermitian_eig(m)
    with pytest.raises(error, match=f"^{re.escape(str(full.value))}$"):
        linalg.hermitian_eigvals(m)


RHO3 = np.diag([0.5, 0.3, 0.2]).astype(complex)
SIGMA3 = np.full((3, 3), 0.1) + 0.7 / 3 * np.eye(3)
SPECTRUM_CALLS = {
    "von-neumann-entropy": (lambda: linalg.von_neumann_entropy(RHO3), 0, 1),
    "validate-density": (lambda: states.validate_density(RHO3), 0, 1),
    "density-eigenvalues": (lambda: states.DensityMatrix(RHO3).eigenvalues(), 0, 1),
    "relative-entropy": (lambda: linalg.relative_entropy(RHO3, SIGMA3), 1, 1),
    "make-povm": (lambda: states.make_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), 0, 2),
    "kraus-channel-not-trace-preserving": (lambda: channels.kraus_channel([0.5 * np.eye(2)]), 0, 1),
}


@pytest.mark.parametrize("call, full, values", SPECTRUM_CALLS.values(), ids=SPECTRUM_CALLS.keys())
def test_spectrum_only_callers_skip_the_eigenvectors(eig_calls, call, full, values):
    call()
    assert (eig_calls.count("eig"), eig_calls.count("eigvals")) == (full, values)


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


def test_state_checks_keep_their_order():
    # Hermitian first, then the trace, then positivity
    with pytest.raises(InvalidStateError, match="not Hermitian"):
        linalg.von_neumann_entropy(np.array([[2.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidStateError, match="trace"):
        linalg.von_neumann_entropy(np.diag([2.0, -0.5]))
    with pytest.raises(InvalidStateError, match="eigenvalue"):
        linalg.von_neumann_entropy(np.diag([1.5, -0.5]))
    with pytest.raises(BadParameterError, match="finite"):
        linalg.von_neumann_entropy(np.array([[1.0, 0.0], [0.0, complex(0.0, np.inf)]]))


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


def test_relative_entropy_diagonalizes_each_argument_once(eig_calls):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    sigma = np.full((3, 3), 0.1) + 0.7 / 3 * np.eye(3)
    assert linalg.relative_entropy(rho, sigma) > 0.0
    assert len(eig_calls) == 2
    # the state check on sigma still runs first and keeps its message
    with pytest.raises(InvalidStateError, match="^state: eigenvalue"):
        linalg.relative_entropy(rho, np.diag([1.5, -0.25, -0.25]))
    eig_calls.clear()
    assert math.isinf(linalg.relative_entropy(rho, np.diag([0.5, 0.5, 0.0])))
    assert len(eig_calls) == 2


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


@pytest.mark.parametrize("call", [
    lambda: linalg.shannon_entropy([math.nan, 1.0]),
    lambda: linalg.shannon_entropy([math.inf, 0.0]),
    lambda: linalg.majorizes([math.nan, 1.0], [0.5, 0.5]),
    lambda: linalg.weakly_majorizes([math.nan, 1.0], [0.5, 0.5]),
    lambda: linalg.weakly_majorizes([0.5, 0.5], [0.5, complex(0.5, math.inf)]),
], ids=["shannon-nan", "shannon-inf", "majorizes-nan", "weakly-nan", "weakly-complex-inf"])
def test_vectors_with_non_finite_entries_are_rejected(call):
    # a NaN used to pass every comparison and then be dropped as a zero
    with pytest.raises(BadParameterError, match="entries must be finite"):
        call()


@pytest.mark.parametrize("dims", [(2.5, 2), (2, 2.0), (math.nan, 2), (2, math.inf), ("2", 2)])
def test_partial_trace_rejects_non_integer_dimensions(dims):
    m = np.eye(4) / 4.0
    with pytest.raises(BadParameterError, match="must be integers"):
        linalg.partial_trace(m, dims, keep=0)
    # numpy integers are integers
    assert np.array_equal(linalg.partial_trace(m, (np.int64(2), 2), keep=0), np.eye(2) / 2.0)


def _signed(rng, shape, dtype):
    # random entries, about a third of them -0.0, in both parts if complex
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.3] = -0.0
    if dtype is complex:
        b = rng.standard_normal(shape)
        b[rng.random(shape) < 0.3] = -0.0
        a = a + 1j * b
    return a


@pytest.mark.parametrize("shape_a, shape_b", [
    ((3, 3), (4, 4)), ((2, 3), (3, 2)), ((4, 1), (3, 1)), ((1, 3), (2, 2)), ((2, 2), (5, 1)),
], ids=["square", "rectangular", "columns", "row-by-square", "square-by-column"])
@pytest.mark.parametrize("dtype_a, dtype_b", [(complex, complex), (float, complex), (float, float)])
def test_kron_kernel_is_bit_identical_to_np_kron(shape_a, shape_b, dtype_a, dtype_b):
    rng = np.random.default_rng([*shape_a, *shape_b])
    a, b = _signed(rng, shape_a, dtype_a), _signed(rng, shape_b, dtype_b)
    # transposed views too, as commutant passes them
    for x, y in ((a, b), (a.T, b.T)):
        want = np.kron(x, y)
        words = want.view(float)
        assert np.signbit(words[words == 0.0]).any()  # the signed zeros are there
        got = linalg._kron(x, y)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        complex_want = np.kron(x.astype(complex), y.astype(complex))
        assert linalg.tensor(x, y).tobytes() == complex_want.tobytes()
