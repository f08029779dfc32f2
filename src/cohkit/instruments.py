"""Measurement processes: dephasing, block pinching, repeatable instruments.

The block pinching sends rho to sum_n P_n rho P_n for the eigenprojectors of
an observable; full dephasing is the nondegenerate special case. Both are
idempotent and the pinching is the closest block-diagonal state to rho in
Hilbert-Schmidt distance. Each reading that returns a DensityMatrix checks
it when it builds it, so one whose result is not a state raises.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .channels import kraus_channel
from .errors import (
    BadParameterError,
    VectorOutsideEigenspaceError,
    ZeroProbabilityOutcomeError,
)
from .states import (
    DensityMatrix,
    FineGraining,
    Observable,
    Povm,
    _fine_graining,
    _integer,
    _normalized_gram,
    as_generator,
    fine_graining,
)


def born_probabilities(rho, measurement) -> np.ndarray:
    """Outcome probabilities Tr(P_n rho) for an Observable or Tr(M_n rho) for a Povm."""
    ops = measurement.effects if isinstance(measurement, Povm) else measurement.projectors
    r = linalg.as_square(rho, ops[0].shape[0], "state and measurement")
    return np.array([float(np.real(np.trace(op @ r))) for op in ops])


def dephase(rho, basis) -> DensityMatrix:
    """Remove all off-diagonal entries of rho in the given orthonormal basis."""
    r = linalg.as_square(rho)
    b = linalg.basis_matrix(basis, r.shape[0])
    diag = np.real(np.diag(b.conj().T @ r @ b))
    return DensityMatrix(matrix=(b * diag) @ b.conj().T)


def luders(rho, obs: Observable) -> DensityMatrix:
    """Nonselective reading: sum_n P_n rho P_n."""
    r = linalg.as_square(rho, obs.dim, "state and observable")
    out = sum(p @ r @ p for p in obs.projectors)
    return DensityMatrix(matrix=linalg.hermitize(out))


def luders_outcome(rho, obs: Observable, n: int) -> tuple[float, DensityMatrix]:
    """Probability and normalized post-state for outcome n.

    An outcome with probability at or below ``linalg.PROB_FLOOR`` raises
    ZeroProbabilityOutcomeError.
    """
    r = linalg.as_square(rho)
    if not 0 <= _integer("outcome", n) < obs.n_outcomes:
        raise BadParameterError(f"outcome {n} is out of range")
    p_n = obs.projectors[n]
    prob = float(np.real(np.trace(p_n @ r)))
    if prob <= linalg.PROB_FLOOR:
        raise ZeroProbabilityOutcomeError(f"outcome {n} has probability {prob}")
    post = linalg.hermitize(p_n @ r @ p_n) / prob
    return prob, DensityMatrix(matrix=post)


def optimal_fine_grain(obs: Observable, rho) -> FineGraining:
    """The fine-graining that diagonalizes each block P_n rho P_n.

    Dephasing in this basis reproduces the block pinching of rho exactly, so
    the fine measure collapses onto the coarse one.
    """
    r = linalg.as_square(rho, obs.dim, "state and observable")
    blocks = []
    for n in range(obs.n_outcomes):
        b_n = obs.block_basis(n)
        # hermitize leaves nothing to check but the finiteness an overflow breaks
        block_rho = linalg._finite(linalg.hermitize(b_n.conj().T @ r @ b_n), "matrix")
        blocks.append(b_n @ linalg._eigh(block_rho).eigenvectors)
    # orthonormal columns inside range(P_n), as trustworthy as block_basis(n)
    return _fine_graining(obs, tuple(blocks))


def repeatable_instrument(obs: Observable, theta, fg: FineGraining | None = None):
    """Kraus operators K_n = sum_i |theta_ni><phi_ni| of a repeatable instrument.

    theta[n] holds d x d_n orthonormal columns inside range(P_n); phi is the
    fine-grained basis (defaults to the observable's own eigenbasis blocks).
    The channel is trace preserving by construction and leaves each outcome's
    post-state inside range(P_n), so an immediate second reading repeats.
    """
    if fg is None:
        fg = fine_graining(obs)
    elif not fg.refines(obs):
        raise VectorOutsideEigenspaceError("fine-graining does not refine the observable")
    if len(theta) != obs.n_outcomes:
        raise BadParameterError("one theta block per outcome is required")
    # theta has the contract of a fine-graining's blocks, so it is checked as one
    theta = fine_graining(obs, theta).blocks
    return kraus_channel([t @ b.conj().T for t, b in zip(theta, fg.blocks)])


def generalized_luders(rho, povm: Povm) -> DensityMatrix:
    """sum_n M_n^(1/2) rho M_n^(1/2), the square-root reading of a POVM."""
    r = linalg.as_square(rho, povm.dim, "state and POVM")
    out = np.zeros_like(r)
    for e in povm.effects:
        spec = linalg.hermitian_eig(e)
        # solver noise of order 1e-16 would blow up to 1e-8 under the square
        # root, so eigenvalue components at or below RANK_TOL are treated as zero
        w = np.where(spec.eigenvalues > linalg.RANK_TOL, spec.eigenvalues, 0.0)
        root = (spec.eigenvectors * np.sqrt(w)) @ spec.eigenvectors.conj().T
        out += root @ r @ root
    return DensityMatrix(matrix=linalg.hermitize(out))


def unitary_mixing(obs: Observable) -> list[np.ndarray]:
    """Unitaries U_k = sum_j w^(jk) P_j (w the N-th root of unity, j,k = 1..N).

    Averaging rho over them reproduces the block pinching.
    """
    n = obs.n_outcomes
    omega = np.exp(2j * np.pi / n)
    out = []
    for k in range(1, n + 1):
        u = sum(omega ** (j * k) * p for j, p in enumerate(obs.projectors, start=1))
        out.append(np.asarray(u))
    return out


def random_block_diagonal(obs: Observable, seed=0) -> DensityMatrix:
    """Random full-rank state commuting with obs: Dirichlet-weighted random blocks.

    Draw order, per state: the Dirichlet weights over the outcomes, then for
    each block n (in outcome order) a d_n x d_n real Gaussian matrix and then
    its imaginary part. Block n is G G^dag / Tr(G G^dag). Drawing ``count``
    states at once follows the same order state by state, so a stack from
    ``_random_block_diagonal_stack`` equals ``count`` successive calls on the
    same generator.
    """
    return DensityMatrix(matrix=_random_block_diagonal_stack(obs, 1, as_generator(seed))[0])


def _random_block_diagonal_stack(obs: Observable, count: int, rng) -> np.ndarray:
    # (count, d, d) stack of random_block_diagonal states. Per state the
    # Gaussians of all blocks are one standard_normal fill, which draws the
    # same numbers as one fill per block; the arithmetic runs on the stack.
    alpha = np.ones(obs.n_outcomes)
    weights = np.empty((count, obs.n_outcomes))
    gauss = np.empty((count, 2 * sum(k * k for k in obs.degeneracies)))
    for i in range(count):
        weights[i] = rng.dirichlet(alpha)
        rng.standard_normal(out=gauss[i])
    out = np.zeros((count, obs.dim, obs.dim), dtype=complex)
    start = 0
    for n, k in enumerate(obs.degeneracies):
        re = gauss[:, start:start + k * k].reshape(count, k, k)
        im = gauss[:, start + k * k:start + 2 * k * k].reshape(count, k, k)
        start += 2 * k * k
        block = _normalized_gram(re + 1j * im)
        b_n = obs.block_basis(n)
        out += weights[:, n, None, None] * (b_n @ block @ b_n.conj().T)
    return linalg.hermitize(out)
