"""Coherence quantifiers, their coarse-grained versions and correlation splits.

The l1 measures are basis-dependent and always take an explicit basis or
fine-graining; the relative-entropy coarse measure depends only on the
observable's eigenspaces. All entropies are in bits.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimMismatchError, IncompatibleFineGrainingError
from .instruments import _pinch, _pinched, _pinched_entropy, generalized_luders
from .states import BipartiteState, FineGraining, Observable, Povm, _known_density, fine_graining


def c_l1(rho, basis) -> float:
    """Sum of off-diagonal absolute values in the given orthonormal basis."""
    r = linalg.as_square(rho)
    b = linalg.basis_matrix(basis, r.shape[0])
    rr = b.conj().T @ r @ b
    return linalg.entrywise_l1(rr) - float(np.sum(np.abs(np.diag(rr))))


def c_re(rho, basis) -> float:
    """Entropy gained by removing off-diagonals in the given basis."""
    r = linalg.as_square(rho)
    b = linalg.basis_matrix(basis, r.shape[0])
    diag = np.real(np.diag(b.conj().T @ r @ b))
    return linalg.shannon_entropy(diag) - linalg.von_neumann_entropy(rho)


def _checked_fine_graining(obs: Observable, fg: FineGraining | None) -> FineGraining:
    if fg is None:
        return fine_graining(obs)
    if not fg.refines(obs):
        raise IncompatibleFineGrainingError("fine-graining does not refine the observable")
    return fg


def c_l1_coarse(rho, obs: Observable, fg: FineGraining | None = None) -> float:
    """Sum of l1 norms of the off-diagonal blocks P_m rho P_n (m != n).

    The entrywise l1 norm needs a basis inside each block, so the declared
    fine-graining fixes it; the set of blocks themselves does not depend on it.
    """
    r = linalg.as_square(rho, obs.dim, "state and observable")
    fg = _checked_fine_graining(obs, fg)
    rr = fg.basis.conj().T @ r @ fg.basis
    total = linalg.entrywise_l1(rr)
    for s in fg.block_slices():
        total -= linalg.entrywise_l1(rr[s, s])
    return total


def c_re_coarse(rho, obs: Observable) -> float:
    """S(pinched rho) - S(rho); independent of any fine-graining choice."""
    r = linalg.as_square(rho, obs.dim, "state and observable")
    return _pinched_entropy(r, *obs._pinching()) - linalg.von_neumann_entropy(rho)


def hierarchy_gap(rho, obs: Observable, fg: FineGraining | None = None) -> float:
    """Relative entropy from the block pinching to the fine-grained dephasing.

    Equals the difference between the fine and coarse relative-entropy
    measures, and vanishes exactly when the fine-graining diagonalizes every
    block of rho.
    """
    r = linalg.as_square(rho, obs.dim, "state and observable")
    fg = _checked_fine_graining(obs, fg)
    # the gap is S(Delta(rho)) - S(Pi(rho)): as fg refines obs, <u_j|Pi(rho)|u_j>
    # is Delta(rho)'s eigenvalue, rho's diagonal in fg.basis, and each lies in
    # a block's spectrum once the pinching has passed its state check
    diag = np.real(np.einsum("ij,ij->j", fg.basis.conj(), r @ fg.basis))
    return linalg._entropy(linalg._clamped(diag)) - _pinched_entropy(r, *obs._pinching())


def mutual_information(state: BipartiteState) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), in bits."""
    s_ab = linalg.von_neumann_entropy(state.state)
    s_a = linalg.von_neumann_entropy(state.reduced_a())
    s_b = linalg.von_neumann_entropy(state.reduced_b())
    return s_a + s_b - s_ab


def _b_pinching(state: BipartiteState, obs: Observable) -> tuple:
    if obs.dim != state.dim_b:
        raise DimMismatchError("observable does not act on the B factor")
    return obs._pinching(state.dim_a)


def luders_on_b(state: BipartiteState, obs: Observable) -> BipartiteState:
    """Pinch the B factor: sum_n (1 x P_n) rho (1 x P_n)."""
    pinched = _pinched(state.state.matrix, *_b_pinching(state, obs))
    return BipartiteState(dims=state.dims, state=pinched)


def qi_coherence(state: BipartiteState, obs: Observable) -> float:
    """Entropy generated on the joint state by pinching B alone."""
    s_pinched = _pinched_entropy(state.state.matrix, *_b_pinching(state, obs))
    return s_pinched - linalg.von_neumann_entropy(state.state)


def luders_discord(state: BipartiteState, obs: Observable) -> float:
    """Mutual information lost when B is read through obs without selection."""
    return mutual_information(state) - mutual_information(luders_on_b(state, obs))


def classical_correlation(state: BipartiteState, obs: Observable) -> float:
    """Correlation surviving the B reading.

    sum_n p_n S(rho_A|n || rho_A) + sum_n p_n I(rho_AB|n) over the normalized
    conditional states; outcomes with p_n below ``linalg.PROB_FLOOR`` are
    skipped.
    """
    rho_a = state.reduced_a()
    # rho_A is diagonalized once, and each conditional reduction keeps its spectrum
    sigma_eigs = linalg._clamped_density_eigs(rho_a)
    total = 0.0
    for p_n, cond in _conditional_states(state, obs):
        cond_a = cond.reduced_a()
        total += p_n * linalg._relative_entropy_core(
            cond_a.matrix, rho_a.matrix, sigma_eigs, linalg._clamped(cond_a.eigenvalues()))
        total += p_n * mutual_information(cond)
    return total


def _conditional_states(state: BipartiteState, obs: Observable):
    # (p_n, rho_AB|n) of each outcome with p_n >= PROB_FLOOR, in outcome order:
    # block n of the pinching over p_n, whose spectrum is block n's, padded
    # with zeros, over p_n
    frame, layout = _b_pinching(state, obs)
    big, spectra = _pinch(state.state.matrix, frame, layout)
    for n, s in enumerate(layout[0]):
        p_n = float(np.real(np.trace(big[s, s])))
        if p_n >= linalg.PROB_FLOOR:
            cond = linalg.hermitize(frame[:, s] @ big[s, s] @ frame[:, s].conj().T) / p_n
            w = np.concatenate((spectra[n], np.zeros(frame.shape[0] - spectra[n].size))) / p_n
            yield p_n, BipartiteState(dims=state.dims, state=_known_density(cond, w))


def povm_coherence(rho, povm: Povm) -> float:
    """S(rho || sum_n M_n rho M_n), second argument left sub-normalized."""
    r = linalg.as_square(rho, povm.dim, "state and POVM")
    sigma = linalg.hermitize(sum(e @ r @ e for e in povm.effects))
    return linalg._relative_entropy_core(r, sigma)


def povm_coherence_modified(rho, povm: Povm) -> float:
    """S(rho || sum_n M_n^(1/2) rho M_n^(1/2)); the second argument is a state."""
    return linalg.relative_entropy(rho, generalized_luders(rho, povm))
