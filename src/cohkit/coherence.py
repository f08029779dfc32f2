"""Coherence quantifiers, their coarse-grained versions and correlation splits.

The l1 measures are basis-dependent and always take an explicit basis or
fine-graining; the relative-entropy coarse measure depends only on the
observable's eigenspaces. All entropies are in bits.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimMismatchError, IncompatibleFineGrainingError
from .instruments import dephase, generalized_luders, luders
from .states import BipartiteState, FineGraining, Observable, Povm, fine_graining


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
    return linalg.von_neumann_entropy(luders(r, obs)) - linalg.von_neumann_entropy(rho)


def hierarchy_gap(rho, obs: Observable, fg: FineGraining | None = None) -> float:
    """Relative entropy from the block pinching to the fine-grained dephasing.

    Equals the difference between the fine and coarse relative-entropy
    measures, and vanishes exactly when the fine-graining diagonalizes every
    block of rho.
    """
    r = linalg.as_square(rho)
    fg = _checked_fine_graining(obs, fg)
    return linalg.relative_entropy(luders(r, obs), dephase(r, fg.basis))


def mutual_information(state: BipartiteState) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), in bits."""
    s_ab = linalg.von_neumann_entropy(state.state)
    s_a = linalg.von_neumann_entropy(state.reduced_a())
    s_b = linalg.von_neumann_entropy(state.reduced_b())
    return s_a + s_b - s_ab


def _check_b_observable(state: BipartiteState, obs: Observable) -> None:
    if obs.dim != state.dim_b:
        raise DimMismatchError("observable does not act on the B factor")


def luders_on_b(state: BipartiteState, obs: Observable) -> BipartiteState:
    """Pinch the B factor: sum_n (1 x P_n) rho (1 x P_n)."""
    _check_b_observable(state, obs)
    eye_a = np.eye(state.dim_a)
    out = np.zeros_like(state.state.matrix)
    for p in obs.projectors:
        lifted = linalg.tensor(eye_a, p)
        out += lifted @ state.state.matrix @ lifted
    return BipartiteState(dims=state.dims, state=linalg.hermitize(out))


def qi_coherence(state: BipartiteState, obs: Observable) -> float:
    """Entropy generated on the joint state by pinching B alone."""
    pinched = luders_on_b(state, obs)
    return linalg.von_neumann_entropy(pinched.state) - linalg.von_neumann_entropy(state.state)


def luders_discord(state: BipartiteState, obs: Observable) -> float:
    """Mutual information lost when B is read through obs without selection."""
    return mutual_information(state) - mutual_information(luders_on_b(state, obs))


def classical_correlation(state: BipartiteState, obs: Observable) -> float:
    """Correlation surviving the B reading.

    sum_n p_n S(rho_A|n || rho_A) + sum_n p_n I(rho_AB|n) over the normalized
    conditional states; outcomes with p_n below ``linalg.PROB_FLOOR`` are
    skipped.
    """
    _check_b_observable(state, obs)
    rho = state.state.matrix
    rho_a = state.reduced_a()
    eye_a = np.eye(state.dim_a)
    total = 0.0
    for p in obs.projectors:
        proj = linalg.tensor(eye_a, p)
        cond = proj @ rho @ proj
        p_n = float(np.real(np.trace(cond)))
        if p_n < linalg.PROB_FLOOR:
            continue
        cond = BipartiteState(dims=state.dims, state=linalg.hermitize(cond) / p_n)
        total += p_n * linalg.relative_entropy(cond.reduced_a(), rho_a)
        total += p_n * mutual_information(cond)
    return total


def povm_coherence(rho, povm: Povm) -> float:
    """S(rho || sum_n M_n rho M_n), second argument left sub-normalized."""
    r = linalg.as_square(rho, povm.dim, "state and POVM")
    sigma = linalg.hermitize(sum(e @ r @ e for e in povm.effects))
    return linalg._relative_entropy_core(r, sigma)


def povm_coherence_modified(rho, povm: Povm) -> float:
    """S(rho || sum_n M_n^(1/2) rho M_n^(1/2)); the second argument is a state."""
    return linalg.relative_entropy(rho, generalized_luders(rho, povm))
