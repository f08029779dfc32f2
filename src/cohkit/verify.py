"""Seeded self-check suite behind the command line's verify subcommand.

Every named property draws its randomness from a child of one root seed
(SeedSequence spawning, one child per property in registry order), so the
whole report is a pure function of the configuration. Nothing here prints
timing or machine state; two runs with the same seed emit identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, coherence, dilation, instruments, linalg, states
from .errors import BadParameterError

EXACT = 0.0


@dataclass(eq=False)
class VerifyConfig:
    seed: int = 0
    trials: int | None = None
    dim_max: int = 8
    corrupt: bool = False


@dataclass(eq=False)
class PropertyResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def __post_init__(self):
        # checks compare numpy scalars; the JSON report needs a plain bool
        self.passed = bool(self.passed)


def _count(cfg: VerifyConfig, default: int) -> int:
    return default if cfg.trials is None else int(cfg.trials)


def _dim(cfg: VerifyConfig, t: int, lo: int = 2, hi: int = 8) -> int:
    top = min(cfg.dim_max, hi)
    return lo + t % (top - lo + 1)


def _random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def _random_psd(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def _random_profile(rng, d: int) -> tuple[int, ...]:
    # at least two outcomes so the block structure is nontrivial
    parts, rem = [], d
    while rem > 0:
        p = int(rng.integers(1, min(3, rem) + 1))
        parts.append(p)
        rem -= p
    if len(parts) == 1 and d >= 2:
        parts = [d - 1, 1]
    return tuple(parts)


def _degenerate_profile(rng, d: int) -> tuple[int, ...]:
    profile = _random_profile(rng, d)
    if max(profile) == 1 and d >= 3:
        profile = (2,) + profile[2:]
    return profile


def _random_fg(rng, obs: states.Observable) -> states.FineGraining:
    blocks = []
    for n in range(obs.n_outcomes):
        b_n = obs.block_basis(n)
        blocks.append(b_n @ states.random_unitary(b_n.shape[1], rng))
    return states.fine_graining(obs, tuple(blocks))


def _majorization_defect(x, y) -> float:
    """How far x is from majorizing y (partial sums plus total equality)."""
    xs, ys = np.sort(np.real(x))[::-1], np.sort(np.real(y))[::-1]
    cx, cy = np.cumsum(xs), np.cumsum(ys)
    return float(max(np.max(cy - cx), abs(cx[-1] - cy[-1])))


def _weak_majorization_defect(x, y) -> float:
    xs, ys = np.sort(np.real(x))[::-1], np.sort(np.real(y))[::-1]
    return float(np.max(np.cumsum(ys) - np.cumsum(xs)))


def _check_eig_reconstruction(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 20)):
        d = 2 + t % 15  # up to dim 16
        h = _random_hermitian(rng, d)
        spec = linalg.hermitian_eig(h)
        rec = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        worst = max(worst, float(np.max(np.abs(rec - h))))
    return PropertyResult("eig_reconstruction", worst <= tol, worst, tol)


def _check_schur_product_psd(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t)
        prod = linalg.schur_product(_random_psd(rng, d), _random_psd(rng, d))
        w = linalg.hermitian_eig(prod).eigenvalues
        worst = max(worst, float(-w.min()))
    return PropertyResult("schur_product_psd", worst <= tol, worst, tol)


def _check_relative_entropy_nonneg(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t)
        rho = states.random_density(d, seed=rng)
        sigma = states.random_density(d, seed=rng)
        worst = max(worst, -linalg.relative_entropy(rho.matrix, sigma.matrix))
    return PropertyResult("relative_entropy_nonneg", worst <= tol, worst, tol)


def _check_relative_entropy_faithful(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-8, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t)
        rho = states.random_density(d, seed=rng)
        sigma = states.random_density(d, seed=rng)
        worst = max(worst, linalg.relative_entropy(rho.matrix, rho.matrix))
        # distinct independent states must give a strictly positive value
        if linalg.relative_entropy(rho.matrix, sigma.matrix) <= tol:
            worst = float("inf")
    return PropertyResult("relative_entropy_faithful", worst <= tol, worst, tol)


def _check_spectral_reconstruction(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-8, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t, lo=3)
        obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
        h = obs.matrix()
        redone = states.spectral_decompose(h)
        if redone.n_outcomes != obs.n_outcomes:
            worst = float("inf")
            continue
        worst = max(worst, float(np.max(np.abs(redone.matrix() - h))))
    return PropertyResult("spectral_reconstruction", worst <= tol, worst, tol)


def _check_fine_graining_resolution(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-8, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t, lo=3)
        obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
        fg = _random_fg(rng, obs)
        for b, p in zip(fg.blocks, obs.projectors):
            worst = max(worst, float(np.max(np.abs(b @ b.conj().T - p))))
    return PropertyResult("fine_graining_resolution", worst <= tol, worst, tol)


def _check_minimal_disturbance_hs(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-12, -np.inf
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t)
        obs = states.random_observable(d, _random_profile(rng, d), rng)
        rho = states.random_density(d, seed=rng)
        pinched = instruments.luders(rho, obs)
        base = linalg.hs_norm(rho.matrix - pinched.matrix)
        for _ in range(200):
            sigma = instruments.random_block_diagonal(obs, rng)
            worst = max(worst, base - linalg.hs_norm(rho.matrix - sigma.matrix))
    return PropertyResult("minimal_disturbance_hs", worst <= tol, worst, tol)


def _check_pythagorean_identity(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-8, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t)
        obs = states.random_observable(d, _random_profile(rng, d), rng)
        rho = states.random_density(d, seed=rng)
        pinched = instruments.luders(rho, obs)
        middle = linalg.relative_entropy(rho.matrix, pinched.matrix)
        for _ in range(10):
            sigma = instruments.random_block_diagonal(obs, rng)
            total = linalg.relative_entropy(rho.matrix, sigma.matrix)
            tail = linalg.relative_entropy(pinched.matrix, sigma.matrix)
            worst = max(worst, abs(total - middle - tail))
    return PropertyResult("pythagorean_identity", worst <= tol, worst, tol)


def _check_pinching_entropy_increase(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, -np.inf
    for t in range(_count(cfg, 30)):
        d = _dim(cfg, t)
        obs = states.random_observable(d, _random_profile(rng, d), rng)
        rho = states.random_density(d, seed=rng)
        pinched = instruments.luders(rho, obs)
        worst = max(
            worst,
            linalg.von_neumann_entropy(rho.matrix)
            - linalg.von_neumann_entropy(pinched.matrix),
        )
    return PropertyResult("pinching_entropy_increase", worst <= tol, worst, tol)


def _check_pinching_majorization(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-9, -np.inf
    for t in range(_count(cfg, 30)):
        d = _dim(cfg, t)
        obs = states.random_observable(d, _random_profile(rng, d), rng)
        rho = states.random_density(d, seed=rng)
        pinched = instruments.luders(rho, obs)
        worst = max(worst, _majorization_defect(rho.eigenvalues(), pinched.eigenvalues()))
    return PropertyResult("pinching_majorization", worst <= tol, worst, tol)


def _check_orthogonal_support_product(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t, lo=3)
        u = states.random_unitary(d, rng)
        k = int(rng.integers(1, d))
        left, right = u[:, :k], u[:, k:]
        a = left @ _random_psd(rng, k) @ left.conj().T
        b = right @ _random_psd(rng, d - k) @ right.conj().T
        worst = max(worst, linalg.hs_norm(a @ b))
    return PropertyResult("orthogonal_support_product", worst <= tol, worst, tol)


def _check_unitary_mixing_average(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t)
        obs = states.random_observable(d, _random_profile(rng, d), rng)
        rho = states.random_density(d, seed=rng)
        mix = instruments.unitary_mixing(obs)
        avg = sum(u @ rho.matrix @ u.conj().T for u in mix) / len(mix)
        worst = max(
            worst, float(np.max(np.abs(avg - instruments.luders(rho, obs).matrix)))
        )
    return PropertyResult("unitary_mixing_average", worst <= tol, worst, tol)


def _check_hierarchy_monotonicity(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, -np.inf
    for t in range(_count(cfg, 50)):
        d = _dim(cfg, t, lo=3)
        obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
        rho = states.random_density(d, seed=rng)
        fg = _random_fg(rng, obs)
        worst = max(
            worst,
            coherence.c_l1_coarse(rho, obs, fg) - coherence.c_l1(rho, fg.basis),
            coherence.c_re_coarse(rho, obs) - coherence.c_re(rho, fg.basis),
        )
    return PropertyResult("hierarchy_monotonicity", worst <= tol, worst, tol)


def _check_hierarchy_gap_identity(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-8, 0.0
    for t in range(_count(cfg, 50)):
        d = _dim(cfg, t, lo=3)
        obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
        rho = states.random_density(d, seed=rng)
        fg = _random_fg(rng, obs)
        gap = coherence.hierarchy_gap(rho, obs, fg)
        diff = coherence.c_re(rho, fg.basis) - coherence.c_re_coarse(rho, obs)
        worst = max(worst, abs(gap - diff))
    return PropertyResult("hierarchy_gap_identity", worst <= tol, worst, tol)


def _check_optimal_fine_graining_collapse(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-8, 0.0
    for t in range(_count(cfg, 30)):
        d = _dim(cfg, t, lo=3)
        obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
        rho = states.random_density(d, seed=rng)
        best = instruments.optimal_fine_grain(obs, rho)
        worst = max(
            worst,
            abs(coherence.c_l1(rho, best.basis) - coherence.c_l1_coarse(rho, obs, best)),
            abs(coherence.c_re(rho, best.basis) - coherence.c_re_coarse(rho, obs)),
            coherence.hierarchy_gap(rho, obs, best),
            float(
                np.max(
                    np.abs(
                        instruments.dephase(rho, best.basis).matrix
                        - instruments.luders(rho, obs).matrix
                    )
                )
            ),
        )
    return PropertyResult("optimal_fine_graining_collapse", worst <= tol, worst, tol)


def _witness_state() -> tuple[states.BipartiteState, states.Observable]:
    # maximally entangled pair hidden inside the degenerate block of a qutrit
    psi = np.zeros(6, dtype=complex)
    psi[0] = psi[4] = 1.0 / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    obs = states.observable_from_projectors(
        [1.0, 0.0],
        [np.diag([1.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex)],
    )
    return states.bipartite(rho, 2, 3), obs


def _conditional_mutual_information_sum(
    state: states.BipartiteState, obs: states.Observable
) -> float:
    total = 0.0
    eye_a = np.eye(state.dim_a)
    for p in obs.projectors:
        proj = linalg.tensor(eye_a, p)
        cond = proj @ state.state.matrix @ proj
        p_n = float(np.real(np.trace(cond)))
        if p_n < 1e-12:
            continue
        cond = (cond + cond.conj().T) / 2.0 / p_n
        total += p_n * coherence.mutual_information(
            states.BipartiteState(dims=state.dims, state=states.DensityMatrix(cond))
        )
    return total


def _check_discord_decomposition(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-8, 0.0
    cases = []
    for t in range(_count(cfg, 50)):
        dims = (2, 2) if t % 2 == 0 else (2, 3)
        state = states.random_bipartite(dims[0], dims[1], seed=rng)
        if dims[1] == 3 and t % 4 == 1:
            profile = (2, 1)
        else:
            profile = (1,) * dims[1]
        obs = states.random_observable(dims[1], profile, rng)
        cases.append((state, obs))
    state, obs = _witness_state()
    cases.append((state, obs))
    witness_best = 0.0
    for state, obs in cases:
        info = coherence.mutual_information(state)
        delta = coherence.luders_discord(state, obs)
        j = coherence.classical_correlation(state, obs)
        qi = coherence.qi_coherence(state, obs)
        local = coherence.c_re_coarse(state.reduced_b(), obs)
        worst = max(worst, abs(j + delta - info), abs(delta - (qi - local)))
        if obs.n_outcomes < obs.dim:  # degenerate reading
            witness_best = max(
                witness_best, _conditional_mutual_information_sum(state, obs)
            )
    if witness_best <= 1e-3:
        worst = float("inf")
    return PropertyResult(
        "discord_decomposition",
        worst <= tol,
        worst,
        tol,
        detail=f"degenerate-block conditional information up to {witness_best:.3e}",
    )


def _check_repeatable_residual_coherence(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 30)):
        d = _dim(cfg, t, lo=3)
        obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
        psi = states.random_pure(d, rng)
        rho = states.DensityMatrix(np.outer(psi, psi.conj()))
        theta = tuple(
            obs.block_basis(n) @ states.random_unitary(obs.degeneracies[n], rng)
            for n in range(obs.n_outcomes)
        )
        ch = instruments.repeatable_instrument(obs, theta)
        out = channels.apply_channel(ch, rho)
        fg = states.fine_graining(obs)
        theta_basis = np.hstack(theta)
        lud = instruments.luders(rho, obs)
        worst = max(
            worst,
            abs(coherence.c_l1(out, theta_basis) - coherence.c_l1(lud, fg.basis)),
            abs(coherence.c_re(out, theta_basis) - coherence.c_re(lud, fg.basis)),
            abs(
                linalg.von_neumann_entropy(out.matrix)
                - linalg.von_neumann_entropy(lud.matrix)
            ),
            float(
                np.max(
                    np.abs(
                        instruments.born_probabilities(out, obs)
                        - instruments.born_probabilities(rho, obs)
                    )
                )
            ),
        )
    return PropertyResult("repeatable_residual_coherence", worst <= tol, worst, tol)


def _check_label_permutation_covariance(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-12, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t)
        rho = states.random_density(d, seed=rng)
        basis = states.random_unitary(d, rng)
        shuffled = basis[:, rng.permutation(d)]
        worst = max(
            worst,
            abs(coherence.c_l1(rho, shuffled) - coherence.c_l1(rho, basis)),
            abs(coherence.c_re(rho, shuffled) - coherence.c_re(rho, basis)),
        )
    return PropertyResult("label_permutation_covariance", worst <= tol, worst, tol)


def _check_gio_schur_equivalence(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 100)):
        d = _dim(cfg, t)
        ch = channels.random_gio(d, 1 + t % d, rng)
        corr = channels.correlation_matrix_of(ch)
        if cfg.corrupt and t == 0:
            ops = [k.copy() for k in ch.kraus]
            ops[0][0, 0] = -ops[0][0, 0]  # break the Kraus/Schur agreement
            ch = channels.kraus_channel(ops)
        schur = corr.matrix.T
        for _ in range(5):
            rho = states.random_density(d, seed=rng)
            lhs = channels.apply_to_operator(ch, rho.matrix)
            worst = max(worst, linalg.hs_norm(lhs - schur * rho.matrix))
    return PropertyResult("gio_schur_equivalence", worst <= tol, worst, tol)


def _check_unital_majorization(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-9, -np.inf
    for t in range(_count(cfg, 100)):
        d = _dim(cfg, t)
        if t % 2 == 0:
            ch = channels.random_gio(d, 1 + t % d, rng)
        else:
            ch = channels.random_mixed_unitary(d, 2 + t % 3, rng)
        rho = states.random_density(d, seed=rng)
        out = channels.apply_channel(ch, rho)
        worst = max(
            worst,
            _majorization_defect(rho.eigenvalues(), out.eigenvalues()),
            linalg.von_neumann_entropy(rho.matrix)
            - linalg.von_neumann_entropy(out.matrix),
        )
    return PropertyResult("unital_majorization", worst <= tol, worst, tol)


def _check_schur_eigenvalue_majorization(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-9, -np.inf
    for t in range(_count(cfg, 30)):
        d = _dim(cfg, t)
        a, b = _random_psd(rng, d), _random_psd(rng, d)
        lam_prod = linalg.hermitian_eig(linalg.schur_product(a, b)).eigenvalues
        lam_a = linalg.hermitian_eig(a).eigenvalues
        lam_b = linalg.hermitian_eig(b).eigenvalues
        diag_b = np.sort(np.real(np.diag(b)))[::-1]
        worst = max(
            worst,
            _weak_majorization_defect(lam_a * diag_b, lam_prod),
            _weak_majorization_defect(lam_a * lam_b, lam_a * diag_b),
        )
    return PropertyResult("schur_eigenvalue_majorization", worst <= tol, worst, tol)


def _check_permutation_coherence_preservation(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-12, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t)
        rho = states.random_density(d, seed=rng)
        perm = np.eye(d, dtype=complex)[:, rng.permutation(d)]
        moved = states.DensityMatrix(perm @ rho.matrix @ perm.conj().T)
        eye = np.eye(d, dtype=complex)
        worst = max(
            worst,
            abs(coherence.c_l1(moved, eye) - coherence.c_l1(rho, eye)),
            abs(coherence.c_re(moved, eye) - coherence.c_re(rho, eye)),
        )
    return PropertyResult("permutation_coherence_preservation", worst <= tol, worst, tol)


def _check_sieve_action(seed, cfg) -> PropertyResult:
    # algebraically exact identities; the tolerance only absorbs the rounding
    # of the BLAS matrix products that evaluate the left sides
    rng = np.random.default_rng(seed)
    tol, worst = 1e-14, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t)
        mapping = tuple(int(i) for i in rng.integers(0, d, size=d))
        relabel = channels.IndexMap(mapping=mapping).matrix()
        coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        sieve = np.diag(coeffs)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                target = np.zeros((d, d), dtype=complex)
                target[mapping[i], mapping[j]] = 1.0
                worst = max(
                    worst,
                    float(np.max(np.abs(relabel @ unit @ relabel.conj().T - target))),
                    float(
                        np.max(
                            np.abs(
                                sieve @ unit @ sieve.conj().T
                                - coeffs[i] * np.conj(coeffs[j]) * unit
                            )
                        )
                    ),
                )
    return PropertyResult("sieve_action", worst <= tol, worst, tol)


def _is_io_form(ch: channels.KrausChannel) -> bool:
    try:
        for k in ch.kraus:
            channels.factor_kraus(k)
    except channels.NotIOFormError:
        return False
    return True


def _is_sio_form(ch: channels.KrausChannel) -> bool:
    try:
        maps = [channels.factor_kraus(k)[0] for k in ch.kraus]
    except channels.NotIOFormError:
        return False
    return all(m.kind == "permutation" for m in maps)


def _check_classify_monotonicity(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(_count(cfg, 15)):
        d = _dim(cfg, t)
        gio = channels.random_gio(d, 1 + t % d, rng)
        sio = channels.random_sio(d, 2 + t % 2, rng)
        io = channels.random_io(d, rng)
        ok = (
            channels.classify(gio) == channels.GIO
            and _is_sio_form(gio)
            and _is_io_form(gio)
            and channels.classify(sio) in (channels.GIO, channels.SIO_NOT_GIO)
            and _is_io_form(sio)
            and channels.classify(io)
            in (channels.GIO, channels.SIO_NOT_GIO, channels.IO_NOT_SIO)
            and channels.io_completeness_check(gio)
            and channels.io_completeness_check(sio)
            and channels.io_completeness_check(io)
        )
        if not ok:
            worst = float("inf")
    return PropertyResult("classify_monotonicity", worst <= EXACT, worst, EXACT)


def _check_commutant_dimension_oracle(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(_count(cfg, 30)):
        d = _dim(cfg, t, hi=6)
        ch = channels.random_gio(d, 1 + t % d, rng)
        algebra = channels.commutant(ch)
        s = channels.channel_superoperator(ch) - np.eye(d * d)
        sing = np.linalg.svd(s, compute_uv=False)
        fixed_dim = int(np.sum(sing <= 1e-9))
        worst = max(worst, float(abs(len(algebra) - fixed_dim)))
    return PropertyResult("commutant_dimension_oracle", worst <= EXACT, worst, EXACT)


def _check_fixed_point_identity_collapsed(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 30)):
        d = _dim(cfg, t, hi=6)
        ch = channels.random_gio(d, 1 + t % d, rng)
        algebra = channels.commutant(ch)
        for _ in range(4):
            z = rng.standard_normal(len(algebra)) + 1j * rng.standard_normal(len(algebra))
            z = z / np.linalg.norm(z)
            x = sum(c * b for c, b in zip(z, algebra))
            result = channels.fixed_point_check(ch, x)
            lhs = np.zeros((d, d), dtype=complex)
            for k in ch.kraus:
                comm = x @ k - k @ x
                lhs += comm @ comm.conj().T
            xx = x @ x.conj().T
            collapsed = channels.apply_to_operator(ch, xx) - xx
            worst = max(
                worst,
                result.fixedness_residual,
                linalg.hs_norm(lhs - collapsed),
            )
    return PropertyResult("fixed_point_identity_collapsed", worst <= tol, worst, tol)


def _check_commutator_expansion_identity(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    makers = (
        lambda d: channels.random_gio(d, 2, rng),
        lambda d: channels.random_mixed_unitary(d, 2, rng),
        lambda d: channels.random_sio(d, 2, rng),
        lambda d: channels.random_io(d, rng),
    )
    for t in range(_count(cfg, 100)):
        d = _dim(cfg, t)
        ch = makers[t % len(makers)](d)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = x / np.linalg.norm(x)
        worst = max(worst, channels.fixed_point_check(ch, x).identity_residual)
    return PropertyResult("commutator_expansion_identity", worst <= tol, worst, tol)


def _shrunk_gio(rng, d: int, n_kraus: int, ceiling: float = 0.9) -> channels.KrausChannel:
    # rescale the correlation matrix toward the identity until every
    # off-diagonal magnitude is at most the ceiling
    corr = channels.correlation_matrix_of(channels.random_gio(d, n_kraus, rng))
    c = corr.matrix
    off = float(np.max(np.abs(c - np.diag(np.diag(c)))))
    if off > ceiling:
        t = ceiling / off
        c = t * c + (1.0 - t) * np.eye(d)
    return channels.gio_from_correlation(c)


def _check_dephasing_limit_offdiagonal(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    steps = 200
    tol, worst = 0.9**steps + 1e-12, 0.0
    for t in range(_count(cfg, 10)):
        d = _dim(cfg, t)
        ch = _shrunk_gio(rng, d, 1 + t % d)
        x = states.random_density(d, seed=rng).matrix
        for _ in range(steps):
            x = channels.apply_to_operator(ch, x)
        worst = max(worst, float(np.max(np.abs(x - np.diag(np.diag(x))))))
    return PropertyResult("dephasing_limit_offdiagonal", worst <= tol, worst, tol)


def _check_schur_power_law(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-9, 0.0
    for t in range(_count(cfg, 5)):
        d = _dim(cfg, t)
        ch = channels.random_gio(d, 1 + t % d, rng)
        schur = channels.correlation_matrix_of(ch).matrix.T
        rho = states.random_density(d, seed=rng).matrix
        x = rho.copy()
        power = np.ones_like(schur)
        for _ in range(200):
            x = channels.apply_to_operator(ch, x)
            power = power * schur
            worst = max(worst, float(np.max(np.abs(x - power * rho))))
    return PropertyResult("schur_power_law", worst <= tol, worst, tol)


def _unit_action_residual(ch: channels.KrausChannel, reference) -> float:
    """Worst |extracted action - reference action| over all matrix units."""
    d = ch.dim
    worst = 0.0
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            diff = channels.apply_to_operator(ch, unit) - reference(unit)
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _dilation_cases(rng, cfg):
    """Deterministic list of (model, reference action) pairs."""
    cases = []
    d = _dim(cfg, 0, lo=2, hi=4)
    basis = states.random_unitary(d, rng)
    model = dilation.dilate_von_neumann(basis)
    projs = [np.outer(basis[:, n], basis[:, n].conj()) for n in range(d)]
    cases.append((model, lambda x, ps=projs: sum(p @ x @ p for p in ps)))

    obs = states.random_observable(4, (2, 1, 1), rng)
    model = dilation.dilate_luders(obs)
    cases.append((model, lambda x, o=obs: sum(p @ x @ p for p in o.projectors)))

    for t in range(3):
        d = _dim(cfg, t, lo=2, hi=5)
        ch = channels.random_gio(d, 1 + t % d, rng)
        model = dilation.dilate_gio(ch)
        cases.append((model, lambda x, c=ch: channels.apply_to_operator(c, x)))

    # diagonal in a rotated basis
    d = 3
    b = states.random_unitary(d, rng)
    inner = channels.random_gio(d, 2, rng)
    rotated = channels.kraus_channel([b @ k @ b.conj().T for k in inner.kraus])
    model = dilation.dilate_gio(rotated, basis=b)
    cases.append((model, lambda x, c=rotated: channels.apply_to_operator(c, x)))

    for t in range(2):
        d = _dim(cfg, t, lo=2, hi=5)
        ch = channels.random_sio(d, 2 + t, rng)
        model = dilation.dilate_incoherent(ch)
        cases.append((model, lambda x, c=ch: channels.apply_to_operator(c, x)))
    for t in range(2):
        d = _dim(cfg, t, lo=2, hi=5)
        ch = channels.random_io(d, rng)
        model = dilation.dilate_incoherent(ch)
        cases.append((model, lambda x, c=ch: channels.apply_to_operator(c, x)))

    d = 3
    model = dilation.DilationModel(
        system_dim=d,
        ancilla_dim=d,
        apparatus_init=np.eye(d, dtype=complex)[:, 0],
        joint_unitary=dilation.generalized_cnot(d),
        readout_basis=np.eye(d, dtype=complex),
    ).validate()
    units = [np.diag(np.eye(d)[:, n]).astype(complex) for n in range(d)]
    cases.append((model, lambda x, ps=units: sum(p @ x @ p for p in ps)))
    return cases


def _check_dilation_round_trips(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for model, reference in _dilation_cases(rng, cfg):
        extracted = dilation.extract_kraus(model)
        worst = max(worst, _unit_action_residual(extracted, reference))
    return PropertyResult("dilation_round_trips", worst <= tol, worst, tol)


def _check_dilation_unitarity(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-8, 0.0
    for model, _ in _dilation_cases(rng, cfg):
        u = model.joint_unitary
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))))
    return PropertyResult("dilation_unitarity", worst <= tol, worst, tol)


def _check_dilated_repeatability(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 10)):
        d = _dim(cfg, t, lo=3, hi=6)
        obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
        model = dilation.dilate_luders(obs)
        rho = states.random_density(d, seed=rng)
        init = model.apparatus_init
        joint = model.joint_unitary @ linalg.tensor(
            rho.matrix, np.outer(init, init.conj())
        ) @ model.joint_unitary.conj().T
        n_out = obs.n_outcomes
        for n, p in enumerate(obs.projectors):
            marker = np.zeros((n_out, n_out), dtype=complex)
            marker[n, n] = 1.0
            lifted = linalg.tensor(np.eye(d), marker)
            block = lifted @ joint @ lifted
            prob = float(np.real(np.trace(block)))
            if prob < 1e-10:
                continue
            sys = linalg.partial_trace(block, (d, n_out), keep=0) / prob
            worst = max(worst, float(np.max(np.abs(sys - p @ sys @ p))))
    return PropertyResult("dilated_repeatability", worst <= tol, worst, tol)


def _check_theta_blocks_in_eigenspace(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 10)):
        d = _dim(cfg, t, lo=3)
        obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
        for n in range(obs.n_outcomes):
            theta_n = obs.block_basis(n) @ states.random_unitary(obs.degeneracies[n], rng)
            worst = max(
                worst, float(np.max(np.abs(obs.projectors[n] @ theta_n - theta_n)))
            )
    return PropertyResult("theta_blocks_in_eigenspace", worst <= tol, worst, tol)


def _check_apparatus_coherence_generation(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    chans = [channels.phase_damping(0.75)]
    for t in range(_count(cfg, 5)):
        d = _dim(cfg, t, hi=5)
        chans.append(channels.random_gio(d, 2 + t % 2, rng))
    apparatus_best = 0.0
    for ch in chans:
        model = dilation.dilate_gio(ch)
        d, d_a = model.system_dim, model.ancilla_dim
        init = model.apparatus_init
        for i in range(d):
            vec = np.zeros(d, dtype=complex)
            vec[i] = 1.0
            joint_in = np.kron(vec, init)
            joint_out = model.joint_unitary @ joint_in
            full = np.outer(joint_out, joint_out.conj())
            sys = linalg.partial_trace(full, (d, d_a), keep=0)
            app = linalg.partial_trace(full, (d, d_a), keep=1)
            worst = max(worst, float(np.max(np.abs(sys - np.outer(vec, vec.conj())))))
            apparatus_best = max(
                apparatus_best, coherence.c_l1(app, np.eye(d_a, dtype=complex))
            )
    if apparatus_best <= 1e-3:
        worst = float("inf")
    return PropertyResult(
        "apparatus_coherence_generation",
        worst <= tol,
        worst,
        tol,
        detail=f"apparatus coherence reaches {apparatus_best:.3e}",
    )


def _check_povm_coherence_nonneg(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, -np.inf
    for t in range(_count(cfg, 50)):
        d = 2 + t % 2
        povm = states.random_povm(d, 2 + t % 3, rng)
        rho = states.random_density(d, seed=rng)
        worst = max(
            worst,
            -coherence.povm_coherence(rho, povm),
            -coherence.povm_coherence_modified(rho, povm),
        )
    return PropertyResult("povm_coherence_nonneg", worst <= tol, worst, tol)


def _check_povm_projective_reduction(seed, cfg) -> PropertyResult:
    rng = np.random.default_rng(seed)
    tol, worst = 1e-10, 0.0
    for t in range(_count(cfg, 20)):
        d = _dim(cfg, t)
        basis = states.random_unitary(d, rng)
        effects = [np.outer(basis[:, n], basis[:, n].conj()) for n in range(d)]
        povm = states.make_povm(effects)
        rho = states.random_density(d, seed=rng)
        ref = coherence.c_re(rho, basis)
        worst = max(
            worst,
            abs(coherence.povm_coherence(rho, povm) - ref),
            abs(coherence.povm_coherence_modified(rho, povm) - ref),
        )
    return PropertyResult("povm_projective_reduction", worst <= tol, worst, tol)


# seed children are spawned in this order; the report is sorted by name
REGISTRY = (
    _check_eig_reconstruction,
    _check_schur_product_psd,
    _check_relative_entropy_nonneg,
    _check_relative_entropy_faithful,
    _check_spectral_reconstruction,
    _check_fine_graining_resolution,
    _check_minimal_disturbance_hs,
    _check_pythagorean_identity,
    _check_pinching_entropy_increase,
    _check_pinching_majorization,
    _check_orthogonal_support_product,
    _check_unitary_mixing_average,
    _check_hierarchy_monotonicity,
    _check_hierarchy_gap_identity,
    _check_optimal_fine_graining_collapse,
    _check_discord_decomposition,
    _check_repeatable_residual_coherence,
    _check_label_permutation_covariance,
    _check_gio_schur_equivalence,
    _check_unital_majorization,
    _check_schur_eigenvalue_majorization,
    _check_permutation_coherence_preservation,
    _check_sieve_action,
    _check_classify_monotonicity,
    _check_commutant_dimension_oracle,
    _check_fixed_point_identity_collapsed,
    _check_commutator_expansion_identity,
    _check_dephasing_limit_offdiagonal,
    _check_schur_power_law,
    _check_dilation_round_trips,
    _check_dilation_unitarity,
    _check_dilated_repeatability,
    _check_theta_blocks_in_eigenspace,
    _check_apparatus_coherence_generation,
    _check_povm_coherence_nonneg,
    _check_povm_projective_reduction,
)


def run_all(cfg: VerifyConfig) -> list[PropertyResult]:
    """Run every registered property; results come back sorted by name."""
    # properties draw d from [lo, min(dim_max, hi)] with lo <= 3 and hi <= 8,
    # so a dim_max outside [3, 8] could only be clamped
    if not 3 <= cfg.dim_max <= 8:
        raise BadParameterError(f"dim_max must lie in [3, 8], got {cfg.dim_max}")
    if cfg.trials is not None and cfg.trials < 1:
        raise BadParameterError(f"trials must be at least 1, got {cfg.trials}")
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(len(REGISTRY))
    results = [check(child, cfg) for check, child in zip(REGISTRY, children)]
    return sorted(results, key=lambda r: r.name)


def format_report(results: list[PropertyResult], cfg: VerifyConfig) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name:<{width}}  worst={r.worst: .6e}  tol={r.tolerance:.1e}"
        if r.detail:
            line += f"  ({r.detail})"
        lines.append(line)
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} properties passed  seed={cfg.seed}")
    return "\n".join(lines)


def report_json(results: list[PropertyResult], cfg: VerifyConfig) -> dict:
    return {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "dim_max": cfg.dim_max,
        "corrupt": cfg.corrupt,
        "passed": all(r.passed for r in results),
        "properties": [
            {
                "name": r.name,
                "passed": r.passed,
                "worst": r.worst,
                "tolerance": r.tolerance,
                "detail": r.detail,
            }
            for r in results
        ],
    }
