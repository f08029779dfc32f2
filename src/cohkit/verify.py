"""Seeded self-check suite behind the command line's verify subcommand.

Every property is a ``_check_<name>`` declared with
``@_property(tol, trials, start=0.0, witness=None)``, in one of two shapes:

- with a trial count, ``_check_<name>(rng, cfg, t) -> float`` is one trial,
  and the harness runs ``trials`` of them (``cfg.trials`` overrides the count);
- with ``trials=None``, ``_check_<name>(rng, cfg)`` yields one value per case
  of its own list.

The harness keeps the largest value, starting from ``start`` (0.0 for
magnitudes, -inf for signed margins), and passes the property when that worst
value is at most ``tol``. A NaN value makes the worst value NaN, which fails.
With ``witness=(bound, detail)`` each value comes paired with a witness value:
unless the largest witness value exceeds ``bound``, the cases missed what the
identity is about and the worst value becomes inf. ``detail.format(best)`` is
the report's detail.

Every named property draws its randomness from a child of one root seed
(SeedSequence spawning, one child per property in definition order, which
is the order of ``REGISTRY``), so the whole report is a pure function of the
configuration, and moving a definition redraws every report. Nothing here
prints timing or machine state; two runs with the same seed emit identical
bytes.
"""

from __future__ import annotations

import functools
import math
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


def _worst(*values: float, start: float = -np.inf) -> float:
    """The largest of ``start`` and ``values``; ties keep the earlier one.

    A NaN value makes the result NaN, which fails every ``worst <= tol``;
    ``max`` alone drops a NaN that follows a number.
    """
    worst = start
    for v in values:
        worst = v if math.isnan(v) else max(worst, v)
    return worst


# seed children are spawned in this order, which is definition order below;
# the report is sorted by name
REGISTRY: list = []


def _property(
    tol: float, trials: int | None, start: float = 0.0, witness: tuple[float, str] | None = None
):
    """Register ``_check_<name>`` as the property <name> (see the module docstring)."""

    def declare(check):
        name = check.__name__.removeprefix("_check_")

        @functools.wraps(check)
        def run(seed, cfg: VerifyConfig) -> PropertyResult:
            rng = np.random.default_rng(seed)
            if trials is None:
                values = check(rng, cfg)
            else:
                values = (check(rng, cfg, t) for t in range(_count(cfg, trials)))
            detail = ""
            if witness is not None:
                bound, template = witness
                values, seen = zip(*values)
                best = _worst(*seen, start=0.0)
                detail = template.format(best)
                if not best > bound:  # no case reached what the identity is about
                    values = (math.inf,)
            worst = _worst(*values, start=start)
            return PropertyResult(name, worst <= tol, worst, tol, detail)

        REGISTRY.append(run)
        return run

    return declare


def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def _random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def _random_psd(rng, d: int) -> np.ndarray:
    # the draws and bits of states.random_density(d, seed=rng).matrix, without
    # the check a DensityMatrix makes, for trials that need only the matrix
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


@_property(tol=1e-10, trials=20)
def _check_eig_reconstruction(rng, cfg, t):
    d = 2 + t % 15  # up to dim 16
    h = _random_hermitian(rng, d)
    spec = linalg.hermitian_eig(h)
    rec = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    return _max_abs(rec - h)


@_property(tol=1e-10, trials=20)
def _check_schur_product_psd(rng, cfg, t):
    d = _dim(cfg, t)
    prod = linalg.schur_product(_random_psd(rng, d), _random_psd(rng, d))
    w = linalg.hermitian_eig(prod).eigenvalues
    return float(-w.min())


@_property(tol=1e-10, trials=20)
def _check_relative_entropy_nonneg(rng, cfg, t):
    d = _dim(cfg, t)
    rho = states.random_density(d, seed=rng)
    sigma = states.random_density(d, seed=rng)
    return -linalg.relative_entropy(rho, sigma)


_FAITHFUL_TOL = 1e-8


@_property(tol=_FAITHFUL_TOL, trials=20)
def _check_relative_entropy_faithful(rng, cfg, t):
    d = _dim(cfg, t)
    rho = states.random_density(d, seed=rng)
    sigma = states.random_density(d, seed=rng)
    same = linalg.relative_entropy(rho, rho)
    # distinct independent states must give a strictly positive value
    if linalg.relative_entropy(rho, sigma) <= _FAITHFUL_TOL:
        return float("inf")
    return same


@_property(tol=1e-8, trials=20)
def _check_spectral_reconstruction(rng, cfg, t):
    d = _dim(cfg, t, lo=3)
    obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
    h = obs.matrix()
    redone = states.spectral_decompose(h)
    if redone.n_outcomes != obs.n_outcomes:
        return float("inf")
    return _max_abs(redone.matrix() - h)


@_property(tol=1e-8, trials=20)
def _check_fine_graining_resolution(rng, cfg, t):
    d = _dim(cfg, t, lo=3)
    obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
    fg = _random_fg(rng, obs)
    return _worst(*(_max_abs(b @ b.conj().T - p) for b, p in zip(fg.blocks, obs.projectors)))


@_property(tol=1e-12, trials=20, start=-np.inf)
def _check_minimal_disturbance_hs(rng, cfg, t):
    d = _dim(cfg, t)
    obs = states.random_observable(d, _random_profile(rng, d), rng)
    rho = states.random_density(d, seed=rng)
    pinched = instruments.luders(rho, obs)
    base = linalg.hs_norm(rho.matrix - pinched.matrix)
    sigmas = instruments._random_block_diagonal_stack(obs, 200, rng)
    return _worst(*(base - linalg.hs_norm(rho.matrix - sigma) for sigma in sigmas))


@_property(tol=1e-8, trials=20)
def _check_pythagorean_identity(rng, cfg, t):
    d = _dim(cfg, t)
    obs = states.random_observable(d, _random_profile(rng, d), rng)
    rho = states.random_density(d, seed=rng)
    pinched = instruments.luders(rho, obs)
    middle = linalg.relative_entropy(rho, pinched)
    # the kernel of relative_entropy on one spectrum per matrix: rho's and
    # the pinched state's from here, each sigma's from the loop
    wr = linalg._clamped_density_eigvals(rho)
    wp = linalg._clamped_density_eigvals(pinched)
    # the relative entropies draw nothing, so drawing all ten first keeps the stream
    residuals = []
    for sigma in instruments._random_block_diagonal_stack(obs, 10, rng):
        sigma_eigs = linalg._clamped_density_eigs(sigma)
        total = linalg._relative_entropy_core(rho.matrix, sigma, sigma_eigs, wr)
        tail = linalg._relative_entropy_core(pinched.matrix, sigma, sigma_eigs, wp)
        residuals.append(abs(total - middle - tail))
    return _worst(*residuals)


@_property(tol=1e-10, trials=30, start=-np.inf)
def _check_pinching_entropy_increase(rng, cfg, t):
    d = _dim(cfg, t)
    obs = states.random_observable(d, _random_profile(rng, d), rng)
    rho = states.random_density(d, seed=rng)
    pinched = instruments.luders(rho, obs)
    return linalg.von_neumann_entropy(rho) - linalg.von_neumann_entropy(pinched)


@_property(tol=1e-9, trials=30, start=-np.inf)
def _check_pinching_majorization(rng, cfg, t):
    d = _dim(cfg, t)
    obs = states.random_observable(d, _random_profile(rng, d), rng)
    rho = states.random_density(d, seed=rng)
    pinched = instruments.luders(rho, obs)
    return _majorization_defect(rho.eigenvalues(), pinched.eigenvalues())


@_property(tol=1e-10, trials=20)
def _check_orthogonal_support_product(rng, cfg, t):
    d = _dim(cfg, t, lo=3)
    u = states.random_unitary(d, rng)
    k = int(rng.integers(1, d))
    left, right = u[:, :k], u[:, k:]
    a = left @ _random_psd(rng, k) @ left.conj().T
    b = right @ _random_psd(rng, d - k) @ right.conj().T
    return linalg.hs_norm(a @ b)


@_property(tol=1e-10, trials=20)
def _check_unitary_mixing_average(rng, cfg, t):
    d = _dim(cfg, t)
    obs = states.random_observable(d, _random_profile(rng, d), rng)
    rho = states.random_density(d, seed=rng)
    mix = instruments.unitary_mixing(obs)
    avg = sum(u @ rho.matrix @ u.conj().T for u in mix) / len(mix)
    return _max_abs(avg - instruments.luders(rho, obs).matrix)


@_property(tol=1e-10, trials=50, start=-np.inf)
def _check_hierarchy_monotonicity(rng, cfg, t):
    d = _dim(cfg, t, lo=3)
    obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
    rho = states.random_density(d, seed=rng)
    fg = _random_fg(rng, obs)
    return _worst(
        coherence.c_l1_coarse(rho, obs, fg) - coherence.c_l1(rho, fg.basis),
        coherence.c_re_coarse(rho, obs) - coherence.c_re(rho, fg.basis),
    )


@_property(tol=1e-8, trials=50)
def _check_hierarchy_gap_identity(rng, cfg, t):
    d = _dim(cfg, t, lo=3)
    obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
    rho = states.random_density(d, seed=rng)
    fg = _random_fg(rng, obs)
    gap = coherence.hierarchy_gap(rho, obs, fg)
    diff = coherence.c_re(rho, fg.basis) - coherence.c_re_coarse(rho, obs)
    return abs(gap - diff)


@_property(tol=1e-8, trials=30)
def _check_optimal_fine_graining_collapse(rng, cfg, t):
    d = _dim(cfg, t, lo=3)
    obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
    rho = states.random_density(d, seed=rng)
    best = instruments.optimal_fine_grain(obs, rho)
    return _worst(
        abs(coherence.c_l1(rho, best.basis) - coherence.c_l1_coarse(rho, obs, best)),
        abs(coherence.c_re(rho, best.basis) - coherence.c_re_coarse(rho, obs)),
        coherence.hierarchy_gap(rho, obs, best),
        _max_abs(instruments.dephase(rho, best.basis).matrix - instruments.luders(rho, obs).matrix),
    )


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
        cond = states.BipartiteState(dims=state.dims, state=(cond + cond.conj().T) / 2.0 / p_n)
        total += p_n * coherence.mutual_information(cond)
    return total


def _discord_cases(rng, cfg):
    for t in range(_count(cfg, 50)):
        d_b = 2 + t % 2
        state = states.random_bipartite(2, d_b, seed=rng)
        # every other qubit-qutrit case reads B through a degenerate observable
        yield state, states.random_observable(d_b, (2, 1) if t % 4 == 1 else (1,) * d_b, rng)
    yield _witness_state()


@_property(tol=1e-8, trials=None,
           witness=(1e-3, "degenerate-block conditional information up to {:.3e}"))
def _check_discord_decomposition(rng, cfg):
    for state, obs in _discord_cases(rng, cfg):
        info = coherence.mutual_information(state)
        delta = coherence.luders_discord(state, obs)
        j = coherence.classical_correlation(state, obs)
        qi = coherence.qi_coherence(state, obs)
        local = coherence.c_re_coarse(state.reduced_b(), obs)
        degenerate = obs.n_outcomes < obs.dim
        yield (
            _worst(abs(j + delta - info), abs(delta - (qi - local))),
            _conditional_mutual_information_sum(state, obs) if degenerate else 0.0,
        )


@_property(tol=1e-10, trials=30)
def _check_repeatable_residual_coherence(rng, cfg, t):
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
    return _worst(
        abs(coherence.c_l1(out, theta_basis) - coherence.c_l1(lud, fg.basis)),
        abs(coherence.c_re(out, theta_basis) - coherence.c_re(lud, fg.basis)),
        abs(linalg.von_neumann_entropy(out) - linalg.von_neumann_entropy(lud)),
        _max_abs(
            instruments.born_probabilities(out, obs) - instruments.born_probabilities(rho, obs)
        ),
    )


@_property(tol=1e-12, trials=20)
def _check_label_permutation_covariance(rng, cfg, t):
    d = _dim(cfg, t)
    rho = states.random_density(d, seed=rng)
    basis = states.random_unitary(d, rng)
    shuffled = basis[:, rng.permutation(d)]
    return _worst(
        abs(coherence.c_l1(rho, shuffled) - coherence.c_l1(rho, basis)),
        abs(coherence.c_re(rho, shuffled) - coherence.c_re(rho, basis)),
    )


@_property(tol=1e-10, trials=100)
def _check_gio_schur_equivalence(rng, cfg, t):
    d = _dim(cfg, t)
    ch = channels.random_gio(d, 1 + t % d, rng)
    corr = channels.correlation_matrix_of(ch)
    if cfg.corrupt and t == 0:
        ops = [k.copy() for k in ch.kraus]
        ops[0][0, 0] = -ops[0][0, 0]  # break the Kraus/Schur agreement
        ch = channels.kraus_channel(ops)
    schur = corr.matrix.T
    rhos = (_random_psd(rng, d) for _ in range(5))
    return _worst(
        *(linalg.hs_norm(channels.apply_to_operator(ch, rho) - schur * rho) for rho in rhos)
    )


@_property(tol=1e-9, trials=100, start=-np.inf)
def _check_unital_majorization(rng, cfg, t):
    d = _dim(cfg, t)
    if t % 2 == 0:
        ch = channels.random_gio(d, 1 + t % d, rng)
    else:
        ch = channels.random_mixed_unitary(d, 2 + t % 3, rng)
    rho = states.random_density(d, seed=rng)
    out = channels.apply_channel(ch, rho)
    return _worst(
        _majorization_defect(rho.eigenvalues(), out.eigenvalues()),
        linalg.von_neumann_entropy(rho) - linalg.von_neumann_entropy(out),
    )


@_property(tol=1e-9, trials=30, start=-np.inf)
def _check_schur_eigenvalue_majorization(rng, cfg, t):
    d = _dim(cfg, t)
    a, b = _random_psd(rng, d), _random_psd(rng, d)
    lam_prod = linalg.hermitian_eig(linalg.schur_product(a, b)).eigenvalues
    lam_a = linalg.hermitian_eig(a).eigenvalues
    lam_b = linalg.hermitian_eig(b).eigenvalues
    diag_b = np.sort(np.real(np.diag(b)))[::-1]
    return _worst(
        _weak_majorization_defect(lam_a * diag_b, lam_prod),
        _weak_majorization_defect(lam_a * lam_b, lam_a * diag_b),
    )


@_property(tol=1e-12, trials=20)
def _check_permutation_coherence_preservation(rng, cfg, t):
    d = _dim(cfg, t)
    rho = states.random_density(d, seed=rng)
    perm = np.eye(d, dtype=complex)[:, rng.permutation(d)]
    moved = states.DensityMatrix(perm @ rho.matrix @ perm.conj().T)
    eye = np.eye(d, dtype=complex)
    return _worst(
        abs(coherence.c_l1(moved, eye) - coherence.c_l1(rho, eye)),
        abs(coherence.c_re(moved, eye) - coherence.c_re(rho, eye)),
    )


# algebraically exact identities; the tolerance only absorbs the rounding
# of the BLAS matrix products that evaluate the left sides
@_property(tol=1e-14, trials=20)
def _check_sieve_action(rng, cfg, t):
    d = _dim(cfg, t)
    mapping = tuple(int(i) for i in rng.integers(0, d, size=d))
    relabel = channels.IndexMap(mapping=mapping).matrix()
    coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    sieve = np.diag(coeffs)
    residuals = []
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            target = np.zeros((d, d), dtype=complex)
            target[mapping[i], mapping[j]] = 1.0
            scaled = coeffs[i] * np.conj(coeffs[j]) * unit
            residuals.append(_max_abs(relabel @ unit @ relabel.conj().T - target))
            residuals.append(_max_abs(sieve @ unit @ sieve.conj().T - scaled))
    return _worst(*residuals)


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


@_property(tol=EXACT, trials=15)
def _check_classify_monotonicity(rng, cfg, t):
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
    return 0.0 if ok else float("inf")


@_property(tol=EXACT, trials=30)
def _check_commutant_dimension_oracle(rng, cfg, t):
    d = _dim(cfg, t, hi=6)
    ch = channels.random_gio(d, 1 + t % d, rng)
    algebra = channels.commutant(ch)
    s = channels.channel_superoperator(ch) - np.eye(d * d)
    sing = np.linalg.svd(s, compute_uv=False)
    fixed_dim = int(np.sum(sing <= 1e-9))
    return float(abs(len(algebra) - fixed_dim))


@_property(tol=1e-10, trials=30)
def _check_fixed_point_identity_collapsed(rng, cfg, t):
    d = _dim(cfg, t, hi=6)
    ch = channels.random_gio(d, 1 + t % d, rng)
    algebra = channels.commutant(ch)
    residuals = []
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
        residuals += [result.fixedness_residual, linalg.hs_norm(lhs - collapsed)]
    return _worst(*residuals)


@_property(tol=1e-10, trials=100)
def _check_commutator_expansion_identity(rng, cfg, t):
    d = _dim(cfg, t)
    makers = (
        lambda: channels.random_gio(d, 2, rng),
        lambda: channels.random_mixed_unitary(d, 2, rng),
        lambda: channels.random_sio(d, 2, rng),
        lambda: channels.random_io(d, rng),
    )
    ch = makers[t % len(makers)]()
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = x / np.linalg.norm(x)
    return channels.fixed_point_check(ch, x).identity_residual


def _shrunk_gio(rng, d: int, n_kraus: int, ceiling: float = 0.9) -> channels.KrausChannel:
    # rescale the correlation matrix toward the identity until every
    # off-diagonal magnitude is at most the ceiling
    corr = channels.correlation_matrix_of(channels.random_gio(d, n_kraus, rng))
    c = corr.matrix
    off = _max_abs(c - np.diag(np.diag(c)))
    if off > ceiling:
        t = ceiling / off
        c = t * c + (1.0 - t) * np.eye(d)
    return channels.gio_from_correlation(c)


_DEPHASING_STEPS = 200


@_property(tol=0.9**_DEPHASING_STEPS + 1e-12, trials=10)
def _check_dephasing_limit_offdiagonal(rng, cfg, t):
    d = _dim(cfg, t)
    ch = _shrunk_gio(rng, d, 1 + t % d)
    x = _random_psd(rng, d)
    for _ in range(_DEPHASING_STEPS):
        x = channels.apply_to_operator(ch, x)
    return _max_abs(x - np.diag(np.diag(x)))


@_property(tol=1e-9, trials=5)
def _check_schur_power_law(rng, cfg, t):
    d = _dim(cfg, t)
    ch = channels.random_gio(d, 1 + t % d, rng)
    schur = channels.correlation_matrix_of(ch).matrix.T
    rho = _random_psd(rng, d)
    x = rho.copy()
    power = np.ones_like(schur)
    residuals = []
    for _ in range(200):
        x = channels.apply_to_operator(ch, x)
        power = power * schur
        residuals.append(_max_abs(x - power * rho))
    return _worst(*residuals)


def _unit_action_residual(ch: channels.KrausChannel, reference) -> float:
    """Worst |extracted action - reference action| over all matrix units."""
    d = ch.dim
    worst = 0.0
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            diff = channels.apply_to_operator(ch, unit) - reference(unit)
            worst = _worst(worst, _max_abs(diff))
    return worst


def _dilation_cases(rng, cfg):
    """The (model, reference action) pairs, eleven whatever ``cfg.trials`` says."""
    d = _dim(cfg, 0, lo=2, hi=4)
    basis = states.random_unitary(d, rng)
    model = dilation.dilate_von_neumann(basis)
    projs = [np.outer(basis[:, n], basis[:, n].conj()) for n in range(d)]
    yield model, lambda x, ps=projs: sum(p @ x @ p for p in ps)

    obs = states.random_observable(4, (2, 1, 1), rng)
    model = dilation.dilate_luders(obs)
    yield model, lambda x, o=obs: sum(p @ x @ p for p in o.projectors)

    for t in range(3):
        d = _dim(cfg, t, lo=2, hi=5)
        ch = channels.random_gio(d, 1 + t % d, rng)
        model = dilation.dilate_gio(ch)
        yield model, lambda x, c=ch: channels.apply_to_operator(c, x)

    # diagonal in a rotated basis
    d = 3
    b = states.random_unitary(d, rng)
    inner = channels.random_gio(d, 2, rng)
    rotated = channels.kraus_channel([b @ k @ b.conj().T for k in inner.kraus])
    model = dilation.dilate_gio(rotated, basis=b)
    yield model, lambda x, c=rotated: channels.apply_to_operator(c, x)

    for t in range(2):
        d = _dim(cfg, t, lo=2, hi=5)
        ch = channels.random_sio(d, 2 + t, rng)
        model = dilation.dilate_incoherent(ch)
        yield model, lambda x, c=ch: channels.apply_to_operator(c, x)
    for t in range(2):
        d = _dim(cfg, t, lo=2, hi=5)
        ch = channels.random_io(d, rng)
        model = dilation.dilate_incoherent(ch)
        yield model, lambda x, c=ch: channels.apply_to_operator(c, x)

    d = 3
    model = dilation.DilationModel(
        system_dim=d,
        ancilla_dim=d,
        apparatus_init=np.eye(d, dtype=complex)[:, 0],
        joint_unitary=dilation.generalized_cnot(d),
        readout_basis=np.eye(d, dtype=complex),
    )
    units = [np.diag(np.eye(d)[:, n]).astype(complex) for n in range(d)]
    yield model, lambda x, ps=units: sum(p @ x @ p for p in ps)


@_property(tol=1e-10, trials=None)
def _check_dilation_round_trips(rng, cfg):
    for model, reference in _dilation_cases(rng, cfg):
        yield _unit_action_residual(dilation.extract_kraus(model), reference)


@_property(tol=1e-8, trials=None)
def _check_dilation_unitarity(rng, cfg):
    for model, _ in _dilation_cases(rng, cfg):
        u = model.joint_unitary
        yield _max_abs(u.conj().T @ u - np.eye(u.shape[0]))


@_property(tol=1e-10, trials=10)
def _check_dilated_repeatability(rng, cfg, t):
    d = _dim(cfg, t, lo=3, hi=6)
    obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
    model = dilation.dilate_luders(obs)
    rho = states.random_density(d, seed=rng)
    init = model.apparatus_init
    joint = model.joint_unitary @ linalg.tensor(
        rho.matrix, np.outer(init, init.conj())
    ) @ model.joint_unitary.conj().T
    n_out = obs.n_outcomes
    residuals = []
    for n, p in enumerate(obs.projectors):
        marker = np.zeros((n_out, n_out), dtype=complex)
        marker[n, n] = 1.0
        lifted = linalg.tensor(np.eye(d), marker)
        block = lifted @ joint @ lifted
        prob = float(np.real(np.trace(block)))
        if prob < 1e-10:
            continue
        sys = linalg.partial_trace(block, (d, n_out), keep=0) / prob
        residuals.append(_max_abs(sys - p @ sys @ p))
    return _worst(*residuals)


@_property(tol=1e-10, trials=10)
def _check_theta_blocks_in_eigenspace(rng, cfg, t):
    d = _dim(cfg, t, lo=3)
    obs = states.random_observable(d, _degenerate_profile(rng, d), rng)
    thetas = (
        obs.block_basis(n) @ states.random_unitary(obs.degeneracies[n], rng)
        for n in range(obs.n_outcomes)
    )
    return _worst(*(_max_abs(p @ theta - theta) for p, theta in zip(obs.projectors, thetas)))


@_property(tol=1e-10, trials=None, witness=(1e-3, "apparatus coherence reaches {:.3e}"))
def _check_apparatus_coherence_generation(rng, cfg):
    gios = (channels.random_gio(_dim(cfg, t, hi=5), 2 + t % 2, rng) for t in range(_count(cfg, 5)))
    for ch in (channels.phase_damping(0.75), *gios):
        model = dilation.dilate_gio(ch)
        d, d_a = model.system_dim, model.ancilla_dim
        residuals, reached = [], []
        for i in range(d):
            vec = np.zeros(d, dtype=complex)
            vec[i] = 1.0
            joint_out = model.joint_unitary @ np.kron(vec, model.apparatus_init)
            full = np.outer(joint_out, joint_out.conj())
            sys = linalg.partial_trace(full, (d, d_a), keep=0)
            app = linalg.partial_trace(full, (d, d_a), keep=1)
            residuals.append(_max_abs(sys - np.outer(vec, vec.conj())))
            reached.append(coherence.c_l1(app, np.eye(d_a, dtype=complex)))
        yield _worst(*residuals), _worst(*reached)


@_property(tol=1e-10, trials=50, start=-np.inf)
def _check_povm_coherence_nonneg(rng, cfg, t):
    d = 2 + t % 2
    povm = states.random_povm(d, 2 + t % 3, rng)
    rho = states.random_density(d, seed=rng)
    return _worst(
        -coherence.povm_coherence(rho, povm),
        -coherence.povm_coherence_modified(rho, povm),
    )


@_property(tol=1e-10, trials=20)
def _check_povm_projective_reduction(rng, cfg, t):
    d = _dim(cfg, t)
    basis = states.random_unitary(d, rng)
    effects = [np.outer(basis[:, n], basis[:, n].conj()) for n in range(d)]
    povm = states.make_povm(effects)
    rho = states.random_density(d, seed=rng)
    ref = coherence.c_re(rho, basis)
    return _worst(
        abs(coherence.povm_coherence(rho, povm) - ref),
        abs(coherence.povm_coherence_modified(rho, povm) - ref),
    )


def run_all(cfg: VerifyConfig) -> list[PropertyResult]:
    """Run every registered property; results come back sorted by name."""
    # properties draw d from [lo, min(dim_max, hi)] with lo <= 3 and hi <= 8,
    # so a dim_max outside [3, 8] could only be clamped
    if not 3 <= states._integer("dim_max", cfg.dim_max) <= 8:
        raise BadParameterError(f"dim_max must lie in [3, 8], got {cfg.dim_max}")
    if cfg.trials is not None and states._integer("trials", cfg.trials) < 1:
        raise BadParameterError(f"trials must be at least 1, got {cfg.trials}")
    root = np.random.SeedSequence(states._seed(cfg.seed))
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
