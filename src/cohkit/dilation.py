"""Unitary measurement and channel dilations on system (x) apparatus.

The joint space is ordered system-first. Every builder records the apparatus
initial vector and the readout basis, so Kraus operators can be read back as
<a_n| U |a_0> blocks. Dilations are not unique; the isometry builders
complete V = sum_n K_n (x) |n> with the orthogonal complements from one
complete QR factorization each, which is deterministic, so equal inputs give
bitwise equal models. A DilationModel is immutable and is checked once, when
it is built, so extract_kraus reads a model without checking it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import (
    GIO,
    NOT_IO,
    KrausChannel,
    classify,
    correlation_matrix_of,
    kraus_channel,
)
from .errors import (
    BadDimensionError,
    BadParameterError,
    InvalidModelError,
    NotIOFormError,
    NotIsometryError,
    UnsupportedClassError,
)
from .states import Observable, _integer, _read_only


@dataclass(eq=False, frozen=True)
class DilationModel:
    """A joint unitary with the apparatus bookkeeping needed to read it.

    Immutable and checked when built: both sizes must be positive integers,
    the joint operator unitary, the apparatus vector normalized and the
    readout columns orthonormal, and the three arrays are kept as read-only
    copies.
    """

    system_dim: int
    ancilla_dim: int
    apparatus_init: np.ndarray      # unit vector, length ancilla_dim
    joint_unitary: np.ndarray       # (system_dim*ancilla_dim) squared
    readout_basis: np.ndarray       # ancilla_dim x n_outcomes orthonormal columns

    def __post_init__(self):
        d_s = _integer("system_dim", self.system_dim)
        d_a = _integer("ancilla_dim", self.ancilla_dim)
        if d_s < 1 or d_a < 1:
            raise BadDimensionError("dimensions must be positive")
        u = linalg.as_square(self.joint_unitary)
        if u.shape[0] != d_s * d_a:
            raise BadDimensionError("joint unitary does not match system x apparatus")
        if linalg.orthonormality_defect(u) > linalg.DEFAULT_TOL:
            raise InvalidModelError("joint operator is not unitary within tolerance")
        init = linalg._finite(np.asarray(self.apparatus_init, dtype=complex), "apparatus init")
        if init.shape != (d_a,):
            raise BadDimensionError("apparatus init vector has the wrong length")
        if abs(np.linalg.norm(init) - 1.0) > linalg.DEFAULT_TOL:
            raise InvalidModelError("apparatus init vector is not normalized")
        basis = linalg._finite(np.asarray(self.readout_basis, dtype=complex), "readout basis")
        if basis.ndim != 2 or basis.shape[0] != d_a or basis.shape[1] > d_a:
            raise BadDimensionError("readout basis has the wrong shape")
        if linalg.orthonormality_defect(basis) > linalg.DEFAULT_TOL:
            raise InvalidModelError("readout basis columns are not orthonormal")
        arrays = {"joint_unitary": u, "apparatus_init": init, "readout_basis": basis}
        for name, value in arrays.items():
            object.__setattr__(self, name, _read_only(value))


def extract_kraus(model: DilationModel) -> KrausChannel:
    """Kraus operators K_n = <a_n| U |a_0>, one per readout vector."""
    d_s, d_a = model.system_dim, model.ancilla_dim
    t = model.joint_unitary.reshape(d_s, d_a, d_s, d_a)
    # rows a_n^*, contiguous: einsum's summation order follows operand layout
    readout = np.ascontiguousarray(model.readout_basis.conj().T)
    return kraus_channel(np.einsum("na,iajb,b->nij", readout, t, model.apparatus_init))


def householder_unitary(source, target) -> np.ndarray:
    """A unitary sending the unit vector source to the unit vector target.

    The target is phase-rotated so its overlap with the source is real and
    nonnegative before reflecting; the reflection then uses the sum vector,
    whose norm is bounded below by sqrt(2), so no cancellation occurs even
    when the overlap approaches -1.
    """
    u = linalg._finite(np.asarray(source, dtype=complex), "householder vector")
    v = linalg._finite(np.asarray(target, dtype=complex), "householder vector")
    if u.shape != v.shape or u.ndim != 1:
        raise BadDimensionError("source and target must be equal-length vectors")
    for x in (u, v):
        if abs(np.linalg.norm(x) - 1.0) > linalg.DEFAULT_TOL:
            raise BadParameterError("householder vectors must be normalized")
    s = complex(np.vdot(v, u))
    phase = s / abs(s) if abs(s) > 0.0 else 1.0 + 0.0j
    v_aligned = phase * v
    w = u + v_aligned
    w = w / np.linalg.norm(w)
    reflect = np.eye(u.size, dtype=complex) - 2.0 * np.outer(w, w.conj())
    return -np.conj(phase) * reflect


def _orthogonal_complement(columns: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the complement of k orthonormal columns.

    The trailing columns of the complete QR factor, so equal inputs give
    bitwise equal completions.
    """
    return np.linalg.qr(columns, mode="complete")[0][:, columns.shape[1]:]


def extend_to_unitary(v: np.ndarray, apparatus_init) -> np.ndarray:
    """Unitary U with U(|psi> (x) |a_0>) = V|psi> for an isometry V.

    U = V (1 (x) <a_0|) + C (1 (x) A)^dag, where C spans the complement of the
    range of V and A the apparatus complement of |a_0>, each the trailing
    columns of one complete QR factorization.
    """
    v = linalg._finite(np.asarray(v, dtype=complex), "V")
    if v.ndim != 2:
        raise BadDimensionError("V must be a matrix")
    total, d_s = v.shape
    if total % d_s != 0:
        raise BadDimensionError("V must map the system into system x apparatus")
    d_a = total // d_s
    init = linalg._finite(np.asarray(apparatus_init, dtype=complex), "apparatus init")
    if init.shape != (d_a,):
        raise BadDimensionError("apparatus init vector has the wrong length")
    if abs(np.linalg.norm(init) - 1.0) > linalg.DEFAULT_TOL:
        raise BadParameterError("apparatus init vector is not normalized")
    if linalg.orthonormality_defect(v) > linalg.DEFAULT_TOL:
        raise NotIsometryError("V is not an isometry within tolerance")
    eye_s = np.eye(d_s, dtype=complex)
    domain = linalg._kron(eye_s, _orthogonal_complement(init[:, None]))
    embed = linalg._kron(eye_s, init[:, None])
    return v @ embed.conj().T + _orthogonal_complement(v) @ domain.conj().T


def _stacked_isometry(ops) -> np.ndarray:
    # sum_n K_n (x) |n>: row i*r + n of the result is row i of K_n
    d = ops[0].shape[0]
    return np.stack(ops, axis=1).reshape(d * len(ops), d)


def effective_isometry(ch: KrausChannel, basis=None) -> np.ndarray:
    """V = sum_n K_n (x) |a_n> for an incoherent channel; V^dag V = 1."""
    if classify(ch, basis) == NOT_IO:
        raise NotIOFormError("an incoherent Kraus list is required")
    return _stacked_isometry(ch.kraus)


def _standard_init(dim: int) -> np.ndarray:
    init = np.zeros(dim, dtype=complex)
    init[0] = 1.0
    return init


def _pointer_model(joint_unitary: np.ndarray, system_dim: int) -> DilationModel:
    # apparatus starts in |0> and is read in its standard basis
    d_a = joint_unitary.shape[0] // system_dim
    return DilationModel(
        system_dim=system_dim,
        ancilla_dim=d_a,
        apparatus_init=_standard_init(d_a),
        joint_unitary=joint_unitary,
        readout_basis=np.eye(d_a, dtype=complex),
    )


def _isometry_model(v: np.ndarray) -> DilationModel:
    # complete V = sum_n K_n (x) |n> to a unitary on system x apparatus
    d = v.shape[1]
    return _pointer_model(extend_to_unitary(v, _standard_init(v.shape[0] // d)), d)


def dilate_von_neumann(basis) -> DilationModel:
    """Pointer model of the nondegenerate reading in the given basis.

    U maps |phi_n>|a_0> to |phi_n>|a_n>; the extracted Kraus operators are
    the rank-one projectors |phi_n><phi_n|.
    """
    b = np.asarray(getattr(basis, "basis", basis), dtype=complex)
    b = linalg.basis_matrix(b, b.shape[0])
    projectors = [c @ c.conj().T for c in np.hsplit(b, b.shape[1])]
    return _isometry_model(_stacked_isometry(projectors))


def dilate_luders(obs: Observable) -> DilationModel:
    """Pointer model of the degenerate reading; extracted Kraus are the P_n."""
    return _isometry_model(_stacked_isometry(obs.projectors))


def dilate_gio(ch: KrausChannel, basis=None) -> DilationModel:
    """Controlled-apparatus model of a diagonal-Kraus channel.

    U = sum_i |phi_i><phi_i| (x) U_i with U_i |a_0> = |c_i> the dynamical
    vectors; the apparatus dimension is their component count (padded to 2
    for the trivial rank-one case).
    """
    corr = correlation_matrix_of(ch, basis)
    vectors = corr.vectors
    if vectors.shape[0] == 1:
        vectors = np.vstack([vectors, np.zeros((1, vectors.shape[1]), dtype=complex)])
    d_a = vectors.shape[0]
    d = ch.dim
    b = np.eye(d, dtype=complex) if basis is None else linalg.basis_matrix(basis, d)
    init = _standard_init(d_a)
    u = np.zeros((d * d_a, d * d_a), dtype=complex)
    for i in range(d):
        col = b[:, i:i + 1]
        u += linalg._kron(col @ col.conj().T, householder_unitary(init, vectors[:, i]))
    return _pointer_model(u, d)


def dilate_incoherent(ch: KrausChannel, basis=None) -> DilationModel:
    """Isometry-plus-completion model; extracted Kraus equal the input list."""
    return _isometry_model(effective_isometry(ch, basis))


def dilate(ch: KrausChannel, basis=None) -> DilationModel:
    """Pick the dilation builder matching the channel's incoherence class."""
    label = classify(ch, basis)
    if label == NOT_IO:
        raise UnsupportedClassError(f"no dilation builder for class {label}")
    return dilate_gio(ch, basis) if label == GIO else dilate_incoherent(ch, basis)


def generalized_cnot(dim: int) -> np.ndarray:
    """sum_n |n><n| (x) X^n with X the cyclic shift; entries exactly 0 or 1.

    Raises BadParameterError when its dim**4 entries exceed ``linalg.MAX_ENTRIES``.
    """
    if _integer("dim", dim) < 2:
        raise BadDimensionError("dim must be at least 2")
    linalg._check_entries(dim**4, "the generalized CNOT")
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    power = np.eye(dim, dtype=complex)
    for n in range(dim):
        e_n = np.zeros((dim, dim), dtype=complex)
        e_n[n, n] = 1.0
        u += linalg._kron(e_n, power)
        power = shift @ power
    return u
