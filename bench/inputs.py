"""Seeded inputs owned by the benchmark.

Every array is drawn here with numpy from the benchmark's own seed, and files
are written with the standard-library JSON encoder in the documented matrix
format (row-major ``[re, im]`` pairs, indented like the command line's own
output). Nothing here calls cohkit's generators or its serializer, so a
change to either leaves the workloads unchanged.
"""

from __future__ import annotations

import json

import numpy as np


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator for one named stream of one benchmark seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def density(rng, d: int) -> np.ndarray:
    """Full-rank state G G^dag / Tr."""
    g = _gaussian(rng, (d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (d, d)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def observable(rng, profile) -> tuple[list[float], list[np.ndarray]]:
    """Eigenvalues (strictly decreasing, gaps of at least 0.5 by construction)
    and the eigenprojectors of a random observable with the given block sizes."""
    d = sum(profile)
    u = unitary(rng, d)
    steps = 0.5 + rng.uniform(0.0, 1.0, size=len(profile))
    values = list(np.cumsum(steps)[::-1])
    projectors, start = [], 0
    for p in profile:
        cols = u[:, start:start + p]
        projectors.append(cols @ cols.conj().T)
        start += p
    return [float(v) for v in values], projectors


def gio(rng, d: int, r: int) -> list[np.ndarray]:
    """Diagonal Kraus operators from unit dynamical vectors."""
    v = _gaussian(rng, (r, d))
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    return [np.diag(row) for row in v]


def sio(rng, d: int, r: int) -> list[np.ndarray]:
    """Permutation-times-diagonal Kraus operators."""
    c = _gaussian(rng, (r, d))
    c /= np.linalg.norm(c, axis=0, keepdims=True)
    ops = []
    for n in range(r):
        k = np.zeros((d, d), dtype=complex)
        k[rng.permutation(d), np.arange(d)] = c[n]
        ops.append(k)
    return ops


def io(rng, d: int) -> list[np.ndarray]:
    """Measure-and-prepare K_n = |b_n><w_n|: one nonzero row each, so every
    index map sends all columns to b_n and the list is IO but not SIO."""
    w = unitary(rng, d)
    prep = rng.integers(0, d, size=d)
    ops = []
    for n in range(d):
        k = np.zeros((d, d), dtype=complex)
        k[prep[n], :] = w[:, n].conj()
        ops.append(k)
    return ops


def mixed_unitary(rng, d: int, r: int) -> list[np.ndarray]:
    weights = rng.dirichlet(np.ones(r))
    return [np.sqrt(w) * unitary(rng, d) for w in weights]


def matrix_doc(m) -> dict:
    a = np.asarray(m, dtype=complex)
    rows, cols = a.shape
    return {
        "type": "matrix",
        "dim": [rows, cols],
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def state_doc(m) -> dict:
    return {"type": "state", "dim": m.shape[0], "matrix": matrix_doc(m)}


def observable_doc(values, projectors) -> dict:
    return {
        "type": "observable",
        "dim": projectors[0].shape[0],
        "eigenvalues": values,
        "projectors": [matrix_doc(p) for p in projectors],
    }


def channel_doc(ops) -> dict:
    return {"type": "channel", "dim": ops[0].shape[0], "kraus": [matrix_doc(k) for k in ops]}


def bipartite_doc(m, dim_a: int, dim_b: int) -> dict:
    return {"type": "bipartite", "dims": [dim_a, dim_b], "matrix": matrix_doc(m)}


def write(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
