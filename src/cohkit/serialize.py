"""JSON encoding of the objects the command line reads and writes.

Matrices are stored row-major as [re, im] pairs. Structural problems with a
document (bad JSON, missing keys, wrong entry counts) raise ParseError;
documents that parse but describe an invalid object (non-positive state,
non-orthonormal basis) raise the matching ValidationError subclass.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel, kraus_channel
from .dilation import DilationModel
from .errors import ParseError
from .states import (
    BipartiteState,
    DensityMatrix,
    FineGraining,
    Observable,
    Povm,
    bipartite,
    make_povm,
    observable_from_projectors,
    spectral_decompose,
    validate_density,
)


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ParseError("only vectors and matrices can be serialized")
    rows, cols = a.shape
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"type": "matrix", "dim": [rows, cols], "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or obj.get("type") != "matrix":
        raise ParseError("expected a matrix object")
    try:
        rows, cols = (int(x) for x in obj["dim"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError("matrix entry count does not match its dimensions")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("matrix entries must be [re, im] pairs")
        try:
            flat[i] = complex(float(pair[0]), float(pair[1]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"non-numeric matrix entry at index {i}") from exc
    return flat.reshape(rows, cols)


def _require(obj: dict, key: str):
    if key not in obj:
        raise ParseError(f"missing required key {key!r}")
    return obj[key]


def to_json(obj) -> dict:
    """Encode a library object (or bare array) as a JSON-ready dict."""
    if isinstance(obj, DensityMatrix):
        return {"type": "state", "dim": obj.dim, "matrix": matrix_to_json(obj.matrix)}
    if isinstance(obj, Observable):
        return {
            "type": "observable",
            "dim": obj.dim,
            "eigenvalues": [float(v) for v in obj.eigenvalues],
            "projectors": [matrix_to_json(p) for p in obj.projectors],
        }
    if isinstance(obj, FineGraining):
        return {
            "type": "fine_graining",
            "blocks": [matrix_to_json(b) for b in obj.blocks],
        }
    if isinstance(obj, KrausChannel):
        return {
            "type": "channel",
            "dim": obj.dim,
            "kraus": [matrix_to_json(k) for k in obj.kraus],
        }
    if isinstance(obj, Povm):
        return {
            "type": "povm",
            "dim": obj.dim,
            "effects": [matrix_to_json(e) for e in obj.effects],
        }
    if isinstance(obj, BipartiteState):
        return {
            "type": "bipartite",
            "dims": [obj.dim_a, obj.dim_b],
            "matrix": matrix_to_json(obj.state.matrix),
        }
    if isinstance(obj, DilationModel):
        return {
            "type": "dilation",
            "system_dim": obj.system_dim,
            "ancilla_dim": obj.ancilla_dim,
            "apparatus_init": matrix_to_json(obj.apparatus_init),
            "joint_unitary": matrix_to_json(obj.joint_unitary),
            "readout_basis": matrix_to_json(obj.readout_basis),
        }
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def from_json(obj, expect: str | None = None):
    """Decode one JSON document into the matching validated object."""
    if not isinstance(obj, dict):
        raise ParseError("document root must be an object")
    kind = obj.get("type")
    if not isinstance(kind, str):
        raise ParseError("document has no type field")
    if expect is not None and kind != expect:
        raise ParseError(f"expected a {expect} document, found {kind}")
    if kind == "matrix":
        return matrix_from_json(obj)
    if kind == "state":
        return validate_density(matrix_from_json(_require(obj, "matrix")))
    if kind == "observable":
        if "matrix" in obj:  # Hermitian matrix form, decomposed on load
            return spectral_decompose(matrix_from_json(obj["matrix"]))
        values = _require(obj, "eigenvalues")
        if not isinstance(values, list):
            raise ParseError("eigenvalues must be a list")
        projs = _require(obj, "projectors")
        if not isinstance(projs, list) or len(projs) != len(values):
            raise ParseError("projector count must match eigenvalue count")
        try:
            values = [float(v) for v in values]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError("non-numeric eigenvalue") from exc
        return observable_from_projectors(values, [matrix_from_json(p) for p in projs])
    if kind == "fine_graining":
        blocks = _require(obj, "blocks")
        if not isinstance(blocks, list) or not blocks:
            raise ParseError("fine_graining must list one block per outcome")
        return [matrix_from_json(b) for b in blocks]
    if kind == "channel":
        ops = _require(obj, "kraus")
        if not isinstance(ops, list) or not ops:
            raise ParseError("channel must list at least one Kraus operator")
        return kraus_channel([matrix_from_json(k) for k in ops])
    if kind == "povm":
        effects = _require(obj, "effects")
        if not isinstance(effects, list) or not effects:
            raise ParseError("povm must list at least one effect")
        return make_povm([matrix_from_json(e) for e in effects])
    if kind == "bipartite":
        dims = _require(obj, "dims")
        if not isinstance(dims, list) or len(dims) != 2:
            raise ParseError("dims must be a two-element list")
        try:
            dim_a, dim_b = int(dims[0]), int(dims[1])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError("non-integer subsystem dimension") from exc
        return bipartite(matrix_from_json(_require(obj, "matrix")), dim_a, dim_b)
    if kind == "dilation":
        try:
            d_s = int(_require(obj, "system_dim"))
            d_a = int(_require(obj, "ancilla_dim"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError("non-integer dilation dimension") from exc
        init = matrix_from_json(_require(obj, "apparatus_init"))
        if init.shape[1] != 1:
            raise ParseError("apparatus_init must be a single-column matrix")
        return DilationModel(
            system_dim=d_s,
            ancilla_dim=d_a,
            apparatus_init=init[:, 0],
            joint_unitary=matrix_from_json(_require(obj, "joint_unitary")),
            readout_basis=matrix_from_json(_require(obj, "readout_basis")),
        ).validate()
    raise ParseError(f"unknown document type {kind!r}")


def dumps(obj) -> str:
    return json.dumps(to_json(obj), indent=2)


def loads(text: str, expect: str | None = None):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return from_json(doc, expect)


def save(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load(path, expect: str | None = None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads(text, expect)
