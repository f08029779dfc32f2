"""JSON encoding of the objects the command line reads and writes.

Matrices are stored row-major as [re, im] pairs. Files keep the layout of
json.dumps(to_json(obj), indent=2) byte for byte; one writer formats the
entry arrays directly, and save writes them a block at a time. Structural
problems with a document (bad JSON, missing keys, wrong entry counts) raise
ParseError; documents that parse but describe an invalid object (non-positive
state, non-orthonormal basis) raise the matching ValidationError subclass.
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


# Entries per block that save writes: a block is about 60 kB of text, so a
# d = 64 matrix (4096 entries) is written in four pieces.
_BLOCK = 1024
# json spells these floats NaN, Infinity and -Infinity; float.__repr__ does not
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _matrix_doc(m) -> dict:
    """A matrix object with its entries left as a C-ordered complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ParseError("only vectors and matrices can be serialized")
    return {"type": "matrix", "dim": list(a.shape), "entries": np.ascontiguousarray(a)}


def _plain(doc):
    """Turn every entry array of a document into its list of [re, im] pairs."""
    if isinstance(doc, dict):
        return {key: _plain(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_plain(value) for value in doc]
    if isinstance(doc, np.ndarray):
        return doc.view(float).reshape(-1, 2).tolist()
    return doc


def matrix_to_json(m) -> dict:
    return _plain(_matrix_doc(m))


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
    try:
        values = np.asarray(entries, dtype=float)
    except (TypeError, ValueError, OverflowError):
        values = None
    # numpy reads None as NaN and accepts tuples, so anything short of finite
    # [re, im] lists goes through the loop below, which names the bad index
    if (values is not None and values.shape == (rows * cols, 2)
            and np.isfinite(values).all() and all(map(list.__instancecheck__, entries))):
        return values.view(complex).reshape(rows, cols)  # keeps the sign of -0.0
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


def _document(obj) -> dict:
    """The document of a library object (or bare array), entries as arrays."""
    if isinstance(obj, DensityMatrix):
        return {"type": "state", "dim": obj.dim, "matrix": _matrix_doc(obj.matrix)}
    if isinstance(obj, Observable):
        return {
            "type": "observable",
            "dim": obj.dim,
            "eigenvalues": [float(v) for v in obj.eigenvalues],
            "projectors": [_matrix_doc(p) for p in obj.projectors],
        }
    if isinstance(obj, FineGraining):
        return {
            "type": "fine_graining",
            "blocks": [_matrix_doc(b) for b in obj.blocks],
        }
    if isinstance(obj, KrausChannel):
        return {
            "type": "channel",
            "dim": obj.dim,
            "kraus": [_matrix_doc(k) for k in obj.kraus],
        }
    if isinstance(obj, Povm):
        return {
            "type": "povm",
            "dim": obj.dim,
            "effects": [_matrix_doc(e) for e in obj.effects],
        }
    if isinstance(obj, BipartiteState):
        return {
            "type": "bipartite",
            "dims": [obj.dim_a, obj.dim_b],
            "matrix": _matrix_doc(obj.state.matrix),
        }
    if isinstance(obj, DilationModel):
        return {
            "type": "dilation",
            "system_dim": obj.system_dim,
            "ancilla_dim": obj.ancilla_dim,
            "apparatus_init": _matrix_doc(obj.apparatus_init),
            "joint_unitary": _matrix_doc(obj.joint_unitary),
            "readout_basis": _matrix_doc(obj.readout_basis),
        }
    if isinstance(obj, np.ndarray):
        return _matrix_doc(obj)
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def to_json(obj) -> dict:
    """Encode a library object (or bare array) as a JSON-ready dict."""
    return _plain(_document(obj))


def _entries(a: np.ndarray, indent: str):
    """Yield the text of an entry list, _BLOCK entries per piece."""
    if not a.size:
        yield "[]"
        return
    pair, number = indent + "  ", indent + "    "
    within = f",\n{number}"  # between re and im
    between = f"\n{pair}],\n{pair}[\n{number}"  # between two pairs
    values = a.reshape(-1).view(float)
    yield f"[\n{pair}[\n{number}"
    for start in range(0, values.size, 2 * _BLOCK):
        block = values[start:start + 2 * _BLOCK]
        text = list(map(float.__repr__, block.tolist()))
        if not np.isfinite(block).all():
            text = [_NON_FINITE.get(t, t) for t in text]
        if start:
            yield between
        numbers = iter(text)
        yield between.join(map(within.join, zip(numbers, numbers)))
    yield f"\n{pair}]\n{indent}]"


def _chunks(doc, indent: str = ""):
    """Yield the text of json.dumps(_plain(doc), indent=2), piece by piece."""
    inner = indent + "  "
    if isinstance(doc, dict):
        if not doc:
            yield "{}"
            return
        sep = "{\n"
        for key, value in doc.items():
            yield f"{sep}{inner}{json.encoder.encode_basestring_ascii(key)}: "
            yield from _chunks(value, inner)
            sep = ",\n"
        yield f"\n{indent}}}"
    elif isinstance(doc, list):
        if not doc:
            yield "[]"
            return
        sep = "[\n"
        for value in doc:
            yield sep + inner
            yield from _chunks(value, inner)
            sep = ",\n"
        yield f"\n{indent}]"
    elif isinstance(doc, np.ndarray):
        yield from _entries(doc, indent)
    elif isinstance(doc, str):
        yield json.encoder.encode_basestring_ascii(doc)
    elif isinstance(doc, float):
        text = float.__repr__(doc)
        yield _NON_FINITE.get(text, text)
    else:
        yield int.__repr__(doc)


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
    """The document of obj in the layout of json.dumps(to_json(obj), indent=2)."""
    return "".join(_chunks(_document(obj)))


def loads(text: str, expect: str | None = None):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nesting too deep") from None
    return from_json(doc, expect)


def save(path, obj) -> None:
    """Write dumps(obj) and a newline to path, one block of entries at a time.

    Every check runs before the file is opened, so a bad object leaves an
    existing file as it was.
    """
    doc = _document(obj)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for chunk in _chunks(doc):
                fh.write(chunk)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def load(path, expect: str | None = None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return loads(text, expect)
