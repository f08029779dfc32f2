"""JSON encoding of the objects the command line reads and writes.

Matrices are stored row-major as [re, im] pairs. Files keep the layout of
json.dumps(to_json(obj), indent=2) byte for byte; one writer formats the
entry arrays directly, and save writes them a block at a time. The same
writer prints the command line's --json documents.

loads parses a document with one json.loads call whose object hook reads
each matrix's entries, as soon as that matrix is parsed, into one flat array
when they are [re, im] pairs of finite JSON numbers. So at most one matrix is
held as Python lists, whatever the spelling of the text. Entries of any other
form stay lists, for matrix_from_json to name what is wrong with them.

Sizes (a matrix's dim, a bipartite state's dims, a dilation's dimensions and
a document's top-level dim) must be JSON integers; a top-level dim must match
the matrices. Matrix entries and observable eigenvalues must be JSON numbers,
and a string or a bool is not one. Structural problems with a document (bad JSON, missing keys,
wrong entry counts, bad sizes) raise ParseError; documents that parse but
describe an invalid object (non-positive state, non-orthonormal basis) raise
the matching ValidationError subclass.
"""

from __future__ import annotations

import json
from itertools import chain

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
)


# Entries per block that save writes: a block is about 60 kB of text, so a
# d = 64 matrix (4096 entries) is written in four pieces.
_BLOCK = 1024
# json spells these floats NaN, Infinity and -Infinity; float.__repr__ does not
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Entries:
    """A matrix's entries as one flat C-ordered complex array.

    Only this module makes one: _matrix_doc for the writer, and _object for
    the entries loads reads. A document holding one is never handed out, so
    a caller's document reaches matrix_from_json with lists of pairs only.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values

    def __len__(self) -> int:
        return self.values.size


def _matrix_doc(m) -> dict:
    """A matrix object with its entries left as a complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ParseError("only vectors and matrices can be serialized")
    entries = _Entries(np.ascontiguousarray(a).reshape(-1))
    return {"type": "matrix", "dim": list(a.shape), "entries": entries}


def _plain(doc):
    """Turn every entry array of a document into its list of [re, im] pairs."""
    if isinstance(doc, dict):
        return {key: _plain(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_plain(value) for value in doc]
    if isinstance(doc, _Entries):
        return doc.values.view(float).reshape(-1, 2).tolist()
    return doc


def matrix_to_json(m) -> dict:
    return _plain(_matrix_doc(m))


def _size(value, what: str) -> int:
    """A size read from a document: a JSON integer, and a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"non-integer {what}")
    return value


def _number(value) -> float:
    """A number read from a document: a JSON number, and a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _values(entries) -> np.ndarray | None:
    """entries as one flat complex array when they are a list of [re, im]
    lists of finite JSON numbers; None for anything else."""
    if (not isinstance(entries, list) or not all(map(list.__instancecheck__, entries))
            or set(map(len, entries)) != {2}):
        return None
    flat = list(chain.from_iterable(entries))
    # numpy reads None as NaN and a string or a bool as a number
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        values = np.array(flat, dtype=float)
    except OverflowError:  # an int past the float range
        return None
    return values.view(complex) if np.isfinite(values).all() else None  # keeps -0.0


def _object(pairs) -> dict:
    """The dict json.loads builds from an object's pairs, a matrix's entries
    read as an _Entries array where _values takes them. It never raises, so
    bad entries reach matrix_from_json as lists."""
    obj = dict(pairs)
    if obj.get("type") == "matrix" and (values := _values(obj.get("entries"))) is not None:
        obj["entries"] = _Entries(values)
    return obj


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or obj.get("type") != "matrix":
        raise ParseError("expected a matrix object")
    try:
        rows, cols = (_size(x, "matrix dimension") for x in obj["dim"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive")
    if not isinstance(entries, (list, _Entries)) or len(entries) != rows * cols:
        raise ParseError("matrix entry count does not match its dimensions")
    values = entries.values if isinstance(entries, _Entries) else _values(entries)
    if values is not None:
        return values.reshape(rows, cols)
    # the loop names the bad index, and reads NaN and the infinities
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("matrix entries must be [re, im] pairs")
        try:
            flat[i] = complex(_number(pair[0]), _number(pair[1]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"non-numeric matrix entry at index {i}") from exc
    return flat.reshape(rows, cols)


def _require(obj: dict, key: str):
    if key not in obj:
        raise ParseError(f"missing required key {key!r}")
    return obj[key]


def _sized(obj: dict, value):
    """value, once the document's dim, where it has one, matches value.dim."""
    if "dim" in obj and _size(obj["dim"], "document dimension") != value.dim:
        raise ParseError(
            f"document dim {obj['dim']} does not match its {value.dim}-dimensional matrices"
        )
    return value


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


def _entries(a: np.ndarray, emit, indent: str) -> None:
    """Emit the text of an entry list, _BLOCK entries per piece."""
    if not a.size:
        emit("[]")
        return
    pair, number = indent + "  ", indent + "    "
    within = f",\n{number}"  # between re and im
    between = f"\n{pair}],\n{pair}[\n{number}"  # between two pairs
    values = a.view(float)
    emit(f"[\n{pair}[\n{number}")
    for start in range(0, values.size, 2 * _BLOCK):
        block = values[start:start + 2 * _BLOCK]
        if start:
            emit(between)
        # %r is float.__repr__, which spells the non-finite floats nan, inf
        # and -inf; no finite float's repr holds those letters
        text = between.join([f"%r{within}%r"] * (block.size // 2)) % tuple(block.tolist())
        if not np.isfinite(block).all():
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        emit(text)
    emit(f"\n{pair}]\n{indent}]")


def _scalar(doc) -> str | None:
    """The JSON text of a float, string, bool, int or None; None for others."""
    if isinstance(doc, float):
        text = float.__repr__(doc)
        return _NON_FINITE.get(text, text)
    if isinstance(doc, str):
        return json.encoder.encode_basestring_ascii(doc)
    if isinstance(doc, bool):  # before int: True is an int
        return "true" if doc else "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if doc is None:
        return "null"
    return None


def _write(doc, emit, indent: str = "") -> None:
    """Pass the text of json.dumps(doc, indent=2, default=to_json) to emit,
    piece by piece: library objects and bare arrays are written as their
    documents. A scalar goes out with its key or list item."""
    if isinstance(doc, (dict, list, tuple)):
        if not doc:
            emit("{}" if isinstance(doc, dict) else "[]")
            return
        inner = indent + "  "
        if isinstance(doc, dict):
            sep, closer = "{\n", f"\n{indent}}}"
            items = (
                (f"{inner}{json.encoder.encode_basestring_ascii(key)}: ", value)
                for key, value in doc.items()
            )
        else:
            sep, closer = "[\n", f"\n{indent}]"
            items = ((inner, value) for value in doc)
        for head, value in items:
            text = _scalar(value)
            if text is None:
                emit(sep + head)
                _write(value, emit, inner)
            else:
                emit(sep + head + text)
            sep = ",\n"
        emit(closer)
    elif isinstance(doc, _Entries):
        _entries(doc.values, emit, indent)
    elif (text := _scalar(doc)) is not None:
        emit(text)
    else:
        _write(_document(doc), emit, indent)


def _text(doc) -> str:
    """json.dumps(doc, indent=2, default=to_json), written by _write."""
    parts = []
    _write(doc, parts.append)
    return "".join(parts)


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
        return _sized(obj, DensityMatrix(matrix_from_json(_require(obj, "matrix"))))
    if kind == "observable":
        if "matrix" in obj:  # Hermitian matrix form, decomposed on load
            return _sized(obj, spectral_decompose(matrix_from_json(obj["matrix"])))
        values = _require(obj, "eigenvalues")
        if not isinstance(values, list):
            raise ParseError("eigenvalues must be a list")
        projs = _require(obj, "projectors")
        if not isinstance(projs, list) or len(projs) != len(values):
            raise ParseError("projector count must match eigenvalue count")
        try:
            values = [_number(v) for v in values]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError("non-numeric eigenvalue") from exc
        return _sized(obj, observable_from_projectors(values, [matrix_from_json(p) for p in projs]))
    if kind == "fine_graining":
        blocks = _require(obj, "blocks")
        if not isinstance(blocks, list) or not blocks:
            raise ParseError("fine_graining must list one block per outcome")
        return [matrix_from_json(b) for b in blocks]
    if kind == "channel":
        ops = _require(obj, "kraus")
        if not isinstance(ops, list) or not ops:
            raise ParseError("channel must list at least one Kraus operator")
        return _sized(obj, kraus_channel([matrix_from_json(k) for k in ops]))
    if kind == "povm":
        effects = _require(obj, "effects")
        if not isinstance(effects, list) or not effects:
            raise ParseError("povm must list at least one effect")
        return _sized(obj, make_povm([matrix_from_json(e) for e in effects]))
    if kind == "bipartite":
        dims = _require(obj, "dims")
        if not isinstance(dims, list) or len(dims) != 2:
            raise ParseError("dims must be a two-element list")
        dim_a, dim_b = (_size(d, "subsystem dimension") for d in dims)
        return bipartite(matrix_from_json(_require(obj, "matrix")), dim_a, dim_b)
    if kind == "dilation":
        d_s = _size(_require(obj, "system_dim"), "dilation dimension")
        d_a = _size(_require(obj, "ancilla_dim"), "dilation dimension")
        init = matrix_from_json(_require(obj, "apparatus_init"))
        if init.shape[1] != 1:
            raise ParseError("apparatus_init must be a single-column matrix")
        return DilationModel(
            system_dim=d_s,
            ancilla_dim=d_a,
            apparatus_init=init[:, 0],
            joint_unitary=matrix_from_json(_require(obj, "joint_unitary")),
            readout_basis=matrix_from_json(_require(obj, "readout_basis")),
        )
    raise ParseError(f"unknown document type {kind!r}")


def dumps(obj) -> str:
    """The document of obj in the layout of json.dumps(to_json(obj), indent=2)."""
    return _text(_document(obj))


def loads(text: str, expect: str | None = None):
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except ValueError as exc:  # a decode error, or an integer too long to convert
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
            _write(doc, fh.write)
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
