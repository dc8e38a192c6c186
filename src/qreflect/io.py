"""JSON state files.

State files carry ``n``, a ``format`` of either ``hermitian`` (row-major
``2**n x 2**n`` ``re``/``im`` arrays) or ``stokes`` (a flat ``values`` array
of ``4**n`` entries in base-4 row-major multi-index order), plus free-form
annotation fields such as ``seed`` or ``label``; an annotation may not reuse
a schema field's name.  So a document that carries the other format's arrays
(``values`` beside ``re``/``im``, or the reverse) is refused, and so is an
object that names one key twice.  Every array is read shape first, then each
entry once (:func:`_array`).  Floats are written at full double precision.  A
path is anything :func:`os.fspath` accepts (``str``, ``bytes`` or
``os.PathLike``); an ``int`` raises ``TypeError`` and is never read or
written as a file descriptor.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .stokes import (
    MAGNITUDE_LIMIT,
    DensityState,
    HermitianOperator,
    StokesTensor,
    _Checked,
    _qubits,
    _single,
    from_stokes,
)


_SCHEMA_FIELDS = frozenset({"n", "format", "re", "im", "values"})


class StateFormatError(ValueError):
    """Raised when a state document does not match the schema."""


def state_to_dict(state, **annotations) -> dict:
    """Document of one state; a stack (serialise its members) or an annotation naming a schema field is refused."""
    if clash := _SCHEMA_FIELDS.intersection(annotations):
        raise ValueError(f"annotations must not name schema fields, got {sorted(clash)}")
    if isinstance(state, _Checked):
        _single(state)
    if isinstance(state, StokesTensor):
        doc = {"n": state.n, "format": "stokes", "values": state.values.tolist()}
    elif isinstance(state, HermitianOperator):
        doc = {
            "n": state.n,
            "format": "hermitian",
            "re": state.matrix.real.tolist(),
            "im": state.matrix.imag.tolist(),
        }
    else:
        raise TypeError(f"cannot serialise {type(state).__name__}")
    doc.update(annotations)
    return doc


def _array(entries, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Float array of the JSON array ``entries`` of ``shape``, measured before any entry is read.

    A number or null is no array and numpy cannot shape ragged rows; each entry must be a JSON number, not a bool.
    """
    # A flat array is one row.
    rows, height = (entries, shape[0]) if len(shape) == 2 else ([entries], 1)
    width = shape[-1]
    if not isinstance(rows, list) or len(rows) != height or not all(isinstance(r, list) and len(r) == width for r in rows):
        shaped = f"{height}x{width} arrays" if len(shape) == 2 else f"a flat array of {width} entries"
        raise StateFormatError(f"{name} must be {shaped}")
    leaves = set(map(type, itertools.chain.from_iterable(rows)))
    if not all(issubclass(kind, (int, float)) and kind is not bool for kind in leaves):
        raise StateFormatError("array entries must be JSON numbers")
    try:
        return np.asarray(entries, dtype=float)
    except OverflowError:
        # Only an integer can be past the float range, and so past the magnitude limit of every checked entry.
        limit = f"entries must be at most {MAGNITUDE_LIMIT:g} in magnitude"
        raise StateFormatError(f"{limit}, got an integer past the float range") from None


def state_from_dict(doc: dict):
    """Rebuild a state; hermitian documents load as operators, stokes as tensors."""
    if not isinstance(doc, dict):
        raise StateFormatError("state document must be a JSON object")
    fmt = doc.get("format")
    if fmt not in ("hermitian", "stokes"):
        raise StateFormatError("state document needs format 'hermitian' or 'stokes'")
    # The other format's arrays are schema fields, which no annotation may reuse.
    if carried := [field for field in (("re", "im") if fmt == "stokes" else ("values",)) if field in doc]:
        raise StateFormatError(f"a {fmt} document must not carry {carried[0]!r}")
    try:
        n = _qubits(doc.get("n"))
        if fmt == "stokes":
            return StokesTensor(_array(doc["values"], (4**n,), "'values'"))
        re, im = (_array(doc[field], (2**n, 2**n), "'re'/'im'") for field in ("re", "im"))
        return HermitianOperator(re + 1j * im)
    except KeyError as exc:
        raise StateFormatError(f"missing field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise StateFormatError(str(exc)) from exc


def _unique_keys(pairs: list) -> dict:
    """The object of the JSON ``pairs``; a key named twice is refused, where ``json`` would keep its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for k, key in enumerate(keys) if key in keys[:k])
        raise StateFormatError(f"field {repeated!r} appears more than once")
    return doc


# One decoder for every state file: json.loads(raw, object_pairs_hook=...) would build a new one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_density(raw: bytes, source) -> DensityState:
    """Parse the bytes of a state file and validate them as a density operator; every refusal names ``source``.

    The bytes are decoded as :func:`json.loads` decodes them, and a ``str`` is read as it is.
    """
    try:
        text = raw if isinstance(raw, str) else raw.decode(json.detect_encoding(raw), "surrogatepass")
        state = state_from_dict(_DECODER.decode(text))
    except StateFormatError as exc:
        raise StateFormatError(f"{exc} (in {source})") from exc
    except (RecursionError, ValueError) as exc:
        raise StateFormatError(f"cannot parse state file {source}: {exc}") from exc
    try:
        return DensityState(from_stokes(state) if isinstance(state, StokesTensor) else state)
    except ValueError as exc:
        raise StateFormatError(f"state in {source} is not a density operator: {exc}") from exc


def read_state_file(path) -> bytes:
    """The bytes of a state file, read once; a path that cannot be read (missing, a directory) names itself."""
    try:
        with open(os.fspath(path), "rb") as file:
            return file.read()
    except OSError as exc:
        raise StateFormatError(f"cannot read state file {path}: {exc}") from exc


def load_density(path) -> DensityState:
    """Load a state file and validate it as a density operator."""
    return parse_density(read_state_file(path), path)


def write_state(path, state, **annotations) -> None:
    text = json.dumps(state_to_dict(state, **annotations), indent=2) + "\n"
    with open(os.fspath(path), "w") as file:
        file.write(text)

