"""JSON state files.

State files carry ``n``, a ``format`` of either ``hermitian`` (row-major
``re``/``im`` arrays) or ``stokes`` (a flat ``values`` array in base-4
row-major multi-index order), plus free-form annotation fields such as
``seed`` or ``label``; an annotation may not reuse a schema field's name.
Floats are written at full double precision.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .stokes import DensityState, HermitianOperator, StokesTensor, _Checked, _qubits, _single, from_stokes


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


def _numbers(entries, ndim: int = 1) -> np.ndarray:
    """Float array of an ``ndim``-deep JSON list whose leaves are numbers, never bools or strings."""
    leaves = itertools.chain.from_iterable(entries) if ndim == 2 else entries
    if not all(issubclass(kind, (int, float)) and kind is not bool for kind in set(map(type, leaves))):
        raise StateFormatError("array entries must be JSON numbers")
    return np.asarray(entries, dtype=float)


def state_from_dict(doc: dict):
    """Rebuild a state; hermitian documents load as operators, stokes as tensors."""
    if not isinstance(doc, dict):
        raise StateFormatError("state document must be a JSON object")
    fmt = doc.get("format")
    if fmt not in ("hermitian", "stokes"):
        raise StateFormatError("state document needs format 'hermitian' or 'stokes'")
    try:
        n = _qubits(doc.get("n"))
        if fmt == "stokes":
            tensor = StokesTensor(_numbers(doc["values"]))
            if tensor.n != n:
                raise StateFormatError(f"'values' length implies n={tensor.n}, document says {n}")
            return tensor
        re, im = _numbers(doc["re"], 2), _numbers(doc["im"], 2)
        if re.shape != (2**n, 2**n) or im.shape != re.shape:
            raise StateFormatError(f"'re'/'im' must be {2**n}x{2**n} arrays")
        return HermitianOperator(re + 1j * im)
    except KeyError as exc:
        raise StateFormatError(f"missing field {exc.args[0]!r}") from exc
    except (OverflowError, TypeError, ValueError) as exc:
        raise StateFormatError(str(exc)) from exc


def parse_density(raw: bytes, source) -> DensityState:
    """Parse the bytes of a state file and validate them as a density operator; every refusal names ``source``."""
    try:
        state = state_from_dict(json.loads(raw))
    except StateFormatError as exc:
        raise StateFormatError(f"{exc} (in {source})") from exc
    except (RecursionError, ValueError) as exc:
        raise StateFormatError(f"cannot parse state file {source}: {exc}") from exc
    try:
        return DensityState(from_stokes(state) if isinstance(state, StokesTensor) else state)
    except ValueError as exc:
        raise StateFormatError(f"state in {source} is not a density operator: {exc}") from exc


def load_density(path) -> DensityState:
    """Load a state file and validate it as a density operator."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise StateFormatError(f"cannot read state file {path}: {exc}") from exc
    return parse_density(raw, path)


def write_state(path, state, **annotations) -> None:
    Path(path).write_text(json.dumps(state_to_dict(state, **annotations), indent=2) + "\n")

