"""Host-speed reference: a fixed kernel timed between operations.

On a shared host the CPU speed one process gets can move by 20-40% for
seconds to minutes, and every operation slows by about the same factor.
This kernel mixes interpreter work, a JSON round trip and small LAPACK and
einsum calls, as the operations do, and never calls qreflect.  Wall
time divided by the kernel's time measured around it stays put when the
host changes speed; times in nominal seconds are that ratio scaled to a
host on which the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

EVERY_S = 0.25
REPS = 3
NOMINAL_S = 1e-3

_rng = np.random.default_rng(2004)
_H = _rng.standard_normal((16, 16))
_H = _H + _H.T
_T = _rng.standard_normal((4, 4, 4, 4))
_DOC = {"n": 4, "format": "hermitian", "re": _H.tolist()}
# Bound here so that a tracer wrapping numpy.linalg never sees these calls.
_eigvalsh = np.linalg.eigvalsh


def kernel() -> None:
    json.loads(json.dumps(_DOC))
    acc = 0
    for i in range(2000):
        acc += i * i
    for _ in range(10):
        _eigvalsh(_H)
        np.einsum("abcd,be->aecd", _T, _H[:4, :4])


def burst() -> float:
    """Median wall time in seconds of ``REPS`` kernel calls."""
    times = []
    for _ in range(REPS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def nominal(seconds: float, before: float, after: float) -> float:
    """Wall time rescaled by the mean of the kernel bursts around it."""
    return seconds * NOMINAL_S / ((before + after) / 2)
