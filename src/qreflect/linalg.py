"""The lowest eigenvalue of one checked operator.

Everything here runs on matrices of dimension at most 64, so the dense
LAPACK solver is used.  :func:`min_eig` reads one operator the way every
criterion does: a raw array passes the one
:class:`~qreflect.stokes.HermitianOperator` check (shape, finite entries,
Hermiticity, trace 1), a stack is refused, and a state answers from the
ascending spectrum it was validated with.  The criteria solve their kernel
images, which are Hermitian bit for bit, with :func:`_lowest_eig`.
"""

from __future__ import annotations

import numpy as np

from .stokes import DensityState, _as_operator, _single


def _eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of one checked operator; a state's are the ones it was validated with."""
    op = _single(_as_operator(h))
    if isinstance(op, DensityState):
        return op.spectrum
    return np.linalg.eigvalsh(op.matrix)


def min_eig(h) -> float:
    return float(_eigenvalues(h)[0])


def _lowest_eig(image: np.ndarray) -> float:
    """Lowest eigenvalue of a kernel image of a checked operator, with no second check.

    A partial transpose permutes the entries of the operator's exactly
    Hermitian matrix, and a lift adds them in conjugate pairs and scales by
    a power of two, so the image is Hermitian bit for bit and a second
    Hermiticity check would find nothing.  The reduction image's trace is
    not 1, so :func:`min_eig` would refuse it.
    """
    return float(np.linalg.eigvalsh(image)[0])
