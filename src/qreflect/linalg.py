"""Ascending spectra of checked operators.

Everything here runs on matrices of dimension at most 64, so the dense
LAPACK solver is used.  :func:`_eigenvalues` reads an operator the way every
criterion does: a raw array passes the one
:class:`~qreflect.stokes.HermitianOperator` check (shape, finite entries
within the magnitude limit, Hermiticity, trace 1), a state answers from the
ascending spectrum it was validated with, and a stack gets one row per
member from one batched solve.  :func:`min_eig` is about one operator and
refuses a stack.  The criteria solve their kernel images, which are
Hermitian bit for bit, with :func:`_lowest_eig`.  The magnitude limit keeps
every eigenvalue of a checked operator or of its images finite, so neither
solve checks its result.
"""

from __future__ import annotations

import numpy as np

from .stokes import DensityState, HermitianOperator, _as, _single


def _eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of a checked operator, one row per member of a stack; a state's are its validated ones."""
    op = _as(HermitianOperator, h)
    return op.spectrum if isinstance(op, DensityState) else np.linalg.eigvalsh(op.matrix)


def min_eig(h) -> float:
    return float(_eigenvalues(_single(_as(HermitianOperator, h)))[0])


def _lowest_eig(image: np.ndarray) -> float:
    """Lowest eigenvalue of a kernel image of a checked operator, with no second Hermiticity check.

    A partial transpose permutes the entries of the operator's exactly
    Hermitian matrix, and a lift adds them in conjugate pairs and scales by
    a power of two, so the image is Hermitian bit for bit and a second
    Hermiticity check would find nothing.  The reduction image's trace is
    not 1, so :func:`min_eig` would refuse it.
    """
    return float(np.linalg.eigvalsh(image)[0])
