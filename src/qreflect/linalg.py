"""Dense Hermitian eigenvalues, singular values, and Hilbert-Schmidt forms.

Everything here runs on matrices of dimension at most 64, so accurate dense
LAPACK routines are used throughout.  :func:`min_eig` reads one operator
the way every criterion does: a raw array passes the one
:class:`~qreflect.stokes.HermitianOperator` check (shape, finite entries,
Hermiticity, trace 1), a stack is refused, and a state answers from the
ascending spectrum it was validated with.  The criteria solve their kernel
images, which are Hermitian bit for bit, with :func:`_lowest_eig`.  The
Hilbert-Schmidt norm and inner product take arrays and give one value per
member.
"""

from __future__ import annotations

import numpy as np

from .stokes import DensityState, _as_operator, _float_or_array, _single


def _eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of one checked operator; a state's are the ones it was validated with."""
    op = _single(_as_operator(h))
    if isinstance(op, DensityState):
        return op.spectrum
    return np.linalg.eigvalsh(op.matrix)


def svd_values(m) -> np.ndarray:
    """Singular values of a real or complex matrix, sorted descending."""
    return np.linalg.svd(np.asarray(m), compute_uv=False)


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


def hs_norm(m):
    """Hilbert-Schmidt (Frobenius) norm over the last two axes: a float, or one per member of a stack."""
    return _float_or_array(np.linalg.norm(np.asarray(m), axis=(-2, -1)))


def hs_inner(a, b):
    """Hilbert-Schmidt inner product ``tr(a^dagger b)`` of arrays as an entrywise sum, one per member of a stack."""
    inner = (np.asarray(a).conj() * np.asarray(b)).sum(axis=(-2, -1))
    return inner if inner.ndim else complex(inner)
