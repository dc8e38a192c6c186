"""Dense Hermitian eigensolves, singular values, and Hilbert-Schmidt forms.

Everything here runs on matrices of dimension at most 64, so accurate dense
LAPACK routines are used throughout.  Eigenvalues are reported in descending
order; no eigenvector ordering is guaranteed inside degenerate subspaces.
The spectral functions answer for one matrix and refuse a stack; a raw
array passed to them has its Hermiticity defect measured first.  The
criteria solve their kernel images, which are Hermitian bit for bit, with
:func:`_lowest_eig` and refuse a stack themselves.  The Hilbert-Schmidt
norm and inner product give one value per member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stokes import HERMITICITY_TOL, DensityState, HermitianOperator, _float_or_array, _single


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, with optional matching eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


def _as_matrix(h) -> np.ndarray:
    if isinstance(h, HermitianOperator):
        return h.matrix
    return np.asarray(h, dtype=complex)


def _symmetrized(h) -> np.ndarray:
    """Hermitian part of ``h``; an operator keeps the one it checked, a raw array is checked here."""
    if isinstance(h, HermitianOperator):
        return _single(h).matrix
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected one matrix, got shape {m.shape}")
    with np.errstate(invalid="ignore"):
        defect = np.abs(m - m.conj().T).max()
    # Written so that NaN fails: an inf or NaN entry can make the defect NaN.
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return (m + m.conj().T) / 2


def _eigenvalues(h) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending; a state's are the ones it was validated with."""
    if isinstance(h, DensityState):
        return _single(h).spectrum
    return np.linalg.eigvalsh(_symmetrized(h))


def eig_hermitian(h, vectors: bool = False) -> Spectrum:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending."""
    if vectors:
        vals, vecs = np.linalg.eigh(_symmetrized(h))
        return Spectrum(vals[::-1].copy(), vecs[:, ::-1].copy())
    return Spectrum(_eigenvalues(h)[::-1].copy())


def svd_values(m) -> np.ndarray:
    """Singular values of a real or complex matrix, sorted descending."""
    return np.linalg.svd(np.asarray(m), compute_uv=False)


def min_eig(h) -> float:
    return float(_eigenvalues(h)[0])


def _lowest_eig(image: np.ndarray) -> float:
    """Lowest eigenvalue of a kernel image of a checked operator, with no second check.

    A partial transpose permutes the entries of the operator's exactly
    Hermitian matrix, and a lift adds them in conjugate pairs and scales by
    a power of two, so the image is Hermitian bit for bit: the defect check
    of :func:`min_eig` could not fire and its symmetrization would be a no-op.
    """
    return float(np.linalg.eigvalsh(image)[0])


def hs_norm(m):
    """Hilbert-Schmidt (Frobenius) norm over the last two axes: a float, or one per member of a stack."""
    return _float_or_array(np.linalg.norm(np.asarray(m), axis=(-2, -1)))


def hs_inner(a, b):
    """Hilbert-Schmidt inner product ``tr(a^dagger b)`` as an entrywise sum, one per member of a stack."""
    inner = (_as_matrix(a).conj() * _as_matrix(b)).sum(axis=(-2, -1))
    return inner if inner.ndim else complex(inner)
