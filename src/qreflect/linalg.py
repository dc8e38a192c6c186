"""Dense Hermitian eigensolves, singular values, and spectral predicates.

Everything here runs on matrices of dimension at most 64, so accurate dense
LAPACK routines are used throughout.  Eigenvalues are reported in descending
order; no eigenvector ordering is guaranteed inside degenerate subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stokes import HERMITICITY_TOL, PSD_TOL, DensityState, HermitianOperator


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
        return h.matrix
    m = np.asarray(h, dtype=complex)
    defect = np.abs(m - m.conj().T).max()
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return (m + m.conj().T) / 2


def _eigenvalues(h) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending; a state's are the ones it was validated with."""
    if isinstance(h, DensityState):
        return h.spectrum
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


def max_eig(h) -> float:
    return float(_eigenvalues(h)[-1])


def is_psd(h, tol: float = PSD_TOL) -> bool:
    return min_eig(h) >= -tol


def rank(h, tol: float = PSD_TOL) -> int:
    """Number of eigenvalues with magnitude above ``tol``."""
    return int(np.count_nonzero(np.abs(_eigenvalues(h)) > tol))


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(m)))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product ``tr(a^dagger b)``."""
    return complex(np.trace(_as_matrix(a).conj().T @ _as_matrix(b)))
