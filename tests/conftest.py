"""Shared fixtures and independent brute-force oracles.

The oracle helpers below deliberately avoid the library's per-qubit kernel
and its reshape/transpose bookkeeping: they loop over explicit Kronecker
products and traces so the two implementations can check each other.  The
one exception, ``oracle_apply_real_density_mask``, is the real-density route
that the Stokes-side sign masks are compared against, so it composes the
library's conversions.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import qreflect as qr

FIXTURES = Path(__file__).parent / "fixtures"

SQ2 = math.sqrt(2.0)
SIGMA = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def oracle_basis(index):
    """Kronecker product of sigma_j / sqrt(2), built by explicit loops."""
    out = SIGMA[index[0]] / SQ2
    for d in index[1:]:
        out = np.kron(out, SIGMA[d] / SQ2)
    return out


def oracle_stokes(matrix, n):
    """Stokes values as explicit traces against every basis element."""
    values = []
    for idx in itertools.product(range(4), repeat=n):
        values.append(np.trace(matrix @ oracle_basis(idx)).real)
    return np.array(values)


def oracle_from_stokes(values, n):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for value, idx in zip(values, itertools.product(range(4), repeat=n)):
        out += value * oracle_basis(idx)
    return out


def oracle_partial_transpose(matrix, n, subset):
    """Entrywise partial transpose via index bookkeeping."""
    dim = 2**n
    out = np.empty_like(matrix)
    for r in range(dim):
        for c in range(dim):
            rb = [(r >> (n - 1 - q)) & 1 for q in range(n)]
            cb = [(c >> (n - 1 - q)) & 1 for q in range(n)]
            for q in subset:
                rb[q - 1], cb[q - 1] = cb[q - 1], rb[q - 1]
            rr = sum(b << (n - 1 - q) for q, b in enumerate(rb))
            cc = sum(b << (n - 1 - q) for q, b in enumerate(cb))
            out[rr, cc] = matrix[r, c]
    return out


def oracle_label(index, n, qubits):
    """Integer formed by the bits of ``qubits`` (1-based, in order) in a basis label."""
    out = 0
    for q in qubits:
        out = 2 * out + ((index >> (n - q)) & 1)
    return out


def oracle_partial_trace(matrix, n, keep):
    """Reduced matrix via explicit sums over computational basis labels."""
    kept = sorted(keep)
    traced = [q for q in range(1, n + 1) if q not in kept]
    dk = 2 ** len(kept)
    out = np.zeros((dk, dk), dtype=complex)
    for r in range(dk):
        for c in range(dk):
            rb = [(r >> (len(kept) - 1 - i)) & 1 for i in range(len(kept))]
            cb = [(c >> (len(kept) - 1 - i)) & 1 for i in range(len(kept))]
            for t in itertools.product(range(2), repeat=len(traced)):
                full_r = [0] * n
                full_c = [0] * n
                for i, q in enumerate(kept):
                    full_r[q - 1] = rb[i]
                    full_c[q - 1] = cb[i]
                for i, q in enumerate(traced):
                    full_r[q - 1] = t[i]
                    full_c[q - 1] = t[i]
                rr = sum(b << (n - 1 - q) for q, b in enumerate(full_r))
                cc = sum(b << (n - 1 - q) for q, b in enumerate(full_c))
                out[r, c] += matrix[rr, cc]
    return out


def oracle_apply_real_density_mask(mask4, rho):
    """Hadamard product of a 4x4 sign matrix with the two-qubit real density matrix."""
    sigma = qr.to_real_density(qr.to_stokes(rho)).entries
    return qr.from_stokes(qr.real_density_to_stokes(qr.RealDensityMatrix(np.asarray(mask4) * sigma)))


def oracle_rotation_from_unitary(u):
    """Adjoint-representation rotation of the Bloch vector under ``u rho u^dagger``."""
    u = np.asarray(u, dtype=complex)
    r = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            r[a, b] = np.trace(SIGMA[a + 1] @ u @ SIGMA[b + 1] @ u.conj().T).real / 2
    return r


def oracle_choi_matrix_of_map(apply_fn, dim):
    """Choi matrix ``sum_ij E_ij (x) apply_fn(E_ij)`` of a linear map."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            out[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim] = apply_fn(unit)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
