"""Canonical state constructors and seeded random-state generators."""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .criteria import complement
from .stokes import (
    DensityState,
    HermitianOperator,
    _as,
    _count,
    _is_real,
    _numbers,
    _qubits,
    _squared_norms,
    qubit_count,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)

KET_SYMBOLS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
    "-": np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex),
}


def ket(which) -> np.ndarray:
    """Amplitude vector from a symbol string over {0,1,+,-} or explicit amplitudes.

    Amplitudes must be a unit-norm 1-D array of ``2**n`` numbers; the shape is checked before any entry is read.
    """
    if isinstance(which, str):
        if not which or any(c not in KET_SYMBOLS for c in which):
            raise ValueError(f"ket symbols must come from 0, 1, +, -; got {which!r}")
        qubit_count(2 ** len(which))
        vec = KET_SYMBOLS[which[0]]
        for c in which[1:]:
            vec = np.kron(vec, KET_SYMBOLS[c])
        return vec
    vec = np.asarray(which)
    if vec.ndim != 1:
        raise ValueError(f"amplitudes must be a 1-D array, got shape {vec.shape}")
    qubit_count(vec.size)
    vec = np.asarray(_numbers(vec), dtype=complex)
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= 1e-12:  # NaN fails this test too
        raise ValueError(f"amplitudes must be normalised, got norm {norm:.12g}")
    return vec


def pure_state(which) -> DensityState:
    """Rank-one projector onto a unit ket."""
    vec = ket(which)
    return DensityState(np.outer(vec, vec.conj()))


def bell_state() -> DensityState:
    """Projector onto (|00> + |11>) / sqrt(2)."""
    return pure_state([_SQRT_HALF, 0.0, 0.0, _SQRT_HALF])


def maximally_mixed(n: int) -> DensityState:
    n = _qubits(n)
    return DensityState(np.eye(2**n) / 2**n)


def upb_kets() -> list[np.ndarray]:
    """The four mutually orthogonal product kets |01+>, |1+0>, |+01>, |--->."""
    return [ket("01+"), ket("1+0"), ket("+01"), ket("---")]


def upb_separable() -> DensityState:
    """Uniform mixture of the four product kets; separable, rank 4."""
    d = 8
    acc = np.zeros((d, d), dtype=complex)
    for vec in upb_kets():
        acc += np.outer(vec, vec.conj())
    return DensityState(acc / 4)


def upb_bound_entangled() -> DensityState:
    """Normalised projector onto the complement of the product-ket span.

    This is the three-qubit bound entangled state: positive semidefinite,
    positive under every partial transpose, yet nonseparable.  It is the
    :func:`~qreflect.criteria.complement` of :func:`upb_separable`.
    """
    return DensityState(complement(upb_separable()))


def as_rng(seed) -> np.random.Generator:
    """Accept an integer seed or pass a Generator through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _haar_qr(z: np.ndarray) -> np.ndarray:
    """Q of ``z = QR`` with each column times the phase of ``diag(R)``: Haar-distributed for Gaussian ``z``."""
    q, r = np.linalg.qr(z)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def _gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex standard Gaussian entries of ``shape``: every real part is drawn, then every imaginary part.

    The two draws fill the parts of one complex array, in that order, so
    the stream and the numbers are those of ``real + 1j * imaginary``.
    """
    z = np.empty(shape, complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def random_unitary(dim: int, rng, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix; ``size`` of them as one stack."""
    dim = _count(dim, "dimensions")
    rng = as_rng(rng)
    shape = (dim, dim) if size is None else (_count(size, "stack sizes"), dim, dim)
    return _haar_qr(_gaussian(rng, shape))


def random_reflection(rng, size: int | None = None) -> np.ndarray:
    """Orientation-changing orthogonal 3x3 matrix (determinant -1); ``size`` of them as one stack.

    A stack draws the numbers of ``size`` successive calls.
    """
    shape = (3, 3) if size is None else (_count(size, "stack sizes"), 3, 3)
    q = _haar_qr(as_rng(rng).standard_normal(shape))
    q[..., 0] *= np.where(np.linalg.det(q) > 0, -1.0, 1.0)[..., None]
    return q


class _Draw(NamedTuple):
    """The numbers of one :func:`random_density` call, before any state is built from them.

    ``z`` holds the complex Gaussian kets of a pure draw, or the Gaussian
    matrices whose Haar QR conjugates ``spectrum``; ``spectrum`` is None for
    a pure draw.  Both lead with one axis of the draw's members, one member
    when ``size`` is None.
    """

    n: int
    size: int | None
    z: np.ndarray
    spectrum: np.ndarray | None


def _draw_density(n, mode: str = "mixed_dirichlet", rng=None, c=None, size=None) -> _Draw:
    """Check the arguments of :func:`random_density` and draw its numbers, in the order it always drew them."""
    n = _qubits(n)
    size = None if size is None else _count(size, "stack sizes")
    if mode == "bounded_spectrum":
        if not _is_real(c) or not 2.0**-n < c <= 1.0:
            raise ValueError(f"bounded_spectrum needs c in (2**-{n}, 1], got {c}")
    elif c is not None:
        raise ValueError(f"c bounds the spectrum in mode 'bounded_spectrum' only, got mode {mode!r}")
    rng = as_rng(rng)
    dim = 2**n
    shape = (dim,) if size is None else (size, dim)
    if mode == "haar_pure":
        return _Draw(n, size, _gaussian(rng, shape).reshape(-1, dim), None)
    if mode not in ("mixed_dirichlet", "bounded_spectrum"):
        raise ValueError(f"unknown mode {mode!r}")
    spectrum = rng.dirichlet(np.ones(dim), size=size)
    if mode == "bounded_spectrum":
        top = spectrum.max(axis=-1, keepdims=True)
        mix = 2.0**-n
        t = (c - mix) / (top - mix)
        spectrum = np.where(top > c, mix + t * (spectrum - mix), spectrum)
    return _Draw(n, size, _gaussian(rng, shape + (dim,)).reshape(-1, dim, dim), spectrum.reshape(-1, dim))


def _build_densities(draws: list[_Draw]) -> list[DensityState]:
    """The state of each draw, building every draw of one qubit count and kind (pure or not) as one stack.

    A group takes one normalisation or one Haar QR, one product and one
    :meth:`DensityState._built`, whose eigensolve gives the spectra; each
    draw then gets its members, a single state for ``size=None``.  Every
    step acts member by member, so a draw gets the same bits in any group.
    """
    groups: dict[tuple[int, bool], list[int]] = {}
    for k, draw in enumerate(draws):
        groups.setdefault((draw.n, draw.spectrum is None), []).append(k)
    built: list = [None] * len(draws)
    for (n, pure), members in groups.items():
        z = np.concatenate([draws[k].z for k in members])
        if pure:
            # Squared norm as two real dot products, the sum np.linalg.norm forms for one vector.
            z /= np.sqrt(_squared_norms(z.real) + _squared_norms(z.imag))[:, None]
            matrices = z[:, :, None] * z.conj()[:, None, :]
        else:
            u = _haar_qr(z)
            spectrum = np.concatenate([draws[k].spectrum for k in members])
            matrices = (u * spectrum[:, None, :]) @ u.conj().swapaxes(-1, -2)
        stack = DensityState._built(matrices, n)
        start = 0
        for k in members:
            stop = start + len(draws[k].z)
            built[k] = stack._image(operator.itemgetter(start if draws[k].size is None else slice(start, stop)))
            start = stop
    return built


def random_density(
    n: int, mode: str = "mixed_dirichlet", rng=None, c: float | None = None, size: int | None = None
) -> DensityState:
    """Seeded random n-qubit state, or a stack of ``size`` states drawn at once.

    Modes:

    * ``haar_pure``: projector onto a normalised complex Gaussian vector.
    * ``mixed_dirichlet``: uniform-simplex spectrum conjugated by a Haar
      unitary.
    * ``bounded_spectrum``: like ``mixed_dirichlet`` but the spectrum is
      pulled affinely toward ``2**-n`` until the largest eigenvalue is at
      most ``c``; requires ``c`` in ``(2**-n, 1]``.  No other mode takes ``c``.

    ``size=None`` draws exactly the numbers one state always drew, so seeded
    results do not change; ``size=1`` draws the same numbers as a stack.
    """
    return _build_densities([_draw_density(n, mode, rng, c, size)])[0]


def remix(rho, w: float) -> DensityState:
    """Convex mixture ``(1 - w) * maximally mixed + w * rho``; a bool or a non-number weight is an error."""
    if not _is_real(w) or not 0.0 <= w <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {w}")
    op = _as(HermitianOperator, rho)
    dim = 2**op.n
    return DensityState._built((1.0 - w) * np.eye(dim) / dim + w * op.matrix, op.n)
