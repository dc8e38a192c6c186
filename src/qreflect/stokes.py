"""Pauli-basis representations of multiqubit operators.

Conventions used throughout the package:

* Qubits are numbered 1..n and qubit 1 is the leftmost Kronecker factor
  (subsystem A).
* A multi-index ``(j1, ..., jn)`` with digits in {0, 1, 2, 3} is linearised
  in base-4 row-major order, so qubit 1 carries the most significant digit.
* The operator basis consists of tensor products of the rescaled Pauli
  matrices ``lambda_j = sigma_j / sqrt(2)``, which are orthonormal for the
  Hilbert-Schmidt inner product.  The coefficient of the all-zero index is
  pinned to ``2**(-n/2)`` by the unit trace.

The real unfolding ``sigma(rho)`` maps the one-qubit basis as

    lambda_0 -> sqrt(2) E00,   lambda_1 -> sqrt(2) E10,
    lambda_2 -> sqrt(2) E01,   lambda_3 -> sqrt(2) E11,

extended linearly and multiplicatively over tensor factors.  Column-stacking
the result and dividing by sqrt(2) per factor recovers the Stokes values.

The qubit layout is written once: :func:`_regroup` reorders the row and
column bits of a matrix (or of flat Stokes values) for every conversion,
the partial transpose and the realignment :func:`_realigned`, and
:func:`_digits` tables the base-4 digits of each Stokes component for the
sign masks.  A conversion interleaves each qubit's row and column bits into
one digit ``2 * row + col`` and applies a 4x4 matrix to each digit axis in turn.
Those matrices hold the Pauli entries 0, +-1 and +-i, so every product is
exact and each output is one rounded sum of two terms; the conversion scales
by ``2**(n/2)`` once.  A member's values therefore do not depend on the stack
it is converted in: alone, in a wider stack or tiled, it gets the same bits.

Values enter once: a public entry takes its checked type as is and checks an
array into it (:func:`_as`), and every checked number passes :func:`_numbers`,
which bounds a finite entry by :data:`MAGNITUDE_LIMIT` and reads finiteness
off that bound.  No kernel can overflow on bounded values, so none guards its
own arithmetic.  An image of checked values is not checked as an input again:
an exact one (a pick, a sign flip) keeps every check by construction and is
made by :meth:`_Checked._image`, and a computed one (a conversion, a random
state, a reflected image) is made by :meth:`_Checked._built`, which runs only
the magnitude pass and its type's scalar rule.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

QUBIT_LIMIT = 6
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
# Every checked entry is at most this in magnitude (:func:`_numbers`), so no kernel can overflow at n <= QUBIT_LIMIT.
# The largest sum any kernel forms is purity's 4**6 squares, which stays below the float range (1.8e308) for
# entries below sqrt(1.8e308 / 4**6), about 2e152; every other kernel sums fewer terms of smaller products.
MAGNITUDE_LIMIT = 1e150

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# On the digit 2r+c, _K_TO[j, 2r+c] = sigma_j[c, r] gives tr(rho sigma_j) and _K_FROM[2r+c, j] = sigma_j[r, c]
# sums the Pauli basis back; the conversions divide by 2**(n/2) once for lambda_j = sigma_j / sqrt(2).
_K_TO = PAULI.transpose(0, 2, 1).reshape(4, 4)
_K_FROM = PAULI.reshape(4, 4).T


def qubit_count(dim: int) -> int:
    """Number of qubits for Hilbert-space dimension ``dim`` (must be 2**n)."""
    if dim <= 1:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return _qubits(n)


def _numbers(data, real: bool = False, axes=None, finite: str | None = None) -> np.ndarray:
    """``data`` as an array of numbers: any dtype but integer, float or complex is refused with ``ValueError``.

    numpy would read bools as 0 and 1 and parse strings or objects as
    numbers.  With ``real``, a complex array must have a zero imaginary part
    and gives its real part.  A finite entry past :data:`MAGNITUDE_LIMIT` in
    magnitude is refused; then, with a ``finite`` message, so is a NaN or an
    infinite entry.  Both checks run per member when ``axes`` are the
    member's axes, and only past the bound: the largest magnitude is NaN
    when an entry is, and infinite when an entry is, so an array within the
    bound is finite.
    """
    a = np.asarray(data)
    if a.dtype.kind not in "iufc":
        raise ValueError(f"entries must be numbers, got an array of dtype {a.dtype}")
    if real and a.dtype.kind == "c":
        imaginary = np.abs(a.imag).max(axis=axes)
        _Checked._require(imaginary == 0, "entries must be real, got an imaginary part {:.3e}", imaginary)
        a = a.real
    magnitude = np.abs(a)
    if not magnitude.max(initial=0.0) <= MAGNITUDE_LIMIT:
        # A modulus of finite parts can read inf; a member with a NaN or an infinite entry is the finite check's.
        magnitude = magnitude.max(axis=axes, initial=0.0)
        limit = f"entries must be at most {MAGNITUDE_LIMIT:g} in magnitude, got {{:.3e}}"
        is_finite = np.isfinite(a).all(axis=axes)
        _Checked._require((magnitude <= MAGNITUDE_LIMIT) | ~is_finite, limit, magnitude)
        if finite is not None:
            _Checked._require(is_finite, finite)
    return a


class _Checked:
    """Shared core of the validated array types: a checked read-only array and its qubit count.

    A value is one array of the type's trailing shape (``_ndim`` axes), or,
    built with ``stack=True``, a stack of them along one leading axis.
    Every check runs per member, and a failing stack names its first
    failing member; ``array.T[0]`` is the first entry of one value or of
    every member, because ``.T`` moves the member axis last.  A stack holds
    at least one member.  ``value[k]`` is member k as a single value, and
    ``value[index_array]`` (a nonempty 1-D integer array) the stack of those
    members; either shares or copies the checked read-only values and is
    not checked again.  A bool is no index: numpy would read it as a new axis.

    Each value is checked once: an entry's finiteness is read off the
    magnitude bound of :func:`_numbers`, and its finite pass runs only past
    the bound.  Two kinds of image skip the input checks.  An exact image of
    checked values, such as a sign flip of a checked tensor, is made by
    :meth:`_image` and checked by nothing.  A value the library computes
    from checked values is made by :meth:`_built`, which keeps the magnitude
    pass and the type's scalar rule.  Every constructor ends in its type's
    :meth:`_keep`, the tail :meth:`_built` calls, so each rule is written once.
    """

    __slots__ = ("_n", "_array")
    _ndim = 1

    def _shaped(self, data, dtype, stack: bool) -> np.ndarray:
        """Copy ``data`` to ``dtype`` and set ``n``.

        Each member must be a square ``2**n`` matrix (``_ndim=2``) or a flat
        ``4**n`` array (``_ndim=1``); both have side ``isqrt(size)``, which
        :func:`qubit_count` turns into ``n``.  A stack must have a member.
        Every entry must be a finite number within the magnitude limit
        (:func:`_numbers`), and a real type refuses a nonzero imaginary part.
        Another checked value is refused with ``TypeError``.
        """
        if isinstance(data, _Checked):
            raise TypeError(f"a {type(self).__name__} is checked from an array, got a {type(data).__name__}")
        a = np.asarray(data)
        member = a.shape[1:] if stack else a.shape
        side = math.isqrt(math.prod(member))
        if member != ((side, side) if self._ndim == 2 else (side * side,)) or stack and a.shape[:1] == (0,):
            kind = "a square" if self._ndim == 2 else "a flat 4**n"
            raise ValueError(f"expected {kind} array{' per member' if stack else ''}, got shape {a.shape}")
        self._n = qubit_count(side)
        return np.array(_numbers(a, dtype is float, _member_axes(a, stack), _FINITE), dtype=dtype)

    @staticmethod
    def _require(ok, message: str, values=None) -> None:
        """Raise ``message`` (formatted with the value) unless ``ok``; a stack names its first failing member."""
        if ok.ndim:
            if not ok.all():
                k = int(ok.argmin())
                raise ValueError(f"member {k}: " + message.format(None if values is None else values[k].item()))
        elif not ok:
            raise ValueError(message.format(None if values is None else values.item()))

    def _keep(self, array: np.ndarray) -> None:
        """Store ``array`` read-only; a type with a scalar rule checks it first, then calls this."""
        array.setflags(write=False)
        self._array = array

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_stack(self) -> bool:
        return self._array.ndim > self._ndim

    def __getitem__(self, k):
        if not self.is_stack:
            raise TypeError(f"a single {type(self).__name__} has no members")
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            k = np.asarray(k)
            if k.ndim != 1 or not k.size or k.dtype.kind not in "iu":
                raise IndexError("index a stack with an integer or a nonempty 1-D integer index array")
        return self._image(lambda array: array[k])

    def _image(self, exact) -> "_Checked":
        """This value with each array replaced by ``exact(array)``, made read-only and checked by no ``__init__``.

        For maps whose image passes every check of the type bit for bit:
        picking members of a checked stack, or multiplying a checked
        tensor's values by checked signs (:func:`reflections.apply_mask`).
        """
        image = object.__new__(type(self))
        for slot in _slot_names(type(self)):
            value = getattr(self, slot)
            if isinstance(value, np.ndarray):
                value = exact(value)
                value.setflags(write=False)
            setattr(image, slot, value)
        return image

    @classmethod
    def _built(cls, array: np.ndarray, n: int) -> "_Checked":
        """A ``cls`` value on ``n`` qubits of ``array``, which the library computed from checked values.

        For the Pauli transforms, the unfoldings, random states, mixtures
        and reflected images.  The caller gives an array of the type's dtype
        and member shape, with a leading member axis for a stack, which it
        made itself and does not keep.  Two checks stay:

        * the magnitude pass of :func:`_numbers`, with the finite message,
          because a Pauli sum of bounded entries can round past
          :data:`MAGNITUDE_LIMIT`;
        * the type's scalar rule in :meth:`_keep`: the trace of an operator
          (a trace of bounded entries can cancel, as for the tensor
          ``[2**-0.5, 1e150, 1e150, 1e150]``), the affine component of a
          tensor and the corner of a real unfolding; a :class:`DensityState`
          also solves its spectrum and checks positivity.

        The input-only work is skipped: the dtype and shape pass, the copy,
        and the Hermiticity defect, since a Hermitian map of checked
        operators is Hermitian up to rounding and an operator keeps
        ``(m + m^dagger) / 2`` of what it is given either way.
        """
        value = object.__new__(cls)
        value._n = n
        value._keep(_numbers(array, axes=_member_axes(array, array.ndim > cls._ndim), finite=_FINITE))
        return value

    def __repr__(self) -> str:
        stack = f", stack={len(self._array)}" if self.is_stack else ""
        return f"{type(self).__name__}(n={self._n}{stack})"


_FINITE = "entries must be finite"


def _member_axes(a: np.ndarray, stack: bool) -> tuple[int, ...] | None:
    """The axes of one member of the stack ``a`` (None for one value): every check reduces over them."""
    return tuple(range(1, a.ndim)) if stack else None


@functools.cache
def _slot_names(cls: type) -> tuple[str, ...]:
    """Every slot a ``cls`` value holds, read from its class and its bases once per class."""
    return tuple(slot for c in cls.__mro__ for slot in getattr(c, "__slots__", ()))


def _single(value: _Checked) -> _Checked:
    """``value`` if it is one checked value; a stack has no single answer."""
    if value.is_stack:
        raise ValueError(f"expected one {type(value).__name__}, got a stack of {len(value._array)}")
    return value


class HermitianOperator(_Checked):
    """A trace-one Hermitian operator on ``n`` qubits, or a stack of them.

    Positivity is not required, so images of density operators under
    nonpositive maps remain representable.  The Hermiticity defect is
    measured on the input; ``matrix`` is the input's Hermitian part
    ``(m + m^dagger) / 2``, whose real trace must be 1, so every consumer
    reads an exactly Hermitian matrix and none symmetrizes it again.
    """

    __slots__ = ()
    _ndim = 2

    def __init__(self, matrix, stack: bool = False):
        m = self._shaped(matrix, complex, stack)
        adjoint = m.conj().swapaxes(-1, -2)
        herm_defect = np.abs(m - adjoint).max(axis=(-2, -1) if stack else None)
        self._require(herm_defect <= HERMITICITY_TOL, "matrix is not Hermitian (defect {:.3e})", herm_defect)
        self._keep(m, adjoint)

    def _keep(self, m: np.ndarray, adjoint: np.ndarray | None = None) -> None:
        """Keep the Hermitian part of ``m`` if its trace is 1; ``adjoint`` is ``m^dagger`` when already formed.

        The kept diagonal is the real part of ``m``'s, so its trace is real
        and sums exactly what the real part of ``m``'s trace sums.
        """
        matrix = (m + (m.conj().swapaxes(-1, -2) if adjoint is None else adjoint)) / 2
        trace = matrix.trace(axis1=-2, axis2=-1).real
        self._require(abs(trace - 1.0) <= TRACE_TOL, "trace must equal 1, got {:.12g}", trace)
        super()._keep(matrix)

    @property
    def matrix(self) -> np.ndarray:
        return self._array


class DensityState(HermitianOperator):
    """A positive-semidefinite trace-one operator (a physical state), or a stack of them.

    Shares the checked matrix of a :class:`HermitianOperator` argument,
    which must be a stack exactly when ``stack`` is set, and keeps its
    positivity check's ascending eigenvalues as ``spectrum``, one row per
    member of a stack.
    """

    __slots__ = ("_spectrum",)

    def __init__(self, matrix, stack: bool = False):
        if isinstance(matrix, HermitianOperator):
            if matrix.is_stack != stack:
                raise ValueError(f"stack={stack} needs {'a stack' if stack else 'one operator'}, got {matrix!r}")
            self._n, self._array = matrix.n, matrix.matrix
            self._keep_spectrum()
        else:
            super().__init__(matrix, stack)

    def _keep(self, m: np.ndarray, adjoint: np.ndarray | None = None) -> None:
        super()._keep(m, adjoint)
        self._keep_spectrum()

    def _keep_spectrum(self) -> None:
        """Solve the kept matrix once, refuse a negative eigenvalue and keep the ascending eigenvalues."""
        spectrum = np.linalg.eigvalsh(self._array)
        lowest = spectrum.T[0]
        self._require(lowest >= -PSD_TOL, "matrix has a negative eigenvalue {:.3e}", lowest)
        spectrum.setflags(write=False)
        self._spectrum = spectrum

    @property
    def spectrum(self) -> np.ndarray:
        return self._spectrum


class StokesTensor(_Checked):
    """Real coefficients of a trace-one operator in the lambda tensor basis.

    ``values`` has length ``4**n`` in base-4 row-major multi-index order and
    ``values[0]`` equals ``2**(-n/2)``; a stack has one such row per member.
    The trace is ``2**(n/2) values[0]``, so ``values[0]`` is bounded by the
    trace bound in the tensor's units, ``TRACE_TOL * 2**(-n/2)``: a tensor
    accepted here is not refused for its trace by the conversions, which
    bound the trace by ``TRACE_TOL`` (up to rounding at the bound itself).
    """

    __slots__ = ()

    def __init__(self, values, stack: bool = False):
        self._keep(self._shaped(values, float, stack))

    def _keep(self, v: np.ndarray) -> None:
        affine = v.T[0]
        unit = 2.0 ** (-self._n / 2)
        self._require(
            abs(affine - unit) <= TRACE_TOL * unit,
            f"affine component must equal 2**(-{self._n}/2), got {{:.12g}}",
            affine,
        )
        super()._keep(v)

    @property
    def values(self) -> np.ndarray:
        return self._array


class RealDensityMatrix(_Checked):
    """Real ``2**n x 2**n`` unfolding of a Stokes tensor, or a stack of them.

    The top-left entry always equals 1 (the rescaled trace component).
    """

    __slots__ = ()
    _ndim = 2

    def __init__(self, entries, stack: bool = False):
        self._keep(self._shaped(entries, float, stack))

    def _keep(self, e: np.ndarray) -> None:
        corner = e.T[0, 0]
        self._require(abs(corner - 1.0) <= TRACE_TOL, "top-left entry must equal 1, got {:.12g}", corner)
        super()._keep(e)

    @property
    def entries(self) -> np.ndarray:
        return self._array


def _as(cls, value):
    """``value`` if it is a ``cls``, else ``value`` checked into one: the input rule of every public entry."""
    return value if isinstance(value, cls) else cls(value)


def _apply_per_qubit(kernels, values: np.ndarray) -> np.ndarray:
    """Apply ``kernels[m]`` to the base-4 axis of qubit m+1; each step rotates that axis to the back.

    A stack's member axis starts last (``values.T``) and rotates with the
    digit axes, so after the last qubit it leads again: a stack takes the
    same 2-D steps as one value, with wider matrices.  A kernel with a
    leading member axis (one 4x4 per member of the stack) acts on each
    member with its own matrix.

    The Pauli kernels of the conversions multiply exactly, so a member's
    bits do not depend on the stack's width; the general blocks of
    :func:`reflections.apply_local_orthogonal` round, and theirs may.
    """
    shape = values.shape
    values = values.T
    for m, k in enumerate(kernels):
        if k.ndim == 2:
            values = (k @ values.reshape(4, -1)).T
        else:
            # Axes (this digit, later digits, member, earlier outputs) with the member moved first.
            per_member = values.reshape(4, 4 ** (len(kernels) - 1 - m), len(k), 4**m).transpose(2, 0, 1, 3)
            image = k @ per_member.reshape(len(k), 4, -1)
            values = image.reshape(per_member.shape).transpose(1, 2, 0, 3).reshape(4, -1).T
    return values.reshape(shape)


@functools.cache
def _transposition(lead: int, order: tuple[int, ...]) -> tuple[int, ...]:
    return (*range(lead), *(lead + axis for axis in order))


def _regroup(a: np.ndarray, n: int, order, shape: tuple[int, ...]) -> np.ndarray:
    """Reorder the bits of the trailing ``4**n`` entries of ``a``; leading member axes stay in front.

    The entries (a ``2**n x 2**n`` matrix or ``4**n`` flat values) are read as the row bits of
    qubits 1..n, then their column bits; bit ``order[k]`` becomes axis k before the reshape to ``shape``.
    """
    lead = a.shape[: -1 if a.shape[-1] == 4**n else -2]
    return a.reshape(lead + (2,) * (2 * n)).transpose(_transposition(len(lead), tuple(order))).reshape(lead + shape)


@functools.cache
def _digits(n: int) -> np.ndarray:
    """Read-only ``(4**n, n)`` table: row k is the multi-index of Stokes component k."""
    table = np.array(list(itertools.product(range(4), repeat=n)))
    table.setflags(write=False)
    return table


def _interleaved(m: np.ndarray, n: int) -> np.ndarray:
    """Flatten ``2**n x 2**n`` arrays so qubit k's (row, col) bits form digit k."""
    return _regroup(m, n, [q + n * col for q in range(n) for col in (0, 1)], (4**n,))


def _deinterleaved(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_interleaved`."""
    return _regroup(v, n, [*range(0, 2 * n, 2), *range(1, 2 * n, 2)], (2**n, 2**n))


def to_stokes(op) -> StokesTensor:
    """Expansion coefficients ``tr(rho Lambda_idx)`` of a trace-one operator (per member of a stack)."""
    op = _as(HermitianOperator, op)
    values = _apply_per_qubit([_K_TO] * op.n, _interleaved(op.matrix, op.n))
    return StokesTensor._built(values.real / 2.0 ** (op.n / 2), op.n)


def from_stokes(s: StokesTensor) -> HermitianOperator:
    """Inverse of :func:`to_stokes`."""
    s = _as(StokesTensor, s)
    matrix = _apply_per_qubit([_K_FROM] * s.n, s.values / 2.0 ** (s.n / 2))
    return HermitianOperator._built(_deinterleaved(matrix, s.n), s.n)


def to_real_density(s: StokesTensor) -> RealDensityMatrix:
    """Real unfolding of a Stokes tensor, multiplicative over tensor factors."""
    s = _as(StokesTensor, s)
    # Each digit splits as 2 * col + row, so it de-interleaves to the transpose.
    entries = _deinterleaved(s.values, s.n).swapaxes(-1, -2) * 2.0 ** (s.n / 2)
    return RealDensityMatrix._built(entries, s.n)


def real_density_to_stokes(sigma) -> StokesTensor:
    """Recover Stokes values by column-stacking, one sqrt(2) per factor."""
    sigma = _as(RealDensityMatrix, sigma)
    values = _interleaved(sigma.entries.swapaxes(-1, -2), sigma.n) / 2.0 ** (sigma.n / 2)
    return StokesTensor._built(values, sigma.n)


def stokes_as_matrix(s: StokesTensor) -> np.ndarray:
    """Two-qubit Stokes values as the 4x4 array ``2 * values[j, k]`` (per member of a stack)."""
    s = _as(StokesTensor, s)
    _two_qubits(s.n, "the square Stokes matrix")
    return 2.0 * s.values.reshape(*s.values.shape[:-1], 4, 4)


def choi_reshuffle(m) -> np.ndarray:
    """Self-inverse reshuffling of a bipartite ``d**2 x d**2`` matrix, or of each in a stack.

    Defined via column-stacking so that a product ``A^T (x) B`` is sent to
    the rank-one matrix ``col(B) col(A^T)^T``.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[-1]
    d = math.isqrt(dim)
    if d * d != dim:
        raise ValueError(f"dimension {dim} does not split into d x d blocks")
    lead = m.shape[:-2]
    b = len(lead)
    perm = [*range(b), b + 3, b + 1, b + 2, b]
    return m.reshape(*lead, d, d, d, d).transpose(perm).reshape(*lead, dim, dim)


def _label(q, what: str = "qubit labels") -> int:
    """A qubit label (or count) as an int; a bool, or what ``operator.index`` refuses, is an error.

    ``operator.index`` refuses a float, a string, and an array that is not one
    integer (``np.array([2])``, ``np.array(1.5)``), though every array's class has ``__index__``.
    """
    if not isinstance(q, (bool, np.bool_)):
        try:
            return operator.index(q)
        except TypeError:
            pass
    raise ValueError(f"{what} must be integers, got {q!r}")


def _count(x, what: str) -> int:
    """A count (trials, a dimension, a stack size) as an int >= 1, checked before anything is drawn or sized by it."""
    if (x := _label(x, what)) < 1:
        raise ValueError(f"{what} must be at least 1, got {x}")
    return x


def _two_qubits(n: int, what: str) -> None:
    """Refuse a qubit count other than 2 for ``what``, which is defined for two qubits only."""
    if n != 2:
        raise ValueError(f"{what} is defined for two qubits, got n={n}")


def _is_real(x) -> bool:
    """Whether ``x`` is a real number: a Python or numpy float or int, not a bool (nor a string or None)."""
    return not isinstance(x, bool) and isinstance(x, (float, int, np.floating, np.integer))


def _qubits(n) -> int:
    """A qubit count as an int in 1..QUBIT_LIMIT, checked before anything is sized by it."""
    n = _label(n, "qubit counts")
    if not 1 <= n <= QUBIT_LIMIT:
        raise ValueError(f"supported qubit counts are 1..{QUBIT_LIMIT}, got {n}")
    return n


def _check_subset(subset, n: int) -> tuple[int, ...]:
    qubits = sorted({_label(q) for q in subset})
    if any(q < 1 or q > n for q in qubits):
        raise ValueError(f"qubit labels must lie in 1..{n}, got {qubits}")
    return tuple(qubits)


def _nonempty_subset(subset, n: int) -> tuple[int, ...]:
    qubits = _check_subset(subset, n)
    if not qubits:
        raise ValueError("the qubit subset must contain at least one qubit")
    return qubits


def partial_transpose(op, subset) -> np.ndarray:
    """Transpose the subset qubits' factors: swap their row and column axes.

    The matrix-domain form of :func:`reflections.mask_partial_transpose`,
    which stays its definition and test oracle.  The image is a plain array
    (one matrix per member of a stack) with the input's Hermiticity defect.
    """
    op = _as(HermitianOperator, op)
    return _partial_transpose(op, _check_subset(subset, op.n))


def _partial_transpose(op: HermitianOperator, swapped: tuple[int, ...]) -> np.ndarray:
    """:func:`partial_transpose` of a checked operator (or stack) on a checked subset."""
    n = op.n
    # Row bits first, then column bits; a transposed qubit takes each from the other half.
    order = [q - 1 + n * (col != (q in swapped)) for col in (0, 1) for q in range(1, n + 1)]
    return _regroup(op.matrix, n, order, (2**n, 2**n))


def _realigned(op: HermitianOperator, block: tuple[int, ...]) -> np.ndarray:
    """Realignment across the cut ``block | rest``: rows are the block's (row, column) bits, columns the rest's."""
    n = op.n
    rest = [q for q in range(1, n + 1) if q not in block]
    order = [q - 1 + n * col for part in (block, rest) for col in (0, 1) for q in part]
    return _regroup(op.matrix, n, order, (4 ** len(block), 4 ** len(rest)))


def identity_times_reduction(op, subset) -> np.ndarray:
    """Matrix of ``identity on subset (x) partial trace over subset``.

    The identity factors sit at the subset positions in qubit order.  For
    each subset qubit the two diagonal blocks of that qubit are summed and
    the sum written onto both (its off-diagonal blocks become 0), which is
    ``O(d**2)`` per qubit and needs no Pauli transform.  It starts from a
    copy of the operator's matrix, which is already its Hermitian part, so
    the image is exactly Hermitian.

    It equals ``2**(len(subset)-1) (rho + R_S rho)`` with ``R_S`` the
    partial reflection on the subset (the full set gives the identity), so
    ``R_S rho = 2**(1-len(subset)) lift - rho``.  The trace is
    ``2**len(subset)``, hence a plain array (one matrix per member of a
    stack).
    """
    op = _as(HermitianOperator, op)
    return _identity_times_reduction(op, _nonempty_subset(subset, op.n))


def _identity_times_reduction(op: HermitianOperator, subset: tuple[int, ...]) -> np.ndarray:
    """:func:`identity_times_reduction` of a checked operator (or stack) on a checked nonempty subset."""
    n = op.n
    lift = op.matrix.copy()
    for q in subset:
        # The leading -1 is the row block above qubit q; a stack's member axis folds into it.
        blocks = lift.reshape(-1, 2, 2 ** (n - q), 2 ** (q - 1), 2, 2 ** (n - q))
        total = blocks[:, 0, :, :, 0] + blocks[:, 1, :, :, 1]
        blocks[:, 0, :, :, 0] = total
        blocks[:, 1, :, :, 1] = total
        blocks[:, 0, :, :, 1] = 0
        blocks[:, 1, :, :, 0] = 0
    return lift


def _float_or_array(value: np.ndarray):
    """A Python float (or bool, for a flag) for one value, the array of one value per member for a stack."""
    return value if value.ndim else value.item()


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm over the last axis, one per member of a stack.

    A ``(1, k) @ (k, 1)`` product is the dot product ``np.dot`` forms for one vector.
    """
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def purity(s: StokesTensor):
    """``tr(rho**2)`` as the squared Euclidean norm of the Stokes values: a float, or one per member of a stack."""
    return _float_or_array(_squared_norms(_as(StokesTensor, s).values))
