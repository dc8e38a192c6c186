"""Discrete symmetry maps on multiqubit Stokes tensors.

Sign masks are diagonal involutions of the Stokes coordinates: each of the
``4**n`` components is multiplied by +1 or -1, with the trace component
always fixed.  Partial transposes, spin flips, and total and partial
reflections are all of this form.  Continuous local actions are covered by
:class:`LocalOrthogonalMap`, one affine block ``diag(1, R)`` with
``R in O(3)`` per qubit.

A mask is orientation changing exactly when its number of sign flips is odd,
and it factors into per-qubit operations exactly when the sign array is an
outer product of per-qubit sign 4-vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stokes import (
    HermitianOperator,
    QUBIT_LIMIT,
    RealDensityMatrix,
    StokesTensor,
    _apply_per_qubit,
    _as_operator,
    _check_subset,
    _nonempty_subset,
    from_stokes,
    identity_times_reduction,
    LAMBDA,
    PAULI,
    real_density_to_stokes,
    to_real_density,
    to_stokes,
)


class SignMask:
    """A diagonal +/-1 involution of the ``4**n`` Stokes components."""

    __slots__ = ("_n", "_signs", "name")

    def __init__(self, signs, name: str = ""):
        s = np.array(signs, dtype=float)
        if s.ndim != 1:
            raise ValueError(f"expected a flat sign array, got shape {s.shape}")
        n = round(math.log(s.size, 4)) if s.size > 1 else 0
        if n < 1 or 4**n != s.size or n > QUBIT_LIMIT:
            raise ValueError(f"sign count {s.size} is not 4**n for n in 1..{QUBIT_LIMIT}")
        if not np.all(np.abs(s) == 1):
            raise ValueError("sign entries must be +1 or -1")
        s = s.astype(np.int8)
        if s[0] != 1:
            raise ValueError("the trace component sign must be +1")
        s.setflags(write=False)
        self._n = n
        self._signs = s
        self.name = name

    @property
    def n(self) -> int:
        return self._n

    @property
    def signs(self) -> np.ndarray:
        return self._signs

    def __repr__(self) -> str:
        return f"SignMask(n={self._n}, name={self.name!r})"


@dataclass(frozen=True)
class MapClassification:
    orientation: str  # "preserving" or "changing"
    local_factorizable: bool
    sign_change_count: int


def _digit_count(n: int, subset, hit) -> np.ndarray:
    """Per linear index, the number of ``subset`` qubits whose digit is in ``hit``."""
    idx = np.arange(4**n)
    is_hit = np.array([d in hit for d in range(4)])
    count = np.zeros(4**n, dtype=int)
    for q in subset:
        count += is_hit[(idx >> 2 * (n - q)) & 3]
    return count


def _subset_label(subset) -> str:
    return ",".join(str(q) for q in subset)


def mask_identity(n: int) -> SignMask:
    return SignMask(np.ones(4**n, dtype=np.int8), name="identity")


def mask_partial_transpose(n: int, subset) -> SignMask:
    """Flip the sign wherever an odd number of subset digits equals 2."""
    subset = _check_subset(subset, n)
    signs = np.where(_digit_count(n, subset, (2,)) % 2 == 1, -1, 1)
    return SignMask(signs, name=f"partial_transpose[{_subset_label(subset)}]")


def mask_spin_flip(n: int, subset) -> SignMask:
    """Per-qubit Bloch inversion: factor -1 on digits 1, 2, 3; signs multiply."""
    subset = _check_subset(subset, n)
    signs = np.where(_digit_count(n, subset, (1, 2, 3)) % 2 == 1, -1, 1)
    return SignMask(signs, name=f"spin_flip[{_subset_label(subset)}]")


def mask_total_reflection(n: int, subset=None) -> SignMask:
    """Flip every component whose subset digits are not all zero.

    With the full qubit set this negates the whole homogeneous part; on a
    proper subset it fixes only the complementary reduced-state block.
    """
    subset = tuple(range(1, n + 1)) if subset is None else _nonempty_subset(subset, n)
    signs = np.where(_digit_count(n, subset, (1, 2, 3)) > 0, -1, 1)
    return SignMask(signs, name=f"total_reflection[{_subset_label(subset)}]")


def mask_two_body_flip() -> SignMask:
    """Two-qubit mask negating exactly the components with both digits nonzero.

    Equals the double spin flip composed with the two-qubit total reflection.
    """
    spin = mask_spin_flip(2, (1, 2)).signs
    total = mask_total_reflection(2, (1, 2)).signs
    return SignMask(spin * total, name="two_body_flip")


def choi_related_mask_pair() -> tuple[np.ndarray, np.ndarray]:
    """Two 4x4 sign matrices defining the same nonfactorizable involution.

    The first acts by Hadamard product on the real density matrix, the
    second on the square Stokes matrix; they are images of each other under
    the reshuffling map.  Used directly as Stokes-side masks they give two
    distinct orientation-preserving maps, neither of which is positive.
    """
    center_block = np.ones((4, 4), dtype=np.int8)
    center_block[1:3, 1:3] = -1
    antidiagonal = np.ones((4, 4), dtype=np.int8)
    antidiagonal[np.arange(4), 3 - np.arange(4)] = -1
    return center_block, antidiagonal


def apply_mask(mask: SignMask, state):
    """Componentwise sign action; Stokes input stays Stokes, operator stays operator."""
    if isinstance(state, StokesTensor):
        if mask.n != state.n:
            raise ValueError(f"mask acts on {mask.n} qubits, state has {state.n}")
        return StokesTensor(state.values * mask.signs)
    op = _as_operator(state)
    if mask.n != op.n:
        raise ValueError(f"mask acts on {mask.n} qubits, state has {op.n}")
    return from_stokes(apply_mask(mask, to_stokes(op)))


def apply_real_density_mask(mask4, state) -> HermitianOperator:
    """Hadamard product of a 4x4 sign matrix with the real density matrix."""
    op = _as_operator(state)
    if op.n != 2:
        raise ValueError(f"real-density masks are defined for n=2, got n={op.n}")
    sigma = to_real_density(to_stokes(op)).entries
    masked = RealDensityMatrix(np.asarray(mask4) * sigma)
    return from_stokes(real_density_to_stokes(masked))


def classify(mask: SignMask) -> MapClassification:
    """Sign-change count, orientation parity, and exact factorizability."""
    flips = int(np.count_nonzero(mask.signs == -1))
    orientation = "changing" if flips % 2 == 1 else "preserving"
    factors = []
    for m in range(mask.n):
        stride = 4 ** (mask.n - 1 - m)
        factors.append(mask.signs[[0, stride, 2 * stride, 3 * stride]])
    outer = factors[0].astype(np.int64)
    for f in factors[1:]:
        outer = np.multiply.outer(outer, f).reshape(-1)
    factorizable = bool(np.array_equal(outer, mask.signs))
    return MapClassification(orientation, factorizable, flips)


class LocalOrthogonalMap:
    """One affine rotation block ``diag(1, R)`` per qubit, ``R in O(3)``."""

    __slots__ = ("_blocks",)

    def __init__(self, blocks):
        validated = []
        for b in blocks:
            b = np.array(b, dtype=float)
            if b.shape != (4, 4):
                raise ValueError(f"each block must be 4x4, got {b.shape}")
            if not np.isfinite(b).all():
                raise ValueError("block entries must be finite")
            if abs(b[0, 0] - 1.0) > 1e-10 or np.abs(b[0, 1:]).max() > 1e-10 or np.abs(b[1:, 0]).max() > 1e-10:
                raise ValueError("block must have the affine form diag(1, R)")
            r = b[1:, 1:]
            if np.abs(r @ r.T - np.eye(3)).max() > 1e-10:
                raise ValueError("rotation part is not orthogonal within 1e-10")
            b.setflags(write=False)
            validated.append(b)
        if not 1 <= len(validated) <= QUBIT_LIMIT:
            raise ValueError(f"need 1..{QUBIT_LIMIT} blocks, got {len(validated)}")
        self._blocks = tuple(validated)

    @classmethod
    def single_qubit(cls, n: int, qubit: int, rotation) -> "LocalOrthogonalMap":
        """Act with ``diag(1, rotation)`` on one qubit, identity elsewhere."""
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit {qubit} is outside 1..{n}")
        r = np.asarray(rotation, dtype=float)
        blocks = [np.eye(4) for _ in range(n)]
        block = np.eye(4)
        block[1:, 1:] = r
        blocks[qubit - 1] = block
        return cls(blocks)

    @property
    def n(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return self._blocks


def apply_local_orthogonal(lomap: LocalOrthogonalMap, state):
    """Contract each qubit slot of the Stokes tensor with its affine block."""
    if isinstance(state, StokesTensor):
        if lomap.n != state.n:
            raise ValueError(f"map acts on {lomap.n} qubits, state has {state.n}")
        return StokesTensor(_apply_per_qubit(lomap.blocks, state.values))
    op = _as_operator(state)
    return from_stokes(apply_local_orthogonal(lomap, to_stokes(op)))


def rotation_from_unitary(u) -> np.ndarray:
    """Adjoint-representation rotation of the Bloch vector under ``u rho u^dagger``."""
    u = np.asarray(u, dtype=complex)
    r = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            r[a, b] = np.trace(PAULI[a + 1] @ u @ PAULI[b + 1] @ u.conj().T).real / 2
    return r


def one_qubit_operator_sum(kind: str, rho) -> HermitianOperator:
    """Transpose or spin flip of one qubit evaluated on the real unfolding.

    ``transpose`` uses ``sigma' = sigma P0 - sqrt(2) lambda_3 sigma P1`` and
    ``spin_flip`` uses ``sigma' = 2 |0><0| - sigma``; the result must match
    the corresponding sign-mask action.
    """
    op = _as_operator(rho)
    if op.n != 1:
        raise ValueError(f"defined for one qubit, got n={op.n}")
    sigma = to_real_density(to_stokes(op)).entries
    if kind == "transpose":
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        flipped = sigma @ p0 - math.sqrt(2.0) * LAMBDA[3].real @ sigma @ p1
    elif kind == "spin_flip":
        flipped = 2.0 * np.diag([1.0, 0.0]) - sigma
    else:
        raise ValueError(f"kind must be 'transpose' or 'spin_flip', got {kind!r}")
    return from_stokes(real_density_to_stokes(RealDensityMatrix(flipped)))


def two_body_flip_operator_sum(rho) -> HermitianOperator:
    """Operator-sum form of the two-body sign flip on two qubits.

    Sums conjugations by ``lambda_a (x) 1`` and ``1 (x) lambda_a`` over the
    three Pauli axes and subtracts half the identity.
    """
    op = _as_operator(rho)
    if op.n != 2:
        raise ValueError(f"defined for two qubits, got n={op.n}")
    m = op.matrix
    eye2 = np.eye(2)
    acc = np.zeros_like(m)
    for a in (1, 2, 3):
        left = np.kron(LAMBDA[a], eye2)
        right = np.kron(eye2, LAMBDA[a])
        acc = acc + left @ m @ left + right @ m @ right
    return HermitianOperator(acc - np.eye(4) / 2)


def spin_flipped_partner(rho) -> HermitianOperator:
    """Two-qubit double spin flip via conjugation of the complex conjugate."""
    op = _as_operator(rho)
    if op.n != 2:
        raise ValueError(f"defined for two qubits, got n={op.n}")
    yy = np.kron(PAULI[2], PAULI[2])
    return HermitianOperator(yy @ op.matrix.conj() @ yy)


def relaxed_reflection(rho, pair=(1, 2)) -> HermitianOperator:
    """Positive relaxation of the two-qubit total reflection.

    On the chosen pair the map acts as ``(identity * trace - rho) / 3``
    (identity elsewhere), which equals the total reflection applied to the
    remixed state ``(1/2 + rho) / 3`` when n = 2.  The output is always
    positive semidefinite on states, but the map is not completely positive.
    """
    op = _as_operator(rho)
    pair = _check_subset(pair, op.n)
    if len(pair) != 2:
        raise ValueError(f"the relaxed reflection acts on a qubit pair, got {pair}")
    return HermitianOperator((identity_times_reduction(op, pair) - op.matrix) / 3)


def choi_matrix_of_map(apply_fn, dim: int) -> np.ndarray:
    """Choi matrix ``sum_ij E_ij (x) apply_fn(E_ij)`` of a linear map."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            out[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim] = apply_fn(unit)
    return out


def count_inequivalent(n: int) -> int:
    """Number of trace-preserving diagonal sign symmetries modulo local ones."""
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    return 2 ** (4**n - 3 * n - 1)
