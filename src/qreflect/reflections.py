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

The named constructors return one shared mask per ``(n, subset)``; a mask's
signs and name are read-only, so sharing it is safe.  Criteria evaluate the
same images with matrix kernels (``stokes.partial_transpose``,
``stokes.identity_times_reduction``), and these masks stay their definition
and test oracle; the Hermitian-side operator sums that the masks are
checked against live in :mod:`properties`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .stokes import (
    HermitianOperator,
    StokesTensor,
    _Checked,
    _apply_per_qubit,
    _as_operator,
    _check_subset,
    _digits,
    _label,
    _nonempty_subset,
    _qubits,
    _single,
    from_stokes,
    identity_times_reduction,
    to_stokes,
)


class SignMask(_Checked):
    """A diagonal +/-1 involution of the ``4**n`` Stokes components, or a stack (a catalog) of them."""

    __slots__ = ("_name",)

    def __init__(self, signs, name: str = "", stack: bool = False):
        s = self._shaped(signs, float, stack)
        self._require((np.abs(s) == 1).all(axis=-1), "sign entries must be +1 or -1")
        self._require(s.T[0] == 1, "the trace component sign must be +1")
        self._keep(s.astype(np.int8))
        self._name = name

    @property
    def signs(self) -> np.ndarray:
        return self._array

    @property
    def name(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, name={self._name!r})"


@dataclass(frozen=True)
class MapClassification:
    orientation: str  # "preserving" or "changing"
    local_factorizable: bool
    sign_change_count: int


@functools.cache
def _digit_rule_mask(kind: str, n: int, subset: tuple[int, ...], hit: tuple[int, ...], odd: bool) -> SignMask:
    """Shared named mask flipping where the count of subset digits in ``hit`` is odd (``odd``) or nonzero."""
    count = np.isin(_digits(n)[:, [q - 1 for q in subset]], hit).sum(axis=1)
    flip = count % 2 == 1 if odd else count > 0
    return SignMask(np.where(flip, -1, 1), name=f"{kind}[{','.join(map(str, subset))}]")


def mask_partial_transpose(n: int, subset) -> SignMask:
    """Flip the sign wherever an odd number of subset digits equals 2."""
    n = _qubits(n)
    return _digit_rule_mask("partial_transpose", n, _check_subset(subset, n), (2,), True)


def mask_spin_flip(n: int, subset) -> SignMask:
    """Per-qubit Bloch inversion: factor -1 on digits 1, 2, 3; signs multiply."""
    n = _qubits(n)
    return _digit_rule_mask("spin_flip", n, _check_subset(subset, n), (1, 2, 3), True)


def mask_total_reflection(n: int, subset=None) -> SignMask:
    """Flip every component whose subset digits are not all zero.

    With the full qubit set this negates the whole homogeneous part; on a
    proper subset it fixes only the complementary reduced-state block.
    """
    n = _qubits(n)
    subset = tuple(range(1, n + 1)) if subset is None else _nonempty_subset(subset, n)
    return _digit_rule_mask("total_reflection", n, subset, (1, 2, 3), False)


def mask_two_body_flip() -> SignMask:
    """Two-qubit mask negating exactly the components with both digits nonzero.

    Equals the double spin flip composed with the two-qubit total reflection.
    """
    spin = mask_spin_flip(2, (1, 2)).signs
    total = mask_total_reflection(2, (1, 2)).signs
    return SignMask(spin * total, name="two_body_flip")


def apply_mask(mask: SignMask, state):
    """Componentwise sign action; Stokes input stays Stokes, operator stays operator.

    The signs broadcast against the values: one mask acts on every member of
    a state stack, a catalog (a stack of masks) gives every image of one
    state in one transform, and equal-length stacks pair up member by member.
    """
    if isinstance(state, StokesTensor):
        if mask.n != state.n:
            raise ValueError(f"mask acts on {mask.n} qubits, state has {state.n}")
        return StokesTensor(state.values * mask.signs, state.is_stack or mask.is_stack)
    return from_stokes(apply_mask(mask, to_stokes(state)))


def classify(mask: SignMask) -> MapClassification:
    """Sign-change count, orientation parity, and exact factorizability."""
    mask = _single(mask)
    flips = int(np.count_nonzero(mask.signs == -1))
    orientation = "changing" if flips % 2 == 1 else "preserving"
    digits = _digits(mask.n)
    nonzero = np.count_nonzero(digits, axis=1)
    rebuilt = np.ones(len(digits), dtype=np.int64)
    for digit in digits.T:
        # This qubit's factor sits on the four components where no other qubit's digit is nonzero.
        rebuilt *= mask.signs[nonzero == (digit != 0)][digit]
    factorizable = bool(np.array_equal(rebuilt, mask.signs))
    return MapClassification(orientation, factorizable, flips)


_AFFINE_AXIS = np.eye(4)[0]


class LocalOrthogonalMap:
    """One affine rotation block ``diag(1, R)`` per qubit, ``R in O(3)``.

    A block may carry one leading member axis, one 4x4 per member of a map
    stack; the blocks that do must agree on the member count.  Every check
    runs per member, and a failing stack names its first failing member.
    """

    __slots__ = ("_blocks", "_members")

    def __init__(self, blocks):
        blocks = tuple(blocks)
        _qubits(len(blocks))
        validated = []
        members = set()
        for b in blocks:
            b = np.array(b, dtype=float)
            if b.shape[-2:] != (4, 4) or b.ndim not in (2, 3):
                raise ValueError(f"each block must be 4x4 or a stack of 4x4, got {b.shape}")
            axes = (-2, -1)
            _Checked._require(np.isfinite(b).all(axis=axes), "block entries must be finite")
            # The first row and the first column must both be (1, 0, 0, 0).
            affine = np.maximum(np.abs(b[..., 0, :] - _AFFINE_AXIS), np.abs(b[..., :, 0] - _AFFINE_AXIS)).max(axis=-1)
            _Checked._require(affine <= 1e-10, "block must have the affine form diag(1, R)")
            r = b[..., 1:, 1:]
            defect = np.abs(r @ r.swapaxes(-1, -2) - np.eye(3)).max(axis=axes)
            _Checked._require(defect <= 1e-10, "rotation part is not orthogonal within 1e-10")
            b.setflags(write=False)
            validated.append(b)
            if b.ndim == 3:
                members.add(len(b))
        if len(members) > 1:
            raise ValueError(f"block stacks must share one member count, got {sorted(members)}")
        self._blocks = tuple(validated)
        self._members = members.pop() if members else None

    @classmethod
    def single_qubit(cls, n: int, qubit: int, rotation) -> "LocalOrthogonalMap":
        """Act with ``diag(1, rotation)`` on one qubit, identity elsewhere; a stack of rotations gives a map stack."""
        n, qubit = _qubits(n), _label(qubit)
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit {qubit} is outside 1..{n}")
        r = np.asarray(rotation, dtype=float)
        blocks = [np.eye(4) for _ in range(n)]
        block = np.zeros((*r.shape[:-2], 4, 4))
        block[..., 0, 0] = 1.0
        block[..., 1:, 1:] = r
        blocks[qubit - 1] = block
        return cls(blocks)

    @property
    def n(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return self._blocks

    @property
    def members(self) -> int | None:
        """The member count of a map stack, or None for one map."""
        return self._members


def apply_local_orthogonal(lomap: LocalOrthogonalMap, state):
    """Contract each qubit slot of the Stokes tensor with its affine block.

    One map acts on every member of a state stack; a map stack pairs with
    an equal-length state stack, member by member.
    """
    if isinstance(state, StokesTensor):
        if lomap.n != state.n:
            raise ValueError(f"map acts on {lomap.n} qubits, state has {state.n}")
        paired = len(state.values) if state.is_stack else None
        if lomap.members not in (None, paired):
            raise ValueError(f"a stack of {lomap.members} maps needs a state stack of {lomap.members}, got {state!r}")
        return StokesTensor(_apply_per_qubit(lomap.blocks, state.values), state.is_stack)
    return from_stokes(apply_local_orthogonal(lomap, to_stokes(state)))


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
    return HermitianOperator((identity_times_reduction(op, pair) - op.matrix) / 3, op.is_stack)
