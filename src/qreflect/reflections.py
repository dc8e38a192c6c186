"""Discrete symmetry maps on multiqubit Stokes tensors.

Sign masks are diagonal involutions of the Stokes coordinates: each of the
``4**n`` components is multiplied by +1 or -1, with the trace component
always fixed.  Partial transposes, spin flips, and total and partial
reflections are all of this form.  Continuous local actions are covered by
:class:`LocalOrthogonalMap`, one affine block ``diag(1, R)`` with
``R in O(3)`` per qubit; ``det R = -1`` makes a one-qubit reflection, an
antiunitary symmetry.  Masks and maps are checked values of the one core
``stokes._Checked``: a read-only array checked once where it enters, and a
stack of them indexed member by member.

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
    _as,
    _check_subset,
    _digits,
    _identity_times_reduction,
    _label,
    _nonempty_subset,
    _numbers,
    _qubits,
    from_stokes,
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
    """The classification of one mask, or of a mask stack with one array entry per member in each field."""

    orientation: str | np.ndarray  # "preserving" or "changing"
    local_factorizable: bool | np.ndarray
    sign_change_count: int | np.ndarray


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


@functools.cache
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
    state in one transform, and equal-length stacks pair up member by member;
    stacks of two lengths are refused before any transform.  A Stokes image
    is the checked values times the checked signs, whose trace sign is +1,
    so it passes every tensor check bit for bit and is not checked again.
    """
    mask = _as(SignMask, mask)
    members = len(mask.signs) if mask.is_stack else None
    if members and isinstance(state, _Checked) and state.is_stack and len(state._array) != members:
        raise ValueError(f"a stack of {members} masks needs one state or a state stack of {members}, got {state!r}")
    if isinstance(state, StokesTensor):
        if mask.n != state.n:
            raise ValueError(f"mask acts on {mask.n} qubits, state has {state.n}")
        return state._image(lambda values: values * mask.signs)
    return from_stokes(apply_mask(mask, to_stokes(state)))


@functools.cache
def _factor_positions(n: int) -> np.ndarray:
    """Read-only ``(4**n, n)`` table: entry ``[k, q]`` is the component that carries qubit q+1's factor of component k.

    That component has component k's digit on qubit q+1 and 0 on every other qubit.
    """
    table = _digits(n) * 4 ** np.arange(n - 1, -1, -1)
    table.setflags(write=False)
    return table


def classify(mask: SignMask) -> MapClassification:
    """Sign-change count, orientation parity, and exact factorizability.

    A mask factors exactly when each sign is the product of its qubits'
    factors, each read off the component where only that qubit's digit is
    nonzero.  One mask gets a ``str``, a ``bool`` and an ``int``; a mask
    stack gets one array per field, entry k classifying member k, from one
    pass over the stack.
    """
    mask = _as(SignMask, mask)
    signs = mask.signs
    flips = (signs < 0).sum(axis=-1)
    orientation = np.where(flips % 2 == 1, "changing", "preserving")
    factorizable = (signs[..., _factor_positions(mask.n)].prod(axis=-1) == signs).all(axis=-1)
    if mask.is_stack:
        return MapClassification(orientation, factorizable, flips)
    return MapClassification(str(orientation), bool(factorizable), int(flips))


_AFFINE_AXIS = np.eye(4)[0]


class LocalOrthogonalMap(_Checked):
    """One affine rotation block ``diag(1, R)`` per qubit, ``R in O(3)``, or a stack of such maps.

    The blocks are held as one read-only ``(n, 4, 4)`` array, ``(B, n, 4, 4)``
    for a map stack.  A block may carry one leading member axis, one 4x4 per
    member of the stack; the blocks that do must agree on the member count,
    and a block without one acts on every member.  Every check runs per
    member, and a failing stack names its first failing member.
    """

    __slots__ = ()
    _ndim = 3

    def __init__(self, blocks):
        if isinstance(blocks, _Checked):
            raise TypeError(f"a LocalOrthogonalMap is checked from 4x4 blocks, got a {type(blocks).__name__}")
        blocks = tuple(blocks)
        self._n = _qubits(len(blocks))
        blocks = [np.asarray(b) for b in blocks]
        if bad := [b.shape for b in blocks if b.shape[-2:] != (4, 4) or b.ndim not in (2, 3) or not b.size]:
            raise ValueError(f"each block must be 4x4 or a stack of 4x4, got {bad[0]}")
        if len(members := {len(b) for b in blocks if b.ndim == 3}) > 1:
            raise ValueError(f"block stacks must share one member count, got {sorted(members)}")
        # Each block passes the number rule once, on its own dtype (stacking would read a bool block as floats);
        # a block stack's member axis is the map stack's, so a failing member is named by its index.
        blocks = [_numbers(b, True, (-2, -1), "block entries must be finite") for b in blocks]
        a = np.stack(np.broadcast_arrays(*blocks), axis=-3, dtype=float)
        axes = (-3, -2, -1)
        # The first row and the first column of every block must both be (1, 0, 0, 0).
        affine = np.maximum(np.abs(a[..., 0, :] - _AFFINE_AXIS), np.abs(a[..., :, 0] - _AFFINE_AXIS)).max(axis=(-2, -1))
        self._require(affine <= 1e-10, "block must have the affine form diag(1, R)")
        r = a[..., 1:, 1:]
        defect = np.abs(r @ r.swapaxes(-1, -2) - np.eye(3)).max(axis=axes)
        self._require(defect <= 1e-10, "rotation part is not orthogonal within 1e-10")
        self._keep(a)

    @classmethod
    def single_qubit(cls, n: int, qubit: int, rotation) -> "LocalOrthogonalMap":
        """Act with ``diag(1, rotation)`` on one qubit, identity elsewhere; a stack of rotations gives a map stack."""
        n, qubit = _qubits(n), _label(qubit)
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit {qubit} is outside 1..{n}")
        r = np.asarray(rotation)
        if r.shape[-2:] != (3, 3) or r.ndim not in (2, 3):
            raise ValueError(f"the rotation must be 3x3 or a stack of 3x3, got {r.shape}")
        # The block, its one included, is of the rotation's dtype: __init__'s one number-rule pass refuses a bad one.
        block = np.zeros((*r.shape[:-2], 4, 4), dtype=r.dtype)
        block[..., 0, 0] = np.ones((), r.dtype)
        block[..., 1:, 1:] = r
        return cls([block if q == qubit else np.eye(4) for q in range(1, n + 1)])

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """One read-only 4x4 block per qubit, ``(B, 4, 4)`` for a map stack."""
        return tuple(np.moveaxis(self._array, -3, 0))

    @property
    def members(self) -> int | None:
        """The member count of a map stack, or None for one map."""
        return len(self._array) if self.is_stack else None


def apply_local_orthogonal(lomap: LocalOrthogonalMap, state):
    """Contract each qubit slot of the Stokes tensor with its affine block.

    One map acts on every member of a state stack; a map stack pairs with
    an equal-length state stack, member by member.
    """
    lomap = _as(LocalOrthogonalMap, lomap)
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
    op = _as(HermitianOperator, rho)
    pair = _check_subset(pair, op.n)
    if len(pair) != 2:
        raise ValueError(f"the relaxed reflection acts on a qubit pair, got {pair}")
    return HermitianOperator((_identity_times_reduction(op, pair) - op.matrix) / 3, op.is_stack)
