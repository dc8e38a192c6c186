"""Seeded randomised invariant suite spanning every layer of the package.

Each invariant is one function of ``(rng, trials)`` that runs all its
trials as stacks: it takes every trial's inputs from ``rng`` at once (one
stack per qubit count, when the count is drawn per trial) before it
computes anything, and returns its checks, each built by ``_within`` from a
``(rows, trials)`` gap array (one row per catalog mask, kernel pair or
other checked quantity) and the bound every gap must stay under.  One driver, ``_run``, reads the checks.  A
result reports ``trials`` as the requested count and ``worst`` as the
largest non-negative gap of the checks that count toward it; the lowest
trial with a gap over its bound (and, within that trial, its first such
check in code order and that check's first such row) fails the invariant,
reports that gap as ``worst`` and serialises that trial's state.  The
library calls take each stack whole: the witnesses give one value per
member, a stack of random reflections pairs with the states member by
member, and :func:`reflections.classify` answers a mask stack in one call.
The images one invariant compares cross the Pauli transform together: a
drawn stack that several masks transform is taken to Stokes values once and
tiled after, the images of two stacks drawn for one check are joined into
one stack, and the joined images take one ``apply_mask`` and one
``from_stokes`` before they are split.  The conversions give a member the
same bits in any stack, so joining moves no bit.  Every mask stack an
invariant applies is built once per qubit count.

Each invariant draws its own deterministic substream from the master seed,
so results are reproducible for a fixed ``(seed, trials)`` pair.  Its
private draw (``_DRAWS``) takes the qubit counts, the states' numbers, the
subset bits, the unitaries and the reflections from the substream in the
order the invariant reads them.  :func:`run_suite` draws for every
invariant first and then builds all random states of the run in one
``states._build_densities`` call, one stack per qubit count and kind.  The
states an invariant reads as Stokes values (``_READ_AS_STOKES``) then take
one shared ``to_stokes`` per qubit count (:func:`_stokes_values`), and each
invariant is given the tensors of its own states.  A member is
bit-identical to its own build and its own transform, so every invariant
gets the inputs, and reports the result, it gets when it runs alone.
Called with a generator alone, an invariant draws, builds and transforms
its own inputs through the same two calls.

It also holds the Hermitian-side operator sums and the reshuffle-related
sign pair: independent oracles for the sign masks of :mod:`reflections`,
which stay the only production path.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import criteria, io, reflections, states, stokes


@dataclass
class InvariantResult:
    name: str
    trials: int
    passed: bool
    worst: float
    detail: str = ""
    counterexample: dict | None = field(default=None)

    def to_dict(self) -> dict:
        """The fields in order, leaving out ``detail`` and ``counterexample`` when they are empty."""
        return {k: v for k, v in asdict(self).items() if k not in ("detail", "counterexample") or v}


class _Check(NamedTuple):
    """One check over the trials ``at``: a ``(rows, trials)`` gap array, its bound, and what a failure reports.

    A row is one checked quantity (a catalog mask, a kernel pair) and holds
    one gap per trial of ``at``.  ``states`` (indexed like ``at``) gives the
    counterexample, or is None.  ``detail`` is one message for every row and
    trial, or a function ``detail(row, j)`` that formats the message of the
    gap at ``row`` and position ``j``: a message that names the row or the
    trial is formatted for the reported failure only.  Only a check that
    ``counts`` enters ``worst``.
    """

    gaps: np.ndarray
    bound: float
    states: object
    detail: str | Callable[[int, int], str]
    at: np.ndarray
    counts: bool


def _within(gaps, bound: float, states, detail, at=None, counts: bool = True) -> _Check:
    """Check ``gaps`` against ``bound``; NaN fails.

    ``gaps`` has one column per trial in ``at`` (default every trial) and one
    row per checked quantity; a flat array is one row.
    """
    gaps = np.atleast_2d(np.asarray(gaps, dtype=float))
    at = np.arange(gaps.shape[1]) if at is None else np.asarray(at)
    return _Check(gaps, bound, states, detail, at, counts)


def _holds(ok, states, detail, at=None) -> _Check:
    """A pass/fail check per row and trial: deviation 0 where ``ok``, else 1 over a bound of 0."""
    return _within(np.where(ok, 0.0, 1.0), 0.0, states, detail, at)


def _row_message(messages, row: int, j: int) -> str:
    """The ``detail`` of a check whose rows carry the messages ``messages``, whatever the trial."""
    return messages[row]


def _run(name: str, invariant, rng, trials: int) -> InvariantResult:
    """Run ``invariant(rng, trials)``; the lowest trial with a gap over its bound fails the invariant.

    Within that trial the first check in code order, and within that check
    its first row with a gap over the bound, gives the report.  A check
    whose gaps all pass is skipped after one comparison; a NaN gap fails it,
    since ``NaN <= bound`` is False.
    """
    checks = invariant(rng, trials)
    failed = None  # (trial, check, row, position in the check) of the earliest gap over its bound
    for check in checks:
        within = check.gaps <= check.bound
        if within.all():
            continue
        over = ~within
        columns = np.flatnonzero(over.any(axis=0))
        j = columns[np.argmin(check.at[columns])]
        if failed is None or check.at[j] < failed[0]:
            failed = check.at[j], check, int(over[:, j].argmax()), j
    if failed is not None:
        _, check, row, j = failed
        detail = check.detail if isinstance(check.detail, str) else check.detail(row, j)
        counterexample = None if check.states is None else io.state_to_dict(check.states[j])
        return InvariantResult(name, trials, False, float(check.gaps[row, j]), detail, counterexample)
    worst = max((float(c.gaps.max()) for c in checks if c.counts and c.gaps.size), default=0.0)
    return InvariantResult(name, trials, True, max(0.0, worst))


_QUBITS_STOP = 4  # drawn qubit counts stop below this: at most three qubits


def _qubit_groups(rng, trials: int, low: int = 1) -> list[tuple[int, np.ndarray]]:
    """Draw every trial's qubit count at once; each count with its trials, in ascending count."""
    counts = rng.integers(low, _QUBITS_STOP, size=trials)
    groups = [(n, np.flatnonzero(counts == n)) for n in range(low, _QUBITS_STOP)]
    return [(n, at) for n, at in groups if at.size]


def _deviation(a, b) -> np.ndarray:
    """Largest entrywise distance per member of two stacks."""
    diff = np.abs(a - b)
    return diff.reshape(len(diff), -1).max(axis=1)


def _random_hermitian(n: int, rng, size: int) -> stokes.HermitianOperator:
    """A stack of trace-one Hermitian operators that need not be positive."""
    dim = 2**n
    z = states._gaussian(rng, (size, dim, dim))
    h = (z + z.conj().swapaxes(-1, -2)) / 2
    h -= (np.trace(h, axis1=1, axis2=2).real - 1.0)[:, None, None] / dim * np.eye(dim)
    # Hermitian by construction, so only the checks a computed value keeps run.
    return stokes.HermitianOperator._built(h, n)


def _unitaries(n: int, rng, size: int) -> np.ndarray:
    return states.random_unitary(2**n, rng, size)


def _hermitian_pair(n: int, rng, size: int) -> tuple[stokes.HermitianOperator, stokes.HermitianOperator]:
    return _random_hermitian(n, rng, size), _random_hermitian(n, rng, size)


def _sign_factors(n: int, rng, size: int) -> np.ndarray:
    """Per member, ``n`` random one-qubit sign vectors whose first sign is 1."""
    factors = rng.choice([-1, 1], size=(size, n, 4)).astype(np.int8)
    factors[:, :, 0] = 1
    return factors


def _subset_bits(n: int, rng, size: int) -> np.ndarray:
    """Per member, a nonempty qubit subset as the bits of ``_bit_subset``."""
    return rng.integers(1, 2**n, size=size)


def _group_draws(rng, trials: int, low: int = 1, mode: str | None = "mixed_dirichlet", then=None):
    """Every trial's qubit count, then per count its stack of ``mode`` states (none for None) and ``then``'s draw.

    A bounded mode caps the spectrum at ``2**(1 - n)``.  Returns the state
    draws and one ``(n, at, then(n, rng, at.size))`` per count (None
    without ``then``).
    """
    draws, groups = [], []
    for n, at in _qubit_groups(rng, trials, low):
        if mode is not None:
            c = 2.0 ** (1 - n) if mode == "bounded_spectrum" else None
            draws.append(states._draw_density(n, mode, rng, c=c, size=at.size))
        groups.append((n, at, None if then is None else then(n, rng, at.size)))
    return draws, groups


def _stack_draws(qubits: tuple[int, ...], rng, trials: int, mode: str = "mixed_dirichlet"):
    """One stack of ``trials`` states per qubit count of ``qubits``, in that order, and nothing else."""
    return [states._draw_density(n, mode, rng, size=trials) for n in qubits], None


def _ccn_draws(rng, trials: int):
    """Two-qubit states, then every tenth trial's separable mixture: term counts, weights and one-qubit factors."""
    rho = states._draw_density(2, "mixed_dirichlet", rng, size=trials)
    at = np.arange(0, trials, 10)
    terms = rng.integers(1, 5, size=at.size)
    weights = np.concatenate([rng.dirichlet(np.ones(t)) for t in terms])
    factors = states._draw_density(1, "mixed_dirichlet", rng, size=2 * weights.size)
    return [rho, factors], (at, terms, weights)


def _reflection_draws(rng, trials: int):
    """Two-qubit states, then one random reflection per state."""
    return [states._draw_density(2, "mixed_dirichlet", rng, size=trials)], states.random_reflection(rng, size=trials)


def _read_as_stokes(name: str, rhos: list) -> list:
    """The built state stacks that invariant ``name`` reads as Stokes values (see ``_READ_AS_STOKES``)."""
    return rhos[_READ_AS_STOKES.get(name, slice(0))]


def _stokes_values(stacks: list[list[stokes.DensityState]]) -> list[list[stokes.StokesTensor]]:
    """The Stokes tensor of every state stack of ``stacks`` (one list per invariant), from one ``to_stokes`` per count.

    The stacks of one qubit count are joined in the order given, and each
    takes back the tensors of its own members.  The transform gives a
    member the same bits in any stack, so each tensor is bit-identical to
    ``to_stokes`` of its stack alone.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, rhos in enumerate(stacks):
        for k, rho in enumerate(rhos):
            groups.setdefault(rho.n, []).append((i, k))
    tensors: list[list] = [[None] * len(rhos) for rhos in stacks]
    for n, members in groups.items():
        joined = np.concatenate([stacks[i][k].matrix for i, k in members])
        values = stokes.to_stokes(stokes.HermitianOperator._built(joined, n))
        start = 0
        for i, k in members:
            stop = start + len(stacks[i][k].matrix)
            tensors[i][k] = values._image(operator.itemgetter(slice(start, stop)))
            start = stop
    return tensors


def _inputs(name: str, rng, trials: int, inputs):
    """The inputs of invariant ``name``: ``inputs`` as :func:`run_suite` built them, else its own draw, built alone.

    An invariant's inputs are its built states, in draw order, the Stokes
    tensors of the states it reads as Stokes values (:func:`_stokes_values`),
    and the rest of its draw (see ``_DRAWS``).
    """
    if inputs is None:
        draws, rest = _DRAWS[name](rng, trials)
        rhos = states._build_densities(draws)
        inputs = rhos, _stokes_values([_read_as_stokes(name, rhos)])[0], rest
    return inputs


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


# The orthonormal basis lambda_j = sigma_j / sqrt(2) of the Stokes values, for the Hermitian-side oracles only.
_LAMBDA = stokes.PAULI / math.sqrt(2.0)


def one_qubit_operator_sum(kind: str, rho) -> stokes.HermitianOperator:
    """Transpose or spin flip of one qubit evaluated on the real unfolding.

    ``transpose`` uses ``sigma' = sigma P0 - sqrt(2) lambda_3 sigma P1`` and
    ``spin_flip`` uses ``sigma' = 2 |0><0| - sigma``; the result must match
    the corresponding sign-mask action.
    """
    op = stokes._as(stokes.HermitianOperator, rho)
    if op.n != 1:
        raise ValueError(f"defined for one qubit, got n={op.n}")
    sigma = stokes.to_real_density(stokes.to_stokes(op)).entries
    if kind == "transpose":
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        flipped = sigma @ p0 - math.sqrt(2.0) * _LAMBDA[3].real @ sigma @ p1
    elif kind == "spin_flip":
        flipped = 2.0 * np.diag([1.0, 0.0]) - sigma
    else:
        raise ValueError(f"kind must be 'transpose' or 'spin_flip', got {kind!r}")
    return stokes.from_stokes(stokes.real_density_to_stokes(stokes.RealDensityMatrix(flipped, op.is_stack)))


# Conjugators of the two-qubit operator sum: (lambda_a (x) 1, 1 (x) lambda_a) per Pauli axis a.
_ONE_BODY_PAIRS = [(np.kron(_LAMBDA[a], np.eye(2)), np.kron(np.eye(2), _LAMBDA[a])) for a in (1, 2, 3)]


def two_body_flip_operator_sum(rho) -> stokes.HermitianOperator:
    """Operator-sum form of the two-body sign flip on two qubits.

    Sums conjugations by ``lambda_a (x) 1`` and ``1 (x) lambda_a`` over the
    three Pauli axes and subtracts half the identity.
    """
    op = stokes._as(stokes.HermitianOperator, rho)
    stokes._two_qubits(op.n, "the two-body flip operator sum")
    m = op.matrix
    acc = np.zeros_like(m)
    for left, right in _ONE_BODY_PAIRS:
        acc = acc + left @ m @ left + right @ m @ right
    return stokes.HermitianOperator(acc - np.eye(4) / 2, op.is_stack)


def spin_flipped_partner(rho) -> stokes.HermitianOperator:
    """Two-qubit double spin flip via conjugation of the complex conjugate."""
    op = stokes._as(stokes.HermitianOperator, rho)
    stokes._two_qubits(op.n, "the spin-flipped partner")
    return stokes.HermitianOperator(criteria._YY @ op.matrix.conj() @ criteria._YY, op.is_stack)


@functools.cache
def _mask_catalog(n: int) -> tuple[reflections.SignMask, ...]:
    masks = [reflections.mask_total_reflection(n)]
    for q in range(1, n + 1):
        masks.append(reflections.mask_partial_transpose(n, (q,)))
        masks.append(reflections.mask_spin_flip(n, (q,)))
    masks.append(reflections.mask_partial_transpose(n, tuple(range(1, n + 1))))
    masks.append(reflections.mask_spin_flip(n, tuple(range(1, n + 1))))
    if n == 2:
        masks.append(reflections.mask_two_body_flip())
        first, second = choi_related_mask_pair()
        masks.append(reflections.SignMask(first.reshape(-1), name="center_block"))
        masks.append(reflections.SignMask(second.reshape(-1), name="antidiagonal"))
    return tuple(masks)


@functools.cache
def _stacked(masks: tuple[reflections.SignMask, ...]) -> reflections.SignMask:
    """Shared masks as one stack of masks, built once per tuple (a named mask is one shared value per subset)."""
    return reflections.SignMask(np.stack([m.signs for m in masks]), stack=True)


def _bit_subset(bits: int, n: int) -> tuple[int, ...]:
    """The qubits of ``bits``: qubit q is in the subset when bit q-1 is set."""
    return tuple(q for q in range(1, n + 1) if bits >> (q - 1) & 1)


@functools.cache
def _subset_masks(n: int) -> reflections.SignMask:
    """The partial transpose, then the total reflection, on every nonempty subset in bitmask order, as one stack.

    The subset of bits ``b`` has the transpose at row ``b - 1`` and the reflection at row ``b - 2 + 2**n``.
    """
    subsets = [_bit_subset(b, n) for b in range(1, 2**n)]
    named = (reflections.mask_partial_transpose, reflections.mask_total_reflection)
    return _stacked(tuple(build(n, subset) for build in named for subset in subsets))


def _every_pair(masks: reflections.SignMask, values, size: int):
    """Every (mask, member) pair of ``size`` members as two equal stacks, mask-major, for one ``apply_mask``.

    One ``from_stokes`` of the images then gives every mask's images of every member, mask by mask.
    """
    m = len(masks.signs)
    return masks[np.repeat(np.arange(m), size)], values[np.tile(np.arange(size), m)]


def _images(masks: tuple[reflections.SignMask, ...], s: stokes.StokesTensor) -> np.ndarray:
    """The matrices of the stack ``s`` under each of ``masks`` from one transform, indexed ``[mask, member]``."""
    size = len(s.values)
    matrices = stokes.from_stokes(reflections.apply_mask(*_every_pair(_stacked(masks), s, size))).matrix
    return matrices.reshape(len(masks), size, *matrices.shape[1:])


def stokes_round_trip(rng, trials, inputs=None):
    rhos, tensors, groups = _inputs("stokes_round_trip", rng, trials, inputs)
    checks = []
    for rho, s, (n, at, _) in zip(rhos, tensors, groups):
        back = stokes.from_stokes(s)
        checks.append(_within(_deviation(back.matrix, rho.matrix), 1e-12, rho, "round trip exceeded its bound", at))
    return checks


def norm_bridge(rng, trials, inputs=None):
    rhos, tensors, groups = _inputs("norm_bridge", rng, trials, inputs)
    checks = []
    for rho, s, (n, at, _) in zip(rhos, tensors, groups):
        sigma = stokes.to_real_density(s).entries
        gap = np.abs(np.linalg.norm(sigma, axis=(1, 2)) / 2 ** (n / 2) - np.linalg.norm(rho.matrix, axis=(1, 2)))
        checks.append(_within(gap, 1e-12, rho, "unfolding changed the norm", at))
    return checks


def one_qubit_spectrum(rng, trials, inputs=None):
    (rho,), (s,), _ = _inputs("one_qubit_spectrum", rng, trials, inputs)
    v = s.values
    radius = np.sqrt((v[:, 1:] ** 2).sum(axis=1))
    closed = (1 / math.sqrt(2)) * (1 / math.sqrt(2) + radius[:, None] * [-1.0, 1.0])
    # rho.spectrum is the ascending eigensolve the state was validated with.
    return [_within(_deviation(rho.spectrum, closed), 1e-12, rho, "closed form disagreed")]


def stokes_matrix_choi(rng, trials, inputs=None):
    (rho,), (s,), _ = _inputs("stokes_matrix_choi", rng, trials, inputs)
    lhs = stokes.choi_reshuffle(stokes.to_real_density(s).entries).swapaxes(-1, -2)
    same = (lhs == stokes.stokes_as_matrix(s)).all(axis=(1, 2))
    return [_holds(same, rho, "reshuffle correspondence broke")]


def mask_involution(rng, trials, corrupt_mask=False, inputs=None):
    rhos, tensors, groups = _inputs("mask_involution", rng, trials, inputs)
    checks = []
    for rho, s, (n, at, _) in zip(rhos, tensors, groups):
        masks, pairs = _every_pair(_stacked(_mask_catalog(n)), s, at.size)
        seconds, suffix = masks, ""
        if corrupt_mask:
            tampered = masks.signs.copy()
            tampered[:, -1] = -tampered[:, -1]
            seconds, suffix = reflections.SignMask(tampered, stack=True), "~corrupt"
        back = reflections.apply_mask(seconds, reflections.apply_mask(masks, pairs))
        same = (back.values == pairs.values).all(axis=1).reshape(-1, at.size)
        messages = [f"{mask.name}{suffix} failed to invert {mask.name}" for mask in _mask_catalog(n)]
        checks.append(_holds(same, rho, functools.partial(_row_message, messages), at))
    return checks


def mask_isometries(rng, trials, inputs=None):
    _, _, groups = _inputs("mask_isometries", rng, trials, inputs)
    checks = []
    for n, at, (a, b) in groups:
        inner = (a.matrix.conj() * b.matrix).sum(axis=(1, 2)).real
        catalog = _mask_catalog(n)
        joined = stokes.HermitianOperator._built(np.concatenate([a.matrix, b.matrix]), n)
        images = _images(catalog, stokes.to_stokes(joined))
        # Each mask's images of a, then of b; each half is mask-major, as the catalog rows of the check are.
        ia, ib = (x.reshape(-1, 2**n, 2**n) for x in (images[:, : at.size], images[:, at.size :]))
        gaps = np.max(
            [
                np.abs(np.trace(ia, axis1=1, axis2=2).real - 1.0),
                _deviation(ia, ia.conj().swapaxes(-1, -2)),
                np.abs((ia.conj() * ib).sum(axis=(1, 2)).real - np.tile(inner, len(catalog))),
            ],
            axis=0,
        )
        detail = functools.partial(_row_message, [f"{mask.name} broke a preserved quantity" for mask in catalog])
        checks.append(_within(gaps.reshape(len(catalog), at.size), 1e-12, a, detail, at))
    return checks


def one_qubit_reflection_spectra(rng, trials, inputs=None):
    (rho,), (s,), _ = _inputs("one_qubit_reflection_spectra", rng, trials, inputs)
    masks = (reflections.mask_partial_transpose(1, (1,)), reflections.mask_spin_flip(1, (1,)))
    # One batched eigensolve of both images; each member's spectrum is the one it gets alone.
    spectra = np.linalg.eigvalsh(_images(masks, s))
    gaps = [_deviation(spectrum, rho.spectrum) for spectrum in spectra]
    return [_within(gaps, 1e-10, rho, functools.partial(_row_message, [m.name for m in masks]))]


def pure_reflection_spectrum(rng, trials, inputs=None):
    (rho,), (s,), _ = _inputs("pure_reflection_spectrum", rng, trials, inputs)
    image = stokes.from_stokes(reflections.apply_mask(reflections.mask_total_reflection(2), s))
    gap = _deviation(np.linalg.eigvalsh(image.matrix), np.array([-0.5, 0.5, 0.5, 0.5]))
    return [_within(gap, 1e-10, rho, "pure-state image spectrum off")]


def reflection_unitary_commutation(rng, trials, inputs=None):
    rhos, _, groups = _inputs("reflection_unitary_commutation", rng, trials, inputs)
    checks = []
    for rho, (n, at, u) in zip(rhos, groups):
        u_dagger = u.conj().swapaxes(-1, -2)
        # The rotated states, then the states: one stack through one reflection.
        joined = stokes.HermitianOperator._built(np.concatenate([u @ rho.matrix @ u_dagger, rho.matrix]), n)
        images = reflections.apply_mask(reflections.mask_total_reflection(n), joined).matrix
        lhs, image = images[: at.size], images[at.size :]
        rhs = u @ image @ u_dagger
        checks.append(_within(_deviation(lhs, rhs), 1e-10, rho, "commutation failed", at))
    return checks


def classification(rng, trials, inputs=None):
    _, _, groups = _inputs("classification", rng, trials, inputs)
    checks = []
    for n, at, factors in groups:
        outer = factors[:, 0].astype(np.int64)
        for q in range(1, n):
            outer = (outer[:, :, None] * factors[:, q, None, :]).reshape(at.size, -1)
        # One classification per group: the total reflection leads the stack of random products.
        total = reflections.mask_total_reflection(n).signs
        info = reflections.classify(reflections.SignMask(np.concatenate([total[None], outer]), stack=True))
        fixed = (
            not info.local_factorizable[0],
            info.orientation[0] == ("changing" if (4**n - 1) % 2 == 1 else "preserving"),
            info.sign_change_count[0] == 4**n - 1,
        )
        per_member = (info.local_factorizable[1:], info.orientation[1:] == "preserving")
        ok = per_member[0] & per_member[1] & all(fixed)
        checks.append(_holds(ok, None, functools.partial(_classification_message, n, per_member, fixed), at))
    return checks


def _classification_message(n: int, per_member, fixed, row: int, j: int) -> str:
    return f"n={n} checks={(*(bool(flag[j]) for flag in per_member), *map(bool, fixed))}"


def operator_sums(rng, trials, inputs=None):
    (one, two), (s_one, s_two), _ = _inputs("operator_sums", rng, trials, inputs)
    transposed, flipped = _images(
        (reflections.mask_partial_transpose(1, (1,)), reflections.mask_spin_flip(1, (1,))), s_one
    )
    two_body, double_flip = _images(
        (reflections.mask_two_body_flip(), reflections.mask_spin_flip(2, (1, 2))), s_two
    )
    ones = [
        (one_qubit_operator_sum("transpose", one), transposed),
        (one_qubit_operator_sum("spin_flip", one), flipped),
    ]
    twos = [
        (two_body_flip_operator_sum(two), two_body),
        (spin_flipped_partner(two), double_flip),
    ]
    return [
        _within([_deviation(lhs.matrix, rhs) for lhs, rhs in pairs], 1e-12, rho, "operator sum and mask disagreed")
        for rho, pairs in ((one, ones), (two, twos))
    ]


def bounded_reflection(rng, trials, inputs=None):
    rhos, _, groups = _inputs("bounded_reflection", rng, trials, inputs)
    checks = []
    for rho, (n, at, _) in zip(rhos, groups):
        witness = np.linalg.eigvalsh(criteria.complement(rho).matrix)[:, 0]
        checks.append(_within(-witness, 1e-10, rho, "reflection left the state cone", at))
    return checks


def feasibility_bounds(rng, trials, inputs=None):
    rhos, _, groups = _inputs("feasibility_bounds", rng, trials, inputs)
    checks = []
    for rho, (n, at, _) in zip(rhos, groups):
        _, flags = criteria.feasibility(rho)
        ok = (
            (~flags["sufficient_max_eig"] | flags["exact_psd"])
            & (~flags["exact_psd"] | flags["purity_bound"])
            & (~flags["exact_psd"] | flags["rank_bound"])
        )
        checks.append(_holds(ok, rho, functools.partial(_chain_message, flags), at))
    return checks


def _chain_message(flags: dict, row: int, j: int) -> str:
    return f"implication chain broke: { {name: bool(flag[j]) for name, flag in flags.items()} }"


def ccn_dual_path(rng, trials, inputs=None):
    (rho, factors), (s,), (at, terms, weights) = _inputs("ccn_dual_path", rng, trials, inputs)
    gap = np.abs(criteria.ccn(rho) - criteria.ccn_via_stokes(s))
    left, right = factors.matrix[0::2], factors.matrix[1::2]
    products = (left[:, :, None, :, None] * right[:, None, :, None, :]).reshape(-1, 4, 4)
    mixes = np.add.reduceat(weights[:, None, None] * products, np.cumsum(terms) - terms)
    mix = stokes.HermitianOperator(mixes, stack=True)
    excess = criteria.ccn(mix) - 1.0
    return [
        _within(gap, 1e-10, rho, "matrix and Stokes routes disagreed"),
        _within(excess, 1e-10, mix, "separable mixture exceeded 1", at, counts=False),
    ]


def reflection_vs_ppt(rng, trials, inputs=None):
    (rho,), (s,), reflected = _inputs("reflection_vs_ppt", rng, trials, inputs)
    lomap = reflections.LocalOrthogonalMap.single_qubit(2, 1, reflected)
    generic = reflections.apply_local_orthogonal(lomap, s).values
    transposed = reflections.apply_mask(reflections.mask_partial_transpose(2, (1,)), s).values
    images = stokes.from_stokes(stokes.StokesTensor._built(np.concatenate([generic, transposed]), 2)).matrix
    # One batched eigensolve of both images; each member's spectrum is the one it gets alone.
    spectra = np.linalg.eigvalsh(images)
    gap = _deviation(spectra[:trials], spectra[trials:])
    return [_within(gap, 1e-9, rho, "generic reflection spectrum diverged")]


def partial_reflection_norm(rng, trials, inputs=None):
    (rho,), (s,), _ = _inputs("partial_reflection_norm", rng, trials, inputs)
    image = reflections.apply_mask(reflections.mask_total_reflection(3, (1, 2)), s)
    gap = np.abs(stokes.purity(image) - stokes.purity(s))
    moved = np.linalg.eigvalsh(stokes.from_stokes(image).matrix)
    return [
        _within(gap, 1e-12, rho, "norm not preserved"),
        # Non-vacuity: a norm-preserving map that left every spectrum alone would pass trivially.
        _holds(_deviation(rho.spectrum, moved) > 1e-6, rho, "no spectrum change observed"),
    ]


def complement_mixture(rng, trials, inputs=None):
    rhos, _, groups = _inputs("complement_mixture", rng, trials, inputs)
    checks = []
    for rho, (n, at, _) in zip(rhos, groups):
        mixed = (rho.matrix + criteria.complement(rho).matrix) / 2
        gap = _deviation(mixed, np.eye(2**n) / 2**n)
        checks.append(_within(gap, 1e-14, rho, "mixture missed the random state", at))
    return checks


def relaxed_reflection(rng, trials, inputs=None):
    (rho,), _, _ = _inputs("relaxed_reflection", rng, trials, inputs)
    relaxed = reflections.relaxed_reflection(rho)
    via_remix = reflections.apply_mask(reflections.mask_total_reflection(2), states.remix(rho, 1.0 / 3.0))
    return [
        _within(-np.linalg.eigvalsh(relaxed.matrix)[:, 0], 1e-10, rho, "relaxed image not positive", counts=False),
        _within(_deviation(relaxed.matrix, via_remix.matrix), 1e-12, rho, "remix identity failed"),
    ]


def concurrence_lorentz(rng, trials, inputs=None):
    (rho,), (s,), _ = _inputs("concurrence_lorentz", rng, trials, inputs)
    partner = spin_flipped_partner(rho).matrix
    direct = np.trace(rho.matrix @ partner, axis1=1, axis2=2).real
    metric = criteria.lorentz_metric(s)
    concurrence = criteria.concurrence(rho)
    return [
        _within(np.abs(metric - direct), 1e-12, rho, "metric routes disagreed"),
        _within(np.negative(concurrence), 0.0, rho, "negative concurrence", counts=False),
    ]


def hermitian_kernels(rng, trials, inputs=None):
    rhos, tensors, groups = _inputs("hermitian_kernels", rng, trials, inputs)
    checks = []
    for rho, s, (n, at, bits) in zip(rhos, tensors, groups):
        # Each member picks its transpose and its reflection from the shared stack: one transform for both images.
        masks = _subset_masks(n)[np.concatenate([bits - 1, bits - 2 + 2**n])]
        images = stokes.from_stokes(reflections.apply_mask(masks, s[np.tile(np.arange(at.size), 2)])).matrix
        transposed, reflected = images[: at.size], images[at.size :]
        # The matrix kernels stay the oracle, one call per distinct subset.
        for b in sorted(set(bits.tolist())):
            subset = _bit_subset(b, n)
            where = np.flatnonzero(bits == b)
            sub = rho[where]
            pairs = (
                (stokes.partial_transpose(sub, subset), transposed[where]),
                (2.0 ** (1 - len(subset)) * stokes.identity_times_reduction(sub, subset) - sub.matrix, reflected[where]),
            )
            gaps = [_deviation(kernel, image) for kernel, image in pairs]
            checks.append(_within(gaps, 1e-12, sub, f"matrix kernel and mask disagreed on {subset}", at[where]))
    return checks


_CHECKS = [
    (fn.__name__, fn)
    for fn in (
        stokes_round_trip,
        norm_bridge,
        one_qubit_spectrum,
        stokes_matrix_choi,
        mask_involution,
        mask_isometries,
        one_qubit_reflection_spectra,
        pure_reflection_spectrum,
        reflection_unitary_commutation,
        classification,
        operator_sums,
        bounded_reflection,
        feasibility_bounds,
        ccn_dual_path,
        reflection_vs_ppt,
        partial_reflection_norm,
        complement_mixture,
        relaxed_reflection,
        concurrence_lorentz,
        hermitian_kernels,
    )
]


# Each invariant's draw: ``draw(rng, trials)`` takes every random input from the invariant's substream, in the order the
# invariant reads them, and returns its state draws (built by ``states._build_densities``) and the rest of its inputs.
_DRAWS = {
    "stokes_round_trip": _group_draws,
    "norm_bridge": _group_draws,
    "one_qubit_spectrum": functools.partial(_stack_draws, (1,)),
    "stokes_matrix_choi": functools.partial(_stack_draws, (2,)),
    "mask_involution": _group_draws,
    "mask_isometries": functools.partial(_group_draws, mode=None, then=_hermitian_pair),
    "one_qubit_reflection_spectra": functools.partial(_stack_draws, (1,)),
    "pure_reflection_spectrum": functools.partial(_stack_draws, (2,), mode="haar_pure"),
    "reflection_unitary_commutation": functools.partial(_group_draws, low=2, then=_unitaries),
    "classification": functools.partial(_group_draws, low=2, mode=None, then=_sign_factors),
    "operator_sums": functools.partial(_stack_draws, (1, 2)),
    "bounded_reflection": functools.partial(_group_draws, low=2, mode="bounded_spectrum"),
    "feasibility_bounds": functools.partial(_group_draws, low=2, mode="bounded_spectrum"),
    "ccn_dual_path": _ccn_draws,
    "reflection_vs_ppt": _reflection_draws,
    "partial_reflection_norm": functools.partial(_stack_draws, (3,)),
    "complement_mixture": _group_draws,
    "relaxed_reflection": functools.partial(_stack_draws, (2,)),
    "concurrence_lorentz": functools.partial(_stack_draws, (2,)),
    "hermitian_kernels": functools.partial(_group_draws, then=_subset_bits),
}

# The state draws each invariant reads as Stokes values, as a slice of its state draws; any other invariant reads
# none.  ccn_dual_path reads its two-qubit states only: its one-qubit factors build a separable mixture.
_READ_AS_STOKES = {
    **dict.fromkeys(
        (
            "stokes_round_trip",
            "norm_bridge",
            "one_qubit_spectrum",
            "stokes_matrix_choi",
            "mask_involution",
            "one_qubit_reflection_spectra",
            "pure_reflection_spectrum",
            "operator_sums",
            "reflection_vs_ppt",
            "partial_reflection_norm",
            "concurrence_lorentz",
            "hermitian_kernels",
        ),
        slice(None),
    ),
    "ccn_dual_path": slice(1),
}


def run_suite(seed: int = 42, trials: int = 500, corrupt_mask: bool = False) -> list[InvariantResult]:
    """Run every invariant with per-check substreams spawned from ``seed``, an integer >= 0.

    The seed and the trial count are checked before anything is drawn, so a
    fixed ``(seed, trials)`` always draws the same states.  Every invariant
    draws from its substream first; then one ``states._build_densities``
    call builds every state of the run, one :func:`_stokes_values` call
    takes every state read as Stokes values through one transform per qubit
    count, and each invariant runs on its built inputs.  A state and its
    tensor get the bits they get when their invariant runs alone.
    """
    trials = stokes._count(trials, "trial counts")
    if (seed := stokes._label(seed, "seeds")) < 0:
        raise ValueError(f"seeds must be at least 0, got {seed}")
    children = np.random.SeedSequence(seed).spawn(len(_CHECKS))
    drawn = [_DRAWS[name](np.random.default_rng(child), trials) for (name, _), child in zip(_CHECKS, children)]
    built = iter(states._build_densities([draw for draws, _ in drawn for draw in draws]))
    rhos = [[next(built) for _ in draws] for draws, _ in drawn]
    tensors = _stokes_values([_read_as_stokes(name, stacks) for (name, _), stacks in zip(_CHECKS, rhos)])
    results = []
    for (name, invariant), stacks, read, (_, rest) in zip(_CHECKS, rhos, tensors, drawn):
        invariant = functools.partial(invariant, inputs=(stacks, read, rest))
        if corrupt_mask and name == "mask_involution":
            invariant = functools.partial(invariant, corrupt_mask=True)
        # An invariant given its inputs draws nothing, so it gets no generator.
        results.append(_run(name, invariant, None, trials))
    return results
