"""Seeded randomised invariant suite spanning every layer of the package.

Each invariant is one function of ``(rng, trials)`` that runs all its
trials as stacks: it draws every trial's inputs from ``rng`` at once (one
stack per qubit count, when the count is drawn per trial), and returns its
checks, each built by ``_within`` from one gap per trial and the bound that
gap must stay under.  One driver, ``_run``, reads the checks.  A result
reports ``trials`` as the requested count and ``worst`` as the largest
non-negative gap of the checks that count toward it; the lowest trial with
a gap over its bound (and, within that trial, its first such check in code
order) fails the invariant, reports that gap as ``worst`` and serialises
that trial's state.  The library calls take each stack whole: the
witnesses give one value per member, and a stack of random reflections
pairs with the states member by member.  Only :func:`reflections.classify`,
which reads one mask, is called once per member.

Each invariant draws its own deterministic substream from the master seed,
so results are reproducible for a fixed ``(seed, trials)`` pair.

It also holds the Hermitian-side operator sums and the reshuffle-related
sign pair: independent oracles for the sign masks of :mod:`reflections`,
which stay the only production path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

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


@dataclass(frozen=True)
class _Check:
    """One check over the trials ``at``: a gap per trial, its bound, and what a failure reports.

    ``states`` (indexed like ``gaps``) gives the counterexample, or is None;
    ``detail`` is one message or one per trial.  Only a check that
    ``counts`` enters ``worst``.
    """

    gaps: np.ndarray
    bound: float
    states: object
    detail: str | list[str]
    at: np.ndarray
    counts: bool


def _within(gaps, bound: float, states, detail, at=None, counts: bool = True) -> _Check:
    """Check ``gaps`` (one per trial in ``at``, default every trial) against ``bound``; NaN fails."""
    gaps = np.asarray(gaps, dtype=float)
    at = np.arange(gaps.size) if at is None else np.asarray(at)
    return _Check(gaps, bound, states, detail, at, counts)


def _holds(ok, states, detail, at=None) -> _Check:
    """A pass/fail check per trial: deviation 0 where ``ok``, else 1 over a bound of 0."""
    return _within(np.where(ok, 0.0, 1.0), 0.0, states, detail, at)


def _run(name: str, invariant, rng, trials: int) -> InvariantResult:
    """Run ``invariant(rng, trials)``; the lowest trial with a gap over its bound fails the invariant."""
    checks = invariant(rng, trials)
    failed = None  # (trial, check, position in the check) of the earliest gap over its bound
    for check in checks:
        over = np.flatnonzero(~(check.gaps <= check.bound))
        if over.size:
            j = over[np.argmin(check.at[over])]
            if failed is None or check.at[j] < failed[0]:
                failed = check.at[j], check, j
    if failed is not None:
        _, check, j = failed
        detail = check.detail if isinstance(check.detail, str) else check.detail[j]
        counterexample = None if check.states is None else io.state_to_dict(check.states[j])
        return InvariantResult(name, trials, False, float(check.gaps[j]), detail, counterexample)
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
    z = rng.standard_normal((size, dim, dim)) + 1j * rng.standard_normal((size, dim, dim))
    h = (z + z.conj().swapaxes(-1, -2)) / 2
    h -= (np.trace(h, axis1=1, axis2=2).real - 1.0)[:, None, None] / dim * np.eye(dim)
    return stokes.HermitianOperator(h, stack=True)


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
        flipped = sigma @ p0 - math.sqrt(2.0) * stokes.LAMBDA[3].real @ sigma @ p1
    elif kind == "spin_flip":
        flipped = 2.0 * np.diag([1.0, 0.0]) - sigma
    else:
        raise ValueError(f"kind must be 'transpose' or 'spin_flip', got {kind!r}")
    return stokes.from_stokes(stokes.real_density_to_stokes(stokes.RealDensityMatrix(flipped, op.is_stack)))


# Conjugators of the two-qubit operator sum: (lambda_a (x) 1, 1 (x) lambda_a) per Pauli axis a.
_ONE_BODY_PAIRS = [(np.kron(stokes.LAMBDA[a], np.eye(2)), np.kron(np.eye(2), stokes.LAMBDA[a])) for a in (1, 2, 3)]


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
def _catalog_stack(n: int) -> reflections.SignMask:
    """The catalog as one stack of masks."""
    return reflections.SignMask(np.stack([m.signs for m in _mask_catalog(n)]), stack=True)


def _every_pair(masks: reflections.SignMask, values, size: int):
    """Every (mask, member) pair of ``size`` members as two equal stacks, mask-major, for one ``apply_mask``."""
    m = len(masks.signs)
    return masks[np.repeat(np.arange(m), size)], values[np.tile(np.arange(size), m)]


def stokes_round_trip(rng, trials):
    checks = []
    for n, at in _qubit_groups(rng, trials):
        rho = states.random_density(n, "mixed_dirichlet", rng, size=at.size)
        back = stokes.from_stokes(stokes.to_stokes(rho))
        checks.append(_within(_deviation(back.matrix, rho.matrix), 1e-12, rho, "round trip exceeded its bound", at))
    return checks


def norm_bridge(rng, trials):
    checks = []
    for n, at in _qubit_groups(rng, trials):
        rho = states.random_density(n, "mixed_dirichlet", rng, size=at.size)
        sigma = stokes.to_real_density(stokes.to_stokes(rho)).entries
        gap = np.abs(np.linalg.norm(sigma, axis=(1, 2)) / 2 ** (n / 2) - np.linalg.norm(rho.matrix, axis=(1, 2)))
        checks.append(_within(gap, 1e-12, rho, "unfolding changed the norm", at))
    return checks


def one_qubit_spectrum(rng, trials):
    rho = states.random_density(1, "mixed_dirichlet", rng, size=trials)
    v = stokes.to_stokes(rho).values
    radius = np.sqrt((v[:, 1:] ** 2).sum(axis=1))
    closed = (1 / math.sqrt(2)) * (1 / math.sqrt(2) + radius[:, None] * [-1.0, 1.0])
    # rho.spectrum is the ascending eigensolve the state was validated with.
    return [_within(_deviation(rho.spectrum, closed), 1e-12, rho, "closed form disagreed")]


def stokes_matrix_choi(rng, trials):
    rho = states.random_density(2, "mixed_dirichlet", rng, size=trials)
    s = stokes.to_stokes(rho)
    lhs = stokes.choi_reshuffle(stokes.to_real_density(s).entries).swapaxes(-1, -2)
    same = (lhs == stokes.stokes_as_matrix(s)).all(axis=(1, 2))
    return [_holds(same, rho, "reshuffle correspondence broke")]


def mask_involution(rng, trials, corrupt_mask=False):
    checks = []
    for n, at in _qubit_groups(rng, trials):
        rho = states.random_density(n, "mixed_dirichlet", rng, size=at.size)
        masks, pairs = _every_pair(_catalog_stack(n), stokes.to_stokes(rho), at.size)
        seconds, suffix = masks, ""
        if corrupt_mask:
            tampered = masks.signs.copy()
            tampered[:, -1] = -tampered[:, -1]
            seconds, suffix = reflections.SignMask(tampered, stack=True), "~corrupt"
        back = reflections.apply_mask(seconds, reflections.apply_mask(masks, pairs))
        same = (back.values == pairs.values).all(axis=1).reshape(-1, at.size)
        for mask, ok in zip(_mask_catalog(n), same):
            checks.append(_holds(ok, rho, f"{mask.name}{suffix} failed to invert {mask.name}", at))
    return checks


def mask_isometries(rng, trials):
    checks = []
    for n, at in _qubit_groups(rng, trials):
        a = _random_hermitian(n, rng, at.size)
        b = _random_hermitian(n, rng, at.size)
        inner = (a.matrix.conj() * b.matrix).sum(axis=(1, 2)).real
        ia = reflections.apply_mask(*_every_pair(_catalog_stack(n), a, at.size)).matrix
        ib = reflections.apply_mask(*_every_pair(_catalog_stack(n), b, at.size)).matrix
        catalog = _mask_catalog(n)
        gaps = np.max(
            [
                np.abs(np.trace(ia, axis1=1, axis2=2).real - 1.0),
                _deviation(ia, ia.conj().swapaxes(-1, -2)),
                np.abs((ia.conj() * ib).sum(axis=(1, 2)).real - np.tile(inner, len(catalog))),
            ],
            axis=0,
        )
        for mask, gap in zip(catalog, gaps.reshape(len(catalog), at.size)):
            checks.append(_within(gap, 1e-12, a, f"{mask.name} broke a preserved quantity", at))
    return checks


def one_qubit_reflection_spectra(rng, trials):
    rho = states.random_density(1, "mixed_dirichlet", rng, size=trials)
    masks = (reflections.mask_partial_transpose(1, (1,)), reflections.mask_spin_flip(1, (1,)))
    return [
        _within(_deviation(np.linalg.eigvalsh(reflections.apply_mask(m, rho).matrix), rho.spectrum), 1e-10, rho, m.name)
        for m in masks
    ]


def pure_reflection_spectrum(rng, trials):
    rho = states.random_density(2, "haar_pure", rng, size=trials)
    image = reflections.apply_mask(reflections.mask_total_reflection(2), rho)
    gap = _deviation(np.linalg.eigvalsh(image.matrix), np.array([-0.5, 0.5, 0.5, 0.5]))
    return [_within(gap, 1e-10, rho, "pure-state image spectrum off")]


def reflection_unitary_commutation(rng, trials):
    checks = []
    for n, at in _qubit_groups(rng, trials, 2):
        rho = states.random_density(n, "mixed_dirichlet", rng, size=at.size)
        u = states.random_unitary(2**n, rng, at.size)
        u_dagger = u.conj().swapaxes(-1, -2)
        mask = reflections.mask_total_reflection(n)
        rotated = stokes.HermitianOperator(u @ rho.matrix @ u_dagger, stack=True)
        lhs = reflections.apply_mask(mask, rotated).matrix
        rhs = u @ reflections.apply_mask(mask, rho).matrix @ u_dagger
        checks.append(_within(_deviation(lhs, rhs), 1e-10, rho, "commutation failed", at))
    return checks


def classification(rng, trials):
    checks = []
    for n, at in _qubit_groups(rng, trials, 2):
        factors = rng.choice([-1, 1], size=(at.size, n, 4)).astype(np.int8)
        factors[:, :, 0] = 1
        outer = factors[:, 0].astype(np.int64)
        for q in range(1, n):
            outer = (outer[:, :, None] * factors[:, q, None, :]).reshape(at.size, -1)
        products = reflections.SignMask(outer, name="random_product", stack=True)
        total = reflections.classify(reflections.mask_total_reflection(n))
        ok, details = [], []
        for k in range(at.size):
            info = reflections.classify(products[k])
            flags = (
                info.local_factorizable,
                info.orientation == "preserving",
                not total.local_factorizable,
                total.orientation == ("changing" if (4**n - 1) % 2 == 1 else "preserving"),
                total.sign_change_count == 4**n - 1,
            )
            ok.append(all(flags))
            details.append(f"n={n} checks={flags}")
        checks.append(_holds(ok, None, details, at))
    return checks


def operator_sums(rng, trials):
    one = states.random_density(1, "mixed_dirichlet", rng, size=trials)
    two = states.random_density(2, "mixed_dirichlet", rng, size=trials)
    pairs = [
        (
            one_qubit_operator_sum("transpose", one),
            reflections.apply_mask(reflections.mask_partial_transpose(1, (1,)), one),
        ),
        (
            one_qubit_operator_sum("spin_flip", one),
            reflections.apply_mask(reflections.mask_spin_flip(1, (1,)), one),
        ),
        (
            two_body_flip_operator_sum(two),
            reflections.apply_mask(reflections.mask_two_body_flip(), two),
        ),
        (
            spin_flipped_partner(two),
            reflections.apply_mask(reflections.mask_spin_flip(2, (1, 2)), two),
        ),
    ]
    return [
        _within(_deviation(lhs.matrix, rhs.matrix), 1e-12, two, "operator sum and mask disagreed") for lhs, rhs in pairs
    ]


def bounded_reflection(rng, trials):
    checks = []
    for n, at in _qubit_groups(rng, trials, 2):
        rho = states.random_density(n, "bounded_spectrum", rng, c=2.0 ** (1 - n), size=at.size)
        witness = np.linalg.eigvalsh(criteria.complement(rho).matrix)[:, 0]
        checks.append(_within(-witness, 1e-10, rho, "reflection left the state cone", at))
    return checks


def feasibility_bounds(rng, trials):
    checks = []
    for n, at in _qubit_groups(rng, trials, 2):
        rho = states.random_density(n, "bounded_spectrum", rng, c=2.0 ** (1 - n), size=at.size)
        _, flags = criteria.feasibility(rho)
        ok = (
            (~flags["sufficient_max_eig"] | flags["exact_psd"])
            & (~flags["exact_psd"] | flags["purity_bound"])
            & (~flags["exact_psd"] | flags["rank_bound"])
        )
        # Only a failing trial's message is ever read.
        details = [""] * at.size
        for k in np.flatnonzero(~ok):
            details[k] = f"implication chain broke: { {name: bool(flag[k]) for name, flag in flags.items()} }"
        checks.append(_holds(ok, rho, details, at))
    return checks


def ccn_dual_path(rng, trials):
    rho = states.random_density(2, "mixed_dirichlet", rng, size=trials)
    s = stokes.to_stokes(rho)
    gap = np.abs(criteria.ccn(rho) - criteria.ccn_via_stokes(s))
    # Every tenth trial also checks a random separable mixture.
    at = np.arange(0, trials, 10)
    terms = rng.integers(1, 5, size=at.size)
    weights = np.concatenate([rng.dirichlet(np.ones(t)) for t in terms])
    factors = states.random_density(1, "mixed_dirichlet", rng, size=2 * weights.size).matrix
    left, right = factors[0::2], factors[1::2]
    products = (left[:, :, None, :, None] * right[:, None, :, None, :]).reshape(-1, 4, 4)
    mixes = np.add.reduceat(weights[:, None, None] * products, np.cumsum(terms) - terms)
    mix = stokes.HermitianOperator(mixes, stack=True)
    excess = criteria.ccn(mix) - 1.0
    return [
        _within(gap, 1e-10, rho, "matrix and Stokes routes disagreed"),
        _within(excess, 1e-10, mix, "separable mixture exceeded 1", at, counts=False),
    ]


def reflection_vs_ppt(rng, trials):
    rho = states.random_density(2, "mixed_dirichlet", rng, size=trials)
    lomap = reflections.LocalOrthogonalMap.single_qubit(2, 1, states.random_reflection(rng, size=trials))
    generic = reflections.apply_local_orthogonal(lomap, rho).matrix
    transposed = reflections.apply_mask(reflections.mask_partial_transpose(2, (1,)), rho).matrix
    gap = _deviation(np.linalg.eigvalsh(generic), np.linalg.eigvalsh(transposed))
    return [_within(gap, 1e-9, rho, "generic reflection spectrum diverged")]


def partial_reflection_norm(rng, trials):
    rho = states.random_density(3, "mixed_dirichlet", rng, size=trials)
    s = stokes.to_stokes(rho)
    image = reflections.apply_mask(reflections.mask_total_reflection(3, (1, 2)), s)
    gap = np.abs(stokes.purity(image) - stokes.purity(s))
    moved = np.linalg.eigvalsh(stokes.from_stokes(image).matrix)
    return [
        _within(gap, 1e-12, rho, "norm not preserved"),
        # Non-vacuity: a norm-preserving map that left every spectrum alone would pass trivially.
        _holds(_deviation(rho.spectrum, moved) > 1e-6, rho, "no spectrum change observed"),
    ]


def complement_mixture(rng, trials):
    checks = []
    for n, at in _qubit_groups(rng, trials):
        rho = states.random_density(n, "mixed_dirichlet", rng, size=at.size)
        mixed = (rho.matrix + criteria.complement(rho).matrix) / 2
        gap = _deviation(mixed, np.eye(2**n) / 2**n)
        checks.append(_within(gap, 1e-14, rho, "mixture missed the random state", at))
    return checks


def relaxed_reflection(rng, trials):
    rho = states.random_density(2, "mixed_dirichlet", rng, size=trials)
    relaxed = reflections.relaxed_reflection(rho)
    via_remix = reflections.apply_mask(reflections.mask_total_reflection(2), states.remix(rho, 1.0 / 3.0))
    return [
        _within(-np.linalg.eigvalsh(relaxed.matrix)[:, 0], 1e-10, rho, "relaxed image not positive", counts=False),
        _within(_deviation(relaxed.matrix, via_remix.matrix), 1e-12, rho, "remix identity failed"),
    ]


def concurrence_lorentz(rng, trials):
    rho = states.random_density(2, "mixed_dirichlet", rng, size=trials)
    partner = spin_flipped_partner(rho).matrix
    direct = np.trace(rho.matrix @ partner, axis1=1, axis2=2).real
    s = stokes.to_stokes(rho)
    metric = criteria.lorentz_metric(s)
    concurrence = criteria.concurrence(rho)
    return [
        _within(np.abs(metric - direct), 1e-12, rho, "metric routes disagreed"),
        _within(np.negative(concurrence), 0.0, rho, "negative concurrence", counts=False),
    ]


def hermitian_kernels(rng, trials):
    checks = []
    for n, at in _qubit_groups(rng, trials):
        rho = states.random_density(n, "mixed_dirichlet", rng, size=at.size)
        bits = rng.integers(1, 2**n, size=at.size)
        distinct, which = np.unique(bits, return_inverse=True)
        subsets = {b: tuple(q for q in range(1, n + 1) if b >> (q - 1) & 1) for b in distinct.tolist()}
        # One checked mask per distinct subset, indexed by each member's subset: one transform for the whole stack.
        named = (reflections.mask_partial_transpose, reflections.mask_total_reflection)
        masks = [reflections.SignMask([build(n, s).signs for s in subsets.values()], stack=True) for build in named]
        transposed, reflected = (reflections.apply_mask(m[which], rho).matrix for m in masks)
        for b, subset in subsets.items():
            where = np.flatnonzero(bits == b)
            sub = rho[where]
            pairs = (
                (stokes.partial_transpose(sub, subset), transposed[where]),
                (2.0 ** (1 - len(subset)) * stokes.identity_times_reduction(sub, subset) - sub.matrix, reflected[where]),
            )
            detail = f"matrix kernel and mask disagreed on {subset}"
            checks += [_within(_deviation(kernel, image), 1e-12, sub, detail, at[where]) for kernel, image in pairs]
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


def run_suite(seed: int = 42, trials: int = 500, corrupt_mask: bool = False) -> list[InvariantResult]:
    """Run every invariant with per-check substreams spawned from ``seed``, an integer >= 0.

    The seed and the trial count are checked before anything is drawn, so a
    fixed ``(seed, trials)`` always draws the same states.
    """
    trials = stokes._count(trials, "trial counts")
    if (seed := stokes._label(seed, "seeds")) < 0:
        raise ValueError(f"seeds must be at least 0, got {seed}")
    children = np.random.SeedSequence(seed).spawn(len(_CHECKS))
    results = []
    for (name, invariant), child in zip(_CHECKS, children):
        if corrupt_mask and name == "mask_involution":
            invariant = functools.partial(invariant, corrupt_mask=True)
        results.append(_run(name, invariant, np.random.default_rng(child), trials))
    return results
