"""Seeded randomised invariant suite spanning every layer of the package.

Each invariant is one function of ``(rng, k)`` that runs trial ``k``: it
draws its inputs from ``rng``, passes every measured gap through ``_within``
with the bound that gap must stay under, and returns its deviation.  One
driver, ``_run``, repeats a trial the requested number of times.  A result
reports ``trials`` as that requested count and ``worst`` as the largest
non-negative deviation returned; the first gap over its bound stops the
invariant, reports that gap as ``worst`` and serialises the offending state.

Each invariant draws its own deterministic substream from the master seed,
so results are reproducible for a fixed ``(seed, trials)`` pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import criteria, io, linalg, reflections, states, stokes


@dataclass
class InvariantResult:
    name: str
    trials: int
    passed: bool
    worst: float
    detail: str = ""
    counterexample: dict | None = field(default=None)

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "trials": self.trials,
            "passed": self.passed,
            "worst": self.worst,
        }
        if self.detail:
            doc["detail"] = self.detail
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        return doc


class _Violation(Exception):
    """A gap over its bound; stops the invariant that measured it."""

    def __init__(self, gap: float, state, detail: str):
        super().__init__(detail)
        self.gap, self.state, self.detail = gap, state, detail


def _within(gap, bound: float, state, detail: str):
    """Return ``gap``, or stop the invariant at ``state`` if it exceeds ``bound`` or is NaN."""
    if not gap <= bound:
        raise _Violation(float(gap), state, detail)
    return gap


def _holds(ok: bool, state, detail: str) -> float:
    """A pass/fail check: deviation 0 when ``ok``, else 1 over a bound of 0."""
    return _within(0.0 if ok else 1.0, 0.0, state, detail)


def _run(name: str, trial, rng, trials: int) -> InvariantResult:
    """Run ``trial(rng, k)`` for ``k < trials``; the first violation fails the invariant."""
    worst = 0.0
    for k in range(trials):
        try:
            worst = max(worst, trial(rng, k))
        except _Violation as v:
            counterexample = None if v.state is None else io.state_to_dict(v.state)
            return InvariantResult(name, trials, False, v.gap, v.detail, counterexample)
    return InvariantResult(name, trials, True, worst)


def _random_hermitian(n: int, rng) -> stokes.HermitianOperator:
    """Trace-one Hermitian operator that need not be positive."""
    dim = 2**n
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (z + z.conj().T) / 2
    h -= (np.trace(h).real - 1.0) / dim * np.eye(dim)
    return stokes.HermitianOperator(h)


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
        first, second = reflections.choi_related_mask_pair()
        masks.append(reflections.SignMask(first.reshape(-1), name="center_block"))
        masks.append(reflections.SignMask(second.reshape(-1), name="antidiagonal"))
    return tuple(masks)


def stokes_round_trip(rng, k):
    n = int(rng.integers(1, 4))
    rho = states.random_density(n, "mixed_dirichlet", rng)
    back = stokes.from_stokes(stokes.to_stokes(rho))
    return _within(float(np.abs(back.matrix - rho.matrix).max()), 1e-12, rho, "round trip exceeded its bound")


def norm_bridge(rng, k):
    n = int(rng.integers(1, 4))
    rho = states.random_density(n, "mixed_dirichlet", rng)
    sigma = stokes.to_real_density(stokes.to_stokes(rho)).entries
    gap = abs(linalg.hs_norm(sigma) / 2 ** (n / 2) - linalg.hs_norm(rho.matrix))
    return _within(gap, 1e-12, rho, "unfolding changed the norm")


def one_qubit_spectrum(rng, k):
    rho = states.random_density(1, "mixed_dirichlet", rng)
    v = stokes.to_stokes(rho).values
    radius = math.sqrt(float(np.dot(v[1:], v[1:])))
    closed = np.sort([(1 / math.sqrt(2)) * (1 / math.sqrt(2) + s * radius) for s in (+1, -1)])[::-1]
    solver = linalg.eig_hermitian(rho).eigenvalues
    return _within(float(np.abs(solver - closed).max()), 1e-12, rho, "closed form disagreed")


def stokes_matrix_choi(rng, k):
    rho = states.random_density(2, "mixed_dirichlet", rng)
    s = stokes.to_stokes(rho)
    lhs = stokes.choi_reshuffle(stokes.to_real_density(s).entries).T
    return _holds(np.array_equal(lhs, stokes.stokes_as_matrix(s)), rho, "reshuffle correspondence broke")


def mask_involution(rng, k, corrupt_mask=False):
    n = int(rng.integers(1, 4))
    rho = states.random_density(n, "mixed_dirichlet", rng)
    s = stokes.to_stokes(rho)
    for mask in _mask_catalog(n):
        second = mask
        if corrupt_mask:
            tampered = mask.signs.copy()
            tampered[-1] = -tampered[-1]
            second = reflections.SignMask(tampered, name=mask.name + "~corrupt")
        back = reflections.apply_mask(second, reflections.apply_mask(mask, s))
        _holds(np.array_equal(back.values, s.values), rho, f"{second.name} failed to invert {mask.name}")
    return 0.0


def mask_isometries(rng, k):
    n = int(rng.integers(1, 4))
    a = _random_hermitian(n, rng)
    b = _random_hermitian(n, rng)
    inner = linalg.hs_inner(a.matrix, b.matrix).real

    def gap(mask):
        ia = reflections.apply_mask(mask, a).matrix
        ib = reflections.apply_mask(mask, b).matrix
        return max(
            abs(np.trace(ia).real - 1.0),
            float(np.abs(ia - ia.conj().T).max()),
            abs(linalg.hs_inner(ia, ib).real - inner),
        )

    return max(_within(gap(m), 1e-12, a, f"{m.name} broke a preserved quantity") for m in _mask_catalog(n))


def one_qubit_reflection_spectra(rng, k):
    rho = states.random_density(1, "mixed_dirichlet", rng)
    base = linalg.eig_hermitian(rho).eigenvalues

    def gap(mask):
        return float(np.abs(linalg.eig_hermitian(reflections.apply_mask(mask, rho)).eigenvalues - base).max())

    masks = (reflections.mask_partial_transpose(1, (1,)), reflections.mask_spin_flip(1, (1,)))
    return max(_within(gap(m), 1e-10, rho, m.name) for m in masks)


def pure_reflection_spectrum(rng, k):
    rho = states.random_density(2, "haar_pure", rng)
    image = reflections.apply_mask(reflections.mask_total_reflection(2), rho)
    gap = float(np.abs(linalg.eig_hermitian(image).eigenvalues - np.array([0.5, 0.5, 0.5, -0.5])).max())
    return _within(gap, 1e-10, rho, "pure-state image spectrum off")


def reflection_unitary_commutation(rng, k):
    n = int(rng.integers(2, 4))
    rho = states.random_density(n, "mixed_dirichlet", rng)
    u = states.random_unitary(2**n, rng)
    mask = reflections.mask_total_reflection(n)
    lhs = reflections.apply_mask(mask, stokes.HermitianOperator(u @ rho.matrix @ u.conj().T)).matrix
    rhs = u @ reflections.apply_mask(mask, rho).matrix @ u.conj().T
    return _within(float(np.abs(lhs - rhs).max()), 1e-10, rho, "commutation failed")


def classification(rng, k):
    n = int(rng.integers(2, 4))
    factors = rng.choice([-1, 1], size=(n, 4)).astype(np.int8)
    factors[:, 0] = 1
    outer = factors[0].astype(np.int64)
    for f in factors[1:]:
        outer = np.multiply.outer(outer, f).reshape(-1)
    info = reflections.classify(reflections.SignMask(outer, name="random_product"))
    total = reflections.classify(reflections.mask_total_reflection(n))
    checks = (
        info.local_factorizable,
        info.orientation == "preserving",
        not total.local_factorizable,
        total.orientation == ("changing" if (4**n - 1) % 2 == 1 else "preserving"),
        total.sign_change_count == 4**n - 1,
    )
    return _holds(all(checks), None, f"n={n} checks={checks}")


def operator_sums(rng, k):
    one = states.random_density(1, "mixed_dirichlet", rng)
    two = states.random_density(2, "mixed_dirichlet", rng)
    pairs = [
        (
            reflections.one_qubit_operator_sum("transpose", one),
            reflections.apply_mask(reflections.mask_partial_transpose(1, (1,)), one),
        ),
        (
            reflections.one_qubit_operator_sum("spin_flip", one),
            reflections.apply_mask(reflections.mask_spin_flip(1, (1,)), one),
        ),
        (
            reflections.two_body_flip_operator_sum(two),
            reflections.apply_mask(reflections.mask_two_body_flip(), two),
        ),
        (
            reflections.spin_flipped_partner(two),
            reflections.apply_mask(reflections.mask_spin_flip(2, (1, 2)), two),
        ),
    ]
    gaps = (float(np.abs(lhs.matrix - rhs.matrix).max()) for lhs, rhs in pairs)
    return max(_within(gap, 1e-12, two, "operator sum and mask disagreed") for gap in gaps)


def bounded_reflection(rng, k):
    n = int(rng.integers(2, 4))
    rho = states.random_density(n, "bounded_spectrum", rng, c=2.0 ** (1 - n))
    witness = linalg.min_eig(criteria.complement(rho).matrix)
    return _within(-witness, 1e-10, rho, "reflection left the state cone")


def feasibility_bounds(rng, k):
    n = int(rng.integers(2, 4))
    rho = states.random_density(n, "bounded_spectrum", rng, c=2.0 ** (1 - n))
    flags = criteria.total_reflection_feasible(rho).extra
    implications = (
        (not flags["sufficient_max_eig"]) or flags["exact_psd"],
        (not flags["exact_psd"]) or flags["purity_bound"],
        (not flags["exact_psd"]) or flags["rank_bound"],
    )
    return _holds(all(implications), rho, f"implication chain broke: {flags}")


def ccn_dual_path(rng, k):
    rho = states.random_density(2, "mixed_dirichlet", rng)
    gap = abs(criteria.ccn(rho) - criteria.ccn_via_stokes(stokes.to_stokes(rho)))
    _within(gap, 1e-10, rho, "matrix and Stokes routes disagreed")
    if k % 10 == 0:
        terms = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(terms))
        mix = np.zeros((4, 4), dtype=complex)
        for w in weights:
            mix += w * np.kron(
                states.random_density(1, "mixed_dirichlet", rng).matrix,
                states.random_density(1, "mixed_dirichlet", rng).matrix,
            )
        mix = stokes.HermitianOperator(mix)
        _within(criteria.ccn(mix) - 1.0, 1e-10, mix, "separable mixture exceeded 1")
    return gap


def reflection_vs_ppt(rng, k):
    rho = states.random_density(2, "mixed_dirichlet", rng)
    lomap = reflections.LocalOrthogonalMap.single_qubit(2, 1, states.random_reflection(rng))
    generic = linalg.eig_hermitian(reflections.apply_local_orthogonal(lomap, rho)).eigenvalues
    transposed = linalg.eig_hermitian(
        reflections.apply_mask(reflections.mask_partial_transpose(2, (1,)), rho)
    ).eigenvalues
    return _within(float(np.abs(generic - transposed).max()), 1e-9, rho, "generic reflection spectrum diverged")


def partial_reflection_norm(rng, k):
    rho = states.random_density(3, "mixed_dirichlet", rng)
    s = stokes.to_stokes(rho)
    image = reflections.apply_mask(reflections.mask_total_reflection(3, (1, 2)), s)
    gap = _within(abs(stokes.purity(image) - stokes.purity(s)), 1e-12, rho, "norm not preserved")
    base = linalg.eig_hermitian(rho).eigenvalues
    moved = linalg.eig_hermitian(stokes.from_stokes(image)).eigenvalues
    # Non-vacuity: a norm-preserving map that left every spectrum alone would pass trivially.
    _holds(np.abs(base - moved).max() > 1e-6, rho, "no spectrum change observed")
    return gap


def complement_mixture(rng, k):
    n = int(rng.integers(1, 4))
    rho = states.random_density(n, "mixed_dirichlet", rng)
    mixed = (rho.matrix + criteria.complement(rho).matrix) / 2
    return _within(float(np.abs(mixed - np.eye(2**n) / 2**n).max()), 1e-14, rho, "mixture missed the random state")


def relaxed_reflection(rng, k):
    rho = states.random_density(2, "mixed_dirichlet", rng)
    relaxed = reflections.relaxed_reflection(rho)
    _within(-linalg.min_eig(relaxed.matrix), 1e-10, rho, "relaxed image not positive")
    via_remix = reflections.apply_mask(reflections.mask_total_reflection(2), states.remix(rho, 1.0 / 3.0))
    return _within(float(np.abs(relaxed.matrix - via_remix.matrix).max()), 1e-12, rho, "remix identity failed")


def concurrence_lorentz(rng, k):
    rho = states.random_density(2, "mixed_dirichlet", rng)
    direct = float(np.trace(rho.matrix @ reflections.spin_flipped_partner(rho).matrix).real)
    gap = _within(abs(criteria.lorentz_metric(stokes.to_stokes(rho)) - direct), 1e-12, rho, "metric routes disagreed")
    _within(-criteria.concurrence(rho), 0.0, rho, "negative concurrence")
    return gap


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
    )
]


def run_suite(seed: int = 42, trials: int = 500, corrupt_mask: bool = False) -> list[InvariantResult]:
    """Run every invariant with per-check substreams spawned from ``seed``."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    children = np.random.SeedSequence(seed).spawn(len(_CHECKS))
    results = []
    for (name, trial), child in zip(_CHECKS, children):
        if corrupt_mask and name == "mask_involution":
            trial = functools.partial(trial, corrupt_mask=True)
        results.append(_run(name, trial, np.random.default_rng(child), trials))
    return results
