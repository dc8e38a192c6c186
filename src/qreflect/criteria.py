"""Separability and reflection-feasibility criteria.

Every test reports its raw spectral witness next to the verdict, so callers
can re-evaluate the decision under a different tolerance.  The numeric
witnesses (:func:`ccn`, :func:`ccn_via_stokes`, :func:`concurrence`,
:func:`lorentz_metric` and the spectrum kernel :func:`feasibility`) answer
with a float for one state and an array of one value per member for a stack,
which costs one batched solve.  A report is about one state, so each report refuses
a stack itself, before any kernel runs; :func:`complement` maps a stack
member by member.

The verdict tolerance has one rule, :func:`_verdict_tolerance`: a finite float
or int >= 0, not a bool.  Every report and :func:`feasibility` apply it on
entry, before any solve, and so does the command line to ``QREFLECT_TOL``.

The kernel witnesses solve their images straight from the operator's
checked matrix.  :func:`reflection_report` and :func:`reduction_criterion`
share one memoised lift solve per (operator, subset, scale), so for one
qubit, where both read the same image, the pair costs one eigensolve.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import _eigenvalues, _lowest_eig
from .stokes import (
    PAULI,
    HermitianOperator,
    PSD_TOL,
    StokesTensor,
    _as_operator,
    _float_or_array,
    _nonempty_subset,
    _regroup,
    _single,
    identity_times_reduction,
    partial_transpose,
    stokes_as_matrix,
)

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    verdict: str  # separable-consistent | entangled | feasible | infeasible
    witness: float
    subset: tuple[int, ...] | None
    tolerance: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "witness": self.witness,
            "subset": list(self.subset) if self.subset is not None else None,
            "tolerance": self.tolerance,
            **({"extra": self.extra} if self.extra else {}),
        }


def _verdict_tolerance(tol) -> float:
    """A verdict tolerance as a float; a bool, NaN, infinity, a negative number or a non-number is an error."""
    if isinstance(tol, bool) or not isinstance(tol, (float, int, np.floating, np.integer)) or not 0 <= tol <= _FLOAT_MAX:
        raise ValueError(f"tolerances must be finite numbers >= 0, got {tol!r}")
    return float(tol)


def _entry(rho, tol) -> tuple[HermitianOperator, float]:
    """The one checked operator and the checked tolerance a report starts from, the cheap check first."""
    tol = _verdict_tolerance(tol)
    return _single(_as_operator(rho)), tol


def _proper_subset(subset, n: int) -> tuple[int, ...]:
    subset = _nonempty_subset(subset, n)
    if len(subset) >= n:
        raise ValueError(f"need a proper subset of 1..{n}, got {subset}")
    return subset


def ppt_test(rho, subset, tol: float = PSD_TOL) -> CriterionReport:
    """Partial-transpose positivity across the given qubit subset.

    Exact for two qubits; for more qubits a negative witness still certifies
    entanglement across the cut.  The witness is the smallest eigenvalue of
    the axis-swap :func:`partial_transpose`; the sign mask
    ``mask_partial_transpose`` defines the same image and is its test oracle.
    """
    op, tol = _entry(rho, tol)
    subset = _proper_subset(subset, op.n)
    witness = _lowest_eig(partial_transpose(op, subset))
    verdict = "entangled" if witness < -tol else "separable-consistent"
    return CriterionReport("ppt", verdict, witness, subset, tol)


def _ccn_block(n: int, block) -> tuple[int, ...]:
    """The checked left block of a cut; ``None`` is the first half."""
    if block is None and n % 2 != 0:
        raise ValueError(f"the first-half cut needs an even qubit count, got n={n}")
    return _proper_subset(range(1, n // 2 + 1) if block is None else block, n)


def ccn(rho, block=None):
    """Trace norm of the realigned matrix across a bipartition: a float, or one per member of a stack.

    ``block`` lists the qubits of the left factor (default: the first half).
    The realignment is one regroup of the checked matrix, rows indexed by the
    block's (row, column) bits and columns by the rest's; on square cuts it has
    the singular values of the reshuffling map :func:`choi_reshuffle`.
    """
    op = _as_operator(rho)
    return _ccn(op, _ccn_block(op.n, block))


def _ccn(op: HermitianOperator, block: tuple[int, ...]):
    """:func:`ccn` of a checked operator (or stack) across a checked block."""
    n = op.n
    rest = [q for q in range(1, n + 1) if q not in block]
    order = [q - 1 + n * col for part in (block, rest) for col in (0, 1) for q in part]
    realigned = _regroup(op.matrix, n, order, (4 ** len(block), 4 ** len(rest)))
    return _float_or_array(np.linalg.svd(realigned, compute_uv=False).sum(axis=-1))


def ccn_via_stokes(s: StokesTensor):
    """Two-qubit cross norm as half the trace norm of the Stokes matrix: a float, or one per member of a stack."""
    return _float_or_array(np.linalg.svd(stokes_as_matrix(s), compute_uv=False).sum(axis=-1) / 2.0)


def ccn_report(rho, block=None, tol: float = PSD_TOL) -> CriterionReport:
    """:func:`ccn` with its verdict; the report names the checked block the value was measured on."""
    op, tol = _entry(rho, tol)
    block = _ccn_block(op.n, block)
    value = _ccn(op, block)
    verdict = "entangled" if value > 1.0 + tol else "separable-consistent"
    return CriterionReport("ccn", verdict, value, block, tol)


_YY = np.kron(PAULI[2], PAULI[2])


def concurrence(rho):
    """Two-qubit concurrence from the singular values of ``sqrt(rho) YY sqrt(rho)*``: a float, or one per member.

    With ``YY = sigma_y (x) sigma_y`` these are the square roots of the
    eigenvalues of ``rho rho'`` without the square root's amplification of
    rounding error.  ``eigh`` answers ascending; the eigenpairs are reversed
    so the square root sums them in descending order, which fixes the
    value's rounding bit for bit.
    """
    op = _as_operator(rho)
    if op.n != 2:
        raise ValueError(f"concurrence is defined for two qubits, got n={op.n}")
    values, vecs = np.linalg.eigh(op.matrix)
    values, vecs = values[..., ::-1].copy(), vecs[..., ::-1].copy()
    root = (vecs * np.sqrt(np.clip(values, 0.0, None))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    nu = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    value = nu[..., 0] - nu[..., 1] - nu[..., 2] - nu[..., 3]
    return _float_or_array(np.where(value > 0.0, value, 0.0))


def concurrence_report(rho, tol: float = PSD_TOL) -> CriterionReport:
    op, tol = _entry(rho, tol)
    value = concurrence(op)
    verdict = "entangled" if value > tol else "separable-consistent"
    return CriterionReport("concurrence", verdict, value, None, tol)


def lorentz_metric(s: StokesTensor):
    """Quadratic invariant ``tr(rho rho')`` evaluated on Stokes components: a float, or one per member."""
    if s.n != 2:
        raise ValueError(f"defined for two qubits, got n={s.n}")
    v = s.values.reshape(*s.values.shape[:-1], 4, 4)
    time_like = v[..., 0, 0] ** 2 - np.sum(v[..., 0, 1:] ** 2, axis=-1) - np.sum(v[..., 1:, 0] ** 2, axis=-1)
    return _float_or_array(time_like + np.sum(v[..., 1:, 1:] ** 2, axis=(-2, -1)))


def reduction_criterion(rho, traced, tol: float = PSD_TOL) -> CriterionReport:
    """Positivity of ``identity on traced qubits (x) reduced state - rho``.

    A necessary condition for separability; the comparison operator has
    trace ``2**len(traced) - 1`` and so is not itself a state.  The lift is
    ``2**(|S|-1) (rho + R_S rho)`` (``R_S``: partial reflection on ``S``), so
    for one traced qubit the comparison operator is ``R_S rho`` itself.
    """
    op, tol = _entry(rho, tol)
    traced = _proper_subset(traced, op.n)
    witness, image = _lift_witness(op, traced, 1.0)
    verdict = "entangled" if witness < -tol else "separable-consistent"
    return CriterionReport("reduction", verdict, witness, traced, tol, {"trace": float(np.trace(image).real)})


@functools.lru_cache(maxsize=8)
def _lift_witness(op: HermitianOperator, subset: tuple[int, ...], scale: float) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue of ``scale * identity_times_reduction(op, subset) - op.matrix``, and that image.

    A checked operator is immutable and hashes by identity, so each
    (operator, subset, scale) is solved once; the cache is small because
    one state's criteria run back to back.
    """
    image = scale * identity_times_reduction(op, subset) - op.matrix
    return _lowest_eig(image), image


def complement(rho) -> HermitianOperator:
    """Total reflection ``2**(1-n) identity - rho``; mixes with the input to
    the maximally mixed state."""
    op = _as_operator(rho)
    dim = 2**op.n
    return HermitianOperator((2.0 / dim) * np.eye(dim) - op.matrix, op.is_stack)


def feasibility(spectrum, tol: float = PSD_TOL) -> tuple:
    """Total-reflection witness and flags of ascending spectra: ``(witness, flags)``.

    ``spectrum`` holds the ascending eigenvalues ``lambda`` of one operator
    on ``n`` qubits (``2**n`` of them), or one such row per member of a
    stack, such as ``DensityState.spectrum``.  The reflected spectrum is
    ``2**(1-n) - lambda``, so the witness is ``2**(1-n) - max(lambda)`` and
    the largest-eigenvalue test is exact: ``sufficient_max_eig`` and
    ``exact_psd`` agree by construction (both names stay in the schema).
    The necessary bounds are ``tr(rho**2) <= 2**(1-n)`` and
    ``rank >= 2**(n-1)``; the rank counts eigenvalues above ``PSD_TOL``, the
    numerical zero of the load check, so the verdict tolerance ``tol`` does
    not move it.  One spectrum gives a float and bools, a stack one array
    per name.
    """
    return _feasibility(np.asarray(spectrum), _verdict_tolerance(tol))


def _feasibility(spectrum: np.ndarray, tol: float) -> tuple:
    """:func:`feasibility` of ascending spectra at a checked tolerance."""
    dim = spectrum.shape[-1]
    bound = 2.0 / dim
    # .T puts the eigenvalue axis first, so .T[k] is entry k of one spectrum or of every member.
    witness = bound - spectrum.T[-1]
    reflectable = witness >= -tol
    # A plain reduction and an in-place sort keep one spectrum as cheap as the scalar code was.
    purity_bound = np.add.reduce(spectrum * spectrum, -1) <= bound + 1e-12
    # At least dim/2 magnitudes exceed PSD_TOL exactly when the (dim/2)-th largest does.
    magnitudes = np.abs(spectrum)
    magnitudes.sort()
    rank_bound = magnitudes.T[dim // 2] > PSD_TOL
    if not witness.ndim:
        witness, reflectable = float(witness), bool(reflectable)
        purity_bound, rank_bound = bool(purity_bound), bool(rank_bound)
    flags = {
        "sufficient_max_eig": reflectable,
        "exact_psd": reflectable,
        "purity_bound": purity_bound,
        "rank_bound": rank_bound,
    }
    return witness, flags


def total_reflection_feasible(rho, tol: float = PSD_TOL) -> CriterionReport:
    """Whether the total reflection ``2**(1-n) identity - rho`` is a state.

    All flags come from one spectrum of ``rho`` through the kernel of :func:`feasibility`.
    """
    op, tol = _entry(rho, tol)
    witness, flags = _feasibility(_eigenvalues(op), tol)
    verdict = "feasible" if flags["exact_psd"] else "infeasible"
    return CriterionReport("total-reflection", verdict, witness, None, tol, flags)


def reflection_report(rho, subset, tol: float = PSD_TOL) -> CriterionReport:
    """Positivity of the (possibly partial) reflection across ``subset``.

    The image is ``R_S rho = 2**(1-|S|) lift - rho`` with the lift of
    :func:`identity_times_reduction`; the full set gives the complement
    ``2**(1-n) identity - rho``.  The sign mask ``mask_total_reflection``
    defines the same image and is its test oracle.  For one qubit the image
    is the comparison operator of :func:`reduction_criterion`, so the two
    witnesses are equal and come from one solve.
    """
    op, tol = _entry(rho, tol)
    subset = _nonempty_subset(subset, op.n)
    witness, _ = _lift_witness(op, subset, 2.0 ** (1 - len(subset)))
    verdict = "feasible" if witness >= -tol else "infeasible"
    return CriterionReport("reflection", verdict, witness, subset, tol)
