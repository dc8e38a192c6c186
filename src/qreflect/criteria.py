"""Separability and reflection-feasibility criteria.

Every test reports its raw spectral witness next to the verdict, so callers
can re-evaluate the decision under a different tolerance.  The numeric
witnesses (:func:`ccn`, :func:`ccn_via_stokes`, :func:`concurrence`,
:func:`lorentz_metric` and :func:`feasibility`, the witness and flags of the
total reflection) answer with a number for one state and an array of one
value per member for a stack, which costs one batched solve.  Each takes its
checked type, or an array checked into it, like every public entry.  A
report is about one state, so each report refuses a stack itself, before any
kernel runs; :func:`complement` maps a stack member by member.

The verdict tolerance has one rule, :func:`_verdict_tolerance`: a finite float
or int >= 0, not a bool.  Every report and :func:`feasibility` apply it on
entry, before any solve, and so does the command line to ``QREFLECT_TOL``.

Every report comes from one evaluation pass over one state, :func:`_reports`,
which checks each input once before any solve and solves each spectrum once
per call, shared by every image that has it: a cut and its complement, the
one-qubit reflections and reductions with the partial transpose on that
qubit, and the full-set reflection with the total reflection.  Nothing it
memoises outlives the call.  :func:`_report` turns every witness into its
verdict by one rule table.  The six public reports are one-request calls of
the pass; ``analyze`` makes one call.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import _eigenvalues, _lowest_eig
from .stokes import (
    PAULI,
    HermitianOperator,
    PSD_TOL,
    StokesTensor,
    _as,
    _float_or_array,
    _identity_times_reduction,
    _is_real,
    _nonempty_subset,
    _partial_transpose,
    _realigned,
    _single,
    _two_qubits,
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
    if not _is_real(tol) or not 0 <= tol <= _FLOAT_MAX:
        raise ValueError(f"tolerances must be finite numbers >= 0, got {tol!r}")
    return float(tol)


def _proper_subset(subset, n: int) -> tuple[int, ...]:
    subset = _nonempty_subset(subset, n)
    if len(subset) >= n:
        raise ValueError(f"need a proper subset of 1..{n}, got {subset}")
    return subset


# criterion: (subset rule, answering None for a criterion of the whole state; verdict rule at tolerance tol;
#             the verdict where the witness meets the rule; the verdict otherwise)
_RULES = {
    "ppt": (_proper_subset, lambda w, tol: w < -tol, "entangled", "separable-consistent"),
    "ccn": (lambda block, n: _ccn_block(n, block), lambda w, tol: w > 1.0 + tol, "entangled", "separable-consistent"),
    "concurrence": (lambda _, n: _two_qubits(n, "concurrence"), lambda w, tol: w > tol, "entangled", "separable-consistent"),
    "reflection": (_nonempty_subset, lambda w, tol: w >= -tol, "feasible", "infeasible"),
    "total-reflection": (lambda _, n: None, lambda w, tol: w >= -tol, "feasible", "infeasible"),
    "reduction": (_proper_subset, lambda w, tol: w < -tol, "entangled", "separable-consistent"),
}


def _report(criterion: str, witness: float, subset, tol: float, extra=None) -> CriterionReport:
    """The report of one witness, with the verdict of the criterion's rule in :data:`_RULES`."""
    _, rule, met, unmet = _RULES[criterion]
    return CriterionReport(criterion, met if rule(witness, tol) else unmet, witness, subset, tol, extra or {})


def _reports(rho, requests, tol) -> list[CriterionReport]:
    """One report per ``(criterion, subset)`` request on one state, each spectrum solved once.

    The tolerance, the state and every request's subset are checked first, so
    a bad request fails before any solve.  The memo keys each witness by the
    class of images that share one spectrum, and keeps floats and flags, never
    an image:

    * The partial transpose on the complement of ``S`` is the full transpose
      of the one on ``S``: one solve per unordered cut, of the side requested
      first.
    * On one qubit ``tr(X) 1 - X = sigma_y X^T sigma_y``, so on a qubit ``q``
      of two or more the reflection and the reduction image are both
      ``R_q rho = Y_q rho^{T_q} Y_q``: they read the cut ``{q} | rest``.
    * The reflection on the full set is ``2**(1-n) 1 - rho``: its witness
      ``2**(1-n) - max(spectrum)`` comes from the spectrum the total
      reflection reads, a state's own or one solve of a bare operator.
    * On ``2 <= |S| < n`` qubits a reflection solves the lift at scale
      ``2**(1-|S|)`` and a reduction at scale 1.

    The lift has trace ``2**|S| tr(rho)``, so a reduction reports the trace
    ``(2**|S| - 1) tr(rho)`` of its image.
    """
    tol = _verdict_tolerance(tol)
    op = _single(_as(HermitianOperator, rho))
    n = op.n
    checked = [(criterion, _RULES[criterion][0](subset, n)) for criterion, subset in requests]
    solved = {}
    reports = []
    for criterion, subset in checked:
        extra = None
        if criterion == "ccn":
            witness = _ccn(op, subset)
        elif criterion == "concurrence":
            witness = _concurrence(op)
        elif criterion == "total-reflection" or criterion == "reflection" and len(subset) == n:
            if None not in solved:
                solved[None] = _feasibility(_eigenvalues(op), tol)
            witness, flags = solved[None]
            if criterion == "total-reflection":
                extra = dict(flags)
        elif criterion == "ppt" or len(subset) == 1:
            # A cut and its complement share one key: the smaller bitmask of the two sides.
            side = sum(1 << (q - 1) for q in subset)
            cut = min(side, (1 << n) - 1 ^ side)
            if cut not in solved:
                solved[cut] = _lowest_eig(_partial_transpose(op, subset))
            witness = solved[cut]
        else:
            scale = 1.0 if criterion == "reduction" else 2.0 ** (1 - len(subset))
            if (subset, scale) not in solved:
                solved[subset, scale] = _lowest_eig(scale * _identity_times_reduction(op, subset) - op.matrix)
            witness = solved[subset, scale]
        if criterion == "reduction":
            extra = {"trace": (2 ** len(subset) - 1) * float(np.trace(op.matrix).real)}
        reports.append(_report(criterion, witness, subset, tol, extra))
    return reports


def ppt_test(rho, subset, tol: float = PSD_TOL) -> CriterionReport:
    """Partial-transpose positivity across the given qubit subset.

    Exact for two qubits; for more qubits a negative witness still certifies
    entanglement across the cut.  The witness is the smallest eigenvalue of
    the axis-swap :func:`partial_transpose`; the sign mask
    ``mask_partial_transpose`` defines the same image and is its test oracle.
    """
    return _reports(rho, [("ppt", subset)], tol)[0]


def _ccn_block(n: int, block) -> tuple[int, ...]:
    """The checked left block of a cut; ``None`` is the first half."""
    if block is None and n % 2 != 0:
        raise ValueError(f"the first-half cut needs an even qubit count, got n={n}")
    return _proper_subset(range(1, n // 2 + 1) if block is None else block, n)


def ccn(rho, block=None):
    """Trace norm of the realigned matrix across a bipartition: a float, or one per member of a stack.

    ``block`` lists the qubits of the left factor (default: the first half).
    The realignment is :func:`stokes._realigned`; on square cuts it has the
    singular values of the reshuffling map :func:`choi_reshuffle`.
    """
    op = _as(HermitianOperator, rho)
    return _ccn(op, _ccn_block(op.n, block))


def _ccn(op: HermitianOperator, block: tuple[int, ...]):
    """:func:`ccn` of a checked operator (or stack) across a checked block."""
    return _float_or_array(np.linalg.svd(_realigned(op, block), compute_uv=False).sum(axis=-1))


def ccn_via_stokes(s: StokesTensor):
    """Two-qubit cross norm as half the trace norm of the Stokes matrix: a float, or one per member of a stack."""
    return _float_or_array(np.linalg.svd(stokes_as_matrix(s), compute_uv=False).sum(axis=-1) / 2.0)


def ccn_report(rho, block=None, tol: float = PSD_TOL) -> CriterionReport:
    """:func:`ccn` with its verdict; the report names the checked block the value was measured on."""
    return _reports(rho, [("ccn", block)], tol)[0]


_YY = np.kron(PAULI[2], PAULI[2])


def concurrence(rho):
    """Two-qubit concurrence from the singular values of ``sqrt(rho) YY sqrt(rho)*``: a float, or one per member.

    With ``YY = sigma_y (x) sigma_y`` these are the square roots of the
    eigenvalues of ``rho rho'`` without the square root's amplification of
    rounding error.  ``eigh`` answers ascending; the eigenpairs are reversed
    so the square root sums them in descending order, which fixes the
    value's rounding bit for bit.
    """
    op = _as(HermitianOperator, rho)
    _two_qubits(op.n, "concurrence")
    return _concurrence(op)


def _concurrence(op: HermitianOperator):
    """:func:`concurrence` of a checked two-qubit operator (or stack)."""
    values, vecs = np.linalg.eigh(op.matrix)
    values, vecs = values[..., ::-1].copy(), vecs[..., ::-1].copy()
    root = (vecs * np.sqrt(np.clip(values, 0.0, None))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    nu = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    value = nu[..., 0] - nu[..., 1] - nu[..., 2] - nu[..., 3]
    return _float_or_array(np.where(value > 0.0, value, 0.0))


def concurrence_report(rho, tol: float = PSD_TOL) -> CriterionReport:
    return _reports(rho, [("concurrence", None)], tol)[0]


def lorentz_metric(s: StokesTensor):
    """Quadratic invariant ``tr(rho rho')`` evaluated on Stokes components: a float, or one per member."""
    v = stokes_as_matrix(s) / 2
    time_like = v[..., 0, 0] ** 2 - np.sum(v[..., 0, 1:] ** 2, axis=-1) - np.sum(v[..., 1:, 0] ** 2, axis=-1)
    return _float_or_array(time_like + np.sum(v[..., 1:, 1:] ** 2, axis=(-2, -1)))


def reduction_criterion(rho, traced, tol: float = PSD_TOL) -> CriterionReport:
    """Positivity of ``identity on traced qubits (x) reduced state - rho``.

    A necessary condition for separability; the comparison operator has
    trace ``(2**len(traced) - 1) tr(rho)``, reported as ``extra["trace"]``,
    and so is not itself a state.  The lift is ``2**(|S|-1) (rho + R_S rho)``
    (``R_S``: partial reflection on ``S``), so for one traced qubit the
    comparison operator is ``R_S rho`` itself.  On one qubit
    ``tr(X) 1 - X = sigma_y X^T sigma_y``, so that operator is
    ``Y_q rho^{T_q} Y_q`` and its witness is the :func:`ppt_test` witness on
    ``q``, the one spectrum both solve: the 2 x N equivalence of the
    reduction and PPT criteria.
    """
    return _reports(rho, [("reduction", traced)], tol)[0]


def complement(rho) -> HermitianOperator:
    """Total reflection ``2**(1-n) identity - rho``; mixes with the input to
    the maximally mixed state."""
    op = _as(HermitianOperator, rho)
    dim = 2**op.n
    return HermitianOperator._built((2.0 / dim) * np.eye(dim) - op.matrix, op.n)


def feasibility(rho, tol: float = PSD_TOL) -> tuple:
    """Total-reflection witness and flags of an operator, or of each member of a stack: ``(witness, flags)``.

    ``rho`` is a :class:`HermitianOperator` (a :class:`DensityState` answers
    from the spectrum it was validated with) or an array checked into one.
    The reflected spectrum is ``2**(1-n) - lambda`` for the ascending
    eigenvalues ``lambda``, so the witness is ``2**(1-n) - max(lambda)`` and
    the largest-eigenvalue test is exact: ``sufficient_max_eig`` and
    ``exact_psd`` agree by construction (both names stay in the schema).
    The necessary bounds are ``tr(rho**2) <= 2**(1-n)`` and
    ``rank >= 2**(n-1)``; the rank counts eigenvalues above ``PSD_TOL``, the
    numerical zero of the load check, so the verdict tolerance ``tol`` does
    not move it.  One operator gives a float and bools, a stack one array
    per name.
    """
    tol = _verdict_tolerance(tol)
    return _feasibility(_eigenvalues(rho), tol)


def _feasibility(spectrum: np.ndarray, tol: float) -> tuple:
    """:func:`feasibility` of ascending spectra (one row per member of a stack) at a checked tolerance."""
    dim = spectrum.shape[-1]
    bound = 2.0 / dim
    # .T puts the eigenvalue axis first, so .T[k] is entry k of one spectrum or of every member.
    witness = bound - spectrum.T[-1]
    reflectable = _float_or_array(witness >= -tol)
    # A plain reduction and an in-place sort keep one spectrum as cheap as the scalar code was.
    purity_bound = np.add.reduce(spectrum * spectrum, -1) <= bound + 1e-12
    # At least dim/2 magnitudes exceed PSD_TOL exactly when the (dim/2)-th largest does.
    magnitudes = np.abs(spectrum)
    magnitudes.sort()
    flags = {
        "sufficient_max_eig": reflectable,
        "exact_psd": reflectable,
        "purity_bound": _float_or_array(purity_bound),
        "rank_bound": _float_or_array(magnitudes.T[dim // 2] > PSD_TOL),
    }
    return _float_or_array(witness), flags


def total_reflection_feasible(rho, tol: float = PSD_TOL) -> CriterionReport:
    """Whether the total reflection ``2**(1-n) identity - rho`` is a state.

    All flags come from one spectrum of ``rho`` through the kernel of :func:`feasibility`.
    """
    return _reports(rho, [("total-reflection", None)], tol)[0]


def reflection_report(rho, subset, tol: float = PSD_TOL) -> CriterionReport:
    """Positivity of the (possibly partial) reflection across ``subset``.

    The image is ``R_S rho = 2**(1-|S|) lift - rho`` with the lift of
    :func:`identity_times_reduction`.  The sign mask ``mask_total_reflection``
    defines the same image and is its test oracle.  Two cases read another
    criterion's spectrum:

    * The full set gives the complement ``2**(1-n) identity - rho``, whose
      lowest eigenvalue is ``2**(1-n) - max(spectrum)``: the
      :func:`total_reflection_feasible` witness, bit for bit.
    * On one qubit ``q`` of several, ``tr(X) 1 - X = sigma_y X^T sigma_y``
      gives ``R_q rho = Y_q rho^{T_q} Y_q``, so the witness is the
      :func:`ppt_test` witness on ``q`` and that of
      :func:`reduction_criterion`; one :func:`_reports` pass that asks for
      them solves the partial transpose once.
    """
    return _reports(rho, [("reflection", subset)], tol)[0]
