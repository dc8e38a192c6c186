"""Stokes-tensor representations of multiqubit states, their discrete
reflection symmetries, and the entanglement criteria built on them."""

__version__ = "0.1.0"

from .stokes import (
    DensityState,
    HermitianOperator,
    RealDensityMatrix,
    StokesTensor,
    choi_reshuffle,
    from_stokes,
    purity,
    real_density_to_stokes,
    stokes_as_matrix,
    to_real_density,
    to_stokes,
)
from .linalg import min_eig
from .reflections import (
    LocalOrthogonalMap,
    MapClassification,
    SignMask,
    apply_local_orthogonal,
    apply_mask,
    classify,
    mask_partial_transpose,
    mask_spin_flip,
    mask_total_reflection,
    mask_two_body_flip,
    relaxed_reflection,
)
from .criteria import (
    CriterionReport,
    ccn,
    ccn_report,
    ccn_via_stokes,
    complement,
    concurrence,
    concurrence_report,
    feasibility,
    lorentz_metric,
    ppt_test,
    reduction_criterion,
    reflection_report,
    total_reflection_feasible,
)
from .states import (
    bell_state,
    ket,
    maximally_mixed,
    pure_state,
    random_density,
    random_reflection,
    random_unitary,
    remix,
    upb_bound_entangled,
    upb_kets,
    upb_separable,
)

__all__ = [name for name in dir() if not name.startswith("_")]
