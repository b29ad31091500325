"""Multipartite quantum discord via conditional projective measurement trees.

Core objects: :class:`~mdiscord.qstate.QState` density matrices,
:class:`~mdiscord.measure.MeasurementTree` conditional measurements, the
entropy-flux ledger, and the optimized discord with its decomposition into
conditional-discord and monogamy contributions.
"""

from .discord import (
    DiscordResult,
    discord,
    discord_two_measurement,
    objective_bipartite,
    objective_bipartite_two_meas,
    objective_npartite,
    objective_tripartite,
)
from .entropy_flux import (
    FluxReport,
    cond_entropy,
    cond_entropy_measured,
    cond_mutual_info,
    d_unminimized,
    delta_cond_discord,
    delta_monogamy,
    delta_post_discord,
    flux_report,
    mutual_info,
    tripartite_mutual_info,
)
from .measure import (
    BranchOutcome,
    MeasParams,
    MeasurementTree,
    ProjectorBasis,
    apply_tree,
    optimal_tree_for_measured_state,
    projector_pair_from_angles,
    tree_from_params,
)
from .optimizer import OptimizerConfig, OptimizerOutcome, grid_scan, optimize, simplex_refine
from .oracle import (
    VerifyReport,
    dense_grid_min,
    identity_suite,
    invariance_residual,
    reference_objective,
    verification_suite,
)
from .qstate import (
    QState,
    StructuralError,
    SubsetSpec,
    ValidityReport,
    entropy,
    eig_hermitian,
    partial_trace,
    permute_subsystems,
    random_state,
    subsystem_entropy,
    tensor,
    validate,
)
from .states import StateSpec, build

__version__ = "0.1.0"
