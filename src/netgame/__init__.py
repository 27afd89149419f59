"""Two-firm quality vs. seeding competition on social networks."""

from .allocation import (
    AllocationResult,
    CapacityBound,
    PresetState,
    allocate_budget,
    max_seeding_capacity_bound,
    regime_classify,
    seeding_capacity,
    thresholds,
)
from .centrality import (
    CentralityVector,
    balanced_centrality,
    centrality,
    closed_form_centrality,
    l_star_centralities,
    star_centralities,
)
from .dynamics import (
    UtilityReport,
    discounted_utilities,
    externality_drift,
    horizon_for_tolerance,
    simulate,
    stationary_state,
)
from .equilibrium import (
    BudgetSpec,
    FirmStrategy,
    NashOutcome,
    SolverError,
    best_response_quality,
    solve_nash,
    symmetric_nash,
    water_fill_seeding,
)
from .extremal import (
    SeedingExtremes,
    budget_regime,
    max_centrality_sequence,
    min_centrality_sequence,
    symmetric_seeding_extremes,
)
from .graphs import (
    KINDS,
    GraphValidationError,
    SocialGraph,
    generate,
    load_graph,
    save_graph,
)
from .params import ModelParams

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "BudgetSpec",
    "CapacityBound",
    "CentralityVector",
    "FirmStrategy",
    "GraphValidationError",
    "KINDS",
    "ModelParams",
    "NashOutcome",
    "PresetState",
    "SeedingExtremes",
    "SocialGraph",
    "SolverError",
    "UtilityReport",
    "allocate_budget",
    "balanced_centrality",
    "best_response_quality",
    "budget_regime",
    "centrality",
    "closed_form_centrality",
    "discounted_utilities",
    "externality_drift",
    "generate",
    "horizon_for_tolerance",
    "l_star_centralities",
    "load_graph",
    "max_centrality_sequence",
    "max_seeding_capacity_bound",
    "min_centrality_sequence",
    "regime_classify",
    "save_graph",
    "seeding_capacity",
    "simulate",
    "solve_nash",
    "star_centralities",
    "stationary_state",
    "symmetric_nash",
    "symmetric_seeding_extremes",
    "thresholds",
    "water_fill_seeding",
]
