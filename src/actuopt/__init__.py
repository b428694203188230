"""Joint optimal control and actuator design for semi-linear beam and
wave models, with exact discrete-adjoint gradients."""

from .core_system import (
    BlowUpError,
    CostSpec,
    Discretization,
    NonContractionError,
    StepSolverError,
    TimeGrid,
    blowup_of,
    cost_eval,
    energy_inner,
    energy_norm,
    energy_series,
    forward_costs,
    picard_mild_solve,
    solve_forward,
)
from .beam_model import (
    BeamParams,
    assemble_beam,
    greens_apply,
    greens_eval,
    stiffness_solve,
)
from .wave_model import (
    WaveParams,
    assemble_wave,
)
from .adjoint_grad import (
    adjoint_compare,
    adjoint_node_view,
    continuous_adjoint_oracle,
    duality_check,
    gradient_fd_check,
    gradients_from_adjoint,
    solve_adjoint,
    solve_linearized,
)
from .optimizer import (
    OptimRun,
    OptimizerConfig,
    ProjectionSpec,
    grid_search_r,
    optimize,
    project_r,
    project_u,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    build_problem,
    canonical_text,
    load_config,
    parse_config_text,
)

__version__ = "0.1.0"

__all__ = [
    "BeamParams",
    "BlowUpError",
    "ConfigError",
    "CostSpec",
    "Discretization",
    "ExperimentConfig",
    "NonContractionError",
    "OptimRun",
    "OptimizerConfig",
    "ProjectionSpec",
    "StepSolverError",
    "TimeGrid",
    "WaveParams",
    "adjoint_compare",
    "adjoint_node_view",
    "assemble_beam",
    "assemble_wave",
    "blowup_of",
    "build_problem",
    "canonical_text",
    "continuous_adjoint_oracle",
    "cost_eval",
    "duality_check",
    "energy_inner",
    "energy_norm",
    "energy_series",
    "forward_costs",
    "gradient_fd_check",
    "gradients_from_adjoint",
    "greens_apply",
    "greens_eval",
    "grid_search_r",
    "load_config",
    "optimize",
    "parse_config_text",
    "picard_mild_solve",
    "project_r",
    "project_u",
    "solve_adjoint",
    "solve_forward",
    "solve_linearized",
    "stiffness_solve",
]
