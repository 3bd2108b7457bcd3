"""Numerical laboratory for energy hierarchies on symmetry-reduced
Kahler metrics.

The package builds rotation-invariant metrics on complex projective
space (and periodic metrics on a one-dimensional flat model), evaluates
the hierarchy of energy functionals together with its companion
quantities, solves two Monge-Ampere continuity paths, integrates a
normalized curvature flow, and verifies a battery of identities and
inequalities through config-driven scenarios.
"""

from .checks import CheckItem, CheckReport
from .continuity import (
    PathPoint,
    PathTrajectory,
    Termination,
    check_lemma_3_4,
    check_lemma_4_1,
    check_section5,
    lambda1_radial,
    path_monitors,
    ricci_positive_generator,
    solve_aubin_path,
    solve_yau_path,
)
from .energies import (
    EnergyValue,
    e1_cy,
    e_k_closed,
    e_k_path,
    critical_residual,
    futaki_k,
    i_and_j,
    mu_k,
    orbit_potential,
)
from .errors import (
    GeneratorError,
    LabError,
    NotKahlerError,
    ParameterError,
    SolverError,
    UnsupportedModelError,
)
from .exact import (
    verify_binomial_identity,
    verify_sigma_expansion,
    verify_zero_identity,
)
from .families import family_rng, generate_probe
from .flow import FlowSample, FlowTrajectory, run_flow
from .geometry import (
    Background,
    FormSlot,
    MetricState,
    fs_background,
    laplacian,
    laplacian_matrix,
    make_metric,
    osc,
    potential_from_density,
    ricci_potential,
    sigma_k,
    slot_gradsq,
    slot_hessian,
    slot_metric,
    slot_ricci,
    wedge_density,
)
from .scenarios import (
    ScenarioConfig,
    list_scenarios,
    parse_config,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Background", "CheckItem", "CheckReport", "EnergyValue", "FlowSample",
    "FlowTrajectory", "FormSlot", "GeneratorError", "LabError",
    "MetricState", "NotKahlerError", "ParameterError", "PathPoint",
    "PathTrajectory", "ScenarioConfig", "SolverError", "Termination",
    "UnsupportedModelError", "check_lemma_3_4", "check_lemma_4_1",
    "check_section5", "critical_residual", "e1_cy", "e_k_closed", "e_k_path",
    "family_rng", "fs_background", "futaki_k", "generate_probe", "i_and_j",
    "lambda1_radial", "laplacian", "laplacian_matrix", "list_scenarios",
    "make_metric", "mu_k", "orbit_potential", "osc", "parse_config",
    "path_monitors", "potential_from_density", "ricci_positive_generator",
    "ricci_potential", "run_flow", "run_scenario", "sigma_k",
    "slot_gradsq", "slot_hessian", "slot_metric", "slot_ricci",
    "solve_aubin_path", "solve_yau_path",
    "verify_binomial_identity", "verify_sigma_expansion",
    "verify_zero_identity", "wedge_density",
]
