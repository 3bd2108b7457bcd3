"""Numerical laboratory for energy hierarchies on symmetry-reduced
Kahler metrics.

The package builds rotation-invariant metrics on complex projective
space (and periodic metrics on a one-dimensional flat model), evaluates
the hierarchy of energy functionals together with its companion
quantities, solves two Monge-Ampere continuity paths, integrates a
normalized curvature flow, and verifies a battery of identities and
inequalities through config-driven scenarios.  The functionals, solvers
and check suites live in the submodules; the package exports the
scenario entry points and the background builder.
"""

from .geometry import fs_background
from .scenarios import (
    ScenarioConfig,
    list_scenarios,
    parse_config,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig", "fs_background", "list_scenarios", "parse_config",
    "run_scenario",
]
