"""Numerical laboratory for ergodic control of viscous drift-diffusion problems.

Computes the additive eigenpair (value field, long-run optimal cost) of
stationary equations -Lap u + H(x, Du) = f - lambda on truncated boxes,
the optimal Markov control and its stationary density, the minimizing
occupation measure via an independent linear program, and Monte Carlo
ergodic averages, then cross-checks that all routes agree.
"""

__version__ = "0.1.0"

from .grid import Grid, build_grid
from .hamiltonian import (
    HamiltonianModel,
    PotentialSpec,
    pure_power,
    drift_power,
    quadratic_power_potential,
    power_beta_potential,
    constant_potential,
    quartic_sine_potential,
    exp_abs_potential,
)
from .eigensolver import (
    ErgodicSolution,
    SolverOptions,
    solve_ergodic_hjb,
    domain_exhaustion,
)
from .density import DensityField, GridMeasure, stationary_density, average_cost
from .simulate import SimParams, simulate_average, compare_controls
from .config import RunConfig, parse_config
from .runner import run_scenario

__all__ = [
    "Grid",
    "build_grid",
    "HamiltonianModel",
    "PotentialSpec",
    "pure_power",
    "drift_power",
    "quadratic_power_potential",
    "power_beta_potential",
    "constant_potential",
    "quartic_sine_potential",
    "exp_abs_potential",
    "ErgodicSolution",
    "SolverOptions",
    "solve_ergodic_hjb",
    "domain_exhaustion",
    "DensityField",
    "GridMeasure",
    "stationary_density",
    "average_cost",
    "SimParams",
    "simulate_average",
    "compare_controls",
    "RunConfig",
    "parse_config",
    "run_scenario",
    "__version__",
]
