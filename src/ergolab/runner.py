"""Scenario orchestration: run a scenario's stages, write artifacts, assemble
the run report with its pass/fail checks.

``config.SCENARIOS`` lists each scenario's stages in order, and ``STAGES``
maps each stage name to one private function here. A run builds one
``_Run`` state and calls its stages in order; each stage reads what earlier
stages left on the state (the solution, the control atoms, the LP problem
and its measure) and adds its results, checks and artifacts. The loop
records each stage's wall seconds under ``timing.stages``. Stages call the
layer functions through this module's globals, so a tracer that replaces
those globals sees every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .config import SCENARIOS, ConfigError, RunConfig
from .density import GridMeasure, ReducibleChainError, average_cost, stationary_density
from .eigensolver import (
    ErgodicSolution,
    SingularEvaluationError,
    domain_exhaustion,
    pointwise_residual,
    solve_ergodic_hjb,
)
from .estimates import (
    check_polynomial_envelope,
    check_potential_gradient_growth,
    fit_hamiltonian_growth,
)
from .grid import Grid, build_grid, gradient_inward_fallback
from .hamiltonian import HamiltonianModel, PotentialSpec
from .measure_lp import (
    LPProblem,
    LPSolveError,
    assemble_lp,
    excess_cost_identity,
    feasibility_violation,
    minimizer_control_distance,
    random_feasible_measure,
    solve_lp,
    uniform_xi_atoms,
)
from .serialize import write_csv, write_field_csv, write_json, write_measure_csv
from .simulate import compare_controls, simulate_average

NUMERICAL_ERRORS = (SingularEvaluationError, LPSolveError, ReducibleChainError)


@dataclass
class RunReport:
    payload: dict
    exit_code: int


@dataclass
class _Run:
    """The state the stages of one run share."""

    config: RunConfig
    out: Path
    results: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)  # stage name -> wall seconds
    sol: ErgodicSolution | None = None
    atoms: np.ndarray | None = None
    problem: LPProblem | None = None
    measure: GridMeasure | None = None

    # built on first use: `exhaust` builds its own grids and never reads `grid`
    @cached_property
    def grid(self) -> Grid:
        return self.config.grid()

    @cached_property
    def model(self) -> HamiltonianModel:
        return self.config.model()

    @cached_property
    def potential(self) -> PotentialSpec:
        return self.config.potential()

    def check(self, name: str, passed: bool, value, tolerance) -> None:
        self.checks[name] = {"passed": bool(passed), "value": value, "tolerance": tolerance}


def _report_sim(rep) -> dict:
    return {
        "mean": rep.mean,
        "standard_error": rep.standard_error,
        "n_divergent": rep.n_divergent,
        "path_averages": rep.path_averages,
        "admissibility": rep.admissibility,
    }


def run_scenario(config: RunConfig, out_dir: str | Path) -> RunReport:
    """Execute one scenario, write its artifacts, and return the report.

    Exit code is 0 when all declared checks pass, 1 on a failed check,
    2 on a configuration error found only while running (such as a grid over
    the node limit), 3 on a numerical failure; the partial report is written
    in every case.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.time()
    run = _Run(config, out)
    code = 0
    try:
        for name in SCENARIOS[config.scenario]:
            start = time.perf_counter()
            try:
                STAGES[name](run)
            finally:
                run.seconds[name] = time.perf_counter() - start
    except (ConfigError, *NUMERICAL_ERRORS) as exc:
        run.results["error"] = f"{type(exc).__name__}: {exc}"
        code = 2 if isinstance(exc, ConfigError) else 3
    if code == 0 and any(not c["passed"] for c in run.checks.values()):
        code = 1
    throughput = {}  # Monte Carlo path-steps per second of each stage that ran paths
    for name, seconds in run.seconds.items():
        path_steps = run.results.get(name, {}).get("stats", {}).get("path_steps")
        if path_steps:
            throughput[name] = path_steps / seconds
    payload = {
        "version": __version__,
        "scenario": config.scenario,
        "seed": config.seed,
        "config": config.raw,
        "results": run.results,
        "checks": run.checks,
        "timing": {
            "wall_seconds": time.time() - t_start,
            "stages": run.seconds,
            "path_steps_per_s": throughput,
        },
        "exit_code": code,
    }
    write_json(out / "summary.json", payload)
    return RunReport(payload=payload, exit_code=code)


def _solve(run: _Run) -> None:
    config, grid, model, potential = run.config, run.grid, run.model, run.potential
    opts = config.solver_options()
    sol = run.sol = solve_ergodic_hjb(grid, model, potential, opts)
    run.results["solve"] = {
        "lambda": sol.lam,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "residual_sup": sol.residual_sup,
        "lambda_history": sol.lambda_history,
        "stats": {**sol.solver.stats(), "iterations": sol.iteration_stats},
    }
    run.check("solver_converged", sol.converged, sol.iterations, opts.max_policy_iters)
    if config["output"]["write_fields"]:
        du = gradient_inward_fallback(sol.u, grid)
        residual = pointwise_residual(sol, model, potential)
        fields = {"u": sol.u, "du": du, "xi": sol.xi_u, "residual": residual}
        write_field_csv(run.out / "fields.csv", grid, fields)


def _density(run: _Run) -> None:
    sol, fp_gap = run.sol, run.config["checks"]["fp_gap"]
    factorizations = sol.solver.factorizations
    # the transposed solve refines with the factor of the last evaluation
    density = stationary_density(run.grid, sol.xi_u, sol.solver)
    mu_cost = average_cost(density, sol.xi_u, run.model, run.potential)
    run.results["fokker_planck"] = {
        "mu_cost": mu_cost,
        "stats": {"factorizations": sol.solver.factorizations - factorizations},
    }
    if run.config["output"]["write_fields"]:
        write_field_csv(run.out / "density.csv", run.grid, {"rho": density.rho})
    gap = abs(mu_cost - sol.lam)
    run.check("fp_cost_matches_lambda", gap <= fp_gap, gap, fp_gap)


def _lp(run: _Run) -> None:
    config, grid, sol = run.config, run.grid, run.sol
    bound = config["lp"]["xi_bound"]
    if bound is None:
        bound = 1.25 * float(np.abs(sol.xi_u).max())
    count = int(config["lp"]["xi_count"])
    run.atoms = uniform_xi_atoms(float(bound), count, grid.dim)
    run.problem = assemble_lp(grid, run.atoms, run.model, run.potential)
    run.measure, lam_bar = solve_lp(run.problem)
    spacing_xi = 2.0 * float(bound) / (count - 1)
    dist = minimizer_control_distance(run.measure, sol)
    certificates = dict(run.measure.info)
    run.results["lp"] = {
        "lambda_bar": lam_bar,
        "stats": certificates.pop("stats"),
        "certificates": certificates,
        "minimizer_control_distance": dist,
        "xi_bound": float(bound),
        "xi_count": count,
    }
    write_measure_csv(run.out / "measure.csv", run.measure)
    gap, lp_gap = abs(lam_bar - sol.lam), config["checks"]["lp_gap"]
    run.check("lp_matches_policy_iteration", gap <= lp_gap, gap, lp_gap)
    reach = spacing_xi + 2 * grid.spacing
    run.check("minimizer_near_optimal_control", dist <= reach, dist, reach)


def _sweep(run: _Run) -> None:
    config, sol, model, potential = run.config, run.sol, run.model, run.potential
    sweep_n = int(config["checks"]["sweep_size"])
    floor = float(config["checks"]["sweep_floor"])
    rel = float(config["checks"]["identity_rel"])
    worst_lhs = np.inf
    worst_mismatch = 0.0
    for s in range(sweep_n):
        mu_rand = random_feasible_measure(run.grid, run.atoms, config.seed + s)
        lhs, rhs = excess_cost_identity(mu_rand, sol, model, potential)
        worst_lhs = min(worst_lhs, lhs)
        worst_mismatch = max(worst_mismatch, abs(lhs - rhs) / (1 + abs(lhs)))
    lhs_star, rhs_star = excess_cost_identity(run.measure, sol, model, potential)
    run.results["measure_sweep"] = {
        "n": sweep_n,
        "min_excess": worst_lhs,
        "max_identity_mismatch": worst_mismatch,
        "optimal_measure_excess": lhs_star,
        "optimal_measure_gap_integral": rhs_star,
        "optimal_measure_feasibility": feasibility_violation(run.measure, run.problem),
    }
    run.check("excess_cost_nonnegative", worst_lhs >= floor, worst_lhs, floor)
    run.check("excess_identity_consistent", worst_mismatch <= rel, worst_mismatch, rel)


def _simulate(run: _Run) -> None:
    params = run.config.sim_params()
    rep = simulate_average(run.grid, run.sol.xi_u, run.model, run.potential, params, "xi_u")
    run.results["simulate"] = {
        **_report_sim(rep),
        "stats": {"path_steps": params.n_paths * params.n_steps},
    }
    columns = (np.arange(params.n_paths), rep.path_averages, rep.admissibility, rep.diverged)
    write_csv(
        run.out / "paths.csv",
        ["path", "time_average", "admissibility_integral", "diverged"],
        np.column_stack(columns),
    )
    sigmas = float(run.config["checks"]["sim_sigmas"])
    gap = abs(rep.mean - run.sol.lam)
    ok = rep.n_divergent == 0 and gap <= sigmas * rep.standard_error
    run.check("simulation_matches_lambda", ok, gap, sigmas * rep.standard_error)


def _compare(run: _Run) -> None:
    params = run.config.sim_params()
    named = [(f"{m:g}*xi_u", m * run.sol.xi_u) for m in run.config["compare"]["multipliers"]]
    comp = compare_controls(run.grid, named, run.model, run.potential, params)
    reference = f"{1.0:g}*xi_u"  # config validation requires the multiplier 1.0
    run.results["compare"] = {
        "order": comp.order,
        "reports": {k: _report_sim(r) for k, r in comp.reports.items()},
        "pathwise_reference_first": comp.pathwise_dominates(reference),
        "stats": {"path_steps": len(named) * params.n_paths * params.n_steps},
    }
    first = comp.order[0] == reference
    run.check("optimal_control_ranks_first", first, comp.order, "xi_u first")


def _audit(run: _Run) -> None:
    """Growth and envelope audits of the potential."""
    grid, gamma, potential = run.grid, run.model.gamma, run.potential
    audit = check_potential_gradient_growth(potential, grid, gamma)
    envelope = check_polynomial_envelope(potential, grid)
    run.results["estimates"] = {
        "potential_gradient_growth": vars(audit),
        "polynomial_envelope": vars(envelope),
    }
    run.check("potential_gradient_growth", audit.passed, audit.fitted_constant, "bounded sweep")


def _headline(run: _Run) -> None:
    """The Hamiltonian's growth constants next to the audits, and the
    four-way table of lambda from every route."""
    results = run.results
    results["estimates"]["growth_constants"] = fit_hamiltonian_growth(
        run.model, run.grid.dim, run.config.seed
    )
    results["headline"] = {
        "lambda_policy_iteration": results["solve"]["lambda"],
        "lambda_lp": results["lp"]["lambda_bar"],
        "mu_cost_fokker_planck": results["fokker_planck"]["mu_cost"],
        "simulation_mean": results["simulate"]["mean"],
        "simulation_se": results["simulate"]["standard_error"],
    }


def _exhaust(run: _Run) -> None:
    config, model, potential = run.config, run.model, run.potential
    opts = config.solver_options(config["exhaust"]["boundary_mode"])
    radii, spacing = config["exhaust"]["radii"], config["grid"]["spacing"]
    dim = int(config["grid"]["dim"])
    if radii[0] < 4 * spacing:
        raise ConfigError("'exhaust.radii' must be >= 4 * grid.spacing")
    try:  # the largest box must fit the node limit; checked before any solve
        build_grid(dim, radii[-1], spacing)
    except ValueError as exc:
        raise ConfigError(f"'exhaust.radii': {exc}") from exc
    seq = domain_exhaustion(model, potential, radii, spacing, opts, dim=dim)
    lams = [lam for _, lam in seq]
    diffs = [b - a for a, b in zip(lams, lams[1:])]
    run.results["exhaustion"] = {"sequence": seq, "successive_differences": diffs}
    write_csv(run.out / "exhaustion.csv", ["radius", "lambda"], np.array(seq, dtype=float))
    run.check("exhaustion_nonincreasing", all(d <= 1e-8 for d in diffs), diffs, 1e-8)


STAGES = {
    "solve": _solve,
    "density": _density,
    "lp": _lp,
    "sweep": _sweep,
    "simulate": _simulate,
    "compare": _compare,
    "audit": _audit,
    "headline": _headline,
    "exhaust": _exhaust,
}
