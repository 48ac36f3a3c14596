"""Scenario orchestration: run a scenario's stages, write artifacts, assemble
the run report with its pass/fail checks.

``config.SCENARIOS`` lists each scenario's stages in order, and ``STAGES``
maps each stage name to one private function here. A run builds one
``_Run`` state and calls its stages in order; each stage reads what earlier
stages left on the state (the solutions at h and h/2, the control atoms,
the LP problem and its measure) and adds its results, checks and artifacts.
The loop records each stage's wall seconds under ``timing.stages``. Stages
call the layer functions through this module's globals, so a tracer that
replaces those globals sees every call.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .config import SCENARIOS, RunConfig
from .density import GridMeasure, ReducibleChainError, average_cost, stationary_density
from .eigensolver import (
    ErgodicSolution,
    SingularEvaluationError,
    domain_exhaustion,
    pointwise_residual,
    solve_ergodic_hjb,
)
from .estimates import (
    check_gradient_bound,
    check_polynomial_envelope,
    check_potential_gradient_growth,
    check_value_lower_bounds,
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
from .operators import DIRICHLET_BIG
from .serialize import write_csv, write_field_csv, write_json, write_measure_csv
from .simulate import compare_controls, simulate_average

NUMERICAL_ERRORS = (SingularEvaluationError, LPSolveError, ReducibleChainError)

# Tolerances of the cross-checks: |lambda_bar - lambda| of the measure LP and
# |mu(F) - lambda| of the density, the floor of the random-measure excess
# costs and the relative mismatch of the excess-cost identity.
LP_GAP = 0.05
FP_GAP = 0.05
SWEEP_FLOOR = -1e-8
IDENTITY_REL = 1e-6
# ball radii of the a-priori gradient bound, as in acceptance criterion 9
BOUND_RADII = (0.25, 0.5, 1.0)


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
    refined: ErgodicSolution | None = None  # the problem at h/2, without its factor
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

    Parsing refused every configuration that cannot run, so the exit code is
    0 when all declared checks pass, 1 on a failed check and 3 on a numerical
    failure; the partial report is written in every case.  Each distinct
    warning the stages raise is recorded once under ``results.warnings``, in
    the order raised.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.time()
    run = _Run(config, out)
    code = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for name in SCENARIOS[config.scenario]:
                start = time.perf_counter()
                try:
                    STAGES[name](run)
                finally:
                    run.seconds[name] = time.perf_counter() - start
        except NUMERICAL_ERRORS as exc:
            run.results["error"] = f"{type(exc).__name__}: {exc}"
            code = 3
    run.results["warnings"] = list(dict.fromkeys(str(w.message) for w in caught))
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


def _report_solution(sol: ErgodicSolution) -> dict:
    return {
        "lambda": sol.lam,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "residual_sup": sol.residual_sup,
        "stats": {
            **sol.solver.stats(),
            "iterations": sol.iteration_stats,
            "levels": sol.levels,
        },
    }


def _solve(run: _Run) -> None:
    config, grid, model, potential = run.config, run.grid, run.model, run.potential
    opts = config.solver_options()
    sol = run.sol = solve_ergodic_hjb(grid, model, potential, opts)
    run.results["solve"] = _report_solution(sol)
    run.check("solver_converged", sol.converged, sol.iterations, opts.max_policy_iters)
    du = gradient_inward_fallback(sol.u, grid)
    residual = pointwise_residual(sol, model, potential)
    fields = {"u": sol.u, "du": du, "xi": sol.xi_u, "residual": residual}
    write_field_csv(run.out / "fields.csv", grid, fields)


def _density(run: _Run) -> None:
    sol = run.sol
    factorizations = sol.solver.factorizations
    # the transposed solve refines with the factor of the last evaluation
    density = stationary_density(run.grid, sol.xi_u, sol.solver)
    mu_cost = average_cost(density, sol.xi_u, run.model, run.potential)
    run.results["fokker_planck"] = {
        "mu_cost": mu_cost,
        "stats": {"factorizations": sol.solver.factorizations - factorizations},
    }
    write_field_csv(run.out / "density.csv", run.grid, {"rho": density.rho})
    gap = abs(mu_cost - sol.lam)
    run.check("fp_cost_matches_lambda", gap <= FP_GAP, gap, FP_GAP)


def _lp(run: _Run) -> None:
    config, grid, sol = run.config, run.grid, run.sol
    bound = 1.25 * float(np.abs(sol.xi_u).max())
    count = int(config["lp"]["xi_count"])
    run.atoms = uniform_xi_atoms(bound, count, grid.dim)
    run.problem = assemble_lp(grid, run.atoms, run.model, run.potential)
    run.measure, lam_bar = solve_lp(run.problem)
    spacing_xi = 2.0 * bound / (count - 1)
    dist = minimizer_control_distance(run.measure, sol)
    certificates = dict(run.measure.info)
    run.results["lp"] = {
        "lambda_bar": lam_bar,
        "stats": certificates.pop("stats"),
        "certificates": certificates,
        "minimizer_control_distance": dist,
        "xi_bound": bound,
        "xi_count": count,
    }
    write_measure_csv(run.out / "measure.csv", run.measure)
    gap = abs(lam_bar - sol.lam)
    run.check("lp_matches_policy_iteration", gap <= LP_GAP, gap, LP_GAP)
    reach = spacing_xi + 2 * grid.spacing
    run.check("minimizer_near_optimal_control", dist <= reach, dist, reach)


def _sweep(run: _Run) -> None:
    config, sol, model, potential = run.config, run.sol, run.model, run.potential
    sweep_n = config["checks"]["sweep_size"]
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
    run.check("excess_cost_nonnegative", worst_lhs >= SWEEP_FLOOR, worst_lhs, SWEEP_FLOOR)
    run.check(
        "excess_identity_consistent", worst_mismatch <= IDENTITY_REL, worst_mismatch, IDENTITY_REL
    )


def _refine(run: _Run) -> None:
    """The run's problem solved once more at half the spacing, from the solution
    at h as its coarse level, for the Richardson reference and the estimate audits."""
    fine = build_grid(run.grid.dim, run.grid.radius, run.grid.spacing / 2.0)
    opts = run.config.solver_options()
    refined = run.refined = solve_ergodic_hjb(fine, run.model, run.potential, opts, coarse=run.sol)
    run.results["refine"] = _report_solution(refined)
    run.check("refine_converged", refined.converged, refined.iterations, opts.max_policy_iters)
    refined.solver.drop()  # no later stage solves on the h/2 grid


def _simulate(run: _Run) -> None:
    grid, sol, model, potential = run.grid, run.sol, run.model, run.potential
    # Monte Carlo estimates the continuous cost, and lambda_h carries an O(h)
    # error; the Richardson value 2 lambda_{h/2} - lambda_h removes its first
    # order, so the check compares against that
    reference = 2.0 * run.refined.lam - sol.lam
    params = run.config.sim_params()
    rep = simulate_average(grid, sol.xi_u, model, potential, params)
    run.results["simulate"] = {
        **_report_sim(rep),
        "lambda_refined": run.refined.lam,
        "lambda_reference": reference,
        "stats": {"path_steps": params.path_steps()},
    }
    columns = (np.arange(params.n_paths), rep.path_averages, rep.admissibility, rep.diverged)
    write_csv(
        run.out / "paths.csv",
        ["path", "time_average", "admissibility_integral", "diverged"],
        np.column_stack(columns),
    )
    sigmas = float(run.config["checks"]["sim_sigmas"])
    gap = abs(rep.mean - reference)
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
        "stats": {"path_steps": params.path_steps(len(named))},
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


def _bounds(run: _Run) -> None:
    """The paper's a-priori estimates of u, a local gradient bound and lower
    bounds over f-scaled balls, each fitted at h and refit at h/2."""
    args = (run.sol, run.refined, run.model, run.potential)
    for rep in (check_gradient_bound(*args, BOUND_RADII), check_value_lower_bounds(*args)):
        run.results["estimates"][rep.name] = vars(rep)
        run.check(rep.name, rep.passed, rep.sweep, "stable within 25% at h/2")


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
    # pinned at a large value, the wall imitates solutions that blow up at the
    # boundary of a truncated domain, so lambda(R) falls as R grows
    opts = replace(config.solver_options(), boundary_mode=DIRICHLET_BIG)
    radii, spacing = config["exhaust"]["radii"], config["grid"]["spacing"]
    seq = domain_exhaustion(model, potential, radii, spacing, opts, dim=config["grid"]["dim"])
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
    "refine": _refine,
    "simulate": _simulate,
    "compare": _compare,
    "audit": _audit,
    "bounds": _bounds,
    "headline": _headline,
    "exhaust": _exhaust,
}
