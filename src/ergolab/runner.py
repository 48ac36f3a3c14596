"""Scenario orchestration: wire the solver modules together, write artifacts,
assemble the run report with its pass/fail checks."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig
from .density import ReducibleChainError, average_cost, stationary_density
from .eigensolver import (
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
from .grid import build_grid, gradient_inward_fallback
from .measure_lp import (
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
from .simulate import SimParams, compare_controls, simulate_average

NUMERICAL_ERRORS = (SingularEvaluationError, LPSolveError, ReducibleChainError)


@dataclass
class RunReport:
    payload: dict
    exit_code: int


def _sim_params(config: RunConfig, dim: int) -> SimParams:
    s = config["sde"]
    burn = s["burn_in"] if s["burn_in"] is not None else s["horizon"] / 10.0
    x0 = tuple(s["x0"]) if s["x0"] is not None else (0.0,) * dim
    return SimParams(
        horizon=float(s["horizon"]),
        timestep=float(s["timestep"]),
        n_paths=int(s["n_paths"]),
        seed=config.seed,
        x0=x0,
        burn_in=float(burn),
        safety_factor=float(s["safety_factor"]),
        workers=int(s["workers"]),
    )


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
    results: dict = {}
    checks: dict = {}
    code = 0
    try:
        _dispatch(config, out, results, checks)
    except (ConfigError, *NUMERICAL_ERRORS) as exc:
        results["error"] = f"{type(exc).__name__}: {exc}"
        code = 2 if isinstance(exc, ConfigError) else 3
    if code == 0 and any(not c["passed"] for c in checks.values()):
        code = 1
    payload = {
        "version": __version__,
        "scenario": config.scenario,
        "seed": config.seed,
        "config": config.raw,
        "results": results,
        "checks": checks,
        "timing": {"wall_seconds": time.time() - t_start},
        "exit_code": code,
    }
    write_json(out / "summary.json", payload)
    return RunReport(payload=payload, exit_code=code)


def _check(checks: dict, name: str, passed: bool, value, tolerance) -> None:
    checks[name] = {
        "passed": bool(passed),
        "value": value,
        "tolerance": tolerance,
    }


def _dispatch(config: RunConfig, out: Path, results: dict, checks: dict) -> None:
    scenario = config.scenario
    if scenario == "check":
        _audit_potential(
            config.grid(), float(config["model"]["gamma"]), config.potential(), results, checks
        )
        return
    if scenario == "exhaust":
        _run_exhaust(config, out, results, checks)
        return

    grid = config.grid()
    model = config.model()
    potential = config.potential()
    opts = config.solver_options()
    sol = solve_ergodic_hjb(grid, model, potential, opts)
    results["solve"] = {
        "lambda": sol.lam,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "residual_sup": sol.residual_sup,
        "lambda_history": sol.lambda_history,
    }
    _check(checks, "solver_converged", sol.converged, sol.iterations, opts.max_policy_iters)
    if config["output"]["write_fields"]:
        du = gradient_inward_fallback(sol.u, grid)
        residual = pointwise_residual(sol, model, potential)
        fields = {"u": sol.u, "du": du, "xi": sol.xi_u, "residual": residual}
        write_field_csv(out / "fields.csv", grid, fields)
    if scenario == "solve":
        return

    if scenario in ("fokker_planck", "full_verify"):
        density = stationary_density(grid, sol.xi_u)
        mu_cost = average_cost(density, sol.xi_u, model, potential)
        results["fokker_planck"] = {"mu_cost": mu_cost}
        if config["output"]["write_fields"]:
            write_field_csv(out / "density.csv", grid, {"rho": density.rho})
        _check(
            checks,
            "fp_cost_matches_lambda",
            abs(mu_cost - sol.lam) <= config["checks"]["fp_gap"],
            abs(mu_cost - sol.lam),
            config["checks"]["fp_gap"],
        )
        if scenario == "fokker_planck":
            return

    if scenario in ("lp", "full_verify"):
        bound = config["lp"]["xi_bound"]
        if bound is None:
            bound = 1.25 * float(np.abs(sol.xi_u).max())
        atoms = uniform_xi_atoms(float(bound), int(config["lp"]["xi_count"]), grid.dim)
        problem = assemble_lp(grid, atoms, model, potential)
        measure, lam_bar = solve_lp(problem)
        spacing_xi = 2.0 * float(bound) / (int(config["lp"]["xi_count"]) - 1)
        dist = minimizer_control_distance(measure, sol)
        certificates = dict(measure.info)
        results["lp"] = {
            "lambda_bar": lam_bar,
            "stats": certificates.pop("stats"),
            "certificates": certificates,
            "minimizer_control_distance": dist,
            "xi_bound": float(bound),
            "xi_count": int(config["lp"]["xi_count"]),
        }
        write_measure_csv(out / "measure.csv", measure)
        _check(
            checks,
            "lp_matches_policy_iteration",
            abs(lam_bar - sol.lam) <= config["checks"]["lp_gap"],
            abs(lam_bar - sol.lam),
            config["checks"]["lp_gap"],
        )
        _check(
            checks,
            "minimizer_near_optimal_control",
            dist <= spacing_xi + 2 * grid.spacing,
            dist,
            spacing_xi + 2 * grid.spacing,
        )
        if scenario == "full_verify":
            sweep_n = int(config["checks"]["sweep_size"])
            floor = float(config["checks"]["sweep_floor"])
            rel = float(config["checks"]["identity_rel"])
            worst_lhs = np.inf
            worst_mismatch = 0.0
            for s in range(sweep_n):
                mu_rand = random_feasible_measure(grid, atoms, config.seed + s)
                lhs, rhs = excess_cost_identity(mu_rand, sol, model, potential)
                worst_lhs = min(worst_lhs, lhs)
                worst_mismatch = max(worst_mismatch, abs(lhs - rhs) / (1 + abs(lhs)))
            lhs_star, rhs_star = excess_cost_identity(measure, sol, model, potential)
            results["measure_sweep"] = {
                "n": sweep_n,
                "min_excess": worst_lhs,
                "max_identity_mismatch": worst_mismatch,
                "optimal_measure_excess": lhs_star,
                "optimal_measure_gap_integral": rhs_star,
                "optimal_measure_feasibility": feasibility_violation(measure, problem),
            }
            _check(checks, "excess_cost_nonnegative", worst_lhs >= floor, worst_lhs, floor)
            _check(
                checks,
                "excess_identity_consistent",
                worst_mismatch <= rel,
                worst_mismatch,
                rel,
            )
        if scenario == "lp":
            return

    if scenario in ("simulate", "full_verify"):
        params = _sim_params(config, grid.dim)
        rep = simulate_average(grid, sol.xi_u, model, potential, params, "xi_u")
        results["simulate"] = _report_sim(rep)
        write_csv(
            out / "paths.csv",
            ["path", "time_average", "admissibility_integral", "diverged"],
            [
                (i, rep.path_averages[i], rep.admissibility[i], int(rep.diverged[i]))
                for i in range(params.n_paths)
            ],
        )
        sigmas = float(config["checks"]["sim_sigmas"])
        ok = (
            rep.n_divergent == 0
            and abs(rep.mean - sol.lam) <= sigmas * rep.standard_error
        )
        _check(
            checks,
            "simulation_matches_lambda",
            ok,
            abs(rep.mean - sol.lam),
            sigmas * rep.standard_error,
        )
        if scenario == "simulate":
            return

    if scenario in ("compare", "full_verify"):
        params = _sim_params(config, grid.dim)
        named = [
            (f"{m:g}*xi_u", m * sol.xi_u) for m in config["compare"]["multipliers"]
        ]
        comp = compare_controls(grid, named, model, potential, params)
        results["compare"] = {
            "order": comp.order,
            "reports": {k: _report_sim(r) for k, r in comp.reports.items()},
            "pathwise_reference_first": comp.pathwise_dominates(named[0][0]),
        }
        _check(
            checks,
            "optimal_control_ranks_first",
            comp.order[0] == named[0][0],
            comp.order,
            "xi_u first",
        )
        if scenario == "compare":
            return

    if scenario == "full_verify":
        _audit_potential(grid, model.gamma, potential, results, checks)
        results["estimates"]["growth_constants"] = fit_hamiltonian_growth(
            model, grid.dim, config.seed
        )
        sim = results.get("simulate", {})
        results["headline"] = {
            "lambda_policy_iteration": results["solve"]["lambda"],
            "lambda_lp": results["lp"]["lambda_bar"],
            "mu_cost_fokker_planck": results["fokker_planck"]["mu_cost"],
            "simulation_mean": sim.get("mean"),
            "simulation_se": sim.get("standard_error"),
        }


def _audit_potential(grid, gamma: float, potential, results: dict, checks: dict) -> None:
    """Growth and envelope audits of the potential, shared by the ``check``
    scenario and ``full_verify``."""
    audit = check_potential_gradient_growth(potential, grid, gamma)
    envelope = check_polynomial_envelope(potential, grid)
    results["estimates"] = {
        "potential_gradient_growth": vars(audit),
        "polynomial_envelope": vars(envelope),
    }
    _check(
        checks,
        "potential_gradient_growth",
        audit.passed,
        audit.fitted_constant,
        "bounded sweep",
    )


def _run_exhaust(config: RunConfig, out: Path, results: dict, checks: dict) -> None:
    model = config.model()
    potential = config.potential()
    opts = config.solver_options(boundary_mode=config["exhaust"]["boundary_mode"])
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
    results["exhaustion"] = {"sequence": seq, "successive_differences": diffs}
    write_csv(
        out / "exhaustion.csv",
        ["radius", "lambda"],
        [(r, lam) for r, lam in seq],
    )
    _check(
        checks,
        "exhaustion_nonincreasing",
        all(d <= 1e-8 for d in diffs),
        diffs,
        1e-8,
    )
