"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them).  The expected
values come from manufactured solutions (u = |x|^2/2 forces the eigenvalue
1 + d for the potential 1 + |x|^g / g), from closed-form stationary laws,
and from independent quadrature oracles computed inside the tests.
"""

import json
import time

import numpy as np
import pytest
from scipy import integrate

from ergolab.cli import main
from ergolab.density import average_cost, stationary_density
from ergolab.config import parse_config
from ergolab.eigensolver import (
    ErgodicSolution,
    SolverOptions,
    domain_exhaustion,
    pde_residual,
    pointwise_residual,
    policy_improvement,
    solve_ergodic_hjb,
)
from ergolab.estimates import (
    check_gradient_bound,
    check_polynomial_envelope,
    check_potential_gradient_growth,
    check_value_lower_bounds,
)
from ergolab.grid import build_grid, gradient_inward_fallback
from ergolab.hamiltonian import (
    drift_power,
    duality_gap,
    exp_abs_potential,
    hamiltonian_value,
    lagrangian_value,
    optimal_control,
    pure_power,
    quadratic_power_potential,
    quartic_sine_potential,
)
from ergolab.measure_lp import (
    assemble_lp,
    excess_cost_identity,
    minimizer_control_distance,
    random_feasible_measure,
    solve_lp,
    uniform_xi_atoms,
)
from ergolab.simulate import SimParams, compare_controls
from oracles import exact_pair_measure, path_count_mismatches


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def solve_1d():
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    grid = build_grid(1, 6.0, 0.01)
    t0 = time.perf_counter()
    sol = solve_ergodic_hjb(grid, model, pot, SolverOptions())
    elapsed = time.perf_counter() - t0
    return grid, model, pot, sol, elapsed


@pytest.fixture(scope="module")
def lp_setup():
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    grid = build_grid(1, 4.0, 0.1)
    t0 = time.perf_counter()
    sol = solve_ergodic_hjb(grid, model, pot, SolverOptions())
    atoms = uniform_xi_atoms(4.0, 41, 1)
    problem = assemble_lp(grid, atoms, model, pot)
    measure, lam_bar = solve_lp(problem)
    elapsed = time.perf_counter() - t0
    return grid, model, pot, sol, atoms, problem, measure, lam_bar, elapsed


def test_criterion_1_manufactured_eigenvalue(solve_1d):
    grid, model, pot, sol, elapsed = solve_1d
    err1 = abs(sol.lam - 2.0)
    ok1 = err1 <= 0.02 and elapsed <= 60.0 and sol.converged

    t0 = time.perf_counter()
    grid2 = build_grid(2, 5.0, 0.05)
    sol2 = solve_ergodic_hjb(grid2, pure_power(2.0), quadratic_power_potential(2.0))
    elapsed2 = time.perf_counter() - t0
    err2 = abs(sol2.lam - 3.0)
    ok2 = err2 <= 0.05 and elapsed2 <= 60.0 and sol2.converged
    report(
        "criterion 1 (manufactured eigenvalue)",
        ok1 and ok2,
        f"1d |lam-2|={err1:.5f} (<=0.02, {elapsed:.1f}s), "
        f"2d |lam-3|={err2:.5f} (<=0.05, {elapsed2:.1f}s)",
    )


def test_criterion_2_lp_cross_check(lp_setup):
    _, _, _, sol, _, _, measure, lam_bar, elapsed = lp_setup
    gap = abs(lam_bar - sol.lam)
    feas = measure.info["primal_feasibility"]
    ok = gap <= 0.05 and feas <= 1e-9 and elapsed <= 120.0
    report(
        "criterion 2 (measure program cross-check)",
        ok,
        f"|lam_bar-lam|={gap:.5f} (<=0.05), feasibility={feas:.2e} (<=1e-9), "
        f"{elapsed:.1f}s (<=120)",
    )


def test_criterion_3_invariant_measure_consistency(solve_1d):
    grid, model, pot, sol, _ = solve_1d
    # independent quadrature oracle for the cost of the analytic optimal law
    z = integrate.quad(lambda t: np.exp(-abs(t) ** 1.5 / 1.5), -np.inf, np.inf)[0]
    moment = (
        integrate.quad(
            lambda t: abs(t) ** 1.5 * np.exp(-abs(t) ** 1.5 / 1.5), -np.inf, np.inf
        )[0]
        / z
    )
    oracle = 1.0 + moment  # f-part contributes 1 + moment/1.5, control part moment/3
    quad_err = abs(oracle - 2.0)

    density = stationary_density(grid, sol.xi_u)
    mu_cost = average_cost(density, sol.xi_u, model, pot)
    gap = abs(mu_cost - sol.lam)

    x = grid.coords[:, 0]
    analytic = np.exp(-np.abs(x) ** 1.5 / 1.5) / z
    l1 = float(np.abs(density.rho - analytic).sum() * grid.spacing)
    ok = quad_err <= 1e-6 and gap <= 0.05 and l1 <= 0.05
    report(
        "criterion 3 (invariant-measure consistency)",
        ok,
        f"quadrature oracle err={quad_err:.2e} (<=1e-6), "
        f"|mu(F)-lam|={gap:.2e} (<=0.05), L1={l1:.4f} (<=0.05)",
    )


def test_criterion_4_excess_cost_sweep(lp_setup):
    grid, model, pot, sol, atoms, _, _, _, _ = lp_setup
    worst_lhs = np.inf
    worst_rel = 0.0
    for seed in range(100):
        mu = random_feasible_measure(grid, atoms, 10_000 + seed)
        lhs, rhs = excess_cost_identity(mu, sol)
        worst_lhs = min(worst_lhs, lhs)
        worst_rel = max(worst_rel, abs(lhs - rhs) / (1 + abs(lhs)))
    ok = worst_lhs >= -1e-8 and worst_rel <= 1e-6
    report(
        "criterion 4 (excess-cost positivity sweep)",
        ok,
        f"min excess={worst_lhs:.4f} (>=-1e-8), "
        f"max relative identity mismatch={worst_rel:.2e} (<=1e-6), 100 seeds",
    )


def test_criterion_5_singleton_minimizer(lp_setup):
    grid, _, _, sol, atoms, _, measure, _, _ = lp_setup
    dist = minimizer_control_distance(measure, sol)
    xi_spacing = float(atoms[1, 0] - atoms[0, 0])
    tol = xi_spacing + 2 * grid.spacing
    ok = dist <= tol
    report(
        "criterion 5 (singleton minimizer)",
        ok,
        f"control distance={dist:.4f} (<= {tol:.3f} = atom spacing + 2h)",
    )


@pytest.mark.slow
def test_criterion_6_simulation():
    # solved on a wider box than criterion 1: paths under xi_u and 2*xi_u
    # stay well inside the wall at |x| = 10 (they peak near 6.8 and 4.2), so
    # their reports do not depend on it, while paths under the halved control
    # reach the wall and reflect there, as the density oracle's chain does
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    grid = build_grid(1, 10.0, 0.02)
    sol = solve_ergodic_hjb(grid, model, pot, SolverOptions())
    params = SimParams(
        horizon=2000.0, timestep=1e-3, n_paths=16, seed=2024, burn_in=200.0
    )
    controls = [
        ("xi_u", sol.xi_u),
        ("0.5*xi_u", 0.5 * sol.xi_u),
        ("2*xi_u", 2.0 * sol.xi_u),
    ]
    t0 = time.perf_counter()
    comp = compare_controls(grid, controls, model, pot, params)
    per_run = (time.perf_counter() - t0) / len(controls)

    rep_opt = comp.reports["xi_u"]
    ok = per_run <= 300.0
    detail = [f"per-run {per_run:.0f}s (<=300)"]
    ok &= rep_opt.n_divergent == 0
    ok &= abs(rep_opt.mean - 2.0) <= 3 * rep_opt.standard_error
    detail.append(
        f"xi_u mean={rep_opt.mean:.4f}+-{rep_opt.standard_error:.4f} (3SE of 2)"
    )
    for name, mult in (("0.5*xi_u", 0.5), ("2*xi_u", 2.0)):
        rho = stationary_density(grid, mult * sol.xi_u)
        oracle = average_cost(rho, mult * sol.xi_u, model, pot)
        rep = comp.reports[name]
        ok &= rep.n_divergent == 0
        ok &= abs(rep.mean - oracle) <= 3 * rep.standard_error
        ok &= rep.mean - 2.0 > 3 * rep.standard_error
        detail.append(f"{name} mean={rep.mean:.4f} oracle={oracle:.4f}")
    ok &= comp.pathwise_dominates("xi_u")  # within 5 standard errors
    detail.append("pathwise 5SE ordering holds")
    ratio = float(np.mean(rep_opt.admissibility_ratio[~rep_opt.diverged]))
    ok &= abs(ratio - 1.0) <= 0.10
    detail.append(f"admissibility window ratio={ratio:.3f} (within 10%)")
    report("criterion 6 (pathwise simulation)", bool(ok), "; ".join(detail))


def test_criterion_7_domain_exhaustion():
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    opts = SolverOptions(boundary_mode="dirichlet_big")  # pinned at M = 1e6
    seq = domain_exhaustion(model, pot, [3.0, 4.0, 5.0, 6.0], 0.02, opts)
    lams = [lam for _, lam in seq]
    noninc = all(b <= a + 1e-8 for a, b in zip(lams, lams[1:]))
    cauchy = abs(lams[3] - lams[2]) < abs(lams[1] - lams[0])
    ok = noninc and cauchy
    report(
        "criterion 7 (domain exhaustion)",
        ok,
        f"lam(R)={[f'{v:.6f}' for v in lams]}, nonincreasing={noninc}, "
        f"|d(6,5)|<|d(4,3)|={cauchy}",
    )


def test_criterion_8_duality_suite():
    rng = np.random.default_rng(8)
    models = [
        pure_power(1.3),
        pure_power(1.5),
        pure_power(2.0),
        pure_power(3.0),
        drift_power(2.0, lambda x: np.sin(x)),
    ]
    n = 2000
    min_gap = np.inf
    max_opt_gap = 0.0
    for m in models:
        x = rng.uniform(-5, 5, size=(n, 2))
        p = rng.normal(size=(n, 2)) * rng.uniform(0, 6, size=(n, 1))
        xi = rng.normal(size=(n, 2)) * rng.uniform(0, 6, size=(n, 1))
        gaps = np.atleast_1d(duality_gap(m, x, xi, p))
        min_gap = min(min_gap, float(gaps.min()))
        best = np.atleast_2d(optimal_control(m, x, p))
        og = np.atleast_1d(duality_gap(m, x, best, p))
        max_opt_gap = max(max_opt_gap, float(np.abs(og).max()))

    # grid conjugate maximum against the closed form
    m15 = pure_power(1.5)
    xs = np.linspace(-4, 4, 161)
    spacing = xs[1] - xs[0]
    lvals = np.atleast_1d(lagrangian_value(m15, np.zeros((xs.size, 1)), xs[:, None]))
    legendre_ok = True
    for pv in np.linspace(-10, 10, 41):
        approx = np.max(xs * pv - lvals)
        exact = hamiltonian_value(m15, np.zeros(1), np.array([pv]))
        legendre_ok &= abs(approx - exact) <= 2 * spacing * max(abs(pv), 1e-12) + 1e-12
    ok = min_gap >= -1e-9 and max_opt_gap <= 1e-9 and legendre_ok
    report(
        "criterion 8 (convex duality suite)",
        bool(ok),
        f"min gap={min_gap:.2e} (>=-1e-9), max gap at maximizer={max_opt_gap:.2e} "
        f"(<=1e-9), grid conjugate bound={legendre_ok} (10^4 samples)",
    )


def test_criterion_9_estimate_audits():
    g_fine = build_grid(1, 6.0, 0.01)
    a1_power = check_potential_gradient_growth(
        quadratic_power_potential(1.5), g_fine, 1.5
    )
    g_wide = build_grid(1, 12.0, 0.05)
    a1_exp = check_potential_gradient_growth(exp_abs_potential(), g_wide, 1.5)
    ih2_exp = check_polynomial_envelope(exp_abs_potential(), g_wide)
    a1_quartic = check_potential_gradient_growth(
        quartic_sine_potential(), g_fine, 1.5
    )

    g = build_grid(1, 6.0, 0.02)
    pot = quadratic_power_potential(1.5)
    sol = solve_ergodic_hjb(g, pure_power(1.5), pot)
    refined = solve_ergodic_hjb(build_grid(1, 6.0, 0.01), pure_power(1.5), pot, coarse=sol)
    grad = check_gradient_bound(sol, refined, [0.25, 0.5, 1.0])
    lower = check_value_lower_bounds(sol, refined)
    ok = (
        a1_power.passed
        and a1_exp.passed
        and not ih2_exp.passed
        and not a1_quartic.passed
        and grad.passed
        and lower.passed
    )
    report(
        "criterion 9 (estimate audits)",
        ok,
        f"gradient growth: power={a1_power.passed}, exp={a1_exp.passed}, "
        f"quartic_sine={a1_quartic.passed} (expected fail); "
        f"envelope exp={ih2_exp.passed} (expected fail); "
        f"gradient bound sweep={[f'{v:.3f}' for v in grad.sweep]}, "
        f"lower bounds M0 sweep={[f'{v:.3f}' for v in lower.sweep]}",
    )


def test_criterion_10_determinism(tmp_path):
    args = [
        "--set", "grid.radius=4.0",
        "--set", "grid.spacing=0.1",
        "--set", "lp.xi_count=21",
        "--set", "sde.horizon=20.0",
        "--set", "sde.n_paths=4",
        "--set", "checks.sweep_size=3",
        "--set", "checks.sim_sigmas=6.0",
        "--seed", "17",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    code_a = main(["full_verify", "--out-dir", str(a)] + args)
    code_b = main(["full_verify", "--out-dir", str(b)] + args)
    pa = json.loads((a / "summary.json").read_text())
    pb = json.loads((b / "summary.json").read_text())
    pa.pop("timing"), pb.pop("timing")
    same_json = pa == pb
    same_files = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("fields.csv", "density.csv", "measure.csv", "paths.csv")
    )

    # at the API level, path p's statistics are the same bits among 8 paths
    # as among 1, 2, 4 or 7, in 1d and in 2d with the sine drift
    pot = quadratic_power_potential(1.5)
    mismatches = []
    for grid, model in (
        (build_grid(1, 4.0, 0.1), pure_power(1.5)),
        (build_grid(2, 2.0, 0.2), drift_power(1.5, lambda x: 0.5 * np.sin(x))),
    ):
        sol = solve_ergodic_hjb(grid, model, pot)
        params = SimParams(
            horizon=5.0, timestep=1e-3, n_paths=8, seed=5, burn_in=1.0, x0=(0.0,) * grid.dim
        )
        mismatches += path_count_mismatches(grid, sol.xi_u, model, pot, params)
    ok = code_a == 0 and code_b == 0 and same_json and same_files and not mismatches
    report(
        "criterion 10 (bitwise determinism)",
        ok,
        f"report identical={same_json}, artifacts identical={same_files}, "
        f"path-count mismatches={mismatches}",
    )


@pytest.mark.parametrize(
    "overrides",
    [[], ["--set", "grid.dim=2", "--set", "grid.radius=2.0", "--set", "grid.spacing=0.1"]],
    ids=["1d", "2d"],
)
def test_fields_csv_rebuilds_the_solution(tmp_path, overrides):
    # fields.csv holds the coordinates and u alone: with the lambda and config
    # of summary.json they rebuild the solution, and the gradient, control and
    # pointwise residual it no longer stores come out as the same bits as
    # those of a solve in this process
    assert main(["fokker_planck", "--out-dir", str(tmp_path)] + overrides) == 0
    payload = json.loads((tmp_path / "summary.json").read_text())
    config = parse_config(json.dumps(payload["config"]))
    grid, model, pot = config.grid(), config.model(), config.potential()
    with open(tmp_path / "fields.csv") as fh:
        header = fh.readline().strip()
    assert header == ",".join([f"x{a}" for a in range(grid.dim)] + ["u"])
    table = np.loadtxt(tmp_path / "fields.csv", delimiter=",", skiprows=1, ndmin=2)
    solve = payload["results"]["solve"]
    rebuilt = ErgodicSolution(
        u=table[:, -1], lam=solve["lambda"], grid=grid, model=model, potential=pot, converged=True
    )
    sol = solve_ergodic_hjb(grid, model, pot, config.solver_options())
    assert np.array_equal(table[:, :-1], grid.coords)
    assert np.array_equal(rebuilt.u, sol.u) and rebuilt.lam == sol.lam
    du = gradient_inward_fallback(rebuilt.u, grid)
    assert np.array_equal(du, gradient_inward_fallback(sol.u, grid))
    assert np.array_equal(policy_improvement(grid, rebuilt.u, model), sol.xi_u)
    assert np.array_equal(pointwise_residual(rebuilt), pointwise_residual(sol))
    assert pde_residual(rebuilt) == solve["residual_sup"]
