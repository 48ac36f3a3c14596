import warnings

import numpy as np
import pytest

import ergolab.density
import ergolab.eigensolver as eigensolver
import ergolab.operators as operators
from ergolab.density import ReducibleChainError, average_cost, stationary_density
from ergolab.eigensolver import (
    SingularEvaluationError,
    SolverOptions,
    domain_exhaustion,
    pde_residual,
    pointwise_residual,
    policy_evaluation,
    policy_improvement,
    solve_ergodic_hjb,
)
from ergolab.grid import build_grid
from ergolab.hamiltonian import (
    constant_potential,
    lagrangian_value,
    pure_power,
    quadratic_power_potential,
)
from ergolab.operators import BorderedSolver
from oracles import tabulated_potential


def solve_scaled_instance(solution, model, potential, scale, opts=SolverOptions()):
    """Solve the zoomed-in instance used by the rescaling consistency check.

    Builds the unit-scaled grid of radius R/scale and spacing h/scale, with
    potential scale^(g*) (f(scale*y) - lambda), whose solution should match
    scale^((2-gamma)/(gamma-1)) u(scale*y) up to a constant and O(h).
    """
    grid = solution.grid
    sub = build_grid(grid.dim, grid.radius / scale, grid.spacing / scale)
    fvals = potential.values(sub.coords * scale)
    f_scaled = scale**model.gamma_star * (fvals - solution.lam)
    pot = tabulated_potential(sub, f_scaled)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scaled potential is legitimately non-coercive near 0
        scaled = solve_ergodic_hjb(sub, model, pot, opts)
    return scaled, sub


@pytest.fixture(scope="module")
def manufactured_1d():
    g = build_grid(1, 6.0, 0.02)
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    sol = solve_ergodic_hjb(g, model, pot)
    return g, model, pot, sol


def test_policy_evaluation_constant_cost():
    g = build_grid(1, 4.0, 0.1)
    u, lam = policy_evaluation(g, np.zeros((g.num_nodes, 1)), np.full(g.num_nodes, 3.7))
    assert lam == pytest.approx(3.7, abs=1e-12)
    assert np.abs(u).max() <= 1e-9


def test_policy_evaluation_ou_oracle():
    # control x gives the unit-variance stationary law; cost 1 + x^2 averages to 2
    g = build_grid(1, 8.0, 0.01)
    ctrl = np.zeros((g.num_nodes, 1))
    ctrl[:, 0] = g.coords[:, 0]
    _, lam = policy_evaluation(g, ctrl, 1.0 + g.coords[:, 0] ** 2)
    assert lam == pytest.approx(2.0, abs=0.03)
    _, lam_odd = policy_evaluation(g, ctrl, g.coords[:, 0].copy())
    assert abs(lam_odd) <= 1e-8


def test_fine_2d_solve_meets_default_eval_tolerance():
    # at 160,801 nodes the direct solve alone leaves a relative residual of
    # 2.3e-10 in evaluation 2; one refinement step with the same factor
    # brings it under the default 1e-10 instead of failing the run
    g = build_grid(2, 5.0, 0.025)
    model, pot = pure_power(1.5), quadratic_power_potential(1.5)
    sol = solve_ergodic_hjb(g, model, pot)
    assert sol.converged
    assert abs(sol.lam - 3.0) <= 0.05
    # exact zero row sums keep the density's adjoint residual under
    # ADJOINT_TOL here; roundoff in them once left it at 2.8e-10
    density = stationary_density(g, sol.xi_u, sol.solver)
    assert abs(average_cost(density, sol.xi_u, model, pot) - sol.lam) <= 1e-10


def test_one_factor_serves_several_evaluations():
    g = build_grid(2, 3.0, 0.1)
    model, pot = pure_power(1.5), quadratic_power_potential(1.5)
    sol = solve_ergodic_hjb(g, model, pot)
    stats = sol.solver.stats()
    assert sol.converged
    assert 1 <= stats["factorizations"] < sol.iterations
    # the same iterations with a fresh factor in every evaluation
    fvals = pot.on_grid(g)
    control = np.zeros((g.num_nodes, 2))
    for _ in range(sol.iterations):
        cost = fvals + lagrangian_value(model, g.coords, control)
        u, lam = policy_evaluation(g, control, cost)
        control = policy_improvement(g, u, model)
    assert abs(sol.lam - lam) <= 1e-10
    assert np.abs(sol.u - (u - u.min() + 1.0)).max() <= 1e-9


def test_held_factor_that_stalls_is_replaced():
    g = build_grid(2, 3.0, 0.1)
    cost = 1.0 + (g.coords**2).sum(axis=1)
    solver = BorderedSolver()
    policy_evaluation(g, np.zeros((g.num_nodes, 2)), cost, solver=solver)
    far = -3.0 * g.coords
    u, lam = policy_evaluation(g, far, cost, solver=solver)
    assert solver.factorizations == 2
    assert not solver.reused
    u_fresh, lam_fresh = policy_evaluation(g, far, cost)
    tol = SolverOptions().eval_tolerance
    assert abs(lam - lam_fresh) <= tol
    assert np.abs(u - u_fresh).max() <= tol


def test_fresh_factor_that_misses_the_tolerance_raises():
    g = build_grid(2, 3.0, 0.1)
    A, _ = operators.assemble_generator(g, np.zeros((g.num_nodes, 2)))
    b = np.append(1.0 + (g.coords[g.interior_ids] ** 2).sum(axis=1), 0.0)
    solver = BorderedSolver()
    with pytest.raises(RuntimeError, match="exceeds tolerance"):
        solver.solve(g, A, b, 1e-30)
    assert solver.factorizations == 1
    assert 1e-30 < solver.residual < 1e-12  # refined until it stalled
    # a NaN fails the held factor, then the fresh one
    b[0] = np.nan
    with pytest.raises(RuntimeError, match="residual nan"):
        solver.solve(g, A, b, 1e-10)
    assert solver.factorizations == 2


@pytest.mark.parametrize(
    "scale, tol",
    [
        (1.0, 1e-30),  # a residual of about 1e-13 misses the tolerance
        (1e306, 1e-10),  # the solution overflows, and the residual is NaN
    ],
)
def test_policy_evaluation_reports_a_refused_solve(scale, tol):
    g = build_grid(1, 4.0, 0.1)
    cost = scale * (g.coords[:, 0] / g.radius) ** 2
    with pytest.raises(SingularEvaluationError, match="exceeds tolerance"):
        policy_evaluation(
            g, np.zeros((g.num_nodes, 1)), cost, SolverOptions(eval_tolerance=tol)
        )


def test_stationary_density_reports_a_refused_solve(monkeypatch):
    g = build_grid(1, 4.0, 0.1)
    monkeypatch.setattr(ergolab.density, "ADJOINT_TOL", 1e-30)
    with pytest.raises(ReducibleChainError, match="adjoint solve failed"):
        stationary_density(g, np.zeros((g.num_nodes, 1)))


def test_coarse_start_matches_a_cold_solve(monkeypatch):
    # 101^2 nodes: the 0.2 grid (51^2 = 2,601 nodes) is solved first, and the
    # 0.4 grid (625) is below the threshold
    g = build_grid(2, 5.0, 0.1)
    model, pot = pure_power(1.5), quadratic_power_potential(1.5)
    warm = solve_ergodic_hjb(g, model, pot)
    assert [level["nodes"] for level in warm.levels] == [51**2]
    assert warm.solver.factorizations == 1
    monkeypatch.setattr(eigensolver, "COARSE_MIN_NODES", 10**9)
    cold = solve_ergodic_hjb(g, model, pot)
    assert cold.levels == []
    assert warm.converged and cold.converged
    assert warm.iterations < cold.iterations
    assert abs(warm.lam - cold.lam) <= 1e-10
    assert np.abs(warm.u - cold.u).max() <= 1e-9


def test_1d_default_solve_has_no_coarse_level():
    # 161 nodes, 81 at 2h: the zero-control start, and its lambda bit for bit
    g = build_grid(1, 4.0, 0.05)
    sol = solve_ergodic_hjb(g, pure_power(1.5), quadratic_power_potential(1.5))
    assert sol.lam == 1.9908541025015336
    assert sol.levels == []


def test_1d_coarse_start_matches_a_cold_solve(monkeypatch):
    # 4,001 nodes: the 2h grid (2,001 nodes) is solved first and prolonged
    # by linear interpolation
    g = build_grid(1, 6.0, 0.003)
    model, pot = pure_power(1.5), quadratic_power_potential(1.5)
    warm = solve_ergodic_hjb(g, model, pot)
    assert [level["nodes"] for level in warm.levels] == [2001]
    monkeypatch.setattr(eigensolver, "COARSE_MIN_NODES", 10**9)
    cold = solve_ergodic_hjb(g, model, pot)
    assert cold.levels == []
    assert warm.converged and cold.converged
    assert warm.iterations < cold.iterations
    assert abs(warm.lam - cold.lam) <= 1e-9
    assert np.abs(warm.u - cold.u).max() <= 1e-9


@pytest.mark.parametrize("failure", ["raises", "does_not_converge"])
def test_failed_coarse_level_falls_back_to_the_zero_control(monkeypatch, failure):
    # 101^2 nodes: the 0.2 grid (2,601 nodes) is a coarse level
    g = build_grid(2, 5.0, 0.1)
    model, pot = pure_power(1.5), quadratic_power_potential(1.5)
    solve = eigensolver.solve_ergodic_hjb

    def coarse_level(grid, *args, **kwargs):  # the recursive call goes here
        warnings.warn("raised on a coarse level")
        if failure == "raises":
            raise SingularEvaluationError("coarse level")
        sol = solve(grid, *args, **kwargs)
        sol.converged = False
        return sol

    monkeypatch.setattr(eigensolver, "solve_ergodic_hjb", coarse_level)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve(g, model, pot)
    assert caught == []
    assert sol.levels == []
    monkeypatch.setattr(eigensolver, "COARSE_MIN_NODES", 10**9)
    cold = solve(g, model, pot)
    assert sol.lam == cold.lam
    assert np.array_equal(sol.u, cold.u)


def test_pinned_wall_keeps_the_zero_control_start(monkeypatch):
    # policy iteration under a pinned wall has more than one fixed point, and
    # a coarse start would pick another one than the zero control does
    monkeypatch.setattr(eigensolver, "COARSE_MIN_NODES", 200)
    g = build_grid(2, 2.0, 0.1)  # 41^2 nodes, 21^2 at 2h and 11^2 at 4h
    model, pot = pure_power(1.5), quadratic_power_potential(1.5)
    pinned = SolverOptions(boundary_mode="dirichlet_big")
    assert solve_ergodic_hjb(g, model, pot, pinned).levels == []
    assert len(solve_ergodic_hjb(g, model, pot).levels) == 1


def test_coarse_solution_must_be_on_the_2h_grid():
    model, pot = pure_power(1.5), quadratic_power_potential(1.5)
    other = solve_ergodic_hjb(build_grid(2, 3.0, 0.2), model, pot)
    with pytest.raises(ValueError, match="coarse solution"):
        solve_ergodic_hjb(build_grid(2, 3.0, 0.05), model, pot, coarse=other)


def test_policy_improvement_quadratic():
    g = build_grid(1, 4.0, 0.1)
    x = g.coords[:, 0]
    u = x**2 / 2
    xi = policy_improvement(g, u, pure_power(2.0))
    inner = g.interior_mask.copy()
    inner[1] = inner[-2] = False  # one-sided fallback biases the wall-adjacent nodes
    assert np.allclose(xi[inner, 0], x[inner], atol=1e-12)
    assert np.allclose(policy_improvement(g, np.ones(g.num_nodes), pure_power(1.5)), 0.0)
    xi15 = policy_improvement(g, u, pure_power(1.5))
    node = np.argmin(np.abs(x - 4 + 2 * g.spacing))  # away from the wall
    p = x[node]
    assert xi15[node, 0] == pytest.approx(np.sign(p) * abs(p) ** 0.5, abs=1e-12)


def test_manufactured_solution_1d(manufactured_1d):
    g, model, pot, sol = manufactured_1d
    assert sol.converged
    assert sol.lam == pytest.approx(2.0, abs=0.02)
    assert sol.u.min() == 1.0
    assert g.interior_mask[np.argmin(sol.u)]
    x = g.coords[:, 0]
    target = x**2 / 2
    inner = np.abs(x) <= 3.0
    diff = (sol.u - 1.0) - (target - target.min())
    assert np.abs(diff[inner]).max() <= 0.05
    xi_exact = np.sign(x) * np.abs(x) ** 0.5
    assert np.abs(sol.xi_u[inner, 0] - xi_exact[inner]).max() <= 0.05


def test_manufactured_solution_1d_quadratic_hamiltonian():
    g = build_grid(1, 6.0, 0.02)
    sol = solve_ergodic_hjb(g, pure_power(2.0), quadratic_power_potential(2.0))
    assert sol.lam == pytest.approx(2.0, abs=0.02)
    x = g.coords[:, 0]
    inner = np.abs(x) <= 3.0
    assert np.abs(sol.xi_u[inner, 0] - x[inner]).max() <= 0.05


def test_lambda_sequence_nonincreasing(manufactured_1d):
    # exact-argmax improvement would give monotone decrease to rounding; the
    # centered-gradient improvement admits one O(h * step) bump near
    # convergence, so the slack is 1e-7 rather than the linear-solve residual
    _, _, _, sol = manufactured_1d
    h = [it["lambda"] for it in sol.iteration_stats]
    slack = 1e-7 * (1 + abs(sol.lam))
    assert all(h[i + 1] <= h[i] + slack for i in range(1, len(h) - 1))


def test_boundary_modes_agree(manufactured_1d, monkeypatch):
    g, model, pot, sol = manufactured_1d
    opts = SolverOptions(boundary_mode="dirichlet_big")
    for M in (1e3, 1e6):  # a pinned value far below the shipped M = 1e6 too
        monkeypatch.setattr(operators, "DIRICHLET_VALUE", M)
        monkeypatch.setattr(eigensolver, "DIRICHLET_VALUE", M)
        lam_d = solve_ergodic_hjb(g, model, pot, opts).lam
        assert abs(lam_d - sol.lam) <= 10 * g.spacing


def test_pde_residual_injected_exact(manufactured_1d):
    g, model, pot, sol = manufactured_1d
    from ergolab.eigensolver import ErgodicSolution

    x = g.coords[:, 0]
    exact = ErgodicSolution(
        u=x**2 / 2 + 1.0,
        lam=2.0,
        xi_u=sol.xi_u,
        residual_sup=0.0,
        iterations=0,
        grid=g,
        converged=True,
    )
    res = pde_residual(exact, model, pot)
    # one-sided wall gradients contribute the O(h) defect; centered stencils
    # are exact on the quadratic elsewhere
    assert 0.0 < res <= 3 * g.spacing
    field = pointwise_residual(exact, model, pot)
    inner = np.abs(x) <= g.radius - 2 * g.spacing
    assert np.abs(field[inner]).max() <= 1e-10


def test_pde_residual_converged(manufactured_1d):
    g, _, _, sol = manufactured_1d
    assert sol.residual_sup <= 10 * 1e-10 + 6 * g.spacing


def test_pde_residual_perturbation(manufactured_1d):
    g, model, pot, sol = manufactured_1d
    from ergolab.eigensolver import ErgodicSolution

    eps = 1e-3
    u2 = sol.u.copy()
    u2[g.origin_id] += eps
    bumped = ErgodicSolution(
        u=u2, lam=sol.lam, xi_u=sol.xi_u, residual_sup=0.0,
        iterations=sol.iterations, grid=g, converged=True,
    )
    jump = pde_residual(bumped, model, pot) - sol.residual_sup
    scale = eps / g.spacing**2
    assert 0.5 * scale <= jump <= 4.0 * scale


def test_scaling_consistency(manufactured_1d):
    # zooming by r maps the solve onto the radius R/r, spacing h/r instance
    # with the rescaled potential; values must agree to O(h) after centering
    g, model, pot, sol = manufactured_1d
    scaled, sub = solve_scaled_instance(sol, model, pot, 2.0)
    ids = np.round(sub.coords[:, 0] * 2.0 / g.spacing).astype(int) + g.half_width
    exponent = (2 - model.gamma) / (model.gamma - 1)
    target = 2.0**exponent * sol.u[ids]
    diff = (scaled.u - scaled.u.min()) - (target - target.min())
    inner = np.abs(sub.coords[:, 0]) <= sub.radius / 2
    assert np.abs(diff[inner]).max() <= 5 * g.spacing
    assert abs(scaled.lam) <= 5 * g.spacing


def test_noncoercive_potential_warns():
    g = build_grid(1, 4.0, 0.1)
    decreasing = tabulated_potential(g, 5.0 - np.abs(g.coords[:, 0]))
    with pytest.warns(UserWarning, match="not increasing"):
        solve_ergodic_hjb(g, pure_power(1.5), decreasing,
                          SolverOptions(max_policy_iters=3))


def test_exhaustion_singleton_matches_solve():
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    opts = SolverOptions()
    seq = domain_exhaustion(model, pot, [4.0], 0.05, opts)
    g = build_grid(1, 4.0, 0.05)
    direct = solve_ergodic_hjb(g, model, pot, opts)
    assert seq == [(4.0, direct.lam)]


def test_exhaustion_constant_potential_decreases_to_value():
    # pinned-boundary truncations over-estimate the flat cost by a
    # confinement premium decaying like 1/R^2, approaching 1 from above
    model = pure_power(2.0)
    pot = constant_potential(1.0)
    opts = SolverOptions(boundary_mode="dirichlet_big")
    seq = domain_exhaustion(model, pot, [3.0, 4.0, 5.0, 6.0], 0.05, opts)
    lams = [lam for _, lam in seq]
    assert all(lam >= 1.0 - 1e-9 for lam in lams)
    assert all(b <= a + 1e-8 for a, b in zip(lams, lams[1:]))
    assert (lams[-1] - 1.0) <= 0.3 * (lams[0] - 1.0)


def test_exhaustion_input_validation():
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    with pytest.raises(ValueError):
        domain_exhaustion(model, pot, [4.0, 3.0], 0.05)
    with pytest.raises(ValueError):
        domain_exhaustion(model, pot, [0.1], 0.05)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(eval_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverOptions(boundary_mode="reflecting")
    with pytest.raises(ValueError, match="max_policy_iters"):
        SolverOptions(max_policy_iters=0)
