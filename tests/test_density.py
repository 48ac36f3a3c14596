import numpy as np
import pytest
from scipy import integrate

import ergolab.density
from ergolab.density import (
    DensityField,
    ReducibleChainError,
    average_cost,
    pair_measure,
    stationary_density,
)
from ergolab.eigensolver import solve_ergodic_hjb
from ergolab.grid import build_grid
from ergolab.hamiltonian import pure_power, quadratic_power_potential
from ergolab.operators import assemble_generator
from oracles import exact_pair_measure


@pytest.fixture(scope="module")
def manufactured_1d():
    g = build_grid(1, 6.0, 0.02)
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    sol = solve_ergodic_hjb(g, model, pot)
    return g, model, pot, sol


def _linear_control(grid, slope=1.0):
    ctrl = np.zeros((grid.num_nodes, grid.dim))
    ctrl[:, 0] = slope * grid.coords[:, 0]
    return ctrl


def test_ou_stationary_density_gaussian():
    g = build_grid(1, 6.0, 0.02)
    rho = stationary_density(g, _linear_control(g))
    assert rho.rho.sum() * g.spacing == pytest.approx(1.0, abs=1e-12)
    assert rho.rho[g.interior_mask].min() > 0
    var = float((rho.rho * g.coords[:, 0] ** 2).sum() * g.spacing)
    assert var == pytest.approx(1.0, abs=0.02)


def test_optimal_density_matches_analytic(manufactured_1d):
    g, model, pot, sol = manufactured_1d
    rho = stationary_density(g, sol.xi_u)
    x = g.coords[:, 0]
    z = integrate.quad(lambda t: np.exp(-abs(t) ** 1.5 / 1.5), -np.inf, np.inf)[0]
    exact = np.exp(-np.abs(x) ** 1.5 / 1.5) / z
    l1 = float(np.abs(rho.rho - exact).sum() * g.spacing)
    assert l1 <= 0.05


def test_pure_diffusion_density_uniform():
    # conservative wall closure makes the zero-control generator doubly
    # stochastic, so its stationary law is flat on the interior
    g = build_grid(2, 2.0, 0.2)
    rho = stationary_density(g, np.zeros((g.num_nodes, 2)))
    vals = rho.rho[g.interior_mask]
    assert (vals.max() - vals.min()) / vals.mean() <= 1e-12


def test_adjoint_orthogonality(manufactured_1d):
    g, _, _, sol = manufactured_1d
    rho = stationary_density(g, sol.xi_u)
    A, _ = assemble_generator(g, sol.xi_u)
    rng = np.random.default_rng(5)
    x = g.coords[:, 0]
    for _ in range(5):
        gfun = rng.normal(size=g.num_nodes)
        gfun[np.abs(x) >= g.radius - 0.5] = 0.0  # compact support
        pairing = float((A @ gfun[g.interior_ids]) @ rho.rho[g.interior_ids])
        assert abs(pairing) <= 1e-10 * np.abs(gfun).max() / g.spacing**g.dim


def test_pair_measure_zero_control_marginal():
    g = build_grid(1, 4.0, 0.1)
    rho = stationary_density(g, np.zeros((g.num_nodes, 1)))
    atoms = np.array([[-1.0], [0.0], [1.0]])
    mu = pair_measure(rho, np.zeros((g.num_nodes, 1)), atoms)
    marg = np.asarray(mu.weights.sum(axis=0)).ravel()
    assert marg[1] == pytest.approx(1.0, abs=1e-12)
    assert marg[0] == marg[2] == 0.0


def test_pair_measure_two_atom_toy():
    g = build_grid(1, 4.0, 0.1)
    rho = np.zeros(g.num_nodes)
    i1, i2 = g.origin_id, g.origin_id + 3
    rho[i1] = 0.75 / g.spacing
    rho[i2] = 0.25 / g.spacing
    dens = DensityField(rho=rho, grid=g)
    ctrl = np.zeros((g.num_nodes, 1))
    ctrl[i1, 0] = -2.0
    ctrl[i2, 0] = 1.0
    atoms = np.array([[-2.0], [0.0], [1.0]])
    mu = pair_measure(dens, ctrl, atoms)
    dense = mu.weights.toarray()
    assert dense[i1, 0] == pytest.approx(0.75)
    assert dense[i2, 2] == pytest.approx(0.25)
    assert mu.weights.sum() == pytest.approx(1.0)


def test_pair_measure_clips_outside_hull():
    g = build_grid(1, 4.0, 0.1)
    rho = stationary_density(g, np.zeros((g.num_nodes, 1)))
    ctrl = np.zeros((g.num_nodes, 1))
    ctrl[:, 0] = 3.0  # beyond the atom hull
    atoms = np.array([[-1.0], [0.0], [1.0]])
    mu = pair_measure(rho, ctrl, atoms)
    marg = np.asarray(mu.weights.sum(axis=0)).ravel()
    assert marg[2] == pytest.approx(1.0, abs=1e-12)


def test_average_cost_manufactured(manufactured_1d):
    # shared stencils make the controlled density adjoint-exact, so the
    # measure-weighted cost reproduces the eigenvalue to solver precision,
    # not merely to O(h); the coarse bound is the acceptance criterion
    g, model, pot, sol = manufactured_1d
    rho = stationary_density(g, sol.xi_u)
    val = average_cost(rho, sol.xi_u, model, pot)
    assert val == pytest.approx(2.0, abs=0.05)
    assert abs(val - sol.lam) <= 1e-6

    fine = build_grid(1, 6.0, 0.01)
    sol2 = solve_ergodic_hjb(fine, model, pot)
    rho2 = stationary_density(fine, sol2.xi_u)
    assert abs(average_cost(rho2, sol2.xi_u, model, pot) - sol2.lam) <= 1e-6


def test_average_cost_gamma_identity_2d():
    g = build_grid(2, 4.0, 0.1)
    model = pure_power(2.0)
    pot = quadratic_power_potential(2.0)
    sol = solve_ergodic_hjb(g, model, pot)
    rho = stationary_density(g, sol.xi_u)
    assert average_cost(rho, sol.xi_u, model, pot) == pytest.approx(3.0, abs=0.1)


def test_average_cost_ou_quadratic():
    g = build_grid(1, 6.0, 0.02)
    model = pure_power(2.0)
    pot = quadratic_power_potential(2.0)
    ctrl = _linear_control(g)
    rho = stationary_density(g, ctrl)
    assert average_cost(rho, ctrl, model, pot) == pytest.approx(2.0, abs=0.05)


def test_inward_drift_beyond_one_over_h_rejected():
    # |w| = 12 > 1/h = 10 breaks monotonicity: the null vector has a negative
    # entry (min -0.545), which the positivity check must catch
    g = build_grid(1, 1.0, 0.1)
    ctrl = -12.0 * np.sign(g.coords)
    with pytest.warns(UserWarning, match="reached 1/h"):
        with pytest.raises(ReducibleChainError, match="not positive"):
            stationary_density(g, ctrl)


@pytest.mark.parametrize("dim, radius, spacing", [(1, 6.0, 0.02), (2, 4.0, 0.1)])
def test_density_reuses_the_solution_factor(dim, radius, spacing):
    g = build_grid(dim, radius, spacing)
    sol = solve_ergodic_hjb(g, pure_power(1.5), quadratic_power_potential(1.5))
    factorizations = sol.solver.factorizations
    shared = stationary_density(g, sol.xi_u, sol.solver).rho
    assert sol.solver.factorizations == factorizations
    assert sol.solver.reused
    own = stationary_density(g, sol.xi_u).rho
    assert np.abs(shared - own).max() <= 1e-12 * own.max()


def test_density_check_failed_on_a_held_factor_solves_again(monkeypatch):
    g = build_grid(1, 6.0, 0.02)
    sol = solve_ergodic_hjb(g, pure_power(1.5), quadratic_power_potential(1.5))
    null_vector = ergolab.density._null_vector
    failed = []

    def fail_once_on_the_held_factor(grid, A, solver):
        rho = null_vector(grid, A, solver)
        if solver.reused and not failed:
            failed.append(True)
            raise ReducibleChainError("injected")
        return rho

    monkeypatch.setattr(ergolab.density, "_null_vector", fail_once_on_the_held_factor)
    factorizations = sol.solver.factorizations
    rho = stationary_density(g, sol.xi_u, sol.solver).rho
    assert failed
    assert sol.solver.factorizations == factorizations + 1
    assert not sol.solver.reused
    fresh = stationary_density(g, sol.xi_u).rho
    assert np.abs(rho - fresh).max() <= 1e-12 * fresh.max()


def test_exact_pair_measure_feasible(manufactured_1d):
    g, model, pot, sol = manufactured_1d
    rho = stationary_density(g, sol.xi_u)
    mu = exact_pair_measure(rho, sol.xi_u)
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert mu.weights.nnz == g.num_interior
