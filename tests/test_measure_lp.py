import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

from ergolab import measure_lp
from ergolab.density import GridMeasure, stationary_density
from ergolab.eigensolver import solve_ergodic_hjb
from ergolab.grid import Grid, build_grid
from ergolab.hamiltonian import (
    constant_potential,
    lagrangian_value,
    pure_power,
    quadratic_power_potential,
    running_cost,
)
from ergolab.measure_lp import (
    LPProblem,
    LPSolveError,
    assemble_lp,
    barycenter_control,
    excess_cost_identity,
    feasibility_violation,
    minimizer_control_distance,
    random_feasible_measure,
    solve_lp,
    uniform_xi_atoms,
)
from oracles import exact_pair_measure, one_sided_differences, per_atom_program, upwind_pairing


def full_lp_value(problem: LPProblem) -> float:
    """Oracle: one HiGHS solve over every (node, atom) column."""
    res = linprog(
        problem.objective,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def upwind_gap_integral(measure, solution) -> float:
    """Oracle of the excess identity's rhs: each interior pair's defect
    L(xi) - xi . D u - (L(xi_u) - xi_u . D u) under the upwind pairing, each
    boundary pair's raw excess F - lambda, integrated against the measure."""
    g, model = measure.grid, solution.model
    dminus, dplus = one_sided_differences(solution.u, g)
    coo = measure.weights.tocoo()
    x, xi, w = coo.row, measure.xi_atoms[coo.col], coo.data
    inner = g.interior_mask[x]
    lvals = lagrangian_value(model, g.coords[x], xi)
    xi_u = solution.xi_u[x]
    gap = (
        lvals
        - upwind_pairing(xi, dminus[x], dplus[x])
        - lagrangian_value(model, g.coords[x], xi_u)
        + upwind_pairing(xi_u, dminus[x], dplus[x])
    )
    raw = solution.potential.on_grid(g)[x] + lvals - solution.lam
    return float(np.sum(np.where(inner, gap, raw) * w))


@pytest.fixture(scope="module")
def lp_instance():
    g = build_grid(1, 4.0, 0.1)
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    sol = solve_ergodic_hjb(g, model, pot)
    atoms = uniform_xi_atoms(4.0, 41, 1)
    problem = assemble_lp(g, atoms, model, pot)
    measure, lam_bar = solve_lp(problem)
    return g, model, pot, sol, atoms, problem, measure, lam_bar


def test_assemble_shape_counting():
    # three interior nodes and three control atoms: 3 + 1 rows, 15 variables
    g = build_grid(1, 2.0, 1.0)
    atoms = np.array([[-1.0], [0.0], [1.0]])
    with pytest.warns(UserWarning, match="reached 1/h"):  # |xi| = 1/h at the walls
        problem = assemble_lp(g, atoms, pure_power(1.5), quadratic_power_potential(1.5))
    assert problem.a_eq.shape == (4, 15)
    assert problem.objective.shape == (15,)
    assert np.allclose(problem.a_eq.toarray()[-1], 1.0)


@pytest.mark.parametrize(
    "dim, radius, spacing, bound, count",
    [(1, 4.0, 0.1, 4.0, 41), (2, 3.0, 0.2, 3.0, 9), (1, 4.0, 0.1, 0.0, 41)],
    ids=["1d-41", "2d-9x9", "tied-zero"],
)
def test_one_call_program_matches_per_atom_assembly(dim, radius, spacing, bound, count):
    g = build_grid(dim, radius, spacing)
    atoms = uniform_xi_atoms(bound, count, dim)
    model, pot = pure_power(1.5), quadratic_power_potential(1.5)
    problem = assemble_lp(g, atoms, model, pot)
    a_eq, objective = per_atom_program(g, atoms, model, pot)
    assert np.array_equal(problem.a_eq.indptr, a_eq.indptr)
    assert np.array_equal(problem.a_eq.indices, a_eq.indices)
    assert problem.a_eq.data.tobytes() == a_eq.data.tobytes()
    assert problem.objective.tobytes() == objective.tobytes()


def test_assemble_requires_zero_atom():
    g = build_grid(1, 4.0, 0.1)
    with pytest.raises(ValueError, match="0"):
        assemble_lp(g, np.array([[-1.0], [1.0]]), pure_power(1.5),
                    quadratic_power_potential(1.5))


def test_objective_entries(lp_instance):
    g, model, pot, _, atoms, problem, _, _ = lp_instance
    node = int(np.argmin(np.abs(g.coords[:, 0] - 1.0)))
    atom = int(np.argmin(np.abs(atoms[:, 0] - 2.0)))
    idx = node * atoms.shape[0] + atom
    assert problem.objective[idx] == pytest.approx(13 / 3)
    direct = running_cost(model, pot, g.coords[node], atoms[atom])
    assert problem.objective[idx] == pytest.approx(direct)


def test_pure_diffusion_pair_measure_feasible(lp_instance):
    g, _, _, _, atoms, problem, _, _ = lp_instance
    rho = stationary_density(g, np.zeros((g.num_nodes, 1)))
    from ergolab.density import pair_measure

    mu = pair_measure(rho, np.zeros((g.num_nodes, 1)), atoms)
    assert feasibility_violation(mu, problem) <= 1e-9


def test_lp_certificates_and_cross_check(lp_instance):
    _, _, _, sol, _, _, measure, lam_bar = lp_instance
    assert measure.info["primal_feasibility"] <= 1e-9
    assert measure.info["complementarity"] <= 1e-8
    assert abs(lam_bar - sol.lam) <= 0.05
    assert measure.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert measure.weights.toarray().min() >= -1e-12


def test_constant_potential_lp():
    g = build_grid(1, 4.0, 0.1)
    model = pure_power(2.0)
    pot = constant_potential(3.0)
    problem = assemble_lp(g, np.array([[0.0]]), model, pot)
    measure, lam_bar = solve_lp(problem)
    assert lam_bar == pytest.approx(3.0, abs=1e-9)
    # the single atom is the whole seed, so nothing is left to price
    assert measure.info["stats"]["pricing_rounds"] == 1
    assert measure.info["stats"]["active_columns"] == g.num_nodes


def test_repeated_zero_atom_seeded_once():
    # a derived xi_bound of 0 (xi_u = 0 under a constant potential) makes
    # every atom a copy of 0: only the first is seeded, and the copies, which
    # price like the seed column, never enter
    g = build_grid(1, 4.0, 0.1)
    model = pure_power(2.0)
    pot = constant_potential(3.0)
    _, single = solve_lp(assemble_lp(g, np.array([[0.0]]), model, pot))
    measure, lam_bar = solve_lp(assemble_lp(g, uniform_xi_atoms(0.0, 41, 1), model, pot))
    assert lam_bar == pytest.approx(single, abs=1e-12)
    assert measure.info["stats"]["pricing_rounds"] == 1
    assert measure.info["stats"]["active_columns"] == g.num_nodes


def test_column_generation_matches_full_lp_1d(lp_instance):
    g, _, _, _, atoms, problem, measure, lam_bar = lp_instance
    assert abs(lam_bar - full_lp_value(problem)) <= 1e-9
    assert measure.info["dual_feasibility_min"] >= -1e-9
    stats = measure.info["stats"]
    assert stats["columns"] == g.num_nodes * atoms.shape[0]
    # the optimum needs atoms beyond the zero atom
    assert stats["pricing_rounds"] >= 2
    assert g.num_nodes < stats["active_columns"] < stats["columns"]
    assert stats["status"] == 0


def test_column_generation_matches_full_lp_2d():
    g = build_grid(2, 2.0, 0.25)
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    problem = assemble_lp(g, uniform_xi_atoms(1.0, 5, 2), model, pot)
    measure, lam_bar = solve_lp(problem)
    assert abs(lam_bar - full_lp_value(problem)) <= 1e-9
    assert measure.info["dual_feasibility_min"] >= -1e-9
    assert measure.info["stats"]["pricing_rounds"] >= 2


def test_column_generation_matches_full_lp_2d_tied_atoms():
    # on a symmetric box, atoms (a, b) and (b, a) cost the same at the nodes
    # with |x0| = |x1|, so which of them carries mass there is a tie
    g = build_grid(2, 2.0, 0.2)
    problem = assemble_lp(g, uniform_xi_atoms(2.0, 9, 2), pure_power(1.5),
                          quadratic_power_potential(1.5))
    measure, lam_bar = solve_lp(problem)
    assert abs(lam_bar - full_lp_value(problem)) <= 1e-9
    assert measure.info["dual_feasibility_min"] >= -1e-9


def test_dual_certificate_enforced(lp_instance, monkeypatch):
    # a master that overprices its heaviest column leaves that column active
    # but without mass, where the full program prices it below zero
    problem = lp_instance[5]
    real_solve = measure_lp._Master.solve

    def overpriced(master):
        heaviest = real_solve(master)[0].argmax()
        cost = problem.objective[master.ids[heaviest]] + 1.0
        assert master.highs.changeColCost(int(heaviest), cost) == highs.HighsStatus.kOk
        return real_solve(master)

    monkeypatch.setattr(measure_lp._Master, "solve", overpriced)
    with pytest.raises(LPSolveError, match="dual feasibility"):
        solve_lp(problem)


def test_dual_noise_on_columns_with_mass_accepted(lp_instance, monkeypatch):
    # HiGHS's duals can price a column that carries mass slightly below zero
    # (-1.1e-7 seen on a 3,721-node 2d program); complementarity bounds those
    # columns, so only the mass-free ones may refuse the optimum
    _, _, _, _, _, problem, measure, lam_bar = lp_instance
    real_solve = measure_lp._Master.solve

    def noisy_duals(master):
        x, duals = real_solve(master)
        col = problem.a_eq[:, master.ids[x.argmax()]].toarray().ravel()
        return x, duals + 1e-8 * col / (col @ col)

    monkeypatch.setattr(measure_lp._Master, "solve", noisy_duals)
    noisy, value = solve_lp(problem)
    assert noisy.info["dual_feasibility_min"] < -1e-9
    assert value == pytest.approx(lam_bar, abs=1e-12)


def _assert_hot_started(problem, monkeypatch):
    # a round that re-optimizes from the previous basis needs about one pivot
    # per entering column; a cold simplex start needs the whole master's count
    added = []
    real_add = measure_lp._Master.add

    def recording(master, ids):
        added.append(ids.size)
        real_add(master, ids)

    monkeypatch.setattr(measure_lp._Master, "add", recording)
    measure, _ = solve_lp(problem)
    stats = measure.info["stats"]
    iterations = stats["round_iterations"]
    assert stats["highs_iterations"] == sum(iterations)
    assert stats["pricing_rounds"] == len(iterations) == len(added) >= 2  # the seed is added[0]
    assert stats["round_columns"] == added
    assert added[0] == problem.grid.num_nodes  # one zero-atom column per node
    for its, count in zip(iterations[1:], added[1:]):
        assert its <= 2 * count


def test_later_rounds_restart_from_the_held_basis(lp_instance, monkeypatch):
    _assert_hot_started(lp_instance[5], monkeypatch)


def test_later_rounds_restart_from_the_held_basis_2d(monkeypatch):
    g = build_grid(2, 2.0, 0.25)
    problem = assemble_lp(g, uniform_xi_atoms(1.0, 5, 2), pure_power(1.5),
                          quadratic_power_potential(1.5))
    _assert_hot_started(problem, monkeypatch)


def test_highs_status_checked(lp_instance):
    # HiGHS reads a cost of 1e21 as infinite and ends the run without an optimum
    problem = lp_instance[5]
    huge = LPProblem(a_eq=problem.a_eq, b_eq=problem.b_eq, objective=problem.objective + 1e21,
                     grid=problem.grid, xi_atoms=problem.xi_atoms)
    with pytest.raises(LPSolveError, match="HiGHS run returned"):
        solve_lp(huge)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_running_cost_refused():
    # |xi|^3 / 3 overflows at atoms of 1e200: no column may reach HiGHS
    g = build_grid(1, 4.0, 0.2)
    with pytest.warns(UserWarning, match="reached 1/h"):
        problem = assemble_lp(g, uniform_xi_atoms(1e200, 3, 1), pure_power(1.5),
                              quadratic_power_potential(1.5))
    with pytest.raises(LPSolveError, match="not finite"):
        solve_lp(problem)


def test_objective_shift_moves_value_exactly(lp_instance):
    _, _, _, _, _, problem, _, lam_bar = lp_instance
    delta = 0.37
    shifted = LPProblem(
        a_eq=problem.a_eq,
        b_eq=problem.b_eq,
        objective=problem.objective + delta,
        grid=problem.grid,
        xi_atoms=problem.xi_atoms,
    )
    _, lam2 = solve_lp(shifted)
    assert lam2 - lam_bar == pytest.approx(delta, abs=1e-8)


def test_point_mass_violation(lp_instance):
    g, _, _, _, atoms, problem, _, _ = lp_instance
    from scipy import sparse

    node = g.origin_id
    atom = int(np.argmin(np.abs(atoms[:, 0] - 1.0)))
    w = sparse.csr_matrix(([1.0], ([node], [atom])), shape=(g.num_nodes, atoms.shape[0]))
    mu = GridMeasure(weights=w, xi_atoms=atoms, grid=g)
    col = problem.a_eq[:-1, node * atoms.shape[0] + atom].toarray().ravel()
    assert feasibility_violation(mu, problem) == pytest.approx(np.abs(col).max())
    assert feasibility_violation(mu, problem) > 0.1


def test_random_measures_deterministic_and_feasible(lp_instance):
    g, _, _, _, atoms, problem, _, _ = lp_instance
    a = random_feasible_measure(g, atoms, 77)
    b = random_feasible_measure(g, atoms, 77)
    assert (a.weights != b.weights).nnz == 0
    assert np.array_equal(a.weights.toarray(), b.weights.toarray())
    for seed in range(5):
        mu = random_feasible_measure(g, atoms, seed)
        assert feasibility_violation(mu, problem) <= 1e-9


def test_single_atom_draw_is_pure_diffusion():
    g = build_grid(1, 4.0, 0.1)
    from ergolab.density import pair_measure

    atoms = np.array([[0.0]])
    mu = random_feasible_measure(g, atoms, 5)
    rho = stationary_density(g, np.zeros((g.num_nodes, 1)))
    ref = pair_measure(rho, np.zeros((g.num_nodes, 1)), atoms)
    assert np.allclose(mu.weights.toarray(), ref.weights.toarray())


def test_excess_identity_on_optimal_pair(lp_instance):
    g, model, pot, sol, _, _, _, _ = lp_instance
    rho = stationary_density(g, sol.xi_u)
    mu_u = exact_pair_measure(rho, sol.xi_u)
    lhs, rhs = excess_cost_identity(mu_u, sol)
    assert abs(lhs) <= 1e-6
    assert abs(rhs) <= 1e-9  # the gap integrand vanishes at the optimal control
    assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs))


def test_excess_identity_doubled_control(lp_instance):
    from ergolab.density import average_cost

    g, model, pot, sol, _, _, _, _ = lp_instance
    doubled = 2.0 * sol.xi_u
    rho2 = stationary_density(g, doubled)
    mu2 = exact_pair_measure(rho2, doubled)
    lhs, rhs = excess_cost_identity(mu2, sol)
    oracle = average_cost(rho2, doubled, model, pot) - sol.lam
    assert lhs == pytest.approx(oracle, abs=1e-9)
    assert lhs > 0.05
    assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs))


def test_excess_identity_random_sweep(lp_instance):
    g, model, pot, sol, atoms, _, _, _ = lp_instance
    for seed in range(10):
        mu = random_feasible_measure(g, atoms, 3000 + seed)
        lhs, rhs = excess_cost_identity(mu, sol)
        assert lhs >= -1e-8
        assert rhs >= -1e-8
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs))
        assert abs(rhs - upwind_gap_integral(mu, sol)) <= 1e-12


def test_weak_duality(lp_instance):
    g, model, pot, _, atoms, problem, _, lam_bar = lp_instance
    for seed in range(5):
        mu = random_feasible_measure(g, atoms, 4000 + seed)
        obj = float(mu.weights.toarray().ravel() @ problem.objective)
        assert obj >= lam_bar - 1e-9


def test_minimizer_control_distance_cases(lp_instance):
    g, model, pot, sol, atoms, _, measure, _ = lp_instance
    spacing = atoms[1, 0] - atoms[0, 0]
    assert minimizer_control_distance(measure, sol) <= spacing + 2 * g.spacing

    rho = stationary_density(g, sol.xi_u)
    mu_u = exact_pair_measure(rho, sol.xi_u)
    assert minimizer_control_distance(mu_u, sol) <= 1e-12

    doubled = 2.0 * sol.xi_u
    rho2 = stationary_density(g, doubled)
    mu2 = exact_pair_measure(rho2, doubled)
    expected = float(
        np.sum(rho2.rho * np.linalg.norm(sol.xi_u, axis=1)) * g.spacing
    )
    assert minimizer_control_distance(mu2, sol) == pytest.approx(expected, rel=1e-9)
    assert minimizer_control_distance(mu2, sol) > 0.1


def test_barycenter_projection_never_increases_cost(lp_instance):
    # mixing two feasible draws yields a randomized kernel; replacing it by
    # its mean control and re-solving the density can only reduce the convex
    # running cost
    from ergolab.density import average_cost

    g, model, pot, _, atoms, problem, _, _ = lp_instance
    for seed in range(10):
        m1 = random_feasible_measure(g, atoms, 500 + seed)
        m2 = random_feasible_measure(g, atoms, 900 + seed)
        mix = GridMeasure(
            weights=(0.5 * (m1.weights + m2.weights)).tocsr(),
            xi_atoms=atoms,
            grid=g,
        )
        obj_mix = float(mix.weights.toarray().ravel() @ problem.objective)
        bc = barycenter_control(mix)
        rho_bc = stationary_density(g, bc)
        obj_bc = average_cost(rho_bc, bc, model, pot)
        assert obj_bc <= obj_mix + 1e-9


def test_xi_refinement_monotone(lp_instance):
    g, model, pot, _, _, _, _, lam41 = lp_instance
    atoms21 = uniform_xi_atoms(4.0, 21, 1)
    _, lam21 = solve_lp(assemble_lp(g, atoms21, model, pot))
    assert lam41 <= lam21 + 1e-9


def test_measure_problem_mismatch_rejected(lp_instance):
    g, _, _, _, atoms, problem, measure, _ = lp_instance
    other = GridMeasure(weights=measure.weights, xi_atoms=atoms * 2.0, grid=g)
    with pytest.raises(ValueError):
        feasibility_violation(other, problem)
