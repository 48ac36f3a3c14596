import numpy as np
import pytest

from ergolab.eigensolver import ErgodicSolution, solve_ergodic_hjb
from ergolab.estimates import (
    EstimateReport,
    _ball_reduce,
    _lower_bound_constants,
    _radius_sweep_fit,
    _stable,
    _sweep_passed,
    check_gradient_bound,
    check_polynomial_envelope,
    check_potential_gradient_growth,
    check_value_lower_bounds,
)
from ergolab.grid import build_grid
from ergolab.hamiltonian import (
    HamiltonianModel,
    constant_potential,
    drift_power,
    exp_abs_potential,
    power_beta_potential,
    pure_power,
    quadratic_power_potential,
    quartic_sine_potential,
)


@pytest.fixture(scope="module")
def audit_grid():
    return build_grid(1, 6.0, 0.01)


@pytest.fixture(scope="module")
def manufactured(audit_grid):
    g = build_grid(1, 6.0, 0.02)
    pot = quadratic_power_potential(1.5)
    sol = solve_ergodic_hjb(g, pure_power(1.5), pot)
    refined = solve_ergodic_hjb(audit_grid, pure_power(1.5), pot, coarse=sol)
    return g, pot, sol, refined


def test_gradient_growth_passes_on_power_family(audit_grid):
    rep = check_potential_gradient_growth(quadratic_power_potential(1.5), audit_grid, 1.5)
    assert rep.passed
    assert 0.1 <= rep.fitted_constant <= 1.0
    assert len(rep.sweep) == 3


def test_gradient_growth_passes_on_exponential(audit_grid):
    # exponential growth has no power envelope yet satisfies the gradient
    # bound: the audit pair below separates the two condition classes
    g = build_grid(1, 12.0, 0.05)
    rep = check_potential_gradient_growth(exp_abs_potential(), g, 1.5)
    assert rep.passed


def test_gradient_growth_fails_on_oscillatory_quartic(audit_grid):
    rep = check_potential_gradient_growth(quartic_sine_potential(), audit_grid, 1.5)
    assert not rep.passed
    assert rep.sweep[-1] / rep.sweep[0] > 1.5


def test_gradient_growth_constant_potential(audit_grid):
    rep = check_potential_gradient_growth(constant_potential(1.0), audit_grid, 1.5)
    assert rep.passed
    assert rep.fitted_constant == 0.0


def test_envelope_fits_power_family():
    g = build_grid(1, 10.0, 0.05)
    rep = check_polynomial_envelope(quadratic_power_potential(1.5), g)
    assert rep.passed
    assert abs(rep.details["beta"] - 1.5) <= 0.2


def test_envelope_fails_on_exponential():
    g = build_grid(1, 12.0, 0.05)
    rep = check_polynomial_envelope(exp_abs_potential(), g)
    assert not rep.passed
    # the misfit grows with the window, confirming no power law exists
    g_small = build_grid(1, 8.0, 0.05)
    rep_small = check_polynomial_envelope(exp_abs_potential(), g_small)
    assert rep.details["log_residual"] > rep_small.details["log_residual"]


def test_envelope_flat_potential_convention(audit_grid):
    rep = check_polynomial_envelope(constant_potential(1.0), audit_grid)
    assert rep.passed
    assert rep.details["beta"] == 0.0


def test_envelope_implies_gradient_growth(audit_grid):
    # whenever the power sandwich holds with beta >= 1, the milder gradient
    # condition must hold as well on the implemented families
    for pot in (quadratic_power_potential(1.5), power_beta_potential(1.5),
                power_beta_potential(2.0)):
        g = build_grid(1, 10.0, 0.05)
        env = check_polynomial_envelope(pot, g)
        grad = check_potential_gradient_growth(pot, g, 1.5)
        if env.passed and env.details["beta"] >= 1.0:
            assert grad.passed


def test_gradient_bound_manufactured(manufactured):
    g, pot, sol, refined = manufactured
    rep = check_gradient_bound(sol, refined, [0.25, 0.5, 1.0])
    assert rep.passed
    assert rep.fitted_constant > 0
    a, b = rep.sweep
    assert abs(a - b) <= 0.25 * max(a, b)


def test_gradient_bound_without_gradient_term(manufactured):
    g, pot, sol, refined = manufactured
    rep = check_gradient_bound(sol, refined, [0.25, 0.5, 1.0], include_gradient_term=False)
    assert rep.passed


def test_gradient_bound_constant_field(manufactured):
    g, pot, sol, refined = manufactured
    flat = ErgodicSolution(
        u=np.ones(g.num_nodes), lam=1.0, grid=g, model=pure_power(1.5), potential=pot,
        converged=True,
    )
    rep = check_gradient_bound(flat, flat, [0.5])
    assert rep.fitted_constant == 0.0


def test_value_lower_bounds_manufactured(manufactured):
    g, pot, sol, refined = manufactured
    rep = check_value_lower_bounds(sol, refined)
    assert rep.passed
    assert rep.details["kappa"] > 0
    assert rep.details["coverage"] > 0.5


def test_value_lower_bounds_trivial_instance():
    g = build_grid(1, 4.0, 0.1)
    flat = ErgodicSolution(
        u=np.ones(g.num_nodes), lam=1.0, grid=g, model=pure_power(1.5),
        potential=constant_potential(1.0), converged=True,
    )
    rep = check_value_lower_bounds(flat, flat)
    assert rep.fitted_constant == 0.0
    assert rep.details["kappa"] == pytest.approx(1.0)


def _ball_reduce_full_scan(values, grid, centers, radius, reduce):
    """The reference: every node of the grid tested against each ball."""
    out = []
    for cid, r in zip(centers, np.broadcast_to(radius, centers.shape)):
        d = np.linalg.norm(grid.coords - grid.coords[cid], axis=1)
        out.append(reduce(values[d <= r + 1e-12]))
    return np.array(out)


@pytest.mark.parametrize("reduce", [np.max, np.min])
@pytest.mark.parametrize("dim, half_width, spacing", [(1, 30, 0.1), (2, 12, 0.1), (2, 8, 0.25)])
def test_ball_window_matches_full_scan(dim, half_width, spacing, reduce):
    g = build_grid(dim, half_width * spacing, spacing)
    values = np.random.default_rng(dim).standard_normal(g.num_nodes)
    n, last = g.nodes_per_axis, g.num_nodes - 1
    beside_wall = g.origin_id - (half_width - 1) * g.axis_strides[0]  # axis index 1
    centers = np.array([g.origin_id, beside_wall, 0, last, n - 1, g.origin_id + 3])
    # multiples of h (0.25 is exact on the 0.25 grid), radii between grid
    # steps, one past the whole box, and one radius per center
    per_center = np.array([0.3, 0.45, 0.25, 1.0, 0.6, 0.2])
    for radius in (spacing, 2 * spacing, 3 * spacing, 0.25, 0.37, 0.5, 1.04, 50.0, per_center):
        window = _ball_reduce(values, g, centers, radius, reduce)
        assert np.array_equal(window, _ball_reduce_full_scan(values, g, centers, radius, reduce))


def check_superquadratic_scaling(solution: ErgodicSolution) -> EstimateReport:
    """Superquadratic (gamma >= 2, outside the paper's subquadratic class)
    variant of the audits, with rebalanced exponents:
    |Df| <= k0 (1 + |f|^((4g-3)/(3g-2))) and the ball lower bound
    inf u >= kappa f^(g/(3g-2)) at scale f^((1-g)/(3g-2)), with the
    solution's own model and potential."""
    model, potential = solution.model, solution.potential
    gamma = model.gamma
    if gamma < 2.0:
        raise ValueError("superquadratic audit requires gamma >= 2")
    grid = solution.grid
    f = potential.on_grid(grid)
    df = np.linalg.norm(potential.grad_on_grid(grid), axis=1)
    expo = (4.0 * gamma - 3.0) / (3.0 * gamma - 2.0)
    k0, witness, sweep = _radius_sweep_fit(grid, df, 1.0 + np.abs(f) ** expo)

    kexp = gamma / (3.0 * gamma - 2.0)
    sexp = (1.0 - gamma) / (3.0 * gamma - 2.0)
    _, kappa, _, coverage = _lower_bound_constants(solution, kexp, sexp)
    fine = build_grid(grid.dim, grid.radius, grid.spacing / 2.0)
    refined = solve_ergodic_hjb(fine, model, potential, coarse=solution)
    _, kappa_half, _, _ = _lower_bound_constants(refined, kexp, sexp)
    passed = _sweep_passed(sweep) and _stable(kappa, kappa_half) and kappa > 0
    return EstimateReport(
        name="superquadratic_scaling",
        fitted_constant=k0,
        witness=witness,
        passed=passed,
        sweep=sweep,
        details={"kappa": kappa, "kappa_refined": kappa_half, "coverage": coverage},
    )


def test_superquadratic_audit():
    g = build_grid(1, 6.0, 0.02)
    pot = quadratic_power_potential(2.0)
    sol = solve_ergodic_hjb(g, pure_power(2.0), pot)
    rep = check_superquadratic_scaling(sol)
    assert rep.passed
    assert rep.details["kappa"] > 0

    g3 = build_grid(1, 5.0, 0.02)
    pot3 = quadratic_power_potential(3.0)
    sol3 = solve_ergodic_hjb(g3, pure_power(3.0), pot3)
    rep3 = check_superquadratic_scaling(sol3)
    assert rep3.passed


def test_superquadratic_rejects_subquadratic(manufactured):
    g, pot, sol, refined = manufactured
    with pytest.raises(ValueError):
        check_superquadratic_scaling(sol)


def check_drift_boundary_perturbation(
    model: HamiltonianModel,
    gamma: float,
    drift_bound: float,
    radius: float = 1.0,
    dim: int = 1,
    n_samples: int = 10_000,
    seed: int = 0,
) -> EstimateReport:
    """Check that the drift term is a small perturbation of the pure power
    near the box boundary: |b(x).xi| <= eps (|xi|^g + dist(x, boundary)^-g*)
    whenever dist < delta(eps), with delta = C^(-(g-1)/g) eps and C fitted
    from sup|b| <= drift_bound by the sharp Young split.  It holds whenever
    |b| stays below that bound.
    """
    if model.drift is None:
        raise ValueError("drift perturbation audit requires a drift model")
    gstar = gamma / (gamma - 1.0)
    bsup = drift_bound
    C = (1.0 - 1.0 / gamma) * gamma ** (-1.0 / (gamma - 1.0)) * bsup**gstar
    rng = np.random.default_rng(seed)
    violations = 0
    worst = (0.0,)
    worst_margin = np.inf
    for eps in (0.1, 0.01):
        delta = C ** (-(gamma - 1.0) / gamma) * eps if C > 0 else radius / 2
        delta = min(delta, radius / 2)
        dist = rng.uniform(1e-9, delta, size=n_samples)
        x = rng.uniform(-radius + 1e-6, radius - 1e-6, size=(n_samples, dim))
        face_axis = rng.integers(0, dim, size=n_samples)
        face_sign = rng.choice([-1.0, 1.0], size=n_samples)
        x[np.arange(n_samples), face_axis] = face_sign * (radius - dist)
        mag = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=n_samples))
        direction = rng.standard_normal((n_samples, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        xi = mag[:, None] * direction
        b = model.drift_at(x)
        lhs = np.abs(np.sum(b * xi, axis=1))
        rhs = eps * (mag**gamma + dist**-gstar)
        margin = rhs - lhs
        violations += int(np.sum(margin < 0))
        k = int(np.argmin(margin))
        if margin[k] < worst_margin:
            worst_margin = float(margin[k])
            worst = tuple(x[k])
    return EstimateReport(
        name="drift_boundary_perturbation",
        fitted_constant=float(C),
        witness=worst,
        passed=violations == 0,
        sweep=[worst_margin],
        details={"violations": violations, "drift_bound": bsup},
    )


def test_drift_perturbation_zero_drift():
    model = drift_power(2.0, lambda x: np.zeros_like(x))
    rep = check_drift_boundary_perturbation(model, 2.0, 0.0)
    assert rep.passed
    assert rep.details["violations"] == 0


def test_drift_perturbation_bounded_drift():
    model = drift_power(2.0, lambda x: np.sin(x))
    rep = check_drift_boundary_perturbation(model, 2.0, np.sqrt(2.0), dim=2)  # sup|sin x|
    assert rep.passed
    assert rep.fitted_constant > 0


def test_drift_perturbation_requires_drift_model():
    with pytest.raises(ValueError):
        check_drift_boundary_perturbation(pure_power(2.0), 2.0, 0.0)
