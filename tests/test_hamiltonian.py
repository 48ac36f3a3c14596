import numpy as np
import pytest

from ergolab.estimates import fit_hamiltonian_growth
from ergolab.hamiltonian import (
    constant_potential,
    drift_power,
    duality_gap,
    exp_abs_potential,
    hamiltonian_value,
    lagrangian_value,
    optimal_control,
    power_beta_potential,
    pure_power,
    quadratic_power_potential,
    quartic_sine_potential,
    running_cost,
)

ORIGIN2 = np.zeros(2)


def unit_drift(x):
    out = np.zeros_like(x)
    out[:, 0] = 1.0
    return out


def test_hamiltonian_values():
    m = pure_power(2.0)
    assert hamiltonian_value(m, ORIGIN2, np.array([3.0, 4.0])) == pytest.approx(12.5)
    m15 = pure_power(1.5)
    assert hamiltonian_value(m15, np.zeros(1), np.array([4.0])) == pytest.approx(16 / 3)
    md = drift_power(2.0, unit_drift)
    assert hamiltonian_value(md, ORIGIN2, np.array([2.0, 0.0])) == pytest.approx(4.0)


def test_lagrangian_values():
    m15 = pure_power(1.5)
    assert m15.gamma_star == pytest.approx(3.0)
    assert lagrangian_value(m15, np.zeros(1), np.array([2.0])) == pytest.approx(8 / 3)
    md = drift_power(2.0, unit_drift)
    assert lagrangian_value(md, ORIGIN2, np.array([1.0, 0.0])) == pytest.approx(0.0)
    m2 = pure_power(2.0)
    assert lagrangian_value(m2, ORIGIN2, np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_optimal_control_and_young_equality():
    m15 = pure_power(1.5)
    xi = optimal_control(m15, np.zeros(1), np.array([4.0]))
    assert xi[0] == pytest.approx(2.0)
    assert np.all(optimal_control(m15, np.zeros(1), np.array([0.0])) == 0.0)
    # equality case: xi.p - L(xi) = H(p)
    val = xi[0] * 4.0 - lagrangian_value(m15, np.zeros(1), xi)
    assert val == pytest.approx(16 / 3)


def test_duality_gap_examples():
    m15 = pure_power(1.5)
    p = np.array([4.0])
    xi = optimal_control(m15, np.zeros(1), p)
    assert abs(duality_gap(m15, np.zeros(1), xi, p)) <= 1e-9
    m2 = pure_power(2.0)
    assert duality_gap(m2, ORIGIN2, np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.5)
    assert duality_gap(m15, np.zeros(1), np.array([1.0]), p) == pytest.approx(5 / 3)


def test_running_cost_examples():
    m15 = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    assert running_cost(m15, pot, np.zeros(1), np.zeros(1)) == pytest.approx(1.0)
    assert running_cost(m15, pot, np.array([1.0]), np.array([2.0])) == pytest.approx(13 / 3)
    md = drift_power(2.0, unit_drift)
    x = np.array([0.5, -0.2])
    b = md.drift_at(x[None, :])[0]
    pot2 = quadratic_power_potential(2.0)
    assert running_cost(md, pot2, x, b) == pytest.approx(float(pot2.values(x[None, :])[0]))


@pytest.mark.parametrize("gamma", [1.2, 1.5, 2.0, 3.0, 7.0])
def test_conjugate_exponent_identity(gamma):
    m = pure_power(gamma)
    assert abs(1 / m.gamma + 1 / m.gamma_star - 1) <= 1e-14


def test_gamma_must_exceed_one():
    for bad in (0.5, 1.0, -2.0):
        with pytest.raises(ValueError):
            pure_power(bad)


def test_duality_gap_sweep():
    rng = np.random.default_rng(42)
    models = [pure_power(1.3), pure_power(1.5), pure_power(2.0), pure_power(3.0),
              drift_power(2.0, lambda x: np.sin(x))]
    n = 10_000 // len(models)
    for m in models:
        x = rng.uniform(-5, 5, size=(n, 2))
        p = rng.normal(size=(n, 2)) * rng.uniform(0, 6, size=(n, 1))
        xi = rng.normal(size=(n, 2)) * rng.uniform(0, 6, size=(n, 1))
        gaps = np.atleast_1d(duality_gap(m, x, xi, p))
        assert gaps.min() >= -1e-9
        best = np.atleast_2d(optimal_control(m, x, p))
        gaps_opt = np.atleast_1d(duality_gap(m, x, best, p))
        assert np.abs(gaps_opt).max() <= 1e-9


def test_numerical_legendre_matches_hamiltonian():
    # grid max of xi.p - L(xi) vs the closed form, within 2 * spacing * |p|
    m = pure_power(1.5)
    xs = np.linspace(-4, 4, 161)
    spacing = xs[1] - xs[0]
    xi = xs[:, None]
    lvals = np.atleast_1d(lagrangian_value(m, np.zeros((xi.shape[0], 1)), xi))
    for p in np.linspace(-10, 10, 41):
        approx = np.max(xi[:, 0] * p - lvals)
        exact = hamiltonian_value(m, np.zeros(1), np.array([p]))
        assert abs(approx - exact) <= 2 * spacing * max(abs(p), 1e-12) + 1e-12


def test_growth_constants_finite():
    for m in (pure_power(1.5), drift_power(1.5, lambda x: np.cos(x))):
        consts = fit_hamiltonian_growth(m, 2, seed=3)
        assert all(np.isfinite(v) and v >= 0 for v in consts.values())


def test_pure_power_is_the_drift_family_with_zero_drift():
    rng = np.random.default_rng(7)
    x = rng.uniform(-5, 5, size=(500, 2))
    p = rng.normal(size=(500, 2)) * rng.uniform(0, 6, size=(500, 1))
    p[:3] = 0.0  # the control map's singular point
    pure, zero = pure_power(1.5), drift_power(1.5, lambda x: np.zeros_like(x))
    for fn in (hamiltonian_value, lagrangian_value, optimal_control):
        assert fn(pure, x, p).tobytes() == fn(zero, x, p).tobytes()


@pytest.mark.parametrize("model", [pure_power(1.5), drift_power(2.0, unit_drift)])
def test_one_point_calls_return_arrays(model):
    pot = quadratic_power_potential(1.5)
    for x in (np.zeros(2), np.zeros((1, 2))):
        p = xi = x + 0.5
        assert hamiltonian_value(model, x, p).shape == (1,)
        assert lagrangian_value(model, x, xi).shape == (1,)
        assert optimal_control(model, x, p).shape == (1, 2)
        assert duality_gap(model, x, xi, p).shape == (1,)
        assert running_cost(model, pot, x, xi).shape == (1,)


def test_potential_families():
    pot = quadratic_power_potential(1.5)
    x = np.array([[1.0]])
    assert pot.values(x)[0] == pytest.approx(1 + 1 / 1.5)
    assert pot.gradients(x)[0, 0] == pytest.approx(1.0)
    pb = power_beta_potential(2.0)
    assert pb.values(x)[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        constant_potential(0.5)
    qs = quartic_sine_potential()
    assert qs.values(np.array([[0.0]]))[0] == pytest.approx(2.0)
    ea = exp_abs_potential()
    assert ea.values(np.array([[0.0]]))[0] == pytest.approx(2.0)
    assert ea.values(np.array([[2.0]]))[0] == pytest.approx(1 + np.e**2)


def test_tabulated_potential_roundtrip():
    from ergolab.grid import build_grid
    from oracles import tabulated_potential

    g = build_grid(1, 2.0, 0.1)
    f = 1.0 + g.coords[:, 0] ** 2
    pot = tabulated_potential(g, f)
    assert np.allclose(pot.on_grid(g), f)
    inner = g.interior_mask
    assert np.allclose(pot.grad_on_grid(g)[inner, 0], 2 * g.coords[inner, 0], atol=1e-10)
