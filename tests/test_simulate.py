import warnings

import numpy as np
import pytest

from ergolab.eigensolver import solve_ergodic_hjb
from ergolab.grid import bilinear, build_grid, fill_boundary_nearest
from ergolab.hamiltonian import drift_power, pure_power, quadratic_power_potential
from ergolab.simulate import (
    ComparisonReport,
    ErgodicAverageReport,
    SimParams,
    _run_paths,
    compare_controls,
    simulate_average,
)
from oracles import PATH_ARRAYS, path_count_mismatches


@pytest.fixture(scope="module")
def instance():
    g = build_grid(1, 6.0, 0.02)
    model = pure_power(1.5)
    pot = quadratic_power_potential(1.5)
    sol = solve_ergodic_hjb(g, model, pot)
    return g, model, pot, sol


def test_params_validation():
    with pytest.raises(ValueError):
        SimParams(horizon=1.0, timestep=-1e-3, n_paths=1, seed=0)
    with pytest.raises(ValueError):
        SimParams(horizon=0.05, timestep=1e-3, n_paths=1, seed=0)
    with pytest.raises(ValueError):
        SimParams(horizon=1.0, timestep=1e-3, n_paths=0, seed=0)
    with pytest.raises(ValueError):
        SimParams(horizon=1.0, timestep=1e-3, n_paths=1, seed=0, burn_in=1.0)


def test_burn_in_that_leaves_no_step_refused():
    # round(0.999 / 0.01) = 100 = n_steps: the path averages would read 0 / 0
    with pytest.raises(ValueError, match="at least one step"):
        SimParams(horizon=1.0, timestep=0.01, n_paths=2, seed=1, burn_in=0.999)
    assert SimParams(horizon=1.0, timestep=0.01, n_paths=2, seed=1, burn_in=0.99).n_steps == 100


def test_x0_dimension_checked(instance):
    g, model, pot, sol = instance
    p = SimParams(horizon=1.0, timestep=1e-3, n_paths=2, seed=0, x0=(0.0, 0.0))
    with pytest.raises(ValueError):
        simulate_average(g, sol.xi_u, model, pot, p)


def test_bitwise_determinism(request):
    for fixture in ("instance", "instance_2d_drift"):
        g, model, pot, sol = request.getfixturevalue(fixture)
        p = SimParams(
            horizon=2.0, timestep=1e-3, n_paths=8, seed=99, burn_in=0.5, x0=(0.0,) * g.dim
        )
        a = simulate_average(g, sol.xi_u, model, pot, p)
        b = simulate_average(g, sol.xi_u, model, pot, p)
        assert_same_paths(a, b)
        # path p's statistics are the same bits among 8 paths as among 1, 2, 4 or 7
        assert path_count_mismatches(g, sol.xi_u, model, pot, p) == [], fixture


def test_identical_controls_identical_statistics(instance):
    g, model, pot, sol = instance
    p = SimParams(horizon=2.0, timestep=1e-3, n_paths=4, seed=12, burn_in=0.5)
    comp = compare_controls(
        g, [("a", sol.xi_u), ("b", sol.xi_u.copy())], model, pot, p
    )
    assert np.array_equal(
        comp.reports["a"].path_averages, comp.reports["b"].path_averages
    )


def test_repeated_control_name_rejected(instance):
    g, model, pot, sol = instance
    p = SimParams(horizon=1.0, timestep=1e-3, n_paths=2, seed=0)
    with pytest.raises(ValueError, match="distinct names"):
        compare_controls(g, [("a", sol.xi_u), ("a", 2.0 * sol.xi_u)], model, pot, p)


def assert_same_paths(a, b):
    for key in PATH_ARRAYS:
        assert np.array_equal(getattr(a, key), getattr(b, key), equal_nan=key != "diverged"), key


@pytest.fixture(scope="module")
def instance_2d_drift():
    g = build_grid(2, 2.0, 0.2)
    model = drift_power(1.5, lambda x: 0.5 * np.sin(x))
    pot = quadratic_power_potential(1.5)
    return g, model, pot, solve_ergodic_hjb(g, model, pot)


@pytest.mark.parametrize("case", ["1d", "2d_drift"])
def test_single_control_compare_equals_simulate(request, case):
    # every control's report in a comparison is its own run, bit for bit
    fixture = {"1d": "instance", "2d_drift": "instance_2d_drift"}[case]
    g, model, pot, sol = request.getfixturevalue(fixture)
    p = SimParams(
        horizon=2.0, timestep=1e-3, n_paths=4, seed=12, burn_in=0.5, x0=(0.0,) * g.dim
    )
    named = [("xi_u", sol.xi_u), ("half", 0.5 * sol.xi_u), ("double", 2.0 * sol.xi_u)]
    comp = compare_controls(g, named, model, pot, p)
    for name, ctrl in named:
        assert_same_paths(comp.reports[name], simulate_average(g, ctrl, model, pot, p))


@pytest.mark.parametrize("dim", [1, 2])
def test_outward_control_reflects_at_the_wall(dim):
    # the drift -xi = 3 sign(x) pushes every path into the wall; reflection
    # keeps each path on the box, so none diverges and its running cost is
    # bounded by max F on the box plus the control's Lagrangian
    g = build_grid(dim, 2.0, 0.2)
    model, pot = pure_power(1.5), quadratic_power_potential(1.5)
    outward = -3.0 * np.sign(g.coords)
    x0 = (1.8, -1.8)[:dim]  # near a corner in 2d
    p = SimParams(horizon=12.0, timestep=1e-3, n_paths=4, seed=3, burn_in=1.0, x0=x0)
    rep = simulate_average(g, outward, model, pot, p)
    assert rep.n_divergent == 0
    gs = model.gamma_star
    bound = pot.value_fn(g.coords).max() + (3.0 * np.sqrt(dim)) ** gs / gs
    assert np.all(rep.path_averages <= bound)


def test_non_finite_paths_flagged_divergent(instance):
    # a control that evaluates to NaN right of x = 1.5 turns every path that
    # reaches there into NaN, which stays NaN, so such paths count as
    # divergent instead of poisoning the mean
    g, model, pot, sol = instance
    field = fill_boundary_nearest(sol.xi_u, g)
    field[g.coords[:, 0] > 1.5] = np.nan
    p = SimParams(horizon=2.0, timestep=1e-3, n_paths=8, seed=5)
    out = _run_paths(g, field, model, pot, p)
    nan_paths = ~np.isfinite(out["path_averages"])
    assert 0 < nan_paths.sum() < p.n_paths
    assert np.array_equal(out["diverged"], nan_paths)


def _synthetic_report(half_averages, diverged=(False, False, False)):
    half = np.asarray(half_averages, dtype=float)
    return ErgodicAverageReport(
        path_averages=half,
        half_averages=half,
        admissibility=np.zeros(half.size),
        admissibility_ratio=np.ones(half.size),
        diverged=np.asarray(diverged),
        params=SimParams(horizon=1.0, timestep=1e-3, n_paths=half.size, seed=0),
    )


def test_pathwise_dominance_on_synthetic_reports():
    low, high = _synthetic_report([1.0, 1.0, 1.1]), _synthetic_report([2.0, 2.1, 2.2])
    comp = ComparisonReport(reports={"low": low, "high": high})
    assert comp.pathwise_dominates("low")
    assert not comp.pathwise_dominates("high")  # 5 standard errors of "low" are 0.17
    # a path that diverged under either control is left out of the pair
    spiked = _synthetic_report([1.0, 9.0, 1.1], diverged=(False, True, False))
    assert ComparisonReport(reports={"spiked": spiked, "high": high}).pathwise_dominates("spiked")
    # and a pair in which every path diverged says nothing against the reference
    lost = _synthetic_report([0.0, 0.0, 0.0], diverged=(True, True, True))
    assert ComparisonReport(reports={"low": low, "lost": lost}).pathwise_dominates("low")
    # a reference whose paths all diverged compares nothing, so it ranks nowhere
    assert not ComparisonReport(reports={"lost": lost, "high": high}).pathwise_dominates("lost")


def test_comparison_order_ranks_by_mean_nan_last():
    low, high = _synthetic_report([1.0, 1.0, 1.1]), _synthetic_report([2.0, 2.1, 2.2])
    lost = _synthetic_report([0.0, 0.0, 0.0], diverged=(True, True, True))  # mean NaN
    assert ComparisonReport(reports={"lost": lost, "high": high, "low": low}).order == [
        "low", "high", "lost"
    ]


def test_ou_quadratic_statistical(instance):
    g, _, _, _ = instance
    model = pure_power(2.0)
    pot = quadratic_power_potential(2.0)
    ctrl = np.zeros((g.num_nodes, 1))
    ctrl[:, 0] = g.coords[:, 0]
    p = SimParams(horizon=120.0, timestep=1e-3, n_paths=16, seed=21, burn_in=12.0)
    rep = simulate_average(g, ctrl, model, pot, p)
    assert rep.n_divergent == 0
    assert abs(rep.mean - 2.0) <= 3 * rep.standard_error
    assert np.all(np.isfinite(rep.admissibility))


def test_dt_refinement_statistically_stable(instance):
    g, model, pot, sol = instance
    pa = SimParams(horizon=50.0, timestep=1e-3, n_paths=8, seed=9, burn_in=5.0)
    pb = SimParams(horizon=50.0, timestep=5e-4, n_paths=8, seed=9, burn_in=5.0)
    ra = simulate_average(g, sol.xi_u, model, pot, pa)
    rb = simulate_average(g, sol.xi_u, model, pot, pb)
    assert abs(ra.mean - rb.mean) <= 2 * ra.standard_error


def test_interpolation_inside_and_outside():
    g = build_grid(2, 2.0, 0.5)
    ctrl = np.zeros((g.num_nodes, 2))
    ctrl[:, 0] = g.coords[:, 0] + 2 * g.coords[:, 1]
    ctrl[:, 1] = -g.coords[:, 0]
    field = fill_boundary_nearest(ctrl, g)
    pts = np.array([[0.3, -0.7], [1.1, 0.2], [-0.25, 0.25]])
    vals = bilinear(g, field, pts)
    # bilinear interpolation reproduces affine fields away from the filled
    # boundary layer
    assert np.allclose(vals[:, 0], pts[:, 0] + 2 * pts[:, 1], atol=1e-12)
    assert np.allclose(vals[:, 1], -pts[:, 0], atol=1e-12)
    # on the wall, outside the interior nodes: the filled corner, which
    # copies the nearest interior node at (1.5, 1.5)
    corner = bilinear(g, field, np.array([[g.wall, g.wall]]))
    assert corner[0].tolist() == pytest.approx([1.5 + 2 * 1.5, -1.5])


def test_interpolation_keeps_a_nan_row_out_of_the_index_cast():
    g = build_grid(2, 2.0, 0.5)
    field = np.random.default_rng(3).normal(size=(g.num_nodes, 2))
    pts = np.array([[0.3, -0.7], [1.1, 0.2], [-g.wall, g.wall]])
    with_nan = np.insert(pts, 1, [np.nan, 0.4], axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # "invalid value encountered in cast"
        vals = bilinear(g, field, with_nan)
    assert np.isnan(vals[1]).all()
    assert np.array_equal(np.delete(vals, 1, axis=0), bilinear(g, field, pts))


def test_ranking_and_pathwise(instance):
    g, model, pot, sol = instance
    p = SimParams(horizon=60.0, timestep=1e-3, n_paths=8, seed=5, burn_in=6.0)
    comp = compare_controls(
        g,
        [("xi_u", sol.xi_u), ("half", 0.5 * sol.xi_u), ("double", 2.0 * sol.xi_u)],
        model,
        pot,
        p,
    )
    assert comp.order[0] == "xi_u"
    assert comp.pathwise_dominates("xi_u")
