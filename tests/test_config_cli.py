import json
from pathlib import Path

import numpy as np
import pytest

from ergolab.cli import main
from ergolab.config import SCENARIOS, ConfigError, DEFAULTS, apply_override, parse_config
from ergolab.estimates import fit_hamiltonian_growth
from ergolab.grid import build_grid
from ergolab.runner import STAGES, run_scenario


def test_minimal_config_gets_defaults():
    cfg = parse_config('{"scenario": "solve"}')
    assert cfg.scenario == "solve"
    assert cfg.raw["grid"] == DEFAULTS["grid"]
    assert cfg.raw["solver"]["eval_tolerance"] == 1e-10
    assert cfg.raw["seed"] == 12345


def test_gamma_below_one_rejected():
    with pytest.raises(ConfigError, match="gamma' must exceed 1"):
        parse_config('{"model": {"gamma": 0.5}}')


def test_dim_three_rejected_with_scale_message():
    with pytest.raises(ConfigError, match="desk-scale"):
        parse_config('{"grid": {"dim": 3}}')


def test_unknown_key_path_qualified():
    with pytest.raises(ConfigError, match="solver.evil"):
        parse_config('{"solver": {"evil": 1}}')
    with pytest.raises(ConfigError, match="'nonsense'"):
        parse_config('{"nonsense": 1}')


def test_malformed_json():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("{not json")


def test_structural_validation():
    with pytest.raises(ConfigError, match="burn_in"):
        parse_config('{"sde": {"burn_in": 300.0}}')
    with pytest.raises(ConfigError, match="radii"):
        parse_config('{"exhaust": {"radii": [4.0, 3.0]}}')
    with pytest.raises(ConfigError, match="xi_count"):
        parse_config('{"lp": {"xi_count": 40}}')
    with pytest.raises(ConfigError, match="radius"):
        parse_config('{"grid": {"radius": 0.1, "spacing": 0.05}}')


def test_x0_checked_against_the_grid_wall():
    # the wall follows the lattice, which stops short of R = 4.03
    wall = build_grid(2, 4.03, 0.05).wall
    text = '{"grid": {"dim": 2, "radius": 4.03, "spacing": 0.05}, "sde": {"x0": [%r, %r]}}'
    assert parse_config(text % (0.0, -wall)).sim_params().x0 == (0.0, -wall)
    with pytest.raises(ConfigError, match=r"'sde': x0 must list .* within \+-4"):
        parse_config(text % (0.0, -(wall + 0.01)))


def test_readme_default_block_is_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("### Configuration"):]
    block = section[section.index("```json") + len("```json"):]
    assert json.loads(block[: block.index("```")]) == DEFAULTS


def test_drift_vector_length_must_match_dim():
    cfg = parse_config('{"model": {"drift_name": "constant"}}')
    with pytest.raises(ConfigError, match="model.drift_vector"):
        cfg.model()
    with pytest.raises(ConfigError, match="model.drift_vector"):
        apply_override(cfg, "model.drift_vector", "[0.3, 0.1]").model()
    # the check does not depend on the order of the overrides
    overrides = {"model.drift_vector": "[0.3, 0.1]", "grid.dim": "2"}
    for order in (list(overrides), list(reversed(overrides))):
        cfg2 = cfg
        for key in order:
            cfg2 = apply_override(cfg2, key, overrides[key])
        assert cfg2.model().drift_at(np.zeros(2)).tolist() == [[0.3, 0.1]]


def test_growth_constants_for_1d_constant_drift():
    cfg = parse_config(
        '{"model": {"drift_name": "constant", "drift_vector": [0.3]}}'
    )
    consts = fit_hamiltonian_growth(cfg.model(), cfg["grid"]["dim"], seed=3)
    assert all(np.isfinite(v) and v >= 0 for v in consts.values())


def test_apply_override():
    cfg = parse_config("{}")
    cfg2 = apply_override(cfg, "grid.spacing", "0.02")
    assert cfg2.raw["grid"]["spacing"] == 0.02
    with pytest.raises(ConfigError, match="override path"):
        apply_override(cfg, "grid.nope", "1")
    with pytest.raises(ConfigError):
        apply_override(cfg, "model.gamma", "0.2")  # revalidated


SOLVE_ARGS = [
    "--set", "grid.radius=4.0",
    "--set", "grid.spacing=0.1",
    "--seed", "7",
]


def test_cli_solve_writes_artifacts(tmp_path, capsys):
    code = main(["solve", "--out-dir", str(tmp_path)] + SOLVE_ARGS)
    assert code == 0
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "fields.csv").exists()
    out = capsys.readouterr().out
    assert "[PASS] solver_converged" in out
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["results"]["solve"]["lambda"] == pytest.approx(2.0, abs=0.1)


def test_cli_repeat_run_bitwise_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--out-dir", str(a)] + SOLVE_ARGS) == 0
    assert main(["solve", "--out-dir", str(b)] + SOLVE_ARGS) == 0
    assert (a / "fields.csv").read_bytes() == (b / "fields.csv").read_bytes()
    pa = json.loads((a / "summary.json").read_text())
    pb = json.loads((b / "summary.json").read_text())
    pa.pop("timing"), pb.pop("timing")
    assert pa == pb


def test_drift_name_alone_selects_the_drift(tmp_path):
    lams = []
    for i, extra in enumerate(([], ["model.drift_name=sine", "model.drift_amplitude=0.5"])):
        sets = [arg for key in extra for arg in ("--set", key)]
        assert main(["solve", "--out-dir", str(tmp_path / str(i))] + SOLVE_ARGS + sets) == 0
        payload = json.loads((tmp_path / str(i) / "summary.json").read_text())
        lams.append(payload["results"]["solve"]["lambda"])
    assert abs(lams[1] - lams[0]) > 0.1  # 2.0054 without the drift, 1.7647 with it


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": {"gamma": 0.5}}')
    assert main(["solve", "--config", str(bad)]) == 2
    assert main(["solve", "--set", "grid.dim=3"]) == 2


@pytest.mark.parametrize(
    "code, command, args",
    [
        (0, "solve", []),
        (1, "solve", ["--set", "solver.max_policy_iters=1"]),
        (2, "solve", ["--set", "model.drift_name=constant"]),  # no drift_vector
        (2, "solve", ["--set", "grid.dim=2", "--set", "grid.spacing=0.001"]),  # over MAX_NODES
        (2, "exhaust", ["--set", "grid.dim=2", "--set", "exhaust.radii=[3.0,200.0]"]),  # ditto
        (2, "exhaust", ["--set", "exhaust.radii=[0.2,3.0]"]),  # below 4 * grid.spacing
        (3, "solve", ["--set", "solver.eval_tolerance=1e-30"]),
        (2, "check", ["--set", "model.drift_name=constant"]),  # check builds the model too
    ],
)
def test_cli_exit_codes_write_summary(tmp_path, code, command, args):
    assert main([command, "--out-dir", str(tmp_path)] + SOLVE_ARGS + args) == code
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["exit_code"] == code
    assert ("error" in payload["results"]) == (code in (2, 3))


def test_compare_reference_is_multiplier_one(tmp_path):
    # the order of compare.multipliers does not change which report is the
    # reference: every control's report is its own run on common noise
    outcomes = []
    for i, mults in enumerate(("[0.5,1.0,2.0]", "[1.0,2.0,0.5]")):
        args = ["--set", f"compare.multipliers={mults}", "--set", "sde.horizon=20"]
        main(["compare", "--out-dir", str(tmp_path / str(i))] + SOLVE_ARGS + args)
        payload = json.loads((tmp_path / str(i) / "summary.json").read_text())
        check = payload["checks"]["optimal_control_ranks_first"]
        outcomes.append((check, payload["results"]["compare"]["pathwise_reference_first"]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0]["passed"] == (outcomes[0][0]["value"][0] == "1*xi_u")


def test_tied_keys_independent_of_override_order(tmp_path):
    # grid.radius >= 4 * grid.spacing holds only after both overrides
    overrides = ["--set", "grid.spacing=1.5", "--set", "grid.radius=8.0"]
    for order in (overrides, overrides[2:] + overrides[:2]):
        assert main(["solve", "--out-dir", str(tmp_path)] + order) == 0


@pytest.mark.parametrize(
    "command, override, key",
    [
        ("solve", "solver.max_policy_iters=0", "'solver'"),
        ("simulate", "sde.timestep=0", "'sde'"),
        ("simulate", "sde.n_paths=0", "'sde'"),
        ("simulate", "sde.horizon=0.05", "'sde'"),  # under 100 timesteps
        ("simulate", "sde.x0=[0.0,0.0]", "'sde'"),  # 1d grid
        ("compare", "compare.multipliers=[]", "'compare.multipliers'"),
        ("exhaust", "exhaust.boundary_mode=reflecting", "'exhaust'"),
        ("simulate", "seed=-3", "'seed'"),
        ("solve", 'grid={"dim":2}', "'grid'"),  # a whole section
        ("simulate", "sde.n_paths=2.5", "'sde'"),
        ("simulate", "sde.workers=2.7", "'sde'"),
        ("simulate", "sde.workers=0", "'sde'"),
        pytest.param(  # a deleted key
            "simulate", "sde.safety_factor=-1", "unknown override path 'sde.safety_factor'",
            id="sde.safety_factor=-1-unknown",
        ),
        pytest.param(  # drift_name alone picks the Hamiltonian
            "solve", "model.kind=drift_power", "unknown override path 'model.kind'",
            id="model.kind-unknown",
        ),
        pytest.param(  # only exhaust picks a closure
            "solve", "solver.boundary_mode=dirichlet_big",
            "unknown override path 'solver.boundary_mode'",
            id="solver.boundary_mode-unknown",
        ),
        ("lp", "lp.xi_bound=-1", "'lp.xi_bound'"),
        ("compare", "compare.multipliers=[0.5,2.0]", "'compare.multipliers'"),  # no 1.0
        ("compare", "compare.multipliers=[1.0,1]", "'compare.multipliers'"),  # a repeat
        ("compare", 'compare.multipliers=[1.0,"2"]', "'compare.multipliers'"),
        ("simulate", "sde.x0=[4.1]", "'sde'"),  # outside the wall
    ],
)
def test_out_of_range_run_parameters_rejected(tmp_path, capsys, command, override, key):
    assert main([command, "--out-dir", str(tmp_path), "--set", override]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_every_stage_in_the_table():
    named = {stage for stages in SCENARIOS.values() for stage in stages}
    assert named == set(STAGES)


def test_cli_check_scenario_flags_bad_potential(tmp_path):
    code = main(
        [
            "check",
            "--out-dir", str(tmp_path),
            "--set", "potential.family=named",
            "--set", "potential.name=quartic_sine",
            "--set", "grid.radius=6.0",
            "--set", "grid.spacing=0.01",
        ]
    )
    assert code == 1
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert not payload["checks"]["potential_gradient_growth"]["passed"]


def test_cli_exhaust_scenario(tmp_path):
    code = main(
        [
            "exhaust",
            "--out-dir", str(tmp_path),
            "--set", "exhaust.radii=[3.0,4.0,5.0]",
            "--set", "grid.spacing=0.05",
        ]
    )
    assert code == 0
    lines = (tmp_path / "exhaustion.csv").read_text().splitlines()
    assert lines[0] == "radius,lambda"
    assert len(lines) == 4


FULL_ARGS = [
    "--set", "grid.radius=4.0",
    "--set", "grid.spacing=0.1",
    "--set", "lp.xi_count=21",
    "--set", "sde.horizon=40.0",
    "--set", "sde.n_paths=4",
    "--set", "checks.sweep_size=5",
    "--set", "checks.sim_sigmas=5.0",
    "--seed", "3",
]


def test_full_verify_pipeline(tmp_path, capsys):
    code = main(["full_verify", "--out-dir", str(tmp_path)] + FULL_ARGS)
    out = capsys.readouterr().out
    assert code == 0, out
    payload = json.loads((tmp_path / "summary.json").read_text())
    head = payload["results"]["headline"]
    assert set(head) == {
        "lambda_policy_iteration",
        "lambda_lp",
        "mu_cost_fokker_planck",
        "simulation_mean",
        "simulation_se",
    }
    assert head["lambda_policy_iteration"] == pytest.approx(2.0, abs=0.1)
    assert head["lambda_lp"] == pytest.approx(head["lambda_policy_iteration"], abs=0.05)
    assert head["mu_cost_fokker_planck"] == pytest.approx(
        head["lambda_policy_iteration"], abs=1e-6
    )
    for name in ("measure.csv", "density.csv", "paths.csv", "fields.csv"):
        assert (tmp_path / name).exists()
    assert set(payload["timing"]["stages"]) == set(SCENARIOS["full_verify"])
    # controls x paths x steps: one control in simulate, three in compare
    path_steps = {"simulate": 4 * 40_000, "compare": 3 * 4 * 40_000}
    assert set(payload["timing"]["path_steps_per_s"]) == set(path_steps)
    for stage, count in path_steps.items():
        assert payload["results"][stage]["stats"] == {"path_steps": count}
        assert payload["timing"]["path_steps_per_s"][stage] > 0
    solve = payload["results"]["solve"]
    assert set(solve["stats"]) == {
        "unknowns",
        "operator_nnz",
        "lu_fill",
        "factorizations",
        "refinement_solves",
        "iterations",
    }
    assert len(solve["stats"]["iterations"]) == solve["iterations"]
    for entry in solve["stats"]["iterations"]:
        assert set(entry) == {"lambda", "control_step", "residual"}
    assert 1 <= solve["stats"]["factorizations"] <= solve["iterations"]
    assert set(payload["results"]["fokker_planck"]["stats"]) == {"factorizations"}


def test_full_verify_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["full_verify", "--out-dir", str(a)] + FULL_ARGS) == 0
    assert main(["full_verify", "--out-dir", str(b)] + FULL_ARGS) == 0
    pa = json.loads((a / "summary.json").read_text())
    pb = json.loads((b / "summary.json").read_text())
    pa.pop("timing"), pb.pop("timing")
    assert pa == pb
    for name in ("measure.csv", "density.csv", "paths.csv", "fields.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("scenario", ["lp", "simulate", "compare"])
def test_standalone_scenarios(tmp_path, scenario):
    args = [
        scenario,
        "--out-dir", str(tmp_path / scenario),
        "--set", "grid.radius=4.0",
        "--set", "grid.spacing=0.1",
        "--set", "lp.xi_count=21",
        "--set", "sde.horizon=10.0",
        "--set", "sde.n_paths=2",
        "--set", "checks.sim_sigmas=8.0",
    ]
    code = main(args)
    payload = json.loads((tmp_path / scenario / "summary.json").read_text())
    assert code == 0, payload["checks"]
    key = {"lp": "lp", "simulate": "simulate", "compare": "compare"}[scenario]
    assert key in payload["results"]
    assert set(payload["timing"]["stages"]) == set(SCENARIOS[scenario])
    if scenario == "lp":
        stats = payload["results"]["lp"]["stats"]
        assert stats["columns"] == 81 * 21
        assert stats["active_columns"] <= stats["columns"]
        assert stats["pricing_rounds"] >= 1 and stats["highs_iterations"] >= 1
        assert set(payload["results"]["lp"]["certificates"]) == {
            "primal_feasibility",
            "complementarity",
            "dual_feasibility_min",
        }


def test_run_scenario_api(tmp_path):
    cfg = parse_config(
        json.dumps(
            {
                "scenario": "fokker_planck",
                "grid": {"radius": 4.0, "spacing": 0.1},
            }
        )
    )
    report = run_scenario(cfg, tmp_path)
    assert report.exit_code == 0
    assert report.payload["results"]["fokker_planck"]["mu_cost"] == pytest.approx(
        report.payload["results"]["solve"]["lambda"], abs=1e-8
    )
