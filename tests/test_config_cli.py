import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ergolab.config
import ergolab.eigensolver
import ergolab.grid
import ergolab.measure_lp
import ergolab.runner
from ergolab.cli import main
from ergolab.config import (
    DEFAULTS,
    SCENARIOS,
    SCHEMA,
    ConfigError,
    apply_override,
    parse_config,
)
from ergolab.eigensolver import (
    SingularEvaluationError,
    SolverOptions,
    domain_exhaustion,
    pde_residual,
    solve_ergodic_hjb,
)
from ergolab.estimates import fit_hamiltonian_growth
from ergolab.grid import build_grid
from ergolab.hamiltonian import drift_power, pure_power, quadratic_power_potential
from ergolab.runner import STAGES, run_scenario
from ergolab.serialize import write_csv
from oracles import read_strict_json


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


def test_sections_and_root_must_be_objects():
    with pytest.raises(ConfigError, match="'grid' must be an object"):
        parse_config('{"grid": 5}')
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        parse_config("[1]")


def test_set_without_equals_sign_refused(tmp_path, capsys):
    assert main(["solve", "--out-dir", str(tmp_path), "--set", "grid.dim"]) == 2
    assert "--set expects KEY=VALUE, got 'grid.dim'" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


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


def test_readme_library_block_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    block = section[section.index("```python") + len("```python"):]
    names = {}
    exec(block[: block.index("```")], names)
    solution = names["solution"]
    assert names["residual"] == pde_residual(solution)
    assert abs(names["cost"] - solution.lam) <= 1e-8


def test_readme_scenario_table_is_the_scenarios():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("| scenario | stages |"):].split("\n\n")[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    listed = {
        name.strip(" `"): tuple(stage.strip() for stage in stages.split("→"))
        for name, stages in rows
    }
    assert listed == SCENARIOS


def test_readme_names_only_config_keys():
    # every `section.key` span of a config section names a key of DEFAULTS
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sections = {name for name, value in DEFAULTS.items() if isinstance(value, dict)}
    spans = re.findall(r"`(\w+)\.(\w+)(?![\w.])", readme)
    named = [(section, key) for section, key in spans if section in sections]
    assert named, "no config keys found"
    assert [f"{s}.{k}" for s, k in named if k not in DEFAULTS[s]] == []


def test_drift_vector_length_must_match_dim():
    text = '{"model": {"drift_name": "constant"}}'
    with pytest.raises(ConfigError, match="model.drift_vector"):
        parse_config(text)
    with pytest.raises(ConfigError, match="model.drift_vector"):
        parse_config(text, [("model.drift_vector", "[0.3, 0.1]")])  # a 1d grid
    # the check does not depend on the order of the overrides
    overrides = [("model.drift_vector", "[0.3, 0.1]"), ("grid.dim", "2")]
    for order in (overrides, overrides[::-1]):
        cfg = parse_config(text, order)
        assert cfg.model().drift_at(np.zeros(2)).tolist() == [[0.3, 0.1]]


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
        # explicit ids keep a row's name when rows before it leave the table
        pytest.param(3, "solve", ["--set", "solver.eval_tolerance=1e-30"], id="3-solve-args6"),
        # finite inputs whose running cost overflows
        pytest.param(
            3, "solve", ["--set", "grid.spacing=0.2", "--set", "model.gamma=1e6"],
            id="3-solve-args8",
        ),
    ],
)
def test_cli_exit_codes_write_summary(tmp_path, code, command, args):
    # a run that starts ends 0, 1 or 3; exit 2 comes only from parsing
    assert main([command, "--out-dir", str(tmp_path)] + SOLVE_ARGS + args) == code
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["exit_code"] == code
    assert ("error" in payload["results"]) == (code == 3)


@pytest.mark.parametrize(
    "command, args, key",
    [
        ("solve", ["grid.spacing=1e-7"], "'grid'"),  # 1d over MAX_NODES
        ("solve", ["grid.dim=2", "grid.spacing=0.001"], "'grid'"),  # over MAX_NODES
        ("exhaust", ["grid.dim=2", "exhaust.radii=[3.0,200.0]"], "'exhaust.radii'"),  # ditto
        ("exhaust", ["exhaust.radii=[0.2,3.0]"], "'exhaust.radii'"),  # below 4 * grid.spacing
        ("check", ["grid.dim=2", "grid.spacing=0.001"], "'grid'"),  # check builds it too
        # over the work budget: 8 paths x 1e10 steps, 3 controls x 8 x 5e6, and
        # 8 x 2e302 steps; none of them would have finished
        ("simulate", ["grid.spacing=0.2", "sde.horizon=1e7"], "'sde'"),
        ("compare", ["sde.horizon=5000"], "'sde'"),
        ("full_verify", ["sde.timestep=1e-300"], "'sde'"),
        ("full_verify", ["checks.sweep_size=10000000"], "'checks.sweep_size'"),  # x 81 nodes
        ("simulate", ["sde.horizon=1e300", "sde.timestep=1e-10"], "'sde'"),  # overflows
        ("lp", ["lp.xi_count=100000001"], "'lp.xi_count'"),  # an atom lattice over MAX_NODES
        # one path has no standard error, and a NaN in summary.json is not JSON
        ("simulate", ["sde.n_paths=1"], "'sde.n_paths'"),
        ("compare", ["sde.n_paths=1"], "'sde.n_paths'"),
        ("full_verify", ["sde.n_paths=1"], "'sde.n_paths'"),
    ],
)
def test_grids_and_work_sized_at_parse_time(tmp_path, capsys, command, args, key):
    # refused before any stage runs, so no artifact is written
    sets = [arg for item in args for arg in ("--set", item)]
    assert main([command, "--out-dir", str(tmp_path)] + SOLVE_ARGS + sets) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "sets",
    [
        ["grid.dim=2"],  # 161^2 nodes x 41^2 atoms = 43.6M columns at the defaults
        ["grid.spacing=0.2", "lp.xi_count=1000001"],  # 41 nodes x 1,000,001 atoms
    ],
)
def test_lp_over_the_column_limit_refused_before_the_run(tmp_path, capsys, sets):
    out = tmp_path / "run"
    args = [arg for item in sets for arg in ("--set", item)]
    assert main(["lp", "--out-dir", str(out)] + args) == 2
    assert "'lp.xi_count'" in capsys.readouterr().err
    assert not out.exists()
    # the limit is read where a run starts: a config built one override at a
    # time may pass through such a program on its way to a small one
    config = parse_config(json.dumps({"scenario": "lp"}), [tuple(s.split("=")) for s in sets])
    with pytest.raises(ConfigError, match="'lp.xi_count'"):
        run_scenario(config, out)
    assert not out.exists()


@pytest.mark.parametrize(
    "sets, key",
    [
        (["model.drift_amplitude=0.5"], "model.drift_amplitude"),  # under none
        (["model.drift_name=constant", "model.drift_vector=[0.3]", "model.drift_amplitude=0.5"],
         "model.drift_amplitude"),
        (["model.drift_vector=[0.3]"], "model.drift_vector"),  # under none
        (["model.drift_name=sine", "model.drift_amplitude=0.5", "model.drift_vector=[0.3]"],
         "model.drift_vector"),
        (["model.drift_name=constant", 'model.drift_vector=["a"]'], "model.drift_vector"),
    ],
)
def test_unread_drift_parameter_rejected(tmp_path, capsys, sets, key):
    # each once gave the lambda of the drift without it, bit for bit
    args = [arg for item in sets for arg in ("--set", item)]
    assert main(["solve", "--out-dir", str(tmp_path)] + SOLVE_ARGS + args) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "sets, key",
    [
        (["potential.beta=3.0"], "potential.beta"),  # under quadratic_power
        (["potential.value=5.0"], "potential.value"),
        (["potential.name=exp_abs"], "potential.name"),  # deleted: the family names it
        (["potential.family=power_beta", "potential.value=5.0"], "potential.value"),
        (["potential.family=constant", "potential.name=exp_abs"], "potential.name"),  # deleted
        (["potential.family=exp_abs", "potential.beta=3.0"], "potential.beta"),
    ],
)
def test_unread_potential_parameter_rejected(tmp_path, capsys, sets, key):
    # each of the first three once gave the default's lambda, bit for bit
    args = [arg for item in sets for arg in ("--set", item)]
    assert main(["solve", "--out-dir", str(tmp_path)] + SOLVE_ARGS + args) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "family, key, value",
    [("power_beta", "beta", 1.5), ("constant", "value", 1.0)],
)
def test_null_potential_parameter_is_the_family_default(family, key, value):
    given = parse_config(json.dumps({"potential": {"family": family, key: value}}))
    null = parse_config(json.dumps({"potential": {"family": family}}))
    assert null.raw["potential"][key] is None
    x = build_grid(1, 4.0, 0.1).coords
    assert np.array_equal(null.potential().values(x), given.potential().values(x))


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"potential": {"family": "constant", "value": 0.5}}', "'potential'"),
        ('{"potential": {"family": "constant", "value": "abc"}}', "'potential'"),
        ('{"potential": {"family": "named", "name": "bogus"}}', "'potential.name'"),  # deleted
        ('{"model": {"drift_name": "sine", "drift_amplitude": "abc"}}', "'model.drift_amplitude'"),
        ('{"exhaust": {"radii": ["a", 4.0]}}', "'exhaust.radii'"),
        ('{"output": {"directory": 5}}', "'output.directory'"),
        ('{"solver": {"max_policy_iters": 2.5}}', "'solver'"),
    ],
)
def test_kept_keys_checked_at_parse_time(text, key):
    # each of these once crashed the run with a traceback and no summary,
    # but the iteration budget, which int() truncated to 2
    with pytest.raises(ConfigError, match=key):
        parse_config(text)


def test_warnings_recorded(tmp_path):
    sets = ["--set", "potential.family=quartic_sine"]
    for i, extra in enumerate(([], sets)):
        assert main(["solve", "--out-dir", str(tmp_path / str(i))] + extra) == 0
    warned = [
        json.loads((tmp_path / str(i) / "summary.json").read_text())["results"]["warnings"]
        for i in range(2)
    ]
    assert warned[0] == []
    assert len(warned[1]) == 1 and "not increasing toward the boundary" in warned[1][0]


def test_outward_wall_drift_warning_recorded(tmp_path):
    # a constant drift of 3 toward the left wall exceeds 1/h = 2 there
    sets = ["model.drift_name=constant", "model.drift_vector=[-3.0]", "grid.spacing=0.5"]
    args = [arg for key in sets for arg in ("--set", key)]
    assert main(["solve", "--out-dir", str(tmp_path)] + args) == 0
    warned = json.loads((tmp_path / "summary.json").read_text())["results"]["warnings"]
    assert len(warned) == 1 and "outward drift at a wall node reached 1/h" in warned[0]


def test_simulation_compared_with_richardson_lambda(tmp_path):
    # at defaults seed 28 lies more than 3 standard errors from lambda_h but
    # within them of 2 lambda_{h/2} - lambda_h
    assert main(["simulate", "--out-dir", str(tmp_path), "--seed", "28"]) == 0
    payload = json.loads((tmp_path / "summary.json").read_text())
    lam, sim = payload["results"]["solve"]["lambda"], payload["results"]["simulate"]
    assert sim["lambda_reference"] == 2 * sim["lambda_refined"] - lam
    check = payload["checks"]["simulation_matches_lambda"]
    assert check["passed"] and check["value"] == abs(sim["mean"] - sim["lambda_reference"])
    assert abs(sim["mean"] - lam) > check["tolerance"]


def test_richardson_grid_over_node_limit(tmp_path, capsys, monkeypatch):
    # refused before the grid at h is solved, not after
    def unreachable(*args, **kwargs):
        raise AssertionError("solve_ergodic_hjb called")

    monkeypatch.setattr(ergolab.grid, "MAX_NODES", 100)  # 81 nodes at h, 161 at h/2
    monkeypatch.setattr(ergolab.runner, "solve_ergodic_hjb", unreachable)
    assert main(["simulate", "--out-dir", str(tmp_path)] + SOLVE_ARGS) == 2
    assert "'grid' at h/2" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_exhaust_never_sizes_the_grid(tmp_path):
    # exhaust builds only its own boxes, so grid.radius may be out of reach,
    # or under 4 * grid.spacing
    for i, (sets, radii) in enumerate((
        (["grid.radius=1e6", "exhaust.radii=[1.0,2.0]"], [1.0, 2.0]),
        (["grid.spacing=2", "exhaust.radii=[8,16]"], [8, 16]),
    )):
        args = [arg for item in sets for arg in ("--set", item)]
        assert main(["exhaust", "--out-dir", str(tmp_path / str(i))] + args) == 0
        payload = json.loads((tmp_path / str(i) / "summary.json").read_text())
        assert [r for r, _ in payload["results"]["exhaustion"]["sequence"]] == radii


def test_failed_lp_reports_its_rounds(tmp_path, monkeypatch):
    # the certificate fails after the last round: exit 3, and results.lp
    # still holds the stats of the rounds that ran
    monkeypatch.setattr(ergolab.measure_lp, "COMPLEMENTARITY_TOL", -1.0)
    sets = ["--set", "grid.spacing=0.2", "--set", "lp.xi_count=9"]
    assert main(["lp", "--out-dir", str(tmp_path)] + sets) == 3
    results = read_strict_json(tmp_path / "summary.json")["results"]
    assert results["error"].startswith("LPSolveError: complementary slackness")
    stats = results["lp"]["stats"]
    assert list(results["lp"]) == ["stats"]
    assert stats["pricing_rounds"] == len(stats["round_iterations"]) >= 1
    assert stats["highs_iterations"] == sum(stats["round_iterations"]) > 0
    assert sum(stats["round_columns"]) == stats["active_columns"]


def test_exhaust_records_a_failed_radius(tmp_path, monkeypatch):
    solve = ergolab.eigensolver.solve_ergodic_hjb

    def fail_at_four(grid, *args, **kwargs):
        if grid.radius == 4.0:
            raise SingularEvaluationError("injected")
        return solve(grid, *args, **kwargs)

    monkeypatch.setattr(ergolab.eigensolver, "solve_ergodic_hjb", fail_at_four)
    sets = ["--set", "exhaust.radii=[3.0,4.0,5.0]", "--set", "grid.spacing=0.1"]
    # the other radii still run; the NaN fails the monotonicity check, and
    # summary.json writes it as null
    assert main(["exhaust", "--out-dir", str(tmp_path)] + sets) == 1
    payload = read_strict_json(tmp_path / "summary.json")
    seq = payload["results"]["exhaustion"]["sequence"]
    assert [r for r, _ in seq] == [3.0, 4.0, 5.0]
    assert seq[1][1] is None and np.isfinite(seq[0][1]) and np.isfinite(seq[2][1])
    assert payload["results"]["warnings"] == ["radius 4.0: injected"]
    assert not payload["checks"]["exhaustion_nonincreasing"]["passed"]


def test_work_budget_admits_criterion_6_and_counts_as_the_report(tmp_path, monkeypatch):
    # criterion 6 runs 3 controls x 16 paths x 2e6 steps
    sde = {"horizon": 2000.0, "timestep": 1e-3, "n_paths": 16}
    parse_config(json.dumps({"scenario": "compare", "sde": sde}))
    # the gate counts what results.<stage>.stats.path_steps reports: a run at
    # the limit runs, and one path-step more is refused
    sets = ["--set", "sde.horizon=1.0", "--set", "sde.n_paths=2"] + SOLVE_ARGS
    monkeypatch.setattr(ergolab.config, "MAX_WORK", 3 * 2 * 1000)
    assert main(["compare", "--out-dir", str(tmp_path)] + sets) in (0, 1)
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["results"]["compare"]["stats"]["path_steps"] == 3 * 2 * 1000
    monkeypatch.setattr(ergolab.config, "MAX_WORK", 3 * 2 * 1000 - 1)
    assert main(["compare", "--out-dir", str(tmp_path / "over")] + sets) == 2


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
        pytest.param(  # exhaust always pins its wall
            "exhaust", "exhaust.boundary_mode=reflecting",
            "unknown override path 'exhaust.boundary_mode'",
            id="exhaust.boundary_mode-unknown",
        ),
        ("simulate", "seed=-3", "'seed'"),
        ("solve", 'grid={"dim":2}', "'grid'"),  # a whole section
        ("simulate", "sde.n_paths=2.5", "'sde'"),
        # the model is built at parse time, as the potential is
        ("solve", "model.drift_name=foo", "'model.drift_name'"),
        ("solve", "model.drift_amplitude=0.5", "'model.drift_amplitude'"),  # under none
        ("solve", "model.drift_name=constant", "'model.drift_vector'"),  # none for 1d
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
        ("lp", "lp.xi_bound=-1", "'lp.xi_bound'"),  # deleted: the run derives the bound
        ("solve", "potential.family=named", "'potential.family' unknown"),  # now five families
        ("compare", "compare.multipliers=[0.5,2.0]", "'compare.multipliers'"),  # no 1.0
        ("compare", "compare.multipliers=[1.0,1]", "'compare.multipliers'"),  # a repeat
        ("compare", 'compare.multipliers=[1.0,"2"]', "'compare.multipliers'"),
        ("simulate", "sde.x0=[4.1]", "'sde'"),  # outside the wall
        ("solve", "grid.dim=true", "'grid.dim'"),  # True == 1 in Python; once a TypeError
        # settings with one value in use are constants now
        *(
            pytest.param(
                command, f"{key}={value}", f"unknown override path '{key}'", id=f"{key}-unknown"
            )
            for command, key, value in (
                ("solve", "solver.eps_grad", "1e-10"),
                ("solve", "solver.lambda_tolerance", "1e-8"),
                ("solve", "solver.control_tolerance", "1e-4"),
                ("exhaust", "solver.dirichlet_value", "1e3"),
                ("simulate", "sde.burn_in", "5.0"),
                ("simulate", "sde.workers", "2"),
                ("lp", "checks.lp_gap", "0.1"),
                ("fokker_planck", "checks.fp_gap", "abc"),
                ("full_verify", "checks.sweep_floor", "0.0"),
                ("full_verify", "checks.identity_rel", "1e-3"),
                ("solve", "output.write_fields", "false"),
            )
        ),
        ("simulate", "checks.sim_sigmas=abc", "'checks.sim_sigmas'"),
        ("simulate", "checks.sim_sigmas=0", "'checks.sim_sigmas'"),
        ("full_verify", "checks.sweep_size=abc", "'checks.sweep_size'"),
        ("full_verify", "checks.sweep_size=2.5", "'checks.sweep_size'"),
        ("full_verify", "checks.sweep_size=0", "'checks.sweep_size'"),
        ("full_verify", "checks.sweep_size=true", "'checks.sweep_size'"),
        # NaN and Infinity parse as JSON numbers; each of these once crashed
        ("solve", "grid.radius=Infinity", "'grid.radius' must be finite"),
        ("exhaust", "exhaust.radii=[3.0,Infinity]", "'exhaust.radii' must be finite"),
        ("compare", "compare.multipliers=[1.0,Infinity]", "'compare.multipliers' must be finite"),
        ("solve", "model.gamma=NaN", "'model.gamma' must be finite"),
        ("solve", "model.drift_vector=[NaN]", "'model.drift_vector' must be finite"),
        ("solve", "grid.spacing=1e999", "'grid.spacing' must be finite"),  # overflows to inf
        pytest.param(  # 1/h^2 overflows, and the operator assembly once divided by zero
            "solve", ("grid.radius=4e-300", "grid.spacing=1e-300"), "'grid': 1/spacing**2",
            id="grid.spacing=1e-300",
        ),
        # deleted, so refused whatever the value
        ("lp", "lp.xi_bound=Infinity", "'lp.xi_bound'"),
        ("lp", "lp.xi_bound=-Infinity", "'lp.xi_bound'"),
        # float() reads true as 1.0 and a string character by character
        ("solve", "solver.eval_tolerance=true", "'solver.eval_tolerance'"),
        ("simulate", "sde.horizon=true", "'sde.horizon'"),
        ("simulate", "sde.timestep=true", "'sde.timestep'"),
        ("simulate", 'sde.x0="0"', "'sde.x0'"),
        ("simulate", "sde.x0=[true]", "'sde.x0'"),
        pytest.param(
            "solve", ("potential.family=constant", "potential.value=true"), "'potential': value",
            id="potential.value=true",
        ),
        # boxes on which the run once overflowed: f is inf at R = 1e300 (LAPACK
        # then raised LinAlgError) and at e^800, and the assembly's bound is
        # inf at h = 1e-154
        pytest.param(
            "check", ("grid.radius=1e300", "grid.spacing=1e299"), "'grid'", id="grid.radius=1e300"
        ),
        pytest.param(
            "check", ("potential.family=exp_abs", "grid.radius=800", "grid.spacing=100"), "'grid'",
            id="exp_abs-grid.radius=800",
        ),
        pytest.param(
            "solve", ("grid.radius=4e-154", "grid.spacing=1e-154"), "'grid'",
            id="grid.spacing=1e-154",
        ),
        # f is finite at the corner but the growth audit's |f|^(2 - 1/gamma) is not
        pytest.param(
            "check", ("potential.family=exp_abs", "grid.radius=700", "grid.spacing=100"), "'grid'",
            id="exp_abs-grid.radius=700",
        ),
        pytest.param(
            "check",
            ("potential.family=power_beta", "potential.beta=100", "grid.radius=1000",
             "grid.spacing=100"),
            "'grid'",
            id="power_beta-grid.radius=1000",
        ),
    ],
)
def test_out_of_range_run_parameters_rejected(tmp_path, capsys, command, override, key):
    overrides = (override,) if isinstance(override, str) else override
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main([command, "--out-dir", str(tmp_path), *sets]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "leaf",
    [leaf for leaf, row in SCHEMA.items() if row.kind in (int, float) or type(row.default) is int],
)
def test_true_refused_wherever_a_number_is_expected(leaf):
    # JSON true is a Python int, so a check by isinstance or float() lets it through
    with pytest.raises(ConfigError) as refused:
        parse_config("{}", [(leaf, "true")])
    assert f"'{leaf}'" in str(refused.value) or f"'{leaf.split('.')[0]}'" in str(refused.value)


@pytest.mark.parametrize(
    "leaf, reader, choice",
    [
        pytest.param(leaf, row.read_by[0], choice, id=f"{leaf}-{choice}")
        for leaf, row in SCHEMA.items() if row.read_by
        for choice in SCHEMA[row.read_by[0]].kind if choice != row.read_by[1]
    ],
)
def test_unread_leaf_refused_under_every_other_choice(tmp_path, capsys, leaf, reader, choice):
    # a value that its reader takes, so only the choice refuses it
    value = {float: "2.0", list: "[0.3]"}[SCHEMA[leaf].kind]
    parse_config("{}", [(reader, SCHEMA[leaf].read_by[1]), (leaf, value)])
    args = ["--set", f"{reader}={choice}", "--set", f"{leaf}={value}"]
    assert main(["solve", "--out-dir", str(tmp_path)] + SOLVE_ARGS + args) == 2
    assert f"'{leaf}'" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_every_stage_in_the_table():
    named = {stage for stages in SCENARIOS.values() for stage in stages}
    assert named == set(STAGES)


def test_cli_check_scenario_flags_bad_potential(tmp_path):
    code = main(
        [
            "check",
            "--out-dir", str(tmp_path),
            "--set", "potential.family=quartic_sine",
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


def test_exhaust_pins_the_wall_at_the_default_value(tmp_path):
    assert main(["exhaust", "--out-dir", str(tmp_path)]) == 0
    radii = DEFAULTS["exhaust"]["radii"]
    opts = SolverOptions(boundary_mode="dirichlet_big")  # pinned at M = 1e6
    seq = domain_exhaustion(pure_power(1.5), quadratic_power_potential(1.5), radii, 0.05, opts)
    write_csv(tmp_path / "library.csv", ["radius", "lambda"], np.array(seq, dtype=float))
    written = (tmp_path / "exhaustion.csv").read_bytes()
    assert written == (tmp_path / "library.csv").read_bytes()


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
    assert set(payload["checks"]) == {
        "solver_converged",
        "fp_cost_matches_lambda",
        "lp_matches_policy_iteration",
        "minimizer_near_optimal_control",
        "excess_cost_nonnegative",
        "excess_identity_consistent",
        "refine_converged",
        "simulation_matches_lambda",
        "optimal_control_ranks_first",
        "potential_gradient_growth",
        "gradient_bound",
        "value_lower_bounds",
    }
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
        "levels",
    }
    assert len(solve["stats"]["iterations"]) == solve["iterations"]
    for entry in solve["stats"]["iterations"]:
        assert set(entry) == {"lambda", "control_step", "residual", "refinement_solves"}
    assert 1 <= solve["stats"]["factorizations"] <= solve["iterations"]
    # 81 nodes: too few for a coarse level below them
    assert solve["stats"]["levels"] == []
    assert set(payload["results"]["fokker_planck"]["stats"]) == {"factorizations"}


def test_2d_solve_reports_its_coarse_levels(tmp_path):
    # 121^2 nodes; the 0.1 grid (61^2 = 3,721 nodes) is solved first, only
    # until its control step is within its own spacing, and the 0.2 grid
    # (961) is below the threshold
    args = ["--set", "grid.dim=2", "--set", "grid.radius=3.0", "--set", "grid.spacing=0.05"]
    assert main(["fokker_planck", "--out-dir", str(tmp_path)] + args) == 0
    payload = json.loads((tmp_path / "summary.json").read_text())
    solve = payload["results"]["solve"]
    (coarse,) = solve["stats"]["levels"]
    assert set(coarse) == {
        "nodes", "iterations", "factorizations", "refinement_solves", "lambda", "control_step"
    }
    assert coarse["nodes"] == 61**2
    assert coarse["control_step"] <= 0.1
    assert coarse["factorizations"] >= 1
    assert abs(coarse["lambda"] - solve["lambda"]) <= 0.01
    assert solve["stats"]["factorizations"] == 1
    assert payload["results"]["fokker_planck"]["stats"] == {"factorizations": 0}
    assert payload["results"]["warnings"] == []


def test_simulate_stage_solves_no_level_twice(tmp_path, monkeypatch):
    # the solve stage's 61^2-node solution is the coarse level of the
    # stage's h/2 re-solve, so that grid is evaluated in the solve stage only
    evaluate = ergolab.eigensolver.policy_evaluation
    evaluated = []

    def counting(grid, *args):
        evaluated.append(grid.num_nodes)
        return evaluate(grid, *args)

    monkeypatch.setattr(ergolab.eigensolver, "policy_evaluation", counting)
    main([
        "simulate", "--out-dir", str(tmp_path),
        "--set", "grid.dim=2", "--set", "grid.radius=3.0", "--set", "grid.spacing=0.1",
        "--set", "sde.horizon=1.0", "--set", "sde.n_paths=2",
    ])
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert "error" not in payload["results"]
    assert set(evaluated) == {61**2, 121**2}
    assert evaluated.count(61**2) == payload["results"]["solve"]["iterations"]


def test_refine_stage_solves_the_run_problem(tmp_path):
    # the h/2 solution is of the run's own model, and under its solver options
    drift = ["--set", "model.drift_name=constant", "--set", "model.drift_vector=[0.5]"]
    sde = ["--set", "sde.horizon=1.0", "--set", "sde.n_paths=2"]
    capped = ["--set", "solver.max_policy_iters=2"]
    refined = []
    for i, extra in enumerate(([], capped)):
        main(["simulate", "--out-dir", str(tmp_path / str(i))] + SOLVE_ARGS + drift + sde + extra)
        payload = json.loads((tmp_path / str(i) / "summary.json").read_text())
        assert "error" not in payload["results"]
        refined.append(payload["results"]["refine"])
    # the refine stage starts from the solve stage's solution, which a direct
    # h/2 solve is handed as its coarse level; the capped run's h solution did
    # not converge, so its h/2 solve starts from the zero control
    model, pot = drift_power(1.5, lambda x: np.full_like(x, 0.5)), quadratic_power_potential(1.5)
    coarse = solve_ergodic_hjb(build_grid(1, 4.0, 0.1), model, pot)
    direct = solve_ergodic_hjb(build_grid(1, 4.0, 0.05), model, pot, coarse=coarse)
    assert refined[0]["lambda"] == direct.lam
    assert refined[0]["iterations"] == direct.iterations > 2
    assert refined[1]["iterations"] == 2 and not refined[1]["converged"]


def test_refine_stage_declares_its_convergence(tmp_path, monkeypatch):
    # only the h/2 solve runs out of iterations, and the run fails on the
    # refine stage's own check instead of passing lambda_{h/2} on unflagged
    solve = ergolab.runner.solve_ergodic_hjb

    def capped(grid, model, potential, opts, coarse=None):
        if coarse is not None:  # the refine stage's solve
            opts = replace(opts, max_policy_iters=2)
        return solve(grid, model, potential, opts, coarse=coarse)

    monkeypatch.setattr(ergolab.runner, "solve_ergodic_hjb", capped)
    sde = ["--set", "sde.horizon=1.0", "--set", "sde.n_paths=2", "--set", "checks.sim_sigmas=1e6"]
    assert main(["simulate", "--out-dir", str(tmp_path)] + SOLVE_ARGS + sde) == 1
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert [name for name, c in checks.items() if not c["passed"]] == ["refine_converged"]
    assert checks["refine_converged"] == {"passed": False, "value": 2, "tolerance": 200}


def test_refine_stage_solves_no_level_twice(tmp_path, monkeypatch):
    # the h/2 grid is solved once in the whole run, by the refine stage; it
    # takes the solve stage's solution as its coarse level although the h
    # grid's 81 nodes are below COARSE_MIN_NODES, releases that level's factor
    # before it makes its own, and then releases its own
    evaluate = ergolab.eigensolver.policy_evaluation
    refine = STAGES["refine"]
    evaluated, fills = [], []

    def counting(grid, *args):
        evaluated.append(grid.num_nodes)
        return evaluate(grid, *args)

    def refining(run):
        fills.append(run.sol.solver.stats()["lu_fill"])
        refine(run)
        fills.extend([run.sol.solver.stats()["lu_fill"], run.refined.solver.stats()["lu_fill"]])

    monkeypatch.setattr(ergolab.eigensolver, "policy_evaluation", counting)
    monkeypatch.setitem(STAGES, "refine", refining)
    assert main(["full_verify", "--out-dir", str(tmp_path)] + FULL_ARGS) == 0
    results = json.loads((tmp_path / "summary.json").read_text())["results"]
    assert set(evaluated) == {81, 161}
    assert evaluated.count(161) == results["refine"]["iterations"] > 0
    fill = results["solve"]["stats"]["lu_fill"]
    assert fill > 0 and fills == [fill, 0, 0]


def test_1d_refine_starts_from_the_solve_stage(tmp_path):
    # the h/2 solve records the solve stage's solution as its one level, and
    # its first iterate already lies near its last
    sde = ["--set", "sde.horizon=1.0", "--set", "sde.n_paths=2", "--set", "checks.sim_sigmas=1e6"]
    assert main(["simulate", "--out-dir", str(tmp_path)] + SOLVE_ARGS + sde) == 0
    results = json.loads((tmp_path / "summary.json").read_text())["results"]
    (level,) = results["refine"]["stats"]["levels"]
    assert level["nodes"] == 81 and level["lambda"] == results["solve"]["lambda"]
    trace = results["refine"]["stats"]["iterations"]
    assert abs(trace[0]["lambda"] - trace[-1]["lambda"]) <= 1e-3


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
    assert set(payload["checks"]) == {
        "lp": {"solver_converged", "lp_matches_policy_iteration", "minimizer_near_optimal_control"},
        "simulate": {"solver_converged", "refine_converged", "simulation_matches_lambda"},
        "compare": {"solver_converged", "optimal_control_ranks_first"},
    }[scenario]
    if scenario == "lp":
        stats = payload["results"]["lp"]["stats"]
        assert stats["columns"] == 81 * 21
        assert stats["active_columns"] <= stats["columns"]
        assert stats["pricing_rounds"] >= 1 and stats["highs_iterations"] >= 1
        # the block pivot makes at most each entering column basic, per round after the seed
        pivots, entering = stats["round_block_pivots"], stats["round_columns"][1:]
        assert len(pivots) == len(entering) == stats["pricing_rounds"] - 1
        assert all(0 <= p <= c for p, c in zip(pivots, entering))
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
