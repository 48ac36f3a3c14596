"""Run configuration: JSON schema, defaults, validation.

Every field has a documented default (see DEFAULTS); unknown keys are
rejected with a path-qualified message so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Any

import numpy as np

from .eigensolver import SolverOptions
from .grid import Grid, axis_half_width, build_grid
from .hamiltonian import (
    HamiltonianModel,
    PotentialSpec,
    constant_potential,
    drift_power,
    exp_abs_potential,
    power_beta_potential,
    pure_power,
    quadratic_power_potential,
    quartic_sine_potential,
)
from .simulate import SimParams

# scenario -> the names of its stages, run in this order by ``runner.STAGES``
SCENARIOS = {
    "solve": ("solve",),
    "exhaust": ("exhaust",),
    "lp": ("solve", "lp"),
    "fokker_planck": ("solve", "density"),
    "simulate": ("solve", "refine", "simulate"),
    "compare": ("solve", "compare"),
    "check": ("audit",),
    "full_verify": (
        "solve", "density", "lp", "sweep", "refine", "simulate", "compare", "audit", "bounds",
        "headline",
    ),
}

DEFAULTS: dict[str, Any] = {
    "scenario": "solve",
    "seed": 12345,
    "grid": {"dim": 1, "radius": 4.0, "spacing": 0.05},
    "model": {
        "gamma": 1.5,
        "drift_name": "none",  # none | sine | constant
        "drift_amplitude": 0.0,
        "drift_vector": None,
    },
    "potential": {
        "family": "quadratic_power",  # or power_beta | constant | quartic_sine | exp_abs
        "beta": None,  # power_beta's exponent, 1.5 when null
        "value": None,  # constant's value, 1.0 when null
    },
    "solver": {"max_policy_iters": 200, "eval_tolerance": 1e-10},
    "lp": {"xi_count": 41},
    "sde": {
        "horizon": 200.0,
        "timestep": 1e-3,
        "n_paths": 8,
        "x0": None,  # default: origin
    },
    "exhaust": {"radii": [3.0, 4.0, 5.0, 6.0]},
    "compare": {"multipliers": [1.0, 0.5, 2.0]},
    "checks": {"sim_sigmas": 3.0, "sweep_size": 20},
    "output": {"directory": "out"},
}


# The most work one stage may ask for, counted in Monte Carlo path-steps
# (controls x paths x steps, as `results.<stage>.stats.path_steps` reports
# them) and in the sweep's density solves times the grid's nodes. Criterion 6
# runs 3 x 16 x 2e6 = 9.6e7 path-steps.
MAX_WORK = 10**8


class ConfigError(ValueError):
    """Malformed configuration; message carries the offending key path."""


def _merge(defaults: dict, given: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, val in given.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown key {here!r}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(val, dict):
                raise ConfigError(f"{here!r} must be an object")
            out[key] = _merge(defaults[key], val, here)
        else:
            out[key] = val
    return out


def _require_number(cfg: dict, path: str, low=None, message=None):
    node = cfg
    for part in path.split("."):
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise ConfigError(f"{path!r} must be a number")
    if low is not None and not node > low:
        raise ConfigError(message or f"{path!r} must exceed {low}")


def _is_number_list(node) -> bool:
    return isinstance(node, list) and all(type(v) in (int, float) for v in node)


def _require_finite(node, path: str = "") -> None:
    """Refuse NaN and +-Infinity anywhere in the config, naming the key: JSON's
    NaN/Infinity tokens and a literal that overflows, such as 1e999."""
    if isinstance(node, dict):
        for key, val in node.items():
            _require_finite(val, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for val in node:
            _require_finite(val, path)
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{path!r} must be finite, got {node}")


def _validate(cfg: dict) -> dict:
    _require_finite(cfg)
    scenario = cfg["scenario"]
    if not (isinstance(scenario, str) and scenario in SCENARIOS):
        raise ConfigError(f"'scenario' must be one of {tuple(SCENARIOS)}, got {scenario!r}")
    seed = cfg["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"'seed' must be a non-negative integer, got {seed!r}")
    dim = cfg["grid"]["dim"]
    if type(dim) is not int or dim not in (1, 2):
        raise ConfigError(f"'grid.dim' must be 1 or 2 (desk-scale limit), got {dim}")
    _require_number(cfg, "grid.radius", low=0.0)
    _require_number(cfg, "grid.spacing", low=0.0)
    if cfg["grid"]["radius"] < 4 * cfg["grid"]["spacing"]:
        raise ConfigError("'grid.radius' must be >= 4 * grid.spacing")
    _require_number(cfg, "model.gamma", low=1.0, message="'model.gamma' must exceed 1")
    _require_number(cfg, "model.drift_amplitude")
    fam = cfg["potential"]["family"]
    if fam not in ("quadratic_power", "power_beta", "constant", "quartic_sine", "exp_abs"):
        raise ConfigError(f"'potential.family' unknown: {fam!r}")
    # a parameter that the chosen family does not read would be ignored
    read = {"power_beta": "beta", "constant": "value"}.get(fam)
    for key in ("beta", "value"):
        if cfg["potential"][key] is not None and key != read:
            raise ConfigError(f"'potential.{key}' is not read by the {fam!r} family")
    if fam == "power_beta" and cfg["potential"]["beta"] is not None:
        _require_number(cfg, "potential.beta", low=0.0)
    _require_number(cfg, "checks.sim_sigmas", low=0.0)
    # the constructors below read these through float(), which takes true for 1.0
    for path in ("solver.eval_tolerance", "sde.horizon", "sde.timestep"):
        _require_number(cfg, path)
    if cfg["sde"]["x0"] is not None and not _is_number_list(cfg["sde"]["x0"]):
        raise ConfigError("'sde.x0' must be null or a list of numbers")
    size = cfg["checks"]["sweep_size"]
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ConfigError(f"'checks.sweep_size' must be an integer >= 1, got {size!r}")
    config = RunConfig(cfg)
    for section, build in (
        ("model", config.model),
        ("potential", config.potential),
        ("solver", config.solver_options),
        ("sde", config.sim_params),
    ):
        try:  # the constructors hold the range checks
            build()
        except ConfigError:  # already names its key path
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{section!r}: {exc}") from exc
    radii = cfg["exhaust"]["radii"]
    if not (radii and _is_number_list(radii)):
        raise ConfigError("'exhaust.radii' must be a non-empty list of numbers")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("'exhaust.radii' must be strictly increasing")
    count = cfg["lp"]["xi_count"]
    if not isinstance(count, int) or count < 3 or count % 2 == 0:
        raise ConfigError("'lp.xi_count' must be an odd integer >= 3")
    mults = cfg["compare"]["multipliers"]
    # multiplier m names its report f"{m:g}*xi_u", and 1.0 is the reference
    distinct = _is_number_list(mults) and len({f"{m:g}" for m in mults}) == len(mults)
    if not (distinct and 1.0 in mults):
        raise ConfigError(
            "'compare.multipliers' must list distinct numbers (to the 6 digits of"
            f" their report names), one of them 1.0, got {mults!r}"
        )
    if not isinstance(cfg["output"]["directory"], str):
        raise ConfigError("'output.directory' must be a path string")
    stages, g = SCENARIOS[scenario], cfg["grid"]
    boxes = []  # (key path, radius, spacing) of every grid the stages will build
    if set(stages) - {"exhaust"}:
        boxes.append(("'grid'", g["radius"], g["spacing"]))
    if "refine" in stages:
        boxes.append(("'grid' at h/2, for the refine stage", g["radius"], float(g["spacing"]) / 2))
    if "exhaust" in stages:  # its boxes take the place of grid.radius
        if radii[0] < 4 * g["spacing"]:
            raise ConfigError("'exhaust.radii' must be >= 4 * grid.spacing")
        boxes.append(("'exhaust.radii'", radii[-1], g["spacing"]))
    if "lp" in stages:  # xi_count atoms per axis, a lattice sized like a grid
        boxes.append(("'lp.xi_count' atoms", count // 2, 1))
    for key, radius, spacing in boxes:
        try:
            build_grid(dim, radius, spacing)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    params = config.sim_params()
    if {"simulate", "compare"} & set(stages) and params.n_paths < 2:
        raise ConfigError("'sde.n_paths' must be >= 2 where a standard error is read")
    work = [  # (stage, key path, its path-steps or nodes of density solves)
        ("simulate", "'sde'", params.path_steps()),
        ("compare", "'sde'", params.path_steps(len(mults))),
    ]
    if "sweep" in stages:
        work.append(("sweep", "'checks.sweep_size'", size * config.grid().num_nodes))
    for stage, key, units in work:
        if stage in stages and units > MAX_WORK:
            raise ConfigError(
                f"{key}: the {stage} stage asks for {Decimal(units):.3g} units of work"
                f" (limit {Decimal(MAX_WORK):.3g})"
            )
    return cfg


@dataclass(frozen=True)
class RunConfig:
    raw: dict

    def __getitem__(self, key: str):
        return self.raw[key]

    @property
    def scenario(self) -> str:
        return self.raw["scenario"]

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def grid(self) -> Grid:
        g = self.raw["grid"]
        return build_grid(g["dim"], g["radius"], g["spacing"])

    def model(self) -> HamiltonianModel:
        m, dim = self.raw["model"], self.raw["grid"]["dim"]
        name, amp, vec = m["drift_name"], m["drift_amplitude"], m["drift_vector"]
        if name not in ("none", "sine", "constant"):
            raise ConfigError(f"'model.drift_name' must be none, sine or constant, got {name!r}")
        # a drift parameter that the chosen drift does not read would be ignored
        if amp != 0 and name != "sine":
            raise ConfigError(f"'model.drift_amplitude' is read by the sine drift, not {name!r}")
        if vec is not None and name != "constant":
            raise ConfigError(f"'model.drift_vector' is read by the constant drift, not {name!r}")
        if name == "none":
            return pure_power(m["gamma"])
        if name == "sine":
            fn = lambda x: amp * np.sin(x)
        else:
            if not (_is_number_list(vec) and len(vec) == dim):
                raise ConfigError(f"'model.drift_vector' must list grid.dim = {dim} numbers")
            vec = np.asarray(vec, dtype=float)
            fn = lambda x: np.tile(vec, (x.shape[0], 1))
        return drift_power(m["gamma"], fn)

    def potential(self) -> PotentialSpec:
        p = self.raw["potential"]
        if p["family"] == "quadratic_power":
            return quadratic_power_potential(self.raw["model"]["gamma"])
        if p["family"] == "power_beta":
            return power_beta_potential(1.5 if p["beta"] is None else p["beta"])
        if p["family"] == "constant":
            return constant_potential(1.0 if p["value"] is None else p["value"])
        if p["family"] == "quartic_sine":
            return quartic_sine_potential()
        return exp_abs_potential()

    def solver_options(self) -> SolverOptions:
        """Solver options under the state constraint; ``exhaust`` alone
        replaces the closure."""
        s = self.raw["solver"]
        return SolverOptions(
            max_policy_iters=s["max_policy_iters"],
            eval_tolerance=float(s["eval_tolerance"]),
        )

    def sim_params(self) -> SimParams:
        s, dim = self.raw["sde"], self.raw["grid"]["dim"]
        x0 = tuple(map(float, s["x0"])) if s["x0"] is not None else (0.0,) * dim
        g = self.raw["grid"]  # the grid's wall, without building its nodes
        wall = Grid(dim, g["radius"], g["spacing"], axis_half_width(g["radius"], g["spacing"])).wall
        if len(x0) != dim or not max(map(abs, x0)) <= wall:
            raise ValueError(f"x0 must list grid.dim = {dim} coordinates within +-{wall:g}")
        return SimParams(
            horizon=float(s["horizon"]),
            timestep=float(s["timestep"]),
            n_paths=s["n_paths"],
            seed=self.seed,
            x0=x0,
            burn_in=float(s["horizon"]) / 10.0,
        )


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse a JSON configuration document, apply defaults, then the dotted
    ``(key, value)`` overrides in order, and validate the result once, so a
    check that ties two keys does not depend on the order of the overrides."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    merged = _merge(DEFAULTS, data, "")
    for dotted, value in overrides:
        _set_path(merged, dotted, value)
    return RunConfig(_validate(merged))


def apply_override(config: RunConfig, dotted: str, value: str) -> RunConfig:
    """Apply one --set key=value override with a dotted path and validate."""
    return parse_config(json.dumps(config.raw), [(dotted, value)])


def _set_path(node: dict, dotted: str, value: str) -> None:
    """Set an existing dotted key that is not a whole section; the value is
    parsed as JSON when possible, else kept as a string."""
    parts = dotted.split(".")
    ref, default = node, DEFAULTS
    for p in parts[:-1]:
        if not (isinstance(default, dict) and p in default):
            raise ConfigError(f"unknown override path {dotted!r}")
        ref, default = ref[p], default[p]
    if not (isinstance(default, dict) and parts[-1] in default):
        raise ConfigError(f"unknown override path {dotted!r}")
    if isinstance(default[parts[-1]], dict):
        raise ConfigError(f"{dotted!r} is a section; set its keys one at a time")
    try:
        ref[parts[-1]] = json.loads(value)
    except json.JSONDecodeError:
        ref[parts[-1]] = value
