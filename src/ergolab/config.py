"""Run configuration: JSON schema, defaults, validation.

Every field has a documented default (see DEFAULTS); unknown keys are
rejected with a path-qualified message so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .eigensolver import SolverOptions
from .grid import Grid, axis_half_width, build_grid
from .hamiltonian import (
    HamiltonianModel,
    PotentialSpec,
    constant_potential,
    drift_power,
    named_potential,
    power_beta_potential,
    pure_power,
    quadratic_power_potential,
)
from .operators import STATE_CONSTRAINT
from .simulate import SimParams

# scenario -> the names of its stages, run in this order by ``runner.STAGES``
SCENARIOS = {
    "solve": ("solve",),
    "exhaust": ("exhaust",),
    "lp": ("solve", "lp"),
    "fokker_planck": ("solve", "density"),
    "simulate": ("solve", "simulate"),
    "compare": ("solve", "compare"),
    "check": ("audit",),
    "full_verify": (
        "solve", "density", "lp", "sweep", "simulate", "compare", "audit", "headline"
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
        "family": "quadratic_power",  # quadratic_power | power_beta | constant | named
        "beta": 1.5,
        "value": 1.0,
        "name": "quartic_sine",
    },
    "solver": {
        "max_policy_iters": 200,
        "eval_tolerance": 1e-10,
        "lambda_tolerance": 1e-10,
        "dirichlet_value": 1e6,
        "eps_grad": 1e-12,
        "control_tolerance": 1e-6,
    },
    "lp": {"xi_bound": None, "xi_count": 41},
    "sde": {
        "horizon": 200.0,
        "timestep": 1e-3,
        "n_paths": 8,
        "burn_in": None,  # default: horizon / 10
        "x0": None,  # default: origin
        "workers": 1,
    },
    "exhaust": {"radii": [3.0, 4.0, 5.0, 6.0], "boundary_mode": "dirichlet_big"},
    "compare": {"multipliers": [1.0, 0.5, 2.0]},
    "checks": {
        "lp_gap": 0.05,
        "fp_gap": 0.05,
        "sim_sigmas": 3.0,
        "sweep_size": 20,
        "sweep_floor": -1e-8,
        "identity_rel": 1e-6,
    },
    "output": {"directory": "out", "write_fields": True},
}


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


def _require_number(cfg: dict, path: str, low=None, high=None, message=None):
    node = cfg
    for part in path.split("."):
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise ConfigError(f"{path!r} must be a number")
    if low is not None and not node > low:
        raise ConfigError(message or f"{path!r} must exceed {low}")
    if high is not None and not node <= high:
        raise ConfigError(message or f"{path!r} must be <= {high}")


def _validate(cfg: dict) -> dict:
    scenario = cfg["scenario"]
    if not (isinstance(scenario, str) and scenario in SCENARIOS):
        raise ConfigError(f"'scenario' must be one of {tuple(SCENARIOS)}, got {scenario!r}")
    seed = cfg["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"'seed' must be a non-negative integer, got {seed!r}")
    dim = cfg["grid"]["dim"]
    if dim not in (1, 2):
        raise ConfigError(
            f"'grid.dim' must be 1 or 2 (desk-scale limit), got {dim}"
        )
    _require_number(cfg, "grid.radius", low=0.0)
    _require_number(cfg, "grid.spacing", low=0.0)
    if cfg["grid"]["radius"] < 4 * cfg["grid"]["spacing"]:
        raise ConfigError("'grid.radius' must be >= 4 * grid.spacing")
    _require_number(cfg, "model.gamma", low=1.0, message="'model.gamma' must exceed 1")
    fam = cfg["potential"]["family"]
    if fam not in ("quadratic_power", "power_beta", "constant", "named"):
        raise ConfigError(f"'potential.family' unknown: {fam!r}")
    if fam == "power_beta":
        _require_number(cfg, "potential.beta", low=0.0)
    config = RunConfig(cfg)
    for section, build in (
        ("solver", config.solver_options),
        ("exhaust", lambda: config.solver_options(cfg["exhaust"]["boundary_mode"])),
        ("sde", config.sim_params),
    ):
        try:  # the constructors hold the range checks
            build()
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{section!r}: {exc}") from exc
    radii = cfg["exhaust"]["radii"]
    if not (isinstance(radii, list) and len(radii) >= 1):
        raise ConfigError("'exhaust.radii' must be a non-empty list")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("'exhaust.radii' must be strictly increasing")
    if cfg["lp"]["xi_bound"] is not None:
        _require_number(cfg, "lp.xi_bound", low=0.0)
    count = cfg["lp"]["xi_count"]
    if not isinstance(count, int) or count < 3 or count % 2 == 0:
        raise ConfigError("'lp.xi_count' must be an odd integer >= 3")
    mults = cfg["compare"]["multipliers"]
    numbers = isinstance(mults, list) and all(type(m) in (int, float) for m in mults)
    # multiplier m names its report f"{m:g}*xi_u", and 1.0 is the reference
    if not (numbers and 1.0 in mults and len({f"{m:g}" for m in mults}) == len(mults)):
        raise ConfigError(
            "'compare.multipliers' must list distinct numbers (to the 6 digits of"
            f" their report names), one of them 1.0, got {mults!r}"
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
        try:
            return build_grid(g["dim"], g["radius"], g["spacing"])
        except ValueError as exc:
            raise ConfigError(f"'grid': {exc}") from exc

    def model(self) -> HamiltonianModel:
        m = self.raw["model"]
        name = m["drift_name"]
        amp = float(m["drift_amplitude"])
        if name == "none":
            return pure_power(m["gamma"], self.raw["solver"]["eps_grad"])
        if name == "sine":
            fn = lambda x: amp * np.sin(x)
            bound = abs(amp) * np.sqrt(self.raw["grid"]["dim"])
        elif name == "constant":
            vec, dim = m["drift_vector"], self.raw["grid"]["dim"]
            if not (isinstance(vec, list) and len(vec) == dim):
                raise ConfigError(f"'model.drift_vector' must list grid.dim = {dim} components")
            vec = np.asarray(vec, dtype=float)
            fn = lambda x: np.tile(vec, (x.shape[0], 1))
            bound = float(np.linalg.norm(vec))
        else:
            raise ConfigError(f"'model.drift_name' must be none, sine or constant, got {name!r}")
        return drift_power(m["gamma"], fn, bound, self.raw["solver"]["eps_grad"])

    def potential(self) -> PotentialSpec:
        p = self.raw["potential"]
        if p["family"] == "quadratic_power":
            return quadratic_power_potential(self.raw["model"]["gamma"])
        if p["family"] == "power_beta":
            return power_beta_potential(p["beta"])
        if p["family"] == "constant":
            return constant_potential(p["value"])
        return named_potential(p["name"])

    def solver_options(self, boundary_mode: str = STATE_CONSTRAINT) -> SolverOptions:
        """Solver options; every scenario but ``exhaust`` solves under the
        state constraint, and ``exhaust`` passes ``exhaust.boundary_mode``."""
        s = self.raw["solver"]
        return SolverOptions(
            max_policy_iters=int(s["max_policy_iters"]),
            eval_tolerance=float(s["eval_tolerance"]),
            lambda_tolerance=float(s["lambda_tolerance"]),
            boundary_mode=boundary_mode,
            dirichlet_value=float(s["dirichlet_value"]),
            control_tolerance=float(s["control_tolerance"]),
        )

    def sim_params(self) -> SimParams:
        s, dim = self.raw["sde"], self.raw["grid"]["dim"]
        x0 = tuple(map(float, s["x0"])) if s["x0"] is not None else (0.0,) * dim
        g = self.raw["grid"]  # the grid's wall, without building its nodes
        wall = Grid(dim, g["radius"], g["spacing"], axis_half_width(g["radius"], g["spacing"])).wall
        if len(x0) != dim or not max(map(abs, x0)) <= wall:
            raise ValueError(f"x0 must list grid.dim = {dim} coordinates within +-{wall:g}")
        burn = s["burn_in"] if s["burn_in"] is not None else s["horizon"] / 10.0
        return SimParams(
            horizon=float(s["horizon"]),
            timestep=float(s["timestep"]),
            n_paths=s["n_paths"],
            seed=self.seed,
            x0=x0,
            burn_in=float(burn),
            workers=s["workers"],
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
    node = copy.deepcopy(config.raw)
    _set_path(node, dotted, value)
    return RunConfig(_validate(node))


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
