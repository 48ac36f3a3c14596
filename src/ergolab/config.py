"""Run configuration: one table of leaves, the defaults derived from it, and
validation.

Each settable key is a row of ``SCHEMA`` that gives its default, type, lower
bound and reader; unknown keys are rejected with a path-qualified message so
typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import copy
import json
import sys
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


@dataclass(frozen=True)
class Leaf:
    """One settable key. ``kind`` is ``int`` (not a bool), ``float`` (a finite
    number), ``str``, ``list`` (of finite numbers) or a tuple of the accepted
    values, and a leaf whose default is null also takes null. A number must be
    at least an ``int`` leaf's ``low`` and exceed a ``float`` leaf's. Under any
    choice but ``read_by`` = (leaf, value) the leaf must keep its default."""

    default: Any
    kind: Any
    low: float | None = None
    read_by: tuple[str, str] | None = None
    note: str = ""  # appended when the leaf is refused


# dotted leaf -> its row; DEFAULTS is derived from this table, in its order
SCHEMA = {
    "scenario": Leaf("solve", tuple(SCENARIOS)),
    "seed": Leaf(12345, int, 0),
    "grid.dim": Leaf(1, (1, 2), note=" (desk-scale limit)"),
    "grid.radius": Leaf(4.0, float, 0),
    "grid.spacing": Leaf(0.05, float, 0),
    "model.gamma": Leaf(1.5, float, 1),
    "model.drift_name": Leaf("none", ("none", "sine", "constant")),
    "model.drift_amplitude": Leaf(0.0, float, read_by=("model.drift_name", "sine")),
    "model.drift_vector": Leaf(None, list, read_by=("model.drift_name", "constant")),
    "potential.family": Leaf(
        "quadratic_power", ("quadratic_power", "power_beta", "constant", "quartic_sine", "exp_abs")
    ),
    # null takes the family's default: beta 1.5, value 1.0 (constant_potential asks >= 1)
    "potential.beta": Leaf(None, float, 0, ("potential.family", "power_beta")),
    "potential.value": Leaf(None, float, read_by=("potential.family", "constant")),
    "solver.max_policy_iters": Leaf(200, int, 1),
    "solver.eval_tolerance": Leaf(1e-10, float, 0),
    "lp.xi_count": Leaf(41, int, 3),
    "sde.horizon": Leaf(200.0, float, 0),
    "sde.timestep": Leaf(1e-3, float, 0),
    "sde.n_paths": Leaf(8, int, 1),
    "sde.x0": Leaf(None, list),  # null: the origin
    "exhaust.radii": Leaf([3.0, 4.0, 5.0, 6.0], list),
    "compare.multipliers": Leaf([1.0, 0.5, 2.0], list),
    "checks.sim_sigmas": Leaf(3.0, float, 0),
    "checks.sweep_size": Leaf(20, int, 1),
    "output.directory": Leaf("out", str),
}

DEFAULTS: dict[str, Any] = {}
for _leaf, _row in SCHEMA.items():
    _section, _, _key = _leaf.rpartition(".")
    (DEFAULTS.setdefault(_section, {}) if _section else DEFAULTS)[_key] = _row.default


# The most work one stage may ask for, counted in Monte Carlo path-steps
# (controls x paths x steps, as `results.<stage>.stats.path_steps` reports
# them) and in the sweep's density solves times the grid's nodes. Criterion 6
# runs 3 x 16 x 2e6 = 9.6e7 path-steps.
MAX_WORK = 10**8

_NUMBER = (int, float)
_TYPES = {  # kind -> (test, what a value must be)
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in _NUMBER, "a number"),
    str: (lambda v: type(v) is str, "a string"),
    list: (lambda v: type(v) is list and all(type(x) in _NUMBER for x in v), "a list of numbers"),
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


def _get(cfg: dict, leaf: str):
    section, _, key = leaf.rpartition(".")
    return (cfg[section] if section else cfg)[key]


def _leaf_problem(cfg: dict, leaf: str, row: Leaf) -> str | None:
    """What is wrong with one leaf's value, in the order finite, type, range,
    reader; None when nothing is."""
    value, kind = _get(cfg, leaf), row.kind
    if value is not None or row.default is not None:
        # NaN, +-Infinity (JSON tokens or a literal such as 1e999), an int past float range
        items = value if type(value) is list else [value]
        if not all(abs(v) <= sys.float_info.max for v in items if type(v) in _NUMBER):
            return "must be finite"
        if isinstance(kind, tuple):  # True == 1 and 1.0 == 1, so the type must match too
            if not any(type(value) is type(c) and value == c for c in kind):
                return f"unknown: must be one of {', '.join(map(str, kind))}{row.note}"
        elif not _TYPES[kind][0](value):
            return f"must be {'null or ' * (row.default is None)}{_TYPES[kind][1]}"
        elif row.low is not None and not (value >= row.low if kind is int else value > row.low):
            return f"must be >= {row.low}" if kind is int else f"must exceed {row.low:g}"
    if row.read_by and value != row.default and _get(cfg, row.read_by[0]) != row.read_by[1]:
        return f"is read only when {row.read_by[0]} is {row.read_by[1]!r}"
    return None


def _validate(cfg: dict) -> dict:
    for leaf, row in SCHEMA.items():
        problem = _leaf_problem(cfg, leaf, row)
        if problem:
            section, _, key = leaf.rpartition(".")
            given = f"'{section}': {key}" if section else key
            raise ConfigError(f"{given} = {json.dumps(_get(cfg, leaf))}: {leaf!r} {problem}")
    config = RunConfig(cfg)
    for section, build in (
        ("model", config.model),
        ("potential", config.potential),
        ("solver", config.solver_options),
        ("sde", config.sim_params),
    ):
        try:  # the constructors hold the checks that guard library callers
            build()
        except ConfigError:  # already names its key path
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{section!r}: {exc}") from exc
    # the rules that tie keys together
    g, radii, mults = cfg["grid"], cfg["exhaust"]["radii"], cfg["compare"]["multipliers"]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("'exhaust.radii' must be a non-empty, strictly increasing list")
    count = cfg["lp"]["xi_count"]
    if count % 2 == 0:
        raise ConfigError("'lp.xi_count' must be odd")
    # multiplier m names its report f"{m:g}*xi_u", and 1.0 is the reference
    if not (len({f"{m:g}" for m in mults}) == len(mults) and 1.0 in mults):
        raise ConfigError(
            "'compare.multipliers' must list distinct numbers (to the 6 digits of"
            f" their report names), one of them 1.0, got {mults!r}"
        )
    stages, dim = SCENARIOS[cfg["scenario"]], g["dim"]
    boxes = []  # (key path, radius, spacing) of every grid the stages will build
    if set(stages) - {"exhaust"}:
        if g["radius"] < 4 * g["spacing"]:
            raise ConfigError("'grid.radius' must be >= 4 * grid.spacing")
        boxes.append(("'grid'", g["radius"], g["spacing"]))
    if "refine" in stages:
        boxes.append(("'grid' at h/2, for the refine stage", g["radius"], g["spacing"] / 2))
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
    # the audit fits f, |Df| and |f|^(2 - 1/gamma) on the grid unguarded, while
    # a solve reports a non-finite running cost as a numerical failure; f is
    # radial, so largest at the corner
    if "audit" in stages:
        wall, potential = config.grid().wall, config.potential()
        corner = np.full((1, dim), wall)
        with np.errstate(all="ignore"):
            f = potential.values(corner)
            growth = np.abs(f) ** (2.0 - 1.0 / config.model().gamma)
            finite = np.isfinite(f) & np.isfinite(growth) & np.isfinite(potential.gradients(corner))
        if not finite.all():
            raise ConfigError(
                f"'grid': f, |f|^(2 - 1/gamma) or the gradient of f is not finite at the"
                f" corner, +-{wall:g}"
            )
    params = config.sim_params()
    if {"simulate", "compare"} & set(stages) and params.n_paths < 2:
        raise ConfigError("'sde.n_paths' must be >= 2 where a standard error is read")
    work = [  # (stage, key path, its path-steps or nodes of density solves)
        ("simulate", "'sde'", params.path_steps()),
        ("compare", "'sde'", params.path_steps(len(mults))),
    ]
    if "sweep" in stages:
        size = cfg["checks"]["sweep_size"]
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
        if name == "none":
            return pure_power(m["gamma"])
        if name == "sine":
            fn = lambda x: amp * np.sin(x)
        else:
            if vec is None or len(vec) != dim:
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
    """Set one leaf of ``SCHEMA``; the value is parsed as JSON when possible,
    else kept as a string."""
    if dotted not in SCHEMA:
        if any(leaf.startswith(dotted + ".") for leaf in SCHEMA):
            raise ConfigError(f"{dotted!r} is a section; set its keys one at a time")
        raise ConfigError(f"unknown override path {dotted!r}")
    section, _, key = dotted.rpartition(".")
    try:
        value = json.loads(value)
    except json.JSONDecodeError:
        pass
    (node[section] if section else node)[key] = value
