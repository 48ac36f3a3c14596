"""The configuration contract as a property: ``parse_config`` refuses a
configuration only with ``ConfigError``, and every configuration it accepts
runs to a ``summary.json`` with exit code 0, 1 or 3.

Configs start from a small base and overwrite up to two leaves of
``DEFAULTS`` with values from a pool of hostile and plausible ones. The node
limit and the work budget are patched down, so every accepted draw is small.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ergolab.config
import ergolab.grid
from ergolab.config import DEFAULTS, SCENARIOS, ConfigError, parse_config
from ergolab.runner import run_scenario
from oracles import read_strict_json


def _leaves(node: dict, prefix: str = ""):
    for key, val in node.items():
        if isinstance(val, dict) and val:
            yield from _leaves(val, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


LEAVES = sorted(_leaves(DEFAULTS))
NAN, INF = float("nan"), float("inf")
HOSTILE = [
    True, False, None, NAN, INF, -INF, 1e300, -1e300, 1e-300, -1e-300,
    0, -1, 2**63 + 1, 0.0, "", "abc", [], [NAN], ["a"], [True], {}, [[1.0]],
]
PLAUSIBLE = [
    1, 2, 3, 5, 0.1, 0.5, 1.0, 1.5, 2.0, 4.0, 100.0,
    "sine", "constant", "power_beta", "named", "exp_abs", "quartic_sine", *SCENARIOS,
    [0.0], [0.0, 0.0], [0.3], [0.3, -0.2], [1.0, 0.5], [1.0, 1e300], [1.0, 2.0, 3.0],
]
BASES = [
    {"grid": {"dim": 1, "radius": 2.0, "spacing": 0.2}},  # 21 nodes
    {"grid": {"dim": 2, "radius": 1.0, "spacing": 0.2}},  # 11^2 nodes
]
SMALL = {
    "sde": {"horizon": 1.0, "n_paths": 2},
    "checks": {"sweep_size": 2},
    "exhaust": {"radii": [1.0, 1.4]},
}


@settings(
    max_examples=4000,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    base=st.sampled_from(BASES),
    sets=st.dictionaries(
        st.sampled_from(LEAVES),
        st.one_of(st.sampled_from(HOSTILE), st.sampled_from(PLAUSIBLE)),
        max_size=2,
    ),
)
# crashes that draws of this kind once found, each of which ended in a traceback
@example("solve", BASES[0], {"grid.dim": True})  # TypeError: an integer is required
@example("full_verify", BASES[0], {"grid.dim": 1.0, "sde.x0": [0.0]})  # TypeError
@example("simulate", BASES[0], {"sde.horizon": 1e300, "sde.timestep": 1e-300})  # OverflowError
@example("lp", BASES[0], {"lp.xi_count": 2**63 + 1})  # IndexError in the atoms
def test_every_config_is_refused_at_parse_time_or_runs_to_a_summary(scenario, base, sets):
    doc = {"scenario": scenario, **copy.deepcopy(SMALL), **copy.deepcopy(base)}
    for dotted, value in sets.items():
        *sections, key = dotted.split(".")
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergolab.grid, "MAX_NODES", 200)
        mp.setattr(ergolab.config, "MAX_WORK", 10**4)
        try:
            config = parse_config(json.dumps(doc))
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as out:
            report = run_scenario(config, out)
            summary = read_strict_json(Path(out) / "summary.json")
    assert report.exit_code in (0, 1, 3)
    assert summary["exit_code"] == report.exit_code
