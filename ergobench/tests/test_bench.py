"""Tests of the benchmark itself, on tiny configs.

Run from the repository root with ``src`` on the path:
``PYTHONPATH=src python -m pytest ergobench/tests``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import ergolab
import pytest

from ergobench import run
from ergobench.gates import digest, operation_gates
from ergobench.op import _load_config
from ergobench.tracing import METRICS, TARGETS, Trace, Tracer, layer_metrics
from ergobench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

# each benchmark workload's scenario shrunk to a fraction of a second
TINY = {
    "verify_1d": {
        "grid.radius": "2.0",
        "grid.spacing": "0.1",
        "sde.horizon": "1.0",
        "sde.timestep": "0.01",
        "sde.n_paths": "4",
        "checks.sweep_size": "2",
        "lp.xi_count": "5",
    },
    "solve_2d": {"grid.dim": "2", "grid.radius": "1.0", "grid.spacing": "0.25"},
    "lp_2d": {"grid.dim": "2", "grid.radius": "1.0", "grid.spacing": "0.25", "lp.xi_count": "3"},
}


def _tiny(name: str, **overrides):
    return replace(WORKLOADS[name], overrides={**TINY[name], **overrides}, limit_s=60.0)


def _traced(name: str, out: Path) -> Tracer:
    w = _tiny(name)
    config = _load_config({"scenario": w.scenario, "seed": 3, "overrides": w.overrides})
    with Tracer() as tracer:
        ergolab.runner.run_scenario(config, out)
    return tracer


def test_every_wrapper_fires_and_self_times_add_up(tmp_path):
    original = ergolab.runner.run_scenario
    fired = set()
    for name in TINY:
        tracer = _traced(name, tmp_path / name)
        assert tracer.absent == [] and tracer.observer_errors == []
        fired |= {span[0] for span in tracer.spans}
        metrics = layer_metrics(Trace(tracer.spans, tracer.counts))
        wall = metrics["trace.wall_s"]["value"]
        layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in TARGETS)
        assert wall > 0 and layers == pytest.approx(wall, rel=1e-9)
    expected = {f"{layer}.{fn}" for layer, names in TARGETS.items() for fn in names}
    assert fired == expected
    assert ergolab.runner.run_scenario is original
    assert ergolab.run_scenario is original


def test_counts_repeat_exactly(tmp_path):
    counts = []
    for i in range(2):
        tracer = _traced("verify_1d", tmp_path / str(i))
        metrics = layer_metrics(Trace(tracer.spans, tracer.counts))
        counts.append({n: m["value"] for n, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    # simulate once, then compare three multipliers: 4 calls x 4 paths x 100 steps
    assert counts[0]["simulate.path_steps"] == 4 * 4 * 100


def test_missing_target_reported_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(ergolab.measure_lp, "solve_lp")
    with Tracer() as tracer:
        pass
    assert "measure_lp.solve_lp" in tracer.absent
    assert layer_metrics(Trace([], {}))["measure_lp.solve_s"]["value"] == 0


def test_digest_ignores_only_timing():
    payload = {"results": {"solve": {"lambda": 2.0}}, "exit_code": 0, "timing": {"wall_seconds": 1.0}}
    assert digest(payload) == digest({**payload, "timing": {"wall_seconds": 9.0}})
    assert digest(payload) == digest({k: v for k, v in payload.items() if k != "timing"})
    assert digest(payload) != digest({**payload, "exit_code": 3})
    assert digest(payload) != digest({**payload, "results": {"solve": {"lambda": 2.0 + 1e-15}}})


def test_gates_fail_on_missing_values():
    gates = {g["gate"]: g for g in operation_gates(WORKLOADS["solve_2d"], 3, {"results": {}, "checks": {}})}
    assert not gates["exit_code"]["passed"]
    assert not gates["density_identity"]["passed"] and gates["density_identity"]["value"] is None
    assert not gates["lambda_accuracy"]["passed"] and gates["lambda_accuracy"]["value"] is None
    good = {
        "results": {"solve": {"lambda": 3.01}, "fokker_planck": {"mu_cost": 3.01 + 1e-12}},
        "checks": {"solver_converged": {"passed": True}},
    }
    assert all(g["passed"] for g in operation_gates(WORKLOADS["solve_2d"], 0, good))


@pytest.fixture
def work(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    return tmp_path


@pytest.mark.parametrize(
    "overrides, exit_code, message",
    [
        ({"solver.eval_tolerance": "1e-30"}, 3, "SingularEvaluationError"),
        ({"grid.dim": "3"}, 2, "ConfigError"),
    ],
)
def test_failed_run_counted_and_charged_limit(work, overrides, exit_code, message):
    workload = _tiny("solve_2d", **overrides)
    result, details = run.run_workload(workload, seed=1, seconds=0, trace=False)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert details["failed_frac"] == 1.0
    assert result["metrics"]["wall_s"]["value"] == workload.limit_s
    assert result["metrics"]["setup_s"]["value"] > 0
    (failure,) = details["failures"]
    assert failure["exit_code"] == exit_code and message in failure["error"]


def test_passing_run_and_determinism_across_runs(work):
    # the density scenario on the 1d default grid, where every gate holds
    workload = replace(WORKLOADS["solve_2d"], dim=1, lambda_tolerance=0.02, overrides={})
    result, details = run.run_workload(workload, seed=1, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    traced, _ = run.run_workload(workload, seed=1, seconds=0, trace=True)
    assert traced["correct"]  # the traced summary matches the untraced digest
    assert set(traced["metrics"]) == {name for name, _, _ in METRICS}
    registry = work / "digests.json"
    registry.write_text(json.dumps({k: "0" * 64 for k in json.loads(registry.read_text())}))
    result, details = run.run_workload(workload, seed=1, seconds=0, trace=False)
    assert result["failed"] == 1
    assert [g["gate"] for g in details["failures"][0]["gates"]] == ["determinism"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["ergobench"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(w["name"] in WORKLOADS for w in spec["workloads"])
