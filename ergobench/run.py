"""ergolab benchmark.

    python3 ergobench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ergobench/run.py --all [--seed N] [--seconds S] [--out FILE]

Load model: one caller in a closed loop.  Each operation is one fresh
Python process (``ergobench/op.py``) that imports ergolab from ``src/``,
builds the workload's config with ``--seed`` as its ``seed`` and calls
``ergolab.runner.run_scenario``; the next operation starts when the previous
one has ended.  BLAS/OpenMP threads are capped at the number of usable CPUs.

An untraced run (``--trace 0``) repeats operations while the next one is
expected to finish within ``--seconds`` (always at least one), tops the
set-up samples up with set-up-only processes, and reports the medians of the
end-to-end metrics.  A traced run (``--trace 1``) makes one traced operation
and reports the per-layer metrics.  The last line of standard output is the
result object; the line before it holds the details: sample counts, failed
gates, absent trace targets and the environment.

``--all`` runs every workload untraced and traced, prints each metric with
its unit, the tracing overhead (traced minus untraced wall time), and
writes the whole report as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ergobench.gates import determinism_gate, digest, operation_gates
from ergobench.tracing import METRICS
from ergobench.workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "ergobench"
SETUP_SAMPLES = 11
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def thread_caps() -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    return {name: nproc for name in THREAD_VARS}


def source_digest() -> str:
    """Identifies the program's code, so stored determinism digests are
    compared only against runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ergolab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD's commit read from ``.git`` directly; None outside a repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_op(
    workload: Workload, seed: int, out: Path, *, trace: bool = False, setup_only: bool = False
) -> dict:
    """Run one operation in a fresh process and return what it reported.

    The output directory is emptied first, so the artifact counts cover
    only this operation.  An operation that crashes or outlives the
    workload's time limit comes back with an ``exit_code`` and ``error``.
    """
    if out.exists():
        shutil.rmtree(out)
    spec = {
        "src": str(SRC),
        "scenario": workload.scenario,
        "overrides": workload.overrides,
        "seed": seed,
        "out": str(out),
        "trace": trace,
        "setup_only": setup_only,
    }
    env = {**os.environ, **thread_caps(), "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)])}
    spec["t0"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ergobench.op", json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=workload.limit_s,
        )
    except subprocess.TimeoutExpired:
        return {"exit_code": "timeout", "error": f"no result within {workload.limit_s} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"exit_code": proc.returncode, "error": tail[0]}
    result = json.loads(lines[-1])
    result["process_s"] = time.monotonic() - spec["t0"]
    return result


def _read_summary(out: Path) -> dict | None:
    try:
        return json.loads((out / "summary.json").read_text())
    except FileNotFoundError:
        return None


def reference_digest(workload: Workload, seed: int, first: str | None) -> str | None:
    """The stored summary digest for this code, workload and seed; the first
    one seen is stored."""
    key = hashlib.sha256(
        json.dumps(
            [source_digest(), workload.scenario, workload.overrides, seed], sort_keys=True
        ).encode()
    ).hexdigest()[:16]
    path = WORK / "digests.json"
    registry = json.loads(path.read_text()) if path.is_file() else {}
    if key not in registry and first is not None:
        registry[key] = first
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(registry, indent=1, sort_keys=True))
    return registry.get(key)


def run_operations(workload: Workload, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Operations of one run, each with its gates and a ``failed`` flag."""
    out = WORK / "out" / workload.name
    ops = []
    start = time.monotonic()
    while True:
        op = run_op(workload, seed, out, trace=trace)
        payload = _read_summary(out)
        op["digest"] = digest(payload) if payload is not None else None
        op["gates"] = operation_gates(workload, op["exit_code"], payload)
        ops.append(op)
        expected = op.get("process_s", workload.limit_s)
        if trace or time.monotonic() - start + expected > seconds:
            break
    shutil.rmtree(out, ignore_errors=True)
    reference = reference_digest(workload, seed, ops[0]["digest"])
    for op in ops:
        op["gates"].append(determinism_gate(op["digest"], reference))
        op["failed"] = not all(g["passed"] for g in op["gates"])
    return ops


def end_to_end(workload: Workload, ops: list[dict], setups: list[float]) -> dict:
    """Medians over operations.  A failed operation is charged the
    workload's time limit as its wall time."""
    walls = [workload.limit_s if op["failed"] else op["wall_s"] for op in ops]
    rss = [op["peak_rss_mb"] for op in ops if "peak_rss_mb" in op]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss) if rss else 0.0, "unit": "MiB"},
    }


def setup_probes(workload: Workload, seed: int, count: int) -> list[float]:
    """Set-up times of up to ``count`` set-up-only processes."""
    setups = []
    for _ in range(count):
        probe = run_op(workload, seed, WORK / "out" / workload.name, setup_only=True)
        if "setup_s" not in probe:
            break
        setups.append(probe["setup_s"])
    return setups


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: the result object and its details.

    An untraced run takes half of its set-up samples before the operations
    and the rest after them, so that a slow spell of the host cannot cover
    them all.
    """
    setups = [] if trace else setup_probes(workload, seed, SETUP_SAMPLES // 2)
    ops = run_operations(workload, seed, seconds, trace)
    failed = sum(op["failed"] for op in ops)
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "attempted": len(ops),
        "failed_frac": failed / len(ops),
        "failures": [
            {
                "op": i,
                "exit_code": op["exit_code"],
                "error": op.get("error"),
                "gates": [g for g in op["gates"] if not g["passed"]],
            }
            for i, op in enumerate(ops)
            if op["failed"]
        ],
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "thread_caps": thread_caps(),
            "versions": next((op["versions"] for op in ops if "versions" in op), None),
            "git_commit": git_commit(),
            "source_digest": source_digest(),
        },
    }
    actual = [op["wall_s"] for op in ops if "wall_s" in op]
    details["wall_samples_s"] = actual
    details["wall_actual_s"] = statistics.median(actual) if actual else None
    cpu = [op["cpu_s"] for op in ops if "cpu_s" in op]
    details["cpu_actual_s"] = statistics.median(cpu) if cpu else None
    if trace:
        op = ops[0]
        metrics = op.get("layers") or {
            name: {"value": 0, "unit": unit} for name, unit, _ in METRICS
        }
        details["absent"] = op.get("absent")
        details["observer_errors"] = op.get("observer_errors")
    else:
        setups += [op["setup_s"] for op in ops if "setup_s" in op]
        setups += setup_probes(workload, seed, SETUP_SAMPLES - len(setups))
        metrics = end_to_end(workload, ops, setups)
        details["samples"] = {
            "wall_s": len(ops),
            "setup_s": len(setups),
            "peak_rss_mb": sum("peak_rss_mb" in op for op in ops),
        }
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, details


def run_all(seed: int, seconds: float, out: Path) -> None:
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS.values():
        e2e, e2e_details = run_workload(workload, seed, seconds, trace=False)
        layers, layer_details = run_workload(workload, seed, seconds, trace=True)
        untraced = e2e_details["wall_actual_s"]
        traced = layers["metrics"]["trace.wall_s"]["value"]
        overhead = traced - untraced if untraced is not None else None
        report["environment"] = e2e_details["environment"]
        report["workloads"][workload.name] = {
            "why": workload.why,
            "end_to_end": e2e["metrics"],
            "samples": e2e_details["samples"],
            "failed_frac": e2e_details["failed_frac"],
            "failures": e2e_details["failures"] + layer_details["failures"],
            "wall_actual_s": untraced,
            "tracing_overhead_s": overhead,
            "per_layer": layers["metrics"],
            "absent": layer_details["absent"],
        }
        print(f"== {workload.name}: {workload.why}")
        for name, metric in e2e["metrics"].items():
            n = e2e_details["samples"][name]
            print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']:6s} (median of {n})")
        print(f"  {'failed_frac':32s} {e2e_details['failed_frac']:14.6g} {'':6s} (of {e2e['attempted']})")
        for failure in e2e_details["failures"][:1]:
            print(f"  failure: exit {failure['exit_code']}: {failure['error']}")
        if overhead is not None:
            print(f"  {'tracing_overhead_s':32s} {overhead:14.6g} s")
        for name, metric in layers["metrics"].items():
            print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
        sys.stdout.flush()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"report written to {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload, traced and not")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=WORK / "report.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ergolab" / "__init__.py").is_file():
        print(f"ergolab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        run_all(args.seed, args.seconds, args.out)
        return 0
    result, details = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
