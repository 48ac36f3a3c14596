"""One benchmark operation in a fresh process.

Run as ``python -m ergobench.op SPEC_JSON`` from the repository root.  A
fresh process per operation makes set-up time and peak memory
per-operation quantities.  The last line of standard output is one JSON
object: the scenario's exit code, set-up and wall seconds, peak RSS and, for
a traced operation, the per-layer metrics.

SPEC_JSON keys: ``src`` (directory that must provide ``ergolab``),
``scenario``, ``overrides``, ``seed``, ``out``, ``trace``, ``setup_only``
and ``t0``, the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide, so the difference is set-up time).
"""

from __future__ import annotations

import contextlib
import json
import platform
import resource
import sys
import time
from pathlib import Path


def _load_config(spec: dict):
    from ergolab.config import apply_override, parse_config

    config = parse_config("{}")
    config = apply_override(config, "scenario", json.dumps(spec["scenario"]))
    config = apply_override(config, "seed", str(spec["seed"]))
    for key, value in spec["overrides"].items():
        config = apply_override(config, key, value)
    return config


def _artifacts(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run(spec: dict) -> dict:
    import ergolab
    import numpy
    import scipy
    from ergolab.config import ConfigError

    src = Path(spec["src"]).resolve()
    if src not in Path(ergolab.__file__).resolve().parents:
        raise SystemExit(f"ergolab was imported from {ergolab.__file__}, not from {src}")
    result = {
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    }
    try:
        config = _load_config(spec)
    except ConfigError as exc:
        result.update(exit_code=2, error=f"ConfigError: {exc}")
        result["setup_s"] = time.monotonic() - spec["t0"]
        return result
    if spec["setup_only"]:
        result["setup_s"] = time.monotonic() - spec["t0"]
        return result

    out = Path(spec["out"])
    tracer = None
    if spec["trace"]:
        from ergobench.tracing import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        entry = ergolab.runner.run_scenario  # the wrapper while tracing
        result["setup_s"] = time.monotonic() - spec["t0"]
        start, cpu = time.perf_counter(), time.process_time()
        report = entry(config, out)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from ergobench.tracing import Trace, layer_metrics

        files, size = _artifacts(out)
        tracer.counts.update({"serialize.files": files, "serialize.bytes": size})
        result["layers"] = layer_metrics(Trace(tracer.spans, tracer.counts))
        result["absent"] = tracer.absent
        result["observer_errors"] = tracer.observer_errors
    result["exit_code"] = report.exit_code
    result["error"] = report.payload["results"].get("error")
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
