"""Correctness gates applied to every benchmark operation.

A gate is never skipped: when the value it needs is missing, because the run
stopped before producing it, the gate fails with the value ``None``.
"""

from __future__ import annotations

import hashlib
import json

# |mu(F) - lambda| where a stationary density runs (2e-13 in 1d, 1.9e-12 in 2d
# at the seed commit)
DENSITY_GAP = 1e-10


def digest(payload: dict) -> str:
    """SHA-256 of a ``summary.json`` payload without ``timing``, the only
    field allowed to differ between runs of one workload and seed."""
    body = {key: value for key, value in payload.items() if key != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _gate(name: str, passed: bool, value) -> dict:
    return {"gate": name, "passed": bool(passed), "value": value}


def operation_gates(workload, exit_code, payload: dict | None) -> list[dict]:
    """Gates that one operation passes or fails on its own outputs."""
    results = (payload or {}).get("results", {})
    checks = (payload or {}).get("checks", {})
    lam = results.get("solve", {}).get("lambda")
    failed_checks = sorted(name for name, check in checks.items() if not check["passed"])
    gates = [
        _gate("exit_code", exit_code == 0, exit_code),
        _gate("declared_checks", payload is not None and not failed_checks, failed_checks),
    ]
    if workload.runs_density:
        mu_cost = results.get("fokker_planck", {}).get("mu_cost")
        gap = abs(mu_cost - lam) if mu_cost is not None and lam is not None else None
        gates.append(_gate("density_identity", gap is not None and gap <= DENSITY_GAP, gap))
    error = abs(lam - (1 + workload.dim)) if lam is not None else None
    passed = error is not None and error <= workload.lambda_tolerance
    gates.append(_gate("lambda_accuracy", passed, error))
    return gates


def determinism_gate(own: str | None, reference: str | None) -> dict:
    """The operation's summary digest equals the reference digest of earlier
    runs of the same code, workload and seed."""
    return _gate("determinism", own is not None and own == reference, own)
