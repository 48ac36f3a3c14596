"""What importing ergolab loads, checked in fresh interpreters: the test
session itself has already imported ``scipy.optimize``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab

SRC = str(Path(ergolab.__file__).resolve().parents[1])


def run_python(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_solve_and_density_never_import_scipy_optimize_or_spatial(tmp_path):
    script = f"""
import json, sys
import ergolab
from ergolab.config import parse_config
from ergolab.runner import run_scenario
for scenario in ("solve", "fokker_planck"):
    config = parse_config(json.dumps({{"scenario": scenario, "grid": {{"spacing": 0.2}}}}))
    assert run_scenario(config, {str(tmp_path)!r}).exit_code == 0
print(json.dumps(sorted(sys.modules)))
"""
    loaded = json.loads(run_python(script))
    assert "scipy.optimize" not in loaded and "scipy.spatial" not in loaded
    # the binding and the submodules it registers itself, nothing else
    binding = "scipy.optimize._highspy._core"
    assert binding in loaded
    assert all(m.startswith(binding) for m in loaded if m.startswith("scipy.optimize"))


@pytest.mark.parametrize("first", ["ergolab", "scipy.optimize"])
def test_highs_binding_is_one_module_in_either_import_order(first):
    script = f"""
import sys
import {first}
import ergolab.measure_lp
import scipy.optimize
assert ergolab.measure_lp.highs is sys.modules["scipy.optimize._highspy._core"]
res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs")
assert res.status == 0 and res.x.tolist() == [1.0, 0.0], res
"""
    run_python(script)


def test_runs_load_no_scipy_sparse_but_the_superlu_binding(tmp_path):
    script = f"""
import json, sys
import ergolab
from ergolab.config import parse_config
from ergolab.runner import run_scenario
for scenario in ("solve", "fokker_planck", "lp"):
    config = parse_config(json.dumps({{"scenario": scenario, "grid": {{"spacing": 0.2}}}}))
    assert run_scenario(config, {str(tmp_path)!r}).exit_code == 0
print(json.dumps(sorted(sys.modules)))
"""
    loaded = json.loads(run_python(script))
    sparse = [m for m in loaded if m == "scipy.sparse" or m.startswith("scipy.sparse.")]
    assert sparse == ["scipy.sparse.linalg._dsolve._superlu"]


@pytest.mark.parametrize("first", ["ergolab", "scipy.sparse.linalg"])
def test_superlu_binding_is_one_module_in_either_import_order(first):
    script = f"""
import sys
import numpy as np
import {first}
import ergolab.operators
import scipy.sparse.linalg
from scipy import sparse
binding = sys.modules["scipy.sparse.linalg._dsolve._superlu"]
assert ergolab.operators.superlu is binding
assert scipy.sparse.linalg._dsolve.linsolve._superlu is binding
lu = scipy.sparse.linalg.splu(sparse.csc_matrix([[2.0, 1.0], [1.0, 3.0]]))
assert lu.solve(np.array([3.0, 4.0])).tolist() == [1.0, 1.0]
"""
    run_python(script)
