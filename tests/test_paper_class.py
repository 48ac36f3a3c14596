"""The paper's class of potentials, run end to end at the default seed.

``exp_abs`` (1 + e^|x|) grows faster than any power, yet meets the paper's
gradient-growth condition |Df| <= k0 (1 + |f|^(2 - 1/g)), so every check
passes.  ``quartic_sine`` (|x|^2 + sin|x|^4 + 2) breaks that condition, and
it is the only check that fails: every route still agrees on lambda.
"""

import json

import pytest

from ergolab.cli import main


@pytest.mark.filterwarnings("ignore:potential .quartic_sine. is not increasing")
@pytest.mark.parametrize(
    "name, code, failed",
    [("exp_abs", 0, set()), ("quartic_sine", 1, {"potential_gradient_growth"})],
)
def test_full_verify_on_named_potential(tmp_path, name, code, failed):
    args = ["--set", f"potential.family={name}"]
    args += ["--set", "sde.horizon=20"]
    assert main(["full_verify", "--out-dir", str(tmp_path)] + args) == code
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert {k for k, c in payload["checks"].items() if not c["passed"]} == failed
