"""A short run of claims/run.py: the length-control gates hold.

The full run (three seeds, two 1,500-step models each) takes minutes; this
one trains the length-input model for 500 steps on one seed and decodes 50
held-out lines. At seed 0 the length Pearson is 0.54 after 300 steps and
1.000 after 350, 400 and 500 steps.
"""

import importlib.util
from pathlib import Path

CLAIMS = Path(__file__).resolve().parents[1] / "claims" / "run.py"


def test_length_control_gates_hold_after_a_short_run(tmp_path):
    spec = importlib.util.spec_from_file_location("claims_run", CLAIMS)
    claims = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(claims)
    result = claims.length_control(tmp_path, seed=0, steps=500, held_out=50)
    assert len(result["gates"]) == 2 and all(result["gates"].values()), result["metrics"]
