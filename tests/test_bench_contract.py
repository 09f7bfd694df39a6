"""The benchmark's output contract: a run exits 0, and its last line is a
strict-JSON result whose checks passed and whose metrics are all finite."""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_monitor_warm_ends_with_a_result_line(trace, section):
    """`--trace 0` reports every end-to-end metric that BENCHMARK.json
    names, and `--trace 1` every per-layer one."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "monitor-warm", "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    for spec in SPEC[section]:
        value = result["metrics"][spec["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), spec["name"]
