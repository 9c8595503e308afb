"""Smoke runs of the standalone scripts under scripts/ on small inputs."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("run_hardness_probe.py", ["--k", "2", "--policies", "2"], "policy,ratio,p"),
        ("run_rank_curve.py", ["--k", "20", "--points", "3"], "k,l,case1_ratio,case2_ratio,min_ratio"),
    ],
)
def test_script_runs_and_prints_its_csv_header(script, args, header):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
