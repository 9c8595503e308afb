"""Runs of the standalone scripts under scripts/: smoke runs on small inputs,
and the artifact regeneration byte for byte."""

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


# tv_mixture.csv and tv_binomial_normal.csv drift in their last digits between
# regenerations, so they are not compared.
STABLE_ARTIFACTS = (
    "eval_instance_a.csv",
    "eval_semi_exact.csv",
    "dominance_corpus.csv",
    "dominance_max_sample_k100.csv",
    "ordinal_sweep_10k.csv",
    "hardness_k400.json",
    "stats_check.json",
)


def test_run_benchmarks_regenerates_stable_artifacts_byte_for_byte(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_benchmarks.py"), "--threads", "2", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert len([line for line in proc.stderr.splitlines() if line.startswith("time ")]) == 9
    for name in STABLE_ARTIFACTS:
        assert (tmp_path / name).read_bytes() == (ROOT / "results" / name).read_bytes(), name
