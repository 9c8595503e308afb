"""Tests of the benchmark itself: its inputs, its span wrappers and short runs.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program(ROOT)

import spans  # noqa: E402
import workloads  # noqa: E402
from prophet_samples import cli, distributions, evaluation, hardness, stats  # noqa: E402


def _inputs(workload) -> list:
    """Everything a workload's tasks are called with, manifests read back."""
    out = []
    for task in workload.tasks:
        args = [Path(a).read_text() if isinstance(a, str) else a for a in task.call.args]
        out.append((task.kind, task.work, task.call.func.__name__, args, task.ref))
    return out


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and _equal(vars(a), vars(b))
    return a == b


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name, tmp_path):
    built = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        (tmp_path / sub).mkdir()
        workload = workloads.build(name, seed, tmp_path / sub)
        built.append(_inputs(workload))
        workload.close()
    assert _equal(built[0], built[1])
    assert not _equal(built[0], built[2])


def _bindings() -> dict:
    modules = [m for n, m in sys.modules.items() if n == "prophet_samples" or n.startswith("prophet_samples.")]
    table = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    for cls in (distributions.ValueDist, distributions.Instance):
        table.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return table


def test_wrappers_cover_name_imports_and_restore_originals():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            for module, name in ((evaluation, "threshold_value_with_rank_law"), (evaluation, "beta_moments"),
                                 (evaluation, "static_threshold_values"), (hardness, "binom"),
                                 (hardness, "convolve"), (hardness, "sum_of_binomials"),
                                 (hardness, "binom_pmf_rows"), (cli, "mc_ratio"), (stats, "binom")):
                assert getattr(module, name) is not before[(module.__name__, name)], (module, name)
            assert distributions.ValueDist.sample_many is not before[("ValueDist", "sample_many")]
            hardness.ones_count_dist(hardness.p_star(hardness.HardParams(k=5)), 5)
            raise RuntimeError("inside")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    recorded = tracer.take()
    by_label = {}
    for s in recorded:
        by_label.setdefault(s.label, []).append(s)
    assert len(by_label["stats.sum_of_binomials"]) == 1
    assert len(by_label["stats.binom"]) == 4
    outer = by_label["stats.sum_of_binomials"][0]
    inner = sum(s.end - s.start for s in by_label["stats.binom"] + by_label["stats.convolve"])
    assert len(by_label["stats.convolve"]) == 3
    assert outer.child_s == pytest.approx(inner)
    assert 0.0 <= outer.self_s <= outer.end - outer.start


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_short_run_passes_its_checks(name, trace):
    result, details = run.run(name, seed=3, seconds=0.1, trace=trace, setup_runs=1)
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= len(details["task_p50_ms_by_kind"])
    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in table]
    if not trace:
        assert all(m["value"] > 0.0 for m in result["metrics"].values())
    elif name == "semi-atoms":
        assert result["metrics"]["semi.atom_task_share"]["value"] > 0.5
    elif name == "paper-sweep":
        assert result["metrics"]["semi.atom_task_share"]["value"] == 0.0
        assert result["metrics"]["algorithms.threshold_value_with_rank_law.calls"]["value"] == 0
    elif name == "mc-pool":
        assert 0.0 < result["metrics"]["mc.lexsort_row_share"]["value"] < 1.0
        assert details["threads_per_label"]["distributions.sample_many"] == workloads.MC_THREADS


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "semi-atoms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
