"""Runs of the standalone scripts under scripts/: smoke runs on small inputs,
and the artifact regeneration byte for byte."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
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


@pytest.mark.parametrize(
    "script, args, flag",
    [
        ("run_hardness_probe.py", ["--k", "0"], "--k"),
        ("run_hardness_probe.py", ["--k", "10001"], "--k"),
        ("run_hardness_probe.py", ["--k", "2", "--policies", "-1"], "--policies"),
        ("run_rank_curve.py", ["--k", "0"], "--k"),
        ("run_rank_curve.py", ["--k", "20", "--points", "1"], "--points"),
        ("run_hardness_probe.py", ["--k", "2", "--seed", "-1"], "--seed"),
    ],
)
def test_script_bad_argument_exits_2_naming_it(script, args, flag):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"argument {flag}:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_every_command_manifest_in_configs_is_regenerated():
    # a manifest without an artifact, or an artifact whose manifest is gone,
    # would otherwise pass unnoticed
    spec = importlib.util.spec_from_file_location("run_benchmarks", ROOT / "scripts" / "run_benchmarks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    listed = {(command, manifest) for command, manifest, _ in module.MANIFESTS}
    payloads = {path.name: json.loads(path.read_text()) for path in (ROOT / "configs").glob("*.json")}
    commanded = {(obj["command"], name) for name, obj in payloads.items() if "command" in obj}
    assert listed == commanded
    assert len(module.MANIFESTS) == len(listed)


STABLE_ARTIFACTS = (
    "eval_instance_a.csv",
    "eval_semi_exact.csv",
    "dominance_corpus.csv",
    "dominance_max_sample_k100.csv",
    "dominance_intervals.csv",
    "ordinal_sweep_10k.csv",
    "hardness_k400.json",
    "stats_check.json",
    "tv_mixture.csv",
    "tv_binomial_normal.csv",
)


def test_run_benchmarks_regenerates_stable_artifacts_byte_for_byte(tmp_path):
    # run from elsewhere: the manifests name their instance files relative to the root
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_benchmarks.py"), "--threads", "2", "--out-dir", "out"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert len([line for line in proc.stderr.splitlines() if line.startswith("time ")]) == 10
    out = tmp_path / "out"
    for name in STABLE_ARTIFACTS:
        assert (out / name).read_bytes() == (ROOT / "results" / name).read_bytes(), name


def test_readme_rank_table_matches_the_rank_curve():
    # every cell of the README's best-rank table, recomputed at its printed digits
    spec = importlib.util.spec_from_file_location("run_rank_curve", ROOT / "scripts" / "run_rank_curve.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    rows = [line.strip("| ").split(" | ") for line in readme if line.startswith("| 1e")]
    assert [row[0] for row in rows] == ["1e2", "1e3", "1e4", "1e5"]
    for cells in rows:
        k = int(float(cells[0]))
        best = module.best_rank(k)
        rank = module.recommended_rank(k)
        (row,) = module.ordinal_upper_bound_sweep(k, [rank])
        got = [best.rank, best.min_ratio, rank, row.min_ratio]
        for cell, value in zip(cells[1:], got):
            digits = len(cell.partition(".")[2])
            assert cell == (f"{value:.{digits}f}" if digits else str(value)), (cells, got)


def test_readme_library_example_prints_what_its_comments_say(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("Typical library use:\n\n```python\n", 1)[1].split("```", 1)[0]
    comments = [line.partition("  # ")[2] for line in block.splitlines() if line.startswith("print(")]
    assert comments == ["~0.5", "0.5 exactly", "0.41423: case2's counts never vary", "(value, error bound)"]
    exec(compile(block, "README.md", "exec"), {})
    mc, dominance, semi, exact = capsys.readouterr().out.splitlines()
    # 10^6 replications put the 95% halfwidth near 1e-3
    assert abs(float(mc) - 0.5) < 5e-3
    assert float(dominance) == 0.5
    assert f"{float(semi):.5f}" == "0.41423"
    value, err = ast.literal_eval(exact)
    assert value > 0.0 and 0.0 <= err <= 1e-12 * value


def _resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_readme_library_tour_names_resolve():
    # every backticked `name(` of a prophet_samples.* tour row is an attribute
    # of the row's module or of a class defined in it
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    checked = 0
    for line in readme:
        row = re.fullmatch(r"\| `(prophet_samples\.\w+)` \| (.*) \|", line)
        if not row:
            continue
        module = importlib.import_module(row[1])
        classes = [obj for obj in vars(module).values() if inspect.isclass(obj) and obj.__module__ == module.__name__]
        for span in re.findall(r"`([^`]*)`", row[2]):
            for name in re.findall(r"([A-Za-z_][\w.]*)\(", span):
                assert any(_resolves(owner, name) for owner in (module, *classes)), (row[1], name)
                checked += 1
    assert checked > 40
