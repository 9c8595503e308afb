import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from prophet_samples import OrdinalRank, ValueDist, cli, dominance_check, evaluation
from prophet_samples.distributions import instance_from_json
from prophet_samples.evaluation import MAX_THREADS, MC_POOL_CAP

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("run_benchmarks", ROOT / "scripts" / "run_benchmarks.py")
run_benchmarks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_benchmarks)

INSTANCE_A = {
    "id": "instA",
    "boxes": [
        {"segments": [[1.0, 1.0, 1.0]]},
        {"segments": [[0.5, 0.0, 0.0], [0.5, 2.0, 2.0]]},
    ],
}


def run_cli(args):
    return cli.main(list(args))


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def eval_manifest(path, reps=20_000, seed=7):
    """An eval manifest of max-sample on instance A at k = 1."""
    return write_json(
        path,
        {
            "command": "eval",
            "instances": [INSTANCE_A],
            "rule": {"rule": "max_sample"},
            "k": 1,
            "reps": reps,
            "seed": seed,
        },
    )


@pytest.fixture
def eval_config(tmp_path):
    return eval_manifest(tmp_path / "eval.json")


def test_eval_writes_csv(eval_config, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_cli(["eval", "--config", eval_config, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "instance_id,rule,k,l,reps,seed,alg_value,prophet_value,ratio,ci"
    fields = lines[1].split(",")
    assert fields[0] == "instA"
    assert abs(float(fields[8]) - 0.5) < 0.02
    captured = capsys.readouterr()
    assert captured.out == ""  # artifact went to the file; stdout stays clean


def test_eval_stdout_when_no_out(tmp_path, capsys):
    assert run_cli(["eval", "--config", eval_manifest(tmp_path / "eval.json", reps=5000)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("instance_id,")


def test_eval_determinism_across_threads(eval_config, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["eval", "--config", eval_config, "--out", str(out1), "--threads", "1"]) == 0
    assert run_cli(["eval", "--config", eval_config, "--out", str(out2), "--threads", "8"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_eval_manifest_seed_changes_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["eval", "--config", eval_manifest(tmp_path / "a.json", seed=7), "--out", str(out1)]) == 0
    assert run_cli(["eval", "--config", eval_manifest(tmp_path / "b.json", seed=8), "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_eval_missing_seed_is_config_error(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "bad.json",
        {
            "command": "eval",
            "instances": [INSTANCE_A],
            "rule": {"rule": "max_sample"},
            "k": 1,
            "reps": 100,
        },
    )
    assert run_cli(["eval", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rule",
    [
        {"rule": "ordinal"},
        {"rule": "ordinal", "rank": 1.7},
        {"rule": "ordinal", "rank": True},
        # a fixed numeric threshold is not a rule: every rule is a rank
        {"rule": "explicit", "t": 0.5},
    ],
    ids=["no-rank", "fractional-rank", "boolean-rank", "explicit"],
)
def test_eval_bad_rule_is_config_error(tmp_path, capsys, rule):
    cfg = write_json(
        tmp_path / "bad.json",
        {
            "command": "eval",
            "instances": [INSTANCE_A],
            "rule": rule,
            "k": 1,
            "reps": 100,
            "seed": 1,
        },
    )
    assert run_cli(["eval", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    assert "field 'rule'" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["mc", "semi_exact"])
def test_eval_rank_above_pool_is_config_error(tmp_path, capsys, method):
    # instance A has n = 2 boxes, so k = 10 pools only 20 samples
    cfg = write_json(
        tmp_path / "rank.json",
        {
            "command": "eval",
            "instances": [INSTANCE_A],
            "rule": {"rule": "ordinal", "rank": 50},
            "method": method,
            "k": [10, 40],
            "reps": 100,
            "seed": 1,
        },
    )
    assert run_cli(["eval", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "field 'rule.rank'" in err
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["eval", "dominance"])
def test_all_zero_instance_is_config_error(tmp_path, capsys, command):
    zero = {"id": "zero", "boxes": [{"segments": [[1.0, 0.0, 0.0]]}, {"segments": [[1.0, 0.0, 0.0]]}]}
    cfg = write_json(
        tmp_path / "zero.json",
        {
            "command": command,
            "instances": [INSTANCE_A, zero],
            "rule": {"rule": "max_sample"},
            "k": 1,
            **({"reps": 100, "seed": 1} if command == "eval" else {"gamma": 0.5}),
        },
    )
    assert run_cli([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "field 'instances'" in err
    assert "'zero'" in err


def test_mc_pool_above_cap_is_config_error(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cap.json",
        {
            "command": "eval",
            "instances": [INSTANCE_A],
            "rule": {"rule": "max_sample"},
            "k": MC_POOL_CAP // 2 + 1,
            "reps": 1,
            "seed": 1,
        },
    )
    assert run_cli(["eval", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "field 'k'" in err
    assert "internal error" not in err


# One row per bad input: (id, command, manifest, files written beside it,
# the field the error must name). Manifests name those files relatively.
_ZERO_POLICY = {"k": 25, "entries": []}
_BAD_INPUTS = [
    ("chernoff-number", "stats-check", {"chernoff": 5, "seed": 1}, {}, "chernoff"),
    ("sandwich-list", "stats-check", {"sandwich": [1], "seed": 1}, {}, "sandwich"),
    ("deltas-empty", "stats-check",
     {"chernoff": {"n": 10, "p": 0.5, "deltas": []}}, {}, "chernoff.deltas"),
    ("p-empty", "tv-convergence", {"family": "binomial_normal", "n": [100], "p": []}, {}, "p"),
    ("tv-n-above-cap", "tv-convergence", {"family": "binomial_normal", "n": [10**15], "p": [0.5]}, {}, "n"),
    ("chernoff-n-above-cap", "stats-check",
     {"chernoff": {"n": 10**15, "p": 0.5, "deltas": [0.5]}}, {}, "chernoff.n"),
    # the Chernoff tail is exact: chernoff.reps, of any size, is never read
    ("chernoff-reps-above-cap", "stats-check",
     {"chernoff": {"n": 10, "p": 0.5, "deltas": [0.5], "reps": 10**15}, "seed": 1}, {}, "chernoff.reps"),
    ("mixture-k-above-hardparams", "tv-convergence",
     {"family": "count_mixture", "k": [20_000], "eps": 0.1}, {}, "k"),
    ("policy-boolean", "hardness-verify", {"policy": True}, {}, "policy"),
    ("file-boolean", "eval",
     {"instances": [{"file": True}], "rule": {"rule": "max_sample"}, "k": 1, "reps": 100, "seed": 1},
     {}, "instances[0].file"),
    ("dominance-rank-above-pool", "dominance",
     {"instances": [INSTANCE_A], "rule": {"rule": "ordinal", "rank": 9}, "k": 2, "gamma": 0.5},
     {}, "rule.rank"),
    ("dominance-count-window-cap", "dominance",
     {"instances": [INSTANCE_A], "rule": {"rule": "max_sample"}, "k": 1_000_000, "gamma": 0.5},
     {}, "instances[0]"),
    # rank k of 2k samples lies in the middle atom's stratum, whose 2-D count
    # window is over the cap: a window the threshold does reach
    ("dominance-reached-count-window-cap", "dominance",
     {"instances": [{"boxes": [{"segments": [[1 / 3, v, v] for v in (0.0, 1.0, 2.0)]}] * 2}],
      "rule": {"rule": "ordinal", "rank": 100_000}, "k": 100_000, "gamma": 0.5},
     {}, "instances[0]"),
    ("dominance-explicit-rule", "dominance",
     {"instances": [INSTANCE_A], "rule": {"rule": "explicit", "t": 0.5}, "k": 1, "gamma": 0.5},
     {}, "rule"),
    ("dominance-mode-mc", "dominance",
     {"instances": [INSTANCE_A], "rule": {"rule": "max_sample"}, "k": 1, "gamma": 0.5, "mode": "mc"},
     {}, "mode"),
    ("segment-two-numbers", "eval",
     {"instances": [{"boxes": [{"segments": [[1.0, 0.0]]}]}], "rule": {"rule": "max_sample"},
      "k": 1, "reps": 100, "seed": 1},
     {}, "instances[0].boxes"),
    ("policy-entries-number", "hardness-verify", {"policy": "p.json"},
     {"p.json": {"k": 25, "entries": 5}}, "policy"),
    ("policy-k-boolean", "hardness-verify", {"policy": "p.json"},
     {"p.json": {"k": True, "entries": []}}, "policy"),
    ("policy-k-fraction", "hardness-verify", {"policy": "p.json"},
     {"p.json": {"k": 2.7, "entries": []}}, "policy"),
    ("sweep-spike-atom", "ordinal-sweep", {"k": 208_064, "ranks": [1]}, {}, "k"),
    ("generator-spike-atom", "eval",
     {"instances": [{"generator": {"name": "case1", "k": 208_064}}], "rule": {"rule": "max_sample"},
      "k": 1, "reps": 100, "seed": 1},
     {}, "instances[0].generator.k"),
    ("policy-k-huge", "hardness-verify", {"policy": "p.json"},
     {"p.json": {"k": 10**15, "entries": [{"prefix": ["xi"], "i": 0, "q": 0.5}]}}, "policy"),
    ("policy-file-missing", "hardness-verify", {"policy": "absent.json"}, {}, "policy"),
    ("policy-params-boolean", "hardness-verify", {"policy": "p.json", "xi": True},
     {"p.json": _ZERO_POLICY}, "xi"),
    ("policy-prefix-ending-in-0", "hardness-verify", {"policy": "p.json"},
     {"p.json": {"k": 25, "entries": [{"prefix": ["xi", 0], "i": 3, "q": 1.0}]}}, "policy"),
    ("segment-sum-overflows", "eval",
     {"instances": [{"boxes": [{"segments": [[1.0, 0.0, 1e308]]}]}], "rule": {"rule": "max_sample"},
      "k": 1, "reps": 10, "seed": 1},
     {}, "instances[0].boxes"),
    ("segment-square-overflows", "eval",
     {"instances": [{"boxes": [{"segments": [[1.0, 0.0, 1e300]]}]}], "rule": {"rule": "max_sample"},
      "k": 1, "reps": 10, "seed": 1},
     {}, "instances[0].boxes"),
    ("generator-case2-atom", "eval",
     {"instances": [{"generator": {"name": "case2", "k": 2**53}}], "rule": {"rule": "max_sample"},
      "k": 1, "reps": 10, "seed": 1},
     {}, "instances[0].generator.k"),
    ("generator-case2-k-huge", "eval",
     {"instances": [{"generator": {"name": "case2", "k": 10**400}}], "rule": {"rule": "max_sample"},
      "k": 1, "reps": 10, "seed": 1},
     {}, "instances[0].generator.k"),
    # case2 takes floor(k^(1/4)) boxes, at least 2, as the sweep does, so even a valid n is never read
    ("generator-case2-n", "eval",
     {"instances": [{"generator": {"name": "case2", "k": 50, "n": 3}}], "rule": {"rule": "max_sample"},
      "k": 1, "reps": 10, "seed": 1},
     {}, "instances[0].generator.n"),
    ("eval-misspelled-key", "eval",
     {"instances": [INSTANCE_A], "rule": {"rule": "max_sample"}, "k": 1, "reps": 10, "seed": 1,
      "metod": "semi_exact"},
     {}, "metod"),
    ("semi-exact-stratum-cap", "eval",
     {"instances": [{"boxes": [{"segments": [[1.0, i, i + 1]]} for i in range(1500)]}],
      "rule": {"rule": "ordinal", "rank": 1}, "k": 1, "reps": 10, "seed": 1, "method": "semi_exact"},
     {}, "instances"),
    # 1400 boxes fit the stratum table but not the prophet integral's CDF cap
    ("semi-exact-prophet-cost-cap", "eval",
     {"instances": [{"boxes": [{"segments": [[1.0, i, i + 1]]} for i in range(1400)]}],
      "rule": {"rule": "ordinal", "rank": 1}, "k": 1, "reps": 10, "seed": 1, "method": "semi_exact"},
     {}, "instances"),
    ("sweep-unread-reps", "ordinal-sweep", {"k": 60, "ranks": [1], "reps": 400}, {}, "reps"),
    ("dominance-exact-unread-reps", "dominance",
     {"instances": [INSTANCE_A], "rule": {"rule": "max_sample"}, "k": 1, "gamma": 0.5, "reps": 10, "seed": 1},
     {}, "reps"),
    ("stats-unread-reps", "stats-check", {"seed": 1, "reps": 20_000, "sandwich": {"probes": 1}}, {}, "reps"),
    # settings that never changed the output: the Chernoff tail is exact, the
    # policy alone sets k, and dominance is always exact
    ("stats-reps-beside-chernoff", "stats-check",
     {"chernoff": {"n": 10, "p": 0.5, "deltas": [0.5]}, "reps": 20_000, "seed": 1}, {}, "reps"),
    ("hardness-manifest-k", "hardness-verify", {"policy": "p.json", "k": 25}, {"p.json": _ZERO_POLICY}, "k"),
    ("dominance-mode-exact", "dominance",
     {"instances": [INSTANCE_A], "rule": {"rule": "max_sample"}, "k": 1, "gamma": 0.5, "mode": "exact"},
     {}, "mode"),
    # every section and JSON object rejects a key it does not read
    ("sandwich-unread-key", "stats-check", {"sandwich": {"probes": 10, "probs": 99999}, "seed": 1}, {},
     "sandwich.probs"),
    ("chernoff-unread-key", "stats-check",
     {"chernoff": {"n": 10, "p": 0.5, "deltas": [0.5], "delta": 0.9}}, {},
     "chernoff.delta"),
    ("generator-unread-key", "eval",
     {"instances": [{"generator": {"name": "case2", "k": 20, "boxes": 7}}], "rule": {"rule": "max_sample"},
      "k": 1, "reps": 10, "seed": 1},
     {}, "instances[0].generator.boxes"),
    ("instance-entry-unread-key", "eval",
     {"instances": [{**INSTANCE_A, "weight": 2}], "rule": {"rule": "max_sample"}, "k": 1, "reps": 10, "seed": 1},
     {}, "instances[0].weight"),
    ("box-unread-key", "eval",
     {"instances": [{"boxes": [{"segments": [[1.0, 0.0, 1.0]], "weight": 2}]}], "rule": {"rule": "max_sample"},
      "k": 1, "reps": 10, "seed": 1},
     {}, "instances[0].boxes"),
    ("instance-file-unread-key", "eval",
     {"instances": [{"file": "i.json"}], "rule": {"rule": "max_sample"}, "k": 1, "reps": 10, "seed": 1},
     {"i.json": {"boxes": INSTANCE_A["boxes"], "name": "a"}}, "instances[0].file"),
    ("max-sample-rule-rank", "eval",
     {"instances": [INSTANCE_A], "rule": {"rule": "max_sample", "rank": 7}, "k": 1, "reps": 10, "seed": 1},
     {}, "rule"),
    ("ordinal-rule-t", "eval",
     {"instances": [INSTANCE_A], "rule": {"rule": "ordinal", "rank": 3, "t": 9.0}, "k": 2, "reps": 10, "seed": 1},
     {}, "rule"),
    ("policy-unread-key", "hardness-verify", {"policy": "p.json"}, {"p.json": {**_ZERO_POLICY, "name": "zero"}},
     "policy"),
    ("policy-entry-unread-key", "hardness-verify", {"policy": "p.json"},
     {"p.json": {"k": 25, "entries": [{"prefix": ["xi"], "i": 0, "q": 0.5, "w": 1}]}}, "policy"),
    # only the sandwich sweep draws, so a chernoff-only manifest never reads the seed
    ("chernoff-only-seed", "stats-check", {"chernoff": {"n": 10, "p": 0.5, "deltas": [0.5]}, "seed": 1}, {},
     "seed"),
    # an id is written into a CSV row unquoted
    *(
        (f"{command}-id-{name}", command,
         {"instances": [INSTANCE_A, {**INSTANCE_A, "id": bad}], "rule": {"rule": "max_sample"}, "k": 1,
          **({"gamma": 0.5} if command == "dominance" else {"reps": 10, "seed": 1})},
         {}, "instances[1].id")
        for command in ("dominance", "eval")
        for name, bad in (
            ("comma-newline", "a,b\nc"), ("quote", 'say "a"'), ("cr", "a\rb"), ("list", [1, 2]),
            ("float", 1.5), ("boolean", True), ("null", None),
        )
    ),
]


def _fd_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


@pytest.mark.parametrize(
    "command, manifest, files, field",
    [row[1:] for row in _BAD_INPUTS],
    ids=[row[0] for row in _BAD_INPUTS],
)
def test_bad_input_exits_2_on_its_field(tmp_path, monkeypatch, capsys, command, manifest, files, field):
    monkeypatch.chdir(tmp_path)
    for name, payload in files.items():
        write_json(tmp_path / name, payload)
    cfg = write_json(tmp_path / "manifest.json", {"command": command, **manifest})
    out = tmp_path / "artifact.out"
    out.write_bytes(b"artifact of an earlier run\n")
    saved_stdout = os.dup(1)  # a reader that opens fd 1 must not take the suite's stdout with it
    try:
        threads = ["--threads", "1"] if command == "eval" else []
        code = run_cli([command, "--config", cfg, "--out", str(out), *threads])
        stdout_open = _fd_open(1)
    finally:
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"field '{field}'" in err
    assert "internal error" not in err
    assert out.read_bytes() == b"artifact of an earlier run\n"
    assert stdout_open


@pytest.mark.parametrize("method", ["mc", "semi_exact"])
def test_eval_prophet_cost_cap_exits_2_before_integrating(tmp_path, capsys, monkeypatch, method):
    # 10^4 one-segment boxes at k = 1 pass every other cap of the mc method; the
    # integral would evaluate about 5e11 CDF entries
    boxes = [{"segments": [[1.0, i, i + 1]]} for i in range(10_000)]
    cfg = write_json(tmp_path / "wide.json", {
        "command": "eval", "instances": [{"id": "wide", "boxes": boxes}],
        "rule": {"rule": "ordinal", "rank": 1}, "k": 1, "reps": 10, "seed": 1, "method": method,
    })
    monkeypatch.setattr(ValueDist, "cdf", lambda self, x: pytest.fail("a CDF was evaluated"))
    start = time.perf_counter()
    code = run_cli(["eval", "--config", cfg, "--threads", "1"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2, err
    assert "field 'instances'" in err and "prophet integral" in err
    assert elapsed < 1.0


def test_eval_accepts_values_up_to_2_to_the_64(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "big.json",
        {
            "command": "eval",
            "instances": [{"id": "big", "boxes": [{"segments": [[1.0, 0.0, 2.0**64]]}]}],
            "rule": {"rule": "max_sample"},
            "k": 1,
            "reps": 10,
            "seed": 1,
        },
    )
    assert run_cli(["eval", "--config", cfg]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert all(math.isfinite(float(x)) for x in row[6:])


def test_threads_above_cap_is_config_error(eval_config, tmp_path, capsys):
    out = tmp_path / "out.csv"
    active = threading.active_count()
    code = run_cli(["eval", "--config", eval_config, "--out", str(out), "--threads", str(MAX_THREADS + 1)])
    assert code == 2
    assert "field 'threads'" in capsys.readouterr().err
    assert threading.active_count() == active
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--seed", "--reps", "--threads"])
def test_ordinal_sweep_has_no_seed_or_reps_flag(tmp_path, capsys, flag):
    cfg = write_json(tmp_path / "sweep.json", {"command": "ordinal-sweep", "k": 60, "ranks": [1]})
    with pytest.raises(SystemExit) as exc:
        run_cli(["ordinal-sweep", "--config", cfg, flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, manifest, artifact",
    run_benchmarks.MANIFESTS,
    ids=[artifact for _, _, artifact in run_benchmarks.MANIFESTS],
)
def test_unread_manifest_key_is_config_error(command, manifest, artifact, tmp_path, monkeypatch, capsys):
    """Every command rejects a top-level key it never reads, before it runs."""
    monkeypatch.chdir(ROOT)
    payload = json.loads((ROOT / "configs" / manifest).read_text())
    cfg = write_json(tmp_path / "manifest.json", {**payload, "bogus": 1})
    out = tmp_path / artifact
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1  # no progress line: nothing ran
    assert err[0].startswith("config error: field 'bogus': is never read")
    assert not out.exists()


def test_unwritable_out_is_config_error(tmp_path, capsys):
    cfg = eval_manifest(tmp_path / "eval.json", reps=100)
    assert run_cli(["eval", "--config", cfg, "--out", str(tmp_path / "no-such-dir" / "out.csv")]) == 2
    assert "field 'out'" in capsys.readouterr().err


# The exact TV sums move in their last bits across library builds. Near
# n = 1e4 the TV is a difference of near-equal masses, so a gap of 3e-17 in a
# value of 1.5e-5 is 2e-12 relative; a TV is a probability, so those rows also
# pass at an absolute gap of 1e-15.
_TV_ARTIFACTS = ("tv_mixture.csv", "tv_binomial_normal.csv")


@pytest.mark.parametrize(
    "command, manifest, artifact",
    run_benchmarks.MANIFESTS,
    ids=[artifact for _, _, artifact in run_benchmarks.MANIFESTS],
)
def test_eval_reproduces_committed_artifact(command, manifest, artifact, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / artifact
    assert run_cli([command, "--config", f"configs/{manifest}", "--out", str(out)]) == 0
    want = (ROOT / "results" / artifact).read_text()
    if artifact not in _TV_ARTIFACTS:
        assert out.read_bytes() == want.encode()
        return
    got_rows = [line.split(",") for line in out.read_text().splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert got_rows[0] == want_rows[0]
    assert [r[:-1] for r in got_rows] == [r[:-1] for r in want_rows]
    for got, ref in zip(got_rows[1:], want_rows[1:]):
        assert float(got[-1]) == pytest.approx(float(ref[-1]), rel=1e-12, abs=1e-15)


def test_eval_generator_instances(tmp_path):
    cfg = write_json(
        tmp_path / "gen.json",
        {
            "command": "eval",
            "instances": [{"id": "bench", "generator": {"name": "case2", "k": 50}}],
            "rule": {"rule": "ordinal", "rank": 20},
            "k": 50,
            "reps": 2000,
            "seed": 5,
            "method": "semi_exact",
        },
    )
    out = tmp_path / "gen.csv"
    assert run_cli(["eval", "--config", cfg, "--out", str(out)]) == 0
    fields = out.read_text().strip().splitlines()[1].split(",")
    assert fields[0] == "bench"
    assert 0.0 < float(fields[8]) < 1.0


def test_command_mismatch_is_config_error(eval_config, capsys):
    assert run_cli(["dominance", "--config", eval_config]) == 2
    assert "command" in capsys.readouterr().err


def test_dominance_exact(tmp_path):
    cfg = write_json(
        tmp_path / "dom.json",
        {
            "command": "dominance",
            "instances": [INSTANCE_A],
            "rule": {"rule": "max_sample"},
            "k": 1,
            "gamma": 0.5,
        },
    )
    out = tmp_path / "dom.csv"
    assert run_cli(["dominance", "--config", cfg, "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "instance_id,rule,k,gamma,worst_x,worst_ratio,passed"
    fields = row.split(",")
    assert fields[0] == "instA"
    assert float(fields[5]) == pytest.approx(0.5, abs=1e-12)
    assert fields[6] == "true"


def test_dominance_boolean_gamma_is_config_error(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "dom.json",
        {
            "command": "dominance",
            "instances": [INSTANCE_A],
            "rule": {"rule": "max_sample"},
            "k": 1,
            "gamma": True,
        },
    )
    assert run_cli(["dominance", "--config", cfg, "--out", str(tmp_path / "dom.csv")]) == 2
    assert "field 'gamma'" in capsys.readouterr().err


def test_dominance_writes_a_mixture_row(tmp_path):
    # one box U(0, 1), one with an atom at 1/2 and a segment U(1, 3): exact
    # on intervals as on atoms
    mixture = {"id": "mix", "boxes": [
        {"segments": [[1.0, 0.0, 1.0]]},
        {"segments": [[0.4, 0.5, 0.5], [0.6, 1.0, 3.0]]},
    ]}
    cfg = write_json(
        tmp_path / "dom.json",
        {"command": "dominance", "instances": [mixture], "rule": {"rule": "ordinal", "rank": 2},
         "k": 3, "gamma": 0.5},
    )
    out = tmp_path / "dom.csv"
    assert run_cli(["dominance", "--config", cfg, "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert (fields["instance_id"], fields["rule"], fields["k"], fields["gamma"]) == ("mix", "ordinal", "3", "0.5")
    report = dominance_check(instance_from_json({"boxes": mixture["boxes"]}), OrdinalRank(2), 3, 0.5)
    assert fields["worst_x"] == repr(report.worst_x) and fields["worst_ratio"] == repr(report.worst_ratio)
    assert fields["passed"] == str(report.passed).lower()


@pytest.mark.parametrize("flag", ["--seed", "--reps", "--threads"])
def test_dominance_has_no_seed_or_reps_flag(tmp_path, capsys, flag):
    cfg = write_json(
        tmp_path / "dom.json",
        {"command": "dominance", "instances": [INSTANCE_A], "rule": {"rule": "max_sample"}, "k": 1, "gamma": 0.5},
    )
    with pytest.raises(SystemExit) as exc:
        run_cli(["dominance", "--config", cfg, flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [("hardness-verify", "--threads"), ("hardness-verify", "--k"), ("tv-convergence", "--threads"),
     ("stats-check", "--threads"), ("stats-check", "--reps")],
)
def test_command_rejects_a_flag_it_never_reads(capsys, command, flag):
    # only eval runs a worker pool and reads a top-level reps; a policy sets its own k.
    # --config comes first: argparse reports a missing required flag before an unknown one
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", "manifest.json", flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli._RUNNERS))
@pytest.mark.parametrize("argv", [["--seed", "5"], ["--reps", "5"], ["--policy", "p.json"], []],
                         ids=["seed", "reps", "policy", "no-config"])
def test_manifest_is_the_only_source_of_a_setting(capsys, command, argv):
    # seed, reps and policy are manifest fields alone, and every run reads a manifest
    config = [] if not argv else ["--config", "manifest.json"]
    with pytest.raises(SystemExit) as exc:
        run_cli([command, *config, *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if argv:
        assert f"unrecognized arguments: {argv[0]}" in err
    else:
        assert "the following arguments are required: --config" in err


def test_ordinal_sweep(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "sweep.json",
        {
            "command": "ordinal-sweep",
            "k": 60,
            "ranks": [1, 30],
        },
    )
    out = tmp_path / "s.csv"
    assert run_cli(["ordinal-sweep", "--config", cfg, "--out", str(out)]) == 0
    # the sweep runs no worker pool, so it takes no worker count
    with pytest.raises(SystemExit) as exc:
        run_cli(["ordinal-sweep", "--config", cfg, "--out", str(out), "--threads", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("k,l,case1_ratio")


def test_ordinal_sweep_rank_bounded_by_case1_pool(tmp_path, capsys):
    # case1 has two boxes, so k = 100 pools 200 samples even where case2 pools more
    def sweep(ranks):
        cfg = write_json(
            tmp_path / "sweep.json",
            {"command": "ordinal-sweep", "k": 100, "ranks": ranks},
        )
        return run_cli(["ordinal-sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")])

    assert sweep([10, 250]) == 2
    err = capsys.readouterr().err
    assert "field 'ranks'" in err
    assert "internal error" not in err
    assert sweep([200]) == 0


def test_hardness_verify_zero_policy(tmp_path):
    policy = write_json(tmp_path / "zero.json", {"k": 25, "entries": []})
    cfg = write_json(tmp_path / "hv_manifest.json", {"command": "hardness-verify", "policy": policy})
    out = tmp_path / "hv.json"
    assert run_cli(["hardness-verify", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["ratio"] == 0.0
    assert result["k"] == 25
    assert len(result["p"]) == 6
    assert len(result["instance"]["boxes"]) == 6


def test_hardness_verify_k_mismatch(tmp_path, capsys):
    # k comes from the policy alone: a manifest k fails as never read,
    # whether it matches the policy's or not
    policy = write_json(tmp_path / "zero.json", {"k": 25, "entries": []})
    for k in (25, 26):
        cfg = write_json(tmp_path / "hv.json", {"policy": policy, "k": k})
        assert run_cli(["hardness-verify", "--config", cfg]) == 2
        assert "field 'k': is never read" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [("xi", 0.9), ("delta1", 0.01), ("delta2", 0.5005), ("eps", 0.0001)])
def test_hardness_verify_reads_only_its_policy(tmp_path, capsys, name, value):
    # the family runs at the HardParams defaults: even a valid parameter is never read
    policy = write_json(tmp_path / "zero.json", {"k": 25, "entries": []})
    cfg = write_json(tmp_path / "hv.json", {"policy": policy, name: value})
    assert run_cli(["hardness-verify", "--config", cfg]) == 2
    assert f"field '{name}': is never read" in capsys.readouterr().err


def test_hardness_verify_missing_policy(tmp_path, capsys):
    cfg = write_json(tmp_path / "hv.json", {"command": "hardness-verify"})
    assert run_cli(["hardness-verify", "--config", cfg]) == 2
    assert "field 'policy': is required" in capsys.readouterr().err


def test_tv_convergence_binomial(tmp_path):
    cfg = write_json(
        tmp_path / "tv.json",
        {"command": "tv-convergence", "family": "binomial_normal", "n": [100, 400], "p": [0.3]},
    )
    out = tmp_path / "tv.csv"
    assert run_cli(["tv-convergence", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,param,secondary,tv"
    tvs = [float(line.split(",")[3]) for line in lines[1:]]
    assert tvs[1] < tvs[0]


def test_tv_convergence_mixture(tmp_path):
    cfg = write_json(
        tmp_path / "tvm.json",
        {"command": "tv-convergence", "family": "count_mixture", "k": [50, 150], "eps": 0.1},
    )
    out = tmp_path / "tvm.csv"
    assert run_cli(["tv-convergence", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 3


def test_stats_check(tmp_path):
    cfg = write_json(
        tmp_path / "sc.json",
        {
            "command": "stats-check",
            "chernoff": {"n": 200, "p": 0.5, "deltas": [0.2]},
            "sandwich": {"probes": 300},
            "seed": 9,
        },
    )
    out = tmp_path / "sc.json.out"
    assert run_cli(["stats-check", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result["chernoff"][0]) == {"mu", "delta", "tail", "bound", "passed"}
    assert result["chernoff"][0]["passed"] is True
    assert result["sandwich"]["violations"] == 0


def test_stats_check_reports_sandwich_violations(tmp_path, monkeypatch):
    # the sweep counts a violation where threshold_diagnostics would raise
    terms = evaluation._sandwich_terms

    def shifted(*arrays):
        f, g = terms(*arrays)
        return f + 1.0, g

    monkeypatch.setattr(evaluation, "_sandwich_terms", shifted)
    cfg = write_json(tmp_path / "sc.json", {"command": "stats-check", "sandwich": {"probes": 300}, "seed": 9})
    out = tmp_path / "sc.json.out"
    assert run_cli(["stats-check", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads(out.read_text())["sandwich"]
    assert result["violations"] == 300
    assert result["passed"] is False
    assert result["worst_excess"] >= 1.0


def test_stats_check_boolean_p_is_config_error(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "sc.json",
        {
            "command": "stats-check",
            "chernoff": {"n": 10, "p": True, "deltas": [0.5]},
        },
    )
    assert run_cli(["stats-check", "--config", cfg, "--out", str(tmp_path / "sc.out")]) == 2
    assert "field 'chernoff.p'" in capsys.readouterr().err


def test_eval_golden_bytes(tmp_path):
    # the threshold is the second box's sure 0, so the first box's sure 1 is
    # always accepted: a fully deterministic row, frozen here
    cfg = write_json(
        tmp_path / "golden.json",
        {
            "command": "eval",
            "instances": [{"id": "sure", "boxes": [
                {"segments": [[1.0, 1.0, 1.0]]},
                {"segments": [[1.0, 0.0, 0.0]]},
            ]}],
            "rule": {"rule": "ordinal", "rank": 2},
            "k": 1,
            "reps": 100,
            "seed": 0,
        },
    )
    out = tmp_path / "golden.csv"
    assert run_cli(["eval", "--config", cfg, "--out", str(out)]) == 0
    from prophet_samples.evaluation import derive_seed

    run_seed = derive_seed(0, 0, 1)
    want = (
        "instance_id,rule,k,l,reps,seed,alg_value,prophet_value,ratio,ci\n"
        f"sure,ordinal,1,2,100,{run_seed},1.0,1.0,1.0,0.0\n"
    )
    assert out.read_text() == want


def test_console_entry_point(tmp_path):
    # the child imports the package of this checkout, installed or not
    cfg = eval_manifest(tmp_path / "eval.json", reps=2000)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "prophet_samples.cli", "eval", "--config", cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("instance_id,")
    assert "eval instA" in proc.stderr
