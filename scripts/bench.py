#!/usr/bin/env python3
"""Run the benchmark on every workload and several seeds; write BENCH_<pr>.json.

Usage (from the repository root):

    python scripts/bench.py --pr 6 --seeds 601 602 603 [--parent DIR] [--trace W ...]

For each workload in BENCHMARK.json and each seed it runs `bench/run.py
--trace 0` for the benchmark's run_seconds in this checkout and, with --parent,
in a checkout of the parent commit, alternating which side runs first from one
seed to the next.
Each --trace workload is also run with `--trace 1` on every seed, for the
per-layer metrics. Per metric and side the file holds the best value (by the
metric's direction in BENCHMARK.json), the median, the quartiles and every
run; with --parent it also counts the pairs the change won. Provenance
(nproc, Python, numpy and scipy versions, git sha, seeds, workers) comes
from the details line each run prints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One bench/run.py call; returns its (details, result) lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def dirty(checkout: Path) -> bool:
    """Whether the checkout's program differs from its HEAD commit."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.returncode != 0 or bool(proc.stdout.strip())


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Best, median, quartiles and every value of each metric over the runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "best": max(values) if better[name] == "higher" else min(values),
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "runs": values,
        }
    return out


def wins(change: list[dict], parent: list[dict], better: dict[str, str]) -> dict:
    """Per metric, the pairs (same seed) where the change read strictly better."""
    out = {}
    for name in change[0]["metrics"]:
        sign = 1.0 if better[name] == "higher" else -1.0
        won = sum(sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0.0
                  for c, p in zip(change, parent))
        out[name] = {"change_won": won, "pairs": len(change)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", nargs="*", default=[], metavar="W",
                        help="workloads to run again with --trace 1")
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    args = parser.parse_args(argv)
    if len(args.seeds) < 3:
        parser.error("--seeds needs at least 3 seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()

    report: dict = {"pr": args.pr, "seconds": seconds, "seeds": args.seeds,
                    "command": spec["command"], "provenance": {}, "end_to_end": {}, "per_layer": {}}
    for trace, workload_list, key in ((False, workloads, "end_to_end"), (True, args.trace, "per_layer")):
        for workload in workload_list:
            runs: dict[str, list[dict]] = {side: [] for side in sides}
            for i, seed in enumerate(args.seeds):
                order = list(sides) if i % 2 == 0 else list(sides)[::-1]
                for side in order:
                    details, result = run_once(sides[side], workload, seed, seconds, trace)
                    runs[side].append(result)
                    prov = {k: v for k, v in details["provenance"].items() if k != "seed"}
                    report["provenance"].setdefault(side, dict(prov, dirty=dirty(sides[side])))
                    print(f"{workload} trace={int(trace)} seed={seed} {side}: "
                          f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
            entry = {side: {"attempted": [r["attempted"] for r in rs], "failed": [r["failed"] for r in rs],
                            "metrics": summarize(rs, better)} for side, rs in runs.items()}
            if "parent" in runs:
                entry["wins"] = wins(runs["change"], runs["parent"], better)
            report[key][workload] = entry

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
