#!/usr/bin/env python3
"""Run the checked-in experiment manifests and drop CSV/JSON artifacts in results/.

Usage: python scripts/run_benchmarks.py [--threads N] [--out-dir DIR]

--threads sets the worker count of the eval manifests, the only ones that
run a worker pool. --out-dir writes the artifacts elsewhere (default
results/), so a regeneration can be compared with the committed files; a
relative --out-dir is taken from the current directory. The manifests run from the repository
root, since they name their instance files relative to it, so the script
works from any directory. Each manifest's wall time is printed to stderr as
`time <command> <manifest> <seconds> s`.
"""

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from prophet_samples.cli import main as cli_main  # noqa: E402

MANIFESTS = [
    ("eval", "eval_instance_a.json", "eval_instance_a.csv"),
    ("eval", "eval_semi_exact.json", "eval_semi_exact.csv"),
    ("dominance", "dominance_corpus.json", "dominance_corpus.csv"),
    ("dominance", "dominance_max_sample_k100.json", "dominance_max_sample_k100.csv"),
    ("ordinal-sweep", "ordinal_sweep_10k.json", "ordinal_sweep_10k.csv"),
    ("hardness-verify", "hardness_k400.json", "hardness_k400.json"),
    ("tv-convergence", "tv_convergence.json", "tv_mixture.csv"),
    ("tv-convergence", "tv_binomial_normal.json", "tv_binomial_normal.csv"),
    ("stats-check", "stats_check.json", "stats_check.json"),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=ROOT / "results")
    args = parser.parse_args()

    results = args.out_dir.resolve()
    results.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)
    for command, manifest, artifact in MANIFESTS:
        argv = [
            command,
            "--config",
            str(ROOT / "configs" / manifest),
            "--out",
            str(results / artifact),
        ]
        if args.threads and command == "eval":
            argv += ["--threads", str(args.threads)]
        print(f"== {command} {manifest}", file=sys.stderr)
        start = time.perf_counter()
        code = cli_main(argv)
        print(f"time {command} {manifest} {time.perf_counter() - start:.3f} s", file=sys.stderr)
        if code != 0:
            return code
    print(f"artifacts in {results}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
