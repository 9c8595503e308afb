#!/usr/bin/env python3
"""Probe the hardness family adversary with random policies.

For each policy the adversary sweeps the family and reports the worst exact
ratio; the asymptotic certificate value is printed for reference. Emits a tidy
CSV on stdout.

Usage: python scripts/run_hardness_probe.py [--k 400] [--policies 50] [--seed 1]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from prophet_samples import HardParams, QPolicy, adversary, certificate  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--k", type=int, default=400)
    parser.add_argument("--policies", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    try:
        params = HardParams(k=args.k)
    except ValueError as exc:
        parser.error(f"argument --k: {exc}")
    if args.policies < 0:
        parser.error(f"argument --policies: must be >= 0, got {args.policies}")
    if args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")

    print(f"certificate (asymptotic): {certificate(params):.6f}", file=sys.stderr)
    rng = np.random.default_rng(args.seed)
    print("policy,ratio,p")
    for i in range(args.policies):
        policy = QPolicy.random(args.k, rng)
        vec, ratio = adversary(policy, params)
        print(f"random{i},{ratio!r},{'|'.join(repr(v) for v in vec.values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
