#!/usr/bin/env python3
"""Trace the exact competitive ratio of ordinal ranks across the two benchmark
instances, and find the rank that maximizes their minimum.

The case1 ratio falls and the case2 ratio rises in the rank, so the best rank
sits where they cross; bisection finds the last rank at which case1 is still
the larger, and the best rank is that one or the next.

Usage: python scripts/run_rank_curve.py [--k 10000] [--points 21]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from prophet_samples import omega_rho, ordinal_upper_bound_sweep, recommended_rank  # noqa: E402
from prophet_samples.evaluation import CASE1_MAX_K  # noqa: E402


def best_rank(k: int):
    """The sweep row with the largest min ratio, by bisection on the crossing."""
    lo, hi = 1, k  # case1 leads at rank 1 and trails at rank k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        (row,) = ordinal_upper_bound_sweep(k, [mid])
        if row.case1.ratio >= row.case2.ratio:
            lo = mid
        else:
            hi = mid
    return max(ordinal_upper_bound_sweep(k, [lo, hi]), key=lambda r: r.min_ratio)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--k", type=int, default=10_000)
    parser.add_argument("--points", type=int, default=21)
    args = parser.parse_args()
    if not 2 <= args.k <= CASE1_MAX_K:
        parser.error(f"argument --k: must be in [2, {CASE1_MAX_K}], got {args.k}")
    if args.points < 2:
        parser.error(f"argument --points: must be >= 2, got {args.points}")

    k = args.k
    ranks = sorted(
        {max(1, round(k * frac)) for frac in
         (i / (args.points - 1) for i in range(args.points))}
        | {recommended_rank(k), round(omega_rho() * k)}
    )
    rows = ordinal_upper_bound_sweep(k, ranks)
    print("k,l,case1_ratio,case2_ratio,min_ratio")
    for row in rows:
        print(f"{k},{row.rank},{row.case1.ratio!r},{row.case2.ratio!r},{row.min_ratio!r}")
    best = best_rank(k)
    print(
        f"best rank {best.rank} (recommended {recommended_rank(k)}), "
        f"max-min ratio {best.min_ratio:.4f}, limit 1-rho = {1 - omega_rho():.4f}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
