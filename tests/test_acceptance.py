"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Numeric tolerances are fixed
here, not calibrated at runtime; corpora use frozen seeds so every run checks
the same instances.
"""

import math
import time

import numpy as np
import pytest

from prophet_samples import (
    HardParams,
    Instance,
    MaxSample,
    ProbVector,
    QPolicy,
    ValueDist,
    adversary,
    build_dd_mixture,
    case2_instance,
    certificate,
    certificate_terms,
    chernoff_check,
    dominance_check,
    eval_q_policy,
    omega_rho,
    ordinal_upper_bound_sweep,
    recommended_rank,
    semi_exact_ordinal,
    tv_binom_vs_normal,
    tv_distance,
)
from prophet_samples import cli
from prophet_samples.evaluation import (
    default_case2_boxes,
    derive_seed,
    diagnostics_sandwich_sweep,
)
from prophet_samples.hardness import ONE_THIRD
from prophet_samples.stats import CountDist

from conftest import brute_force_eval, random_discrete_instance, random_mixture_instance

DOMINANCE_CORPUS_SEED = 20260803
MIXTURE_CORPUS_SEED = 20260801
RUN_SEED = 20260804

INSTANCE_A = Instance((ValueDist.atom(1.0), ValueDist.discrete({2.0: 0.5, 0.0: 0.5})))

RHO = omega_rho()
LOWER_FLOOR = 1.0 - RHO - 0.03  # 0.4029
UPPER_CEILING = 1.0 - RHO + 0.03  # 0.4629


def announce(num: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status} ({elapsed:6.2f}s): {detail}")


def test_criterion_01_omega_rho_solver():
    t0 = time.perf_counter()
    best = math.inf
    for _ in range(5):
        t1 = time.perf_counter()
        rho = omega_rho()
        best = min(best, time.perf_counter() - t1)
    residual = abs(rho * math.exp(rho) - 1.0)
    ok = residual <= 1e-12 and 0.567143 < rho < 0.567144 and best < 1e-3
    announce(1, ok, time.perf_counter() - t0, f"rho={rho:.12f} residual={residual:.2e} best={best*1e6:.0f}us")
    assert residual <= 1e-12
    assert 0.567143 < rho < 0.567144
    assert best < 1e-3


def test_criterion_02_certificate_arithmetic():
    t0 = time.perf_counter()
    params = HardParams(k=400)
    value = certificate(params)
    terms = certificate_terms(params)
    ok = (
        abs(value - 0.4997) <= 1e-12
        and abs(terms[0] - 0.4997) <= 1e-12
        and abs(terms[1] - 0.4995) <= 1e-12
        and abs(terms[2] - 0.4844703703703703) <= 1e-12
    )
    announce(2, ok, time.perf_counter() - t0, f"value={value:.13f} terms={terms}")
    assert abs(value - 0.4997) <= 1e-12
    assert abs(terms[0] - 0.4997) <= 1e-12
    assert abs(terms[1] - 0.4995) <= 1e-12
    # the third branch per the source formula xi*d1*8/27 + d2*12/27 + 7/27 + eps
    assert abs(terms[2] - 0.4844703703703703) <= 1e-12


def test_criterion_03_single_sample_dominance_corpus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(DOMINANCE_CORPUS_SEED)
    corpus = [random_discrete_instance(rng) for _ in range(25)]
    worst_overall = 1.0
    for inst in corpus:
        report = dominance_check(inst, MaxSample(), 1, 0.5, mode="exact")
        worst_overall = min(worst_overall, report.worst_ratio)
        assert report.worst_ratio >= 0.5 - 1e-9, inst
    report_a = dominance_check(INSTANCE_A, MaxSample(), 1, 0.5, mode="exact")
    elapsed = time.perf_counter() - t0
    ok = worst_overall >= 0.5 - 1e-9 and abs(report_a.worst_ratio - 0.5) <= 1e-12
    announce(3, ok, elapsed, f"corpus worst={worst_overall:.12f} instA worst={report_a.worst_ratio}")
    assert abs(report_a.worst_ratio - 0.5) <= 1e-12
    assert elapsed < 10.0


def test_criterion_04_ordinal_lower_bound_trend():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MIXTURE_CORPUS_SEED)
    corpus = [random_mixture_instance(rng) for _ in range(10)]
    reps = 10_000
    worst = 1.0
    for i, inst in enumerate(corpus):
        for k in (1000, 10_000):
            report = semi_exact_ordinal(
                inst, k, recommended_rank(k), reps, derive_seed(RUN_SEED, 4, i, k)
            )
            worst = min(worst, report.ratio)
            assert report.ratio >= LOWER_FLOOR, (i, k, report.ratio)
    case2_big = semi_exact_ordinal(
        case2_instance(10_000, default_case2_boxes(10_000)),
        10_000,
        recommended_rank(10_000),
        reps,
        derive_seed(RUN_SEED, 4, 99, 10_000),
    )
    # k=1e3 rank 468 pins g near 0.468, which caps this instance's ratio at
    # about 0.389 < 0.4029; reported for the trend, not asserted (see notes).
    case2_small = semi_exact_ordinal(
        case2_instance(1000, default_case2_boxes(1000)),
        1000,
        recommended_rank(1000),
        reps,
        derive_seed(RUN_SEED, 4, 99, 1000),
    )
    elapsed = time.perf_counter() - t0
    ok = worst >= LOWER_FLOOR and 0.40 <= case2_big.ratio <= 0.46
    announce(
        4,
        ok,
        elapsed,
        f"corpus worst={worst:.4f} case2@1e4={case2_big.ratio:.4f} "
        f"case2@1e3={case2_small.ratio:.4f} (informational)",
    )
    assert worst >= LOWER_FLOOR
    assert 0.40 <= case2_big.ratio <= 0.46
    assert case2_big.ratio >= LOWER_FLOOR
    assert elapsed < 120.0


def test_criterion_05_ordinal_upper_bound_sweep():
    t0 = time.perf_counter()
    k = 10_000
    ranks = [1, 4000, 5671, 7000, 10_000]  # 1, 0.4k, rho*k, 0.7k, k
    rows = ordinal_upper_bound_sweep(k, ranks, 10_000, seed=derive_seed(RUN_SEED, 5))
    mins = {row.rank: row.min_ratio for row in rows}
    elapsed = time.perf_counter() - t0
    ok = all(m <= UPPER_CEILING for m in mins.values())
    announce(5, ok, elapsed, f"per-rank mins={ {r: round(m, 4) for r, m in mins.items()} }")
    for rank, m in mins.items():
        assert m <= UPPER_CEILING, (rank, m)
    assert elapsed < 180.0


def test_criterion_06_cdf_sandwich_sweep():
    t0 = time.perf_counter()
    violations, worst = diagnostics_sandwich_sweep(10_000, seed=derive_seed(RUN_SEED, 6))
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    announce(6, ok, elapsed, f"probes=10000 violations={violations} worst_excess={worst:.2e}")
    assert violations == 0
    assert elapsed < 5.0


def test_criterion_07_policy_evaluator_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(derive_seed(RUN_SEED, 7))
    worst = 0.0
    for k in (1, 2):
        params = HardParams(k=k)
        for _ in range(50):
            policy = QPolicy.random(k, rng)
            p234 = [float(rng.choice([0.0, ONE_THIRD, 1.0])) for _ in range(3)]
            vec = ProbVector(
                (
                    1.0,
                    *p234,
                    float(rng.uniform(0.0, 2.0 * params.eps)),
                    float(rng.choice([0.0, params.spike_prob])),
                )
            )
            gap = abs(
                eval_q_policy(vec, params, policy) - brute_force_eval(vec, params, policy)
            )
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10
    announce(7, ok, elapsed, f"100 probes max gap={worst:.2e}")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_08_hardness_adversary():
    t0 = time.perf_counter()
    params = HardParams(k=400)
    rng = np.random.default_rng(derive_seed(RUN_SEED, 8))
    worst = 0.0
    for _ in range(50):
        _, ratio = adversary(QPolicy.random(400, rng), params)
        worst = max(worst, ratio)
        assert ratio <= 0.51, ratio
    _, zero_ratio = adversary(QPolicy.constant(400, 0.0), params)
    greedy_table = np.zeros((16, 1601))
    greedy_table[0] = 1.0  # accept the anchor, STOPS[0], always
    greedy = QPolicy(k=400, table=greedy_table)
    _, greedy_ratio = adversary(greedy, params)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.51 and zero_ratio <= 0.01 and greedy_ratio <= 0.01
    announce(
        8,
        ok,
        elapsed,
        f"random max={worst:.4f} q0={zero_ratio:.4f} greedy={greedy_ratio:.4f}",
    )
    assert zero_ratio <= 0.01
    assert greedy_ratio <= 0.01
    assert elapsed < 120.0


def test_criterion_09_mixture_tv_convergence():
    t0 = time.perf_counter()
    tvs = []
    for k in (200, 800, 3200):
        _, mix, star = build_dd_mixture(HardParams(k=k, eps=0.1))
        tvs.append(tv_distance(mix, star))
    elapsed = time.perf_counter() - t0
    ok = tvs[0] > tvs[1] > tvs[2] and tvs[2] < 0.2
    announce(9, ok, elapsed, f"tv={[round(v, 5) for v in tvs]}")
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs[2] < 0.2
    assert elapsed < 60.0


def test_criterion_10_tv_expectation_inequalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(derive_seed(RUN_SEED, 10))
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        table = rng.random(m + 1)
        wa = rng.random(m + 1) + 1e-3
        d1 = CountDist(0, wa / wa.sum())
        parts = int(rng.integers(1, 5))
        coeffs = rng.random(parts) + 1e-3
        coeffs = coeffs / coeffs.sum()
        comps = rng.random((parts, m + 1)) + 1e-3
        comps = comps / comps.sum(axis=1, keepdims=True)
        d2 = CountDist(0, coeffs @ comps)
        plain = CountDist(0, comps[0])
        for other in (plain, d2):  # single distribution, then the mixture
            gap = float(np.sum(table * (d1.masses - other.masses)))
            if gap > tv_distance(d1, other) + 1e-12:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    announce(10, ok, elapsed, f"2000 inequality checks, violations={violations}")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_11_binomial_normal_trend():
    t0 = time.perf_counter()
    finals = []
    for p in (0.1, 0.3, 0.5):
        vals = [tv_binom_vs_normal(n, p) for n in (100, 1000, 10_000)]
        assert vals[0] > vals[1] > vals[2], (p, vals)
        finals.append(vals[2])
    elapsed = time.perf_counter() - t0
    ok = all(v < 0.05 for v in finals)
    announce(11, ok, elapsed, f"final tvs={[f'{v:.4f}' for v in finals]}")
    assert all(v < 0.05 for v in finals)
    assert elapsed < 30.0


def test_criterion_12_chernoff_tail_check():
    t0 = time.perf_counter()
    reports = [chernoff_check([0.5] * 1000, delta) for delta in (0.1, 0.2, 0.3)]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports)
    announce(
        12,
        ok,
        elapsed,
        "; ".join(f"d={r.delta}: tail={r.tail:.3e} bound={r.bound:.1e}" for r in reports),
    )
    for r in reports:
        assert 0.0 < r.tail <= r.bound
    assert elapsed < 30.0


def test_criterion_13_cli_determinism(tmp_path):
    import json

    t0 = time.perf_counter()
    cfg = tmp_path / "eval.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "eval",
                "instances": [
                    {
                        "id": "instA",
                        "boxes": [
                            {"segments": [[1.0, 1.0, 1.0]]},
                            {"segments": [[0.5, 0.0, 0.0], [0.5, 2.0, 2.0]]},
                        ],
                    }
                ],
                "rule": {"rule": "max_sample"},
                "k": 1,
                "reps": 1_000_000,
                "seed": 7,
            }
        ),
        encoding="utf-8",
    )
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert cli.main(["eval", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
    assert cli.main(["eval", "--config", str(cfg), "--out", str(out2), "--threads", "8"]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    ratio = float(out1.read_text().strip().splitlines()[1].split(",")[8])
    elapsed = time.perf_counter() - t0
    ok = identical and abs(ratio - 0.5) < 0.01
    announce(13, ok, elapsed, f"byte-identical={identical} ratio={ratio:.4f}")
    assert identical
    assert abs(ratio - 0.5) < 0.01
    assert elapsed < 60.0
