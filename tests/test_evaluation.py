import importlib.util
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from prophet_samples import (
    ExplicitT,
    Instance,
    MaxSample,
    OrdinalRank,
    ValueDist,
    case1_instance,
    case2_instance,
    default_case2_boxes,
    dominance_check,
    exact_ordinal_value,
    exact_single_sample_value,
    mc_ratio,
    omega_rho,
    ordinal_upper_bound_sweep,
    recommended_rank,
    semi_exact_ordinal,
    threshold_value_with_rank_law,
)
from prophet_samples.algorithms import beta_moments, effective_rank, poly_times_linear, walk_terms
from prophet_samples.evaluation import (
    CASE1_MAX_K,
    CASE2_MAX_K,
    MC_POOL_CAP,
    _exact_selected_distribution,
    _mc_chunk_size,
    _select_pooled,
    derive_seed,
    diagnostics_sandwich_sweep,
    random_mixture_instance,
)

from conftest import random_discrete_instance

ROOT = Path(__file__).resolve().parents[1]


# -- mc_ratio ----------------------------------------------------------------------


def test_mc_ratio_sure_thing():
    inst = Instance((ValueDist.atom(1.0),))
    report = mc_ratio(inst, ExplicitT(0.5), 1, 5000, seed=1)
    assert report.alg_value == 1.0
    assert report.ratio == 1.0
    assert report.ci_halfwidth == 0.0


def test_mc_ratio_instance_a(instance_a):
    report = mc_ratio(instance_a, MaxSample(), 1, 200_000, seed=7)
    # exact value 0.75 from tie-break enumeration; allow 5 sigma
    sigma = report.ci_halfwidth / 1.96
    assert abs(report.alg_value - 0.75) < 5 * sigma
    assert report.prophet_value == pytest.approx(1.5, abs=1e-12)
    assert abs(report.ratio - 0.5) < 0.01


def test_mc_ratio_thread_determinism(instance_a):
    a = mc_ratio(instance_a, MaxSample(), 1, 50_000, seed=11, threads=1)
    b = mc_ratio(instance_a, MaxSample(), 1, 50_000, seed=11, threads=4)
    c = mc_ratio(instance_a, MaxSample(), 1, 50_000, seed=11, threads=16)
    assert a == b == c
    assert repr(a) == repr(b) == repr(c)


def test_mc_ratio_seed_sensitivity(instance_a):
    a = mc_ratio(instance_a, MaxSample(), 1, 20_000, seed=1)
    b = mc_ratio(instance_a, MaxSample(), 1, 20_000, seed=2)
    assert a.alg_value != b.alg_value


def test_mc_ratio_ordinal_rank_bounds(instance_a):
    with pytest.raises(ValueError):
        mc_ratio(instance_a, OrdinalRank(3), 1, 100, seed=0)


# -- semi-exact --------------------------------------------------------------------


def test_semi_exact_instance_a(instance_a):
    reps = 100_000
    report = semi_exact_ordinal(instance_a, 1, 1, reps, seed=3)
    # two threshold outcomes, each evaluated exactly at 1.0 and 0.5
    scaled = 2.0 * reps * report.alg_value
    assert scaled == pytest.approx(round(scaled), abs=1e-6)
    sigma = report.ci_halfwidth / 1.96
    assert abs(report.alg_value - 0.75) < 5 * sigma


def test_semi_exact_deterministic_samples_zero_ci():
    inst = Instance((ValueDist.atom(7.0),))
    report = semi_exact_ordinal(inst, 3, 2, 500, seed=1)
    assert report.ci_halfwidth == 0.0
    # threshold ties all three samples; rank law Beta(2, 2) gives E[1-U] = 1/2
    assert report.alg_value == pytest.approx(3.5, abs=1e-12)


def test_semi_exact_thread_determinism(instance_a):
    a = semi_exact_ordinal(instance_a, 2, 2, 30_000, seed=5, threads=1)
    b = semi_exact_ordinal(instance_a, 2, 2, 30_000, seed=5, threads=8)
    assert a == b


def test_semi_exact_agrees_with_mc(rng):
    # overlapping confidence intervals on random mixture instances
    for i in range(10):
        inst = random_mixture_instance(rng)
        k = 3
        rank = 2
        mc = mc_ratio(inst, OrdinalRank(rank), k, 60_000, seed=derive_seed(9, i, 0))
        semi = semi_exact_ordinal(inst, k, rank, 20_000, seed=derive_seed(9, i, 1))
        gap = abs(mc.alg_value - semi.alg_value)
        spread = math.hypot(mc.ci_halfwidth / 1.96, semi.ci_halfwidth / 1.96)
        assert gap < max(3.0 * spread, 1e-9), (inst, gap, spread)


def test_semi_exact_rank_bounds(instance_a):
    with pytest.raises(ValueError):
        semi_exact_ordinal(instance_a, 1, 3, 100, seed=0)


def test_semi_exact_agrees_with_mc_at_scale():
    # the large-k benchmark: pooled pool of 1e5 samples per replication
    from prophet_samples import recommended_rank

    k = 10_000
    inst = case2_instance(k, 10)
    rank = recommended_rank(k)
    mc = mc_ratio(inst, OrdinalRank(rank), k, 2000, seed=31, threads=4)
    semi = semi_exact_ordinal(inst, k, rank, 10_000, seed=32)
    spread = math.hypot(mc.ci_halfwidth / 1.96, semi.ci_halfwidth / 1.96)
    assert abs(mc.alg_value - semi.alg_value) < 4.0 * spread
    assert 0.40 <= mc.ratio <= 0.46


def _heavy_atom_mixtures():
    two = Instance(
        (
            ValueDist(((0.7, 1.0, 1.0), (0.3, 0.0, 2.0))),
            ValueDist(((0.5, 0.5, 1.5), (0.5, 2.0, 2.0))),
        )
    )
    three = Instance(
        (
            ValueDist(((0.6, 1.0, 1.0), (0.4, 0.0, 2.0))),
            ValueDist(((0.5, 0.5, 1.5), (0.3, 2.0, 2.0), (0.2, 1.0, 1.0))),
            ValueDist(((1.0, 0.0, 3.0),)),
        )
    )
    return two, three


@pytest.mark.parametrize(
    "which, rank, reps, threads, alg_hex, ci_hex",
    [
        # the rank lands on the heavy atom at 1.0 in nearly every replication
        (0, 220, 1000, 1, "0x1.4748911d2ad14p+0", "0x1.76fbc0d90ba66p-11"),
        (1, 380, 1000, 1, "0x1.4ee2923c2c361p+0", "0x1.41eac1ce3ab14p-10"),
        # the rank straddles the atom at 2.0 and the interval below; three chunks
        (1, 120, 10_000, 2, "0x1.248592625b2ccp+0", "0x1.025d338fbc6e9p-10"),
    ],
)
def test_semi_exact_atom_path_golden(which, rank, reps, threads, alg_hex, ci_hex):
    # alg bits recorded from the per-key evaluator, which batching by atom level
    # keeps; ci bits recorded from the per-chunk (sum, M2) merge
    inst = _heavy_atom_mixtures()[which]
    report = semi_exact_ordinal(inst, 200, rank, reps, seed=17, threads=threads)
    assert report.alg_value.hex() == alg_hex
    assert report.ci_halfwidth.hex() == ci_hex


def _mc_golden_instances():
    heavy = _heavy_atom_mixtures()[1]
    free = Instance(
        (
            ValueDist(((0.6, 0.0, 1.0), (0.4, 1.5, 2.5))),
            ValueDist(((0.5, 0.5, 1.5), (0.5, 2.0, 3.0))),
            ValueDist(((1.0, 0.0, 3.0),)),
        )
    )
    inst_a = Instance((ValueDist.atom(1.0), ValueDist.discrete({2.0: 0.5, 0.0: 0.5})))
    # every value is shared by several boxes, so the max sample ties often
    ties = Instance(
        (
            ValueDist.discrete({0.0: 0.2, 1.0: 0.5, 2.0: 0.3}),
            ValueDist.discrete({1.0: 0.6, 2.0: 0.4}),
            ValueDist.atom(1.0),
            ValueDist.discrete({0.0: 0.5, 2.0: 0.5}),
        )
    )
    return {"heavy": heavy, "free": free, "a": inst_a, "ties": ties}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "which, rule, k, reps, alg_hex, ci_hex, ratio_hex",
    [
        # heavy-atom mixture, n = 3, k = 100: ranks 1, ceil(rho k - k^(2/3)) = 36
        # and n k; 8000 replications are two chunks
        ("heavy", OrdinalRank(1), 100, 8000,
         "0x1.11f72437751b6p-5", "0x1.c24fa3c74b40ap-8", "0x1.25c658e534cf6p-6"),
        ("heavy", OrdinalRank(36), 100, 8000,
         "0x1.b6bb0ff552131p-1", "0x1.aac103d1df849p-6", "0x1.d67423562bd1fp-2"),
        ("heavy", OrdinalRank(300), 100, 8000,
         "0x1.0125b0011374dp+0", "0x1.0722b79fc6368p-7", "0x1.13bd950f5159cp-1"),
        ("free", OrdinalRank(36), 100, 8000,
         "0x1.d71d2f990980ep-1", "0x1.d5fdf318c3486p-6", "0x1.a7e73baf1cc43p-2"),
        # max sample at k = 1; 150000 replications are three chunks
        ("a", MaxSample(), 1, 150_000,
         "0x1.7f61d6fc424cfp-1", "0x1.130c55140d28bp-8", "0x1.ff2d1ea5adbbfp-2"),
        ("ties", MaxSample(), 1, 150_000,
         "0x1.e438088509bfap-1", "0x1.41d2448b9e4abp-8", "0x1.0e836a4d2eebcp-1"),
    ],
)
def test_mc_pool_path_golden(which, rule, k, reps, alg_hex, ci_hex, ratio_hex, threads):
    # alg and ratio bits recorded from the lexsort selection, which the partition
    # selection keeps; ci bits recorded from the per-chunk (sum, M2) merge
    inst = _mc_golden_instances()[which]
    report = mc_ratio(inst, rule, k, reps, seed=23, threads=threads)
    assert report.alg_value.hex() == alg_hex
    assert report.ci_halfwidth.hex() == ci_hex
    assert report.ratio.hex() == ratio_hex


def test_ci_at_spike_scale_matches_the_uniform_spread():
    # every replication accepts the first sample of U(1e8, 1e8 + 1), whose
    # variance is 1/12; summing squares about 0 would cancel it away
    inst = Instance((ValueDist.uniform(1e8, 1e8 + 1.0),))
    report = mc_ratio(inst, ExplicitT(0.0), 1, 100_000, seed=1)
    want = 1.96 * math.sqrt(1.0 / 12.0 / 100_000)
    assert report.ci_halfwidth == pytest.approx(want, rel=0.01)


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_pool_path_golden_dominance(threads):
    inst = _mc_golden_instances()["a"]
    report = dominance_check(inst, MaxSample(), 1, 0.5, mode="mc", reps=150_000, seed=29, threads=threads)
    assert report.worst_x == 2.0
    assert report.worst_ratio.hex() == "0x1.fd6a95f60554dp-2"


def test_exact_selected_law_golden_many_boxes():
    # bits recorded from the per-box convolve walk; at this many boxes np.dot's
    # summation order changes if the reach polynomials are padded to degree n
    inst = Instance(tuple(
        ValueDist.discrete({float(i % 3): (i + 1) / (2 * i + 3), float(i % 3 + 1): (i + 2) / (2 * i + 3)})
        for i in range(18)
    ))
    got = {
        t: {v: p.hex() for v, p in sorted(_exact_selected_distribution(inst, ExplicitT(t), 1).items())}
        for t in (1.0, 2.0)
    }
    assert got == {
        1.0: {1.0: "0x1.c71c71c71c71cp-2", 2.0: "0x1.ddddddddddddep-2", 3.0: "0x1.6c16c16c16c16p-4"},
        2.0: {2.0: "0x1.f17babda0ae0ep-2", 3.0: "0x1.06b879e24e35ap-1"},
    }


def lexsort_select_oracle(samples, sample_ranks, pos):
    """Reference selection: sort each row fully by (value, latent rank)."""
    order = np.lexsort((sample_ranks, samples), axis=-1)
    pick = order[:, pos]
    rows_idx = np.arange(len(samples))
    return samples[rows_idx, pick], sample_ranks[rows_idx, pick]


def _tie_run_rows(rng, rows, below, tied, above):
    """Rows holding `below` values under 1.0, `tied` copies of 1.0, `above` over it."""
    base = np.concatenate(
        [rng.uniform(0.0, 0.5, below), np.ones(tied), rng.uniform(1.5, 2.0, above)]
    )
    return rng.permuted(np.tile(base, (rows, 1)), axis=1)


def _selection_cases():
    rng = np.random.default_rng(404)
    cases = {
        "all tied": (np.full((50, 12), 3.0), [0, 5, 11]),
        "no ties": (rng.permutation(np.arange(600.0)).reshape(50, 12), [0, 5, 11]),
        # pos 4, 7 and 10 are the lowest, a middle and the highest slot of the run
        "tie run": (_tie_run_rows(rng, 50, 4, 7, 5), [4, 7, 10]),
        "few values": (rng.integers(0, 3, (200, 9)).astype(float), list(range(9))),
        "one row": (rng.integers(0, 2, (1, 7)).astype(float), list(range(7))),
    }
    for name, (samples, positions) in cases.items():
        for pos in positions:
            yield pytest.param(samples, pos, id=f"{name}-pos{pos}")


@pytest.mark.parametrize("samples, pos", list(_selection_cases()))
def test_select_pooled_matches_lexsort(samples, pos):
    ranks = np.random.default_rng(pos).random(samples.shape)
    want_value, want_rank = lexsort_select_oracle(samples, ranks, pos)
    value, rank = _select_pooled(samples.copy(), ranks.copy(), pos)
    assert np.all(value == want_value)
    assert np.all(rank == want_rank)
    free_value, free_rank = _select_pooled(samples.copy(), None, pos)
    assert free_rank is None
    assert np.all(free_value == want_value)


def test_mc_pool_cap_rejects_before_drawing(instance_a):
    n = instance_a.n
    assert _mc_chunk_size(n, MC_POOL_CAP // n) == 1
    k = MC_POOL_CAP // n + 1
    with pytest.raises(ValueError, match="cap"):
        _mc_chunk_size(n, k)
    with pytest.raises(ValueError, match="cap"):
        mc_ratio(instance_a, MaxSample(), k, 1, seed=1)
    with pytest.raises(ValueError, match="cap"):
        dominance_check(instance_a, MaxSample(), k, 0.5, mode="mc", reps=1, seed=1)


def test_all_zero_instance_has_no_ratio():
    inst = Instance((ValueDist.atom(0.0), ValueDist.atom(0.0)))
    with pytest.raises(ValueError, match="prophet value"):
        semi_exact_ordinal(inst, 2, 1, 100, seed=1)
    with pytest.raises(ValueError, match="prophet value"):
        mc_ratio(inst, MaxSample(), 1, 100, seed=1)


# -- exact ordinal evaluation ------------------------------------------------------------


def _bench_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "bench" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


ORACLES = _bench_oracles()


def case1_reference(k: int, rank: int) -> float:
    """The bench oracle, which keeps the threshold in U(1, 2), plus the event
    that at least rank spike samples put it inside the spike U(k^3, k^3 + 1).
    There only box 2 can win: (w / 2)(1 - x)(2k^3 + 1 + x) for x ~ Beta(a + 1 - rank, rank)."""
    from scipy.stats import binom

    w = 1.0 / (k * k)
    a = np.arange(rank, rank + 40)
    m = ORACLES.beta_moments(a + 1 - rank, rank, 2)
    spike = w / 2.0 * ((2.0 * float(k) ** 3 + 1.0) * (1.0 - m[1]) + m[1] - m[2])
    return ORACLES.case1_walk_value(k, rank) + float(np.sum(binom.pmf(a, k, w) * spike))


def case2_reference(k: int, n: int, rank: int) -> float:
    """The bench oracle's closed form for case2 in rational arithmetic: its
    float form loses up to 5e-12 to cancellation in 1 - E[x^n] at rank 1."""
    alpha, beta = n * k + 1 - rank, rank
    m = [Fraction(1)]
    for d in range(n + 1):
        m.append(m[-1] * (alpha + d) / (alpha + beta + d))
    return float(((2 * k + 1) * (1 - m[n]) + m[1] - m[n + 1]) / 2)


@pytest.mark.parametrize("k", [100, 1000, 10_000, 100_000])
def test_exact_ordinal_value_matches_the_closed_forms(k):
    n = default_case2_boxes(k)
    ranks = [1, round(0.4 * k), recommended_rank(k), math.ceil(omega_rho() * k), round(0.7 * k), k]
    for rank in ranks:
        for inst, want in (
            (case1_instance(k), case1_reference(k, rank)),
            (case2_instance(k, n), case2_reference(k, n, rank)),
        ):
            got, err = exact_ordinal_value(inst, k, rank)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (k, rank)
            assert err <= 1e-12 * got
        if rank > 1:  # the bench oracles themselves, where they cover every event
            assert exact_ordinal_value(case1_instance(k), k, rank)[0] == pytest.approx(
                ORACLES.case1_walk_value(k, rank), rel=1e-12, abs=0.0
            )


def test_exact_ordinal_value_matches_enumeration_on_atoms():
    rng = np.random.default_rng(20261018)
    checked = 0
    while checked < 20:
        inst = random_discrete_instance(rng, max_boxes=3, max_support=3)
        k = int(rng.integers(1, 4))
        rank = int(rng.integers(1, inst.n * k + 1))
        selected = _exact_selected_distribution(inst, OrdinalRank(rank), k)
        want = math.fsum(v * p for v, p in selected.items())
        got, err = exact_ordinal_value(inst, k, rank)
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)
        assert err == 0.0 or err <= 1e-12 * got
        checked += 1


def test_exact_ordinal_value_within_the_semi_exact_ci():
    rng = np.random.default_rng(20261019)
    cases = []
    for _ in range(10):
        inst = random_mixture_instance(rng)
        k = int(rng.integers(5, 60))
        cases.append((inst, k, int(rng.integers(1, inst.n * k + 1))))
    # case1 ranks past k put the threshold in the lower box's U(0, 1) part
    cases += [(case1_instance(50), 50, rank) for rank in (51, 75, 100)]
    for idx, (inst, k, rank) in enumerate(cases):
        got, err = exact_ordinal_value(inst, k, rank)
        report = semi_exact_ordinal(inst, k, rank, 4000, seed=idx)
        assert abs(got - report.alg_value) <= report.ci_halfwidth + 1e-12 * got, (idx, got, report)
        assert err <= 1e-12 * got


@pytest.mark.parametrize("k", [2, 3, 16, 100, 10_000, CASE1_MAX_K])
def test_exact_sweep_error_bound_on_every_cli_case(k):
    # the CLI accepts k in [2, CASE1_MAX_K] and ranks in [1, 2k]
    ranks = sorted({1, 2, k // 2, k, k + 1, (3 * k) // 2, 2 * k})
    for inst in (case1_instance(k), case2_instance(k, default_case2_boxes(k))):
        for rank in ranks:
            value, err = exact_ordinal_value(inst, k, rank)
            assert value > 0.0 and err <= 1e-12 * value, (k, rank, value, err)
    rows = ordinal_upper_bound_sweep(k, ranks)
    assert [row.case1.ci_halfwidth for row in rows] == [0.0] * len(ranks)


def test_exact_sweep_rows_are_the_single_rank_values():
    k = 300
    ranks = [1, 120, 170, 300, 450, 600]
    rows = ordinal_upper_bound_sweep(k, ranks, 500, 7)  # reps and seed are ignored
    assert rows == ordinal_upper_bound_sweep(k, ranks)
    for row in rows:
        assert row.case1.alg_value == exact_ordinal_value(case1_instance(k), k, row.rank)[0]
        inst2 = case2_instance(k, default_case2_boxes(k))
        assert row.case2.alg_value == exact_ordinal_value(inst2, k, row.rank)[0]
        assert row.case2.prophet_value == inst2.prophet_expectation()


def test_exact_ordinal_window_cap_raises_before_allocating():
    # three equal-weight parts put (1/3, 1/3, 1/3) on the middle stratum: an
    # (8e3 x 8e3) window at k = 1e6, over stats.SIZE_CAP
    inst = Instance((ValueDist(((1 / 3, 0.0, 1.0), (1 / 3, 1.0, 2.0), (1 / 3, 2.0, 3.0))),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="window"):
            exact_ordinal_value(inst, 1_000_000, 500_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    with pytest.raises(ValueError, match="rank"):
        exact_ordinal_value(inst, 10, 11)


# -- exact single-sample ---------------------------------------------------------------


def test_exact_single_sample_instance_a(instance_a):
    assert exact_single_sample_value(instance_a) == pytest.approx(0.75, abs=1e-12)


def test_exact_single_sample_lone_atom():
    # sample equals the value; the tie is won half the time
    inst = Instance((ValueDist.atom(3.0),))
    assert exact_single_sample_value(inst) == pytest.approx(1.5, abs=1e-12)


def test_exact_single_sample_matches_mc(rng):
    for _ in range(5):
        inst = random_discrete_instance(rng, max_boxes=3, max_support=3)
        exact = exact_single_sample_value(inst)
        mc = mc_ratio(inst, MaxSample(), 1, 120_000, seed=17)
        sigma = max(mc.ci_halfwidth / 1.96, 1e-9)
        assert abs(mc.alg_value - exact) < 5 * sigma


def test_exact_single_sample_rejects_continuous():
    with pytest.raises(ValueError):
        exact_single_sample_value(Instance((ValueDist.uniform(0, 1),)))


def test_exact_single_sample_rejects_large():
    # the max sample is always 6; the last box ties it and wins half the time
    boxes = tuple(ValueDist.discrete({float(i): 1.0}) for i in range(7))
    assert exact_single_sample_value(Instance(boxes)) == 3.0
    wide = ValueDist.discrete({0.0: 0.25, 1.0: 0.25, 2.0: 0.25, 3.0: 0.25})
    with pytest.raises(ValueError, match="enumeration cap"):
        exact_single_sample_value(Instance((wide,) * 10))  # 4^10 pools


def per_pool_selected_distribution(inst, rule, k):
    """The selected-value law with one walk per sample pool, no grouping by law."""
    import itertools

    rank = effective_rank(rule)
    supports = [sorted(box.atoms().items()) for box in inst.boxes]
    dist = {}

    def accumulate(t, alpha, beta, weight):
        moments = beta_moments(alpha, beta, inst.n + 1)
        for i, (box, (reach, _)) in enumerate(zip(inst.boxes, walk_terms(inst, t))):
            reach = reach[: i + 1]
            for v, p in box.atoms().items():
                if v > t:
                    sel = reach * p
                elif v == t:
                    sel = poly_times_linear(reach, p, -p)
                else:
                    continue
                dist[v] = dist.get(v, 0.0) + weight * float(np.dot(sel, moments[: len(sel)]))

    slots = [s for s in supports for _ in range(k)]
    for combo in itertools.product(*slots):
        prob = 1.0
        for _, p in combo:
            prob *= p
        pool = sorted((v for v, _ in combo), reverse=True)
        t = pool[rank - 1]
        gt = sum(1 for v in pool if v > t)
        m = sum(1 for v in pool if v == t)
        j = rank - gt
        accumulate(t, m + 1 - j, j, prob)
    return dist


def test_grouped_laws_match_per_pool_walk(rng):
    for _ in range(20):
        inst = random_discrete_instance(rng, max_boxes=3, max_support=3)
        for rule, k in ((OrdinalRank(2), 2), (MaxSample(), 1)):
            got = _exact_selected_distribution(inst, rule, k)
            want = per_pool_selected_distribution(inst, rule, k)
            assert got.keys() == want.keys()
            for v, p in want.items():
                assert abs(got[v] - p) <= 1e-12 * abs(p)


def quad_selected_distribution_oracle(inst, k):
    """Independent route to the max-sample selected-value law.

    Enumerates sample pools directly and integrates each walk against the
    threshold's Beta rank density with adaptive quadrature, sharing no code
    with the moment-based evaluator.
    """
    import itertools
    import math as m

    from scipy.integrate import quad

    supports = [sorted(b.atoms().items()) for b in inst.boxes]
    slots = [s for s in supports for _ in range(k)]
    dist = {}
    for combo in itertools.product(*slots):
        prob = 1.0
        for _, p in combo:
            prob *= p
        pool = sorted((v for v, _ in combo), reverse=True)
        t = pool[0]
        mult = sum(1 for v in pool if v == t)
        norm = mult  # Beta(mult, 1) density is mult * u^(mult-1)

        def weight(i, w):
            def integrand(u):
                dens = norm * u ** (mult - 1)
                alive = 1.0
                for box in inst.boxes[:i]:
                    alive *= box.cdf_left(t) + box.mass_at(t) * u
                sel = 1.0 if w > t else (1.0 - u)
                return dens * alive * sel

            val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, limit=100)
            return val

        for i, box in enumerate(inst.boxes):
            for w, p in box.atoms().items():
                if w < t:
                    continue
                dist[w] = dist.get(w, 0.0) + prob * p * weight(i, w)
    return dist


def test_selected_distribution_matches_quadrature_oracle(rng):
    for _ in range(6):
        inst = random_discrete_instance(rng, max_boxes=3, max_support=3)
        got = _exact_selected_distribution(inst, MaxSample(), 1)
        want = quad_selected_distribution_oracle(inst, 1)
        keys = set(got) | set(want)
        for key in keys:
            assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=1e-10)


def test_exact_threshold_value_continuous_off_atoms(instance_a):
    for t in (0.3, 1.2, 1.9):
        base = threshold_value_with_rank_law(instance_a, t)
        for h in (1e-7, -1e-7):
            assert threshold_value_with_rank_law(instance_a, t + h) == pytest.approx(
                base, abs=1e-5
            )


def test_survival_identity_for_expectation(instance_a):
    # E[ALG] equals the integral of the tail: sum over levels of gap * Pr[ALG >= x]
    selected = _exact_selected_distribution(instance_a, MaxSample(), 1)
    xs = sorted(v for v in selected if v > 0)
    total = 0.0
    prev = 0.0
    for x in xs:
        tail = sum(p for v, p in selected.items() if v >= x)
        total += (x - prev) * tail
        prev = x
    assert total == pytest.approx(exact_single_sample_value(instance_a), abs=1e-10)


# -- dominance ---------------------------------------------------------------------------


def test_dominance_instance_a_exact(instance_a):
    report = dominance_check(instance_a, MaxSample(), 1, 0.5, mode="exact")
    assert report.worst_x == 2.0
    assert report.worst_ratio == pytest.approx(0.5, abs=1e-12)
    assert report.passed


def test_dominance_exact_random_corpus(rng):
    for _ in range(20):
        inst = random_discrete_instance(rng)
        report = dominance_check(inst, MaxSample(), 1, 0.5, mode="exact")
        assert report.worst_ratio >= 0.5 - 1e-9, inst


def test_dominance_single_deterministic_box():
    report = dominance_check(
        Instance((ValueDist.atom(2.0),)), MaxSample(), 1, 0.5, mode="exact"
    )
    # tie with the only sample is won exactly half the time
    assert report.worst_ratio == pytest.approx(0.5, abs=1e-12)


def test_dominance_mc_mode(instance_a):
    report = dominance_check(
        instance_a, MaxSample(), 1, 0.5, mode="mc", reps=200_000, seed=23
    )
    assert report.mode == "mc"
    assert abs(report.worst_ratio - 0.5) < 0.02


def test_dominance_mc_thread_determinism(instance_a):
    a = dominance_check(instance_a, MaxSample(), 1, 0.5, mode="mc", reps=40_000, seed=3, threads=1)
    b = dominance_check(instance_a, MaxSample(), 1, 0.5, mode="mc", reps=40_000, seed=3, threads=8)
    assert a == b


def test_dominance_validation(instance_a):
    with pytest.raises(ValueError):
        dominance_check(instance_a, MaxSample(), 1, 0.5, mode="nope")
    with pytest.raises(ValueError):
        dominance_check(instance_a, MaxSample(), 1, 0.5, mode="mc", reps=0)
    with pytest.raises(ValueError):
        dominance_check(Instance((ValueDist.uniform(0, 1),)), MaxSample(), 1, 0.5)


# -- benchmark instances -------------------------------------------------------------------


def test_case1_structure():
    inst = case1_instance(10)
    assert inst.n == 2
    weights = [w for w, _, _ in inst.boxes[1].segments]
    assert weights == pytest.approx([0.99, 0.01], abs=1e-15)
    assert inst.prophet_expectation() >= 10.0
    with pytest.raises(ValueError):
        case1_instance(1)


def test_case1_spike_stays_an_interval_up_to_its_k_bound():
    # 208063^3 + 1 <= 2^53 < 208064^3 + 1: above the bound the spike's two
    # bounds round to one float and U(k^3, k^3 + 1) would become an atom
    inst = case1_instance(208_063)
    _, lo, hi = inst.boxes[1].segments[-1]
    assert hi - lo == 1.0
    assert not inst.has_atoms
    with pytest.raises(ValueError, match="208063"):
        case1_instance(208_064)


def test_case2_structure():
    inst = case2_instance(25, 3)
    assert inst.n == 3
    assert len(set(inst.boxes)) == 1
    assert inst.prophet_expectation() >= 25.0
    with pytest.raises(ValueError):
        case2_instance(25, 1)


def test_case2_k_bounded_so_boxes_stay_segments():
    assert not case2_instance(CASE2_MAX_K, 2).has_atoms
    for k in (0, 2**53, 10**400):
        with pytest.raises(ValueError, match=str(CASE2_MAX_K)):
            case2_instance(k, 2)


def test_default_case2_boxes():
    assert default_case2_boxes(10_000) == 10
    assert default_case2_boxes(1000) == 5
    assert default_case2_boxes(16) == 2
    assert default_case2_boxes(2) == 2


@pytest.mark.parametrize(
    "k",
    [*range(1, 16), CASE2_MAX_K]
    + [k for n in (2, 3, 10, 100, 1000, 9741) for k in (n**4 - 1, n**4)],
)
def test_default_case2_boxes_is_the_floored_fourth_root(k):
    n = default_case2_boxes(k)
    if k < 16:
        assert n == 2
    else:
        assert n**4 <= k < (n + 1) ** 4
    if k == CASE2_MAX_K:
        assert n == 9741


def test_sweep_determinism():
    rows_a = ordinal_upper_bound_sweep(60, [1, 20, 40], 500, seed=14)
    rows_b = ordinal_upper_bound_sweep(60, [1, 20, 40], 500, seed=14)
    assert rows_a == rows_b
    for row in rows_a:
        assert row.min_ratio == min(row.case1.ratio, row.case2.ratio)


def test_derive_seed_stable():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert 0 <= derive_seed(123456, 9) < (1 << 64)


def test_sandwich_sweep_clean():
    violations, worst = diagnostics_sandwich_sweep(1500, seed=77)
    assert violations == 0
    assert worst <= 1e-12
