import importlib.util
import itertools
import json
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from prophet_samples import (
    Instance,
    MaxSample,
    OrdinalRank,
    ValueDist,
    case1_instance,
    case2_instance,
    default_case2_boxes,
    distributions,
    dominance_check,
    evaluation,
    exact_ordinal_value,
    exact_single_sample_value,
    mc_ratio,
    omega_rho,
    ordinal_upper_bound_sweep,
    recommended_rank,
    semi_exact_ordinal,
    threshold_diagnostics,
    threshold_value_with_rank_law,
)
from prophet_samples.algorithms import beta_moments, effective_rank
from prophet_samples.evaluation import (
    CASE1_MAX_K,
    CASE2_MAX_K,
    MAX_THREADS,
    MC_POOL_CAP,
    _SANDWICH_CHUNK,
    _TAG_MC,
    _TAG_SANDWICH,
    _exact_tails,
    _map_chunks,
    _mc_chunk_size,
    _sandwich_probes,
    _sandwich_terms,
    _simulate_chunk,
    _substream,
    _tie_law,
    derive_seed,
    diagnostics_sandwich_sweep,
)
from prophet_samples.stats import SIZE_CAP

from conftest import (
    atoms,
    cdf,
    probe_instances,
    prophet_tail,
    random_discrete_instance,
    random_mixture_instance,
    scalar_diagnostics,
    scalar_level_structure,
    set_up_oracle_instances,
    shared_atom_mixture,
)

ROOT = Path(__file__).resolve().parents[1]


# -- mc_ratio ----------------------------------------------------------------------


def test_mc_ratio_sure_thing():
    # the lower of the two samples is the sure 0, so the first box always wins
    inst = Instance((ValueDist.atom(1.0), ValueDist.atom(0.0)))
    report = mc_ratio(inst, OrdinalRank(2), 1, 5000, seed=1)
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


def test_mc_ratio_reuses_one_worker_pool(instance_a, monkeypatch):
    """Maps at one worker count share a pool: the second call runs on the
    threads the first started, and repeated calls start no threads."""
    workers = []
    simulate = evaluation._simulate_chunk

    def recorded(*args):
        workers.append(threading.current_thread())
        return simulate(*args)

    monkeypatch.setattr(evaluation, "_simulate_chunk", recorded)
    reps = 2 * _mc_chunk_size(instance_a.n, 100)  # one chunk per worker
    first = mc_ratio(instance_a, OrdinalRank(50), 100, reps, seed=3, threads=2)
    first_workers = set(workers)
    second = mc_ratio(instance_a, OrdinalRank(50), 100, reps, seed=3, threads=2)
    assert first == second
    assert len(workers) == 4
    assert threading.main_thread() not in workers
    assert set(workers) == first_workers
    assert len(first_workers) <= 2
    active = threading.active_count()
    for seed in range(5):
        mc_ratio(instance_a, OrdinalRank(50), 100, reps, seed=seed, threads=2)
        assert threading.active_count() <= active


def test_concurrent_callers_share_the_pool_without_mixing_chunks(instance_a):
    """Callers on four threads map onto the same two-worker pool at once;
    each still gets exactly its serial result."""
    reps = 2 * _mc_chunk_size(instance_a.n, 100)
    want = [mc_ratio(instance_a, OrdinalRank(50), 100, reps, seed=s, threads=1) for s in range(4)]
    got = [None] * 4

    def call(s):
        got[s] = mc_ratio(instance_a, OrdinalRank(50), 100, reps, seed=s, threads=2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(s,)) for s in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want


def test_map_chunks_rejects_threads_above_cap_before_any_pool():
    active = threading.active_count()
    with pytest.raises(ValueError, match="threads"):
        _map_chunks(lambda rows, rng: rows, 10, 1, seed=1, tag=1, threads=MAX_THREADS + 1)
    assert threading.active_count() == active


def _draws(seed, tag, chunk):
    return _substream(seed, tag, chunk).random(1000).view(np.uint64)


def test_substream_is_a_fixed_stream_per_seed_tag_and_chunk():
    base = (20261019, _TAG_MC, 3)
    assert (_draws(*base) == _draws(*base)).all()
    seed, tag, chunk = base
    others = [(seed + 1, tag, chunk), (seed + (1 << 32), tag, chunk), (seed, tag + 1, chunk),
              (seed, tag, chunk + 1), (seed, chunk, tag)]
    for other in others:
        assert (_draws(*other) != _draws(*base)).any(), other
    # the seed is taken mod 2^64, all 64 bits of it, so -1 names the stream of 2^64 - 1
    assert (_draws(-1, tag, chunk) == _draws((1 << 64) - 1, tag, chunk)).all()


def test_mc_ratio_seed_sensitivity(instance_a):
    a = mc_ratio(instance_a, MaxSample(), 1, 20_000, seed=1)
    b = mc_ratio(instance_a, MaxSample(), 1, 20_000, seed=2)
    assert a.alg_value != b.alg_value


def test_mc_ratio_ordinal_rank_bounds(instance_a):
    with pytest.raises(ValueError):
        mc_ratio(instance_a, OrdinalRank(3), 1, 100, seed=0)


def test_mc_ratio_checks_the_rank_before_anything_runs(instance_a, monkeypatch):
    # as in semi_exact_ordinal, the rank fails before the prophet integral
    monkeypatch.setattr(Instance, "prophet_expectation", lambda self: pytest.fail("the prophet integral ran"))
    with pytest.raises(ValueError, match=r"rank 3 outside \[1, 2\]"):
        mc_ratio(instance_a, OrdinalRank(3), 1, 100, seed=0)


@pytest.mark.parametrize(
    "k, rank, match",
    [
        (2.5, 2, "k must be an integer"),
        (True, 1, "k must be an integer"),
        (np.float64(3.0), 2, "k must be an integer"),
        (3, 2.5, "rank must be an integer"),
        (3, True, "rank must be an integer"),
        (3, 0, r"rank 0 outside \[1, 6\]"),
        (3, 7, r"rank 7 outside \[1, 6\]"),
        (np.int64(3), np.int64(2), None),
    ],
)
def test_evaluators_check_k_and_rank_alike(k, rank, match):
    # one check for mc_ratio, semi_exact_ordinal and the exact count laws
    # behind exact_ordinal_value and dominance_check; numpy integers pass
    inst = Instance((ValueDist.uniform(0.0, 1.0), ValueDist.uniform(0.0, 2.0)))
    calls = {
        "semi": lambda k, rank: semi_exact_ordinal(inst, k, rank, 10, seed=1),
        "exact": lambda k, rank: exact_ordinal_value(inst, k, rank),
    }
    if not isinstance(rank, (bool, float)) and rank >= 1:
        calls["mc"] = lambda k, rank: mc_ratio(inst, OrdinalRank(rank), k, 10, seed=1)
        calls["dominance"] = lambda k, rank: dominance_check(inst, OrdinalRank(rank), k, 0.5)
    for name, call in calls.items():
        if match is None:
            assert call(k, rank) == call(int(k), int(rank)), name
        else:
            with pytest.raises(ValueError, match=match):
                call(k, rank)


# -- semi-exact --------------------------------------------------------------------


def test_level_structure_bits_match_list_oracle():
    for inst in set_up_oracle_instances():
        got, want = evaluation._level_structure(inst), scalar_level_structure(inst)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def test_stratum_table_cap_raises_before_allocating():
    # 1500 boxes over 1501 breakpoints: a 1500 x 3001 table, over stats.SIZE_CAP
    inst = Instance(tuple(ValueDist.uniform(float(i), i + 1.0) for i in range(1500)))
    for call in (
        lambda: evaluation._level_structure(inst),
        lambda: semi_exact_ordinal(inst, 1, 1, reps=10, seed=1),
        lambda: exact_ordinal_value(inst, 1, 1),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="1500 x 3001 stratum table"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_cut_stratum_table_cap_raises_before_allocating(monkeypatch, tmp_path, capsys):
    # 300 boxes U(i, i + 1): the 300 x 601 table fits a cap of 200,000
    # entries, but the dominance grid cuts every interval at its midpoint,
    # and the 300 x 1201 table it would cut (2.9 MB) does not
    from prophet_samples import cli

    inst = Instance(tuple(ValueDist.uniform(float(i), i + 1.0) for i in range(300)))
    grid = [x / 2.0 for x in range(1, 601)]
    monkeypatch.setattr(distributions, "SIZE_CAP", 200_000)
    evaluation._level_structure(inst)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="300 x 1201 stratum table"):
            _exact_tails(inst, 1, 1, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    with pytest.raises(ValueError, match="300 x 1201 stratum table"):
        dominance_check(inst, MaxSample(), 1, 0.5)
    manifest = {
        "command": "dominance",
        "instances": [{"boxes": [{"segments": [list(s) for s in box.segments]} for box in inst.boxes]}],
        "rule": {"rule": "max_sample"},
        "k": 1,
        "gamma": 0.5,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert cli.main(["dominance", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert "field 'instances[0]'" in err and "300 x 1201 stratum table" in err
    assert not (tmp_path / "out.csv").exists()


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


def _threshold_strata_law(probs: np.ndarray, k: int, rank: int) -> dict:
    """Exact law of (level, c, r), from every joint outcome of the boxes'
    Multinomial(k, probs[i]) stratum counts."""
    per_box = []
    for row in probs:
        support = np.flatnonzero(row)
        outcomes = []
        for counts in itertools.product(range(k + 1), repeat=len(support)):
            if sum(counts) == k:
                p = math.factorial(k)
                for m, q in zip(counts, row[support]):
                    p *= q**m / math.factorial(m)
                full = np.zeros(len(row), dtype=int)
                full[support] = counts
                outcomes.append((full, p))
        per_box.append(outcomes)
    law: dict = {}
    for joint in itertools.product(*per_box):
        counts = sum(full for full, _ in joint)
        cum = np.cumsum(counts)
        level = int(np.argmax(cum >= rank))
        key = (level, int(counts[level]), int(rank - cum[level] + counts[level]))
        law[key] = law.get(key, 0.0) + math.prod(p for _, p in joint)
    return law


@pytest.mark.parametrize("rank", [1, 7, 12])
def test_threshold_strata_draw_has_the_multinomial_law(rank):
    # strata, top down: atom 3, (2, 3), atom 2, (1, 2), (0, 1). Box 0 has no
    # mass in the two middle strata and none in the last column; box 1 stops
    # after the second column. Rank 1 lands near the top, rank 7 often on the
    # atom at 2, and rank 12 = n * k at the bottom.
    inst = Instance(
        (
            ValueDist(((0.5, 3.0, 3.0), (0.5, 1.0, 2.0))),
            ValueDist(((0.3, 3.0, 3.0), (0.7, 2.0, 3.0))),
            ValueDist(((0.4, 2.0, 2.0), (0.6, 0.0, 1.0))),
        )
    )
    k, rows = 4, 200_000
    _, _, probs, _ = evaluation._level_structure(inst)
    assert probs.shape == (3, 5)
    law = _threshold_strata_law(probs, k, rank)
    cond = evaluation._conditional_probs(probs)
    level, c, r = evaluation._threshold_strata(cond, k, rank, rows, np.random.default_rng(rank))
    keys, counts = np.unique(np.stack([level, c, r], axis=1), axis=0, return_counts=True)
    seen = {tuple(int(x) for x in key): int(n) for key, n in zip(keys, counts)}
    assert set(seen) <= set(law), sorted(set(seen) - set(law))
    for key, p in law.items():
        got = seen.get(key, 0)
        assert abs(got - rows * p) <= 5.0 * math.sqrt(rows * p * (1.0 - p)), (key, got, rows * p)


def test_threshold_strata_places_a_sure_box_once():
    # box 1's mass below (1, 1e17) is 1e-17 of its mass there, so its
    # conditional probability rounds to 1 in both strata it reaches; its one
    # sample must be counted in the top stratum only. The threshold is then
    # box 0's sample, and box 1 is taken whenever box 0 falls below it, so
    # counting box 1's sample twice would move the value by about 1e16.
    inst = Instance((ValueDist(((1.0, 0.0, 1.0),)), ValueDist(((1.0, 0.0, 1e17),))))
    _, _, probs, _ = evaluation._level_structure(inst)
    cond = evaluation._conditional_probs(probs)
    assert (cond[1] == 1.0).all()
    level, c, r = evaluation._threshold_strata(cond, 1, 2, 4096, np.random.default_rng(0))
    assert (level == 1).all() and (c == 1).all() and (r == 1).all()
    semi = semi_exact_ordinal(inst, 1, 2, 4096, seed=1)
    exact, err = exact_ordinal_value(inst, 1, 2)
    assert semi.ci_halfwidth <= 1e-12 * semi.alg_value
    assert semi.alg_value == pytest.approx(exact, rel=1e-12, abs=err)


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
        # recorded from the top-down conditional binomial count draw on the
        # PCG64DXSM substreams.
        # The rank lands on the heavy atom at 1.0 in nearly every replication
        (0, 220, 1000, 1, "0x1.4756770c33d2dp+0", "0x1.6add2c73c8769p-11"),
        (1, 380, 1000, 1, "0x1.4ede710bc7714p+0", "0x1.4605c67cdf079p-10"),
        # the rank straddles the atom at 2.0 and the interval below; three chunks
        (1, 120, 10_000, 2, "0x1.24850055ba8bbp+0", "0x1.01dab35069c9ap-10"),
    ],
    ids=["two-rank220", "three-rank380", "three-rank120-threads2"],
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
         "0x1.da5b2da1ad8ecp-6", "0x1.a313d0afa29f9p-8", "0x1.fca7b1e4c8f9dp-7"),
        ("heavy", OrdinalRank(36), 100, 8000,
         "0x1.b4af1f53cc011p-1", "0x1.a8dcd63afb470p-6", "0x1.d442505fa6b17p-2"),
        ("heavy", OrdinalRank(300), 100, 8000,
         "0x1.ff5370d221760p-1", "0x1.0366b9e3631f0p-7", "0x1.122624205e316p-1"),
        ("free", OrdinalRank(36), 100, 8000,
         "0x1.cbd0ec20a148ep-1", "0x1.d3b967b90f188p-6", "0x1.9dbcce4e6dbb0p-2"),
        # max sample at k = 1; 150000 replications are three chunks
        ("a", MaxSample(), 1, 150_000,
         "0x1.7e6e0bbdeaf95p-1", "0x1.12dd53afb119ep-8", "0x1.fde80fa7e3f71p-2"),
        ("ties", MaxSample(), 1, 150_000,
         "0x1.e50e1e1789d11p-1", "0x1.41c947bacae8dp-8", "0x1.0efb03f08beb8p-1"),
    ],
    ids=["heavy-rank1", "heavy-rank36", "heavy-rank300", "free-rank36", "a-max", "ties-max"],
)
def test_mc_pool_path_golden(which, rule, k, reps, alg_hex, ci_hex, ratio_hex, threads):
    # alg and ratio bits recorded on the PCG64DXSM substreams from the partition
    # selection and one Beta draw per row for the threshold's latent rank; ci
    # bits from the per-chunk (sum, M2) merge
    inst = _mc_golden_instances()[which]
    report = mc_ratio(inst, rule, k, reps, seed=23, threads=threads)
    assert report.alg_value.hex() == alg_hex
    assert report.ci_halfwidth.hex() == ci_hex
    assert report.ratio.hex() == ratio_hex


def test_ci_at_spike_scale_matches_the_uniform_spread():
    # the threshold is the second box's sure 0, so every replication accepts
    # the first value, from U(1e8, 1e8 + 1), whose variance is 1/12; summing
    # squares about 0 would cancel it away
    inst = Instance((ValueDist.uniform(1e8, 1e8 + 1.0), ValueDist.atom(0.0)))
    report = mc_ratio(inst, OrdinalRank(2), 1, 100_000, seed=1)
    want = 1.96 * math.sqrt(1.0 / 12.0 / 100_000)
    assert report.ci_halfwidth == pytest.approx(want, rel=0.01)


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


def _partitioned(samples, pos):
    part = samples.copy()
    part.partition(pos, axis=1)
    return part, part[:, pos].copy()


@pytest.mark.parametrize("samples, pos", list(_selection_cases()))
def test_select_pooled_matches_lexsort(samples, pos):
    # the partition's value is the lexsort pick's, and the tie law's counts
    # place that pick at index j - 1 of the row's tied entries in rank order
    ranks = np.random.default_rng(pos).random(samples.shape)
    want_value, want_rank = lexsort_select_oracle(samples, ranks, pos)
    part, thresh = _partitioned(samples, pos)
    j, b = _tie_law(part, thresh, pos)
    assert np.all(thresh == want_value)
    for row, value in enumerate(thresh):
        tied = np.sort(ranks[row][samples[row] == value])
        assert j[row] + b[row] - 1 == len(tied)
        assert tied[j[row] - 1] == want_rank[row]


@pytest.mark.parametrize("pos", [4, 7, 10])
def test_tie_law_draws_match_lexsort_ranks(pos):
    # the tie run's 7 tied entries hold slots 4..10; over 400 independent rank
    # draws per row, the Beta-drawn ranks and the lexsort-picked ranks share a law
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(4040 + pos)
    samples = np.tile(_tie_run_rows(rng, 50, 4, 7, 5), (400, 1))
    _, want_rank = lexsort_select_oracle(samples, rng.random(samples.shape), pos)
    part, thresh = _partitioned(samples, pos)
    j, b = _tie_law(part, thresh, pos)
    assert np.all(j == pos - 3) and np.all(j + b == 8)
    assert ks_2samp(rng.beta(j, b), want_rank).pvalue > 1e-3
    if pos != 7:  # the mirrored law is told apart, so the check has power
        assert ks_2samp(rng.beta(b, j), want_rank).pvalue < 1e-6


@pytest.mark.parametrize(
    "which, rule, k, reps",
    [
        ("heavy", OrdinalRank(1), 100, 40_000),
        ("heavy", OrdinalRank(36), 100, 40_000),
        ("heavy", OrdinalRank(300), 100, 40_000),
        ("ties", MaxSample(), 1, 400_000),
    ],
)
def test_mc_pool_atom_stream_within_5_sigma_of_exact(which, rule, k, reps):
    inst = _mc_golden_instances()[which]
    if which == "ties":
        want = exact_single_sample_value(inst)
    else:
        want, err = exact_ordinal_value(inst, k, rule.rank)
        assert err <= 1e-12 * want
    report = mc_ratio(inst, rule, k, reps, seed=41, threads=2)
    assert abs(report.alg_value - want) < 5.0 / 1.96 * report.ci_halfwidth


def test_mc_pool_cap_rejects_before_drawing(instance_a):
    n = instance_a.n
    assert _mc_chunk_size(n, MC_POOL_CAP // n) == 1
    k = MC_POOL_CAP // n + 1
    with pytest.raises(ValueError, match="cap"):
        _mc_chunk_size(n, k)
    with pytest.raises(ValueError, match="cap"):
        mc_ratio(instance_a, MaxSample(), k, 1, seed=1)


def test_all_zero_instance_has_no_ratio():
    inst = Instance((ValueDist.atom(0.0), ValueDist.atom(0.0)))
    with pytest.raises(ValueError, match="prophet value"):
        semi_exact_ordinal(inst, 2, 1, 100, seed=1)
    with pytest.raises(ValueError, match="prophet value"):
        mc_ratio(inst, MaxSample(), 1, 100, seed=1)


# -- exact ordinal evaluation ------------------------------------------------------------


@pytest.mark.parametrize("k, gate", [(10, 3e-15), (100, 1.5e-13), (1000, 2e-12)])
def test_box_count_law_masses_match_exact_rationals(k, gate):
    """The log-gamma trinomial bins against k!/(a! c! r!) pa^a pc^c pr^r in
    exact rationals, at the binary pa, pc, pr the law is built from.

    On a 7 x 7 grid over the window (28, 39 and 49 bins) the largest relative
    error measured 1.9e-15, 8.4e-14 and 1.2e-12 at k = 10, 100 and 1000; the
    gates sit just above. The error grows with k through gammaln(k + 1) and
    the a log(pa) terms, whose rounding is relative to their size.
    """
    above, inside, below = 0.3, 0.25, 0.45
    total = above + inside + below
    pa, pc, pr = (Fraction(x / total) for x in (above, inside, below))
    pmf, a0, c0, _ = evaluation._box_count_law(k, above, inside, below)
    worst = 0.0
    for i in np.linspace(0, pmf.shape[0] - 1, 7).round().astype(int):
        for j in np.linspace(0, pmf.shape[1] - 1, 7).round().astype(int):
            a, c = a0 + int(i), c0 + int(j)
            r = k - a - c
            if r < 0:
                assert pmf[i, j] == 0.0
                continue
            coef = math.factorial(k) // (math.factorial(a) * math.factorial(c) * math.factorial(r))
            want = coef * pa**a * pc**c * pr**r
            worst = max(worst, float(abs(Fraction(float(pmf[i, j])) - want) / want))
    assert worst <= gate


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


def scaled_instance(inst: Instance, s: float) -> Instance:
    return Instance(tuple(ValueDist(tuple((w, lo * s, hi * s) for w, lo, hi in box.segments)) for box in inst.boxes))


@pytest.mark.parametrize("s", [1e-100, 1e-160, 1e-200, 1e-300])
def test_exact_values_are_scale_invariant_on_tiny_supports(s):
    # on a support near 1e-160 or below, the stratum walk's product of two tiny
    # factors (hi - t)(hi + t) underflows to 0 unless the weight is taken in first
    for inst, k, rank in (
        (Instance((ValueDist(((1.0, 0.0, 1.0),)), ValueDist(((1.0, 0.0, 2.0),)))), 1, 2),
        (Instance((ValueDist(((0.5, 0.0, 1.0), (0.5, 2.0, 2.0))), ValueDist.discrete({1.0: 0.3, 3.0: 0.7}))), 5, 4),
    ):
        tiny = scaled_instance(inst, s)
        want = exact_ordinal_value(inst, k, rank)[0]
        assert exact_ordinal_value(tiny, k, rank)[0] / s == pytest.approx(want, rel=1e-13, abs=0.0)
        semi, tiny_semi = (semi_exact_ordinal(x, k, rank, 50, 7).alg_value for x in (inst, tiny))
        assert tiny_semi / s == pytest.approx(semi, rel=1e-13, abs=0.0)


def test_exact_ordinal_value_matches_enumeration_on_atoms():
    rng = np.random.default_rng(20261018)
    checked = 0
    while checked < 20:
        inst = random_discrete_instance(rng, max_boxes=3, max_support=3)
        k = int(rng.integers(1, 4))
        rank = int(rng.integers(1, inst.n * k + 1))
        # the selected-value law shares the count folds, so the reference is
        # the per-pool enumeration
        selected = per_pool_selected_distribution(inst, OrdinalRank(rank), k)
        want = math.fsum(v * p for v, p in selected.items())
        got, err = exact_ordinal_value(inst, k, rank)
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)
        assert err == 0.0 or err <= 1e-12 * got
        checked += 1


def exact_stratum_value(inst: Instance, lo: float, hi: float, c: int, r: int) -> Fraction:
    """The walk value with the threshold the r-th highest of c samples in the
    stratum [lo, hi], in exact rationals over the instance's floats.

    The threshold t = lo + (hi - lo) s has s ~ Beta(c + 1 - r, r), its
    position on an interval and its latent rank on an atom. Each box's stay
    and pay are summed segment by segment, as polynomials in s: a segment
    across t adds w (t - a)/(b - a) to the stay and w (b^2 - t^2)/(2 (b - a))
    to the pay, and a value tied with t pays t (1 - s).
    """

    def times(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    def plus(p, q):
        return [x + y for x, y in itertools.zip_longest(p, q, fillvalue=Fraction(0))]

    lo, hi = Fraction(lo), Fraction(hi)
    t = [lo, hi - lo]
    value, reach = [Fraction(0)], [Fraction(1)]
    for box in inst.boxes:
        stay, pay = [Fraction(0)], [Fraction(0)]
        for w, a, b in box.segments:
            w, a, b = Fraction(w), Fraction(a), Fraction(b)
            if a == b == lo == hi:
                stay, pay = plus(stay, [0, w]), plus(pay, [a * w, -a * w])
            elif b <= lo and (a < lo or lo < hi):
                stay = plus(stay, [w])
            elif a >= hi:
                pay = plus(pay, [w * (a + b) / 2])
            else:  # a <= lo <= hi <= b with a < b
                stay = plus(stay, [x * w / (b - a) for x in plus([-a], t)])
                pay = plus(pay, [x * w / (2 * (b - a)) for x in plus([b * b], [-y for y in times(t, t)])])
        value, reach = plus(value, times(reach, pay)), times(reach, stay)
    alpha, beta, moment, total = c + 1 - r, r, Fraction(1), Fraction(0)
    for m, coef in enumerate(value):
        total += coef * moment
        moment *= Fraction(alpha + m, alpha + beta + m)
    return total


def _scaled_atom_mixture(rng) -> Instance:
    """2 to 4 boxes of 1 to 3 segments on a shared pool of ends, so that
    atoms tie across boxes and sit at interval ends; a fifth of the
    segments scaled by 1e6."""
    pool = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
    boxes = []
    for _ in range(int(rng.integers(2, 5))):
        weights = rng.random(int(rng.integers(1, 4))) + 0.1
        parts = []
        for w in weights / weights.sum():
            lo = float(rng.choice(pool))
            hi = lo if rng.random() < 0.4 else lo + float(rng.choice((0.5, 1.0, 2.5)))
            scale = 1e6 if rng.random() < 0.2 else 1.0
            parts.append((float(w), lo * scale, hi * scale))
        boxes.append(ValueDist(tuple(parts)))
    return Instance(tuple(boxes))


def test_stratum_values_match_exact_rationals():
    # every stratum, atom or interval, read from the table, at counts up to
    # 3000 and ranks at both ends and the middle; within 1e-15 relative
    # (measured at most 5.0e-16 on these 6,699 cases)
    rng = np.random.default_rng(20261021)
    insts = [_scaled_atom_mixture(rng) for _ in range(40)] + [case1_instance(50), case1_instance(1000)]
    worst, atoms = 0.0, 0
    for inst in insts:
        los, his, probs, firsts = evaluation._level_structure(inst)
        for j, (lo, hi) in enumerate(zip(los, his)):
            atoms += lo == hi
            pairs = {(c, r) for c in (1, 2, 7, 40, 3000) for r in (1, 2, c // 2, c // 2 + 1, c - 1, c) if 1 <= r <= c}
            c, r = np.array(sorted(pairs)).T
            got = evaluation._stratum_values(probs, firsts, j, lo, hi, c, r)
            for ci, ri, g in zip(c.tolist(), r.tolist(), got.tolist()):
                want = exact_stratum_value(inst, lo, hi, ci, ri)
                err = abs(Fraction(g) - want)
                assert err <= Fraction(1, 10**15) * abs(want), (inst, j, ci, ri, g, float(want))
                worst = max(worst, float(err / want) if want else 0.0)
    assert atoms > 40 and worst > 0.0


def test_threshold_value_matches_exact_rationals():
    # the fixed-threshold walk, read from the stratum table cut at t, on
    # mixtures whose atoms tie across boxes, at every breakpoint and midpoint
    # and under four rank laws: within 1e-15 relative of exact rationals
    # (measured at most 4.3e-16 on these 3,720 cases; the per-segment walk it
    # replaced, which formed Pr[v < t] as cdf - mass, was 1.7e-15 off)
    rng = np.random.default_rng(20261022)
    insts = [shared_atom_mixture(rng) for _ in range(60)] + [random_discrete_instance(rng) for _ in range(60)]
    ties = 0
    for inst in insts:
        points = inst.breakpoints()
        for t in sorted({*points, *(0.5 * (a + b) for a, b in zip(points, points[1:]))}):
            ties += sum(box.mass_at(t) > 0.0 for box in inst.boxes) > 1
            for alpha, beta in ((1, 1), (3, 2), (7, 5), (40, 3)):
                want = exact_stratum_value(inst, t, t, alpha + beta - 1, beta)
                got = threshold_value_with_rank_law(inst, t, alpha, beta)
                assert abs(Fraction(got) - want) <= Fraction(1, 10**15) * want, (inst, t, alpha, beta, got, float(want))
    assert ties > 100


def test_exact_ordinal_value_within_the_semi_exact_ci():
    rng = np.random.default_rng(20261019)
    drawn = []
    for _ in range(16):
        inst = random_mixture_instance(rng)
        k = int(rng.integers(5, 60))
        drawn.append((inst, k, int(rng.integers(1, inst.n * k + 1))))
    # in draws 0, 7, 9 and 13 the walk has the same value whatever the counts
    # (an atom above every stratum the threshold reaches, or a threshold always
    # on one atom), so their band has zero width; so has case1 at ranks 75 and
    # 100, where the threshold always lies under the first box's U(1, 2)
    cases = [(*drawn[i], i) for i in (1, 2, 3, 4, 5, 6, 8)]
    # case1 at rank k + 1 puts the threshold in the lower box's U(0, 1) part
    # unless a spike sample lifts it into U(1, 2)
    cases.append((case1_instance(50), 50, 51, 10))
    cases += [(*drawn[i], seed) for i, seed in zip((10, 11, 12, 14, 15), range(13, 18))]
    # 5 sigma at 32,768 reps, so a pass does not depend on a lucky random
    # stream; the band is 0.89 times as wide as a 95% band at 4000 reps
    for inst, k, rank, seed in cases:
        got, err = exact_ordinal_value(inst, k, rank)
        report = semi_exact_ordinal(inst, k, rank, 32_768, seed=seed)
        assert report.ci_halfwidth > 1e-5 * got, (seed, report)
        assert abs(got - report.alg_value) <= 5.0 / 1.96 * report.ci_halfwidth, (seed, got, report)
        assert err <= 1e-12 * got


@pytest.mark.parametrize("k", [100, 10_000])
def test_semi_exact_equals_exact_on_case2(k):
    # case2 has one stratum, so every replication draws the same counts and the
    # estimate carries no randomness: only rounding in the chunk means remains
    inst = case2_instance(k, default_case2_boxes(k))
    rank = recommended_rank(k)
    want, _ = exact_ordinal_value(inst, k, rank)
    report = semi_exact_ordinal(inst, k, rank, 5000, seed=3)
    assert report.alg_value == pytest.approx(want, rel=1e-12, abs=0.0)
    assert report.ci_halfwidth <= 1e-12 * report.alg_value


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


@pytest.mark.parametrize("k", [1, 1000, SIZE_CAP])
def test_box_count_law_of_a_single_category_is_an_offset(k):
    # mass only above, only inside and only below the stratum
    for above, inside, below, a0, c0 in ((1.0, 0.0, 0.0, k, 0), (0.0, 1.0, 0.0, 0, k), (0.0, 0.0, 1.0, 0, 0)):
        pmf, b0, d0, dropped = evaluation._box_count_law(k, above, inside, below)
        assert (pmf.tolist(), b0, d0, dropped) == ([[1.0]], a0, c0, 0.0)


def test_box_count_law_of_a_box_that_rounds_into_one_category():
    # the second box of test_threshold_strata_places_a_sure_box_once: 1e-17 of
    # its mass lies below 1, so inside / total rounds to 1.0 in the top stratum
    # (1, 1e17) and above / total in the bottom one (0, 1)
    inst = Instance((ValueDist(((1.0, 0.0, 1.0),)), ValueDist(((1.0, 0.0, 1e17),))))
    _, _, probs, _ = evaluation._level_structure(inst)
    row = probs[1]
    for j, (a0, c0) in enumerate([(0, 7), (7, 0)]):
        above, inside, below = row[:j].sum(), row[j], row[j + 1 :].sum()
        assert inside > 0.0 and (above > 0.0 or below > 0.0)
        pmf, b0, d0, dropped = evaluation._box_count_law(7, above, inside, below)
        assert (pmf.tolist(), b0, d0, dropped) == ([[1.0]], a0, c0, 0.0)


def test_fold_rounding_against_direct_convolution():
    # the FFT fold of trinomial box laws against scipy's direct 2-D
    # convolution, within the figures of _exact_tails' docstring: 3e-16 of the
    # unit mass per entry, 8.0e-15 summed over the entries of a corner
    from scipy.signal import convolve2d

    rng = np.random.default_rng(20261021)
    worst_entry = worst_sum = 0.0
    for _ in range(24):
        k = int(rng.choice([3, 10, 30]))
        fft = direct = np.ones((1, 1))
        for _ in range(int(rng.integers(2, 5))):
            pmf = evaluation._box_count_law(k, *rng.dirichlet([1.0, 1.0, 1.0]))[0]
            fft, direct = evaluation._fold(fft, pmf), convolve2d(direct, pmf)
        diff = fft - direct
        worst_entry = max(worst_entry, np.abs(diff).max())
        worst_sum = max(worst_sum, np.abs(np.cumsum(np.cumsum(diff, axis=0), axis=1)).max())
    assert 0.0 < worst_entry <= 3e-16
    assert worst_sum <= 8.0e-15
    # a column law (A alone) and a row law (C alone) fold to their outer
    # product, each entry one rounded product, as direct convolution gives it
    column = evaluation._box_count_law(50, 0.3, 0.0, 0.7)[0]
    row = evaluation._box_count_law(50, 0.0, 0.2, 0.8)[0]
    assert (column.shape, row.shape) == ((46, 1), (1, 40))
    for x, y in ((column, row), (row, column)):
        assert np.array_equal(evaluation._fold(x, y), convolve2d(x, y))


def test_windowed_laws_build_no_dense_row(monkeypatch):
    from prophet_samples import stats
    from prophet_samples.hardness import HardParams, build_dd_mixture

    def no_dense_row(*args):
        raise AssertionError("a dense pmf row was built")

    monkeypatch.setattr(stats, "binom_pmf_rows", no_dense_row)
    inst = Instance((ValueDist(((0.5, 0.0, 1.0), (0.5, 2.0, 2.0))), ValueDist.discrete({1.0: 0.3, 3.0: 0.7})))
    assert exact_ordinal_value(inst, 50, 20)[0] > 0.0
    assert dominance_check(inst, MaxSample(), 3, 0.5).worst_ratio > 0.0
    assert len(ordinal_upper_bound_sweep(200, [1, 80])) == 2
    build_dd_mixture(HardParams(k=300, eps=0.1))


def test_box_count_law_near_the_cap_keeps_only_its_window():
    # 7 masses of Bin(2^22, 1e-9); a dense row under them peaked at 67 MB
    tracemalloc.start()
    try:
        pmf, a0, c0, _ = evaluation._box_count_law(SIZE_CAP, 1e-9, 0.0, 1 - 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pmf.shape == (7, 1) and (a0, c0) == (0, 0)
    assert peak < 1e6


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


def test_exact_single_sample_large_pool_and_count_cap():
    # the max sample is always 6; the last box ties it and wins half the time
    boxes = tuple(ValueDist.discrete({float(i): 1.0}) for i in range(7))
    assert exact_single_sample_value(Instance(boxes)) == 3.0
    wide = ValueDist.discrete({0.0: 0.25, 1.0: 0.25, 2.0: 0.25, 3.0: 0.25})
    inst = Instance((wide,) * 10)  # 4^10 sample pools
    want, err = exact_ordinal_value(inst, 1, 1)
    assert err == 0.0
    assert exact_single_sample_value(inst) == pytest.approx(want, rel=1e-15, abs=0.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n = {SIZE_CAP + 1} exceeds the cap"):
            _exact_tails(inst, 1, SIZE_CAP + 1, [1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def law_tails(law, grid):
    """The tails sum_{v >= x} law[v] of a selected-value law at each x of grid."""
    return np.array([math.fsum(p for v, p in law.items() if v >= x) for x in grid])


def survival_integral(inst, tails_at):
    """E[ALG] on an all-atoms instance: the tails at the positive atoms times their gaps."""
    xs = [x for x in inst.breakpoints() if x > 0.0]
    return math.fsum(np.diff([0.0, *xs]) * tails_at(xs))


def test_exact_single_sample_is_the_rank_one_ordinal_value():
    # two walks over the same count folds: the survival integral of the
    # max-sample tails, and the tie-law value of the rank-1 threshold
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        inst = random_discrete_instance(rng)
        want = exact_single_sample_value(inst)
        assert want == exact_ordinal_value(inst, 1, 1)[0]
        got = survival_integral(inst, lambda xs: _exact_tails(inst, 1, 1, xs)[0])
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), inst


def per_pool_selected_distribution(inst, rule, k):
    """The selected-value law with one walk per sample pool, no grouping by law."""
    import itertools

    rank = effective_rank(rule)
    supports = [sorted(atoms(box).items()) for box in inst.boxes]
    dist = {}

    def accumulate(t, alpha, beta, weight):
        moments = beta_moments(alpha, beta, inst.n + 1)
        reach = np.ones(1)  # Pr[the walk reaches the box], a polynomial in the threshold's rank
        for box in inst.boxes:
            for v, p in atoms(box).items():
                if v > t:
                    sel = reach * p
                elif v == t:
                    sel = np.convolve(reach, [p, -p])
                else:
                    continue
                dist[v] = dist.get(v, 0.0) + weight * float(np.dot(sel, moments[: len(sel)]))
            mass = box.mass_at(t)
            reach = np.convolve(reach, [cdf(box, t) - mass, mass])

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
    checked = 0
    for _ in range(20):
        inst = random_discrete_instance(rng, max_boxes=3, max_support=3)
        pools = math.prod(len(atoms(box)) for box in inst.boxes)
        for k in (1, 2, 3):
            if pools**k > 750:  # the oracle walks every pool once per rank
                continue
            for rule in (MaxSample(), *(OrdinalRank(r) for r in range(2, inst.n * k + 1))):
                # a law's masses are the differences of its consecutive tails,
                # so the tails at every atom pin the whole law
                points = inst.breakpoints()
                got = _exact_tails(inst, effective_rank(rule), k, points)[0]
                want = law_tails(per_pool_selected_distribution(inst, rule, k), points)
                # at k = 3 two count laws that spread along both axes fold
                # through the FFT, whose rounding is absolute: measured 6.3e-19
                # on a mass of 3.4e-8, 1.9e-11 relative
                slack = 1e-17 if k == 3 else 0.0
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + slack), (k, rule, got - want)
                checked += k == 3
    assert checked >= 20


def quad_selected_distribution_oracle(inst, k):
    """Independent route to the max-sample selected-value law.

    Enumerates sample pools directly and integrates each walk against the
    threshold's Beta rank density with adaptive quadrature, sharing no code
    with the moment-based evaluator.
    """
    import itertools
    import math as m

    from scipy.integrate import quad

    supports = [sorted(atoms(b).items()) for b in inst.boxes]
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
                    alive *= cdf(box, t) - box.mass_at(t) + box.mass_at(t) * u
                sel = 1.0 if w > t else (1.0 - u)
                return dens * alive * sel

            val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, limit=100)
            return val

        for i, box in enumerate(inst.boxes):
            for w, p in atoms(box).items():
                if w < t:
                    continue
                dist[w] = dist.get(w, 0.0) + prob * p * weight(i, w)
    return dist


def test_selected_distribution_matches_quadrature_oracle(rng):
    for _ in range(6):
        inst = random_discrete_instance(rng, max_boxes=3, max_support=3)
        points = inst.breakpoints()
        got = _exact_tails(inst, 1, 1, points)[0]
        want = law_tails(quad_selected_distribution_oracle(inst, 1), points)
        assert got == pytest.approx(want, abs=1e-10)


def test_exact_threshold_value_continuous_off_atoms(instance_a):
    for t in (0.3, 1.2, 1.9):
        base = threshold_value_with_rank_law(instance_a, t)
        for h in (1e-7, -1e-7):
            assert threshold_value_with_rank_law(instance_a, t + h) == pytest.approx(
                base, abs=1e-5
            )


def test_survival_identity_for_expectation(instance_a):
    # E[ALG] equals the integral of the tail: sum over levels of gap * Pr[ALG >= x]
    total = survival_integral(instance_a, lambda xs: _exact_tails(instance_a, 1, 1, xs)[0])
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


def _eight_atom_instance():
    """Three boxes of eight atoms each, on values shared across boxes."""
    rng = np.random.default_rng(20261019)
    pool = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0])
    boxes = []
    for _ in range(3):
        w = rng.random(8) + 0.05
        boxes.append(ValueDist(tuple((p, v, v) for p, v in zip(w / w.sum(), rng.choice(pool, 8, replace=False)))))
    return Instance(tuple(boxes))


@pytest.mark.parametrize("k", [2, 10, 100, 1000])
def test_max_sample_accepts_with_chance_one_over_k_plus_one(instance_a, k):
    # each box's value and its k samples are iid, so the largest of all the
    # draws (ties broken by latent rank) is a value with chance 1/(k + 1), and
    # the rule accepts exactly then. Measured error at k = 1000: 2.0e-13
    # relative on instance A, 1.1e-14 on the eight-atom instance; it grows
    # with k from the log-gamma binomial pmf (2.9e-12 on A at k = 1e4), so
    # 1e-12 leaves room at k <= 1000
    rng = np.random.default_rng(k)
    insts = [instance_a, _eight_atom_instance()]
    insts += [random_discrete_instance(rng, max_boxes=3) for _ in range(3 if k < 1000 else 1)]
    for inst in insts:
        # at x = 0 the tail is the chance that anything is accepted
        accepted = _exact_tails(inst, 1, k, [0.0])[0][0]
        assert accepted == pytest.approx(1.0 / (k + 1), rel=1e-12, abs=0.0), inst


@pytest.mark.parametrize("k", [2, 3, 10, 100, 1000])
def test_dominance_instance_a_max_sample_worst_ratio(instance_a, k):
    # the max is at least 1 for sure, so Pr[ALG >= 1] = 1/(k + 1) against
    # Pr[max >= 1] = 1; at x = 2 the ratio is larger from k = 2 on. At k = 1
    # both ratios are 1/2 (test_dominance_instance_a_exact). Tolerance as in
    # the test above
    report = dominance_check(instance_a, MaxSample(), k, 0.5, mode="exact")
    assert report.worst_x == 1.0
    assert report.worst_ratio == pytest.approx(1.0 / (k + 1), rel=1e-12, abs=0.0)
    assert not report.passed


def test_dominance_single_deterministic_box():
    report = dominance_check(
        Instance((ValueDist.atom(2.0),)), MaxSample(), 1, 0.5, mode="exact"
    )
    # tie with the only sample is won exactly half the time
    assert report.worst_ratio == pytest.approx(0.5, abs=1e-12)


def test_dominance_grid_stops_where_the_prophet_tail_does(monkeypatch):
    # box 1's weights sum to 1 - 1.1e-16 in floats; the prophet tail at x = 3,
    # the top of its last interval, sums the table's columns at or above 3 and
    # is exactly 0, so the point drops out of the report by its zero tail
    inst = Instance((ValueDist(((0.7, 0.0, 1.0), (0.2, 1.0, 2.0), (0.1, 2.0, 3.0))), ValueDist.uniform(0.0, 1.0)))
    assert _exact_tails(inst, 1, 1, [3.0])[1].tolist() == [0.0]
    grids = []
    tails = evaluation._exact_tails
    monkeypatch.setattr(evaluation, "_exact_tails", lambda *args: grids.append(args[3]) or tails(*args))
    report = dominance_check(inst, MaxSample(), 1, 0.5)
    assert grids == [[0.5, 1.0, 1.5, 2.0, 2.5, 3.0]]
    # the bits of the report when the grid itself stopped below 3: the exact
    # rational ratio over the stored floats, correctly rounded
    assert (report.worst_x, report.worst_ratio) == (0.5, 0.5751262626262627)
    # a top atom keeps its point
    dominance_check(Instance((ValueDist(((0.5, 0.0, 1.0), (0.5, 3.0, 3.0))),)), MaxSample(), 1, 0.5)
    assert grids[1] == [0.5, 1.0, 3.0]


def test_dominance_validation(instance_a):
    for mode in ("nope", "mc"):
        with pytest.raises(ValueError, match="only mode"):
            dominance_check(instance_a, MaxSample(), 1, 0.5, mode=mode)
    with pytest.raises(ValueError, match="rank"):
        dominance_check(instance_a, OrdinalRank(3), 1, 0.5)


def quad_max_sample_tails(inst, xs):
    """Independent route to Pr[ALG >= x] for the max-sample rule at k = 1.

    The threshold T is the largest of one sample per box. Between adjacent
    breakpoints every box CDF F_i is linear and T has density d/dt prod_i
    F_i(t); quad integrates the walk's tail against it, split at x. On an
    atom t the top samples tie, and the threshold's latent rank U has
    Pr[T = t, U <= u] = prod_i (F_i(t-) + m_i u) - prod_i F_i(t-); quad
    integrates the walk against its density in u. No count law is used.
    """
    from scipy.integrate import quad

    breaks = inst.breakpoints()
    intervals = []
    for a, b in zip(breaks, breaks[1:]):
        base = [cdf(box, a) for box in inst.boxes]
        slopes = [(cdf(box, b) - box.mass_at(b) - f) / (b - a) for box, f in zip(inst.boxes, base)]
        if any(slopes):
            intervals.append((a, b, base, slopes))
    ties = [(t, [cdf(box, t) - box.mass_at(t) for box in inst.boxes], [box.mass_at(t) for box in inst.boxes])
             for t in breaks]

    def density(slopes, stays):
        return sum(s * math.prod(stays[:i] + stays[i + 1 :]) for i, s in enumerate(slopes))

    out = []
    for x in xs:
        beats = [1.0 - (cdf(box, x) - box.mass_at(x)) for box in inst.boxes]

        def tail(t, stays):
            # a reached box pays Pr[v >= x] while t < x, and accepts once t >= x
            total, reach = 0.0, 1.0
            for beat, stay in zip(beats, stays):
                total += reach * (beat if t < x else 1.0 - stay)
                reach *= stay
            return total

        total = 0.0
        for a, b, base, slopes in intervals:
            def on_interval(t, a=a, base=base, slopes=slopes):
                stays = [f + s * (t - a) for f, s in zip(base, slopes)]
                return density(slopes, stays) * tail(t, stays)

            total += quad(on_interval, a, b, points=[x] if a < x < b else None, epsabs=1e-14, epsrel=1e-13)[0]
        for t, left, masses in ties:
            if any(masses):
                def on_atom(u, t=t, left=left, masses=masses):
                    stays = [f + m * u for f, m in zip(left, masses)]
                    return density(masses, stays) * tail(t, stays)

                total += quad(on_atom, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)[0]
        out.append(total)
    return np.array(out)


def _tail_grid(inst, rng, extra):
    """Positive breakpoints, interval midpoints and `extra` random points over the support."""
    breaks = inst.breakpoints()
    mids = [0.5 * (a + b) for a, b in zip(breaks, breaks[1:])]
    return sorted({*(x for x in breaks if x > 0.0), *mids, *rng.uniform(0.0, breaks[-1], extra).tolist()})


def test_mixture_tails_match_quadrature_oracle():
    rng = np.random.default_rng(20261020)
    for _ in range(20):
        inst = random_mixture_instance(rng)
        xs = _tail_grid(inst, rng, 3)
        got, table_prophet = _exact_tails(inst, 1, 1, xs)
        want = quad_max_sample_tails(inst, xs)
        prophet = prophet_tail(inst, xs)
        assert np.max(np.abs(got - want)) <= 1e-10, inst
        assert np.max(np.abs(table_prophet - prophet)) <= 1e-15, inst
        # the dominance check's grid holds every positive breakpoint below the
        # top of the support, and its worst point is one of xs
        report = dominance_check(inst, MaxSample(), 1, 0.5)
        worst = xs.index(report.worst_x)
        assert report.worst_ratio == pytest.approx(want[worst] / prophet[worst], abs=1e-10)
        on_breaks = np.isin(xs, inst.breakpoints()) & (prophet > 1e-12)
        assert report.worst_ratio <= np.min(want[on_breaks] / prophet[on_breaks]) + 1e-10
        assert report.worst_ratio >= 0.5 - 1e-9


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_integral(p):
    """The integral over [0, 1] of a polynomial, lowest coefficient first."""
    return sum((c / (i + 1) for i, c in enumerate(p)), Fraction(0))


def exact_max_sample_tails(inst, xs):
    """(Pr[ALG >= x], Pr[max >= x]) of the max-sample rule at k = 1 on an
    atomless instance, in exact rationals over its stored floats.

    Each box's weights are divided by their sum. Between adjacent points of
    the breakpoints and xs, the threshold T, the largest of one sample per
    box, lies at a + s (b - a) with Pr[T <= a + s (b - a)] = prod_i (B_i +
    C_i s), B_i and C_i box i's masses below a and in (a, b); the walk's
    tail at x is integrated exactly against the density in s. No count law
    and no Beta moment is used.
    """
    boxes = []
    for box in inst.boxes:
        total = sum((Fraction(w) for w, _, _ in box.segments), Fraction(0))
        boxes.append([(Fraction(w) / total, Fraction(lo), Fraction(hi)) for w, lo, hi in box.segments])

    def mass(segs, a, b):
        return sum((w * (min(hi, b) - max(lo, a)) / (hi - lo) for w, lo, hi in segs if min(hi, b) > max(lo, a)),
                   Fraction(0))

    xs = [Fraction(x) for x in xs]
    pts = sorted({*map(Fraction, inst.breakpoints()), *xs})
    bottom, top = pts[0] - 1, pts[-1] + 1
    beats = [[mass(segs, x, top) for segs in boxes] for x in xs]
    strata = []
    for a, b in zip(pts, pts[1:]):
        inside = [mass(segs, a, b) for segs in boxes]
        if not any(inside):
            continue
        cdf, reaches = [Fraction(1)], []
        for segs, c in zip(boxes, inside):
            reaches.append(cdf)
            cdf = _poly_mul(cdf, [mass(segs, bottom, a), c])
        density = [i * c for i, c in enumerate(cdf)][1:]
        # while T < x a reached box pays Pr[v >= x]; once T >= x it pays Pr[v > T]
        under = [_poly_integral(_poly_mul(density, r)) for r in reaches]
        over = sum(
            (_poly_integral(_poly_mul(density, _poly_mul(r, [mass(segs, a, top), -c])))
             for segs, r, c in zip(boxes, reaches, inside)),
            Fraction(0),
        )
        strata.append((a, b, under, over))
    alg = []
    for x, beat in zip(xs, beats):
        # no stratum straddles x, since xs are among the points
        tail = Fraction(0)
        for a, b, under, over in strata:
            tail += sum((u * e for u, e in zip(under, beat)), Fraction(0)) if b <= x else over
        alg.append(tail)
    prophet = [1 - math.prod((1 - e for e in beat), start=Fraction(1)) for beat in beats]
    return alg, prophet


def test_max_sample_tails_match_exact_rationals(monkeypatch):
    # k = 1 on atomless mixtures, at the dominance check's own grid, so every
    # interval stratum is cut at its midpoint. Here, 256 tails: the worst is
    # 2.2e-16 absolute off and the worst ratio 4.4e-16 relative. The gates
    # hold over 300 such instances (5.1e-16 and 8.9e-16): each cut adds a
    # stratum whose count law folds through the FFT, whose rounding is
    # absolute (ROADMAP item 3)
    calls = []
    tails = evaluation._exact_tails

    def recorded(*args):
        calls.append((args[3], tails(*args)))
        return calls[-1][1]

    monkeypatch.setattr(evaluation, "_exact_tails", recorded)
    rng = np.random.default_rng(20261022)
    checked = 0
    while checked < 12:
        inst = random_mixture_instance(rng)
        if inst.has_atoms:
            continue
        report = dominance_check(inst, MaxSample(), 1, 0.5)
        grid, (alg, prophet) = calls[-1]
        want_alg, want_prophet = exact_max_sample_tails(inst, grid)
        for got, want in zip([*alg.tolist(), *prophet.tolist()], want_alg + want_prophet):
            assert abs(Fraction(got) - want) <= Fraction(6e-16), (inst, got, float(want))
        worst = min(a / m for a, m in zip(want_alg, want_prophet) if m > 0)
        assert abs(Fraction(report.worst_ratio) - worst) <= Fraction(1.1e-15) * worst, (inst, report, float(worst))
        checked += 1


def test_simulated_tails_within_5_sigma_of_exact():
    # the simulator's accepted values against the exact tails at random
    # ranks; a sigma floor of one count keeps tiny tails testable
    rng = np.random.default_rng(20261021)
    rows = 100_000
    for case in range(16):
        inst = random_mixture_instance(rng)
        k = int(rng.integers(1, 6))
        rule = OrdinalRank(int(rng.integers(1, inst.n * k + 1)))
        xs = _tail_grid(inst, rng, 2)
        want = _exact_tails(inst, rule.rank, k, xs)[0]
        accepted = _simulate_chunk(inst, rule, k, rows, np.random.default_rng(case))
        got = (accepted[:, None] >= np.array(xs)).mean(axis=0)
        sigma = np.sqrt(np.maximum(want * (1.0 - want), 1.0 / rows) / rows)
        assert np.all(np.abs(got - want) <= 5.0 * sigma), (case, rule, k, (got - want) / sigma)


# -- benchmark instances -------------------------------------------------------------------


def test_case1_structure():
    inst = case1_instance(10)
    assert inst.n == 2
    weights = [w for w, _, _ in inst.boxes[1].segments]
    assert weights == pytest.approx([0.99, 0.01], abs=1e-15)
    assert inst.prophet_expectation() >= 10.0
    for k in (1, 2.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            case1_instance(k)


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
    for k, n in ((25, 1), (2.5, 3), (True, 3), (10, 2.5), (10, True)):
        with pytest.raises(ValueError, match="must be an integer"):
            case2_instance(k, n)


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


def test_sandwich_probes_match_threshold_diagnostics():
    # the first chunk of the sweep at seed 77, rebuilt as objects probe by probe
    probes = 2000
    w, lo, hi, t = _sandwich_probes(probes, _substream(77, _TAG_SANDWICH, 0))
    f, g = _sandwich_terms(w, lo, hi, t)
    insts = probe_instances(w, lo, hi)
    assert len(insts) == len(t) == probes
    on_break = on_atom = outside = 0
    worst = -math.inf
    for inst, ti, fi, gi, pw, plo, phi in zip(insts, t.tolist(), f.tolist(), g.tolist(), w, lo, hi):
        assert 2 <= inst.n <= 5
        for box, bw, blo, bhi in zip(inst.boxes, pw, plo, phi):
            assert 1 <= len(box.segments) <= 3
            # the arrays keep ValueDist's segment order, absent segments last
            assert box.segments == tuple(zip(bw, blo, bhi))[: len(box.segments)]
        # the array terms have the scalar CDF oracle's F bit for bit; the
        # stratum-table diagnostics are within 1e-15 absolute of both of the
        # oracle's terms (measured 8.9e-16 on F and on g)
        want_f, want_g = scalar_diagnostics(inst, ti)
        assert want_f == fi and abs(want_g - gi) <= 1e-15
        diag = threshold_diagnostics(inst, ti)
        assert abs(diag.f_of_t - want_f) <= 1e-15 and abs(diag.g - want_g) <= 1e-15
        breaks = inst.breakpoints()
        on_break += ti in breaks
        on_atom += any(ti in atoms(box) for box in inst.boxes)
        outside += not breaks[0] <= ti <= breaks[-1]
        worst = max(worst, (1.0 - diag.g) - diag.f_of_t, diag.f_of_t - math.exp(-diag.g))
    assert 0.15 <= on_break / probes <= 0.25
    assert on_atom > 0 and outside > 0
    assert np.any(lo == hi) and np.any(np.isfinite(lo) & (lo < hi))
    violations, swept = diagnostics_sandwich_sweep(probes, seed=77)
    assert violations == 0
    assert abs(swept - worst) <= 2e-15


def test_sandwich_sweep_memory_is_bounded_by_the_chunk():
    def peak(probes: int) -> int:
        tracemalloc.start()
        try:
            assert diagnostics_sandwich_sweep(probes, seed=5)[0] == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(_SANDWICH_CHUNK)
    assert peak(10 * _SANDWICH_CHUNK) <= 1.2 * one


def test_sandwich_sweep_chunks_are_fixed_substreams():
    # a probe count past one chunk splits at _SANDWICH_CHUNK whatever the count
    rows = _SANDWICH_CHUNK + 7
    violations, worst = diagnostics_sandwich_sweep(rows, seed=12)
    excess = []
    for c, size in enumerate((_SANDWICH_CHUNK, 7)):
        f, g = _sandwich_terms(*_sandwich_probes(size, _substream(12, _TAG_SANDWICH, c)))
        excess.append(np.maximum((1.0 - g) - f, f - np.exp(-g)))
    assert (violations, worst) == (0, float(np.concatenate(excess).max()))
    assert isinstance(violations, int) and isinstance(worst, float)
