import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prophet_samples import (
    Instance,
    MaxSample,
    OrdinalRank,
    ThresholdDiagnostics,
    ValueDist,
    omega_rho,
    recommended_rank,
    threshold_diagnostics,
    threshold_value_with_rank_law,
)
from prophet_samples.algorithms import (
    beta_moments,
    rule_from_config,
    rule_to_config,
    static_threshold_values,
    walk_reach,
)
from prophet_samples.evaluation import (
    _level_structure,
    _stratum_values,
    mc_ratio,
)

from conftest import (
    fixed_size_selected_law,
    fixed_size_walk_terms,
    fixed_size_walk_value,
    instances,
    prophet_tail,
    random_discrete_instance,
    random_mixture_instance,
    shared_atom_mixture,
    walk_polynomial,
    walk_terms,
)


def run_static_threshold(values, t: float, rng=None) -> float:
    """Scalar walk oracle: the first value exceeding t, else 0.

    "Exceeds" is strict; with an rng, a value equal to t wins against the
    threshold's fresh latent rank (probability 1/2 for a single tie). Without
    an rng ties lose deterministically.
    """
    u_t = rng.random() if rng is not None else None
    for v in values:
        if v > t:
            return float(v)
        if v == t and u_t is not None and rng.random() > u_t:
            return float(v)
    return 0.0


# -- omega constant -----------------------------------------------------------------


def test_omega_rho_residual_and_window():
    rho = omega_rho()
    assert rho * math.exp(rho) == 1.0
    assert 0.567143 < rho < 0.567144
    assert 1.0 - rho == pytest.approx(0.432856709590216, abs=1e-12)


def test_recommended_rank_values():
    # the README's table
    assert [recommended_rank(k) for k in (100, 1000, 10_000, 100_000)] == [36, 468, 5208, 54560]
    assert recommended_rank(1) == 1
    for k in (0, 2.5, True):
        with pytest.raises(ValueError, match="k must be an integer"):
            recommended_rank(k)


# -- rule application -----------------------------------------------------------------


def test_max_sample_equals_rank_one():
    inst = Instance((ValueDist.uniform(0, 2), ValueDist.discrete({1.0: 0.4, 0.0: 0.6})))
    assert mc_ratio(inst, MaxSample(), 3, 5000, seed=4) == mc_ratio(inst, OrdinalRank(1), 3, 5000, seed=4)


def test_rule_config_round_trip():
    for rule in (MaxSample(), OrdinalRank(5)):
        assert rule_from_config(rule_to_config(rule)) == rule
    with pytest.raises(ValueError):
        rule_from_config({"rule": "nope"})
    # a rule reads only the keys rule_to_config writes for its kind
    with pytest.raises(ValueError, match="'rank' is never read"):
        rule_from_config({"rule": "max_sample", "rank": 7})
    with pytest.raises(ValueError, match="'t' is never read"):
        rule_from_config({"rule": "ordinal", "rank": 3, "t": 9.0})
    for rank in (0, 2.5, True):
        with pytest.raises(ValueError, match="rank must be an integer >= 1"):
            OrdinalRank(rank)
    assert OrdinalRank(np.int64(3)).rank == 3


def test_run_static_threshold():
    assert run_static_threshold((1.0, 2.0), 1.5) == 2.0
    assert run_static_threshold((1.0, 2.0), 3.0) == 0.0
    assert run_static_threshold((0.4, 0.9, 0.7), 0.5) == 0.9


def test_run_static_threshold_tie_frequency(rng):
    wins = sum(run_static_threshold((1.0,), 1.0, rng) == 1.0 for _ in range(20_000))
    assert abs(wins / 20_000 - 0.5) < 0.02


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=5), st.floats(0.0, 5.0))
def test_run_static_membership(values, t):
    got = run_static_threshold(values, t)
    assert got == 0.0 or got in values


# -- exact walk evaluation ---------------------------------------------------------------


def test_exact_static_threshold_examples(instance_a):
    assert threshold_value_with_rank_law(instance_a, 1.5) == pytest.approx(1.0, abs=1e-12)
    assert threshold_value_with_rank_law(instance_a, 0.5) == pytest.approx(1.0, abs=1e-12)
    u = Instance((ValueDist.uniform(0, 1),))
    assert threshold_value_with_rank_law(u, 0.5) == pytest.approx(0.375, abs=1e-12)


def test_exact_static_threshold_tie(instance_a):
    # threshold on the first box's atom: win-half on box 1, else take box 2's tail
    assert threshold_value_with_rank_law(instance_a, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_exact_matches_simulation_on_atom_threshold(instance_a, rng):
    reps = 200_000
    values = np.stack([box.sample_many(rng, reps) for box in instance_a.boxes], axis=1)
    total = 0.0
    for row in values:
        total += run_static_threshold(row, 1.0, rng)
    assert abs(total / reps - threshold_value_with_rank_law(instance_a, 1.0)) < 0.01


def test_vectorized_matches_scalar_off_atoms(instance_a):
    ts = np.array([0.5, 1.5, 1.75, 2.5])
    vec = static_threshold_values(instance_a, ts)
    for t, v in zip(ts, vec):
        assert threshold_value_with_rank_law(instance_a, float(t)) == pytest.approx(
            float(v), abs=1e-12
        )


def test_vectorized_matches_scalar_on_atoms(instance_a):
    # a fresh rank settles the tie: the tied value of box 2 wins half the time
    ts = np.array([1.0, 2.0, 1.5])
    vec = static_threshold_values(instance_a, ts)
    assert vec.tolist() == [threshold_value_with_rank_law(instance_a, t) for t in ts]
    assert vec[1] == 0.5
    rng = np.random.default_rng(5)
    for _ in range(20):
        # shared atoms give every box a tie mass, so the polynomials reach degree n
        inst = random_discrete_instance(rng, max_boxes=6)
        ts = np.array(inst.breakpoints() + [0.25, 1.75])
        vec = static_threshold_values(inst, ts)
        assert vec.tolist() == [threshold_value_with_rank_law(inst, t) for t in ts]


def _same_bits(got, want) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def test_walk_kernel_bits_match_fixed_size_oracles():
    # the one walk kernel, fed the scalar oracle's stays and pays, against the
    # fixed-size, batched walk it replaced: reach and value polynomials must
    # agree byte for byte. threshold_value_with_rank_law reads each box from
    # the stratum table cut at t, whose columns sum the segments in another
    # order, so its values under rank laws match the oracle's within 2e-15
    # relative (measured at most 1.6e-15 on these 8,164 cases, 64% of them
    # bit-identical); the selected-value law's tails to rounding
    rng = np.random.default_rng(20261019)
    checked_ties = 0
    for it in range(150):
        inst = (random_mixture_instance, shared_atom_mixture, random_discrete_instance)[it % 3](rng)
        los, his, _, _ = _level_structure(inst)
        ts = sorted({*inst.breakpoints(), *(0.5 * (lo + hi) for lo, hi in zip(los, his)), -0.5, 7.0})
        fresh = []  # the oracle's values under a fresh latent rank
        for t in ts:
            old = list(fixed_size_walk_terms(inst, t))
            checked_ties += len(old[0][0]) > 1
            for i, (reach, (want, _)) in enumerate(zip(walk_reach(walk_terms(inst, t)), old)):
                assert len(reach) == i + 1
                assert _same_bits(reach[: len(want)], want[: i + 1]), (inst, t, i)
                assert not reach[len(want) :].any() and not want[i + 1 :].any()
            poly, want = walk_polynomial(inst, t), fixed_size_walk_value(inst, t)
            assert _same_bits(poly[: len(want)], want) and not poly[len(want) :].any(), (inst, t)
            for a, b in ((3, 2), (7, 5), (40, 3)):
                value = np.vecdot(beta_moments(a, b, inst.n)[: len(want)], want)
                got = threshold_value_with_rank_law(inst, t, a, b)
                assert got == pytest.approx(value, rel=2e-15, abs=0.0), (inst, t, a, b)
            fresh.append(np.vecdot(beta_moments(1, 1, inst.n)[: len(want)], want))
        # the rank law (1, 1), through the vectorized entry point
        assert static_threshold_values(inst, np.array(ts)) == pytest.approx(fresh, rel=2e-15, abs=0.0)
    assert checked_ties > 150


def test_rank_law_large_tie_counts():
    # thousands of tied samples must stay finite and exact
    inst = Instance((ValueDist.atom(7.0),))
    val = threshold_value_with_rank_law(inst, 7.0, alpha=4000, beta=1000)
    # accepted iff the value's fresh rank beats a Beta(4000, 1000) rank
    assert val == pytest.approx(7.0 * (1.0 - 4000.0 / 5000.0), abs=1e-9)


def test_beta_moments_match_uniform():
    m = beta_moments(1, 1, 4)
    assert np.allclose(m, [1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5], atol=1e-15)


def test_beta_moments_arrays_match_scalar_rows():
    alpha = np.array([[1, 7, 4000], [2, 2, 3]])
    beta = np.array([1, 5, 1000])
    m = beta_moments(alpha, beta, 4)
    assert m.shape == (2, 3, 5)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(m[i, j], beta_moments(int(alpha[i, j]), int(beta[j]), 4))


@pytest.mark.parametrize("alpha, beta", [(np.array([1, 0, 2]), 1), (3, np.array([2, 1, -1]))])
def test_rank_law_arrays_reject_nonpositive(alpha, beta):
    with pytest.raises(ValueError):
        beta_moments(alpha, beta, 3)
    # the stratum valuation takes its rank laws as arrays: on the interval
    # (1, 2), the atom at 1 and the interval (0, 1)
    inst = Instance((ValueDist(((0.5, 1.0, 1.0), (0.5, 0.0, 2.0))),))
    los, his, probs, firsts = _level_structure(inst)
    assert (los < his).tolist() == [True, False, True]
    counts, ranks = np.asarray(alpha + beta - 1), np.asarray(beta)
    for j in range(3):
        with pytest.raises(ValueError):
            _stratum_values(probs, firsts, j, los[j], his[j], counts, ranks)


def test_rank_law_arrays_match_scalar_calls(instance_a):
    # the stratum valuation's array rank laws on the atom at 2.0 against the
    # fixed-threshold walk, which reads the same columns of the same table
    counts = np.array([1, 2, 5, 40, 3000])
    ranks = np.array([1, 2, 3, 17, 2999])
    los, his, probs, firsts = _level_structure(instance_a)
    assert (los[0], his[0]) == (2.0, 2.0)
    on_atom = _stratum_values(probs, firsts, 0, 2.0, 2.0, counts, ranks)
    assert on_atom.shape == (5,)
    for c, r, v in zip(counts, ranks, on_atom):
        assert threshold_value_with_rank_law(instance_a, 2.0, int(c + 1 - r), int(r)) == v
    assert len(set(on_atom.tolist())) > 1
    fixed = static_threshold_values(instance_a, np.array([1.5]))[0]
    for c, r in zip(counts, ranks):
        assert threshold_value_with_rank_law(instance_a, 1.5, int(c + 1 - r), int(r)) == fixed
    assert isinstance(threshold_value_with_rank_law(instance_a, 2.0, 3, 2), float)


@pytest.mark.parametrize("alpha, beta", [(1.5, 1), (True, 1), (1, 2.0), (1, np.True_), (np.float64(3.0), 2)])
def test_rank_law_parameters_must_be_integers(instance_a, alpha, beta):
    # a float or a bool is not an integer, whatever its value
    with pytest.raises(ValueError, match="must be positive integers"):
        beta_moments(alpha, beta, 3)
    with pytest.raises(ValueError, match="must be positive integers"):
        threshold_value_with_rank_law(instance_a, 1.0, alpha, beta)


@pytest.mark.parametrize("alpha", [np.array([1.0, 2.0]), np.array([True, True]), np.array([1, 2], dtype=object)])
def test_rank_law_arrays_must_have_an_integer_dtype(alpha):
    with pytest.raises(ValueError, match="must be positive integers"):
        beta_moments(alpha, 1, 3)


def test_rank_law_accepts_numpy_integers(instance_a):
    # 100 + 200 wraps in uint8; the rank law is c = 299 tied samples
    want = threshold_value_with_rank_law(instance_a, 1.0, 100, 200)
    assert threshold_value_with_rank_law(instance_a, 1.0, np.uint8(100), np.uint8(200)) == want
    want = threshold_value_with_rank_law(instance_a, 1.0, 3, 2)
    assert threshold_value_with_rank_law(instance_a, 1.0, np.int64(3), np.int32(2)) == want
    rows = beta_moments(np.array([3, 200], dtype=np.uint8), np.uint8(100), 3)
    assert np.array_equal(rows, beta_moments(np.array([3, 200]), 100, 3))
    assert np.array_equal(rows[0], beta_moments(3, 100, 3))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_thresholds_raise(instance_a, t):
    with pytest.raises(ValueError, match="threshold must be finite"):
        threshold_value_with_rank_law(instance_a, t)
    with pytest.raises(ValueError, match="threshold must be finite"):
        static_threshold_values(instance_a, np.array([1.5, t]))
    with pytest.raises(ValueError, match="threshold must be finite"):
        threshold_diagnostics(instance_a, t)


def test_dominance_floor_on_random_instances(rng):
    # the walk's tail at a fixed threshold T is at least h(T) times the
    # prophet's tail at every positive breakpoint, by the reference walk
    for _ in range(40):
        inst = random_discrete_instance(rng)
        t = float(rng.uniform(0.1, 3.2))
        while any(b.mass_at(t) > 0 for b in inst.boxes):
            t = float(rng.uniform(0.1, 3.2))
        diag = threshold_diagnostics(inst, t)
        law = fixed_size_selected_law(inst, t, beta_moments(1, 1, inst.n + 1))
        xs = [x for x in inst.breakpoints() if x > 0.0]
        for x, prophet in zip(xs, prophet_tail(inst, xs).tolist()):
            tail = math.fsum(p for v, p in law.items() if v >= x)
            assert tail >= (diag.h - 1e-12) * prophet, (inst, t, x)


# -- diagnostics -----------------------------------------------------------------------


def test_threshold_diagnostics_instance_a(instance_a):
    d = threshold_diagnostics(instance_a, 1.5)
    assert (d.f_of_t, d.g, d.h) == (0.5, 0.5, 0.5)
    assert d.f_of_t <= math.exp(-d.g) + 1e-12


def test_threshold_diagnostics_extremes(instance_a):
    top = threshold_diagnostics(instance_a, 10.0)
    assert (top.f_of_t, top.g, top.h) == (1.0, 0.0, 0.0)
    bot = threshold_diagnostics(instance_a, -1.0)
    assert bot.f_of_t == 0.0
    assert bot.g >= 1.0


@pytest.mark.parametrize("excess", [0.9e-12, -0.9e-12])
def test_threshold_diagnostics_when_weights_miss_1_by_the_tolerance(excess):
    # three boxes whose weights sum to 1 + excess: each box's two parts are
    # read from its columns over their total, so they add up to 1 and the
    # sandwich holds at every threshold, above the supports too
    box = ValueDist(((0.5, 0.0, 1.0), (0.5 + excess, 1.0, 2.0)))
    inst = Instance((box,) * 3)
    for t in (-1.0, 0.5, 1.0, 1.5, 5.0):
        d = threshold_diagnostics(inst, t)
        assert 1.0 - d.g <= d.f_of_t + 1e-15 and d.f_of_t <= math.exp(-d.g) + 1e-15
    assert (d.f_of_t, d.g) == (1.0, 0.0)
    assert threshold_diagnostics(inst, 0.5).f_of_t == pytest.approx(0.25**3, rel=1e-11)


def test_diagnostics_reject_inconsistent_fields():
    with pytest.raises(ValueError):
        ThresholdDiagnostics(t=0.0, f_of_t=0.2, g=0.1)


@settings(max_examples=100, deadline=None)
@given(instances(), st.floats(-1.0, 8.0))
def test_sandwich_property(inst, t):
    d = threshold_diagnostics(inst, t)
    assert 1.0 - d.g <= d.f_of_t + 1e-12
    assert d.f_of_t <= math.exp(-d.g) + 1e-12
