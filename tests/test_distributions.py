import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prophet_samples import (
    Instance,
    ValueDist,
    instance_from_json,
    instance_to_json,
)
from prophet_samples import distributions, evaluation
from prophet_samples.evaluation import _substream

from conftest import instances, scalar_prophet_expectation, set_up_oracle_instances, value_dists


# -- oracles -------------------------------------------------------------------


def choice_sample_many(dist: ValueDist, rng, shape):
    """The sampler as it was built on rng.choice: the oracle for sample_many's bits."""
    weights = np.array([w for w, _, _ in dist.segments])
    los = np.array([lo for _, lo, _ in dist.segments])
    his = np.array([hi for _, _, hi in dist.segments])
    if len(dist.segments) == 1:
        idx = np.zeros(shape, dtype=np.intp)
    else:
        idx = rng.choice(len(dist.segments), size=shape, p=weights / weights.sum())
    pos = rng.random(shape)
    return los[idx] + (his[idx] - los[idx]) * pos


def atoms_tail_oracle(dist: ValueDist, t: float) -> float:
    """E[v * 1{v > t}] by direct atom enumeration (all-atoms dists only)."""
    return sum(w * lo for w, lo, hi in dist.segments if lo > t)


def low_part_oracle(dist: ValueDist, t: float) -> float:
    """E[v * 1{v <= t}] from the segments, independent of tail_expectation."""
    total = 0.0
    for w, lo, hi in dist.segments:
        if lo == hi:
            total += w * lo if lo <= t else 0.0
        else:
            cut = min(max(t, lo), hi)
            total += w * (cut * cut - lo * lo) / (2.0 * (hi - lo))
    return total


def prophet_enumeration_oracle(inst: Instance) -> float:
    """E[max] by full product-space enumeration over atom supports."""
    supports = [sorted(b.atoms().items()) for b in inst.boxes]
    total = 0.0
    stack = [(0, 1.0, -math.inf)]
    while stack:
        i, prob, cur = stack.pop()
        if i == len(supports):
            total += prob * cur
            continue
        for v, p in supports[i]:
            stack.append((i + 1, prob * p, max(cur, v)))
    return total


# -- ValueDist -------------------------------------------------------------------


def test_cdf_atom():
    d = ValueDist.atom(1.0)
    assert d.cdf(0.5) == 0.0
    assert d.cdf(1.0) == 1.0


def test_cdf_uniform():
    assert ValueDist.uniform(0.0, 1.0).cdf(0.25) == 0.25


def test_tail_expectation_two_atoms():
    d = ValueDist.discrete({2.0: 0.5, 0.0: 0.5})
    assert d.tail_expectation(1.5) == pytest.approx(atoms_tail_oracle(d, 1.5), abs=1e-12)
    assert d.tail_expectation(1.5) == pytest.approx(1.0, abs=1e-12)


def test_tail_expectation_uniform_edges():
    u = ValueDist.uniform(0.0, 1.0)
    assert u.tail_expectation(1.0) == 0.0
    assert u.tail_expectation(0.0) == pytest.approx(0.5, abs=1e-12)


def exact_tail_oracle(dist: ValueDist, t: float) -> Fraction:
    """E[v * 1{v > t}] in exact rational arithmetic on the stored floats."""
    total = Fraction(0)
    ft = Fraction(t)
    for w, lo, hi in dist.segments:
        w, lo, hi = Fraction(w), Fraction(lo), Fraction(hi)
        if lo == hi:
            total += w * lo if ft < lo else 0
        else:
            cut = min(max(ft, lo), hi)
            total += w * (hi * hi - cut * cut) / (2 * (hi - lo))
    return total


@pytest.mark.parametrize("spike", [10.0 ** e for e in range(3, 17)])
def test_tail_expectation_exact_at_spike_scale(spike):
    # case1's spike segment U(k^3, k^3 + 1) sits far from 0: hi*hi - cut*cut
    # loses up to half its digits there, the factored form loses none
    for hi in (spike + max(1.0, 2.0 * math.ulp(spike)), 2.0 * spike):
        d = ValueDist(((1.0 - 1e-8, 0.0, 1.0), (1e-8, spike, hi)))
        mid = 0.5 * (spike + hi)
        for t in (0.0, 0.5, spike, mid, math.nextafter(hi, 0.0), hi, 2.0 * hi):
            want = exact_tail_oracle(d, t)
            got = d.tail_expectation(t)
            assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want, (hi, t, got)


@settings(max_examples=80, deadline=None)
@given(value_dists(), st.floats(-1.0, 7.0), st.floats(-1.0, 7.0))
def test_cdf_monotone(d, x1, x2):
    lo, hi = sorted((x1, x2))
    assert d.cdf(lo) <= d.cdf(hi) + 1e-15
    assert d.cdf(min(lo for _, lo, _ in d.segments) - 1.0) == 0.0
    assert d.cdf(max(hi for _, _, hi in d.segments) + 1.0) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(value_dists(), st.floats(-1.0, 7.0))
def test_exceedance_is_the_left_limit_complement_and_0_above_the_support(d, x):
    assert d.exceedance(x) == pytest.approx(1.0 - (d.cdf(x) - d.mass_at(x)), abs=1e-12)
    top = max(hi for _, _, hi in d.segments)
    assert d.exceedance(top + 1.0) == 0.0
    if not d.mass_at(top):
        assert d.exceedance(top) == 0.0


@settings(max_examples=80, deadline=None)
@given(value_dists(), st.floats(-1.0, 7.0))
def test_tail_plus_low_part_is_mean(d, t):
    assert d.tail_expectation(t) + low_part_oracle(d, t) == pytest.approx(
        d.mean(), abs=1e-10
    )


def test_validation_errors():
    with pytest.raises(ValueError):
        ValueDist(((0.5, 0.0, 1.0),))  # weights sum to 0.5
    with pytest.raises(ValueError):
        ValueDist(((1.0, -0.5, 1.0),))  # negative bound
    with pytest.raises(ValueError):
        ValueDist(((1.0, 2.0, 1.0),))  # inverted segment
    with pytest.raises(ValueError):
        ValueDist(((1.0, 0.0, math.inf),))
    for hi in (1e300, 1e308, math.nextafter(2.0**64, math.inf), math.nan):
        for dist in ((1.0, 0.0, hi),), ((1.0, hi, hi),):
            with pytest.raises(ValueError, match="at most 2\\^64"):
                ValueDist(dist)


def test_segment_bounds_up_to_2_to_the_64_are_accepted():
    d = ValueDist.uniform(0.0, 2.0**64)
    assert d.mean() == 2.0**63
    assert ValueDist.atom(2.0**64).mean() == 2.0**64


def test_segments_sorted_after_construction():
    d = ValueDist(((0.5, 3.0, 3.0), (0.5, 1.0, 2.0)))
    assert d.segments[0][1] == 1.0


def test_sample_atoms(rng):
    assert (ValueDist.atom(3.0).sample_many(rng, 5) == 3.0).all()
    assert (ValueDist.uniform(5.0, 5.0).sample_many(rng, 5) == 5.0).all()


def test_sample_uniform_mean(rng):
    draws = ValueDist.uniform(0.0, 1.0).sample_many(rng, 10**6)
    assert abs(draws.mean() - 0.5) < 0.002


def test_sample_many_matches_mixture_weights(rng):
    d = ValueDist(((0.25, 0.0, 0.0), (0.75, 2.0, 3.0)))
    draws = d.sample_many(rng, 200_000)
    assert abs((draws == 0.0).mean() - 0.25) < 0.01
    assert abs(draws[draws > 0].mean() - 2.5) < 0.01


def _random_segments(rng, case: int) -> tuple:
    """Segment sets that cover atoms, zero weights (the last segment's too),
    single segments, 64-segment boxes, and the last segment count whose pick
    sample_many counts and the first it searches."""
    switch = distributions._COUNTED_BOUNDARIES + 1
    m = {0: 1, 1: 64, 2: switch, 4: switch + 1}.get(case % 10) or int(rng.integers(2, 8))
    los = np.sort(rng.uniform(0.0, 10.0, m)) * 10.0 ** rng.integers(0, 9)
    widths = np.where(rng.random(m) < 0.4, 0.0, rng.uniform(0.0, 3.0, m))
    weights = rng.random(m) + 0.01
    weights[rng.random(m) < 0.25] = 0.0
    if m > 1 and case % 4 == 2:
        weights[-1] = 0.0  # segments are sorted by (lo, hi), so this stays last
    if not weights.sum():
        weights[0] = 1.0
    weights /= weights.sum()
    return tuple(zip(weights.tolist(), los.tolist(), (los + widths).tolist()))


@pytest.mark.parametrize("shape", [1000, (37, 29)], ids=["int", "2d"])
def test_sample_many_bits_match_choice_oracle(shape):
    """sample_many's draws and the generator state afterwards are the ones
    rng.choice gives, bit for bit, on the production PCG64DXSM substreams."""
    cases = np.random.default_rng(2024)
    for case in range(200):
        dist = ValueDist(_random_segments(cases, case))
        got_rng, want_rng = _substream(case, 7, 3), _substream(case, 7, 3)
        got = dist.sample_many(got_rng, shape)
        want = choice_sample_many(dist, want_rng, shape)
        assert got.shape == want.shape
        assert (got.view(np.uint64) == want.view(np.uint64)).all(), dist.segments
        # the PCG64DXSM state is a dict of Python ints (state, inc, buffered word)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# -- Instance ---------------------------------------------------------------------


def test_product_cdf_two_uniforms():
    inst = Instance((ValueDist.uniform(0, 1), ValueDist.uniform(0, 1)))
    assert inst.product_cdf(0.5) == 0.25
    assert inst.product_cdf(99.0) == 1.0


def test_product_cdf_instance_a(instance_a):
    assert instance_a.product_cdf(1.5) == 0.5


@settings(max_examples=60, deadline=None)
@given(instances(), st.floats(-1.0, 8.0))
def test_product_cdf_is_product(inst, x):
    prod = 1.0
    for b in inst.boxes:
        prod *= b.cdf(x)
    assert inst.product_cdf(x) == prod


def test_prophet_instance_a(instance_a):
    assert instance_a.prophet_expectation() == pytest.approx(1.5, abs=1e-12)
    assert prophet_enumeration_oracle(instance_a) == pytest.approx(1.5, abs=1e-12)


def test_prophet_single_uniform():
    inst = Instance((ValueDist.uniform(0, 1),))
    assert inst.prophet_expectation() == pytest.approx(0.5, abs=1e-12)


def test_prophet_two_uniforms():
    inst = Instance((ValueDist.uniform(0, 1), ValueDist.uniform(0, 1)))
    assert inst.prophet_expectation() == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_prophet_matches_enumeration_on_random_atom_instances(rng):
    from conftest import random_discrete_instance

    for _ in range(25):
        inst = random_discrete_instance(rng)
        assert inst.prophet_expectation() == pytest.approx(
            prophet_enumeration_oracle(inst), abs=1e-10
        )


def test_prophet_expectation_bits_match_scalar_oracle(monkeypatch):
    insts = set_up_oracle_instances()
    want = [scalar_prophet_expectation(inst).hex() for inst in insts]
    assert [inst.prophet_expectation().hex() for inst in insts] == want
    # one interval per block
    monkeypatch.setattr(distributions, "_GRID_BUDGET", 1)
    assert [inst.prophet_expectation().hex() for inst in insts] == want


def _traced_prophet(inst: Instance) -> tuple[float, int]:
    tracemalloc.start()
    try:
        value = inst.prophet_expectation()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def test_prophet_expectation_grid_is_blocked(monkeypatch):
    # 300 boxes: 600 intervals of 151 nodes, a grid of about 90k entries
    inst = Instance(tuple(ValueDist.uniform(i / 3, i / 3 + 1.5) for i in range(300)))
    blocked, blocked_peak = _traced_prophet(inst)
    block_bytes = 8 * distributions._GRID_BUDGET
    monkeypatch.setattr(distributions, "_GRID_BUDGET", 1 << 40)
    whole, whole_peak = _traced_prophet(inst)
    assert blocked.hex() == whole.hex()
    assert blocked_peak < whole_peak / 2
    assert blocked_peak < 8 * block_bytes


def test_prophet_cost_cap_raises_before_any_cdf(monkeypatch):
    # 1400 boxes over 1400 unit intervals: 1400 * 1400 * 701 CDF entries
    inst = Instance(tuple(ValueDist.uniform(float(i), i + 1.0) for i in range(1400)))
    monkeypatch.setattr(ValueDist, "cdf", lambda self, x: pytest.fail("a CDF was evaluated"))
    with pytest.raises(ValueError, match="1373960000 CDF entries exceed the cap"):
        inst.prophet_expectation()
    evaluation.check_strata(inst)  # the stratum table alone would fit


def test_empty_instance_rejected():
    with pytest.raises(ValueError):
        Instance(())


# -- JSON ---------------------------------------------------------------------------


def test_instance_json_round_trip(instance_a):
    blob = json.dumps(instance_to_json(instance_a))
    back = instance_from_json(json.loads(blob))
    assert back == instance_a


def test_instance_json_errors():
    with pytest.raises(ValueError, match="boxes"):
        instance_from_json({})
    with pytest.raises(ValueError, match="segments"):
        instance_from_json({"boxes": [{}]})
    with pytest.raises(ValueError, match=r"'boxes\[0\]\.weight' is never read"):
        instance_from_json({"boxes": [{"segments": [[1.0, 0.0, 1.0]], "weight": 2}]})
    with pytest.raises(ValueError, match="'name' is never read"):
        instance_from_json({"boxes": [{"segments": [[1.0, 0.0, 1.0]]}], "name": "a"})


@pytest.mark.parametrize(
    "obj, match",
    [
        ({"boxes": {"segments": [[1.0, 0.0, 1.0]]}}, "'boxes' array"),
        ({"boxes": [{"segments": [1.0, 0.0, 1.0]}]}, "box 0 segment 0"),
        ({"boxes": [{"segments": 5}]}, "box 0 must contain a 'segments' array"),
        ({"boxes": [{"segments": [[1.0, 0.0, 1.0]]}, {"segments": [[1.0, 0.0]]}]}, "box 1 segment 0"),
        ({"boxes": [{"segments": [[0.5, 0.0, 1.0], [0.5, 0.0, 1.0, 2.0]]}]}, "box 0 segment 1"),
        ({"boxes": [{"segments": [[1.0, 0.0, "1"]]}]}, "box 0 segment 0"),
        ({"boxes": [{"segments": [[True, 0.0, 1.0]]}]}, "box 0 segment 0"),
    ],
    ids=["boxes-object", "segment-scalar", "segments-number", "two-numbers", "four-numbers", "string", "boolean"],
)
def test_instance_json_rejects_malformed_segments(obj, match):
    with pytest.raises(ValueError, match=match):
        instance_from_json(obj)
