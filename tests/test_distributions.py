import json
import math
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

from conftest import rational_prophet_expectation, value_dists


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
    # the prophet tail that _exact_tails reads off the stratum table cut at
    # its grid, for a one-box instance
    top = max(hi for _, _, hi in d.segments)
    inst = Instance((d,))
    tail, above, at_top = evaluation._exact_tails(inst, 1, 1, [x, top + 1.0, top])[1].tolist()
    assert tail == pytest.approx(1.0 - (d.cdf(x) - d.mass_at(x)), abs=1e-12)
    assert above == 0.0
    if not d.mass_at(top):
        assert at_top == 0.0


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


def _prophet_corpus(instance_a: Instance) -> list[Instance]:
    """Random mixtures with atoms, then the same with each box scaled by up
    to 1e6, then named instances: A, the tie instance, case1 and case2."""
    from conftest import random_mixture_instance

    from prophet_samples.evaluation import CASE1_MAX_K, case1_instance, case2_instance, default_case2_boxes

    rng = np.random.default_rng(3501)
    out = [random_mixture_instance(rng) for _ in range(200)]
    for _ in range(100):
        boxes = random_mixture_instance(rng).boxes
        scales = 10.0 ** rng.uniform(0.0, 6.0, size=len(boxes))
        out.append(Instance(tuple(
            ValueDist(tuple((w, lo * s, hi * s) for w, lo, hi in box.segments)) for box, s in zip(boxes, scales)
        )))
    out.append(instance_a)
    out.append(Instance((
        ValueDist.discrete({0.0: 0.2, 1.0: 0.5, 2.0: 0.3}),
        ValueDist.discrete({1.0: 0.6, 2.0: 0.4}),
        ValueDist.atom(1.0),
        ValueDist.discrete({0.0: 0.5, 2.0: 0.5}),
    )))
    out += [case1_instance(k) for k in (2, 100, 10_000, CASE1_MAX_K)]
    out += [case2_instance(k, default_case2_boxes(k)) for k in (100, 10_000)]
    return out


def test_prophet_expectation_matches_exact_rationals(instance_a):
    # measured worst: 4.9e-16 relative, on a mixture scaled up to 1e6
    worst = 0.0
    for inst in _prophet_corpus(instance_a):
        want = rational_prophet_expectation(inst)
        worst = max(worst, abs(float((Fraction(inst.prophet_expectation()) - want) / want)))
    assert worst <= 2e-15


def test_walk_cap_raises_before_the_table(monkeypatch):
    # 1400 boxes over 1401 breakpoints: the 1400 x 2801 table fits SIZE_CAP,
    # but its walk takes 1400 * 1401 / 2 * 2801 multiply-adds
    inst = Instance(tuple(ValueDist.uniform(float(i), i + 1.0) for i in range(1400)))
    monkeypatch.setattr(ValueDist, "mass_at", lambda self, x: pytest.fail("the table was built"))
    with pytest.raises(ValueError, match="1400 x 2801 stratum table takes 2746940700 multiply-adds"):
        inst.prophet_expectation()
    with pytest.raises(ValueError, match="2746940700 multiply-adds"):
        distributions.check_strata(inst)
    # 30 boxes fit the real cap: a 30 x 61 table, 28,365 multiply-adds
    small = Instance(tuple(ValueDist.uniform(float(i), i + 1.0) for i in range(30)))
    distributions.check_strata(small)
    monkeypatch.setattr(distributions, "WALK_CAP", 28_364)
    with pytest.raises(ValueError, match="30 x 61 stratum table takes 28365 multiply-adds"):
        small.prophet_expectation()


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
