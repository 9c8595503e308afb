import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from prophet_samples import (
    HardParams,
    ProbVector,
    QPolicy,
    adversary,
    build_dd_mixture,
    certificate,
    certificate_terms,
    eval_q_policy,
    g_clamp,
    ones_count_dist,
    tv_distance,
)
from prophet_samples import hardness
from prophet_samples.stats import CountDist, _binom_windows, convolve
from prophet_samples.hardness import (
    ANCHOR,
    DELTA1,
    DELTA2,
    ONE_THIRD,
    PREFIXES,
    STOPS,
    T1,
    T2,
    XI,
    adversary_candidates,
    family_instance,
    family_prophet_value,
    load_policy,
    overselection_grid,
    p_star,
    policy_from_json,
)

from conftest import brute_force_eval, dense_binom_pmf_rows, dense_stop_table, per_law_member_values


T3 = (ANCHOR, 0, 1)


def q_p_expectation(policy: QPolicy, prefix: tuple, p: ProbVector, k: int) -> float:
    """Policy acceptance at a prefix averaged over the ones-count law."""
    dist = ones_count_dist(p, k)
    row = policy.row(prefix)[dist.offset : dist.offset + len(dist.masses)]
    return float(np.sum(dist.masses * row))


def walk_oracle(p: ProbVector, params: HardParams, policy: QPolicy) -> float:
    """Per-member walk over the 16 value paths, one ones-count law per call."""
    vals = p.values
    dist = ones_count_dist(p, params.k)
    lo, hi = dist.offset, dist.offset + len(dist.masses)

    def row(prefix: tuple) -> np.ndarray:
        return policy.row(prefix)[lo:hi]

    q1 = row(T1)
    spike_tail = vals[5] * params.spike_value
    walk = np.zeros(len(dist.masses))
    for bits in itertools.product((0, 1), repeat=4):
        w_b = 1.0
        for idx, b in enumerate(bits):
            w_b *= vals[idx + 1] if b else 1.0 - vals[idx + 1]
        if w_b == 0.0:
            continue
        val = XI * q1
        alive = 1.0 - q1
        prefix = T1
        for b in bits:
            prefix = prefix + (b,)
            if b:
                r = row(prefix)
                val = val + alive * r
                alive = alive * (1.0 - r)
        val = val + alive * spike_tail
        walk = walk + w_b * val
    no_spike_value = float(np.sum(dist.masses * walk))
    spike = hardness._spike_prob(p.values[5], params.k)
    return spike * spike_tail + (1.0 - spike) * no_spike_value


def policy_with(k: int, rows: dict) -> QPolicy:
    """A policy that is 0 except on the given STOPS rows."""
    table = np.zeros((len(STOPS), 4 * k + 1))
    for prefix, row in rows.items():
        table[STOPS.index(prefix)] = row
    return QPolicy(k=k, table=table)


def named_policy(name: str, k: int, rng) -> QPolicy:
    if name == "random":
        return QPolicy.random(k, rng)
    if name == "zero":
        return QPolicy.constant(k, 0.0)
    if name == "greedy":
        return policy_with(k, {T1: 1.0})
    return QPolicy.constant(k, 1.0)


def masses_digest(dist) -> str:
    return hashlib.sha256(",".join(float(x).hex() for x in dist.masses).encode()).hexdigest()


def random_member(rng, params: HardParams) -> ProbVector:
    p234 = [float(rng.choice([0.0, ONE_THIRD, 1.0])) for _ in range(3)]
    ell = float(rng.uniform(0.0, 2.0 * params.eps))
    p6 = float(rng.choice([0.0, params.spike_prob]))
    return ProbVector((1.0, *p234, ell, p6))


# -- prefixes ---------------------------------------------------------------------


def test_prefix_count_and_order():
    prefixes = PREFIXES
    assert len(prefixes) == 31
    assert prefixes[0] == (ANCHOR,)
    assert T3 in prefixes
    by_len = {}
    for p in prefixes:
        by_len.setdefault(len(p), []).append(p)
    assert [len(by_len[m]) for m in sorted(by_len)] == [1, 2, 4, 8, 16]
    for m, group in by_len.items():
        assert group == sorted(group, key=lambda p: p[1:])


# -- parameters and vectors ----------------------------------------------------------


def test_hard_params_defaults():
    params = HardParams(k=400)
    assert (XI, DELTA1, DELTA2, params.eps) == (0.9, 0.01, 0.5005, 0.0001)
    assert params.spike_prob == 400.0 ** -3
    assert params.spike_value == 400.0 ** 4


def test_hard_params_validation():
    with pytest.raises(ValueError):
        HardParams(k=10_001)
    for k in (2.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            HardParams(k=k)
    for eps in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="eps"):
            HardParams(k=10, eps=eps)


def test_prob_vector_membership():
    params = HardParams(k=5)
    ProbVector((1.0, ONE_THIRD, 0.0, 1.0, 0.0001, 0.0)).check_membership(params)
    with pytest.raises(ValueError):
        ProbVector((0.5, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        ProbVector((1.0, 0.5, 0, 0, 0, 0)).check_membership(params)
    with pytest.raises(ValueError):
        ProbVector((1.0, 0, 0, 0, 0.9, 0)).check_membership(params)
    with pytest.raises(ValueError):
        ProbVector((1.0, 0, 0, 0, 0, 0.5)).check_membership(params)


# -- ones-count law --------------------------------------------------------------------


def test_ones_count_point_mass():
    d = ones_count_dist(ProbVector((1.0, 1.0, 0.0, 0.0, 0.0, 0.0)), 7)
    assert d.pmf(7) == pytest.approx(1.0, abs=1e-12)


def test_ones_count_three_thirds():
    d = ones_count_dist(ProbVector((1.0, ONE_THIRD, ONE_THIRD, ONE_THIRD, 0.0, 0.0)), 1)
    want = np.array([8.0, 12.0, 6.0, 1.0]) / 27.0
    assert np.allclose(d.pmf_on(0, 3), want, atol=1e-12)


def test_ones_count_mean_linearity():
    params = HardParams(k=16)
    d = ones_count_dist(p_star(params), 16)
    assert d.mean() == pytest.approx(16 * (1.0 + params.eps), abs=1e-9)


def test_spike_event_prob_values():
    params = HardParams(k=10)
    # the chance that any of box 6's k samples shows the spike value
    assert hardness._spike_prob(ProbVector((1.0, 0, 0, 0, 0, 0)).values[5], 10) == 0.0
    spiked = ProbVector((1.0, 0, 0, 0, 0, params.spike_prob))
    assert hardness._spike_prob(spiked.values[5], 10) == pytest.approx(1.0 - 0.999 ** 10, rel=1e-12)
    assert hardness._spike_prob(spiked.values[5], 10) <= 1.0 / 100.0


# -- policy evaluation -------------------------------------------------------------------


def test_eval_never_accepting_policy():
    params = HardParams(k=2)
    q = QPolicy.constant(2, 0.0)
    vec = ProbVector((1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    assert eval_q_policy(vec, params, q) == 0.0


def test_eval_first_value_policy():
    params = HardParams(k=2)
    q = policy_with(2, {T1: 1.0})
    vec = ProbVector((1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    assert eval_q_policy(vec, params, q) == pytest.approx(XI, abs=1e-12)


def test_brute_force_deterministic_pool():
    params = HardParams(k=1)
    q = policy_with(1, {T1: [0.0, 1.0, 0.0, 0.0, 0.0]})  # accept the anchor iff exactly one 1 was sampled
    vec = ProbVector((1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    assert brute_force_eval(vec, params, q) == pytest.approx(XI, abs=1e-12)


def test_eval_matches_brute_force(rng):
    worst = 0.0
    for k in (1, 2, 3):
        params = HardParams(k=k)
        for _ in range(20):
            q = QPolicy.random(k, rng)
            vec = random_member(rng, params)
            gap = abs(eval_q_policy(vec, params, q) - brute_force_eval(vec, params, q))
            worst = max(worst, gap)
    assert worst <= 1e-10


@pytest.mark.parametrize("k", [1, 3, 400, 10_000])
@pytest.mark.parametrize("name", ["random", "zero", "greedy", "all-ones"])
def test_stop_table_kernel_matches_walk_oracle(name, k, rng):
    params = HardParams(k=k)
    policy = named_policy(name, k, rng)
    rows = adversary_candidates(params)
    members = [ProbVector(tuple(row)) for row in rows]
    assert len(members) == 127
    prophet = np.array([family_prophet_value(vec, params) for vec in members])
    got = hardness._member_values(rows, params, policy) / prophet
    want = np.array([walk_oracle(vec, params, policy) for vec in members]) / prophet
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    vec, ratio = adversary(policy, params)
    assert abs(ratio - want.min()) <= 1e-12 * want.min()
    picked = walk_oracle(vec, params, policy) / family_prophet_value(vec, params)
    assert abs(picked - want.min()) <= 1e-12 * want.min()


def test_adversary_makes_two_binom_windows_calls(monkeypatch, rng):
    calls = []

    def counted(n, ps):
        calls.append((n, len(ps)))
        return _binom_windows(n, ps)

    monkeypatch.setattr(hardness, "_binom_windows", counted)
    hardness._adversary_laws.cache_clear()
    adversary(QPolicy.random(20, rng), HardParams(k=20))
    # the 20 nonzero p5 values of the grid, then 1/3 on a window of its own
    assert calls == [(20, 20), (20, 1)]
    # a second policy at the same params scores against the cached laws
    adversary(QPolicy.random(20, rng), HardParams(k=20))
    assert calls == [(20, 20), (20, 1)]
    adversary(QPolicy.random(20, rng), HardParams(k=20, eps=0.001))
    assert calls == [(20, 20), (20, 1)] * 2


@pytest.mark.parametrize("k", [1, 3, 400, 10_000])
@pytest.mark.parametrize("name", ["random", "zero", "greedy", "all-ones"])
def test_adversary_warm_and_cold_calls_match_the_kernel(name, k, rng):
    params = HardParams(k=k)
    policy = named_policy(name, k, rng)
    adversary(policy, params)
    warm = adversary(policy, params)
    hardness._adversary_laws.cache_clear()
    cold = adversary(policy, params)
    rows = adversary_candidates(params)
    ratios = hardness._member_values(rows, params, policy) / hardness._prophet_values(rows, params)
    best = int(np.argmin(ratios))
    want = (tuple(rows[best].tolist()), float(ratios[best]).hex())
    for vec, ratio in (warm, cold):
        assert (vec.values, ratio.hex()) == want


def test_adversary_cache_arrays_are_read_only():
    candidates, prophet, laws = hardness._adversary_laws(HardParams(k=5))
    lo, hi, folded, member_law, weights, tail, spike = laws
    for a in (candidates, prophet, member_law, weights, tail, spike, *(masses for _, masses in folded)):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def test_adversary_cache_keeps_the_8_latest_params():
    hardness._adversary_laws.cache_clear()
    for eps in np.linspace(0.001, 0.01, 10).tolist():
        adversary(QPolicy.constant(4, 0.5), HardParams(k=4, eps=eps))
    assert hardness._adversary_laws.cache_info().currsize == 8


def test_adversary_refuses_a_policy_of_another_k_before_caching():
    hardness._adversary_laws.cache_clear()
    with pytest.raises(ValueError, match="disagree on k"):
        adversary(QPolicy.constant(3, 0.0), HardParams(k=2))
    assert hardness._adversary_laws.cache_info().currsize == 0


@pytest.mark.parametrize("k", [1, 400])
def test_stop_table_levels_keep_the_walk_bits(k, rng):
    for name in ("random", "zero", "greedy", "all-ones"):
        policy = named_policy(name, k, rng)
        want = dense_stop_table(policy)
        assert hardness._stop_table(policy.table).tobytes() == want.tobytes(), name
        assert hardness._stop_table(policy.table[:, k : 2 * k]).tobytes() == want[:, k : 2 * k].tobytes(), name


# Relative gate against the dense per-law fold: the trimmed windows drop at
# most 1e-18 of a law per tail and each mat-vec sums fewer terms. Measured at
# most 8.5e-16, at k = 10^4.
MEMBER_REL = 2e-15


@pytest.mark.parametrize("k", [1, 3, 400, 10_000])
def test_member_values_bits_match_per_law_oracle(k, rng):
    params = HardParams(k=k)
    rows = adversary_candidates(params)
    for name in ("random", "zero", "greedy", "all-ones"):
        policy = named_policy(name, k, rng)
        got = hardness._member_values(rows, params, policy)
        want = per_law_member_values(rows, params, policy)
        assert np.all(np.abs(got - want) <= MEMBER_REL * np.abs(want)), name
    policy = named_policy("random", k, rng)
    # every mix of p2..p4 up to k = 400; at k = 10^4, where a fold of four rows
    # takes 6e8 multiply-adds, four random mixes
    mixes = itertools.product((0.0, ONE_THIRD, 1.0), repeat=3) if k <= 400 else [None] * 4
    for mix in mixes:
        vec = random_member(rng, params)
        if mix is not None:
            vec = ProbVector((1.0, *mix, *vec.values[4:]))
        want = per_law_member_values(np.array([vec.values]), params, policy)[0]
        assert abs(eval_q_policy(vec, params, policy) - want) <= MEMBER_REL * abs(want), vec.values


def exact_member_value(vec: ProbVector, params: HardParams, stops: dict, alive: dict) -> Fraction:
    """hardness._member_values of one member in exact rationals, at the binary
    values of its p and of xi. The ones-count law is the Fraction convolution
    of math.comb binomial bins; stops and alive are the stop table's rows as
    Fractions (exact_stop_table)."""
    k = params.k
    p = [Fraction(v) for v in vec.values]
    law = [Fraction(1)]
    for pi in p[1:5]:
        part = [math.comb(k, i) * pi**i * (1 - pi) ** (k - i) for i in range(k + 1)]
        law = [sum(law[j] * part[i - j] for j in range(max(0, i - k), min(i, len(law) - 1) + 1))
               for i in range(len(law) + k)]

    def chance(bits) -> Fraction:
        return math.prod((p[j + 1] if b else 1 - p[j + 1] for j, b in enumerate(bits)), start=Fraction(1))

    tail = p[5] * k**4
    weighted = [(Fraction(XI), stops[T1])]
    weighted += [(chance(prefix[1:]), row) for prefix, row in stops.items() if prefix != T1]
    weighted += [(chance(bits) * tail, alive[(ANCHOR, *bits)]) for bits in itertools.product((0, 1), repeat=4)]
    no_spike = sum(mass * sum(w * row[i] for w, row in weighted) for i, mass in enumerate(law))
    spike = 1 - (1 - p[5]) ** k
    return spike * tail + (1 - spike) * no_spike


def exact_stop_table(policy: QPolicy) -> tuple[dict, dict]:
    """The stop table walked along PREFIXES on the policy rows as Fractions:
    (stop row per prefix in STOPS, survival row per prefix)."""
    alive: dict[tuple, list] = {}
    stops: dict[tuple, list] = {}
    for prefix in PREFIXES:
        before = alive.get(prefix[:-1], [Fraction(1)] * (4 * policy.k + 1))
        if prefix in STOPS:
            q = [Fraction(x) for x in policy.row(prefix).tolist()]
            stops[prefix] = [b * x for b, x in zip(before, q)]
            alive[prefix] = [b * (1 - x) for b, x in zip(before, q)]
        else:
            alive[prefix] = before
    return stops, alive


# Relative gate against exact rationals. Measured at most 5.4e-16, the same as
# the dense per-law fold's own error on these members.
EXACT_MEMBER_REL = 2e-15


@pytest.mark.parametrize("k", [3, 10])
def test_member_values_match_exact_rationals(k, rng):
    params = HardParams(k=k)
    members = adversary_candidates(params)[::3].tolist()
    members += [(1.0, *mix, params.eps, 0.0) for mix in itertools.product((0.0, ONE_THIRD, 1.0), repeat=3)]
    vals = np.array(members)
    for name in ("random", "greedy"):
        policy = named_policy(name, k, rng)
        table = exact_stop_table(policy)
        got = hardness._member_values(vals, params, policy)
        for g, row in zip(got.tolist(), members):
            want = exact_member_value(ProbVector(tuple(row)), params, *table)
            assert abs(Fraction(g) - want) <= EXACT_MEMBER_REL * want, (name, row)


@pytest.mark.parametrize("p", [0.5, 0.25, float(np.nextafter(ONE_THIRD, 1.0))])
def test_member_values_refuse_p2_to_p4_outside_the_family(monkeypatch, p):
    def no_laws(n, ps):
        raise AssertionError("a law was built")

    monkeypatch.setattr(hardness, "_binom_windows", no_laws)
    params = HardParams(k=3)
    vals = np.array([(1.0, 1.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, p, params.eps, 0.0)])
    with pytest.raises(ValueError, match=r"p2\.\.p4"):
        hardness._member_values(vals, params, QPolicy.constant(3, 0.5))


def test_eval_requires_membership():
    params = HardParams(k=2)
    q = QPolicy.constant(2, 0.0)
    with pytest.raises(ValueError):
        eval_q_policy(ProbVector((1.0, 0.5, 0, 0, 0, 0)), params, q)


def test_eval_requires_matching_k():
    params = HardParams(k=2)
    with pytest.raises(ValueError):
        eval_q_policy(
            ProbVector((1.0, 0, 0, 0, 0, 0)), params, QPolicy.constant(3, 0.0)
        )


# -- over-selection ------------------------------------------------------------------------


def over_selection_score(policy: QPolicy, p: ProbVector, k: int) -> float:
    """Expected chance of stopping within the first two boxes on an all-ones start."""
    dist = ones_count_dist(p, k)
    lo, hi = dist.offset, dist.offset + len(dist.masses)
    q1 = policy.row(T1)[lo:hi]
    q2 = policy.row(T2)[lo:hi]
    return float(np.sum(dist.masses * (q1 + (1.0 - q1) * q2)))


def test_over_selection_constants():
    k = 4
    q = policy_with(k, {T1: 0.3, T2: 0.4})
    vec = ProbVector((1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    assert over_selection_score(q, vec, k) == pytest.approx(0.58, abs=1e-12)
    assert over_selection_score(QPolicy.constant(k, 0.0), vec, k) == 0.0


def test_q_p_expectation_tv_inequality(rng):
    # acceptance gaps across family members are bounded by the ones-count TV
    k = 12
    params = HardParams(k=k)
    for _ in range(40):
        q = QPolicy.random(k, rng)
        va = random_member(rng, params)
        vb = random_member(rng, params)
        da, db = ones_count_dist(va, k), ones_count_dist(vb, k)
        for prefix in (T1, T2, T3):
            gap = abs(
                q_p_expectation(q, prefix, va, k) - q_p_expectation(q, prefix, vb, k)
            )
            assert gap <= tv_distance(da, db) + 1e-12


# -- family instances -------------------------------------------------------------------------


def test_family_prophet_cross_check(rng):
    params = HardParams(k=3)
    for _ in range(20):
        vec = random_member(rng, params)
        direct = family_prophet_value(vec, params)
        via_instance = family_instance(vec, params).prophet_expectation()
        assert direct == pytest.approx(via_instance, rel=1e-12, abs=1e-9)


def test_family_instance_builds_at_the_largest_k():
    params = HardParams(k=10_000)
    inst = family_instance(ProbVector((1.0, 1.0, 0.0, 0.0, 0.0, params.spike_prob)), params)
    assert max(hi for box in inst.boxes for _, _, hi in box.segments) == 1e16


def test_family_prophet_spike_dominates():
    params = HardParams(k=50)
    vec = ProbVector((1.0, 1.0, 0.0, 0.0, 0.0, params.spike_prob))
    assert family_prophet_value(vec, params) >= params.k


# -- mixture comparison ------------------------------------------------------------------------


def test_g_clamp_values():
    params = HardParams(k=100, eps=0.25)
    assert g_clamp(100, params) == 0.25
    assert g_clamp(0, params) == 0.0
    assert g_clamp(100 + 100 ** 2, params) == 1.0
    xs = np.array([0, 100, 150, 100 + 100 ** 2])
    assert np.array_equal(g_clamp(xs, params), [g_clamp(int(x), params) for x in xs])


def test_build_dd_mixture_means():
    params = HardParams(k=200, eps=0.1)
    spec, mix, star = build_dd_mixture(params)
    assert star.mean() == pytest.approx(200 * 1.1, abs=1e-8)
    assert spec.coefficients.sum() == pytest.approx(1.0, abs=1e-10)


# masses of build_dd_mixture recorded by .hex() once it was built on trimmed windows
DD_MIXTURE_DIGESTS = [
    (200, 0.1, "8f891a36aa1f359b6033ebab11c4e8edaaec9abbad1c3abc943444abc5c9131b",
     "c18c77663a14334ba6dd7b97d4cea603508df14f016cefcaf7e3f2961472ceea"),
    (800, 0.1, "52701b798c6d6128699b69f3febee1ca723525d391c6ee233763eff53fead135",
     "1e7f5cae115445d5f0f0766f630c537271975b4085d144c425efd0ee4065fc29"),
    (3200, 0.1, "5f462e3ccb3e40e51fec0215702062cbcb500a579aa594c083e59de4aed59176",
     "81ba00cbd2afe85391ecbe27a49dfb72a29699ea6a96891a09e90cbbeee5ab9c"),
    (800, None, "55e781aae0903fd0612780a6f3e1090d4a7c5cad082adc28624b9eba42693519",
     "abd145c617ba38b5aac4c83270f9436d0ab039be85b452485432b839b8458cc6"),
]


# The ids keep the "altFalse" suffix from when build_dd_mixture also had a
# min(1, eps + g(j)) reading of the ramp, so the case names stay stable.
@pytest.mark.parametrize(
    "k, eps, mix_digest, star_digest",
    DD_MIXTURE_DIGESTS,
    ids=[f"k{k}-eps{eps}-altFalse" for k, eps, _, _ in DD_MIXTURE_DIGESTS],
)
def test_build_dd_mixture_golden(k, eps, mix_digest, star_digest):
    params = HardParams(k=k) if eps is None else HardParams(k=k, eps=eps)
    _, mix, star = build_dd_mixture(params)
    assert (masses_digest(mix), masses_digest(star)) == (mix_digest, star_digest)


def dense_dd_mixture_oracle(params: HardParams) -> tuple[CountDist, CountDist]:
    """build_dd_mixture from dense Bin(k, g(j)) rows, 512 coefficients at a time,
    and the stand-in from the full Bin(3k, 1/3) and Bin(k, eps) rows."""
    k = params.k
    coeff = CountDist(0, dense_binom_pmf_rows(3 * k, [ONE_THIRD])[0])
    success = g_clamp(np.arange(3 * k + 1), params)
    mix_masses = np.zeros(4 * k + 1)
    for start in range(0, 3 * k + 1, 512):
        stop = min(start + 512, 3 * k + 1)
        if coeff.masses[start:stop].any():
            mix_masses[k : 2 * k + 1] += coeff.masses[start:stop] @ dense_binom_pmf_rows(k, success[start:stop])
    noise = CountDist(0, dense_binom_pmf_rows(k, [params.eps])[0])
    return CountDist(0, mix_masses / mix_masses.sum()), convolve(coeff, noise)


# Two units in the last place of 1.0: the trimmed build moved no mass and no
# TV by more than 2.2e-16 on this grid.
DENSE_MIXTURE_TOL = 2 * np.finfo(float).eps


# The name is kept from when the mixture had the dense build's bits, so the case
# ids stay stable. g = 1 rows (eps near 1), chunks that mix g = 0 and interior
# rows, and k = 1e4 at both ends of the ramp's reach.
@pytest.mark.parametrize(
    "k, eps",
    [
        *itertools.product([1, 2, 3, 7, 170, 512, 1365], [0.5, 0.9, 0.99, 0.95, 0.999, 0.3, 0.05]),
        (10_000, 1e-4),
        (10_000, 0.1),
    ],
)
def test_build_dd_mixture_bits_match_the_dense_oracle(k, eps):
    params = HardParams(k=k, eps=eps)
    _, mix, star = build_dd_mixture(params)
    dense_mix, dense_star = dense_dd_mixture_oracle(params)
    assert np.abs(mix.masses - dense_mix.masses).max() <= DENSE_MIXTURE_TOL
    assert np.abs(star.pmf_on(0, 4 * k) - dense_star.pmf_on(0, 4 * k)).max() <= DENSE_MIXTURE_TOL
    assert abs(tv_distance(mix, star) - tv_distance(dense_mix, dense_star)) <= DENSE_MIXTURE_TOL


def test_build_dd_mixture_evaluates_only_the_trimmed_ramp_rows(monkeypatch):
    evaluated = []

    def counted(n, ps):
        evaluated.extend(ps)
        return _binom_windows(n, ps)

    monkeypatch.setattr(hardness, "_binom_windows", counted)
    params = HardParams(k=3200, eps=0.1)
    build_dd_mixture(params)
    # the coefficients kept are those with more than 1e-18 of Bin(9600, 1/3) on
    # each side, and of these only the rows with 0 < g(j) < 1 get a pmf
    # evaluation: 728 rows, of the 2155 ramp rows whose coefficient is above 0.0
    (coeff,) = dense_binom_pmf_rows(3 * 3200, [ONE_THIRD])
    kept = (np.cumsum(coeff) > 1e-18) & (np.cumsum(coeff[::-1])[::-1] > 1e-18)
    success = g_clamp(np.arange(3 * 3200 + 1), params)
    assert np.array_equal(evaluated, success[kept & (success > 0.0) & (success < 1.0)])
    assert len(evaluated) == 728


def exact_dd_mixture(params: HardParams) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """The mixture, the stand-in and their TV in exact rationals with math.comb.

    The laws are those of the binary64 values the build is given: 1/3 is
    ONE_THIRD, and g(j) and eps are taken as the floats g_clamp and HardParams hold.
    """
    k = params.k
    third = Fraction(ONE_THIRD)
    coeff = [math.comb(3 * k, j) * third**j * (1 - third) ** (3 * k - j) for j in range(3 * k + 1)]
    eps = Fraction(params.eps)
    noise = [math.comb(k, i) * eps**i * (1 - eps) ** (k - i) for i in range(k + 1)]
    mix = [Fraction(0)] * (4 * k + 1)
    star = [Fraction(0)] * (4 * k + 1)
    for j, g in enumerate(g_clamp(np.arange(3 * k + 1), params).tolist()):
        g = Fraction(g)
        for i in range(k + 1):
            mix[k + i] += coeff[j] * math.comb(k, i) * g**i * (1 - g) ** (k - i)
            star[j + i] += coeff[j] * noise[i]
    return mix, star, sum(abs(a - b) for a, b in zip(mix, star)) / 2


# Relative gate for each mass and for the TV. Measured at most 2.4e-14 for the
# masses (with 1e-17 absolute for what the trim leaves out; the trim drops at
# most 4e-18) and 1.6e-14 for the TV.
EXACT_MIXTURE_REL = 1e-13


@pytest.mark.parametrize("eps", [0.1, 0.5])
@pytest.mark.parametrize("k", [10, 30])
def test_build_dd_mixture_matches_exact_rationals(k, eps):
    params = HardParams(k=k, eps=eps)
    _, mix, star = build_dd_mixture(params)
    exact_mix, exact_star, exact_tv = exact_dd_mixture(params)
    for got, want in ((mix.masses, exact_mix), (star.masses, exact_star)):
        for g, w in zip(got.tolist(), want):
            assert abs(Fraction(g) - w) <= Fraction(1e-17) + EXACT_MIXTURE_REL * w
    assert abs(Fraction(tv_distance(mix, star)) - exact_tv) <= EXACT_MIXTURE_REL * exact_tv


def test_build_dd_mixture_mean_gap_bound():
    params = HardParams(k=800, eps=0.1)
    _, mix, star = build_dd_mixture(params)
    assert abs(mix.mean() - star.mean()) <= 0.01 * 800 * 0.1


def test_build_dd_mixture_tv_decreasing_smallish():
    tvs = []
    for k in (100, 400):
        _, mix, star = build_dd_mixture(HardParams(k=k, eps=0.1))
        tvs.append(tv_distance(mix, star))
    assert tvs[1] < tvs[0]


# -- certificate --------------------------------------------------------------------------------


def test_certificate_terms_and_value():
    params = HardParams(k=400)
    terms = certificate_terms(params)
    assert terms[0] == pytest.approx(0.4997, abs=1e-12)
    assert terms[1] == pytest.approx(0.4995, abs=1e-12)
    explicit = 0.9 * 0.01 * (8.0 / 27.0) + 0.5005 * (12.0 / 27.0) + 7.0 / 27.0 + 0.0001
    assert terms[2] == pytest.approx(explicit, abs=1e-15)
    assert terms[2] == pytest.approx(0.4844703703703703, abs=1e-12)
    assert certificate(params) == pytest.approx(0.4997, abs=1e-12)


def test_certificate_order_invariance():
    params = HardParams(k=50)
    terms = certificate_terms(params)
    for perm in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
        assert max(terms[i] for i in perm) == certificate(params)


# -- adversary ---------------------------------------------------------------------------------


def test_adversary_canonical_policies():
    params = HardParams(k=400)
    vec, ratio = adversary(QPolicy.constant(400, 0.0), params)
    assert ratio == 0.0
    assert vec.values[5] == 0.0

    greedy = policy_with(400, {T1: 1.0})
    vec, ratio = adversary(greedy, params)
    assert ratio <= 0.01
    assert vec.values[5] == params.spike_prob


def test_adversary_dichotomy(rng):
    # every policy is caught by one of the two analysis branches
    k = 400
    params = HardParams(k=k)
    slack = 2.0 / k
    for _ in range(20):
        q = QPolicy.random(k, rng)
        plain = [
            ProbVector((1.0, 1.0, 0.0, 0.0, float(ell), 0.0))
            for ell in overselection_grid(params)
        ]
        scores = [over_selection_score(q, vec, k) for vec in plain]
        if max(scores) >= DELTA2:
            ell = plain[int(np.argmax(scores))].values[4]
            spiked = ProbVector((1.0, 1.0, 0.0, 0.0, ell, params.spike_prob))
            ratio = eval_q_policy(spiked, params, q) / family_prophet_value(
                spiked, params
            )
            assert ratio <= 1.0 - max(scores) + slack
        else:
            bound = (
                XI * DELTA1
                + DELTA2
                - DELTA1
                + 2.0 * params.eps
            )
            for vec, score in zip(plain, scores):
                anchor_rate = q_p_expectation(q, T1, vec, k)
                ratio = eval_q_policy(vec, params, q) / family_prophet_value(
                    vec, params
                )
                if anchor_rate >= DELTA1:
                    assert ratio <= bound + 1e-9
                else:
                    assert XI * anchor_rate <= XI * DELTA1


def test_adversary_envelope_random(rng):
    params = HardParams(k=400)
    for _ in range(10):
        _, ratio = adversary(QPolicy.random(400, rng), params)
        assert ratio <= 0.51


# Outputs recorded by .hex() while QPolicy still stored all 31 prefix rows and
# the ones-count laws were dense rows. The trimmed-window kernel must pick the
# same member and reproduce each ratio within ADVERSARY_GOLDEN_REL (every
# ratio measured bit for bit). The member is given by its index in
# adversary_candidates.
ADVERSARY_GOLDEN = [
    (1, "random", 0, "0x1.f55dc1881ae53p-3", 0),
    (1, "random", 1, "0x1.87b862d15006cp-1", 126),
    (1, "random", 2, "0x1.7ee2cbf5b9237p-2", 0),
    (1, "zero", None, "0x0.0p+0", 0),
    (1, "greedy", None, "0x1.ccccccccccccdp-1", 0),
    (3, "random", 0, "0x1.4d263aefeb054p-3", 2),
    (3, "random", 1, "0x1.248971bf9cd7fp-2", 1),
    (3, "random", 2, "0x1.6bd851495e3d8p-3", 0),
    (3, "zero", None, "0x0.0p+0", 0),
    (3, "greedy", None, "0x1.22a3b01f89b99p-2", 1),
    (400, "random", 0, "0x1.eb9dcbe83b033p-4", 123),
    (400, "random", 1, "0x1.68c85424f36ddp-7", 3),
    (400, "random", 2, "0x1.dbb5c3523e7e1p-7", 1),
    (400, "zero", None, "0x0.0p+0", 0),
    (400, "greedy", None, "0x1.26fdeb7e06f0dp-9", 7),
]
ADVERSARY_GOLDEN_REL = 4e-16


@pytest.mark.parametrize(
    "k, name, seed, ratio_hex, member",
    ADVERSARY_GOLDEN,
    ids=[f"{n}-{k}-{s}" for k, n, s, _, _ in ADVERSARY_GOLDEN],
)
def test_adversary_golden(k, name, seed, ratio_hex, member):
    params = HardParams(k=k)
    vec, ratio = adversary(named_policy(name, k, np.random.default_rng(seed)), params)
    want = float.fromhex(ratio_hex)
    assert abs(ratio - want) <= ADVERSARY_GOLDEN_REL * want
    assert vec.values == tuple(adversary_candidates(params)[member])


# (k, policy seed, member, eval_q_policy, brute_force_eval), recorded like ADVERSARY_GOLDEN
EVAL_GOLDEN = [
    (1, 0, 0, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    (1, 0, 1, "0x1.70baeeb569be5p-1", "0x1.70baeeb569be6p-1"),
    (1, 0, 2, "0x1.d1fd579120fcep-2", "0x1.d1fd579120fcep-2"),
    (1, 1, 0, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    (1, 1, 1, "0x1.28c0f8ee00b9ap-1", "0x1.28c0f8ee00b9cp-1"),
    (1, 1, 2, "0x1.692f6fc2ca82ep-1", "0x1.692f6fc2ca82dp-1"),
    (2, 0, 0, "0x1.4f1383ce0b3c7p+0", "0x1.4f1383ce0b3c9p+0"),
    (2, 0, 1, "0x1.62e1b035e43d0p-1", "0x1.62e1b035e43cep-1"),
    (2, 0, 2, "0x1.91a050add15f6p-1", "0x1.91a050add15f9p-1"),
    (2, 1, 0, "0x1.829421630e7bfp+0", "0x1.829421630e7c0p+0"),
    (2, 1, 1, "0x1.29cb046604db3p-1", "0x1.29cb046604dacp-1"),
    (2, 1, 2, "0x1.dd2a34cf493aap-1", "0x1.dd2a34cf493aap-1"),
]


def test_eval_and_brute_force_golden():
    for k, seed, member, eval_hex, brute_hex in EVAL_GOLDEN:
        params = HardParams(k=k)
        vec = ProbVector(
            [
                (1.0, ONE_THIRD, 1.0, 0.0, params.eps, params.spike_prob),
                (1.0, ONE_THIRD, ONE_THIRD, ONE_THIRD, params.eps, 0.0),
                (1.0, 1.0, 0.0, 0.0, 2.0 * params.eps, 0.0),
            ][member]
        )
        policy = QPolicy.random(k, np.random.default_rng(10 + seed))
        got = (eval_q_policy(vec, params, policy).hex(), brute_force_eval(vec, params, policy).hex())
        assert got == (eval_hex, brute_hex), (k, seed, member)


# -- policy serialization -----------------------------------------------------------------------


def test_load_policy_reads_sparse_file(tmp_path):
    path = tmp_path / "policy.json"
    entries = [
        {"prefix": [ANCHOR], "i": 0, "q": 0.25},
        {"prefix": [ANCHOR, 0, 1], "i": 8, "q": 1.0},
        {"prefix": [ANCHOR, 0, 1], "i": 3, "q": 0.5},
    ]
    path.write_text(json.dumps({"k": 2, "entries": entries}), encoding="utf-8")
    q = load_policy(str(path))
    assert q.k == 2
    assert q.table.shape == (16, 9)
    assert q.row(T1).tolist() == [0.25] + [0.0] * 8
    assert q.row(T3).tolist() == [0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0]
    for prefix in STOPS:
        if prefix not in (T1, T3):
            assert not q.row(prefix).any()


def test_policy_json_sparse_default():
    q = policy_from_json({"k": 2, "entries": [{"prefix": [ANCHOR, 1], "i": 3, "q": 0.5}]})
    assert q.row(T2)[3] == 0.5
    assert q.row(T2)[0] == 0.0
    assert q.row(T1)[3] == 0.0


def test_policy_json_validation():
    with pytest.raises(ValueError, match="'k'"):
        policy_from_json({})
    with pytest.raises(ValueError, match="prefix"):
        policy_from_json({"k": 2, "entries": [{"prefix": ["nope"], "i": 0, "q": 0.5}]})
    with pytest.raises(ValueError, match="ones-count"):
        policy_from_json({"k": 2, "entries": [{"prefix": [ANCHOR], "i": 9, "q": 0.5}]})
    with pytest.raises(ValueError, match="outside"):
        policy_from_json({"k": 2, "entries": [{"prefix": [ANCHOR], "i": 0, "q": 1.5}]})
    with pytest.raises(ValueError, match="'name' is never read"):
        policy_from_json({"k": 2, "entries": [], "name": "zero"})
    with pytest.raises(ValueError, match=r"'entries\[0\]\.w' is never read"):
        policy_from_json({"k": 2, "entries": [{"prefix": [ANCHOR], "i": 0, "q": 0.5, "w": 1}]})


@pytest.mark.parametrize(
    "obj, match",
    [
        ({"k": 2, "entries": 5}, "'entries' must be a list"),
        ({"k": True, "entries": []}, "integer 'k'"),
        ({"k": 2.7, "entries": []}, "integer 'k'"),
        ({"k": "2", "entries": []}, "integer 'k'"),
        ({"k": 10**15, "entries": [{"prefix": [ANCHOR], "i": 0, "q": 0.5}]}, "integer 'k'"),
        ({"k": 2, "entries": [{"prefix": [ANCHOR], "i": True, "q": 0.5}]}, "not an integer"),
        ({"k": 2, "entries": [{"prefix": [ANCHOR], "i": 2.7, "q": 0.5}]}, "not an integer"),
        ({"k": 2, "entries": [{"prefix": [ANCHOR], "i": 0, "q": True}]}, "not a number"),
        ({"k": 2, "entries": [{"prefix": [ANCHOR], "i": 0, "q": "0.5"}]}, "not a number"),
        ({"k": 2, "entries": [{"prefix": [[ANCHOR]], "i": 0, "q": 0.5}]}, "unknown prefix"),
        ({"k": 2, "entries": [{"prefix": [ANCHOR, True], "i": 0, "q": 0.5}]}, "unknown prefix"),
        ({"k": 2, "entries": [{"prefix": [ANCHOR, 0], "i": 3, "q": 1.0}]},
         r"entry 0 has prefix \['xi', 0\], which ends in 0"),
        ({"k": 2, "entries": [{"prefix": [ANCHOR], "i": 0, "q": 0.5},
                              {"prefix": [ANCHOR, 1, 1, 1, 0], "i": 3, "q": 1.0}]},
         r"entry 1 has prefix \['xi', 1, 1, 1, 0\], which ends in 0"),
    ],
    ids=["entries-number", "k-boolean", "k-fraction", "k-string", "k-above-hardparams", "i-boolean",
         "i-fraction", "q-boolean", "q-string", "prefix-nested", "prefix-boolean", "prefix-ending-in-0",
         "long-prefix-ending-in-0"],
)
def test_policy_json_rejects_non_json_integers(obj, match):
    with pytest.raises(ValueError, match=match):
        policy_from_json(obj)


def test_policy_table_validation():
    with pytest.raises(ValueError, match="shape"):
        QPolicy(k=2, table=np.zeros((31, 9)))
    with pytest.raises(ValueError, match="shape"):
        QPolicy(k=2, table=np.zeros((16, 5)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        QPolicy(k=2, table=np.full((16, 9), 1.5))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        QPolicy(k=2, table=np.full((16, 9), np.nan))
    # a count is an integer: 2.5 and True fail whatever table comes with them
    for k in (0, 2.5, True):
        with pytest.raises(ValueError, match="k must be an integer"):
            QPolicy(k=k, table=np.zeros((16, 5)))


def test_policy_table_is_one_read_only_array_over_stops():
    assert len(STOPS) == 16 and STOPS[0] == T1
    assert all(p[-1] == 1 for p in STOPS[1:])
    assert list(STOPS) == [p for p in PREFIXES if p in STOPS]
    source = np.random.default_rng(5).random((16, 13))
    q = QPolicy(k=3, table=source)
    source[0, 0] = 2.0
    assert q.table.shape == (16, 13) and q.table[0, 0] < 1.0
    assert not q.table.flags.writeable
    assert all(np.array_equal(q.row(p), q.table[j]) for j, p in enumerate(STOPS))
    with pytest.raises(ValueError, match="not in STOPS"):
        q.row((ANCHOR, 0))

