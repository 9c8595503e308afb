import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import gammaln, ndtr

from prophet_samples import HardParams, Instance, ProbVector, QPolicy, ValueDist
from prophet_samples.distributions import _gauss_nodes
from prophet_samples.hardness import ANCHOR, PREFIXES, STOPS, T1, XI
from prophet_samples.stats import _WINDOW_TAIL, _trim, binom_pmf_rows


@pytest.fixture
def instance_a() -> Instance:
    """Two boxes: a sure 1, then 2 or 0 with equal odds."""
    return Instance((ValueDist.atom(1.0), ValueDist.discrete({2.0: 0.5, 0.0: 0.5})))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@st.composite
def value_dists(draw, max_segments: int = 3, discrete_only: bool = False) -> ValueDist:
    nseg = draw(st.integers(1, max_segments))
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(nseg)]
    total = sum(raw)
    parts = []
    for w in raw:
        lo = draw(st.floats(0.0, 5.0))
        if discrete_only or draw(st.booleans()):
            parts.append((w / total, lo, lo))
        else:
            width = draw(st.floats(0.1, 3.0))
            parts.append((w / total, lo, lo + width))
    return ValueDist(tuple(parts))


@st.composite
def instances(draw, max_boxes: int = 4, discrete_only: bool = False) -> Instance:
    n = draw(st.integers(1, max_boxes))
    return Instance(
        tuple(draw(value_dists(discrete_only=discrete_only)) for _ in range(n))
    )


_DISCRETE_POOL = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def random_discrete_instance(
    rng: np.random.Generator,
    max_boxes: int = 5,
    max_support: int = 4,
) -> Instance:
    """Small all-atoms instance; shared pool values make cross-box ties common.

    Redraws the rare all-zero-values instance, which has no prophet tail to
    compare against.
    """
    while True:
        n = int(rng.integers(1, max_boxes + 1))
        boxes = []
        for _ in range(n):
            s = int(rng.integers(1, max_support + 1))
            vals = rng.choice(np.array(_DISCRETE_POOL), size=s, replace=False)
            weights = rng.random(s) + 0.05
            weights = weights / weights.sum()
            boxes.append(ValueDist(tuple((w, v, v) for w, v in zip(weights, vals))))
        inst = Instance(tuple(boxes))
        if max(inst.breakpoints()) > 0.0:
            return inst


def poly_times_linear(poly: np.ndarray, a, b) -> np.ndarray:
    """Coefficients of poly(u) * (a + b * u), one degree up, lowest first,
    each a sum of at most two products; batched along trailing axes."""
    out = np.empty((len(poly) + 1,) + poly.shape[1:])
    out[0] = poly[0] * a
    out[1:-1] = poly[1:] * a + poly[:-1] * b
    out[-1] = poly[-1] * b
    return out


def fixed_size_walk_terms(inst: Instance, ts):
    """Reference walk at every threshold in ts: (reach, mass) per box, reach
    padded to n + 1 coefficients along axis 0, or a tie-free degree-0 reach
    when no threshold sits on an atom."""
    ts = np.asarray(ts, dtype=float)
    masses = [box.mass_at(ts) for box in inst.boxes] if inst.has_atoms else None
    if masses is None or not any(np.any(m > 0.0) for m in masses):
        reach = np.ones((1,) + ts.shape)
        for box in inst.boxes:
            yield reach, 0.0
            reach = reach * box.cdf(ts)
        return
    reach = np.zeros((inst.n + 1,) + ts.shape)
    reach[0] = 1.0
    for box, mass in zip(inst.boxes, masses):
        yield reach, mass
        reach = poly_times_linear(reach, box.cdf(ts) - mass, mass)[:-1]


def fixed_size_walk_value(inst: Instance, ts) -> np.ndarray:
    """Reference walk value polynomial, shaped like fixed_size_walk_terms' reach."""
    ts = np.asarray(ts, dtype=float)
    acc = 0.0
    for box, (reach, mass) in zip(inst.boxes, fixed_size_walk_terms(inst, ts)):
        tail = box.tail_expectation(ts)
        if len(reach) == 1:
            acc = acc + reach * tail
        else:
            acc = acc + poly_times_linear(reach, tail + ts * mass, -ts * mass)[:-1]
    return acc


def fixed_size_selected_law(inst: Instance, t: float, moments: np.ndarray) -> dict[float, float]:
    """Reference selected-value law at threshold t whose latent rank has the given moments."""
    dist: dict[float, float] = {}
    for i, (box, (reach, _)) in enumerate(zip(inst.boxes, fixed_size_walk_terms(inst, t))):
        reach = reach[: i + 1]
        for v, p in box.atoms().items():
            if v > t:
                sel = reach * p
            elif v == t:
                sel = poly_times_linear(reach, p, -p)
            else:
                continue
            dist[v] = dist.get(v, 0.0) + float(np.dot(sel, moments[: len(sel)]))
    return dist


def scalar_prophet_expectation(inst: Instance) -> float:
    """Reference E[max_i v_i]: one product_cdf call and one Python add per interval."""
    pts = [0.0] + [p for p in inst.breakpoints() if p > 0.0]
    x, w = _gauss_nodes((inst.n + 2) // 2)
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += float(half * np.sum(w * (1.0 - inst.product_cdf(mid + half * x))))
    return total


def scalar_level_structure(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reference stratum table (los, his, probs, firsts): a list of strata,
    then one scalar entry per (box, stratum) and column."""
    breaks = inst.breakpoints()
    levels: list[tuple[bool, float, float]] = []
    for idx in range(len(breaks) - 1, -1, -1):
        b = breaks[idx]
        if any(box.mass_at(b) > 0.0 for box in inst.boxes):
            levels.append((True, b, b))
        if idx > 0:
            a = breaks[idx - 1]
            levels.append((False, a, b))
    probs = np.zeros((inst.n, len(levels)))
    firsts = np.zeros((inst.n, len(levels)))
    for i, box in enumerate(inst.boxes):
        for j, (atom, a, b) in enumerate(levels):
            if atom:
                probs[i, j] = box.mass_at(a)
            else:
                total = 0.0
                for w, lo, hi in box.segments:
                    if lo < hi and lo <= a and b <= hi:
                        total += w * (b - a) / (hi - lo)
                probs[i, j] = total
            firsts[i, j] = probs[i, j] * ((a + b) / 2.0)
    keep = probs.sum(axis=0) > 0.0
    levels = [lv for lv, used in zip(levels, keep) if used]
    _, los, his = (np.array(col) for col in zip(*levels))
    return los, his, probs[:, keep], firsts[:, keep]


def random_mixture_instance(rng: np.random.Generator) -> Instance:
    """Mixture instance of 2 to 5 boxes of 1 to 3 segments, with heterogeneous
    scales and wide uniform segments."""
    n = int(rng.integers(2, 6))
    boxes = []
    for _ in range(n):
        segs = int(rng.integers(1, 4))
        weights = rng.random(segs) + 0.1
        weights = weights / weights.sum()
        parts = []
        for w in weights:
            if rng.random() < 0.25:
                v = float(rng.uniform(0.0, 3.0))
                parts.append((float(w), v, v))
            else:
                lo = float(rng.uniform(0.0, 2.0))
                width = float(rng.uniform(0.5, 2.5))
                parts.append((float(w), lo, lo + width))
        boxes.append(ValueDist(tuple(parts)))
    return Instance(tuple(boxes))


def set_up_oracle_instances() -> list[Instance]:
    """Instances on which the array set-up passes must match the scalar oracles
    bit for bit: 2000 random mixtures, then named edges."""
    from prophet_samples.distributions import VALUE_MAX
    from prophet_samples.evaluation import (
        CASE1_MAX_K,
        case1_instance,
        case2_instance,
    )

    rng = np.random.default_rng(20261018)
    out = [random_mixture_instance(rng) for _ in range(2000)]
    out += [random_discrete_instance(rng) for _ in range(20)]  # all atoms
    out += [
        case1_instance(2),
        case1_instance(CASE1_MAX_K),
        case2_instance(10_000, 10),
        Instance((ValueDist.atom(1.5),)),
        Instance((ValueDist.atom(0.0),)),
        # an atom at the end of an interval, in its own box and in another
        Instance((ValueDist(((0.5, 0.0, 1.0), (0.5, 1.0, 1.0))), ValueDist.discrete({0.0: 0.3, 2.0: 0.7}))),
        # the only positive value is one box's atom
        Instance((ValueDist.atom(0.0), ValueDist.discrete({0.0: 0.8, 3.0: 0.2}), ValueDist.atom(0.0))),
        # bounds at and near VALUE_MAX
        Instance((ValueDist.uniform(0.0, VALUE_MAX), ValueDist(((0.5, VALUE_MAX / 2, VALUE_MAX), (0.5, VALUE_MAX, VALUE_MAX))))),
        Instance((ValueDist.atom(VALUE_MAX), ValueDist.uniform(VALUE_MAX / 4, VALUE_MAX / 2))),
        # 20 boxes: 11 Gauss nodes per interval, past the 8 terms below which
        # numpy sums a row one term at a time
        Instance(tuple(ValueDist(((0.4, i / 7, 1.0 + i / 3), (0.6, 0.5, 2.0 + i / 5))) for i in range(20))),
    ]
    return out


def brute_force_eval(p: ProbVector, params: HardParams, policy: QPolicy) -> float:
    """Independent oracle: enumerate all 2^(5k) sample pools and 32 value vectors."""
    p.check_membership(params)
    k = params.k
    if k > 3:
        raise ValueError("brute force supports k <= 3 only")
    vals = p.values
    q = {prefix: policy.row(prefix).tolist() for prefix in STOPS}
    box_of_slot = [1 + s // k for s in range(5 * k)]
    total = 0.0
    for sample_bits in itertools.product((0, 1), repeat=5 * k):
        prob_s = 1.0
        for s, bit in enumerate(sample_bits):
            pb = vals[box_of_slot[s]]
            prob_s *= pb if bit else 1.0 - pb
        if prob_s == 0.0:
            continue
        ones = sum(bit for s, bit in enumerate(sample_bits) if box_of_slot[s] <= 4)
        spiked = any(bit for s, bit in enumerate(sample_bits) if box_of_slot[s] == 5)
        inner = 0.0
        for vbits in itertools.product((0, 1), repeat=5):
            prob_v = 1.0
            for idx, bit in enumerate(vbits):
                pb = vals[idx + 1]
                prob_v *= pb if bit else 1.0 - pb
            if prob_v == 0.0:
                continue
            if spiked:
                value = params.spike_value if vbits[4] else 0.0
            else:
                value = XI * q[T1][ones]
                alive = 1.0 - q[T1][ones]
                prefix = T1
                for b in vbits[:4]:
                    prefix = prefix + (b,)
                    if b:
                        qq = q[prefix][ones]
                        value += alive * qq
                        alive *= 1.0 - qq
                if vbits[4]:
                    value += alive * params.spike_value
            inner += prob_v * value
        total += prob_s * inner
    return total


def dense_binom_pmf_rows(n: int, ps) -> np.ndarray:
    """binom_pmf_rows without the window: the log-gamma formula on every column."""
    ps = np.asarray(ps, dtype=float)
    i = np.arange(n + 1, dtype=float)
    lg = gammaln(n + 1.0) - gammaln(i + 1.0) - gammaln(n - i + 1.0)
    rows = np.zeros((len(ps), n + 1))
    interior = (ps > 0.0) & (ps < 1.0)
    if np.any(interior):
        pi = ps[interior][:, None]
        rows[interior] = np.exp(
            lg[None, :] + i[None, :] * np.log(pi) + (n - i)[None, :] * np.log1p(-pi)
        )
    rows[ps == 0.0, 0] = 1.0
    rows[ps == 1.0, n] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


def dense_trimmed_window(n: int, p: float) -> tuple[int, np.ndarray, float]:
    """A stats._trimmed_windows window by the dense rule: the full
    (n + 1)-long binom_pmf_rows row cut by _trim."""
    return _trim(binom_pmf_rows(n, [p])[0], _WINDOW_TAIL)


def dense_tv_binom_vs_normal(n: int, p: float) -> float:
    """tv_binom_vs_normal summed over every bin of [0, n]: the full
    binom_pmf_rows row, ndtr at every edge, and the normal mass off [0, n]."""
    mu, sigma = n * p, math.sqrt(n * p * (1.0 - p))
    edges = (np.arange(n + 2, dtype=float) - 0.5 - mu) / sigma
    core = float(np.abs(binom_pmf_rows(n, [p])[0] - np.diff(ndtr(edges))).sum())
    return core + float(ndtr(edges[0])) + float(1.0 - ndtr(edges[-1]))


def mc_chernoff_tail(ps, delta: float, reps: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo oracle for chernoff_check's tail: the frequency of
    |X - mu| >= delta * mu (|X| > 0 at mu = 0) over reps draws of the
    Bernoulli sum X, one binomial draw per distinct p, and its standard error."""
    ps = np.asarray(ps, dtype=float)
    mu = float(ps.sum())
    totals = np.zeros(reps)
    values, counts = np.unique(ps, return_counts=True)
    for p, cnt in zip(values, counts):
        if p > 0.0:
            totals += rng.binomial(int(cnt), p, size=reps)
    gap = np.abs(totals - mu)
    hits = gap >= delta * mu if mu > 0.0 else gap > 0.0
    freq = float(hits.mean())
    return freq, math.sqrt(max(freq * (1.0 - freq), 1.0 / reps) / reps)


def rational_chernoff_tails(ps, deltas) -> list[Fraction]:
    """Pr[|X - mu| >= delta * mu] in rationals per delta: each distinct p's
    Bin(count, p) law from math.comb bins, convolved exactly; mu and the event
    are evaluated in floating point, as chernoff_check does."""
    ps = np.asarray(ps, dtype=float)
    mu = float(ps.sum())
    law = [Fraction(1)]
    for p, cnt in zip(*np.unique(ps, return_counts=True)):
        q, cnt = Fraction(float(p)), int(cnt)
        part = [math.comb(cnt, x) * q**x * (1 - q) ** (cnt - x) for x in range(cnt + 1)]
        out = [Fraction(0)] * (len(law) + cnt)
        for i, a in enumerate(law):
            for j, b in enumerate(part):
                out[i + j] += a * b
        law = out
    tails = []
    for delta in deltas:
        hit = (lambda x: abs(x - mu) >= delta * mu) if mu > 0.0 else (lambda x: x > 0)
        tails.append(sum((m for x, m in enumerate(law) if hit(float(x))), Fraction(0)))
    return tails


def dense_stop_table(policy: QPolicy) -> np.ndarray:
    """hardness._stop_table on every ones-count, shape (32, 4k+1): the walk
    over PREFIXES one prefix at a time, rows 0..15 the stops s(P, i) in STOPS
    order and rows 16..31 the survival of each path."""
    start = np.ones(4 * policy.k + 1)
    alive: dict[tuple, np.ndarray] = {}
    rows = []
    for prefix in PREFIXES:
        before = alive.get(prefix[:-1], start)
        if prefix in STOPS:
            q = policy.row(prefix)
            rows.append(before * q)
            alive[prefix] = before * (1.0 - q)
        else:
            alive[prefix] = before
    rows += [alive[(ANCHOR, *bits)] for bits in itertools.product((0, 1), repeat=4)]
    return np.array(rows)


def per_law_member_values(vals: np.ndarray, params: HardParams, policy: QPolicy) -> np.ndarray:
    """hardness._member_values on dense laws: one ones_count_dist call per
    distinct (sorted p2..p4, p5) key, each law built from its first member's
    p2..p5 on full (k+1)-wide binomial rows, and the full-width stop table."""
    from prophet_samples.hardness import _ROW_BITS, _spike_prob, ones_count_dist

    table = dense_stop_table(policy)
    rows = vals.tolist()
    laws: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        laws.setdefault((*sorted(row[1:4]), row[4]), []).append(i)
    pooled = np.empty((len(rows), len(table)))
    for idx in laws.values():
        dist = ones_count_dist(ProbVector(tuple(rows[idx[0]])), params.k)
        pooled[idx] = table[:, dist.offset : dist.offset + len(dist.masses)] @ dist.masses

    factors = np.stack([1.0 - vals[:, 1:5], vals[:, 1:5], np.ones((len(vals), 4))], axis=-1)
    weights = np.prod(factors[:, np.arange(4), _ROW_BITS], axis=-1)
    tail = vals[:, 5] * params.spike_value
    weights[:, 0] *= XI
    weights[:, len(STOPS) :] *= tail[:, None]
    no_spike = np.vecdot(weights, pooled)
    spike = np.array([_spike_prob(row[5], params.k) for row in rows])
    return spike * tail + (1.0 - spike) * no_spike


def probe_instances(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[Instance]:
    """Each sandwich probe of evaluation._sandwich_probes as an Instance of
    ValueDists, leaving out the absent segments and boxes (lo = inf)."""
    out = []
    for pw, plo, phi in zip(w.tolist(), lo.tolist(), hi.tolist()):
        boxes = []
        for segs in zip(pw, plo, phi):
            live = [seg for seg in zip(*segs) if seg[1] != np.inf]
            if live:
                boxes.append(ValueDist(tuple(live)))
        out.append(Instance(tuple(boxes)))
    return out
