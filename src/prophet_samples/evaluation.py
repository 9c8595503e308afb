"""Exact and Monte Carlo evaluation of threshold rules against the prophet.

Monte Carlo runs are deterministic for a fixed (seed, reps) pair at any worker
count: replications are grouped into fixed-size chunks, each chunk draws from
its own counter-based Philox substream keyed by (seed, purpose, chunk index),
and aggregation uses exact compensated summation, so scheduling cannot change
a single output bit.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from .algorithms import (
    MaxSample,
    ThresholdRule,
    beta_moments,
    effective_rank,
    poly_times_linear,
    static_threshold_values,
    threshold_value_with_rank_law,
    walk_terms,
)
from .distributions import Instance, ValueDist
from .stats import SIZE_CAP, binom_pmf_rows

_MASK64 = (1 << 64) - 1

# Purpose tags keep the substreams of different estimators disjoint.
_TAG_MC = 0x4D43
_TAG_SEMI = 0x5345
_TAG_DOM = 0x444F

_SEMI_CHUNK = 4096
# Array entries per Monte Carlo chunk; a replication costs about n * (k + 2).
_MC_CHUNK_BUDGET = 1 << 21
# Largest pooled sample n * k a replication may draw, so that even a one-row
# chunk stays near the chunk budget.
MC_POOL_CAP = _MC_CHUNK_BUDGET
_DOM_TOL = 1e-9
_EXACT_ENUM_CAP = 300_000
# Largest mass an exact count window leaves out of each tail of a marginal.
_WINDOW_TAIL = 1e-18
# Largest error bound the exact sweep accepts, relative to the value.
_SWEEP_REL_ERR = 1e-12


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Stable 64-bit sub-seed from a base seed and integer tags."""
    h = seed & _MASK64
    for t in tags:
        h = _splitmix64(h ^ (t & _MASK64))
    return h


def _substream(seed: int, tag: int, chunk: int) -> np.random.Generator:
    bitgen = np.random.Philox(counter=[0, 0, chunk, 0], key=[seed & _MASK64, tag])
    return np.random.Generator(bitgen)


def _mc_chunk_size(n: int, k: int) -> int:
    """Rows per chunk; a pure function of the config so schedules cannot vary it.

    Raises ValueError when the pooled sample n * k exceeds MC_POOL_CAP, before
    anything is drawn or allocated.
    """
    if n * k > MC_POOL_CAP:
        raise ValueError(f"pooled sample n*k = {n * k} exceeds the cap of {MC_POOL_CAP}")
    return max(1, min(65536, _MC_CHUNK_BUDGET // max(1, n * (k + 2))))


def _map_chunks(fn: Callable, reps: int, chunk: int, seed: int, tag: int, threads: int) -> list:
    """fn(rows, rng) per chunk of `reps` rows, in chunk order.

    Chunk c holds min(chunk, reps - c * chunk) rows and draws from substream
    (seed, tag, c), so the worker count cannot change what a chunk sees.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    chunks = (reps + chunk - 1) // chunk

    def worker(c: int) -> tuple:
        return fn(min(chunk, reps - c * chunk), _substream(seed, tag, c))

    if threads <= 1 or chunks <= 1:
        return [worker(c) for c in range(chunks)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, range(chunks)))


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    """Algorithm value vs. the prophet's expected maximum.

    ci_halfwidth is a 95% normal halfwidth on alg_value (0 for exact
    evaluations); divide by prophet_value for the halfwidth on the ratio.
    """

    alg_value: float
    prophet_value: float
    ci_halfwidth: float
    reps: int
    seed: int

    def __post_init__(self) -> None:
        if not self.prophet_value > 0.0:
            raise ValueError(f"prophet value {self.prophet_value!r} must be positive to form a ratio")
        if self.ci_halfwidth < 0.0:
            raise ValueError("ci_halfwidth must be nonnegative")

    @property
    def ratio(self) -> float:
        return self.alg_value / self.prophet_value

    @property
    def ratio_ci_halfwidth(self) -> float:
        return self.ci_halfwidth / self.prophet_value


@dataclass(frozen=True)
class DominanceReport:
    """Worst-case tail ratio Pr[ALG >= x] / Pr[max >= x] over a grid."""

    gamma: float
    worst_x: float
    worst_ratio: float
    mode: str = "exact"
    reps: int = 0
    seed: int = 0

    @property
    def passed(self) -> bool:
        return self.worst_ratio >= self.gamma - _DOM_TOL


def _chunk_moments(values: np.ndarray) -> tuple[float, float, int]:
    """(sum, sum of squared deviations from the chunk mean, count) of one chunk."""
    total = float(np.sum(values))
    dev = values - total / len(values)
    return total, float(np.sum(dev * dev)), len(values)


def _finalize_ratio(
    parts: list[tuple[float, float, int]],
    prophet: float,
    reps: int,
    seed: int,
) -> RatioReport:
    """Pool per-chunk (sum, M2, count) moments with Chan's merge.

    Deviations are taken about each chunk's own mean, so values far from 0
    (spikes of 1e8 and more) do not cancel the variance away.
    """
    alg = math.fsum(s for s, _, _ in parts) / reps
    if reps > 1:
        m2 = math.fsum(m for _, m, _ in parts) + math.fsum(n * (s / n - alg) ** 2 for s, _, n in parts)
        ci = 1.96 * math.sqrt(m2 / (reps - 1) / reps)
    else:
        ci = 0.0
    return RatioReport(alg_value=alg, prophet_value=prophet, ci_halfwidth=ci, reps=reps, seed=seed)


# -- full Monte Carlo -------------------------------------------------------------


def _select_pooled(
    samples: np.ndarray, sample_ranks: np.ndarray | None, pos: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per row, the entry at column `pos` of the pool sorted by (value, rank).

    Returns (value, latent rank); the rank is None when `sample_ranks` is.
    A partition gives the value. Its samples strictly below fix how many of
    the tied entries precede the pick, so sorting the ranks of the tied
    entries alone finds it: the same element a full lexsort would read.
    Overwrites `sample_ranks`.
    """
    part = np.partition(samples, pos, axis=1)
    thresh = part[:, pos].copy()
    if sample_ranks is None:
        return thresh, None
    below = np.count_nonzero(part[:, :pos] < thresh[:, None], axis=1)
    del part
    sample_ranks[samples != thresh[:, None]] = np.inf
    sample_ranks.sort(axis=1)
    return thresh, sample_ranks[np.arange(len(thresh)), pos - below]


def _simulate_chunk(
    inst: Instance,
    rule: ThresholdRule,
    k: int,
    rows: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate `rows` replications; returns (accepted value, realized max).

    Draw order is fixed per configuration: pooled samples, sample ranks,
    values, value ranks, then any threshold rank. Latent ranks are drawn only
    when the instance has atoms; without atoms ties are a null event.

    An ordinal rule's threshold is the pooled entry at column n*k - rank in
    (value, latent rank) order. `_select_pooled` finds it with a partition on
    the values, then a sort of the latent ranks of the entries tied with the
    threshold value, every other rank masked to inf.
    """
    n = inst.n
    ranked = inst.has_atoms
    rank = effective_rank(rule)

    if rank is not None:
        if not 1 <= rank <= n * k:
            raise ValueError(f"rank {rank} outside [1, {n * k}]")
        samples = np.empty((rows, n * k))
        for i, box in enumerate(inst.boxes):
            samples[:, i * k : (i + 1) * k] = box.sample_many(rng, (rows, k))
        sample_ranks = rng.random((rows, n * k)) if ranked else None

    values = np.stack([box.sample_many(rng, rows) for box in inst.boxes], axis=1)
    value_ranks = rng.random((rows, n)) if ranked else None

    if rank is not None:
        thresh, thresh_rank = _select_pooled(samples, sample_ranks, n * k - rank)
    else:
        thresh = np.full(rows, rule.t)
        thresh_rank = rng.random(rows) if ranked else None

    out = np.zeros(rows)
    alive = np.ones(rows, dtype=bool)
    for i in range(n):
        vi = values[:, i]
        win = vi > thresh
        if ranked:
            win = win | ((vi == thresh) & (value_ranks[:, i] > thresh_rank))
        take = alive & win
        out[take] = vi[take]
        alive &= ~take
    return out, values.max(axis=1)


def mc_ratio(
    inst: Instance,
    rule: ThresholdRule,
    k: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> RatioReport:
    """Plain Monte Carlo competitive-ratio estimate with an exact denominator."""
    prophet = inst.prophet_expectation()
    chunk = _mc_chunk_size(inst.n, k)

    def run(rows: int, rng: np.random.Generator) -> tuple[float, float, int]:
        accepted, _ = _simulate_chunk(inst, rule, k, rows, rng)
        return _chunk_moments(accepted)

    parts = _map_chunks(run, reps, chunk, seed, _TAG_MC, threads)
    return _finalize_ratio(parts, prophet, reps, seed)


# -- semi-exact ordinal evaluation --------------------------------------------------


def _level_structure(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Descending strata of the pooled sample distribution: (is_atom, los, his, probs).

    Each stratum is either an atom or an open interval between adjacent
    instance breakpoints; probs[i, j] is the chance one sample of box i
    lands in stratum j. Sampling per-stratum counts is an exact factorization
    of drawing k samples per box, and within an interval stratum the points
    are conditionally iid uniform.
    """
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
    keep = probs.sum(axis=0) > 0.0
    levels = [lv for lv, used in zip(levels, keep) if used]
    probs = probs[:, keep]
    is_atom, los, his = (np.array(col) for col in zip(*levels))
    return is_atom, los, his, probs


def semi_exact_ordinal(
    inst: Instance,
    k: int,
    rank: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> RatioReport:
    """Monte Carlo over the sample pool only; the inner value is exact.

    Per replication the rank-th highest sample is drawn from its exact law
    (stratum counts, then an order-statistic Beta within the stratum) and the
    walk value at that threshold is evaluated in closed form, including tie
    masses when the threshold lands on an atom. Atom thresholds cost one walk
    polynomial per atom level per chunk: every row at that level pairs it with
    the Beta moments of its own (count, rank) law. The confidence interval
    reflects threshold randomness alone.
    """
    if not 1 <= rank <= inst.n * k:
        raise ValueError(f"rank {rank} outside [1, {inst.n * k}]")
    prophet = inst.prophet_expectation()
    is_atom, los, his, probs = _level_structure(inst)

    def run(rows: int, rng: np.random.Generator) -> tuple[float, float, int]:
        counts = np.zeros((rows, len(is_atom)), dtype=np.int64)
        for i in range(inst.n):
            counts += rng.multinomial(k, probs[i], size=rows)
        cum = np.cumsum(counts, axis=1)
        lvl = np.argmax(cum >= rank, axis=1)
        rows_idx = np.arange(rows)
        n_at = counts[rows_idx, lvl]
        r = rank - (cum[rows_idx, lvl] - n_at)

        out = np.zeros(rows)
        interval = ~is_atom[lvl]
        if np.any(interval):
            a = los[lvl[interval]]
            b = his[lvl[interval]]
            n_i = n_at[interval].astype(float)
            r_i = r[interval].astype(float)
            pos = rng.beta(n_i + 1.0 - r_i, r_i)
            thresholds = a + (b - a) * pos
            out[interval] = static_threshold_values(inst, thresholds)
        for level in np.unique(lvl[~interval]):
            hit = lvl == level
            out[hit] = threshold_value_with_rank_law(
                inst, float(los[level]), alpha=n_at[hit] + 1 - r[hit], beta=r[hit]
            )
        return _chunk_moments(out)

    parts = _map_chunks(run, reps, _SEMI_CHUNK, seed, _TAG_SEMI, threads)
    return _finalize_ratio(parts, prophet, reps, seed)


# -- exact ordinal evaluation ---------------------------------------------------------


def _trim(row: np.ndarray) -> tuple[int, np.ndarray, float]:
    """(offset, masses, dropped): the shortest run of a pmf row whose two
    tails each hold at most _WINDOW_TAIL, and the mass it leaves out."""
    lo = int(np.searchsorted(np.cumsum(row), _WINDOW_TAIL, side="right"))
    hi = len(row) - int(np.searchsorted(np.cumsum(row[::-1]), _WINDOW_TAIL, side="right"))
    return lo, row[lo:hi], float(row[:lo].sum() + row[hi:].sum())


def _check_window(rows: int, cols: int) -> None:
    if rows * cols > SIZE_CAP:
        raise ValueError(f"a {rows} x {cols} count-law window exceeds the cap of {SIZE_CAP} entries")


def _box_count_law(k: int, above: float, inside: float, below: float) -> tuple[np.ndarray, int, int, float]:
    """Windowed Multinomial(k; above, inside, below) law of one box's counts.

    Returns (pmf, a0, c0, dropped): pmf[i, j] is the chance that a0 + i of
    the box's k samples land above the stratum and c0 + j inside it, and
    dropped bounds the mass outside the window. A category with no mass
    makes the law one-dimensional; a box with a single category is an
    offset alone.
    """
    total = above + inside + below
    if np.count_nonzero([above, inside, below]) == 1:
        return np.ones((1, 1)), k * int(above > 0.0), k * int(inside > 0.0), 0.0
    if inside == 0.0 or below == 0.0:
        # one binomial row: A alone, or A on the antidiagonal C = k - A
        a0, masses, dropped = _trim(binom_pmf_rows(k, [above / total])[0])
        if inside == 0.0:
            return masses[:, None], a0, 0, dropped
        m = len(masses)
        _check_window(m, m)
        pmf = np.zeros((m, m))
        pmf[np.arange(m), np.arange(m - 1, -1, -1)] = masses
        return pmf, a0, k - a0 - m + 1, dropped
    if above == 0.0:
        c0, masses, dropped = _trim(binom_pmf_rows(k, [inside / total])[0])
        return masses[None, :], 0, c0, dropped
    pa, pc, pr = above / total, inside / total, below / total
    rows = binom_pmf_rows(k, [pa, pc])
    a0, ma, da = _trim(rows[0])
    c0, mc, dc = _trim(rows[1])
    _check_window(len(ma), len(mc))
    a = np.arange(a0, a0 + len(ma), dtype=float)[:, None]
    c = np.arange(c0, c0 + len(mc), dtype=float)[None, :]
    rest = k - a - c
    fits = rest >= 0.0
    rest = np.where(fits, rest, 0.0)
    logp = gammaln(k + 1.0) - gammaln(a + 1.0) - gammaln(c + 1.0) - gammaln(rest + 1.0)
    logp += a * math.log(pa) + c * math.log(pc) + rest * math.log(pr)
    return np.where(fits, np.exp(logp), 0.0), a0, c0, da + dc


def _fold(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2-D convolution of two count laws, with the window checked before allocation.

    Laws along one axis fold by direct convolution; only laws that spread
    along both axes go through the FFT, whose rounding noise is clipped at 0.
    """
    shape = (x.shape[0] + y.shape[0] - 1, x.shape[1] + y.shape[1] - 1)
    _check_window(*shape)
    if x.size == 1 or y.size == 1:
        return x * y
    if shape[1] == 1:
        return np.convolve(x[:, 0], y[:, 0])[:, None]
    if shape[0] == 1:
        return np.convolve(x[0], y[0])[None, :]
    return np.maximum(np.fft.irfft2(np.fft.rfft2(x, shape) * np.fft.rfft2(y, shape), shape), 0.0)


def _stratum_polys(inst: Instance, a: float, b: float) -> np.ndarray:
    """The walk value on the open stratum (a, b) as two polynomials, lowest first.

    Row 0 is in s with t = a + (b - a) s, row 1 in s with t = b - (b - a) s;
    evaluating each near the end it expands around keeps thresholds close to
    either end free of cancellation. No atom lies inside the stratum, so the
    walk is tie-free: every CDF is linear in s, and each tail is quadratic,
    factored as (hi - t)(hi + t) as in ValueDist.tail_expectation. The
    degree is at most n + 1.
    """
    out = np.zeros((2, inst.n + 2))
    for value, base, step in ((out[0], a, b - a), (out[1], b, a - b)):
        reach = np.ones(1)
        for box in inst.boxes:
            cdf, tail = np.zeros(2), np.zeros(3)
            for w, lo, hi in box.segments:
                if hi <= a:
                    cdf[0] += w
                elif lo >= b:
                    tail[0] += w * (lo + hi) / 2.0
                else:
                    cdf += w / (hi - lo) * np.array([base - lo, step])
                    tail += (w / (2.0 * (hi - lo))) * np.convolve([hi - base, -step], [hi + base, step])
            value[: len(reach) + 2] += np.convolve(reach, tail)
            reach = np.convolve(reach, cdf)
    return out


def _exact_ordinal_values(inst: Instance, k: int, ranks: Sequence[int]) -> tuple[np.ndarray, float]:
    """exact_ordinal_value at every rank, from one count law per stratum.

    The laws and the stratum polynomials do not depend on the rank, so they
    are built once; the error bound is shared by every rank.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if np.any((ranks < 1) | (ranks > inst.n * k)):
        raise ValueError(f"ranks {ranks.tolist()} not all in [1, {inst.n * k}]")
    is_atom, los, his, probs = _level_structure(inst)
    values = np.zeros(len(ranks))
    dropped = 0.0
    for j in range(len(is_atom)):
        law, a0, c0 = np.ones((1, 1)), 0, 0
        for row in probs:
            pmf, b0, d0, lost = _box_count_law(k, row[:j].sum(), row[j], row[j + 1 :].sum())
            law, a0, c0, dropped = _fold(law, pmf), a0 + b0, c0 + d0, dropped + lost
        ai, ci = np.nonzero(law)
        mass, a, c = law[ai, ci], ai + a0, ci + c0
        # pairs (rank, count) that put the threshold in this stratum, as the
        # r-th highest of its c samples
        which, entry = np.nonzero((a < ranks[:, None]) & (ranks[:, None] <= a + c))
        if not len(which):
            continue
        r, c = ranks[which] - a[entry], c[entry]
        if is_atom[j]:
            vals = threshold_value_with_rank_law(inst, float(los[j]), alpha=c + 1 - r, beta=r)
        else:
            # the position is Beta(c + 1 - r, r) from the bottom, Beta(r, c + 1 - r) from the top
            up = 2 * r <= c + 1
            polys = _stratum_polys(inst, los[j], his[j])
            moments = beta_moments(np.where(up, r, c + 1 - r), np.where(up, c + 1 - r, r), inst.n + 1)
            vals = np.vecdot(moments, polys[up.astype(int)])
        values += np.bincount(which, weights=mass[entry] * vals, minlength=len(ranks))
    return values, dropped * math.fsum(box.mean() for box in inst.boxes)


def exact_ordinal_value(inst: Instance, k: int, rank: int) -> tuple[float, float]:
    """Expected value of the rank-th highest sample threshold rule, and an error bound.

    Per stratum of _level_structure, the pooled counts A above it and C
    inside it have the joint law of a fold of one trinomial per box; the
    threshold lies in the stratum when A < rank <= A + C, as the
    (rank - A)-th highest of its C samples. On an interval stratum the walk
    value is a polynomial in the threshold's position, whose Beta moments
    integrate it; on an atom the tie law does (threshold_value_with_rank_law).
    Count windows leave out at most 1e-18 of mass per tail per box; the
    error bound is the mass left out times sum_i E[v_i], which bounds the
    walk value at any threshold. Raises ValueError before allocating a count
    window of more than stats.SIZE_CAP entries.
    """
    values, err = _exact_ordinal_values(inst, k, [rank])
    return float(values[0]), err


# -- exact laws and stochastic dominance ------------------------------------------------


def _exact_selected_distribution(
    inst: Instance, rule: ThresholdRule, k: int
) -> dict[float, float]:
    """Exact law of the accepted value (all-atoms instances).

    Ordinal rules enumerate the k*n pooled sample draws, up to
    _EXACT_ENUM_CAP. Each pool adds its probability to the rank law
    (t, m + 1 - j, j) of its threshold, the j-th ranked of m samples tied at
    t, and each distinct law is walked once. Explicit thresholds need no
    enumeration. Returns atom -> probability; the missing mass is the
    no-selection event.
    """
    if not inst.is_discrete:
        raise ValueError("exact evaluation requires an all-atoms instance")
    rank = effective_rank(rule)
    dist: dict[float, float] = {}

    def accumulate(t: float, alpha: int, beta: int, weight: float) -> None:
        moments = beta_moments(alpha, beta, inst.n + 1)
        for i, (box, (reach, _)) in enumerate(zip(inst.boxes, walk_terms(inst, t))):
            reach = reach[: i + 1]  # np.dot's summation order depends on the length
            for v, p in box.atoms().items():
                if v > t:
                    sel = reach * p
                elif v == t:
                    # a tied value is taken when its fresh rank beats the threshold's
                    sel = poly_times_linear(reach, p, -p)
                else:
                    continue
                dist[v] = dist.get(v, 0.0) + weight * float(
                    np.dot(sel, moments[: len(sel)])
                )

    if rank is None:
        accumulate(rule.t, 1, 1, 1.0)
        return dist

    slots = [sorted(box.atoms().items()) for box in inst.boxes for _ in range(k)]
    combos = 1
    for s in slots:
        combos *= len(s)
    if combos > _EXACT_ENUM_CAP:
        raise ValueError(f"{combos} sample combinations exceed the enumeration cap")
    if not 1 <= rank <= len(slots):
        raise ValueError(f"rank {rank} outside [1, {len(slots)}]")
    laws: dict[tuple[float, int, int], float] = {}
    for combo in itertools.product(*slots):
        prob = 1.0
        for _, p in combo:
            prob *= p
        pool = sorted((v for v, _ in combo), reverse=True)
        t = pool[rank - 1]
        gt = sum(1 for v in pool if v > t)
        m = sum(1 for v in pool if v == t)
        j = rank - gt
        law = (t, m + 1 - j, j)
        laws[law] = laws.get(law, 0.0) + prob
    for law, weight in laws.items():
        accumulate(*law, weight)
    return dist


def exact_single_sample_value(inst: Instance) -> float:
    """Exact value of the max-sample rule with one sample per box: the mean
    of the exact selected law, for any all-atoms instance under the cap."""
    selected = _exact_selected_distribution(inst, MaxSample(), 1)
    return math.fsum(v * p for v, p in selected.items())


def dominance_check(
    inst: Instance,
    rule: ThresholdRule,
    k: int,
    gamma: float,
    mode: str = "exact",
    reps: int = 0,
    seed: int = 0,
    threads: int = 1,
) -> DominanceReport:
    """Verify Pr[ALG >= x] >= gamma * Pr[max >= x] across a value grid.

    Exact mode enumerates all-atoms instances; mc mode compares empirical
    tails on the breakpoint/midpoint grid. Grid points where the prophet tail
    vanishes are excluded.
    """
    if mode == "exact":
        selected = _exact_selected_distribution(inst, rule, k)
        grid = [x for x in inst.support_atoms() if x > 0.0]
        alg_tail = []
        max_tail = []
        for x in grid:
            alg_tail.append(math.fsum(p for v, p in selected.items() if v >= x))
            max_tail.append(inst.max_exceedance(x))
        pairs = [
            (x, a / m_) for x, a, m_ in zip(grid, alg_tail, max_tail) if m_ > 0.0
        ]
    elif mode == "mc":
        breaks = [b for b in inst.breakpoints() if b > 0.0]
        mids = [0.5 * (a + b) for a, b in zip(breaks, breaks[1:])]
        grid = sorted(set(breaks) | set(mids))
        gx = np.array(grid)
        chunk = _mc_chunk_size(inst.n, k)

        def run(rows: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
            accepted, maxima = _simulate_chunk(inst, rule, k, rows, rng)
            alg_ge = (accepted[:, None] >= gx[None, :]).sum(axis=0)
            max_ge = (maxima[:, None] >= gx[None, :]).sum(axis=0)
            return alg_ge, max_ge

        parts = _map_chunks(run, reps, chunk, seed, _TAG_DOM, threads)
        alg_counts = np.sum([p[0] for p in parts], axis=0)
        max_counts = np.sum([p[1] for p in parts], axis=0)
        pairs = [
            (x, float(a / m_))
            for x, a, m_ in zip(grid, alg_counts, max_counts)
            if m_ > 0
        ]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if not pairs:
        raise ValueError("no grid point has positive prophet tail")
    worst_x, worst_ratio = min(pairs, key=lambda it: (it[1], -it[0]))
    return DominanceReport(
        gamma=gamma,
        worst_x=worst_x,
        worst_ratio=worst_ratio,
        mode=mode,
        reps=reps,
        seed=seed,
    )


# -- adversarial benchmark instances ------------------------------------------------------


# The largest k whose spike bound k^3 + 1 is exact in binary64 (k^3 + 1 <= 2^53).
CASE1_MAX_K = 208_063


def case1_instance(k: int) -> Instance:
    """Two boxes: U(1, 2), then U(0, 1) with a rare huge spike.

    The spike segment U(k^3, k^3 + 1) has weight 1/k^2, so the prophet value
    is at least k while an over-eager threshold rule settles for the first
    box.
    """
    if not 2 <= k <= CASE1_MAX_K:
        raise ValueError(f"k must be in [2, {CASE1_MAX_K}] so k^3 + 1 stays exact in binary64")
    spike_w = 1.0 / (k * k)
    base = float(k) ** 3
    return Instance(
        (
            ValueDist.uniform(1.0, 2.0),
            ValueDist(((1.0 - spike_w, 0.0, 1.0), (spike_w, base, base + 1.0))),
        )
    )


# The largest k for which U(k, k + 1) is still a segment in binary64 (k + 1 <= 2^53).
CASE2_MAX_K = 2**53 - 1


def case2_instance(k: int, n: int) -> Instance:
    """n identical boxes U(k, k + 1): near-equal values punish low thresholds."""
    if not 1 <= k <= CASE2_MAX_K:
        raise ValueError(f"k must be in [1, {CASE2_MAX_K}] so U(k, k + 1) stays a segment in binary64")
    if n < 2:
        raise ValueError("n must be >= 2")
    return Instance(tuple(ValueDist.uniform(float(k), float(k) + 1.0) for _ in range(n)))


def default_case2_boxes(k: int) -> int:
    """Integer floor of k**(1/4), clamped below at 2."""
    return max(2, math.isqrt(math.isqrt(k)))


@dataclass(frozen=True)
class SweepRow:
    rank: int
    case1: RatioReport
    case2: RatioReport

    @property
    def min_ratio(self) -> float:
        return min(self.case1.ratio, self.case2.ratio)


def ordinal_upper_bound_sweep(
    k: int,
    ranks: Sequence[int],
    reps: int | None = None,
    seed: int | None = None,
) -> list[SweepRow]:
    """Per-rank minimum exact ratio over the two adversarial benchmark instances.

    Each instance's count laws, stratum polynomials and prophet value are
    built once for all ranks, and every report has ci_halfwidth 0. Raises
    ValueError when an error bound exceeds 1e-12 of its value. reps and seed
    are ignored; they stay only while bench/workloads.py still passes them.
    """
    reports = []
    for inst in (case1_instance(k), case2_instance(k, default_case2_boxes(k))):
        values, err = _exact_ordinal_values(inst, k, ranks)
        if np.any(err > _SWEEP_REL_ERR * values):
            raise ValueError(f"error bound {err!r} exceeds {_SWEEP_REL_ERR} of a value in {values!r}")
        prophet = inst.prophet_expectation()
        reports.append([RatioReport(float(v), prophet, 0.0, reps=0, seed=0) for v in values])
    return [SweepRow(rank=rank, case1=r1, case2=r2) for rank, r1, r2 in zip(ranks, *reports)]


# -- diagnostics sweeps ---------------------------------------------------------------------


def diagnostics_sandwich_sweep(probes: int, seed: int) -> tuple[int, float]:
    """Probe random (instance, threshold) pairs against the CDF sandwich.

    Returns (violations beyond 1e-12, worst excess). Thresholds cover below,
    inside, and above the supports, including exact breakpoints, and each
    probe also exercises the loud check in threshold_diagnostics.
    """
    from .algorithms import threshold_diagnostics

    rng = np.random.Generator(np.random.Philox(key=[seed & _MASK64, 0x53414E]))
    violations = 0
    worst = -math.inf
    for _ in range(probes):
        inst = random_mixture_instance(rng)
        breaks = inst.breakpoints()
        lo, hi = breaks[0], breaks[-1]
        roll = rng.random()
        if roll < 0.2:
            t = float(breaks[rng.integers(0, len(breaks))])
        else:
            t = float(rng.uniform(lo - 1.0, hi + 1.0))
        diag = threshold_diagnostics(inst, t)
        excess = max(
            (1.0 - diag.g) - diag.f_of_t, diag.f_of_t - math.exp(-diag.g)
        )
        worst = max(worst, excess)
        if excess > 1e-12:
            violations += 1
    return violations, worst


# -- randomized instance corpora -----------------------------------------------------------


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
