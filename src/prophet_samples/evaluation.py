"""Exact and Monte Carlo evaluation of threshold rules against the prophet.

Monte Carlo runs are deterministic for a fixed (seed, reps) pair at any worker
count: replications are grouped into fixed-size chunks, each chunk draws from
its own PCG64DXSM substream keyed by (seed, purpose, chunk index), and
aggregation uses exact compensated summation, so scheduling cannot change a
single output bit. The CDF sandwich sweep draws its probe chunks from the
same substreams under its own purpose tag.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import gammaln

from .algorithms import (
    _SANDWICH_TOL,
    ThresholdRule,
    _stratum_walk,
    beta_moments,
    effective_rank,
    walk_reach,
    walk_value,
)
from .distributions import SIZE_CAP, Instance, ValueDist, _is_int, _level_structure, _prophet_value
from .stats import _trimmed_windows

_MASK64 = (1 << 64) - 1

# Purpose tags keep the substreams of different estimators disjoint.
_TAG_MC = 0x4D43
_TAG_SEMI = 0x5345
_TAG_SANDWICH = 0x5341

_SEMI_CHUNK = 4096
# Probes per sandwich-sweep chunk; its (probes, 5, 3) arrays peak near 5.5 MB.
_SANDWICH_CHUNK = 4096
# Array entries per Monte Carlo chunk, where a row draws n*k samples, n values
# and n ranks; also the largest pooled sample n * k a replication may draw, so
# that even a one-row chunk stays near this budget.
MC_POOL_CAP = 1 << 21
# Largest worker count a chunk map accepts. Worker pools outlive the call, so
# the count is bounded before any pool exists.
MAX_THREADS = 64
_DOM_TOL = 1e-9
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
    """The PCG64DXSM stream of chunk `chunk` for purpose `tag` under `seed`.

    SeedSequence hashes the 64-bit seed with spawn key (tag, chunk), numpy's
    way to key independent parallel streams, so each (seed, tag, chunk)
    names one fixed stream whatever the worker count.
    """
    seq = np.random.SeedSequence(seed & _MASK64, spawn_key=(tag, chunk))
    return np.random.Generator(np.random.PCG64DXSM(seq))


def _mc_chunk_size(n: int, k: int) -> int:
    """Rows per chunk; a pure function of the config so schedules cannot vary it.

    Raises ValueError when the pooled sample n * k exceeds MC_POOL_CAP, before
    anything is drawn or allocated.
    """
    if n * k > MC_POOL_CAP:
        raise ValueError(f"pooled sample n*k = {n * k} exceeds the cap of {MC_POOL_CAP}")
    return max(1, min(65536, MC_POOL_CAP // max(1, n * (k + 2))))


@lru_cache(maxsize=4)
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide pool of `threads` workers, built on first use.

    Its threads start lazily, at most one per chunk in flight, and then stay
    for the next map. A pool evicted from the cache shuts its threads down
    once the last map using it has returned and dropped it.
    """
    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix=f"prophet-samples-{threads}")


def _map_chunks(fn: Callable, reps: int, chunk: int, seed: int, tag: int, threads: int) -> list:
    """fn(rows, rng) per chunk of `reps` rows, in chunk order.

    Chunk c holds min(chunk, reps - c * chunk) rows and draws from substream
    (seed, tag, c), so the worker count cannot change what a chunk sees. With
    threads > 1 the chunks run on the shared pool of that many workers
    (`_pool`), which every map at that worker count reuses, so repeated runs
    do not start fresh threads. Raises ValueError above MAX_THREADS workers,
    before any pool is built.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if threads > MAX_THREADS:
        raise ValueError(f"threads = {threads} exceeds the cap of {MAX_THREADS}")
    chunks = (reps + chunk - 1) // chunk

    def worker(c: int) -> tuple:
        return fn(min(chunk, reps - c * chunk), _substream(seed, tag, c))

    if threads <= 1 or chunks <= 1:
        return [worker(c) for c in range(chunks)]
    return list(_pool(threads).map(worker, range(chunks)))


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    """Algorithm value vs. the prophet's expected maximum.

    ci_halfwidth is a 95% normal halfwidth on alg_value (0 for exact
    evaluations); divide by prophet_value for the halfwidth on the ratio.
    The replication count and seed are the caller's, so it keeps no copy.
    """

    alg_value: float
    prophet_value: float
    ci_halfwidth: float

    def __post_init__(self) -> None:
        if not self.prophet_value > 0.0:
            raise ValueError(f"prophet value {self.prophet_value!r} must be positive to form a ratio")
        if self.ci_halfwidth < 0.0:
            raise ValueError("ci_halfwidth must be nonnegative")

    @property
    def ratio(self) -> float:
        return self.alg_value / self.prophet_value


@dataclass(frozen=True)
class DominanceReport:
    """Worst-case tail ratio Pr[ALG >= x] / Pr[max >= x] over a grid."""

    gamma: float
    worst_x: float
    worst_ratio: float

    @property
    def passed(self) -> bool:
        return self.worst_ratio >= self.gamma - _DOM_TOL


def _chunk_moments(values: np.ndarray) -> tuple[float, float, int]:
    """(sum, sum of squared deviations from the chunk mean, count) of one chunk."""
    total = float(np.sum(values))
    dev = values - total / len(values)
    return total, float(np.sum(dev * dev)), len(values)


def _finalize_ratio(parts: list[tuple[float, float, int]], prophet: float, reps: int) -> RatioReport:
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
    return RatioReport(alg_value=alg, prophet_value=prophet, ci_halfwidth=ci)


def _check_ranks(n: int, k, ranks: Sequence) -> None:
    """Raise ValueError unless k is an integer and every rank an integer in
    [1, n k]. Numpy integers pass; a float or a bool does not, whatever its value."""
    if not _is_int(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    for rank in ranks:
        if not _is_int(rank):
            raise ValueError(f"rank must be an integer, got {rank!r}")
        if not 1 <= rank <= n * k:
            raise ValueError(f"rank {rank} outside [1, {n * k}]")


# -- full Monte Carlo -------------------------------------------------------------


def _tie_law(part: np.ndarray, thresh: np.ndarray, pos: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the Beta(j, above + 1) law of the latent rank of the pick at `pos`.

    Each row of `part` is partitioned at `pos`, which holds `thresh`. Of the
    entries tied with it, j - 1 = pos - below precede it (`below` entries lie
    strictly under it) and `above` follow it, so it is the j-th smallest of
    j + above iid uniform ranks.
    """
    col = thresh[:, None]
    j = pos + 1 - np.count_nonzero(part[:, :pos] < col, axis=1)
    return j, np.count_nonzero(part[:, pos + 1 :] == col, axis=1) + 1


def _simulate_chunk(
    inst: Instance, rule: ThresholdRule, k: int, rows: int, rng: np.random.Generator
) -> np.ndarray:
    """Simulate `rows` replications; returns the accepted value of each (0 when none is).

    Draw order is fixed per configuration: pooled samples, values, value
    ranks, then the threshold's rank. Latent ranks are drawn only when the
    instance has atoms; without atoms ties are a null event.

    The threshold is the pooled entry at column n*k - rank in (value, latent
    rank) order: a partition in place gives its value, and one draw from
    `_tie_law` per row its latent rank, with no rank per sample. mc_ratio has
    checked that the rank lies in [1, n*k].
    """
    n = inst.n
    ranked = inst.has_atoms
    pos = n * k - effective_rank(rule)
    samples = np.empty((rows, n * k))
    for i, box in enumerate(inst.boxes):
        samples[:, i * k : (i + 1) * k] = box.sample_many(rng, (rows, k))
    samples.partition(pos, axis=1)
    thresh = samples[:, pos].copy()
    if ranked:
        law = _tie_law(samples, thresh, pos)

    values = np.stack([box.sample_many(rng, rows) for box in inst.boxes], axis=1)
    if ranked:
        value_ranks = rng.random((rows, n))
        thresh_rank = rng.beta(*law)

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
    return out


def mc_ratio(
    inst: Instance,
    rule: ThresholdRule,
    k: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> RatioReport:
    """Plain Monte Carlo competitive-ratio estimate with an exact denominator.

    A rank outside [1, n*k] raises ValueError before anything runs.
    """
    _check_ranks(inst.n, k, [effective_rank(rule)])
    prophet = inst.prophet_expectation()
    chunk = _mc_chunk_size(inst.n, k)

    def run(rows: int, rng: np.random.Generator) -> tuple[float, float, int]:
        accepted = _simulate_chunk(inst, rule, k, rows, rng)
        return _chunk_moments(accepted)

    parts = _map_chunks(run, reps, chunk, seed, _TAG_MC, threads)
    return _finalize_ratio(parts, prophet, reps)


# -- semi-exact ordinal evaluation --------------------------------------------------


def _conditional_probs(probs: np.ndarray) -> np.ndarray:
    """cond[i, j] = probs[i, j] / tail[i, j], where tail[i, j] is box i's mass
    in stratum j and below (0 where that mass is 0).

    Drawing Binomial(left, cond[i, j]) of box i's `left` unplaced samples into
    stratum j, from the top stratum down, is the Multinomial(k, probs[i])
    count law. cond is exactly 1 at a box's last stratum with mass, and may
    round to 1 above it where the mass below is under an ulp of probs[i, j].
    """
    tail = np.cumsum(probs[:, ::-1], axis=1)[:, ::-1]
    return np.divide(probs, tail, out=np.zeros_like(probs), where=tail > 0.0)


def _threshold_strata(
    cond: np.ndarray, k: int, rank: int, rows: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(level, c, r) per replication when each box i draws k samples over the
    strata by the conditional probabilities cond[i] (_conditional_probs): its
    rank-th highest pooled sample is the r-th highest of the c samples in
    stratum `level`.

    Walking the strata from the top down, box i puts Binomial(left,
    cond[i, j]) of its `left` unplaced samples in stratum j. A row leaves
    once its counts reach `rank`, and the walk stops when no row is left, so
    no stratum below the deepest threshold is drawn. A box with no mass in a
    stratum draws nothing there, and a box whose cond is 1 puts all it has
    left in the stratum without a draw.
    """
    level = np.empty(rows, dtype=np.int64)
    c = np.empty(rows, dtype=np.int64)
    r = np.empty(rows, dtype=np.int64)
    idx = np.arange(rows)
    left = np.full((len(cond), rows), k, dtype=np.int64)
    above = np.zeros(rows, dtype=np.int64)
    for j, col in enumerate(cond.T):
        # one call, box by box, for the boxes that split what they have left
        draw = np.flatnonzero((col > 0.0) & (col < 1.0))
        got = rng.binomial(left[draw], col[draw, None])
        left[draw] -= got
        sure = col == 1.0
        here = got.sum(axis=0) + left[sure].sum(axis=0)
        left[sure] = 0
        found = above + here >= rank
        if found.any():
            done = idx[found]
            level[done], c[done], r[done] = j, here[found], rank - above[found]
            if len(done) == len(idx):
                break
            keep = ~found
            idx, left, above, here = idx[keep], left[:, keep], above[keep], here[keep]
        above += here
    return level, c, r


def semi_exact_ordinal(
    inst: Instance,
    k: int,
    rank: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> RatioReport:
    """Monte Carlo over the pooled stratum counts only; the value given them is exact.

    Each replication draws its counts stratum by stratum from the top down,
    as conditional binomials (_threshold_strata), and stops at the stratum
    of the rank-th highest sample: those counts fix the stratum and the
    sample's rank r among the c samples there, and no stratum below it is
    drawn. _stratum_values integrates the threshold's position out of the
    stratum table (_level_structure), atom or interval alike, within 6.9e-16
    relative of exact rationals, with one call per stratum hit in a chunk.
    The confidence interval reflects count randomness alone, so where every
    replication draws the same counts (case2) this is exact_ordinal_value.
    """
    _check_ranks(inst.n, k, [rank])
    los, his, probs, firsts = _level_structure(inst)
    cond = _conditional_probs(probs)
    prophet = _prophet_value(los, his, probs)

    def run(rows: int, rng: np.random.Generator) -> tuple[float, float, int]:
        lvl, n_at, r = _threshold_strata(cond, k, rank, rows, rng)
        out = np.empty(rows)
        for level in np.unique(lvl):
            hit = lvl == level
            out[hit] = _stratum_values(probs, firsts, level, los[level], his[level], n_at[hit], r[hit])
        return _chunk_moments(out)

    parts = _map_chunks(run, reps, _SEMI_CHUNK, seed, _TAG_SEMI, threads)
    return _finalize_ratio(parts, prophet, reps)


# -- exact ordinal evaluation ---------------------------------------------------------


def _check_window(rows: int, cols: int) -> None:
    if rows * cols > SIZE_CAP:
        raise ValueError(f"a {rows} x {cols} count-law window exceeds the cap of {SIZE_CAP} entries")


def _box_count_law(k: int, above: float, inside: float, below: float) -> tuple[np.ndarray, int, int, float]:
    """Windowed Multinomial(k; above, inside, below) law of one box's counts.

    Returns (pmf, a0, c0, dropped): pmf[i, j] is the chance that a0 + i of
    the box's k samples land above the stratum and c0 + j inside it, and
    dropped bounds the mass outside the window (stats._trimmed_windows).
    A category with no mass makes the law one-dimensional; a box whose mass
    rounds into a single category is an offset alone.
    """
    total = above + inside + below
    if inside == 0.0 or below == 0.0:
        # one binomial row: A alone, or A on the antidiagonal C = k - A
        ((a0, masses, dropped),) = _trimmed_windows(k, [above / total])
        if inside == 0.0:
            return masses[:, None], a0, 0, dropped
        m = len(masses)
        _check_window(m, m)
        pmf = np.zeros((m, m))
        pmf[np.arange(m), np.arange(m - 1, -1, -1)] = masses
        return pmf, a0, k - a0 - m + 1, dropped
    if above == 0.0:
        ((c0, masses, dropped),) = _trimmed_windows(k, [inside / total])
        return masses[None, :], 0, c0, dropped
    pa, pc, pr = above / total, inside / total, below / total
    (a0, ma, da), (c0, mc, dc) = _trimmed_windows(k, [pa, pc])
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
    if x.size == 1 or y.size == 1 or x.shape[1] == y.shape[0] == 1 or x.shape[0] == y.shape[1] == 1:
        return x * y
    if shape[1] == 1:
        return np.convolve(x[:, 0], y[:, 0])[:, None]
    if shape[0] == 1:
        return np.convolve(x[0], y[0])[None, :]
    return np.maximum(np.fft.irfft2(np.fft.rfft2(x, shape) * np.fft.rfft2(y, shape), shape), 0.0)


def _stratum_values(probs: np.ndarray, firsts: np.ndarray, j: int, lo: float, hi: float, c, r) -> np.ndarray:
    """_stratum_walk on stratum j = [lo, hi] of the table (probs, firsts)
    (_level_structure): each box's mass in it, its mass below it and its
    first moment above it, per pair of the integer arrays c and r."""
    inside, below, up = probs[:, j], probs[:, j + 1 :].sum(axis=1), firsts[:, :j].sum(axis=1)
    return _stratum_walk(inside, below, up, lo, hi, c, r)


def _stratum_counts(
    probs: np.ndarray, k: int, ranks: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]]:
    """Per stratum of the table `probs` (_level_structure), in order, the
    pairs (a, c) of the pooled counts A above it and C inside it, with mass
    > 0, that put a rank's threshold there: a < rank <= a + c, as the r-th
    highest of the c samples, r = rank - a. Yields (which, mass, c, r,
    dropped), one entry per such rank and pair, which indexing `ranks`, and
    the mass the count windows left out. Raises ValueError unless every rank
    is in [1, n k].

    The law of (A, C) when each box draws k samples is a fold of one
    windowed trinomial per box (_box_count_law).
    """
    _check_ranks(len(probs), k, ranks)
    ranks = np.asarray(ranks, dtype=np.int64)
    for j in range(probs.shape[1]):
        law, a0, c0, dropped = np.ones((1, 1)), 0, 0, 0.0
        for row in probs:
            pmf, b0, d0, lost = _box_count_law(k, row[:j].sum(), row[j], row[j + 1 :].sum())
            law, a0, c0, dropped = _fold(law, pmf), a0 + b0, c0 + d0, dropped + lost
        ai, ci = np.nonzero(law)
        a, c = ai + a0, ci + c0
        which, entry = np.nonzero((a < ranks[:, None]) & (ranks[:, None] <= a + c))
        yield which, law[ai, ci][entry], c[entry], ranks[which] - a[entry], dropped


def _exact_ordinal_values(inst: Instance, table: tuple, k: int, ranks: Sequence[int]) -> tuple[np.ndarray, float]:
    """exact_ordinal_value at every rank, from one count law per stratum of
    the instance's stratum table (_level_structure).

    The laws and the stratum polynomials do not depend on the rank, so they
    are built once; the error bound is shared by every rank.
    """
    los, his, probs, firsts = table
    values = np.zeros(len(ranks))
    dropped = 0.0
    for j, (which, mass, c, r, lost) in enumerate(_stratum_counts(probs, k, ranks)):
        dropped += lost
        if len(which):
            vals = _stratum_values(probs, firsts, j, los[j], his[j], c, r)
            values += np.bincount(which, weights=mass * vals, minlength=len(ranks))
    return values, dropped * math.fsum(box.mean() for box in inst.boxes)


def exact_ordinal_value(inst: Instance, k: int, rank: int) -> tuple[float, float]:
    """Expected value of the rank-th highest sample threshold rule, and err,
    a bound on the error from the mass the count windows leave out.

    Per stratum of _level_structure, the pooled counts A above it and C
    inside it have the joint law of a fold of one trinomial per box; the
    threshold lies in the stratum when A < rank <= A + C, as the
    (rank - A)-th highest of its C samples. The walk value is a polynomial
    in the threshold's position, its latent rank on an atom, whose Beta
    moments integrate it (_stratum_values). Count windows
    (stats._trimmed_windows) leave out at most 2e-18 of mass per tail per
    box; err is a bound on the mass left out times sum_i E[v_i], which
    bounds the walk value at any threshold. err does not cover
    floating-point rounding, which is larger: the log-gamma trinomial
    masses are up to 1.2e-12 relative off exact rationals at k = 1000. With
    each box's trinomial replaced by correctly rounded masses (50-digit
    mpmath), same windows and fold, two-box atom instances moved by 1.1e-12
    relative at k = 1000 and 9.4e-12 at k = 10_000, while err read 5.8e-17
    to 6.3e-16. Raises ValueError before allocating a count window of more
    than distributions.SIZE_CAP entries.
    """
    values, err = _exact_ordinal_values(inst, _level_structure(inst), k, [rank])
    return float(values[0]), err


# -- exact laws and stochastic dominance ------------------------------------------------


def _exact_tails(inst: Instance, rank: int, k: int, grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(Pr[ALG accepts a value >= x], Pr[max_i v_i >= x]) at each x of `grid`,
    exactly, on any instance, for the rank-th highest sample threshold rule.

    Both read the stratum table cut at the grid (_level_structure), so that
    no stratum straddles a grid point: each box's Pr[v >= x] is the sum of
    its columns with lo >= x, exactly 0 at and above the top of its support,
    and the prophet tail is 1 - prod_i (1 - Pr[v_i >= x]). A box the walk
    reaches pays Pr[v >= x] while the threshold t lies below x, and once
    t >= x it pays 1 - stay, the chance its value beats t. The threshold
    lies in a stratum when the pooled counts A above it and C inside it
    (_stratum_counts) satisfy A < rank <= A + C, as the r-th highest of the
    C samples there, r = rank - A: on an atom its latent rank, on an
    interval its position from the bottom, is Beta(C + 1 - r, r), and every
    stay and accept is linear in it, with the box's masses from the table.
    In the cut table a whole stratum lies below x or at or above it. At
    x = 0 the first tail is the chance that anything is accepted. Against
    exact rationals over the instance's floats, on 5,719 max-sample tails at
    k = 1 at the dominance grid of 300 random atomless mixtures, the worst
    tail was 5.1e-16 absolute off (p90 2.2e-16); every cut adds a stratum
    whose count law carries the fold's rounding.

    The count windows leave out at most 2e-18 of mass per tail for each box
    and stratum. That bounds the error from the windows only: a count law
    that spreads along both axes folds through the FFT (_fold), whose
    rounding is absolute, below 3e-16 of the unit mass per entry; summed
    over a tail's entries it reached 8.0e-15 against direct 2-D convolution
    on random mixtures at k = 50 to 400. So a small tail can be off by much
    more than 1e-12 relative (1.9e-11 on a mass of 3.4e-8 at k = 3). Raises
    ValueError before allocating a stratum table or a count window of more
    than distributions.SIZE_CAP entries.
    """
    xs = np.asarray(grid, dtype=float)
    los, _, probs, _ = _level_structure(inst, xs)
    # Pr[v_i >= x], one row per box; in C order the boxes add up row by row
    beats = np.array([probs[:, los >= x].sum(axis=1) for x in xs]).reshape(-1, inst.n).T.copy()
    tails = np.zeros(len(xs))
    for j, (_, mass, c, beta, _) in enumerate(_stratum_counts(probs, k, [rank])):
        if not len(mass):
            continue
        stays = np.column_stack((probs[:, j + 1 :].sum(axis=1), probs[:, j]))
        accepts = np.column_stack((probs[:, : j + 1].sum(axis=1), -probs[:, j]))
        # the threshold's position moments where it lies below x, and where not
        below = (xs > los[j])[:, None]
        moments = mass @ beta_moments(c + 1 - beta, beta, inst.n)
        under, over = np.where(below, moments, 0.0), np.where(below, 0.0, moments)
        reached = np.array([under[:, : len(r)] @ r for r in walk_reach(stays)])
        tails += np.sum(reached * beats, axis=0) + over @ walk_value(stays, accepts, inst.n + 1)
    return tails, 1.0 - np.prod(1.0 - beats, axis=0)


def exact_single_sample_value(inst: Instance) -> float:
    """Exact value of the max-sample rule with one sample per box, on any instance."""
    return exact_ordinal_value(inst, 1, 1)[0]


def dominance_check(
    inst: Instance,
    rule: ThresholdRule,
    k: int,
    gamma: float,
    mode: str = "exact",
) -> DominanceReport:
    """Verify Pr[ALG >= x] >= gamma * Pr[max >= x] across a value grid.

    The grid is the positive breakpoints plus the midpoint of each interval
    stratum, less a point where the prophet tail is 0: the top of a support
    that ends in an interval. Both tails are exact (_exact_tails) on any
    instance, column sums of one stratum table cut at the grid. Against
    exact rationals on 300 random atomless mixtures at k = 1, the worst
    ratio was 8.9e-16 relative off. Raises ValueError before allocating a
    cut table or count window of more than distributions.SIZE_CAP entries.
    mode must be "exact", the only mode.
    """
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}; the only mode is 'exact'")
    los, his, _, _ = _level_structure(inst)
    mids = (0.5 * (los + his))[los < his]
    grid = sorted(x for x in {*inst.breakpoints(), *mids.tolist()} if x > 0.0)
    alg, prophet = _exact_tails(inst, effective_rank(rule), k, grid)
    pairs = [(x, a / m_) for x, a, m_ in zip(grid, alg.tolist(), prophet.tolist()) if m_ > 0.0]
    if not pairs:
        raise ValueError("no grid point has positive prophet tail")
    worst_x, worst_ratio = min(pairs, key=lambda it: (it[1], -it[0]))
    return DominanceReport(
        gamma=gamma,
        worst_x=worst_x,
        worst_ratio=worst_ratio,
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
    if not _is_int(k) or not 2 <= k <= CASE1_MAX_K:
        raise ValueError(f"k = {k!r} must be an integer in [2, {CASE1_MAX_K}] so k^3 + 1 stays exact in binary64")
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
    if not _is_int(k) or not 1 <= k <= CASE2_MAX_K:
        raise ValueError(
            f"k = {k!r} must be an integer in [1, {CASE2_MAX_K}] so U(k, k + 1) stays a segment in binary64"
        )
    if not _is_int(n) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
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
        table = _level_structure(inst)
        values, err = _exact_ordinal_values(inst, table, k, ranks)
        if np.any(err > _SWEEP_REL_ERR * values):
            raise ValueError(f"error bound {err!r} exceeds {_SWEEP_REL_ERR} of a value in {values!r}")
        prophet = _prophet_value(*table[:3])
        reports.append([RatioReport(float(v), prophet, 0.0) for v in values])
    return [SweepRow(rank=rank, case1=r1, case2=r2) for rank, r1, r2 in zip(ranks, *reports)]


# -- diagnostics sweeps ---------------------------------------------------------------------


def _sandwich_probes(rows: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`rows` sandwich probes as (w, lo, hi, t): segments in (rows, 5, 3) arrays, thresholds in (rows,).

    A probe is a mixture of 2 to 5 boxes of 1 to 3 segments, weights
    U(0, 1) + 0.1 normalized per box, each segment an atom
    on U(0, 3) with chance 1/4 and otherwise U(0, 2) plus a width of
    U(0.5, 2.5). Its threshold is, with chance 1/5, one of its distinct
    breakpoints, uniformly, and otherwise U(min - 1, max + 1) over them.
    Segment s of box b is (w, lo, hi)[r, b, s]; an absent segment or box is
    lo = hi = inf with weight 0. Each box's segments are in ValueDist's
    (lo, hi) order, absent ones last.
    """
    shape = (rows, 5, 3)
    boxes = rng.integers(2, 6, size=rows)
    segments = rng.integers(1, 4, size=(rows, 5))
    live = (np.arange(5) < boxes[:, None])[:, :, None] & (np.arange(3) < segments[:, :, None])
    w = np.where(live, rng.random(shape) + 0.1, 0.0)
    total = w.sum(axis=-1, keepdims=True)
    np.divide(w, total, out=w, where=total > 0.0)
    atom = rng.random(shape) < 0.25
    lo = np.where(atom, rng.uniform(0.0, 3.0, shape), rng.uniform(0.0, 2.0, shape))
    lo[~live] = np.inf
    hi = lo + np.where(atom, 0.0, rng.uniform(0.5, 2.5, shape))
    order = np.lexsort((hi, lo), axis=-1)
    w, lo, hi = (np.take_along_axis(a, order, axis=-1) for a in (w, lo, hi))

    points = np.sort(np.concatenate((lo, hi), axis=-1).reshape(rows, -1), axis=-1)
    new = np.ones(points.shape, dtype=bool)
    new[:, 1:] = points[:, 1:] != points[:, :-1]
    new &= np.isfinite(points)
    seen = np.cumsum(new, axis=-1)
    pick = rng.integers(0, seen[:, -1])
    on_break = points[np.arange(rows), np.argmax(seen > pick[:, None], axis=-1)]
    top = np.max(np.where(np.isfinite(hi), hi, -np.inf), axis=(1, 2))
    spread = rng.uniform(points[:, 0] - 1.0, top + 1.0)
    t = np.where(rng.random(rows) < 0.2, on_break, spread)
    return w, lo, hi, t


def _sandwich_terms(w: np.ndarray, lo: np.ndarray, hi: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(t) = prod_i cdf_i(t) and g(t) = sum_i (1 - cdf_i(t)) of each probe.

    Each box's CDF adds its segments' terms left to right, and F multiplies
    the boxes in order, as the scalar CDF oracle in tests/conftest.py does,
    so F has its bits; g is a plain left-to-right sum.
    """
    tt = t[:, None, None]
    interval = hi > lo
    width = np.subtract(hi, lo, out=np.ones_like(lo), where=interval)
    frac = np.clip((tt - lo) / width, 0.0, 1.0)
    terms = w * np.where(interval, frac, tt >= lo)
    cdf = terms[..., 0] + terms[..., 1] + terms[..., 2]
    cdf[np.isinf(lo[..., 0])] = 1.0
    f, g = cdf[:, 0], 1.0 - cdf[:, 0]
    for b in range(1, cdf.shape[1]):
        f = f * cdf[:, b]
        g = g + (1.0 - cdf[:, b])
    return f, g


def diagnostics_sandwich_sweep(probes: int, seed: int) -> tuple[int, float]:
    """Probe random (instance, threshold) pairs against the CDF sandwich 1 - g <= F <= e^-g.

    Returns (violations beyond 1e-12, worst excess). Thresholds cover below,
    inside, and above the supports, including exact breakpoints. Probes are
    drawn and checked _SANDWICH_CHUNK at a time as arrays (_sandwich_probes),
    chunk c from PCG64DXSM substream (seed, _TAG_SANDWICH, c), so memory is
    bounded by one chunk for any probe count.
    """

    def run(rows: int, rng: np.random.Generator) -> tuple[int, float]:
        f, g = _sandwich_terms(*_sandwich_probes(rows, rng))
        excess = np.maximum((1.0 - g) - f, f - np.exp(-g))
        return int(np.count_nonzero(excess > _SANDWICH_TOL)), float(excess.max())

    parts = _map_chunks(run, probes, _SANDWICH_CHUNK, seed, _TAG_SANDWICH, 1)
    return sum(v for v, _ in parts), max(x for _, x in parts)
