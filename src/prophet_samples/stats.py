"""Finite integer-support distributions and the distance/tail toolkit.

CountDist is a dense pmf over consecutive integers. Binomial pmfs are computed
in log space with log-gamma for n up to SIZE_CAP (distributions.SIZE_CAP, the
stratum table's cap too), by one kernel (_pmf_chunks); at n = 1e6 a bin
within 4 standard deviations of the mean is off by up to 2.8e-9 relative
(against scipy.stats.binom.pmf; not mended here). It evaluates Bin(n, p)
only on a Bernstein window, off which each tail holds at most exp(-L) of
the law: L = _TAIL_LOG (at most _WINDOW_TAIL = 1e-18 per tail) for the
count laws, the adversary, the mixture and the TV, and L = _EXACT_TAIL_LOG
= 760 for the exact laws, binom and sum_of_binomials (whose Chernoff tails
reach down to 1e-21), off which the formula is exactly 0.0. Normal CDF values go through scipy's erf-based ndtr,
evaluated only where it is neither 0.0 nor 1.0."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, ndtr

from .distributions import SIZE_CAP, _is_int

_MASS_TOL = 1e-10
# Largest multiply-add count the direct convolutions of sum_of_binomials may
# take, counted on the parts' Bernstein windows before any is evaluated: four
# parts of n = 2^17 at p = 0.5 take 1.3e9.
CONVOLVE_CAP = 1 << 30
# np.exp rounds every argument at or below this to exactly 0.0.
_EXP_ZERO = -745.2
# Rows of binomial pmf evaluated together, each group on its own column window.
_CHUNK = 32
# Largest mass a count-law window leaves out of each tail of a law, and its -log.
_WINDOW_TAIL = 1e-18
_TAIL_LOG = -math.log(_WINDOW_TAIL)
# Tail level of the exact laws: it puts every column off the window below _EXP_ZERO.
_EXACT_TAIL_LOG = 760.0
# ndtr is exactly 0.0 at and below the first value and 1.0 at and above the second.
_NDTR_RANGE = (-40.0, 9.0)


@dataclass(frozen=True)
class CountDist:
    """Distribution over consecutive integers starting at ``offset``."""

    offset: int
    masses: np.ndarray

    def __post_init__(self) -> None:
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a nonempty 1-d array")
        if not np.all(np.isfinite(masses) & (masses >= -1e-15)):
            raise ValueError("masses must be finite and nonnegative")
        total = float(np.sum(masses))
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1")
        masses = np.maximum(masses, 0.0)
        masses.setflags(write=False)
        object.__setattr__(self, "offset", int(self.offset))
        object.__setattr__(self, "masses", masses)

    @property
    def upper(self) -> int:
        """Largest support point."""
        return self.offset + len(self.masses) - 1

    def pmf(self, i: int) -> float:
        j = i - self.offset
        if 0 <= j < len(self.masses):
            return float(self.masses[j])
        return 0.0

    def pmf_on(self, lo: int, hi: int) -> np.ndarray:
        """Dense pmf over the inclusive integer range [lo, hi]."""
        out = np.zeros(hi - lo + 1)
        a = max(lo, self.offset)
        b = min(hi, self.upper)
        if a <= b:
            out[a - lo : b - lo + 1] = self.masses[a - self.offset : b - self.offset + 1]
        return out

    def mean(self) -> float:
        idx = np.arange(self.offset, self.upper + 1, dtype=float)
        return float(np.sum(idx * self.masses))


def _trim(row: np.ndarray, tail: float) -> tuple[int, np.ndarray, float]:
    """(offset, masses, dropped): the shortest run of a pmf row whose two
    tails each hold at most tail, and the mass it leaves out."""
    lo = int(np.searchsorted(np.cumsum(row), tail, side="right"))
    hi = len(row) - int(np.searchsorted(np.cumsum(row[::-1]), tail, side="right"))
    return lo, row[lo:hi], float(row[:lo].sum() + row[hi:].sum())


def _bernstein_spans(n: int | np.ndarray, ps: np.ndarray, tail_log: float) -> tuple[np.ndarray, np.ndarray]:
    """(los, his): the first and last column of each Bin(n, ps[r]) window, n an int or
    per row: those within t = L/3 + sqrt(L^2/9 + 2 L sigma^2) of n ps[r], L = tail_log,
    sigma^2 = n ps[r] (1 - ps[r]), rounded out and clipped to [0, n]. By Bernstein's
    inequality each tail beyond t holds at most exp(-t^2 / (2 (sigma^2 + t/3))) = exp(-L)."""
    half = tail_log / 3.0 + np.sqrt(tail_log**2 / 9.0 + 2.0 * tail_log * n * ps * (1.0 - ps))
    return np.maximum(np.floor(n * ps - half), 0.0), np.minimum(np.ceil(n * ps + half), n)


def _pmf_chunks(n: int, ps: np.ndarray, tail_log: float):
    """Yield (first row, first column, block) for each _CHUNK rows of ps, every ps[r] in (0, 1).

    The block holds the chunk's unnormalized Bin(n, ps[r]) pmf on the union
    of its rows' _bernstein_spans. An entry is i log(p), then + log C(n, i)
    by log-gamma, then + (n - i) log1p(-p), then exp if above _EXP_ZERO, else 0.0.
    """
    if not len(ps):
        return
    los, his = _bernstein_spans(n, ps, tail_log)
    starts = range(0, len(ps), _CHUNK)
    windows = [(int(los[a : a + _CHUNK].min()), int(his[a : a + _CHUNK].max()) + 1) for a in starts]
    lo, hi = int(los.min()), int(his.max()) + 1
    i = np.arange(lo, hi, dtype=float)
    lg = gammaln(n + 1.0) - gammaln(i + 1.0) - gammaln(n - i + 1.0)
    log_p = np.log(ps)[:, None]
    log_q = np.log1p(-ps)[:, None]
    for a, (c, d) in zip(starts, windows):
        b = min(a + _CHUNK, len(ps))
        ic, lgc = i[c - lo : d - lo], lg[c - lo : d - lo]
        out = np.empty((b - a, d - c))
        tail = np.empty_like(out)
        np.multiply(ic, log_p[a:b], out=out)
        out += lgc
        np.multiply(n - ic, log_q[a:b], out=tail)
        out += tail
        live = out > _EXP_ZERO
        np.exp(out, out=out, where=live)
        out[~live] = 0.0
        yield a, c, out


def _binom_windows(n: int, ps: np.ndarray, tail_log: float = _TAIL_LOG):
    """Yield (first row, first column, block): the _pmf_chunks blocks of
    Bin(n, ps[r]) at tail_log, every ps[r] in (0, 1), each row divided by its
    own window sum."""
    for a, c, block in _pmf_chunks(n, ps, tail_log):
        block /= block.sum(axis=1, keepdims=True)
        yield a, c, block


def _trimmed_windows(n: int, ps: Sequence[float], tail_log: float = _TAIL_LOG) -> list[tuple[int, np.ndarray, float]]:
    """(offset, masses, dropped) of Bin(n, p) for each p of ps: a single mass
    at 0 or n for p = 0 or 1, else its row of one _binom_windows call at
    tail_log, cut by _trim at tail exp(-tail_log); n above SIZE_CAP raises.
    dropped bounds the law's mass off the run: at most the tail per end from
    the cut, and per end of the window short of 0 or n (Bernstein). At
    _EXACT_TAIL_LOG the tail is 0.0, and the cut takes only exact zeros."""
    if n > SIZE_CAP:
        raise ValueError(f"n = {n} exceeds the cap of {SIZE_CAP}")
    tail = math.exp(-tail_log)
    windows = [(n * int(p == 1.0), np.ones(1), 0.0) for p in ps]
    live = [r for r, p in enumerate(ps) if 0.0 < p < 1.0]
    for a, c, block in _binom_windows(n, np.array([ps[r] for r in live]), tail_log):
        left_off = tail * ((c > 0) + (c + block.shape[1] <= n))
        for r, row in zip(live[a:], block):
            lo, masses, dropped = _trim(row, tail)
            windows[r] = c + lo, masses, dropped + left_off
    return windows


def binom_pmf_rows(n: int, ps: np.ndarray) -> np.ndarray:
    """Row r holds the Bin(n, ps[r]) pmf over {0..n}, the bits of the
    log-space formula on every column divided by the row's sum; a p outside
    [0, 1] raises. Only the benchmark's tracer binds it; it goes with that
    binding (ROADMAP item 2a). Each row is evaluated on its window at
    _EXACT_TAIL_LOG, off which the formula is exactly 0.0.
    """
    if n > SIZE_CAP:
        raise ValueError(f"n = {n} exceeds the cap of {SIZE_CAP}")
    ps = np.asarray(ps, dtype=float)
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        raise ValueError("success probabilities must be in [0, 1]")
    rows = np.zeros((len(ps), n + 1))
    rows[ps == 0.0, 0] = 1.0
    rows[ps == 1.0, n] = 1.0
    live = np.flatnonzero((ps > 0.0) & (ps < 1.0))
    for a, c, block in _pmf_chunks(n, ps[live], _EXACT_TAIL_LOG):
        rows[live[a : a + len(block)], c : c + block.shape[1]] = block
    return rows / rows.sum(axis=1, keepdims=True)


def _check_binom(n: int, p: float) -> None:
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be an int >= 0, got {n!r}")
    if n > SIZE_CAP:
        raise ValueError(f"n = {n} exceeds the cap of {SIZE_CAP}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")


def binom(n: int, p: float) -> CountDist:
    """Exact binomial pmf on its nonzero masses: its window at _EXACT_TAIL_LOG."""
    _check_binom(n, p)
    ((offset, masses, _),) = _trimmed_windows(n, [p], _EXACT_TAIL_LOG)
    return CountDist(offset, masses)


def convolve(a: CountDist, b: CountDist) -> CountDist:
    """Distribution of the independent sum."""
    return CountDist(a.offset + b.offset, np.convolve(a.masses, b.masses))


def sum_of_binomials(specs: Sequence[tuple[int, float]]) -> CountDist:
    """Left-fold of np.convolve over the binom windows of the Bin(n_i, p_i), validated once.

    A degenerate part only moves the offset (convolving with [1.0] is exact),
    and the other parts with the same n come from one _trimmed_windows call.
    Raises ValueError before any window is evaluated when a part's n exceeds
    SIZE_CAP, or the folds, counted on the parts' _bernstein_spans, would take
    more than CONVOLVE_CAP multiply-adds.
    """
    if not specs:
        raise ValueError("need at least one (n, p) spec")
    for n, p in specs:
        _check_binom(n, p)
    offset = sum(n for n, p in specs if p == 1.0)
    interior = [part for part in specs if part[0] > 0 and 0.0 < part[1] < 1.0]
    ns, ps = [n for n, _ in interior], [p for _, p in interior]
    los, his = _bernstein_spans(np.array(ns, dtype=float), np.array(ps, dtype=float), _EXACT_TAIL_LOG)
    grow = his - los  # each fold lengthens the law by its window's length less one
    work = int(np.dot(np.cumsum(grow) - grow + 1.0, grow + 1.0))
    if work > CONVOLVE_CAP:
        raise ValueError(f"folding the parts takes {work} multiply-adds, over the cap of {CONVOLVE_CAP}")
    rows = {n: iter(_trimmed_windows(n, [q for m, q in interior if m == n], _EXACT_TAIL_LOG)) for n in set(ns)}
    masses = np.ones(1)
    for n, _ in interior:
        lo, window, _ = next(rows[n])
        offset += lo
        masses = np.convolve(masses, window)
    return CountDist(offset, masses)


def _normal_bin_masses(mu: float, sigma: float, lo: int, hi: int) -> np.ndarray:
    """N(mu, sigma^2) mass of [i - 0.5, i + 0.5] per bin i in [lo, hi]; the tails are left out."""
    z = (np.arange(lo, hi + 2, dtype=float) - 0.5 - mu) / sigma
    a = np.searchsorted(z, _NDTR_RANGE[0])
    b = np.searchsorted(z, _NDTR_RANGE[1], side="right")
    cdf = np.empty_like(z)
    cdf[:a] = 0.0
    cdf[a:b] = ndtr(z[a:b])
    cdf[b:] = 1.0
    return np.diff(cdf)


# -- distances -----------------------------------------------------------------


def tv_distance(a: CountDist, b: CountDist) -> float:
    """Total variation distance, the sup over events: half the L1 gap, half the total mass on disjoint supports."""
    if a.upper < b.offset or b.upper < a.offset:
        return float(0.5 * (a.masses.sum() + b.masses.sum()))
    lo = min(a.offset, b.offset)
    hi = max(a.upper, b.upper)
    return float(0.5 * np.abs(a.pmf_on(lo, hi) - b.pmf_on(lo, hi)).sum())


def tv_binom_vs_normal(n: int, p: float) -> float:
    """Unhalved L1 gap between Bin(n, p) and its bin-rounded matching normal.

    This is the full-line sum: integer bins on [0, n] plus the normal mass
    falling outside them (where the binomial pmf is zero). Note the missing
    1/2 relative to tv_distance; both conventions are deliberate.

    The bins are summed on the binomial's trimmed window (_binom_windows),
    which leaves out at most 1e-18 of its law per tail, and the normal mass
    off that window comes from two ndtr calls; no (n + 1)-long array is built.
    Against the dense sum over every bin of [0, n] (tests/conftest.py) it is
    within 1e-16 absolute, measured at most 6.9e-17 on n from 1 to 2^22.
    Against 40-digit arithmetic it carries the log-gamma pmf's error: TV(1e4,
    0.5) is 7.5e-10 relative off, and at p = 0.5, where TV = 1.5e-5 is a sum
    of gaps between bins of up to 8e-3, rounding alone leaves about 12 digits
    (windowed and dense sums differ by 2e-12 relative). Neither is mended here.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if not _is_int(n) or not 1 <= n <= SIZE_CAP:
        raise ValueError(f"n = {n!r} must be in [1, {SIZE_CAP}] and an int")
    mu, sigma = n * p, math.sqrt(n * p * (1.0 - p))
    ((_, lo, rows),) = _binom_windows(n, np.array([p]))
    hi = lo + rows.shape[1] - 1
    core = float(np.abs(rows[0] - _normal_bin_masses(mu, sigma, lo, hi)).sum())
    below = float(ndtr((lo - 0.5 - mu) / sigma))
    above = float(ndtr((mu - hi - 0.5) / sigma))
    return core + below + above


# -- tail verification -----------------------------------------------------------


@dataclass(frozen=True)
class ChernoffReport:
    """Exact two-sided tail of a Bernoulli sum; passed is derived: the tail is at most the bound."""

    mu: float
    delta: float
    tail: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.tail <= self.bound

    @property
    def empirical(self) -> float:
        """The tail; the name stays only while bench/workloads.py still reads it."""
        return self.tail


def chernoff_check(
    ps: Sequence[float], delta: float, reps: int | None = None, rng: np.random.Generator | None = None
) -> ChernoffReport:
    """Exact Pr[|X - mu| >= delta * mu] of a Bernoulli sum X against 2 exp(-delta^2 mu / 3).

    mu is the float sum of ps. The tail sums the masses of sum_of_binomials,
    one (count, p) part per distinct p, where |x - mu| >= delta * mu in
    floating point, or |x| > 0 at mu = 0. A p or delta out of range (NaN too),
    more than SIZE_CAP parameters or folds over CONVOLVE_CAP raise ValueError
    before any window is built. reps and rng are ignored; they stay only while
    bench/workloads.py still passes them.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if len(ps) > SIZE_CAP:
        raise ValueError(f"{len(ps)} Bernoulli parameters exceed the cap of {SIZE_CAP}")
    ps = np.asarray(ps, dtype=float)
    mu = float(ps.sum())
    values, counts = np.unique(ps, return_counts=True)
    law = sum_of_binomials(list(zip(counts.tolist(), values.tolist())))
    gap = np.abs(np.arange(law.offset, law.upper + 1) - mu)
    hits = gap >= delta * mu if mu > 0.0 else gap > 0.0
    bound = 2.0 * math.exp(-delta * delta * mu / 3.0)
    return ChernoffReport(mu=mu, delta=delta, tail=float(law.masses[hits].sum()), bound=bound)
