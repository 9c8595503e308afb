"""Finite integer-support distributions and the distance/tail toolkit.

CountDist is a dense pmf over consecutive integers. Binomial pmfs are computed
in log space with log-gamma for n up to SIZE_CAP, by one kernel (_pmf_chunks);
at n = 1e6 a bin is off by 1e-10 to 1.1e-9 relative (against 40-digit
arithmetic; not mended here). Only the dense laws, binom and sum_of_binomials
(whose exact Chernoff tails reach down to 1e-21), take (n + 1)-long rows, from
binom_pmf_rows: it evaluates the columns within sqrt(380 n) of the mean, and
Hoeffding bounds every other log-mass below -760, where the formula rounds to
exactly 0.0, so its rows are the bits of the formula on every column. Every
other caller takes Bernstein windows (_binom_windows), which leave out at most
_WINDOW_TAIL = 1e-18 of a law per tail; _trimmed_windows cuts them to their
shortest runs. Normal CDF values go through scipy's erf-based ndtr, evaluated
only where it is neither 0.0 nor 1.0."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, ndtr

_MASS_TOL = 1e-10
# Largest binomial n and Bernoulli count the TV and tail checks accept,
# checked before allocation. In a fresh process (55 MB after import),
# binom(2^22) peaks at 90 MB and tv_binom_vs_normal at 2^22 adds about 1 MB.
# chernoff_check of 2^22 equal p takes 0.19 s on a 2-core Xeon and peaks at
# 224 MB, 137 MB above its 2^22-long input list.
SIZE_CAP = 1 << 22
# Largest multiply-add count the direct convolutions of sum_of_binomials may
# take, checked before any row is built: four parts of n = 10_000 take 6e8.
CONVOLVE_CAP = 1 << 30
# np.exp rounds every argument at or below this to exactly 0.0.
_EXP_ZERO = -745.2
# Rows of binomial pmf evaluated together, each group on its own column window.
_CHUNK = 32
# Largest mass a trimmed window leaves out of each tail of a law, and its -log.
_WINDOW_TAIL = 1e-18
_TAIL_LOG = -math.log(_WINDOW_TAIL)
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
        if np.any(masses < -1e-15):
            raise ValueError("masses must be nonnegative")
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


def point_mass(value: int) -> CountDist:
    return CountDist(value, np.array([1.0]))


def _trim(row: np.ndarray) -> tuple[int, np.ndarray, float]:
    """(offset, masses, dropped): the shortest run of a pmf row whose two
    tails each hold at most _WINDOW_TAIL, and the mass it leaves out."""
    lo = int(np.searchsorted(np.cumsum(row), _WINDOW_TAIL, side="right"))
    hi = len(row) - int(np.searchsorted(np.cumsum(row[::-1]), _WINDOW_TAIL, side="right"))
    return lo, row[lo:hi], float(row[:lo].sum() + row[hi:].sum())


def _pmf_chunks(n: int, ps: np.ndarray, half: float | np.ndarray):
    """Yield (first row, first column, block) for each _CHUNK rows of ps, every ps[r] in (0, 1).

    The block holds the chunk's unnormalized Bin(n, ps[r]) pmf on the columns
    within half (a scalar or one value per row) of n * ps[r], rounded out and
    clipped to [0, n]. An entry is i log(p), then + log C(n, i) by log-gamma,
    then + (n - i) log1p(-p), then exp if above _EXP_ZERO, else 0.0.
    """
    los = np.floor(n * ps - half)
    his = np.ceil(n * ps + half)
    starts = range(0, len(ps), _CHUNK)
    windows = [(max(0, int(los[a : a + _CHUNK].min())), min(n, int(his[a : a + _CHUNK].max())) + 1) for a in starts]
    if not windows:
        return
    lo, hi = min(c for c, _ in windows), max(d for _, d in windows)
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


def _fill_binom_rows(n: int, ps: np.ndarray, rows: np.ndarray) -> None:
    """Fill the zeroed rows with the Bin(n, ps[r]) pmf, every ps[r] in (0, 1).

    Each chunk is evaluated on the columns within sqrt(380 n) of n * ps:
    Hoeffding puts the log-mass of every other column below -760, so the
    formula there would round to exp(<= _EXP_ZERO) = 0.0 anyway. The window is
    divided by the sum of the whole zero-padded row, whose pairwise grouping
    sets the bits: each row has the bits of the formula on every column.
    """
    for a, c, block in _pmf_chunks(n, ps, math.sqrt(380.0 * n)):
        out = rows[a : a + len(block), c : c + block.shape[1]]
        out[...] = block
        out /= rows[a : a + len(block)].sum(axis=1, keepdims=True)


def _binom_windows(n: int, ps: np.ndarray):
    """Yield (first row, first column, block): the Bin(n, ps[r]) pmf, every
    ps[r] in (0, 1), a chunk of rows at a time on the chunk's trimmed window.

    Row r keeps the columns within t_r = L/3 + sqrt(L^2/9 + 2 L sigma_r^2) of
    n ps[r], L = -log(_WINDOW_TAIL), sigma_r^2 = n ps[r] (1 - ps[r]). By
    Bernstein's inequality each tail beyond t_r holds at most
    exp(-t_r^2 / (2 (sigma_r^2 + t_r / 3))) = _WINDOW_TAIL of the law. Each
    row is divided by its own window sum.
    """
    half = _TAIL_LOG / 3.0 + np.sqrt(_TAIL_LOG**2 / 9.0 + 2.0 * _TAIL_LOG * n * ps * (1.0 - ps))
    for a, c, block in _pmf_chunks(n, ps, half):
        block /= block.sum(axis=1, keepdims=True)
        yield a, c, block


def _trimmed_windows(n: int, ps: Sequence[float]) -> list[tuple[int, np.ndarray, float]]:
    """(offset, masses, dropped) of Bin(n, p) for each p of ps: a single mass
    at 0 or n for p = 0 or 1, else its _binom_windows row cut by _trim, all
    rows from one _binom_windows call; n above SIZE_CAP raises.

    dropped bounds the mass of the law outside the run: the cut takes at most
    _WINDOW_TAIL per tail from the row, and Bernstein's inequality puts at
    most _WINDOW_TAIL more beyond each end of the evaluated window that stops
    short of 0 or n.
    """
    if n > SIZE_CAP:
        raise ValueError(f"n = {n} exceeds the cap of {SIZE_CAP}")
    windows = [(n * int(p == 1.0), np.ones(1), 0.0) for p in ps]
    live = [r for r, p in enumerate(ps) if 0.0 < p < 1.0]
    for a, c, block in _binom_windows(n, np.array([ps[r] for r in live])) if live else ():
        left_off = _WINDOW_TAIL * ((c > 0) + (c + block.shape[1] <= n))
        for r, row in zip(live[a:], block):
            lo, masses, dropped = _trim(row)
            windows[r] = c + lo, masses, dropped + left_off
    return windows


def binom_pmf_rows(n: int, ps: np.ndarray) -> np.ndarray:
    """Row r holds the Bin(n, ps[r]) pmf over {0..n}; log-space, renormalized.

    A row with p = 0 or 1 is a single 1.0; the others go through
    _fill_binom_rows, which evaluates and divides only each chunk's window.
    A p outside [0, 1] raises ValueError.
    """
    if n > SIZE_CAP:
        raise ValueError(f"n = {n} exceeds the cap of {SIZE_CAP}")
    ps = np.asarray(ps, dtype=float)
    rows = np.zeros((len(ps), n + 1))
    interior = (ps > 0.0) & (ps < 1.0)
    if len(ps) and interior.all():
        _fill_binom_rows(n, ps, rows)
        return rows
    if not np.all(interior | (ps == 0.0) | (ps == 1.0)):
        raise ValueError("success probabilities must be in [0, 1]")
    if interior.any():
        part = np.zeros((np.count_nonzero(interior), n + 1))
        _fill_binom_rows(n, ps[interior], part)
        rows[interior] = part
    rows[ps == 0.0, 0] = 1.0
    rows[ps == 1.0, n] = 1.0
    return rows


def _check_binom(n: int, p: float) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")


def binom(n: int, p: float) -> CountDist:
    """Exact binomial pmf over {0..n}, renormalized after log-space evaluation."""
    _check_binom(n, p)
    if n == 0 or p == 0.0:
        return point_mass(0)
    if p == 1.0:
        return point_mass(n)
    return CountDist(0, binom_pmf_rows(n, np.array([p]))[0])


def convolve(a: CountDist, b: CountDist) -> CountDist:
    """Distribution of the independent sum."""
    return CountDist(a.offset + b.offset, np.convolve(a.masses, b.masses))


def sum_of_binomials(specs: Sequence[tuple[int, float]]) -> CountDist:
    """Left-fold of np.convolve over the Bin(n_i, p_i) masses, validated once.

    A degenerate part only moves the offset (convolving with [1.0] is exact),
    and the other parts with the same n come from one binom_pmf_rows call.
    Raises ValueError before any row is built when the folds would take more
    than CONVOLVE_CAP multiply-adds, or a part's n exceeds SIZE_CAP.
    """
    if not specs:
        raise ValueError("need at least one (n, p) spec")
    for n, p in specs:
        _check_binom(n, p)
    offset = sum(n for n, p in specs if p == 1.0)
    interior = [(n, p) for n, p in specs if n > 0 and 0.0 < p < 1.0]
    work, length = 0, 1
    for n, _ in interior:
        if n > SIZE_CAP:
            raise ValueError(f"n = {n} exceeds the cap of {SIZE_CAP}")
        work += length * (n + 1)
        length += n
    if work > CONVOLVE_CAP:
        raise ValueError(f"folding the parts takes {work} multiply-adds, over the cap of {CONVOLVE_CAP}")
    ns = dict.fromkeys(n for n, _ in interior)
    rows = {n: iter(binom_pmf_rows(n, [q for m, q in interior if m == n])) for n in ns}
    masses = np.ones(1)
    for n, _ in interior:
        masses = np.convolve(masses, next(rows[n]))
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
    """Total variation distance: half the L1 gap, the sup-over-events value."""
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
    if not 1 <= n <= SIZE_CAP:
        raise ValueError(f"n = {n} must be in [1, {SIZE_CAP}]")
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
    before any row is built. reps and rng are ignored; they stay only while
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
