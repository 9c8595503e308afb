"""Finite integer-support distributions and the distance/tail toolkit.

CountDist is a dense pmf over consecutive integers. Binomial pmfs are computed
in log space with log-gamma for n up to SIZE_CAP; at n = 1e6 a bin is off by
1e-10 to 1.1e-9 relative (against 40-digit arithmetic). Only the columns within
sqrt(380 n) of the mean are evaluated: Hoeffding bounds every other log-mass
below -760, where the formula rounds to exactly 0.0. Normal CDF values go
through scipy's erf-based ndtr, evaluated only where it is neither 0.0 nor 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, ndtr

_MASS_TOL = 1e-10
# Largest binomial n, Bernoulli count and replication count the TV and tail
# checks accept, checked before allocation: a call at 2^22 peaks near 200 MB.
SIZE_CAP = 1 << 22
# Largest multiply-add count the direct convolutions of sum_of_binomials may
# take, checked before any row is built: four parts of n = 10_000 take 6e8.
CONVOLVE_CAP = 1 << 30
# np.exp rounds every argument at or below this to exactly 0.0.
_EXP_ZERO = -745.2
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


def binom_pmf_rows(n: int, ps: np.ndarray) -> np.ndarray:
    """Row r holds the Bin(n, ps[r]) pmf over {0..n}; log-space, renormalized.

    Only the columns within sqrt(380 n) of n * ps are evaluated: Hoeffding puts
    the log-mass of every other column below -760, so the formula there would
    round to exp(<= _EXP_ZERO) = 0.0 anyway.
    """
    if n > SIZE_CAP:
        raise ValueError(f"n = {n} exceeds the cap of {SIZE_CAP}")
    ps = np.asarray(ps, dtype=float)
    rows = np.zeros((len(ps), n + 1))
    interior = (ps > 0.0) & (ps < 1.0)
    if np.any(interior):
        pi = ps[interior][:, None]
        h = math.sqrt(380.0 * n)
        lo = max(0, math.floor(n * pi.min() - h))
        hi = min(n, math.ceil(n * pi.max() + h))
        i = np.arange(lo, hi + 1, dtype=float)
        lg = gammaln(n + 1.0) - gammaln(i + 1.0) - gammaln(n - i + 1.0)
        in_place = interior.all()
        out = rows[:, lo : hi + 1] if in_place else np.empty((len(pi), hi - lo + 1))
        # lg + i log(p) + (n - i) log1p(-p), in place and in that order
        np.multiply(i, np.log(pi), out=out)
        out += lg
        out += (n - i) * np.log1p(-pi)
        live = out > _EXP_ZERO
        np.exp(out, out=out, where=live)
        out[~live] = 0.0
        if not in_place:
            rows[interior, lo : hi + 1] = out
    rows[ps == 0.0, 0] = 1.0
    rows[ps == 1.0, n] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
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


@dataclass(frozen=True)
class NormalSpec:
    mu: float
    sigma2: float

    def __post_init__(self) -> None:
        if not self.sigma2 > 0.0:
            raise ValueError("sigma2 must be positive")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def _normal_bin_masses(spec: NormalSpec, lo: int, hi: int) -> np.ndarray:
    """Mass of [i - 0.5, i + 0.5] per integer bin i in [lo, hi]; the tails outside are left out."""
    z = (np.arange(lo, hi + 2, dtype=float) - 0.5 - spec.mu) / spec.sigma
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
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if n > SIZE_CAP:
        raise ValueError(f"n = {n} exceeds the cap of {SIZE_CAP}")
    spec = NormalSpec(mu=n * p, sigma2=n * p * (1.0 - p))
    bin_masses = binom(n, p).masses
    norm_masses = _normal_bin_masses(spec, 0, n)
    core = float(np.abs(bin_masses - norm_masses).sum())
    left_tail = float(ndtr((-0.5 - spec.mu) / spec.sigma))
    right_tail = float(1.0 - ndtr((n + 0.5 - spec.mu) / spec.sigma))
    return core + left_tail + right_tail


# -- tail verification -----------------------------------------------------------


@dataclass(frozen=True)
class ChernoffReport:
    mu: float
    delta: float
    empirical: float
    bound: float
    stderr: float
    reps: int
    passed: bool


def chernoff_check(
    ps: Sequence[float], delta: float, reps: int, rng: np.random.Generator
) -> ChernoffReport:
    """Empirical two-sided tail of a Bernoulli sum against 2 exp(-delta^2 mu / 3).

    Passes when the observed frequency of |X - mu| >= delta * mu is below the
    bound plus three Monte Carlo standard errors.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not 10_000 <= reps <= SIZE_CAP:
        raise ValueError(f"reps must be in [10000, {SIZE_CAP}], got {reps}")
    if len(ps) > SIZE_CAP:
        raise ValueError(f"{len(ps)} Bernoulli parameters exceed the cap of {SIZE_CAP}")
    ps = np.asarray(ps, dtype=float)
    if np.any((ps < 0.0) | (ps > 1.0)):
        raise ValueError("Bernoulli parameters must be in [0, 1]")
    mu = float(ps.sum())
    totals = np.zeros(reps)
    values, counts = np.unique(ps, return_counts=True)
    for p, cnt in zip(values, counts):
        if p == 0.0:
            continue
        totals += rng.binomial(int(cnt), p, size=reps)
    gap = np.abs(totals - mu)
    hits = gap >= delta * mu if mu > 0.0 else gap > 0.0
    empirical = float(hits.mean())
    bound = 2.0 * math.exp(-delta * delta * mu / 3.0)
    stderr = math.sqrt(max(empirical * (1.0 - empirical), 1.0 / reps) / reps)
    return ChernoffReport(
        mu=mu,
        delta=delta,
        empirical=empirical,
        bound=bound,
        stderr=stderr,
        reps=reps,
        passed=empirical <= bound + 3.0 * stderr,
    )
