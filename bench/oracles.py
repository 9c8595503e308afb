"""Reference values the benchmark checks program outputs against.

Nothing here calls into prophet_samples: each value is computed from the
benchmark's own description of an instance, by closed form or by exact
summation over the sample-count law, so a wrong program output cannot also
make its reference wrong.

The rank-l threshold of a pooled sample has an exact law on the instances the
benchmark builds. Given the counts above and at the threshold's stratum, the
threshold's position inside the stratum (or its latent rank, on an atom) is
a Beta order statistic, and the walk value is a polynomial in it, so pairing
the polynomial's coefficients with Beta moments integrates it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

# scipy.signal and scipy.stats are imported where they are used: the
# workloads import this module while they build inputs, which set-up time
# measures, and those imports would add to it.

# Count windows reach this many standard deviations past the mean; the mass
# they drop is reported as part of each reference's error bound.
_WINDOW_SD = 9.0


@dataclass(frozen=True)
class BandedInstance:
    """Boxes sharing an atom at ``atom`` and a top interval ``[top_lo, top_hi]``.

    Box i puts ``up[i]`` on the top interval, ``at[i]`` on the atom and the
    rest on its own interval ``low[i]``, which lies below the atom. With
    ``at`` all zero the instance has no atoms.
    """

    atom: float
    top_lo: float
    top_hi: float
    low: tuple[tuple[float, float], ...]
    at: tuple[float, ...]
    up: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.up)

    def segments(self) -> list[list[tuple[float, float, float]]]:
        """Per-box ``(weight, lo, hi)`` lists, zero-weight parts left out."""
        out = []
        for (lo, hi), a, u in zip(self.low, self.at, self.up):
            segs = [(1.0 - a - u, lo, hi), (u, self.top_lo, self.top_hi)]
            if a > 0.0:
                segs.append((a, self.atom, self.atom))
            out.append(segs)
        return out


def beta_moments(alpha, beta, upto: int) -> list:
    """``E[X^d]`` for ``X ~ Beta(alpha, beta)``, d = 0..upto, elementwise."""
    alpha = np.asarray(alpha, dtype=float)
    total = alpha + np.asarray(beta, dtype=float)
    out = [np.ones_like(total)]
    for d in range(upto):
        out.append(out[-1] * (alpha + d) / (total + d))
    return out


def _poly_expectation(coef: np.ndarray, moments: list) -> np.ndarray:
    return sum(c * moments[d] for d, c in enumerate(coef))


def _walk_poly(payoffs: list[np.ndarray], stays: list[np.ndarray]) -> np.ndarray:
    """Coefficients of sum_i payoff_i * prod_{j<i} stay_j."""
    acc = np.zeros(1)
    alive = np.ones(1)
    for pay, stay in zip(payoffs, stays):
        acc = P.polyadd(acc, P.polymul(alive, pay))
        alive = P.polymul(alive, stay)
    return acc


def _window(k: int, p: float) -> tuple[int, int]:
    if p == 0.0:
        return 0, 0
    mean, sd = k * p, math.sqrt(k * p * (1.0 - p))
    return max(0, int(mean - _WINDOW_SD * sd) - 2), min(k, int(mean + _WINDOW_SD * sd) + 2)


def _trinomial(k: int, pa: float, pc: float):
    """pmf of (a, c) counts of one box's k samples, on a window; with offsets."""
    from scipy.special import gammaln

    a0, a1 = _window(k, pa)
    c0, c1 = _window(k, pc)
    a = np.arange(a0, a1 + 1, dtype=float)[:, None]
    c = np.arange(c0, c1 + 1, dtype=float)[None, :]
    rest = k - a - c
    ok = rest >= 0
    rest = np.where(ok, rest, 0.0)
    logp = gammaln(k + 1.0) - gammaln(a + 1.0) - gammaln(c + 1.0) - gammaln(rest + 1.0)
    logp = logp + rest * math.log1p(-pa - pc)
    if pa > 0.0:
        logp = logp + a * math.log(pa)
    if pc > 0.0:
        logp = logp + c * math.log(pc)
    return np.where(ok, np.exp(logp), 0.0), a0, c0


def _crop(pmf: np.ndarray, start: int, mean: float, var: float):
    """Keep the rows of pmf (its first index starts at start) inside the window."""
    lo = max(start, int(mean - _WINDOW_SD * math.sqrt(var)) - 2)
    hi = min(start + pmf.shape[0], int(mean + _WINDOW_SD * math.sqrt(var)) + 3)
    return pmf[lo - start : hi - start], lo


def _count_law(inst: BandedInstance, k: int):
    """Windowed joint pmf of (samples on the top interval, samples on the atom)."""
    from scipy.signal import fftconvolve

    pmf, a0, c0 = _trinomial(k, inst.up[0], inst.at[0])
    for m in range(1, inst.n):
        box, b0, d0 = _trinomial(k, inst.up[m], inst.at[m])
        pmf = np.maximum(fftconvolve(pmf, box), 0.0)
        up, at = np.array(inst.up[: m + 1]), np.array(inst.at[: m + 1])
        pmf, a0 = _crop(pmf, a0 + b0, k * up.sum(), k * np.sum(up * (1.0 - up)))
        pmf_t, c0 = _crop(pmf.T, c0 + d0, k * at.sum(), k * np.sum(at * (1.0 - at)))
        pmf = pmf_t.T
    return pmf, a0, c0


def _top_law(inst: BandedInstance, k: int) -> np.ndarray:
    """pmf of the number of samples on the top interval, over 0..nk."""
    from scipy.signal import fftconvolve
    from scipy.stats import binom

    a = np.arange(k + 1)
    pmf = np.ones(1)
    for u in inst.up:
        pmf = np.maximum(fftconvolve(pmf, binom.pmf(a, k, u)), 0.0)
    return pmf


def banded_walk_value(inst: BandedInstance, k: int, rank: int) -> tuple[float, float]:
    """Exact expected walk value under the rank-th highest of k samples per box.

    Returns ``(value, error)``: the error bounds the value's distance from
    the exact one, from the mass the count windows drop and the mass on the
    event that the threshold falls below the atom, which this reference does
    not evaluate.
    """
    up = np.array(inst.up)
    at = np.array(inst.at)
    lo, hi = inst.top_lo, inst.top_hi
    covered = 0.0
    value = 0.0

    # Threshold inside the top interval: x ~ Beta(A + 1 - rank, rank) places
    # it at lo + (hi - lo) x, where each box's CDF is 1 - up_i (1 - x).
    top = _top_law(inst, k)[rank:]
    if top.size:
        width = hi - lo
        t = np.array([lo, width])
        payoffs = [u / (2.0 * width) * P.polysub([hi * hi], P.polymul(t, t)) for u in up]
        stays = [np.array([1.0 - u, u]) for u in up]
        poly = _walk_poly(payoffs, stays)
        mom = beta_moments(np.arange(1, top.size + 1), rank, len(poly) - 1)
        value += float(np.sum(top * _poly_expectation(poly, mom)))
        covered += float(np.sum(top))

    # Threshold on the atom as the r-th ranked of C tied samples: its latent
    # rank quantile u ~ Beta(C + 1 - r, r). A tied value beats it with
    # chance 1 - u and waits behind it with chance u.
    if covered < 1.0 - 1e-15 and np.any(at > 0.0):
        pmf, a0, c0 = _count_law(inst, k)
        r = rank - np.arange(a0, a0 + pmf.shape[0])[:, None]
        tied = np.arange(c0, c0 + pmf.shape[1])[None, :]
        sel = (r >= 1) & (r <= tied)
        top_mean = 0.5 * (lo + hi)
        payoffs = [np.array([u * top_mean + inst.atom * a, -inst.atom * a]) for u, a in zip(up, at)]
        stays = [np.array([1.0 - u - a, a]) for u, a in zip(up, at)]
        poly = _walk_poly(payoffs, stays)
        rr = np.broadcast_to(r, pmf.shape)[sel]
        cc = np.broadcast_to(tied, pmf.shape)[sel]
        mom = beta_moments(cc + 1 - rr, rr, len(poly) - 1)
        value += float(np.sum(pmf[sel] * _poly_expectation(poly, mom)))
        covered += float(np.sum(pmf[sel]))
    return value, max(0.0, 1.0 - covered) * hi


def _cdf_piece(segs, left: float, right: float) -> np.ndarray:
    """One box's CDF on the open interval (left, right) as a polynomial in t - left."""
    out = np.zeros(2)
    for w, lo, hi in segs:
        if hi <= left:
            out[0] += w
        elif lo < hi and lo <= left and right <= hi:
            out += w / (hi - lo) * np.array([left - lo, 1.0])
    return out


def prophet_value(boxes: list[list[tuple[float, float, float]]]) -> float:
    """Exact E[max] as the integral of 1 - prod F_i, piece by piece in closed form."""
    points = sorted({0.0} | {x for segs in boxes for _, lo, hi in segs for x in (lo, hi)})
    total = 0.0
    for left, right in zip(points, points[1:]):
        prod = np.ones(1)
        for segs in boxes:
            prod = P.polymul(prod, _cdf_piece(segs, left, right))
        integrand = P.polyint(P.polysub([1.0], prod))
        total += float(P.polyval(right - left, integrand))
    return total


def case1_walk_value(k: int, rank: int) -> float:
    """Exact semi-exact target on the two-box instance case1 for rank <= k.

    A ~ Bin(k, 1/k^2) spike samples sit above the k samples of U(1, 2), so
    the threshold is 1 + x with x ~ Beta(k + 1 - r, r), r = rank - A, and the
    walk value is (4 - (1 + x)^2) / 2 + x * w (k^3 + 1/2).
    """
    from scipy.stats import binom

    if not 1 <= rank <= k:
        raise ValueError("the closed form covers ranks 1..k")
    w = 1.0 / (k * k)
    spike = w * (float(k) ** 3 + 0.5)
    a = np.arange(0, min(rank, 64))
    pa = binom.pmf(a, k, w)
    r = rank - a
    m = beta_moments(k + 1 - r, r, 2)
    return float(np.sum(pa * ((3.0 - 2.0 * m[1] - m[2]) / 2.0 + m[1] * spike)))


def case2_walk_value(k: int, n: int, rank: int) -> float:
    """Exact semi-exact target on n iid U(k, k + 1) boxes.

    The threshold is k + x with x ~ Beta(nk + 1 - rank, rank); the walk
    value telescopes to (2k + 1 + x)(1 - x^n) / 2.
    """
    m = beta_moments(n * k + 1 - rank, rank, n + 1)
    return float(((2 * k + 1) * (1.0 - m[n]) + m[1] - m[n + 1]) / 2.0)
