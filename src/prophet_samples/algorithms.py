"""Static threshold rules, the ordinal rank recipe, and exact threshold evaluators.

The tie convention used throughout: every sample and every realized value
carries an independent latent uniform rank, and comparisons between equal
numbers are decided by comparing ranks. Exact evaluators never perturb values;
they integrate the latent rank out in closed form (the integrands are
polynomials in the threshold's rank quantile, so a fixed Gauss rule is exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .distributions import Instance, SampleSet


# -- rules --------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitT:
    """Fixed numeric threshold (mostly a diagnostic device)."""

    t: float


@dataclass(frozen=True)
class OrdinalRank:
    """Use the rank-th highest sample as the threshold (1 = maximum)."""

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass(frozen=True)
class MaxSample:
    """The single-sample rule: threshold at the highest sample."""


ThresholdRule = Union[ExplicitT, OrdinalRank, MaxSample]


def effective_rank(rule: ThresholdRule) -> int | None:
    """Ordinal rank of a rule, or None for explicit thresholds."""
    if isinstance(rule, MaxSample):
        return 1
    if isinstance(rule, OrdinalRank):
        return rule.rank
    return None


def rule_to_config(rule: ThresholdRule) -> dict:
    if isinstance(rule, MaxSample):
        return {"rule": "max_sample"}
    if isinstance(rule, OrdinalRank):
        return {"rule": "ordinal", "rank": rule.rank}
    return {"rule": "explicit", "t": rule.t}


def rule_from_config(obj: dict) -> ThresholdRule:
    kind = obj.get("rule")
    if kind == "max_sample":
        return MaxSample()
    if kind == "ordinal":
        if "rank" not in obj:
            raise ValueError("ordinal rule requires a 'rank' field")
        return OrdinalRank(int(obj["rank"]))
    if kind == "explicit":
        if "t" not in obj:
            raise ValueError("explicit rule requires a 't' field")
        return ExplicitT(float(obj["t"]))
    raise ValueError(f"unknown rule kind {kind!r}")


# -- the omega constant and the recommended rank -------------------------------


def omega_rho() -> float:
    """Root of x * exp(x) = 1, by bisection on [0.5, 0.6].

    The residual of the returned point is below 1e-12; the bracket endpoints
    have opposite signs (0.5*e^0.5 < 1 < 0.6*e^0.6).
    """
    lo, hi = 0.5, 0.6
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def recommended_rank(k: int) -> int:
    """Rank whose threshold tracks the optimal acceptance level at large k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return max(1, math.ceil(omega_rho() * k - k ** (2.0 / 3.0)))


# -- applying rules to sample pools --------------------------------------------


def select_threshold(samples: SampleSet, rule: ThresholdRule) -> float:
    """Threshold value a rule picks from a sample pool.

    Rank ties among equal samples do not change the returned value; the
    latent-rank law of the chosen sample matters only to exact evaluators,
    which recover it from the pool's tie multiplicities.
    """
    if isinstance(rule, ExplicitT):
        return rule.t
    rank = effective_rank(rule)
    if not 1 <= rank <= len(samples):
        raise ValueError(f"rank {rank} outside [1, {len(samples)}]")
    return samples.values[rank - 1]


def run_static_threshold(values: Sequence[float], t: float, rng=None) -> float:
    """First value exceeding t, else 0.

    "Exceeds" is strict; with an rng, a value equal to t wins against the
    threshold's fresh latent rank (probability 1/2 for a single tie). Without
    an rng ties lose deterministically.
    """
    u_t = rng.random() if rng is not None else None
    for v in values:
        if v > t:
            return float(v)
        if v == t and u_t is not None and rng.random() > u_t:
            return float(v)
    return 0.0


# -- exact evaluators -----------------------------------------------------------


def beta_moments(alpha, beta, upto: int) -> np.ndarray:
    """E[U^j] for U ~ Beta(alpha, beta) and j = 0..upto.

    The ratio recurrence E[U^j] = E[U^(j-1)] * (alpha + j - 1)/(alpha + beta
    + j - 1) is stable for arbitrarily large integer parameters, which is how
    tie laws with thousands of tied samples stay exact. Integer arrays
    broadcast against each other and give shape ``(..., upto + 1)``, one row
    per rank law; each row has the bits of the scalar call.
    """
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    if (alpha < 1).any() or (beta < 1).any():
        raise ValueError("rank-law parameters must be positive integers")
    out = np.ones(np.broadcast_shapes(alpha.shape, beta.shape) + (upto + 1,))
    for j in range(1, upto + 1):
        out[..., j] = out[..., j - 1] * (alpha + j - 1) / (alpha + beta + j - 1)
    return out


def _walk_value_poly(inst: Instance, t: float) -> np.ndarray:
    """Walk value as a polynomial in the threshold's latent rank quantile u.

    stay_i(u) = Pr[v_i < t] + Pr[v_i = t] * u and the payoff collects both the
    strict tail and the tie-win mass t * Pr[v_i = t] * (1 - u); the result has
    degree at most n.
    """
    acc = np.zeros(inst.n + 1)
    alive = np.array([1.0])
    for box in inst.boxes:
        m = box.mass_at(t)
        payoff = np.array([box.tail_expectation(t) + t * m, -t * m])
        contrib = np.convolve(alive, payoff)
        acc[: len(contrib)] += contrib
        alive = np.convolve(alive, np.array([box.cdf(t) - m, m]))
    return acc


def threshold_value_with_rank_law(inst: Instance, t: float, alpha=1, beta=1):
    """Exact expected value of the static-threshold walk at threshold t.

    The threshold's latent rank is Beta(alpha, beta) distributed: (1, 1) for a
    fresh rank (explicit thresholds), and (m + 1 - j, j) when the threshold is
    the j-th ranked of m tied samples. The walk value is a polynomial in the
    rank quantile, so pairing its coefficients with Beta moments is exact.
    Integer arrays give one value per rank law from a single polynomial;
    scalars give a float.
    """
    moments = beta_moments(alpha, beta, inst.n)
    if all(box.mass_at(t) == 0.0 for box in inst.boxes):
        vals = np.full(moments.shape[:-1], static_threshold_values(inst, np.asarray([t]))[0])
    else:
        # vecdot runs np.dot's kernel on each row; matmul would move the last bits
        vals = np.vecdot(moments, _walk_value_poly(inst, t))
    return float(vals) if vals.ndim == 0 else vals


def exact_static_threshold_value(inst: Instance, t: float) -> float:
    """Exact E[value] of the threshold-t walk; fresh latent rank for t.

    Off atoms this is sum_i tail_i(t) * prod_{j<i} F_j(t); when t sits on an
    atom the tie masses are integrated per the rank convention.
    """
    return threshold_value_with_rank_law(inst, t, 1, 1)


def static_threshold_values(inst: Instance, ts: np.ndarray) -> np.ndarray:
    """Vectorized tie-free evaluator over an array of thresholds.

    Assumes no box has an atom exactly at any entry of ts (how thresholds
    drawn from continuous strata always land).
    """
    ts = np.asarray(ts, dtype=float)
    acc = np.zeros_like(ts)
    alive = np.ones_like(ts)
    for box in inst.boxes:
        acc = acc + alive * box.tail_expectation(ts)
        alive = alive * box.cdf(ts)
    return acc


def static_threshold_exceedance(inst: Instance, t: float, x: float) -> float:
    """Pr[walk value >= x] for an explicit threshold t off every atom.

    For x <= t this is 1 - F(t); above t it is
    sum_i Pr[v_i >= x] * prod_{j<i} F_j(t).
    """
    if x <= t:
        return 1.0 - inst.product_cdf(t)
    total = 0.0
    alive = 1.0
    for box in inst.boxes:
        total += alive * (1.0 - box.cdf_left(x))
        alive *= box.cdf(t)
    return total


# -- diagnostics ----------------------------------------------------------------

_SANDWICH_TOL = 1e-12


@dataclass(frozen=True)
class ThresholdDiagnostics:
    """Exact threshold summary: F(T), the exceedance mean g, and the floor h.

    Construction verifies 1 - g <= F <= exp(-g); a violation beyond 1e-12
    signals an arithmetic bug, since the bounds hold for any CDF values.
    """

    t: float
    f_of_t: float
    g: float
    h: float

    def __post_init__(self) -> None:
        if abs(self.h - min(self.f_of_t, 1.0 - self.f_of_t)) > _SANDWICH_TOL:
            raise ValueError("h must equal min(F, 1 - F)")
        if self.f_of_t < (1.0 - self.g) - _SANDWICH_TOL:
            raise ValueError(
                f"lower sandwich violated: 1-g={1.0 - self.g!r} > F={self.f_of_t!r}"
            )
        if self.f_of_t > math.exp(-self.g) + _SANDWICH_TOL:
            raise ValueError(
                f"upper sandwich violated: F={self.f_of_t!r} > e^-g={math.exp(-self.g)!r}"
            )


def threshold_diagnostics(inst: Instance, t: float) -> ThresholdDiagnostics:
    """Exact F(t), g(t) = sum_i Pr[v_i > t], h(t) = min(F, 1 - F)."""
    per_box = [box.cdf(t) for box in inst.boxes]
    f = 1.0
    for c in per_box:
        f *= c
    g = math.fsum(1.0 - c for c in per_box)
    return ThresholdDiagnostics(t=t, f_of_t=f, g=g, h=min(f, 1.0 - f))
