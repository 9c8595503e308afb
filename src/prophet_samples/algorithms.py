"""Static threshold rules, the ordinal rank recipe, and exact threshold evaluators.

The tie convention used throughout: every sample and every realized value
carries an independent latent uniform rank, and comparisons between equal
numbers are decided by comparing ranks. Exact evaluators never perturb values;
they integrate the latent rank out in closed form (the integrands are
polynomials in the threshold's rank quantile, so pairing their coefficients
with the Beta moments of that rank is exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .distributions import Instance


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
        rank = obj.get("rank")
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise ValueError(f"ordinal rule requires an integer 'rank', got {rank!r}")
        return OrdinalRank(rank)
    if kind == "explicit":
        t = obj.get("t")
        if not isinstance(t, (int, float)) or isinstance(t, bool) or not math.isfinite(t):
            raise ValueError(f"explicit rule requires a finite number 't', got {t!r}")
        return ExplicitT(float(t))
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


def poly_times_linear(poly: np.ndarray, a, b) -> np.ndarray:
    """Coefficients of poly(u) * (a + b * u), one degree up, lowest first.

    Each coefficient is a sum of at most two products, formed as np.convolve
    forms it, so batching thresholds along the trailing axes moves no bits.
    """
    out = np.empty((len(poly) + 1,) + poly.shape[1:])
    out[0] = poly[0] * a
    out[1:-1] = poly[1:] * a + poly[:-1] * b
    out[-1] = poly[-1] * b
    return out


def walk_terms(inst: Instance, ts) -> Iterator[tuple[np.ndarray, np.ndarray | float]]:
    """The static-threshold walk at every threshold in ts, box by box.

    Yields (reach, mass) for each box in arrival order: reach holds
    Pr[the walk reaches the box] as a polynomial in the threshold's latent
    rank quantile u, lowest coefficient first, shape (d + 1,) + ts.shape, and
    mass is the box's atom mass at ts. The walk stays past a box with
    probability Pr[v < t] + Pr[v = t] * u. The degree d is n when some
    threshold sits on an atom of the instance. Otherwise d is 0, mass is 0
    and reach is the product of the earlier boxes' CDFs; an instance without
    atoms is never asked for its atom masses.
    """
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


def _walk_value(inst: Instance, ts) -> np.ndarray:
    """Walk value as a polynomial in u, shaped like walk_terms' reach.

    A box pays its strict tail, plus t * mass * (1 - u) when its value ties
    the threshold and its own fresh rank beats u.
    """
    ts = np.asarray(ts, dtype=float)
    acc = 0.0
    for box, (reach, mass) in zip(inst.boxes, walk_terms(inst, ts)):
        tail = box.tail_expectation(ts)
        if len(reach) == 1:
            acc = acc + reach * tail
        else:
            acc = acc + poly_times_linear(reach, tail + ts * mass, -ts * mass)[:-1]
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
    poly = _walk_value(inst, t)
    # vecdot runs np.dot's kernel on each row; matmul would move the last bits
    vals = np.vecdot(moments[..., : len(poly)], poly)
    return float(vals) if vals.ndim == 0 else vals


def static_threshold_values(inst: Instance, ts: np.ndarray) -> np.ndarray:
    """threshold_value_with_rank_law(inst, t) at every t in ts, with its bits.

    A threshold on an atom gets a fresh latent rank, so a tied value wins
    half the time. When no threshold sits on an atom this is the tie-free sum
    alone, without any Beta moments.
    """
    poly = _walk_value(inst, ts)
    if len(poly) == 1:
        return poly[0]
    # strided rows would move the last bits against the scalar call
    rows = np.ascontiguousarray(np.moveaxis(poly, 0, -1))
    return np.vecdot(beta_moments(1, 1, inst.n), rows)


# -- diagnostics ----------------------------------------------------------------

_SANDWICH_TOL = 1e-12


@dataclass(frozen=True)
class ThresholdDiagnostics:
    """Exact threshold summary: F(T), the exceedance mean g, and the derived floor h.

    Construction verifies 1 - g <= F <= exp(-g); a violation beyond 1e-12
    signals an arithmetic bug, since the bounds hold for any CDF values.
    """

    t: float
    f_of_t: float
    g: float

    def __post_init__(self) -> None:
        if self.f_of_t < (1.0 - self.g) - _SANDWICH_TOL:
            raise ValueError(
                f"lower sandwich violated: 1-g={1.0 - self.g!r} > F={self.f_of_t!r}"
            )
        if self.f_of_t > math.exp(-self.g) + _SANDWICH_TOL:
            raise ValueError(
                f"upper sandwich violated: F={self.f_of_t!r} > e^-g={math.exp(-self.g)!r}"
            )

    @property
    def h(self) -> float:
        return min(self.f_of_t, 1.0 - self.f_of_t)


def threshold_diagnostics(inst: Instance, t: float) -> ThresholdDiagnostics:
    """Exact F(t), g(t) = sum_i Pr[v_i > t], h(t) = min(F, 1 - F)."""
    per_box = [box.cdf(t) for box in inst.boxes]
    f = 1.0
    for c in per_box:
        f *= c
    g = math.fsum(1.0 - c for c in per_box)
    return ThresholdDiagnostics(t=t, f_of_t=f, g=g)
