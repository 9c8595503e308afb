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
from typing import Iterable, Iterator, Sequence, Union

import numpy as np
from scipy.special import lambertw

from .distributions import Instance, _check_keys, _is_int


# -- rules --------------------------------------------------------------------


@dataclass(frozen=True)
class OrdinalRank:
    """Use the rank-th highest sample as the threshold (1 = maximum)."""

    rank: int

    def __post_init__(self) -> None:
        if not _is_int(self.rank) or self.rank < 1:
            raise ValueError(f"rank must be an integer >= 1, got {self.rank!r}")


@dataclass(frozen=True)
class MaxSample:
    """The single-sample rule: threshold at the highest sample."""


ThresholdRule = Union[OrdinalRank, MaxSample]


def effective_rank(rule: ThresholdRule) -> int:
    """Ordinal rank of a rule: 1 for the max-sample rule."""
    return 1 if isinstance(rule, MaxSample) else rule.rank


def rule_to_config(rule: ThresholdRule) -> dict:
    if isinstance(rule, MaxSample):
        return {"rule": "max_sample"}
    return {"rule": "ordinal", "rank": rule.rank}


def rule_from_config(obj: dict) -> ThresholdRule:
    """The rule that rule_to_config writes as obj; a key its kind does not read fails."""
    kind = obj.get("rule")
    if kind == "max_sample":
        rule = MaxSample()
    elif kind == "ordinal":
        rank = obj.get("rank")
        if not _is_int(rank):
            raise ValueError(f"ordinal rule requires an integer 'rank', got {rank!r}")
        rule = OrdinalRank(rank)
    else:
        raise ValueError(f"unknown rule kind {kind!r}")
    _check_keys(obj, tuple(rule_to_config(rule)))
    return rule


# -- the omega constant and the recommended rank -------------------------------


def omega_rho() -> float:
    """Root of x * exp(x) = 1: the omega constant W(1), from Lambert's W."""
    return float(lambertw(1.0).real)


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


def walk_reach(stays: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Pr[the walk reaches each box], box by box in arrival order.

    stays[i] is the linear polynomial Pr[the walk stays past box i] in the
    threshold's position variable, lowest coefficient first. Box i's reach is
    the product of the earlier stays, formed by np.convolve, so it has
    degree i.
    """
    reach = np.ones(1)
    for stay in stays:
        yield reach
        reach = np.convolve(reach, stay)


def walk_value(stays: Sequence[np.ndarray], pays: Sequence[np.ndarray], size: int) -> np.ndarray:
    """The walk value sum_i reach_i * pays[i] as `size` coefficients, lowest first.

    pays[i] is box i's expected payment, given that the walk reaches it, as a
    polynomial in the same variable as the stays; the boxes are summed in
    arrival order.
    """
    value = np.zeros(size)
    for pay, reach in zip(pays, walk_reach(stays)):
        value[: len(reach) + len(pay) - 1] += np.convolve(reach, pay)
    return value


def walk_terms(inst: Instance, t: float) -> Iterator[np.ndarray]:
    """Per box, Pr[the walk stays past it] at threshold t as a polynomial in
    the threshold's latent rank quantile u: Pr[v < t] + Pr[v = t] * u."""
    for box in inst.boxes:
        mass = box.mass_at(t)
        yield np.array([box.cdf(t) - mass, mass])


def _walk_value(inst: Instance, t: float) -> np.ndarray:
    """Walk value at threshold t as a polynomial in u, of degree at most n.

    A box pays its strict tail, plus t * mass * (1 - u) when its value ties
    the threshold and its own fresh rank beats u.
    """
    stays = list(walk_terms(inst, t))
    pays = [np.array([box.tail_expectation(t) + t * m, -t * m]) for box, (_, m) in zip(inst.boxes, stays)]
    return walk_value(stays, pays, inst.n + 1)


def threshold_value_with_rank_law(inst: Instance, t: float, alpha: int = 1, beta: int = 1) -> float:
    """Exact expected value of the static-threshold walk at threshold t.

    The threshold's latent rank is Beta(alpha, beta) distributed, for integers
    alpha and beta: (1, 1) for a fresh rank, and (m + 1 - j, j) when the
    threshold is the j-th ranked of m tied samples. The walk value is a
    polynomial in the rank quantile, so pairing its coefficients with Beta
    moments is exact.
    """
    return float(np.dot(beta_moments(alpha, beta, inst.n), _walk_value(inst, t)))


def static_threshold_values(inst: Instance, ts: np.ndarray) -> np.ndarray:
    """threshold_value_with_rank_law(inst, t) at every t in the 1-D ts: a
    threshold on an atom gets a fresh latent rank, so a tied value wins half
    the time."""
    return np.array([threshold_value_with_rank_law(inst, t) for t in ts])


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
