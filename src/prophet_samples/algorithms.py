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

from .distributions import Instance, _check_keys, _is_int, _level_structure


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
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return max(1, math.ceil(omega_rho() * k - k ** (2.0 / 3.0)))


# -- exact evaluators -----------------------------------------------------------


def _check_rank_law(*params) -> None:
    """Raise ValueError unless each parameter is an integer, or an array of an
    integer dtype, with every entry >= 1; a bool or a float is not an integer."""
    for x in map(np.asarray, params):
        if not np.issubdtype(x.dtype, np.integer) or (x < 1).any():
            raise ValueError(f"rank-law parameters must be positive integers, got {x!r}")


def beta_moments(alpha, beta, upto: int) -> np.ndarray:
    """E[U^j] for U ~ Beta(alpha, beta) and j = 0..upto.

    The ratio recurrence E[U^j] = E[U^(j-1)] * (alpha + j - 1)/(alpha + beta
    + j - 1) is stable for arbitrarily large integer parameters, which is how
    tie laws with thousands of tied samples stay exact. Integer arrays
    broadcast against each other and give shape ``(..., upto + 1)``, one row
    per rank law; each row has the bits of the scalar call.
    """
    _check_rank_law(alpha, beta)
    # in int64, so that a sum of small unsigned integers cannot wrap
    alpha, beta = np.asarray(alpha, dtype=np.int64), np.asarray(beta, dtype=np.int64)
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


def _stratum_walk(inside, below, up, lo: float, hi: float, c, r) -> np.ndarray:
    """Expected walk value when the threshold is the r-th highest of the c
    samples in the stratum [lo, hi], per pair of the integer arrays c and r.

    Per box, inside and below are its masses in and under the stratum and up
    its first moment above it: columns of a stratum table (_level_structure).
    The threshold t = lo + (hi - lo) s has s ~ Beta(c + 1 - r, r): its
    position on an interval, its latent rank among c tied samples on an atom
    (lo = hi). Box i stays past t with chance below + inside s and pays
    up + inside (1 - s)(lo + (hi - lo)(1 + s)/2); on an atom these are the
    tie law's. The walk value, of degree n + 1 in s, is expanded in s or,
    where the threshold lies nearer the top, in 1 - s, so that neither end
    cancels, and Beta moments integrate it. Against exact rationals over the
    instance's floats (35,070 cases: 2- to 4-box mixtures with tied atoms
    and 1e6-scale segments, c up to 3000), the worst value was 6.9e-16
    relative off.
    """
    n = len(inside)
    curve = inside * ((hi - lo) / 2.0)
    top = 2 * r <= c + 1
    tops = np.unique(top)
    polys = []
    for from_top in tops:
        if from_top:
            stays, pays = (below + inside, -inside), (up, inside * hi, -curve)
        else:
            stays, pays = (below, inside), (up + inside * ((lo + hi) / 2.0), -inside * lo, -curve)
        polys.append(walk_value(np.column_stack(stays), np.column_stack(pays), n + 2))
    moments = beta_moments(np.where(top, r, c + 1 - r), np.where(top, c + 1 - r, r), n + 1)
    return np.vecdot(moments, np.array(polys)[np.searchsorted(tops, top)])


def _check_threshold(t) -> None:
    if not math.isfinite(t):
        raise ValueError(f"threshold must be finite, got {t!r}")


def threshold_value_with_rank_law(inst: Instance, t: float, alpha: int = 1, beta: int = 1) -> float:
    """Exact expected value of the static-threshold walk at the finite threshold t.

    The threshold's latent rank is Beta(alpha, beta) distributed, for integers
    alpha and beta: (1, 1) for a fresh rank, and (m + 1 - j, j) when the
    threshold is the j-th ranked of m tied samples. t is an atom stratum of
    the stratum table cut at t (_level_structure): every box is read from
    its columns, below from those under t, inside from the atom at t (none
    when no box has mass there) and up from the first moments above t, and
    _stratum_walk integrates the rank out with r = beta of c = alpha +
    beta - 1 tied samples. Against exact rationals on mixtures with tied
    atoms, at their breakpoints and midpoints, the worst value was 4.3e-16
    relative off (3,720 cases). A non-finite t raises ValueError.
    """
    _check_threshold(t)
    _check_rank_law(alpha, beta)
    alpha, beta = int(alpha), int(beta)  # a numpy uint8 sum would wrap
    los, his, probs, firsts = _level_structure(inst, [t])
    at = (los == t) & (his == t)
    inside = probs[:, at].sum(axis=1)
    below, up = probs[:, los < t].sum(axis=1), firsts[:, his > t].sum(axis=1)
    return float(_stratum_walk(inside, below, up, t, t, np.array([alpha + beta - 1]), np.array([beta]))[0])


def static_threshold_values(inst: Instance, ts: np.ndarray) -> np.ndarray:
    """threshold_value_with_rank_law(inst, t) at every t in the 1-D ts: a
    threshold on an atom gets a fresh latent rank, so a tied value wins half
    the time. A non-finite t raises ValueError."""
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
    """Exact F(t) = prod_i F_i(t), g(t) = sum_i Pr[v_i > t] and h(t) = min(F, 1 - F)
    at the finite threshold t, from the stratum table cut at t (_level_structure).

    Box i's F_i(t) is the sum of its columns with hi <= t and Pr[v_i > t]
    the sum of the rest, so that a small g does not cancel. Each row is first
    divided by its total, as weights sum to 1 only within 1e-12: the two
    parts of a box then add up to 1, and the sandwich holds.
    """
    _check_threshold(t)
    los, his, probs, _ = _level_structure(inst, [t])
    probs = probs / probs.sum(axis=1, keepdims=True)
    f = 1.0
    for c in probs[:, his <= t].sum(axis=1).tolist():
        f *= c
    g = math.fsum(probs[:, his > t].sum(axis=1).tolist())
    return ThresholdDiagnostics(t=t, f_of_t=f, g=g)
