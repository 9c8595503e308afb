"""The six-box hardness family and its exact policy evaluation.

Instances put value u_i in box i with probability p_i, where
u = (xi, 1, 1, 1, 1, k^4) and p ranges over a constrained family. Any online
algorithm restricted to this family reduces to a policy q(prefix, ones-count):
the acceptance probability of the last observed nonzero value given the
number of 1s in the sample pool, with two fixed conventions on top (never
accept 0; once a k^4 sample is seen, wait for the last box).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .distributions import Instance, ValueDist
from .stats import CountDist, binom, binom_pmf_rows, convolve, sum_of_binomials

ANCHOR = "xi"

ONE_THIRD = 1.0 / 3.0

_PROB_TOL = 1e-12

# HardParams' largest k; policy files are checked against it before their
# (4k + 1)-wide rows are allocated.
_MAX_K = 10_000


def enumerate_prefixes() -> list[tuple]:
    """The 31 observable prefixes: the anchor alone, then anchor x {0,1}^m."""
    out: list[tuple] = []
    for m in range(5):
        for bits in itertools.product((0, 1), repeat=m):
            out.append((ANCHOR, *bits))
    return out


PREFIXES: tuple[tuple, ...] = tuple(enumerate_prefixes())

T1 = (ANCHOR,)
T2 = (ANCHOR, 1)


@dataclass(frozen=True)
class HardParams:
    """Family parameters; the defaults realize the 0.4997 certificate."""

    k: int
    xi: float = 0.9
    delta1: float = 0.01
    delta2: float = 0.5005
    eps: float = 0.0001

    def __post_init__(self) -> None:
        if not 1 <= self.k <= _MAX_K:
            raise ValueError("k must be in [1, 10^4] so k^4 stays exact in binary64")
        for name in ("xi", "delta1", "delta2", "eps"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")

    @property
    def spike_prob(self) -> float:
        return 1.0 / float(self.k) ** 3

    @property
    def spike_value(self) -> float:
        return float(self.k) ** 4


@dataclass(frozen=True)
class ProbVector:
    """Success probabilities of the six boxes; membership checked on demand."""

    values: tuple[float, float, float, float, float, float]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) != 6:
            raise ValueError("need exactly 6 probabilities")
        if any(not 0.0 <= v <= 1.0 for v in vals):
            raise ValueError("probabilities must be in [0, 1]")
        if vals[0] != 1.0:
            raise ValueError("the first box must be deterministic (p1 = 1)")
        object.__setattr__(self, "values", vals)

    def check_membership(self, params: HardParams) -> None:
        for idx in (1, 2, 3):
            if self.values[idx] not in (0.0, ONE_THIRD, 1.0):
                raise ValueError(f"p{idx + 1} must be one of 0, 1/3, 1")
        if not 0.0 <= self.values[4] <= 2.0 * params.eps + _PROB_TOL:
            raise ValueError("p5 must lie in [0, 2*eps]")
        if self.values[5] not in (0.0, params.spike_prob):
            raise ValueError("p6 must be 0 or 1/k^3")


def p_star(params: HardParams) -> ProbVector:
    """The balanced endgame vector (1, 1/3, 1/3, 1/3, eps, 0)."""
    return ProbVector((1.0, ONE_THIRD, ONE_THIRD, ONE_THIRD, params.eps, 0.0))


# The 16 prefixes where a policy may stop (it never accepts 0): the anchor and
# the 15 that end in 1, in PREFIXES order. Row j of a policy table is STOPS[j].
STOPS: tuple[tuple, ...] = tuple(p for p in PREFIXES if p == T1 or p[-1] == 1)
_STOP_ROW = {p: j for j, p in enumerate(STOPS)}


@dataclass
class QPolicy:
    """Acceptance table q(prefix, ones-count): one read-only (16, 4k+1) array over STOPS."""

    k: int
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        table = np.array(self.table, dtype=float)
        if table.shape != (len(STOPS), 4 * self.k + 1):
            raise ValueError(f"table must have shape ({len(STOPS)}, {4 * self.k + 1}), got {table.shape}")
        if not np.all((table >= 0.0) & (table <= 1.0)):
            raise ValueError("acceptance probabilities must lie in [0, 1]")
        table.setflags(write=False)
        self.table = table

    def row(self, prefix: tuple) -> np.ndarray:
        """Acceptance probability at a prefix in STOPS, per ones-count."""
        j = _STOP_ROW.get(tuple(prefix))
        if j is None:
            raise ValueError(f"prefix {tuple(prefix)!r} is not in STOPS")
        return self.table[j]

    @classmethod
    def constant(cls, k: int, value: float) -> "QPolicy":
        return cls(k=k, table=np.full((len(STOPS), 4 * k + 1), float(value)))

    @classmethod
    def random(cls, k: int, rng: np.random.Generator) -> "QPolicy":
        """One uniform row per prefix in PREFIXES order; the rows of STOPS are kept."""
        rows = rng.random((len(PREFIXES), 4 * k + 1))
        return cls(k=k, table=rows[[PREFIXES.index(p) for p in STOPS]])


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def policy_from_json(obj: Mapping) -> QPolicy:
    """Sparse policy file: entries name a prefix in STOPS; missing (prefix, i) entries are 0."""
    k = obj.get("k") if isinstance(obj, Mapping) else None
    if not _is_int(k) or not 1 <= k <= _MAX_K:
        raise ValueError(f"policy JSON must contain an integer 'k' in [1, {_MAX_K}], got {k!r}")
    entries = obj.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"policy 'entries' must be a list, got {entries!r}")
    width = 4 * k + 1
    table = np.zeros((len(STOPS), width))
    for pos, entry in enumerate(entries):
        try:
            prefix = tuple(entry["prefix"])
            i = entry["i"]
            q = entry["q"]
        except (KeyError, TypeError):
            raise ValueError(f"entry {pos} must have 'prefix', 'i', and 'q'") from None
        if not _is_int(i):
            raise ValueError(f"entry {pos} has ones-count {i!r}, which is not an integer")
        if not isinstance(q, (int, float)) or isinstance(q, bool):
            raise ValueError(f"entry {pos} has q={q!r}, which is not a number")
        if not all(isinstance(b, str) or _is_int(b) for b in prefix) or prefix not in PREFIXES:
            raise ValueError(f"entry {pos} has unknown prefix {list(prefix)!r}")
        if prefix not in _STOP_ROW:
            raise ValueError(f"entry {pos} has prefix {list(prefix)!r}, which ends in 0 where no policy stops")
        if not 0 <= i < width:
            raise ValueError(f"entry {pos} has ones-count {i} outside [0, {width - 1}]")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"entry {pos} has q={q} outside [0, 1]")
        table[_STOP_ROW[prefix], i] = q
    return QPolicy(k=k, table=table)


def load_policy(path: str) -> QPolicy:
    with open(path, "r", encoding="utf-8") as fh:
        return policy_from_json(json.load(fh))


# -- sample-pool statistics ---------------------------------------------------------


def ones_count_dist(p: ProbVector, k: int) -> CountDist:
    """Exact law of the number of 1s in the pool: sum of Bin(k, p_i), i in 2..5."""
    return sum_of_binomials([(k, p.values[i]) for i in (1, 2, 3, 4)])


def _spike_prob(p6: float, k: int) -> float:
    if p6 == 0.0:
        return 0.0
    if p6 >= 1.0:
        return 1.0
    return -math.expm1(k * math.log1p(-p6))


# -- exact policy evaluation -----------------------------------------------------------

# The 16 value paths of boxes 2..5 (1 = the box shows its nonzero value).
_PATHS: tuple[tuple[int, ...], ...] = tuple(itertools.product((0, 1), repeat=4))
# Row r of the stop table is scored by the product over j of the factor
# _ROW_BITS[r, j] picks for box j + 2: 0 -> 1 - p, 1 -> p, 2 -> 1.
_ROW_BITS = np.array(
    [list(p[1:]) + [2] * (5 - len(p)) for p in STOPS] + [list(b) for b in _PATHS]
)


def _stop_table(policy: QPolicy) -> np.ndarray:
    """Per ones-count stop probabilities and path survivals, shape (32, 4k+1).

    Rows 0..15 hold s(P, i) = alive(P, i) * q(P, i) for P in STOPS; rows
    16..31 hold the chance that the walk along each of the 16 paths never
    stopped. Survival is carried as its own product, not as 1 - sum(s), so
    every entry is a nonnegative product and nothing cancels.
    """
    start = np.ones(4 * policy.k + 1)
    alive: dict[tuple, np.ndarray] = {}
    rows = []
    for prefix in PREFIXES:
        before = alive.get(prefix[:-1], start)
        if prefix in _STOP_ROW:
            q = policy.row(prefix)
            rows.append(before * q)
            alive[prefix] = before * (1.0 - q)
        else:
            alive[prefix] = before
    rows += [alive[(ANCHOR, *bits)] for bits in _PATHS]
    return np.array(rows)


def _member_values(vals: np.ndarray, params: HardParams, policy: QPolicy) -> np.ndarray:
    """Exact expected accepted value of one policy on each member.

    vals holds one member's (p1..p6) per row. The value is linear in the stop
    table: a member weighs T1's stop by xi, the stop at a prefix ending in 1
    by the chance of that prefix (the value taken is 1), and the survival of
    a path by the chance of that path times the spike tail p6 * k^4 that box
    6 pays when reached. Each distinct ones-count law is built once and
    folded into the table by one mat-vec; the law depends only on the sorted
    p2..p4 and on p5, and the point-mass convolutions it shares are exact, so
    members that share a key share a law bit for bit.
    """
    if policy.k != params.k:
        raise ValueError("policy and params disagree on k")
    table = _stop_table(policy)
    rows = vals.tolist()
    laws: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        laws.setdefault((*sorted(row[1:4]), row[4]), []).append(i)
    pooled = np.empty((len(rows), len(table)))
    for idx in laws.values():
        dist = ones_count_dist(ProbVector(tuple(rows[idx[0]])), params.k)
        pooled[idx] = table[:, dist.offset : dist.offset + len(dist.masses)] @ dist.masses

    factors = np.stack([1.0 - vals[:, 1:5], vals[:, 1:5], np.ones((len(vals), 4))], axis=-1)
    weights = np.prod(factors[:, np.arange(4), _ROW_BITS], axis=-1)
    tail = vals[:, 5] * params.spike_value
    weights[:, 0] *= params.xi
    weights[:, len(STOPS) :] *= tail[:, None]
    no_spike = np.vecdot(weights, pooled)
    spike = np.array([_spike_prob(row[5], params.k) for row in rows])
    return spike * tail + (1.0 - spike) * no_spike


def eval_q_policy(p: ProbVector, params: HardParams, policy: QPolicy) -> float:
    """Exact expected accepted value of a policy on one family member.

    Conditions on the spike-observed event (where the policy waits for the
    last box), otherwise marginalizes the ones-count law against the walk over
    the 32 value realizations. Acceptance happens at nonzero values only; a
    nonzero last-box value is always taken when reached.

    This is the one-member call of the kernel `adversary` uses: the policy's
    stop-probability table (the chance s(P, i) of stopping at each prefix
    that can stop, and of surviving each path, per ones-count i) folded with
    the member's ones-count law and weighted by its path probabilities.
    """
    p.check_membership(params)
    return float(_member_values(np.array([p.values]), params, policy)[0])


# -- family instances and prophet values --------------------------------------------------


def family_instance(p: ProbVector, params: HardParams) -> Instance:
    """The family member as a plain all-atoms instance."""
    u = (params.xi, 1.0, 1.0, 1.0, 1.0, params.spike_value)
    boxes = []
    for ui, pi in zip(u, p.values):
        if pi == 1.0:
            boxes.append(ValueDist.atom(ui))
        elif pi == 0.0:
            boxes.append(ValueDist.atom(0.0))
        else:
            boxes.append(ValueDist.discrete({ui: pi, 0.0: 1.0 - pi}))
    return Instance(tuple(boxes))


def family_prophet_value(p: ProbVector, params: HardParams) -> float:
    """Exact E[max]: the spike dominates when present; otherwise 1 beats xi."""
    return float(_prophet_values(np.array([p.values]), params)[0])


def _prophet_values(vals: np.ndarray, params: HardParams) -> np.ndarray:
    """family_prophet_value of each row of (p1..p6)."""
    none_one = np.prod(1.0 - vals[:, 1:5], axis=1)
    first_five = (1.0 - none_one) * 1.0 + none_one * params.xi
    return vals[:, 5] * params.spike_value + (1.0 - vals[:, 5]) * first_five


# -- the binomial-mixture comparison -------------------------------------------------------


def g_clamp(x, params: HardParams):
    """Success-probability ramp min(1, max(0, (x - k)/k + eps)), elementwise."""
    return np.minimum(1.0, np.maximum(0.0, (x - params.k) / params.k + params.eps))


@dataclass(frozen=True)
class MixtureSpec:
    """Mixture of shifted binomials: weight j picks shift + Bin(trials, success[j])."""

    coefficients: np.ndarray
    component_shift: int
    component_trials: int
    component_success: np.ndarray

    def component(self, j: int) -> CountDist:
        return convolve(
            CountDist(self.component_shift, np.array([1.0])),
            binom(self.component_trials, float(self.component_success[j])),
        )


def build_dd_mixture(params: HardParams) -> tuple[MixtureSpec, CountDist, CountDist]:
    """The ones-count mixture and its two-binomial stand-in, both on {0..4k}.

    The mixture draws j from Bin(3k, 1/3) and then k + Bin(k, g(j)); the
    stand-in is Bin(3k, 1/3) + Bin(k, eps), which shares its mean k(1 + eps).
    """
    k = params.k
    coeff = binom(3 * k, ONE_THIRD)
    success = g_clamp(np.arange(3 * k + 1), params)

    mix_masses = np.zeros(4 * k + 1)
    block = 512
    for start in range(0, 3 * k + 1, block):
        stop = min(start + block, 3 * k + 1)
        if not coeff.masses[start:stop].any():
            continue  # an all-zero block would add +0.0 everywhere
        rows = binom_pmf_rows(k, success[start:stop])
        mix_masses[k : 2 * k + 1] += coeff.masses[start:stop] @ rows
    mix = CountDist(0, mix_masses / mix_masses.sum())

    star = convolve(binom(3 * k, ONE_THIRD), binom(k, params.eps))
    star_masses = np.zeros(4 * k + 1)
    star_masses[star.offset : star.offset + len(star.masses)] = star.masses
    star_full = CountDist(0, star_masses)

    spec = MixtureSpec(
        coefficients=coeff.masses,
        component_shift=k,
        component_trials=k,
        component_success=success,
    )
    return spec, mix, star_full


# -- the certificate and the adversary -------------------------------------------------------


def certificate_terms(params: HardParams) -> tuple[float, float, float]:
    """The three proof branches the family forces: over-selection on the spike
    member, under-selection on the plain member, and the balanced endgame."""
    t1 = params.xi * params.delta1 + params.delta2 - params.delta1 + 2.0 * params.eps
    t2 = 1.0 - params.delta2
    t3 = (
        params.xi * params.delta1 * (8.0 / 27.0)
        + params.delta2 * (12.0 / 27.0)
        + 7.0 / 27.0
        + params.eps
    )
    return (t1, t2, t3)


def certificate(params: HardParams) -> float:
    """Asymptotic upper bound on any policy's ratio over the family."""
    return max(certificate_terms(params))


def overselection_grid(params: HardParams) -> np.ndarray:
    """21 evenly spaced p5 probes over [0, 2*eps], endpoints included."""
    return np.linspace(0.0, 2.0 * params.eps, 21)


def adversary_candidates(params: HardParams) -> np.ndarray:
    """The 127 members the adversary scores, one (p1..p6) row each, in tie-break order.

    The single-nonzero-box vectors over the p5 grid, each with and without
    the spike coordinate, then the balanced endgame vector.
    """
    rows = [
        (1.0, *onehot, ell, p6)
        for ell in overselection_grid(params).tolist()
        for onehot in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        for p6 in (0.0, params.spike_prob)
    ]
    return np.array(rows + [p_star(params).values])


def adversary(policy: QPolicy, params: HardParams) -> tuple[ProbVector, float]:
    """Worst family member for a policy, with its exact ratio.

    Scores every candidate of `adversary_candidates` with one stop-probability
    table for the policy and one ones-count law per distinct (sorted p2..p4,
    p5): 22 laws for 127 members. Ties in the exact ratio break toward the
    earliest candidate.
    """
    candidates = adversary_candidates(params)
    ratios = _member_values(candidates, params, policy) / _prophet_values(candidates, params)
    best = int(np.argmin(ratios))
    return ProbVector(tuple(candidates[best])), float(ratios[best])
