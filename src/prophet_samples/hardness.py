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
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .distributions import Instance, ValueDist
from .stats import CountDist, binom, binom_pmf_rows, convolve, sum_of_binomials

ANCHOR = "xi"

ONE_THIRD = 1.0 / 3.0

_PROB_TOL = 1e-12


def enumerate_prefixes() -> list[tuple]:
    """The 31 observable prefixes: the anchor alone, then anchor x {0,1}^m."""
    out: list[tuple] = []
    for m in range(5):
        for bits in itertools.product((0, 1), repeat=m):
            out.append((ANCHOR, *bits))
    return out


PREFIXES: tuple[tuple, ...] = tuple(enumerate_prefixes())
_PREFIX_SET = frozenset(PREFIXES)

T1 = (ANCHOR,)
T2 = (ANCHOR, 1)
T3 = (ANCHOR, 0, 1)


@dataclass(frozen=True)
class HardParams:
    """Family parameters; the defaults realize the 0.4997 certificate."""

    k: int
    xi: float = 0.9
    delta1: float = 0.01
    delta2: float = 0.5005
    eps: float = 0.0001
    c: float = 0.4997

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 10_000:
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


@dataclass
class QPolicy:
    """Acceptance table q(prefix, ones-count) over the 31 prefixes x {0..4k}."""

    k: int
    table: dict[tuple, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        width = 4 * self.k + 1
        norm: dict[tuple, np.ndarray] = {}
        for prefix, row in self.table.items():
            prefix = tuple(prefix)
            if prefix not in _PREFIX_SET:
                raise ValueError(f"unknown prefix {prefix!r}")
            arr = np.asarray(row, dtype=float)
            if arr.shape != (width,):
                raise ValueError(f"row for {prefix!r} must have length {width}")
            if np.any((arr < 0.0) | (arr > 1.0)):
                raise ValueError("acceptance probabilities must lie in [0, 1]")
            arr = arr.copy()
            arr.setflags(write=False)
            norm[prefix] = arr
        self.table = norm

    def row(self, prefix: tuple) -> np.ndarray:
        if tuple(prefix) not in _PREFIX_SET:
            raise ValueError(f"unknown prefix {tuple(prefix)!r}")
        got = self.table.get(tuple(prefix))
        if got is None:
            return np.zeros(4 * self.k + 1)
        return got

    def q(self, prefix: tuple, i: int) -> float:
        if not 0 <= i <= 4 * self.k:
            raise ValueError(f"ones-count {i} outside [0, {4 * self.k}]")
        return float(self.row(prefix)[i])

    @classmethod
    def constant(cls, k: int, value: float) -> "QPolicy":
        width = 4 * k + 1
        return cls(k=k, table={p: np.full(width, float(value)) for p in PREFIXES})

    @classmethod
    def random(cls, k: int, rng: np.random.Generator) -> "QPolicy":
        width = 4 * k + 1
        return cls(k=k, table={p: rng.random(width) for p in PREFIXES})


def policy_from_json(obj: Mapping) -> QPolicy:
    """Sparse policy file: missing (prefix, i) entries default to 0."""
    try:
        k = int(obj["k"])
    except (KeyError, TypeError, ValueError):
        raise ValueError("policy JSON must contain an integer 'k'") from None
    width = 4 * k + 1
    table: dict[tuple, np.ndarray] = {}
    for pos, entry in enumerate(obj.get("entries", [])):
        try:
            prefix = tuple(entry["prefix"])
            i = int(entry["i"])
            q = float(entry["q"])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"entry {pos} must have 'prefix', 'i', and 'q'") from None
        if prefix not in _PREFIX_SET:
            raise ValueError(f"entry {pos} has unknown prefix {list(prefix)!r}")
        if not 0 <= i < width:
            raise ValueError(f"entry {pos} has ones-count {i} outside [0, {width - 1}]")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"entry {pos} has q={q} outside [0, 1]")
        if prefix not in table:
            table[prefix] = np.zeros(width)
        table[prefix][i] = q
    return QPolicy(k=k, table=table)


def load_policy(path: str) -> QPolicy:
    with open(path, "r", encoding="utf-8") as fh:
        return policy_from_json(json.load(fh))


# -- sample-pool statistics ---------------------------------------------------------


def ones_count_dist(p: ProbVector, k: int) -> CountDist:
    """Exact law of the number of 1s in the pool: sum of Bin(k, p_i), i in 2..5."""
    return sum_of_binomials([(k, p.values[i]) for i in (1, 2, 3, 4)])


def spike_event_prob(p: ProbVector, k: int) -> float:
    """Chance any of box 6's k samples shows the spike value."""
    p6 = p.values[5]
    if p6 == 0.0:
        return 0.0
    if p6 >= 1.0:
        return 1.0
    return -math.expm1(k * math.log1p(-p6))


# -- exact policy evaluation -----------------------------------------------------------


def eval_q_policy(p: ProbVector, params: HardParams, policy: QPolicy) -> float:
    """Exact expected accepted value of a policy on one family member.

    Conditions on the spike-observed event (where the policy waits for the
    last box), otherwise marginalizes the ones-count law against the walk over
    the 32 value realizations. Acceptance happens at nonzero values only; a
    nonzero last-box value is always taken when reached.
    """
    p.check_membership(params)
    if policy.k != params.k:
        raise ValueError("policy and params disagree on k")
    vals = p.values
    dist = ones_count_dist(p, params.k)
    lo, hi = dist.offset, dist.offset + len(dist.masses)

    def row(prefix: tuple) -> np.ndarray:
        return policy.row(prefix)[lo:hi]

    q1 = row(T1)
    spike_tail = vals[5] * params.spike_value
    walk = np.zeros(len(dist.masses))
    for bits in itertools.product((0, 1), repeat=4):
        w_b = 1.0
        for idx, b in enumerate(bits):
            w_b *= vals[idx + 1] if b else 1.0 - vals[idx + 1]
        if w_b == 0.0:
            continue
        val = params.xi * q1
        alive = 1.0 - q1
        prefix = T1
        for b in bits:
            prefix = prefix + (b,)
            if b:
                r = row(prefix)
                val = val + alive * r
                alive = alive * (1.0 - r)
        val = val + alive * spike_tail
        walk = walk + w_b * val
    no_spike_value = float(np.sum(dist.masses * walk))
    spike = spike_event_prob(p, params.k)
    return spike * spike_tail + (1.0 - spike) * no_spike_value


def brute_force_eval(p: ProbVector, params: HardParams, policy: QPolicy) -> float:
    """Independent oracle: enumerate all 2^(5k) sample pools and 32 value vectors."""
    p.check_membership(params)
    k = params.k
    if k > 3:
        raise ValueError("brute force supports k <= 3 only")
    vals = p.values
    box_of_slot = [1 + s // k for s in range(5 * k)]
    total = 0.0
    for sample_bits in itertools.product((0, 1), repeat=5 * k):
        prob_s = 1.0
        for s, bit in enumerate(sample_bits):
            pb = vals[box_of_slot[s]]
            prob_s *= pb if bit else 1.0 - pb
        if prob_s == 0.0:
            continue
        ones = sum(bit for s, bit in enumerate(sample_bits) if box_of_slot[s] <= 4)
        spiked = any(bit for s, bit in enumerate(sample_bits) if box_of_slot[s] == 5)
        inner = 0.0
        for vbits in itertools.product((0, 1), repeat=5):
            prob_v = 1.0
            for idx, bit in enumerate(vbits):
                pb = vals[idx + 1]
                prob_v *= pb if bit else 1.0 - pb
            if prob_v == 0.0:
                continue
            if spiked:
                value = params.spike_value if vbits[4] else 0.0
            else:
                value = params.xi * policy.q(T1, ones)
                alive = 1.0 - policy.q(T1, ones)
                prefix = T1
                for b in vbits[:4]:
                    prefix = prefix + (b,)
                    if b:
                        qq = policy.q(prefix, ones)
                        value += alive * qq
                        alive *= 1.0 - qq
                if vbits[4]:
                    value += alive * params.spike_value
            inner += prob_v * value
        total += prob_s * inner
    return total


def over_selection_score(policy: QPolicy, p: ProbVector, k: int) -> float:
    """Expected chance of stopping within the first two boxes on an all-ones start."""
    dist = ones_count_dist(p, k)
    lo, hi = dist.offset, dist.offset + len(dist.masses)
    q1 = policy.row(T1)[lo:hi]
    q2 = policy.row(T2)[lo:hi]
    return float(np.sum(dist.masses * (q1 + (1.0 - q1) * q2)))


# -- family instances and prophet values --------------------------------------------------


def family_values(params: HardParams) -> tuple[float, ...]:
    return (params.xi, 1.0, 1.0, 1.0, 1.0, params.spike_value)


def family_instance(p: ProbVector, params: HardParams) -> Instance:
    """The family member as a plain all-atoms instance."""
    u = family_values(params)
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
    vals = p.values
    none_one = 1.0
    for idx in (1, 2, 3, 4):
        none_one *= 1.0 - vals[idx]
    first_five = (1.0 - none_one) * 1.0 + none_one * params.xi
    return vals[5] * params.spike_value + (1.0 - vals[5]) * first_five


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


def build_dd_mixture(
    params: HardParams, alt_success: bool = False
) -> tuple[MixtureSpec, CountDist, CountDist]:
    """The ones-count mixture and its two-binomial stand-in, both on {0..4k}.

    The mixture draws j from Bin(3k, 1/3) and then k + Bin(k, g(j)); the
    stand-in is Bin(3k, 1/3) + Bin(k, eps), which shares its mean k(1 + eps).
    alt_success switches the component success to min(1, eps + g(j)), the
    other reading of the ramp, for comparison.
    """
    k = params.k
    coeff = binom(3 * k, ONE_THIRD)
    ramp = g_clamp(np.arange(3 * k + 1), params)
    success = np.minimum(1.0, params.eps + ramp) if alt_success else ramp

    mix_masses = np.zeros(4 * k + 1)
    block = 512
    for start in range(0, 3 * k + 1, block):
        stop = min(start + block, 3 * k + 1)
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


def overselection_grid(params: HardParams, points: int = 21) -> np.ndarray:
    """Evenly spaced p5 probes over [0, 2*eps], endpoints included."""
    return np.linspace(0.0, 2.0 * params.eps, points)


def adversary(policy: QPolicy, params: HardParams) -> tuple[ProbVector, float]:
    """Worst family member for a policy, with its exact ratio.

    Sweeps the single-nonzero-box vectors over the p5 grid, each with and
    without the spike coordinate, plus the balanced endgame vector; ties in
    the exact ratio break toward the earliest candidate.
    """
    candidates: list[ProbVector] = []
    for ell in overselection_grid(params):
        for b2, b3, b4 in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
            for p6 in (0.0, params.spike_prob):
                candidates.append(ProbVector((1.0, b2, b3, b4, float(ell), p6)))
    candidates.append(p_star(params))

    best_vec = None
    best_ratio = math.inf
    for vec in candidates:
        ratio = eval_q_policy(vec, params, policy) / family_prophet_value(vec, params)
        if ratio < best_ratio:
            best_vec, best_ratio = vec, ratio
    return best_vec, best_ratio
