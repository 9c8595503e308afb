"""The six-box hardness family and its exact policy evaluation.

Instances put value u_i in box i with probability p_i, where
u = (xi, 1, 1, 1, 1, k^4) and p ranges over a constrained family. Any online
algorithm restricted to this family reduces to a policy q(prefix, ones-count):
the acceptance probability of the last observed nonzero value given the
number of 1s in the sample pool, with two fixed conventions on top (never
accept 0; once a k^4 sample is seen, wait for the last box).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .distributions import Instance, ValueDist, _check_keys, _is_int, _is_number
from .stats import CountDist, _binom_windows, _trimmed_windows, sum_of_binomials

ANCHOR = "xi"

ONE_THIRD = 1.0 / 3.0

# The anchor value xi and the certificate's selection rates delta1 and delta2;
# with HardParams' default eps they realize the 0.4997 certificate.
XI, DELTA1, DELTA2 = 0.9, 0.01, 0.5005

_PROB_TOL = 1e-12

# HardParams' largest k; policy files are checked against it before their
# (4k + 1)-wide rows are allocated.
_MAX_K = 10_000


# The 31 observable prefixes: the anchor alone, then anchor x {0,1}^m for m = 1..4.
PREFIXES: tuple[tuple, ...] = tuple(
    (ANCHOR, *bits) for m in range(5) for bits in itertools.product((0, 1), repeat=m)
)

T1 = (ANCHOR,)
T2 = (ANCHOR, 1)


@dataclass(frozen=True)
class HardParams:
    """The family's two settings: k, the samples per box (the spike pays k^4
    with chance 1/k^3), and eps, the p5 ramp's offset. The anchor value and
    the certificate's rates are the module constants XI, DELTA1 and DELTA2."""

    k: int
    eps: float = 0.0001

    def __post_init__(self) -> None:
        if not _is_int(self.k) or not 1 <= self.k <= _MAX_K:
            raise ValueError(f"k = {self.k!r} must be an integer in [1, 10^4] so k^4 stays exact in binary64")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0, 1)")

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


def policy_from_json(obj: Mapping) -> QPolicy:
    """Sparse policy file: entries name a prefix in STOPS; missing (prefix, i) entries are 0."""
    k = obj.get("k") if isinstance(obj, Mapping) else None
    if not _is_int(k) or not 1 <= k <= _MAX_K:
        raise ValueError(f"policy JSON must contain an integer 'k' in [1, {_MAX_K}], got {k!r}")
    _check_keys(obj, ("k", "entries"))
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
        _check_keys(entry, ("prefix", "i", "q"), f"entries[{pos}].")
        if not _is_int(i):
            raise ValueError(f"entry {pos} has ones-count {i!r}, which is not an integer")
        if not _is_number(q):
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


def _stop_table(table: np.ndarray) -> np.ndarray:
    """Stop probabilities and path survivals on the columns of a (16, w) slice
    of a policy table; shape (32, w).

    Rows 0..15 hold s(P, i) = alive(P, i) * q(P, i) for P in STOPS; rows
    16..31 hold the chance that the walk along each of the 16 paths never
    stopped. Survival is carried as its own product, not as 1 - sum(s), so
    every entry is a nonnegative product and nothing cancels. The table is
    built one PREFIXES level at a time: the 2^(m-1) stops of level m are
    STOPS rows 2^(m-1)..2^m - 1, one per prefix of level m - 1.
    """
    alive = 1.0 - table[:1]
    rows = [table[:1]]
    for m in range(1, 5):
        q = table[2 ** (m - 1) : 2**m]
        rows.append(alive * q)
        alive = np.stack([alive, alive * (1.0 - q)], axis=1).reshape(-1, table.shape[1])
    return np.concatenate(rows + [alive])


def _member_laws(vals: np.ndarray, params: HardParams) -> tuple:
    """What _member_values needs besides the policy, read-only: the folded (offset,
    masses) laws, the span [lo, hi) they reach, each member's law index, path weights and spike terms."""
    k = params.k
    p234 = vals[:, 1:4]
    if not np.isin(p234, (0.0, ONE_THIRD, 1.0)).all():
        raise ValueError("p2..p4 must each be 0, 1/3 or 1")
    p5 = vals[:, 4]
    ps = np.unique(p5[(p5 > 0.0) & (p5 < 1.0)])
    windows = {0.0: (0, np.ones(1)), 1.0: (k, np.ones(1))}
    for a, c, block in _binom_windows(k, ps):
        windows.update((p, (c, row)) for p, row in zip(ps[a : a + len(block)].tolist(), block))
    _, c3, (third,) = next(_binom_windows(k, np.array([ONE_THIRD])))
    laws: dict[tuple, int] = {}
    counts = (np.count_nonzero(p234 == v, axis=1).tolist() for v in (1.0, ONE_THIRD))
    member_law = np.array([laws.setdefault(key, len(laws)) for key in zip(*counts, p5.tolist())])
    folded = []
    for ones, thirds, p in laws:
        c, window = windows[p]
        folded.append((ones * k + thirds * c3 + c, functools.reduce(np.convolve, [third] * thirds + [window])))
    lo = min(offset for offset, _ in folded)
    hi = max(offset + len(masses) for offset, masses in folded)
    factors = np.stack([1.0 - vals[:, 1:5], vals[:, 1:5], np.ones((len(vals), 4))], axis=-1)
    weights = np.prod(factors[:, np.arange(4), _ROW_BITS], axis=-1)
    tail = vals[:, 5] * params.spike_value
    weights[:, 0] *= XI
    weights[:, len(STOPS) :] *= tail[:, None]
    spike = np.array([_spike_prob(p6, k) for p6 in vals[:, 5].tolist()])
    for a in [member_law, weights, tail, spike, *(masses for _, masses in folded)]:
        a.setflags(write=False)
    return lo, hi, tuple(folded), member_law, weights, tail, spike


def _score(laws: tuple, policy: QPolicy) -> np.ndarray:
    """Each member's value under a policy: its stop table on [lo, hi), one mat-vec per law."""
    lo, hi, folded, member_law, weights, tail, spike = laws
    table = _stop_table(policy.table[:, lo:hi])
    pooled = np.array([table[:, c - lo : c - lo + len(masses)] @ masses for c, masses in folded])[member_law]
    no_spike = np.vecdot(weights, pooled)
    return spike * tail + (1.0 - spike) * no_spike


def _member_values(vals: np.ndarray, params: HardParams, policy: QPolicy) -> np.ndarray:
    """Exact expected accepted value of one policy on each member.

    vals holds one member's (p1..p6) per row. The value is linear in the stop
    table: a member weighs T1's stop by xi, the stop at a prefix ending in 1
    by the chance of that prefix (the value taken is 1), and the survival of
    a path by the chance of that path times the spike tail p6 * k^4 that box
    6 pays when reached. Each distinct ones-count law is keyed by the number
    of 1s and of 1/3s among p2..p4 (any other p2..p4 raises ValueError) and
    p5. It is the np.convolve fold of trimmed windows, p2..p5 order, offset
    by k per part with p = 1: Bin(k, 1/3) once per 1/3, then Bin(k, p5). The
    windows come from two stats._binom_windows calls (every p5 in (0, 1),
    then 1/3) and leave out at most 1e-18 of a law per tail (_member_laws).
    _score builds the stop table only on the columns some law reaches, and
    puts each law into it by one mat-vec. Each value is within 2e-15 relative
    of the dense per-law fold kept in tests/conftest.py (measured 8.5e-16, at
    k = 1e4) and of exact rationals at k = 3 and 10 (measured 5.4e-16).
    """
    if policy.k != params.k:
        raise ValueError("policy and params disagree on k")
    return _score(_member_laws(vals, params), policy)


def eval_q_policy(p: ProbVector, params: HardParams, policy: QPolicy) -> float:
    """Exact expected accepted value of a policy on one family member.

    Conditions on the spike-observed event (where the policy waits for the
    last box), otherwise marginalizes the ones-count law against the walk over
    the 32 value realizations. Acceptance happens at nonzero values only; a
    nonzero last-box value is always taken when reached.

    This is the one-member call of the kernel `adversary` uses: the policy's
    stop-probability table (the chance s(P, i) of stopping at each prefix
    that can stop, and of surviving each path, per ones-count i) folded with
    the member's ones-count law, folded afresh from trimmed binomial windows
    on each call, and weighted by its path probabilities; the value is within
    2e-15 relative of the dense fold and of exact rationals (_member_values).
    """
    p.check_membership(params)
    return float(_member_values(np.array([p.values]), params, policy)[0])


# -- family instances and prophet values --------------------------------------------------


def family_instance(p: ProbVector, params: HardParams) -> Instance:
    """The family member as a plain all-atoms instance."""
    u = (XI, 1.0, 1.0, 1.0, 1.0, params.spike_value)
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
    first_five = (1.0 - none_one) * 1.0 + none_one * XI
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


def build_dd_mixture(params: HardParams) -> tuple[MixtureSpec, CountDist, CountDist]:
    """The ones-count mixture and its two-binomial stand-in, both on {0..4k}.

    The mixture draws j from Bin(3k, 1/3) and then k + Bin(k, g(j)); the
    stand-in is Bin(3k, 1/3) + Bin(k, eps), which shares its mean k(1 + eps).
    Both are built on trimmed windows. The coefficients j and Bin(k, eps) are
    Bernstein windows cut to their shortest runs with at most 1e-18 in each
    tail (stats._trimmed_windows), and spec.coefficients is the coefficient
    window on {0..3k}. Rows with g(j) = 0 or 1 are single masses at k and 2k;
    the others are evaluated a chunk at a time on Bernstein windows that leave
    out at most 1e-18 per tail (stats._binom_windows), each row divided by its
    own window sum. The stand-in is the convolution of the two trimmed
    windows. Each window leaves out at most 4e-18 of its law, so either law
    loses at most 8e-18 before it is renormalized.

    Against the dense build kept in tests/test_hardness.py (every coefficient,
    full Bin(k, g(j)) rows) each mass and TV(mix, star) is within 4.4e-16
    absolute, measured at most 2.2e-16 on k from 1 to 1e4 and eps from 1e-4
    to 0.999. Against exact rationals at k = 10 and 30 each mass is within
    1e-17 + 1e-13 times its value and the TV within 1e-13 relative, measured
    at most 2.4e-14 and 1.6e-14.
    """
    k = params.k
    ((j0, weights, _),) = _trimmed_windows(3 * k, [ONE_THIRD])
    success = g_clamp(np.arange(3 * k + 1), params)
    g = success[j0 : j0 + len(weights)]
    # g is nondecreasing in j: rows before first have g = 0, rows from last on g = 1
    first = int(np.searchsorted(g, 0.0, side="right"))
    last = int(np.searchsorted(g, 1.0))

    mix_masses = np.zeros(4 * k + 1)
    mix_masses[k] = weights[:first].sum()
    mix_masses[2 * k] = weights[last:].sum()
    for a, c, rows in _binom_windows(k, g[first:last]):
        mix_masses[k + c : k + c + rows.shape[1]] += weights[first + a : first + a + len(rows)] @ rows
    mix = CountDist(0, mix_masses / mix_masses.sum())

    ((b0, noise, _),) = _trimmed_windows(k, [params.eps])
    star_window = np.convolve(weights, noise)
    star_masses = np.zeros(4 * k + 1)
    star_masses[j0 + b0 : j0 + b0 + len(star_window)] = star_window / star_window.sum()
    star = CountDist(0, star_masses)

    coefficients = np.zeros(3 * k + 1)
    coefficients[j0 : j0 + len(weights)] = weights
    spec = MixtureSpec(
        coefficients=coefficients,
        component_shift=k,
        component_trials=k,
        component_success=success,
    )
    return spec, mix, star


# -- the certificate and the adversary -------------------------------------------------------


def certificate_terms(params: HardParams) -> tuple[float, float, float]:
    """The three proof branches the family forces: over-selection on the spike
    member, under-selection on the plain member, and the balanced endgame."""
    t1 = XI * DELTA1 + DELTA2 - DELTA1 + 2.0 * params.eps
    t2 = 1.0 - DELTA2
    t3 = (
        XI * DELTA1 * (8.0 / 27.0)
        + DELTA2 * (12.0 / 27.0)
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
    grid = overselection_grid(params)
    rows = np.zeros((len(grid), 3, 2, 6))
    rows[..., 0] = 1.0
    rows[..., 1:4] = np.eye(3)[:, None, :]
    rows[..., 4] = grid[:, None, None]
    rows[..., 5] = [0.0, params.spike_prob]
    return np.vstack([rows.reshape(-1, 6), p_star(params).values])


@functools.lru_cache(maxsize=8)
def _adversary_laws(params: HardParams) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The candidates, their prophet values and their _member_laws, read-only."""
    candidates = adversary_candidates(params)
    frozen = candidates, _prophet_values(candidates, params)
    for a in frozen:
        a.setflags(write=False)
    return *frozen, _member_laws(candidates, params)


def adversary(policy: QPolicy, params: HardParams) -> tuple[ProbVector, float]:
    """Worst family member for a policy, with its exact ratio.

    Scores every candidate of `adversary_candidates` by the _member_values
    kernel, within 2e-15 relative of the dense per-law fold; ties break toward
    the earliest candidate. Only the stop table is built per call: the first
    call per HardParams in a process builds the candidates, prophet values and
    _member_laws (folded laws, span, path weights, spike terms), and a private
    cache keeps them, read-only, for the 8 latest params (52 kB at k = 400).
    """
    if policy.k != params.k:
        raise ValueError("policy and params disagree on k")
    candidates, prophet, laws = _adversary_laws(params)
    ratios = _score(laws, policy) / prophet
    best = int(np.argmin(ratios))
    return ProbVector(tuple(candidates[best])), float(ratios[best])
