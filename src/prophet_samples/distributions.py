"""Box value distributions and online instances.

A box's value distribution is a finite mixture of uniform segments; a segment
with ``lo == hi`` is an atom. This family is closed under everything the
benchmark suite needs: point masses, scaled Bernoullis, shifted uniforms, and
rare-spike mixtures. All arithmetic is plain binary64.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

WEIGHT_TOL = 1e-12
VALUE_MAX = 2.0**64  # sums of squares over 2^63 replications stay far below 1.8e308
# Largest stratum table (_level_structure), in entries, and largest binomial n
# and Bernoulli count the TV and tail checks accept, checked before
# allocation. In a fresh process (55 MB after import), binom(2^22, 0.5) keeps
# 78,641 masses and peaks at 59 MB, and tv_binom_vs_normal at 2^22 adds about
# 1 MB. chernoff_check of 2^22 equal p takes 0.12 s on a 2-core Xeon and peaks
# at 160 MB, 73 MB above its input list.
SIZE_CAP = 1 << 22
# Largest walk over a stratum table, in multiply-adds: n(n + 1)/2 per stratum,
# the cost of the product of n box CDFs that _prophet_value builds on each.
WALK_CAP = 1 << 28
# Most CDF boundaries (segments - 1) whose segment pick sample_many counts in
# uint8. Per (5140, 100) block on PCG64DXSM, one per thread on 2 x86-64 cores,
# best of 15, counting took 15.8 ms at 1 boundary, 23.3 at 63 and 39.2 at 127,
# searchsorted 27.2, 34.2 and 39.6 ms; at 143 and 159 boundaries searchsorted
# won, 38.0 ms against 41.0 and 41.6 against 43.6.
_COUNTED_BOUNDARIES = 127


@dataclass(frozen=True)
class ValueDist:
    """Finite mixture of uniform segments ``(weight, lo, hi)``.

    Segments are stored sorted by ``(lo, hi)``. Weights must be in [0, 1] and
    sum to 1 within 1e-12; all bounds lie in [0, VALUE_MAX].
    """

    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        segs = tuple(
            sorted(
                ((float(w), float(lo), float(hi)) for w, lo, hi in self.segments),
                key=lambda s: (s[1], s[2]),
            )
        )
        if not segs:
            raise ValueError("distribution needs at least one segment")
        total = 0.0
        for w, lo, hi in segs:
            if not (0.0 <= w <= 1.0):
                raise ValueError(f"segment weight {w} outside [0, 1]")
            if not (lo <= VALUE_MAX and hi <= VALUE_MAX):
                raise ValueError(f"segment bounds ({lo}, {hi}) must be finite and at most 2^64")
            if lo < 0.0:
                raise ValueError(f"segment lower bound {lo} is negative")
            if hi < lo:
                raise ValueError(f"segment bounds ({lo}, {hi}) are inverted")
            total += w
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"segment weights sum to {total!r}, expected 1")
        object.__setattr__(self, "segments", segs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def atom(value: float) -> "ValueDist":
        return ValueDist(((1.0, value, value),))

    @staticmethod
    def uniform(lo: float, hi: float) -> "ValueDist":
        return ValueDist(((1.0, lo, hi),))

    @staticmethod
    def discrete(masses: Mapping[float, float]) -> "ValueDist":
        """All-atoms distribution from a value -> probability mapping."""
        return ValueDist(tuple((p, v, v) for v, p in masses.items()))

    # -- structure ---------------------------------------------------------

    def atoms(self) -> dict[float, float]:
        """Atom value -> mass (zero-width segments only)."""
        out: dict[float, float] = {}
        for w, lo, hi in self.segments:
            if lo == hi:
                out[lo] = out.get(lo, 0.0) + w
        return out

    def breakpoints(self) -> list[float]:
        pts = {lo for _, lo, _ in self.segments} | {hi for _, _, hi in self.segments}
        return sorted(pts)

    # -- exact functionals ---------------------------------------------------

    def cdf(self, x):
        """Right-continuous CDF; accepts scalars or arrays."""
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        for w, lo, hi in self.segments:
            if lo == hi:
                out += w * (arr >= lo)
            else:
                out += w * np.clip((arr - lo) / (hi - lo), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def mass_at(self, x):
        """Atom mass exactly at x (0 for interior of intervals)."""
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        for w, lo, hi in self.segments:
            if lo == hi:
                out += w * (arr == lo)
        return float(out) if out.ndim == 0 else out

    def tail_expectation(self, t):
        """E[v * 1{v > t}], exact closed form per segment."""
        arr = np.asarray(t, dtype=float)
        out = np.zeros_like(arr)
        for w, lo, hi in self.segments:
            if lo == hi:
                out += w * lo * (arr < lo)
            else:
                cut = np.clip(arr, lo, hi)
                # factored so a segment far from 0 does not cancel at spike scale
                out += (w / (2.0 * (hi - lo))) * (hi - cut) * (hi + cut)
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        return math.fsum(w * 0.5 * (lo + hi) for w, lo, hi in self.segments)

    # -- sampling ------------------------------------------------------------

    def sample_many(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Vectorized draws: a segment index, then a position in the segment.

        With more than one segment it draws rng.random(shape) for the index,
        then rng.random(shape) for the position; one segment draws the
        position only. The index is the inverse-CDF pick that
        rng.choice(m, size=shape, p=weights / weights.sum()) makes from the
        same uniform u: the count of cumulative sums of p, over their last
        entry, that are <= u, counted up to _COUNTED_BOUNDARIES boundaries and
        searched past them. So the draws, and the generator state afterwards,
        are bit for bit those of rng.choice. The gathers run with mode="clip"
        (every index is in range), which writes straight into `out=`; so at
        most three float arrays of the block's size are live at once.
        """
        los = np.array([lo for _, lo, _ in self.segments])
        width = np.array([hi - lo for _, lo, hi in self.segments])
        u = rng.random(shape)
        if len(self.segments) == 1:
            u *= width[0]
            u += los[0]
            return u
        weights = np.array([w for w, _, _ in self.segments])
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
        if len(cdf) - 1 <= _COUNTED_BOUNDARIES:
            idx = (u >= cdf[0]).view(np.uint8)
            for c in cdf[1:-1]:
                idx += u >= c
        else:
            idx = cdf.searchsorted(u, side="right")
        pos = rng.random(shape, out=u)
        out = width.take(idx, mode="clip")
        out *= pos
        out += los.take(idx, out=pos, mode="clip")
        return out


@dataclass(frozen=True)
class Instance:
    """Ordered sequence of independent boxes; order is the arrival order."""

    boxes: tuple[ValueDist, ...]

    def __post_init__(self) -> None:
        boxes = tuple(self.boxes)
        if not boxes:
            raise ValueError("instance needs at least one box")
        object.__setattr__(self, "boxes", boxes)

    @property
    def n(self) -> int:
        return len(self.boxes)

    @property
    def has_atoms(self) -> bool:
        return any(not all(lo < hi for _, lo, hi in b.segments) for b in self.boxes)

    def breakpoints(self) -> list[float]:
        pts: set[float] = set()
        for b in self.boxes:
            pts.update(b.breakpoints())
        return sorted(pts)

    def prophet_expectation(self) -> float:
        """Exact E[max_i v_i] from the stratum table (_prophet_value); raises
        ValueError before the table is allocated when check_strata does."""
        return _prophet_value(*_level_structure(self)[:3])


def _check_table(n: int, points: int) -> None:
    # one column per breakpoint and per gap between adjacent breakpoints
    strata = 2 * points - 1
    if n * strata > SIZE_CAP:
        raise ValueError(f"the {n} x {strata} stratum table exceeds the cap of {SIZE_CAP} entries")
    work = n * (n + 1) // 2 * strata
    if work > WALK_CAP:
        raise ValueError(f"the {n} x {strata} stratum table takes {work} multiply-adds to walk, over the cap of {WALK_CAP}")


def check_strata(inst: Instance) -> None:
    """Raise ValueError when the stratum table of `inst` would exceed SIZE_CAP
    entries, or a walk over it WALK_CAP multiply-adds.

    The table has one row per box and a column per breakpoint and per gap
    between adjacent breakpoints, before empty strata are dropped. Every
    reader of it, the exact evaluators and the prophet value, walks the n
    boxes on each stratum.
    """
    _check_table(inst.n, len(inst.breakpoints()))


def _level_structure(
    inst: Instance, cuts: Sequence[float] = ()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Descending strata of the pooled sample distribution: (los, his, probs, firsts).

    Each stratum is either an atom (lo = hi) or an open interval between
    adjacent breakpoints, the instance's and the extra `cuts`; probs[i, j] is
    the chance one sample of box i lands in stratum j, and firsts[i, j] =
    probs[i, j] (lo_j + hi_j)/2 is E[v_i; v_i in stratum j], since every
    segment is uniform across a stratum. The prophet value (_prophet_value)
    and the exact, semi-exact and dominance evaluators read every box from
    these tables alone: with the threshold in stratum j, its stay and pay
    are column sums of them (_stratum_values, within 6.9e-16 relative of
    exact rationals per stratum, and _exact_tails). _exact_tails cuts the
    table at its grid, so that no stratum straddles a grid point, and every
    other caller at nothing; an interval is split by the same per-segment
    rule w (b - a) / (hi - lo). The per-stratum counts of k samples per box (Multinomial(k,
    probs[i])) can be drawn one stratum at a time from the top down
    (_threshold_strata), and within an interval stratum the points are
    conditionally iid uniform. Strata no box can land in, such as the atom
    at a cut between breakpoints, are dropped. Raises ValueError before the
    table is allocated (check_strata), counted over the merged breakpoints.
    """
    breaks = np.unique(np.concatenate((inst.breakpoints(), cuts)))[::-1]
    _check_table(inst.n, len(breaks))
    # column 2j is the atom at breaks[j], column 2j + 1 the interval (breaks[j + 1], breaks[j])
    doubled = np.repeat(breaks, 2)
    los, his = doubled[1:], doubled[:-1]
    a, b = breaks[1:], breaks[:-1]
    probs = np.zeros((inst.n, len(los)))
    for row, box in zip(probs, inst.boxes):
        row[0::2] = box.mass_at(breaks)
        total = row[1::2]
        for w, lo, hi in box.segments:
            if lo < hi:
                total += np.where((lo <= a) & (b <= hi), w * (b - a) / (hi - lo), 0.0)
    keep = probs.sum(axis=0) > 0.0
    # in C order, a sum over a row's columns is that row's pairwise sum
    los, his, probs = los[keep], his[keep], np.ascontiguousarray(probs[:, keep])
    return los, his, probs, probs * ((los + his) / 2.0)


def _prophet_value(los: np.ndarray, his: np.ndarray, probs: np.ndarray) -> float:
    """E[max_i v_i], the integral of 1 - prod_i F_i from 0 up, from the
    stratum table (los, his, probs) of _level_structure.

    On stratum j, F_i = below_ij + probs_ij s at x = lo + (hi - lo) s, with
    below_ij box i's mass under the stratum, so prod_i F_i is a polynomial
    Q_j in s with nonnegative coefficients. It is built box by box, of
    degree i after box i, n(n + 1)/2 multiply-adds per stratum, and its
    coefficient m integrates to 1/(m + 1). On the gap under stratum j, down
    to the next stratum or to 0, every F_i is below_ij, so prod_i F_i is
    Q_j(0). The value is the sum over strata of (hi - lo)(1 - int Q_j) +
    gap_j (1 - Q_j(0)), added top down in Python floats.
    """
    n, strata = probs.shape
    below = np.zeros_like(probs)
    below[:, :-1] = np.cumsum(probs[:, :0:-1], axis=1)[:, ::-1]
    coefs = np.zeros((n + 1, strata))
    coefs[0] = 1.0
    for i, (b, p) in enumerate(zip(below, probs)):
        shifted = coefs[: i + 1] * p
        coefs[: i + 1] *= b
        coefs[1 : i + 2] += shifted
    integral = np.sum(coefs / np.arange(1.0, n + 2.0)[:, None], axis=0)
    gaps = los - np.append(his[1:], 0.0)
    parts = (his - los) * (1.0 - integral) + gaps * (1.0 - coefs[0])
    total = 0.0
    for part in parts.tolist():
        total += part
    return total


# -- JSON interchange --------------------------------------------------------
# Instance description file: {"boxes": [{"segments": [[w, lo, hi], ...]}, ...]}


def instance_to_json(inst: Instance) -> dict:
    return {"boxes": [{"segments": [list(s) for s in b.segments]} for b in inst.boxes]}


def _is_int(x) -> bool:
    """A Python or numpy integer; a bool or a float is not, whatever its value."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_keys(obj: Mapping, keys: tuple[str, ...], path: str = "") -> None:
    """Reject a key of the JSON object obj outside keys, naming it by its path."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"'{path}{key}' is never read; the keys read are {', '.join(keys)}")


def instance_from_json(obj: Mapping) -> Instance:
    boxes = obj.get("boxes") if isinstance(obj, Mapping) else None
    if not isinstance(boxes, list):
        raise ValueError("instance JSON must contain a 'boxes' array")
    _check_keys(obj, ("boxes",))
    dists = []
    for i, box in enumerate(boxes):
        segs = box.get("segments") if isinstance(box, Mapping) else None
        if not isinstance(segs, list):
            raise ValueError(f"box {i} must contain a 'segments' array")
        _check_keys(box, ("segments",), f"boxes[{i}].")
        for j, seg in enumerate(segs):
            if not (isinstance(seg, (list, tuple)) and len(seg) == 3 and all(map(_is_number, seg))):
                raise ValueError(f"box {i} segment {j} must be 3 numbers [weight, lo, hi], got {seg!r}")
        dists.append(ValueDist(tuple(tuple(seg) for seg in segs)))
    return Instance(tuple(dists))


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))
