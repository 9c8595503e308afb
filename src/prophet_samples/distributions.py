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
from functools import lru_cache
from typing import Mapping

import numpy as np
from numpy.polynomial.legendre import leggauss

WEIGHT_TOL = 1e-12
VALUE_MAX = 2.0**64  # sums of squares over 2^63 replications stay far below 1.8e308
# Array entries per block of the prophet integral's (interval, node) grid.
_GRID_BUDGET = 1 << 15
# Largest count of box CDF entries the prophet integral may evaluate: n per point
# of its (interval, node) grid. 600 boxes, 2.2e8 entries, take 1.5 s on 2 x86-64 cores.
PROPHET_CDF_CAP = 1 << 28
# Most CDF boundaries (segments - 1) whose segment pick sample_many counts in
# uint8. Per (5140, 100) block on PCG64DXSM, one per thread on 2 x86-64 cores,
# best of 15, counting took 15.8 ms at 1 boundary, 23.3 at 63 and 39.2 at 127,
# searchsorted 27.2, 34.2 and 39.6 ms; at 143 and 159 boundaries searchsorted
# won, 38.0 ms against 41.0 and 41.6 against 43.6.
_COUNTED_BOUNDARIES = 127


@lru_cache(maxsize=128)
def _gauss_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = leggauss(count)
    return nodes, weights


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

    def exceedance(self, x):
        """Pr[v >= x], summed over the segments at or above x, so it is
        exactly 0 above the support."""
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        for w, lo, hi in self.segments:
            if lo == hi:
                out += w * (arr <= lo)
            else:
                out += w * np.clip((hi - arr) / (hi - lo), 0.0, 1.0)
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

    def product_cdf(self, x):
        """CDF of the maximum: product of the per-box CDFs."""
        arr = np.asarray(x, dtype=float)
        out = np.ones_like(arr)
        for b in self.boxes:
            out = out * b.cdf(arr)
        return float(out) if out.ndim == 0 else out

    def max_exceedance(self, x):
        """Pr[max_i v_i >= x] = 1 - prod_i (1 - Pr[v_i >= x])."""
        arr = np.asarray(x, dtype=float)
        out = np.ones_like(arr)
        for b in self.boxes:
            out = out * (1.0 - b.exceedance(arr))
        res = 1.0 - out
        return float(res) if np.ndim(res) == 0 else res

    def check_prophet_cost(self) -> None:
        """Raise ValueError when prophet_expectation would evaluate more than PROPHET_CDF_CAP
        box CDF entries: n per interval of [0, max breakpoint] per ceil((n+1)/2) nodes."""
        intervals = sum(1 for p in self.breakpoints() if p > 0.0)
        entries = self.n * intervals * ((self.n + 2) // 2)
        if entries > PROPHET_CDF_CAP:
            raise ValueError(f"prophet integral: {entries} CDF entries exceed the cap of {PROPHET_CDF_CAP}")

    def prophet_expectation(self) -> float:
        """Exact E[max_i v_i] as the integral of 1 - prod F_i.

        Between consecutive breakpoints every per-box CDF is linear, so the
        integrand is a polynomial of degree <= n; ceil((n+1)/2) Gauss-Legendre
        nodes integrate it exactly. The (interval, node) grid is evaluated in
        blocks of whole intervals of at most _GRID_BUDGET entries (one
        interval at least), one product_cdf call per block, so the scratch
        memory is bounded for any n. Each interval's node terms are summed
        along its row and scaled by its half width; the interval totals are
        then added left to right in Python floats. Raises ValueError
        (check_prophet_cost) before any CDF is evaluated.
        """
        self.check_prophet_cost()
        pts = np.array([0.0] + [p for p in self.breakpoints() if p > 0.0])
        x, w = _gauss_nodes((self.n + 2) // 2)
        mid, half = 0.5 * (pts[:-1] + pts[1:]), 0.5 * (pts[1:] - pts[:-1])
        step = max(1, _GRID_BUDGET // len(x))
        total = 0.0
        for s in range(0, len(mid), step):
            m, h = mid[s : s + step], half[s : s + step]
            terms = w * (1.0 - self.product_cdf(m[:, None] + h[:, None] * x))
            for part in (h * np.sum(terms, axis=1)).tolist():
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
