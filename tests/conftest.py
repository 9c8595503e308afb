import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from prophet_samples import HardParams, Instance, ProbVector, QPolicy, ValueDist
from prophet_samples.hardness import STOPS, T1


@pytest.fixture
def instance_a() -> Instance:
    """Two boxes: a sure 1, then 2 or 0 with equal odds."""
    return Instance((ValueDist.atom(1.0), ValueDist.discrete({2.0: 0.5, 0.0: 0.5})))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@st.composite
def value_dists(draw, max_segments: int = 3, discrete_only: bool = False) -> ValueDist:
    nseg = draw(st.integers(1, max_segments))
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(nseg)]
    total = sum(raw)
    parts = []
    for w in raw:
        lo = draw(st.floats(0.0, 5.0))
        if discrete_only or draw(st.booleans()):
            parts.append((w / total, lo, lo))
        else:
            width = draw(st.floats(0.1, 3.0))
            parts.append((w / total, lo, lo + width))
    return ValueDist(tuple(parts))


@st.composite
def instances(draw, max_boxes: int = 4, discrete_only: bool = False) -> Instance:
    n = draw(st.integers(1, max_boxes))
    return Instance(
        tuple(draw(value_dists(discrete_only=discrete_only)) for _ in range(n))
    )


_DISCRETE_POOL = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def random_discrete_instance(
    rng: np.random.Generator,
    max_boxes: int = 5,
    max_support: int = 4,
) -> Instance:
    """Small all-atoms instance; shared pool values make cross-box ties common.

    Redraws the rare all-zero-values instance, which has no prophet tail to
    compare against.
    """
    while True:
        n = int(rng.integers(1, max_boxes + 1))
        boxes = []
        for _ in range(n):
            s = int(rng.integers(1, max_support + 1))
            vals = rng.choice(np.array(_DISCRETE_POOL), size=s, replace=False)
            weights = rng.random(s) + 0.05
            weights = weights / weights.sum()
            boxes.append(ValueDist(tuple((w, v, v) for w, v in zip(weights, vals))))
        inst = Instance(tuple(boxes))
        if max(inst.support_atoms()) > 0.0:
            return inst


def brute_force_eval(p: ProbVector, params: HardParams, policy: QPolicy) -> float:
    """Independent oracle: enumerate all 2^(5k) sample pools and 32 value vectors."""
    p.check_membership(params)
    k = params.k
    if k > 3:
        raise ValueError("brute force supports k <= 3 only")
    vals = p.values
    q = {prefix: policy.row(prefix).tolist() for prefix in STOPS}
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
                value = params.xi * q[T1][ones]
                alive = 1.0 - q[T1][ones]
                prefix = T1
                for b in vbits[:4]:
                    prefix = prefix + (b,)
                    if b:
                        qq = q[prefix][ones]
                        value += alive * qq
                        alive *= 1.0 - qq
                if vbits[4]:
                    value += alive * params.spike_value
            inner += prob_v * value
        total += prob_s * inner
    return total
