"""The benchmark's four workloads: their inputs, their calls and their checks.

Every input is generated here from the workload seed; nothing calls the
library's own instance generators, so a change to those cannot change what
the benchmark measures. A workload is a fixed list of tasks. A task is one
public call into prophet_samples and returns its output as a tuple of
numbers. The runner repeats the list in passes; every pass does the same
work, so a task's output must repeat across passes.

Workloads and why each exists:

- semi-atoms: semi_exact_ordinal on mixtures whose rank-l threshold mostly
  lands on an atom. It runs the rank-law and atom-cache path.
- paper-sweep: ordinal_upper_bound_sweep on the paper's case1/case2
  instances at k = 1e4 over ranks around rho*k. It has no atoms, so it runs
  the multinomial/Beta draws and static_threshold_values and makes no
  rank-law calls.
- mc-pool: mc_ratio through `cli.main eval` manifests at 2 workers; the only
  workload that runs the pooled-sample simulator and its thread pool. It
  mixes discrete max-sample tasks at k = 1 (chunk and sampling overhead),
  atom mixtures under an ordinal rank (lexsort selection) and atom-free
  mixtures (partition selection).
- exact-oracles: the hardness adversary, the binomial-mixture TV distance,
  the binomial-normal TV distance, exact dominance, the CDF sandwich sweep
  and the Chernoff check; no estimator change should move it.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import prophet_samples as ps
from prophet_samples import cli, evaluation, hardness, stats

import oracles

WORKLOADS = ("semi-atoms", "paper-sweep", "mc-pool", "exact-oracles")

# Each workload reports its tail latency at a fixed percentile, the highest
# round one with at least ten tasks beyond it in a 20-second run on a busy
# 2-core host. Fixed, it keeps its meaning when a faster program completes
# more tasks; the runner falls back to the eleventh-slowest task when a run
# has too few. Each lies inside the slowest class of tasks of its workload.
SEMI_TAIL = 95.0
SWEEP_TAIL = 85.0
MC_TAIL = 85.0
ORACLES_TAIL = 97.5

# semi-atoms: every (n, k) with the threshold on the atom, plus three tasks
# whose threshold lands in the top interval of an instance that has atoms.
# Task counts per pass are odd and chosen so that the median task latency
# falls inside one class of tasks, not on the edge between two classes.
SEMI_REPS = 500
SEMI_GRID = tuple((n, k, "atom") for n in (2, 3, 4, 5) for k in (1000, 10_000)) + (
    (2, 10_000, "top"),
    (3, 1000, "top"),
    (4, 10_000, "top"),
)

# paper-sweep: one task is one sweep over the whole rank grid, as in
# scripts/run_rank_curve.py; each task of a pass has its own grid and seed.
# Tasks are long (about 0.2 s) so that pauses of a few milliseconds, which
# hit a varying number of tasks per run, do not set the tail latency.
SWEEP_K = 10_000
SWEEP_REPS = 20_000
SWEEP_FRACTIONS = tuple(0.40 + 0.02 * i for i in range(13))
SWEEP_TASKS = 3

# mc-pool: worker count of the CLI default on a 2-core machine, fixed so the
# workload does not change with the machine. Replication counts give every
# task two simulator chunks, so both workers have work.
MC_THREADS = 2
MC_DISCRETE_REPS = 100_000
MC_MIXTURE_K = 100
MC_MIXTURE_N = 4
MC_MIXTURE_REPS = 10_000
_DISCRETE_POOL = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)

# exact-oracles: the dominance corpus stays small (2-3 boxes, 2-3 atoms each)
# so that those tasks stay cheaper than one adversary call, and the median
# task is an adversary call whatever the seed.
ADVERSARY_K = 400
ADVERSARY_POLICIES = 12
DD_KS = (200, 800, 3200)
TV_NS = (1000, 10_000, 100_000, 1_000_000)
DOMINANCE_RANDOM = 3
SANDWICH_PROBES = 300
CHERNOFF = {"n": 1000, "p": 0.5, "delta": 0.1, "reps": 20_000}

# An estimate passes when it lies within this many standard errors of its
# exact reference; the per-check false alarm rate is below 1e-6.
Z_LIMIT = 5.0
EXACT_REL = 1e-12

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

_INSTANCE_A = [[(1.0, 1.0, 1.0)], [(0.5, 0.0, 0.0), (0.5, 2.0, 2.0)]]


@dataclass
class Task:
    kind: str
    work: int
    call: Callable[[], tuple]
    ref: Any = None


@dataclass
class Workload:
    name: str
    unit: str
    tasks: list[Task]
    check: Callable[[list[Task], list], list]
    tail_percentile: float
    threads: int = 1
    files: list[Path] = field(default_factory=list)

    def close(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)


def workload_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 62))


def instance(segments: list[list[tuple[float, float, float]]]) -> ps.Instance:
    return ps.Instance(tuple(ps.ValueDist(tuple(segs)) for segs in segments))


def banded(rng: np.random.Generator, n: int, k: int, rank: int, mode: str) -> oracles.BandedInstance:
    """A mixture whose rank-th highest of n*k samples lands where mode says.

    With q = rank / (n k), box i of mode "atom" puts 0.4q..0.5q on the top
    interval and 1.5q..1.7q on the atom, so the threshold is on the atom; for
    "top" and "free" it puts 1.9q..2.1q on the top interval, so the threshold
    is inside it, and "free" has no atom. The masses do not depend on the
    seed: they set how many distinct rank laws a task evaluates, and with it
    the task's cost. The values do.
    """
    q = rank / (n * k)
    atom = float(rng.uniform(2.0, 2.5))
    top_lo = atom + float(rng.uniform(0.2, 0.5))
    top_hi = top_lo + float(rng.uniform(1.0, 2.0))
    low, at, up = [], [], []
    for i in range(n):
        step = i / (n - 1) - 0.5
        if mode == "atom":
            up.append(q * (0.45 + 0.1 * step))
            at.append(q * (1.6 + 0.2 * step))
        else:
            up.append(q * (2.0 + 0.2 * step))
            at.append(0.0 if mode == "free" else q * (0.55 + 0.1 * step))
        lo = float(rng.uniform(0.0, 1.0))
        low.append((lo, float(rng.uniform(lo + 0.3, atom))))
    return oracles.BandedInstance(atom, top_lo, top_hi, tuple(low), tuple(at), tuple(up))


def discrete(rng: np.random.Generator, n: int, max_support: int = 4) -> list[list[tuple[float, float, float]]]:
    """n all-atom boxes over a shared value pool, so cross-box ties are common."""
    while True:
        boxes = []
        for _ in range(n):
            size = int(rng.integers(2, max_support + 1))
            vals = rng.choice(np.asarray(_DISCRETE_POOL), size=size, replace=False)
            weights = rng.random(size) + 0.05
            weights = weights / weights.sum()
            boxes.append([(float(w), float(v), float(v)) for w, v in zip(weights, vals)])
        if max(v for segs in boxes for _, v, _ in segs) > 0.0:
            return boxes


# -- checks -------------------------------------------------------------------


def estimate_problem(what: str, got: float, ci: float, want: float, err: float = 0.0):
    """An estimate with 95% halfwidth ci against an exact value known to +-err."""
    tol = Z_LIMIT * ci / 1.96 + err + 1e-9 * abs(want)
    if abs(got - want) <= tol:
        return None
    return f"{what} {got!r} is {abs(got - want):.3g} from its reference {want!r} (tolerance {tol:.3g})"


def exact_problem(what: str, got: float, want: float):
    if abs(got - want) <= EXACT_REL * abs(want):
        return None
    return f"{what} {got!r} differs from its reference {want!r} by more than {EXACT_REL} relative"


def first_problem(*problems):
    return next((p for p in problems if p), None)


def _decreasing(values: list[float]) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


# -- semi-atoms ---------------------------------------------------------------


def _semi_call(inst, k, rank, reps, seed) -> tuple:
    r = evaluation.semi_exact_ordinal(inst, k, rank, reps, seed)
    return (r.alg_value, r.prophet_value, r.ratio, r.ci_halfwidth)


def _check_semi(tasks, outputs):
    problems = []
    for task, (alg, prophet, ratio, ci) in zip(tasks, outputs):
        spec, k, rank = task.ref
        want, err = oracles.banded_walk_value(spec, k, rank)
        problems.append(
            first_problem(
                estimate_problem("alg_value", alg, ci, want, err),
                exact_problem("prophet_value", prophet, oracles.prophet_value(spec.segments())),
                exact_problem("ratio", ratio, alg / prophet),
            )
        )
    return problems


def _semi_atoms(rng, workdir) -> Workload:
    tasks = []
    for n, k, mode in SEMI_GRID:
        rank = ps.recommended_rank(k)
        spec = banded(rng, n, k, rank, mode)
        call = partial(_semi_call, instance(spec.segments()), k, rank, SEMI_REPS, _seed(rng))
        tasks.append(Task(f"{mode} n={n} k={k}", SEMI_REPS, call, (spec, k, rank)))
    return Workload("semi-atoms", "replications", tasks, _check_semi, SEMI_TAIL)


# -- paper-sweep --------------------------------------------------------------


def _case_boxes(k: int) -> int:
    """floor(k^(1/4)), at least 2: the paper's case2 box count."""
    return max(2, math.isqrt(math.isqrt(k)))


def case1_segments(k: int):
    spike = 1.0 / (k * k)
    base = float(k) ** 3
    return [[(1.0, 1.0, 2.0)], [(1.0 - spike, 0.0, 1.0), (spike, base, base + 1.0)]]


def _sweep_call(k, ranks, reps, seed) -> tuple:
    out = []
    for row in evaluation.ordinal_upper_bound_sweep(k, ranks, reps, seed):
        c1, c2 = row.case1, row.case2
        out += [c1.alg_value, c1.prophet_value, c1.ci_halfwidth, c2.alg_value, c2.prophet_value,
                c2.ci_halfwidth, row.min_ratio]
    return tuple(out)


def _check_sweep(tasks, outputs):
    k = SWEEP_K
    n = _case_boxes(k)
    prophet1 = oracles.prophet_value(case1_segments(k))
    prophet2 = oracles.prophet_value([[(1.0, float(k), k + 1.0)]] * n)
    problems = []
    for task, out in zip(tasks, outputs):
        found = []
        for rank, row in zip(task.ref, np.reshape(out, (-1, 7))):
            a1, p1, ci1, a2, p2, ci2, low = row
            found.append(
                first_problem(
                    estimate_problem(f"rank {rank} case1 alg_value", a1, ci1, oracles.case1_walk_value(k, rank)),
                    estimate_problem(f"rank {rank} case2 alg_value", a2, ci2, oracles.case2_walk_value(k, n, rank)),
                    exact_problem("case1 prophet_value", p1, prophet1),
                    exact_problem("case2 prophet_value", p2, prophet2),
                    exact_problem("min_ratio", low, min(a1 / p1, a2 / p2)),
                )
            )
        problems.append(first_problem(*found))
    return problems


def _paper_sweep(rng, workdir) -> Workload:
    k = SWEEP_K
    tasks = []
    for _ in range(SWEEP_TASKS):
        ranks = [round(f * k) + int(rng.integers(-25, 26)) for f in SWEEP_FRACTIONS]
        ranks = sorted(ranks + [ps.recommended_rank(k), round(ps.omega_rho() * k)])
        work = 2 * SWEEP_REPS * len(ranks)
        tasks.append(Task("sweep", work, partial(_sweep_call, k, ranks, SWEEP_REPS, _seed(rng)), ranks))
    return Workload("paper-sweep", "replications", tasks, _check_sweep, SWEEP_TAIL)


# -- mc-pool ------------------------------------------------------------------


def _cli_call(path: str) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["eval", "--config", path, "--threads", str(MC_THREADS)])
    if code != 0:
        raise RuntimeError(f"cli exited {code} on {path}")
    fields = out.getvalue().splitlines()[1].split(",")
    return tuple(float(x) for x in fields[6:10])


def _check_mc(tasks, outputs):
    problems = []
    for task, out in zip(tasks, outputs):
        kind, segments, k, rank = task.ref
        if kind == "discrete":
            want, err = ps.exact_single_sample_value(instance(segments)), 0.0
        else:
            want, err = oracles.banded_walk_value(segments, k, rank)
            segments = segments.segments()
        alg, prophet, ratio, ci = out
        problems.append(
            first_problem(
                estimate_problem("alg_value", alg, ci, want, err),
                exact_problem("prophet_value", prophet, oracles.prophet_value(segments)),
            )
        )
    return problems


def _mc_pool(rng, workdir: Path) -> Workload:
    rank = ps.recommended_rank(MC_MIXTURE_K)
    specs = [("discrete", discrete(rng, n), 1, 1) for n in (3, 4, 5)]
    for mode in ("atom", "atom", "atom", "free", "free", "free"):
        spec = banded(rng, MC_MIXTURE_N, MC_MIXTURE_K, rank, mode)
        specs.append((mode, spec, MC_MIXTURE_K, rank))
    workload = Workload("mc-pool", "replications", [], _check_mc, MC_TAIL, threads=MC_THREADS)
    for i, (kind, spec, k, r) in enumerate(specs):
        segments = spec if kind == "discrete" else spec.segments()
        reps = MC_DISCRETE_REPS if kind == "discrete" else MC_MIXTURE_REPS
        manifest = {
            "command": "eval",
            "instances": [{"id": f"{kind}{i}", "boxes": [{"segments": s} for s in segments]}],
            "rule": {"rule": "max_sample"} if kind == "discrete" else {"rule": "ordinal", "rank": r},
            "k": k,
            "reps": reps,
            "seed": _seed(rng),
        }
        path = workdir / f"mc-pool-{i}.json"
        path.write_text(json.dumps(manifest))
        workload.files.append(path)
        workload.tasks.append(Task(kind, reps, partial(_cli_call, str(path)), (kind, spec, k, r)))
    return workload


# -- exact-oracles ------------------------------------------------------------


def _adversary_call(policy, params) -> tuple:
    vec, ratio = hardness.adversary(policy, params)
    return (ratio, *vec.values)


def _mixture_tv_call(k: int) -> tuple:
    _, mix, star = hardness.build_dd_mixture(hardness.HardParams(k=k, eps=REFERENCE["count_mixture_tv"]["eps"]))
    return (stats.tv_distance(mix, star),)


def _binomial_tv_call(n: int) -> tuple:
    return (stats.tv_binom_vs_normal(n, REFERENCE["binomial_normal_tv"]["p"]),)


def _dominance_call(inst) -> tuple:
    report = evaluation.dominance_check(inst, ps.MaxSample(), 1, 0.5, mode="exact")
    return (report.worst_x, report.worst_ratio)


def _sandwich_call(seed: int) -> tuple:
    return evaluation.diagnostics_sandwich_sweep(SANDWICH_PROBES, seed)


def _chernoff_call(seed: int) -> tuple:
    c = CHERNOFF
    report = stats.chernoff_check([c["p"]] * c["n"], c["delta"], c["reps"], np.random.default_rng(seed))
    return (report.empirical, report.bound, float(report.passed))


def _check_oracles(tasks, outputs):
    problems: list = [None] * len(tasks)
    series: dict[str, list[int]] = {}
    for i, (task, out) in enumerate(zip(tasks, outputs)):
        kind = task.kind
        if kind == "adversary":
            if not 0.0 <= out[0] <= 0.51:
                problems[i] = f"adversary ratio {out[0]!r} outside [0, 0.51]"
        elif kind in ("mixture-tv", "binomial-tv"):
            table = REFERENCE["count_mixture_tv" if kind == "mixture-tv" else "binomial_normal_tv"]
            problems[i] = exact_problem(f"{kind} at {task.ref}", out[0], table["tv"][str(task.ref)])
            series.setdefault(kind, []).append(i)
        elif kind == "dominance-a":
            problems[i] = exact_problem("instance A worst ratio", out[1], 0.5)
        elif kind == "dominance":
            if not out[1] >= 0.5 - 1e-9:
                problems[i] = f"max-sample worst dominance ratio {out[1]!r} below 1/2"
        elif kind == "sandwich":
            if out[0] != 0:
                problems[i] = f"{out[0]} CDF sandwich violations (worst excess {out[1]!r})"
        elif kind == "chernoff":
            if out[2] != 1.0:
                problems[i] = f"Chernoff tail {out[0]!r} above bound {out[1]!r}"
    for kind, idx in series.items():
        if not _decreasing([outputs[i][0] for i in idx]):
            for i in idx:
                problems[i] = problems[i] or f"{kind} does not decrease as the size grows"
    return problems


def _exact_oracles(rng, workdir) -> Workload:
    params = hardness.HardParams(k=ADVERSARY_K)
    tasks = [
        Task("adversary", 1, partial(_adversary_call, hardness.QPolicy.random(ADVERSARY_K, rng), params))
        for _ in range(ADVERSARY_POLICIES)
    ]
    tasks += [Task("mixture-tv", 1, partial(_mixture_tv_call, k), k) for k in DD_KS]
    tasks += [Task("binomial-tv", 1, partial(_binomial_tv_call, n), n) for n in TV_NS]
    tasks.append(Task("dominance-a", 1, partial(_dominance_call, instance(_INSTANCE_A))))
    tasks += [
        Task("dominance", 1, partial(_dominance_call, instance(discrete(rng, int(rng.integers(2, 4)), 3))))
        for _ in range(DOMINANCE_RANDOM)
    ]
    tasks.append(Task("sandwich", 1, partial(_sandwich_call, _seed(rng))))
    tasks.append(Task("chernoff", 1, partial(_chernoff_call, _seed(rng))))
    return Workload("exact-oracles", "oracle tasks", tasks, _check_oracles, ORACLES_TAIL)


_BUILDERS = {
    "semi-atoms": _semi_atoms,
    "paper-sweep": _paper_sweep,
    "mc-pool": _mc_pool,
    "exact-oracles": _exact_oracles,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's inputs for this seed; mc-pool writes its manifests to workdir."""
    return _BUILDERS[name](workload_rng(name, seed), workdir)
