#!/usr/bin/env python3
"""Benchmark of prophet_samples, measured from outside through its public calls.

Usage (from the repository root):

    python3 bench/run.py --workload semi-atoms --seed 1 --seconds 20 --trace 0

The run imports the library from ./src, builds the workload's inputs from
the seed, runs one untimed warm-up pass over the workload's tasks, then
repeats timed passes until --seconds have passed. Every output is checked:
the warm-up outputs against exact references (bench/oracles.py) or stored
values (bench/reference.json), and each timed output against the warm-up
output of the same task.

With --trace 0 it reports the end-to-end metrics; set-up time is the median
of several fresh processes that import the library and build the inputs.
Task and set-up times are divided by the host speed factor that
bench/speed.py measures beside them, on as many threads as the work uses,
so they read as times on quiet cores; the details line also gives them
undivided. A pass time is the sum of its task times.
With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced passes, per pass, and the tracing slowdown.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds provenance and
details. Without ./src/prophet_samples the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SETUP_RUNS = 7
SETUP_PROBES = 5
TAIL_BEYOND = 10

# (name, unit, better) of each metric the runs report.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("task_p50_ms", "ms", "lower"),
    ("task_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _layer(label: str, *fields: str):
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "rows": ("count", "higher"),
             "thresholds": ("count", "higher"), "cpu_util": ("ratio", "higher"),
             "rank_law_calls_per_row": ("calls/row", "lower")}
    return tuple((f"{label}.{f}", *units[f]) for f in fields)


PER_LAYER = (
    _layer("distributions.sample_many", "calls", "self_s")
    + _layer("distributions.prophet_expectation", "calls", "self_s")
    + _layer("algorithms.threshold_value_with_rank_law", "calls", "self_s")
    + _layer("algorithms.beta_moments", "calls", "self_s")
    + _layer("algorithms.static_threshold_values", "calls", "thresholds", "self_s")
    + _layer("algorithms.threshold_diagnostics", "calls", "self_s")
    + _layer("evaluation.semi_exact_ordinal", "rows", "self_s", "rank_law_calls_per_row")
    + _layer("evaluation.mc_ratio", "rows", "self_s", "cpu_util")
    + _layer("evaluation.dominance_check", "calls", "self_s")
    + _layer("hardness.eval_q_policy", "calls", "self_s")
    + _layer("hardness.adversary", "self_s")
    + _layer("hardness.build_dd_mixture", "self_s")
    + _layer("stats.binom", "calls", "self_s")
    + _layer("stats.convolve", "calls", "self_s")
    + _layer("stats.binom_pmf_rows", "calls", "self_s")
    + _layer("stats.tv_binom_vs_normal", "calls", "self_s")
    + _layer("stats.chernoff_check", "calls", "self_s")
    + _layer("cli.main", "calls", "self_s")
    + (
        ("semi.atom_task_share", "ratio", "higher"),
        ("mc.lexsort_row_share", "ratio", "higher"),
        ("trace.slowdown", "ratio", "lower"),
    )
)

RANK_LAW = "algorithms.threshold_value_with_rank_law"


def import_program(root: Path):
    """Import prophet_samples from root/src and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import prophet_samples

    where = Path(prophet_samples.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"prophet_samples came from {where}, not from {src}")
    return prophet_samples


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    import prophet_samples
    import workloads

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "prophet_samples": prophet_samples.__version__,
        "git_sha": git_sha(ROOT),
        "seed": seed,
        "workers": {"mc-pool": workloads.MC_THREADS, "other workloads": 1},
    }


def _same(out, ref) -> bool:
    if ref is None or len(out) != len(ref):
        return False
    return all(a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b)) for a, b in zip(out, ref))


def _call(task):
    try:
        return task.call(), None
    except Exception as exc:  # a failing task is counted, and the run goes on
        return None, f"{task.kind}: {exc!r}"


class Measurement:
    """Task times and failures of the timed passes."""

    def __init__(self, workload, reference, probe) -> None:
        self.workload = workload
        self.reference = reference
        self.probe = probe
        self.records: list[tuple[int, bool, str, float, float]] = []
        self.passes = 0
        self.traced_passes: list[dict] = []
        self.runs = [0] * len(workload.tasks)
        self.run_failures = [0] * len(workload.tasks)
        self.errors: list[str] = []

    def failed(self, bad_tasks: set) -> int:
        """Failed task runs; every run of a task whose output check failed counts."""
        return sum(r if i in bad_tasks else f for i, (r, f) in enumerate(zip(self.runs, self.run_failures)))

    def run_pass(self, tracer=None) -> None:
        per_task_spans = []
        for i, task in enumerate(self.workload.tasks):
            self.probe.maybe_sample()
            t0 = time.perf_counter()
            out, error = _call(task)
            t1 = time.perf_counter()
            self.records.append((self.passes, tracer is not None, task.kind, t0, t1))
            self.runs[i] += 1
            if error or not _same(out, self.reference[i]):
                self.run_failures[i] += 1
                self.errors.append(error or f"{task.kind}: output differs from its first run")
            if tracer is not None:
                per_task_spans.append(tracer.take())
        self.passes += 1
        if tracer is not None:
            self.traced_passes.append(_layer_totals(per_task_spans))

    def times(self, traced: bool, scaled: bool) -> tuple[list[float], dict[str, list[float]], list[float]]:
        """Task seconds, task seconds by kind and pass seconds (sums of task seconds).

        With scaled, each time is divided by the host speed factor around it.
        """
        tasks, by_kind, passes = [], {}, {}
        for p, was_traced, kind, t0, t1 in self.records:
            if was_traced != traced:
                continue
            took = t1 - t0
            if scaled:
                took /= self.probe.factor(t0, t1)
            tasks.append(took)
            by_kind.setdefault(kind, []).append(took)
            passes[p] = passes.get(p, 0.0) + took
        return tasks, by_kind, list(passes.values())


def _layer_totals(per_task_spans: list) -> dict:
    """Per-label totals of one traced pass, plus the pass's workload shares."""
    totals: dict[str, dict] = {}
    for task_spans in per_task_spans:
        for s in task_spans:
            t = totals.setdefault(s.label, {"calls": 0, "self_s": 0.0, "rows": 0, "lexsort_rows": 0,
                                            "cpu_s": 0.0, "wall_s": 0.0, "threads": set()})
            t["calls"] += 1
            t["self_s"] += s.self_s
            t["rows"] += s.rows
            t["lexsort_rows"] += s.lexsort_rows
            t["cpu_s"] += s.cpu_s
            t["wall_s"] += s.end - s.start
            t["threads"].add(s.thread)
    rank_law_tasks = sum(1 for task_spans in per_task_spans if any(s.label == RANK_LAW for s in task_spans))
    totals["_tasks"] = {"tasks": len(per_task_spans), "rank_law_tasks": rank_law_tasks}
    return totals


def _per_layer_metrics(m: Measurement) -> tuple[dict, dict]:
    passes = m.traced_passes
    empty = {"calls": 0, "self_s": 0.0, "rows": 0, "lexsort_rows": 0, "cpu_s": 0.0, "wall_s": 0.0, "threads": set()}

    def med(label: str, key: str) -> float:
        return statistics.median(p.get(label, empty)[key] for p in passes)

    def total(label: str, key: str) -> float:
        return sum(p.get(label, empty)[key] for p in passes)

    values = {}
    for name, _, _ in PER_LAYER:
        label, _, field = name.rpartition(".")
        if field in ("calls", "rows", "self_s"):
            values[name] = med(label, field)
        elif field == "thresholds":
            values[name] = med(label, "rows")
    semi_rows = total("evaluation.semi_exact_ordinal", "rows")
    values["evaluation.semi_exact_ordinal.rank_law_calls_per_row"] = (
        total(RANK_LAW, "calls") / semi_rows if semi_rows else 0.0
    )
    mc_wall = total("evaluation.mc_ratio", "wall_s")
    values["evaluation.mc_ratio.cpu_util"] = total("evaluation.mc_ratio", "cpu_s") / mc_wall if mc_wall else 0.0
    tasks = sum(p["_tasks"]["tasks"] for p in passes)
    values["semi.atom_task_share"] = sum(p["_tasks"]["rank_law_tasks"] for p in passes) / tasks
    mc_rows = total("evaluation.mc_ratio", "rows")
    values["mc.lexsort_row_share"] = total("evaluation.mc_ratio", "lexsort_rows") / mc_rows if mc_rows else 0.0
    values["trace.slowdown"] = statistics.median(m.times(True, True)[2]) / statistics.median(m.times(False, True)[2])
    threads = {label: len(set().union(*(p.get(label, empty)["threads"] for p in passes)))
               for label in sorted({k for p in passes for k in p if not k.startswith("_")})}
    return values, {"traced_passes": len(passes), "threads_per_label": threads}


def _tail(latencies: list[float], percentile: float) -> tuple[float, float, int]:
    """(latency, percentile, tasks beyond it) at the workload's tail percentile.

    Falls back to the highest percentile with TAIL_BEYOND tasks beyond it
    when the run completed too few tasks for the fixed one.
    """
    value = float(np.percentile(latencies, percentile))
    beyond = sum(1 for x in latencies if x > value)
    if beyond >= TAIL_BEYOND or len(latencies) <= TAIL_BEYOND:
        return value, percentile, beyond
    ordered = sorted(latencies, reverse=True)
    n = len(ordered)
    return ordered[TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def measure_setup(name: str, seed: int, runs: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to the workload's inputs being ready.

    Returns the raw times and the times divided by the host speed factor,
    which kernel timings just before and after each start give.
    """
    import speed

    raw, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)]
    for _ in range(runs):
        probe = speed.SpeedProbe()
        for _ in range(SETUP_PROBES):
            probe.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
        for _ in range(SETUP_PROBES):
            probe.sample()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) / probe.factor(t0, t1))
    return raw, scaled


class WorkDir:
    """A private directory under the checkout for files a workload writes."""

    def __init__(self) -> None:
        self.path = ROOT / ".bench_work" / str(os.getpid())

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def run(name: str, seed: int, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details line)."""
    import spans
    import speed
    import workloads

    with WorkDir() as workdir:
        workload = workloads.build(name, seed, workdir)
        try:
            reference, errors = [], []
            for task in workload.tasks:
                out, error = _call(task)
                reference.append(out)
                errors += [error] if error else []
            probe = speed.SpeedProbe(workload.threads)
            try:
                m = Measurement(workload, reference, probe)
                tracer = spans.Tracer() if trace else None
                start = time.perf_counter()
                while True:
                    m.run_pass()
                    if tracer is not None:
                        with tracer.installed():
                            m.run_pass(tracer)
                    if time.perf_counter() - start >= seconds:
                        break
                probe.sample()
            finally:
                probe.close()
        finally:
            workload.close()
    # Read before the checks, whose reference computations are not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        problems = workload.check(workload.tasks, reference)
    except Exception as exc:  # a check that cannot run fails every task
        problems = [f"check failed: {exc!r}"] * len(workload.tasks)
    bad = {i for i, p in enumerate(problems) if p}
    attempted = sum(m.runs)
    failed = m.failed(bad)

    tasks, by_kind, passes = m.times(False, True)
    raw_tasks, _, raw_passes = m.times(False, False)
    pass_work = sum(t.work for t in workload.tasks)
    details = {
        "workload": name,
        "provenance": provenance(seed),
        "work_unit": workload.unit,
        "tasks_per_pass": len(workload.tasks),
        "passes": len(passes),
        "error_rate": failed / attempted,
        "problems": sorted(set(errors + m.errors + [p for p in problems if p]))[:20],
        "task_p50_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())},
        "raw": {"work_per_s": pass_work / statistics.median(raw_passes),
                "task_p50_ms": 1e3 * statistics.median(raw_tasks)},
        "speed_factor_median": statistics.median(probe.took) / probe.reference_s,
    }
    if trace:
        metrics, extra = _per_layer_metrics(m)
        details.update(extra)
        table = PER_LAYER
    else:
        tail_s, tail_pct, beyond = _tail(tasks, workload.tail_percentile)
        raw_setup, setup = measure_setup(name, seed, setup_runs)
        metrics = {
            "setup_s": statistics.median(setup),
            "work_per_s": pass_work / statistics.median(passes),
            "task_p50_ms": 1e3 * statistics.median(tasks),
            "task_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        details["raw"].update(setup_s=statistics.median(raw_setup),
                              task_tail_ms=1e3 * _tail(raw_tasks, workload.tail_percentile)[0])
        details["task_tail"] = {"percentile": tail_pct, "tasks_beyond": beyond, "tasks": len(tasks)}
        table = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit, _ in table},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="build the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)
    try:
        import_program(ROOT)
    except ImportError as exc:
        print(f"bench: cannot import prophet_samples from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        with WorkDir() as workdir:
            workloads.build(args.workload, args.seed, workdir).close()
            print("ready", flush=True)
        return 0
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, spec in result["metrics"].items():
        print(f"{args.workload} {key} = {spec['value']:.6g} {spec['unit']}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
