"""Spans around the public functions of prophet_samples, recorded from outside.

Installing a tracer replaces every binding of each traced function, in every
prophet_samples module that holds one, with a wrapper that records a span:
its label, thread, start, end, the time its direct children on the same
thread took, the process CPU time it covered and a work count. The library
imports several functions by name (evaluation binds beta_moments,
static_threshold_values and threshold_value_with_rank_law; hardness binds
binom, convolve, sum_of_binomials and binom_pmf_rows; cli binds mc_ratio),
so patching only the defining module would miss those calls. Removing the
tracer puts every original binding back.

A span's children are the spans opened under it on the same thread. Spans
on worker threads (sample_many under mc_ratio's simulator chunks) have no
parent, so the time mc_ratio waits for its workers is its self time, and it
overlaps the workers' spans.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from prophet_samples import algorithms, distributions

# (label, module name, attribute); the label names the layer in metrics.
FUNCTIONS = (
    ("algorithms.threshold_value_with_rank_law", "algorithms", "threshold_value_with_rank_law"),
    ("algorithms.beta_moments", "algorithms", "beta_moments"),
    ("algorithms.static_threshold_values", "algorithms", "static_threshold_values"),
    ("algorithms.threshold_diagnostics", "algorithms", "threshold_diagnostics"),
    ("evaluation.semi_exact_ordinal", "evaluation", "semi_exact_ordinal"),
    ("evaluation.mc_ratio", "evaluation", "mc_ratio"),
    ("evaluation.dominance_check", "evaluation", "dominance_check"),
    ("evaluation.ordinal_upper_bound_sweep", "evaluation", "ordinal_upper_bound_sweep"),
    ("evaluation.diagnostics_sandwich_sweep", "evaluation", "diagnostics_sandwich_sweep"),
    ("hardness.eval_q_policy", "hardness", "eval_q_policy"),
    ("hardness.adversary", "hardness", "adversary"),
    ("hardness.build_dd_mixture", "hardness", "build_dd_mixture"),
    ("stats.binom", "stats", "binom"),
    ("stats.convolve", "stats", "convolve"),
    ("stats.binom_pmf_rows", "stats", "binom_pmf_rows"),
    ("stats.sum_of_binomials", "stats", "sum_of_binomials"),
    ("stats.tv_distance", "stats", "tv_distance"),
    ("stats.tv_binom_vs_normal", "stats", "tv_binom_vs_normal"),
    ("stats.chernoff_check", "stats", "chernoff_check"),
    ("cli.main", "cli", "main"),
)

METHODS = (
    ("distributions.sample_many", distributions.ValueDist, "sample_many"),
    ("distributions.prophet_expectation", distributions.Instance, "prophet_expectation"),
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _mc_rows(args, kwargs) -> tuple[int, int]:
    """(replications, replications that select the threshold with lexsort)."""
    inst, rule, reps = args[0], _arg(args, kwargs, 1, "rule"), _arg(args, kwargs, 3, "reps")
    lexsort = inst.has_atoms and algorithms.effective_rank(rule) is not None
    return reps, reps if lexsort else 0


# Rows of work per call, and of those the rows whose threshold the simulator
# selects with lexsort, from the call's arguments; other labels count 1 per call.
COUNTERS = {
    "evaluation.semi_exact_ordinal": lambda a, kw: (_arg(a, kw, 3, "reps"), 0),
    "evaluation.mc_ratio": _mc_rows,
    "algorithms.static_threshold_values": lambda a, kw: (len(_arg(a, kw, 1, "ts")), 0),
}


@dataclass
class Span:
    label: str
    thread: int
    start: float
    end: float
    child_s: float
    cpu_s: float
    rows: int
    lexsort_rows: int

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        counter = COUNTERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.process_time() - cpu0
                child = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                rows, lexsort_rows = counter(args, kwargs) if counter else (1, 0)
                span = Span(label, threading.get_ident(), t0, t1, child, cpu, rows, lexsort_rows)
                with self._lock:
                    self.spans.append(span)

        return traced

    def _bindings(self):
        """Every (namespace, attribute, original, label) the tracer replaces."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "prophet_samples" or name.startswith("prophet_samples."))]
        for label, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"prophet_samples.{module_name}"], attr)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        yield module, name, original, label
        for label, cls, attr in METHODS:
            yield cls, attr, cls.__dict__[attr], label

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        bindings = list(self._bindings())
        for owner, name, original, label in bindings:
            setattr(owner, name, self._wrap(label, original))
            self._saved.append((owner, name, original))

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans
